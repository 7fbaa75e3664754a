//! Bounded span retention for the flight recorder.
//!
//! An unbounded vector of every [`SpanRecord`] is fine for a short
//! `repro` run but grows without limit in a long traced session.
//! [`SpanRing`] is a fixed-budget FIFO instead: records are charged an
//! approximate in-memory cost and the oldest records are evicted once the
//! budget ([`crate::Trace::with_ring_bytes`]; 4 MiB for
//! [`crate::Trace::enabled`]) is exceeded. The ring holds the only copy of
//! each span: every view (`%health` latencies, the text summary, the
//! Chrome export) is computed from [`SpanRing::snapshot`].
//!
//! * **Truthful drop accounting.** `recorded == retained + dropped` at
//!   every instant — an evicted span bumps `dropped`; nothing vanishes
//!   silently.
//!
//! Snapshots are *sanitized*: a record whose parent was evicted is
//! re-rooted (`parent = None`) so exports never contain dangling
//! parent/child links (property-tested in `crates/trace` tests).

use std::collections::{HashSet, VecDeque};

use crate::SpanRecord;

/// Occupancy and accounting snapshot of a [`SpanRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Spans ever pushed into the ring.
    pub recorded: u64,
    /// Spans currently held.
    pub retained: u64,
    /// Spans evicted. The truthful counter: `recorded == retained +
    /// dropped` always.
    pub dropped: u64,
    /// Approximate bytes charged against the budget.
    pub bytes: u64,
    /// The configured budget.
    pub cap_bytes: u64,
}

impl RingStats {
    /// Occupancy as a fraction of the budget, for `%health`.
    pub fn occupancy(&self) -> f64 {
        if self.cap_bytes == 0 {
            0.0
        } else {
            self.bytes as f64 / self.cap_bytes as f64
        }
    }
}

/// Approximate in-memory cost of one record: struct overhead plus the
/// heap payloads (name and args). Close enough to bound real memory —
/// the soak test checks actual retention against this charge.
pub fn record_cost(r: &SpanRecord) -> usize {
    let args: usize = r.args.iter().map(|(k, v)| 48 + k.len() + v.len()).sum();
    96 + r.name.len() + args
}

/// The bounded span store: a FIFO window under a byte budget.
#[derive(Debug)]
pub struct SpanRing {
    cap_bytes: usize,
    window: VecDeque<SpanRecord>,
    bytes: usize,
    recorded: u64,
    dropped: u64,
}

impl SpanRing {
    pub fn new(cap_bytes: usize) -> SpanRing {
        SpanRing {
            cap_bytes: cap_bytes.max(1),
            window: VecDeque::new(),
            bytes: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append one record, evicting from the front until the budget holds.
    pub fn push(&mut self, record: SpanRecord) {
        self.recorded += 1;
        self.bytes += record_cost(&record);
        self.window.push_back(record);
        while self.bytes > self.cap_bytes && self.window.len() > 1 {
            let evicted = self.window.pop_front().expect("len > 1");
            self.bytes -= record_cost(&evicted);
            self.dropped += 1;
        }
    }

    /// Everything retained, id-sorted, with dangling parent links
    /// re-rooted so exports stay well-formed after eviction.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self.window.iter().cloned().collect();
        out.sort_by_key(|r| r.id);
        let present: HashSet<u64> = out.iter().map(|r| r.id).collect();
        for r in &mut out {
            if let Some(p) = r.parent {
                if !present.contains(&p) {
                    r.parent = None;
                }
            }
        }
        out
    }

    pub fn stats(&self) -> RingStats {
        RingStats {
            recorded: self.recorded,
            retained: self.window.len() as u64,
            dropped: self.dropped,
            bytes: self.bytes as u64,
            cap_bytes: self.cap_bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "op".into(),
            start_ns: id * 10,
            dur_ns,
            tid: 0,
            args: vec![],
        }
    }

    #[test]
    fn accounting_is_truthful_under_eviction() {
        let mut ring = SpanRing::new(1024);
        for i in 1..=1000 {
            ring.push(span(i, None, i));
        }
        let st = ring.stats();
        assert_eq!(st.recorded, 1000);
        assert_eq!(st.recorded, st.retained + st.dropped, "nothing vanishes");
        assert!(st.dropped > 0, "tiny budget must evict");
        assert!(st.bytes <= st.cap_bytes, "budget holds: {st:?}");
    }

    #[test]
    fn snapshot_reroots_orphaned_children() {
        let mut ring = SpanRing::new(400);
        ring.push(span(1, None, 5));
        for i in 2..=100 {
            ring.push(span(i, Some(1), 5));
        }
        let snap = ring.snapshot();
        assert!(!snap.iter().any(|r| r.id == 1), "parent evicted");
        for r in &snap {
            assert_eq!(r.parent, None, "children of evicted spans re-rooted");
        }
    }

    #[test]
    fn zero_pressure_ring_retains_everything_in_order() {
        let mut ring = SpanRing::new(1 << 20);
        for i in 1..=50 {
            ring.push(span(i, if i > 1 { Some(i - 1) } else { None }, 100));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 50);
        assert!(snap.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(ring.stats().dropped, 0);
        assert_eq!(snap[10].parent, Some(10));
    }
}
