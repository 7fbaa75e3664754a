//! The structured event journal: a bounded, severity-tiered stream of
//! notable moments (slow spans, injected faults, retries, GC phases,
//! barrier failures, cache pressure) that rides alongside the span ring.
//!
//! Spans answer "what did this run do"; events answer "what went *wrong*
//! lately" without replaying a trace. The journal is append-only and
//! bounded ([`crate::ObsConfig::journal_events`] — older entries are dropped with
//! truthful accounting, same contract as the span ring). Each event
//! renders as one JSON object ([`event_json`]), the line format of the
//! crash black box, pinned by a golden-bytes test like the Chrome
//! exporter.

use std::collections::VecDeque;

use kishu_testkit::json::Json;

use crate::SpanRecord;

/// Event severity tier, ordered `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One journal entry. `seq` is the journal-assigned sequence number
/// (starting at 1, never reused); `t_ns` is nanoseconds since the trace
/// epoch. Fields are free-form ordered key/value pairs, like span args.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub t_ns: u64,
    pub severity: Severity,
    /// Stable machine-readable kind: `slow_span`, `fault`, `retry`,
    /// `gc`, `barrier_failed`, `cache_pressure`, …
    pub kind: String,
    pub fields: Vec<(String, String)>,
}

/// The bounded journal. Push is O(1); eviction drops the oldest entry
/// and bumps `dropped`.
#[derive(Debug)]
pub struct EventJournal {
    cap: usize,
    next_seq: u64,
    events: VecDeque<Event>,
    dropped: u64,
}

impl EventJournal {
    pub fn new(cap: usize) -> EventJournal {
        EventJournal {
            cap: cap.max(1),
            next_seq: 1,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append an event stamped `t_ns` nanoseconds after the trace epoch.
    pub fn push_at(
        &mut self,
        t_ns: u64,
        severity: Severity,
        kind: &str,
        fields: Vec<(String, String)>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(Event {
            seq,
            t_ns,
            severity,
            kind: kind.to_string(),
            fields,
        });
        while self.events.len() > self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Everything currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Events evicted by the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever appended.
    pub fn recorded(&self) -> u64 {
        self.next_seq - 1
    }
}

/// One event as a JSON object (field order fixed: seq, t_ns, sev, kind,
/// fields). The `fields` sub-object preserves insertion order.
pub fn event_json(e: &Event) -> Json {
    Json::obj(vec![
        ("seq", Json::Int(e.seq as i64)),
        ("t_ns", Json::Int(e.t_ns as i64)),
        ("sev", Json::Str(e.severity.as_str().into())),
        ("kind", Json::Str(e.kind.clone())),
        (
            "fields",
            Json::Object(
                e.fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

/// The slow-span threshold for an op name: the configured base
/// ([`crate::ObsConfig::slow_ns`], default 50ms) scaled per op family — whole-cell
/// and whole-checkout spans are expected to be much slower than a single
/// store put, so they alert at a higher bar.
pub fn slow_threshold_ns(base_ns: u64, name: &str) -> u64 {
    // Multipliers in eighths so the arithmetic stays integral.
    let eighths: u64 = if name.starts_with("cell.") || name == "recompute" {
        40 // 5x: user code and replay dominate wall time
    } else if name == "ckpt" || name == "checkout" || name.starts_with("query.") {
        16 // 2x: whole-phase spans
    } else if name.starts_with("store.") || name.starts_with("shared.") {
        4 // 0.5x: individual store ops should be fast
    } else {
        8 // 1x: everything else alerts at the base
    };
    (base_ns / 8).saturating_mul(eighths).max(1)
}

/// Build the `slow_span` event fields for a span that crossed its
/// threshold.
pub fn slow_span_fields(r: &SpanRecord, threshold_ns: u64) -> Vec<(String, String)> {
    let mut fields = vec![
        ("op".to_string(), r.name.clone()),
        ("span".to_string(), r.id.to_string()),
        ("dur_ns".to_string(), r.dur_ns.to_string()),
        ("threshold_ns".to_string(), threshold_ns.to_string()),
        ("tid".to_string(), r.tid.to_string()),
    ];
    // Carry fault/ledger annotations through so a slow faulted op links
    // back to its FaultLedger entry from the journal alone.
    for (k, v) in &r.args {
        if k == "fault" || k == "ledger" {
            fields.push((k.clone(), v.clone()));
        }
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_bounds_and_accounts() {
        let mut j = EventJournal::new(3);
        for i in 0..5u64 {
            j.push_at(i, Severity::Info, "gc", vec![("i".into(), i.to_string())]);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.recorded(), 5);
        assert_eq!(snap[0].seq, 3, "oldest retained is the 3rd");
        assert_eq!(snap[2].seq, 5);
    }

    /// Golden bytes: one event per line is what the black box writes —
    /// pin it exactly, like the Chrome exporter.
    #[test]
    fn golden_bytes_pin_the_jsonl_event_format() {
        let events = [
            Event {
                seq: 1,
                t_ns: 1_500,
                severity: Severity::Warn,
                kind: "slow_span".into(),
                fields: vec![
                    ("op".into(), "ckpt".into()),
                    ("dur_ns".into(), "80000000".into()),
                ],
            },
            Event {
                seq: 2,
                t_ns: 2_000,
                severity: Severity::Error,
                kind: "barrier_failed".into(),
                fields: vec![],
            },
        ];
        let expected = [
            concat!(
                r#"{"seq":1,"t_ns":1500,"sev":"warn","kind":"slow_span","#,
                r#""fields":{"op":"ckpt","dur_ns":"80000000"}}"#,
            ),
            r#"{"seq":2,"t_ns":2000,"sev":"error","kind":"barrier_failed","fields":{}}"#,
        ];
        for (e, want) in events.iter().zip(expected) {
            let line = event_json(e).dump();
            assert_eq!(line, want);
            // Each line parses back as standalone JSON.
            assert!(Json::parse(&line).expect("line parses").get("seq").is_some());
        }
    }

    #[test]
    fn slow_thresholds_scale_by_op_family() {
        let base = 50_000_000;
        assert_eq!(slow_threshold_ns(base, "cell.exec"), 250_000_000);
        assert_eq!(slow_threshold_ns(base, "ckpt"), 100_000_000);
        assert_eq!(slow_threshold_ns(base, "store.put"), 25_000_000);
        assert_eq!(slow_threshold_ns(base, "shared.sync"), 25_000_000);
        assert_eq!(slow_threshold_ns(base, "pickle.dumps"), 50_000_000);
        assert!(slow_threshold_ns(0, "ckpt") >= 1, "never zero");
    }

    #[test]
    fn slow_span_fields_carry_fault_links() {
        let r = SpanRecord {
            id: 7,
            parent: None,
            name: "store.put".into(),
            start_ns: 0,
            dur_ns: 99,
            tid: 2,
            args: vec![
                ("bytes".into(), "10".into()),
                ("fault".into(), "transient".into()),
                ("ledger".into(), "4".into()),
            ],
        };
        let fields = slow_span_fields(&r, 50);
        assert!(fields.iter().any(|(k, v)| k == "ledger" && v == "4"));
        assert!(fields.iter().any(|(k, v)| k == "fault" && v == "transient"));
        assert!(!fields.iter().any(|(k, _)| k == "bytes"));
    }
}
