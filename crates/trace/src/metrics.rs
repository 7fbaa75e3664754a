//! Rolling latency windows per op family, snapshotable as JSON.
//!
//! The windows are filled when finished spans are flushed, so they are a
//! view over spans, not a recording channel of their own: the only
//! records are spans and journal events.

use std::collections::BTreeMap;

use kishu_testkit::json::Json;

/// Samples retained per rolling latency window.
pub const WINDOW_CAP: usize = 512;

/// A rolling window over the last [`WINDOW_CAP`] latency samples of one
/// op family, answering p50/p95/p99 for the operator surface
/// (`%health`). A window, not an all-time histogram: operators care about
/// *current* tail latency, and a fixed-size buffer keeps the always-on
/// recorder's memory bounded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollingWindow {
    samples: Vec<u64>,
    /// Next overwrite position once the buffer is full.
    next: usize,
    /// Samples ever recorded (may exceed `samples.len()`).
    pub total: u64,
}

impl RollingWindow {
    /// Record one sample, overwriting the oldest once full.
    pub fn record(&mut self, value: u64) {
        if self.samples.len() < WINDOW_CAP {
            self.samples.push(value);
        } else {
            self.samples[self.next] = value;
            self.next = (self.next + 1) % WINDOW_CAP;
        }
        self.total += 1;
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile over the current window (`q` in 0..=1),
    /// or 0 with no samples. Deterministic for a given sample sequence.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// The registry: one rolling latency window per op family, iterated in
/// name order so every snapshot serializes deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    windows: BTreeMap<String, RollingWindow>,
}

impl MetricsRegistry {
    /// Record a latency sample into the op family's rolling window
    /// (window created on first use).
    pub fn observe_latency(&mut self, name: &str, ns: u64) {
        self.windows.entry(name.to_string()).or_default().record(ns);
    }

    /// The op family's rolling latency window, if it was ever touched.
    pub fn latency(&self, name: &str) -> Option<&RollingWindow> {
        self.windows.get(name)
    }

    /// Iterate rolling latency windows in name order.
    pub fn latencies(&self) -> impl Iterator<Item = (&str, &RollingWindow)> {
        self.windows.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// No latency was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// JSON snapshot: `{"latencies":{...}}` with `{count, p50, p95, p99}`
    /// per op family in name order, or `{}` when no window exists.
    pub fn to_json(&self) -> Json {
        if self.windows.is_empty() {
            return Json::obj(Vec::new());
        }
        let windows = self
            .windows
            .iter()
            .map(|(k, w)| {
                let stats = Json::obj(vec![
                    ("count", Json::Int(w.total as i64)),
                    ("p50", Json::Int(w.p50() as i64)),
                    ("p95", Json::Int(w.p95() as i64)),
                    ("p99", Json::Int(w.p99() as i64)),
                ]);
                (k.clone(), stats)
            })
            .collect();
        Json::obj(vec![("latencies", Json::Object(windows))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_window_percentiles_use_nearest_rank() {
        let mut w = RollingWindow::default();
        for v in 1..=100u64 {
            w.record(v);
        }
        assert_eq!(w.p50(), 50);
        assert_eq!(w.p95(), 95);
        assert_eq!(w.p99(), 99);
        assert_eq!(w.percentile(1.0), 100);
        assert_eq!(RollingWindow::default().p99(), 0);
    }

    #[test]
    fn rolling_window_is_bounded_and_forgets_old_samples() {
        let mut w = RollingWindow::default();
        // Fill with slow samples, then overwrite with fast ones.
        for _ in 0..WINDOW_CAP {
            w.record(1_000_000);
        }
        for _ in 0..WINDOW_CAP {
            w.record(10);
        }
        assert_eq!(w.len(), WINDOW_CAP, "bounded");
        assert_eq!(w.total, 2 * WINDOW_CAP as u64, "but counts everything");
        assert_eq!(w.p99(), 10, "old tail aged out of the window");
    }

    #[test]
    fn latencies_serialize_sparsely() {
        let mut m = MetricsRegistry::default();
        // No windows: an empty snapshot.
        assert!(!m.to_json().dump().contains("latencies"));
        m.observe_latency("ckpt", 100);
        m.observe_latency("ckpt", 200);
        let j = m.to_json();
        let lat = j.get("latencies").and_then(|l| l.get("ckpt")).unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_i64), Some(2));
        assert_eq!(lat.get("p99").and_then(Json::as_i64), Some(200));
        assert!(!m.is_empty());
    }
}
