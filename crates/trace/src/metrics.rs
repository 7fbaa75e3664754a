//! Named counters and log₂-bucketed histograms, snapshotable as JSON.
//!
//! Metric values are `u64` — byte counts, nanoseconds, event counts.
//! Histograms use power-of-two buckets (bucket *i* covers `[2^(i-1),
//! 2^i)`, bucket 0 is exactly zero), which spans the full `u64` range in
//! 65 fixed slots: plenty of resolution for "where do blob sizes /
//! latencies cluster" without configuring bounds per metric.

use std::collections::BTreeMap;

use kishu_testkit::json::Json;

/// A log₂-bucketed histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts zero samples; `buckets[i]` (i ≥ 1) counts
    /// samples in `[2^(i-1), 2^i)`.
    pub buckets: [u64; 65],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample seen (`u64::MAX` before any sample).
    pub min: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket index for a value: 0 for 0, else `65 - leading_zeros`
    /// — i.e. one more than the position of the highest set bit.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// JSON snapshot: count/sum/min/max plus the non-empty buckets as
    /// `[[floor, count], …]` (deterministic: ascending floors).
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                Json::Array(vec![
                    Json::Int(Self::bucket_floor(i) as i64),
                    Json::Int(*c as i64),
                ])
            })
            .collect();
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            (
                "min",
                Json::Int(if self.count == 0 { 0 } else { self.min as i64 }),
            ),
            ("max", Json::Int(self.max as i64)),
            ("buckets", Json::Array(buckets)),
        ])
    }
}

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

/// The registry: named counters and histograms, iterated in name order so
/// every snapshot serializes deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    windows: BTreeMap<String, RollingWindow>,
}

impl MetricsRegistry {
    /// Add `delta` to the named counter (created at zero on first use).
    pub fn counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Record a histogram sample (histogram created on first use).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// The named counter's value, if it was ever touched.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named histogram, if it was ever touched.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

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

    /// No metric was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.windows.is_empty()
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// JSON snapshot: `{"counters":{...},"histograms":{...}}`, keys in
    /// name order. Rolling latency windows are appended as a third
    /// `"latencies"` section (`{count, p50, p95, p99}` per op family)
    /// only when any exist, so pre-flight-recorder snapshots keep their
    /// exact bytes.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ];
        if !self.windows.is_empty() {
            fields.push((
                "latencies",
                Json::Object(
                    self.windows
                        .iter()
                        .map(|(k, w)| {
                            (
                                k.clone(),
                                Json::obj(vec![
                                    ("count", Json::Int(w.total as i64)),
                                    ("p50", Json::Int(w.p50() as i64)),
                                    ("p95", Json::Int(w.p95() as i64)),
                                    ("p99", Json::Int(w.p99() as i64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two_exactly() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every bucket's floor maps back into that bucket, and floor-1
        // maps strictly below it.
        for i in 1..=64usize {
            let floor = Histogram::bucket_floor(i);
            assert_eq!(Histogram::bucket_index(floor), i, "floor of bucket {i}");
            assert!(Histogram::bucket_index(floor - 1) < i, "below bucket {i}");
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 5, 4096] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 4103);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 4096);
        assert_eq!(h.mean(), 820);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 2); // the two ones
        assert_eq!(h.buckets[3], 1); // 5 in [4,8)
        assert_eq!(h.buckets[13], 1); // 4096 in [4096,8192)
    }

    #[test]
    fn json_snapshot_is_deterministic_and_sparse() {
        let mut m = MetricsRegistry::default();
        m.counter("zebra", 1);
        m.counter("apple", 2);
        m.observe("lat", 3);
        m.observe("lat", 1000);
        let dump = m.to_json().dump();
        // BTreeMap ordering: apple before zebra regardless of insert order.
        assert!(dump.find("apple").unwrap() < dump.find("zebra").unwrap());
        let j = m.to_json();
        let h = j.get("histograms").and_then(|h| h.get("lat")).unwrap();
        assert_eq!(h.get("count").and_then(Json::as_i64), Some(2));
        // Only 2 non-empty buckets serialized out of 65.
        let Some(Json::Array(b)) = h.get("buckets") else {
            panic!("buckets array")
        };
        assert_eq!(b.len(), 2);
    }

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
        m.counter("c", 1);
        // No windows: snapshot keeps the two-section shape.
        assert!(!m.to_json().dump().contains("latencies"));
        m.observe_latency("ckpt", 100);
        m.observe_latency("ckpt", 200);
        let j = m.to_json();
        let lat = j.get("latencies").and_then(|l| l.get("ckpt")).unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_i64), Some(2));
        assert_eq!(lat.get("p99").and_then(Json::as_i64), Some(200));
        assert!(!m.is_empty());
    }

    #[test]
    fn empty_histogram_snapshot_is_sane() {
        let h = Histogram::default();
        let j = h.to_json();
        assert_eq!(j.get("min").and_then(Json::as_i64), Some(0));
        assert_eq!(j.get("max").and_then(Json::as_i64), Some(0));
        assert_eq!(h.mean(), 0);
    }
}
