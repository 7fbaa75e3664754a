//! Operator health: [`KishuSession::health`], its report types, and the
//! crash black box a failed checkout dumps.

use super::KishuSession;
use crate::graph::NodeId;

impl KishuSession {
    /// Point-in-time operator snapshot: cache hit rates, dedup ratios,
    /// fault/retry counts, per-op tail latencies, and flight-recorder
    /// occupancy. Read-only and purely observational — it reports what
    /// already happened and decides nothing.
    pub fn health(&self) -> HealthReport {
        let metrics = self.trace.metrics();
        let counter = |name: &str| metrics.counter_value(name).unwrap_or(0);
        let latencies = metrics
            .latencies()
            .map(|(op, w)| LatencyHealth {
                op: op.to_string(),
                count: w.total,
                p50_ns: w.p50(),
                p95_ns: w.p95(),
                p99_ns: w.p99(),
            })
            .collect();
        HealthReport {
            head: self.graph.head(),
            commits: self.graph.len(),
            cells: self.metrics.cells.len(),
            read_cache: self.read_cache.stats(),
            diff_cache_hits: self.diff_cache_hits.get(),
            diff_cache_misses: self.diff_cache_misses.get(),
            diff_cache_entries: self.diff_cache.borrow().len() as u64,
            blobs_deduped: self.metrics.total_blobs_deduped() as u64,
            blobs_dropped: self.metrics.total_blobs_dropped() as u64,
            checkpoint_bytes: self.metrics.total_checkpoint_bytes(),
            bytes_written: self.metrics.total_bytes_written(),
            store_retries: counter("store.retry"),
            barrier_failures: counter("store.barrier_failed"),
            integrity_failures: counter("integrity.failures"),
            faults_injected: counter("faults.injected"),
            latencies,
            ring: self.trace.is_enabled().then(|| self.trace.ring_stats()),
            events_dropped: self.trace.events_dropped(),
        }
    }

    /// Write a crash black box (ring tail + recent events) under
    /// `target/flightrec/` — only when the operator armed it with
    /// `KISHU_OBS_BLACKBOX` and the recorder is enabled. Best-effort:
    /// dump failures are swallowed, because observability must never turn
    /// a degraded session into a dead one.
    pub(super) fn black_box(&self, reason: &str) {
        if !kishu_trace::env_switches().blackbox {
            return;
        }
        let dir = std::path::Path::new(kishu_trace::blackbox::DEFAULT_DIR);
        let _ = kishu_trace::blackbox::dump(&self.trace, dir, reason);
    }
}

/// One op family's rolling-window tail latencies in a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct LatencyHealth {
    /// Span name the window aggregates (`cell.exec`, `store.put`, ...).
    pub op: String,
    /// Samples ever observed (the window itself holds the newest 512).
    pub count: u64,
    /// Median over the window, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile over the window, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile over the window, nanoseconds.
    pub p99_ns: u64,
}

/// Operator health snapshot ([`KishuSession::health`], REPL `%health`).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current head checkpoint.
    pub head: NodeId,
    /// Nodes in the checkpoint graph (including the root).
    pub commits: usize,
    /// Cells executed this session.
    pub cells: usize,
    /// Checkout read-cache counters.
    pub read_cache: kishu_storage::CacheStats,
    /// Diff-report memo hits ([`KishuSession::diff`]).
    pub diff_cache_hits: u64,
    /// Diff-report memo misses.
    pub diff_cache_misses: u64,
    /// Diff reports currently memoized.
    pub diff_cache_entries: u64,
    /// Sealed payloads deduplicated away session-wide.
    pub blobs_deduped: u64,
    /// Co-variables whose bytes were dropped to fallback recomputation.
    pub blobs_dropped: u64,
    /// Logical serialized bytes across all cells.
    pub checkpoint_bytes: u64,
    /// Physical bytes the store reported appending.
    pub bytes_written: u64,
    /// Store operations retried after transient errors.
    pub store_retries: u64,
    /// Group-commit barriers that failed (degradations, not data loss).
    pub barrier_failures: u64,
    /// Checkout payloads that failed CRC or refused to deserialize.
    pub integrity_failures: u64,
    /// Faults injected by a [`kishu_storage::FaultStore`] underneath.
    pub faults_injected: u64,
    /// Rolling-window tail latencies per op family, registry order.
    pub latencies: Vec<LatencyHealth>,
    /// Flight-recorder ring occupancy; `None` when the recorder is off.
    pub ring: Option<kishu_trace::RingStats>,
    /// Journal events evicted by the journal's own bound.
    pub events_dropped: u64,
}

impl HealthReport {
    /// Read-cache hit rate over enabled lookups; `None` before any.
    pub fn read_cache_hit_rate(&self) -> Option<f64> {
        let total = self.read_cache.hits + self.read_cache.misses;
        (total > 0).then(|| self.read_cache.hits as f64 / total as f64)
    }

    /// Diff-memo hit rate; `None` before any diff ran.
    pub fn diff_cache_hit_rate(&self) -> Option<f64> {
        let total = self.diff_cache_hits + self.diff_cache_misses;
        (total > 0).then(|| self.diff_cache_hits as f64 / total as f64)
    }

    /// Fraction of logical checkpoint bytes that never hit the medium
    /// (session dedup + chunk dedup + compression); `None` before any
    /// checkpoint bytes.
    pub fn dedup_ratio(&self) -> Option<f64> {
        (self.checkpoint_bytes > 0)
            .then(|| 1.0 - self.bytes_written as f64 / self.checkpoint_bytes as f64)
    }

    /// Multi-line human-readable rendering (the REPL's `%health`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |r: Option<f64>| match r {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_string(),
        };
        out.push_str(&format!(
            "head t{}  commits {}  cells {}\n",
            self.head.0, self.commits, self.cells
        ));
        out.push_str(&format!(
            "read cache   hits {} misses {} evictions {}  hit rate {}\n",
            self.read_cache.hits,
            self.read_cache.misses,
            self.read_cache.evictions,
            pct(self.read_cache_hit_rate()),
        ));
        out.push_str(&format!(
            "diff cache   hits {} misses {} resident {}  hit rate {}\n",
            self.diff_cache_hits,
            self.diff_cache_misses,
            self.diff_cache_entries,
            pct(self.diff_cache_hit_rate()),
        ));
        out.push_str(&format!(
            "dedup        blobs {}  bytes {} of {} written  saved {}\n",
            self.blobs_deduped,
            self.bytes_written,
            self.checkpoint_bytes,
            pct(self.dedup_ratio()),
        ));
        out.push_str(&format!(
            "degradations retries {}  barrier failures {}  integrity {}  faults {}  blobs dropped {}\n",
            self.store_retries,
            self.barrier_failures,
            self.integrity_failures,
            self.faults_injected,
            self.blobs_dropped,
        ));
        match &self.ring {
            Some(ring) => out.push_str(&format!(
                "recorder     spans {} retained {} dropped {}  ring {:.1}% of {} bytes  events dropped {}\n",
                ring.recorded,
                ring.retained,
                ring.dropped,
                ring.occupancy() * 100.0,
                ring.cap_bytes,
                self.events_dropped,
            )),
            None => out.push_str("recorder     off (set KISHU_TRACE=1)\n"),
        }
        if !self.latencies.is_empty() {
            out.push_str("latency (ns)          count       p50       p95       p99\n");
            for l in &self.latencies {
                out.push_str(&format!(
                    "  {:<18} {:>7} {:>9} {:>9} {:>9}\n",
                    l.op, l.count, l.p50_ns, l.p95_ns, l.p99_ns
                ));
            }
        }
        out
    }
}
