//! Commit-graph query-surface benchmark: the "dashboard" workload.
//!
//! The paper's demo front end polls the session for state diffs and
//! per-variable histories continuously while the notebook runs — queries
//! that must stay metadata-only (no blob deserialization) to be pollable
//! at interactive rates over graphs with hundreds of checkpoints. This
//! experiment builds a branchy notebook (forks and branch refs, not a
//! chain), then drives several simulated dashboard pollers through a
//! diff+history query mix, recording per-query latencies.
//!
//! Two kinds of numbers come out:
//!
//! * **latency percentiles** (`query_diff_p50/p99_ns`,
//!   `query_history_p50/p99_ns`) and the whole sweep's wall time
//!   (`query_poll_total_ns`), reported in `target/QUERIES.json`;
//! * the **index-vs-scan speedup**: `history` is backed by the
//!   incrementally-maintained modified-in index, and this experiment times
//!   the same query set against `history_bruteforce` (the ancestor-chain
//!   scan the property tests use as the oracle), in 9 alternating pairs
//!   ([`crate::report::alternating_pairs`]). `repro queries` writes the
//!   median per-pair ratio to `target/QUERIES.json` and exits 1 when it
//!   misses [`MIN_SPEEDUP`] — the index silently degenerating to a scan
//!   is a regression even if both stay fast.

use std::time::Instant;

use kishu::graph::NodeId;
use kishu::session::{KishuConfig, KishuSession};
use kishu_testkit::json::Json;

use crate::report::{alternating_pairs, floor_verdict, fmt_duration, PairedRatios, Table};

/// The floor on [`QueriesRun::speedup`] (release builds): the
/// modified-in index must answer the history set at least 1.5x faster than
/// the ancestor scan.
pub const MIN_SPEEDUP: f64 = 1.5;

/// One full run of the dashboard workload.
#[derive(Debug, Clone)]
pub struct QueriesRun {
    /// Checkpoints in the notebook graph.
    pub commits: usize,
    /// Branch refs created while building (the graph is a tree).
    pub branches: usize,
    /// Simulated dashboard pollers.
    pub pollers: usize,
    /// Diff queries issued (shallow: graph metadata only).
    pub diffs: usize,
    /// History queries issued (index-backed).
    pub histories: usize,
    pub diff_p50_ns: u64,
    pub diff_p95_ns: u64,
    pub diff_p99_ns: u64,
    pub history_p50_ns: u64,
    pub history_p95_ns: u64,
    pub history_p99_ns: u64,
    /// Wall time of the whole poll sweep (all pollers, both query kinds).
    pub poll_total_ns: u64,
    /// Fastest wall time answering the history query set from the
    /// modified-in index.
    pub index_ns: u64,
    /// Same query set via the brute-force ancestor-chain scan.
    pub bruteforce_ns: u64,
    /// Median over pairs of scan wall time over index wall time (≥ 1.0
    /// means the index wins).
    pub speedup: f64,
    /// Every pair's ratio.
    pub ratios: PairedRatios,
}

/// Distinct variable names the notebook churns through. Enough that any
/// one variable's postings are sparse relative to the commit count — the
/// asymmetry the index exploits (it touches only the commits that modified
/// the variable; the scan inspects every ancestor's whole delta).
const VARS: usize = 24;

/// Build the branchy notebook: every cell reassigns three variables (one
/// also deleted now and then, so the index sees deletions too), and the
/// session periodically branches the head and forks from mid-chain, so
/// diffs cross real divergence instead of walking a chain.
fn build_notebook(scale: f64) -> (KishuSession, usize) {
    let commits = ((600.0 * scale) as usize).max(60);
    let mut s = KishuSession::in_memory(KishuConfig::default());
    let mut branches = 0;
    for i in 0..commits {
        let a = i % VARS;
        let b = (i * 7 + 3) % VARS;
        let c = (i * 13 + 5) % VARS;
        let mut src = format!("v{a} = {i}\nv{b} = {}\nv{c} = [{i}, {a}]\n", i * 2);
        if i % 16 == 9 {
            // Delete a variable this same cell assigned: the commit both
            // modifies and deletes it (the index's "rewrote" case).
            src.push_str(&format!("del v{b}\n"));
        }
        s.run_cell(&src).expect("dashboard workload parses");
        if i % 48 == 47 {
            branches += 1;
            s.set_branch(&format!("b{branches}"), None).expect("branch at head");
            let fork = NodeId((s.graph().len() / 2) as u32);
            s.checkout(fork).expect("fork point exists");
        }
    }
    (s, branches)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Timed index-vs-scan pairs.
const PAIRS: usize = 9;
/// Inner repeats per timed measurement, so each arm's wall time is tens of
/// microseconds rather than timer-resolution noise.
const INNER: usize = 8;

/// Run the dashboard workload.
pub fn run(scale: f64) -> QueriesRun {
    let (s, branches) = build_notebook(scale);
    let n = s.graph().len() as u32;
    let names: Vec<String> = (0..VARS).map(|v| format!("v{v}")).collect();

    // --- poll phase: several dashboards, each a diff+history query mix.
    // Query targets stride deterministically through the graph (large
    // coprime multipliers), so every poller hits a different spread of
    // node pairs without a seed to replay.
    let pollers = 4;
    let rounds = ((200.0 * scale) as usize).max(50);
    let mut diff_ns = Vec::with_capacity(pollers * rounds);
    let mut hist_ns = Vec::with_capacity(pollers * rounds);
    let mut entries_seen = 0usize; // keeps the query results observably used
    let poll_start = Instant::now();
    for p in 0..pollers {
        for r in 0..rounds {
            let q = (p * rounds + r) as u32;
            let a = NodeId((q.wrapping_mul(7919)) % n);
            let b = NodeId((q.wrapping_mul(104_729).wrapping_add(1)) % n);
            let t = Instant::now();
            let report = s.diff(a, b).expect("both nodes exist");
            diff_ns.push(t.elapsed().as_nanos() as u64);
            entries_seen += report.entries.len();

            let name = &names[q as usize % VARS];
            let at = NodeId((q.wrapping_mul(31)) % n);
            let t = Instant::now();
            let h = s.history_at(name, at).expect("node exists");
            hist_ns.push(t.elapsed().as_nanos() as u64);
            entries_seen += h.len();
        }
    }
    let poll_total_ns = poll_start.elapsed().as_nanos() as u64;
    assert!(entries_seen > 0, "the query mix never saw an entry");

    // --- index-vs-scan phase: the same history query set answered by the
    // modified-in index and by the oracle scan. Answers are cross-checked
    // before anything is timed — a benchmark that computed different
    // histories would be measuring nothing.
    let g = s.graph();
    let ats = [NodeId(n - 1), NodeId(n / 2), NodeId(n / 3)];
    for at in ats {
        for name in &names {
            assert_eq!(
                g.history(name, at),
                g.history_bruteforce(name, at),
                "index disagreed with the scan for {name} at {at:?}"
            );
        }
    }
    let time_arm = |f: &dyn Fn(&str, NodeId) -> usize| -> u64 {
        let t = Instant::now();
        let mut total = 0usize;
        for _ in 0..INNER {
            for at in ats {
                for name in &names {
                    total += f(name, at);
                }
            }
        }
        assert!(total > 0);
        t.elapsed().as_nanos() as u64
    };
    let pairs = alternating_pairs(
        PAIRS,
        || time_arm(&|name, at| g.history(name, at).len()),
        || time_arm(&|name, at| g.history_bruteforce(name, at).len()),
    );
    let ratios = PairedRatios::new(
        pairs.iter().map(|&(index, scan)| scan as f64 / (index as f64).max(1.0)).collect(),
    );
    let index_ns = pairs.iter().map(|p| p.0).min().expect("at least one pair ran");
    let bruteforce_ns = pairs.iter().map(|p| p.1).min().expect("at least one pair ran");

    diff_ns.sort_unstable();
    hist_ns.sort_unstable();
    QueriesRun {
        commits: n as usize,
        branches,
        pollers,
        diffs: diff_ns.len(),
        histories: hist_ns.len(),
        diff_p50_ns: percentile(&diff_ns, 50.0),
        diff_p95_ns: percentile(&diff_ns, 95.0),
        diff_p99_ns: percentile(&diff_ns, 99.0),
        history_p50_ns: percentile(&hist_ns, 50.0),
        history_p95_ns: percentile(&hist_ns, 95.0),
        history_p99_ns: percentile(&hist_ns, 99.0),
        poll_total_ns,
        index_ns,
        bruteforce_ns,
        speedup: ratios.median(),
        ratios,
    }
}

impl QueriesRun {
    /// `Ok` with a summary line when [`Self::speedup`] holds
    /// [`MIN_SPEEDUP`], else `Err` with the miss.
    pub fn check_floor(&self) -> Result<String, String> {
        let line = format!(
            "history-index speedup {:.2}x over the ancestor scan, {} (floor {MIN_SPEEDUP}x)",
            self.speedup,
            self.ratios.summary()
        );
        floor_verdict(self.speedup >= MIN_SPEEDUP, line)
    }
}

/// Human-readable table for `repro queries`, from a completed run (so
/// `repro queries` renders the table *and* writes the JSON from one
/// execution of the workload).
pub fn table_from(r: &QueriesRun) -> Table {
    let ns = |v: u64| fmt_duration(std::time::Duration::from_nanos(v));
    let mut t = Table::new(
        "Queries",
        "dashboard diff/history polling over the commit graph",
        &["Query", "count", "p50", "p95", "p99"],
    );
    t.row(vec![
        "diff (shallow)".into(),
        r.diffs.to_string(),
        ns(r.diff_p50_ns),
        ns(r.diff_p95_ns),
        ns(r.diff_p99_ns),
    ]);
    t.row(vec![
        "history (indexed)".into(),
        r.histories.to_string(),
        ns(r.history_p50_ns),
        ns(r.history_p95_ns),
        ns(r.history_p99_ns),
    ]);
    t.note(format!(
        "{} commits, {} branches, {} pollers, sweep {} total; the \
         modified-in index answers the history set {:.2}x faster than the \
         brute-force ancestor scan, {} (identical answers cross-checked \
         first)",
        r.commits,
        r.branches,
        r.pollers,
        ns(r.poll_total_ns),
        r.speedup,
        r.ratios.summary()
    ));
    t
}

/// Machine-readable form of a completed run for `repro queries` (default
/// `target/QUERIES.json`).
pub fn json_from(r: &QueriesRun, scale: f64) -> Json {
    let mut fields = vec![
        ("schema", Json::Str("kishu-queries-v1".into())),
        ("scale", Json::Float(scale)),
        ("commits", Json::Int(r.commits as i64)),
        ("branches", Json::Int(r.branches as i64)),
        ("queries", Json::Int((r.diffs + r.histories) as i64)),
        ("query_diff_p50_ns", Json::Int(r.diff_p50_ns as i64)),
        ("query_diff_p99_ns", Json::Int(r.diff_p99_ns as i64)),
        ("query_history_p50_ns", Json::Int(r.history_p50_ns as i64)),
        ("query_history_p99_ns", Json::Int(r.history_p99_ns as i64)),
        ("query_poll_total_ns", Json::Int(r.poll_total_ns as i64)),
        ("index_ns", Json::Int(r.index_ns as i64)),
        ("bruteforce_ns", Json::Int(r.bruteforce_ns as i64)),
    ];
    fields.extend(r.ratios.json_fields());
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the query surface: the modified-in index
    /// beats the brute-force ancestor scan on the history query set. Like
    /// the interp benchmark, the ratio is only meaningful optimized, so
    /// debug builds run the workload (which still cross-checks index
    /// answers against the oracle) without asserting it; the release
    /// number gates via `repro queries`.
    #[test]
    fn index_beats_the_bruteforce_scan() {
        let r = run(0.1);
        assert!(r.diffs > 0 && r.histories > 0);
        assert!(r.diff_p50_ns <= r.diff_p99_ns);
        assert!(r.history_p50_ns <= r.history_p99_ns);
        if cfg!(debug_assertions) {
            assert!(r.speedup > 0.0);
            return;
        }
        assert!(
            r.speedup >= MIN_SPEEDUP,
            "{:?} (index {} ns, scan {} ns)",
            r.check_floor(),
            r.index_ns,
            r.bruteforce_ns
        );
    }

    #[test]
    fn json_reports_scale_latencies_and_speedup() {
        let j = json_from(&run(0.05), 0.05);
        assert_eq!(j.get("schema").and_then(|s| s.as_str()), Some("kishu-queries-v1"));
        for key in [
            "query_diff_p50_ns",
            "query_diff_p99_ns",
            "query_history_p50_ns",
            "query_history_p99_ns",
            "query_poll_total_ns",
            "speedup",
        ] {
            assert!(
                matches!(j.get(key).and_then(Json::as_f64), Some(v) if v > 0.0),
                "{key} missing from QUERIES json"
            );
        }
        assert_eq!(j.get("pairs").and_then(Json::as_i64), Some(PAIRS as i64));
        let [lo, mid, hi] = ["speedup_min", "speedup", "speedup_max"]
            .map(|k| j.get(k).and_then(Json::as_f64).expect(k));
        assert!(lo <= mid && mid <= hi, "{lo} <= {mid} <= {hi}");
    }
}
