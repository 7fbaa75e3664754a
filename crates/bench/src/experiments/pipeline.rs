//! Checkpoint write-pipeline comparison: serial oracle vs parallel
//! workers, with and without content-addressed dedup.
//!
//! The workload is built to exercise both tentpole behaviours directly:
//!
//! * each *build* cell creates several independent heavy co-variables, so
//!   the per-cell dump batch has real fan-out for the worker pool;
//! * the *repeat* cells re-create earlier cells' exact values — fresh
//!   objects (the conservative detector fires) holding identical bytes
//!   (the dedup index turns the writes into metadata-only operations).
//!
//! The same numbers feed the CI bench gate: [`bench_json`] emits the
//! machine-readable latencies `scripts/bench_gate.sh` compares against
//! `BENCH_baseline.json`, and [`compare`] is the comparator itself (kept
//! here, in-tree and unit-tested, so the shell stage stays a thin wrapper).

use std::time::Duration;

use kishu::session::{KishuConfig, KishuSession};
use kishu_testkit::json::Json;

use crate::report::{fmt_bytes, fmt_duration, Table};

/// One pipeline configuration's totals.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Worker threads used.
    pub workers: usize,
    /// Dedup enabled?
    pub dedup: bool,
    /// Total checkpoint wall time across cells.
    pub ckpt_wall: Duration,
    /// Wall time for three undo/redo round trips at the end of the run.
    pub checkout_wall: Duration,
    /// Logical serialized bytes (dedup hits included).
    pub bytes_logical: u64,
    /// Physical bytes handed to the store.
    pub bytes_written: u64,
    /// Co-variable writes deduplicated away.
    pub blobs_deduped: usize,
    /// Of `ckpt_wall`, nanoseconds in serialize+seal (phase 2; summed from
    /// the per-cell `ckpt.serialize` spans).
    pub serialize_ns: u64,
    /// Of `ckpt_wall`, nanoseconds in sequential store writes (phase 3).
    pub write_ns: u64,
}

/// The build+repeat workload (see module docs). Deterministic: payloads
/// derive from `(size, seed)` literals, so repeat cells repeat bytes.
fn workload_cells(scale: f64) -> Vec<String> {
    let payload = ((524_288.0 * scale) as usize).max(4_096);
    let build = |c: usize| {
        let mut src = String::new();
        for v in 0..4 {
            src.push_str(&format!(
                "m{c}_{v} = lib_obj('sk.GaussianMixture', {payload}, {seed})\n",
                seed = c * 10 + v
            ));
        }
        src
    };
    let mut cells: Vec<String> = (0..6).map(build).collect();
    // Repeat phase: same sources as the first two build cells.
    cells.push(build(0));
    cells.push(build(1));
    cells
}

/// Run the workload under one pipeline configuration.
pub fn run(scale: f64, workers: usize, dedup: bool) -> PipelineRun {
    let config = KishuConfig {
        checkpoint_workers: workers,
        dedup_blobs: dedup,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    let mut first_node = None;
    for cell in workload_cells(scale) {
        let r = s.run_cell(&cell).expect("pipeline workload parses");
        if first_node.is_none() {
            first_node = r.node;
        }
    }
    let m = s.metrics();
    let ckpt_wall = m.total_checkpoint();
    let bytes_logical = m.total_checkpoint_bytes();
    let bytes_written = m.total_bytes_written();
    let blobs_deduped = m.total_blobs_deduped();
    let serialize_ns = m.total_serialize_ns();
    let write_ns = m.total_write_ns();
    // Checkout latency: three undo/redo round trips to the first
    // checkpoint, summed (amortizes timer noise for the CI gate). Derived
    // from the reports' `co_wall_ns` — i.e. from the `checkout` spans — not
    // from a second stopwatch around them.
    let head = s.head();
    let first = first_node.expect("auto checkpoint committed");
    let mut checkout_ns = 0u64;
    for _ in 0..3 {
        checkout_ns += s.checkout(first).expect("undo").co_wall_ns;
        checkout_ns += s.checkout(head).expect("redo").co_wall_ns;
    }
    PipelineRun {
        workers,
        dedup,
        ckpt_wall,
        checkout_wall: Duration::from_nanos(checkout_ns),
        bytes_logical,
        bytes_written,
        blobs_deduped,
        serialize_ns,
        write_ns,
    }
}

/// The pipeline comparison table (printed by `repro table5` and
/// `repro pipeline`).
pub fn table(scale: f64) -> Table {
    let serial = run(scale, 1, true);
    let par = run(scale, 4, true);
    let nodedup = run(scale, 4, false);
    let mut t = Table::new(
        "Pipeline",
        "parallel checkpoint write pipeline vs the serial oracle",
        &[
            "Config",
            "ckpt wall",
            "undo/redo x3",
            "logical bytes",
            "bytes written",
            "deduped",
            "speedup",
        ],
    );
    let base = serial.ckpt_wall.as_secs_f64();
    for r in [&serial, &par, &nodedup] {
        let label = format!(
            "{} worker{}{}",
            r.workers,
            if r.workers == 1 { " (oracle)" } else { "s" },
            if r.dedup { "" } else { ", dedup off" }
        );
        t.row(vec![
            label,
            fmt_duration(r.ckpt_wall),
            fmt_duration(r.checkout_wall),
            fmt_bytes(r.bytes_logical),
            fmt_bytes(r.bytes_written),
            r.blobs_deduped.to_string(),
            format!("{:.2}x", base / r.ckpt_wall.as_secs_f64().max(1e-9)),
        ]);
    }
    t.note(
        "store contents and fault ledgers are byte-identical across worker \
         counts (writes stay on the session thread); dedup makes repeat \
         checkpoints metadata-only",
    );
    t
}

/// Machine-readable bench-gate metrics (lower is better for every entry).
/// Schema: `{"schema":"kishu-bench-v1","scale":S,"metrics":{name:ns}}`.
pub fn bench_json(scale: f64) -> Json {
    let serial = run(scale, 1, true);
    let par = run(scale, 4, true);
    // Read-side latencies from the restore sweep: cold restores at serial
    // and parallel width, and cache-warm round trips — so a regression in
    // the checkout pipeline or the read cache fails the gate like a write
    // regression does.
    let co_serial = super::restore::run(scale, 1, 0);
    let co_par = super::restore::run(scale, 4, 0);
    let co_cached = super::restore::run(scale, 4, super::restore::CACHE_BYTES);
    // Multi-session shared-store numbers ride along report-only: new metric
    // names have no baseline entry, so they cannot fail the gate until the
    // baseline is deliberately refreshed.
    let (multi_metrics, multi_info) = super::multi::bench_fragment(scale);
    // Storage-engine-v2 byte metrics (lower is better, like the latencies):
    // a representation regression — v2 suddenly writing v1-sized logs —
    // gates once the baseline carries these entries.
    let (chunk_metrics, chunk_info) = super::chunks::bench_fragment(scale);
    // Execution-engine wall times (bytecode VM vs tree-walker) on the
    // exec-bound workload: a regression in either engine gates like a
    // pipeline latency.
    let (interp_metrics, interp_info) = super::interp::bench_fragment(scale);
    // Commit-graph query latencies (dashboard diff/history polling): a
    // quadratic traversal sneaking back into the query surface gates like
    // a pipeline latency; the index-vs-scan speedup rides report-only
    // (its absolute floor lives in `repro queries`).
    let (query_metrics, query_info) = super::queries::bench_fragment(scale);
    let mut metric_pairs = vec![
                (
                    "ckpt_serial_ns",
                    Json::Int(serial.ckpt_wall.as_nanos() as i64),
                ),
                (
                    "ckpt_parallel_ns",
                    Json::Int(par.ckpt_wall.as_nanos() as i64),
                ),
                (
                    "checkout_ns",
                    Json::Int(par.checkout_wall.as_nanos() as i64),
                ),
                (
                    "checkout_serial_ns",
                    Json::Int(co_serial.cold_wall.as_nanos() as i64),
                ),
                (
                    "checkout_parallel_ns",
                    Json::Int(co_par.cold_wall.as_nanos() as i64),
                ),
                (
                    "checkout_cached_ns",
                    Json::Int(co_cached.warm_wall.as_nanos() as i64),
                ),
                // Per-phase breakdowns, derived from the same spans that
                // produced the wall totals above (never double-clocked):
                // write side splits serialize vs store-write, read side
                // splits fetch vs verify vs apply.
                ("ckpt_serialize_ns", Json::Int(par.serialize_ns as i64)),
                ("ckpt_write_ns", Json::Int(par.write_ns as i64)),
                ("checkout_fetch_ns", Json::Int(co_par.cold_fetch_ns as i64)),
                (
                    "checkout_verify_ns",
                    Json::Int(co_par.cold_verify_ns as i64),
                ),
                ("checkout_apply_ns", Json::Int(co_par.cold_apply_ns as i64)),
    ];
    metric_pairs.extend(multi_metrics);
    metric_pairs.extend(chunk_metrics);
    metric_pairs.extend(interp_metrics);
    metric_pairs.extend(query_metrics);
    Json::obj(vec![
        ("schema", Json::Str("kishu-bench-v1".into())),
        ("scale", Json::Float(scale)),
        ("metrics", Json::obj(metric_pairs)),
        ("multi", multi_info),
        ("chunks", chunk_info),
        ("interp", interp_info),
        ("queries", query_info),
    ])
}

/// Absolute slack under which a slowdown never gates (nanoseconds). The
/// quick-scale metrics are a few milliseconds; on a shared single-core CI
/// box a concurrent page-cache flush can add that much to *any* wall time,
/// so a percentage alone would fail tiny metrics on pure scheduler noise.
/// A real regression at these scales (losing parallel overlap, losing the
/// cache) costs tens of milliseconds and still trips the gate.
pub const NOISE_FLOOR_NS: f64 = 5_000_000.0;

/// Compare a PR's bench metrics against a baseline. Returns one line per
/// metric; `Err` lists the metrics that regressed beyond `tolerance`
/// (e.g. `0.25` fails anything more than 25% slower than baseline) *and*
/// more than [`NOISE_FLOOR_NS`] in absolute terms.
/// Metrics present on only one side are reported but never fail the gate —
/// a fresh metric has no baseline to regress from.
pub fn compare(baseline: &Json, pr: &Json, tolerance: f64) -> Result<Vec<String>, Vec<String>> {
    // Scale mismatch is a hard failure, not a tolerance question: every
    // metric grows with scale, so comparing a 1.0 run against a 0.1
    // baseline would either mask a real regression or fabricate one.
    if let (Some(b), Some(p)) = (
        baseline.get("scale").and_then(Json::as_f64),
        pr.get("scale").and_then(Json::as_f64),
    ) {
        if (b - p).abs() > 1e-9 {
            return Err(vec![format!(
                "scale mismatch: baseline ran at {b}, PR ran at {p} — metrics are not \
                 comparable across scales; refresh BENCH_baseline.json at the PR's scale \
                 (repro bench --scale {p} --out BENCH_baseline.json) or rerun at {b}"
            )]);
        }
    }
    let metrics = |j: &Json| -> Vec<(String, f64)> {
        let Some(Json::Object(m)) = j.get("metrics") else {
            return Vec::new();
        };
        m.iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect()
    };
    let base = metrics(baseline);
    let new = metrics(pr);
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for (name, pr_ns) in &new {
        match base.iter().find(|(k, _)| k == name) {
            Some((_, base_ns)) if *base_ns > 0.0 => {
                let ratio = pr_ns / base_ns;
                let line = format!(
                    "{name}: {:.2}ms -> {:.2}ms ({:+.1}%)",
                    base_ns / 1e6,
                    pr_ns / 1e6,
                    (ratio - 1.0) * 100.0
                );
                if ratio > 1.0 + tolerance && pr_ns - base_ns > NOISE_FLOOR_NS {
                    regressions.push(format!("{line}  REGRESSION (> {:.0}%)", tolerance * 100.0));
                } else {
                    lines.push(line);
                }
            }
            _ => lines.push(format!("{name}: no baseline (new metric, not gated)")),
        }
    }
    for (name, _) in &base {
        if !new.iter().any(|(k, _)| k == name) {
            // A silently vanished metric would un-gate itself forever: make
            // it loud so `bench_gate.sh` can surface it in the CI summary
            // (it still does not fail the gate — renames and baseline
            // refreshes are legitimate).
            lines.push(format!(
                "WARNING: {name}: present in baseline but missing from PR run \
                 (metric vanished — renamed, dropped, or the run is incomplete)"
            ));
        }
    }
    if regressions.is_empty() {
        Ok(lines)
    } else {
        regressions.extend(lines);
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny scale keeps the test fast; correctness properties (dedup fires,
    /// parallel beats serial on wall time, identical stored bytes) come
    /// from `tests/parallel_pipeline.rs` — here we check the experiment's
    /// own accounting.
    #[test]
    fn repeat_cells_dedup_and_accounting_is_consistent() {
        let r = run(0.05, 2, true);
        assert!(r.blobs_deduped >= 8, "two repeat cells of 4 covars: {r:?}");
        assert!(r.bytes_written < r.bytes_logical, "{r:?}");
        let off = run(0.05, 2, false);
        assert_eq!(off.blobs_deduped, 0);
        assert_eq!(off.bytes_logical, r.bytes_logical);
        // With truthful put receipts, the dedup-off arm writes the same
        // physical bytes: the store's content-addressed id layer catches
        // the repeats anyway and its receipt says so. Session-level dedup
        // is a metadata optimization (skip the put entirely), visible in
        // `blobs_deduped`, not in physical bytes.
        assert_eq!(off.bytes_written, r.bytes_written);
    }

    #[test]
    fn bench_json_has_the_gated_metrics() {
        let j = bench_json(0.02);
        for key in [
            "ckpt_serial_ns",
            "ckpt_parallel_ns",
            "checkout_ns",
            "checkout_serial_ns",
            "checkout_parallel_ns",
            "checkout_cached_ns",
            "ckpt_serialize_ns",
            "ckpt_write_ns",
            "checkout_fetch_ns",
            "checkout_verify_ns",
            "checkout_apply_ns",
            "query_diff_p50_ns",
            "query_diff_p99_ns",
            "query_history_p50_ns",
            "query_history_p99_ns",
            "query_poll_total_ns",
        ] {
            let m = j.get("metrics").and_then(|m| m.get(key)).and_then(Json::as_f64);
            assert!(matches!(m, Some(n) if n > 0.0), "{key} missing");
        }
        // Phase breakdowns are views over the wall totals, never larger.
        let ns = |key: &str| j.get("metrics").and_then(|m| m.get(key)).and_then(Json::as_f64).unwrap();
        assert!(ns("ckpt_serialize_ns") + ns("ckpt_write_ns") <= ns("ckpt_parallel_ns"));
        assert!(
            ns("checkout_fetch_ns") + ns("checkout_verify_ns") + ns("checkout_apply_ns")
                <= ns("checkout_parallel_ns")
        );
    }

    #[test]
    fn vanished_metrics_warn_loudly_without_gating() {
        let mk = |names: &[&str]| {
            Json::obj(vec![(
                "metrics",
                Json::obj(names.iter().map(|n| (*n, Json::Float(50e6))).collect()),
            )])
        };
        let lines = compare(
            &mk(&["ckpt_parallel_ns", "old_metric_ns"]),
            &mk(&["ckpt_parallel_ns"]),
            0.25,
        )
        .expect("a vanished metric must not gate");
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("WARNING:") && l.contains("old_metric_ns")),
            "missing-metric warning absent: {lines:?}"
        );
    }

    #[test]
    fn compare_gates_only_real_regressions() {
        // Nanosecond-realistic magnitudes (tens of ms), well above the
        // noise floor, so the ratio term is what's under test.
        let mk = |ckpt: f64, co: f64| {
            Json::obj(vec![(
                "metrics",
                Json::obj(vec![
                    ("ckpt_parallel_ns", Json::Float(ckpt)),
                    ("checkout_ns", Json::Float(co)),
                ]),
            )])
        };
        // Within tolerance: ok.
        assert!(compare(&mk(100e6, 100e6), &mk(120e6, 95e6), 0.25).is_ok());
        // Past tolerance: the offender is named.
        let err = compare(&mk(100e6, 100e6), &mk(130e6, 95e6), 0.25).unwrap_err();
        assert!(err.iter().any(|l| l.contains("ckpt_parallel_ns") && l.contains("REGRESSION")));
        // New metric with no baseline never fails.
        let pr = Json::obj(vec![(
            "metrics",
            Json::obj(vec![("brand_new_ns", Json::Float(5.0))]),
        )]);
        assert!(compare(&mk(100e6, 100e6), &pr, 0.25).is_ok());
    }

    #[test]
    fn compare_never_gates_sub_noise_floor_deltas() {
        let mk = |ns: f64| {
            Json::obj(vec![(
                "metrics",
                Json::obj(vec![("checkout_cached_ns", Json::Float(ns))]),
            )])
        };
        // +100% but only +3ms: scheduler noise on a tiny metric, not a
        // regression.
        assert!(compare(&mk(3e6), &mk(6e6), 0.25).is_ok());
        // +100% and +20ms: a real regression even on a small-ish metric.
        assert!(compare(&mk(20e6), &mk(40e6), 0.25).is_err());
    }
}
