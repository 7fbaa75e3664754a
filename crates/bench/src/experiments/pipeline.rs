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

use std::time::Duration;

use kishu::session::{KishuConfig, KishuSession};

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
    // checkpoint, summed to amortize timer noise. Derived from the reports'
    // `co_wall_ns` — i.e. from the `checkout` spans — not from a second
    // stopwatch around them.
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
}
