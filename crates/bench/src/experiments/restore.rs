//! Checkout read-pipeline sweep: restore latency vs worker count, cold and
//! cache-warm — the read-side companion of [`super::pipeline`].
//!
//! The workload builds several cells of independent heavy co-variables,
//! then time-travels: one *cold* undo/redo round trip (every payload read
//! from the store, CRC-verified, and decode-charged) followed by repeated
//! *warm* round trips over the same pair of states (served from the read
//! cache when it is enabled). The sweep shows the two tentpole effects:
//!
//! * cold restore wall time shrinks with restore workers, because the
//!   per-payload decode charges overlap (store reads stay serial on the
//!   session thread, so reports and fault ledgers are width-independent);
//! * warm round trips collapse to near-zero with the cache on, because a
//!   hit skips the store read, the CRC pass, and the decode charge.

use std::time::Duration;

use kishu::session::{KishuConfig, KishuSession};

use crate::report::{fmt_bytes, fmt_duration, Table};

/// Default read-cache capacity for the cache-on configurations.
pub const CACHE_BYTES: u64 = 32 * 1024 * 1024;

/// One restore configuration's measurements.
#[derive(Debug, Clone)]
pub struct RestoreRun {
    /// Restore worker threads used.
    pub workers: usize,
    /// Read-cache capacity (0 = off).
    pub cache_bytes: u64,
    /// Wall time of the cold undo/redo round trip (no prior reads).
    pub cold_wall: Duration,
    /// Wall time of three warm undo/redo round trips after the cold one.
    pub warm_wall: Duration,
    /// Payload bytes decoded during the cold round trip.
    pub bytes_loaded: u64,
    /// Cache-served loads during the warm round trips.
    pub warm_cached: usize,
    /// Loads during the warm round trips (cached or not).
    pub warm_loaded: usize,
    /// Of `cold_wall`, nanoseconds in phase 1 (sequential store reads).
    pub cold_fetch_ns: u64,
    /// Of `cold_wall`, nanoseconds in phase 2 (pooled CRC verify + decode
    /// charge).
    pub cold_verify_ns: u64,
    /// Of `cold_wall`, nanoseconds in phase 3 (sequential deserialize +
    /// namespace apply).
    pub cold_apply_ns: u64,
}

/// Build cells of independent heavy co-variables (fan-out for the worker
/// pool); deterministic payloads derive from `(size, seed)` literals.
fn workload_cells(scale: f64) -> Vec<String> {
    let payload = ((524_288.0 * scale) as usize).max(4_096);
    (0..6)
        .map(|c| {
            let mut src = String::new();
            for v in 0..4 {
                src.push_str(&format!(
                    "r{c}_{v} = lib_obj('sk.GaussianMixture', {payload}, {seed})\n",
                    seed = c * 10 + v
                ));
            }
            src
        })
        .collect()
}

/// Run the time-travel workload under one restore configuration.
pub fn run(scale: f64, workers: usize, cache_bytes: u64) -> RestoreRun {
    let config = KishuConfig {
        checkpoint_workers: 4,
        restore_workers: workers,
        checkout_cache_bytes: cache_bytes,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    let mut first_node = None;
    for cell in workload_cells(scale) {
        let r = s.run_cell(&cell).expect("restore workload parses");
        if first_node.is_none() {
            first_node = r.node;
        }
    }
    let head = s.head();
    let first = first_node.expect("auto checkpoint committed");
    // Cold round trip: the undo removes the later cells' co-variables, the
    // redo loads every one of them back from the store. All wall times are
    // derived from the reports' `co_wall_ns` (the `checkout` spans) — no
    // second stopwatch around the calls.
    let undo = s.checkout(first).expect("cold undo");
    let redo = s.checkout(head).expect("cold redo");
    let cold_wall = Duration::from_nanos(undo.co_wall_ns + redo.co_wall_ns);
    let bytes_loaded = undo.bytes_loaded + redo.bytes_loaded;
    let cold_fetch_ns = undo.fetch_ns + redo.fetch_ns;
    let cold_verify_ns = undo.verify_ns + redo.verify_ns;
    let cold_apply_ns = undo.apply_ns + redo.apply_ns;
    // Warm round trips over the same pair of states.
    let mut warm_cached = 0usize;
    let mut warm_loaded = 0usize;
    let mut warm_ns = 0u64;
    for _ in 0..3 {
        let u = s.checkout(first).expect("warm undo");
        let r = s.checkout(head).expect("warm redo");
        warm_cached += u.blobs_cached + r.blobs_cached;
        warm_loaded += u.loaded.len() + r.loaded.len();
        warm_ns += u.co_wall_ns + r.co_wall_ns;
    }
    RestoreRun {
        workers,
        cache_bytes,
        cold_wall,
        warm_wall: Duration::from_nanos(warm_ns),
        bytes_loaded,
        warm_cached,
        warm_loaded,
        cold_fetch_ns,
        cold_verify_ns,
        cold_apply_ns,
    }
}

/// The restore sweep table (printed by `repro restore`).
pub fn table(scale: f64) -> Table {
    let serial = run(scale, 1, 0);
    let runs = [
        &serial,
        &run(scale, 2, 0),
        &run(scale, 4, 0),
        &run(scale, 8, 0),
        &run(scale, 4, CACHE_BYTES),
    ];
    let mut t = Table::new(
        "Restore",
        "parallel checkout read pipeline vs the serial oracle, cold and cache-warm",
        &[
            "Config",
            "cold undo/redo",
            "warm x3",
            "bytes loaded",
            "cache hits",
            "cold speedup",
        ],
    );
    let base = serial.cold_wall.as_secs_f64();
    for r in runs {
        let label = format!(
            "{} worker{}{}",
            r.workers,
            if r.workers == 1 { " (oracle)" } else { "s" },
            if r.cache_bytes > 0 { ", cache on" } else { "" }
        );
        t.row(vec![
            label,
            fmt_duration(r.cold_wall),
            fmt_duration(r.warm_wall),
            fmt_bytes(r.bytes_loaded),
            format!("{}/{}", r.warm_cached, r.warm_loaded),
            format!("{:.2}x", base / r.cold_wall.as_secs_f64().max(1e-9)),
        ]);
    }
    t.note(
        "checkout reports, namespaces, and fault ledgers are identical \
         across restore worker counts (store reads stay on the session \
         thread); warm round trips with the cache on skip the store read, \
         the CRC pass, and the decode charge",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accounting consistency at a tiny scale; width-independence and cache
    /// transparency come from `tests/parallel_checkout.rs`.
    #[test]
    fn warm_round_trips_hit_the_cache() {
        let r = run(0.05, 2, CACHE_BYTES);
        assert!(r.bytes_loaded > 0, "{r:?}");
        assert!(r.warm_loaded > 0, "{r:?}");
        assert_eq!(r.warm_cached, r.warm_loaded, "all warm loads served by the cache: {r:?}");
        let off = run(0.05, 2, 0);
        assert_eq!(off.warm_cached, 0, "cache off: {off:?}");
        assert_eq!(off.bytes_loaded, r.bytes_loaded, "cache never changes what is loaded");
    }

    /// The parallel cold restore beats the serial oracle: decode charges
    /// overlap across restore workers (they are sleeps, so this holds on
    /// any core count).
    #[test]
    fn parallel_cold_restore_beats_the_serial_oracle() {
        let serial = run(0.2, 1, 0);
        let par = run(0.2, 4, 0);
        assert!(
            par.cold_wall < serial.cold_wall,
            "4-worker cold restore must beat the oracle: {:?} vs {:?}",
            par.cold_wall,
            serial.cold_wall
        );
    }
}
