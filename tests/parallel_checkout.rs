//! Differential suite for the parallel checkout read pipeline — the
//! read-side twin of `parallel_pipeline.rs`.
//!
//! The serial path (`restore_workers = 1`) is the oracle: for any scripted
//! session and any checkout sequence, any restore worker count must produce
//!
//! 1. **identical checkout reports** — loaded/recomputed/removed sets,
//!    bytes loaded, integrity failures, cache hits (store reads never leave
//!    the session thread; only CRC verification and the decode charge fan
//!    out, and pool results return in job order);
//! 2. **identical restored namespaces** — the ground truth of §5.2;
//! 3. **an identical fault ledger** when the store injects read faults —
//!    [`FaultStore`] decisions are keyed by `(op, operation key, attempt)`,
//!    not drawn from a shared stream, so pipeline width cannot perturb them;
//! 4. **cache transparency** — with the read cache on and off, every
//!    checkout restores the same state and reports the same attribution
//!    (only `blobs_cached` may differ);
//! 5. **graceful degradation at every width** — a corrupt blob read lands
//!    in `integrity_failures` and falls back to recomputation no matter how
//!    many restore workers verify payloads.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

mod common;

use common::{assert_twins, observe, observe_with, Faults, Point, Script, ORACLE};
use kishu::session::{KishuConfig, KishuSession};
use kishu_minipy::repr::repr;
use kishu_storage::{FaultKind, FaultOp, FaultPlan, FaultStore, MemoryStore};
use kishu_testkit::prelude::*;

/// Restore worker counts under differential test; 1 is the oracle.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// `point` at `workers` restore threads, checkpointing serially.
fn restoring(point: &Point, workers: usize) -> KishuConfig {
    KishuConfig { checkpoint_workers: 1, restore_workers: workers, ..point.config() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any restore worker count produces identical checkout reports and
    /// identical restored namespaces vs the serial oracle.
    #[test]
    fn parallel_checkout_matches_serial_oracle(seed in any::<u64>()) {
        let script = Script::notebook(seed, 24);
        let oracle = observe(&ORACLE, &script);
        for workers in WORKER_COUNTS {
            assert_twins(&oracle, &observe_with(&ORACLE, restoring(&ORACLE, workers), &script));
        }
    }

    /// Read-fault injection is independent of the pipeline width: the
    /// ledger — every injected fault, in order — is identical at every
    /// restore worker count, and every checkout still lands on the right
    /// state (by load or by counted fallback recomputation).
    #[test]
    fn checkout_fault_ledger_is_identical_at_every_worker_count(seed in any::<u64>()) {
        let script = Script::notebook(seed, 20);
        let point = Point { faults: Faults::Seeded(seed ^ 0xFA17), ..ORACLE };
        let oracle = observe(&point, &script);
        for workers in WORKER_COUNTS {
            assert_twins(&oracle, &observe_with(&point, restoring(&point, workers), &script));
        }
    }

    /// The read cache is an optimization, never a behavior change: with the
    /// cache on and off, every checkout restores the same namespace and
    /// reports the same attribution (only `blobs_cached` may differ).
    #[test]
    fn read_cache_is_transparent(seed in any::<u64>()) {
        let script = Script::notebook(seed, 18);
        let point = Point { workers: 4, ..ORACLE };
        let with = observe(&point, &script);
        let config = KishuConfig { checkout_cache_bytes: 0, ..point.config() };
        let without = observe_with(&point, config, &script);
        assert_twins(&with, &without);
        // And with the cache off, nothing may ever report as cached.
        let cached = &without.physical.blobs_cached;
        prop_assert!(cached.iter().all(|&c| c == 0), "cache off but hits reported");
        // The disabled cache is not a 100%-miss cache: its lookups land in
        // the `disabled` counter, never in `misses` — and since the cache
        // is behavior-free, the off run makes exactly as many lookups as
        // the on run resolved to hits + misses.
        let (hits, misses, disabled) = with.physical.cache;
        let (off_hits, off_misses, off_disabled) = without.physical.cache;
        prop_assert_eq!((off_hits, off_misses), (0, 0), "{:?}", without.physical.cache);
        prop_assert_eq!(off_disabled, hits + misses);
        prop_assert_eq!(disabled, 0, "enabled cache drew a disabled count");
    }
}

/// A corrupt blob read degrades identically at every pipeline width: the
/// CRC failure is counted, the co-variable is recomputed, and the restored
/// value is right.
#[test]
fn corrupt_read_degrades_at_every_worker_count() {
    for workers in WORKER_COUNTS {
        let plan = FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::BitFlip);
        let store = FaultStore::new(Box::new(MemoryStore::new()), plan, 5);
        let config = KishuConfig {
            restore_workers: workers,
            ..KishuConfig::default()
        };
        let mut s = KishuSession::new(Box::new(store), config);
        s.run_cell("xs = [1, 2]\n").expect("cell");
        let target = s.head();
        s.run_cell("del xs\n").expect("cell");
        let report = s.checkout(target).expect("degrades to recomputation");
        assert_eq!(
            report.integrity_failures, 1,
            "read failure must be counted at restore_workers={workers}"
        );
        assert!(
            report.recomputed.iter().any(|k| k.contains("xs")),
            "xs must be recomputed at restore_workers={workers}"
        );
        assert_eq!(
            report.blobs_cached, 0,
            "a corrupt payload must never be cached"
        );
        let xs = s.interp.globals.peek("xs").expect("xs restored");
        assert_eq!(repr(&s.interp.heap, xs), "[1, 2]");
    }
}
