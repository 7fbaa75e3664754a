//! Differential suite for the parallel checkpoint write pipeline.
//!
//! The serial path (`checkpoint_workers = 1`) is the oracle: for any
//! scripted session, any worker count must produce
//!
//! 1. **byte-identical store contents** — same blob ids, same bytes, in
//!    the same order (writes never leave the session thread; only
//!    serialization and CRC sealing fan out);
//! 2. **identical per-cell reports** — node ids, logical checkpoint bytes,
//!    physical bytes written, dedup and drop counters;
//! 3. **an identical fault ledger** when the store injects faults —
//!    `FaultStore` decisions are keyed, not drawn from a shared stream, so
//!    interleaving cannot perturb them;
//! 4. **dedup that never suppresses a changed payload** — with dedup on
//!    and off, every checkpoint restores the same namespace at every node.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

mod common;

use common::{assert_twins, observe, observe_with, Faults, Point, Script, ORACLE};
use kishu::session::{KishuConfig, KishuSession};
use kishu_minipy::repr::repr;
use kishu_testkit::prelude::*;

/// Worker counts under differential test; 1 is the oracle.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any worker count produces byte-identical store contents and
    /// identical per-cell reports vs the serial oracle.
    #[test]
    fn parallel_pipeline_matches_serial_oracle(seed in any::<u64>()) {
        let script = Script::notebook(seed, 24).cells_only();
        let oracle = observe(&ORACLE, &script);
        for workers in WORKER_COUNTS {
            assert_twins(&oracle, &observe(&Point { workers, ..ORACLE }, &script));
        }
    }

    /// Fault injection is independent of the pipeline width: the ledger —
    /// every injected fault, in order — is identical at every worker count.
    #[test]
    fn fault_ledger_is_identical_at_every_worker_count(seed in any::<u64>()) {
        let script = Script::notebook(seed, 20).cells_only();
        let faulty = Point { faults: Faults::Seeded(seed ^ 0xFA17), ..ORACLE };
        let oracle = observe(&faulty, &script);
        for workers in WORKER_COUNTS {
            assert_twins(&oracle, &observe(&Point { workers, ..faulty }, &script));
        }
    }

    /// Dedup never suppresses a changed payload: with dedup on and off,
    /// checking out every node restores the same namespace.
    #[test]
    fn dedup_preserves_every_checkpoint(seed in any::<u64>()) {
        let script = Script::notebook(seed, 18).visiting_every_node();
        let point = Point { workers: 4, ..ORACLE };
        let with = observe(&point, &script).logical;
        let config = KishuConfig { dedup_blobs: false, ..point.config() };
        let without = observe_with(&point, config, &script).logical;
        for (a, b) in with.cells.iter().zip(&without.cells) {
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes,
                "dedup must not change the logical checkpoint size");
        }
        // Dedup is an optimization, never a behavior change: every past
        // state restores identically from both stores.
        prop_assert_eq!(&with.checkouts, &without.checkouts);
        prop_assert_eq!(&with.namespaces, &without.namespaces);
    }
}

/// Repeat checkpoints of unchanged bytes are metadata-only: the dedup
/// counter fires and the store does not grow.
#[test]
fn repeat_payloads_are_deduplicated() {
    let mut s = KishuSession::in_memory(KishuConfig::default());
    s.run_cell("x = [1, 2, 3]\n").expect("first");
    let before = s.store_stats();
    // Re-creating the same value makes a fresh object, so the conservative
    // detector fires — but the sealed bytes are identical.
    let r = s.run_cell("x = [1, 2, 3]\n").expect("repeat");
    if r.node.is_some() && !r.updated.is_empty() {
        assert!(r.blobs_deduped > 0, "repeat write must dedup: {r:?}");
        assert_eq!(r.bytes_written, 0, "no physical bytes for a pure repeat");
        assert!(r.checkpoint_bytes > 0, "logical size still counted");
        assert_eq!(s.store_stats().blobs, before.blobs, "store did not grow");
    } else {
        panic!("detector did not fire on re-creation; dedup bait needs rework");
    }
    // A genuinely changed payload is never suppressed.
    let r = s.run_cell("x.append(4)\n").expect("mutate");
    assert_eq!(r.blobs_deduped, 0, "changed bytes must not dedup");
    assert!(r.bytes_written > 0, "changed bytes must hit the store");
    let node = r.node.expect("auto checkpoint");
    s.run_cell("x = 0\n").expect("clobber");
    s.checkout(node).expect("checkout");
    assert_eq!(
        repr(&s.interp.heap, s.interp.globals.peek("x").expect("x bound")),
        "[1, 2, 3, 4]"
    );
}
