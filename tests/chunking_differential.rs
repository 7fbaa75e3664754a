//! Storage-engine-v2 differential: chunking and compression are
//! **representation-only**. With the chunk layer on vs off
//! ([`kishu_storage::ChunkConfig::disabled`], the v1 frames):
//!
//! 1. every logical view is byte-identical — blob ids, payload bytes read
//!    back, restored namespaces at every checkpoint (and, for a
//!    `FileStore`, after reopening the log);
//! 2. every cell report is identical *minus the physical-byte fields*
//!    (`bytes_written`, `chunks_written`, `chunks_deduped`,
//!    `bytes_compressed` are exactly the representation-dependent truth the
//!    receipts exist to tell);
//! 3. fault ledgers are identical — the fault layer draws per logical
//!    operation, so the representation underneath cannot shift a draw;
//!
//! at checkpoint/restore workers 1 and 4, over `MemoryStore` and
//! `FileStore` backends, plus a `FaultStore`-injected arm.

mod common;

use common::{assert_twins, observe, Backend, Chunking, Faults, Observation, Point, Script, ORACLE};

const WORKER_COUNTS: [usize; 2] = [1, 4];

/// The v2 (`on`) and v1 (`off`) observations of `script` at `point`.
fn arms(point: Point, script: &Script) -> (Observation, Observation) {
    (observe(&Point { chunking: Chunking::SmallV2, ..point }, script), observe(&point, script))
}

#[test]
fn chunking_is_representation_only_memory_store() {
    let script = Script::notebook(0x5EED_C4F2, 14).visiting_every_node();
    for workers in WORKER_COUNTS {
        let (on, off) = arms(Point { workers, ..ORACLE }, &script);
        assert_twins(&on, &off);
        // And the physical story must actually differ: the v2 arm chunked,
        // deduped, and wrote fewer physical bytes.
        let (on, off) = (on.physical.total(), off.physical.total());
        assert!(on.chunks_written > 0, "v2 arm never chunked: {on:?}");
        assert!(on.chunks_deduped > 0, "append-style edits must chunk-dedup: {on:?}");
        assert_eq!(off.chunks_written, 0);
        assert_eq!(off.bytes_compressed, 0);
        assert!(
            on.bytes_written < off.bytes_written,
            "chunk dedup + compression must shrink physical writes: {on:?} vs {off:?}"
        );
    }
}

/// Group commit is on for the v2 arm and off for the v1 arm: the barrier
/// plumbing must not leak into any logical observation either. The
/// harness also checks each log reopens to the identical logical view.
#[test]
fn chunking_is_representation_only_file_store() {
    let script = Script::notebook(0x5EED_F11E, 12).visiting_every_node();
    for workers in WORKER_COUNTS {
        let (on, off) = arms(Point { workers, store: Backend::File, ..ORACLE }, &script);
        assert_twins(&on, &off);
        let (on, off) = (&on.physical, &off.physical);
        assert!(on.total().chunks_written > 0, "v2 arm never chunked: {:?}", on.total());
        assert!(on.total().bytes_written < off.total().bytes_written);
        // The on-disk logs themselves must reflect the physical savings.
        let (on_len, off_len) = (on.physical_bytes, off.physical_bytes);
        assert!(on_len < off_len, "v2 log ({on_len}B) not smaller than v1 ({off_len}B)");
    }
}

#[test]
fn chunking_does_not_shift_fault_draws() {
    let script = Script::notebook(0x5EED_FA17, 12).visiting_every_node();
    for workers in WORKER_COUNTS {
        let (on, off) = arms(Point { workers, faults: Faults::Seeded(0xFA17), ..ORACLE }, &script);
        assert_twins(&on, &off);
        assert!(off.logical.ledger.total() > 0, "no faults fired at workers={workers}");
    }
}
