//! # kishu-storage — checkpoint blob stores
//!
//! Kishu writes versioned co-variables into storage and reads them back on
//! checkout; the paper uses SQLite but notes "any storage mechanism can be
//! used in its place — even in-memory ones" (§6.1). This crate provides the
//! storage layer behind the Checkpoint Graph:
//!
//! * [`CheckpointStore`] — the blob-store interface every checkpointing
//!   mechanism (Kishu and all baselines) writes through, so size and time
//!   accounting are uniform across methods;
//! * [`MemoryStore`] — zero-I/O backend for unit tests and for isolating
//!   algorithmic costs in benchmarks;
//! * [`FileStore`] — a durable append-only log with length-prefixed,
//!   CRC-checked records and crash recovery on open (a torn tail write is
//!   detected and truncated away, records before it stay readable); its
//!   chunks dedup by byte equality, found through the CRC each chunk frame
//!   carries;
//! * [`FaultStore`] — a deterministic fault-injecting decorator over any
//!   store (transient/permanent errors, bit-flips, short writes, fsync
//!   lies), for testing graceful degradation in the layers above;
//! * [`BlobIndex`] — a content-addressed index over sealed payloads, used
//!   by the checkpoint write pipeline to turn repeat writes of unchanged
//!   bytes into metadata-only operations;
//! * [`BlobCache`] — the read-side twin: a bounded LRU cache of verified
//!   checkout payloads keyed by blob id, so undo/redo time-travel over the
//!   same states becomes memory-speed.

pub mod cache;
pub mod chunk;
pub mod crc32;
pub mod dedup;
pub mod fault_store;
pub mod file_store;
pub mod memory_store;

pub use cache::{BlobCache, CacheStats};
pub use chunk::{ChunkConfig, ChunkStats};
pub use dedup::{content_key, BlobIndex, ContentKey};
pub use fault_store::{
    FaultKind, FaultLedger, FaultLedgerHandle, FaultOp, FaultPlan, FaultStore, InjectedFault,
};
pub use file_store::FileStore;
pub use memory_store::MemoryStore;

use std::io;

/// Handle to a stored blob. Dense, assigned in insertion order.
pub type BlobId = u64;

/// Aggregate storage accounting, used by the checkpoint-size experiments
/// (Fig 13, Fig 18, Fig 19).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of blobs stored.
    pub blobs: u64,
    /// Sum of payload bytes.
    pub payload_bytes: u64,
    /// Physical bytes including per-record framing (what disk usage is).
    pub physical_bytes: u64,
}

/// Physical attribution of one [`CheckpointStore::put_with_receipt`] call.
///
/// `bytes_written` is what the store *physically* appended for this put —
/// under chunking/compression that is the stored bytes of the chunks this
/// payload introduced (plus framing), not the logical payload length. A
/// fully deduplicated put reports `bytes_written == 0`. Stores without
/// chunk-level accounting return the opaque receipt: logical length, zero
/// chunk counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PutReceipt {
    /// Id the payload resolved to.
    pub id: BlobId,
    /// Physical bytes this put appended to the store.
    pub bytes_written: u64,
    /// New chunks this put stored.
    pub chunks_written: u64,
    /// Chunks this put shared with already-stored data.
    pub chunks_deduped: u64,
    /// Bytes compression saved on the written portion (raw − stored).
    pub bytes_compressed: u64,
}

impl PutReceipt {
    /// The receipt a store without physical attribution reports: the put
    /// "wrote" its logical length and nothing chunked.
    pub fn opaque(id: BlobId, len: usize) -> Self {
        PutReceipt {
            id,
            bytes_written: len as u64,
            ..PutReceipt::default()
        }
    }
}

/// A blob store for checkpoint data.
///
/// All methods in the evaluation (Kishu, CRIU, DumpSession, ...) write
/// through this interface so their checkpoint sizes and write times are
/// measured identically.
pub trait CheckpointStore {
    /// Append a blob, returning its id.
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId>;

    /// Append a blob and report its physical attribution. Identical to
    /// [`CheckpointStore::put`] in every observable store effect (same id
    /// assignment, same bytes readable back, same error behavior) — the
    /// receipt is extra bookkeeping, never extra semantics. The default
    /// implementation wraps `put` with the opaque receipt.
    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<PutReceipt> {
        let id = self.put(bytes)?;
        Ok(PutReceipt::opaque(id, bytes.len()))
    }

    /// Read a blob back. Fails if the id is unknown or the record fails its
    /// integrity check.
    fn get(&self, id: BlobId) -> io::Result<Vec<u8>>;

    /// Number of blobs stored.
    fn blob_count(&self) -> u64;

    /// Accounting snapshot.
    fn stats(&self) -> StoreStats;

    /// Flush buffered writes to the durable medium (no-op for memory).
    fn sync(&mut self) -> io::Result<()>;

    /// Group-commit barrier: everything put so far must be readable by a
    /// store reopened after this call returns (modulo the medium's own
    /// durability, which [`CheckpointStore::sync`] governs). Stores that
    /// buffer puts (group commit) flush here; everything else is already
    /// ordered, so the default is a no-op. Called by the session at each
    /// checkpoint commit point.
    fn flush_barrier(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Chunk-level accounting, for stores running the v2 chunked
    /// representation. `None` means the store has no chunk layer (or it is
    /// switched off) — callers must not infer anything about logical
    /// contents from this, it is physical-representation observability
    /// only.
    fn chunk_stats(&self) -> Option<chunk::ChunkStats> {
        None
    }

    /// The chunking configuration governing how this store represents new
    /// puts, if it carries one at all. `None` (the default) means the store
    /// has no representation config. Decorators forward it.
    fn chunk_config(&self) -> Option<chunk::ChunkConfig> {
        None
    }

    /// Adopt an observability handle: subsequent operations may record
    /// spans into it. Purely observational — attaching a trace
    /// (enabled or not) must never change any operation's outcome, and
    /// the default implementation ignores it entirely. Decorators forward
    /// to their inner store.
    fn attach_trace(&mut self, _trace: &kishu_trace::Trace) {}

    /// Best-effort integrity sweep: attempt `get` on every blob and report
    /// which ids are currently unreadable (I/O error or failed integrity
    /// check). The default implementation scans; backends with cheaper
    /// integrity metadata may override it.
    fn integrity_sweep(&self) -> IntegrityReport {
        let mut readable = 0u64;
        let mut unreadable = Vec::new();
        for id in 0..self.blob_count() {
            match self.get(id) {
                Ok(_) => readable += 1,
                Err(_) => unreadable.push(id),
            }
        }
        IntegrityReport { readable, unreadable }
    }
}

/// Result of [`CheckpointStore::integrity_sweep`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Blobs that read back successfully.
    pub readable: u64,
    /// Ids of blobs that failed to read.
    pub unreadable: Vec<BlobId>,
}

impl IntegrityReport {
    /// Whether every blob read back successfully.
    pub fn is_clean(&self) -> bool {
        self.unreadable.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn CheckpointStore) {
        let a = store.put(b"alpha").expect("put");
        let b = store.put(b"").expect("put empty");
        let c = store.put(&vec![7u8; 100_000]).expect("put large");
        assert_eq!(store.get(a).expect("get"), b"alpha");
        assert_eq!(store.get(b).expect("get"), b"");
        assert_eq!(store.get(c).expect("get").len(), 100_000);
        assert_eq!(store.blob_count(), 3);
        let stats = store.stats();
        assert_eq!(stats.blobs, 3);
        assert_eq!(stats.payload_bytes, 5 + 100_000);
        // Physical bytes are representation-dependent: framing adds,
        // chunk dedup and compression subtract. Only positivity is a
        // contract here.
        assert!(stats.physical_bytes > 0);
        assert!(store.get(999).is_err());
    }

    #[test]
    fn memory_store_contract() {
        let mut s = MemoryStore::new();
        exercise(&mut s);
    }

    #[test]
    fn file_store_contract() {
        let dir = std::env::temp_dir().join(format!("kishu-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("contract.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FileStore::create(&path).expect("create");
        exercise(&mut s);
        std::fs::remove_file(&path).ok();
    }
}
