//! Content-addressed blob index for checkpoint deduplication.
//!
//! The incremental checkpointer only serializes co-variables whose delta
//! detector fired — but the detector is deliberately conservative (Table
//! 5's false positives, address-only drift after a checkout, branch
//! switches that re-create an earlier state), so the same bytes get
//! serialized again more often than they change. [`BlobIndex`] remembers
//! the content key of every sealed blob the session has successfully
//! written; a repeat write of identical bytes resolves to the existing
//! [`BlobId`] and the store is never touched — the checkpoint becomes a
//! metadata-only operation, which is the content-addressed reuse the Kishu
//! technical report (§5) and the Code+Data Space Versioning line of work
//! argue for.
//!
//! The key is `(xxh64(sealed bytes), length)`. A 64-bit content hash alone
//! would make an accidental collision astronomically unlikely; pairing it
//! with the exact byte length makes the index discriminate every
//! same-hash-different-length pair for free. The index is advisory, purely
//! in memory, and rebuilt empty on `resume` — a miss only costs one
//! redundant write, never correctness.
//!
//! [`BlobIndex`] and [`crate::FaultStore`]'s put key (the same hash of the
//! bytes under its own seed) are the only users of content keys. The read
//! side keys by blob id instead: the checkout read cache files payloads
//! under the blob they were read from, and a shallow diff calls two
//! versions stored as one blob equal.

use std::collections::HashMap;

use kishu_testkit::hash::xxh64;

use crate::BlobId;

/// Seed for the content hash, fixed so content keys are stable across
/// sessions and across the serial/parallel pipelines.
const CONTENT_SEED: u64 = 0xC0_7E17_DED0;

/// The content key of a sealed payload: `(xxh64, byte length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey(pub u64, pub u64);

/// Compute the [`ContentKey`] of a sealed blob.
///
/// Content keys name whole sealed blobs, never chunks: a store's
/// [`crate::chunk::ChunkLedger`] files each chunk under the CRC-32 its
/// frame carries and dedups by comparing bytes.
pub fn content_key(bytes: &[u8]) -> ContentKey {
    ContentKey(xxh64(bytes, CONTENT_SEED), bytes.len() as u64)
}

/// In-memory content-addressed index over successfully written blobs.
#[derive(Debug, Default)]
pub struct BlobIndex {
    map: HashMap<ContentKey, BlobId>,
}

impl BlobIndex {
    /// Empty index (a fresh or freshly resumed session).
    pub fn new() -> Self {
        Self::default()
    }

    /// The blob already holding exactly these bytes, if any.
    pub fn lookup(&self, key: ContentKey) -> Option<BlobId> {
        self.map.get(&key).copied()
    }

    /// Record that `blob` now durably holds the content `key`. Only call
    /// after a *successful* write of the full sealed payload — indexing a
    /// dropped or torn write would alias future checkpoints to garbage.
    pub fn record(&mut self, key: ContentKey, blob: BlobId) {
        self.map.insert(key, blob);
    }

    /// Number of distinct contents indexed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_bytes_resolve_to_the_first_blob() {
        let mut ix = BlobIndex::new();
        let k = content_key(b"payload");
        assert_eq!(ix.lookup(k), None);
        ix.record(k, 7);
        assert_eq!(ix.lookup(content_key(b"payload")), Some(7));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn changed_bytes_never_alias() {
        let mut ix = BlobIndex::new();
        ix.record(content_key(b"v1 of the data"), 0);
        assert_eq!(ix.lookup(content_key(b"v2 of the data")), None);
        // Same length, one byte different: distinct key.
        assert_ne!(content_key(b"aaaa"), content_key(b"aaab"));
        // Same prefix, different length: distinct key even on a (contrived)
        // hash match, because the length is part of the key.
        assert_ne!(content_key(b"aaaa"), content_key(b"aaaaa"));
    }

    #[test]
    fn rerecording_updates_to_the_newest_blob() {
        // Harmless either way (both blobs hold the bytes); newest wins.
        let mut ix = BlobIndex::new();
        let k = content_key(b"x");
        ix.record(k, 1);
        ix.record(k, 9);
        assert_eq!(ix.lookup(k), Some(9));
        assert_eq!(ix.len(), 1);
    }
}
