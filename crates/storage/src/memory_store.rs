//! In-memory blob store.

use std::io;

use crate::chunk::{decode_chunk_into, ChunkConfig, ChunkLedger, ChunkStats};
use crate::{BlobId, CheckpointStore, PutReceipt, StoreStats};

/// How one logical blob is represented physically.
#[derive(Debug)]
enum BlobRepr {
    /// Whole payload held verbatim (chunking off, or payload below the
    /// minimum chunk size).
    Raw(Vec<u8>),
    /// Payload split into stored-form chunks; `ords` index the shared
    /// chunk table in payload order.
    Chunked { raw_len: u64, ords: Vec<u32> },
}

/// Blob store backed by process memory. The fastest possible backend — the
/// paper's §6.1 notes users can pick one "to maximize checkpointing/checkout
/// efficiency" — and the default for unit tests and algorithm-isolating
/// benchmarks.
///
/// Runs the storage-engine-v2 representation (content-defined chunking +
/// per-chunk compression) when [`ChunkConfig`] enables it; the logical view
/// (ids, payloads, logical stats) is identical either way.
#[derive(Debug)]
pub struct MemoryStore {
    blobs: Vec<BlobRepr>,
    /// Stored-form chunks shared across blobs, indexed by ord.
    chunks: Vec<Vec<u8>>,
    ledger: ChunkLedger,
    cfg: ChunkConfig,
    payload_bytes: u64,
    physical_bytes: u64,
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryStore {
    /// Empty store with the default chunking configuration.
    pub fn new() -> Self {
        Self::with_config(ChunkConfig::default())
    }

    /// Empty store with an explicit chunking configuration.
    pub fn with_config(cfg: ChunkConfig) -> Self {
        MemoryStore {
            blobs: Vec::new(),
            chunks: Vec::new(),
            ledger: ChunkLedger::new(),
            cfg,
            payload_bytes: 0,
            physical_bytes: 0,
        }
    }
}

impl CheckpointStore for MemoryStore {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        self.put_with_receipt(bytes).map(|r| r.id)
    }

    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<PutReceipt> {
        let id = self.blobs.len() as BlobId;
        self.payload_bytes += bytes.len() as u64;
        if !self.cfg.chunks_payload(bytes.len()) {
            self.physical_bytes += bytes.len() as u64;
            self.blobs.push(BlobRepr::Raw(bytes.to_vec()));
            return Ok(PutReceipt::opaque(id, bytes.len()));
        }
        // The ledger confirms repeat chunks against the in-memory chunks.
        let (ords, r) = self.ledger.ingest(bytes, &self.cfg, &mut self.chunks)?;
        self.physical_bytes += r.stored_bytes_written;
        self.blobs.push(BlobRepr::Chunked {
            raw_len: bytes.len() as u64,
            ords,
        });
        Ok(PutReceipt {
            id,
            bytes_written: r.stored_bytes_written,
            chunks_written: r.chunks_written,
            chunks_deduped: r.chunks_deduped,
            bytes_compressed: r.raw_bytes_written.saturating_sub(r.stored_bytes_written),
        })
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let repr = self
            .blobs
            .get(id as usize)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {id}")))?;
        match repr {
            BlobRepr::Raw(bytes) => Ok(bytes.clone()),
            BlobRepr::Chunked { raw_len, ords } => {
                let mut out = Vec::with_capacity(*raw_len as usize);
                for &ord in ords {
                    let stored = self.chunks.get(ord as usize).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("blob {id} references missing chunk {ord}"),
                        )
                    })?;
                    decode_chunk_into(stored, &mut out)?;
                }
                if out.len() as u64 != *raw_len {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("blob {id} reassembled to the wrong length"),
                    ));
                }
                Ok(out)
            }
        }
    }

    fn blob_count(&self) -> u64 {
        self.blobs.len() as u64
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            blobs: self.blobs.len() as u64,
            payload_bytes: self.payload_bytes,
            physical_bytes: self.physical_bytes,
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn chunk_stats(&self) -> Option<ChunkStats> {
        self.cfg.enabled.then(|| self.ledger.stats())
    }

    fn chunk_config(&self) -> Option<ChunkConfig> {
        Some(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut s = MemoryStore::new();
        assert_eq!(s.put(b"a").expect("put"), 0);
        assert_eq!(s.put(b"b").expect("put"), 1);
        assert_eq!(s.get(1).expect("get"), b"b");
    }

    #[test]
    fn missing_blob_is_not_found() {
        let s = MemoryStore::new();
        let err = s.get(3).expect_err("missing");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn chunked_blobs_roundtrip_and_dedup() {
        let mut s = MemoryStore::with_config(ChunkConfig::default());
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 13) as u8 ^ (i / 999) as u8).collect();
        let r1 = s.put_with_receipt(&big).expect("put");
        assert!(r1.chunks_written > 1, "large payload must chunk");
        assert_eq!(s.get(r1.id).expect("get"), big);

        // A small mutation shares almost every chunk with the original.
        let mut edited = big.clone();
        edited[100_000] ^= 0x55;
        let r2 = s.put_with_receipt(&edited).expect("put");
        assert!(r2.chunks_written <= 3, "wrote {} chunks", r2.chunks_written);
        assert!(r2.chunks_deduped > r2.chunks_written);
        assert!(r2.bytes_written < big.len() as u64 / 4);
        assert_eq!(s.get(r2.id).expect("get"), edited);

        // Logical stats are representation-independent; physical shrinks.
        let st = s.stats();
        assert_eq!(st.blobs, 2);
        assert_eq!(st.payload_bytes, 2 * big.len() as u64);
        assert!(st.physical_bytes < st.payload_bytes);
        let cs = s.chunk_stats().expect("chunking on");
        assert!(cs.chunk_refs > cs.chunks, "dedup must have fired");
    }

    #[test]
    fn disabled_config_reports_no_chunk_stats() {
        let mut s = MemoryStore::with_config(ChunkConfig::disabled());
        let big = vec![3u8; 100_000];
        let r = s.put_with_receipt(&big).expect("put");
        assert_eq!(r.bytes_written, big.len() as u64, "v1 writes logical bytes");
        assert_eq!(r.chunks_written, 0);
        assert_eq!(s.chunk_stats(), None);
        assert_eq!(s.stats().physical_bytes, big.len() as u64);
    }
}
