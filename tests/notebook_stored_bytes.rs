//! The stored bytes of the benchmark's write workload, pinned.
//!
//! kbench's `notebooks` workload runs the paper's eight notebooks at scale
//! 0.5, each in a session of its own on a chunked `FileStore` with
//! `ChunkConfig::default()`, and persists each one. This test runs their
//! cells the same way and compares the stores' chunk accounting, summed
//! over the notebooks, and the number of chunks their logs hold in
//! compressed form, with fixed numbers.
//!
//! The numbers move only when the stored form of some chunk does: a change
//! to the cutter, to the compressor, or to which chunks the encoder tries
//! to compress. A chunk that compression shrinks but the encoder stores raw
//! lowers the compressed count and raises the stored bytes, so a cheaper
//! compression decision that misses one of this workload's compressible
//! chunks fails here.

use std::path::Path;

use kishu::session::{KishuConfig, KishuSession};
use kishu_storage::chunk::CHUNK_COMPRESSED;
use kishu_storage::file_store::MARKER_CHUNK;
use kishu_storage::{ChunkConfig, ChunkStats, FileStore};

/// Frame header: marker, payload length (u32 LE), payload CRC-32 (u32 LE).
const HEADER_LEN: usize = 1 + 4 + 4;

/// Chunk records in the log at `path` whose stored form is compressed.
fn compressed_chunks(path: &Path) -> u64 {
    let log = std::fs::read(path).expect("read the log");
    let (mut at, mut compressed) = (0, 0);
    while at < log.len() {
        let len = u32::from_le_bytes(log[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
        let payload = &log[at + HEADER_LEN..at + HEADER_LEN + len];
        if log[at] == MARKER_CHUNK && payload[0] == CHUNK_COMPRESSED {
            compressed += 1;
        }
        at += HEADER_LEN + len;
    }
    compressed
}

#[test]
fn notebook_chunks_keep_their_stored_bytes() {
    let dir = std::env::temp_dir().join(format!("kishu-stored-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut total = ChunkStats::default();
    let mut compressed = 0;
    let mut per_notebook = String::new();
    for nb in kishu_workloads::all_notebooks(0.5) {
        let path = dir.join(format!("{}.log", nb.name));
        let store = FileStore::create_with(&path, ChunkConfig::default(), true).expect("create");
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        for cell in &nb.cells {
            let report = s.run_cell(&cell.src).expect("parses");
            assert!(report.outcome.error.is_none(), "{}: {:?}", nb.name, report.outcome.error);
        }
        s.persist().expect("persist");
        let stats = s.store().chunk_stats().expect("chunking is on");
        drop(s);
        let nb_compressed = compressed_chunks(&path);
        per_notebook += &format!("{}: {stats:?}, {nb_compressed} compressed\n", nb.name);
        total.chunks += stats.chunks;
        total.chunk_refs += stats.chunk_refs;
        total.raw_bytes += stats.raw_bytes;
        total.stored_bytes += stats.stored_bytes;
        compressed += nb_compressed;
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (total.chunks, total.raw_bytes, total.stored_bytes, compressed),
        (4314, 41_519_151, 41_241_388, 32),
        "chunks, raw bytes, stored bytes and compressed chunks over the eight notebooks:\n\
         {per_notebook}"
    );
}
