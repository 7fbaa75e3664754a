//! Storage-engine-v2 sweep: the *mutate-slightly* workload.
//!
//! The notebook pattern the chunk layer exists for: a session holds one
//! large object (a dataframe, a tensor, a long list) and each cell mutates
//! a sliver of it. Blob-level dedup is blind here — every cell's sealed
//! payload differs by a few bytes, so every checkpoint re-writes the whole
//! object. Content-defined chunking turns each of those checkpoints into
//! "the touched chunk + a manifest"; per-chunk compression shrinks what
//! does get written.
//!
//! The experiment runs the identical session workload over two file-backed
//! stores — the v1 representation (chunking off) and v2 (chunking +
//! compression on) — and reports both physical footprints, the reduction
//! ratio, and the chunk/dedup/compression attribution that flowed through
//! the session's [`kishu::session::CellReport`]s. `repro chunks` emits the
//! machine-readable form under `target/CHUNKS.json` and exits 1 when the
//! reduction misses [`MIN_REDUCTION`]; the headline byte metrics ride the
//! bench gate via [`super::pipeline::bench_json`].

use kishu::session::{KishuConfig, KishuSession};
use kishu_storage::chunk::ChunkConfig;
use kishu_storage::FileStore;
use kishu_testkit::json::Json;

use crate::report::{floor_verdict, fmt_bytes, Table};

/// Totals from one arm of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ArmRun {
    /// Logical serialized bytes across all checkpoints.
    pub logical_bytes: u64,
    /// Physical bytes in the store's log (framing included).
    pub physical_bytes: u64,
    /// Physical bytes the session's receipts attributed across cells.
    pub bytes_written: u64,
    /// New chunks stored (0 for the v1 arm).
    pub chunks_written: u64,
    /// Chunk dedup hits (0 for the v1 arm).
    pub chunks_deduped: u64,
    /// Bytes compression saved (0 for the v1 arm).
    pub bytes_compressed: u64,
}

/// The floor on [`ChunksRun::reduction`]: v2 must at least halve the
/// physical bytes of the mutate-slightly workload.
pub const MIN_REDUCTION: f64 = 2.0;

/// Both arms plus the derived ratios.
#[derive(Debug, Clone, Copy)]
pub struct ChunksRun {
    pub v1: ArmRun,
    pub v2: ArmRun,
    /// v1 physical bytes over v2 physical bytes (the headline win; ≥ 1.0
    /// means v2 never loses).
    pub reduction: f64,
    /// Chunk-level dedup ratio from the store ledger (raw referenced bytes
    /// over raw stored bytes).
    pub dedup_ratio: f64,
    /// Compression ratio over stored chunks (raw over stored bytes).
    pub compression_ratio: f64,
}

/// The mutate-slightly cells: one big list, then single-element writes.
///
/// The list must seal to a payload spanning many average-sized chunks
/// (default avg 8 KiB) — a payload of only one or two chunks makes every
/// mutation rewrite most of the object and the sweep measures nothing.
/// ~3 bytes/element sealed, so the floor keeps the payload around 70 KiB.
fn workload_cells(scale: f64) -> Vec<String> {
    let n = ((250_000.0 * scale) as usize).max(24_000);
    let mut cells = vec![format!("big = list(range({n}))\n")];
    for i in 0..12usize {
        // Deterministic scattered indices; each touches one chunk's worth
        // of the sealed payload.
        let idx = (i * 7919) % n;
        cells.push(format!("big[{idx}] = {}\n", i * 31 + 1));
    }
    cells
}

fn run_arm(
    scale: f64,
    dir: &std::path::Path,
    name: &str,
    cfg: ChunkConfig,
) -> (ArmRun, Option<kishu_storage::ChunkStats>) {
    let path = dir.join(format!("chunks-{name}.log"));
    let _ = std::fs::remove_file(&path);
    let store = FileStore::create_with(&path, cfg, true).expect("create bench store");
    let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
    for cell in workload_cells(scale) {
        s.run_cell(&cell).expect("chunks workload parses");
    }
    let m = s.metrics();
    let arm = ArmRun {
        logical_bytes: m.total_checkpoint_bytes(),
        physical_bytes: s.store_stats().physical_bytes,
        bytes_written: m.total_bytes_written(),
        chunks_written: m.total_chunks_written(),
        chunks_deduped: m.total_chunks_deduped(),
        bytes_compressed: m.total_bytes_compressed(),
    };
    let chunk_stats = s.store().chunk_stats();
    let _ = std::fs::remove_file(&path);
    (arm, chunk_stats)
}

/// Run the sweep. Stores live under `target/` (never the source tree).
pub fn run(scale: f64) -> ChunksRun {
    let dir = std::path::Path::new("target");
    let _ = std::fs::create_dir_all(dir);
    let (v2, v2_stats) = run_arm(scale, dir, "v2", ChunkConfig::default());
    let (v1, _) = run_arm(scale, dir, "v1", ChunkConfig::disabled());
    let stats = v2_stats.unwrap_or_default();
    ChunksRun {
        v1,
        v2,
        reduction: if v2.physical_bytes == 0 {
            1.0
        } else {
            v1.physical_bytes as f64 / v2.physical_bytes as f64
        },
        dedup_ratio: stats.dedup_ratio(),
        compression_ratio: stats.compression_ratio(),
    }
}

impl ChunksRun {
    /// `Ok` with a summary line when [`Self::reduction`] holds
    /// [`MIN_REDUCTION`], else `Err` with the miss.
    pub fn check_floor(&self) -> Result<String, String> {
        let line = format!(
            "storage engine v2 physical reduction {:.2}x (floor {MIN_REDUCTION}x)",
            self.reduction
        );
        floor_verdict(self.reduction >= MIN_REDUCTION, line)
    }
}

/// Human-readable table from a completed run (so `repro chunks` renders
/// the table *and* writes the JSON from one execution of the workload).
pub fn table_from(r: &ChunksRun) -> Table {
    let mut t = Table::new(
        "Chunks",
        "storage engine v2 vs v1 on the mutate-slightly workload",
        &["Arm", "logical", "physical", "attributed", "chunks new", "chunks deduped", "compressed away"],
    );
    for (name, a) in [("v1 (chunking off)", r.v1), ("v2 (chunk+compress)", r.v2)] {
        t.row(vec![
            name.to_string(),
            fmt_bytes(a.logical_bytes),
            fmt_bytes(a.physical_bytes),
            fmt_bytes(a.bytes_written),
            a.chunks_written.to_string(),
            a.chunks_deduped.to_string(),
            fmt_bytes(a.bytes_compressed),
        ]);
    }
    t.note(&format!(
        "physical reduction {:.2}x; chunk dedup ratio {:.2}; compression ratio {:.2} \
         — logical views are byte-identical across arms (tests/chunking_differential.rs)",
        r.reduction, r.dedup_ratio, r.compression_ratio
    ));
    t
}

/// Machine-readable form for `repro chunks --out` (default
/// `target/CHUNKS.json`).
pub fn chunks_json(scale: f64) -> Json {
    json_from(&run(scale), scale)
}

/// JSON from an already-completed run.
pub fn json_from(r: &ChunksRun, scale: f64) -> Json {
    Json::obj(vec![
        ("schema", Json::Str("kishu-chunks-v1".into())),
        ("scale", Json::Float(scale)),
        ("v1_physical_bytes", Json::Int(r.v1.physical_bytes as i64)),
        ("v2_physical_bytes", Json::Int(r.v2.physical_bytes as i64)),
        ("logical_bytes", Json::Int(r.v2.logical_bytes as i64)),
        ("reduction", Json::Float(r.reduction)),
        ("dedup_ratio", Json::Float(r.dedup_ratio)),
        ("compression_ratio", Json::Float(r.compression_ratio)),
        ("chunks_written", Json::Int(r.v2.chunks_written as i64)),
        ("chunks_deduped", Json::Int(r.v2.chunks_deduped as i64)),
        ("bytes_compressed", Json::Int(r.v2.bytes_compressed as i64)),
    ])
}

/// The bench-gate fragment: byte metrics where lower is better, so the
/// existing ratio-plus-noise-floor comparator gates a representation
/// regression (v2 suddenly writing v1-sized logs) like a latency one.
pub fn bench_fragment(scale: f64) -> (Vec<(&'static str, Json)>, Json) {
    let r = run(scale);
    (
        vec![
            ("chunks_v2_physical_bytes", Json::Int(r.v2.physical_bytes as i64)),
            ("chunks_v2_written_bytes", Json::Int(r.v2.bytes_written as i64)),
        ],
        Json::obj(vec![
            ("reduction", Json::Float(r.reduction)),
            ("dedup_ratio", Json::Float(r.dedup_ratio)),
            ("compression_ratio", Json::Float(r.compression_ratio)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar from the storage-engine-v2 work: on the
    /// large-object-small-mutation sweep, v2 cuts physical bytes by at
    /// least 2x vs v1.
    #[test]
    fn v2_halves_physical_bytes_on_mutate_slightly() {
        let r = run(0.1);
        assert!(r.check_floor().is_ok(), "{:?}: {r:?}", r.check_floor());
        assert!(r.v2.chunks_written > 0, "v2 arm never chunked: {r:?}");
        assert!(r.v2.chunks_deduped > 0, "small mutations must chunk-dedup: {r:?}");
        assert_eq!(r.v1.chunks_written, 0, "v1 arm must not chunk: {r:?}");
        // Attribution is truthful: receipts account for (framing included)
        // no more than the log's actual growth.
        assert!(r.v2.bytes_written <= r.v2.physical_bytes, "{r:?}");
    }

    #[test]
    fn chunks_json_has_the_ratio_fields() {
        let j = chunks_json(0.05);
        for key in ["reduction", "dedup_ratio"] {
            let v = j.get(key).and_then(Json::as_f64);
            assert!(matches!(v, Some(x) if x >= 1.0), "{key} missing or < 1: {v:?}");
        }
        // Compression may legitimately sit just under 1.0: each stored
        // chunk carries a one-byte stored-vs-compressed flag, so an
        // incompressible workload pays a tiny, honest overhead.
        let c = j.get("compression_ratio").and_then(Json::as_f64);
        assert!(matches!(c, Some(x) if x > 0.9), "compression_ratio missing or absurd: {c:?}");
        assert!(j.get("v2_physical_bytes").and_then(Json::as_i64).unwrap_or(0) > 0);
    }
}
