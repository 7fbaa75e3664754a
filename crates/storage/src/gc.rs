//! Mark-and-sweep GC / compaction for the [`SharedStore`].
//!
//! Unreferenced blobs accumulate in a shared store for two reasons: GC-able
//! history (a tenant's superseded graph snapshots — every `persist` writes
//! a fresh one) and safe-direction leaks (a payload written just before its
//! mapping append failed). [`SharedStore::collect`] reclaims them:
//!
//! 1. **Mark** — the caller supplies, for *every* registered tenant, the
//!    set of tenant blob ids its live `CheckpointGraph` can still reach
//!    (`KishuSession::live_blobs`). A physical blob is live iff some
//!    tenant's live mapping references it. Requiring every tenant to appear
//!    makes "I forgot a session" a hard error instead of silent data loss.
//! 2. **Sweep** — the payload log is compacted into a new generation
//!    containing only live payloads (renumbered densely); tenant mappings are
//!    rewritten against the new indices, with reclaimed ids tombstoned so
//!    tenant ids stay dense forever.
//! 3. **Commit** — for a file-backed store, all new-generation files are
//!    written and synced *before* the manifest is atomically renamed over;
//!    the rename is the commit point. A crash at any byte before it leaves
//!    the old generation fully intact (stray new-generation files are swept
//!    on `open`); a crash after it finds a complete new generation. The
//!    [`SharedStore::set_crash_after_bytes`] hook exists precisely to prove
//!    this at every byte.
//!
//! GC is **stop-the-world between checkpoints**: it holds the store's one
//! lock for its whole run, so it cannot interleave with tenant operations;
//! callers run it when their sessions are parked (which is also when live
//! sets are well-defined). It is a pure space optimization — after a
//! collection, every live blob of every tenant reads back byte-identically
//! under the same tenant id. It runs only when a caller invokes
//! [`SharedStore::collect`].

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use kishu_testkit::json::Json;

use crate::chunk::ChunkConfig;
use crate::file_store::{build_log_image, frame_record, FileStore};
use crate::shared::{
    encode_mapping, lock, manifest_json, manifest_path, payload_index, payload_path,
    remove_stale_generations, tenant_path, Mapping,
};
use crate::{BlobId, CheckpointStore, MemoryStore, SharedStore};

/// What one collection did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Physical blobs surviving the sweep.
    pub live_blobs: u64,
    /// Physical blobs reclaimed.
    pub reclaimed_blobs: u64,
    /// Payload bytes reclaimed.
    pub reclaimed_payload_bytes: u64,
    /// Aggregate physical bytes (framing included) before the sweep.
    pub physical_before: u64,
    /// Aggregate physical bytes after the sweep.
    pub physical_after: u64,
    /// The generation this collection committed.
    pub generation: u64,
}

impl GcReport {
    /// JSON form, for bench output.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("live_blobs", Json::Int(self.live_blobs as i64)),
            ("reclaimed_blobs", Json::Int(self.reclaimed_blobs as i64)),
            ("reclaimed_payload_bytes", Json::Int(self.reclaimed_payload_bytes as i64)),
            ("physical_before", Json::Int(self.physical_before as i64)),
            ("physical_after", Json::Int(self.physical_after as i64)),
            ("generation", Json::Int(self.generation as i64)),
        ])
    }
}

/// Write `bytes` to `path` and sync, honoring the crash budget: if the
/// budget runs out mid-file, exactly the budgeted prefix lands on disk and
/// the "machine dies" (`ErrorKind::Interrupted`).
fn write_budgeted(path: &Path, bytes: &[u8], budget: &mut Option<u64>) -> io::Result<()> {
    use std::io::Write;
    let allowed = budget.map_or(bytes.len() as u64, |b| b.min(bytes.len() as u64));
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes[..allowed as usize])?;
    f.sync_data()?;
    if let Some(b) = budget.as_mut() {
        *b -= allowed;
    }
    if allowed < bytes.len() as u64 {
        return Err(io::Error::new(io::ErrorKind::Interrupted, "injected gc crash mid-write"));
    }
    Ok(())
}

/// The commit rename under the crash budget (it costs one budget unit, so
/// the sweep can also die in the instant between a fully written manifest
/// temp file and the rename).
fn rename_budgeted(from: &Path, to: &Path, budget: &mut Option<u64>) -> io::Result<()> {
    if let Some(b) = budget.as_mut() {
        if *b == 0 {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected gc crash before manifest rename",
            ));
        }
        *b -= 1;
    }
    std::fs::rename(from, to)
}

impl SharedStore {
    /// Collect garbage: reclaim every physical blob unreferenced by the
    /// supplied live sets and compact the store into a new generation.
    ///
    /// `live` maps **every registered tenant** (extra or missing names are
    /// an `InvalidInput` error) to the tenant blob ids its live graph
    /// reaches — [`crate::CheckpointStore`] ids as that tenant sees them.
    /// An empty set means "this tenant reaches nothing" and reclaims all
    /// its blobs (their ids tombstone; they never get reused).
    ///
    /// On any error the committed state — in memory and on disk — is
    /// untouched; a file-backed store additionally survives a kill at any
    /// byte of the commit (see the module docs).
    pub fn collect(&self, live: &BTreeMap<String, BTreeSet<BlobId>>) -> io::Result<GcReport> {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        let trace = st.trace.clone();
        let mut report =
            GcReport { physical_before: st.payloads.stats().physical_bytes, ..GcReport::default() };

        // ---- Mark ---------------------------------------------------
        // New refcounts, and each tenant's surviving mappings in tenant
        // order (the order of `st.tenants`, which `live` must match).
        let mut new_refs = vec![0u64; st.refs.len()];
        let mut new_maps: Vec<Vec<Option<Mapping>>> = Vec::with_capacity(st.tenants.len());
        {
            let mut sp = trace.span("gc.mark");
            if let Some(name) = st.tenants.keys().find(|n| !live.contains_key(*n)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("gc live sets missing registered tenant {name:?}"),
                ));
            }
            if let Some(name) = live.keys().find(|n| !st.tenants.contains_key(*n)) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("gc live set names unregistered tenant {name:?}"),
                ));
            }
            for (name, t) in &st.tenants {
                let keep = &live[name];
                let mut maps = Vec::with_capacity(t.blobs.len());
                for (id, m) in t.blobs.iter().enumerate() {
                    let m = m.filter(|_| keep.contains(&(id as u64)));
                    if let Some((idx, _)) = m {
                        new_refs[idx as usize] += 1;
                    }
                    maps.push(m);
                }
                new_maps.push(maps);
            }
            sp.arg("tenants", st.tenants.len());
        }
        trace.event(
            kishu_trace::Severity::Info,
            "gc",
            vec![
                ("phase".into(), "mark".into()),
                ("tenants".into(), st.tenants.len().to_string()),
            ],
        );

        // ---- Sweep --------------------------------------------------
        // remap[old idx] → new idx for survivors; kept payload bytes are
        // read out now so the commit below is write-only.
        let mut remap: Vec<Option<u32>> = Vec::with_capacity(new_refs.len());
        let mut kept: Vec<Vec<u8>> = Vec::new();
        {
            let mut sp = trace.span("gc.sweep");
            for (idx, &nref) in new_refs.iter().enumerate() {
                if nref > 0 {
                    // A live blob that cannot be read back aborts the
                    // collection before anything is mutated: GC must never
                    // turn an injected read fault into data loss.
                    let bytes = st.payloads.get(idx as u64)?;
                    remap.push(Some(kept.len() as u32));
                    kept.push(bytes);
                    report.live_blobs += 1;
                } else {
                    remap.push(None);
                    report.reclaimed_blobs += 1;
                    report.reclaimed_payload_bytes += st.lens[idx];
                }
            }
            sp.arg("live", report.live_blobs);
            sp.arg("reclaimed", report.reclaimed_blobs);
        }
        trace.event(
            kishu_trace::Severity::Info,
            "gc",
            vec![
                ("phase".into(), "sweep".into()),
                ("live".into(), report.live_blobs.to_string()),
                ("reclaimed".into(), report.reclaimed_blobs.to_string()),
            ],
        );
        for (idx, _) in new_maps.iter_mut().flatten().flatten() {
            *idx = remap[*idx as usize].expect("marked blob survived the sweep");
        }

        // ---- Commit -------------------------------------------------
        let mut sp = trace.span("gc.commit");
        let next_gen = st.generation + 1;
        sp.arg("generation", next_gen);
        // Rebuild under the log's own representation config: chunked blobs
        // stay chunked (one ledger keeps cross-blob dedup), so reclaimed
        // chunk bytes actually leave the log, and a pinned chunking setup
        // is not swapped for the default across the GC.
        let cfg = st.payloads.chunk_config().unwrap_or_else(ChunkConfig::disabled);
        let mut payloads: Box<dyn CheckpointStore> = match &st.dir {
            None => {
                let mut store = MemoryStore::with_config(cfg);
                for bytes in &kept {
                    store.put(bytes)?;
                }
                Box::new(store)
            }
            Some(dir) => {
                let budget = &mut st.crash_after;
                let image = build_log_image(&kept, &cfg)?;
                write_budgeted(&payload_path(dir, next_gen), &image, budget)?;
                for (name, maps) in st.tenants.keys().zip(&new_maps) {
                    let mut image = Vec::new();
                    for m in maps {
                        frame_record(&mut image, &encode_mapping(*m));
                    }
                    write_budgeted(&tenant_path(dir, name, next_gen), &image, budget)?;
                }
                let names: Vec<&str> = st.tenants.keys().map(String::as_str).collect();
                let tmp = dir.join("MANIFEST.tmp");
                write_budgeted(&tmp, manifest_json(next_gen, &names).dump().as_bytes(), budget)?;
                rename_budgeted(&tmp, &manifest_path(dir), budget)?;
                // Committed. Swap the in-memory state over to the new
                // generation; failures past this point must not un-commit,
                // so reopen errors propagate but the manifest stays. The
                // log reopens under the config its image was built with.
                let store = FileStore::open_with(payload_path(dir, next_gen), cfg, true)?;
                for (name, t) in st.tenants.iter_mut() {
                    t.log = Some(FileStore::open(tenant_path(dir, name, next_gen))?);
                }
                remove_stale_generations(dir, next_gen);
                Box::new(store)
            }
        };
        payloads.attach_trace(&st.trace);
        st.payloads = payloads;
        (st.dedup, st.lens) = payload_index(kept.iter().map(Some));
        st.refs = new_refs.into_iter().filter(|&r| r > 0).collect();
        for (t, maps) in st.tenants.values_mut().zip(new_maps) {
            t.payload_bytes = maps.iter().flatten().map(|&(_, len)| len).sum();
            t.blobs = maps;
        }
        st.generation = next_gen;
        report.generation = next_gen;
        report.physical_after = st.payloads.stats().physical_bytes;
        trace.event(
            kishu_trace::Severity::Info,
            "gc",
            vec![
                ("phase".into(), "commit".into()),
                ("generation".into(), next_gen.to_string()),
                ("physical_before".into(), report.physical_before.to_string()),
                ("physical_after".into(), report.physical_after.to_string()),
            ],
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kishu-gc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn live(sets: &[(&str, &[u64])]) -> BTreeMap<String, BTreeSet<BlobId>> {
        sets.iter().map(|(n, ids)| (n.to_string(), ids.iter().copied().collect())).collect()
    }

    #[test]
    fn unreferenced_blobs_are_fully_reclaimed() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("a").expect("tenant");
        let mut b = store.tenant("b").expect("tenant");
        a.put(b"a's live payload").expect("put"); // a/0: live
        a.put(b"a's dead payload").expect("put"); // a/1: dead
        b.put(b"a's live payload").expect("put"); // b/0: dead, but shares a/0's phys
        b.put(b"b's own live payload").expect("put"); // b/1: live
        let r = store.collect(&live(&[("a", &[0]), ("b", &[1])])).expect("gc");
        assert_eq!(r.live_blobs, 2);
        assert_eq!(r.reclaimed_blobs, 1, "only 'a's dead payload' became unreferenced");
        assert_eq!(r.reclaimed_payload_bytes, b"a's dead payload".len() as u64);
        assert_eq!(r.generation, 1);
        assert!(r.physical_after < r.physical_before);
        // Live blobs read back under unchanged tenant ids.
        assert_eq!(a.get(0).expect("get"), b"a's live payload");
        assert_eq!(b.get(1).expect("get"), b"b's own live payload");
        // Reclaimed ids are tombstones, not reused.
        assert_eq!(a.get(1).expect_err("dead").kind(), io::ErrorKind::NotFound);
        assert_eq!(b.get(0).expect_err("dead").kind(), io::ErrorKind::NotFound);
        assert_eq!(a.blob_count(), 2, "ids stay dense");
        store.check_invariants(true).expect("invariants");
        // New writes go to fresh ids.
        assert_eq!(a.put(b"post-gc").expect("put"), 2);
        assert_eq!(a.get(2).expect("get"), b"post-gc");
    }

    #[test]
    fn gc_never_reclaims_a_blob_any_tenant_reaches() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("a").expect("tenant");
        let mut b = store.tenant("b").expect("tenant");
        let shared = vec![7u8; 2000];
        a.put(&shared).expect("put");
        b.put(&shared).expect("put");
        // a drops it; b still reaches it.
        let r = store.collect(&live(&[("a", &[]), ("b", &[0])])).expect("gc");
        assert_eq!(r.reclaimed_blobs, 0, "b's reference keeps the payload");
        assert_eq!(b.get(0).expect("get"), shared);
        // Now b drops it too.
        let r = store.collect(&live(&[("a", &[]), ("b", &[])])).expect("gc");
        assert_eq!(r.reclaimed_blobs, 1);
        assert_eq!(r.physical_after, 0);
        store.check_invariants(true).expect("invariants");
    }

    #[test]
    fn live_sets_must_cover_every_tenant_exactly() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("a").expect("tenant");
        store.tenant("b").expect("tenant");
        a.put(b"x").expect("put");
        let err = store.collect(&live(&[("a", &[0])])).expect_err("b missing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = store
            .collect(&live(&[("a", &[0]), ("b", &[]), ("ghost", &[])]))
            .expect_err("ghost unregistered");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Nothing was mutated by the failed attempts.
        assert_eq!(store.generation(), 0);
        assert_eq!(a.get(0).expect("get"), b"x");
    }

    #[test]
    fn file_backed_gc_commits_a_new_generation_and_reopens() {
        let dir = temp_dir("commit");
        {
            let store = SharedStore::create(&dir).expect("create");
            let mut a = store.tenant("a").expect("tenant");
            for i in 0..20u32 {
                a.put(format!("payload {i} {}", "x".repeat(50)).as_bytes()).expect("put");
            }
            store.sync_all().expect("sync");
            let keep: Vec<u64> = (0..20).filter(|i| i % 3 == 0).collect();
            let r = store.collect(&live(&[("a", &keep)])).expect("gc");
            assert_eq!(r.live_blobs, 7);
            assert_eq!(r.reclaimed_blobs, 13);
            assert_eq!(store.generation(), 1);
            // Post-GC, the live store keeps serving and accepting writes.
            for i in keep {
                assert!(String::from_utf8(a.get(i).expect("get")).expect("utf8")
                    .starts_with(&format!("payload {i} ")));
            }
            a.put(b"after gc").expect("put");
            store.sync_all().expect("sync");
        }
        // Reopen from disk: generation 1 files, old generation swept.
        let store = SharedStore::open(&dir).expect("open");
        assert_eq!(store.generation(), 1);
        let a = store.tenant("a").expect("tenant");
        assert_eq!(a.blob_count(), 21);
        assert!(a.get(0).expect("get").starts_with(b"payload 0 "));
        assert_eq!(a.get(20).expect("get"), b"after gc");
        assert_eq!(a.get(1).expect_err("reclaimed").kind(), io::ErrorKind::NotFound);
        store.check_invariants(true).expect("invariants");
        let old_files: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".g0."))
            .collect();
        assert!(old_files.is_empty(), "old generation files were deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Deterministic ~150 KB payload that chunks into many spans; `tweak`
    /// produces near-duplicates sharing almost every chunk.
    fn chunky_payload(tweak: u8) -> Vec<u8> {
        let mut p: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8 ^ (i / 997) as u8).collect();
        p[75_000] ^= tweak;
        p
    }

    /// Regression: GC compaction used to re-image every surviving blob as
    /// a plain v1 frame, so chunk dedup across near-duplicate blobs was
    /// lost on the first collection and the "compacted" log ballooned to
    /// the blobs' full logical size. The sweep must preserve the v2
    /// representation: post-GC physical bytes stay well under the logical
    /// sum, the rebuilt ledger still shows cross-blob chunk sharing, and
    /// reclaiming a blob actually frees its unshared chunk bytes.
    #[test]
    fn file_gc_preserves_chunk_dedup_and_reclaims_chunk_bytes() {
        let dir = temp_dir("v2-framing");
        let store = SharedStore::create_with(&dir, crate::chunk::ChunkConfig::default())
            .expect("create");
        let mut a = store.tenant("a").expect("tenant");
        // Three near-duplicates (almost all chunks shared) plus one
        // unrelated payload that becomes garbage.
        for tweak in [0u8, 0x11, 0x22] {
            a.put(&chunky_payload(tweak)).expect("put");
        }
        let unrelated: Vec<u8> = (0..80_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        a.put(&unrelated).expect("put");
        store.sync_all().expect("sync");
        let logical = 3 * 150_000u64;
        let before = store.stats().physical_bytes;
        assert!(before < logical / 2, "chunking dedups the near-duplicates up front");

        // Collect, keeping the three near-duplicates; the unrelated blob
        // (and its chunks) must leave the log.
        let r = store.collect(&live(&[("a", &[0, 1, 2])])).expect("gc");
        assert_eq!(r.reclaimed_blobs, 1);
        assert!(
            r.physical_after < logical / 2,
            "post-GC log must stay chunk-deduplicated, not balloon to v1 frames: \
             {} bytes for {logical} logical",
            r.physical_after
        );
        assert!(
            r.physical_after < before,
            "reclaiming the unrelated blob must actually shrink the log"
        );
        let cs = store.chunk_stats().expect("chunk layer survives the sweep");
        assert!(cs.chunk_refs > cs.chunks, "cross-blob chunk dedup survives GC: {cs:?}");
        // Survivors read back byte-identically, and the store keeps
        // deduplicating new near-duplicates against the rebuilt ledger.
        for (id, tweak) in [(0u64, 0u8), (1, 0x11), (2, 0x22)] {
            assert_eq!(a.get(id).expect("get"), chunky_payload(tweak));
        }
        let grow = store.stats().physical_bytes;
        a.put(&chunky_payload(0x33)).expect("put");
        assert!(
            store.stats().physical_bytes - grow < 40_000,
            "a fourth near-duplicate must dedup against post-GC chunks"
        );
        store.check_invariants(true).expect("invariants");
        // Reopen from disk: the v2 generation recovers with its ledger.
        drop(a);
        drop(store);
        let reopened = SharedStore::open(&dir).expect("open");
        let a = reopened.tenant("a").expect("tenant");
        assert_eq!(a.get(0).expect("get"), chunky_payload(0));
        assert_eq!(a.get(3).expect_err("reclaimed").kind(), io::ErrorKind::NotFound);
        reopened.check_invariants(true).expect("invariants");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The in-memory twin: a pinned chunk configuration must survive GC
    /// (the rebuild used to construct `MemoryStore::new()`, silently
    /// reverting to the default configuration).
    #[test]
    fn memory_gc_preserves_pinned_chunk_config() {
        let store = SharedStore::in_memory_with(crate::chunk::ChunkConfig::default());
        let mut a = store.tenant("a").expect("tenant");
        for tweak in [0u8, 0x11] {
            a.put(&chunky_payload(tweak)).expect("put");
        }
        a.put(b"garbage").expect("put");
        let r = store.collect(&live(&[("a", &[0, 1])])).expect("gc");
        assert_eq!(r.reclaimed_blobs, 1);
        assert!(
            r.physical_after < 150_000,
            "two near-duplicates must stay deduplicated after the rebuild"
        );
        let cs = store.chunk_stats().expect("pinned config survives GC");
        assert!(cs.chunk_refs > cs.chunks, "{cs:?}");
        assert_eq!(a.get(0).expect("get"), chunky_payload(0));
        assert_eq!(a.get(1).expect("get"), chunky_payload(0x11));
        store.check_invariants(true).expect("invariants");
    }

    #[test]
    fn crash_budget_zero_aborts_before_any_commit() {
        let dir = temp_dir("crash0");
        let store = SharedStore::create(&dir).expect("create");
        let mut a = store.tenant("a").expect("tenant");
        a.put(b"keep me").expect("put");
        a.put(b"reclaim me").expect("put");
        store.sync_all().expect("sync");
        store.set_crash_after_bytes(Some(0));
        let err = store.collect(&live(&[("a", &[0])])).expect_err("crash");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        // The store on disk is untouched: reopen sees generation 0, both
        // blobs intact.
        let reopened = SharedStore::open(&dir).expect("open");
        assert_eq!(reopened.generation(), 0);
        let a = reopened.tenant("a").expect("tenant");
        assert_eq!(a.get(0).expect("get"), b"keep me");
        assert_eq!(a.get(1).expect("get"), b"reclaim me");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_spans_cover_every_phase() {
        let store = SharedStore::in_memory();
        let trace = kishu_trace::Trace::enabled();
        store.attach_trace(&trace);
        let mut a = store.tenant("a").expect("tenant");
        a.put(b"x").expect("put");
        store.collect(&live(&[("a", &[])])).expect("gc");
        let names: Vec<String> = trace.spans().iter().map(|s| s.name.clone()).collect();
        for phase in ["gc.mark", "gc.sweep", "gc.commit"] {
            assert!(names.iter().any(|n| n == phase), "missing span {phase}: {names:?}");
        }
    }

    #[test]
    fn report_serializes() {
        let r = GcReport {
            live_blobs: 3,
            reclaimed_blobs: 2,
            reclaimed_payload_bytes: 100,
            physical_before: 500,
            physical_after: 300,
            generation: 4,
        };
        let j = r.to_json();
        assert_eq!(j.get("reclaimed_blobs").and_then(Json::as_i64), Some(2));
        Json::parse(&j.dump()).expect("round trips");
    }
}
