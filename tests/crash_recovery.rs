//! Crash-recovery and fault-injection suite.
//!
//! Three layers of the durability story, bottom-up:
//!
//! 1. **Kill-at-any-byte on the log file**: truncating a [`FileStore`] log at
//!    *every* possible prefix length must recover exactly the longest intact
//!    record prefix — never a panic, never a torn record, and the recovered
//!    log accepts appends.
//! 2. **Resume from any persisted prefix**: a session that `persist()`ed its
//!    Checkpoint Graph periodically must `resume` from any crash prefix that
//!    still holds at least one intact graph snapshot, restoring exactly the
//!    newest surviving persist point — and error (not panic) otherwise.
//!
//!    Both sweeps, and the GC sweep below, run over v1 frames
//!    ([`ChunkConfig::disabled`]) and the default v2 representation (chunk
//!    and manifest records).
//! 3. **Acceptance under live faults**: a 50-cell scripted session running
//!    over a [`FaultStore`] at 5% transient fault probability completes
//!    every checkout with namespace state equivalent to a fault-free twin,
//!    with the degradation visible in the session's counters and the fault
//!    ledger.
//! 4. **Kill-at-any-byte during shared-store GC**: a compaction of a
//!    multi-tenant [`SharedStore`] killed at any point of its commit
//!    sequence must leave a store that reopens, `resume`s every tenant to
//!    its persisted head, and checks out every historical commit
//!    byte-identically — the generation either fully committed or is
//!    fully absent, never torn.
//!
//! Fault decisions are seeded; set `KISHU_TESTKIT_SEED` to replay a run.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use common::{snapshot, temp_dir, temp_path, Run, Script};
use kishu::session::{KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_storage::chunk::ChunkConfig;
use kishu_storage::{CheckpointStore, FaultPlan, FaultStore, FileStore, MemoryStore, SharedStore};
use kishu_testkit::rng::{env_seed, seed_override};

/// Whether this run uses the test's built-in seed (for which fault-firing
/// counts are known) rather than a caller-chosen `KISHU_TESTKIT_SEED`. A
/// custom seed still gets the full equivalence checking, but can
/// legitimately draw a fault-free run, so "faults fired" is only asserted
/// for the default.
fn default_seed() -> bool {
    seed_override().is_none()
}

/// The two on-disk representations the recovery sweeps cover: v1 frames
/// only, and the default chunked v2 records.
fn representations() -> [ChunkConfig; 2] {
    [ChunkConfig::disabled(), ChunkConfig::default()]
}

/// FileStore record framing: marker byte + u32 len + u32 crc.
const HEADER_LEN: u64 = 9;

/// End offsets of each *blob-completing* record in a FileStore log, parsed
/// from the raw bytes. A v1 record (`K`) or a chunk manifest (`M`) completes
/// a blob; a chunk record (`C`) does not — a blob's chunks precede its
/// manifest, so a log cut after some chunks but before their manifest holds
/// no new blob (the orphan chunks are harmless dedup fodder).
fn record_ends(log: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut off = 0u64;
    while off + HEADER_LEN <= log.len() as u64 {
        let o = off as usize;
        let marker = log[o];
        assert!(
            matches!(marker, 0x4B | 0x43 | 0x4D),
            "unknown record marker {marker:#x}"
        );
        let len = u32::from_le_bytes([log[o + 1], log[o + 2], log[o + 3], log[o + 4]]) as u64;
        off += HEADER_LEN + len;
        assert!(off <= log.len() as u64, "log ends on a record boundary");
        if marker != 0x43 {
            ends.push(off);
        }
    }
    ends
}

#[test]
fn kill_at_any_byte_recovers_the_longest_intact_prefix() {
    for cfg in representations() {
        kill_at_any_byte(cfg);
    }
}

fn kill_at_any_byte(cfg: ChunkConfig) {
    // A log with records of assorted sizes: empty through multi-KB. Under
    // v2 the large ones cross the chunking threshold so the log mixes v1
    // records with chunk + manifest sequences (one compressible payload,
    // one incompressible, so both stored-chunk flags appear).
    let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        (rng_state >> 24) as u8
    };
    let payloads: Vec<Vec<u8>> = vec![
        vec![],
        vec![0xAA; 1],
        (0..=16u8).collect(),
        vec![0x55; 64],
        (0..6000u32).map(|i| (i % 251) as u8).collect(),
        vec![1, 2, 3],
        (0..4000).map(|_| rng()).collect(),
        (0..130u8).map(|b| b.wrapping_mul(7)).collect(),
    ];
    let full = temp_path("kill.full.log");
    {
        let mut s = FileStore::create_with(&full, cfg.clone(), true).expect("create");
        for p in &payloads {
            s.put(p).expect("put");
        }
        s.sync().expect("sync");
    }
    let log = std::fs::read(&full).expect("read log");
    let ends = record_ends(&log);
    assert_eq!(ends.len(), payloads.len());

    let cut_path = temp_path("kill.cut.log");
    for cut in 0..=log.len() {
        std::fs::write(&cut_path, &log[..cut]).expect("write prefix");
        let mut s =
            FileStore::open_with(&cut_path, cfg.clone(), true).expect("open never fails on a prefix");
        let intact = ends.iter().filter(|e| **e <= cut as u64).count();
        assert_eq!(
            s.blob_count(),
            intact as u64,
            "{cfg:?} cut at byte {cut}: expected exactly the longest intact record prefix"
        );
        for (i, p) in payloads.iter().take(intact).enumerate() {
            assert_eq!(&s.get(i as u64).expect("surviving record reads"), p, "cut {cut}");
        }
        // The recovered log accepts appends and reads them back.
        let id = s.put(b"post-crash append").expect("append after recovery");
        assert_eq!(s.get(id).expect("read back"), b"post-crash append");
        assert_eq!(s.blob_count(), intact as u64 + 1);
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&cut_path).ok();
}

#[test]
fn resume_succeeds_from_any_prefix_with_an_intact_snapshot() {
    for cfg in representations() {
        resume_from_any_prefix(cfg);
    }
}

fn resume_from_any_prefix(cfg: ChunkConfig) {
    // Scripted session on a FileStore, persisting the graph three times.
    let full = temp_path("resume.full.log");
    let cells = [
        "a = [1, 2, 3]\n",
        "b = arange(8)\n",
        "a.append(4)\n", // persist #1 after this
        "c = {'k': 10}\n",
        "b[0] = 99.0\n", // persist #2 after this
        "d = a\n",
        "del c\n",
        "a.append(5)\n", // persist #3 after this
    ];
    // After each persist: (number of blobs the store holds, expected state).
    let mut persists: Vec<(u64, BTreeMap<String, String>)> = Vec::new();
    {
        let store = FileStore::create_with(&full, cfg.clone(), true).expect("create");
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        for (i, cell) in cells.iter().enumerate() {
            let r = s.run_cell(cell).expect("parses");
            assert!(r.outcome.error.is_none(), "cell {i}: {:?}", r.outcome.error);
            if matches!(i, 2 | 4 | 7) {
                s.persist().expect("persist");
                persists.push((s.store_stats().blobs, snapshot(&s)));
            }
        }
    }
    let log = std::fs::read(&full).expect("read log");
    let ends = record_ends(&log);

    // Cut at every record boundary and at bytes straddling each boundary
    // (mid-header and mid-payload), so torn snapshots and torn data blobs
    // are both exercised.
    let mut cuts: Vec<u64> = vec![0];
    for e in &ends {
        for c in [e.saturating_sub(5), e.saturating_sub(1), *e, e + 1, e + 4] {
            if c <= log.len() as u64 {
                cuts.push(c);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();

    let cut_path = temp_path("resume.cut.log");
    for cut in cuts {
        std::fs::write(&cut_path, &log[..cut as usize]).expect("write prefix");
        let intact = ends.iter().filter(|e| **e <= cut).count() as u64;
        // The newest persist whose snapshot blob (the last blob written by
        // that persist) survived the crash is what resume must restore.
        let expected = persists.iter().rev().find(|(blobs, _)| *blobs <= intact);
        let store = FileStore::open_with(&cut_path, cfg.clone(), true).expect("open recovers");
        match KishuSession::resume(Box::new(store), KishuConfig::default()) {
            Ok(resumed) => {
                let (_, want) = expected.unwrap_or_else(|| {
                    panic!("{cfg:?} cut {cut}: resume succeeded with no intact snapshot")
                });
                assert_eq!(
                    &snapshot(&resumed),
                    want,
                    "{cfg:?} cut {cut}: resumed state is not the newest surviving persist"
                );
            }
            Err(e) => {
                assert!(
                    expected.is_none(),
                    "{cfg:?} cut {cut}: resume failed despite an intact snapshot: {e}"
                );
            }
        }
    }
    std::fs::remove_file(&full).ok();
    std::fs::remove_file(&cut_path).ok();
}

/// Drive the faulty session and a fault-free twin through
/// [`Script::churn`] (cells, with a time-travel checkout after every 10th);
/// assert state equivalence throughout. Returns the faulty run and its
/// accumulated degradation (blobs dropped + integrity failures).
fn run_twins(faulty: KishuSession) -> (Run, usize, usize) {
    let script = Script::churn();
    let f = Run::new(faulty).drive(&script);
    let c = Run::new(KishuSession::in_memory(KishuConfig::default())).drive(&script);
    let (fl, cl) = (&f.logical, &c.logical);
    for (i, (rf, rc)) in fl.cells.iter().zip(&cl.cells).enumerate() {
        assert_eq!(rf.error, rc.error, "cell {i} outcome diverged");
        assert_eq!(rf.node, rc.node, "cell {i} committed different nodes");
        assert_eq!(rc.blobs_dropped, 0, "the fault-free twin never drops blobs");
    }
    for (i, (sf, sc)) in f.values().iter().zip(c.values()).enumerate() {
        assert_eq!(sf, &sc, "state diverged after step {i} ({:?})", script.steps[i]);
    }
    assert!(cl.checkouts.iter().all(|cc| cc.integrity_failures == 0));
    let dropped = fl.cells.iter().map(|r| r.blobs_dropped).sum();
    let integrity = fl.checkouts.iter().map(|r| r.integrity_failures).sum();
    (f, dropped, integrity)
}

#[test]
fn faulty_session_matches_fault_free_twin_with_retries() {
    // 5% transient faults with the default retry policy: retries absorb
    // nearly everything, state never diverges.
    let seed = env_seed(0xC0FFEE);
    let store = FaultStore::new(Box::new(MemoryStore::new()), FaultPlan::transient(0.05), seed);
    let ledger = store.ledger_handle();
    run_twins(KishuSession::new(Box::new(store), KishuConfig::default()));
    assert!(
        !default_seed() || ledger.total() > 0,
        "no faults fired at 5% over a 50-cell session (seed {seed})"
    );
}

#[test]
fn faulty_session_degrades_gracefully_without_retries() {
    // Same plan but zero retries: every transient fault lands, so blobs are
    // dropped at write time and reads fail over to recomputation — and the
    // namespace still never diverges from the fault-free run.
    let seed = env_seed(0xC0FFEE);
    let config = KishuConfig {
        store_retries: 0,
        ..KishuConfig::default()
    };
    let store = FaultStore::new(Box::new(MemoryStore::new()), FaultPlan::transient(0.05), seed);
    let ledger = store.ledger_handle();
    let (faulty, dropped, integrity) = run_twins(KishuSession::new(Box::new(store), config));
    assert!(
        !default_seed() || ledger.total() > 0,
        "no faults fired at 5% over a 50-cell session (seed {seed})"
    );
    assert_eq!(
        faulty.session.metrics().total_blobs_dropped(),
        dropped,
        "session metrics agree with per-cell reports"
    );
    assert!(
        !default_seed() || dropped + integrity > 0,
        "without retries, degradation must be visible in the counters (seed {seed})"
    );
}

#[test]
fn corrupt_reads_fall_back_to_recomputation() {
    // Bit-flips on every 4th get: integrity checks catch the corruption and
    // checkout recomputes instead of loading garbage.
    let seed = env_seed(0xBADC0DE);
    let mut plan = FaultPlan::none();
    plan.bit_flip_p = 0.25;
    let store = FaultStore::new(Box::new(MemoryStore::new()), plan, seed);
    let ledger = store.ledger_handle();
    let (_, _, integrity) = run_twins(KishuSession::new(Box::new(store), KishuConfig::default()));
    let flips = ledger.snapshot().count(kishu_storage::FaultKind::BitFlip);
    assert!(!default_seed() || flips > 0, "no bit-flips fired (seed {seed})");
    assert!(
        flips == 0 || integrity > 0,
        "bit-flips fired but no integrity failures were counted (seed {seed})"
    );
}

/// Clone a store directory, so each simulated crash starts from the same
/// pre-GC disk image.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("mkdir");
    for e in std::fs::read_dir(src).expect("read dir").flatten() {
        std::fs::copy(e.path(), dst.join(e.file_name())).expect("copy file");
    }
}

/// Everything recovery must reproduce for one tenant: its persisted-head
/// namespace, and the namespace at every committed node.
struct TenantTruth {
    name: &'static str,
    head: BTreeMap<String, String>,
    at_nodes: Vec<(NodeId, BTreeMap<String, String>)>,
}

/// GC compaction killed at any byte of its commit sequence: the store must
/// reopen either fully on the old generation or fully on the new one, and
/// in both worlds every tenant resumes to its persisted head and every
/// historical commit checks out byte-identically. Afterwards, a clean GC
/// pass always converges (reclaiming the garbage the killed pass did not).
#[test]
fn gc_compaction_killed_at_any_byte_recovers_every_tenant() {
    for cfg in representations() {
        gc_killed_at_any_byte(cfg);
    }
}

fn gc_killed_at_any_byte(cfg: ChunkConfig) {
    eprintln!("GC sweep under {cfg:?}");
    // ---- Build the pre-GC store: two tenants, interleaved cells, two
    // persists each (the first persist's snapshot becomes GC fodder).
    let base = temp_dir("gc-base");
    // `data` seals past the default chunking minimum, so the v2 pass
    // writes chunk and manifest records.
    let scripts: [&[&str]; 2] = [
        &["data = list(range(1000))\n", "a = [1, 2]\n", "a.append(3)\n", "b = a\n", "a.append(4)\n"],
        &["data = list(range(1000))\n", "x = {'k': 1}\n", "x['k'] = 2\n", "y = [9]\n", "del y\n"],
    ];
    let mut live: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let mut truths: Vec<TenantTruth> = Vec::new();
    {
        let store = SharedStore::create_with(&base, 3, cfg.clone()).expect("create");
        let mut sessions: Vec<(&str, KishuSession)> = ["ana", "ben"]
            .iter()
            .map(|n| (*n, KishuSession::on_shared(&store, n, KishuConfig::default()).expect("tenant")))
            .collect();
        for i in 0..scripts[0].len() {
            for ((_, s), script) in sessions.iter_mut().zip(&scripts) {
                let r = s.run_cell(script[i]).expect("parses");
                assert!(r.outcome.error.is_none(), "cell {i}");
                if i == 2 {
                    s.persist().expect("mid persist (superseded later)");
                }
            }
        }
        for (name, s) in sessions.iter_mut() {
            s.persist().expect("final persist");
            let head = snapshot(s);
            live.insert(name.to_string(), s.live_blobs());
            let nodes: Vec<NodeId> = (1..=scripts[0].len() as u32).map(NodeId).collect();
            let mut at_nodes = Vec::new();
            for n in nodes {
                s.checkout(n).expect("pre-crash checkout");
                at_nodes.push((n, snapshot(s)));
            }
            truths.push(TenantTruth { name, head, at_nodes });
        }
        store.sync_all().expect("sync");
    }

    // ---- Reference run (no crash): learn the commit's total byte budget
    // and confirm there is real garbage to reclaim.
    let reference = temp_dir("gc-ref");
    copy_dir(&base, &reference);
    let expected_reclaimed = {
        let store = SharedStore::open_with(&reference, cfg.clone()).expect("open");
        let r = store.collect(&live).expect("reference gc");
        assert!(r.reclaimed_blobs > 0, "superseded snapshots must be garbage: {r:?}");
        r.reclaimed_blobs
    };
    // Budget units consumed by a full commit: every byte of every
    // new-generation file and of the manifest, plus 1 for the rename.
    let total_units: u64 = std::fs::read_dir(&reference)
        .expect("read dir")
        .flatten()
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.contains(".g1.") || n == "MANIFEST.json"
        })
        .map(|e| e.metadata().expect("metadata").len())
        .sum::<u64>()
        + 1;

    // ---- Kill the compaction at byte budgets spanning the whole commit:
    // the first bytes of the first shard file, both sides of every file
    // boundary (a stride finer than the smallest file), the
    // fully-written-but-unrenamed manifest, and the commit itself.
    let mut cuts: Vec<u64> = (0..4).collect();
    let stride = (total_units / 120).max(1);
    cuts.extend((0..=total_units).step_by(stride as usize));
    cuts.extend(total_units.saturating_sub(3)..=total_units);
    cuts.sort_unstable();
    cuts.dedup();

    let work = temp_dir("gc-work");
    for &cut in &cuts {
        copy_dir(&base, &work);
        let store = SharedStore::open_with(&work, cfg.clone()).expect("open pre-crash copy");
        store.set_crash_after_bytes(Some(cut));
        let outcome = store.collect(&live);
        drop(store); // the machine dies here
        let reopened =
            SharedStore::open_with(&work, cfg.clone()).expect("open after crash never fails");
        match &outcome {
            Ok(r) => {
                assert_eq!(reopened.generation(), 1, "cut {cut}: commit went through");
                assert_eq!(r.reclaimed_blobs, expected_reclaimed, "cut {cut}");
            }
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::Interrupted, "cut {cut}: {e}");
                assert_eq!(
                    reopened.generation(),
                    0,
                    "cut {cut}: a killed commit must leave the old generation"
                );
            }
        }
        // Stray partial files (half-written new generation, orphaned
        // MANIFEST.tmp) are swept on open.
        for e in std::fs::read_dir(&work).expect("read dir").flatten() {
            let n = e.file_name().to_string_lossy().into_owned();
            let current = format!(".g{}.log", reopened.generation());
            assert!(
                n == "MANIFEST.json" || n.ends_with(&current),
                "cut {cut}: stray file {n} survived recovery"
            );
        }
        reopened.check_invariants(true).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        // Every tenant resumes to its persisted head, and every commit in
        // its history restores byte-identically — GC (computed or killed)
        // reclaimed nothing reachable.
        for truth in &truths {
            let handle = reopened.tenant(truth.name).expect("tenant");
            let mut s = KishuSession::resume(Box::new(handle), KishuConfig::default())
                .unwrap_or_else(|e| panic!("cut {cut}: resume {} failed: {e}", truth.name));
            assert_eq!(snapshot(&s), truth.head, "cut {cut}: {} head", truth.name);
            for (n, want) in &truth.at_nodes {
                s.checkout(*n).expect("post-crash checkout");
                assert_eq!(&snapshot(&s), want, "cut {cut}: {} node {n:?}", truth.name);
            }
        }
        // Recovery converges: a clean pass reclaims exactly what is left.
        let r = reopened.collect(&live).expect("post-recovery gc");
        match &outcome {
            Ok(_) => assert_eq!(r.reclaimed_blobs, 0, "cut {cut}: nothing left after a commit"),
            Err(_) => assert_eq!(r.reclaimed_blobs, expected_reclaimed, "cut {cut}"),
        }
    }
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&work).ok();
}
