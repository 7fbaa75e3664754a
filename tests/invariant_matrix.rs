//! The invariant matrix: every configuration observes what the oracle
//! observes.
//!
//! The oracle point is the serial pipelines, chunking off, the
//! tree-walking interpreter, no recorder and an in-memory store
//! ([`ORACLE`]). Every point of
//!
//! * workers {1, 4} (the serial-oracle invariant of both pipelines),
//! * chunking {off, small-threshold v2} (representation-only storage),
//! * engine {tree, vm} (the VM is semantics-preserving),
//! * recorder {off, forced memory pressure} (tracing is behavior-free),
//! * store {memory, file},
//!
//! runs the matrix script with faults off and again with seeded faults,
//! and must observe exactly what the oracle point with the same faults
//! observes: the store's logical view, every non-timing report field
//! except the declared representation-only ones (those are compared
//! between points with equal representations), the namespace after every
//! step, query answers and the fault ledger. Set `KISHU_TESTKIT_SEED` to
//! replay another fault seed.
//!
//! Also here: the defaults read no environment — a default-config session
//! in a child process with every deleted knob set observes exactly what
//! one in this process observes.

mod common;

use common::{assert_twins, observe, Backend, Chunking, Faults, Observation, Point, Recorder};
use common::{Run, Script, ORACLE};
use kishu::session::{KishuConfig, KishuSession};
use kishu_minipy::Engine;
use kishu_storage::FileStore;
use kishu_testkit::rng::{env_seed, seed_override};

/// Every non-oracle combination of the matrix dimensions, with `faults`.
fn points(faults: Faults) -> Vec<Point> {
    let mut out = Vec::new();
    for workers in [1, 4] {
        for chunking in [Chunking::Off, Chunking::SmallV2] {
            for engine in [Engine::Tree, Engine::Vm] {
                for recorder in [Recorder::Off, Recorder::Pressure] {
                    for store in [Backend::Memory, Backend::File] {
                        out.push(Point { workers, chunking, engine, recorder, store, faults });
                    }
                }
            }
        }
    }
    out
}

/// Observe `script` at every point on two threads (each point is an
/// independent session).
fn observe_all(points: &[Point], script: &Script) -> Vec<Observation> {
    let observe_half = |half: &[Point]| -> Vec<Observation> {
        half.iter().map(|p| observe(p, script)).collect()
    };
    std::thread::scope(|scope| {
        let halves: Vec<_> = points
            .chunks(points.len().div_ceil(2))
            .map(|half| scope.spawn(move || observe_half(half)))
            .collect();
        halves.into_iter().flat_map(|h| h.join().expect("observer thread")).collect()
    })
}

#[test]
fn every_point_observes_what_the_oracle_observes() {
    let script = Script::matrix();
    let seed = env_seed(0x7ACE_D1FF);
    for faults in [Faults::None, Faults::Seeded(seed)] {
        let oracle = observe(&Point { faults, ..ORACLE }, &script);
        let observations = observe_all(&points(faults), &script);
        assert_eq!(observations.len(), 32);
        for obs in &observations {
            assert_twins(&oracle, obs);
            // The recorder really ran, under real pressure.
            let (point, rec) = (obs.point, obs.recorder);
            if point.recorder == Recorder::Pressure {
                assert!(rec.spans_dropped > 0, "the 8 KiB ring never overflowed at {point:?}");
            } else {
                assert_eq!(rec.spans_recorded, 0, "a disabled trace recorded at {point:?}");
            }
        }
        // The script reaches what the matrix is meant to cover.
        let l = &oracle.logical;
        assert!(l.checkouts.iter().any(|c| !c.recomputed.is_empty()), "no checkout replayed");
        assert!(l.cells.iter().any(|c| c.error.is_some()), "no cell raised");
        assert!(l.cells.iter().any(|c| c.blobs_deduped > 0), "no blob dedup");
        if faults != Faults::None {
            let fired = seed_override().is_some() || l.ledger.total() > 0;
            assert!(fired, "no faults fired with the built-in seed {seed}");
        }
    }
}

/// Small-threshold v2 really chunks the matrix script, so the chunking
/// rows compare two different representations.
#[test]
fn the_v2_rows_exercise_the_chunk_layer() {
    let script = Script::matrix();
    for store in [Backend::Memory, Backend::File] {
        let on = observe(&Point { store, chunking: Chunking::SmallV2, ..ORACLE }, &script);
        let off = observe(&Point { store, ..ORACLE }, &script);
        let (on, off) = (on.physical.total(), off.physical.total());
        assert!(on.chunks_written > 0 && on.chunks_deduped > 0, "{store:?}: {on:?}");
        assert!(on.bytes_compressed > 0, "{store:?}: {on:?}");
        assert_eq!(off.chunks_written, 0, "{store:?}: {off:?}");
        assert!(on.bytes_written < off.bytes_written, "{store:?}: {on:?} vs {off:?}");
    }
}

/// Knobs earlier versions read from the environment, each set to a value
/// that would change what a default session observes if it were read.
const DELETED_KNOBS: &[(&str, &str)] = &[
    ("KISHU_CHECKPOINT_WORKERS", "1"),
    ("KISHU_RESTORE_WORKERS", "3"),
    ("KISHU_CHECKOUT_CACHE_BYTES", "0"),
    ("KISHU_MINIPY_VM", "0"),
    ("KISHU_CHUNKING", "0"),
    ("KISHU_COMPRESS", "0"),
    ("KISHU_CHUNK_MIN", "64"),
    ("KISHU_CHUNK_AVG", "128"),
    ("KISHU_CHUNK_MAX", "256"),
    ("KISHU_GROUP_COMMIT", "0"),
    ("KISHU_STORE_SHARDS", "7"),
    ("KISHU_GC", "0"),
    ("KISHU_OBS_RING_BYTES", "1024"),
    ("KISHU_OBS_RESERVOIR", "1"),
    ("KISHU_OBS_JOURNAL", "1"),
    ("KISHU_OBS_SLOW_NS", "1"),
];

/// A default-config session on a default `FileStore`, running the matrix
/// script: one digest over the log's bytes and every report field
/// (representation-only fields included).
fn default_session_digest() -> u64 {
    let path = common::temp_path("defaults.log");
    let store = FileStore::create(&path).expect("create");
    let mut run = Run::new(KishuSession::new(Box::new(store), KishuConfig::default()));
    run = run.drive(&Script::matrix());
    run.session.persist().expect("persist");
    let reports = format!("{:?}{:?}", run.logical, run.physical);
    drop(run);
    let mut bytes = std::fs::read(&path).expect("read log");
    let _ = std::fs::remove_file(&path);
    bytes.extend_from_slice(reports.as_bytes());
    kishu::xxh64::xxh64(&bytes, 0)
}

/// The child half of [`defaults_ignore_the_environment`]; run on its own it
/// just prints the digest.
#[test]
fn default_session_digest_child() {
    println!("digest={:016x}", default_session_digest());
}

#[test]
fn defaults_ignore_the_environment() {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "default_session_digest_child", "--nocapture", "--test-threads=1"])
        .envs(DELETED_KNOBS.iter().copied())
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stdout}\n{stderr}");
    let child = stdout.split("digest=").nth(1).and_then(|rest| rest.get(..16));
    let child = child.unwrap_or_else(|| panic!("child printed no digest:\n{stdout}"));
    let here = format!("{:016x}", default_session_digest());
    assert_eq!(child, here, "a default session observed its environment");
}
