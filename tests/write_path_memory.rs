//! What one checkpoint allocates on its way from the heap to the log, what
//! one checkout allocates on its way back, and what reading an attribute
//! of a library object or reading, writing or deleting one element of a
//! container allocates.
//!
//! This binary installs a counting global allocator: it tracks the bytes
//! live and their peak, and counts a realloc's old and new blocks together
//! until the old block is freed, as a copying realloc holds both. The
//! allocator counts every thread, so each test measures under one shared
//! lock ([`SERIAL`]) and no measurement overlaps another test's work.
//!
//! A `FileStore` session with group commit on and one checkpoint worker
//! holds a 4 MiB library object, and `m.update(1)` rewrites its payload.
//! The cell's checkpoint pickles the object into one buffer, seals that
//! buffer in place and chunks it into the group-commit buffer. So the
//! bytes live during the cell, above those live before it, peak at about
//! one payload: the update's fresh payload beside the old one, or the
//! pickle buffer beside the heap's payload. A reducer copy, a pickle
//! buffer doubled after the payload or a seal copy would each add a
//! payload more.
//!
//! The group-commit buffer keeps its capacity across cells, so it shows
//! in the cell that creates the object, which grows it from empty: that
//! cell holds the heap's payload and the pickle buffer, plus a buffer that
//! flushes at 1 MiB, and peaks within three payloads. A buffer that held
//! the whole payload before flushing would add two more.
//!
//! A checkout moves each payload once. A cold load reads the sealed blob,
//! the verify job copies the payload out of it into a shared buffer that
//! the read cache then keeps, and the library's rebuild copies that into
//! the heap. A cache hit hands the decoder the cached buffer, so only the
//! heap's copy is new.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use kishu::session::{KishuConfig, KishuSession};
use kishu_libsim::Registry;
use kishu_minipy::Interp;
use kishu_storage::{ChunkConfig, FileStore};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

/// The system allocator, counting live bytes into [`LIVE`] and [`PEAK`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System.alloc_zeroed`'s.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block this allocator hands out comes from `System`
        // with the same layout, and the caller passes one of them.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, so from
        // `System`, and the caller's guarantees for `new_size` are
        // `System.realloc`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        shrink(if new.is_null() {
            new_size
        } else {
            layout.size()
        });
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PAYLOAD: usize = 4 << 20;

/// Held by each test for its whole run, so one test's allocations never
/// land in another's measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f`; the peak bytes live while it ran, above those live before it.
fn peak_during(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - before
}

#[test]
fn a_checkpoint_holds_its_payload_once() {
    let _serial = serial();
    let path = std::env::temp_dir().join(format!("kishu-write-path-{}.log", std::process::id()));
    let store = FileStore::create_with(&path, ChunkConfig::default(), true).expect("create");
    let config = KishuConfig {
        checkpoint_workers: 1,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::new(Box::new(store), config);
    let run = |s: &mut KishuSession, src: &str| {
        let report = s.run_cell(src).expect("parses");
        assert!(
            report.outcome.error.is_none(),
            "{src}: {:?}",
            report.outcome.error
        );
        assert_eq!(report.updated.len(), 1, "{src} checkpoints one co-variable");
    };
    let created = peak_during(|| {
        run(
            &mut s,
            &format!("m = lib_obj('sk.LogisticRegression', {PAYLOAD}, 7)\n"),
        )
    });
    let updated = peak_during(|| run(&mut s, "m.update(1)\n"));

    drop(s);
    let _ = std::fs::remove_file(&path);
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    assert!(
        updated <= PAYLOAD * 3 / 2,
        "checkpointing a {:.2} MiB payload peaked {:.2} MiB above the bytes live before the cell",
        mib(PAYLOAD),
        mib(updated)
    );
    assert!(
        created <= PAYLOAD * 3,
        "creating and checkpointing a {:.2} MiB payload peaked {:.2} MiB above the bytes live \
         before the cell",
        mib(PAYLOAD),
        mib(created)
    );
}

/// Reading an attribute of a 4 MiB library object reads it in place: the
/// cell allocates its parse, its frame and the result, but no copy of the
/// object's payload.
#[test]
fn reading_an_attribute_copies_no_payload() {
    let _serial = serial();
    let mut i = Interp::new();
    kishu_libsim::install(&mut i, Arc::new(Registry::standard()));
    let setup = format!("m = lib_obj('sk.LogisticRegression', {PAYLOAD}, 7)\nm.tag = 1\n");
    let out = i.run_cell(&setup).expect("parses");
    assert!(out.error.is_none(), "{:?}", out.error);
    for src in ["t = m.tag\n", "m.missing\n"] {
        let read = peak_during(|| {
            i.run_cell(src).expect("parses");
        });
        assert!(
            read < PAYLOAD / 8,
            "{src:?} on a {} MiB library object peaked {read} bytes above the bytes live before",
            PAYLOAD >> 20
        );
    }
}

/// Reading one element reads the container in place: `a[3]` on a 4 MiB
/// array and `ls[5]` on a list of 200,000 elements (800 KB of ids) each
/// allocate their parse, the index and the result, but no copy of the
/// container.
#[test]
fn indexing_copies_no_container() {
    let _serial = serial();
    let mut i = Interp::new();
    let setup = format!("a = zeros({})\nls = list(range(200000))\n", PAYLOAD / 8);
    let out = i.run_cell(&setup).expect("parses");
    assert!(out.error.is_none(), "{:?}", out.error);
    for src in ["x = a[3]\n", "y = ls[5]\n"] {
        let read = peak_during(|| {
            let out = i.run_cell(src).expect("parses");
            assert!(out.error.is_none(), "{src}: {:?}", out.error);
        });
        assert!(
            read < PAYLOAD / 8,
            "{src:?} peaked {read} bytes above the bytes live before"
        );
    }
}

/// Check out each of two versions of a 4 MiB library object cold, then
/// each again from the read cache, at one and two restore workers. A hit
/// allocates the heap's copy of the payload and nothing else of its size;
/// a cold load adds the sealed blob and the cached payload, and the first
/// one also grows the store's run buffer to 1 MiB. A copy out of the
/// cache, a copy in the pickle reader or a copy into the cache would each
/// add a payload more.
#[test]
fn a_checkout_holds_each_payload_once() {
    let _serial = serial();
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    for restore_workers in [1, 2] {
        let path = std::env::temp_dir().join(format!(
            "kishu-read-path-{}-{restore_workers}.log",
            std::process::id()
        ));
        let store = FileStore::create_with(&path, ChunkConfig::default(), true).expect("create");
        let config = KishuConfig {
            checkpoint_workers: 1,
            restore_workers,
            ..KishuConfig::default()
        };
        let mut s = KishuSession::new(Box::new(store), config);
        let mut versions = Vec::new();
        for src in [
            format!("m = lib_obj('sk.LogisticRegression', {PAYLOAD}, 7)\n"),
            "m.update(1)\n".to_string(),
        ] {
            let report = s.run_cell(&src).expect("parses");
            assert!(report.outcome.error.is_none(), "{src}: {:?}", report.outcome.error);
            versions.push(report.node.expect("the cell commits"));
        }
        for (round, cached) in [(0, false), (1, true)] {
            for &version in &versions {
                let mut report = None;
                let peak = peak_during(|| report = Some(s.checkout(version).expect("checkout")));
                let report = report.expect("ran");
                assert_eq!(report.loaded.len(), 1, "round {round}: one co-variable loads");
                assert_eq!(report.blobs_cached, usize::from(cached), "round {round}");
                let bound = if cached { PAYLOAD * 3 / 2 } else { PAYLOAD * 11 / 4 };
                assert!(
                    peak <= bound,
                    "a {} checkout of a {:.2} MiB payload at {restore_workers} restore \
                     worker(s) peaked {:.2} MiB above the bytes live before it",
                    if cached { "cached" } else { "cold" },
                    mib(PAYLOAD),
                    mib(peak)
                );
            }
        }
        drop(s);
        let _ = std::fs::remove_file(&path);
    }
}

/// Writing or deleting one element writes the container in place:
/// `a[3] = 1.0` on a 4 MiB array, and `ls[5] = 7` and `del ls[5]` on a list
/// of 200,000 elements, each allocate their parse and the value, but no
/// copy of the container.
#[test]
fn subscript_writes_copy_no_container() {
    let _serial = serial();
    let mut i = Interp::new();
    let setup = format!("a = zeros({})\nls = list(range(200000))\n", PAYLOAD / 8);
    let out = i.run_cell(&setup).expect("parses");
    assert!(out.error.is_none(), "{:?}", out.error);
    for src in ["a[3] = 1.0\n", "ls[5] = 7\n", "del ls[5]\n"] {
        let written = peak_during(|| {
            let out = i.run_cell(src).expect("parses");
            assert!(out.error.is_none(), "{src}: {:?}", out.error);
        });
        assert!(
            written < PAYLOAD / 8,
            "{src:?} peaked {written} bytes above the bytes live before"
        );
    }
}
