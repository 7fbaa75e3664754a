//! In-tree observability for the Kishu reproduction: structured spans in
//! a bounded ring, the crate's only record, and two exporters over the
//! ring's spans (Chrome `trace_event` JSON for `chrome://tracing`/Perfetto,
//! and a human text summary). Zero registry dependencies — JSON rides on
//! `kishu-testkit`, honoring the workspace's hermetic-build invariant.
//!
//! # Design constraints
//!
//! The hard requirement (a ROADMAP invariant) is that **enabling tracing
//! changes no behavior**: no RNG draws, no reordering of `FaultStore`
//! decisions, no store operations moved across threads. The crate is built
//! so instrumented code cannot accidentally violate that:
//!
//! * A [`Trace`] handle is either *enabled* (holds shared state) or
//!   *disabled* (holds nothing). Disabled is the default; every recording
//!   call on a disabled handle is a no-op that touches no shared state.
//! * Finished spans are appended to a **per-thread buffer** and only
//!   drained into the shared ring when the thread's span stack
//!   empties (end of a top-level span, or end of a [`Trace::worker_scope`]
//!   on a pool worker). The hot path takes no locks per span; draining
//!   takes one lock per batch.
//! * [`SpanGuard::end`] always returns the measured duration — even on a
//!   disabled handle — so report fields (`checkpoint_time`,
//!   `CheckoutReport::wall_time`, per-phase nanosecond breakdowns) are
//!   *derived views over spans* rather than a second set of stopwatches.
//!   There is exactly one clock read per phase boundary, tracing on or
//!   off.
//!
//! # Thread attribution
//!
//! Spans carry a `tid`: `0` for the session thread (or any non-pool
//! thread), `w + 1` for pool worker `w` (via
//! [`kishu_testkit::pool::current_worker`]). Fan-out jobs run inside
//! [`Trace::worker_scope`], which parents their spans under a span id
//! captured on the session thread, so Chrome exports show per-worker
//! serialize/seal and verify/decode lanes nested under the session-side
//! phase.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use kishu_testkit::json::Json;

pub mod chrome;
pub mod ring;

pub use ring::{RingStats, SpanRing};

/// Identifier of a span, unique within one [`Trace`]. Ids start at 1.
pub type SpanId = u64;

/// One finished span. `start_ns` is relative to the trace's epoch (the
/// moment the [`Trace`] was created); `tid` is the pool-worker attribution
/// (`0` = session thread, `w + 1` = pool worker `w`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the trace (allocation order, starting at 1).
    pub id: SpanId,
    /// Enclosing span at creation time, if any.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `"ckpt.serialize"`.
    pub name: String,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Thread attribution: `0` session thread, `w + 1` pool worker `w`.
    pub tid: u32,
    /// Free-form key/value annotations (blob ids, byte counts, fault
    /// kinds, ledger indices…).
    pub args: Vec<(String, String)>,
}

#[derive(Debug)]
struct TraceInner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Bounded span retention: the only copy of each finished span.
    spans: Mutex<SpanRing>,
}

thread_local! {
    /// Stack of active span contexts on this thread: `(trace, span id)`.
    /// [`SpanGuard`]s push/pop; [`Trace::worker_scope`] pushes a base
    /// frame carrying the session-side parent id (`span` may be `None`
    /// for a scope with no parent).
    static STACK: RefCell<Vec<(Arc<TraceInner>, Option<SpanId>)>> =
        const { RefCell::new(Vec::new()) };
    /// Finished spans awaiting a drain into their trace's ring.
    static BUFFER: RefCell<Vec<(Arc<TraceInner>, SpanRecord)>> =
        const { RefCell::new(Vec::new()) };
}

/// A cloneable handle to one trace, or a no-op placeholder.
///
/// `Trace::default()` / [`Trace::disabled`] record nothing and allocate
/// nothing; [`Trace::enabled`] starts a fresh trace whose spans
/// accumulate in its ring until exported. Cloning shares the underlying
/// trace.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Arc<TraceInner>>);

impl Trace {
    /// A handle that records nothing. All calls are no-ops (but
    /// [`SpanGuard::end`] still measures wall time).
    pub fn disabled() -> Trace {
        Trace(None)
    }

    /// Start a fresh, recording trace with a 4 MiB ring. The epoch (t=0
    /// of every span's `start_ns`) is now.
    pub fn enabled() -> Trace {
        Trace::with_ring_bytes(4 << 20)
    }

    /// Start a fresh, recording trace whose ring holds about `ring_bytes`
    /// of spans (tests and the overhead experiment use a small one to
    /// force eviction).
    pub fn with_ring_bytes(ring_bytes: usize) -> Trace {
        Trace(Some(Arc::new(TraceInner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(SpanRing::new(ring_bytes)),
        })))
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span. The parent is the innermost span already open on
    /// *this thread* for *this trace* (so nesting needs no explicit
    /// plumbing); across pool workers, use [`Trace::worker_scope`] to
    /// seed the parent. Always returns a guard whose [`SpanGuard::end`]
    /// measures wall time; recording happens only when enabled.
    pub fn span(&self, name: &str) -> SpanGuard {
        let start = Instant::now();
        let Some(inner) = &self.0 else {
            return SpanGuard { start, open: None };
        };
        let parent = STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _)| Arc::ptr_eq(t, inner))
                .and_then(|(_, id)| *id)
        });
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        // The stack frame holds the only per-span Arc clone; `close`
        // takes it back when it pops the frame, so a span costs one
        // refcount round trip, not two (they are contended across pool
        // workers, so this is measurable on the recorder-on hot path).
        STACK.with(|s| s.borrow_mut().push((inner.clone(), Some(id))));
        SpanGuard {
            start,
            open: Some(OpenSpan {
                id,
                parent,
                name: name.to_string(),
                args: Vec::new(),
            }),
        }
    }

    /// The id of the innermost span open on this thread for this trace.
    /// Capture it on the session thread and hand it to
    /// [`Trace::worker_scope`] inside pool jobs.
    pub fn current_span_id(&self) -> Option<SpanId> {
        let Some(inner) = &self.0 else { return None };
        STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _)| Arc::ptr_eq(t, inner))
                .and_then(|(_, id)| *id)
        })
    }

    /// Run `f` with this trace active on the current thread, parenting
    /// any spans it opens under `parent` (a span id captured on the
    /// spawning thread). On exit the scope is popped and this thread's
    /// span buffer is drained. Intended for `kishu_testkit::pool` jobs;
    /// a no-op wrapper when disabled.
    pub fn worker_scope<R>(&self, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.0 else { return f() };
        STACK.with(|s| s.borrow_mut().push((inner.clone(), parent)));
        let out = f();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        flush_thread_buffer();
        out
    }

    /// Snapshot every retained span, id-ordered, with dangling parent
    /// links re-rooted after ring eviction (call on the session thread
    /// after work completes — worker buffers drain when their
    /// `worker_scope` exits, the session buffer when its top-level span
    /// ends).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.0 {
            Some(inner) => inner.ring().snapshot(),
            None => Vec::new(),
        }
    }

    /// The ring's occupancy and truthful drop accounting.
    pub fn ring_stats(&self) -> RingStats {
        match &self.0 {
            Some(inner) => inner.ring().stats(),
            None => RingStats::default(),
        }
    }

    /// Chrome `trace_event` JSON of everything recorded so far (see
    /// [`chrome::chrome_json`]).
    pub fn chrome_json(&self) -> Json {
        chrome::chrome_json(&self.spans())
    }

    /// Human-readable per-span-name summary, headed by the ring's
    /// accounting (see [`chrome::text_summary`]).
    pub fn text_summary(&self) -> String {
        chrome::text_summary(&self.spans(), &self.ring_stats())
    }
}

impl TraceInner {
    fn ring(&self) -> std::sync::MutexGuard<'_, SpanRing> {
        self.spans.lock().expect("span ring poisoned")
    }
}

/// Drain this thread's finished-span buffer into the owning traces'
/// rings, batching same-trace records under one lock, so the per-span
/// hot path stays lock-free.
fn flush_thread_buffer() {
    let mut rest: Vec<(Arc<TraceInner>, SpanRecord)> =
        BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
    while let Some((inner, _)) = rest.first() {
        let inner = inner.clone();
        // One lock covers the batch, which is what keeps per-job
        // worker-pool drains cheap. Records for a different trace (rare:
        // nested sessions) carry over.
        let mut keep = Vec::new();
        {
            let mut ring = inner.ring();
            for (t, r) in rest {
                if Arc::ptr_eq(&t, &inner) {
                    ring.push(r);
                } else {
                    keep.push((t, r));
                }
            }
        }
        rest = keep;
    }
}

struct OpenSpan {
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    args: Vec<(String, String)>,
}

/// An open span. Close it with [`SpanGuard::end`] to get the measured
/// duration back, or just let it drop. Guards must close in LIFO order
/// on a given thread (the natural order for lexically scoped guards).
pub struct SpanGuard {
    start: Instant,
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attach a key/value annotation. No-op when the trace is disabled.
    pub fn arg(&mut self, key: &str, value: impl ToString) {
        if let Some(open) = &mut self.open {
            open.args.push((key.to_string(), value.to_string()));
        }
    }

    /// This span's id (to parent worker-side spans under), if recording.
    pub fn id(&self) -> Option<SpanId> {
        self.open.as_ref().map(|o| o.id)
    }

    /// Close the span and return its duration in nanoseconds. This is
    /// *the* clock read for the phase — callers derive report timing
    /// fields from the return value, so timing works identically with
    /// tracing off.
    pub fn end(mut self) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        self.close(dur_ns);
        dur_ns
    }

    fn close(&mut self, dur_ns: u64) {
        let Some(open) = self.open.take() else { return };
        // Reclaim the trace handle from this guard's stack frame (LIFO
        // discipline) instead of carrying a second Arc in the guard.
        let inner = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert!(
                matches!(stack.last(), Some((_, Some(id))) if *id == open.id),
                "span guards must close in LIFO order"
            );
            stack.pop().map(|(t, _)| t)
        });
        let Some(inner) = inner else { return };
        let start_ns = self
            .start
            .checked_duration_since(inner.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let tid = kishu_testkit::pool::current_worker()
            .map(|w| w as u32 + 1)
            .unwrap_or(0);
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns,
            dur_ns,
            tid,
            args: open.args,
        };
        BUFFER.with(|b| b.borrow_mut().push((inner, record)));
        if STACK.with(|s| s.borrow().is_empty()) {
            flush_thread_buffer();
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.open.is_some() {
            let dur_ns = self.start.elapsed().as_nanos() as u64;
            self.close(dur_ns);
        }
    }
}

/// The trace active on the current thread (innermost stack frame), or a
/// disabled handle. Lets leaf code (`kishu-pickle`) record spans without
/// a threaded-through handle: inside a session span or a
/// [`Trace::worker_scope`] this is the session's trace, elsewhere it is
/// disabled.
pub fn current() -> Trace {
    STACK.with(|s| Trace(s.borrow().last().map(|(t, _)| t.clone())))
}

/// Open a span on the thread-current trace (see [`current`]).
pub fn current_span(name: &str) -> SpanGuard {
    current().span(name)
}

static GLOBAL: OnceLock<Trace> = OnceLock::new();

/// The process-global trace: enabled iff `KISHU_TRACE` is set non-empty
/// (see [`global_path`]), unless [`force_global_enabled`] ran first.
/// Sessions clone this by default.
pub fn global() -> &'static Trace {
    GLOBAL.get_or_init(|| match global_path() {
        Some(_) => Trace::enabled(),
        None => Trace::disabled(),
    })
}

/// Force the global trace on regardless of `KISHU_TRACE` (the `repro
/// trace` subcommand). Must run before the first [`global`] call to have
/// an effect; returns the global either way.
pub fn force_global_enabled() -> &'static Trace {
    GLOBAL.get_or_init(Trace::enabled)
}

/// The export path from `KISHU_TRACE`, if set non-empty — the only
/// environment variable this crate reads. Everything else is configured
/// by the values a caller passes (`KishuConfig`, `ChunkConfig`,
/// [`Trace::with_ring_bytes`]).
pub fn global_path() -> Option<String> {
    std::env::var("KISHU_TRACE").ok().filter(|p| !p.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_but_still_times() {
        let t = Trace::disabled();
        let mut sp = t.span("work");
        sp.arg("k", "v");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dur = sp.end();
        assert!(dur >= 1_000_000, "end() must measure even when disabled");
        assert!(t.spans().is_empty());
        assert_eq!(t.ring_stats(), RingStats::default());
    }

    #[test]
    fn spans_nest_by_thread_stack() {
        let t = Trace::enabled();
        {
            let outer = t.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let mut inner = t.span("inner");
                inner.arg("bytes", 42);
                assert_eq!(t.current_span_id(), inner.id());
                let sp = inner.end();
                let _ = sp;
            }
            assert_eq!(t.current_span_id(), Some(outer_id));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.args, vec![("bytes".to_string(), "42".to_string())]);
        assert_eq!(inner.tid, 0);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn worker_scope_parents_and_attributes_pool_spans() {
        let t = Trace::enabled();
        let phase = t.span("phase");
        let phase_id = phase.id();
        let trace = t.clone();
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let t = trace.clone();
                move || {
                    t.worker_scope(phase_id, || {
                        let mut sp = t.span("job");
                        sp.arg("i", i);
                        sp.end()
                    })
                }
            })
            .collect();
        let durs = kishu_testkit::pool::run(4, jobs);
        assert_eq!(durs.len(), 8);
        phase.end();
        let spans = t.spans();
        let jobs: Vec<_> = spans.iter().filter(|s| s.name == "job").collect();
        assert_eq!(jobs.len(), 8, "all worker spans drained: {spans:?}");
        for j in &jobs {
            assert_eq!(j.parent, phase_id, "worker span parents under phase");
            assert!((1..=4).contains(&j.tid), "tid is worker+1: {}", j.tid);
        }
        // And the inline path attributes to the session thread.
        let t2 = Trace::enabled();
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let t = t2.clone();
                move || t.worker_scope(None, || t.span("inline").end())
            })
            .collect();
        kishu_testkit::pool::run(1, jobs);
        assert!(t2.spans().iter().all(|s| s.tid == 0));
    }

    #[test]
    fn thread_current_trace_reaches_leaf_code() {
        assert!(!current().is_enabled(), "no scope: disabled");
        let t = Trace::enabled();
        let outer = t.span("outer");
        {
            // What kishu-pickle does: no handle, just the thread context.
            let sp = current_span("pickle.dumps");
            assert!(sp.id().is_some());
        }
        outer.end();
        let spans = t.spans();
        let leaf = spans.iter().find(|s| s.name == "pickle.dumps").unwrap();
        assert_eq!(leaf.parent, Some(spans.iter().find(|s| s.name == "outer").unwrap().id));
    }

    /// The bounded-memory guarantee: millions of spans, bounded memory,
    /// truthful drop accounting. The ring's byte charge stays at or
    /// under the configured budget no matter how many spans flow
    /// through, and `recorded == retained + dropped` exactly.
    #[test]
    fn soak_millions_of_spans_stay_bounded_with_truthful_drops() {
        let t = Trace::with_ring_bytes(256 << 10); // 256 KiB: force heavy eviction
        const N: u64 = 2_000_000;
        for i in 0..N {
            let mut sp = t.span("store.put");
            if i % 64 == 0 {
                sp.arg("bytes", i);
            }
            sp.end();
        }
        let st = t.ring_stats();
        assert_eq!(st.recorded, N);
        assert_eq!(st.recorded, st.retained + st.dropped, "truthful: {st:?}");
        assert!(st.dropped > 0, "a 256 KiB ring cannot hold 2M spans");
        assert!(st.bytes <= st.cap_bytes, "memory bounded: {st:?}");
        assert_eq!(t.spans().len() as u64, st.retained);
    }

    /// Property test (deterministic xoshiro harness): random span
    /// forests pushed through tiny rings never export a dangling
    /// parent/child link — every surviving span's parent either survives
    /// too or the span was re-rooted. Checked both on the raw snapshot
    /// and through the Chrome exporter.
    #[test]
    fn property_ring_eviction_never_corrupts_parent_links_in_exports() {
        use kishu_testkit::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x0B5_F11E);
        for case in 0..40 {
            let ring_bytes = 256 + (rng.next_u64() % 4096) as usize;
            let mut ring = SpanRing::new(ring_bytes);
            let n = 50 + (rng.next_u64() % 400);
            let mut open: Vec<u64> = Vec::new();
            for id in 1..=n {
                // Random tree shape: sometimes nest, sometimes pop.
                while !open.is_empty() && rng.gen_bool(0.4) {
                    open.pop();
                }
                let parent = open.last().copied();
                if rng.gen_bool(0.6) {
                    open.push(id);
                }
                ring.push(SpanRecord {
                    id,
                    parent,
                    name: if rng.gen_bool(0.5) { "ckpt.seal" } else { "store.put" }.into(),
                    start_ns: id * 100,
                    dur_ns: rng.next_u64() % 1_000_000,
                    tid: (rng.next_u64() % 5) as u32,
                    args: vec![("i".into(), id.to_string())],
                });
            }
            let snap = ring.snapshot();
            let present: std::collections::HashSet<u64> = snap.iter().map(|r| r.id).collect();
            for r in &snap {
                if let Some(p) = r.parent {
                    assert!(
                        present.contains(&p),
                        "case {case}: span {} points at evicted parent {p}",
                        r.id
                    );
                }
            }
            // And the Chrome export carries only resolvable parent ids.
            let doc = chrome::chrome_json(&snap);
            let Some(Json::Array(evs)) = doc.get("traceEvents") else {
                panic!("traceEvents")
            };
            for ev in evs {
                let Some(args) = ev.get("args") else { continue };
                if let Some(p) = args.get("parent").and_then(Json::as_u64) {
                    assert!(present.contains(&p), "case {case}: chrome parent {p}");
                }
            }
            let st = ring.stats();
            assert_eq!(st.recorded, st.retained + st.dropped, "case {case}: {st:?}");
        }
    }
}
