//! Flight-recorder overhead benchmark: proof that turning the recorder on
//! is (nearly) free.
//!
//! The recorder is off unless `KISHU_TRACE` or a caller's `Trace` turns
//! it on, and its claim is behavioral *and* economic: the bounded span
//! ring may not change what the session does (the trace differential
//! suite proves that), and it may not meaningfully change how fast it
//! does it (this experiment proves that). A representative notebook
//! workload — cells with real co-variable churn, undo/redo checkouts, and
//! dashboard diff polling — runs twice per repetition: once with the
//! recorder fully off ([`kishu_trace::Trace::disabled`]) and once with it
//! forced on under a deliberately small ring (so eviction, the recorder's
//! worst case, is exercised rather than dodged). The two arms advance in
//! lockstep, *cell by cell* (order alternating per cell), so scheduler
//! noise on a shared host hits both arms almost identically instead of
//! whichever full pass happened to collide with a noisy neighbor; per-arm
//! wall time is the sum of its per-step times, and the gated number is
//! the median of the per-rep ratios:
//!
//! ```text
//! overhead = median over reps of (sum on step ns / sum off step ns) - 1.0
//! ```
//!
//! `repro obs` writes the result to `target/OBS.json` and exits 1 when
//! `overhead` exceeds [`MAX_OVERHEAD`] (the recorder must cost less than
//! 5%). The run also re-asserts the ring's truthful-accounting invariant
//! (`recorded == retained + dropped`) on the real workload's spans, not
//! just the unit tests' synthetic ones.

use std::time::Instant;

use kishu::session::{KishuConfig, KishuSession};
use kishu_testkit::json::Json;
use kishu_trace::Trace;

use crate::report::{floor_verdict, fmt_duration, Table};

/// The ceiling on [`ObsRun::overhead`]. Overhead may legitimately read
/// slightly negative (noise); only exceeding the ceiling fails.
pub const MAX_OVERHEAD: f64 = 0.05;

/// One full run of the overhead experiment.
#[derive(Debug, Clone)]
pub struct ObsRun {
    /// Cells per workload pass.
    pub cells: usize,
    /// Checkouts per workload pass.
    pub checkouts: usize,
    /// Diff queries per workload pass.
    pub diffs: usize,
    /// Timed repetitions per arm (best is reported).
    pub reps: usize,
    /// Best recorder-off wall time, nanoseconds.
    pub off_ns: u64,
    /// Best recorder-on wall time, nanoseconds.
    pub on_ns: u64,
    /// Median over reps of the paired per-rep `on/off` ratio, minus 1.0
    /// (may be slightly negative in noise).
    pub overhead: f64,
    /// Spans the recorder-on arm pushed through the ring (last rep).
    pub spans_recorded: u64,
    /// Spans evicted (last rep).
    pub spans_dropped: u64,
    /// Spans resident at the end (last rep).
    pub spans_retained: u64,
}

/// Timed repetitions per arm. The gate reads the median of the per-rep
/// on/off ratios; the per-arm minima are reported alongside for scale.
const REPS: usize = 9;

/// Ring budget for the recorder-on arm: small enough that even the
/// quick-scale workload overflows it many times over, so the timed path
/// includes eviction — the recorder's most expensive steady state, not
/// its honeymoon.
const RING_BYTES: usize = 32 * 1024;

/// Source of workload cell `i`. Each cell does real interpreter work (the
/// exec-bound idiom from `repro interp`) and then churns one of 8 rotating
/// variables, so the baseline is deterministic CPU time — not
/// simulated-latency sleeps, whose scheduler jitter at this scale is
/// larger than the effect being measured. Cells still finish in around a
/// millisecond, i.e. the span density (~19 spans/cell) stays far above
/// anything a human-paced notebook produces; measuring the recorder
/// against empty cells would overstate its relative cost, against
/// sleep-padded cells it would understate it.
fn cell_src(i: usize) -> String {
    let a = i % 8;
    let b = (i * 5 + 2) % 8;
    format!(
        "acc = 0\nfor k in range(800):\n    acc = acc + k * k + {a}\nv{a} = [acc, {i}]\nv{b} = {}\ntot = v{a}[0] + v{b}\n",
        i * 3,
    )
}

/// One workload step (cell `i` plus its cadenced checkouts/diffs) against
/// one session. Returns the step's wall nanoseconds and a use-the-results
/// checksum so the optimizer cannot discard query work.
fn step(
    s: &mut KishuSession,
    undo_targets: &mut Vec<kishu::graph::NodeId>,
    i: usize,
    src: &str,
) -> (u64, usize) {
    let mut sink = 0usize;
    let t0 = Instant::now();
    let report = s.run_cell(src).expect("workload parses");
    sink += report.updated.len();
    if i % 7 == 3 {
        undo_targets.push(s.head());
    }
    // Periodic time-travel: undo to a recorded point and come back,
    // the read-heavy loop the cache and recorder both see.
    if i % 13 == 9 {
        if let Some(&t) = undo_targets.first() {
            let here = s.head();
            sink += s.checkout(t).expect("undo").loaded.len();
            sink += s.checkout(here).expect("redo").loaded.len();
        }
    }
    // Dashboard polling: shallow diff head against an older node.
    if i % 5 == 4 {
        if let Some(&t) = undo_targets.last() {
            sink += s.diff(t, s.head()).expect("diff").entries.len();
        }
    }
    (t0.elapsed().as_nanos() as u64, sink)
}

/// Count the workload's side operations for reporting (mirrors the loop in
/// [`workload`] without running it).
fn op_counts(cells: usize) -> (usize, usize) {
    let mut checkouts = 0;
    let mut diffs = 0;
    let mut have_target = false;
    for i in 0..cells {
        if i % 7 == 3 {
            have_target = true;
        }
        if i % 13 == 9 && have_target {
            checkouts += 2;
        }
        if i % 5 == 4 && have_target {
            diffs += 1;
        }
    }
    (checkouts, diffs)
}

/// Run the overhead experiment.
pub fn run(scale: f64) -> ObsRun {
    let cells = ((400.0 * scale) as usize).max(40);
    let (checkouts, diffs) = op_counts(cells);

    let mut off_best = u64::MAX;
    let mut on_best = u64::MAX;
    let mut ratios = Vec::with_capacity(REPS);
    let mut last_on: Option<Trace> = None;
    for rep in 0..REPS {
        let on = Trace::with_ring_bytes(RING_BYTES);
        let mut s_off = KishuSession::in_memory(KishuConfig::default());
        s_off.set_trace(&Trace::disabled());
        let mut s_on = KishuSession::in_memory(KishuConfig::default());
        s_on.set_trace(&on);
        let (mut undo_off, mut undo_on) = (Vec::new(), Vec::new());
        let (mut off_ns, mut on_ns) = (0u64, 0u64);
        let (mut sink_off, mut sink_on) = (0usize, 0usize);
        // Lockstep: both arms execute cell i adjacently, order flipping
        // per cell (and per rep), so a noisy neighbor's CPU steal lands
        // on both arms nearly equally instead of on whichever whole pass
        // it happened to overlap.
        for i in 0..cells {
            let src = cell_src(i);
            if (i + rep) % 2 == 0 {
                let (ns, sk) = step(&mut s_off, &mut undo_off, i, &src);
                off_ns += ns;
                sink_off += sk;
                let (ns, sk) = step(&mut s_on, &mut undo_on, i, &src);
                on_ns += ns;
                sink_on += sk;
            } else {
                let (ns, sk) = step(&mut s_on, &mut undo_on, i, &src);
                on_ns += ns;
                sink_on += sk;
                let (ns, sk) = step(&mut s_off, &mut undo_off, i, &src);
                off_ns += ns;
                sink_off += sk;
            }
        }
        assert!(
            sink_off > 0 && sink_off == sink_on,
            "lockstep arms must observe identical results"
        );
        off_best = off_best.min(off_ns);
        on_best = on_best.min(on_ns);
        ratios.push(on_ns as f64 / (off_ns as f64).max(1.0));
        last_on = Some(on);
    }
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[ratios.len() / 2] - 1.0;
    let on = last_on.expect("at least one rep ran");
    let ring = on.ring_stats();
    assert_eq!(
        ring.recorded,
        ring.retained + ring.dropped,
        "truthful accounting must hold on the real workload"
    );
    assert!(
        ring.dropped > 0,
        "the small ring was sized to overflow; a drop-free run measured the honeymoon"
    );
    ObsRun {
        cells,
        checkouts,
        diffs,
        reps: REPS,
        off_ns: off_best,
        on_ns: on_best,
        overhead,
        spans_recorded: ring.recorded,
        spans_dropped: ring.dropped,
        spans_retained: ring.retained,
    }
}

impl ObsRun {
    /// `Ok` with a summary line when [`Self::overhead`] stays under
    /// [`MAX_OVERHEAD`], else `Err` with the excess.
    pub fn check_floor(&self) -> Result<String, String> {
        let line = format!(
            "flight-recorder overhead {:.4} (ceiling {MAX_OVERHEAD})",
            self.overhead
        );
        floor_verdict(self.overhead <= MAX_OVERHEAD, line)
    }
}

/// Human-readable table for `repro obs`, from a completed run.
pub fn table_from(r: &ObsRun) -> Table {
    let ns = |v: u64| fmt_duration(std::time::Duration::from_nanos(v));
    let mut t = Table::new(
        "Obs",
        "flight-recorder overhead: identical workload, recorder off vs on",
        &["Arm", "wall", "spans", "dropped"],
    );
    t.row(vec![
        "recorder off".into(),
        ns(r.off_ns),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "recorder on".into(),
        ns(r.on_ns),
        r.spans_recorded.to_string(),
        r.spans_dropped.to_string(),
    ]);
    t.note(format!(
        "{} cells, {} checkouts, {} diffs, {} paired reps (median ratio \
         gated, per-arm minima shown); overhead {:+.2}% under a {} KiB \
         ring ({} spans retained); the ceiling is {:.0}%",
        r.cells,
        r.checkouts,
        r.diffs,
        r.reps,
        r.overhead * 100.0,
        RING_BYTES / 1024,
        r.spans_retained,
        MAX_OVERHEAD * 100.0,
    ));
    t
}

/// Machine-readable form of a completed run for `repro obs` (default
/// `target/OBS.json`).
pub fn json_from(r: &ObsRun, scale: f64) -> Json {
    Json::obj(vec![
        ("schema", Json::Str("kishu-obs-v1".into())),
        ("scale", Json::Float(scale)),
        ("cells", Json::Int(r.cells as i64)),
        ("checkouts", Json::Int(r.checkouts as i64)),
        ("diffs", Json::Int(r.diffs as i64)),
        ("reps", Json::Int(r.reps as i64)),
        ("off_ns", Json::Int(r.off_ns as i64)),
        ("on_ns", Json::Int(r.on_ns as i64)),
        ("overhead", Json::Float(r.overhead)),
        ("spans_recorded", Json::Int(r.spans_recorded as i64)),
        ("spans_dropped", Json::Int(r.spans_dropped as i64)),
        ("spans_retained", Json::Int(r.spans_retained as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload overflows the small ring, and the drops are
    /// accounted truthfully. The ≤5% overhead number itself is only
    /// meaningful optimized, so debug builds run the machinery without
    /// asserting it; the release number gates via `repro obs`.
    #[test]
    fn recorder_arms_run_and_account_truthfully() {
        let r = run(0.05);
        assert!(r.off_ns > 0 && r.on_ns > 0);
        assert!(r.spans_recorded > 0);
        assert_eq!(r.spans_recorded, r.spans_retained + r.spans_dropped);
        assert!(r.spans_dropped > 0, "ring was sized to overflow");
        assert!(r.overhead > -1.0);
    }

    #[test]
    fn json_reports_the_gated_overhead() {
        let r = run(0.05);
        let j = json_from(&r, 0.05);
        assert_eq!(j.get("schema").and_then(|s| s.as_str()), Some("kishu-obs-v1"));
        assert!(j.get("overhead").and_then(Json::as_f64).is_some());
        for key in ["off_ns", "on_ns", "spans_recorded", "spans_dropped"] {
            assert!(
                matches!(j.get(key).and_then(Json::as_i64), Some(v) if v >= 0),
                "{key} missing from OBS json"
            );
        }
    }
}
