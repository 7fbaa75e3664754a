//! Differential suite proving the observability layer is **behavior-free**:
//! running the exact same faulty, time-traveling session with tracing on
//! and off produces identical observations (see `tests/common`): store
//! contents, every non-timing report field (chunk counters included), the
//! namespace after every step, diff reports (including memo hits), search
//! results and the fault ledger — at both the serial-oracle width
//! (1 worker) and 4 workers, covering the checkpoint write pipeline and
//! the checkout read pipeline in one script, and not just with the
//! recorder on, but with it forced into its worst case (a tiny ring under
//! constant eviction). This is the invariant that makes `KISHU_TRACE=...` safe to
//! flip on against any workload: the trace observes the run, it never
//! participates in it.

mod common;

use common::{assert_twins, observe, Faults, Point, Recorder, Script, ORACLE};

/// The faulty point at `workers` with `recorder`.
fn point(workers: usize, recorder: Recorder) -> Point {
    Point { workers, recorder, faults: Faults::Seeded(0x7ACE_D1FF), ..ORACLE }
}

#[test]
fn tracing_is_behavior_free_for_both_pipelines_at_1_and_4_workers() {
    let script = Script::matrix();
    for workers in [1usize, 4] {
        let off = observe(&point(workers, Recorder::Off), &script);
        let on = observe(&point(workers, Recorder::On), &script);
        assert_twins(&off, &on);
        // And the trace actually observed the run it did not perturb.
        assert_eq!(off.recorder.spans_recorded, 0, "disabled trace must record nothing");
        assert!(on.recorder.spans_recorded > 0, "no spans recorded at workers={workers}");
    }
}

/// The flight recorder's worst case is behavior-free too: a ring small
/// enough that eviction runs constantly.
#[test]
fn recorder_under_memory_pressure_is_behavior_free_at_1_and_4_workers() {
    let script = Script::matrix();
    for workers in [1usize, 4] {
        let off = observe(&point(workers, Recorder::Off), &script);
        let on = observe(&point(workers, Recorder::Pressure), &script);
        assert_twins(&off, &on);
        // The pressure must have been real: the tiny ring overflowed.
        assert!(on.recorder.spans_dropped > 0, "the 8 KiB ring never overflowed at {workers}");
    }
}

/// The traced and untraced runs agree *with each other across widths* too:
/// serial+untraced vs parallel+traced-under-pressure — the strongest
/// composition of the two invariants.
#[test]
fn traced_parallel_run_matches_the_untraced_serial_oracle() {
    let script = Script::matrix();
    let oracle = observe(&point(1, Recorder::Off), &script);
    assert_twins(&oracle, &observe(&point(4, Recorder::Pressure), &script));
}
