//! Heap collection: checkouts reclaim the objects they replace, and when a
//! sweep runs is unobservable.
//!
//! The session checks one collection rule after every cell and at the end
//! of every checkout (`KishuConfig::gc_after_cell`): sweep once more than
//! 4,096 objects, or more shallow bytes than `max(live bytes after the last
//! sweep, 4 MiB)`, were allocated since the last sweep. Slot ids and
//! simulated addresses are never reused, so a sweep's timing may change
//! memory use and nothing else:
//!
//! * checking out two branches of >1 MiB arrays back and forth, with no
//!   cell in between, keeps the resident heap within twice what the
//!   globals reach plus 4 MiB;
//! * the same script with sweeps off observes exactly what it observes
//!   with them on — namespaces with object ids, reports, store bytes and
//!   fault ledgers — with faults off and seeded, and the read cache on
//!   and off. Set `KISHU_TESTKIT_SEED` to replay another fault seed.

mod common;

use common::{assert_twins, observe_with, Backend, Faults, Point, Recorder, Run, Script, Step};
use common::ORACLE;
use kishu::session::{KishuConfig, KishuSession};
use kishu_minipy::Engine;
use kishu_testkit::rng::{env_seed, seed_override};

/// Checkouts alternating between the two branch tips.
const SWITCHES: usize = 40;

/// Two branches off a small base, each binding an array of more than
/// 1 MiB, then [`SWITCHES`] checkouts alternating between their tips (every
/// one loads one array and drops the other). Then a cell allocating more
/// than 4,096 objects, so the cell path sweeps too, and a checkout back to
/// the base.
fn two_branches() -> Script {
    let cell = |src: &str| Step::Cell { src: src.to_string(), store: true };
    let mut steps = vec![
        cell("base = list(range(10))\n"),
        cell("a = arange(140000)\n"),
        Step::Checkout(0),
        cell("b = arange(150000)\nb[0] = 0.5\n"),
    ];
    steps.extend((0..SWITCHES).map(|i| Step::Checkout(1 + i % 2)));
    steps.extend([cell("c = list(range(5000))\n"), Step::Checkout(0)]);
    Script { steps }
}

#[test]
fn checkouts_without_cells_keep_the_heap_bounded() {
    let mut run = Run::new(KishuSession::in_memory(KishuConfig::default()));
    let mut checkouts = 0;
    for step in &two_branches().steps {
        run.step(step);
        if !matches!(step, Step::Checkout(_)) {
            continue;
        }
        checkouts += 1;
        let interp = &run.session.interp;
        let reachable = interp.heap.deep_size(interp.globals.roots());
        let live = interp.heap.stats().live_bytes;
        assert!(
            live <= 2 * reachable + (4 << 20),
            "after checkout {checkouts}: {live} live bytes, {reachable} reachable from the globals"
        );
    }
    assert!(checkouts > SWITCHES);
}

#[test]
fn when_a_sweep_runs_is_unobservable() {
    let script = two_branches();
    let seed = env_seed(0x6C_5EED);
    for faults in [Faults::None, Faults::Seeded(seed)] {
        let point = Point {
            workers: 4,
            engine: Engine::Vm,
            recorder: Recorder::On,
            store: Backend::File,
            faults,
            ..ORACLE
        };
        // With the read cache, every switch after the first two decodes a
        // cached payload; without it, every switch reads, verifies and
        // decodes from the store, where the seeded faults land.
        for cache in [point.config().checkout_cache_bytes, 0] {
            let config = KishuConfig { checkout_cache_bytes: cache, ..point.config() };
            let swept = observe_with(&point, config.clone(), &script);
            let never = KishuConfig { gc_after_cell: false, ..config };
            let unswept = observe_with(&point, never, &script);
            let at = format!("{point:?}, cache {cache}");
            assert!(swept.recorder.sweeps_in_checkouts > 0, "no checkout swept at {at}");
            assert_eq!(unswept.recorder.sweeps_in_checkouts, 0, "swept with sweeps off at {at}");
            assert_twins(&swept, &unswept);
            if faults != Faults::None && cache == 0 {
                let fired = seed_override().is_some() || swept.logical.ledger.total() > 0;
                assert!(fired, "no faults fired with the built-in seed {seed}");
            }
        }
    }
}
