//! Differential oracle: the bytecode VM and the tree-walking interpreter
//! must be observationally identical.
//!
//! The tree-walker is the reference semantics; the VM is the default
//! engine. This suite pins the equivalence at three levels:
//!
//! 1. **Interpreter level, property-based**: random minipy programs from
//!    `kishu_testkit::minipy_gen` run through both engines, comparing the
//!    *entire* observable state — error shape (kind, message, line),
//!    printed output, the trailing-expression repr, statement counts, the
//!    namespace access record, every binding's name **and ObjId** (the VM
//!    must allocate in exactly the tree-walker's order, because ObjIds are
//!    VarGraph identity and GC-trigger input), each binding's repr, and the
//!    heap's `total_allocated`. Failures shrink to a minimal divergent
//!    program via the harness's tape shrinker; replay with
//!    `KISHU_TESTKIT_SEED`.
//! 2. **Session level**: the matrix script of `tests/common` (mutations,
//!    `global`, a mid-cell error, a code-only cell, checkout round-trips)
//!    on both engines at checkpoint/restore worker counts 1 and 4 — every
//!    observation (reports, store bytes, namespaces with object ids) must
//!    match.
//! 3. **Degraded paths**: the same script over a seeded fault store, so
//!    checkouts exercise fallback recomputation under live faults — fault
//!    ledgers and state must be engine-independent. Plus the errored-cell
//!    regression: a cell whose *partial* mutations must be reproduced when
//!    replayed through `run_cell_in_temp_namespace` during checkout.

mod common;

use common::{assert_twins, bindings, observe, Bindings, Faults, Point, Script, Step, ORACLE};
use kishu_kernel::AccessRecord;
use kishu_minipy::{Engine, Interp};
use kishu_testkit::minipy_gen;
use kishu_testkit::prelude::*;
use kishu_testkit::rng::env_seed;

// ---------------------------------------------------------------------------
// Level 1: interpreter differential on random programs
// ---------------------------------------------------------------------------

/// One cell's observables: error-as-string, output lines, Out[n] repr,
/// stmt count, access record.
type CellObserved = (Option<String>, Vec<String>, Option<String>, u64, AccessRecord);

/// Everything one engine lets a caller observe after running some cells.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per cell, in order.
    cells: Vec<CellObserved>,
    /// Final namespace with object ids: ObjId equality is the
    /// allocation-order parity the session layer depends on.
    bindings: Bindings,
    /// Total heap allocations ever — the GC trigger input.
    allocated: u64,
}

fn run_cells(engine: Engine, srcs: &[String]) -> Observed {
    let mut interp = Interp::new();
    interp.set_engine(engine);
    let mut cells = Vec::new();
    for src in srcs {
        match interp.run_cell(src) {
            Ok(o) => cells.push((
                o.error.as_ref().map(|e| format!("{e:?}")),
                o.output.clone(),
                o.value_repr.clone(),
                o.stmts_executed,
                o.access.clone(),
            )),
            Err(e) => cells.push((
                Some(format!("parse: {e:?}")),
                Vec::new(),
                None,
                0,
                AccessRecord::default(),
            )),
        }
    }
    Observed { cells, bindings: bindings(&interp), allocated: interp.heap.stats().total_allocated }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_programs_agree(src in minipy_gen::program()) {
        let srcs = vec![src.clone()];
        let tree = run_cells(Engine::Tree, &srcs);
        let vm = run_cells(Engine::Vm, &srcs);
        prop_assert!(
            tree == vm,
            "engines diverged on program:\n{src}\n-- tree --\n{tree:#?}\n-- vm --\n{vm:#?}"
        );
    }

    #[test]
    fn random_cell_sequences_agree(srcs in prop::collection::vec(minipy_gen::program(), 1..4)) {
        // State carries across cells (and the VM's code caches warm up),
        // so multi-cell sequences exercise paths single cells cannot.
        let tree = run_cells(Engine::Tree, &srcs);
        let vm = run_cells(Engine::Vm, &srcs);
        prop_assert!(
            tree == vm,
            "engines diverged on cell sequence:\n{}\n-- tree --\n{tree:#?}\n-- vm --\n{vm:#?}",
            srcs.join("# --- next cell ---\n")
        );
    }
}

// ---------------------------------------------------------------------------
// Level 2: session differential (reports, checkpoints, checkouts)
// ---------------------------------------------------------------------------

#[test]
fn session_reports_and_checkouts_match_across_engines() {
    let script = Script::matrix();
    for workers in [1usize, 4] {
        let tree = Point { workers, ..ORACLE };
        let vm = Point { engine: Engine::Vm, ..tree };
        assert_twins(&observe(&tree, &script), &observe(&vm, &script));
    }
}

// ---------------------------------------------------------------------------
// Level 3: degraded paths — fault injection and replay-based restore
// ---------------------------------------------------------------------------

#[test]
fn fault_ledgers_and_recovery_match_across_engines() {
    let script = Script::matrix();
    let seed = env_seed(20250807);
    for workers in [1usize, 4] {
        let tree = Point { workers, faults: Faults::Seeded(seed), ..ORACLE };
        let vm = Point { engine: Engine::Vm, ..tree };
        assert_twins(&observe(&tree, &script), &observe(&vm, &script));
    }
}

/// The errored-cell regression, cross-engine: a cell that mutates a list
/// and raises checkpoints its partial effects; restoring that code-only
/// checkpoint replays the cell through `run_cell_in_temp_namespace`, which
/// must reproduce exactly the partial mutations — identically under both
/// engines.
#[test]
fn errored_cell_replay_matches_across_engines() {
    // The errored cell touches exactly one co-variable (`ls`) so the
    // replay runs once and the partially-mutated value is unambiguous.
    let script = Script {
        tenant: "solo".to_string(),
        steps: vec![
            Step::Cell { src: "ls = [1]\nk = 0\n".into(), store: true },
            Step::Cell { src: "ls.append(1)\nboom()\n".into(), store: false },
            Step::Cell { src: "other = 5\n".into(), store: true },
            Step::Checkout(0),
            Step::Checkout(1),
        ],
    };
    let tree = observe(&ORACLE, &script);
    let vm = observe(&Point { engine: Engine::Vm, ..ORACLE }, &script);
    assert_twins(&tree, &vm);
    let l = &vm.logical;
    assert!(l.cells[1].error.is_some(), "cell 1 must raise");
    assert!(l.cells[1].node.is_some(), "errored cell still checkpoints");
    assert!(!l.checkouts[1].recomputed.is_empty(), "a code-only checkpoint must restore by replay");
    // And the replayed state itself is the partially-mutated one.
    let ns = common::values(l.namespaces.last().expect("namespace after the checkout"));
    assert_eq!(ns.get("ls").map(String::as_str), Some("[1, 1]"));
    assert_eq!(ns.get("k").map(String::as_str), Some("0"));
}
