//! The commit-graph query surface, proven end to end:
//!
//! 1. **diff ≡ checkout plan** — the query-level [`kishu::query::DiffReport`]
//!    must partition co-variables exactly as [`CheckpointGraph::diff`]'s
//!    checkout plan does (added/changed = load, removed = remove,
//!    identical = identical), under arbitrary commit/checkout/branch
//!    interleavings.
//! 2. **index ≡ oracle on a live session** — `KishuSession::history`
//!    (backed by the incrementally-maintained modified-in index) must match
//!    the brute-force ancestor-chain scan after real cells, checkouts, and
//!    branch operations — including after a `persist` → `resume` cycle,
//!    which rebuilds the index from the deserialized graph.
//! 3. **refs survive resume** — branches and tags ride in the persisted
//!    graph snapshot, so a resumed session can keep checking out by name.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

mod common;

use std::collections::BTreeSet;

use common::temp_dir;
use kishu::graph::{CheckpointGraph, NodeId, StoredCoVar};
use kishu::query::{diff_report, VarChange};
use kishu::session::{KishuConfig, KishuSession};
use kishu_storage::FileStore;
use kishu_testkit::prelude::*;

// --- 1. diff report ≡ checkout plan --------------------------------------

#[derive(Debug, Clone)]
enum GraphOp {
    Commit(Vec<u8>, Vec<u8>),
    Checkout(u8),
    Branch(u8),
}

fn op_strategy() -> impl Strategy<Value = GraphOp> {
    prop_oneof![
        (
            prop::collection::vec(any::<u8>(), 1..4),
            prop::collection::vec(any::<u8>(), 0..2)
        )
            .prop_map(|(k, d)| GraphOp::Commit(k, d)),
        any::<u8>().prop_map(GraphOp::Checkout),
        any::<u8>().prop_map(GraphOp::Branch),
    ]
}

fn key_of(k: u8) -> kishu::covariable::CoVarKey {
    [format!("v{}", k % 10)].into_iter().collect()
}

fn build(ops: &[GraphOp]) -> CheckpointGraph {
    let mut g = CheckpointGraph::new();
    for op in ops {
        match op {
            GraphOp::Commit(keys, dels) => {
                let delta: Vec<StoredCoVar> = keys
                    .iter()
                    .map(|k| StoredCoVar {
                        names: key_of(*k),
                        blob: None,
                        bytes: 0,
                    })
                    .collect();
                let deleted: Vec<_> = dels
                    .iter()
                    .map(|d| key_of(*d))
                    .filter(|d| !delta.iter().any(|sc| &sc.names == d))
                    .collect();
                g.commit("cell".into(), delta, deleted, vec![]);
            }
            GraphOp::Checkout(n) => {
                let target = NodeId(*n as u32 % g.len() as u32);
                g.set_head(target);
            }
            GraphOp::Branch(n) => {
                g.set_branch(&format!("b{}", n % 4), g.head()).expect("valid");
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The diff report and the checkout plan are two views of one state
    /// difference: added/changed rows are exactly the plan's loads (with
    /// the same target versions), removed rows its removals, identical
    /// rows its untouched set.
    #[test]
    fn diff_report_agrees_with_the_checkout_plan(
        ops in prop::collection::vec(op_strategy(), 1..40),
        a in any::<u8>(),
        b in any::<u8>(),
    ) {
        let g = build(&ops);
        let a = NodeId(a as u32 % g.len() as u32);
        let b = NodeId(b as u32 % g.len() as u32);
        let report = diff_report(&g, a, b);
        let plan = g.diff(a, b);

        let loads: BTreeSet<_> = plan.load.iter().cloned().collect();
        let report_loads: BTreeSet<_> = report
            .entries
            .iter()
            .filter(|e| matches!(e.change, VarChange::Added | VarChange::Changed))
            .map(|e| (e.key.clone(), e.to.expect("added/changed have a target version")))
            .collect();
        prop_assert_eq!(report_loads, loads, "added+changed == plan.load");

        let removes: BTreeSet<_> = plan.remove.iter().cloned().collect();
        let report_removes: BTreeSet<_> = report
            .entries
            .iter()
            .filter(|e| e.change == VarChange::Removed)
            .map(|e| e.key.clone())
            .collect();
        prop_assert_eq!(report_removes, removes, "removed == plan.remove");

        let identical: BTreeSet<_> = plan.identical.iter().cloned().collect();
        let report_identical: BTreeSet<_> = report
            .entries
            .iter()
            .filter(|e| e.change == VarChange::Identical)
            .map(|e| e.key.clone())
            .collect();
        prop_assert_eq!(report_identical, identical, "identical == plan.identical");

        // Every entry's versions are the states' versions.
        let sa = g.state_at(a);
        let sb = g.state_at(b);
        for e in &report.entries {
            prop_assert_eq!(e.from.as_ref(), sa.get(&e.key), "base version");
            prop_assert_eq!(e.to.as_ref(), sb.get(&e.key), "target version");
        }
    }
}

// --- 2. live-session index ≡ brute-force oracle ---------------------------

/// Drive a real session through scripted cells, checkouts, and branch ops,
/// comparing the index-backed history against the brute-force scan at every
/// step; then persist/resume and compare again on the rebuilt index.
#[derive(Debug, Clone)]
enum SessionOp {
    /// Assign `v{n%4} = <int>` (possibly aliasing another variable).
    Assign(u8, u8),
    /// `del v{n%4}` (skipped when absent).
    Delete(u8),
    /// Checkout node `n % len`.
    Checkout(u8),
    /// Branch `b{n%3}` at the head.
    Branch(u8),
}

fn session_op_strategy() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(v, x)| SessionOp::Assign(v, x)),
        any::<u8>().prop_map(SessionOp::Delete),
        any::<u8>().prop_map(SessionOp::Checkout),
        any::<u8>().prop_map(SessionOp::Branch),
    ]
}

const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

fn apply_session_ops(s: &mut KishuSession, ops: &[SessionOp]) -> TestCaseResult {
    for op in ops {
        match op {
            SessionOp::Assign(v, x) => {
                let name = VARS[*v as usize % VARS.len()];
                s.run_cell(&format!("{name} = {}\n", *x as u32))
                    .expect("assign parses");
            }
            SessionOp::Delete(v) => {
                let name = VARS[*v as usize % VARS.len()];
                if s.interp.globals.peek(name).is_some() {
                    s.run_cell(&format!("del {name}\n")).expect("del parses");
                }
            }
            SessionOp::Checkout(n) => {
                let target = NodeId(*n as u32 % s.graph().len() as u32);
                s.checkout(target).map_err(|e| {
                    TestCaseError::fail(format!("checkout failed: {e}"))
                })?;
            }
            SessionOp::Branch(n) => {
                s.set_branch(&format!("b{}", n % 3), None)
                    .map_err(|e| TestCaseError::fail(format!("branch failed: {e}")))?;
            }
        }
    }
    Ok(())
}

fn assert_index_matches_oracle(s: &KishuSession) -> TestCaseResult {
    let g = s.graph();
    for at in 0..g.len() {
        let at = NodeId(at as u32);
        for name in VARS {
            let oracle = g.history_bruteforce(name, at);
            prop_assert_eq!(
                g.history(name, at),
                oracle.clone(),
                "index vs oracle for {} at {:?}",
                name,
                at
            );
            // The session surface reports the same commits, in order, with
            // per-entry context drawn from those same nodes.
            let entries = s.history_at(name, at).expect("node exists");
            prop_assert_eq!(
                entries.iter().map(|e| e.node).collect::<Vec<_>>(),
                oracle,
                "session history for {} at {:?}",
                name,
                at
            );
            for e in &entries {
                prop_assert!(e.modified || e.deleted, "entry names a touching commit");
                prop_assert_eq!(e.timestamp, g.node(e.node).timestamp);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn live_session_history_matches_oracle_and_survives_resume(
        ops in prop::collection::vec(session_op_strategy(), 1..14),
        case in 0u32..1_000_000,
    ) {
        let dir = temp_dir(&format!("prop-{case}"));
        let store = Box::new(FileStore::create(dir.join("store.log")).expect("create store"));
        let mut s = KishuSession::new(store, KishuConfig::default());
        apply_session_ops(&mut s, &ops)?;
        assert_index_matches_oracle(&s)?;
        let branches_before = s.graph().branches().clone();
        let head_before = s.head();
        s.persist().expect("persist");
        drop(s);

        let store = Box::new(FileStore::open(dir.join("store.log")).expect("reopen store"));
        let resumed = KishuSession::resume(store, KishuConfig::default()).expect("resume");
        prop_assert_eq!(resumed.head(), head_before, "resume restores the head");
        prop_assert_eq!(
            resumed.graph().branches(),
            &branches_before,
            "branches survive resume"
        );
        // The modified-in index was rebuilt from the snapshot: same answers.
        assert_index_matches_oracle(&resumed)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// --- 3. refs survive resume (directed end-to-end scenario) ----------------

#[test]
fn branches_tags_and_queries_survive_resume() {
    let dir = temp_dir("refs-resume");
    let store = Box::new(FileStore::create(dir.join("store.log")).expect("create store"));
    let mut s = KishuSession::new(store, KishuConfig::default());
    s.run_cell("x = [1, 2]\n").expect("cell");
    let loaded = s.head();
    s.run_cell("x.append(3)\n").expect("cell");
    let grown = s.head();
    s.checkout(loaded).expect("checkout");
    s.run_cell("y = 10\n").expect("cell");
    let side = s.head();

    s.set_branch("grow", Some(grown)).expect("branch");
    s.set_branch("side", Some(side)).expect("branch");
    s.set_tag("base", Some(loaded)).expect("tag");
    s.persist().expect("persist");
    drop(s);

    let store = Box::new(FileStore::open(dir.join("store.log")).expect("reopen"));
    let mut r = KishuSession::resume(store, KishuConfig::default()).expect("resume");
    assert_eq!(r.resolve("grow"), Some(grown));
    assert_eq!(r.resolve("side"), Some(side));
    assert_eq!(r.resolve("base"), Some(loaded));

    // Queries work on the resumed graph: history from the rebuilt index...
    let h = r.history("x");
    assert_eq!(
        h.iter().map(|e| e.node).collect::<Vec<_>>(),
        vec![loaded],
        "only the initial assignment is on side's chain"
    );
    let h = r.history_at("x", grown).expect("node exists");
    assert_eq!(h.iter().map(|e| e.node).collect::<Vec<_>>(), vec![loaded, grown]);

    // ...diff between the two branches...
    let report = r.diff(grown, side).expect("diff");
    assert_eq!(report.count(VarChange::Added), 1, "y only on side");
    assert_eq!(report.count(VarChange::Changed), 1, "x diverged");
    let deep = r.diff_deep(grown, side).expect("deep diff");
    let x = deep
        .entries
        .iter()
        .find(|e| e.change == VarChange::Changed)
        .expect("x entry");
    assert_eq!(x.same_bytes, Some(false), "deep diff reads the blobs");

    // ...and checkout by ref restores the right values.
    r.checkout_ref("grow").expect("checkout by branch");
    assert_eq!(
        r.run_cell("len(x)\n").expect("probe").outcome.value_repr.as_deref(),
        Some("3")
    );
    r.checkout_ref("base").expect("checkout by tag");
    assert_eq!(
        r.run_cell("len(x)\n").expect("probe").outcome.value_repr.as_deref(),
        Some("2")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tag immutability and rename/delete semantics hold at the session layer
/// and persist across resume.
#[test]
fn ref_mutations_persist() {
    let dir = temp_dir("refs-mutate");
    let store = Box::new(FileStore::create(dir.join("store.log")).expect("create store"));
    let mut s = KishuSession::new(store, KishuConfig::default());
    s.run_cell("a = 1\n").expect("cell");
    s.set_branch("work", None).expect("branch at head");
    s.set_tag("v1", None).expect("tag at head");
    assert!(s.set_tag("v1", None).is_err(), "tags never move");
    s.rename_branch("work", "main").expect("rename");
    assert!(s.delete_branch("work").is_err(), "old name is gone");
    s.run_cell("a = 2\n").expect("cell");
    s.set_branch("main", None).expect("branches move");
    s.persist().expect("persist");
    let head = s.head();
    drop(s);

    let store = Box::new(FileStore::open(dir.join("store.log")).expect("reopen"));
    let r = KishuSession::resume(store, KishuConfig::default()).expect("resume");
    assert_eq!(r.resolve("main"), Some(head), "moved branch persisted");
    assert_eq!(r.resolve("work"), None, "rename persisted");
    assert_eq!(r.resolve("v1"), Some(NodeId(1)), "tag persisted");
    let _ = std::fs::remove_dir_all(&dir);
}
