//! Property-based test of the core guarantee: **checkout restores exactly
//! the state that existed at the checkpoint**, for arbitrary (deterministic)
//! cell sequences — creations, in-place mutations, rebinds, aliases, merges,
//! and deletions over a small variable pool.

mod common;

use std::collections::BTreeMap;

use common::snapshot;
use kishu::session::{KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_testkit::prelude::*;

const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

/// One generated notebook operation.
#[derive(Debug, Clone)]
enum Op {
    /// `name = [k, k+1, ...]`
    CreateList(usize, u8),
    /// `name = arange(n)`
    CreateArray(usize, u8),
    /// `name = {'k': v}`
    CreateDict(usize, u8),
    /// `name.append(v)` (only valid on lists; generated code guards).
    Mutate(usize, u8),
    /// `name[i] = v` on arrays (guarded).
    Poke(usize, u8),
    /// `dst = src` — aliasing merges co-variables.
    Alias(usize, usize),
    /// `del name` (guarded).
    Delete(usize),
    /// read-only: `tmp_len = ...` touching a variable.
    Inspect(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let idx = 0..NAMES.len();
    prop_oneof![
        (idx.clone(), any::<u8>()).prop_map(|(i, v)| Op::CreateList(i, v)),
        (idx.clone(), any::<u8>()).prop_map(|(i, v)| Op::CreateArray(i, v)),
        (idx.clone(), any::<u8>()).prop_map(|(i, v)| Op::CreateDict(i, v)),
        (idx.clone(), any::<u8>()).prop_map(|(i, v)| Op::Mutate(i, v)),
        (idx.clone(), any::<u8>()).prop_map(|(i, v)| Op::Poke(i, v)),
        (idx.clone(), 0..NAMES.len()).prop_map(|(a, b)| Op::Alias(a, b)),
        idx.clone().prop_map(Op::Delete),
        idx.prop_map(Op::Inspect),
    ]
}

impl Op {
    /// Emit guarded minipy for the op (no-ops when preconditions fail, so
    /// every generated cell runs cleanly).
    fn to_source(&self) -> String {
        match self {
            Op::CreateList(i, v) => {
                format!("{} = [{v}, {}, {}]\n", NAMES[*i], *v as u16 + 1, *v as u16 + 2)
            }
            Op::CreateArray(i, v) => format!("{} = arange({})\n", NAMES[*i], (*v as usize % 64) + 4),
            Op::CreateDict(i, v) => format!("{} = {{'k': {v}, 'j': [{v}]}}\n", NAMES[*i]),
            Op::Mutate(i, v) => format!(
                "if type({n}) == 'list':\n    {n}.append({v})\n",
                n = NAMES[*i]
            ),
            Op::Poke(i, v) => format!(
                "if type({n}) == 'ndarray':\n    {n}[0] = {v}.0\n",
                n = NAMES[*i]
            ),
            Op::Alias(a, b) => format!("{} = {}\n", NAMES[*a], NAMES[*b]),
            Op::Delete(i) => format!("del {}\n", NAMES[*i]),
            Op::Inspect(i) => format!("tmp_len = len(str({}))\n", NAMES[*i]),
        }
    }

    /// Whether the op's preconditions hold given the currently-bound names
    /// (ops with unbound operands are skipped by the generator harness).
    fn ready(&self, bound: &[bool]) -> bool {
        match self {
            Op::CreateList(..) | Op::CreateArray(..) | Op::CreateDict(..) => true,
            Op::Mutate(i, _) | Op::Poke(i, _) | Op::Delete(i) | Op::Inspect(i) => bound[*i],
            Op::Alias(_, b) => bound[*b],
        }
    }

    fn apply_binding(&self, bound: &mut [bool]) {
        match self {
            Op::CreateList(i, _) | Op::CreateArray(i, _) | Op::CreateDict(i, _) => bound[*i] = true,
            Op::Alias(a, _) => bound[*a] = true,
            Op::Delete(i) => bound[*i] = false,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkout_restores_any_past_state(ops in prop::collection::vec(op_strategy(), 1..25)) {
        let mut s = KishuSession::in_memory(KishuConfig::default());
        let mut bound = [false; NAMES.len()];
        let mut checkpoints: Vec<(NodeId, BTreeMap<String, String>)> = Vec::new();

        for op in &ops {
            if !op.ready(&bound) {
                continue;
            }
            op.apply_binding(&mut bound);
            let report = s.run_cell(&op.to_source()).expect("generated cell parses");
            prop_assert!(
                report.outcome.error.is_none(),
                "generated cell raised: {:?} for {:?}",
                report.outcome.error,
                op
            );
            checkpoints.push((report.node.expect("auto-checkpoint committed"), snapshot(&s)));
        }

        // Visit the recorded states in a scrambled order and verify each
        // restores exactly.
        let mut order: Vec<usize> = (0..checkpoints.len()).collect();
        order.reverse();
        if order.len() > 2 {
            let mid = order.len() / 2;
            order.swap(0, mid);
        }
        for idx in order {
            let (node, expected) = &checkpoints[idx];
            s.checkout(*node).expect("checkout succeeds");
            let now = snapshot(&s);
            prop_assert_eq!(&now, expected, "state {} not restored exactly", idx);
        }
    }

    #[test]
    fn checkpoint_sizes_are_bounded_by_state_size(ops in prop::collection::vec(op_strategy(), 1..15)) {
        // An incremental checkpoint never stores more than the (deep) size
        // of the whole state it belongs to, plus small framing.
        let mut s = KishuSession::in_memory(KishuConfig::default());
        let mut bound = [false; NAMES.len()];
        for op in &ops {
            if !op.ready(&bound) {
                continue;
            }
            op.apply_binding(&mut bound);
            let report = s.run_cell(&op.to_source()).expect("parses");
            prop_assert!(report.outcome.error.is_none());
            let roots = s.interp.globals.roots();
            let state = s.interp.heap.deep_size(roots);
            prop_assert!(
                report.checkpoint_bytes <= 3 * state + 4096,
                "checkpoint {} vs state {}",
                report.checkpoint_bytes,
                state
            );
        }
    }
}

/// Branching fuzz: interleave cell executions with random checkouts (which
/// fork new branches), recording a full namespace snapshot at every
/// checkpoint — then verify every recorded state, across all branches,
/// restores exactly.
#[derive(Debug, Clone)]
enum SessionOp {
    Cell(Op),
    Checkout(u8),
}

fn session_op_strategy() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        4 => op_strategy().prop_map(SessionOp::Cell),
        1 => any::<u8>().prop_map(SessionOp::Checkout),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn branching_sessions_restore_every_state(
        ops in prop::collection::vec(session_op_strategy(), 2..30)
    ) {
        let mut s = KishuSession::in_memory(KishuConfig::default());
        let mut bound = [false; NAMES.len()];
        let mut checkpoints: Vec<(NodeId, BTreeMap<String, String>)> = Vec::new();

        for op in &ops {
            match op {
                SessionOp::Cell(op) => {
                    if !op.ready(&bound) {
                        continue;
                    }
                    op.apply_binding(&mut bound);
                    let report = s.run_cell(&op.to_source()).expect("parses");
                    prop_assert!(report.outcome.error.is_none(), "{:?}", op);
                    checkpoints.push((report.node.expect("auto-checkpoint committed"), snapshot(&s)));
                }
                SessionOp::Checkout(pick) => {
                    if checkpoints.is_empty() {
                        continue;
                    }
                    let (node, expected) = &checkpoints[*pick as usize % checkpoints.len()];
                    s.checkout(*node).expect("checkout succeeds");
                    prop_assert_eq!(&snapshot(&s), expected, "mid-session restore of {:?}", node);
                    // Re-derive the binding table for the restored state so
                    // subsequent generated cells stay well-formed.
                    for (i, name) in NAMES.iter().enumerate() {
                        bound[i] = s.interp.globals.contains(name);
                    }
                }
            }
        }

        // Every state across every branch restores exactly.
        for (node, expected) in checkpoints.iter().rev() {
            s.checkout(*node).expect("final sweep checkout");
            prop_assert_eq!(&snapshot(&s), expected, "final sweep restore of {:?}", node);
        }
    }
}
