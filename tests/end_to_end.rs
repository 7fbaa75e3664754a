//! Cross-crate integration tests: whole notebooks through the whole stack
//! (kernel → minipy → libsim → kishu → storage), plus cross-method state
//! agreement.

mod common;

use common::probe;
use kishu::session::{KishuConfig, KishuSession};
use kishu_bench::methods::{Driver, MethodKind};
use kishu_storage::FileStore;
use kishu_workloads::{all_notebooks, notebooks};

#[test]
fn every_notebook_runs_under_kishu_with_per_cell_checkpoints() {
    for nb in all_notebooks(0.05) {
        let mut s = KishuSession::in_memory(KishuConfig::default());
        for (i, c) in nb.cells.iter().enumerate() {
            let r = s
                .run_cell(&c.src)
                .unwrap_or_else(|e| panic!("{} cell {i}: {e}", nb.name));
            assert!(
                r.outcome.error.is_none(),
                "{} cell {i} raised: {:?}",
                nb.name,
                r.outcome.error
            );
        }
        // One checkpoint node per cell (plus root).
        assert_eq!(s.graph().len(), nb.cell_count() + 1, "{}", nb.name);
        assert!(s.store_stats().blobs > 0, "{} stored nothing", nb.name);
    }
}

#[test]
fn undo_restores_exact_values_on_every_notebook() {
    // For each notebook: remember a mid-run probe value, keep running,
    // checkout back, and verify the probe.
    for nb in all_notebooks(0.05) {
        let mut s = KishuSession::in_memory(KishuConfig::default());
        let mid = nb.cells.len() / 2;
        let mut mid_node = None;
        let mut mid_vars: Vec<String> = Vec::new();
        for (i, c) in nb.cells.iter().enumerate() {
            let r = s.run_cell(&c.src).expect("parses");
            assert!(r.outcome.error.is_none(), "{}: {:?}", nb.name, r.outcome.error);
            if i == mid {
                mid_node = r.node;
                mid_vars = s.interp.globals.names();
            }
        }
        let mid_node = mid_node.expect("mid cell ran");
        s.checkout(mid_node)
            .unwrap_or_else(|e| panic!("{}: checkout failed: {e}", nb.name));
        let now_vars = s.interp.globals.names();
        assert_eq!(now_vars, mid_vars, "{}: variable set mismatch after undo", nb.name);
    }
}

#[test]
fn kishu_and_dump_session_agree_after_restore() {
    // Two independent mechanisms restoring the same version must agree on
    // every probe-able value.
    let nb = notebooks::hw_lm(0.05);
    let mut kishu = Driver::new(MethodKind::Kishu);
    let mut dump = Driver::new(MethodKind::DumpSession);
    for c in &nb.cells {
        kishu.run_cell(c);
        dump.run_cell(c);
    }
    let target = nb.cells.len() / 2;
    kishu.restore_to(target).expect("kishu restores");
    dump.restore_to(target).expect("dump restores");
    for expr in ["theta_w", "theta_b", "len(losses)", "train_loss", "X_train.size"] {
        assert_eq!(
            kishu.probe(expr),
            dump.probe(expr),
            "mechanisms disagree on `{expr}`"
        );
    }
}

#[test]
fn all_methods_agree_on_a_shared_scenario() {
    let cells = [
        "data = arange(500)\n",
        "stats = {'mean': data.mean(), 'max': data.max()}\n",
        "data[0] = 999.0\n",
        "total = data.sum()\n",
    ];
    let mut answers: Vec<(String, Option<String>)> = Vec::new();
    for kind in MethodKind::ALL {
        let mut d = Driver::new(kind);
        for c in cells {
            d.run_cell(&kishu_workloads::cell(c));
        }
        d.restore_to(1).expect("restore to pre-mutation");
        let probe = d.probe("data[0]");
        answers.push((kind.label().to_string(), probe));
    }
    for (label, probe) in &answers {
        assert_eq!(
            probe.as_deref(),
            Some("0.0"),
            "{label} restored the wrong value"
        );
    }
}

#[test]
fn kishu_checkpoints_survive_a_durable_store() {
    let dir = std::env::temp_dir().join(format!("kishu-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("session.log");
    let _ = std::fs::remove_file(&path);
    {
        let store = FileStore::create(&path).expect("create");
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        s.run_cell("x = arange(1000)\n").expect("runs");
        let t = s.head();
        s.run_cell("x.fill(0.0)\n").expect("runs");
        s.checkout(t).expect("checkout reads from the file store");
        assert_eq!(probe(&mut s, "x.sum()").as_deref(), Some("499500.0"));
    }
    // The log itself is recoverable.
    let store = FileStore::open(&path).expect("reopen");
    assert!(kishu_storage::CheckpointStore::blob_count(&store) > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn det_replay_round_trips_a_fully_deterministic_notebook() {
    let nb = notebooks::hw_lm(0.05);
    assert!(nb.cells.iter().all(|c| c.deterministic));
    let mut d = Driver::new(MethodKind::KishuDetReplay);
    for c in &nb.cells {
        d.run_cell(c);
    }
    let final_theta = d.probe("theta_w").expect("bound");
    let mid = nb.cells.len() / 2;
    d.restore_to(mid).expect("restore via replay");
    d.restore_to(nb.cells.len() - 1).expect("back to the end");
    assert_eq!(d.probe("theta_w").as_deref(), Some(final_theta.as_str()));
}

#[test]
fn repeated_back_and_forth_is_stable() {
    // Hop between two states many times; values must never drift.
    let mut s = KishuSession::in_memory(KishuConfig::default());
    s.run_cell("ls = [1, 2, 3]\n").expect("runs");
    let a = s.head();
    s.run_cell("ls.append(4)\nls.append(5)\n").expect("runs");
    let b = s.head();
    for _ in 0..10 {
        s.checkout(a).expect("to a");
        assert_eq!(probe(&mut s, "len(ls)").as_deref(), Some("3"));
        s.checkout(b).expect("to b");
        assert_eq!(probe(&mut s, "len(ls)").as_deref(), Some("5"));
    }
    // Probing ran cells, which created checkpoints — the graph grew, but
    // the two original states stayed intact throughout.
}

#[test]
fn every_workload_cell_roundtrips_through_the_unparser() {
    // The unparser's round-trip law, checked over the entire language
    // surface the evaluation notebooks actually use.
    use kishu_minipy::{parse_program, unparse::unparse};
    for nb in all_notebooks(0.05) {
        for (i, c) in nb.cells.iter().enumerate() {
            let ast1 = parse_program(&c.src)
                .unwrap_or_else(|e| panic!("{} cell {i}: {e}", nb.name));
            let printed = unparse(&ast1);
            let ast2 = parse_program(&printed).unwrap_or_else(|e| {
                panic!("{} cell {i}: unparse output unparseable: {e}\n{printed}", nb.name)
            });
            // `def` source text is regenerated; none of the workload cells
            // define functions, so direct equality applies.
            assert_eq!(ast1, ast2, "{} cell {i} drifted via\n{printed}", nb.name);
        }
    }
}
