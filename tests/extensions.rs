//! Integration tests for the extension features the paper sketches in §6.2
//! and §7.6 (rule-based read-only cells, primitive-list hashing) and for
//! session persistence/resume.

use std::sync::Arc;

mod common;

use common::probe;
use kishu::session::{KishuConfig, KishuSession};
use kishu::vargraph::{VarGraph, VarGraphConfig};
use kishu_libsim::Registry;
use kishu_storage::FileStore;

// ----------------------------------------------------------------------
// rule-based read-only cells (§6.2 extension)

#[test]
fn rule_based_cells_skip_detection_on_print_cells() {
    let config = KishuConfig {
        rule_based_cells: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    s.run_cell("y_train = arange(5000)\n").expect("runs");
    // The §7.6 printing cell: with the rule engine on, zero co-variables
    // are verified and nothing is stored.
    let report = s.run_cell("y_train[:10]\n").expect("runs");
    assert!(report.updated.is_empty());
    assert_eq!(report.checkpoint_bytes, 0);
    let cell_metrics = s.metrics().cells.last().expect("recorded").clone();
    assert_eq!(cell_metrics.candidates_checked, 0, "no VarGraph verification ran");
}

#[test]
fn rule_based_cells_never_misclassify_mutations() {
    // Safety: with the rules on, every actually-mutating construct must
    // still go through full detection and be undoable.
    let config = KishuConfig {
        rule_based_cells: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    s.run_cell("ls = [1, 2, 3]\nm = lib_obj('sk.KMeans', 256, 1)\n").expect("runs");
    let before = s.head();
    for mutating in [
        "ls.append(4)\n",
        "ls[0] = 9\n",
        "m.fit(2)\n",
        "x = len(ls)\n",
    ] {
        let report = s.run_cell(mutating).expect("runs");
        assert!(
            !report.updated.is_empty(),
            "rules wrongly skipped a mutating cell: {mutating:?}"
        );
    }
    s.checkout(before).expect("undo everything");
    assert_eq!(probe(&mut s, "len(ls)").as_deref(), Some("3"));
    assert_eq!(probe(&mut s, "ls[0]").as_deref(), Some("1"));
}

#[test]
fn rule_based_cells_reduce_tracking_on_inspection_heavy_notebooks() {
    let run = |rules: bool| -> std::time::Duration {
        let config = KishuConfig {
            rule_based_cells: rules,
            auto_checkpoint: false,
            ..KishuConfig::default()
        };
        let mut s = KishuSession::in_memory(config);
        s.run_cell("big = []\nfor k in range(4000):\n    big.append('item ' + str(k))\n")
            .expect("runs");
        let mut total = std::time::Duration::ZERO;
        for _ in 0..20 {
            let r = s.run_cell("big[:10]\n").expect("runs");
            total += r.tracking_time;
        }
        total
    };
    let with_rules = run(true);
    let without = run(false);
    assert!(
        with_rules < without,
        "rules should cut inspection-cell tracking: {with_rules:?} vs {without:?}"
    );
}

// ----------------------------------------------------------------------
// primitive-list hashing (§7.6 extension)

#[test]
fn list_hashing_collapses_nodes_but_keeps_detection() {
    let registry = Arc::new(Registry::standard());
    let mut i = kishu_minipy::Interp::new();
    kishu_libsim::install(&mut i, registry.clone());
    let out = i
        .run_cell("ls = []\nfor k in range(500):\n    ls.append('txt ' + str(k))\n")
        .expect("parses");
    assert!(out.error.is_none());
    let root = i.globals.peek("ls").expect("bound");

    let plain = VarGraphConfig::new(registry.clone());
    let mut hashed = VarGraphConfig::new(registry);
    hashed.hash_primitive_lists = true;

    let mut nonce = 0;
    let g_plain = VarGraph::build(&i.heap, root, &plain, &mut nonce);
    let g_hashed = VarGraph::build(&i.heap, root, &hashed, &mut nonce);
    assert_eq!(g_plain.len(), 501, "one node per element without the extension");
    assert_eq!(g_hashed.len(), 1, "single digest node with it");
    assert_eq!(
        g_plain.reachable, g_hashed.reachable,
        "membership (reachable set) must be identical"
    );

    // Detection still works: element rebind and in-place append both
    // change the digest.
    let snapshot = VarGraph::build(&i.heap, root, &hashed, &mut nonce);
    i.run_cell("ls[250] = 'changed'\n").expect("runs");
    let after_poke = VarGraph::build(&i.heap, root, &hashed, &mut nonce);
    assert!(snapshot.differs_from(&after_poke));
    i.run_cell("ls.append('more')\n").expect("runs");
    let after_append = VarGraph::build(&i.heap, root, &hashed, &mut nonce);
    assert!(after_poke.differs_from(&after_append));
}

#[test]
fn list_hashing_preserves_covariable_merges() {
    // The digest path must not hide sharing: aliasing an element still
    // merges co-variables.
    let config = KishuConfig {
        hash_primitive_lists: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    s.run_cell("ls = ['a', 'b', 'c']\nobj = Object()\n").expect("runs");
    let report = s.run_cell("obj.foo = ls[1]\n").expect("runs");
    let merged: std::collections::BTreeSet<String> =
        ["ls".to_string(), "obj".to_string()].into();
    assert!(
        report.updated.contains(&merged),
        "sharing through a hashed list element must still merge: {:?}",
        report.updated
    );
}

#[test]
fn list_hashing_round_trips_through_checkout() {
    let config = KishuConfig {
        hash_primitive_lists: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    s.run_cell("words = ['alpha', 'beta']\n").expect("runs");
    let before = s.head();
    s.run_cell("words[0] = 'gamma'\n").expect("runs");
    s.checkout(before).expect("undo");
    assert_eq!(probe(&mut s, "words[0]").as_deref(), Some("'alpha'"));
}

// ----------------------------------------------------------------------
// persistence / resume

#[test]
fn session_resumes_from_a_durable_store_in_a_fresh_kernel() {
    let dir = std::env::temp_dir().join(format!("kishu-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("resume.log");
    let _ = std::fs::remove_file(&path);

    let head;
    {
        let store = FileStore::create(&path).expect("create");
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        s.run_cell("df = read_csv('d', 200, 3, 9)\n").expect("runs");
        s.run_cell("total = df['c0'].sum()\n").expect("runs");
        s.run_cell("tags = ['x', 'y']\n").expect("runs");
        head = s.head();
        s.persist().expect("persist graph");
        // The kernel process "dies" here (session dropped).
    }

    let store = FileStore::open(&path).expect("reopen");
    let mut resumed =
        KishuSession::resume(Box::new(store), KishuConfig::default()).expect("resume");
    assert_eq!(resumed.head(), head);
    assert_eq!(probe(&mut resumed, "len(tags)").as_deref(), Some("2"));
    assert_eq!(probe(&mut resumed, "len(df.columns)").as_deref(), Some("3"));
    // Time-traveling still works in the resumed session.
    let g = resumed.graph().clone();
    let first = g.children(g.root())[0];
    resumed.checkout(first).expect("checkout in resumed session");
    assert!(!resumed.interp.globals.contains("tags"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_without_a_persisted_graph_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("kishu-resume2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("no-graph.log");
    let _ = std::fs::remove_file(&path);
    {
        let store = FileStore::create(&path).expect("create");
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        s.run_cell("x = 1\n").expect("runs");
        // No persist() call.
    }
    let store = FileStore::open(&path).expect("reopen");
    assert!(KishuSession::resume(Box::new(store), KishuConfig::default()).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn persist_is_incremental_and_latest_wins() {
    let dir = std::env::temp_dir().join(format!("kishu-resume3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("multi.log");
    let _ = std::fs::remove_file(&path);
    {
        let store = FileStore::create(&path).expect("create");
        let mut s = KishuSession::new(Box::new(store), KishuConfig::default());
        s.run_cell("v = 1\n").expect("runs");
        s.persist().expect("persist #1");
        s.run_cell("v = 2\n").expect("runs");
        s.persist().expect("persist #2");
    }
    let store = FileStore::open(&path).expect("reopen");
    let mut resumed =
        KishuSession::resume(Box::new(store), KishuConfig::default()).expect("resume");
    assert_eq!(probe(&mut resumed, "v").as_deref(), Some("2"), "latest snapshot wins");
    std::fs::remove_file(&path).ok();
}

// ----------------------------------------------------------------------
// think-time deferred checkpointing (§2.2 / §8.1 future work)

#[test]
fn deferred_serialization_moves_bytes_into_think_time() {
    let config = KishuConfig {
        defer_serialization: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    let report = s.run_cell("big = arange(100000)\n").expect("runs");
    // The user-visible checkpoint wrote nothing yet.
    assert_eq!(report.checkpoint_bytes, 0);
    assert_eq!(s.pending_count(), 1);
    assert_eq!(s.store_stats().payload_bytes, 0);
    // Think time passes...
    let flushed = s.flush_pending();
    assert_eq!(flushed, 1);
    assert!(s.store_stats().payload_bytes > 800_000, "the array hit storage");
    assert_eq!(s.pending_count(), 0);
}

#[test]
fn deferred_bytes_flush_before_the_next_cell() {
    let config = KishuConfig {
        defer_serialization: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    s.run_cell("ls = [1, 2]\n").expect("runs");
    let before = s.head();
    assert_eq!(s.pending_count(), 1);
    // The next cell mutates ls — the pending snapshot must have been
    // written first, or the undo below would restore the wrong value.
    s.run_cell("ls.append(3)\n").expect("runs");
    s.checkout(before).expect("undo");
    assert_eq!(probe(&mut s, "len(ls)").as_deref(), Some("2"));
}

#[test]
fn checkout_flushes_pending_first() {
    let config = KishuConfig {
        defer_serialization: true,
        ..KishuConfig::default()
    };
    let mut s = KishuSession::in_memory(config);
    s.run_cell("a = [1]\n").expect("runs");
    let t1 = s.head();
    s.run_cell("a = [1, 2, 3]\n").expect("runs");
    let t2 = s.head();
    // t2's delta is still pending; checking out t1 must not lose it.
    s.checkout(t1).expect("back");
    assert_eq!(probe(&mut s, "len(a)").as_deref(), Some("1"));
    s.checkout(t2).expect("forward again");
    assert_eq!(probe(&mut s, "len(a)").as_deref(), Some("3"));
}


// ----------------------------------------------------------------------
// serializer chaining (§6.1: CloudPickle first, Dill as fallback)

#[test]
fn chained_reducers_over_the_full_registry() {
    use kishu_kernel::{External, Heap};
    use kishu_libsim::LibReducer;
    use kishu_pickle::{dumps, ChainReducer};
    // Chaining the registry reducer with itself changes nothing: the same
    // 5 classes stay unserializable (they model objects NO pickle library
    // handles, like live generators) — per-co-variable storage is what
    // makes the chain composable at all.
    let registry = Arc::new(Registry::standard());
    let chain = ChainReducer::new(
        LibReducer::new(registry.clone()),
        LibReducer::new(registry.clone()),
    );
    let mut heap = Heap::new();
    let mut failures = 0;
    for spec in registry.classes() {
        let obj = heap.alloc(
            External {
                class: spec.id,
                attrs: Vec::new(),
                payload: vec![7; 16],
                epoch: 0,
            }
            .into(),
        );
        if dumps(&heap, &[obj], &chain).is_err() {
            failures += 1;
        }
    }
    assert_eq!(failures, 5);
    assert_eq!(chain.fallback_hits(), 5, "the fallback was consulted each time");
}

#[test]
fn persist_flushes_pending_think_time_writes() {
    let dir = std::env::temp_dir().join(format!("kishu-persistflush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("flush.log");
    let _ = std::fs::remove_file(&path);
    {
        let store = FileStore::create(&path).expect("create");
        let config = KishuConfig {
            defer_serialization: true,
            ..KishuConfig::default()
        };
        let mut s = KishuSession::new(Box::new(store), config);
        s.run_cell("payload = arange(5000)\n").expect("runs");
        assert_eq!(s.pending_count(), 1);
        s.persist().expect("persist");
        assert_eq!(s.pending_count(), 0, "persist must flush first");
    }
    let store = FileStore::open(&path).expect("reopen");
    let mut resumed =
        KishuSession::resume(Box::new(store), KishuConfig::default()).expect("resume");
    let out = resumed.run_cell("payload.sum()\n").expect("runs");
    assert!(out.outcome.error.is_none());
    assert!(out.outcome.value_repr.is_some(), "deferred data survived the restart");
    std::fs::remove_file(&path).ok();
}
