//! Fig 12 (checkpoint/checkout failures over the 146 classes, with the
//! Table 4 breakdown), Table 5 (update-detection outcomes), and the fault-
//! injection sweep (graceful degradation under storage faults).

use std::collections::BTreeMap;
use std::sync::Arc;

use kishu::session::{KishuConfig, KishuSession};
use kishu::vargraph::{VarGraph, VarGraphConfig};
use kishu::NodeId;
use kishu_libsim::Registry;
use kishu_minipy::repr::repr;
use kishu_storage::{FaultPlan, FaultStore, MemoryStore};
use kishu_workloads::cell;

use crate::methods::{Driver, MethodKind};
use crate::report::Table;

/// Fig 12 / Table 4: attempt checkpoint + checkout of a session holding one
/// object of each of the 146 classes, per method; count failures.
pub fn fig12() -> Table {
    let registry = Registry::standard();
    let methods = [
        MethodKind::Kishu,
        MethodKind::ElasticNotebook,
        MethodKind::DumpSession,
        MethodKind::CriuFull,
    ];
    let mut t = Table::new(
        "Fig 12",
        "checkpoint/checkout failures over 146 library classes",
        &["Method", "ckpt failures", "checkout failures", "total failed classes", "example failures"],
    );
    for kind in methods {
        let mut ckpt_fail = 0usize;
        let mut restore_fail = 0usize;
        let mut examples: Vec<&str> = Vec::new();
        for spec in registry.classes() {
            let mut d = Driver::new(kind);
            d.run_cell(&cell(format!("x = lib_obj('{}', 512, 7)\nbase = [1, 2]\n", spec.name)));
            d.run_cell(&cell("marker = 99\n"));
            if d.failed.is_some() {
                ckpt_fail += 1;
                if examples.len() < 3 {
                    examples.push(spec.name);
                }
                continue;
            }
            let restored = d.restore_to(0).is_ok()
                && d.probe("type(x)").as_deref() == Some("'external'")
                && d.probe("marker").is_none();
            if !restored {
                restore_fail += 1;
                if examples.len() < 3 {
                    examples.push(spec.name);
                }
            }
        }
        t.row(vec![
            kind.label().to_string(),
            ckpt_fail.to_string(),
            restore_fail.to_string(),
            (ckpt_fail + restore_fail).to_string(),
            examples.join(", "),
        ]);
    }
    t.note("paper: Kishu 0 failures; CRIU fails 6 (off-process); DumpSession fails 7 (unserializable / won't deserialize)");
    t
}

/// Table 4: the noteworthy classes existing works fail on, with the
/// observed failure per method.
pub fn table4() -> Table {
    let registry = Registry::standard();
    let mut t = Table::new(
        "Table 4",
        "classes Kishu handles that existing works fail on",
        &["Tool", "Failure mode", "Classes"],
    );
    let criu_fails: Vec<&str> = registry
        .classes()
        .iter()
        .filter(|c| c.behavior.off_process)
        .map(|c| c.name)
        .collect();
    let dump_ckpt: Vec<&str> = registry
        .classes()
        .iter()
        .filter(|c| c.behavior.unserializable)
        .map(|c| c.name)
        .collect();
    let dump_load: Vec<&str> = registry
        .classes()
        .iter()
        .filter(|c| c.behavior.deserialize_fails)
        .map(|c| c.name)
        .collect();
    t.row(vec![
        "CRIU".into(),
        "dist. computing / on-device data / pipelining".into(),
        criu_fails.join(", "),
    ]);
    t.row(vec![
        "DumpSession".into(),
        "unserializable data".into(),
        dump_ckpt.join(", "),
    ]);
    t.row(vec![
        "DumpSession".into(),
        "serializable but won't deserialize".into(),
        dump_load.join(", "),
    ]);
    // Verify Kishu really does checkpoint AND checkout every one of them.
    let mut kishu_ok = 0;
    for name in criu_fails.iter().chain(&dump_ckpt).chain(&dump_load) {
        let mut d = Driver::new(MethodKind::Kishu);
        d.run_cell(&cell(format!("x = lib_obj('{name}', 256, 1)\n")));
        d.run_cell(&cell("y = 1\n"));
        if d.failed.is_none()
            && d.restore_to(0).is_ok()
            && d.probe("type(x)").as_deref() == Some("'external'")
        {
            kishu_ok += 1;
        }
    }
    t.note(format!(
        "Kishu handles {kishu_ok}/{} of these classes (paper: all of them)",
        criu_fails.len() + dump_ckpt.len() + dump_load.len()
    ));
    t
}

/// Table 5: update-detection outcome per class — change an attribute and
/// expect a report; change nothing and expect silence (conservative
/// exceptions allowed).
pub fn table5() -> Table {
    let registry = Arc::new(Registry::standard());
    let config = VarGraphConfig {
        registry: registry.clone(),
        hash_arrays: true,
            hash_primitive_lists: false,
    };
    let mut success = 0usize;
    let mut false_positive = 0usize;
    let mut pickle_error = 0usize;
    let mut fail = 0usize;
    let mut nonce = 0u64;

    for spec in registry.classes() {
        let mut interp = kishu_minipy::Interp::new();
        kishu_libsim::install(&mut interp, registry.clone());
        let out = interp
            .run_cell(&format!("x = lib_obj('{}', 256, 3)\n", spec.name))
            .expect("parses");
        assert!(out.error.is_none());
        let root = interp.globals.peek("x").expect("bound");

        // (2) change nothing: does comparison stay silent?
        let g1 = VarGraph::build(&interp.heap, root, &config, &mut nonce);
        let g2 = VarGraph::build(&interp.heap, root, &config, &mut nonce);
        let spurious = g1.differs_from(&g2);

        // (1) change an attribute: is the update reported?
        let out = interp.run_cell("x.key = 'A'\n").expect("parses");
        assert!(out.error.is_none());
        let g3 = VarGraph::build(&interp.heap, root, &config, &mut nonce);
        let detected = g2.differs_from(&g3);

        if !detected {
            fail += 1;
        } else if !spurious {
            success += 1;
        } else if spec.behavior.nondet_pickle() {
            pickle_error += 1;
        } else {
            false_positive += 1;
        }
    }

    let mut t = Table::new(
        "Table 5",
        "summary of Kishu's update detection over 146 classes",
        &["Result", "Description", "Count"],
    );
    t.row(vec![
        "Success".into(),
        "update reported when object changed, silent otherwise".into(),
        success.to_string(),
    ]);
    t.row(vec![
        "False Positive".into(),
        "update reported on access though object unchanged".into(),
        false_positive.to_string(),
    ]);
    t.row(vec![
        "Pickle Error".into(),
        "object can't be deterministically stored; reported updated".into(),
        pickle_error.to_string(),
    ]);
    t.row(vec![
        "Fail".into(),
        "object changed but no update reported".into(),
        fail.to_string(),
    ]);
    t.note("paper: 120 / 14 / 12 / 0");
    t
}

/// Render every variable of a session namespace (the equivalence oracle for
/// the fault sweep).
fn namespace(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), repr(&s.interp.heap, o)))
        .collect()
}

/// Fault-injection sweep: run the `hw_lm` notebook under a [`FaultStore`]
/// at increasing transient-fault rates (with and without the session's
/// retry policy), time-traveling every few cells, and report how the
/// session degrades — checkouts must all complete with state identical to a
/// fault-free twin; only the counters are allowed to grow.
pub fn faults(scale: f64) -> Table {
    let nb = kishu_workloads::notebooks::hw_lm(scale);
    let seed = kishu_testkit::rng::env_seed(0x5EED);
    let mut t = Table::new(
        "Faults",
        "graceful degradation under injected storage faults (hw_lm notebook)",
        &[
            "fault rate",
            "retries",
            "faults injected",
            "checkouts ok",
            "state matches",
            "blobs dropped",
            "integrity failures",
        ],
    );
    for (rate, retries) in [(0.0, 2), (0.02, 2), (0.05, 2), (0.05, 0), (0.15, 0)] {
        let store = FaultStore::new(Box::new(MemoryStore::new()), FaultPlan::transient(rate), seed);
        let ledger = store.ledger_handle();
        let config = KishuConfig {
            store_retries: retries,
            ..KishuConfig::default()
        };
        let mut faulty = KishuSession::new(Box::new(store), config);
        let mut clean = KishuSession::in_memory(KishuConfig::default());

        let mut dropped = 0usize;
        let mut integrity = 0usize;
        let mut checkouts = 0usize;
        let mut failed_attempts = 0usize;
        let mut matches = true;
        for (i, c) in nb.cells.iter().enumerate() {
            let rf = faulty.run_cell(&c.src).expect("cell parses");
            clean.run_cell(&c.src).expect("cell parses");
            dropped += rf.blobs_dropped;
            if (i + 1) % 4 == 0 {
                let target = NodeId((i as u32).div_ceil(2));
                checkouts += 1;
                // A checkout downed by a transient fault is itself
                // retryable: re-issuing it restores the full target state.
                let mut done = false;
                for _ in 0..3 {
                    match faulty.checkout(target) {
                        Ok(r) => {
                            integrity += r.integrity_failures;
                            done = true;
                            break;
                        }
                        Err(_) => failed_attempts += 1,
                    }
                }
                assert!(done, "checkout of {target:?} failed even with retries");
                clean.checkout(target).expect("fault-free checkout");
                matches &= namespace(&faulty) == namespace(&clean);
            }
        }
        matches &= namespace(&faulty) == namespace(&clean);
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            retries.to_string(),
            ledger.total().to_string(),
            format!("{checkouts} ({failed_attempts} retried)"),
            if matches { "yes" } else { "NO" }.to_string(),
            dropped.to_string(),
            integrity.to_string(),
        ]);
    }
    t.note(format!(
        "seed {seed} (set KISHU_TESTKIT_SEED to replay); every checkout must \
         restore the exact fault-free state, faults surface only as counters"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_never_diverges_and_faults_fire() {
        let t = faults(0.05);
        for row in &t.rows {
            assert_eq!(row[4], "yes", "state diverged under faults: {row:?}");
        }
        // The zero-rate row injects nothing; with the built-in seed, the
        // 15%-no-retry row must both inject faults and show visible
        // degradation (a caller-chosen KISHU_TESTKIT_SEED can legitimately
        // draw a quieter run).
        assert_eq!(t.rows[0][2], "0");
        if kishu_testkit::rng::seed_override().is_none() {
            let last = t.rows.last().expect("rows");
            assert!(last[2].parse::<u64>().expect("count") > 0, "{last:?}");
            let degraded = last[5].parse::<u64>().unwrap() + last[6].parse::<u64>().unwrap();
            assert!(degraded > 0, "no visible degradation at 15% without retries: {last:?}");
        }
    }

    #[test]
    fn table4_kishu_handles_every_listed_class() {
        let t = table4();
        assert!(t.notes[0].contains("13/13"), "{:?}", t.notes);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn table5_counts_match_the_paper_exactly() {
        let t = table5();
        let counts: Vec<&str> = t.rows.iter().map(|r| r[2].as_str()).collect();
        assert_eq!(counts, vec!["120", "14", "12", "0"]);
    }
}
