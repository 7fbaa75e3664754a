//! The Delta Detector (§4.3): accurate, fast co-variable update detection.
//!
//! After each cell execution the detector receives the patched namespace's
//! [`AccessRecord`] and:
//!
//! 1. prunes candidates by Lemma 1 — only co-variables whose members were
//!    accessed can possibly have been updated; everything else is skipped
//!    *without touching a single object* (this is the step AblatedKishu
//!    disables, and the entire reason Fig 17's per-cell overhead stays
//!    bounded as the state grows);
//! 2. regenerates VarGraphs for the candidate members (plus newly bound
//!    names) and compares them against the cached pre-cell graphs to verify
//!    actual modifications (Definition 2);
//! 3. recomputes the co-variable partition *within the candidate group* to
//!    identify merges and splits (Fig 6) — correctness outside the group is
//!    exactly Lemma 1's guarantee.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use kishu_kernel::{AccessRecord, Heap, Namespace};
use kishu_libsim::Registry;

use crate::covariable::{components, CoVarKey, Partition};
use crate::vargraph::{VarGraph, VarGraphConfig};

/// One cell execution's state delta at co-variable granularity.
#[derive(Debug, Clone)]
pub struct StateDelta {
    /// Components that were created or modified by the cell — exactly what
    /// the incremental checkpoint must store (§5.1).
    pub updated: Vec<CoVarKey>,
    /// Old component keys that no longer exist (splits, merges, deletions).
    pub deleted: Vec<CoVarKey>,
    /// Pre-cell components the cell *read* — recorded as the checkpoint
    /// node's dependencies for fallback recomputation (§5.3).
    pub dependencies: Vec<CoVarKey>,
    /// How many co-variables were candidates (accessed) this cell.
    pub candidates_checked: usize,
    /// How many VarGraphs were regenerated.
    pub vars_rebuilt: usize,
}

/// The detector: cached per-variable VarGraphs plus the current partition.
pub struct DeltaDetector {
    config: VarGraphConfig,
    check_all: bool,
    graphs: HashMap<String, VarGraph>,
    partition: Partition,
    nonce: u64,
}

impl DeltaDetector {
    /// New detector.
    ///
    /// * `hash_arrays` — use the XXH64 array fast path (§6.2).
    /// * `check_all` — ignore the access record and re-verify every
    ///   co-variable each cell (the AblatedKishu baseline of Table 6).
    pub fn new(registry: Arc<Registry>, hash_arrays: bool, check_all: bool) -> Self {
        let mut config = VarGraphConfig::new(registry);
        config.hash_arrays = hash_arrays;
        Self::with_config(config, check_all)
    }

    /// New detector with full VarGraph configuration (extension options
    /// such as primitive-list hashing included).
    pub fn with_config(config: VarGraphConfig, check_all: bool) -> Self {
        DeltaDetector {
            config,
            check_all,
            graphs: HashMap::new(),
            partition: Partition::new(),
            nonce: 0,
        }
    }

    /// The current co-variable partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Process one cell execution's access record against the post-cell
    /// heap/namespace, returning the state delta.
    pub fn on_cell(
        &mut self,
        heap: &Heap,
        ns: &Namespace,
        access: &AccessRecord,
    ) -> StateDelta {
        let accessed: BTreeSet<String> = if self.check_all {
            let mut all: BTreeSet<String> = self.graphs.keys().cloned().collect();
            all.extend(ns.names());
            all
        } else {
            access.accessed()
        };

        // Dependencies: pre-cell components the cell read.
        let dependencies: Vec<CoVarKey> = self
            .partition
            .intersecting(&access.gets.iter().cloned().collect())
            .into_iter()
            .map(|i| self.partition.covars()[i].clone())
            .collect();

        // Candidate group: members of accessed components + new bindings.
        let affected_idx = self.partition.intersecting(&accessed);
        let mut group: BTreeSet<String> = BTreeSet::new();
        let mut old_keys: BTreeSet<CoVarKey> = BTreeSet::new();
        for i in &affected_idx {
            let c = &self.partition.covars()[*i];
            old_keys.insert(c.clone());
            group.extend(c.iter().cloned());
        }
        for n in &accessed {
            if ns.contains(n) {
                group.insert(n.clone());
            }
        }

        // Regenerate VarGraphs for live group members; drop dead ones.
        let mut changed_vars: BTreeSet<String> = BTreeSet::new();
        let mut vars_rebuilt = 0;
        for name in &group {
            match ns.peek(name) {
                Some(root) => {
                    let fresh = VarGraph::build(heap, root, &self.config, &mut self.nonce);
                    vars_rebuilt += 1;
                    let changed = match self.graphs.get(name) {
                        Some(old) => old.differs_from(&fresh),
                        None => true, // newly bound
                    };
                    if changed {
                        changed_vars.insert(name.clone());
                    }
                    self.graphs.insert(name.clone(), fresh);
                }
                None => {
                    self.graphs.remove(name);
                }
            }
        }

        // Recompute the partition within the group.
        let live_group: Vec<&str> = group
            .iter()
            .filter(|n| ns.contains(n))
            .map(|n| n.as_str())
            .collect();
        let inputs: Vec<(&str, &VarGraph)> = live_group
            .iter()
            .map(|n| (*n, self.graphs.get(*n).expect("graph just built")))
            .collect();
        let new_components = components(&inputs);
        let vanished = self.partition.replace(&affected_idx, new_components.clone());

        // A component is updated if it is new (created / re-shaped) or any
        // member's VarGraph changed.
        let updated: Vec<CoVarKey> = new_components
            .into_iter()
            .filter(|c| !old_keys.contains(c) || c.iter().any(|n| changed_vars.contains(n)))
            .collect();

        StateDelta {
            updated,
            deleted: vanished,
            dependencies,
            candidates_checked: affected_idx.len(),
            vars_rebuilt,
        }
    }

    /// Re-synchronize the detector after a checkout replaced or deleted
    /// variables (step 2 of §5.2's checkout procedure): regenerate graphs
    /// for the changed names and rebuild the partition from cached
    /// reachable sets.
    pub fn resync_after_checkout(
        &mut self,
        heap: &Heap,
        ns: &Namespace,
        changed: &BTreeSet<String>,
    ) {
        for name in changed {
            match ns.peek(name) {
                Some(root) => {
                    let fresh = VarGraph::build(heap, root, &self.config, &mut self.nonce);
                    self.graphs.insert(name.clone(), fresh);
                }
                None => {
                    self.graphs.remove(name);
                }
            }
        }
        // Drop any cached graph whose variable no longer exists.
        self.graphs.retain(|name, _| ns.contains(name));
        let inputs: Vec<(&str, &VarGraph)> = self
            .graphs
            .iter()
            .map(|(n, g)| (n.as_str(), g))
            .collect();
        let comps = components(&inputs);
        self.partition.reset(comps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariable::key;
    use kishu_minipy::Interp;

    fn detector(check_all: bool) -> DeltaDetector {
        DeltaDetector::new(Arc::new(Registry::standard()), true, check_all)
    }

    fn run(interp: &mut Interp, det: &mut DeltaDetector, src: &str) -> StateDelta {
        let out = interp.run_cell(src).expect("parses");
        assert!(out.error.is_none(), "cell failed: {:?}", out.error);
        det.on_cell(&interp.heap, &interp.globals, &out.access)
    }

    #[test]
    fn creation_is_an_update() {
        let mut i = Interp::new();
        let mut d = detector(false);
        let delta = run(&mut i, &mut d, "x = [1, 2, 3]\n");
        assert_eq!(delta.updated, vec![key(&["x"])]);
        assert!(delta.deleted.is_empty());
    }

    #[test]
    fn untouched_covariables_are_skipped() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "big = read_csv('x', 1000, 5, 1)\nsmall = [1]\n");
        let delta = run(&mut i, &mut d, "small.append(2)\n");
        assert_eq!(delta.updated, vec![key(&["small"])]);
        // Lemma 1: `big` was not accessed, so it was not even a candidate.
        assert_eq!(delta.candidates_checked, 1);
        assert_eq!(delta.vars_rebuilt, 1);
    }

    #[test]
    fn check_all_mode_checks_everything() {
        let mut i = Interp::new();
        let mut d = detector(true);
        run(&mut i, &mut d, "a = [1]\nb = [2]\nc = [3]\n");
        let delta = run(&mut i, &mut d, "a.append(9)\n");
        assert_eq!(delta.updated, vec![key(&["a"])]);
        // Ablation: every co-variable was a candidate.
        assert_eq!(delta.candidates_checked, 3);
        assert_eq!(delta.vars_rebuilt, 3);
    }

    #[test]
    fn read_only_access_is_checked_but_not_updated() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "ls = [3, 1, 2]\n");
        let delta = run(&mut i, &mut d, "total = sum(ls)\n");
        // `ls` was accessed (candidate) but unchanged; `total` is new.
        assert_eq!(delta.updated, vec![key(&["total"])]);
        assert_eq!(delta.candidates_checked, 1);
        assert!(delta.dependencies.contains(&key(&["ls"])));
    }

    #[test]
    fn merge_by_reference_assignment() {
        // Fig 6 bottom-right: obj.foo = st merges co-variables.
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "obj = Object()\nst = ['payload']\n");
        let delta = run(&mut i, &mut d, "obj.foo = st\n");
        assert_eq!(delta.updated, vec![key(&["obj", "st"])]);
        assert!(delta.deleted.contains(&key(&["obj"])));
        assert!(delta.deleted.contains(&key(&["st"])));
    }

    #[test]
    fn split_by_rebinding() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "x = [1]\ny = x\n");
        assert_eq!(d.partition().covars(), &[key(&["x", "y"])]);
        let delta = run(&mut i, &mut d, "y = [2]\n");
        // {x, y} splits into {x} and {y}; both are new keys.
        assert!(delta.updated.contains(&key(&["y"])));
        assert!(delta.updated.contains(&key(&["x"])));
        assert_eq!(delta.deleted, vec![key(&["x", "y"])]);
    }

    #[test]
    fn deletion_removes_the_covariable() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "tmp = [0]\nkeep = [1]\n");
        let delta = run(&mut i, &mut d, "del tmp\n");
        assert!(delta.updated.is_empty());
        assert_eq!(delta.deleted, vec![key(&["tmp"])]);
        assert_eq!(d.partition().len(), 1);
    }

    #[test]
    fn in_place_update_of_shared_component_updates_whole_covariable() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "ser = series('m', ['a', 'b'])\nobj = Object()\nobj.foo = ser.values[1]\n");
        assert_eq!(d.partition().covars(), &[key(&["obj", "ser"])]);
        // Mutate through one member only.
        let delta = run(&mut i, &mut d, "ser.replace('a', 'z')\n");
        assert_eq!(delta.updated, vec![key(&["obj", "ser"])]);
    }

    #[test]
    fn update_through_function_reading_globals_is_caught() {
        // "Complex access patterns" (§2.2): the cell calls a function that
        // touches a global the cell text never names at top level.
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "data = [1, 2]\ndef poke():\n    data.append(99)\n    return len(data)\n");
        let delta = run(&mut i, &mut d, "n = poke()\n");
        assert!(delta.updated.contains(&key(&["data"])), "global mutated inside function");
        assert!(delta.updated.contains(&key(&["n"])));
    }

    #[test]
    fn no_false_negatives_across_constructs() {
        // Sweep of mutation styles; every one must be reported.
        let cases: &[(&str, &str)] = &[
            ("v = [3, 1, 2]\n", "v.sort()\n"),
            ("v = [1, 2, 3]\n", "v[0] = 9\n"),
            ("v = {'a': 1}\n", "v['a'] = 2\n"),
            ("v = {'a': 1}\n", "v.pop('a')\n"),
            ("v = zeros(50)\n", "v[25] = 1.0\n"),
            ("v = zeros(50)\n", "v += 1\n"),
            ("v = Object()\n", "v.attr = 5\n"),
            ("v = [1]\n", "v = [2]\n"),
            ("v = series('s', ['x'])\n", "v.replace('x', 'y')\n"),
            ("v = read_csv('d', 10, 2, 3)\n", "v['c9'] = zeros(10)\n"),
        ];
        for (setup, mutation) in cases {
            let mut i = Interp::new();
            let mut d = detector(false);
            run(&mut i, &mut d, setup);
            let delta = run(&mut i, &mut d, mutation);
            assert!(
                delta.updated.iter().any(|c| c.contains("v")),
                "missed update: {mutation:?}"
            );
        }
    }

    #[test]
    fn dependencies_are_pre_cell_covariables() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "df = read_csv('d', 10, 2, 3)\n");
        let delta = run(&mut i, &mut d, "m = df.mean()\n");
        assert_eq!(delta.dependencies, vec![key(&["df"])]);
    }

    #[test]
    fn resync_after_checkout_rebuilds_partition() {
        let mut i = Interp::new();
        let mut d = detector(false);
        run(&mut i, &mut d, "x = [1]\ny = x\nz = [2]\n");
        // Simulate a checkout that replaced y with an unrelated object and
        // deleted z.
        let fresh = i.heap.alloc(kishu_kernel::ObjKind::List(vec![]));
        i.globals.set_untracked("y", fresh);
        i.globals.delete_untracked("z");
        let changed: BTreeSet<String> = ["y".to_string(), "z".to_string()].into();
        d.resync_after_checkout(&i.heap, &i.globals, &changed);
        assert_eq!(d.partition().len(), 2);
        assert_eq!(d.partition().covar_of("y"), Some(&key(&["y"])));
        assert!(d.partition().covar_of("z").is_none());
    }
}
