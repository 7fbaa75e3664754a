//! The patched global namespace.
//!
//! Jupyter cells interact with the session state through the kernel's global
//! namespace (`user_ns`). Kishu patches its accessor, setter, and deletion
//! methods (§4.3, Fig 8) to learn which variable names each cell touched —
//! the sole input Lemma 1 needs to prove a co-variable *surely wasn't*
//! updated. This module is that namespace: a name→object binding table whose
//! every access is recorded into the current [`AccessRecord`] while tracking
//! is armed.

use std::collections::{BTreeMap, BTreeSet};

use crate::object::ObjId;

/// The set of variable names a single cell execution got, set, or deleted.
///
/// `accessed()` (the union) is what the delta detector intersects with
/// co-variable membership; the individual sets additionally feed the
/// workload-characterization experiments (Fig 2's creation/modification
/// split).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessRecord {
    /// Names read (`x`, `f(x)`, `x.attr`, `x[i]`, ...).
    pub gets: BTreeSet<String>,
    /// Names (re)bound (`x = ...`), including first definitions.
    pub sets: BTreeSet<String>,
    /// Names removed (`del x`).
    pub dels: BTreeSet<String>,
}

impl AccessRecord {
    /// Union of all names touched in any way — Definition 3's "accessed".
    pub fn accessed(&self) -> BTreeSet<String> {
        let mut all = self.gets.clone();
        all.extend(self.sets.iter().cloned());
        all.extend(self.dels.iter().cloned());
        all
    }

    /// Whether nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.gets.is_empty() && self.sets.is_empty() && self.dels.is_empty()
    }
}

/// The global namespace of a simulated notebook session, with Kishu's access
/// patch built in.
///
/// Bindings are kept in a sorted map so iteration (state snapshots, pickling
/// order, co-variable enumeration) is deterministic across runs.
#[derive(Debug, Default)]
pub struct Namespace {
    bindings: BTreeMap<String, ObjId>,
    tracking: bool,
    record: AccessRecord,
}

impl Namespace {
    /// Empty namespace with tracking disarmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm access tracking and clear the current record. Called by Kishu's
    /// `pre_run_cell` hook.
    pub fn begin_tracking(&mut self) {
        self.tracking = true;
        self.record = AccessRecord::default();
    }

    /// Disarm tracking and take the record of the cell that just ran. Called
    /// by Kishu's `post_run_cell` hook.
    pub fn end_tracking(&mut self) -> AccessRecord {
        self.tracking = false;
        std::mem::take(&mut self.record)
    }

    /// Look a name up, recording the get. Returns `None` for unbound names
    /// (the interpreter turns that into a `NameError`).
    pub fn get(&mut self, name: &str) -> Option<ObjId> {
        if self.tracking {
            self.record.gets.insert(name.to_string());
        }
        self.bindings.get(name).copied()
    }

    /// Look a name up *without* recording an access. Kishu's own machinery
    /// (VarGraph regeneration, checkout) uses this so that observation never
    /// perturbs the measurement.
    pub fn peek(&self, name: &str) -> Option<ObjId> {
        self.bindings.get(name).copied()
    }

    /// Bind a name, recording the set. Returns the previously bound object,
    /// if any.
    pub fn set(&mut self, name: &str, obj: ObjId) -> Option<ObjId> {
        if self.tracking {
            self.record.sets.insert(name.to_string());
        }
        self.bindings.insert(name.to_string(), obj)
    }

    /// Bind a name without recording (checkout restoring state).
    pub fn set_untracked(&mut self, name: &str, obj: ObjId) -> Option<ObjId> {
        self.bindings.insert(name.to_string(), obj)
    }

    /// Delete a name, recording the deletion. Returns the unbound object.
    pub fn delete(&mut self, name: &str) -> Option<ObjId> {
        if self.tracking {
            self.record.dels.insert(name.to_string());
        }
        self.bindings.remove(name)
    }

    /// Delete a name without recording (checkout removing divergent
    /// variables).
    pub fn delete_untracked(&mut self, name: &str) -> Option<ObjId> {
        self.bindings.remove(name)
    }

    /// Whether a name is currently bound (no access recorded).
    pub fn contains(&self, name: &str) -> bool {
        self.bindings.contains_key(name)
    }

    /// All current `(name, object)` bindings in sorted order (no access
    /// recorded).
    pub fn bindings(&self) -> impl Iterator<Item = (&str, ObjId)> + '_ {
        self.bindings.iter().map(|(n, o)| (n.as_str(), *o))
    }

    /// All bound names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.bindings.keys().cloned().collect()
    }

    /// All bound objects (GC roots).
    pub fn roots(&self) -> Vec<ObjId> {
        self.bindings.values().copied().collect()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_accesses_are_recorded() {
        let mut ns = Namespace::new();
        ns.set_untracked("a", ObjId(1));
        ns.begin_tracking();
        let _ = ns.get("a");
        ns.set("b", ObjId(2));
        ns.delete("a");
        let rec = ns.end_tracking();
        assert!(rec.gets.contains("a"));
        assert!(rec.sets.contains("b"));
        assert!(rec.dels.contains("a"));
        assert_eq!(
            rec.accessed(),
            ["a", "b"].iter().map(|s| s.to_string()).collect()
        );
    }

    #[test]
    fn untracked_accesses_are_invisible() {
        let mut ns = Namespace::new();
        ns.begin_tracking();
        ns.set_untracked("x", ObjId(1));
        let _ = ns.peek("x");
        ns.delete_untracked("x");
        let rec = ns.end_tracking();
        assert!(rec.is_empty());
    }

    #[test]
    fn missing_names_are_still_recorded_as_gets() {
        // Reading an unbound name is an access attempt; the cell may then
        // bind it. Recording it keeps Lemma 1 conservative.
        let mut ns = Namespace::new();
        ns.begin_tracking();
        assert!(ns.get("ghost").is_none());
        let rec = ns.end_tracking();
        assert!(rec.gets.contains("ghost"));
    }

    #[test]
    fn tracking_is_scoped_to_a_cell() {
        let mut ns = Namespace::new();
        ns.set("pre", ObjId(7)); // not tracking yet
        ns.begin_tracking();
        let rec = ns.end_tracking();
        assert!(rec.is_empty());
        ns.set("post", ObjId(8)); // tracking disarmed again
        ns.begin_tracking();
        assert!(ns.end_tracking().is_empty());
    }

    #[test]
    fn bindings_iterate_sorted() {
        let mut ns = Namespace::new();
        ns.set_untracked("zeta", ObjId(1));
        ns.set_untracked("alpha", ObjId(2));
        let names: Vec<&str> = ns.bindings().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn rebinding_returns_previous() {
        let mut ns = Namespace::new();
        assert_eq!(ns.set("x", ObjId(1)), None);
        assert_eq!(ns.set("x", ObjId(2)), Some(ObjId(1)));
        assert_eq!(ns.peek("x"), Some(ObjId(2)));
        assert_eq!(ns.delete("x"), Some(ObjId(2)));
        assert_eq!(ns.delete("x"), None);
    }
}
