//! The commit-graph query surface: state diffs between arbitrary
//! checkpoints and per-variable modification history.
//!
//! Everything here is computed from Checkpoint Graph *metadata* — state
//! membership (Definition 5), version node ids, and the blob id and
//! payload size recorded for each stored version — so a query touches no
//! blob bytes and its answer is a function of the graph alone. A diff
//! answers "did the bytes change?" where the metadata decides it: two
//! versions stored as one blob hold the same bytes, because the write
//! path's dedup gives repeated sealed bytes the blob that already holds
//! them. The opt-in deep mode of [`crate::session::KishuSession`] resolves
//! the rest by reading payloads through the checkout read cache.

use std::collections::BTreeSet;

use crate::covariable::CoVarKey;
use crate::graph::{CheckpointGraph, NodeId};

/// How one co-variable differs between two session states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarChange {
    /// Present in the target state only.
    Added,
    /// Present in the base state only.
    Removed,
    /// Present in both, at different versions.
    Changed,
    /// Present in both at the same version (untouched by either branch
    /// since their common ancestor — Definition 6's identical case).
    Identical,
}

impl VarChange {
    /// Short label for tables and REPL output.
    pub fn label(&self) -> &'static str {
        match self {
            VarChange::Added => "added",
            VarChange::Removed => "removed",
            VarChange::Changed => "changed",
            VarChange::Identical => "identical",
        }
    }
}

/// One co-variable's row in a [`DiffReport`].
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// The co-variable's member names.
    pub key: CoVarKey,
    /// Membership/version classification.
    pub change: VarChange,
    /// Version in the base state (`None` when added).
    pub from: Option<NodeId>,
    /// Version in the target state (`None` when removed).
    pub to: Option<NodeId>,
    /// Stored payload size of the base version, when bytes were stored.
    pub from_bytes: Option<u64>,
    /// Stored payload size of the target version, when bytes were stored.
    pub to_bytes: Option<u64>,
    /// Content-level verdict. [`diff_report`] sets `Some(true)` for every
    /// `Identical` entry and for a `Changed` entry whose two versions are
    /// stored as one blob (versions diverged but the value round-tripped);
    /// every other entry is `None`. Only the session's deep diff reads
    /// blobs, and it settles the remaining `Changed` entries to
    /// `Some(true)` or `Some(false)` by comparing bytes; pure membership
    /// changes stay `None`.
    pub same_bytes: Option<bool>,
}

/// The state difference between two checkpoints, one entry per co-variable
/// in either state, sorted by key.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The base ("from") checkpoint.
    pub base: NodeId,
    /// The target ("to") checkpoint.
    pub target: NodeId,
    /// Per-co-variable rows, sorted by key.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Entries with the given classification.
    pub fn with_change(&self, change: VarChange) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(move |e| e.change == change)
    }

    /// Count of entries with the given classification.
    pub fn count(&self, change: VarChange) -> usize {
        self.with_change(change).count()
    }

    /// Whether the two states are identical version-for-version.
    pub fn is_clean(&self) -> bool {
        self.entries.iter().all(|e| e.change == VarChange::Identical)
    }
}

/// Compute the state difference between `base` and `target` from graph
/// metadata only (no blob access). Consistent with
/// [`CheckpointGraph::diff`]: `Added`/`Changed` entries are exactly the
/// checkout plan's loads, `Removed` its removals, `Identical` its
/// untouched set — the property test in `tests/graph_queries.rs` pins
/// this correspondence, and the [`DiffEntry::same_bytes`] rule.
pub fn diff_report(graph: &CheckpointGraph, base: NodeId, target: NodeId) -> DiffReport {
    let from_state = graph.state_at(base);
    let to_state = graph.state_at(target);
    let keys: BTreeSet<&CoVarKey> = from_state.keys().chain(to_state.keys()).collect();
    let entries = keys
        .into_iter()
        .map(|key| {
            let from = from_state.get(key).copied();
            let to = to_state.get(key).copied();
            let change = match (from, to) {
                (None, Some(_)) => VarChange::Added,
                (Some(_), None) => VarChange::Removed,
                (Some(a), Some(b)) if a == b => VarChange::Identical,
                (Some(_), Some(_)) => VarChange::Changed,
                (None, None) => unreachable!("key came from one of the states"),
            };
            let stored = |v: Option<NodeId>| {
                v.and_then(|v| graph.stored(key, v)).filter(|sc| sc.blob.is_some())
            };
            let (from_sc, to_sc) = (stored(from), stored(to));
            let one_blob = matches!((from_sc, to_sc), (Some(a), Some(b)) if a.blob == b.blob);
            DiffEntry {
                key: key.clone(),
                change,
                from,
                to,
                from_bytes: from_sc.map(|sc| sc.bytes),
                to_bytes: to_sc.map(|sc| sc.bytes),
                same_bytes: (change == VarChange::Identical || one_blob).then_some(true),
            }
        })
        .collect();
    DiffReport {
        base,
        target,
        entries,
    }
}

/// One commit in a variable's modification history.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// The checkpoint whose cell touched the variable.
    pub node: NodeId,
    /// The checkpoint's logical timestamp.
    pub timestamp: u64,
    /// First line of the cell's code.
    pub cell_code: String,
    /// The co-variable containing the variable was written at this commit.
    pub modified: bool,
    /// A co-variable containing the variable was deleted (or split/merged
    /// away) at this commit.
    pub deleted: bool,
}

/// The modification history of variable `name` as visible from `at`:
/// every commit on the ancestor chain whose cell modified or deleted a
/// co-variable containing it, oldest first. Backed by the graph's
/// incrementally-maintained modified-in index
/// ([`CheckpointGraph::history`]) — O(depth + commits touching the
/// variable), not a scan of every node's delta.
pub fn history(graph: &CheckpointGraph, name: &str, at: NodeId) -> Vec<HistoryEntry> {
    graph
        .history(name, at)
        .into_iter()
        .map(|id| {
            let node = graph.node(id);
            HistoryEntry {
                node: id,
                timestamp: node.timestamp,
                cell_code: node.cell_code.lines().next().unwrap_or("").trim().to_string(),
                modified: node
                    .delta
                    .iter()
                    .any(|sc| sc.names.iter().any(|n| n == name)),
                deleted: node.deleted.iter().any(|k| k.iter().any(|n| n == name)),
            }
        })
        .collect()
}

/// One commit in an all-branches variable search.
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// The checkpoint whose cell touched the variable.
    pub node: NodeId,
    /// The checkpoint's logical timestamp.
    pub timestamp: u64,
    /// First line of the cell's code.
    pub cell_code: String,
    /// The co-variable containing the variable was written at this commit.
    pub modified: bool,
    /// A co-variable containing the variable was deleted (or split/merged
    /// away) at this commit.
    pub deleted: bool,
    /// Whether this commit is on the current head's ancestor chain — the
    /// rows [`history`] would also return. Off-path rows are what make
    /// search different: work on branches the head can't see.
    pub on_head_path: bool,
}

/// Every commit on *any* branch whose cell modified or deleted a
/// co-variable containing `name`, in commit order. Backed by the same
/// modified-in postings as [`history`], read without ancestor filtering
/// ([`CheckpointGraph::search`]) — O(answer), no traversal.
pub fn search(graph: &CheckpointGraph, name: &str) -> Vec<SearchHit> {
    let on_path: BTreeSet<NodeId> = graph.ancestors(graph.head()).collect();
    graph
        .search(name)
        .into_iter()
        .map(|id| {
            let node = graph.node(id);
            SearchHit {
                node: id,
                timestamp: node.timestamp,
                cell_code: node.cell_code.lines().next().unwrap_or("").trim().to_string(),
                modified: node
                    .delta
                    .iter()
                    .any(|sc| sc.names.iter().any(|n| n == name)),
                deleted: node.deleted.iter().any(|k| k.iter().any(|n| n == name)),
                on_head_path: on_path.contains(&id),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariable::key;
    use crate::graph::StoredCoVar;

    fn stored(names: &[&str]) -> StoredCoVar {
        StoredCoVar {
            names: key(names),
            blob: Some(0),
            bytes: 10,
        }
    }

    fn fig10() -> (CheckpointGraph, [NodeId; 5]) {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit(
            "df = load(); gmm = init()".into(),
            vec![stored(&["df"]), stored(&["gmm"])],
            vec![],
            vec![],
        );
        let t2 = g.commit("gmm.fit(k=3)".into(), vec![stored(&["gmm"])], vec![], vec![]);
        let t3 = g.commit("plot = gmm.result()".into(), vec![stored(&["plot"])], vec![], vec![]);
        g.set_head(t1);
        let t4 = g.commit("gmm.fit(k=10)".into(), vec![stored(&["gmm"])], vec![], vec![]);
        let t5 = g.commit("plot = gmm.result()".into(), vec![stored(&["plot"])], vec![], vec![]);
        (g, [t1, t2, t3, t4, t5])
    }

    #[test]
    fn diff_classifies_fig10_branches() {
        let (g, [_, _, t3, _, t5]) = fig10();
        let report = diff_report(&g, t5, t3);
        assert_eq!(report.count(VarChange::Identical), 1, "df untouched");
        assert_eq!(report.count(VarChange::Changed), 2, "gmm and plot diverged");
        assert_eq!(report.count(VarChange::Added), 0);
        assert_eq!(report.count(VarChange::Removed), 0);
        let df = report
            .entries
            .iter()
            .find(|e| e.key == key(&["df"]))
            .expect("df entry");
        assert_eq!(df.same_bytes, Some(true), "identical implies same bytes");
        assert_eq!(df.from, df.to);
        assert_eq!(df.from_bytes, Some(10));
    }

    #[test]
    fn diff_reports_membership_changes() {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit("a = 1".into(), vec![stored(&["a"])], vec![], vec![]);
        let t2 = g.commit("b = 2; del a".into(), vec![stored(&["b"])], vec![key(&["a"])], vec![]);
        let report = diff_report(&g, t1, t2);
        let a = report.entries.iter().find(|e| e.key == key(&["a"])).unwrap();
        assert_eq!(a.change, VarChange::Removed);
        assert_eq!((a.from, a.to), (Some(t1), None));
        let b = report.entries.iter().find(|e| e.key == key(&["b"])).unwrap();
        assert_eq!(b.change, VarChange::Added);
        assert_eq!((b.from, b.to), (None, Some(t2)));
        assert!(!report.is_clean());
        assert!(diff_report(&g, t2, t2).is_clean());
    }

    #[test]
    fn diff_skips_bytes_for_unstored_blobs() {
        let mut g = CheckpointGraph::new();
        g.commit(
            "x = opaque()".into(),
            vec![StoredCoVar {
                names: key(&["x"]),
                blob: None,
                bytes: 0,
            }],
            vec![],
            vec![],
        );
        let report = diff_report(&g, g.root(), g.head());
        let x = report.entries.iter().find(|e| e.key == key(&["x"])).unwrap();
        assert_eq!(x.change, VarChange::Added);
        assert_eq!(x.to_bytes, None, "no blob, no byte count");
    }

    #[test]
    fn history_entries_carry_cell_context() {
        let (g, [t1, t2, t3, _, _]) = fig10();
        let h = history(&g, "gmm", t3);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].node, t1);
        assert_eq!(h[1].node, t2);
        assert!(h[0].modified && !h[0].deleted);
        assert_eq!(h[1].cell_code, "gmm.fit(k=3)");
        assert!(h[0].timestamp < h[1].timestamp);
        assert!(history(&g, "nope", t3).is_empty());
    }

    #[test]
    fn search_finds_work_on_other_branches() {
        let (g, [t1, t2, _, t4, t5]) = fig10();
        // Head is t5 (right branch); search still surfaces the left one.
        let hits = search(&g, "gmm");
        assert_eq!(
            hits.iter().map(|h| h.node).collect::<Vec<_>>(),
            vec![t1, t2, t4]
        );
        assert!(hits[0].on_head_path, "t1 is shared ancestry");
        assert!(!hits[1].on_head_path, "t2 is the other branch");
        assert!(hits[2].on_head_path, "t4 is head's parent");
        assert_eq!(hits[1].cell_code, "gmm.fit(k=3)");
        assert!(hits.iter().all(|h| h.modified && !h.deleted));
        let _ = t5;
        assert!(search(&g, "nope").is_empty());
    }

    #[test]
    fn history_marks_deletions() {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit("x = 1".into(), vec![stored(&["x"])], vec![], vec![]);
        let t2 = g.commit("del x".into(), vec![], vec![key(&["x"])], vec![]);
        let h = history(&g, "x", t2);
        assert_eq!(h.len(), 2);
        assert!(h[0].modified && !h[0].deleted);
        assert!(!h[1].modified && h[1].deleted);
        let _ = t1;
    }
}
