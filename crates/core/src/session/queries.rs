//! The commit-graph query surface (see `crate::query`): read-mostly
//! operations a notebook dashboard polls at high rate — state diffs
//! between arbitrary checkpoints, per-variable history, and named refs
//! (branches/tags). Each query kind gets its own `query.*` trace span.
//! Refs live inside the Checkpoint Graph, so `persist` snapshots them and
//! `resume` restores them with no extra machinery.

use std::sync::Arc;

use super::read::Verified;
use super::{CheckoutReport, KishuSession};
use crate::covariable::CoVarKey;
use crate::error::KishuError;
use crate::graph::NodeId;

impl KishuSession {
    /// State difference between checkpoints `base` and `target`, computed
    /// from graph metadata alone ([`crate::query::diff_report`]): a
    /// `Changed` entry whose two versions are stored as one blob reads
    /// `same_bytes: Some(true)`, and every other `Changed` entry stays
    /// `None` for [`Self::diff_deep`] to resolve by reading the blobs.
    /// Nothing the session has read enters the answer, so it is the same
    /// before and after a checkout or a resume.
    pub fn diff(&self, base: NodeId, target: NodeId) -> Result<crate::query::DiffReport, KishuError> {
        let mut sp = self.trace.span("query.diff");
        sp.arg("base", base.0);
        sp.arg("target", target.0);
        for id in [base, target] {
            if !self.graph.contains(id) {
                return Err(KishuError::UnknownNode(id));
            }
        }
        // Memo consult: a diff is a function of the graph, and the epoch
        // key moves with every commit and storage backfill, so a hit is
        // identical to a fresh recompute.
        let cache_key = (base.0, target.0, self.graph.epoch());
        if let Some(cached) = self.diff_cache.borrow().get(&cache_key) {
            self.diff_cache_hits.set(self.diff_cache_hits.get() + 1);
            sp.arg("cached", true);
            sp.arg("entries", cached.entries.len());
            return Ok(cached.clone());
        }
        self.diff_cache_misses.set(self.diff_cache_misses.get() + 1);
        let report = crate::query::diff_report(&self.graph, base, target);
        sp.arg("entries", report.entries.len());
        // Keep only the current epoch's reports: the epoch never goes
        // back, so an older entry could never be hit again.
        let mut cache = self.diff_cache.borrow_mut();
        if cache.keys().next().is_some_and(|&(_, _, epoch)| epoch != cache_key.2) {
            cache.clear();
        }
        cache.insert(cache_key, report.clone());
        Ok(report)
    }

    /// Like [`Self::diff`], but resolves every remaining `same_bytes:
    /// None` on `Changed` entries by fetching both payloads — through the
    /// checkout read cache, so repeated deep diffs over the same states
    /// stop touching the store — and comparing bytes. Payloads are CRC
    /// verified but never deserialized: a diff needs equality, not a live
    /// object. Blobs that fail to read leave their entry at `None` rather
    /// than failing the query, and count as integrity failures in
    /// [`Self::health`].
    pub fn diff_deep(
        &mut self,
        base: NodeId,
        target: NodeId,
    ) -> Result<crate::query::DiffReport, KishuError> {
        let mut report = self.diff(base, target)?;
        let mut sp = self.trace.span("query.diff_deep");
        sp.arg("base", base.0);
        sp.arg("target", target.0);
        let mut fetched = 0usize;
        let mut entries = std::mem::take(&mut report.entries);
        for e in &mut entries {
            if e.change != crate::query::VarChange::Changed || e.same_bytes.is_some() {
                continue;
            }
            let (Some(from), Some(to)) = (e.from, e.to) else { continue };
            let a = self.fetch_payload_for_query(&e.key, from);
            let b = self.fetch_payload_for_query(&e.key, to);
            fetched += 2;
            if let (Some(a), Some(b)) = (a, b) {
                e.same_bytes = Some(a == b);
            }
        }
        report.entries = entries;
        sp.arg("fetched", fetched);
        Ok(report)
    }

    /// Fetch one stored payload for a deep diff through checkout's blob
    /// fetch and verify job, without the decode charge (a diff never
    /// deserializes). CRC-clean payloads are admitted into the read cache,
    /// so the deep diff and checkout warm each other; the diff compares
    /// the shared handles in place. `None` when nothing is stored or the
    /// blob is unreadable/corrupt; the latter counts in
    /// [`super::SessionMetrics::integrity_failures`].
    fn fetch_payload_for_query(&mut self, key: &CoVarKey, version: NodeId) -> Option<Arc<[u8]>> {
        let blob = self.graph.stored(key, version)?.blob?;
        match self.fetch_blob(blob).verify(&self.trace, false) {
            Verified::Ready { payload, cache_key } => {
                self.admit(Arc::clone(&payload), cache_key);
                Some(payload)
            }
            Verified::Failed => {
                self.metrics.integrity_failures += 1;
                None
            }
        }
    }

    /// Modification history of variable `name` as visible from the current
    /// head: every commit on the head's ancestor chain whose cell modified
    /// or deleted a co-variable containing it, oldest first. Answered from
    /// the graph's modified-in index — O(depth + commits touching the
    /// variable).
    pub fn history(&self, name: &str) -> Vec<crate::query::HistoryEntry> {
        self.history_at(name, self.graph.head())
            .expect("head always exists")
    }

    /// [`Self::history`] scoped to the ancestor chain of `at`.
    pub fn history_at(
        &self,
        name: &str,
        at: NodeId,
    ) -> Result<Vec<crate::query::HistoryEntry>, KishuError> {
        let mut sp = self.trace.span("query.history");
        sp.arg("var", name);
        sp.arg("at", at.0);
        if !self.graph.contains(at) {
            return Err(KishuError::UnknownNode(at));
        }
        let entries = crate::query::history(&self.graph, name, at);
        sp.arg("entries", entries.len());
        Ok(entries)
    }

    /// Create or move branch `name` to `at` (the current head when
    /// `None`). Persisted with the graph snapshot: [`Self::persist`] +
    /// [`Self::resume`] restore every ref.
    pub fn set_branch(&mut self, name: &str, at: Option<NodeId>) -> Result<NodeId, KishuError> {
        let mut sp = self.trace.span("query.branch");
        sp.arg("name", name);
        let node = at.unwrap_or_else(|| self.graph.head());
        self.graph
            .set_branch(name, node)
            .map_err(KishuError::InvalidRef)?;
        Ok(node)
    }

    /// Create tag `name` at `at` (the current head when `None`). Tags
    /// refuse to move once created.
    pub fn set_tag(&mut self, name: &str, at: Option<NodeId>) -> Result<NodeId, KishuError> {
        let mut sp = self.trace.span("query.tag");
        sp.arg("name", name);
        let node = at.unwrap_or_else(|| self.graph.head());
        self.graph
            .set_tag(name, node)
            .map_err(KishuError::InvalidRef)?;
        Ok(node)
    }

    /// Delete branch `name`; errors if it does not exist.
    pub fn delete_branch(&mut self, name: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.branch");
        sp.arg("name", name);
        sp.arg("delete", true);
        if self.graph.delete_branch(name) {
            Ok(())
        } else {
            Err(KishuError::InvalidRef(format!("no such branch '{name}'")))
        }
    }

    /// Delete tag `name`; errors if it does not exist.
    pub fn delete_tag(&mut self, name: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.tag");
        sp.arg("name", name);
        sp.arg("delete", true);
        if self.graph.delete_tag(name) {
            Ok(())
        } else {
            Err(KishuError::InvalidRef(format!("no such tag '{name}'")))
        }
    }

    /// Rename branch `old` to `new`, keeping its target.
    pub fn rename_branch(&mut self, old: &str, new: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.branch");
        sp.arg("name", old);
        sp.arg("rename", new);
        self.graph
            .rename_branch(old, new)
            .map_err(KishuError::InvalidRef)
    }

    /// Rename tag `old` to `new`, keeping its target.
    pub fn rename_tag(&mut self, old: &str, new: &str) -> Result<(), KishuError> {
        let mut sp = self.trace.span("query.tag");
        sp.arg("name", old);
        sp.arg("rename", new);
        self.graph
            .rename_tag(old, new)
            .map_err(KishuError::InvalidRef)
    }

    /// Resolve a ref name or numeric node id ([`crate::graph::CheckpointGraph::resolve`]).
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        self.graph.resolve(name)
    }

    /// Checkout by branch/tag name or numeric node id.
    pub fn checkout_ref(&mut self, name: &str) -> Result<CheckoutReport, KishuError> {
        let target = self
            .resolve(name)
            .ok_or_else(|| KishuError::InvalidRef(format!("cannot resolve '{name}'")))?;
        self.checkout(target)
    }

    /// Every commit on *any* branch whose cell modified or deleted a
    /// co-variable containing `name`, in commit order —
    /// [`Self::history`] without the ancestor filter. Answered straight
    /// from the modified-in postings (O(answer)); `search_bruteforce` on
    /// the graph is the whole-graph-scan oracle the tests pin it against.
    pub fn search(&self, name: &str) -> Vec<crate::query::SearchHit> {
        let mut sp = self.trace.span("query.search");
        sp.arg("var", name);
        let hits = crate::query::search(&self.graph, name);
        sp.arg("entries", hits.len());
        hits
    }
}
