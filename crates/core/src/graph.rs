//! The Checkpoint Graph (§5.1): branch-based versioning of session states.
//!
//! A directed tree of incremental checkpoints, analogous to Git's commit
//! graph. Each node holds (1) the *versioned co-variables* updated by its
//! cell execution (the state delta), (2) the cell's code, and (3) the
//! versioned co-variables the cell accessed — update, operation, and
//! dependencies, in database-logging terms. The head tracks the user's
//! current state; a checkout moves it, and the next cell execution starts a
//! new branch (Fig 9/10).
//!
//! Session states (Definition 5) are reconstructed by walking a node's
//! ancestor chain and taking, for every co-variable, the *youngest* version
//! on the path that has not been deleted since — which makes the state-diff
//! computation linear in the number of cell executions on the two paths,
//! the scaling Fig 19 measures.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use kishu_testkit::json::Json;

use crate::covariable::CoVarKey;

/// Identifier of a checkpoint node (the paper's `checkpoint_id`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A versioned co-variable as stored in a node's delta: the member names
/// plus where (and whether) its bytes were written.
#[derive(Debug, Clone)]
pub struct StoredCoVar {
    /// Member variable names (the co-variable's identity).
    pub names: CoVarKey,
    /// Blob id in the checkpoint store; `None` when serialization failed or
    /// was blocklisted — restoration then uses fallback recomputation.
    pub blob: Option<u64>,
    /// Stored payload size in bytes (0 when skipped).
    pub bytes: u64,
}

/// One checkpoint: the result of one cell execution.
#[derive(Debug, Clone)]
pub struct CpNode {
    /// Parent node (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Distance from the root (for LCA stepping).
    pub depth: u32,
    /// Logical timestamp (monotone per session).
    pub timestamp: u64,
    /// Source code of the cell execution this node checkpoints.
    pub cell_code: String,
    /// The state delta: versioned co-variables updated by this cell.
    pub delta: Vec<StoredCoVar>,
    /// Co-variable keys that ceased to exist at this cell (deletions,
    /// splits, merges).
    pub deleted: Vec<CoVarKey>,
    /// Versioned co-variables this cell read: `(key, version node)` —
    /// the inputs fallback recomputation loads before re-running the cell.
    pub deps: Vec<(CoVarKey, NodeId)>,
}

/// The tree of checkpoints plus the head pointer, named refs
/// (branches/tags), and the per-variable modified-in index backing the
/// query surface (see [`crate::query`]).
#[derive(Debug, Clone)]
pub struct CheckpointGraph {
    nodes: Vec<CpNode>,
    head: NodeId,
    next_timestamp: u64,
    /// Named movable refs (a branch names a line of work; checkout by
    /// name). Persisted in the graph snapshot, so `resume` restores them.
    branches: BTreeMap<String, NodeId>,
    /// Named immutable-by-convention refs (a tag pins a milestone state).
    tags: BTreeMap<String, NodeId>,
    /// Per-variable modified-in index: variable name → nodes whose cell
    /// modified or deleted a co-variable containing it, in commit order.
    /// Maintained incrementally by [`Self::commit`] (O(delta) per commit)
    /// and rebuilt by one linear scan on [`Self::from_json`] — it is
    /// derived data and never serialized. [`Self::history`] answers in
    /// O(depth + commits touching the variable) instead of re-scanning
    /// every node's delta.
    modified_in: HashMap<String, Vec<NodeId>>,
    /// Monotone mutation counter, bumped by [`Self::commit`] and every
    /// ref mutation. Derived data (never serialized): it exists so pure
    /// functions of the graph — diff reports, search results — can be
    /// cached under a `(inputs, epoch)` key and invalidated for free.
    epoch: u64,
    /// Nodes [`Self::ancestors`] has yielded plus parent steps
    /// [`Self::lca`] has taken. Derived data (never serialized), read only
    /// through [`Self::nodes_walked`].
    walked: Cell<u64>,
}

/// What a checkout must do: which versioned co-variables to load and which
/// current co-variables to drop (§5.2's state difference).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutPlan {
    /// Diverged co-variables to load, with the version (node) to load from.
    pub load: Vec<(CoVarKey, NodeId)>,
    /// Co-variables present now but absent in the target state: their
    /// variables must be deleted.
    pub remove: Vec<CoVarKey>,
    /// Co-variables identical between the states (left untouched — the
    /// entire point of incremental checkout).
    pub identical: Vec<CoVarKey>,
}

impl Default for CheckpointGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointGraph {
    /// New graph containing only the root node (the empty pre-session
    /// state).
    pub fn new() -> Self {
        CheckpointGraph {
            nodes: vec![CpNode {
                parent: None,
                depth: 0,
                timestamp: 0,
                cell_code: String::new(),
                delta: Vec::new(),
                deleted: Vec::new(),
                deps: Vec::new(),
            }],
            head: NodeId(0),
            next_timestamp: 1,
            branches: BTreeMap::new(),
            tags: BTreeMap::new(),
            modified_in: HashMap::new(),
            epoch: 0,
            walked: Cell::new(0),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The current head node.
    pub fn head(&self) -> NodeId {
        self.head
    }

    /// The mutation epoch: bumped by every commit and ref mutation.
    /// Cache pure graph queries keyed by `(inputs, epoch)` — equal epochs
    /// guarantee equal answers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Graph nodes walked so far: every node [`Self::ancestors`] yielded
    /// (so [`Self::state_at`] and [`Self::history`] count `depth + 1`) plus
    /// every parent step [`Self::lca`] took. Commits and decoding walk
    /// nothing. A work count, not a clock: it repeats exactly for a fixed
    /// sequence of calls.
    pub fn nodes_walked(&self) -> u64 {
        self.walked.get()
    }

    /// Move the head (used by checkout).
    pub fn set_head(&mut self, id: NodeId) {
        assert!(self.contains(id), "head must be an existing node");
        self.head = id;
    }

    /// Whether `id` names an existing node.
    pub fn contains(&self, id: NodeId) -> bool {
        (id.0 as usize) < self.nodes.len()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &CpNode {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Append a checkpoint under the current head and advance the head to
    /// it. Returns the new node's id.
    pub fn commit(
        &mut self,
        cell_code: String,
        delta: Vec<StoredCoVar>,
        deleted: Vec<CoVarKey>,
        deps: Vec<(CoVarKey, NodeId)>,
    ) -> NodeId {
        let parent = self.head;
        let id = NodeId(self.nodes.len() as u32);
        let ts = self.next_timestamp;
        self.next_timestamp += 1;
        self.nodes.push(CpNode {
            parent: Some(parent),
            depth: self.node(parent).depth + 1,
            timestamp: ts,
            cell_code,
            delta,
            deleted,
            deps,
        });
        self.index_node(id);
        self.head = id;
        self.epoch += 1;
        id
    }

    /// Add node `id`'s delta and deletions to the modified-in index: each
    /// member variable of each touched co-variable maps to this node, once.
    fn index_node(&mut self, id: NodeId) {
        let node = &self.nodes[id.0 as usize];
        let mut touched: BTreeSet<&str> = BTreeSet::new();
        for sc in &node.delta {
            touched.extend(sc.names.iter().map(String::as_str));
        }
        for k in &node.deleted {
            touched.extend(k.iter().map(String::as_str));
        }
        let touched: Vec<String> = touched.into_iter().map(str::to_string).collect();
        for name in touched {
            self.modified_in.entry(name).or_default().push(id);
        }
    }

    /// Commits on the ancestor chain of `at` whose cell modified or deleted
    /// a co-variable containing variable `name`, oldest first. Answered via
    /// the modified-in index in O(depth + commits touching the variable):
    /// a parent always precedes its children, so the ancestor chain walks
    /// strictly decreasing node ids, and the postings list is appended in
    /// commit order — the intersection is a two-pointer merge of integer
    /// ids (no hashing, no delta inspection), stopping as soon as the
    /// postings run out.
    pub fn history(&self, name: &str, at: NodeId) -> Vec<NodeId> {
        let Some(postings) = self.modified_in.get(name) else {
            return Vec::new();
        };
        let mut hits = Vec::new();
        let mut postings = postings.iter().rev().copied().peekable(); // young → old
        for anc in self.ancestors(at) {
            // Skip postings younger than this ancestor (off-chain siblings
            // and descendants of `at`).
            while postings.next_if(|id| *id > anc).is_some() {}
            match postings.peek() {
                Some(id) if *id == anc => {
                    hits.push(anc);
                    postings.next();
                }
                Some(_) => {}
                None => break,
            }
        }
        hits.reverse(); // the merge walked young → old; report oldest first
        hits
    }

    /// Reference implementation of [`Self::history`]: brute-force walk of
    /// the ancestor chain inspecting every node's delta and deletions.
    /// O(depth × delta); kept as the differential oracle for the index.
    pub fn history_bruteforce(&self, name: &str, at: NodeId) -> Vec<NodeId> {
        let mut hits: Vec<NodeId> = self
            .ancestors(at)
            .filter(|id| {
                let node = self.node(*id);
                node.delta
                    .iter()
                    .any(|sc| sc.names.iter().any(|n| n == name))
                    || node.deleted.iter().any(|k| k.iter().any(|n| n == name))
            })
            .collect();
        hits.reverse(); // ancestors() walks young → old; report oldest first
        hits
    }

    /// Every commit — on *any* branch — whose cell modified or deleted a
    /// co-variable containing variable `name`, in commit order. This is
    /// the modified-in postings list read off directly: the index is
    /// keyed by name alone and appended at commit time, so it already
    /// covers every branch with no traversal at all — O(answer).
    /// ([`Self::history`] is the ancestor-filtered view of the same
    /// postings.)
    pub fn search(&self, name: &str) -> Vec<NodeId> {
        self.modified_in.get(name).cloned().unwrap_or_default()
    }

    /// Reference implementation of [`Self::search`]: scan every node's
    /// delta and deletions. O(nodes × delta); kept as the differential
    /// oracle for the all-branches read of the index.
    pub fn search_bruteforce(&self, name: &str) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|id| {
                let node = self.node(*id);
                node.delta
                    .iter()
                    .any(|sc| sc.names.iter().any(|n| n == name))
                    || node.deleted.iter().any(|k| k.iter().any(|n| n == name))
            })
            .collect()
    }

    /// Rebuild the modified-in index from scratch (used after
    /// deserialization — the index is derived data and never persisted).
    fn rebuild_index(&mut self) {
        self.modified_in.clear();
        for i in 0..self.nodes.len() {
            self.index_node(NodeId(i as u32));
        }
    }

    // --- Named refs: branches and tags -----------------------------------

    /// Create or move branch `name` to point at `node`.
    pub fn set_branch(&mut self, name: &str, node: NodeId) -> Result<(), String> {
        self.set_ref(RefKind::Branch, name, node)
    }

    /// Create tag `name` at `node`. Unlike branches, an existing tag is
    /// never silently moved.
    pub fn set_tag(&mut self, name: &str, node: NodeId) -> Result<(), String> {
        if self.tags.contains_key(name) {
            return Err(format!("tag '{name}' already exists"));
        }
        self.set_ref(RefKind::Tag, name, node)
    }

    fn set_ref(&mut self, kind: RefKind, name: &str, node: NodeId) -> Result<(), String> {
        validate_ref_name(name)?;
        if !self.contains(node) {
            return Err(format!("node {} does not exist", node.0));
        }
        let map = match kind {
            RefKind::Branch => &mut self.branches,
            RefKind::Tag => &mut self.tags,
        };
        map.insert(name.to_string(), node);
        self.epoch += 1;
        Ok(())
    }

    /// Delete branch `name`; true if it existed.
    pub fn delete_branch(&mut self, name: &str) -> bool {
        let removed = self.branches.remove(name).is_some();
        if removed {
            self.epoch += 1;
        }
        removed
    }

    /// Delete tag `name`; true if it existed.
    pub fn delete_tag(&mut self, name: &str) -> bool {
        let removed = self.tags.remove(name).is_some();
        if removed {
            self.epoch += 1;
        }
        removed
    }

    /// Rename branch `old` to `new`, keeping its target.
    pub fn rename_branch(&mut self, old: &str, new: &str) -> Result<(), String> {
        Self::rename_ref(&mut self.branches, "branch", old, new)?;
        self.epoch += 1;
        Ok(())
    }

    /// Rename tag `old` to `new`, keeping its target.
    pub fn rename_tag(&mut self, old: &str, new: &str) -> Result<(), String> {
        Self::rename_ref(&mut self.tags, "tag", old, new)?;
        self.epoch += 1;
        Ok(())
    }

    fn rename_ref(
        map: &mut BTreeMap<String, NodeId>,
        what: &str,
        old: &str,
        new: &str,
    ) -> Result<(), String> {
        validate_ref_name(new)?;
        if map.contains_key(new) {
            return Err(format!("{what} '{new}' already exists"));
        }
        match map.remove(old) {
            Some(node) => {
                map.insert(new.to_string(), node);
                Ok(())
            }
            None => Err(format!("no such {what} '{old}'")),
        }
    }

    /// The node branch `name` points at.
    pub fn branch(&self, name: &str) -> Option<NodeId> {
        self.branches.get(name).copied()
    }

    /// The node tag `name` points at.
    pub fn tag(&self, name: &str) -> Option<NodeId> {
        self.tags.get(name).copied()
    }

    /// All branches, sorted by name.
    pub fn branches(&self) -> &BTreeMap<String, NodeId> {
        &self.branches
    }

    /// All tags, sorted by name.
    pub fn tags(&self) -> &BTreeMap<String, NodeId> {
        &self.tags
    }

    /// Resolve a ref name or numeric node id to a node: branches shadow
    /// tags, which shadow bare numeric ids (like Git's refname precedence).
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        if let Some(n) = self.branch(name).or_else(|| self.tag(name)) {
            return Some(n);
        }
        let id = NodeId(name.parse::<u32>().ok()?);
        self.contains(id).then_some(id)
    }

    /// Iterator over `id` and its ancestors up to the root.
    pub fn ancestors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = Some(id);
        std::iter::from_fn(move || {
            let here = cur?;
            cur = self.node(here).parent;
            self.walked.set(self.walked.get() + 1);
            Some(here)
        })
    }

    /// Lowest common ancestor of two nodes (depth-stepping walk — the
    /// "off-the-shelf algorithm" of §7.7.2, linear in the branch lengths).
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let depth = |n: NodeId| u64::from(self.node(n).depth);
        let depths = depth(a) + depth(b);
        let (mut a, mut b) = (a, b);
        while self.node(a).depth > self.node(b).depth {
            a = self.node(a).parent.expect("deeper node has a parent");
        }
        while self.node(b).depth > self.node(a).depth {
            b = self.node(b).parent.expect("deeper node has a parent");
        }
        while a != b {
            a = self.node(a).parent.expect("non-root while differing");
            b = self.node(b).parent.expect("non-root while differing");
        }
        // Parent steps taken from both sides.
        self.walked.set(self.walked.get() + depths - 2 * depth(a));
        a
    }

    /// The session state at node `t` (Definition 5): every co-variable
    /// live after CE `t`, mapped to the node holding its current version.
    pub fn state_at(&self, t: NodeId) -> BTreeMap<CoVarKey, NodeId> {
        let mut state: BTreeMap<CoVarKey, NodeId> = BTreeMap::new();
        let mut dead: BTreeSet<CoVarKey> = BTreeSet::new();
        for node_id in self.ancestors(t) {
            let node = self.node(node_id);
            // Walking young → old: the first mention of a key wins.
            for sc in &node.delta {
                if !state.contains_key(&sc.names) && !dead.contains(&sc.names) {
                    state.insert(sc.names.clone(), node_id);
                }
            }
            for key in &node.deleted {
                if !state.contains_key(key) {
                    dead.insert(key.clone());
                }
            }
        }
        state
    }

    /// Definition 6: whether co-variable `x` is identical between the
    /// states of `a` and `b` — a version `(x, t_c)` exists in the states of
    /// `a`, `b`, and their lowest common ancestor `c`.
    pub fn identical(&self, x: &CoVarKey, a: NodeId, b: NodeId) -> bool {
        let c = self.lca(a, b);
        let sa = self.state_at(a);
        let sb = self.state_at(b);
        let sc = self.state_at(c);
        match (sa.get(x), sb.get(x), sc.get(x)) {
            (Some(va), Some(vb), Some(vc)) => va == vb && vb == vc,
            _ => false,
        }
    }

    /// Compute the checkout plan from `current` to `target`: which
    /// co-variables diverged (load), which must be removed, which are
    /// identical (§5.2).
    pub fn diff(&self, current: NodeId, target: NodeId) -> CheckoutPlan {
        let cur = self.state_at(current);
        let tgt = self.state_at(target);
        let mut load = Vec::new();
        let mut identical = Vec::new();
        for (key, version) in &tgt {
            match cur.get(key) {
                Some(v) if v == version => identical.push(key.clone()),
                _ => load.push((key.clone(), *version)),
            }
        }
        let remove: Vec<CoVarKey> = cur
            .keys()
            .filter(|k| !tgt.contains_key(*k))
            .cloned()
            .collect();
        CheckoutPlan {
            load,
            remove,
            identical,
        }
    }

    /// Find the stored co-variable record for `(key, version)`.
    pub fn stored(&self, key: &CoVarKey, version: NodeId) -> Option<&StoredCoVar> {
        self.node(version).delta.iter().find(|sc| &sc.names == key)
    }

    /// Backfill a co-variable's storage location after a deferred
    /// (think-time) serialization completed (§2.2's think-time
    /// exploitation).
    pub fn set_stored(&mut self, version: NodeId, key: &CoVarKey, blob: u64, bytes: u64) {
        if let Some(sc) = self.nodes[version.0 as usize]
            .delta
            .iter_mut()
            .find(|sc| &sc.names == key)
        {
            sc.blob = Some(blob);
            sc.bytes = bytes;
        }
    }

    /// Serialized size of the graph metadata in bytes (the Fig 19 metric).
    pub fn metadata_bytes(&self) -> usize {
        self.to_json().dump().len()
    }

    /// Serialize to the persisted JSON form. The layout (field names and
    /// order) is the checkpoint blob format and is pinned by a
    /// golden-bytes test: changing it breaks `resume()` on existing
    /// stores, so bump `format_version` and keep a reader for old blobs
    /// if it ever has to evolve.
    ///
    /// Version history: v1 had no named refs; v2 adds `branches`/`tags`
    /// between `next_timestamp` and `nodes`. [`Self::from_json`] still
    /// reads v1 blobs (they parse as a graph with no refs). The modified-in
    /// index is derived data and deliberately not part of the format.
    pub fn to_json(&self) -> Json {
        let refs_to_json = |map: &BTreeMap<String, NodeId>| {
            Json::Object(
                map.iter()
                    .map(|(name, node)| (name.clone(), Json::Int(node.0 as i64)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("format_version", Json::Int(2)),
            ("head", Json::Int(self.head.0 as i64)),
            ("next_timestamp", int_u64(self.next_timestamp)),
            ("branches", refs_to_json(&self.branches)),
            ("tags", refs_to_json(&self.tags)),
            (
                "nodes",
                Json::Array(self.nodes.iter().map(node_to_json).collect()),
            ),
        ])
    }

    /// Parse a graph from the persisted JSON form (v2, or legacy v1 blobs
    /// written before named refs existed), validating structural invariants
    /// (parents precede children, each depth is its parent's plus one, dep
    /// versions name earlier nodes, head and ref targets in range), so
    /// [`Self::lca`]'s `expect`s hold on every decoded graph.
    pub fn from_json(json: &Json) -> Result<CheckpointGraph, String> {
        let version = json
            .get("format_version")
            .and_then(Json::as_i64)
            .ok_or("missing format_version")?;
        if version != 1 && version != 2 {
            return Err(format!("unsupported graph format_version {version}"));
        }
        let head = node_id(json.get("head").ok_or("missing head")?, "head")?;
        let next_timestamp = json
            .get("next_timestamp")
            .and_then(Json::as_u64)
            .ok_or("missing next_timestamp")?;
        let nodes: Vec<CpNode> = json
            .get("nodes")
            .and_then(Json::as_array)
            .ok_or("missing nodes")?
            .iter()
            .map(node_from_json)
            .collect::<Result<_, _>>()?;
        if nodes.is_empty() {
            return Err("graph has no root node".into());
        }
        if head.0 as usize >= nodes.len() {
            return Err(format!("head {} out of range", head.0));
        }
        for (i, node) in nodes.iter().enumerate() {
            let expected_depth = match node.parent {
                None if i != 0 => return Err(format!("non-root node {i} has no parent")),
                None => 0,
                Some(p) if p.0 as usize >= i => {
                    return Err(format!("node {i} has forward parent {}", p.0))
                }
                Some(p) => nodes[p.0 as usize].depth + 1,
            };
            if node.depth != expected_depth {
                return Err(format!("node {i} has depth {}, not {expected_depth}", node.depth));
            }
            if let Some((_, v)) = node.deps.iter().find(|(_, v)| v.0 as usize >= i) {
                return Err(format!("node {i} depends on node {}, not an earlier one", v.0));
            }
        }
        let refs_from_json = |field: &str| -> Result<BTreeMap<String, NodeId>, String> {
            match json.get(field) {
                // v1 blobs predate named refs.
                None => Ok(BTreeMap::new()),
                Some(Json::Object(entries)) => entries
                    .iter()
                    .map(|(name, v)| {
                        let node = node_id(v, field)?;
                        if node.0 as usize >= nodes.len() {
                            return Err(format!("{field} '{name}' targets missing node {}", node.0));
                        }
                        Ok((name.clone(), node))
                    })
                    .collect(),
                Some(_) => Err(format!("{field} is not an object")),
            }
        };
        let branches = refs_from_json("branches")?;
        let tags = refs_from_json("tags")?;
        let mut graph = CheckpointGraph {
            nodes,
            head,
            next_timestamp,
            branches,
            tags,
            modified_in: HashMap::new(),
            epoch: 0,
            walked: Cell::new(0),
        };
        graph.rebuild_index();
        Ok(graph)
    }

    /// Children of a node (computed; the tree stores parent pointers).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == Some(id))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Human-readable log of all checkpoints (the `log` command).
    pub fn log(&self) -> Vec<String> {
        let mut map: HashMap<NodeId, char> = HashMap::new();
        map.insert(self.head, '*');
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let id = NodeId(i as u32);
                let marker = map.get(&id).copied().unwrap_or(' ');
                let code = n.cell_code.lines().next().unwrap_or("").trim();
                format!(
                    "{marker}[{}] parent={:?} t={} delta={} : {}",
                    i,
                    n.parent.map(|p| p.0),
                    n.timestamp,
                    n.delta.len(),
                    code
                )
            })
            .collect()
    }
}

/// Which ref namespace an operation targets.
#[derive(Debug, Clone, Copy)]
enum RefKind {
    Branch,
    Tag,
}

/// Ref names must be non-empty, free of whitespace, and not purely numeric
/// (bare numbers always mean node ids in `resolve`, so a numeric ref would
/// be unreachable by name).
fn validate_ref_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("ref name is empty".into());
    }
    if name.chars().any(char::is_whitespace) {
        return Err(format!("ref name '{name}' contains whitespace"));
    }
    if name.chars().all(|c| c.is_ascii_digit()) {
        return Err(format!("ref name '{name}' is purely numeric (would shadow node ids)"));
    }
    Ok(())
}

// --- JSON encoding helpers for the persisted graph format ---------------

fn int_u64(v: u64) -> Json {
    // Blob ids and timestamps are sequential counters, far below i64::MAX;
    // fail loudly rather than silently wrap if that ever changes.
    Json::Int(i64::try_from(v).expect("counter exceeds i64 range"))
}

/// A node id field: an integer that fits `u32`, never truncated.
fn node_id(json: &Json, what: &str) -> Result<NodeId, String> {
    json.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .map(NodeId)
        .ok_or_else(|| format!("{what} is not a node id"))
}

fn key_to_json(key: &CoVarKey) -> Json {
    Json::Array(key.iter().map(|n| Json::Str(n.clone())).collect())
}

fn key_from_json(json: &Json) -> Result<CoVarKey, String> {
    json.as_array()
        .ok_or("co-variable key is not an array")?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_string)
                .ok_or_else(|| "co-variable member is not a string".to_string())
        })
        .collect()
}

fn node_to_json(node: &CpNode) -> Json {
    Json::obj(vec![
        (
            "parent",
            match node.parent {
                Some(p) => Json::Int(p.0 as i64),
                None => Json::Null,
            },
        ),
        ("depth", Json::Int(node.depth as i64)),
        ("timestamp", int_u64(node.timestamp)),
        ("cell_code", Json::Str(node.cell_code.clone())),
        (
            "delta",
            Json::Array(
                node.delta
                    .iter()
                    .map(|sc| {
                        Json::obj(vec![
                            ("names", key_to_json(&sc.names)),
                            (
                                "blob",
                                match sc.blob {
                                    Some(b) => int_u64(b),
                                    None => Json::Null,
                                },
                            ),
                            ("bytes", int_u64(sc.bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "deleted",
            Json::Array(node.deleted.iter().map(key_to_json).collect()),
        ),
        (
            "deps",
            Json::Array(
                node.deps
                    .iter()
                    .map(|(k, v)| Json::Array(vec![key_to_json(k), Json::Int(v.0 as i64)]))
                    .collect(),
            ),
        ),
    ])
}

fn node_from_json(json: &Json) -> Result<CpNode, String> {
    let parent = match json.get("parent") {
        Some(Json::Null) | None => None,
        Some(p) => Some(node_id(p, "parent")?),
    };
    let delta = json
        .get("delta")
        .and_then(Json::as_array)
        .ok_or("missing delta")?
        .iter()
        .map(|sc| {
            Ok(StoredCoVar {
                names: key_from_json(sc.get("names").ok_or("missing names")?)?,
                blob: match sc.get("blob") {
                    Some(Json::Null) | None => None,
                    Some(b) => Some(b.as_u64().ok_or("blob is not an integer")?),
                },
                bytes: sc
                    .get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or("missing bytes")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let deleted = json
        .get("deleted")
        .and_then(Json::as_array)
        .ok_or("missing deleted")?
        .iter()
        .map(key_from_json)
        .collect::<Result<_, _>>()?;
    let deps = json
        .get("deps")
        .and_then(Json::as_array)
        .ok_or("missing deps")?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().ok_or("dep is not a pair")?;
            if pair.len() != 2 {
                return Err("dep is not a pair".to_string());
            }
            Ok((
                key_from_json(&pair[0])?,
                node_id(&pair[1], "dep version")?,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(CpNode {
        parent,
        depth: json
            .get("depth")
            .and_then(Json::as_u64)
            .and_then(|d| u32::try_from(d).ok())
            .ok_or("missing depth")?,
        timestamp: json
            .get("timestamp")
            .and_then(Json::as_u64)
            .ok_or("missing timestamp")?,
        cell_code: json
            .get("cell_code")
            .and_then(Json::as_str)
            .ok_or("missing cell_code")?
            .to_string(),
        delta,
        deleted,
        deps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariable::key;

    fn stored(names: &[&str]) -> StoredCoVar {
        StoredCoVar {
            names: key(names),
            blob: Some(0),
            bytes: 10,
        }
    }

    /// Build the paper's Fig 10 graph:
    /// t1(df,gmm) -> t2(gmm) -> t3(plot); checkout t1; t4(gmm) -> t5(plot).
    fn fig10() -> (CheckpointGraph, [NodeId; 5]) {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit("df = load(); gmm = init()".into(), vec![stored(&["df"]), stored(&["gmm"])], vec![], vec![]);
        let t2 = g.commit("gmm.fit(k=3)".into(), vec![stored(&["gmm"])], vec![], vec![(key(&["gmm"]), t1)]);
        let t3 = g.commit("plot = gmm.result()".into(), vec![stored(&["plot"])], vec![], vec![(key(&["gmm"]), t2)]);
        g.set_head(t1);
        let t4 = g.commit("gmm.fit(k=10)".into(), vec![stored(&["gmm"])], vec![], vec![(key(&["gmm"]), t1)]);
        let t5 = g.commit("plot = gmm.result()".into(), vec![stored(&["plot"])], vec![], vec![(key(&["gmm"]), t4)]);
        (g, [t1, t2, t3, t4, t5])
    }

    #[test]
    fn commit_advances_head_and_depth() {
        let mut g = CheckpointGraph::new();
        let a = g.commit("x=1".into(), vec![stored(&["x"])], vec![], vec![]);
        assert_eq!(g.head(), a);
        assert_eq!(g.node(a).depth, 1);
        assert_eq!(g.node(a).parent, Some(g.root()));
    }

    #[test]
    fn lca_matches_fig10() {
        let (g, [t1, t2, t3, t4, t5]) = fig10();
        assert_eq!(g.lca(t3, t5), t1);
        assert_eq!(g.lca(t2, t3), t2);
        assert_eq!(g.lca(t5, t5), t5);
        assert_eq!(g.lca(t4, t2), t1);
        assert_eq!(g.lca(t1, g.root()), g.root());
    }

    #[test]
    fn state_at_reconstructs_definition5() {
        let (g, [t1, t2, t3, _, _]) = fig10();
        let s3 = g.state_at(t3);
        // Fig 10 top-left: state t3 = {plot@t3, gmm@t2, df@t1}.
        assert_eq!(s3.get(&key(&["plot"])), Some(&t3));
        assert_eq!(s3.get(&key(&["gmm"])), Some(&t2), "gmm@t1 was overwritten");
        assert_eq!(s3.get(&key(&["df"])), Some(&t1));
        assert_eq!(s3.len(), 3);
    }

    #[test]
    fn identical_and_diverged_match_fig10() {
        let (g, [_, _, t3, _, t5]) = fig10();
        // df is identical between the branches; gmm and plot diverged.
        assert!(g.identical(&key(&["df"]), t5, t3));
        assert!(!g.identical(&key(&["gmm"]), t5, t3));
        assert!(!g.identical(&key(&["plot"]), t5, t3));
    }

    #[test]
    fn diff_loads_only_diverged() {
        let (g, [_, t2, t3, _, t5]) = fig10();
        let plan = g.diff(t5, t3);
        assert!(plan.identical.contains(&key(&["df"])));
        assert!(plan.load.contains(&(key(&["gmm"]), t2)));
        assert!(plan.load.contains(&(key(&["plot"]), t3)));
        assert_eq!(plan.load.len(), 2);
        assert!(plan.remove.is_empty());
    }

    #[test]
    fn diff_removes_covariables_absent_in_target() {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit("a = 1".into(), vec![stored(&["a"])], vec![], vec![]);
        let t2 = g.commit("b = 2".into(), vec![stored(&["b"])], vec![], vec![]);
        let plan = g.diff(t2, t1);
        assert_eq!(plan.remove, vec![key(&["b"])]);
        assert!(plan.load.is_empty());
        assert_eq!(plan.identical, vec![key(&["a"])]);
        let _ = t1;
    }

    #[test]
    fn deletions_tombstone_older_versions() {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit("x = big()".into(), vec![stored(&["x"])], vec![], vec![]);
        let t2 = g.commit("del x".into(), vec![], vec![key(&["x"])], vec![]);
        let s2 = g.state_at(t2);
        assert!(!s2.contains_key(&key(&["x"])), "deleted co-variable is gone");
        let s1 = g.state_at(t1);
        assert!(s1.contains_key(&key(&["x"])), "still present before deletion");
    }

    #[test]
    fn recreation_after_deletion_resolves_to_new_version() {
        let mut g = CheckpointGraph::new();
        let _t1 = g.commit("x = 1".into(), vec![stored(&["x"])], vec![], vec![]);
        let _t2 = g.commit("del x".into(), vec![], vec![key(&["x"])], vec![]);
        let t3 = g.commit("x = 2".into(), vec![stored(&["x"])], vec![], vec![]);
        let s3 = g.state_at(t3);
        assert_eq!(s3.get(&key(&["x"])), Some(&t3));
    }

    #[test]
    fn split_and_merge_keys_version_independently() {
        let mut g = CheckpointGraph::new();
        let _t1 = g.commit(
            "x = [1]; y = x".into(),
            vec![stored(&["x", "y"])],
            vec![],
            vec![],
        );
        let t2 = g.commit(
            "y = [2]".into(),
            vec![stored(&["x"]), stored(&["y"])],
            vec![key(&["x", "y"])],
            vec![],
        );
        let s2 = g.state_at(t2);
        assert_eq!(s2.get(&key(&["x"])), Some(&t2));
        assert_eq!(s2.get(&key(&["y"])), Some(&t2));
        assert!(!s2.contains_key(&key(&["x", "y"])));
    }

    #[test]
    fn metadata_grows_linearly() {
        let mut g = CheckpointGraph::new();
        let mut sizes = Vec::new();
        for i in 0..100 {
            g.commit(format!("cell {i}"), vec![stored(&["v"])], vec![], vec![]);
            if i % 25 == 24 {
                sizes.push(g.metadata_bytes());
            }
        }
        // Roughly linear: each quarter adds a similar amount.
        let d1 = sizes[1] - sizes[0];
        let d3 = sizes[3] - sizes[2];
        assert!((d3 as f64) < 1.5 * d1 as f64, "growth should stay linear: {sizes:?}");
    }

    #[test]
    fn history_follows_the_ancestor_chain() {
        let (g, [t1, t2, t3, t4, t5]) = fig10();
        // gmm was written at t1, t2 (left branch) and t1, t4 (right branch).
        assert_eq!(g.history("gmm", t3), vec![t1, t2]);
        assert_eq!(g.history("gmm", t5), vec![t1, t4]);
        // df only at t1, visible from both branches.
        assert_eq!(g.history("df", t3), vec![t1]);
        assert_eq!(g.history("df", t5), vec![t1]);
        // plot never existed on the path root..t2.
        assert_eq!(g.history("plot", t2), Vec::<NodeId>::new());
        assert!(g.history("nonexistent", t5).is_empty());
    }

    #[test]
    fn history_counts_deletions_and_comembers() {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit("x = [1]; y = x".into(), vec![stored(&["x", "y"])], vec![], vec![]);
        let t2 = g.commit(
            "y = [2]".into(),
            vec![stored(&["x"]), stored(&["y"])],
            vec![key(&["x", "y"])],
            vec![],
        );
        let t3 = g.commit("del x".into(), vec![], vec![key(&["x"])], vec![]);
        // x is touched by every cell: created at t1, split at t2, deleted at
        // t3 — and each commit appears once even when a variable shows up in
        // both the delta and the deleted list (the split at t2).
        assert_eq!(g.history("x", t3), vec![t1, t2, t3]);
        assert_eq!(g.history("y", t3), vec![t1, t2]);
    }

    #[test]
    fn search_spans_all_branches_unlike_history() {
        let (g, [t1, t2, t3, t4, t5]) = fig10();
        // history from t3 sees only the left branch; search sees both.
        assert_eq!(g.history("gmm", t3), vec![t1, t2]);
        assert_eq!(g.search("gmm"), vec![t1, t2, t4]);
        assert_eq!(g.search("plot"), vec![t3, t5]);
        assert_eq!(g.search("df"), vec![t1]);
        assert!(g.search("nonexistent").is_empty());
        // And the brute-force scan agrees on every variable.
        for name in ["df", "gmm", "plot", "nonexistent"] {
            assert_eq!(g.search(name), g.search_bruteforce(name), "{name}");
        }
    }

    #[test]
    fn epoch_bumps_on_commits_and_ref_mutations() {
        let mut g = CheckpointGraph::new();
        assert_eq!(g.epoch(), 0);
        let t1 = g.commit("x=1".into(), vec![stored(&["x"])], vec![], vec![]);
        let e = g.epoch();
        assert!(e > 0, "commit bumps");
        g.set_branch("b", t1).expect("branch");
        assert!(g.epoch() > e, "set_branch bumps");
        let e = g.epoch();
        g.set_tag("t", t1).expect("tag");
        assert!(g.epoch() > e, "set_tag bumps");
        let e = g.epoch();
        g.rename_branch("b", "b2").expect("rename");
        assert!(g.epoch() > e, "rename bumps");
        let e = g.epoch();
        assert!(g.delete_branch("b2"));
        assert!(g.epoch() > e, "delete bumps");
        let e = g.epoch();
        // Non-mutations leave the epoch alone: failed ops and reads.
        assert!(!g.delete_branch("b2"));
        assert!(g.rename_tag("ghost", "x").is_err());
        let _ = g.search("x");
        let _ = g.history("x", t1);
        assert_eq!(g.epoch(), e, "failed mutations and reads do not bump");
    }

    #[test]
    fn branch_and_tag_ops() {
        let (mut g, [t1, _, t3, _, t5]) = fig10();
        g.set_branch("k3", t3).expect("create branch");
        g.set_branch("k10", t5).expect("create branch");
        g.set_tag("loaded", t1).expect("create tag");
        assert_eq!(g.resolve("k3"), Some(t3));
        assert_eq!(g.resolve("loaded"), Some(t1));
        assert_eq!(g.resolve("3"), Some(NodeId(3)), "numeric falls back to node id");
        assert_eq!(g.resolve("missing"), None);
        // Branches move; tags refuse to.
        g.set_branch("k3", t1).expect("move branch");
        assert_eq!(g.branch("k3"), Some(t1));
        assert!(g.set_tag("loaded", t3).is_err(), "tags are immutable");
        // Renames keep the target and reject collisions.
        g.rename_branch("k3", "k3-redo").expect("rename");
        assert_eq!(g.branch("k3"), None);
        assert_eq!(g.branch("k3-redo"), Some(t1));
        assert!(g.rename_branch("k3-redo", "k10").is_err(), "collision");
        assert!(g.rename_branch("ghost", "x").is_err(), "missing source");
        g.rename_tag("loaded", "base").expect("rename tag");
        assert_eq!(g.tag("base"), Some(t1));
        // Deletes.
        assert!(g.delete_branch("k10"));
        assert!(!g.delete_branch("k10"), "already gone");
        assert!(g.delete_tag("base"));
        // Validation: bad names and bad targets.
        assert!(g.set_branch("", t1).is_err());
        assert!(g.set_branch("has space", t1).is_err());
        assert!(g.set_branch("42", t1).is_err(), "numeric name would shadow node ids");
        assert!(g.set_branch("ok", NodeId(999)).is_err(), "missing node");
    }

    /// Pins what [`CheckpointGraph::nodes_walked`] counts, because the
    /// work ledger (`tests/work_ledger.rs`) gates on it.
    #[test]
    fn nodes_walked_counts_ancestor_yields_and_lca_steps() {
        let (g, [t1, t2, t3, t4, t5]) = fig10();
        assert_eq!(g.nodes_walked(), 0, "commit walks nothing");
        let walked = |f: &dyn Fn()| {
            let before = g.nodes_walked();
            f();
            g.nodes_walked() - before
        };
        // state_at(t) yields t and each ancestor: depth(t) + 1.
        for t in [g.root(), t1, t3, t5] {
            assert_eq!(walked(&|| drop(g.state_at(t))), u64::from(g.node(t).depth) + 1);
        }
        // lca counts parent steps from both sides.
        assert_eq!(walked(&|| assert_eq!(g.lca(t3, t5), t1)), 4);
        assert_eq!(walked(&|| assert_eq!(g.lca(t2, t4), t1)), 2);
        assert_eq!(walked(&|| assert_eq!(g.lca(t3, t1), t1)), 2);
        assert_eq!(walked(&|| assert_eq!(g.lca(t5, t5), t5)), 0);
        // Decoding walks nothing; the counter is not part of the format.
        let back = CheckpointGraph::from_json(&g.to_json()).expect("round trip");
        assert_eq!(back.nodes_walked(), 0);
    }

    #[test]
    fn children_and_log() {
        let (g, [t1, t2, _, t4, _]) = fig10();
        let kids = g.children(t1);
        assert!(kids.contains(&t2) && kids.contains(&t4));
        let log = g.log();
        assert_eq!(log.len(), 6);
        assert!(log.iter().any(|l| l.starts_with('*')), "head is marked");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;

    #[derive(Debug, Clone)]
    enum GraphOp {
        /// Commit a delta of keys (each `v{k%10}`), deleting others.
        Commit(Vec<u8>, Vec<u8>),
        /// Move the head to node `n % len` (branching).
        Checkout(u8),
        /// Create or move branch `b{n%4}` to the current head.
        Branch(u8),
        /// Tag the current head as `t{n%4}` (no-op if taken).
        Tag(u8),
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
            any::<u8>().prop_map(GraphOp::Tag),
        ]
    }

    fn key_of(k: u8) -> CoVarKey {
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
                    let deleted: Vec<CoVarKey> = dels
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
                    g.set_branch(&format!("b{}", n % 4), g.head()).expect("valid branch");
                }
                GraphOp::Tag(n) => {
                    // Tags refuse to move; duplicate names are a no-op here.
                    let _ = g.set_tag(&format!("t{}", n % 4), g.head());
                }
            }
        }
        g
    }

    /// One edit of a snapshot's JSON bytes.
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Replace the `at`-th digit (modulo the digit count) with `d % 10`.
        Digit(u64, u8),
        /// Insert the decimal digits of `d` after the `at`-th digit.
        InsertDigits(u64, u16),
        /// Overwrite the byte at `at` (modulo the length) with `b`.
        Byte(u64, u8),
        /// Keep the first `at` (modulo the length + 1) bytes.
        Truncate(u64),
    }

    fn mutation_strategy() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            4 => (any::<u64>(), any::<u8>()).prop_map(|(at, d)| Mutation::Digit(at, d)),
            2 => (any::<u64>(), any::<u16>()).prop_map(|(at, d)| Mutation::InsertDigits(at, d)),
            1 => (any::<u64>(), any::<u8>()).prop_map(|(at, b)| Mutation::Byte(at, b)),
            1 => any::<u64>().prop_map(Mutation::Truncate),
        ]
    }

    fn mutate(bytes: &mut Vec<u8>, m: &Mutation) {
        let digits: Vec<usize> = (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit())
            .collect();
        let nth_digit = |at: u64| digits[(at % digits.len() as u64) as usize];
        match *m {
            Mutation::Digit(at, d) if !digits.is_empty() => bytes[nth_digit(at)] = b'0' + d % 10,
            Mutation::InsertDigits(at, d) if !digits.is_empty() => {
                let after = nth_digit(at) + 1;
                bytes.splice(after..after, d.to_string().into_bytes());
            }
            Mutation::Byte(at, b) if !bytes.is_empty() => {
                let i = (at % bytes.len() as u64) as usize;
                bytes[i] = b;
            }
            Mutation::Truncate(at) => bytes.truncate((at % (bytes.len() as u64 + 1)) as usize),
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lca_laws(ops in prop::collection::vec(op_strategy(), 1..40), a in any::<u8>(), b in any::<u8>()) {
            let g = build(&ops);
            let a = NodeId(a as u32 % g.len() as u32);
            let b = NodeId(b as u32 % g.len() as u32);
            let l = g.lca(a, b);
            prop_assert_eq!(l, g.lca(b, a), "symmetric");
            prop_assert_eq!(g.lca(a, a), a, "idempotent");
            prop_assert!(g.ancestors(a).any(|n| n == l), "lca is an ancestor of a");
            prop_assert!(g.ancestors(b).any(|n| n == l), "lca is an ancestor of b");
            // And the lowest one: the deepest node both chains share.
            let of_b: BTreeSet<NodeId> = g.ancestors(b).collect();
            let deepest = g
                .ancestors(a)
                .filter(|n| of_b.contains(n))
                .max_by_key(|n| g.node(*n).depth)
                .expect("the root is a common ancestor");
            prop_assert_eq!(l, deepest, "lca is the deepest common ancestor");
        }

        #[test]
        fn diff_partitions_the_target_state(
            ops in prop::collection::vec(op_strategy(), 1..40),
            a in any::<u8>(),
            b in any::<u8>(),
        ) {
            let g = build(&ops);
            let a = NodeId(a as u32 % g.len() as u32);
            let b = NodeId(b as u32 % g.len() as u32);
            let plan = g.diff(a, b);
            let target = g.state_at(b);
            let current = g.state_at(a);
            // load ∪ identical == target keys, disjointly.
            let mut covered: BTreeSet<CoVarKey> = plan.identical.iter().cloned().collect();
            for (k, v) in &plan.load {
                prop_assert_eq!(Some(v), target.get(k), "load version is the target version");
                prop_assert!(covered.insert(k.clone()), "load and identical overlap on {:?}", k);
            }
            let target_keys: BTreeSet<CoVarKey> = target.keys().cloned().collect();
            prop_assert_eq!(covered, target_keys);
            // remove == current − target.
            let expected_remove: BTreeSet<CoVarKey> = current
                .keys()
                .filter(|k| !target.contains_key(*k))
                .cloned()
                .collect();
            let remove: BTreeSet<CoVarKey> = plan.remove.into_iter().collect();
            prop_assert_eq!(remove, expected_remove);
        }

        #[test]
        fn diff_to_self_is_empty(ops in prop::collection::vec(op_strategy(), 1..40), a in any::<u8>()) {
            let g = build(&ops);
            let a = NodeId(a as u32 % g.len() as u32);
            let plan = g.diff(a, a);
            prop_assert!(plan.load.is_empty());
            prop_assert!(plan.remove.is_empty());
            prop_assert_eq!(plan.identical.len(), g.state_at(a).len());
        }

        #[test]
        fn definition6_matches_version_equality(
            ops in prop::collection::vec(op_strategy(), 1..40),
            a in any::<u8>(),
            b in any::<u8>(),
            k in any::<u8>(),
        ) {
            let g = build(&ops);
            let a = NodeId(a as u32 % g.len() as u32);
            let b = NodeId(b as u32 % g.len() as u32);
            let x = key_of(k);
            let same_version = match (g.state_at(a).get(&x), g.state_at(b).get(&x)) {
                (Some(va), Some(vb)) => va == vb,
                _ => false,
            };
            prop_assert_eq!(g.identical(&x, a, b), same_version);
        }

        #[test]
        fn metadata_serializes_and_roundtrips(ops in prop::collection::vec(op_strategy(), 1..25)) {
            let g = build(&ops);
            let text = g.to_json().dump();
            let back = CheckpointGraph::from_json(&Json::parse(&text).expect("parses"))
                .expect("deserializes");
            prop_assert_eq!(back.len(), g.len());
            prop_assert_eq!(back.head(), g.head());
            prop_assert_eq!(back.state_at(g.head()), g.state_at(g.head()));
            prop_assert_eq!(back.branches(), g.branches(), "branches survive the round trip");
            prop_assert_eq!(back.tags(), g.tags(), "tags survive the round trip");
        }

        /// The incrementally-maintained modified-in index answers `history`
        /// identically to the brute-force ancestor-chain scan, for every
        /// variable at every node, after arbitrary commit/checkout/branch
        /// interleavings — and the rebuilt-from-JSON index does too.
        #[test]
        fn history_index_matches_bruteforce_oracle(
            ops in prop::collection::vec(op_strategy(), 1..40),
            at in any::<u8>(),
        ) {
            let g = build(&ops);
            let at = NodeId(at as u32 % g.len() as u32);
            let rebuilt = CheckpointGraph::from_json(
                &Json::parse(&g.to_json().dump()).expect("parses"),
            )
            .expect("deserializes");
            for k in 0..10u8 {
                let name = format!("v{k}");
                let oracle = g.history_bruteforce(&name, at);
                prop_assert_eq!(&g.history(&name, at), &oracle, "live index, var {}", name);
                prop_assert_eq!(&rebuilt.history(&name, at), &oracle, "rebuilt index, var {}", name);
            }
        }

        /// The all-branches `search` read of the modified-in index matches
        /// the whole-graph brute-force scan for every variable, after
        /// arbitrary interleavings — live and rebuilt-from-JSON.
        #[test]
        fn search_index_matches_bruteforce_oracle(
            ops in prop::collection::vec(op_strategy(), 1..40),
        ) {
            let g = build(&ops);
            let rebuilt = CheckpointGraph::from_json(
                &Json::parse(&g.to_json().dump()).expect("parses"),
            )
            .expect("deserializes");
            for k in 0..10u8 {
                let name = format!("v{k}");
                let oracle = g.search_bruteforce(&name);
                prop_assert_eq!(&g.search(&name), &oracle, "live index, var {}", name);
                prop_assert_eq!(&rebuilt.search(&name), &oracle, "rebuilt index, var {}", name);
            }
        }

        /// `history` results are always on the ancestor chain, sorted
        /// oldest-first, and each names a commit that really touched the
        /// variable.
        #[test]
        fn history_entries_are_touching_ancestors_in_order(
            ops in prop::collection::vec(op_strategy(), 1..40),
            at in any::<u8>(),
            k in any::<u8>(),
        ) {
            let g = build(&ops);
            let at = NodeId(at as u32 % g.len() as u32);
            let name = format!("v{}", k % 10);
            let hits = g.history(&name, at);
            for w in hits.windows(2) {
                prop_assert!(
                    g.node(w[0]).timestamp < g.node(w[1]).timestamp,
                    "oldest first"
                );
            }
            for id in &hits {
                prop_assert!(g.ancestors(at).any(|n| n == *id), "on the chain");
                let node = g.node(*id);
                let touches = node
                    .delta
                    .iter()
                    .any(|sc| sc.names.iter().any(|n| n == &name))
                    || node.deleted.iter().any(|key| key.iter().any(|n| n == &name));
                prop_assert!(touches, "commit {:?} touched {}", id, name);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The graph decoder fails closed: a real snapshot with one to
        /// three edits either fails to parse, fails `from_json`, or
        /// decodes to a graph whose read surface runs without panicking
        /// and whose snapshot decodes again.
        #[test]
        fn mutated_snapshots_fail_closed(
            ops in prop::collection::vec(op_strategy(), 1..40),
            mutations in prop::collection::vec(mutation_strategy(), 1..4),
            pairs in prop::collection::vec((any::<u8>(), any::<u8>()), 4),
        ) {
            let mut bytes = build(&ops).to_json().dump().into_bytes();
            for m in &mutations {
                mutate(&mut bytes, m);
            }
            let Ok(json) = Json::parse_bytes(&bytes) else { return Ok(()) };
            let Ok(g) = CheckpointGraph::from_json(&json) else { return Ok(()) };
            let n = g.len() as u32;
            for (a, b) in pairs {
                let (a, b) = (NodeId(u32::from(a) % n), NodeId(u32::from(b) % n));
                let name = format!("v{}", a.0 % 10);
                g.lca(a, b);
                g.diff(a, b);
                crate::query::diff_report(&g, a, b);
                for key in g.state_at(a).keys() {
                    g.identical(key, a, b);
                }
                g.history(&name, b);
                g.search(&name);
                crate::query::history(&g, &name, b);
                crate::query::search(&g, &name);
            }
            g.log();
            prop_assert!(CheckpointGraph::from_json(&g.to_json()).is_ok(), "re-encoded graph decodes");
        }
    }
}

#[cfg(test)]
mod json_format_tests {
    use super::*;
    use crate::covariable::key;

    fn sample_graph() -> CheckpointGraph {
        let mut g = CheckpointGraph::new();
        let t1 = g.commit(
            "df = load()\ngmm = init()".into(),
            vec![
                StoredCoVar { names: key(&["df"]), blob: Some(0), bytes: 128 },
                StoredCoVar { names: key(&["gmm"]), blob: None, bytes: 0 },
            ],
            vec![],
            vec![],
        );
        g.commit(
            "gmm.fit(k=3)".into(),
            vec![StoredCoVar { names: key(&["gmm", "aux"]), blob: Some(1), bytes: 64 }],
            vec![key(&["gmm"])],
            vec![(key(&["gmm"]), t1)],
        );
        g.set_head(t1);
        g.set_branch("main", NodeId(2)).expect("branch");
        g.set_tag("base", t1).expect("tag");
        g
    }

    /// Full-fidelity round trip: every field of every node survives
    /// graph → testkit-JSON text → parse → graph.
    #[test]
    fn json_roundtrip_preserves_every_field() {
        let g = sample_graph();
        let text = g.to_json().dump();
        let back = CheckpointGraph::from_json(&Json::parse(&text).expect("parses"))
            .expect("deserializes");
        assert_eq!(back.len(), g.len());
        assert_eq!(back.head(), g.head());
        assert_eq!(back.branches(), g.branches());
        assert_eq!(back.tags(), g.tags());
        for i in 0..g.len() {
            let (a, b) = (g.node(NodeId(i as u32)), back.node(NodeId(i as u32)));
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.timestamp, b.timestamp);
            assert_eq!(a.cell_code, b.cell_code);
            assert_eq!(a.deleted, b.deleted);
            assert_eq!(a.deps, b.deps);
            assert_eq!(a.delta.len(), b.delta.len());
            for (sa, sb) in a.delta.iter().zip(&b.delta) {
                assert_eq!(sa.names, sb.names);
                assert_eq!(sa.blob, sb.blob);
                assert_eq!(sa.bytes, sb.bytes);
            }
        }
        // Serialization is deterministic: same graph, same bytes.
        assert_eq!(text, back.to_json().dump());
    }

    /// Pins the exact persisted bytes of the checkpoint blob format.
    /// If this test fails, `Session::resume` can no longer read existing
    /// checkpoint stores: bump `format_version` and add a legacy reader
    /// instead of editing the expectation blindly.
    #[test]
    fn golden_bytes_pin_the_blob_format() {
        let golden = concat!(
            r#"{"format_version":2,"head":1,"next_timestamp":3,"#,
            r#""branches":{"main":2},"tags":{"base":1},"nodes":["#,
            r#"{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]},"#,
            r#"{"parent":0,"depth":1,"timestamp":1,"cell_code":"df = load()\ngmm = init()","#,
            r#""delta":[{"names":["df"],"blob":0,"bytes":128},{"names":["gmm"],"blob":null,"bytes":0}],"#,
            r#""deleted":[],"deps":[]},"#,
            r#"{"parent":1,"depth":2,"timestamp":2,"cell_code":"gmm.fit(k=3)","#,
            r#""delta":[{"names":["aux","gmm"],"blob":1,"bytes":64}],"#,
            r#""deleted":[["gmm"]],"deps":[[["gmm"],1]]}]}"#,
        );
        assert_eq!(sample_graph().to_json().dump(), golden);
        // And the pinned bytes parse back to a working graph.
        let g = CheckpointGraph::from_json(&Json::parse(golden).expect("parses"))
            .expect("deserializes");
        assert_eq!(g.head(), NodeId(1));
        assert_eq!(g.len(), 3);
        assert_eq!(g.branch("main"), Some(NodeId(2)));
        assert_eq!(g.tag("base"), Some(NodeId(1)));
    }

    /// v1 blobs (written before named refs existed) must keep parsing:
    /// stores checkpointed by older builds are resumed by newer ones.
    #[test]
    fn legacy_v1_blobs_still_parse() {
        let v1 = concat!(
            r#"{"format_version":1,"head":1,"next_timestamp":3,"nodes":["#,
            r#"{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]},"#,
            r#"{"parent":0,"depth":1,"timestamp":1,"cell_code":"df = load()\ngmm = init()","#,
            r#""delta":[{"names":["df"],"blob":0,"bytes":128},{"names":["gmm"],"blob":null,"bytes":0}],"#,
            r#""deleted":[],"deps":[]},"#,
            r#"{"parent":1,"depth":2,"timestamp":2,"cell_code":"gmm.fit(k=3)","#,
            r#""delta":[{"names":["aux","gmm"],"blob":1,"bytes":64}],"#,
            r#""deleted":[["gmm"]],"deps":[[["gmm"],1]]}]}"#,
        );
        let g = CheckpointGraph::from_json(&Json::parse(v1).expect("parses"))
            .expect("legacy blob deserializes");
        assert_eq!(g.head(), NodeId(1));
        assert_eq!(g.len(), 3);
        assert!(g.branches().is_empty() && g.tags().is_empty());
        // The derived modified-in index is rebuilt for legacy blobs too.
        assert_eq!(g.history("gmm", NodeId(2)), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn from_json_rejects_corrupt_graphs() {
        for (label, text) in [
            ("bad version", r#"{"format_version":99,"head":0,"next_timestamp":1,"nodes":[]}"#),
            ("no nodes", r#"{"format_version":1,"head":0,"next_timestamp":1,"nodes":[]}"#),
            (
                "head out of range",
                r#"{"format_version":1,"head":9,"next_timestamp":1,"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "forward parent",
                r#"{"format_version":1,"head":0,"next_timestamp":1,"nodes":[{"parent":1,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "branch targets missing node",
                r#"{"format_version":2,"head":0,"next_timestamp":1,"branches":{"main":7},"tags":{},"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "tags not an object",
                r#"{"format_version":2,"head":0,"next_timestamp":1,"branches":{},"tags":[],"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "root depth not 0",
                r#"{"format_version":2,"head":1,"next_timestamp":2,"branches":{},"tags":{},"nodes":[{"parent":null,"depth":3,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]},{"parent":0,"depth":4,"timestamp":1,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "child depth not parent's + 1",
                r#"{"format_version":2,"head":1,"next_timestamp":2,"branches":{},"tags":{},"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]},{"parent":0,"depth":5,"timestamp":1,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "parent past u32",
                r#"{"format_version":2,"head":1,"next_timestamp":2,"branches":{},"tags":{},"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]},{"parent":4294967296,"depth":1,"timestamp":1,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "head past u32",
                r#"{"format_version":2,"head":4294967296,"next_timestamp":1,"branches":{},"tags":{},"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]}]}"#,
            ),
            (
                "dep version names no earlier node",
                r#"{"format_version":2,"head":1,"next_timestamp":2,"branches":{},"tags":{},"nodes":[{"parent":null,"depth":0,"timestamp":0,"cell_code":"","delta":[],"deleted":[],"deps":[]},{"parent":0,"depth":1,"timestamp":1,"cell_code":"","delta":[],"deleted":[],"deps":[[["x"],7]]}]}"#,
            ),
        ] {
            let json = Json::parse(text).expect("well-formed JSON");
            assert!(CheckpointGraph::from_json(&json).is_err(), "{label} should be rejected");
        }
    }
}
