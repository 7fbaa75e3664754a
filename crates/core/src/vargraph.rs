//! VarGraphs: per-variable reachable-object graphs (§4.2).
//!
//! A VarGraph captures everything about a variable's connected component
//! that Definition 2 counts as an update: the set of reachable objects
//! (nodes, identified by simulated memory address), the reference structure
//! between them (children, in order), each object's type, and — uniquely
//! versus ElasticNotebook's ID graph — primitive *values*, so a different
//! primitive landing at a recycled address is still detected.
//!
//! Two conservative cases make a graph *volatile* (always considered
//! updated when its variable is accessed):
//!
//! * opaque objects (generators) cannot be traversed into;
//! * library classes flagged `dynamic_identity`/`nondet_pickle` produce
//!   freshly generated reachable objects on every traversal (simulated by a
//!   per-build nonce), the source of Table 5's 14 false positives and 12
//!   pickle errors.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use kishu_kernel::{External, Heap, ObjId, ObjKind};
use kishu_libsim::Registry;

use crate::xxh64::{xxh64_f64s, xxh64_str};

/// The recorded observation of one reachable object.
#[derive(Debug, Clone, PartialEq)]
pub struct VgNode {
    /// Simulated memory address (CPython `id()`): in-place updates keep it,
    /// rebinding and buffer growth change it.
    pub addr: u64,
    /// `type(x).__name__` analogue; a type change at the same address is an
    /// update.
    pub type_tag: &'static str,
    /// Kind-specific content observation.
    pub value: VgValue,
}

/// Content observation per node kind.
#[derive(Debug, Clone, PartialEq)]
pub enum VgValue {
    /// Primitive: hash of the value bytes.
    Primitive(u64),
    /// Container: child node indices within the graph's `nodes`, in
    /// reference order (captures edge additions/deletions/reorders).
    Container(Vec<u32>),
    /// Array fast path (§6.2): XXH64 of the element bytes.
    ArrayHash(u64),
    /// Array slow path (ablation): the full element vector.
    ArrayFull(Vec<f64>),
    /// Digest of a primitive-only list: one hash over every element's
    /// (address, type, value) in order (the §7.6 list-hashing extension).
    ListDigest(u64),
    /// Library object: epoch counter + payload hash + attribute children.
    External {
        /// In-place modification counter.
        epoch: u64,
        /// Hash of the class-internal payload.
        payload_hash: u64,
        /// Attribute child node indices.
        children: Vec<u32>,
    },
    /// A value that cannot be observed stably: opaque objects and
    /// dynamically-generated reachables. Carries a per-build nonce so two
    /// builds never compare equal.
    Volatile(u64),
}

/// A variable's reachable-object graph.
#[derive(Debug, Clone)]
pub struct VarGraph {
    /// Nodes in BFS order from the root.
    pub nodes: Vec<VgNode>,
    /// Currently reachable object handles (used for co-variable
    /// membership intersection, Fig 7).
    pub reachable: BTreeSet<ObjId>,
    /// Whether the graph contains a volatile node — if so, any comparison
    /// reports an update (the conservative direction).
    pub volatile: bool,
}

/// Configuration for VarGraph construction.
#[derive(Debug, Clone)]
pub struct VarGraphConfig {
    /// Class behaviour source.
    pub registry: Arc<Registry>,
    /// Use the XXH64 fast path for arrays (`true`, Kishu's default) or
    /// record full element vectors (`false`, the ablation in the
    /// `vargraph_vs_hash` bench).
    pub hash_arrays: bool,
    /// Collapse lists whose elements are all primitives into a single
    /// digest node instead of one node per element — the "list hashing"
    /// optimization §7.6 leaves as future work (the `Sklearn` `text_neg`
    /// case). Elements stay in the reachable set, so co-variable
    /// membership is unaffected; only the per-node records are collapsed.
    pub hash_primitive_lists: bool,
}

impl VarGraphConfig {
    /// Default configuration over a registry (hash fast path on, list
    /// hashing off — the paper's shipped configuration).
    pub fn new(registry: Arc<Registry>) -> Self {
        VarGraphConfig {
            registry,
            hash_arrays: true,
            hash_primitive_lists: false,
        }
    }
}

impl VarGraph {
    /// Build the VarGraph of the object bound to a variable.
    ///
    /// `nonce` is a session-level counter used to stamp volatile nodes; it
    /// is bumped on every volatile observation so no two builds of a
    /// volatile graph compare equal.
    pub fn build(heap: &Heap, root: ObjId, config: &VarGraphConfig, nonce: &mut u64) -> VarGraph {
        let mut index: HashMap<ObjId, u32> = HashMap::new();
        let mut order: Vec<ObjId> = Vec::new();
        let mut queue = VecDeque::new();
        index.insert(root, 0);
        order.push(root);
        queue.push_back(root);
        let mut digest_only: BTreeSet<ObjId> = BTreeSet::new();
        // First pass: BFS assigning node indices. Children of digestible
        // primitive-only lists join the reachable set but get no node.
        while let Some(id) = queue.pop_front() {
            let children = heap.children(id);
            if config.hash_primitive_lists && is_digestible_list(heap, id, &children) {
                digest_only.extend(children.iter().copied());
                continue;
            }
            for child in children {
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(child) {
                    e.insert(order.len() as u32);
                    order.push(child);
                    queue.push_back(child);
                }
            }
        }
        // Second pass: record observations.
        let mut nodes = Vec::with_capacity(order.len());
        let mut volatile = false;
        for id in &order {
            let kind = heap.kind(*id);
            let value = match kind {
                ObjKind::None => VgValue::Primitive(0),
                ObjKind::Bool(b) => VgValue::Primitive(1 + *b as u64),
                ObjKind::Int(v) => VgValue::Primitive(xxh64_str(&format!("i{v}"), 0)),
                ObjKind::Float(v) => VgValue::Primitive(v.to_bits().wrapping_mul(0x9E3779B97F4A7C15)),
                ObjKind::Str(s) => VgValue::Primitive(xxh64_str(s, 1)),
                ObjKind::NdArray(values) => {
                    if config.hash_arrays {
                        VgValue::ArrayHash(xxh64_f64s(values, 0))
                    } else {
                        VgValue::ArrayFull(values.clone())
                    }
                }
                ObjKind::Generator { .. } => {
                    volatile = true;
                    *nonce += 1;
                    VgValue::Volatile(*nonce)
                }
                ObjKind::External(ext) => {
                    let External {
                        class,
                        attrs,
                        payload,
                        epoch,
                    } = &**ext;
                    let behavior = config.registry.behavior(*class);
                    if behavior.volatile() {
                        volatile = true;
                        *nonce += 1;
                        VgValue::Volatile(*nonce)
                    } else {
                        let children = attrs
                            .iter()
                            .map(|(_, v)| index[v])
                            .collect();
                        VgValue::External {
                            epoch: *epoch,
                            payload_hash: crate::xxh64::xxh64(payload, 2),
                            children,
                        }
                    }
                }
                ObjKind::Function(f) => VgValue::Primitive(xxh64_str(&f.source, 3)),
                ObjKind::List(children)
                    if config.hash_primitive_lists
                        && is_digestible_list(heap, *id, children) =>
                {
                    VgValue::ListDigest(digest_primitive_list(heap, children))
                }
                _ => {
                    let children = heap.children(*id).iter().map(|c| index[c]).collect();
                    VgValue::Container(children)
                }
            };
            nodes.push(VgNode {
                addr: heap.addr(*id),
                type_tag: kind.type_tag(),
                value,
            });
        }
        let mut reachable: BTreeSet<ObjId> = order.into_iter().collect();
        reachable.extend(digest_only);
        VarGraph {
            nodes,
            reachable,
            volatile,
        }
    }

    /// Whether two builds of the same variable differ — Definition 2's
    /// "modified", plus the conservative volatile case.
    pub fn differs_from(&self, other: &VarGraph) -> bool {
        if self.volatile || other.volatile {
            return true;
        }
        self.nodes != other.nodes
    }

    /// Whether this graph's component intersects another's (shared
    /// reachable objects ⇒ same co-variable, Fig 7).
    pub fn intersects(&self, other: &VarGraph) -> bool {
        let (small, large) = if self.reachable.len() <= other.reachable.len() {
            (&self.reachable, &other.reachable)
        } else {
            (&other.reachable, &self.reachable)
        };
        small.iter().any(|id| large.contains(id))
    }

    /// Number of reachable objects.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a graph with no nodes (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Whether a list qualifies for the digest fast path: non-empty and all
/// elements primitive.
fn is_digestible_list(heap: &Heap, id: ObjId, children: &[ObjId]) -> bool {
    matches!(heap.kind(id), ObjKind::List(_))
        && !children.is_empty()
        && children.iter().all(|c| heap.kind(*c).is_primitive())
}

/// One hash over every element's identity, type, and value.
fn digest_primitive_list(heap: &Heap, children: &[ObjId]) -> u64 {
    let mut acc = 0x51u64;
    for c in children {
        let value_hash = match heap.kind(*c) {
            ObjKind::None => 0,
            ObjKind::Bool(b) => 1 + *b as u64,
            ObjKind::Int(v) => xxh64_str(&format!("i{v}"), 0),
            ObjKind::Float(v) => v.to_bits().wrapping_mul(0x9E3779B97F4A7C15),
            ObjKind::Str(s) => xxh64_str(s, 1),
            _ => unreachable!("digestible lists hold primitives only"),
        };
        acc = acc
            .rotate_left(13)
            .wrapping_add(heap.addr(*c))
            .rotate_left(7)
            .wrapping_add(value_hash);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_minipy::Interp;

    fn config() -> VarGraphConfig {
        VarGraphConfig {
            registry: Arc::new(Registry::standard()),
            hash_arrays: true,
            hash_primitive_lists: false,
        }
    }

    fn build_for(interp: &Interp, name: &str, cfg: &VarGraphConfig, nonce: &mut u64) -> VarGraph {
        let root = interp.globals.peek(name).expect("bound");
        VarGraph::build(&interp.heap, root, cfg, nonce)
    }

    fn run(interp: &mut Interp, src: &str) {
        let out = interp.run_cell(src).expect("parses");
        if let Some(e) = out.error {
            panic!("cell failed: {e}");
        }
    }

    #[test]
    fn unchanged_variable_compares_equal() {
        let mut i = Interp::new();
        run(&mut i, "ls = [1, 2, 3]\nother = [9]\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "ls", &cfg, &mut nonce);
        run(&mut i, "other.append(10)\n");
        let g2 = build_for(&i, "ls", &cfg, &mut nonce);
        assert!(!g1.differs_from(&g2));
    }

    #[test]
    fn in_place_update_is_detected() {
        let mut i = Interp::new();
        run(&mut i, "ls = [1, 2, 3]\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "ls", &cfg, &mut nonce);
        run(&mut i, "ls[0] = 99\n");
        let g2 = build_for(&i, "ls", &cfg, &mut nonce);
        assert!(g1.differs_from(&g2));
    }

    #[test]
    fn structural_change_is_detected() {
        let mut i = Interp::new();
        run(&mut i, "d = {'a': 1}\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "d", &cfg, &mut nonce);
        run(&mut i, "d['b'] = 2\n");
        let g2 = build_for(&i, "d", &cfg, &mut nonce);
        assert!(g1.differs_from(&g2));
    }

    #[test]
    fn array_single_element_update_detected_by_hash() {
        // §4.3's Remark: NumPy memory-based updates still invoked via
        // referencing are caught.
        let mut i = Interp::new();
        run(&mut i, "arr = zeros(1000)\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "arr", &cfg, &mut nonce);
        run(&mut i, "arr[500] = arr[500] + 1\n");
        let g2 = build_for(&i, "arr", &cfg, &mut nonce);
        assert!(g1.differs_from(&g2));
    }

    #[test]
    fn ablation_full_array_values_also_detect() {
        let mut i = Interp::new();
        run(&mut i, "arr = zeros(100)\n");
        let cfg = VarGraphConfig {
            registry: Arc::new(Registry::standard()),
            hash_arrays: false,
            hash_primitive_lists: false,
        };
        let mut nonce = 0;
        let g1 = build_for(&i, "arr", &cfg, &mut nonce);
        run(&mut i, "arr[3] = 7.0\n");
        let g2 = build_for(&i, "arr", &cfg, &mut nonce);
        assert!(g1.differs_from(&g2));
        assert!(matches!(g1.nodes[0].value, VgValue::ArrayFull(_)));
    }

    #[test]
    fn shared_reference_intersection() {
        // Fig 7: ser and obj share 'b', so their graphs intersect; df is
        // separate.
        let mut i = Interp::new();
        run(
            &mut i,
            "ser = series('mood', ['a', 'b', 'c'])\nobj = Object()\nobj.foo = ser.values[1]\ndf = read_csv('x', 10, 2, 1)\n",
        );
        let cfg = config();
        let mut nonce = 0;
        let g_ser = build_for(&i, "ser", &cfg, &mut nonce);
        let g_obj = build_for(&i, "obj", &cfg, &mut nonce);
        let g_df = build_for(&i, "df", &cfg, &mut nonce);
        assert!(g_ser.intersects(&g_obj));
        assert!(!g_ser.intersects(&g_df));
        assert!(!g_obj.intersects(&g_df));
    }

    #[test]
    fn rebinding_changes_address_hence_differs() {
        let mut i = Interp::new();
        run(&mut i, "x = [1, 2]\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "x", &cfg, &mut nonce);
        run(&mut i, "x = [1, 2]\n"); // same value, new object
        let g2 = build_for(&i, "x", &cfg, &mut nonce);
        assert!(g1.differs_from(&g2));
    }

    #[test]
    fn generators_make_graphs_volatile() {
        let mut i = Interp::new();
        run(&mut i, "g = make_generator()\nls = [g]\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "ls", &cfg, &mut nonce);
        let g2 = build_for(&i, "ls", &cfg, &mut nonce);
        assert!(g1.volatile);
        assert!(g1.differs_from(&g2), "volatile graphs always differ");
    }

    #[test]
    fn dynamic_identity_classes_are_false_positives() {
        let mut i = Interp::new();
        kishu_libsim::install(&mut i, Arc::new(Registry::standard()));
        run(&mut i, "fig = lib_obj('plt.Figure', 64, 1)\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "fig", &cfg, &mut nonce);
        let g2 = build_for(&i, "fig", &cfg, &mut nonce);
        assert!(g1.differs_from(&g2), "nothing changed, but detection is conservative");
    }

    #[test]
    fn clean_external_classes_compare_stably() {
        let mut i = Interp::new();
        kishu_libsim::install(&mut i, Arc::new(Registry::standard()));
        run(&mut i, "m = lib_obj('sk.KMeans', 64, 1)\n");
        let cfg = config();
        let mut nonce = 0;
        let g1 = build_for(&i, "m", &cfg, &mut nonce);
        let g2 = build_for(&i, "m", &cfg, &mut nonce);
        assert!(!g1.differs_from(&g2));
        run(&mut i, "m.fit(3)\n");
        let g3 = build_for(&i, "m", &cfg, &mut nonce);
        assert!(g1.differs_from(&g3), "fit must be detected");
    }

    #[test]
    fn cycles_terminate() {
        let mut i = Interp::new();
        run(&mut i, "a = []\na.append(a)\n");
        let cfg = config();
        let mut nonce = 0;
        let g = build_for(&i, "a", &cfg, &mut nonce);
        assert_eq!(g.len(), 1);
        assert_eq!(g.nodes[0].value, VgValue::Container(vec![0]));
    }
}
