//! Object model of the simulated kernel.
//!
//! Mirrors CPython's object model closely enough for Kishu's algorithms to be
//! meaningful: every value is a heap object with a stable identity (its
//! simulated memory address, the analogue of CPython `id()`), and containers
//! hold *references* to other objects, never inline copies. Shared references
//! — the thing co-variables exist to preserve — arise exactly as in Python:
//! by binding the same object behind two reachable paths.

use std::fmt;

/// Handle to an object in a [`crate::Heap`]. Indexes the heap's slot table.
///
/// An `ObjId` is only meaningful together with the heap that issued it.
/// Identity of `ObjId`s is object identity: two variables share state iff the
/// same `ObjId` is reachable from both (the paper's Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Raw slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Identifier of a simulated data-science library class (see `kishu-libsim`).
///
/// External objects (`ObjKind::External`) carry a `ClassId`; the class
/// registry supplies behavioural flags (serializable? dynamically generated
/// reachables? off-process?) that drive the Fig 12 / Table 4 / Table 5
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

/// The kind (type + payload) of a heap object.
///
/// Variants are chosen to cover the shapes the paper's workloads exercise:
/// primitives, Python containers, array-likes (NumPy-style buffers),
/// dataframe-likes, user-defined instances with attributes, functions
/// (pickled by source, as cloudpickle does), opaque generators (the canonical
/// unserializable/untraversable object, §4.2), and `External` library objects
/// whose behaviour is described by the class registry.
///
/// `Instance`, `Function` and `External` keep their fields behind a `Box`
/// ([`Instance`], [`Function`], [`External`]). Inline, `External` alone
/// made every `ObjKind` 72 bytes; boxed, the largest inline variant is
/// `Series` and an `ObjKind` is 32 bytes, so each heap slot is 48 (see
/// [`crate::heap`]). The three are few next to the ints, floats, strings
/// and containers a cell allocates by the hundred thousand, so their extra
/// allocation buys half the slot table of every heap. Build them with
/// `.into()` from their field structs.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjKind {
    /// Python `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer. Not interned: every literal allocates a fresh object,
    /// so identity sharing only arises from genuine reference assignment.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Immutable string.
    Str(String),
    /// Mutable ordered list of references.
    List(Vec<ObjId>),
    /// Immutable tuple of references.
    Tuple(Vec<ObjId>),
    /// Insertion-ordered dictionary; both keys and values are references.
    Dict(Vec<(ObjId, ObjId)>),
    /// Unordered set of references (stored in insertion order).
    Set(Vec<ObjId>),
    /// Contiguous numeric buffer (NumPy `ndarray` analogue). A leaf for
    /// reachability purposes, but its element pages can be dirtied in place
    /// (`arr[i] += 1`) — the case §4.3's Remark calls out.
    NdArray(Vec<f64>),
    /// Labelled 1-D column (pandas `Series` analogue): a name plus a
    /// reference to the backing values object (NdArray or List).
    Series {
        /// Column label.
        name: String,
        /// Backing values (usually `NdArray` or `List`).
        values: ObjId,
    },
    /// Column-oriented table (pandas `DataFrame` analogue): ordered
    /// `(column name, column object)` pairs.
    DataFrame(Vec<(String, ObjId)>),
    /// User-defined instance with attribute dictionary (`obj.foo = ...`).
    Instance(Box<Instance>),
    /// A minipy function. Serialized by source text (the cloudpickle
    /// strategy); calling it re-parses/caches in the interpreter.
    Function(Box<Function>),
    /// An opaque generator/iterator. Not traversable (no referencing
    /// instructions) and not serializable — Kishu must assume it updated on
    /// access and restore it by fallback recomputation (§4.2, §5.1).
    Generator {
        /// Distinguishes generator instances.
        token: u64,
    },
    /// An instance of a simulated library class.
    External(Box<External>),
}

/// The fields of an [`ObjKind::Instance`].
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Class name as written in the notebook (informational).
    pub class_name: String,
    /// Attribute slots, insertion-ordered.
    pub attrs: Vec<(String, ObjId)>,
}

/// The fields of an [`ObjKind::Function`].
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Full `def` source text (basis for pickling and body lookup).
    pub source: String,
}

/// The fields of an [`ObjKind::External`]. `attrs` are ordinary reachable
/// references; `payload` is the class-internal buffer the reduction
/// protocol serializes; `epoch` is bumped on in-place updates so update
/// detection has something to observe.
#[derive(Debug, Clone, PartialEq)]
pub struct External {
    /// Which simulated library class this is.
    pub class: ClassId,
    /// Reachable attribute references.
    pub attrs: Vec<(String, ObjId)>,
    /// Opaque class-internal bytes (weights, buffers, ...).
    pub payload: Vec<u8>,
    /// In-place modification counter.
    pub epoch: u64,
}

impl From<Instance> for ObjKind {
    fn from(fields: Instance) -> Self {
        ObjKind::Instance(Box::new(fields))
    }
}

impl From<Function> for ObjKind {
    fn from(fields: Function) -> Self {
        ObjKind::Function(Box::new(fields))
    }
}

impl From<External> for ObjKind {
    fn from(fields: External) -> Self {
        ObjKind::External(Box::new(fields))
    }
}

impl ObjKind {
    /// Short stable type tag, the analogue of `type(x).__name__`. VarGraph
    /// nodes store this (a type change at the same address is an update).
    pub fn type_tag(&self) -> &'static str {
        match self {
            ObjKind::None => "NoneType",
            ObjKind::Bool(_) => "bool",
            ObjKind::Int(_) => "int",
            ObjKind::Float(_) => "float",
            ObjKind::Str(_) => "str",
            ObjKind::List(_) => "list",
            ObjKind::Tuple(_) => "tuple",
            ObjKind::Dict(_) => "dict",
            ObjKind::Set(_) => "set",
            ObjKind::NdArray(_) => "ndarray",
            ObjKind::Series { .. } => "Series",
            ObjKind::DataFrame(_) => "DataFrame",
            ObjKind::Instance(_) => "instance",
            ObjKind::Function(_) => "function",
            ObjKind::Generator { .. } => "generator",
            ObjKind::External(_) => "external",
        }
    }

    /// Whether this object is an immutable primitive (a VarGraph *value*
    /// leaf rather than a pointer node).
    pub fn is_primitive(&self) -> bool {
        matches!(
            self,
            ObjKind::None | ObjKind::Bool(_) | ObjKind::Int(_) | ObjKind::Float(_) | ObjKind::Str(_)
        )
    }

    /// Whether reachability traversal can descend into this object. Opaque
    /// objects (generators) lack referencing instructions; Kishu treats them
    /// conservatively as updated whenever accessed (§4.2).
    pub fn is_traversable(&self) -> bool {
        !matches!(self, ObjKind::Generator { .. })
    }

    /// Reference edges to child objects, in deterministic order. This is the
    /// reachability relation of Definition 1 (subscript, class member,
    /// attribution all collapse to these edges).
    pub fn children(&self) -> Vec<ObjId> {
        match self {
            ObjKind::List(items) | ObjKind::Tuple(items) | ObjKind::Set(items) => items.clone(),
            ObjKind::Dict(pairs) => pairs.iter().flat_map(|(k, v)| [*k, *v]).collect(),
            ObjKind::Series { values, .. } => vec![*values],
            ObjKind::DataFrame(cols) => cols.iter().map(|(_, c)| *c).collect(),
            ObjKind::Instance(inst) => inst.attrs.iter().map(|(_, v)| *v).collect(),
            ObjKind::External(ext) => ext.attrs.iter().map(|(_, v)| *v).collect(),
            _ => Vec::new(),
        }
    }

    /// Approximate in-memory footprint in bytes, modelled on CPython
    /// `sys.getsizeof` shapes. Drives page allocation, checkpoint size
    /// accounting, and the workload "state size" statistics (Table 2).
    #[inline]
    pub fn shallow_size(&self) -> usize {
        match self {
            ObjKind::None => 16,
            ObjKind::Bool(_) => 28,
            ObjKind::Int(_) => 28,
            ObjKind::Float(_) => 24,
            ObjKind::Str(s) => 49 + s.len(),
            ObjKind::List(items) => 56 + 8 * items.len(),
            ObjKind::Tuple(items) => 40 + 8 * items.len(),
            ObjKind::Set(items) => 216 + 8 * items.len(),
            ObjKind::Dict(pairs) => 64 + 16 * pairs.len(),
            ObjKind::NdArray(values) => 112 + 8 * values.len(),
            ObjKind::Series { name, .. } => 120 + name.len(),
            ObjKind::DataFrame(cols) => {
                128 + cols.iter().map(|(n, _)| 16 + n.len()).sum::<usize>()
            }
            ObjKind::Instance(inst) => 48 + 16 * inst.attrs.len(),
            ObjKind::Function(f) => 120 + f.source.len(),
            ObjKind::Generator { .. } => 112,
            ObjKind::External(ext) => 64 + 16 * ext.attrs.len() + ext.payload.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_leaves() {
        assert!(ObjKind::Int(3).is_primitive());
        assert!(ObjKind::Str("x".into()).is_primitive());
        assert!(!ObjKind::List(vec![]).is_primitive());
        assert!(ObjKind::Int(3).children().is_empty());
    }

    #[test]
    fn generators_are_opaque() {
        assert!(!ObjKind::Generator { token: 7 }.is_traversable());
        assert!(ObjKind::List(vec![]).is_traversable());
    }

    #[test]
    fn dict_children_include_keys_and_values() {
        let kind = ObjKind::Dict(vec![(ObjId(1), ObjId(2)), (ObjId(3), ObjId(4))]);
        assert_eq!(kind.children(), vec![ObjId(1), ObjId(2), ObjId(3), ObjId(4)]);
    }

    #[test]
    fn sizes_scale_with_contents() {
        let small = ObjKind::NdArray(vec![0.0; 10]).shallow_size();
        let big = ObjKind::NdArray(vec![0.0; 1000]).shallow_size();
        assert!(big > small);
        assert_eq!(big - small, 8 * 990);
    }

    /// The boxed variants keep `ObjKind` at 32 bytes, which makes a heap
    /// slot 48 (`heap::tests::slots_are_48_bytes`).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn obj_kind_is_32_bytes() {
        assert_eq!(std::mem::size_of::<ObjKind>(), 32);
    }

    #[test]
    fn type_tags_are_stable() {
        assert_eq!(ObjKind::DataFrame(vec![]).type_tag(), "DataFrame");
        assert_eq!(ObjKind::None.type_tag(), "NoneType");
    }
}
