//! The pickle decoder.
//!
//! Mirrors the writer's pre-order memoization: when a container tag is read,
//! an empty object is allocated and memoized *before* its children are
//! decoded, so back-references (including cycles) resolve to the right
//! handle; the container is then filled in place.

use kishu_kernel::{ClassId, External, Function, Heap, Instance, ObjId, ObjKind};

use crate::error::PickleError;
use crate::reduce::Reducer;
use crate::varint::{read_i64, read_u64};
use crate::writer::{Tag, MAGIC, MAX_DEPTH};

/// Streaming decoder for one blob.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    reducer: &'a dyn Reducer,
    memo: Vec<ObjId>,
}

impl<'a> Reader<'a> {
    /// New decoder over a blob.
    pub fn new(bytes: &'a [u8], reducer: &'a dyn Reducer) -> Self {
        Reader {
            bytes,
            pos: 0,
            reducer,
            memo: Vec::new(),
        }
    }

    /// Decode the blob into `heap`, returning the root handles.
    pub fn load(mut self, heap: &mut Heap) -> Result<Vec<ObjId>, PickleError> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            return Err(self.corrupt("bad magic"));
        }
        let count = self.u64()? as usize;
        if count > self.bytes.len() {
            return Err(self.corrupt("implausible root count"));
        }
        let mut roots = Vec::with_capacity(count);
        for _ in 0..count {
            roots.push(self.decode(heap, 0)?);
        }
        Ok(roots)
    }

    fn corrupt(&self, reason: &str) -> PickleError {
        PickleError::Corrupt {
            offset: self.pos,
            reason: reason.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PickleError> {
        if self.pos + n > self.bytes.len() {
            return Err(PickleError::Corrupt {
                offset: self.pos,
                reason: "unexpected end of stream".to_string(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, PickleError> {
        read_u64(self.bytes, &mut self.pos).ok_or_else(|| PickleError::Corrupt {
            offset: self.pos,
            reason: "bad varint".to_string(),
        })
    }

    fn i64(&mut self) -> Result<i64, PickleError> {
        read_i64(self.bytes, &mut self.pos).ok_or_else(|| PickleError::Corrupt {
            offset: self.pos,
            reason: "bad varint".to_string(),
        })
    }

    fn f64(&mut self) -> Result<f64, PickleError> {
        let raw = self.take(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(f64::from_le_bytes(bytes))
    }

    fn string(&mut self) -> Result<String, PickleError> {
        let len = self.u64()? as usize;
        if len > self.bytes.len() {
            return Err(self.corrupt("implausible string length"));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| PickleError::Corrupt {
            offset: self.pos,
            reason: "invalid utf-8".to_string(),
        })
    }

    fn decode(&mut self, heap: &mut Heap, depth: usize) -> Result<ObjId, PickleError> {
        if depth > MAX_DEPTH {
            return Err(PickleError::TooDeep);
        }
        let tag_byte = self.take(1)?[0];
        let tag = Tag::from_byte(tag_byte).ok_or_else(|| PickleError::Corrupt {
            offset: self.pos,
            reason: format!("unknown tag {tag_byte}"),
        })?;
        match tag {
            Tag::Ref => {
                let idx = self.u64()? as usize;
                self.memo.get(idx).copied().ok_or_else(|| PickleError::Corrupt {
                    offset: self.pos,
                    reason: format!("dangling memo reference {idx}"),
                })
            }
            Tag::None => self.leaf(heap, ObjKind::None),
            Tag::True => self.leaf(heap, ObjKind::Bool(true)),
            Tag::False => self.leaf(heap, ObjKind::Bool(false)),
            Tag::Int => {
                let v = self.i64()?;
                self.leaf(heap, ObjKind::Int(v))
            }
            Tag::Float => {
                let v = self.f64()?;
                self.leaf(heap, ObjKind::Float(v))
            }
            Tag::Str => {
                let s = self.string()?;
                self.leaf(heap, ObjKind::Str(s))
            }
            Tag::List => self.container(heap, depth, ContainerKind::List),
            Tag::Tuple => self.container(heap, depth, ContainerKind::Tuple),
            Tag::Set => self.container(heap, depth, ContainerKind::Set),
            Tag::Dict => {
                let count = self.u64()? as usize;
                if count > self.bytes.len() {
                    return Err(self.corrupt("implausible dict size"));
                }
                let id = heap.alloc(ObjKind::Dict(Vec::new()));
                self.memo.push(id);
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    let k = self.decode(heap, depth + 1)?;
                    let v = self.decode(heap, depth + 1)?;
                    pairs.push((k, v));
                }
                heap.replace(id, ObjKind::Dict(pairs));
                Ok(id)
            }
            Tag::NdArray => {
                let count = self.u64()? as usize;
                if count.saturating_mul(8) > self.bytes.len() {
                    return Err(self.corrupt("implausible array size"));
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(self.f64()?);
                }
                self.leaf(heap, ObjKind::NdArray(values))
            }
            Tag::Series => {
                let name = self.string()?;
                let placeholder = heap.alloc(ObjKind::None);
                let id = heap.alloc(ObjKind::Series {
                    name: name.clone(),
                    values: placeholder,
                });
                self.memo.push(id);
                let values = self.decode(heap, depth + 1)?;
                heap.replace(id, ObjKind::Series { name, values });
                Ok(id)
            }
            Tag::DataFrame => {
                let count = self.u64()? as usize;
                if count > self.bytes.len() {
                    return Err(self.corrupt("implausible column count"));
                }
                let id = heap.alloc(ObjKind::DataFrame(Vec::new()));
                self.memo.push(id);
                let mut cols = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = self.string()?;
                    let col = self.decode(heap, depth + 1)?;
                    cols.push((name, col));
                }
                heap.replace(id, ObjKind::DataFrame(cols));
                Ok(id)
            }
            Tag::Instance => {
                let class_name = self.string()?;
                let count = self.u64()? as usize;
                if count > self.bytes.len() {
                    return Err(self.corrupt("implausible attr count"));
                }
                let id = heap.alloc(
                    Instance {
                        class_name: class_name.clone(),
                        attrs: Vec::new(),
                    }
                    .into(),
                );
                self.memo.push(id);
                let mut attrs = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = self.string()?;
                    let v = self.decode(heap, depth + 1)?;
                    attrs.push((name, v));
                }
                heap.replace(id, Instance { class_name, attrs }.into());
                Ok(id)
            }
            Tag::Function => {
                let name = self.string()?;
                let count = self.u64()? as usize;
                if count > self.bytes.len() {
                    return Err(self.corrupt("implausible param count"));
                }
                let mut params = Vec::with_capacity(count);
                for _ in 0..count {
                    params.push(self.string()?);
                }
                let source = self.string()?;
                self.leaf(
                    heap,
                    Function {
                        name,
                        params,
                        source,
                    }
                    .into(),
                )
            }
            Tag::External => {
                let class = ClassId(self.u64()? as u16);
                let epoch = self.u64()?;
                let len = self.u64()? as usize;
                if len > self.bytes.len() {
                    return Err(self.corrupt("implausible payload length"));
                }
                // The reducer reads the payload where it lies and makes
                // the heap's copy.
                let payload = self.reducer.rebuild(class, self.take(len)?)?;
                let id = heap.alloc(
                    External {
                        class,
                        attrs: Vec::new(),
                        payload,
                        epoch,
                    }
                    .into(),
                );
                self.memo.push(id);
                let count = self.u64()? as usize;
                if count > self.bytes.len() {
                    return Err(self.corrupt("implausible attr count"));
                }
                let mut attrs = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = self.string()?;
                    let v = self.decode(heap, depth + 1)?;
                    attrs.push((name, v));
                }
                heap.modify(id, |k| {
                    if let ObjKind::External(ext) = k {
                        ext.attrs = attrs;
                    }
                });
                Ok(id)
            }
        }
    }

    fn leaf(&mut self, heap: &mut Heap, kind: ObjKind) -> Result<ObjId, PickleError> {
        let id = heap.alloc(kind);
        self.memo.push(id);
        Ok(id)
    }

    fn container(
        &mut self,
        heap: &mut Heap,
        depth: usize,
        which: ContainerKind,
    ) -> Result<ObjId, PickleError> {
        let count = self.u64()? as usize;
        if count > self.bytes.len() {
            return Err(self.corrupt("implausible container size"));
        }
        let id = heap.alloc(which.empty());
        self.memo.push(id);
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(self.decode(heap, depth + 1)?);
        }
        heap.replace(id, which.filled(items));
        Ok(id)
    }
}

#[derive(Clone, Copy)]
enum ContainerKind {
    List,
    Tuple,
    Set,
}

impl ContainerKind {
    fn empty(self) -> ObjKind {
        self.filled(Vec::new())
    }

    fn filled(self, items: Vec<ObjId>) -> ObjKind {
        match self {
            ContainerKind::List => ObjKind::List(items),
            ContainerKind::Tuple => ObjKind::Tuple(items),
            ContainerKind::Set => ObjKind::Set(items),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::reduce::NoopReducer;
    use crate::{dumps, loads};
    use kishu_testkit::prelude::*;

    /// A recipe for building a random object graph deterministically. Its
    /// variants reach every tag of the format: `Shared` holds one object
    /// twice, so the second occurrence is a `Ref`, and `External` is a
    /// library object whose payload goes through the reducer.
    #[derive(Debug, Clone)]
    enum Recipe {
        Int(i64),
        Float(f64),
        Str(String),
        Bool(bool),
        None,
        List(Vec<Recipe>),
        Tuple(Vec<Recipe>),
        Set(Vec<Recipe>),
        Dict(Vec<(String, Recipe)>),
        Array(Vec<f64>),
        Series(String, Box<Recipe>),
        DataFrame(Vec<(String, Recipe)>),
        Instance(String, Vec<(String, Recipe)>),
        Function(String, Vec<String>, String),
        External(u16, Vec<u8>, u64, Vec<(String, Recipe)>),
        Shared(Box<Recipe>),
    }

    fn recipe_strategy() -> impl Strategy<Value = Recipe> {
        let finite = || any::<f64>().prop_filter("finite", |f| f.is_finite());
        let leaf = prop_oneof![
            any::<i64>().prop_map(Recipe::Int),
            finite().prop_map(Recipe::Float),
            "[a-z]{0,12}".prop_map(Recipe::Str),
            any::<bool>().prop_map(Recipe::Bool),
            Just(Recipe::None),
            prop::collection::vec(finite(), 0..20).prop_map(Recipe::Array),
            (
                "[a-z]{1,6}",
                prop::collection::vec("[a-z]{1,4}", 0..4),
                "[a-z ():]{0,24}"
            )
                .prop_map(|(name, params, body)| Recipe::Function(name, params, body)),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            let named = || prop::collection::vec(("[a-z]{1,6}", inner.clone()), 0..6);
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Recipe::List),
                prop::collection::vec(inner.clone(), 0..8).prop_map(Recipe::Tuple),
                prop::collection::vec(inner.clone(), 0..8).prop_map(Recipe::Set),
                named().prop_map(Recipe::Dict),
                ("[a-z]{0,6}", inner.clone()).prop_map(|(n, v)| Recipe::Series(n, Box::new(v))),
                named().prop_map(Recipe::DataFrame),
                ("[A-Z][a-z]{0,6}", named()).prop_map(|(c, attrs)| Recipe::Instance(c, attrs)),
                (
                    any::<u16>(),
                    prop::collection::vec(any::<u8>(), 0..64),
                    any::<u64>(),
                    named(),
                )
                    .prop_map(|(class, payload, epoch, attrs)| {
                        Recipe::External(class, payload, epoch, attrs)
                    }),
                inner.clone().prop_map(|r| Recipe::Shared(Box::new(r))),
            ]
        })
    }

    fn build(heap: &mut Heap, r: &Recipe) -> ObjId {
        let all = |heap: &mut Heap, items: &[Recipe]| -> Vec<ObjId> {
            items.iter().map(|i| build(heap, i)).collect()
        };
        let named = |heap: &mut Heap, pairs: &[(String, Recipe)]| -> Vec<(String, ObjId)> {
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), build(heap, v)))
                .collect()
        };
        match r {
            Recipe::Int(v) => heap.alloc(ObjKind::Int(*v)),
            Recipe::Float(v) => heap.alloc(ObjKind::Float(*v)),
            Recipe::Str(s) => heap.alloc(ObjKind::Str(s.clone())),
            Recipe::Bool(b) => heap.alloc(ObjKind::Bool(*b)),
            Recipe::None => heap.alloc(ObjKind::None),
            Recipe::Array(vs) => heap.alloc(ObjKind::NdArray(vs.clone())),
            Recipe::List(items) => {
                let ids = all(heap, items);
                heap.alloc(ObjKind::List(ids))
            }
            Recipe::Tuple(items) => {
                let ids = all(heap, items);
                heap.alloc(ObjKind::Tuple(ids))
            }
            Recipe::Set(items) => {
                let ids = all(heap, items);
                heap.alloc(ObjKind::Set(ids))
            }
            Recipe::Dict(pairs) => {
                let ps: Vec<(ObjId, ObjId)> = pairs
                    .iter()
                    .map(|(k, v)| {
                        let kid = heap.alloc(ObjKind::Str(k.clone()));
                        let vid = build(heap, v);
                        (kid, vid)
                    })
                    .collect();
                heap.alloc(ObjKind::Dict(ps))
            }
            Recipe::Series(name, values) => {
                let values = build(heap, values);
                heap.alloc(ObjKind::Series {
                    name: name.clone(),
                    values,
                })
            }
            Recipe::DataFrame(cols) => {
                let cols = named(heap, cols);
                heap.alloc(ObjKind::DataFrame(cols))
            }
            Recipe::Instance(class_name, attrs) => {
                let attrs = named(heap, attrs);
                heap.alloc(
                    Instance {
                        class_name: class_name.clone(),
                        attrs,
                    }
                    .into(),
                )
            }
            Recipe::Function(name, params, body) => heap.alloc(
                Function {
                    name: name.clone(),
                    params: params.clone(),
                    source: format!("def {name}({}): {body}", params.join(", ")),
                }
                .into(),
            ),
            Recipe::External(class, payload, epoch, attrs) => {
                let attrs = named(heap, attrs);
                heap.alloc(
                    External {
                        class: ClassId(*class),
                        attrs,
                        payload: payload.clone(),
                        epoch: *epoch,
                    }
                    .into(),
                )
            }
            Recipe::Shared(inner) => {
                let id = build(heap, inner);
                heap.alloc(ObjKind::List(vec![id, id]))
            }
        }
    }

    /// Structural equality of two decoded graphs (ignoring ObjIds).
    fn structurally_equal(heap: &Heap, a: ObjId, b: ObjId) -> bool {
        let eq = |x: &ObjId, y: &ObjId| structurally_equal(heap, *x, *y);
        let all =
            |x: &[ObjId], y: &[ObjId]| x.len() == y.len() && x.iter().zip(y).all(|(i, j)| eq(i, j));
        let named = |x: &[(String, ObjId)], y: &[(String, ObjId)]| {
            x.len() == y.len() && x.iter().zip(y).all(|((n, i), (m, j))| n == m && eq(i, j))
        };
        match (heap.kind(a), heap.kind(b)) {
            (ka, kb) if ka.is_primitive() && kb.is_primitive() => ka == kb,
            (ObjKind::NdArray(x), ObjKind::NdArray(y)) => x == y,
            (ObjKind::List(x), ObjKind::List(y))
            | (ObjKind::Tuple(x), ObjKind::Tuple(y))
            | (ObjKind::Set(x), ObjKind::Set(y)) => all(x, y),
            (ObjKind::Dict(x), ObjKind::Dict(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((kx, vx), (ky, vy))| eq(kx, ky) && eq(vx, vy))
            }
            (ObjKind::Series { name: n, values: x }, ObjKind::Series { name: m, values: y }) => {
                n == m && eq(x, y)
            }
            (ObjKind::DataFrame(x), ObjKind::DataFrame(y)) => named(x, y),
            (ObjKind::Instance(x), ObjKind::Instance(y)) => {
                x.class_name == y.class_name && named(&x.attrs, &y.attrs)
            }
            (f @ ObjKind::Function(_), g @ ObjKind::Function(_)) => f == g,
            (ObjKind::External(x), ObjKind::External(y)) => {
                x.class == y.class
                    && x.payload == y.payload
                    && x.epoch == y.epoch
                    && named(&x.attrs, &y.attrs)
            }
            _ => false,
        }
    }

    /// One edit to a blob, as `mutated_snapshots_fail_closed` applies to
    /// graph snapshots.
    #[derive(Debug, Clone)]
    enum Edit {
        /// XOR the byte at `at` (modulo the length) with `mask | 1`.
        Flip(usize, u8),
        /// Overwrite the byte at `at` (modulo the length) with `b`.
        Overwrite(usize, u8),
        /// Keep the first `at` (modulo the length + 1) bytes.
        Truncate(usize),
        /// Append bytes.
        Append(Vec<u8>),
    }

    fn edit_strategy() -> impl Strategy<Value = Edit> {
        prop_oneof![
            3 => any::<(usize, u8)>().prop_map(|(at, mask)| Edit::Flip(at, mask)),
            2 => any::<(usize, u8)>().prop_map(|(at, b)| Edit::Overwrite(at, b)),
            1 => any::<usize>().prop_map(Edit::Truncate),
            1 => prop::collection::vec(any::<u8>(), 1..16).prop_map(Edit::Append),
        ]
    }

    fn apply(blob: &mut Vec<u8>, edit: &Edit) {
        match edit {
            Edit::Flip(at, mask) if !blob.is_empty() => {
                let i = at % blob.len();
                blob[i] ^= mask | 1;
            }
            Edit::Overwrite(at, b) if !blob.is_empty() => {
                let i = at % blob.len();
                blob[i] = *b;
            }
            Edit::Truncate(at) => blob.truncate(at % (blob.len() + 1)),
            Edit::Append(bytes) => blob.extend_from_slice(bytes),
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_graphs_roundtrip(recipe in recipe_strategy()) {
            let mut heap = Heap::new();
            let root = build(&mut heap, &recipe);
            let blob = dumps(&heap, &[root], &NoopReducer).expect("dumps");
            let back = loads(&mut heap, &blob, &NoopReducer).expect("loads");
            prop_assert!(structurally_equal(&heap, root, back[0]));
        }

        #[test]
        fn redump_is_byte_identical(recipe in recipe_strategy()) {
            let mut heap = Heap::new();
            let root = build(&mut heap, &recipe);
            let blob1 = dumps(&heap, &[root], &NoopReducer).expect("dumps");
            let back = loads(&mut heap, &blob1, &NoopReducer).expect("loads");
            let blob2 = dumps(&heap, &back, &NoopReducer).expect("redump");
            prop_assert_eq!(blob1, blob2);
        }

        #[test]
        fn decoder_never_panics_on_corruption(
            recipe in recipe_strategy(),
            edits in prop::collection::vec(edit_strategy(), 1..4),
        ) {
            let mut heap = Heap::new();
            let root = build(&mut heap, &recipe);
            let mut blob = dumps(&heap, &[root], &NoopReducer).expect("dumps");
            for edit in &edits {
                apply(&mut blob, edit);
            }
            // Must either decode to something or return an error — no panic.
            let _ = loads(&mut heap, &blob, &NoopReducer);
        }

        #[test]
        fn decoder_never_panics_on_truncation(recipe in recipe_strategy(), cut in any::<usize>()) {
            let mut heap = Heap::new();
            let root = build(&mut heap, &recipe);
            let blob = dumps(&heap, &[root], &NoopReducer).expect("dumps");
            let cut = cut % (blob.len() + 1);
            let _ = loads(&mut heap, &blob[..cut], &NoopReducer);
        }
    }
}
