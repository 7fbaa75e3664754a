//! The pickle encoder.
//!
//! Pre-order walk of the object graph from the roots. Every object is
//! memoized on first encounter (before its children are encoded, so cycles
//! terminate); later encounters emit a back-reference. The byte stream is
//! fully deterministic given the graph shape, which is what makes Kishu's
//! "same bytestring before and after checkout" guarantee testable.
//!
//! The encoder appends to one buffer, which may be its caller's
//! ([`Writer::dump_into`]). Before a payload-sized write (a library
//! object's reduced payload, an array's values) it reserves the payload
//! plus `PAYLOAD_SLACK` bytes, so a buffer that just grew to hold a large
//! payload is not doubled by the few bytes written after it.

use std::collections::HashMap;

use kishu_kernel::{External, Function, Heap, Instance, ObjId, ObjKind};

use crate::error::PickleError;
use crate::reduce::Reducer;
use crate::varint::{write_i64, write_u64};

/// Format magic (version 1).
pub const MAGIC: &[u8; 4] = b"KPK1";

/// Maximum nesting depth the encoder will follow.
pub const MAX_DEPTH: usize = 512;

/// Bytes reserved past each payload-sized write, for the encoding that
/// follows it.
const PAYLOAD_SLACK: usize = 4096;

/// Object tags of the wire format. Kept in one place so the reader and
/// writer cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// Back-reference to an already-encoded object.
    Ref = 0,
    /// `None`.
    None = 1,
    /// `True`.
    True = 2,
    /// `False`.
    False = 3,
    /// Signed integer.
    Int = 4,
    /// 64-bit float.
    Float = 5,
    /// UTF-8 string.
    Str = 6,
    /// List.
    List = 7,
    /// Tuple.
    Tuple = 8,
    /// Set.
    Set = 9,
    /// Dict.
    Dict = 10,
    /// Numeric array.
    NdArray = 11,
    /// Series.
    Series = 12,
    /// DataFrame.
    DataFrame = 13,
    /// Instance.
    Instance = 14,
    /// Function (by source).
    Function = 15,
    /// External class via reduction.
    External = 16,
}

impl Tag {
    /// Parse a tag byte.
    pub fn from_byte(b: u8) -> Option<Tag> {
        Some(match b {
            0 => Tag::Ref,
            1 => Tag::None,
            2 => Tag::True,
            3 => Tag::False,
            4 => Tag::Int,
            5 => Tag::Float,
            6 => Tag::Str,
            7 => Tag::List,
            8 => Tag::Tuple,
            9 => Tag::Set,
            10 => Tag::Dict,
            11 => Tag::NdArray,
            12 => Tag::Series,
            13 => Tag::DataFrame,
            14 => Tag::Instance,
            15 => Tag::Function,
            16 => Tag::External,
            _ => return None,
        })
    }
}

/// Streaming encoder over one heap.
pub struct Writer<'a> {
    heap: &'a Heap,
    reducer: &'a dyn Reducer,
    memo: HashMap<ObjId, u64>,
    out: Vec<u8>,
}

impl<'a> Writer<'a> {
    /// New encoder borrowing the heap and reduction instructions.
    pub fn new(heap: &'a Heap, reducer: &'a dyn Reducer) -> Self {
        Writer {
            heap,
            reducer,
            memo: HashMap::new(),
            out: Vec::new(),
        }
    }

    /// Encode the given roots into one blob.
    pub fn dump(self, roots: &[ObjId]) -> Result<Vec<u8>, PickleError> {
        let mut blob = Vec::new();
        self.dump_into(roots, &mut blob)?;
        Ok(blob)
    }

    /// Append the encoding of the given roots to `out`, after what it
    /// holds. On error `out` holds a partial encoding after its old bytes.
    pub fn dump_into(mut self, roots: &[ObjId], out: &mut Vec<u8>) -> Result<(), PickleError> {
        // The buffer moves in and out; its bytes are never copied.
        self.out = std::mem::take(out);
        let result = self.encode_roots(roots);
        *out = self.out;
        result
    }

    fn encode_roots(&mut self, roots: &[ObjId]) -> Result<(), PickleError> {
        self.out.extend_from_slice(MAGIC);
        write_u64(&mut self.out, roots.len() as u64);
        for root in roots {
            self.encode(*root, 0)?;
        }
        Ok(())
    }

    /// Room for a `len`-byte payload and [`PAYLOAD_SLACK`] after it.
    fn reserve_payload(&mut self, len: usize) {
        self.out.reserve(len.saturating_add(PAYLOAD_SLACK));
    }

    fn write_str(&mut self, s: &str) {
        write_u64(&mut self.out, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn encode(&mut self, id: ObjId, depth: usize) -> Result<(), PickleError> {
        if depth > MAX_DEPTH {
            return Err(PickleError::TooDeep);
        }
        if let Some(idx) = self.memo.get(&id) {
            self.out.push(Tag::Ref as u8);
            write_u64(&mut self.out, *idx);
            return Ok(());
        }
        let idx = self.memo.len() as u64;
        self.memo.insert(id, idx);
        // The heap borrow outlives `&mut self`, so the object's fields are
        // written straight from the heap.
        let heap = self.heap;
        match heap.kind(id) {
            ObjKind::None => self.out.push(Tag::None as u8),
            ObjKind::Bool(true) => self.out.push(Tag::True as u8),
            ObjKind::Bool(false) => self.out.push(Tag::False as u8),
            ObjKind::Int(v) => {
                self.out.push(Tag::Int as u8);
                write_i64(&mut self.out, *v);
            }
            ObjKind::Float(v) => {
                self.out.push(Tag::Float as u8);
                self.out.extend_from_slice(&v.to_le_bytes());
            }
            ObjKind::Str(s) => {
                self.out.push(Tag::Str as u8);
                self.write_str(s);
            }
            ObjKind::List(items) | ObjKind::Tuple(items) | ObjKind::Set(items) => {
                let tag = match heap.kind(id) {
                    ObjKind::List(_) => Tag::List,
                    ObjKind::Tuple(_) => Tag::Tuple,
                    _ => Tag::Set,
                };
                self.out.push(tag as u8);
                write_u64(&mut self.out, items.len() as u64);
                for &item in items {
                    self.encode(item, depth + 1)?;
                }
            }
            ObjKind::Dict(pairs) => {
                self.out.push(Tag::Dict as u8);
                write_u64(&mut self.out, pairs.len() as u64);
                for &(k, v) in pairs {
                    self.encode(k, depth + 1)?;
                    self.encode(v, depth + 1)?;
                }
            }
            ObjKind::NdArray(values) => {
                self.out.push(Tag::NdArray as u8);
                write_u64(&mut self.out, values.len() as u64);
                self.reserve_payload(8 * values.len());
                for v in values {
                    self.out.extend_from_slice(&v.to_le_bytes());
                }
            }
            ObjKind::Series { name, values } => {
                self.out.push(Tag::Series as u8);
                self.write_str(name);
                self.encode(*values, depth + 1)?;
            }
            ObjKind::DataFrame(cols) => {
                self.out.push(Tag::DataFrame as u8);
                write_u64(&mut self.out, cols.len() as u64);
                for (name, col) in cols {
                    self.write_str(name);
                    self.encode(*col, depth + 1)?;
                }
            }
            ObjKind::Instance(inst) => {
                let Instance { class_name, attrs } = &**inst;
                self.out.push(Tag::Instance as u8);
                self.write_str(class_name);
                write_u64(&mut self.out, attrs.len() as u64);
                for (name, v) in attrs {
                    self.write_str(name);
                    self.encode(*v, depth + 1)?;
                }
            }
            ObjKind::Function(f) => {
                let Function {
                    name,
                    params,
                    source,
                } = &**f;
                self.out.push(Tag::Function as u8);
                self.write_str(name);
                write_u64(&mut self.out, params.len() as u64);
                for p in params {
                    self.write_str(p);
                }
                self.write_str(source);
            }
            ObjKind::Generator { .. } => {
                return Err(PickleError::Unserializable {
                    type_tag: "generator".to_string(),
                });
            }
            ObjKind::External(ext) => {
                let External {
                    class,
                    attrs,
                    payload,
                    epoch,
                } = &**ext;
                let reduced = self.reducer.reduce(*class, payload)?;
                self.out.push(Tag::External as u8);
                write_u64(&mut self.out, class.0 as u64);
                write_u64(&mut self.out, *epoch);
                write_u64(&mut self.out, reduced.len() as u64);
                self.reserve_payload(reduced.len());
                self.out.extend_from_slice(&reduced);
                write_u64(&mut self.out, attrs.len() as u64);
                for (name, v) in attrs {
                    self.write_str(name);
                    self.encode(*v, depth + 1)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::NoopReducer;

    #[test]
    fn tags_roundtrip_bytes() {
        for b in 0..=16u8 {
            let t = Tag::from_byte(b).expect("valid tag");
            assert_eq!(t as u8, b);
        }
        assert!(Tag::from_byte(17).is_none());
        assert!(Tag::from_byte(255).is_none());
    }

    #[test]
    fn deterministic_encoding() {
        let mut heap = Heap::new();
        let a = heap.alloc(ObjKind::Int(1));
        let ls = heap.alloc(ObjKind::List(vec![a, a]));
        let b1 = Writer::new(&heap, &NoopReducer).dump(&[ls]).expect("dump");
        let b2 = Writer::new(&heap, &NoopReducer).dump(&[ls]).expect("dump");
        assert_eq!(b1, b2);
    }

    #[test]
    fn shared_object_encoded_once() {
        let mut heap = Heap::new();
        let big = heap.alloc(ObjKind::NdArray(vec![0.0; 1000]));
        let one = Writer::new(&heap, &NoopReducer).dump(&[big]).expect("dump");
        let ls = heap.alloc(ObjKind::List(vec![big, big, big]));
        let three = Writer::new(&heap, &NoopReducer).dump(&[ls]).expect("dump");
        // Three references share one encoding: far smaller than 3 copies.
        assert!(three.len() < one.len() + 64);
    }

    /// One blob holding every tag: a `Ref` (the array shared by the
    /// series, the frame and the root), and a library object whose payload
    /// goes through the reducer. Its bytes are the pickle format; it must
    /// load and dump again to the same bytes.
    #[test]
    fn golden_bytes_pin_the_pickle_format() {
        let mut heap = Heap::new();
        let mut leaf = |kind| heap.alloc(kind);
        let (none, yes, no) = (
            leaf(ObjKind::None),
            leaf(ObjKind::Bool(true)),
            leaf(ObjKind::Bool(false)),
        );
        let (int, float) = (leaf(ObjKind::Int(-300)), leaf(ObjKind::Float(1.5)));
        let (key, label) = (
            leaf(ObjKind::Str("k".into())),
            leaf(ObjKind::Str("é".into())),
        );
        let shared = leaf(ObjKind::NdArray(vec![0.25, -2.0]));
        let kinds = [
            ObjKind::Tuple(vec![int]),
            ObjKind::Set(vec![label]),
            ObjKind::Dict(vec![(key, float)]),
            ObjKind::Series {
                name: "s".into(),
                values: shared,
            },
            ObjKind::DataFrame(vec![("c".into(), shared)]),
            Instance {
                class_name: "P".into(),
                attrs: vec![("x".into(), int)],
            }
            .into(),
            Function {
                name: "f".into(),
                params: vec!["a".into(), "b".into()],
                source: "def f(a, b): return a".into(),
            }
            .into(),
            External {
                class: kishu_kernel::ClassId(300),
                attrs: vec![("n".into(), none)],
                payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
                epoch: 5,
            }
            .into(),
        ];
        let mut items = vec![none, yes, no, int, float, key, label, shared];
        items.extend(kinds.into_iter().map(|k| heap.alloc(k)));
        items.push(shared);
        let root = heap.alloc(ObjKind::List(items));
        let blob = Writer::new(&heap, &NoopReducer)
            .dump(&[root])
            .expect("dump");
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            "4b504b3101071101020304d70405000000000000f83f06016b0602c3a90b02",
            "000000000000d03f00000000000000c008010004090100070a01000600050c",
            "017300080d01016300080e015001017800040f016602016101621564656620",
            "6628612c2062293a2072657475726e206110ac020504deadbeef01016e0001",
            "0008",
        );
        assert_eq!(hex, golden);
        let back = crate::reader::Reader::new(&blob, &NoopReducer)
            .load(&mut heap)
            .expect("load");
        assert_eq!(
            Writer::new(&heap, &NoopReducer)
                .dump(&back)
                .expect("redump"),
            blob
        );
    }

    #[test]
    fn depth_limit_enforced() {
        let mut heap = Heap::new();
        let mut inner = heap.alloc(ObjKind::List(vec![]));
        for _ in 0..(MAX_DEPTH + 10) {
            inner = heap.alloc(ObjKind::List(vec![inner]));
        }
        assert_eq!(
            Writer::new(&heap, &NoopReducer).dump(&[inner]),
            Err(PickleError::TooDeep)
        );
    }
}
