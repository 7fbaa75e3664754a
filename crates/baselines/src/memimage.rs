//! Shallow memory-image codec for the CRIU-style baselines.
//!
//! An OS-level snapshot copies raw pages: each object's bytes land in the
//! image *at its address*, child pointers and all, and restore pieces the
//! process back together by re-linking pointers. This codec mirrors that:
//! every record is one object encoded **shallowly** — its children stored
//! as raw object handles (the "pointers"), not recursively — and a restore
//! accumulates records across a full-plus-overlays chain, then re-links
//! reachable records into a fresh heap. Unlike the application-level pickle
//! there is no reduction protocol, which is exactly why the CRIU baselines
//! can dump generators but die on off-process state (Table 4).

use std::collections::HashMap;

use kishu_kernel::{ClassId, External, Function, Heap, Instance, ObjId, ObjKind};
use kishu_pickle::varint::{read_i64, read_u64, write_i64, write_u64};

use crate::MethodError;

const MAGIC: &[u8; 4] = b"KMEM";

/// Encode a memory image: the namespace table plus shallow records of
/// `objs`. `full` marks base snapshots (as opposed to dirty-page overlays).
pub fn encode_image(
    heap: &Heap,
    bindings: &[(String, ObjId)],
    objs: &[ObjId],
    full: bool,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(full as u8);
    write_u64(&mut out, bindings.len() as u64);
    for (name, root) in bindings {
        write_str(&mut out, name);
        write_u64(&mut out, root.0 as u64);
    }
    write_u64(&mut out, objs.len() as u64);
    for id in objs {
        write_u64(&mut out, id.0 as u64);
        encode_shallow(&mut out, heap.kind(*id));
    }
    out
}

/// Decode a base-plus-overlays chain and materialize the final state into
/// `heap`. Returns the namespace bindings of the last image. This is the
/// "piece together the memory snapshot from multiple checkpoint files" step
/// that makes CRIU-Incremental's restore slow (§7.5.1).
pub fn decode_chain(
    blobs: &[Vec<u8>],
    heap: &mut Heap,
) -> Result<Vec<(String, ObjId)>, MethodError> {
    if blobs.is_empty() {
        return Err(MethodError::Io("empty image chain".into()));
    }
    let mut records: HashMap<u32, ShallowKind> = HashMap::new();
    let mut last_bindings: Vec<(String, u32)> = Vec::new();
    for blob in blobs {
        let (bindings, objs) = decode_image(blob)?;
        last_bindings = bindings;
        for (id, kind) in objs {
            records.insert(id, kind); // later overlays override
        }
    }
    // Materialize everything reachable from the final namespace.
    let mut memo: HashMap<u32, ObjId> = HashMap::new();
    let mut out = Vec::with_capacity(last_bindings.len());
    for (name, root) in last_bindings {
        let obj = materialize(root, &records, &mut memo, heap)?;
        out.push((name, obj));
    }
    Ok(out)
}

fn materialize(
    id: u32,
    records: &HashMap<u32, ShallowKind>,
    memo: &mut HashMap<u32, ObjId>,
    heap: &mut Heap,
) -> Result<ObjId, MethodError> {
    if let Some(obj) = memo.get(&id) {
        return Ok(*obj);
    }
    let rec = records
        .get(&id)
        .ok_or_else(|| MethodError::Io(format!("dangling pointer to object {id}")))?
        .clone();
    // Allocate a placeholder first so cycles re-link correctly.
    let obj = heap.alloc(ObjKind::None);
    memo.insert(id, obj);
    let kind = rec.link(records, memo, heap)?;
    heap.replace(obj, kind);
    Ok(obj)
}

/// Shallow object kind: children are raw ids, not recursive structures.
#[derive(Debug, Clone)]
enum ShallowKind {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    List(Vec<u32>),
    Tuple(Vec<u32>),
    Set(Vec<u32>),
    Dict(Vec<(u32, u32)>),
    NdArray(Vec<f64>),
    Series(String, u32),
    DataFrame(Vec<(String, u32)>),
    Instance(String, Vec<(String, u32)>),
    Function(String, Vec<String>, String),
    Generator(u64),
    External(u16, Vec<(String, u32)>, Vec<u8>, u64),
}

impl ShallowKind {
    fn link(
        self,
        records: &HashMap<u32, ShallowKind>,
        memo: &mut HashMap<u32, ObjId>,
        heap: &mut Heap,
    ) -> Result<ObjKind, MethodError> {
        let link_one =
            |id: u32, memo: &mut HashMap<u32, ObjId>, heap: &mut Heap| -> Result<ObjId, MethodError> {
                materialize(id, records, memo, heap)
            };
        Ok(match self {
            ShallowKind::None => ObjKind::None,
            ShallowKind::Bool(b) => ObjKind::Bool(b),
            ShallowKind::Int(v) => ObjKind::Int(v),
            ShallowKind::Float(v) => ObjKind::Float(v),
            ShallowKind::Str(s) => ObjKind::Str(s),
            ShallowKind::List(ids) => ObjKind::List(link_all(ids, records, memo, heap)?),
            ShallowKind::Tuple(ids) => ObjKind::Tuple(link_all(ids, records, memo, heap)?),
            ShallowKind::Set(ids) => ObjKind::Set(link_all(ids, records, memo, heap)?),
            ShallowKind::Dict(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    out.push((link_one(k, memo, heap)?, link_one(v, memo, heap)?));
                }
                ObjKind::Dict(out)
            }
            ShallowKind::NdArray(vs) => ObjKind::NdArray(vs),
            ShallowKind::Series(name, v) => ObjKind::Series {
                name,
                values: link_one(v, memo, heap)?,
            },
            ShallowKind::DataFrame(cols) => {
                let mut out = Vec::with_capacity(cols.len());
                for (n, c) in cols {
                    out.push((n, link_one(c, memo, heap)?));
                }
                ObjKind::DataFrame(out)
            }
            ShallowKind::Instance(class_name, attrs) => {
                let mut out = Vec::with_capacity(attrs.len());
                for (n, v) in attrs {
                    out.push((n, link_one(v, memo, heap)?));
                }
                Instance {
                    class_name,
                    attrs: out,
                }
                .into()
            }
            ShallowKind::Function(name, params, source) => Function {
                name,
                params,
                source,
            }
            .into(),
            ShallowKind::Generator(token) => ObjKind::Generator { token },
            ShallowKind::External(class, attrs, payload, epoch) => {
                let mut out = Vec::with_capacity(attrs.len());
                for (n, v) in attrs {
                    out.push((n, link_one(v, memo, heap)?));
                }
                External {
                    class: ClassId(class),
                    attrs: out,
                    payload,
                    epoch,
                }
                .into()
            }
        })
    }
}

fn link_all(
    ids: Vec<u32>,
    records: &HashMap<u32, ShallowKind>,
    memo: &mut HashMap<u32, ObjId>,
    heap: &mut Heap,
) -> Result<Vec<ObjId>, MethodError> {
    ids.into_iter()
        .map(|id| materialize(id, records, memo, heap))
        .collect()
}

// ----------------------------------------------------------------------
// wire format

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_shallow(out: &mut Vec<u8>, kind: &ObjKind) {
    let ids = |out: &mut Vec<u8>, items: &[ObjId]| {
        write_u64(out, items.len() as u64);
        for i in items {
            write_u64(out, i.0 as u64);
        }
    };
    match kind {
        ObjKind::None => out.push(0),
        ObjKind::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        ObjKind::Int(v) => {
            out.push(2);
            write_i64(out, *v);
        }
        ObjKind::Float(v) => {
            out.push(3);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ObjKind::Str(s) => {
            out.push(4);
            write_str(out, s);
        }
        ObjKind::List(items) => {
            out.push(5);
            ids(out, items);
        }
        ObjKind::Tuple(items) => {
            out.push(6);
            ids(out, items);
        }
        ObjKind::Set(items) => {
            out.push(7);
            ids(out, items);
        }
        ObjKind::Dict(pairs) => {
            out.push(8);
            write_u64(out, pairs.len() as u64);
            for (k, v) in pairs {
                write_u64(out, k.0 as u64);
                write_u64(out, v.0 as u64);
            }
        }
        ObjKind::NdArray(vs) => {
            out.push(9);
            write_u64(out, vs.len() as u64);
            for v in vs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        ObjKind::Series { name, values } => {
            out.push(10);
            write_str(out, name);
            write_u64(out, values.0 as u64);
        }
        ObjKind::DataFrame(cols) => {
            out.push(11);
            write_u64(out, cols.len() as u64);
            for (n, c) in cols {
                write_str(out, n);
                write_u64(out, c.0 as u64);
            }
        }
        ObjKind::Instance(inst) => {
            let Instance { class_name, attrs } = &**inst;
            out.push(12);
            write_str(out, class_name);
            write_u64(out, attrs.len() as u64);
            for (n, v) in attrs {
                write_str(out, n);
                write_u64(out, v.0 as u64);
            }
        }
        ObjKind::Function(f) => {
            let Function {
                name,
                params,
                source,
            } = &**f;
            out.push(13);
            write_str(out, name);
            write_u64(out, params.len() as u64);
            for p in params {
                write_str(out, p);
            }
            write_str(out, source);
        }
        ObjKind::Generator { token } => {
            out.push(14);
            write_u64(out, *token);
        }
        ObjKind::External(ext) => {
            let External {
                class,
                attrs,
                payload,
                epoch,
            } = &**ext;
            out.push(15);
            write_u64(out, class.0 as u64);
            write_u64(out, *epoch);
            write_u64(out, payload.len() as u64);
            out.extend_from_slice(payload);
            write_u64(out, attrs.len() as u64);
            for (n, v) in attrs {
                write_str(out, n);
                write_u64(out, v.0 as u64);
            }
        }
    }
}

type DecodedImage = (Vec<(String, u32)>, Vec<(u32, ShallowKind)>);

fn decode_image(blob: &[u8]) -> Result<DecodedImage, MethodError> {
    let bad = |what: &str| MethodError::Io(format!("corrupt memory image: {what}"));
    if blob.len() < 5 || &blob[..4] != MAGIC {
        return Err(bad("magic"));
    }
    let mut pos = 5usize;
    let u = |pos: &mut usize| read_u64(blob, pos).ok_or_else(|| bad("varint"));
    let s = |pos: &mut usize| -> Result<String, MethodError> {
        let len = read_u64(blob, pos).ok_or_else(|| bad("strlen"))? as usize;
        if *pos + len > blob.len() {
            return Err(bad("str bounds"));
        }
        let out = String::from_utf8(blob[*pos..*pos + len].to_vec()).map_err(|_| bad("utf8"))?;
        *pos += len;
        Ok(out)
    };
    let ns_count = u(&mut pos)? as usize;
    let mut bindings = Vec::with_capacity(ns_count.min(1 << 16));
    for _ in 0..ns_count {
        let name = s(&mut pos)?;
        let root = u(&mut pos)? as u32;
        bindings.push((name, root));
    }
    let rec_count = u(&mut pos)? as usize;
    let mut records = Vec::with_capacity(rec_count.min(1 << 20));
    for _ in 0..rec_count {
        let id = u(&mut pos)? as u32;
        let tag = *blob.get(pos).ok_or_else(|| bad("tag"))?;
        pos += 1;
        let id_list = |pos: &mut usize| -> Result<Vec<u32>, MethodError> {
            let n = read_u64(blob, pos).ok_or_else(|| bad("len"))? as usize;
            let mut v = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                v.push(read_u64(blob, pos).ok_or_else(|| bad("id"))? as u32);
            }
            Ok(v)
        };
        let kind = match tag {
            0 => ShallowKind::None,
            1 => {
                let b = *blob.get(pos).ok_or_else(|| bad("bool"))?;
                pos += 1;
                ShallowKind::Bool(b != 0)
            }
            2 => ShallowKind::Int(read_i64(blob, &mut pos).ok_or_else(|| bad("int"))?),
            3 => {
                if pos + 8 > blob.len() {
                    return Err(bad("float"));
                }
                let v = f64::from_le_bytes(blob[pos..pos + 8].try_into().expect("8 bytes"));
                pos += 8;
                ShallowKind::Float(v)
            }
            4 => ShallowKind::Str(s(&mut pos)?),
            5 => ShallowKind::List(id_list(&mut pos)?),
            6 => ShallowKind::Tuple(id_list(&mut pos)?),
            7 => ShallowKind::Set(id_list(&mut pos)?),
            8 => {
                let n = u(&mut pos)? as usize;
                let mut pairs = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let k = u(&mut pos)? as u32;
                    let v = u(&mut pos)? as u32;
                    pairs.push((k, v));
                }
                ShallowKind::Dict(pairs)
            }
            9 => {
                let n = u(&mut pos)? as usize;
                if pos + 8 * n > blob.len() {
                    return Err(bad("array bounds"));
                }
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(f64::from_le_bytes(
                        blob[pos..pos + 8].try_into().expect("8 bytes"),
                    ));
                    pos += 8;
                }
                ShallowKind::NdArray(vs)
            }
            10 => {
                let name = s(&mut pos)?;
                let v = u(&mut pos)? as u32;
                ShallowKind::Series(name, v)
            }
            11 => {
                let n = u(&mut pos)? as usize;
                let mut cols = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let name = s(&mut pos)?;
                    let c = u(&mut pos)? as u32;
                    cols.push((name, c));
                }
                ShallowKind::DataFrame(cols)
            }
            12 => {
                let class_name = s(&mut pos)?;
                let n = u(&mut pos)? as usize;
                let mut attrs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let name = s(&mut pos)?;
                    let v = u(&mut pos)? as u32;
                    attrs.push((name, v));
                }
                ShallowKind::Instance(class_name, attrs)
            }
            13 => {
                let name = s(&mut pos)?;
                let n = u(&mut pos)? as usize;
                let mut params = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    params.push(s(&mut pos)?);
                }
                let source = s(&mut pos)?;
                ShallowKind::Function(name, params, source)
            }
            14 => ShallowKind::Generator(u(&mut pos)?),
            15 => {
                let class = u(&mut pos)? as u16;
                let epoch = u(&mut pos)?;
                let plen = u(&mut pos)? as usize;
                if pos + plen > blob.len() {
                    return Err(bad("payload bounds"));
                }
                let payload = blob[pos..pos + plen].to_vec();
                pos += plen;
                let n = u(&mut pos)? as usize;
                let mut attrs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let name = s(&mut pos)?;
                    let v = u(&mut pos)? as u32;
                    attrs.push((name, v));
                }
                ShallowKind::External(class, attrs, payload, epoch)
            }
            t => return Err(bad(&format!("tag {t}"))),
        };
        records.push((id, kind));
    }
    Ok((bindings, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_minipy::Interp;

    fn run(i: &mut Interp, src: &str) {
        let out = i.run_cell(src).expect("parses");
        assert!(out.error.is_none(), "{:?}", out.error);
    }

    fn full_image(i: &Interp) -> Vec<u8> {
        let bindings: Vec<(String, ObjId)> = i
            .globals
            .bindings()
            .map(|(n, o)| (n.to_string(), o))
            .collect();
        let objs: Vec<ObjId> = i.heap.live_objects().collect();
        encode_image(&i.heap, &bindings, &objs, true)
    }

    #[test]
    fn full_image_roundtrips_state() {
        let mut i = Interp::new();
        run(&mut i, "x = [1, 'two', 3.0]\ny = x\nz = {'k': x}\ng = make_generator()\n");
        let blob = full_image(&i);
        let mut fresh = Interp::new();
        let bindings = decode_chain(&[blob], &mut fresh.heap).expect("decode");
        for (name, obj) in bindings {
            fresh.globals.set_untracked(&name, obj);
        }
        // Values restored.
        let out = fresh.run_cell("x[0] + z['k'][2]\n").expect("runs");
        assert_eq!(out.value_repr.as_deref(), Some("4.0"));
        // Sharing restored (x and y alias).
        let out = fresh.run_cell("id(x) == id(y)\n").expect("runs");
        assert_eq!(out.value_repr.as_deref(), Some("True"));
        // Generators survive an OS-level dump (unlike pickle).
        assert!(fresh.globals.contains("g"));
    }

    #[test]
    fn overlay_overrides_base() {
        let mut i = Interp::new();
        run(&mut i, "ls = [1, 2]\n");
        let base = full_image(&i);
        run(&mut i, "ls.append(3)\n");
        // Overlay: just the mutated object + namespace.
        let ls = i.globals.peek("ls").expect("bound");
        let bindings: Vec<(String, ObjId)> = i
            .globals
            .bindings()
            .map(|(n, o)| (n.to_string(), o))
            .collect();
        let overlay_objs: Vec<ObjId> = i.heap.reachable_from(ls);
        let overlay = encode_image(&i.heap, &bindings, &overlay_objs, false);
        let mut fresh = Interp::new();
        let bindings = decode_chain(&[base, overlay], &mut fresh.heap).expect("decode");
        for (name, obj) in bindings {
            fresh.globals.set_untracked(&name, obj);
        }
        let out = fresh.run_cell("len(ls)\n").expect("runs");
        assert_eq!(out.value_repr.as_deref(), Some("3"));
    }

    #[test]
    fn dangling_pointer_is_an_error() {
        let mut heap = Heap::new();
        let a = heap.alloc(ObjKind::Int(1));
        let ls = heap.alloc(ObjKind::List(vec![a]));
        // Encode the list but not its element.
        let blob = encode_image(&heap, &[("ls".into(), ls)], &[ls], true);
        let mut fresh = Heap::new();
        assert!(matches!(
            decode_chain(&[blob], &mut fresh),
            Err(MethodError::Io(_))
        ));
    }

    #[test]
    fn corrupt_image_is_rejected() {
        let mut fresh = Heap::new();
        assert!(decode_chain(&[vec![0, 1, 2]], &mut fresh).is_err());
        assert!(decode_chain(&[], &mut fresh).is_err());
    }

    #[test]
    fn cycles_relink() {
        let mut i = Interp::new();
        run(&mut i, "a = []\na.append(a)\n");
        let blob = full_image(&i);
        let mut fresh = Interp::new();
        let bindings = decode_chain(&[blob], &mut fresh.heap).expect("decode");
        for (name, obj) in bindings {
            fresh.globals.set_untracked(&name, obj);
        }
        let out = fresh.run_cell("id(a[0]) == id(a)\n").expect("runs");
        assert_eq!(out.value_repr.as_deref(), Some("True"));
    }
}
