//! # kishu-pickle — memoized object-graph serialization with reductions
//!
//! Kishu stores and restores co-variables as *bytestrings* of their whole
//! connected component (§6.1): Python's pickle protocol walks the object
//! graph, memoizes every object so shared references and cycles are encoded
//! once and re-linked on load, and delegates library classes to their
//! `__reduce__` instructions. This crate is that protocol for the simulated
//! kernel:
//!
//! * [`dumps`] serializes any set of root objects from a heap into one
//!   self-contained blob, preserving sharing and cycles via a memo table;
//!   [`dumps_into`] appends the same bytes to a caller's buffer, so a
//!   caller that frames the blob (the session's CRC seal) writes its
//!   header in place instead of copying the blob behind it;
//! * [`loads`] reconstructs the graph into a (possibly different) heap and
//!   returns the new root handles;
//! * [`Reducer`] is the `__reduce__` analogue: simulated library classes
//!   (`ObjKind::External`) are serialized through it, which is where the
//!   Fig 12 / Table 4 failure modes live (unserializable classes raise at
//!   dump time, deserialization failures raise at load time, and silent
//!   pickle errors corrupt the payload without raising — §6.2).
//!
//! The format round-trips byte-exactly: `dumps(loads(dumps(x))) ==
//! dumps(x)`, which is the "exact restoration" guarantee Kishu's Remark in
//! §5.3 relies on (verified by property tests).

pub mod chain;
pub mod error;
pub mod reader;
pub mod reduce;
pub mod varint;
pub mod writer;

pub use chain::ChainReducer;
pub use error::PickleError;
pub use reduce::{NoopReducer, Reducer};

use kishu_kernel::{Heap, ObjId};

/// Serialize the graphs reachable from `roots` into one blob.
///
/// Shared objects (within and across roots) are encoded once; the decoded
/// graph has the same shape. Fails with [`PickleError::Unserializable`] when
/// the closure contains an opaque object (generator) or a class whose
/// reduction refuses.
pub fn dumps(heap: &Heap, roots: &[ObjId], reducer: &dyn Reducer) -> Result<Vec<u8>, PickleError> {
    let mut blob = Vec::new();
    dumps_into(heap, roots, reducer, &mut blob)?;
    Ok(blob)
}

/// [`dumps`], appending the blob to `out` after the bytes it already
/// holds. The `pickle.dumps` span and the simulated charge count the
/// appended bytes alone. On error `out` holds a partial blob after its old
/// bytes; discard it.
pub fn dumps_into(
    heap: &Heap,
    roots: &[ObjId],
    reducer: &dyn Reducer,
    out: &mut Vec<u8>,
) -> Result<(), PickleError> {
    // The span reaches the session's trace through the thread-current
    // context (set by the enclosing session span, or `worker_scope` on a
    // pool worker); no handle is threaded through this API.
    let mut sp = kishu_trace::current_span("pickle.dumps");
    let start = out.len();
    writer::Writer::new(heap, reducer).dump_into(roots, out)?;
    let len = out.len() - start;
    sp.arg("bytes", len);
    // Charge the simulated serialization latency (see `simcost`): the
    // synthetic encoder is orders of magnitude faster than pickling real
    // library state, which would make every dump look free and erase the
    // serialization/store trade-offs the measurements compare. Charged
    // uniformly for every method; per-blob charges sleep on the calling
    // thread, so the parallel checkpoint pipeline genuinely overlaps them.
    kishu_kernel::simcost::charge_bytes(len as u64, kishu_kernel::simcost::PICKLE_BPS);
    Ok(())
}

/// Reconstruct a blob produced by [`dumps`] into `heap`, returning the new
/// root handles in the same order they were passed to `dumps`.
///
/// Like [`dumps`], the simulated decode latency is charged here, uniformly
/// for every method — a full-state restore (DumpSession) pays for the whole
/// state, an incremental one (Kishu) only for its delta. Charging happens
/// even when decoding later fails partway: the walk until the failure is
/// real work, and charging up front keeps the cost independent of where a
/// corrupt blob happens to break.
pub fn loads(heap: &mut Heap, bytes: &[u8], reducer: &dyn Reducer) -> Result<Vec<ObjId>, PickleError> {
    let mut sp = kishu_trace::current_span("pickle.loads");
    sp.arg("bytes", bytes.len());
    kishu_kernel::simcost::charge_bytes(bytes.len() as u64, kishu_kernel::simcost::PICKLE_BPS);
    reader::Reader::new(bytes, reducer).load(heap)
}

/// [`loads`] without the simulated decode charge, for callers that already
/// charged it elsewhere: the parallel checkout pipeline charges each cold
/// payload on a worker thread (so decode sleeps overlap across blobs) and
/// legitimately skips the charge on a read-cache hit (the decoded-warm
/// payload is the thing the cache models). Everything else must call
/// [`loads`].
pub fn loads_precharged(
    heap: &mut Heap,
    bytes: &[u8],
    reducer: &dyn Reducer,
) -> Result<Vec<ObjId>, PickleError> {
    let mut sp = kishu_trace::current_span("pickle.loads");
    sp.arg("bytes", bytes.len());
    sp.arg("precharged", true);
    reader::Reader::new(bytes, reducer).load(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_kernel::{Function, Heap, ObjKind};

    fn roundtrip(heap: &mut Heap, roots: &[ObjId]) -> Vec<ObjId> {
        let blob = dumps(heap, roots, &NoopReducer).expect("dumps");
        loads(heap, &blob, &NoopReducer).expect("loads")
    }

    #[test]
    fn primitives_roundtrip() {
        let mut heap = Heap::new();
        let ids = vec![
            heap.alloc(ObjKind::None),
            heap.alloc(ObjKind::Bool(true)),
            heap.alloc(ObjKind::Int(-42)),
            heap.alloc(ObjKind::Float(2.75)),
            heap.alloc(ObjKind::Str("hello".into())),
        ];
        let back = roundtrip(&mut heap, &ids);
        for (a, b) in ids.iter().zip(&back) {
            assert_eq!(heap.kind(*a), heap.kind(*b));
            assert_ne!(a, b, "loads must allocate fresh objects");
        }
    }

    #[test]
    fn shared_references_are_preserved() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::Str("b".into()));
        let l1 = heap.alloc(ObjKind::List(vec![shared]));
        let l2 = heap.alloc(ObjKind::List(vec![shared]));
        let back = roundtrip(&mut heap, &[l1, l2]);
        let c1 = heap.children(back[0])[0];
        let c2 = heap.children(back[1])[0];
        assert_eq!(c1, c2, "sharing must survive the roundtrip");
    }

    #[test]
    fn cycles_are_preserved() {
        let mut heap = Heap::new();
        let ls = heap.alloc(ObjKind::List(vec![]));
        heap.modify(ls, |k| {
            if let ObjKind::List(items) = k {
                items.push(ls);
            }
        });
        let back = roundtrip(&mut heap, &[ls]);
        assert_eq!(heap.children(back[0]), vec![back[0]]);
    }

    #[test]
    fn nested_structures_keep_sharing() {
        let mut heap = Heap::new();
        let k = heap.alloc(ObjKind::Str("key".into()));
        let arr = heap.alloc(ObjKind::NdArray(vec![1.0, 2.0, 3.0]));
        let inner = heap.alloc(ObjKind::Dict(vec![(k, arr)]));
        let ser = heap.alloc(ObjKind::Series {
            name: "col".into(),
            values: arr,
        });
        let df = heap.alloc(ObjKind::DataFrame(vec![("a".into(), arr)]));
        let tup = heap.alloc(ObjKind::Tuple(vec![inner, ser, df]));
        let back = roundtrip(&mut heap, &[tup]);
        let children = heap.children(back[0]);
        let ser_arr = heap.children(children[1])[0];
        let df_arr = heap.children(children[2])[0];
        assert_eq!(ser_arr, df_arr, "array shared between Series and DataFrame");
    }

    #[test]
    fn generators_are_unserializable() {
        let mut heap = Heap::new();
        let g = heap.alloc(ObjKind::Generator { token: 1 });
        let ls = heap.alloc(ObjKind::List(vec![g]));
        let err = dumps(&heap, &[ls], &NoopReducer).expect_err("must fail");
        assert!(matches!(err, PickleError::Unserializable { .. }));
    }

    #[test]
    fn byte_exact_restorability() {
        // dumps(loads(dumps(x))) == dumps(x): the §5.3 exactness remark.
        let mut heap = Heap::new();
        let s = heap.alloc(ObjKind::Str("x".into()));
        let ls = heap.alloc(ObjKind::List(vec![s, s]));
        let blob1 = dumps(&heap, &[ls], &NoopReducer).expect("dumps");
        let back = loads(&mut heap, &blob1, &NoopReducer).expect("loads");
        let blob2 = dumps(&heap, &back, &NoopReducer).expect("dumps again");
        assert_eq!(blob1, blob2);
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let mut heap = Heap::new();
        let v = heap.alloc(ObjKind::Int(5));
        let mut blob = dumps(&heap, &[v], &NoopReducer).expect("dumps");
        blob[0] ^= 0xFF; // smash the magic
        assert!(matches!(
            loads(&mut heap, &blob, &NoopReducer),
            Err(PickleError::Corrupt { .. })
        ));
        let good = dumps(&heap, &[v], &NoopReducer).expect("dumps");
        assert!(loads(&mut heap, &good[..2], &NoopReducer).is_err());
    }

    #[test]
    fn functions_pickle_by_source() {
        let mut heap = Heap::new();
        let f = heap.alloc(
            Function {
                name: "f".into(),
                params: vec!["x".into()],
                source: "def f(x):\n    return x\n".into(),
            }
            .into(),
        );
        let back = roundtrip(&mut heap, &[f]);
        assert_eq!(heap.kind(back[0]), heap.kind(f));
    }
}
