//! Registry-backed reduction instructions.

use std::borrow::Cow;
use std::sync::Arc;

use kishu_kernel::ClassId;
use kishu_pickle::{PickleError, Reducer};

use crate::registry::Registry;

/// A [`Reducer`] that enforces each class's behavioural flags:
/// unserializable classes refuse to dump, deserialize-failing classes refuse
/// to load, and silently erroneous classes corrupt their payload without
/// raising (§6.2).
#[derive(Clone)]
pub struct LibReducer {
    registry: Arc<Registry>,
}

impl LibReducer {
    /// Reducer over a shared registry.
    pub fn new(registry: Arc<Registry>) -> Self {
        LibReducer { registry }
    }
}

impl Reducer for LibReducer {
    fn reduce<'p>(&self, class: ClassId, payload: &'p [u8]) -> Result<Cow<'p, [u8]>, PickleError> {
        let spec = self.registry.get(class);
        if let Some(spec) = spec {
            if spec.behavior.unserializable {
                return Err(PickleError::Unserializable {
                    type_tag: spec.name.to_string(),
                });
            }
        }
        // Off-process classes are exactly the ones whose *reduction* makes
        // them storable at the application level: the payload stands for the
        // reduction instructions (`__reduce__`), not raw process memory.
        Ok(Cow::Borrowed(payload))
    }

    fn rebuild(&self, class: ClassId, stored: &[u8]) -> Result<Vec<u8>, PickleError> {
        let spec = self.registry.get(class);
        if let Some(spec) = spec {
            if spec.behavior.deserialize_fails {
                return Err(PickleError::DeserializeFailed {
                    reason: spec.name.to_string(),
                });
            }
            if spec.behavior.silent_error && !stored.is_empty() {
                // Round-trips "successfully" but wrong: the silent pickle
                // error Kishu cannot prevent, only blocklist (§6.2).
                let mut wrong = stored.to_vec();
                wrong[0] ^= 0x01;
                return Ok(wrong);
            }
        }
        Ok(stored.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_kernel::{External, Heap, ObjKind};
    use kishu_pickle::{dumps, loads};

    fn external(heap: &mut Heap, class: ClassId, payload: Vec<u8>) -> kishu_kernel::ObjId {
        heap.alloc(
            External {
                class,
                attrs: Vec::new(),
                payload,
                epoch: 0,
            }
            .into(),
        )
    }

    #[test]
    fn unserializable_class_refuses_dump() {
        let registry = Arc::new(Registry::standard());
        let reducer = LibReducer::new(registry.clone());
        let lazy = registry.by_name("pl.LazyFrame").expect("exists").id;
        let mut heap = Heap::new();
        let obj = external(&mut heap, lazy, vec![1, 2, 3]);
        let err = dumps(&heap, &[obj], &reducer).expect_err("must refuse");
        assert!(matches!(err, PickleError::Unserializable { .. }));
    }

    #[test]
    fn deserialize_failing_class_dumps_but_wont_load() {
        let registry = Arc::new(Registry::standard());
        let reducer = LibReducer::new(registry.clone());
        let bokeh = registry.by_name("bokeh.figure").expect("exists").id;
        let mut heap = Heap::new();
        let obj = external(&mut heap, bokeh, vec![1, 2, 3]);
        let blob = dumps(&heap, &[obj], &reducer).expect("dump ok");
        let err = loads(&mut heap, &blob, &reducer).expect_err("load fails");
        assert!(matches!(err, PickleError::DeserializeFailed { .. }));
    }

    #[test]
    fn silent_error_class_roundtrips_wrong() {
        let registry = Arc::new(Registry::standard());
        let reducer = LibReducer::new(registry.clone());
        let wc = registry.by_name("wordcloud.WordCloud").expect("exists").id;
        let mut heap = Heap::new();
        let obj = external(&mut heap, wc, vec![0xAA, 0xBB]);
        let blob = dumps(&heap, &[obj], &reducer).expect("dump ok");
        let back = loads(&mut heap, &blob, &reducer).expect("load 'succeeds'");
        match heap.kind(back[0]) {
            ObjKind::External(ext) => {
                assert_ne!(ext.payload, vec![0xAA, 0xBB], "payload silently corrupted");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clean_and_off_process_classes_roundtrip_exactly() {
        let registry = Arc::new(Registry::standard());
        let reducer = LibReducer::new(registry.clone());
        let mut heap = Heap::new();
        for name in ["pd.DataFrame", "torch.Tensor", "ray.data.Dataset"] {
            let id = registry.by_name(name).expect("exists").id;
            let obj = external(&mut heap, id, vec![5; 64]);
            let blob = dumps(&heap, &[obj], &reducer).expect("dump");
            let back = loads(&mut heap, &blob, &reducer).expect("load");
            assert_eq!(heap.kind(back[0]), heap.kind(obj), "{name} must roundtrip");
        }
    }
}
