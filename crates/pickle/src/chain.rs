//! Serializer chaining (§6.1): "Kishu will try CloudPickle first, then use
//! Dill as a fallback for co-variables that CloudPickle fails on."
//!
//! Per-co-variable storage makes serializers composable: each co-variable
//! is one independent blob, so a class one library cannot reduce can simply
//! be handled by the next. [`ChainReducer`] implements that policy over any
//! two [`Reducer`]s and counts how often the fallback fired.

use std::borrow::Cow;
use std::cell::Cell;

use kishu_kernel::ClassId;

use crate::error::PickleError;
use crate::reduce::Reducer;

/// Tries a primary reducer and falls back to a secondary on
/// [`PickleError::Unserializable`]. Rebuild consults the same order, so a
/// blob written by the fallback loads through the fallback (both reducers
/// must agree on the payload encoding, as CloudPickle and Dill agree on the
/// pickle wire format).
pub struct ChainReducer<P, F> {
    primary: P,
    fallback: F,
    fallback_hits: Cell<u64>,
}

impl<P: Reducer, F: Reducer> ChainReducer<P, F> {
    /// Chain `primary` before `fallback`.
    pub fn new(primary: P, fallback: F) -> Self {
        ChainReducer {
            primary,
            fallback,
            fallback_hits: Cell::new(0),
        }
    }

    /// How many reductions the primary refused and the fallback served.
    pub fn fallback_hits(&self) -> u64 {
        self.fallback_hits.get()
    }
}

impl<P: Reducer, F: Reducer> Reducer for ChainReducer<P, F> {
    fn reduce<'p>(&self, class: ClassId, payload: &'p [u8]) -> Result<Cow<'p, [u8]>, PickleError> {
        match self.primary.reduce(class, payload) {
            Err(PickleError::Unserializable { .. }) => {
                self.fallback_hits.set(self.fallback_hits.get() + 1);
                self.fallback.reduce(class, payload)
            }
            other => other,
        }
    }

    fn rebuild(&self, class: ClassId, stored: &[u8]) -> Result<Vec<u8>, PickleError> {
        match self.primary.rebuild(class, stored) {
            Err(PickleError::DeserializeFailed { .. }) => self.fallback.rebuild(class, stored),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::NoopReducer;
    use crate::{dumps, loads};
    use kishu_kernel::{External, Heap};

    /// A "CloudPickle": refuses odd class ids.
    struct Picky;
    impl Reducer for Picky {
        fn reduce<'p>(
            &self,
            class: ClassId,
            payload: &'p [u8],
        ) -> Result<Cow<'p, [u8]>, PickleError> {
            if class.0 % 2 == 1 {
                return Err(PickleError::Unserializable {
                    type_tag: format!("class {}", class.0),
                });
            }
            Ok(Cow::Borrowed(payload))
        }
    }

    fn external(heap: &mut Heap, class: u16) -> kishu_kernel::ObjId {
        heap.alloc(
            External {
                class: ClassId(class),
                attrs: Vec::new(),
                payload: vec![7; 16],
                epoch: 0,
            }
            .into(),
        )
    }

    #[test]
    fn fallback_serves_what_the_primary_refuses() {
        let chain = ChainReducer::new(Picky, NoopReducer);
        let mut heap = Heap::new();
        let even = external(&mut heap, 2);
        let odd = external(&mut heap, 3);
        // Even: primary handles it, no fallback hit.
        let blob = dumps(&heap, &[even], &chain).expect("primary path");
        assert_eq!(chain.fallback_hits(), 0);
        loads(&mut heap, &blob, &chain).expect("loads");
        // Odd: primary refuses, fallback saves the day.
        let blob = dumps(&heap, &[odd], &chain).expect("fallback path");
        assert_eq!(chain.fallback_hits(), 1);
        let back = loads(&mut heap, &blob, &chain).expect("loads");
        assert_eq!(heap.kind(back[0]), heap.kind(odd));
    }

    #[test]
    fn chain_of_two_picky_reducers_still_fails() {
        let chain = ChainReducer::new(Picky, Picky);
        let mut heap = Heap::new();
        let odd = external(&mut heap, 5);
        assert!(matches!(
            dumps(&heap, &[odd], &chain),
            Err(PickleError::Unserializable { .. })
        ));
        assert_eq!(chain.fallback_hits(), 1, "the fallback was consulted");
    }

}
