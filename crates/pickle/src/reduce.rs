//! The reduction protocol (`__reduce__` analogue) for library classes.
//!
//! Built-in kinds know how to serialize themselves; `ObjKind::External`
//! objects delegate to a [`Reducer`]. The reducer decides whether the class
//! can be stored at all (dump-time failures), whether it can be rebuilt
//! (load-time failures), and whether its round trip is silently wrong
//! (§6.2's silent pickle errors). `kishu-libsim` implements a registry-backed
//! reducer with the paper's 146 classes; [`NoopReducer`] treats every class
//! as perfectly serializable.

use std::borrow::Cow;

use kishu_kernel::ClassId;

use crate::error::PickleError;

/// Serialization instructions for external (library) classes.
pub trait Reducer {
    /// Produce the storable byte representation of a class payload, or
    /// refuse ([`PickleError::Unserializable`]). A reducer that stores the
    /// payload verbatim, as the default does, returns it borrowed: the
    /// encoder then copies a library object's payload once, straight into
    /// the pickle buffer.
    fn reduce<'p>(&self, class: ClassId, payload: &'p [u8]) -> Result<Cow<'p, [u8]>, PickleError> {
        let _ = class;
        Ok(Cow::Borrowed(payload))
    }

    /// Rebuild a class payload from its stored bytes, or refuse
    /// ([`PickleError::DeserializeFailed`]). A *silently erroneous* class
    /// returns `Ok` with wrong bytes — the caller cannot tell.
    fn rebuild(&self, class: ClassId, stored: &[u8]) -> Result<Vec<u8>, PickleError> {
        let _ = class;
        Ok(stored.to_vec())
    }
}

/// A reducer that treats every class as cleanly serializable. Used by tests
/// and by baselines that don't model class-specific behaviour.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopReducer;

impl Reducer for NoopReducer {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_reducer_is_identity() {
        let r = NoopReducer;
        let payload = vec![1, 2, 3];
        let stored = r.reduce(ClassId(5), &payload).expect("reduce");
        assert_eq!(stored, payload);
        assert!(
            matches!(stored, Cow::Borrowed(_)),
            "a verbatim payload is not copied"
        );
        let back = r.rebuild(ClassId(5), &stored).expect("rebuild");
        assert_eq!(back, payload);
    }
}
