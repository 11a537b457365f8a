//! [`CodecHandle`] — a shared, serialisable handle to an [`ErasureCode`].

use core::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::ErasureCode;

/// A shared handle to an erasure code: a thin, transparent wrapper around
/// `Arc<dyn ErasureCode>`.
///
/// The wrapper exists because coherence forbids implementing foreign
/// traits (serde) directly on the `Arc`; it adds no state and [`Deref`]s
/// to the trait object, so `handle.name()`, `handle.layout(…)` etc. all
/// work unqualified. Clones are reference-count bumps.
///
/// Serialization writes the codec's [`serde_token`](ErasureCode::serde_token)
/// (for the built-ins, the names serialized `CodeSpec`s, sweep plans
/// and results have always carried on disk); deserialization resolves the
/// token through the global [`registry`](crate::registry), so specs naming
/// third-party codecs load once those codecs are registered.
#[derive(Clone)]
pub struct CodecHandle(pub Arc<dyn ErasureCode>);

impl CodecHandle {
    /// Wraps a codec implementation.
    pub fn new(code: impl ErasureCode + 'static) -> CodecHandle {
        CodecHandle(Arc::new(code))
    }
}

impl Deref for CodecHandle {
    type Target = dyn ErasureCode;

    fn deref(&self) -> &(dyn ErasureCode + 'static) {
        self.0.as_ref()
    }
}

impl AsRef<dyn ErasureCode> for CodecHandle {
    fn as_ref(&self) -> &(dyn ErasureCode + 'static) {
        self.0.as_ref()
    }
}

impl fmt::Debug for CodecHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CodecHandle({})", self.id())
    }
}

impl fmt::Display for CodecHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Handle identity is codec identity (the canonical id — the registry
/// keeps ids unique).
impl PartialEq for CodecHandle {
    fn eq(&self, other: &CodecHandle) -> bool {
        self.id() == other.id()
    }
}

impl Eq for CodecHandle {}

impl Hash for CodecHandle {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id().hash(state);
    }
}

impl From<Arc<dyn ErasureCode>> for CodecHandle {
    fn from(code: Arc<dyn ErasureCode>) -> CodecHandle {
        CodecHandle(code)
    }
}

impl<C: ErasureCode + 'static> From<Arc<C>> for CodecHandle {
    fn from(code: Arc<C>) -> CodecHandle {
        CodecHandle(code)
    }
}

impl From<&CodecHandle> for CodecHandle {
    fn from(code: &CodecHandle) -> CodecHandle {
        code.clone()
    }
}

impl serde::Serialize for CodecHandle {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.serde_token().to_string())
    }
}

impl serde::Deserialize for CodecHandle {
    fn from_value(v: &serde::Value) -> Result<CodecHandle, serde::Error> {
        let token = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected codec name string"))?;
        crate::registry::resolve(token).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use serde::{Deserialize, Serialize};

    #[test]
    fn deref_and_equality() {
        let a = builtin::rse();
        assert_eq!(a.id(), "rse");
        assert_eq!(a, CodecHandle::from(&a));
        assert_ne!(a, builtin::ldgm_triangle());
        assert_eq!(format!("{a}"), "RSE");
        assert_eq!(format!("{a:?}"), "CodecHandle(rse)");
    }

    #[test]
    fn serde_round_trip_uses_compat_tokens() {
        let h = builtin::ldgm_staircase();
        let v = h.to_value();
        assert_eq!(v, serde::Value::String("LdgmStaircase".into()));
        let back = CodecHandle::from_value(&v).unwrap();
        assert_eq!(back, h);
        // Any registered spelling deserializes.
        let alt = CodecHandle::from_value(&serde::Value::String("staircase".into())).unwrap();
        assert_eq!(alt, h);
        assert!(CodecHandle::from_value(&serde::Value::String("nope".into())).is_err());
    }

    /// The tokens are the on-disk format of every `CodeSpec`, sweep plan
    /// and result ever written; they never move.
    #[test]
    fn serde_tokens_are_wire_stable() {
        for (code, token) in [
            (builtin::rse(), "Rse"),
            (builtin::ldgm_staircase(), "LdgmStaircase"),
            (builtin::ldgm_triangle(), "LdgmTriangle"),
            (builtin::ldgm_plain(), "LdgmPlain"),
        ] {
            assert_eq!(code.serde_token(), token);
            assert_eq!(code.to_value(), serde::Value::String(token.to_string()));
        }
    }
}
