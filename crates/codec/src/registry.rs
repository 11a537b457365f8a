//! The codec registry: name / alias / FTI-codepoint → [`ErasureCode`].
//!
//! Two layers:
//!
//! * [`CodecRegistry`] — a plain value, for callers that want an explicit,
//!   locally-scoped codec set (tests, sandboxed tools);
//! * [`global`] — the process-wide registry every resolution site
//!   (serialized specs, FLUTE FTI parsing, CLI arguments, recommenders)
//!   consults. It starts with the built-ins; third-party codecs join via
//!   [`register`].
//!
//! Lookup is forgiving: names, serde tokens, display names and aliases all
//! resolve, case-insensitively and ignoring `-`/`_`/space separators, so
//! `"ldgm-staircase"`, `"LdgmStaircase"` and `"LDGM Staircase"` are the
//! same codec.

use std::sync::{OnceLock, RwLock};

use crate::{builtin, CodecError, CodecHandle, ErasureCode};

/// Normalises a lookup token: lowercase, separators stripped.
fn normalize(token: &str) -> String {
    token
        .chars()
        .filter(|c| !matches!(c, '-' | '_' | ' '))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Every normalised token a codec answers to.
fn tokens_of(code: &dyn ErasureCode) -> Vec<String> {
    let mut out = vec![normalize(code.id())];
    for t in [code.name(), code.serde_token()]
        .into_iter()
        .chain(code.aliases().iter().copied())
    {
        let n = normalize(t);
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

/// An ordered set of erasure codecs, resolvable by name and FTI codepoint.
#[derive(Default)]
pub struct CodecRegistry {
    codes: Vec<CodecHandle>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> CodecRegistry {
        CodecRegistry::default()
    }

    /// A registry pre-loaded with the built-in codecs (RSE, LDGM
    /// Staircase, LDGM Triangle, plain LDGM), in paper order.
    fn with_builtins() -> CodecRegistry {
        let mut r = CodecRegistry::new();
        for code in [
            builtin::rse(),
            builtin::ldgm_staircase(),
            builtin::ldgm_triangle(),
            builtin::ldgm_plain(),
        ] {
            r.register(code).expect("built-ins are conflict-free");
        }
        r
    }

    /// Adds a codec. Fails if any of its lookup tokens or its FTI
    /// codepoint is already taken.
    pub fn register(&mut self, code: impl Into<CodecHandle>) -> Result<(), CodecError> {
        let code = code.into();
        let new_tokens = tokens_of(code.as_ref());
        for existing in &self.codes {
            let taken = tokens_of(existing.as_ref());
            if let Some(clash) = new_tokens.iter().find(|t| taken.contains(t)) {
                return Err(CodecError::DuplicateCodec {
                    token: format!("name {clash:?} (held by {})", existing.id()),
                });
            }
            if let (Some(a), Some(b)) = (code.fti_id(), existing.fti_id()) {
                if a == b {
                    return Err(CodecError::DuplicateCodec {
                        token: format!("FEC Encoding ID {a} (held by {})", existing.id()),
                    });
                }
            }
        }
        self.codes.push(code);
        Ok(())
    }

    /// Resolves a name, serde token, display name or alias.
    pub fn resolve(&self, token: &str) -> Option<CodecHandle> {
        let wanted = normalize(token);
        self.codes
            .iter()
            .find(|c| tokens_of(c.as_ref()).contains(&wanted))
            .cloned()
    }

    /// Resolves an FTI codepoint (FEC Encoding ID).
    pub fn by_fti(&self, fti: u8) -> Option<CodecHandle> {
        self.codes.iter().find(|c| c.fti_id() == Some(fti)).cloned()
    }

    /// Every registered codec, in registration order.
    pub fn codes(&self) -> &[CodecHandle] {
        &self.codes
    }

    /// The codecs the §6 recommenders consider (registration order,
    /// [`ErasureCode::recommendable`] only).
    pub fn candidates(&self) -> Vec<CodecHandle> {
        self.codes
            .iter()
            .filter(|c| c.recommendable())
            .cloned()
            .collect()
    }
}

/// The process-wide registry (created on first use, built-ins included).
pub fn global() -> &'static RwLock<CodecRegistry> {
    static GLOBAL: OnceLock<RwLock<CodecRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(CodecRegistry::with_builtins()))
}

/// Registers a codec process-wide.
pub fn register(code: impl Into<CodecHandle>) -> Result<(), CodecError> {
    global().write().expect("registry lock").register(code)
}

/// Resolves a name/token against the process-wide registry.
pub fn resolve(token: &str) -> Result<CodecHandle, CodecError> {
    global()
        .read()
        .expect("registry lock")
        .resolve(token)
        .ok_or_else(|| CodecError::UnknownCodec {
            token: token.to_string(),
        })
}

/// Resolves an FTI codepoint against the process-wide registry.
pub fn by_fti(fti: u8) -> Result<CodecHandle, CodecError> {
    global()
        .read()
        .expect("registry lock")
        .by_fti(fti)
        .ok_or(CodecError::UnknownFti { fti })
}

/// Snapshot of every process-wide registered codec.
pub fn registered() -> Vec<CodecHandle> {
    global().read().expect("registry lock").codes().to_vec()
}

/// Snapshot of the process-wide §6 candidate set.
pub fn candidates() -> Vec<CodecHandle> {
    global().read().expect("registry lock").candidates()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_under_every_spelling() {
        let r = CodecRegistry::with_builtins();
        for token in [
            "rse",
            "RSE",
            "Rse",
            "reed-solomon",
            "ldgm-staircase",
            "LdgmStaircase",
            "LDGM Staircase",
            "staircase",
            "ldgm-triangle",
            "triangle",
            "LdgmTriangle",
            "ldgm-plain",
            "LdgmPlain",
        ] {
            assert!(r.resolve(token).is_some(), "{token} must resolve");
        }
        assert!(r.resolve("raptorq").is_none());
    }

    #[test]
    fn fti_codepoints_resolve() {
        let r = CodecRegistry::with_builtins();
        assert_eq!(r.by_fti(3).unwrap().id(), "ldgm-staircase");
        assert_eq!(r.by_fti(4).unwrap().id(), "ldgm-triangle");
        assert_eq!(r.by_fti(129).unwrap().id(), "rse");
        assert!(r.by_fti(77).is_none());
    }

    #[test]
    fn candidates_exclude_ablation_codes() {
        let r = CodecRegistry::with_builtins();
        let ids: Vec<String> = r.candidates().iter().map(|c| c.id().to_string()).collect();
        assert_eq!(ids, ["rse", "ldgm-staircase", "ldgm-triangle"]);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = CodecRegistry::with_builtins();
        assert!(matches!(
            r.register(builtin::rse()),
            Err(CodecError::DuplicateCodec { .. })
        ));
    }

    #[test]
    fn global_registry_has_builtins() {
        assert_eq!(resolve("triangle").unwrap().fti_id(), Some(4));
        assert!(resolve("no-such-codec").is_err());
        assert!(by_fti(129).is_ok());
        assert!(registered().len() >= 4);
    }
}
