//! The shared FEC configuration descriptor.

use serde::{Deserialize, Serialize, Value};

use fec_codec::{CodecHandle, SessionParams};
use fec_sched::Layout;
use fec_sim::ExpansionRatio;

use crate::CoreError;

/// A complete FEC configuration, shared between sender and receivers.
///
/// In a FLUTE/ALC deployment this is what the file delivery table carries:
/// with the same `CodeSpec`, both ends derive identical layouts, matrices
/// and codecs — no other coordination is needed.
///
/// The code is any registered [`fec_codec::ErasureCode`]; serialization is
/// wire-compatible with the pre-registry format (the codec is written
/// under the `"kind"` key as its compat token).
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSpec {
    /// Which code to use (any registered codec).
    pub code: CodecHandle,
    /// Number of source symbols the object is split into.
    pub k: usize,
    /// FEC expansion ratio `n/k`.
    pub ratio: ExpansionRatio,
    /// Seed for deterministic code-structure construction (ignored by
    /// codes that don't use one, e.g. RSE).
    pub matrix_seed: u64,
}

impl CodeSpec {
    /// A spec for any registered codec, with the default structure seed.
    pub fn new(code: impl Into<CodecHandle>, k: usize, ratio: ExpansionRatio) -> CodeSpec {
        let code = code.into();
        let matrix_seed = if code.uses_matrix_seed() { 1 } else { 0 };
        CodeSpec {
            code,
            k,
            ratio,
            matrix_seed,
        }
    }

    /// LDGM Staircase over `k` source symbols.
    pub fn ldgm_staircase(k: usize, ratio: ExpansionRatio) -> CodeSpec {
        CodeSpec::new(fec_codec::builtin::ldgm_staircase(), k, ratio)
    }

    /// LDGM Triangle over `k` source symbols.
    pub fn ldgm_triangle(k: usize, ratio: ExpansionRatio) -> CodeSpec {
        CodeSpec::new(fec_codec::builtin::ldgm_triangle(), k, ratio)
    }

    /// Blocked Reed-Solomon over `k` source symbols.
    pub fn rse(k: usize, ratio: ExpansionRatio) -> CodeSpec {
        CodeSpec::new(fec_codec::builtin::rse(), k, ratio)
    }

    /// Overrides the LDGM matrix seed (sender and receiver must agree).
    pub fn with_matrix_seed(mut self, seed: u64) -> CodeSpec {
        self.matrix_seed = seed;
        self
    }

    /// Derives the spec for an object of `object_len` bytes cut into
    /// `symbol_size`-byte symbols.
    pub fn for_object(
        code: impl Into<CodecHandle>,
        ratio: ExpansionRatio,
        object_len: usize,
        symbol_size: usize,
    ) -> Result<CodeSpec, CoreError> {
        if object_len == 0 {
            return Err(CoreError::BadSpec {
                reason: "empty object".into(),
            });
        }
        if symbol_size == 0 {
            return Err(CoreError::BadSpec {
                reason: "zero symbol size".into(),
            });
        }
        Ok(CodeSpec::new(code, object_len.div_ceil(symbol_size), ratio))
    }

    /// The per-object codec session parameters this spec induces.
    pub fn session_params(&self, symbol_size: usize) -> SessionParams {
        SessionParams {
            k: self.k,
            ratio: self.ratio.as_f64(),
            symbol_size,
            seed: self.matrix_seed,
        }
    }

    /// The packet layout this spec induces.
    pub fn layout(&self) -> Result<Layout, CoreError> {
        self.code
            .layout(self.k, self.ratio.as_f64())
            .map_err(|e| CoreError::BadSpec {
                reason: e.to_string(),
            })
    }

    /// Checks an object length against `k`.
    pub fn validate_object(&self, object_len: usize, symbol_size: usize) -> Result<(), CoreError> {
        if symbol_size == 0 {
            return Err(CoreError::BadSpec {
                reason: "zero symbol size".into(),
            });
        }
        if object_len == 0 {
            return Err(CoreError::BadSpec {
                reason: "empty object".into(),
            });
        }
        let actual_k = object_len.div_ceil(symbol_size);
        if actual_k != self.k {
            return Err(CoreError::ObjectMismatch {
                expected_k: self.k,
                actual_k,
            });
        }
        Ok(())
    }
}

/// Wire format (unchanged from the pre-registry enum): the codec travels
/// under the `"kind"` key as its serde token.
impl Serialize for CodeSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("kind".to_string(), self.code.to_value()),
            ("k".to_string(), self.k.to_value()),
            ("ratio".to_string(), self.ratio.to_value()),
            ("matrix_seed".to_string(), self.matrix_seed.to_value()),
        ])
    }
}

impl Deserialize for CodeSpec {
    fn from_value(v: &Value) -> Result<CodeSpec, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected CodeSpec object"))?;
        Ok(CodeSpec {
            code: CodecHandle::from_value(serde::field(obj, "kind"))?,
            k: usize::from_value(serde::field(obj, "k"))?,
            ratio: ExpansionRatio::from_value(serde::field(obj, "ratio"))?,
            matrix_seed: u64::from_value(serde::field(obj, "matrix_seed"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;

    #[test]
    fn for_object_derives_k() {
        let s = CodeSpec::for_object(builtin::ldgm_staircase(), ExpansionRatio::R2_5, 1000, 64)
            .unwrap();
        assert_eq!(s.k, 16); // ceil(1000/64)
        s.validate_object(1000, 64).unwrap();
    }

    #[test]
    fn validate_object_rejects_mismatch() {
        let s = CodeSpec::ldgm_staircase(10, ExpansionRatio::R1_5);
        assert!(matches!(
            s.validate_object(1000, 64),
            Err(CoreError::ObjectMismatch {
                expected_k: 10,
                actual_k: 16
            })
        ));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(CodeSpec::for_object(builtin::rse(), ExpansionRatio::R1_5, 0, 64).is_err());
        assert!(CodeSpec::for_object(builtin::rse(), ExpansionRatio::R1_5, 10, 0).is_err());
        let s = CodeSpec::rse(10, ExpansionRatio::R1_5);
        assert!(s.validate_object(0, 64).is_err());
        assert!(s.validate_object(10, 0).is_err());
    }

    #[test]
    fn layout_dispatches_by_code() {
        let ldgm = CodeSpec::ldgm_triangle(1000, ExpansionRatio::R2_5);
        assert_eq!(ldgm.layout().unwrap().num_blocks(), 1);
        let rse = CodeSpec::rse(1000, ExpansionRatio::R2_5);
        assert!(rse.layout().unwrap().num_blocks() > 1);
    }

    #[test]
    fn spec_round_trips_through_serde() {
        let s = CodeSpec::ldgm_staircase(123, ExpansionRatio::R2_5).with_matrix_seed(99);
        let json = serde_json::to_string(&s).unwrap();
        let back: CodeSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn spec_serialization_is_wire_stable() {
        // Captured from the pre-registry build: the enum-era JSON must
        // keep round-tripping byte-for-byte.
        let s = CodeSpec::ldgm_staircase(123, ExpansionRatio::R2_5).with_matrix_seed(99);
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            r#"{"kind":"LdgmStaircase","k":123,"ratio":"R2_5","matrix_seed":99}"#
        );
        let legacy = r#"{"kind":"Rse","k":250,"ratio":"R1_5","matrix_seed":0}"#;
        let back: CodeSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(back, CodeSpec::rse(250, ExpansionRatio::R1_5));
    }

    #[test]
    fn default_seed_depends_on_code() {
        assert_eq!(CodeSpec::rse(10, ExpansionRatio::R1_5).matrix_seed, 0);
        assert_eq!(
            CodeSpec::ldgm_staircase(10, ExpansionRatio::R2_5).matrix_seed,
            1
        );
    }
}
