//! fec-audit: deny(panic)
//!
//! FEC Object Transmission Information (the EXT_FTI content, RFC 3452 §5).
//!
//! The OTI is everything a receiver needs to instantiate the right decoder
//! for an object: which code, the transfer length, the symbol size, the
//! block structure and — for seeded codes like LDGM — the PRNG seed that
//! makes sender and receiver build bit-identical parity-check matrices
//! (the RFC 5170 approach).
//!
//! The code byte is the FEC Encoding ID (also mirrored in the LCT
//! codepoint), resolved through the [`fec_codec::registry`]: any
//! registered codec with an [`fti_id`](fec_codec::ErasureCode::fti_id) can
//! ride in a FLUTE session. The built-ins use their IANA numbers — 129
//! "Small Block Systematic FEC" (blocked Reed-Solomon), 3 and 4 (RFC 5170
//! LDPC-Staircase / LDPC-Triangle).
//!
//! Wire layout of the OTI blob (carried both in EXT_FTI and, base64-coded,
//! in the FDT's `FEC-OTI-Scheme-Specific-Info` attribute):
//!
//! ```text
//! offset  size  field
//! 0       1     FEC Encoding ID (also mirrored in the LCT codepoint)
//! 1       6     transfer length in bytes (48-bit BE)
//! 7       2     encoding symbol size in bytes (16-bit BE)
//! 9       4     k — total source symbols (32-bit BE)
//! 13      4     n — total encoding symbols (32-bit BE)
//! 17      8     matrix seed (64-bit BE; seeded codepoints only)
//! ```
//!
//! (RFC 3452 splits this across common and scheme-specific parts; carrying
//! one self-contained blob keeps parse sites honest — the deviation is
//! documented in the crate README.)

use fec_codec::{registry, CodecHandle};
use fec_core::{CodeSpec, ExpansionRatio};

use crate::reader::Reader;
use crate::FluteError;

/// Resolves an FEC Encoding ID (LCT codepoint) to a registered codec.
pub fn code_for_fti(fti: u8) -> Result<CodecHandle, FluteError> {
    registry::by_fti(fti).map_err(|_| FluteError::Unsupported {
        reason: format!("FEC Encoding ID {fti}"),
    })
}

/// The FEC Encoding ID a codec is transported under, or an error for
/// codecs without a registered codepoint.
pub fn fti_for_code(code: &CodecHandle) -> Result<u8, FluteError> {
    code.fti_id().ok_or_else(|| FluteError::Unsupported {
        reason: format!(
            "{} has no registered FEC Encoding ID (it cannot ride in ALC sessions)",
            code.id()
        ),
    })
}

/// Maximum transfer length representable in the 48-bit field.
const MAX_TRANSFER_LENGTH: u64 = (1 << 48) - 1;

const BASE_LEN: usize = 17;
const SEEDED_LEN: usize = BASE_LEN + 8;

/// The decoded OTI: code + object geometry + seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectTransmissionInfo {
    /// Which FEC code encodes the object (registry-resolved).
    pub code: CodecHandle,
    /// Exact object length in bytes (before symbol padding).
    pub transfer_length: u64,
    /// Encoding symbol (packet payload) size in bytes.
    pub symbol_size: u16,
    /// Total source symbols across all blocks.
    pub k: u32,
    /// Total encoding symbols across all blocks.
    pub n: u32,
    /// Structure seed (0 and unused for unseeded codes like RSE).
    pub matrix_seed: u64,
}

impl ObjectTransmissionInfo {
    /// Derives the OTI advertising a `fec-core` session.
    pub fn from_spec(
        spec: &CodeSpec,
        symbol_size: usize,
        transfer_length: u64,
    ) -> Result<ObjectTransmissionInfo, FluteError> {
        fti_for_code(&spec.code)?;
        if transfer_length == 0 || transfer_length > MAX_TRANSFER_LENGTH {
            return Err(FluteError::Malformed {
                reason: format!("transfer length {transfer_length} out of range"),
            });
        }
        let symbol_size = u16::try_from(symbol_size).map_err(|_| FluteError::Unsupported {
            reason: format!("symbol size {symbol_size} exceeds 16 bits"),
        })?;
        let layout = spec.layout()?;
        let k = u32::try_from(layout.total_source()).map_err(|_| FluteError::Unsupported {
            reason: "k exceeds 32 bits".into(),
        })?;
        let n = u32::try_from(layout.total_packets()).map_err(|_| FluteError::Unsupported {
            reason: "n exceeds 32 bits".into(),
        })?;
        Ok(ObjectTransmissionInfo {
            code: spec.code.clone(),
            transfer_length,
            symbol_size,
            k,
            n,
            matrix_seed: if spec.code.uses_matrix_seed() {
                spec.matrix_seed
            } else {
                0
            },
        })
    }

    /// The FEC Encoding ID byte (LCT codepoint) for this OTI.
    ///
    /// # Panics
    /// Never for OTIs built by this crate: construction and parsing both
    /// guarantee the code carries a codepoint.
    pub fn fti_id(&self) -> u8 {
        // audit:allow(panic) -- invariant, not input-reachable: both
        // `from_spec` (via `fti_for_code`) and `from_bytes` (via
        // `code_for_fti`) refuse codes without a registered encoding ID.
        self.code.fti_id().expect("OTI codes carry an FTI id")
    }

    /// Reconstructs the `CodeSpec` a receiver must use.
    ///
    /// The expansion ratio is recovered from `(k, n)` by trial: the
    /// paper's 1.5 and 2.5 first, then a `Custom` ratio nudged so
    /// `floor(k · ratio)` lands on `n`. The first candidate whose layout
    /// reproduces both advertised totals wins. The paper ratios cannot
    /// be recognised from `n / k` alone: a blocked code (RSE) applies the
    /// ratio per block, so with uneven blocks the total `n` is a sum of
    /// per-block floors and `n / k` is neither 1.5 nor a ratio that
    /// rebuilds the same partition. No match is an error, not a silent
    /// corruption.
    pub fn code_spec(&self) -> Result<CodeSpec, FluteError> {
        let k = self.k as usize;
        if k == 0 {
            return Err(FluteError::Malformed {
                reason: "OTI with k = 0".into(),
            });
        }
        if self.n <= self.k {
            return Err(FluteError::Malformed {
                reason: format!("OTI with n = {} <= k = {}", self.n, self.k),
            });
        }
        [
            ExpansionRatio::R1_5,
            ExpansionRatio::R2_5,
            ExpansionRatio::Custom((self.n as f64 + 0.5) / self.k as f64),
        ]
        .into_iter()
        .map(|ratio| CodeSpec {
            code: self.code.clone(),
            k,
            ratio,
            matrix_seed: self.matrix_seed,
        })
        .find(|spec| {
            spec.layout().is_ok_and(|layout| {
                layout.total_packets() == self.n as u64 && layout.total_source() == self.k as u64
            })
        })
        .ok_or_else(|| FluteError::Unsupported {
            reason: format!(
                "cannot reproduce advertised geometry k={} n={}",
                self.k, self.n
            ),
        })
    }

    /// Serialises the OTI blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEEDED_LEN);
        out.push(self.fti_id());
        let [_, _, tl @ ..] = self.transfer_length.to_be_bytes();
        out.extend_from_slice(&tl); // 48 bits
        out.extend_from_slice(&self.symbol_size.to_be_bytes());
        out.extend_from_slice(&self.k.to_be_bytes());
        out.extend_from_slice(&self.n.to_be_bytes());
        if self.code.uses_matrix_seed() {
            out.extend_from_slice(&self.matrix_seed.to_be_bytes());
        }
        out
    }

    /// Parses an OTI blob (tolerates trailing zero padding from the 32-bit
    /// aligned EXT_FTI carrier).
    pub fn from_bytes(data: &[u8]) -> Result<ObjectTransmissionInfo, FluteError> {
        let mut r = Reader::new(data, "FEC OTI");
        let code = code_for_fti(r.u8()?)?;
        let needed = if code.uses_matrix_seed() {
            SEEDED_LEN
        } else {
            BASE_LEN
        };
        if data.len() < needed {
            return Err(FluteError::Truncated {
                what: "FEC OTI",
                needed,
                got: data.len(),
            });
        }
        let transfer_length = r.u48_be()?;
        if transfer_length == 0 {
            return Err(FluteError::Malformed {
                reason: "OTI with zero transfer length".into(),
            });
        }
        let symbol_size = r.u16_be()?;
        if symbol_size == 0 {
            return Err(FluteError::Malformed {
                reason: "OTI with zero symbol size".into(),
            });
        }
        let k = r.u32_be()?;
        let n = r.u32_be()?;
        let matrix_seed = if code.uses_matrix_seed() {
            r.u64_be()?
        } else {
            0
        };
        Ok(ObjectTransmissionInfo {
            code,
            transfer_length,
            symbol_size,
            k,
            n,
            matrix_seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;
    use proptest::prelude::*;

    fn sample_spec(code: CodecHandle) -> CodeSpec {
        CodeSpec {
            code,
            k: 120,
            ratio: ExpansionRatio::R2_5,
            matrix_seed: 0xFACE,
        }
    }

    #[test]
    fn ldgm_oti_roundtrip() {
        let spec = sample_spec(builtin::ldgm_staircase());
        let oti = ObjectTransmissionInfo::from_spec(&spec, 64, 120 * 64 - 7).unwrap();
        assert_eq!(oti.fti_id(), 3);
        assert_eq!(oti.k, 120);
        assert_eq!(oti.n, 300);
        assert_eq!(oti.matrix_seed, 0xFACE);
        let wire = oti.to_bytes();
        assert_eq!(wire.len(), 25);
        let back = ObjectTransmissionInfo::from_bytes(&wire).unwrap();
        assert_eq!(back, oti);
        let spec2 = back.code_spec().unwrap();
        assert_eq!(spec2, spec);
    }

    #[test]
    fn rse_oti_has_no_seed() {
        let spec = sample_spec(builtin::rse());
        let oti = ObjectTransmissionInfo::from_spec(&spec, 32, 100).unwrap();
        let wire = oti.to_bytes();
        assert_eq!(wire.len(), 17);
        let back = ObjectTransmissionInfo::from_bytes(&wire).unwrap();
        assert_eq!(back.matrix_seed, 0);
        let spec2 = back.code_spec().unwrap();
        assert_eq!(spec2.code, builtin::rse());
        assert_eq!(spec2.k, 120);
        // Layout reproduces the advertised totals.
        assert_eq!(spec2.layout().unwrap().total_packets(), oti.n as u64);
    }

    #[test]
    fn oti_wire_bytes_are_stable() {
        // Captured from the pre-registry build: FTI bytes must not change.
        let spec = CodeSpec {
            code: builtin::ldgm_staircase(),
            k: 123,
            ratio: ExpansionRatio::R2_5,
            matrix_seed: 0xFACE,
        };
        let oti = ObjectTransmissionInfo::from_spec(&spec, 64, 123 * 64 - 7).unwrap();
        assert_eq!(
            oti.to_bytes(),
            [
                3, 0, 0, 0, 0, 30, 185, 0, 64, 0, 0, 0, 123, 0, 0, 1, 51, 0, 0, 0, 0, 0, 0, 250,
                206
            ]
        );
        let rse = CodeSpec::rse(250, ExpansionRatio::R1_5);
        let oti = ObjectTransmissionInfo::from_spec(&rse, 32, 999).unwrap();
        assert_eq!(
            oti.to_bytes(),
            [129, 0, 0, 0, 0, 3, 231, 0, 32, 0, 0, 0, 250, 0, 0, 1, 118]
        );
    }

    #[test]
    fn oti_tolerates_ext_padding() {
        let spec = sample_spec(builtin::ldgm_triangle());
        let oti = ObjectTransmissionInfo::from_spec(&spec, 64, 999).unwrap();
        let mut wire = oti.to_bytes();
        wire.extend_from_slice(&[0, 0, 0]); // EXT_FTI alignment padding
        assert_eq!(ObjectTransmissionInfo::from_bytes(&wire).unwrap(), oti);
    }

    #[test]
    fn custom_ratio_reproduces_geometry() {
        // k = 97, n = 241: ratio 2.4845… — not a paper ratio.
        let oti = ObjectTransmissionInfo {
            code: builtin::ldgm_staircase(),
            transfer_length: 97 * 16,
            symbol_size: 16,
            k: 97,
            n: 241,
            matrix_seed: 5,
        };
        let spec = oti.code_spec().unwrap();
        let layout = spec.layout().unwrap();
        assert_eq!(layout.total_source(), 97);
        assert_eq!(layout.total_packets(), 241);
    }

    /// RSE applies the ratio per block, so uneven blocks make the total
    /// `n` a sum of per-block floors: 319 of these 400 geometries (the
    /// paper's k = 20 000 among them) used to advertise an OTI no
    /// receiver could turn back into the sender's code.
    #[test]
    fn uneven_rse_blocks_round_trip() {
        for ratio in [ExpansionRatio::R1_5, ExpansionRatio::R2_5] {
            for k in (100..=20_000).step_by(100) {
                let spec = CodeSpec::rse(k, ratio);
                let oti =
                    ObjectTransmissionInfo::from_spec(&spec, 1024, (k * 1024) as u64).unwrap();
                let back = oti
                    .code_spec()
                    .unwrap_or_else(|e| panic!("k = {k}, ratio {ratio}: {e}"));
                assert_eq!(back, spec, "k = {k}");
            }
        }
    }

    #[test]
    fn degenerate_oti_rejected() {
        let mut oti = ObjectTransmissionInfo {
            code: builtin::ldgm_staircase(),
            transfer_length: 100,
            symbol_size: 16,
            k: 10,
            n: 25,
            matrix_seed: 0,
        };
        oti.k = 0;
        assert!(oti.code_spec().is_err());
        oti.k = 30;
        assert!(oti.code_spec().is_err(), "n <= k");
    }

    #[test]
    fn unknown_encoding_rejected() {
        assert!(code_for_fti(0).is_err());
        assert!(code_for_fti(128).is_err());
        let mut wire =
            ObjectTransmissionInfo::from_spec(&sample_spec(builtin::ldgm_staircase()), 64, 100)
                .unwrap()
                .to_bytes();
        wire[0] = 77;
        assert!(ObjectTransmissionInfo::from_bytes(&wire).is_err());
    }

    #[test]
    fn zero_fields_rejected() {
        let base =
            ObjectTransmissionInfo::from_spec(&sample_spec(builtin::ldgm_staircase()), 64, 100)
                .unwrap();
        let mut wire = base.to_bytes();
        wire[1..7].fill(0); // transfer length 0
        assert!(ObjectTransmissionInfo::from_bytes(&wire).is_err());
        let mut wire = base.to_bytes();
        wire[7..9].fill(0); // symbol size 0
        assert!(ObjectTransmissionInfo::from_bytes(&wire).is_err());
    }

    #[test]
    fn ldgm_plain_has_no_encoding_id() {
        assert!(fti_for_code(&builtin::ldgm_plain()).is_err());
        let spec = sample_spec(builtin::ldgm_plain());
        assert!(ObjectTransmissionInfo::from_spec(&spec, 64, 100).is_err());
    }

    #[test]
    fn transfer_length_range_checked() {
        let spec = sample_spec(builtin::ldgm_staircase());
        assert!(ObjectTransmissionInfo::from_spec(&spec, 64, 0).is_err());
        assert!(ObjectTransmissionInfo::from_spec(&spec, 64, 1 << 48).is_err());
    }

    proptest! {
        #[test]
        fn wire_roundtrip_arbitrary(
            fti in prop_oneof![Just(3u8), Just(4u8), Just(129u8)],
            transfer_length in 1u64..MAX_TRANSFER_LENGTH,
            symbol_size in 1u16..,
            k in any::<u32>(),
            n in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let code = code_for_fti(fti).unwrap();
            let seeded = code.uses_matrix_seed();
            let oti = ObjectTransmissionInfo {
                code,
                transfer_length,
                symbol_size,
                k,
                n,
                matrix_seed: if seeded { seed } else { 0 },
            };
            let back = ObjectTransmissionInfo::from_bytes(&oti.to_bytes()).unwrap();
            prop_assert_eq!(back, oti);
        }

        /// Parsing arbitrary bytes never panics.
        #[test]
        fn fuzz_parse_no_panic(data in proptest::collection::vec(any::<u8>(), 0..40)) {
            let _ = ObjectTransmissionInfo::from_bytes(&data);
        }
    }
}
