//! Experiment vocabulary: codec handles, expansion ratios, errors.
//!
//! The codes themselves live in [`fec_codec`]; this module re-exports the
//! vocabulary and keeps the simulation-facing error type.

use core::fmt;

pub use fec_codec::{CodecHandle, ExpansionRatio};

/// Errors from experiment validation and multi-host sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Invalid experiment parameters.
    BadExperiment {
        /// Human-readable reason.
        reason: String,
    },
    /// A shard spec, partial file or unit result the multi-host pipeline
    /// refuses.
    Shard {
        /// The whole message: what is wrong, in which file and unit.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadExperiment { reason } => write!(f, "invalid experiment: {reason}"),
            SimError::Shard { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for SimError {}

impl From<fec_codec::CodecError> for SimError {
    fn from(e: fec_codec::CodecError) -> SimError {
        SimError::BadExperiment {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;

    #[test]
    fn paper_vocabulary() {
        assert_eq!(ExpansionRatio::R1_5.as_f64(), 1.5);
        assert_eq!(ExpansionRatio::R2_5.as_f64(), 2.5);
        assert_eq!(builtin::rse().name(), "RSE");
        assert!(!builtin::rse().is_large_block());
        assert!(builtin::ldgm_triangle().is_large_block());
    }

    #[test]
    fn ldgm_layout_is_single_block() {
        let l = builtin::ldgm_staircase().layout(1000, 2.5).unwrap();
        assert_eq!(l.num_blocks(), 1);
        assert_eq!(l.total_packets(), 2500);
        assert_eq!(l.total_source(), 1000);
    }

    #[test]
    fn rse_layout_is_blocked() {
        let l = builtin::rse().layout(1000, 2.5).unwrap();
        assert!(l.num_blocks() > 1);
        assert_eq!(l.total_source(), 1000);
        // Every block fits the GF(2^8) bound.
        for b in 0..l.num_blocks() {
            assert!(l.block(b).1 <= 255);
        }
    }

    #[test]
    fn paper_scale_rse_layout() {
        let l = builtin::rse().layout(20_000, 2.5).unwrap();
        assert_eq!(l.num_blocks(), 197);
        assert_eq!(l.total_packets(), 49_953);
    }

    #[test]
    fn paper_scale_ldgm_layout() {
        let l = builtin::ldgm_triangle().layout(20_000, 2.5).unwrap();
        assert_eq!(l.total_packets(), 50_000);
    }

    #[test]
    fn validation_errors() {
        assert!(builtin::rse().layout(0, 2.5).is_err());
        assert!(builtin::ldgm_staircase().layout(10, 0.5).is_err());
        assert!(builtin::ldgm_staircase().layout(10, 1.0).is_err());
        assert!(builtin::rse().layout(10, f64::NAN).is_err());
    }
}
