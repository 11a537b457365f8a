//! Error type for the distributed sweep pipeline.

use std::fmt;

use fec_sim::SimError;

/// Anything that can go wrong between planning a sweep and merging its
/// partial results.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistribError {
    /// The underlying experiment or sweep configuration is invalid.
    Sim(SimError),
    /// A malformed plan, shard spec, or partial-result document.
    Protocol {
        /// Human-readable description.
        detail: String,
    },
    /// A merge was attempted over partials of a different plan.
    PlanMismatch {
        /// Fingerprint of the plan being merged into.
        expected: u64,
        /// Fingerprint carried by the offending partial.
        found: u64,
    },
    /// The partial set does not cover the plan exactly once.
    Incomplete {
        /// Unit ids no partial accounted for (first few).
        missing: Vec<u32>,
        /// Total number of missing units.
        missing_count: usize,
    },
}

impl fmt::Display for DistribError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistribError::Sim(e) => write!(f, "{e}"),
            DistribError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            DistribError::PlanMismatch { expected, found } => write!(
                f,
                "partial belongs to a different plan \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            DistribError::Incomplete {
                missing,
                missing_count,
            } => write!(
                f,
                "partial set is incomplete: {missing_count} unit(s) missing \
                 (first: {missing:?})"
            ),
        }
    }
}

impl std::error::Error for DistribError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistribError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for DistribError {
    fn from(e: SimError) -> DistribError {
        DistribError::Sim(e)
    }
}
