//! Error type for the RSE codec.

use core::fmt;

/// Errors reported by the Reed-Solomon erasure codec.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RseError {
    /// Requested `(k, n)` outside `0 < k <= n <= 255`.
    BadParameters {
        /// Requested number of source symbols.
        k: usize,
        /// Requested total number of symbols.
        n: usize,
    },
    /// Fewer than `k` distinct symbols were supplied to the decoder.
    NotEnoughSymbols {
        /// Symbols available.
        have: usize,
        /// Symbols required (`k`).
        need: usize,
    },
    /// A symbol had an encoding symbol ID outside `0..n`.
    BadEsi {
        /// Offending encoding symbol ID.
        esi: u32,
        /// Block length `n`.
        n: usize,
    },
    /// The same ESI was supplied twice to the decoder.
    DuplicateEsi {
        /// The duplicated encoding symbol ID.
        esi: u32,
    },
    /// Symbols of inconsistent length were supplied.
    SymbolLengthMismatch {
        /// Length of the first symbol seen.
        expected: usize,
        /// Length of the offending symbol.
        got: usize,
    },
    /// The received parity rows' coefficients on the missing source
    /// symbols form a singular matrix. An MDS generator never does; this
    /// reports a broken generator instead of aborting.
    SingularMinor,
    /// The number of source symbols given to `encode` is not `k`.
    WrongSourceCount {
        /// Symbols supplied.
        got: usize,
        /// Symbols expected (`k`).
        expected: usize,
    },
}

impl fmt::Display for RseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RseError::BadParameters { k, n } => {
                write!(
                    f,
                    "invalid RSE parameters k={k}, n={n} (need 0 < k <= n <= 255)"
                )
            }
            RseError::NotEnoughSymbols { have, need } => {
                write!(f, "not enough symbols to decode: have {have}, need {need}")
            }
            RseError::BadEsi { esi, n } => write!(f, "ESI {esi} out of range (n = {n})"),
            RseError::DuplicateEsi { esi } => write!(f, "duplicate ESI {esi}"),
            RseError::SymbolLengthMismatch { expected, got } => {
                write!(f, "symbol length mismatch: expected {expected}, got {got}")
            }
            RseError::SingularMinor => {
                f.write_str("the received parity rows cannot solve the missing sources")
            }
            RseError::WrongSourceCount { got, expected } => {
                write!(
                    f,
                    "encode needs exactly k={expected} source symbols, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for RseError {}
