//! Error type for the session layer.

use core::fmt;

/// Errors from session construction, packet handling and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A [`crate::CodeSpec`] is internally inconsistent.
    BadSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// The object does not match the spec (`k != ceil(len / symbol_size)`).
    ObjectMismatch {
        /// Expected number of source symbols from the spec.
        expected_k: usize,
        /// Number of symbols the object actually needs.
        actual_k: usize,
    },
    /// A packet refers to a block/ESI outside the session layout.
    UnknownPacket {
        /// Block number in the packet.
        block: u32,
        /// ESI in the packet.
        esi: u32,
    },
    /// Payload size differs from the session symbol size.
    WrongSymbolSize {
        /// Expected payload size.
        expected: usize,
        /// Received payload size.
        got: usize,
    },
    /// `into_object` was called before decoding completed.
    NotDecoded {
        /// Source packets recovered so far.
        decoded: usize,
        /// Source packets needed.
        needed: usize,
    },
    /// An inner codec failed (propagated).
    Codec {
        /// Inner error description.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadSpec { reason } => write!(f, "invalid code spec: {reason}"),
            CoreError::ObjectMismatch {
                expected_k,
                actual_k,
            } => write!(
                f,
                "object needs {actual_k} symbols but the spec declares k = {expected_k}"
            ),
            CoreError::UnknownPacket { block, esi } => {
                write!(f, "packet {block}:{esi} outside the session layout")
            }
            CoreError::WrongSymbolSize { expected, got } => {
                write!(
                    f,
                    "payload of {got} bytes, session symbol size is {expected}"
                )
            }
            CoreError::NotDecoded { decoded, needed } => {
                write!(
                    f,
                    "object not decoded yet ({decoded}/{needed} source packets)"
                )
            }
            CoreError::Codec { detail } => write!(f, "codec error: {detail}"),
        }
    }
}

impl std::error::Error for CoreError {}
