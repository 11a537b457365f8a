//! Reed-Solomon erasure codec (RSE) over GF(2^8), with object blocking.
//!
//! This is the small-block MDS code of the paper (§2.2): a *systematic*
//! Reed-Solomon code built from a Vandermonde generator matrix, in the style
//! of Rizzo's classic `fec` codec. A block of `k` source packets is expanded
//! into `n <= 255` encoding packets; **any** `k` of the `n` suffice to
//! recover the block (the MDS property — verified by property tests).
//!
//! Because GF(2^8) caps `n` at 255, objects larger than one block must be
//! *segmented*: the [`block`] module implements RFC 5052-style partitioning
//! into near-equal blocks, which is exactly what exposes RSE to the paper's
//! "coupon collector" inefficiency — a parity packet only helps the one block
//! it belongs to.
//!
//! Two decoders are provided:
//! * [`RseCodec::decode`] — the real thing, moving payload bytes, used by the
//!   session layer (`fec-core`) and the examples;
//! * [`StructuralObjectDecoder`] — an index-only mirror used by the
//!   Monte-Carlo sweeps in `fec-sim`, where only *when* decoding completes
//!   matters, not the bytes. For an MDS code the structural rule is simply
//!   "a block is decoded once `k_b` distinct packets of it arrived".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
mod codec;
mod error;
mod structural;

pub use block::{BlockParams, Partition};
pub use codec::RseCodec;
pub use error::RseError;
pub use structural::StructuralObjectDecoder;

/// Hard upper bound on the block length `n` over GF(2^8): the evaluation
/// points `alpha^i` are only distinct for `i < 255`.
pub const MAX_N: usize = 255;

/// Largest source block size `k` usable with a given FEC expansion ratio so
/// that `n = floor(k * ratio)` still fits in [`MAX_N`].
///
/// For the paper's ratios: `max_k(1.5) = 170`, `max_k(2.5) = 102`.
///
/// # Panics
/// Panics if `ratio < 1.0` (a FEC expansion ratio below 1 would mean sending
/// fewer packets than the source).
pub fn max_k_for_ratio(ratio: f64) -> usize {
    assert!(ratio >= 1.0, "FEC expansion ratio must be >= 1.0");
    let mut k = (MAX_N as f64 / ratio).floor() as usize;
    // Guard against floating point edge cases: ensure floor(k * ratio) <= MAX_N.
    while k > 1 && (k as f64 * ratio).floor() as usize > MAX_N {
        k -= 1;
    }
    k.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_k_matches_paper_ratios() {
        assert_eq!(max_k_for_ratio(1.5), 170);
        assert_eq!(max_k_for_ratio(2.5), 102);
        assert_eq!(max_k_for_ratio(1.0), 255);
    }

    #[test]
    #[should_panic(expected = "ratio must be >= 1.0")]
    fn sub_unit_ratio_rejected() {
        let _ = max_k_for_ratio(0.5);
    }
}
