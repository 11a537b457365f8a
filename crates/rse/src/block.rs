//! Object blocking: RFC 5052-style partitioning of a large object into
//! near-equal source blocks, each small enough for GF(2^8) Reed-Solomon.
//!
//! This is the substrate behind the paper's "coupon collector" observation
//! (§2.2): once an object needs `B > 1` blocks, a random parity packet only
//! has probability `1/B` of repairing a given erasure, so RSE's effective
//! efficiency drops as objects grow.

use crate::max_k_for_ratio;

/// Parameters of one source block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    /// Number of source symbols in this block.
    pub k: usize,
    /// Total number of encoding symbols in this block (`k <= n <= 255`).
    pub n: usize,
}

impl BlockParams {
    /// Number of parity symbols.
    #[inline]
    pub fn parity(&self) -> usize {
        self.n - self.k
    }
}

/// A partition of `k_total` source symbols into blocks.
///
/// Built with the RFC 5052 algorithm: `B = ceil(k_total / max_k)` blocks,
/// the first `k_total - a_small * B` of size `a_large = ceil(k_total / B)`,
/// the rest of size `a_small = floor(k_total / B)`. Per-block length is
/// `n_b = floor(k_b * ratio)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    blocks: Vec<BlockParams>,
    k_total: usize,
}

impl Partition {
    /// Partitions `k_total` source symbols using at most `max_k` symbols per
    /// block, expanding each block by `ratio`.
    ///
    /// # Panics
    /// Panics if `k_total == 0`, `max_k == 0`, `ratio < 1.0`, or if the
    /// resulting `n_b` would exceed 255 (caller should derive `max_k` from
    /// [`max_k_for_ratio`]).
    pub fn new(k_total: usize, max_k: usize, ratio: f64) -> Partition {
        assert!(k_total > 0, "cannot partition an empty object");
        assert!(max_k > 0, "max block size must be positive");
        assert!(ratio >= 1.0, "FEC expansion ratio must be >= 1.0");

        let b = k_total.div_ceil(max_k);
        let a_large = k_total.div_ceil(b);
        let a_small = k_total / b;
        let num_large = k_total - a_small * b; // a_large blocks come first

        let mut blocks = Vec::with_capacity(b);
        for i in 0..b {
            let k = if i < num_large { a_large } else { a_small };
            let n = ((k as f64) * ratio).floor() as usize;
            assert!(
                n <= crate::MAX_N,
                "block n={n} exceeds GF(2^8) limit; derive max_k from max_k_for_ratio"
            );
            blocks.push(BlockParams { k, n: n.max(k) });
        }
        Partition { blocks, k_total }
    }

    /// Convenience constructor using the largest block size the field allows
    /// for this expansion ratio — the choice used throughout the paper.
    pub fn for_ratio(k_total: usize, ratio: f64) -> Partition {
        Partition::new(k_total, max_k_for_ratio(ratio), ratio)
    }

    /// The blocks, in transmission order.
    #[inline]
    pub fn blocks(&self) -> &[BlockParams] {
        &self.blocks
    }

    /// Number of blocks `B`.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total source symbols across blocks (equals the requested `k_total`).
    #[inline]
    pub fn k_total(&self) -> usize {
        self.k_total
    }

    /// Total encoding symbols across blocks.
    pub fn n_total(&self) -> usize {
        self.blocks.iter().map(|b| b.n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_block_when_small() {
        let p = Partition::for_ratio(50, 2.5);
        assert_eq!(p.num_blocks(), 1);
        assert_eq!(p.blocks()[0], BlockParams { k: 50, n: 125 });
    }

    #[test]
    fn paper_scale_partition_ratio_2_5() {
        // k = 20000, ratio 2.5 => max_k = 102.
        let p = Partition::for_ratio(20_000, 2.5);
        assert_eq!(p.num_blocks(), 197);
        // RFC 5052: A_large = ceil(20000/197) = 102, A_small = 101,
        // num_large = 20000 - 101*197 = 103.
        let large = p.blocks().iter().filter(|b| b.k == 102).count();
        let small = p.blocks().iter().filter(|b| b.k == 101).count();
        assert_eq!((large, small), (103, 94));
        assert_eq!(p.k_total(), 20_000);
        // n_b = floor(k_b * 2.5): 255 and 252.
        assert_eq!(p.blocks()[0].n, 255);
        assert_eq!(p.blocks()[196].n, 252);
        // Paper §4.5: with Tx_model_3 and p = 0, RSE decodes after exactly
        // 29903 packets: all parity except the last block's tail, plus k_b of
        // the last block. This pins down the whole partition geometry.
        let total_parity: usize = p.blocks().iter().map(|b| b.parity()).sum();
        let last = *p.blocks().last().unwrap();
        assert_eq!(total_parity - last.parity() + last.k, 29_903);
    }

    #[test]
    fn large_blocks_come_first() {
        let p = Partition::new(10, 3, 2.0);
        // B = 4, a_large = 3, a_small = 2, num_large = 10 - 2*4 = 2.
        let ks: Vec<usize> = p.blocks().iter().map(|b| b.k).collect();
        assert_eq!(ks, vec![3, 3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "empty object")]
    fn empty_object_rejected() {
        let _ = Partition::new(0, 10, 1.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Partition invariants for arbitrary sizes.
        #[test]
        fn partition_invariants(k_total in 1usize..5_000, ratio_pct in 100u32..=300) {
            let ratio = ratio_pct as f64 / 100.0;
            let p = Partition::for_ratio(k_total, ratio);
            // Sum of block sizes is the object size.
            let sum: usize = p.blocks().iter().map(|b| b.k).sum();
            prop_assert_eq!(sum, k_total);
            // Sizes differ by at most one, larger first (RFC 5052).
            let ks: Vec<usize> = p.blocks().iter().map(|b| b.k).collect();
            let max = *ks.iter().max().unwrap();
            let min = *ks.iter().min().unwrap();
            prop_assert!(max - min <= 1);
            let mut sorted = ks.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert_eq!(ks, sorted);
            // Every block respects the field bound and the ratio.
            for b in p.blocks() {
                prop_assert!(b.n <= crate::MAX_N);
                prop_assert!(b.n >= b.k);
                prop_assert_eq!(b.n, ((b.k as f64) * ratio).floor() as usize);
            }
        }
    }
}
