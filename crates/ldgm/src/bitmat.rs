//! Dense GF(2) linear algebra for maximum-likelihood (ML) decoding.
//!
//! Peeling (the paper's §2.3.2 algorithm) gives up on *stopping sets*:
//! residual equation systems where every equation still has two or more
//! unknowns. Those systems are small near the decoding threshold, and they
//! are plain linear systems over GF(2) — exactly what Gaussian elimination
//! solves. This module provides the dense bit-matrix that the [`crate::gauss`]
//! hybrid decoders run elimination on; rows are packed 64 variables per
//! `u64` word so a row XOR touches `cols / 64` words.
//!
//! The matrix is deliberately minimal: no abstract traits, no generic
//! scalars (smoltcp-style simplicity). It knows nothing about FEC; the
//! coupling between bit rows and payload accumulators lives in the solver,
//! which mirrors every row operation onto the caller's right-hand sides
//! through [`RowOp`].

use core::fmt;

/// A dense `rows × cols` matrix over GF(2), rows packed into `u64` words.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

/// An elementary row operation performed during elimination, reported to the
/// caller so parallel right-hand sides (payload accumulators) stay in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOp {
    /// `dst ^= src` (rows are distinct).
    Xor {
        /// Row whose contents are folded in (unchanged).
        src: usize,
        /// Row receiving the fold.
        dst: usize,
    },
    /// Rows `a` and `b` exchanged places.
    Swap {
        /// First row.
        a: usize,
        /// Second row.
        b: usize,
    },
}

impl BitMatrix {
    /// Creates an all-zero matrix. `rows == 0` or `cols == 0` is allowed
    /// (empty systems are legal inputs to the solver).
    pub fn zero(rows: usize, cols: usize) -> BitMatrix {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            words: vec![0u64; rows * words_per_row],
        }
    }

    #[inline]
    fn word_index(&self, r: usize, c: usize) -> (usize, u64) {
        debug_assert!(r < self.rows && c < self.cols, "bit index out of range");
        (r * self.words_per_row + c / 64, 1u64 << (c % 64))
    }

    /// Reads bit `(r, c)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if out of range; release reads garbage-free
    /// because the index math is checked by the slice access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        let (w, mask) = self.word_index(r, c);
        self.words[w] & mask != 0
    }

    /// Sets bit `(r, c)` to `bit`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, bit: bool) {
        let (w, mask) = self.word_index(r, c);
        if bit {
            self.words[w] |= mask;
        } else {
            self.words[w] &= !mask;
        }
    }

    /// Flips bit `(r, c)`.
    #[inline]
    pub fn flip(&mut self, r: usize, c: usize) {
        let (w, mask) = self.word_index(r, c);
        self.words[w] ^= mask;
    }

    /// `dst ^= src`. The rows must be distinct.
    fn xor_rows(&mut self, src: usize, dst: usize) {
        assert_ne!(src, dst, "xor_rows requires distinct rows");
        let w = self.words_per_row;
        let (lo, hi) = (src.min(dst), src.max(dst));
        let (head, tail) = self.words.split_at_mut(hi * w);
        let low = &mut head[lo * w..lo * w + w];
        let high = &mut tail[..w];
        let (s_row, d_row): (&[u64], &mut [u64]) =
            if src < dst { (low, high) } else { (high, low) };
        for (d, s) in d_row.iter_mut().zip(s_row) {
            *d ^= s;
        }
    }

    /// Swaps two rows (no-op when equal).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let w = self.words_per_row;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.words.split_at_mut(hi * w);
        head[lo * w..lo * w + w].swap_with_slice(&mut tail[..w]);
    }

    /// Number of set bits in row `r`.
    pub fn row_weight(&self, r: usize) -> usize {
        let w = self.words_per_row;
        self.words[r * w..(r + 1) * w]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Reduces the matrix in place to **reduced row echelon form** and
    /// returns the pivot list as `(row, col)` pairs, in increasing column
    /// order. Every elementary operation is reported to `on_op` *before* it
    /// is applied, so callers can mirror it onto right-hand sides.
    ///
    /// Elimination is column-major Gauss-Jordan: for each column (left to
    /// right) find a pivot row at or below the current rank frontier, swap it
    /// up, and clear the column everywhere else. Cost is
    /// `O(rows · cols · cols/64)` — fine for the residual stopping-set
    /// systems this crate feeds it (thousands of unknowns at most).
    pub fn reduce(&mut self, mut on_op: impl FnMut(RowOp)) -> Vec<(usize, usize)> {
        let mut pivots = Vec::new();
        let mut next_row = 0usize;
        for col in 0..self.cols {
            if next_row == self.rows {
                break;
            }
            // Find a row with a 1 in this column at or below the frontier.
            let Some(pivot) = (next_row..self.rows).find(|&r| self.get(r, col)) else {
                continue;
            };
            if pivot != next_row {
                on_op(RowOp::Swap {
                    a: pivot,
                    b: next_row,
                });
                self.swap_rows(pivot, next_row);
            }
            // Clear the column in every other row (full Gauss-Jordan so the
            // result is RREF, which the determinedness test needs).
            for r in 0..self.rows {
                if r != next_row && self.get(r, col) {
                    on_op(RowOp::Xor {
                        src: next_row,
                        dst: r,
                    });
                    self.xor_rows(next_row, r);
                }
            }
            pivots.push((next_row, col));
            next_row += 1;
        }
        pivots
    }

    /// Rank of the matrix (destructive helper on a clone).
    pub fn rank(&self) -> usize {
        self.clone().reduce(|_| {}).len()
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix({}x{})", self.rows, self.cols)?;
        for r in 0..self.rows.min(32) {
            for c in 0..self.cols.min(128) {
                f.write_str(if self.get(r, c) { "1" } else { "." })?;
            }
            writeln!(f)?;
        }
        if self.rows > 32 || self.cols > 128 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zero_matrix_has_rank_zero() {
        let m = BitMatrix::zero(4, 7);
        assert_eq!(m.rank(), 0);
        assert!(m.row_weight(0) == 0 && m.row_weight(2) == 0);
    }

    #[test]
    fn empty_dimensions_are_legal() {
        assert_eq!(BitMatrix::zero(0, 5).rank(), 0);
        assert_eq!(BitMatrix::zero(5, 0).rank(), 0);
        assert_eq!(BitMatrix::zero(0, 0).rank(), 0);
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut m = BitMatrix::zero(3, 130); // spans three words
        m.set(1, 0, true);
        m.set(1, 63, true);
        m.set(1, 64, true);
        m.set(1, 129, true);
        assert!(m.get(1, 0) && m.get(1, 63) && m.get(1, 64) && m.get(1, 129));
        assert_eq!(m.row_weight(1), 4);
        m.flip(1, 64);
        assert!(!m.get(1, 64));
        assert_eq!(m.row_weight(1), 3);
        assert!(m.row_weight(0) == 0 && m.row_weight(2) == 0);
    }

    #[test]
    fn identity_has_full_rank() {
        let n = 70;
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        assert_eq!(m.rank(), n);
        let pivots = m.clone().reduce(|_| {});
        assert_eq!(pivots, (0..n).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn xor_rows_works_in_both_directions() {
        let mut m = BitMatrix::zero(2, 100);
        m.set(0, 3, true);
        m.set(1, 99, true);
        m.xor_rows(0, 1); // low -> high
        assert!(m.get(1, 3) && m.get(1, 99));
        m.xor_rows(1, 0); // high -> low
        assert!(m.get(0, 99) && !m.get(0, 3));
    }

    #[test]
    fn swap_rows_across_word_boundary() {
        let mut m = BitMatrix::zero(3, 65);
        m.set(0, 64, true);
        m.set(2, 0, true);
        m.swap_rows(0, 2);
        assert!(m.get(2, 64) && m.get(0, 0));
        m.swap_rows(1, 1); // self-swap is a no-op
        assert!(m.row_weight(1) == 0);
    }

    #[test]
    fn duplicate_rows_collapse_rank() {
        let mut m = BitMatrix::zero(3, 10);
        for c in [1, 4, 9] {
            m.set(0, c, true);
            m.set(1, c, true);
        }
        m.set(2, 0, true);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn reduce_reports_every_operation() {
        let mut m = BitMatrix::zero(3, 3);
        // Rows: [011], [110], [011] — rank 2, needs swaps and xors.
        m.set(0, 1, true);
        m.set(0, 2, true);
        m.set(1, 0, true);
        m.set(1, 1, true);
        m.set(2, 1, true);
        m.set(2, 2, true);
        let mut mirror = m.clone();
        let mut ops = Vec::new();
        let pivots = m.reduce(|op| ops.push(op));
        // Replaying the reported ops on a clone must reproduce the RREF.
        for op in ops {
            match op {
                RowOp::Xor { src, dst } => mirror.xor_rows(src, dst),
                RowOp::Swap { a, b } => mirror.swap_rows(a, b),
            }
        }
        assert_eq!(m, mirror);
        assert_eq!(pivots.len(), 2);
    }

    #[test]
    fn rref_shape_invariants() {
        // After reduce(): each pivot column has exactly one 1 (at the pivot
        // row), and pivot columns strictly increase with pivot rows.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let rows = rng.gen_range(1..20);
            let cols = rng.gen_range(1..30);
            let mut m = BitMatrix::zero(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    m.set(r, c, rng.gen_bool(0.3));
                }
            }
            let pivots = m.reduce(|_| {});
            let mut last_col = None;
            for &(r, c) in &pivots {
                assert!(last_col.is_none_or(|lc| c > lc), "pivot cols increase");
                last_col = Some(c);
                for rr in 0..rows {
                    assert_eq!(m.get(rr, c), rr == r, "pivot column is unit");
                }
            }
            // Non-pivot rows (below the rank frontier) are zero.
            for r in pivots.len()..rows {
                assert!(m.row_weight(r) == 0);
            }
        }
    }

    proptest! {
        /// Rank is invariant under row shuffling.
        #[test]
        fn rank_invariant_under_row_permutation(seed in 0u64..500) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let rows = rng.gen_range(1usize..15);
            let cols = rng.gen_range(1usize..20);
            let mut m = BitMatrix::zero(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    m.set(r, c, rng.gen_bool(0.4));
                }
            }
            let base = m.rank();
            // Reverse the row order (a permutation reachable by swaps).
            let mut rev = BitMatrix::zero(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    rev.set(rows - 1 - r, c, m.get(r, c));
                }
            }
            prop_assert_eq!(rev.rank(), base);
        }

        /// Appending a row can only grow rank by zero or one.
        #[test]
        fn rank_grows_by_at_most_one(seed in 0u64..500) {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5);
            let rows = rng.gen_range(1usize..12);
            let cols = rng.gen_range(1usize..18);
            let mut small = BitMatrix::zero(rows, cols);
            let mut big = BitMatrix::zero(rows + 1, cols);
            for r in 0..rows {
                for c in 0..cols {
                    let bit = rng.gen_bool(0.4);
                    small.set(r, c, bit);
                    big.set(r, c, bit);
                }
            }
            for c in 0..cols {
                big.set(rows, c, rng.gen_bool(0.4));
            }
            let (rs, rb) = (small.rank(), big.rank());
            prop_assert!(rb == rs || rb == rs + 1);
        }
    }
}
