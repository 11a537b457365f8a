//! LDGM encoding: forward substitution over the parity-check rows.
//!
//! Row `i` is the equation `0 = (XOR of its source packets) ^ p_{i-1}-terms
//! ^ p_i`, and by construction (no forward parity references) parity `p_i`
//! can be computed row by row: the XOR of every other variable in the row.
//! Encoding cost is one XOR per non-zero entry — this is why LDGM encoding
//! is an order of magnitude faster than Reed-Solomon (paper §6.2), which the
//! `speed_codecs` bench measures.

use fec_gf256::kernels::xor_acc_many;

use crate::{LdgmError, SparseMatrix};

/// Encoder for an LDGM code instance: the rows of `H`, the one
/// orientation encoding walks.
///
/// A [`SparseMatrix`] keeps columns only, for the decoders; the encoder
/// transposes them once and owns the result, so a sender that has built
/// its encoder can drop the matrix.
#[derive(Debug, Clone)]
pub struct Encoder {
    k: usize,
    n: usize,
    /// Row `i`'s variables are `row_cols[row_ptr[i]..row_ptr[i + 1]]`,
    /// ascending.
    row_ptr: Vec<u32>,
    row_cols: Vec<u32>,
}

impl Encoder {
    /// Transposes `matrix`'s columns into rows, by one counting pass: the
    /// row offsets are the prefix sums of the row weights the matrix keeps
    /// for peeling, and columns are read in ascending order, so every row
    /// comes out ascending.
    pub fn new(matrix: &SparseMatrix) -> Encoder {
        let mut row_ptr = Vec::with_capacity(matrix.num_checks() + 1);
        row_ptr.push(0);
        // `row_ptr[i + 1]` is row `i`'s write cursor until the scatter is
        // done, and its end after.
        row_ptr.push(0);
        for eq in &matrix.start()[..matrix.num_checks() - 1] {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + eq.count);
        }
        let mut row_cols = vec![0u32; matrix.nnz()];
        for c in 0..matrix.n() {
            for &r in matrix.col(c) {
                let at = &mut row_ptr[r as usize + 1];
                row_cols[*at as usize] = c as u32;
                *at += 1;
            }
        }
        Encoder {
            k: matrix.k(),
            n: matrix.n(),
            row_ptr,
            row_cols,
        }
    }

    /// Variables appearing in check equation `i`, ascending.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.row_cols[self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize]
    }

    /// Number of check equations (`n - k`): the parity symbols.
    #[inline]
    pub fn num_checks(&self) -> usize {
        self.n - self.k
    }

    /// Computes all `n - k` parity packets for the given source packets.
    pub fn encode(&self, source: &[&[u8]]) -> Result<Vec<Vec<u8>>, LdgmError> {
        let k = self.k;
        if source.len() != k {
            return Err(LdgmError::WrongSourceCount {
                got: source.len(),
                expected: k,
            });
        }
        let sym_len = source.first().map_or(0, |s| s.len());
        let mut parity: Vec<Vec<u8>> = Vec::with_capacity(self.num_checks());
        for i in 0..self.num_checks() {
            let mut acc = vec![0u8; sym_len];
            let symbol = |c: usize| match source.get(c) {
                Some(s) => Some(*s),
                None => parity.get(c - k).map(Vec::as_slice),
            };
            self.parity(i, symbol, &mut acc)?;
            parity.push(acc);
        }
        Ok(parity)
    }

    /// Writes parity `i` (variable `k + i`) into `out`, which arrives
    /// zero-filled: the XOR of every other variable of row `i`.
    /// `symbol(c)` returns variable `c` — source symbol `c` for `c < k`,
    /// parity `c - k` otherwise. Row `i` references only parity below
    /// `i`, so filling parity in ascending order always has what it needs.
    pub fn parity<'s>(
        &self,
        i: usize,
        symbol: impl Fn(usize) -> Option<&'s [u8]>,
        out: &mut [u8],
    ) -> Result<(), LdgmError> {
        let (k, n) = (self.k, self.n);
        if i >= self.num_checks() {
            let id = (k + i) as u32;
            return Err(LdgmError::BadPacketId { id, n });
        }
        // Gather the row a few variables at a time and apply each group
        // as ONE fused multi-source XOR: the accumulator streams through
        // the kernel backend once per group instead of once per entry.
        const GROUP: usize = 16;
        let mut group: [&[u8]; GROUP] = [&[]; GROUP];
        let mut len = 0;
        for &c in self.row(i) {
            if c as usize == k + i {
                continue;
            }
            let s = symbol(c as usize).ok_or(LdgmError::MissingSymbol { id: c })?;
            if s.len() != out.len() {
                return Err(LdgmError::SymbolLengthMismatch {
                    expected: out.len(),
                    got: s.len(),
                });
            }
            group[len] = s;
            len += 1;
            if len == GROUP {
                xor_acc_many(out, &group);
                len = 0;
            }
        }
        xor_acc_many(out, &group[..len]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LdgmParams, RightSide};
    use fec_gf256::kernels::xor_slice;
    use rand::{Rng, SeedableRng};

    fn source(k: usize, sym: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..sym).map(|_| rng.gen()).collect())
            .collect()
    }

    fn refs(s: &[Vec<u8>]) -> Vec<&[u8]> {
        s.iter().map(|x| x.as_slice()).collect()
    }

    /// Every check equation must XOR to zero over (source ++ parity).
    fn assert_all_checks_hold(m: &SparseMatrix, src: &[Vec<u8>], parity: &[Vec<u8>]) {
        let sym = src.first().map_or(0, |s| s.len());
        let rows = Encoder::new(m);
        for i in 0..m.num_checks() {
            let mut acc = vec![0u8; sym];
            for &c in rows.row(i) {
                let c = c as usize;
                let sym_ref = if c < m.k() {
                    &src[c]
                } else {
                    &parity[c - m.k()]
                };
                xor_slice(&mut acc, sym_ref);
            }
            assert!(acc.iter().all(|&b| b == 0), "check {i} violated");
        }
    }

    #[test]
    fn all_equations_hold_for_each_variant() {
        for right in [
            RightSide::Identity,
            RightSide::Staircase,
            RightSide::Triangle,
        ] {
            let m = SparseMatrix::build(LdgmParams::new(50, 125, right, 21)).unwrap();
            let src = source(50, 16, 1);
            let parity = Encoder::new(&m).encode(&refs(&src)).unwrap();
            assert_eq!(parity.len(), 75);
            assert_all_checks_hold(&m, &src, &parity);
        }
    }

    #[test]
    fn wrong_source_count_rejected() {
        let m = SparseMatrix::build(LdgmParams::new(10, 25, RightSide::Staircase, 1)).unwrap();
        let src = source(9, 8, 2);
        assert_eq!(
            Encoder::new(&m).encode(&refs(&src)),
            Err(LdgmError::WrongSourceCount {
                got: 9,
                expected: 10
            })
        );
    }

    #[test]
    fn mixed_symbol_lengths_rejected() {
        let m = SparseMatrix::build(LdgmParams::new(4, 10, RightSide::Staircase, 1)).unwrap();
        let mut src = source(4, 8, 3);
        src[2].push(0xFF);
        assert!(matches!(
            Encoder::new(&m).encode(&refs(&src)),
            Err(LdgmError::SymbolLengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_length_symbols_supported() {
        let m = SparseMatrix::build(LdgmParams::new(4, 10, RightSide::Triangle, 1)).unwrap();
        let src: Vec<Vec<u8>> = vec![vec![]; 4];
        let parity = Encoder::new(&m).encode(&refs(&src)).unwrap();
        assert!(parity.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn encoding_is_linear() {
        let m = SparseMatrix::build(LdgmParams::new(30, 75, RightSide::Triangle, 5)).unwrap();
        let enc = Encoder::new(&m);
        let a = source(30, 8, 10);
        let b = source(30, 8, 11);
        let ab: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(u, v)| u ^ v).collect())
            .collect();
        let pa = enc.encode(&refs(&a)).unwrap();
        let pb = enc.encode(&refs(&b)).unwrap();
        let pab = enc.encode(&refs(&ab)).unwrap();
        for i in 0..pa.len() {
            let x: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(u, v)| u ^ v).collect();
            assert_eq!(x, pab[i], "parity {i}");
        }
    }
}
