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

/// Encoder for an LDGM code instance.
///
/// Borrows the matrix: the same (potentially large) matrix is shared by the
/// encoder, the payload decoder and the structural decoder.
#[derive(Debug, Clone, Copy)]
pub struct Encoder<'m> {
    matrix: &'m SparseMatrix,
}

impl<'m> Encoder<'m> {
    /// Creates an encoder over a parity-check matrix.
    pub fn new(matrix: &'m SparseMatrix) -> Encoder<'m> {
        Encoder { matrix }
    }

    /// Computes all `n - k` parity packets for the given source packets.
    pub fn encode(&self, source: &[&[u8]]) -> Result<Vec<Vec<u8>>, LdgmError> {
        let k = self.matrix.k();
        if source.len() != k {
            return Err(LdgmError::WrongSourceCount {
                got: source.len(),
                expected: k,
            });
        }
        let sym_len = source.first().map_or(0, |s| s.len());
        for s in source {
            if s.len() != sym_len {
                return Err(LdgmError::SymbolLengthMismatch {
                    expected: sym_len,
                    got: s.len(),
                });
            }
        }

        let m = self.matrix.num_checks();
        let mut parity: Vec<Vec<u8>> = Vec::with_capacity(m);
        // One gather buffer for every row. Its borrows of `parity` cannot
        // outlive a row, so it is handed back emptied, retyped as a
        // `'static` vector (collecting a vector's own `into_iter` reuses
        // its allocation).
        let mut spare: Vec<&'static [u8]> = Vec::new();
        for i in 0..m {
            let mut acc = vec![0u8; sym_len];
            // Gather the whole row and apply it as ONE fused multi-source
            // XOR: the accumulator streams through the kernel backend once
            // per row instead of once per non-zero entry.
            let mut row: Vec<&[u8]> = spare;
            row.extend(self.matrix.row(i).iter().filter_map(|&c| {
                let c = c as usize;
                if c < k {
                    Some(source[c])
                } else if c != k + i {
                    // Earlier parity (guaranteed c - k < i by
                    // construction).
                    Some(parity[c - k].as_slice())
                } else {
                    None
                }
            }));
            xor_acc_many(&mut acc, &row);
            row.clear();
            spare = row.into_iter().map(|_| -> &'static [u8] { &[] }).collect();
            parity.push(acc);
        }
        Ok(parity)
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
        for i in 0..m.num_checks() {
            let mut acc = vec![0u8; sym];
            for &c in m.row(i) {
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
