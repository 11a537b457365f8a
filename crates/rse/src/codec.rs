//! The single-block systematic Reed-Solomon erasure codec.

use fec_gf256::{kernels, Gf256, Matrix};

use crate::{RseError, MAX_N};

/// A systematic `(k, n)` Reed-Solomon erasure codec over GF(2^8).
///
/// The generator matrix is `G = V * V_top^{-1}` where `V` is the `n x k`
/// Vandermonde matrix on distinct points `x_i = alpha^i`: its top `k x k`
/// part is the identity (so the first `k` encoding symbols *are* the source
/// symbols), and any `k` rows remain linearly independent, which gives the
/// MDS property: any `k` of the `n` encoding symbols reconstruct the source.
///
/// # Construction
///
/// `G` is never computed as that product. Row `i` of `G` is the vector `g`
/// with `g * V_top = V[i]`, i.e. `sum_j g[j] * x_j^m = x_i^m` for every
/// `m < k`: the weights that interpolate a polynomial of degree `< k` at
/// `x_i` from its values at `x_0 .. x_{k-1}`. Those weights are the Lagrange
/// basis polynomials evaluated at `x_i`, so for a parity row (`i >= k`, and
/// subtraction being addition in characteristic 2)
///
/// ```text
/// G[i][j] = P_i / ((x_i + x_j) * D_j)
/// P_i = prod_{m < k} (x_i + x_m)        D_j = prod_{m < k, m != j} (x_j + x_m)
/// ```
///
/// which is `O(k * n)` field operations with no inversion and no matrix
/// product, and the same bytes as `V * V_top^{-1}` (the inverse is unique;
/// `tests/oracle.rs` checks the equality shape by shape). The products and
/// the quotient are taken as sums and differences of discrete logarithms.
///
/// # Decoding
///
/// Decoding solves for the erased source symbols only. With `e` source
/// symbols missing among the first `k` received, exactly `e` of those are
/// parity; parity `p` satisfies `y_p = sum_j G[p][j] * s_j`, so moving the
/// received sources to the left-hand side leaves the `e x e` system
/// `y_p + sum_{j received} G[p][j] * s_j = sum_{j missing} G[p][j] * s_j`.
/// Its matrix is a square minor of the parity rows, invertible because the
/// code is MDS. Received source symbols are never multiplied by anything.
///
/// ```
/// use fec_rse::RseCodec;
/// let codec = RseCodec::new(4, 7).unwrap();
/// let src: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i, i + 10]).collect();
/// let parity = codec.encode_refs(&src.iter().map(|s| s.as_slice()).collect::<Vec<_>>()).unwrap();
/// // Lose symbols 0, 2, 3; decode from 1, and parities 4, 5, 6.
/// let received = vec![
///     (1u32, src[1].as_slice()),
///     (4, parity[0].as_slice()),
///     (5, parity[1].as_slice()),
///     (6, parity[2].as_slice()),
/// ];
/// assert_eq!(codec.decode(&received).unwrap(), src);
/// ```
#[derive(Clone)]
pub struct RseCodec {
    k: usize,
    n: usize,
    /// `n x k` systematic generator matrix (top `k` rows = identity).
    gen: Matrix,
}

impl RseCodec {
    /// Builds the codec for `k` source symbols and `n` total symbols.
    pub fn new(k: usize, n: usize) -> Result<RseCodec, RseError> {
        if k == 0 || k > n || n > MAX_N {
            return Err(RseError::BadParameters { k, n });
        }
        // Everything is built in the log domain: `log(x_a + x_b)` for two
        // point indexes, summed for the products and differenced for the
        // quotient, then one `alpha_pow` per entry. The points `alpha^i`
        // are distinct for n <= 255, so no sum `x_a + x_b` (a != b) is zero
        // and every logarithm exists; the `0` fallback is never taken.
        const ORDER: usize = fec_gf256::MUL_ORDER;
        let x: Vec<Gf256> = (0..n).map(Gf256::alpha_pow).collect();
        let log_sum = |a: usize, b: usize| usize::from((x[a] + x[b]).log().unwrap_or(0));
        // `log D_j`: each pair's sum is a factor of both ends.
        let mut log_d = vec![0usize; k];
        for j in 0..k {
            for m in 0..j {
                let l = log_sum(j, m);
                log_d[j] += l;
                log_d[m] += l;
            }
        }
        log_d.iter_mut().for_each(|l| *l %= ORDER);
        let mut gen = Matrix::zero(n, k);
        for j in 0..k {
            gen.set(j, j, Gf256::ONE);
        }
        let mut log_row = vec![0usize; k];
        for i in k..n {
            for (m, l) in log_row.iter_mut().enumerate() {
                *l = log_sum(i, m);
            }
            let log_p = log_row.iter().sum::<usize>() % ORDER;
            for (j, (&log_ij, &log_dj)) in log_row.iter().zip(&log_d).enumerate() {
                // G[i][j] = P_i / ((x_i + x_j) * D_j); both subtrahends are < 255.
                gen.set(i, j, Gf256::alpha_pow(log_p + 2 * ORDER - log_ij - log_dj));
            }
        }
        Ok(RseCodec { k, n, gen })
    }

    /// Number of source symbols per block.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of encoding symbols per block.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of parity symbols (`n - k`).
    #[inline]
    pub fn parity_count(&self) -> usize {
        self.n - self.k
    }

    /// Encodes the parity symbols for a block (slice-of-slices form).
    ///
    /// Returns the `n - k` parity symbols; source symbols are transmitted
    /// verbatim (the code is systematic).
    pub fn encode_refs(&self, source: &[&[u8]]) -> Result<Vec<Vec<u8>>, RseError> {
        if source.len() != self.k {
            return Err(RseError::WrongSourceCount {
                got: source.len(),
                expected: self.k,
            });
        }
        let sym_len = source.first().map_or(0, |s| s.len());
        (self.k..self.n)
            .map(|esi| {
                let mut sym = vec![0u8; sym_len];
                self.parity_symbol(esi as u32, source, &mut sym)?;
                Ok(sym)
            })
            .collect()
    }

    /// Writes parity symbol `esi` (in `k..n`) into `out`: one generator
    /// row applied to the block's `k` source symbols. Rows are
    /// independent, so any parity symbol can be computed alone, in any
    /// order.
    pub fn parity_symbol(
        &self,
        esi: u32,
        source: &[&[u8]],
        out: &mut [u8],
    ) -> Result<(), RseError> {
        if (esi as usize) < self.k || (esi as usize) >= self.n {
            return Err(RseError::BadEsi { esi, n: self.n });
        }
        if source.len() != self.k {
            return Err(RseError::WrongSourceCount {
                got: source.len(),
                expected: self.k,
            });
        }
        if let Some(s) = source.iter().find(|s| s.len() != out.len()) {
            return Err(RseError::SymbolLengthMismatch {
                expected: out.len(),
                got: s.len(),
            });
        }
        kernels::dot_product(out, self.gen.row(esi as usize), source);
        Ok(())
    }

    /// Recovers the source symbols that are *not* among the first `k`
    /// entries of `received`, as `(esi, payload)` pairs in ascending ESI
    /// order (empty when all `k` are source symbols).
    ///
    /// `received` holds `(esi, payload)` pairs; entries beyond the first `k`
    /// are ignored (an MDS code gains nothing from them), and the first `k`
    /// must be distinct, in range and of one length.
    pub fn recover_missing(
        &self,
        received: &[(u32, &[u8])],
    ) -> Result<Vec<(u32, Vec<u8>)>, RseError> {
        let mut seen = [false; MAX_N];
        let mut sym_len: Option<usize> = None;
        for &(esi, payload) in received.iter().take(self.k) {
            if (esi as usize) >= self.n {
                return Err(RseError::BadEsi { esi, n: self.n });
            }
            if std::mem::replace(&mut seen[esi as usize], true) {
                return Err(RseError::DuplicateEsi { esi });
            }
            match sym_len {
                None => sym_len = Some(payload.len()),
                Some(l) if l != payload.len() => {
                    return Err(RseError::SymbolLengthMismatch {
                        expected: l,
                        got: payload.len(),
                    })
                }
                _ => {}
            }
        }
        if received.len() < self.k {
            return Err(RseError::NotEnoughSymbols {
                have: received.len(),
                need: self.k,
            });
        }
        let sym_len = sym_len.unwrap_or(0);

        let missing: Vec<usize> = (0..self.k).filter(|&j| !seen[j]).collect();
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let mut parities: Vec<(usize, &[u8])> = Vec::with_capacity(missing.len());
        let mut source_esis: Vec<usize> = Vec::with_capacity(self.k - missing.len());
        let mut source_payloads: Vec<&[u8]> = Vec::with_capacity(self.k - missing.len());
        for &(esi, payload) in &received[..self.k] {
            if (esi as usize) < self.k {
                source_esis.push(esi as usize);
                source_payloads.push(payload);
            } else {
                parities.push((esi as usize, payload));
            }
        }

        // One equation per received parity (there are exactly as many as
        // missing sources): fold the known sources into its payload, keep
        // the coefficients of the unknown ones.
        let e = missing.len();
        let mut minor = Matrix::zero(e, e);
        let mut known = Vec::with_capacity(source_esis.len());
        let mut rhs: Vec<Vec<u8>> = Vec::with_capacity(e);
        for (r, &(esi, payload)) in parities.iter().enumerate() {
            let row = self.gen.row(esi);
            for (c, &j) in missing.iter().enumerate() {
                minor.set(r, c, Gf256(row[j]));
            }
            known.clear();
            known.extend(source_esis.iter().map(|&j| row[j]));
            let mut y = payload.to_vec();
            kernels::addmul_acc_many(&mut y, &source_payloads, &known);
            rhs.push(y);
        }
        let solve = minor
            .inverted()
            .expect("a square minor of an MDS generator's parity rows is invertible");
        let rhs: Vec<&[u8]> = rhs.iter().map(|y| y.as_slice()).collect();
        Ok(missing
            .iter()
            .enumerate()
            .map(|(c, &j)| {
                let mut sym = vec![0u8; sym_len];
                kernels::addmul_acc_many(&mut sym, &rhs, solve.row(c));
                (j as u32, sym)
            })
            .collect())
    }

    /// Decodes the `k` source symbols from any `k` distinct received symbols.
    ///
    /// [`recover_missing`](Self::recover_missing) plus a copy of every
    /// received source symbol; same contract on `received`.
    pub fn decode(&self, received: &[(u32, &[u8])]) -> Result<Vec<Vec<u8>>, RseError> {
        let recovered = self.recover_missing(received)?;
        let mut out = vec![Vec::new(); self.k];
        for &(esi, payload) in &received[..self.k] {
            if (esi as usize) < self.k {
                out[esi as usize] = payload.to_vec();
            }
        }
        for (esi, payload) in recovered {
            out[esi as usize] = payload;
        }
        Ok(out)
    }

    /// Borrow the generator row for an ESI (used by tests and docs).
    pub fn generator_row(&self, esi: u32) -> &[u8] {
        self.gen.row(esi as usize)
    }
}

impl core::fmt::Debug for RseCodec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RseCodec(k={}, n={})", self.k, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn make_source(k: usize, sym_len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..sym_len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn parameter_validation() {
        assert!(RseCodec::new(0, 4).is_err());
        assert!(RseCodec::new(5, 4).is_err());
        assert!(RseCodec::new(10, 256).is_err());
        assert!(RseCodec::new(1, 1).is_ok());
        assert!(RseCodec::new(170, 255).is_ok());
    }

    #[test]
    fn generator_is_systematic() {
        let c = RseCodec::new(5, 9).unwrap();
        for i in 0..5u32 {
            let row = c.generator_row(i);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, u8::from(j == i as usize), "G[{i}][{j}]");
            }
        }
    }

    #[test]
    fn source_only_fast_path() {
        let c = RseCodec::new(3, 6).unwrap();
        let src = make_source(3, 8, 1);
        let rx: Vec<(u32, &[u8])> = vec![
            (2, src[2].as_slice()),
            (0, src[0].as_slice()),
            (1, src[1].as_slice()),
        ];
        assert_eq!(c.decode(&rx).unwrap(), src);
    }

    #[test]
    fn duplicate_esi_rejected() {
        let c = RseCodec::new(2, 4).unwrap();
        let src = make_source(2, 4, 2);
        let rx: Vec<(u32, &[u8])> = vec![(0, src[0].as_slice()), (0, src[0].as_slice())];
        assert_eq!(c.decode(&rx), Err(RseError::DuplicateEsi { esi: 0 }));
    }

    #[test]
    fn not_enough_symbols_rejected() {
        let c = RseCodec::new(3, 5).unwrap();
        let src = make_source(3, 4, 3);
        let rx: Vec<(u32, &[u8])> = vec![(0, src[0].as_slice())];
        assert_eq!(
            c.decode(&rx),
            Err(RseError::NotEnoughSymbols { have: 1, need: 3 })
        );
    }

    #[test]
    fn esi_out_of_range_rejected() {
        let c = RseCodec::new(2, 4).unwrap();
        let payload = [0u8; 4];
        let rx: Vec<(u32, &[u8])> = vec![(4, &payload), (0, &payload)];
        assert_eq!(c.decode(&rx), Err(RseError::BadEsi { esi: 4, n: 4 }));
    }

    #[test]
    fn mixed_symbol_lengths_rejected() {
        let c = RseCodec::new(2, 4).unwrap();
        let a = [0u8; 4];
        let b = [0u8; 5];
        let rx: Vec<(u32, &[u8])> = vec![(0, &a[..]), (1, &b[..])];
        assert!(matches!(
            c.decode(&rx),
            Err(RseError::SymbolLengthMismatch { .. })
        ));
    }

    #[test]
    fn zero_length_symbols_supported() {
        let c = RseCodec::new(2, 4).unwrap();
        let src: Vec<Vec<u8>> = vec![vec![], vec![]];
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let parity = c.encode_refs(&refs).unwrap();
        let rx: Vec<(u32, &[u8])> = vec![(2, parity[0].as_slice()), (3, parity[1].as_slice())];
        assert_eq!(c.decode(&rx).unwrap(), src);
    }

    /// Parity bytes recorded from the `V * V_top^{-1}` construction (commit
    /// 2575948). The parity is what crosses the wire under FTI id 129, so
    /// these may only change together with the encoding id.
    #[test]
    fn golden_parity_4_7() {
        let c = RseCodec::new(4, 7).unwrap();
        assert_eq!(c.generator_row(4), [64, 120, 54, 15]);
        assert_eq!(c.generator_row(5), [231, 210, 87, 99]);
        assert_eq!(c.generator_row(6), [229, 191, 7, 92]);
        let src: Vec<Vec<u8>> = (0..4u8)
            .map(|i| (0..8u8).map(|b| 37 * i + 11 * b + 5).collect())
            .collect();
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        assert_eq!(
            c.encode_refs(&refs).unwrap(),
            [
                [9, 161, 49, 169, 120, 226, 85, 68],
                [204, 168, 89, 198, 86, 18, 36, 125],
                [63, 126, 38, 208, 150, 23, 105, 105],
            ]
        );
    }

    /// FNV-1a 64 over the 85 parity symbols of the paper's ratio-1.5 block
    /// shape, same provenance as [`golden_parity_4_7`].
    #[test]
    fn golden_parity_digest_170_255() {
        let mut state = 0x5EED_0000_0000_0001u64;
        let src: Vec<Vec<u8>> = (0..170)
            .map(|_| {
                (0..1024)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 56) as u8
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let parity = RseCodec::new(170, 255).unwrap().encode_refs(&refs).unwrap();
        assert_eq!(parity.len(), 85);
        assert_eq!(parity[0][..4], [77, 176, 7, 137]);
        assert_eq!(parity[84][1020..], [146, 235, 202, 32]);
        let digest = parity
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 0x5af5_92fa_5024_cb9f);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The MDS property: ANY k-subset of the n encoding symbols decodes
        /// back to the exact source symbols.
        #[test]
        fn mds_any_k_subset_decodes(
            k in 1usize..24,
            extra in 1usize..24,
            sym_len in 1usize..24,
            seed in any::<u64>(),
        ) {
            let n = (k + extra).min(MAX_N);
            let c = RseCodec::new(k, n).unwrap();
            let src = make_source(k, sym_len, seed);
            let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
            let parity = c.encode_refs(&refs).unwrap();

            // All n encoding symbols, then pick a random k-subset.
            let mut all: Vec<(u32, &[u8])> = Vec::with_capacity(n);
            for (i, s) in src.iter().enumerate() {
                all.push((i as u32, s.as_slice()));
            }
            for (i, p) in parity.iter().enumerate() {
                all.push(((k + i) as u32, p.as_slice()));
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
            all.shuffle(&mut rng);
            all.truncate(k);

            let decoded = c.decode(&all).unwrap();
            prop_assert_eq!(decoded, src);
        }

        /// Exactly k-1 symbols must fail: the codec cannot do magic.
        #[test]
        fn k_minus_one_symbols_insufficient(
            k in 2usize..20,
            seed in any::<u64>(),
        ) {
            let n = (2 * k).min(MAX_N);
            let c = RseCodec::new(k, n).unwrap();
            let src = make_source(k, 4, seed);
            let rx: Vec<(u32, &[u8])> = src
                .iter()
                .take(k - 1)
                .enumerate()
                .map(|(i, s)| (i as u32, s.as_slice()))
                .collect();
            prop_assert_eq!(
                c.decode(&rx),
                Err(RseError::NotEnoughSymbols { have: k - 1, need: k })
            );
        }

        /// parity_symbol agrees with bulk encode.
        #[test]
        fn single_parity_matches_bulk(
            k in 1usize..16,
            extra in 1usize..16,
            seed in any::<u64>(),
        ) {
            let n = (k + extra).min(MAX_N);
            let c = RseCodec::new(k, n).unwrap();
            let src = make_source(k, 8, seed);
            let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
            let bulk = c.encode_refs(&refs).unwrap();
            for esi in (k..n).rev() {
                let mut one = vec![0u8; 8];
                c.parity_symbol(esi as u32, &refs, &mut one).unwrap();
                prop_assert_eq!(&one, &bulk[esi - k]);
            }
        }

        /// Encoding is linear: encode(a) XOR encode(b) == encode(a XOR b).
        /// (Linearity is what makes the "same parity repairs different losses
        /// at different receivers" multicast argument of §1 work.)
        #[test]
        fn encoding_is_linear(k in 1usize..12, seed in any::<u64>()) {
            let n = (2 * k).min(MAX_N);
            let c = RseCodec::new(k, n).unwrap();
            let a = make_source(k, 6, seed);
            let b = make_source(k, 6, seed.wrapping_add(1));
            let ab: Vec<Vec<u8>> = a
                .iter()
                .zip(&b)
                .map(|(x, y)| x.iter().zip(y).map(|(u, v)| u ^ v).collect())
                .collect();
            let enc = |s: &[Vec<u8>]| {
                let refs: Vec<&[u8]> = s.iter().map(|x| x.as_slice()).collect();
                c.encode_refs(&refs).unwrap()
            };
            let pa = enc(&a);
            let pb = enc(&b);
            let pab = enc(&ab);
            for i in 0..(n - k) {
                let xored: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(u, v)| u ^ v).collect();
                prop_assert_eq!(&xored, &pab[i]);
            }
        }
    }
}
