//! Reed-Solomon erasure codec over GF(2^16): the road not taken (§2.2).
//!
//! The paper's RSE stays on GF(2^8), which caps a block at 255 packets and
//! forces big objects through RFC 5052 blocking — the root of the coupon
//! collector inefficiency its evaluation keeps running into. This codec is
//! the alternative the paper rejects on speed grounds: `n ≤ 65535` means a
//! 20000-packet object at expansion ratio 2.5 fits in **one** block, making
//! the code MDS over the *whole object* (any `k` of the `n` packets decode
//! — inefficiency exactly 1.0, no scheduling sensitivity at all).
//!
//! The price is arithmetic: every multiply is two table lookups in a
//! 384 KiB table (cache-hostile) instead of one hit in a 64 KiB table, and
//! decoding inverts a `k × k` matrix — cubic in a `k` that blocking would
//! have kept at ~100. The `ablation_gf216` bench measures both sides.
//!
//! Symbols are byte slices of even length, interpreted as big-endian
//! GF(2^16) elements.

use fec_gf256::gf2p16::{dot_product16, Gf2p16, Matrix16, MUL16_ORDER};

use crate::RseError;

/// Hard upper bound on the block length over GF(2^16).
pub const MAX_N16: usize = MUL16_ORDER;

/// A systematic `(k, n)` Reed-Solomon erasure codec over GF(2^16).
///
/// Same generator as [`crate::RseCodec`] — `G = V · V_top⁻¹` on Vandermonde
/// points `alpha^i` — one field up. Unlike `RseCodec`, which writes `G`
/// down in closed form and solves for erased symbols only, this codec
/// still builds `G` by inverting `V_top` and decodes by inverting the full
/// `k × k` sub-generator: its only caller is the `ablation_gf216` bench,
/// whose point is what GF(2^16) costs.
///
/// ```
/// use fec_rse::Rse16Codec;
/// let codec = Rse16Codec::new(300, 750).unwrap(); // impossible over GF(2^8)
/// assert_eq!(codec.parity_count(), 450);
/// ```
#[derive(Clone)]
pub struct Rse16Codec {
    k: usize,
    n: usize,
    gen: Matrix16,
}

fn to_elements(payload: &[u8]) -> Result<Vec<Gf2p16>, RseError> {
    if !payload.len().is_multiple_of(2) {
        return Err(RseError::SymbolLengthMismatch {
            expected: payload.len() + 1,
            got: payload.len(),
        });
    }
    Ok(payload
        .chunks_exact(2)
        .map(|c| Gf2p16(u16::from_be_bytes([c[0], c[1]])))
        .collect())
}

fn to_bytes(elements: &[Gf2p16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(elements.len() * 2);
    for e in elements {
        out.extend_from_slice(&e.0.to_be_bytes());
    }
    out
}

impl Rse16Codec {
    /// Builds the codec for `k` source symbols and `n` total symbols.
    pub fn new(k: usize, n: usize) -> Result<Rse16Codec, RseError> {
        if k == 0 || k > n || n > MAX_N16 {
            return Err(RseError::BadParameters { k, n });
        }
        let v = Matrix16::vandermonde(n, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverted()
            .expect("Vandermonde top block is always invertible");
        let gen = v.mul(&top_inv);
        Ok(Rse16Codec { k, n, gen })
    }

    /// Number of source symbols.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of encoding symbols.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of parity symbols.
    #[inline]
    pub fn parity_count(&self) -> usize {
        self.n - self.k
    }

    /// Encodes the `n - k` parity symbols. Source symbols must share one
    /// even byte length.
    pub fn encode_refs(&self, source: &[&[u8]]) -> Result<Vec<Vec<u8>>, RseError> {
        if source.len() != self.k {
            return Err(RseError::WrongSourceCount {
                got: source.len(),
                expected: self.k,
            });
        }
        let sym_len = source.first().map_or(0, |s| s.len());
        for s in source {
            if s.len() != sym_len {
                return Err(RseError::SymbolLengthMismatch {
                    expected: sym_len,
                    got: s.len(),
                });
            }
        }
        let elements: Vec<Vec<Gf2p16>> = source
            .iter()
            .map(|s| to_elements(s))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&[Gf2p16]> = elements.iter().map(|e| e.as_slice()).collect();
        let mut parity = Vec::with_capacity(self.parity_count());
        let mut buf = vec![Gf2p16::ZERO; sym_len / 2];
        for esi in self.k..self.n {
            dot_product16(&mut buf, self.gen.row(esi), &refs);
            parity.push(to_bytes(&buf));
        }
        Ok(parity)
    }

    /// Decodes the `k` source symbols from any `k` distinct received
    /// symbols (same contract as [`crate::RseCodec::decode`]).
    pub fn decode(&self, received: &[(u32, &[u8])]) -> Result<Vec<Vec<u8>>, RseError> {
        let mut esis: Vec<u32> = Vec::with_capacity(self.k);
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(self.k);
        let mut sym_len: Option<usize> = None;
        for &(esi, payload) in received {
            if (esi as usize) >= self.n {
                return Err(RseError::BadEsi { esi, n: self.n });
            }
            if esis.contains(&esi) {
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
            esis.push(esi);
            payloads.push(payload);
            if esis.len() == self.k {
                break;
            }
        }
        if esis.len() < self.k {
            return Err(RseError::NotEnoughSymbols {
                have: esis.len(),
                need: self.k,
            });
        }
        let sym_len = sym_len.unwrap_or(0);

        // Fast path: all k source symbols present.
        if esis.iter().all(|&e| (e as usize) < self.k) {
            let mut out = vec![vec![0u8; sym_len]; self.k];
            for (&esi, &payload) in esis.iter().zip(&payloads) {
                out[esi as usize].copy_from_slice(payload);
            }
            return Ok(out);
        }

        let elements: Vec<Vec<Gf2p16>> = payloads
            .iter()
            .map(|p| to_elements(p))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&[Gf2p16]> = elements.iter().map(|e| e.as_slice()).collect();
        let rows: Vec<usize> = esis.iter().map(|&e| e as usize).collect();
        let a = self.gen.select_rows(&rows);
        let a_inv = a
            .inverted()
            .expect("any k rows of a systematic Vandermonde generator are independent");
        let mut out = Vec::with_capacity(self.k);
        let mut buf = vec![Gf2p16::ZERO; sym_len / 2];
        for j in 0..self.k {
            dot_product16(&mut buf, a_inv.row(j), &refs);
            out.push(to_bytes(&buf));
        }
        Ok(out)
    }
}

impl core::fmt::Debug for Rse16Codec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Rse16Codec(k={}, n={})", self.k, self.n)
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
        assert!(Rse16Codec::new(0, 4).is_err());
        assert!(Rse16Codec::new(5, 4).is_err());
        assert!(Rse16Codec::new(10, 65536).is_err());
        assert!(Rse16Codec::new(300, 750).is_ok(), "beyond GF(2^8)'s reach");
    }

    #[test]
    fn beyond_gf256_block_bound_roundtrip() {
        // k = 200, n = 500: impossible in one GF(2^8) block.
        let c = Rse16Codec::new(200, 500).unwrap();
        let src = make_source(200, 8, 1);
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let parity = c.encode_refs(&refs).unwrap();
        // Decode from the last 200 parity symbols only.
        let rx: Vec<(u32, &[u8])> = (0..200)
            .map(|i| ((500 - 200 + i) as u32, parity[300 - 200 + i].as_slice()))
            .collect();
        assert_eq!(c.decode(&rx).unwrap(), src);
    }

    #[test]
    fn odd_symbol_length_rejected() {
        let c = Rse16Codec::new(2, 4).unwrap();
        let src = [vec![1u8, 2, 3], vec![4, 5, 6]];
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        assert!(matches!(
            c.encode_refs(&refs),
            Err(RseError::SymbolLengthMismatch { .. })
        ));
    }

    #[test]
    fn agrees_with_gf256_codec_semantics() {
        // Same MDS contract as the GF(2^8) codec on a size both support.
        let (k, n) = (10, 25);
        let c16 = Rse16Codec::new(k, n).unwrap();
        let c8 = crate::RseCodec::new(k, n).unwrap();
        let src = make_source(k, 16, 5);
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let p16 = c16.encode_refs(&refs).unwrap();
        let p8 = c8.encode_refs(&refs).unwrap();
        // The parities differ (different fields) but both decode from the
        // same arbitrary k-subset.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let mut esis: Vec<u32> = (0..n as u32).collect();
        esis.shuffle(&mut rng);
        esis.truncate(k);
        let rx16: Vec<(u32, &[u8])> = esis
            .iter()
            .map(|&e| {
                let payload: &[u8] = if (e as usize) < k {
                    &src[e as usize]
                } else {
                    &p16[e as usize - k]
                };
                (e, payload)
            })
            .collect();
        let rx8: Vec<(u32, &[u8])> = esis
            .iter()
            .map(|&e| {
                let payload: &[u8] = if (e as usize) < k {
                    &src[e as usize]
                } else {
                    &p8[e as usize - k]
                };
                (e, payload)
            })
            .collect();
        assert_eq!(c16.decode(&rx16).unwrap(), src);
        assert_eq!(c8.decode(&rx8).unwrap(), src);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// MDS over GF(2^16): any k-subset decodes.
        #[test]
        fn mds_any_k_subset_decodes(
            k in 1usize..20,
            extra in 1usize..20,
            half_len in 1usize..8,
            seed in any::<u64>(),
        ) {
            let n = k + extra;
            let c = Rse16Codec::new(k, n).unwrap();
            let src = make_source(k, half_len * 2, seed);
            let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
            let parity = c.encode_refs(&refs).unwrap();
            let mut all: Vec<(u32, &[u8])> = Vec::with_capacity(n);
            for (i, s) in src.iter().enumerate() {
                all.push((i as u32, s.as_slice()));
            }
            for (i, p) in parity.iter().enumerate() {
                all.push(((k + i) as u32, p.as_slice()));
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xF00D);
            all.shuffle(&mut rng);
            all.truncate(k);
            prop_assert_eq!(c.decode(&all).unwrap(), src);
        }
    }
}
