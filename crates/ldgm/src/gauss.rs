//! Hybrid peeling + Gaussian-elimination (“maximum-likelihood”) decoding.
//!
//! The paper evaluates LDGM codes under the pure **iterative (peeling)**
//! decoder of §2.3.2, and all its inefficiency-ratio surfaces are peeling
//! numbers. Peeling is linear-time but suboptimal: it stalls on *stopping
//! sets* — residual systems where every remaining equation still has ≥ 2
//! unknowns — even when the received packets carry enough information to
//! solve the object. The optimal erasure decoder simply solves that residual
//! linear system over GF(2) by Gaussian elimination; this is what
//! later-generation codecs standardised (e.g. RFC 5170's LDPC-Staircase
//! “full” decoding and Raptor's inactivation decoding), and the paper lists
//! better decoders among its future works (§7).
//!
//! Elimination is not a second decoder but a second phase of the one
//! `peel.rs` cascade, over the one `Residual` system (unknown
//! variables × still-live equations):
//!
//! * [`StructuralDecoder::ml_complete`] — index-only, for Monte-Carlo
//!   sweeps: “would Gaussian elimination finish *now*?”, on demand.
//!   [`ml_necessary`] binary-searches an arrival order for the exact ML
//!   completion point (decodability is monotone in the received set, so
//!   bisection is sound).
//! * [`Decoder::try_complete`](crate::Decoder::try_complete) — the same
//!   reduction with the equations' XOR accumulators mirrored as right-hand
//!   sides; every *determined* variable goes back into the cascade.
//!
//! Determinedness, not full rank, is the success criterion: the receiver
//! only needs the `k` source packets, so a rank-deficient residual system is
//! fine as long as every unknown **source** variable is pinned. In reduced
//! row echelon form a variable is determined exactly when it is a pivot
//! whose row has weight 1 (no free-variable contribution); the module tests
//! include the counterexamples that justify the rule.

use crate::bitmat::{BitMatrix, RowOp};
use crate::{SparseMatrix, StructuralDecoder};

/// The residual GF(2) system of a stalled peeling decoder: one row per
/// still-live check equation, one column per unknown variable.
pub(crate) struct Residual {
    /// Variable id of each matrix column.
    unknown_ids: Vec<u32>,
    /// Row index → check-equation index (for RHS extraction).
    pub(crate) equations: Vec<usize>,
    /// The bit matrix (rows × unknowns).
    a: BitMatrix,
}

impl Residual {
    /// Builds the residual system of a decoder whose variables are
    /// `known` (indexed by variable id).
    pub(crate) fn build(matrix: &SparseMatrix, known: &[bool]) -> Residual {
        let mut col_of = vec![u32::MAX; matrix.n()];
        let mut unknown_ids = Vec::new();
        for (v, &is_known) in known.iter().enumerate() {
            if !is_known {
                col_of[v] = unknown_ids.len() as u32;
                unknown_ids.push(v as u32);
            }
        }
        let mut equations = Vec::new();
        for e in 0..matrix.num_checks() {
            if matrix.row(e).iter().any(|&v| !known[v as usize]) {
                equations.push(e);
            }
        }
        let mut a = BitMatrix::zero(equations.len(), unknown_ids.len());
        for (r, &e) in equations.iter().enumerate() {
            for &v in matrix.row(e) {
                let c = col_of[v as usize];
                if c != u32::MAX {
                    a.set(r, c as usize, true);
                }
            }
        }
        Residual {
            unknown_ids,
            equations,
            a,
        }
    }

    /// Reduces the system (mirroring row ops through `on_op`) and returns
    /// `(row, variable_id)` for every **determined** unknown: a pivot whose
    /// RREF row has no free-variable entries, i.e. row weight exactly 1.
    pub(crate) fn determine(&mut self, on_op: impl FnMut(RowOp)) -> Vec<(usize, u32)> {
        let pivots = self.a.reduce(on_op);
        pivots
            .into_iter()
            .filter(|&(r, _)| self.a.row_weight(r) == 1)
            .map(|(r, c)| (r, self.unknown_ids[c]))
            .collect()
    }

    /// True when every unknown **source** variable is determined. (Parity
    /// variables may stay free; the receiver does not need them.)
    pub(crate) fn all_sources_determined(&mut self, k: usize) -> bool {
        let unknown_sources = self
            .unknown_ids
            .iter()
            .filter(|&&v| (v as usize) < k)
            .count();
        if unknown_sources == 0 {
            return true;
        }
        let determined = self.determine(|_| {});
        determined
            .iter()
            .filter(|&&(_, v)| (v as usize) < k)
            .count()
            == unknown_sources
    }
}

/// Smallest number of packets of `order` (a transmission/reception order,
/// deduplicated or not) after which **ML decoding** completes, or `None` if
/// even the full sequence is insufficient.
///
/// Uses bisection over prefixes: receiving more packets never makes an
/// erasure system less solvable, so “ML-decodable after `i` packets” is
/// monotone in `i`. Each probe replays a prefix through a fresh peeler and
/// runs one elimination.
pub fn ml_necessary(matrix: &SparseMatrix, order: &[u32]) -> Option<usize> {
    let k = matrix.k();
    if order.len() < k {
        return None;
    }
    let decodable_at = |count: usize| -> bool {
        let mut dec = StructuralDecoder::new(matrix);
        dec.push_batch(&order[..count]);
        dec.ml_complete()
    };
    if !decodable_at(order.len()) {
        return None;
    }
    // Invariant: decodable_at(hi) is true, decodable_at(lo - 1)… unknown;
    // classic first-true bisection over [k, len].
    let (mut lo, mut hi) = (k, order.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if decodable_at(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Smallest number of packets of `order` after which **peeling** completes
/// (the paper's decoder), or `None`. Companion to [`ml_necessary`] so the
/// ablation bench reads symmetrically.
pub fn peeling_necessary(matrix: &SparseMatrix, order: &[u32]) -> Option<usize> {
    let done_at = StructuralDecoder::new(matrix).push_batch(order)?;
    Some(done_at + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decoder, Encoder, LdgmParams, RightSide};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn build(k: usize, n: usize, right: RightSide, seed: u64) -> Arc<SparseMatrix> {
        Arc::new(SparseMatrix::build(LdgmParams::new(k, n, right, seed)).unwrap())
    }

    fn random_payloads(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| rng.gen::<u8>()).collect())
            .collect()
    }

    /// ML must succeed whenever peeling succeeds, and never need more
    /// packets — on every random instance.
    #[test]
    fn ml_dominates_peeling() {
        for right in [RightSide::Staircase, RightSide::Triangle] {
            for seed in 0..20u64 {
                let m = build(80, 200, right, seed);
                let mut order: Vec<u32> = (0..200).collect();
                order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xC0DE));
                let peel = peeling_necessary(&m, &order);
                let ml = ml_necessary(&m, &order);
                if let Some(p) = peel {
                    let l = ml.expect("ML succeeds whenever peeling does");
                    assert!(l <= p, "{right} seed {seed}: ml {l} > peeling {p}");
                }
                if let Some(l) = ml {
                    assert!(l >= 80, "information-theoretic floor");
                }
            }
        }
    }

    /// ML typically reaches the information-theoretic floor region that
    /// peeling cannot: across random orders the mean ML overhead must be
    /// strictly below the mean peeling overhead.
    #[test]
    fn ml_strictly_better_on_average() {
        let m = build(150, 375, RightSide::Staircase, 3);
        let (mut peel_sum, mut ml_sum, mut count) = (0usize, 0usize, 0usize);
        for seed in 0..30u64 {
            let mut order: Vec<u32> = (0..375).collect();
            order.shuffle(&mut SmallRng::seed_from_u64(seed));
            let (Some(p), Some(l)) = (peeling_necessary(&m, &order), ml_necessary(&m, &order))
            else {
                continue;
            };
            peel_sum += p;
            ml_sum += l;
            count += 1;
        }
        assert!(count >= 25, "most random orders must decode");
        assert!(
            ml_sum < peel_sum,
            "ML mean ({ml_sum}) must beat peeling mean ({peel_sum}) over {count} runs"
        );
    }

    /// Payload ML decode returns byte-exact source data.
    #[test]
    fn payload_ml_recovers_exact_bytes() {
        for right in [
            RightSide::Identity,
            RightSide::Staircase,
            RightSide::Triangle,
        ] {
            for seed in 0..8u64 {
                let (k, n, len) = (60, 150, 16);
                let m = build(k, n, right, seed);
                let src = random_payloads(k, len, seed ^ 0xFEED);
                let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
                let parity = Encoder::new(&m).encode(&refs).unwrap();

                let mut order: Vec<u32> = (0..n as u32).collect();
                order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xD00D));

                // Feed exactly the ML-necessary prefix: the payload decoder
                // must then finish via try_complete().
                let Some(need) = ml_necessary(&m, &order) else {
                    continue;
                };
                let mut dec = Decoder::new(Arc::clone(&m), len);
                for &id in &order[..need] {
                    let payload: &[u8] = if (id as usize) < k {
                        &src[id as usize]
                    } else {
                        &parity[id as usize - k]
                    };
                    dec.push_batch(&[(id, payload)]).unwrap();
                }
                assert!(dec.try_complete(), "{right} seed {seed}");
                assert_eq!(
                    dec.into_object().unwrap(),
                    src.concat(),
                    "{right} seed {seed}"
                );
            }
        }
    }

    /// One packet short of the ML threshold, elimination must report failure
    /// (and not corrupt the decoder for a later retry).
    #[test]
    fn one_short_of_threshold_fails_then_recovers() {
        let (k, n, len) = (60, 150, 8);
        let m = build(k, n, RightSide::Staircase, 11);
        let src = random_payloads(k, len, 42);
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let parity = Encoder::new(&m).encode(&refs).unwrap();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut SmallRng::seed_from_u64(99));
        let need = ml_necessary(&m, &order).unwrap();
        assert!(need > 1);

        let payload_of = |id: u32| -> &[u8] {
            if (id as usize) < k {
                &src[id as usize]
            } else {
                &parity[id as usize - k]
            }
        };
        let mut dec = Decoder::new(Arc::clone(&m), len);
        for &id in &order[..need - 1] {
            dec.push_batch(&[(id, payload_of(id))]).unwrap();
        }
        assert!(!dec.try_complete(), "must fail one packet short");
        // Delivering the final packet must now finish (possibly via a second
        // elimination): partial injections from the failed attempt must not
        // have corrupted state.
        dec.push_batch(&[(order[need - 1], payload_of(order[need - 1]))])
            .unwrap();
        assert!(dec.try_complete());
        assert_eq!(dec.into_object().unwrap(), src.concat());
    }

    /// Fewer than k packets can never decode (information-theoretic bound),
    /// and ml_necessary must refuse short orders outright.
    #[test]
    fn below_k_is_hopeless() {
        let m = build(40, 100, RightSide::Staircase, 5);
        let order: Vec<u32> = (0..39).collect();
        assert_eq!(ml_necessary(&m, &order), None);
        let mut dec = StructuralDecoder::new(&m);
        for id in 0..30 {
            dec.push_batch(&[id]);
        }
        // 30 sources received: 10 still unknown, residual must not claim
        // victory... but all unknowns ARE determined? No: only 30 of 40
        // sources are known and nothing else was received, so ML cannot
        // finish.
        assert!(!dec.ml_complete());
    }

    /// Receiving all k source packets is always sufficient, and the ML path
    /// agrees with peeling there (no elimination needed).
    #[test]
    fn all_sources_trivially_complete() {
        let m = build(30, 75, RightSide::Triangle, 8);
        let mut dec = StructuralDecoder::new(&m);
        for id in 0..30 {
            let done = dec.push_batch(&[id]).is_some();
            assert_eq!(done, id == 29);
        }
        assert!(dec.is_complete() && dec.ml_complete());
    }

    /// Duplicate packets consume budget but never change decodability.
    #[test]
    fn duplicates_are_neutral_for_ml() {
        let m = build(40, 100, RightSide::Staircase, 21);
        let mut with_dups = StructuralDecoder::new(&m);
        let mut without = StructuralDecoder::new(&m);
        for id in 0..35u32 {
            with_dups.push_batch(&[id]);
            with_dups.push_batch(&[id]); // duplicate
            without.push_batch(&[id]);
        }
        assert_eq!(with_dups.ml_complete(), without.ml_complete());
        assert_eq!(with_dups.received(), 70);
    }
}
