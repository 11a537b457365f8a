//! Index-only peeling decoder: the Monte-Carlo fast path.
//!
//! [`crate::peel`]'s cascade with the no-op hook — the walk
//! [`crate::Decoder`] runs, minus the payload bytes, so the two complete
//! at exactly the same received-packet count by construction. The index
//! phase of [`crate::gauss`]'s inactivation engine rides on it for the
//! maximum-likelihood question.

use crate::gauss::Inactivation;
use crate::peel::{Peeler, WindowScratch};
use crate::SparseMatrix;

/// Payload-free iterative decoder used by `fec-sim` sweeps.
#[derive(Clone)]
pub struct StructuralDecoder<'m> {
    matrix: &'m SparseMatrix,
    peel: Peeler,
    window: WindowScratch,
    ml: Inactivation,
}

impl<'m> StructuralDecoder<'m> {
    /// Creates a decoder over a shared matrix.
    pub fn new(matrix: &'m SparseMatrix) -> StructuralDecoder<'m> {
        StructuralDecoder {
            matrix,
            peel: Peeler::new(matrix),
            window: WindowScratch::default(),
            ml: Inactivation::default(),
        }
    }

    /// Feeds a window of received packet ids (one id is a window of one);
    /// every id is counted.
    ///
    /// Returns the index within `ids` of the first id after which all `k`
    /// source packets are known (`Some(0)` if they already were), or
    /// `None` if the decoder is still incomplete afterwards. The sweep
    /// engine feeds loss-schedule batches through this to amortise its
    /// per-packet dispatch.
    ///
    /// The ids before the `k`-th packet received cannot complete the
    /// object, so they need no completion index: a run of them at the
    /// front of `ids`, at least two and at least `n / 64` long, is learned
    /// in one fold, which reaches the state the ids reach one at a time.
    /// Every other id is learned on its own, so a single-id push stays
    /// O(1).
    ///
    /// # Panics
    /// Panics on an out-of-range id (scheduler bug, not channel input).
    pub fn push_batch(&mut self, ids: &[u32]) -> Option<usize> {
        let n = self.matrix.n();
        assert!(
            ids.iter().all(|&id| (id as usize) < n),
            "packet id out of range"
        );
        // Only a cascade can complete the object, so completion is checked
        // after each one (and once up front, for `Some(0)`).
        let mut done_at = (self.is_complete() && !ids.is_empty()).then_some(0);
        let head = (self.matrix.k() as u64).saturating_sub(self.peel.received + 1);
        let head = ids.len().min(head as usize);
        let folded = if head >= (n / 64).max(2) {
            // Fewer than k distinct packets keep the inactivation engine's
            // counting gate shut, so it is not built and records nothing.
            self.peel.received += head as u64;
            self.peel
                .fold_window(self.matrix, &ids[..head], &mut self.window);
            head
        } else {
            0
        };
        for (i, &id) in ids.iter().enumerate().skip(folded) {
            self.peel.received += 1;
            if !self.peel.known[id as usize] {
                self.ml.arrived(id);
                self.peel.learn(self.matrix, id, &mut ());
                if done_at.is_none() && self.is_complete() {
                    done_at = Some(i);
                }
            }
        }
        done_at
    }

    /// Would a maximum-likelihood decoder recover every source packet from
    /// what has been received so far? Exact. While the live equations are
    /// fewer than the unknowns it answers no at once; the first call past
    /// that gate builds the inactivation engine's index phase, and each
    /// later call only folds in the packets received since (one row each),
    /// so it is cheap enough to ask after every packet.
    pub fn ml_complete(&mut self) -> bool {
        self.ml.decodable(self.matrix, &self.peel)
    }

    /// True once all `k` source packets are known.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.peel.is_complete(self.matrix)
    }

    /// Source packets currently known (received or solved).
    #[inline]
    pub fn decoded_source(&self) -> usize {
        self.peel.decoded_source
    }

    /// Total packets pushed, duplicates included.
    #[inline]
    pub fn received(&self) -> u64 {
        self.peel.received
    }

    /// Whether a particular variable (source or parity) is known.
    #[inline]
    pub fn is_known(&self, id: u32) -> bool {
        self.peel.known[id as usize]
    }

    /// Resets to the freshly-constructed state, keeping allocations. Lets a
    /// sweep reuse one decoder object across runs on the same matrix.
    pub fn reset(&mut self) {
        self.peel.reset(self.matrix);
        self.ml.reset();
    }
}

impl core::fmt::Debug for StructuralDecoder<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "StructuralDecoder(k={}, decoded={}, received={})",
            self.matrix.k(),
            self.peel.decoded_source,
            self.peel.received
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LdgmParams, RightSide};

    #[test]
    fn completes_on_all_sources() {
        let m = SparseMatrix::build(LdgmParams::new(15, 40, RightSide::Staircase, 2)).unwrap();
        let mut d = StructuralDecoder::new(&m);
        for i in 0..15u32 {
            let done = d.push_batch(&[i]).is_some();
            assert_eq!(done, i == 14);
        }
    }

    #[test]
    fn duplicates_counted_but_useless() {
        let m = SparseMatrix::build(LdgmParams::new(10, 30, RightSide::Staircase, 2)).unwrap();
        let mut d = StructuralDecoder::new(&m);
        d.push_batch(&[0]);
        d.push_batch(&[0]);
        assert_eq!(d.received(), 2);
        assert_eq!(d.decoded_source(), 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let m = SparseMatrix::build(LdgmParams::new(10, 30, RightSide::Triangle, 2)).unwrap();
        let mut d = StructuralDecoder::new(&m);
        let trace1: Vec<bool> = (0..10u32).map(|i| d.push_batch(&[i]).is_some()).collect();
        d.reset();
        let trace2: Vec<bool> = (0..10u32).map(|i| d.push_batch(&[i]).is_some()).collect();
        assert_eq!(trace1, trace2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_is_a_bug() {
        let m = SparseMatrix::build(LdgmParams::new(10, 30, RightSide::Staircase, 2)).unwrap();
        StructuralDecoder::new(&m).push_batch(&[30]);
    }
}
