//! Index-only peeling decoder: the Monte-Carlo fast path.
//!
//! [`crate::peel`]'s cascade with the no-op hook — the walk
//! [`crate::Decoder`] runs, minus the payload bytes, so the two complete
//! at exactly the same received-packet count by construction.

use crate::gauss::Residual;
use crate::peel::Peeler;
use crate::SparseMatrix;

/// Payload-free iterative decoder used by `fec-sim` sweeps.
#[derive(Clone)]
pub struct StructuralDecoder<'m> {
    matrix: &'m SparseMatrix,
    peel: Peeler,
}

impl<'m> StructuralDecoder<'m> {
    /// Creates a decoder over a shared matrix.
    pub fn new(matrix: &'m SparseMatrix) -> StructuralDecoder<'m> {
        StructuralDecoder {
            matrix,
            peel: Peeler::new(matrix),
        }
    }

    /// Feeds one received packet id; returns `true` once all `k` source
    /// packets are known.
    ///
    /// # Panics
    /// Panics on an out-of-range id (scheduler bug, not channel input).
    pub fn push(&mut self, id: u32) -> bool {
        self.push_batch(&[id]);
        self.is_complete()
    }

    /// Feeds a whole window of received packet ids; every id is counted.
    ///
    /// Returns the index within `ids` at which decoding first completed,
    /// or `None` if the decoder is still incomplete afterwards. The sweep
    /// engine feeds loss-schedule batches through this to amortise its
    /// per-packet dispatch.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn push_batch(&mut self, ids: &[u32]) -> Option<usize> {
        let mut done_at = None;
        for (i, &id) in ids.iter().enumerate() {
            assert!((id as usize) < self.matrix.n(), "packet id out of range");
            self.peel.received += 1;
            if !self.peel.known[id as usize] {
                self.peel.learn(self.matrix, id, &mut ());
            }
            if done_at.is_none() && self.is_complete() {
                done_at = Some(i);
            }
        }
        done_at
    }

    /// Would Gaussian elimination over the residual system recover every
    /// remaining source packet from what has been received so far? Runs a
    /// fresh elimination (O(rows · unknowns² / 64)); call it when peeling
    /// has stalled, not per packet.
    pub fn ml_complete(&self) -> bool {
        self.is_complete()
            || Residual::build(self.matrix, &self.peel.known)
                .all_sources_determined(self.matrix.k())
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
            let done = d.push(i);
            assert_eq!(done, i == 14);
        }
    }

    #[test]
    fn duplicates_counted_but_useless() {
        let m = SparseMatrix::build(LdgmParams::new(10, 30, RightSide::Staircase, 2)).unwrap();
        let mut d = StructuralDecoder::new(&m);
        d.push(0);
        d.push(0);
        assert_eq!(d.received(), 2);
        assert_eq!(d.decoded_source(), 1);
    }

    #[test]
    fn reset_restores_initial_state() {
        let m = SparseMatrix::build(LdgmParams::new(10, 30, RightSide::Triangle, 2)).unwrap();
        let mut d = StructuralDecoder::new(&m);
        let trace1: Vec<bool> = (0..10u32).map(|i| d.push(i)).collect();
        d.reset();
        let trace2: Vec<bool> = (0..10u32).map(|i| d.push(i)).collect();
        assert_eq!(trace1, trace2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_is_a_bug() {
        let m = SparseMatrix::build(LdgmParams::new(10, 30, RightSide::Staircase, 2)).unwrap();
        StructuralDecoder::new(&m).push(30);
    }
}
