//! Index-only ("structural") decoder for blocked RSE objects.
//!
//! The Monte-Carlo sweeps of `fec-sim` only need to know *when* decoding
//! completes, not the payload bytes. For an MDS code the rule is exact:
//! a block decodes the moment `k_b` distinct packets of it have arrived, and
//! the object decodes when every block has. This mirrors
//! [`crate::RseCodec::decode`] precisely (a property test in the workspace
//! integration suite cross-checks the two).

use crate::Partition;

/// Tracks per-block reception until a blocked object becomes decodable.
#[derive(Debug, Clone)]
pub struct StructuralObjectDecoder {
    /// Per block: number of distinct packets still needed.
    missing: Vec<usize>,
    /// Per block: bitmap of seen ESIs (to ignore duplicates).
    seen: Vec<Vec<bool>>,
    /// Blocks not yet decodable.
    blocks_pending: usize,
    received: u64,
}

impl StructuralObjectDecoder {
    /// Creates a decoder for the given partition.
    pub fn new(partition: &Partition) -> StructuralObjectDecoder {
        let missing: Vec<usize> = partition.blocks().iter().map(|b| b.k).collect();
        let seen = partition
            .blocks()
            .iter()
            .map(|b| vec![false; b.n])
            .collect();
        let blocks_pending = missing.len();
        StructuralObjectDecoder {
            missing,
            seen,
            blocks_pending,
            received: 0,
        }
    }

    /// Feeds a window of `(block, esi)` arrivals (one packet is a window
    /// of one). Every packet is counted as received; a duplicate consumes
    /// channel budget but is useless. Returns the index within `packets`
    /// of the first packet after which the whole object is decodable
    /// (`Some(0)` if it already was), or `None` if still short afterwards.
    ///
    /// # Panics
    /// Panics on out-of-range block or ESI — the scheduler can never produce
    /// those, so this is an internal-consistency assertion, not I/O handling.
    pub fn push_batch(&mut self, packets: &[(usize, usize)]) -> Option<usize> {
        let mut done_at = None;
        for (i, &(block, esi)) in packets.iter().enumerate() {
            self.received += 1;
            let seen = &mut self.seen[block];
            assert!(esi < seen.len(), "ESI {esi} out of range for block {block}");
            if !std::mem::replace(&mut seen[esi], true) && self.missing[block] > 0 {
                self.missing[block] -= 1;
                if self.missing[block] == 0 {
                    self.blocks_pending -= 1;
                }
            }
            if done_at.is_none() && self.is_decoded() {
                done_at = Some(i);
            }
        }
        done_at
    }

    /// True once every block has at least `k_b` distinct packets.
    #[inline]
    pub fn is_decoded(&self) -> bool {
        self.blocks_pending == 0
    }

    /// Total packets pushed (including duplicates and useless ones).
    #[inline]
    pub fn received(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_decodes_at_k() {
        let p = Partition::new(4, 10, 2.0);
        let mut d = StructuralObjectDecoder::new(&p);
        assert!(d.push_batch(&[(0, 0)]).is_none());
        assert!(d.push_batch(&[(0, 7)]).is_none()); // parity counts the same
        assert!(d.push_batch(&[(0, 2)]).is_none());
        assert!(d.push_batch(&[(0, 5)]).is_some());
        assert_eq!(d.received(), 4);
    }

    #[test]
    fn duplicates_consume_budget_but_do_not_help() {
        let p = Partition::new(2, 10, 2.0);
        let mut d = StructuralObjectDecoder::new(&p);
        assert!(d.push_batch(&[(0, 0)]).is_none());
        assert!(d.push_batch(&[(0, 0)]).is_none());
        assert!(d.push_batch(&[(0, 0)]).is_none());
        assert!(d.push_batch(&[(0, 1)]).is_some());
        assert_eq!(d.received(), 4);
    }

    #[test]
    fn all_blocks_must_complete() {
        // Two blocks of k=2 each.
        let p = Partition::new(4, 2, 2.0);
        assert_eq!(p.num_blocks(), 2);
        let mut d = StructuralObjectDecoder::new(&p);
        assert!(d.push_batch(&[(0, 0)]).is_none());
        assert!(d.push_batch(&[(0, 1)]).is_none()); // block 0 done
        assert!(d.push_batch(&[(0, 2)]).is_none()); // extra for block 0: useless
        assert!(d.push_batch(&[(1, 3)]).is_none());
        assert!(d.push_batch(&[(1, 0)]).is_some()); // block 1 done -> object done
        assert_eq!(d.received(), 5);
    }

    #[test]
    fn extra_packets_after_decode_still_counted_as_received() {
        let p = Partition::new(1, 10, 3.0);
        let mut d = StructuralObjectDecoder::new(&p);
        assert!(d.push_batch(&[(0, 0)]).is_some());
        assert!(d.push_batch(&[(0, 1)]).is_some());
        assert_eq!(d.received(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn esi_out_of_range_is_a_bug() {
        let p = Partition::new(2, 10, 1.5);
        let mut d = StructuralObjectDecoder::new(&p);
        d.push_batch(&[(0, 3)]); // n = floor(2*1.5) = 3 -> esi 3 invalid
    }
}
