//! The sending side of a broadcast session.

use std::sync::Arc;

use fec_sched::{Layout, PacketRef, TxModel};

use crate::{CodeSpec, CoreError};

/// A fully-encoded object, ready to emit packets in any schedule.
///
/// Construction performs the complete FEC encoding (source symbol split +
/// all parity symbols) through the spec's codec session, so `symbol()` is
/// a cheap lookup afterwards — the natural shape for a carousel sender
/// that cycles its schedule.
pub struct Sender {
    spec: CodeSpec,
    layout: Layout,
    symbol_size: usize,
    object_len: usize,
    /// The `k` source symbols back to back, the last one zero-padded to
    /// `symbol_size`: one buffer, shared with every re-encode.
    source: Arc<Vec<u8>>,
    /// Parity symbols per block as the encoder returned them
    /// (`parity[b][j]` is ESI `k_b + j`).
    parity: Vec<Vec<Vec<u8>>>,
    /// Global index of each block's first source symbol.
    block_src_offset: Vec<usize>,
}

impl Sender {
    /// Encodes `object` under `spec` with `symbol_size`-byte symbols.
    pub fn new(spec: CodeSpec, object: &[u8], symbol_size: usize) -> Result<Sender, CoreError> {
        spec.validate_object(object.len(), symbol_size)?;
        let mut source = Vec::with_capacity(spec.k * symbol_size);
        source.extend_from_slice(object);
        source.resize(spec.k * symbol_size, 0);
        Sender::encode(spec, Arc::new(source), symbol_size, object.len())
    }

    /// Encodes this sender's object again under `spec` — another code or
    /// ratio over the same `k` source symbols. The source buffer is
    /// shared with this sender (a reference-count bump, no copy); only
    /// the parity is new.
    pub fn reencode(&self, spec: CodeSpec) -> Result<Sender, CoreError> {
        spec.validate_object(self.object_len, self.symbol_size)?;
        Sender::encode(spec, self.source.clone(), self.symbol_size, self.object_len)
    }

    fn encode(
        spec: CodeSpec,
        source: Arc<Vec<u8>>,
        symbol_size: usize,
        object_len: usize,
    ) -> Result<Sender, CoreError> {
        let layout = spec.layout()?;

        // Per-block source offsets.
        let mut block_src_offset = Vec::with_capacity(layout.num_blocks());
        let mut off = 0usize;
        for b in 0..layout.num_blocks() {
            block_src_offset.push(off);
            off += layout.block(b).0;
        }

        // Encode parity through the codec session.
        let refs: Vec<&[u8]> = source.chunks_exact(symbol_size).collect();
        let parity = spec
            .code
            .encoder(&spec.session_params(symbol_size))
            .and_then(|mut enc| enc.encode(&refs))
            .map_err(|e| CoreError::Codec {
                detail: e.to_string(),
            })?;

        Ok(Sender {
            spec,
            layout,
            symbol_size,
            object_len,
            source,
            parity,
            block_src_offset,
        })
    }

    /// The configuration this sender encodes under.
    pub fn spec(&self) -> &CodeSpec {
        &self.spec
    }

    /// The packet layout (block structure).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Symbol (payload) size in bytes.
    pub fn symbol_size(&self) -> usize {
        self.symbol_size
    }

    /// Original object length in bytes (before padding).
    pub fn object_len(&self) -> usize {
        self.object_len
    }

    /// Total number of encoding packets (`n`, across blocks).
    pub fn packet_count(&self) -> u64 {
        self.layout.total_packets()
    }

    /// Number of source packets (`k`).
    pub fn source_count(&self) -> u64 {
        self.layout.total_source()
    }

    /// Borrows the encoding symbol for a scheduling reference: the
    /// `symbol_size` bytes a datagram carries, with no copy. A framing
    /// layer writes it straight into its own datagram buffer (as
    /// `fec-flute` does); a receiver takes it as a
    /// [`Symbol`](fec_codec::Symbol).
    pub fn symbol(&self, r: PacketRef) -> Result<&[u8], CoreError> {
        if !self.layout.contains(r) {
            return Err(CoreError::UnknownPacket {
                block: r.block,
                esi: r.esi,
            });
        }
        let (kb, _) = self.layout.block(r.block as usize);
        Ok(if (r.esi as usize) < kb {
            let at = (self.block_src_offset[r.block as usize] + r.esi as usize) * self.symbol_size;
            &self.source[at..at + self.symbol_size]
        } else {
            &self.parity[r.block as usize][r.esi as usize - kb]
        })
    }

    /// Starts an incremental, *amendable* emission of this object's
    /// schedule, the §6.2 *planned* transmission: packets come out one [`next_ref`](crate::PlannedEmission::next_ref) at a time
    /// and a fresh [`TransmissionPlan`](crate::TransmissionPlan) can move
    /// the stopping point mid-flight via
    /// [`amend`](crate::PlannedEmission::amend). Look each reference up
    /// with [`symbol`](Self::symbol).
    pub fn emission(&self, tx: TxModel, seed: u64) -> crate::PlannedEmission {
        crate::PlannedEmission::full(tx.schedule(&self.layout, seed))
    }
}

impl core::fmt::Debug for Sender {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Sender({}, k={}, n={}, symbol={}B)",
            self.spec.code.id(),
            self.source_count(),
            self.packet_count(),
            self.symbol_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_sim::ExpansionRatio;

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn ldgm_sender_produces_all_packets() {
        let spec = CodeSpec::ldgm_staircase(10, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(10 * 16), 16).unwrap();
        assert_eq!(s.packet_count(), 25);
        assert_eq!(s.source_count(), 10);
        for r in s.layout().all_packets() {
            assert_eq!(s.symbol(r).unwrap().len(), 16);
        }
    }

    #[test]
    fn rse_sender_blocks_and_encodes() {
        // k = 300 at ratio 2.5 -> 3 blocks of ~100.
        let spec = CodeSpec::rse(300, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(300 * 8), 8).unwrap();
        assert!(s.layout().num_blocks() >= 3);
        // Source packets carry the original bytes verbatim.
        let first = s.symbol(PacketRef { block: 0, esi: 0 }).unwrap();
        assert_eq!(first, &object(300 * 8)[..8]);
    }

    #[test]
    fn padding_on_final_symbol() {
        let spec = CodeSpec::ldgm_staircase(3, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(40), 16).unwrap(); // 40 = 2*16 + 8
        let last = s.symbol(PacketRef { block: 0, esi: 2 }).unwrap();
        assert_eq!(&last[..8], &object(40)[32..]);
        assert_eq!(&last[8..], &[0u8; 8]);
    }

    #[test]
    fn unknown_packet_ref_rejected() {
        let spec = CodeSpec::ldgm_staircase(4, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(64), 16).unwrap();
        for r in [
            PacketRef { block: 0, esi: 10 },
            PacketRef { block: 1, esi: 0 },
        ] {
            assert!(matches!(s.symbol(r), Err(CoreError::UnknownPacket { .. })));
        }
    }

    #[test]
    fn object_length_mismatch_rejected() {
        let spec = CodeSpec::ldgm_staircase(4, ExpansionRatio::R2_5);
        assert!(Sender::new(spec, &object(65), 16).is_err()); // needs k=5
    }

    #[test]
    fn reencode_shares_the_source_and_equals_a_fresh_encode() {
        let data = object(20 * 8);
        let a = Sender::new(CodeSpec::ldgm_triangle(20, ExpansionRatio::R2_5), &data, 8).unwrap();
        let spec = CodeSpec::rse(20, ExpansionRatio::R1_5);
        let b = a.reencode(spec.clone()).unwrap();
        let fresh = Sender::new(spec, &data, 8).unwrap();
        assert_eq!(b.packet_count(), 30);
        for r in b.layout().all_packets() {
            assert_eq!(b.symbol(r).unwrap(), fresh.symbol(r).unwrap());
        }
        // Another k is another object.
        assert!(a.reencode(CodeSpec::rse(21, ExpansionRatio::R1_5)).is_err());
    }

    /// A re-encode reads its source symbols out of the original's buffer
    /// (the same memory, not a copy) and carries parity of its own.
    #[test]
    fn reencode_keeps_the_source_memory_and_makes_new_parity() {
        let data = object(40 * 8 - 3);
        let spec = CodeSpec::ldgm_triangle(40, ExpansionRatio::R2_5).with_matrix_seed(1);
        let a = Sender::new(spec.clone(), &data, 8).unwrap();
        let b = a.reencode(spec.with_matrix_seed(2)).unwrap();
        let (k, _) = a.layout().block(0);
        let mut parity_differs = false;
        for r in a.layout().all_packets() {
            let (old, new) = (a.symbol(r).unwrap(), b.symbol(r).unwrap());
            if (r.esi as usize) < k {
                assert!(std::ptr::eq(old, new), "source {r:?} was copied");
            } else {
                assert!(!std::ptr::eq(old, new));
                parity_differs |= old != new;
            }
        }
        assert!(parity_differs, "another matrix seed is another parity");
    }

    #[test]
    fn deterministic_encoding() {
        let spec = CodeSpec::ldgm_triangle(20, ExpansionRatio::R2_5).with_matrix_seed(7);
        let a = Sender::new(spec.clone(), &object(20 * 8), 8).unwrap();
        let b = Sender::new(spec, &object(20 * 8), 8).unwrap();
        for r in a.layout().all_packets() {
            assert_eq!(a.symbol(r).unwrap(), b.symbol(r).unwrap());
        }
    }
}
