//! The sending side of a broadcast session.

use bytes::Bytes;
use fec_sched::{Layout, PacketRef, TxModel};

use crate::{CodeSpec, CoreError, Packet};

/// A fully-encoded object, ready to emit packets in any schedule.
///
/// Construction performs the complete FEC encoding (source symbol split +
/// all parity symbols) through the spec's codec session, so `packet()` is
/// a cheap lookup afterwards — the natural shape for a carousel sender
/// that cycles its schedule.
pub struct Sender {
    spec: CodeSpec,
    layout: Layout,
    symbol_size: usize,
    object_len: usize,
    /// Global source symbols (zero-padded to `symbol_size`).
    source: Vec<Bytes>,
    /// Parity symbols per block (`parity[b][j]` is ESI `k_b + j`).
    parity: Vec<Vec<Bytes>>,
    /// Global index of each block's first source symbol.
    block_src_offset: Vec<usize>,
}

impl Sender {
    /// Encodes `object` under `spec` with `symbol_size`-byte symbols.
    pub fn new(spec: CodeSpec, object: &[u8], symbol_size: usize) -> Result<Sender, CoreError> {
        spec.validate_object(object.len(), symbol_size)?;

        // Split into k padded symbols.
        let mut source: Vec<Bytes> = Vec::with_capacity(spec.k);
        for chunk in object.chunks(symbol_size) {
            if chunk.len() == symbol_size {
                source.push(Bytes::copy_from_slice(chunk));
            } else {
                let mut padded = vec![0u8; symbol_size];
                padded[..chunk.len()].copy_from_slice(chunk);
                source.push(Bytes::from(padded));
            }
        }
        debug_assert_eq!(source.len(), spec.k);
        Sender::encode(spec, source, symbol_size, object.len())
    }

    /// Encodes this sender's object again under `spec` — another code or
    /// ratio over the same `k` source symbols. The source symbols are
    /// shared with this sender (reference-count bumps, no copy); only the
    /// parity is new.
    pub fn reencode(&self, spec: CodeSpec) -> Result<Sender, CoreError> {
        spec.validate_object(self.object_len, self.symbol_size)?;
        Sender::encode(spec, self.source.clone(), self.symbol_size, self.object_len)
    }

    fn encode(
        spec: CodeSpec,
        source: Vec<Bytes>,
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
        let refs: Vec<&[u8]> = source.iter().map(|s| s.as_ref()).collect();
        let parity = spec
            .code
            .encoder(&spec.session_params(symbol_size))
            .and_then(|mut enc| enc.encode(&refs))
            .map_err(|e| CoreError::Codec {
                detail: e.to_string(),
            })?;
        let parity: Vec<Vec<Bytes>> = parity
            .into_iter()
            .map(|block| block.into_iter().map(Bytes::from).collect())
            .collect();

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

    /// The stored symbol behind a scheduling reference.
    fn stored(&self, r: PacketRef) -> Result<&Bytes, CoreError> {
        if !self.layout.contains(r) {
            return Err(CoreError::UnknownPacket {
                block: r.block,
                esi: r.esi,
            });
        }
        let (kb, _) = self.layout.block(r.block as usize);
        Ok(if (r.esi as usize) < kb {
            &self.source[self.block_src_offset[r.block as usize] + r.esi as usize]
        } else {
            &self.parity[r.block as usize][r.esi as usize - kb]
        })
    }

    /// Borrows the encoding symbol for a scheduling reference: the
    /// `symbol_size` bytes a datagram carries, with no reference-count
    /// traffic and no copy. A framing layer that writes the symbol
    /// straight into its own datagram buffer (as `fec-flute` does) wants
    /// this; [`packet`](Self::packet) is the same lookup wrapped in an
    /// owning [`Packet`].
    pub fn symbol(&self, r: PacketRef) -> Result<&[u8], CoreError> {
        self.stored(r).map(|symbol| &symbol[..])
    }

    /// Materialises the packet for a scheduling reference.
    pub fn packet(&self, r: PacketRef) -> Result<Packet, CoreError> {
        let payload = self.stored(r)?.clone();
        Ok(Packet::new(r.block, r.esi, payload))
    }

    /// Generates the full transmission as packets, in `tx`-model order.
    pub fn transmission(&self, tx: TxModel, seed: u64) -> Vec<Packet> {
        tx.schedule(&self.layout, seed)
            .into_iter()
            .map(|r| self.packet(r).expect("schedule refs are valid"))
            .collect()
    }

    /// Starts an incremental, *amendable* emission of this object's
    /// schedule, the §6.2 *planned* transmission: packets come out one [`next_ref`](crate::PlannedEmission::next_ref) at a time
    /// and a fresh [`TransmissionPlan`](crate::TransmissionPlan) can move
    /// the stopping point mid-flight via
    /// [`amend`](crate::PlannedEmission::amend). Materialise each
    /// reference with [`packet`](Self::packet).
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
            let p = s.packet(r).unwrap();
            assert_eq!(p.payload.len(), 16);
            assert_eq!(
                s.symbol(r).unwrap(),
                &p.payload[..],
                "same lookup, borrowed"
            );
        }
    }

    #[test]
    fn rse_sender_blocks_and_encodes() {
        // k = 300 at ratio 2.5 -> 3 blocks of ~100.
        let spec = CodeSpec::rse(300, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(300 * 8), 8).unwrap();
        assert!(s.layout().num_blocks() >= 3);
        // Source packets carry the original bytes verbatim.
        let p = s.packet(PacketRef { block: 0, esi: 0 }).unwrap();
        assert_eq!(&p.payload[..], &object(300 * 8)[..8]);
    }

    #[test]
    fn padding_on_final_symbol() {
        let spec = CodeSpec::ldgm_staircase(3, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(40), 16).unwrap(); // 40 = 2*16 + 8
        let last = s.packet(PacketRef { block: 0, esi: 2 }).unwrap();
        assert_eq!(&last.payload[..8], &object(40)[32..]);
        assert_eq!(&last.payload[8..], &[0u8; 8]);
    }

    #[test]
    fn unknown_packet_ref_rejected() {
        let spec = CodeSpec::ldgm_staircase(4, ExpansionRatio::R2_5);
        let s = Sender::new(spec, &object(64), 16).unwrap();
        assert!(matches!(
            s.packet(PacketRef { block: 0, esi: 10 }),
            Err(CoreError::UnknownPacket { .. })
        ));
        assert!(matches!(
            s.packet(PacketRef { block: 1, esi: 0 }),
            Err(CoreError::UnknownPacket { .. })
        ));
        assert!(matches!(
            s.symbol(PacketRef { block: 0, esi: 10 }),
            Err(CoreError::UnknownPacket { .. })
        ));
    }

    #[test]
    fn object_length_mismatch_rejected() {
        let spec = CodeSpec::ldgm_staircase(4, ExpansionRatio::R2_5);
        assert!(Sender::new(spec, &object(65), 16).is_err()); // needs k=5
    }

    #[test]
    fn transmission_covers_schedule() {
        let spec = CodeSpec::rse(50, ExpansionRatio::R1_5);
        let s = Sender::new(spec, &object(50 * 4), 4).unwrap();
        let pkts = s.transmission(TxModel::Interleaved, 1);
        assert_eq!(pkts.len() as u64, s.packet_count());
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
            assert_eq!(b.packet(r).unwrap(), fresh.packet(r).unwrap());
        }
        let first = PacketRef { block: 0, esi: 0 };
        assert!(std::ptr::eq(
            a.symbol(first).unwrap(),
            b.symbol(first).unwrap()
        ));
        // Another k is another object.
        assert!(a.reencode(CodeSpec::rse(21, ExpansionRatio::R1_5)).is_err());
    }

    #[test]
    fn deterministic_encoding() {
        let spec = CodeSpec::ldgm_triangle(20, ExpansionRatio::R2_5).with_matrix_seed(7);
        let a = Sender::new(spec.clone(), &object(20 * 8), 8).unwrap();
        let b = Sender::new(spec, &object(20 * 8), 8).unwrap();
        for r in a.layout().all_packets() {
            assert_eq!(a.packet(r).unwrap(), b.packet(r).unwrap());
        }
    }
}
