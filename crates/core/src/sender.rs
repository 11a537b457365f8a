//! The sending side of a broadcast session.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fec_codec::Encoder;
use fec_sched::{Layout, PacketRef, TxModel};

use crate::{CodeSpec, CoreError};

/// An object ready to emit packets in any schedule, its parity encoded
/// the first time it is emitted.
///
/// Construction splits the object into source symbols and builds the
/// spec's encoder; no parity is computed yet. The first
/// [`symbol`](Self::symbol) call for a parity symbol encodes its block's
/// parity up to that ESI, in one run of at least `RUN` (8) symbols where
/// the block has them, and every later call for it is a lookup. So a
/// carousel that cycles its schedule encodes each symbol once, and an
/// emission that stops early (§6.2: "send significantly less than n")
/// pays for at most `RUN − 1` parity symbols per block past the highest
/// ESI it sends. A run lets the encoder read the block's source once for
/// many symbols (the RSE kernel carries eight rows per pass).
pub struct Sender {
    spec: CodeSpec,
    layout: Layout,
    symbol_size: usize,
    object_len: usize,
    /// The `k` source symbols back to back, the last one zero-padded to
    /// `symbol_size`: one buffer, shared with every re-encode.
    source: Arc<Vec<u8>>,
    /// One slot per parity symbol, block after block, set once when the
    /// symbol is first encoded.
    parity: Box<[OnceLock<Box<[u8]>>]>,
    /// Per block, the global index of its first source symbol and the
    /// index of its first slot in `parity`.
    first: Vec<(usize, usize)>,
    /// Taken only to encode: a lookup of encoded parity never locks.
    encoding: Mutex<Encoding>,
}

/// The encoder and, per block, its high-water mark: how many parity
/// symbols of the block are encoded (always a prefix in ESI order).
struct Encoding {
    encoder: Box<dyn Encoder>,
    filled: Vec<usize>,
}

/// The fewest parity symbols one miss encodes (fewer only at a block's
/// end): the rows one `gfni` kernel pass carries. The same for every
/// code.
const RUN: usize = 8;

// One sender serves every thread that emits its object.
const _: () = {
    const fn shared<T: Send + Sync>() {}
    shared::<Sender>()
};

impl Sender {
    /// Splits `object` into `symbol_size`-byte symbols under `spec`.
    pub fn new(spec: CodeSpec, object: &[u8], symbol_size: usize) -> Result<Sender, CoreError> {
        spec.validate_object(object.len(), symbol_size)?;
        let mut source = Vec::with_capacity(spec.k * symbol_size);
        source.extend_from_slice(object);
        source.resize(spec.k * symbol_size, 0);
        Sender::with_source(spec, Arc::new(source), symbol_size, object.len())
    }

    /// This sender's object under `spec` — another code or ratio over the
    /// same `k` source symbols. The source buffer is shared with this
    /// sender (a reference-count bump, no copy); the parity is the new
    /// spec's, encoded as it is emitted.
    pub fn reencode(&self, spec: CodeSpec) -> Result<Sender, CoreError> {
        spec.validate_object(self.object_len, self.symbol_size)?;
        Sender::with_source(spec, self.source.clone(), self.symbol_size, self.object_len)
    }

    fn with_source(
        spec: CodeSpec,
        source: Arc<Vec<u8>>,
        symbol_size: usize,
        object_len: usize,
    ) -> Result<Sender, CoreError> {
        let layout = spec.layout()?;
        let encoder = spec
            .code
            .encoder(&spec.session_params(symbol_size))
            .map_err(codec_error)?;
        let mut first = Vec::with_capacity(layout.num_blocks());
        let (mut src, mut par) = (0, 0);
        for b in 0..layout.num_blocks() {
            let (kb, nb) = layout.block(b);
            first.push((src, par));
            (src, par) = (src + kb, par + nb - kb);
        }
        Ok(Sender {
            parity: (0..par).map(|_| OnceLock::new()).collect(),
            encoding: Mutex::new(Encoding {
                encoder,
                filled: vec![0; first.len()],
            }),
            first,
            spec,
            layout,
            symbol_size,
            object_len,
            source,
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
        let b = r.block as usize;
        let (kb, _) = self.layout.block(b);
        let esi = r.esi as usize;
        if esi < kb {
            return Ok(self.source_symbol(b, esi));
        }
        match self.parity[self.first[b].1 + esi - kb].get() {
            Some(p) => Ok(p),
            None => self.encode_through(b, esi - kb),
        }
    }

    /// Source symbol `esi` of block `b`.
    fn source_symbol(&self, b: usize, esi: usize) -> &[u8] {
        let at = (self.first[b].0 + esi) * self.symbol_size;
        &self.source[at..at + self.symbol_size]
    }

    /// Encodes block `b`'s parity up to its `j`-th parity symbol — at
    /// least `RUN` symbols past the high-water mark, as far as the block
    /// goes — in one run, and returns the `j`-th.
    fn encode_through(&self, b: usize, j: usize) -> Result<&[u8], CoreError> {
        let (kb, nb) = self.layout.block(b);
        let slots = &self.parity[self.first[b].1..][..nb - kb];
        // A panicking encoder leaves the high-water mark behind the last
        // slot it set, so the state behind a poisoned lock is still whole.
        let mut encoding = self.encoding.lock().unwrap_or_else(PoisonError::into_inner);
        let Encoding { encoder, filled } = &mut *encoding;
        let next = filled[b];
        if next <= j {
            let end = (j + 1).max(next + RUN).min(nb - kb);
            let earlier = |esi: u32| match (esi as usize).checked_sub(kb) {
                None => Some(self.source_symbol(b, esi as usize)),
                Some(p) => slots[..next].get(p)?.get().map(|s| &s[..]),
            };
            let mut run: Vec<Box<[u8]>> = (next..end)
                .map(|_| vec![0u8; self.symbol_size].into_boxed_slice())
                .collect();
            let mut out: Vec<&mut [u8]> = run.iter_mut().map(|s| &mut s[..]).collect();
            encoder
                .parity(b, (kb + next) as u32, &earlier, &mut out)
                .map_err(codec_error)?;
            for (slot, symbol) in slots[next..end].iter().zip(run) {
                slot.get_or_init(|| symbol);
            }
            filled[b] = end;
        }
        slots[j]
            .get()
            .map(|s| &s[..])
            .ok_or(CoreError::UnknownPacket {
                block: b as u32,
                esi: (kb + j) as u32,
            })
    }

    /// How many parity symbols this sender has encoded so far: what its
    /// emissions asked for, up to each block's highest ESI and rounded up
    /// to whole runs.
    pub fn parity_encoded(&self) -> usize {
        self.parity.iter().filter(|s| s.get().is_some()).count()
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

fn codec_error(e: fec_codec::CodecError) -> CoreError {
    CoreError::Codec {
        detail: e.to_string(),
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
    use fec_codec::{
        builtin, CodecError, CodecHandle, Decoder, Decoding, Envelope, ErasureCode, SessionParams,
        StructuralFactory,
    };
    use fec_sim::ExpansionRatio;
    use proptest::prelude::*;

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

    /// Per block, how many parity symbols are encoded.
    fn filled(s: &Sender) -> Vec<usize> {
        s.encoding.lock().unwrap().filled.clone()
    }

    #[test]
    fn no_parity_is_encoded_before_a_parity_symbol_is_asked_for() {
        let data = object(300 * 8);
        let a = Sender::new(CodeSpec::rse(300, ExpansionRatio::R1_5), &data, 8).unwrap();
        let b = a
            .reencode(CodeSpec::ldgm_triangle(300, ExpansionRatio::R2_5))
            .unwrap();
        for s in [&a, &b] {
            for r in s.layout().source_sequential() {
                s.symbol(r).unwrap();
            }
            assert_eq!(s.parity_encoded(), 0, "{s:?}");
            assert!(filled(s).iter().all(|&f| f == 0));
        }
    }

    /// Tx_model_5 sends every block's source first, then its parity in
    /// ascending ESI order, so each miss starts a run of `RUN` at the
    /// high-water mark: a sender that stops early has encoded each
    /// block's parity up to the highest ESI it sent, rounded up to whole
    /// runs, and re-sending encodes nothing again.
    #[test]
    fn an_rse_tx5_prefix_encodes_each_block_up_to_its_highest_esi() {
        let spec = CodeSpec::rse(2040, ExpansionRatio::R1_5);
        let s = Sender::new(spec, &object(2040 * 8), 8).unwrap();
        let schedule = TxModel::Interleaved.schedule(s.layout(), 1);
        let prefix = &schedule[..2040 + 258];
        for _ in 0..2 {
            for &r in prefix {
                s.symbol(r).unwrap();
            }
            let mut want = vec![0; s.layout().num_blocks()];
            for r in prefix {
                let (kb, _) = s.layout().block(r.block as usize);
                let sent = (r.esi as usize + 1).saturating_sub(kb);
                want[r.block as usize] = want[r.block as usize].max(sent);
            }
            let runs: Vec<usize> = (0..want.len())
                .map(|b| {
                    let (kb, nb) = s.layout().block(b);
                    (want[b].div_ceil(RUN) * RUN).min(nb - kb)
                })
                .collect();
            assert_eq!(filled(&s), runs);
            assert_eq!(s.parity_encoded(), runs.iter().sum::<usize>());
            assert!(s.parity_encoded() < 300, "of 1020 parity symbols");
        }
    }

    /// A third-party code whose parity chains on earlier parity: parity
    /// `esi` is symbol `esi - 1` XOR source `esi mod k`, rotated. Encode
    /// only.
    struct Chain;

    struct ChainEncoder {
        k: u32,
    }

    impl ErasureCode for Chain {
        fn id(&self) -> &str {
            "chain"
        }
        fn fti_id(&self) -> Option<u8> {
            None
        }
        fn envelope(&self) -> Envelope {
            Envelope {
                min_k: 1,
                max_k: 1 << 16,
                min_ratio: 1.0,
                max_ratio: 4.0,
            }
        }
        fn layout(&self, k: usize, ratio: f64) -> Result<Layout, CodecError> {
            Ok(Layout::single_block(k, (k as f64 * ratio) as usize))
        }
        fn encoder(&self, p: &SessionParams) -> Result<Box<dyn Encoder>, CodecError> {
            Ok(Box::new(ChainEncoder { k: p.k as u32 }))
        }
        fn decoder(&self, _: &SessionParams) -> Result<Box<dyn Decoder>, CodecError> {
            Err(CodecError::encode(self, "encode only"))
        }
        fn structural_factory(
            &self,
            _: usize,
            _: f64,
            _: &[u64],
            _: Decoding,
        ) -> Result<Box<dyn StructuralFactory>, CodecError> {
            Err(CodecError::encode(self, "encode only"))
        }
    }

    impl Encoder for ChainEncoder {
        fn parity<'s>(
            &mut self,
            _block: usize,
            first: u32,
            earlier: &dyn Fn(u32) -> Option<&'s [u8]>,
            out: &mut [&mut [u8]],
        ) -> Result<(), CodecError> {
            for i in 0..out.len() {
                let esi = first + i as u32;
                // The run's earlier members are in `out`, the rest below it.
                let (done, rest) = out.split_at_mut(i);
                let prev = match done.last() {
                    Some(p) => Some(&p[..]),
                    None => earlier(esi - 1),
                };
                let (Some(prev), Some(src)) = (prev, earlier(esi % self.k)) else {
                    return Err(CodecError::encode(&Chain, "missing symbol"));
                };
                for (o, (p, s)) in rest[0].iter_mut().zip(prev.iter().zip(src)) {
                    *o = p ^ s.rotate_left(1);
                }
            }
            Ok(())
        }
    }

    /// The chaining code reads its earlier parity from `earlier` and from
    /// its own run alike: symbol by symbol, one run per block and in
    /// reverse give the same bytes.
    #[test]
    fn a_chaining_encoder_gives_the_same_parity_in_any_run() {
        let chain = CodecHandle::new(Chain);
        for (k, ratio) in [(1, 4.0), (7, 2.5), (40, 1.5), (300, 2.5)] {
            fec_codec::conformance::check_encoder(&chain, k, ratio);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whatever order a schedule asks for symbols in, every symbol is
        /// the one an ascending-ESI walk produces.
        #[test]
        fn symbols_do_not_depend_on_the_emission_order(
            k in 1usize..400,
            high in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let ratio = if high { ExpansionRatio::R2_5 } else { ExpansionRatio::R1_5 };
            let data = object(k * 8 - 3);
            let codes = [
                builtin::ldgm_plain(),
                builtin::ldgm_staircase(),
                builtin::ldgm_triangle(),
                builtin::rse(),
                CodecHandle::new(Chain),
            ];
            for code in codes {
                if !code.supports(k, ratio.as_f64()) {
                    continue;
                }
                let spec = CodeSpec::new(code, k, ratio).with_matrix_seed(seed);
                let ascending = Sender::new(spec.clone(), &data, 8).unwrap();
                for r in ascending.layout().all_packets() {
                    ascending.symbol(r).unwrap();
                }
                for tx in TxModel::paper_models() {
                    let schedule = tx.schedule(ascending.layout(), seed);
                    let reversed = schedule.iter().rev().copied().collect();
                    for order in [schedule, reversed] {
                        let s = Sender::new(spec.clone(), &data, 8).unwrap();
                        for r in order {
                            prop_assert_eq!(s.symbol(r).unwrap(), ascending.symbol(r).unwrap());
                        }
                    }
                }
            }
        }
    }
}
