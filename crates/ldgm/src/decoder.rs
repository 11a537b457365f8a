//! Iterative (peeling) LDGM decoder over actual packet payloads.
//!
//! The algorithm is the paper's §2.3.2, and the walk itself lives in
//! [`crate::peel`]; this module is its byte store. Every arriving packet
//! makes one variable known; its value is folded (XORed) into every
//! equation containing it. When an equation drops to a single unknown
//! variable, that variable's value is the equation's accumulator, and the
//! discovery cascades. Decoding can stop at any time and completes when
//! all `k` source packets are known; [`Decoder::try_complete`] adds the
//! maximum-likelihood completion of [`crate::gauss`] for a decoder that
//! has stalled.
//!
//! The store is one object buffer of `k` symbols, which is also the
//! decoder's output, plus fixed-size accumulator slots. A source symbol is
//! written into the object once, when it is received or solved. An
//! equation takes a slot on its first fold (a copy, so nothing is zeroed)
//! and gives it back when it resolves; a solved parity waits in its
//! equation's slot until the cascade pops it. Maximum-likelihood
//! completion works in the same slots: its row operations XOR one
//! equation's accumulator into another's.

use std::ops::Range;
use std::sync::Arc;

use fec_gf256::kernels::xor_slice;

use crate::gauss::{Inactivation, NONE};
use crate::peel::{Hook, Peeler};
use crate::{LdgmError, SparseMatrix};

/// Bytes per chunk of accumulator slots: well below the allocator's mmap
/// threshold (128 KiB in glibc), above which every fresh chunk would
/// fault its pages in one at a time.
const SLOT_CHUNK_BYTES: usize = 32 << 10;

/// "No slot": an equation before its first fold or after it resolved, a
/// parity that is not waiting on the cascade stack.
const NO_SLOT: u32 = u32::MAX;

/// Result of feeding one packet into the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The packet's variable was already known (duplicate reception or a
    /// value the peeling had already solved). It consumed channel budget but
    /// taught the decoder nothing.
    Useless,
    /// The packet advanced decoding; `decoded_source` source packets are now
    /// known in total.
    Progress {
        /// Total source packets currently known.
        decoded_source: usize,
    },
    /// All `k` source packets are known.
    Complete,
}

impl PushOutcome {
    /// True once the object is fully decodable.
    pub fn is_complete(self) -> bool {
        matches!(self, PushOutcome::Complete)
    }
}

/// Memory footprint of a running decoder, in symbol-sized buffers.
///
/// The paper lists "maximum memory requirements" as a future-work metric
/// (§7); these counters make it measurable per (code, schedule, channel) —
/// see the `memory_profile` bench. They are logical: they count the
/// symbols the §2.3.2 decoder must hold (known source values, parity
/// values pending on the cascade stack, live accumulators), not
/// allocations. The storage behind them is one object buffer allocated up
/// front plus accumulator slots, handed out in chunks and recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Symbols currently held (variable values + live accumulators).
    pub current_symbols: usize,
    /// High-water mark of `current_symbols` over the decoder's lifetime.
    pub peak_symbols: usize,
    /// Bytes per symbol.
    pub symbol_len: usize,
}

impl MemoryStats {
    #[inline]
    fn hold(&mut self) {
        self.current_symbols += 1;
        self.peak_symbols = self.peak_symbols.max(self.current_symbols);
    }
}

/// Payload-carrying iterative decoder.
///
/// Owns its matrix via `Arc`, so long-lived receiver sessions can share one
/// matrix between the decoder and other components without self-referential
/// lifetimes.
pub struct Decoder {
    matrix: Arc<SparseMatrix>,
    peel: Peeler,
    store: Store,
    ml: Inactivation,
}

/// Symbol-sized accumulator slots, allocated a chunk at a time and
/// recycled through a free list.
struct Slots {
    len: usize,
    /// `log2` of the slots per chunk.
    shift: u32,
    chunks: Vec<Vec<u8>>,
    /// Slots ever handed out; slot `issued` is the next fresh one.
    issued: usize,
    free: Vec<u32>,
}

impl Slots {
    fn new(len: usize) -> Slots {
        Slots {
            len,
            shift: (SLOT_CHUNK_BYTES / len.max(1)).max(1).ilog2(),
            chunks: Vec::new(),
            issued: 0,
            free: Vec::new(),
        }
    }

    /// A slot holding a copy of `value`.
    fn take(&mut self, value: &[u8]) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.get(slot).copy_from_slice(value);
            return slot;
        }
        let chunk = self.issued >> self.shift;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(self.len << self.shift));
        }
        self.chunks[chunk].extend_from_slice(value);
        self.issued += 1;
        (self.issued - 1) as u32
    }

    fn get(&mut self, slot: u32) -> &mut [u8] {
        let at = (slot as usize & ((1 << self.shift) - 1)) * self.len;
        &mut self.chunks[slot as usize >> self.shift][at..at + self.len]
    }

    /// Two distinct slots at once: `dst` to write, `src` to read.
    fn pair(&mut self, dst: u32, src: u32) -> (&mut [u8], &[u8]) {
        debug_assert_ne!(dst, src);
        let len = self.len;
        let at = |slot: u32| (slot as usize & ((1 << self.shift) - 1)) * len;
        let (dc, sc) = (dst as usize >> self.shift, src as usize >> self.shift);
        let (da, sa) = (at(dst), at(src));
        if dc == sc {
            let chunk = &mut self.chunks[dc];
            if da < sa {
                let (lo, hi) = chunk.split_at_mut(sa);
                (&mut lo[da..da + len], &hi[..len])
            } else {
                let (lo, hi) = chunk.split_at_mut(da);
                (&mut hi[..len], &lo[sa..sa + len])
            }
        } else if dc < sc {
            let (lo, hi) = self.chunks.split_at_mut(sc);
            (&mut lo[dc][da..da + len], &hi[0][sa..sa + len])
        } else {
            let (lo, hi) = self.chunks.split_at_mut(dc);
            (&mut hi[0][da..da + len], &lo[sc][sa..sa + len])
        }
    }
}

/// The byte range of symbol `idx` in a buffer of `len`-byte symbols.
#[inline]
fn span(idx: usize, len: usize) -> Range<usize> {
    idx * len..(idx + 1) * len
}

/// What the cascade's steps mean in payload bytes.
struct Store {
    k: usize,
    /// The `k` source symbols back to back: the decoded object.
    object: Vec<u8>,
    slots: Slots,
    /// Per equation: the slot holding the XOR of the variables folded so
    /// far (`NO_SLOT` before the first fold and once resolved).
    eq_slot: Vec<u32>,
    /// Per parity variable: the slot of a solved value waiting on the
    /// cascade stack. Once a parity value has been folded into its
    /// equations it is dropped (streaming decoding; this is what makes
    /// large-block LDGM memory-friendly).
    parity_slot: Vec<u32>,
    /// The value of the popped parity, received or solved.
    scratch: Vec<u8>,
    /// The popped variable if it is a source (read in place in the
    /// object); `None` while a parity in `scratch` is folded.
    popped_source: Option<usize>,
    memory: MemoryStats,
}

impl Hook for Store {
    fn pop(&mut self, v: usize) {
        self.popped_source = (v < self.k).then_some(v);
        if v >= self.k {
            // After this pass through its equations a parity value is
            // never read again. A received one is in `scratch` already.
            self.memory.current_symbols -= 1;
            let slot = std::mem::replace(&mut self.parity_slot[v - self.k], NO_SLOT);
            if slot != NO_SLOT {
                self.scratch.copy_from_slice(self.slots.get(slot));
                self.slots.free.push(slot);
            }
        }
    }

    fn fold(&mut self, e: usize) {
        let value = match self.popped_source {
            Some(v) => &self.object[span(v, self.memory.symbol_len)],
            None => &self.scratch[..],
        };
        match self.eq_slot[e] {
            NO_SLOT => {
                self.eq_slot[e] = self.slots.take(value);
                self.memory.hold();
            }
            slot => xor_slice(self.slots.get(slot), value),
        }
    }

    fn solve(&mut self, e: usize, u: usize) {
        // The accumulator becomes the variable's value (net zero): a
        // source is written into the object and its slot recycled, a
        // parity keeps the slot until it is popped.
        let slot = std::mem::replace(&mut self.eq_slot[e], NO_SLOT);
        if u < self.k {
            self.object[span(u, self.memory.symbol_len)].copy_from_slice(self.slots.get(slot));
            self.slots.free.push(slot);
        } else {
            self.parity_slot[u - self.k] = slot;
        }
    }

    fn spent(&mut self, e: usize) {
        self.release(e);
    }
}

impl Store {
    /// XORs equation `src`'s accumulator into equation `dst`'s.
    fn xor_accumulators(&mut self, src: usize, dst: usize) {
        let from = self.eq_slot[src];
        if from == NO_SLOT {
            return; // nothing folded: a zero accumulator
        }
        match self.eq_slot[dst] {
            NO_SLOT => {
                // The scratch symbol is free between cascades.
                self.scratch.copy_from_slice(self.slots.get(from));
                self.eq_slot[dst] = self.slots.take(&self.scratch);
                self.memory.hold();
            }
            to => {
                let (to, from) = self.slots.pair(to, from);
                xor_slice(to, from);
            }
        }
    }

    /// Gives equation `e`'s accumulator back, if it holds one.
    fn release(&mut self, e: usize) {
        let slot = std::mem::replace(&mut self.eq_slot[e], NO_SLOT);
        if slot != NO_SLOT {
            self.slots.free.push(slot);
            self.memory.current_symbols -= 1;
        }
    }

    /// Holds the value of the unknown variable `var` where the cascade
    /// reads it: a source in the object, a parity in the scratch symbol.
    fn place(&mut self, var: usize, value: Value<'_>) {
        let held = if var < self.k {
            &mut self.object[span(var, self.memory.symbol_len)]
        } else {
            &mut self.scratch[..]
        };
        match value {
            Value::Bytes(bytes) => held.copy_from_slice(bytes),
            Value::Accumulator(e) => match self.eq_slot.get(e as usize) {
                Some(&slot) if slot != NO_SLOT => held.copy_from_slice(self.slots.get(slot)),
                _ => held.fill(0), // no equation, or nothing folded into it
            },
        }
        self.memory.hold();
    }
}

/// Where a learned value comes from.
enum Value<'a> {
    /// A received payload.
    Bytes(&'a [u8]),
    /// The accumulator of an equation maximum-likelihood completion spent;
    /// `NONE` for zero (an inactive variable the received set leaves
    /// free).
    Accumulator(u32),
}

impl Decoder {
    /// Creates a decoder for packets of `symbol_len` bytes.
    pub fn new(matrix: Arc<SparseMatrix>, symbol_len: usize) -> Decoder {
        let k = matrix.k();
        Decoder {
            peel: Peeler::new(&matrix),
            store: Store {
                k,
                object: vec![0u8; k * symbol_len],
                slots: Slots::new(symbol_len),
                eq_slot: vec![NO_SLOT; matrix.num_checks()],
                parity_slot: vec![NO_SLOT; matrix.n() - k],
                scratch: vec![0u8; symbol_len],
                popped_source: None,
                memory: MemoryStats {
                    symbol_len,
                    ..MemoryStats::default()
                },
            },
            ml: Inactivation::default(),
            matrix,
        }
    }

    /// Feeds a burst of received packets in order (`id < n`; ids `0..k`
    /// are source packets). One packet is a batch of one.
    ///
    /// The whole batch is validated up front and duplicate/known variables
    /// are skipped without entering the peeling machinery, so a receiver
    /// can hand over an entire loss-schedule window at once.
    ///
    /// Returns [`PushOutcome::Complete`] once all `k` source packets are
    /// known, [`PushOutcome::Progress`] if **this batch** taught the
    /// decoder something, and [`PushOutcome::Useless`] for a window of
    /// pure duplicates/already-solved variables.
    ///
    /// # Errors
    /// Fails on the first invalid id or payload length **without
    /// consuming any of the batch** (all-or-nothing validation).
    pub fn push_batch(&mut self, batch: &[(u32, &[u8])]) -> Result<PushOutcome, LdgmError> {
        for &(id, payload) in batch {
            if id as usize >= self.matrix.n() {
                return Err(LdgmError::BadPacketId {
                    id,
                    n: self.matrix.n(),
                });
            }
            if payload.len() != self.store.memory.symbol_len {
                return Err(LdgmError::SymbolLengthMismatch {
                    expected: self.store.memory.symbol_len,
                    got: payload.len(),
                });
            }
        }
        self.peel.received += batch.len() as u64;
        let mut learned = false;
        for &(id, payload) in batch {
            if !self.is_complete() && !self.peel.known[id as usize] {
                self.ml.arrived(id);
                self.store.place(id as usize, Value::Bytes(payload));
                self.peel.learn(&self.matrix, id, &mut self.store);
                learned = true;
            }
        }
        Ok(if self.is_complete() {
            PushOutcome::Complete
        } else if learned {
            PushOutcome::Progress {
                decoded_source: self.peel.decoded_source,
            }
        } else {
            PushOutcome::Useless
        })
    }

    /// Completes a stalled decoder by maximum-likelihood decoding, if what
    /// it has received determines every source packet. Returns `true` once
    /// the object is fully decoded; `false` leaves the decoder as it was,
    /// ready for more packets and another call.
    ///
    /// While the live equations are fewer than the unknowns it answers
    /// `false` at once. The first call past that gate (a few packets
    /// before the completion point, as a rule) builds the inactivation
    /// engine's index phase over the residual; each later call only folds
    /// in the packets received since, one row each over the inactive
    /// columns, so the call is cheap enough to make after every batch.
    /// When the answer is yes, one payload pass runs: the residual's row
    /// operations are XORed through the equations' accumulator slots
    /// (about two symbol XORs per residual edge, plus the dense part's),
    /// each inactive value is learned, and the cascade finishes the
    /// object.
    pub fn try_complete(&mut self) -> bool {
        if !self.ml.decodable(&self.matrix, &self.peel) {
            return false;
        }
        if self.is_complete() {
            return true;
        }
        let store = &mut self.store;
        let (dense, values) = self.ml.solve(&self.matrix, &self.peel, |src, dst| {
            store.xor_accumulators(src, dst)
        });
        // The dense equations are spent: the cascade must not fold into
        // accumulators that now hold inactive values.
        for &e in dense {
            self.peel.retire(e as usize);
        }
        for &(var, e) in values {
            if !self.peel.known[var as usize] {
                self.store.place(var as usize, Value::Accumulator(e));
                if e != NONE {
                    self.store.release(e as usize);
                }
                self.peel.learn(&self.matrix, var, &mut self.store);
            }
        }
        for &e in dense {
            self.store.release(e as usize);
        }
        self.is_complete()
    }

    /// True once all `k` source packets are known.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.peel.is_complete(&self.matrix)
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

    /// Current and peak payload-buffer usage (§7's memory metric).
    #[inline]
    pub fn memory_stats(&self) -> MemoryStats {
        self.store.memory
    }

    /// Returns the object once complete: the `k` source packets back to
    /// back, in the buffer they were written into (no copy).
    pub fn into_object(self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        Some(self.store.object)
    }

    /// Peeks at a recovered source packet (None until it is known).
    pub fn source_packet(&self, idx: usize) -> Option<&[u8]> {
        assert!(idx < self.matrix.k(), "source index out of range");
        self.peel.known[idx].then(|| &self.store.object[span(idx, self.store.memory.symbol_len)])
    }

    /// Whether a variable (source or parity) is known. Parity values are
    /// freed after use, so "known" does not imply the bytes are still held.
    pub fn is_known(&self, id: u32) -> bool {
        self.peel.known[id as usize]
    }
}

impl core::fmt::Debug for Decoder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Decoder(k={}, decoded={}, received={})",
            self.matrix.k(),
            self.peel.decoded_source,
            self.peel.received
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, LdgmParams, RightSide};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn setup(
        k: usize,
        n: usize,
        right: RightSide,
        seed: u64,
        sym: usize,
    ) -> (Arc<SparseMatrix>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let m = Arc::new(SparseMatrix::build(LdgmParams::new(k, n, right, seed)).unwrap());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xABCD);
        let src: Vec<Vec<u8>> = (0..k)
            .map(|_| (0..sym).map(|_| rng.gen()).collect())
            .collect();
        let refs: Vec<&[u8]> = src.iter().map(|s| s.as_slice()).collect();
        let parity = Encoder::new(&m).encode(&refs).unwrap();
        (m, src, parity)
    }

    #[test]
    fn decodes_from_all_source_packets() {
        let (m, src, _) = setup(20, 50, RightSide::Staircase, 1, 8);
        let mut d = Decoder::new(m.clone(), 8);
        for (i, s) in src.iter().enumerate() {
            let out = d.push_batch(&[(i as u32, s)]).unwrap();
            if i + 1 == src.len() {
                assert!(out.is_complete());
            }
        }
        assert_eq!(d.into_object().unwrap(), src.concat());
    }

    #[test]
    fn decodes_through_random_mixed_reception() {
        for right in [
            RightSide::Identity,
            RightSide::Staircase,
            RightSide::Triangle,
        ] {
            let (m, src, parity) = setup(40, 100, right, 3, 16);
            let mut packets: Vec<(u32, &[u8])> = Vec::new();
            for (i, s) in src.iter().enumerate() {
                packets.push((i as u32, s));
            }
            for (i, p) in parity.iter().enumerate() {
                packets.push(((40 + i) as u32, p));
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
            packets.shuffle(&mut rng);

            let mut d = Decoder::new(m.clone(), 16);
            let mut complete_at = None;
            for (i, (id, pl)) in packets.iter().enumerate() {
                if d.push_batch(&[(*id, pl)]).unwrap().is_complete() {
                    complete_at = Some(i + 1);
                    break;
                }
            }
            let complete_at = complete_at.expect("all packets received must decode");
            assert!(complete_at >= 40, "cannot decode below k packets");
            assert_eq!(d.into_object().unwrap(), src.concat(), "{right}");
        }
    }

    #[test]
    fn push_batch_matches_sequential_push() {
        let (m, src, parity) = setup(40, 100, RightSide::Staircase, 8, 8);
        let mut batched = Decoder::new(m.clone(), 8);
        let mut sequential = Decoder::new(m.clone(), 8);
        let all: Vec<(u32, &[u8])> = src
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_slice()))
            .chain(
                parity
                    .iter()
                    .enumerate()
                    .map(|(i, p)| ((40 + i) as u32, p.as_slice())),
            )
            .collect();
        for window in all.chunks(13) {
            batched.push_batch(window).unwrap();
            for &(id, payload) in window {
                sequential.push_batch(&[(id, payload)]).unwrap();
            }
            assert_eq!(batched.decoded_source(), sequential.decoded_source());
            assert_eq!(batched.received(), sequential.received());
        }
        assert!(batched.is_complete());
        assert_eq!(batched.into_object().unwrap(), src.concat());
    }

    #[test]
    fn push_batch_outcomes() {
        let (m, src, _) = setup(10, 30, RightSide::Staircase, 5, 4);
        let mut d = Decoder::new(m.clone(), 4);
        let first: Vec<(u32, &[u8])> = vec![(0, &src[0]), (1, &src[1])];
        assert!(matches!(
            d.push_batch(&first).unwrap(),
            PushOutcome::Progress { decoded_source: 2 }
        ));
        // A window of pure duplicates is useless, not progress.
        assert_eq!(d.push_batch(&first).unwrap(), PushOutcome::Useless);
        assert_eq!(d.received(), 4);
        // All-or-nothing validation: a bad id rejects the whole batch.
        let bad: Vec<(u32, &[u8])> = vec![(2, &src[2]), (99, &src[3])];
        assert!(d.push_batch(&bad).is_err());
        assert_eq!(d.received(), 4, "rejected batch must consume nothing");
        assert_eq!(d.decoded_source(), 2);
        // Completing batch reports Complete.
        let rest: Vec<(u32, &[u8])> = (2..10).map(|i| (i as u32, src[i].as_slice())).collect();
        assert_eq!(d.push_batch(&rest).unwrap(), PushOutcome::Complete);
    }

    #[test]
    fn duplicate_packets_are_useless() {
        let (m, src, _) = setup(10, 30, RightSide::Staircase, 5, 4);
        let mut d = Decoder::new(m.clone(), 4);
        assert!(matches!(
            d.push_batch(&[(0, &src[0])]).unwrap(),
            PushOutcome::Progress { .. }
        ));
        assert_eq!(d.push_batch(&[(0, &src[0])]).unwrap(), PushOutcome::Useless);
        assert_eq!(d.received(), 2);
    }

    #[test]
    fn bad_id_rejected() {
        let (m, _, _) = setup(10, 30, RightSide::Staircase, 5, 4);
        let mut d = Decoder::new(m.clone(), 4);
        assert_eq!(
            d.push_batch(&[(30, &[0u8; 4])]),
            Err(LdgmError::BadPacketId { id: 30, n: 30 })
        );
    }

    #[test]
    fn wrong_symbol_length_rejected() {
        let (m, _, _) = setup(10, 30, RightSide::Staircase, 5, 4);
        let mut d = Decoder::new(m.clone(), 4);
        assert!(matches!(
            d.push_batch(&[(0, &[0u8; 5])]),
            Err(LdgmError::SymbolLengthMismatch { .. })
        ));
    }

    #[test]
    fn parity_only_reception_needs_at_least_one_source() {
        // Paper §4.5: LDGM-* cannot decode from parity alone, and with p = 0
        // they "need exactly one source packet to decode the content".
        // Parameters chosen so every H1 row has weight exactly 2
        // (3k/m = 300/150): with all parity known, every equation still has
        // two unknown sources, so peeling cannot start.
        let k = 100;
        let (m, src, parity) = setup(k, 250, RightSide::Staircase, 9, 4);
        let mut d = Decoder::new(m.clone(), 4);
        for (i, p) in parity.iter().enumerate() {
            let out = d.push_batch(&[((k + i) as u32, p)]).unwrap();
            assert!(!out.is_complete(), "decoded from parity alone?!");
        }
        assert_eq!(d.decoded_source(), 0, "no equation should have activated");
        // Now feed source packets one at a time; the cascade must finish
        // after only a handful (exactly 1 at paper scale; allow a few at
        // k = 100 where the check graph may have more than one component).
        let mut fed = 0;
        for (i, s) in src.iter().enumerate() {
            fed += 1;
            if d.push_batch(&[(i as u32, s)]).unwrap().is_complete() {
                break;
            }
        }
        assert!(d.is_complete(), "all parity + all source must decode");
        assert!(fed <= 10, "needed {fed} source packets, expected a handful");
        assert_eq!(d.into_object().unwrap(), src.concat());
    }

    #[test]
    fn into_source_is_none_when_incomplete() {
        let (m, src, _) = setup(10, 30, RightSide::Triangle, 13, 4);
        let mut d = Decoder::new(m.clone(), 4);
        d.push_batch(&[(0, &src[0])]).unwrap();
        assert!(d.into_object().is_none());
    }

    #[test]
    fn source_packet_peek() {
        let (m, src, _) = setup(10, 30, RightSide::Staircase, 15, 4);
        let mut d = Decoder::new(m.clone(), 4);
        assert!(d.source_packet(0).is_none());
        d.push_batch(&[(0, &src[0])]).unwrap();
        assert_eq!(d.source_packet(0), Some(src[0].as_slice()));
    }

    #[test]
    fn memory_stats_track_buffers() {
        let (m, src, parity) = setup(50, 125, RightSide::Staircase, 33, 16);
        let mut d = Decoder::new(m.clone(), 16);
        assert_eq!(d.memory_stats().peak_symbols, 0);
        // Push everything in shuffled order; memory grows, peaks, and the
        // invariants hold throughout.
        let mut order: Vec<u32> = (0..125).collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        order.shuffle(&mut rng);
        for &id in &order {
            let payload: &[u8] = if (id as usize) < 50 {
                &src[id as usize]
            } else {
                &parity[id as usize - 50]
            };
            d.push_batch(&[(id, payload)]).unwrap();
            let stats = d.memory_stats();
            assert!(stats.current_symbols <= stats.peak_symbols);
            // Bound: variables (n) + accumulators (m).
            assert!(stats.peak_symbols <= 125 + 75);
            if d.is_complete() {
                break;
            }
        }
        let stats = d.memory_stats();
        assert!(stats.peak_symbols >= 50, "at least the k sources are held");
        assert_eq!(stats.symbol_len, 16);
    }

    #[test]
    fn streaming_decoder_memory_is_bounded_by_k_plus_m() {
        // §7's future-work metric made concrete. Because parity values are
        // freed once folded into their equations, the decoder never holds
        // more than the k output symbols plus one accumulator per check
        // equation — for ANY reception order. Parity-first reception is in
        // fact the memory-friendliest: almost nothing but accumulators.
        let k = 100;
        let n = 250;
        let m_checks = n - k;
        let (m, src, parity) = setup(k, n, RightSide::Staircase, 44, 8);
        let run = |order: Vec<u32>| {
            let mut d = Decoder::new(m.clone(), 8);
            for &id in &order {
                let payload: &[u8] = if (id as usize) < k {
                    &src[id as usize]
                } else {
                    &parity[id as usize - k]
                };
                if d.push_batch(&[(id, payload)]).unwrap().is_complete() {
                    break;
                }
            }
            assert!(d.is_complete());
            d.memory_stats().peak_symbols
        };
        let source_first: Vec<u32> = (0..n as u32).collect();
        let parity_first: Vec<u32> = (k as u32..n as u32).chain(0..k as u32).collect();
        let a = run(source_first);
        let b = run(parity_first);
        // Hard bound for any order (+1 transient on the cascade stack).
        assert!(a <= k + m_checks + 1, "source-first peak {a}");
        assert!(b <= k + m_checks + 1, "parity-first peak {b}");
        // Source-first retains all k output symbols plus pending
        // accumulators; parity-first streams and peaks near m alone.
        assert!(a >= k, "source-first must at least hold the output");
        assert!(
            b <= m_checks + 8,
            "parity-first should peak near the accumulator count, got {b}"
        );
        assert!(b < a, "streaming makes parity-first the cheaper order");
    }

    /// Losing a moderate number of random packets must still decode with the
    /// surviving prefix of a shuffled stream — exercised across all variants
    /// and many seeds (statistical smoke test for recovery capability).
    #[test]
    fn recovers_with_margin_over_k() {
        let k = 100;
        let n = 250;
        for right in [RightSide::Staircase, RightSide::Triangle] {
            let mut success = 0;
            for seed in 0..20u64 {
                let (m, src, parity) = setup(k, n, right, seed, 4);
                let mut packets: Vec<(u32, Vec<u8>)> = Vec::new();
                for (i, s) in src.iter().enumerate() {
                    packets.push((i as u32, s.clone()));
                }
                for (i, p) in parity.iter().enumerate() {
                    packets.push(((k + i) as u32, p.clone()));
                }
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xF00);
                packets.shuffle(&mut rng);
                // Feed only 1.4*k packets (a 40% margin over k).
                let budget = (k as f64 * 1.4) as usize;
                let mut d = Decoder::new(m.clone(), 4);
                for (id, pl) in packets.iter().take(budget) {
                    if d.push_batch(&[(*id, pl)]).unwrap().is_complete() {
                        break;
                    }
                }
                if d.is_complete() {
                    assert_eq!(d.into_object().unwrap(), src.concat());
                    success += 1;
                }
            }
            assert!(
                success >= 18,
                "{right}: only {success}/20 decoded with 40% margin"
            );
        }
    }
}
