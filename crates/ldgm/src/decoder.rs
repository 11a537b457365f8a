//! Iterative (peeling) LDGM decoder over actual packet payloads.
//!
//! The algorithm is the paper's §2.3.2, and the walk itself lives in
//! [`crate::peel`]; this module is its byte store. Every arriving packet
//! makes one variable known; its value is folded (XORed) into every
//! equation containing it. When an equation drops to a single unknown
//! variable, that variable's value is the equation's accumulator, and the
//! discovery cascades. Decoding can stop at any time and completes when
//! all `k` source packets are known; [`Decoder::try_complete`] adds the
//! GF(2) elimination of [`crate::gauss`] for a decoder that has stalled.

use std::sync::Arc;

use fec_gf256::kernels::xor_slice;

use crate::bitmat::RowOp;
use crate::gauss::Residual;
use crate::peel::{Hook, Peeler};
use crate::{LdgmError, SparseMatrix};

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
/// see the `memory_profile` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Symbol buffers currently held (variable values + live accumulators).
    pub current_symbols: usize,
    /// High-water mark of `current_symbols` over the decoder's lifetime.
    pub peak_symbols: usize,
    /// Bytes per symbol buffer.
    pub symbol_len: usize,
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
}

/// What the cascade's steps mean in payload bytes.
struct Store {
    k: usize,
    /// XOR of the variables folded so far, per equation (lazily allocated).
    eq_acc: Vec<Option<Vec<u8>>>,
    /// Retained values: sources permanently (they are the output), parity
    /// only transiently while waiting on the cascade stack — once a parity
    /// value has been folded into its equations it is freed (streaming
    /// decoding; this is what makes large-block LDGM memory-friendly).
    var_value: Vec<Option<Vec<u8>>>,
    /// The variable whose equations are being visited, and its value if it
    /// is a parity (taken out of `var_value`; a source is read in place).
    popped: usize,
    popped_parity: Option<Vec<u8>>,
    memory: MemoryStats,
}

impl Store {
    #[inline]
    fn track_alloc(&mut self) {
        self.memory.current_symbols += 1;
        self.memory.peak_symbols = self.memory.peak_symbols.max(self.memory.current_symbols);
    }
}

impl Hook for Store {
    fn pop(&mut self, v: usize) {
        self.popped = v;
        self.popped_parity = None;
        if v >= self.k {
            // After this pass through its equations a parity value is
            // never read again.
            self.popped_parity = self.var_value[v].take();
            self.memory.current_symbols -= 1;
        }
    }

    fn fold(&mut self, e: usize) {
        if self.eq_acc[e].is_none() {
            self.track_alloc();
        }
        let value = self
            .popped_parity
            .as_ref()
            .or(self.var_value[self.popped].as_ref())
            .expect("variable on stack is known");
        let acc = self.eq_acc[e].get_or_insert_with(|| vec![0u8; value.len()]);
        xor_slice(acc, value);
    }

    fn solve(&mut self, e: usize, u: usize) {
        // The accumulator buffer is moved, not freed: it becomes the
        // variable's value (net zero).
        self.var_value[u] = self.eq_acc[e].take();
    }

    fn spent(&mut self, e: usize) {
        if self.eq_acc[e].take().is_some() {
            self.memory.current_symbols -= 1;
        }
    }
}

impl Decoder {
    /// Creates a decoder for packets of `symbol_len` bytes.
    pub fn new(matrix: Arc<SparseMatrix>, symbol_len: usize) -> Decoder {
        Decoder {
            peel: Peeler::new(&matrix),
            store: Store {
                k: matrix.k(),
                eq_acc: vec![None; matrix.num_checks()],
                var_value: vec![None; matrix.n()],
                popped: 0,
                popped_parity: None,
                memory: MemoryStats {
                    symbol_len,
                    ..MemoryStats::default()
                },
            },
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
                self.learn(id, payload.to_vec());
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

    /// Stores the value of the unknown variable `var` and cascades.
    fn learn(&mut self, var: u32, value: Vec<u8>) {
        self.store.var_value[var as usize] = Some(value);
        self.store.track_alloc();
        self.peel.learn(&self.matrix, var, &mut self.store);
    }

    /// Runs Gaussian elimination over the residual system of a stalled
    /// decoder and feeds every determined variable back into the cascade.
    /// Returns `true` if the object is now fully decoded; a failed attempt
    /// leaves the decoder valid for further packets and retries.
    ///
    /// Cost: one dense elimination over (live equations × unknowns) plus one
    /// payload XOR per mirrored row operation. Near the decoding threshold
    /// the residual is small; far below it, this is wasted work — callers
    /// should gate on `received() >= k`.
    pub fn try_complete(&mut self) -> bool {
        if self.is_complete() {
            return true;
        }
        let mut residual = Residual::build(&self.matrix, &self.peel.known);

        // Right-hand sides: the equations' accumulators (XOR of their known
        // variables). `None` accumulator ⇒ nothing folded yet ⇒ zero RHS.
        let symbol_len = self.store.memory.symbol_len;
        let mut rhs: Vec<Vec<u8>> = residual
            .equations
            .iter()
            .map(|&e| {
                self.store.eq_acc[e]
                    .clone()
                    .unwrap_or_else(|| vec![0u8; symbol_len])
            })
            .collect();

        // Reduce, mirroring every row operation onto the RHS vector.
        let determined = residual.determine(|op| match op {
            RowOp::Xor { src, dst } => {
                let folded = std::mem::take(&mut rhs[src]);
                xor_slice(&mut rhs[dst], &folded);
                rhs[src] = folded;
            }
            RowOp::Swap { a, b } => rhs.swap(a, b),
        });

        // A determined pivot row reads `x_v = rhs[row]` directly (its row
        // has no other unknowns left). An earlier injection's cascade may
        // already have solved a later one.
        for (row, var) in determined {
            if !self.peel.known[var as usize] {
                self.learn(var, std::mem::take(&mut rhs[row]));
            }
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

    /// Returns the recovered source packets once complete.
    pub fn into_source(mut self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        self.store.var_value.truncate(self.matrix.k());
        self.store.var_value.into_iter().collect()
    }

    /// Peeks at a recovered source packet (None until it is known).
    pub fn source_packet(&self, idx: usize) -> Option<&[u8]> {
        assert!(idx < self.matrix.k(), "source index out of range");
        self.store.var_value[idx].as_deref()
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
        assert_eq!(d.into_source().unwrap(), src);
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
            assert_eq!(d.into_source().unwrap(), src, "{right}");
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
        assert_eq!(batched.into_source().unwrap(), src);
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
        assert_eq!(d.into_source().unwrap(), src);
    }

    #[test]
    fn into_source_is_none_when_incomplete() {
        let (m, src, _) = setup(10, 30, RightSide::Triangle, 13, 4);
        let mut d = Decoder::new(m.clone(), 4);
        d.push_batch(&[(0, &src[0])]).unwrap();
        assert!(d.into_source().is_none());
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
                    assert_eq!(d.into_source().unwrap(), src);
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
