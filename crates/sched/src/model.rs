//! The six transmission models of paper §4, plus the §4.2 repetition scheme.

use core::fmt;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use rand::Rng;

use crate::{block_interleaved, group_interleaved, single_block_interleaved, Layout, PacketRef};

/// A transmission schedule generator.
///
/// `schedule(layout, seed)` returns the complete transmission order. All
/// randomness derives from the seed, so a schedule can be regenerated
/// exactly (the sender and the simulator must agree).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TxModel {
    /// Tx_model_1: all source packets sequentially, then all parity packets
    /// sequentially. The paper's strawman — "definitively bad".
    SourceSeqParitySeq,
    /// Tx_model_2: source sequentially, then parity in random order.
    SourceSeqParityRandom,
    /// Tx_model_3: all parity sequentially first, then source in random
    /// order.
    ParitySeqSourceRandom,
    /// Tx_model_4: everything in one fully random order. The paper's
    /// "universal" recommendation when the channel is unknown.
    Random,
    /// Tx_model_5: interleaved — round-robin across blocks for blocked
    /// codes, proportional source/parity alternation for single-block codes.
    /// The mandatory scheme for RSE.
    Interleaved,
    /// Tx_model_6: a random `source_fraction` of the source packets mixed
    /// randomly with all parity packets (paper uses 20%). Requires a high
    /// enough expansion ratio to remain decodable.
    PartialSourceRandom {
        /// Fraction of source packets transmitted (paper: 0.2).
        source_fraction: f64,
    },
    /// The §4.2 baseline: no FEC at all; every source packet is sent
    /// `copies` times and the whole stream is shuffled.
    RepeatSource {
        /// Number of copies of each source packet (paper: 2).
        copies: u32,
    },
    /// **Extension (§7 "new transmission schemes")** — bounded-memory
    /// randomization: the sender walks the sequential Tx_model_1 stream
    /// through a `window`-packet shuffle buffer, each step emitting a
    /// uniformly-chosen buffered packet and refilling. `window = 1`
    /// degenerates to Tx_model_1; `window >= n` is exactly Tx_model_4.
    ///
    /// The point: Tx_model_4's robustness requires buffering the *whole*
    /// object. This model measures how much randomization memory is
    /// actually needed — and the `ablation_schedule_memory` bench's answer
    /// is sobering: a window only displaces parity by about its own
    /// length, so Tx_model_4 performance arrives only once `window` is a
    /// large fraction of `n`. Memory-constrained senders should prefer
    /// structured interleaving ([`TxModel::GroupInterleaved`]).
    WindowShuffle {
        /// Shuffle-buffer size in packets (≥ 1).
        window: usize,
    },
    /// **Extension (§7 "new transmission schemes")** — depth-limited block
    /// interleaving: round-robin across groups of `depth` blocks at a time
    /// (`depth` is the interleaver's buffer budget, one in-flight packet
    /// per block). `depth = 1` sends blocks back-to-back; `depth >=
    /// num_blocks` is exactly Tx_model_5. Single-block (LDGM) layouts have
    /// no blocks to trade off and fall back to the Tx_model_5 source/parity
    /// alternation regardless of `depth`.
    GroupInterleaved {
        /// Blocks interleaved together (≥ 1).
        depth: usize,
    },
}

impl TxModel {
    /// Tx_model_6 with the paper's 20% source fraction.
    pub fn tx6_paper() -> TxModel {
        TxModel::PartialSourceRandom {
            source_fraction: 0.2,
        }
    }

    /// The models evaluated in the paper's §4, in paper order (Tx1–Tx6).
    pub fn paper_models() -> [TxModel; 6] {
        [
            TxModel::SourceSeqParitySeq,
            TxModel::SourceSeqParityRandom,
            TxModel::ParitySeqSourceRandom,
            TxModel::Random,
            TxModel::Interleaved,
            TxModel::tx6_paper(),
        ]
    }

    /// The paper's name for this model (`tx_model_1` … `tx_model_6`).
    pub fn name(&self) -> &'static str {
        match self {
            TxModel::SourceSeqParitySeq => "tx_model_1",
            TxModel::SourceSeqParityRandom => "tx_model_2",
            TxModel::ParitySeqSourceRandom => "tx_model_3",
            TxModel::Random => "tx_model_4",
            TxModel::Interleaved => "tx_model_5",
            TxModel::PartialSourceRandom { .. } => "tx_model_6",
            TxModel::RepeatSource { .. } => "no_fec_repetition",
            TxModel::WindowShuffle { .. } => "window_shuffle",
            TxModel::GroupInterleaved { .. } => "group_interleaved",
        }
    }

    /// The length of [`TxModel::schedule`]'s order for `layout`, without
    /// building it: every seed gives the same length. A simulator can draw
    /// the channel's fates first and skip the schedule of a trial the
    /// channel has already failed.
    pub fn schedule_len(&self, layout: &Layout) -> u64 {
        match *self {
            TxModel::PartialSourceRandom { source_fraction } => {
                (layout.total_source() as f64 * source_fraction).round() as u64
                    + layout.total_parity()
            }
            TxModel::RepeatSource { copies } => u64::from(copies) * layout.total_source(),
            _ => layout.total_packets(),
        }
    }

    /// Generates the full transmission order for `layout`.
    ///
    /// Every packet appears exactly once, except under
    /// [`TxModel::PartialSourceRandom`] (a subset of source packets) and
    /// [`TxModel::RepeatSource`] (source packets repeated, no parity).
    pub fn schedule(&self, layout: &Layout, seed: u64) -> Vec<PacketRef> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match *self {
            TxModel::SourceSeqParitySeq => {
                let mut out = layout.source_sequential();
                out.extend(layout.parity_sequential());
                out
            }
            TxModel::SourceSeqParityRandom => {
                let mut out = layout.source_sequential();
                let mut parity = layout.parity_sequential();
                parity.shuffle(&mut rng);
                out.extend(parity);
                out
            }
            TxModel::ParitySeqSourceRandom => {
                let mut out = layout.parity_sequential();
                let mut source = layout.source_sequential();
                source.shuffle(&mut rng);
                out.extend(source);
                out
            }
            TxModel::Random => {
                let mut out = layout.all_packets();
                out.shuffle(&mut rng);
                out
            }
            TxModel::Interleaved => {
                if layout.num_blocks() == 1 {
                    single_block_interleaved(layout)
                } else {
                    block_interleaved(layout)
                }
            }
            TxModel::PartialSourceRandom { source_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&source_fraction),
                    "source fraction must be in [0, 1]"
                );
                let mut source = layout.source_sequential();
                source.shuffle(&mut rng);
                let keep = ((layout.total_source() as f64) * source_fraction).round() as usize;
                source.truncate(keep);
                let mut out = source;
                out.extend(layout.parity_sequential());
                out.shuffle(&mut rng);
                out
            }
            TxModel::RepeatSource { copies } => {
                assert!(copies > 0, "at least one copy of each packet");
                let source = layout.source_sequential();
                let mut out = Vec::with_capacity(source.len() * copies as usize);
                for _ in 0..copies {
                    out.extend(source.iter().copied());
                }
                out.shuffle(&mut rng);
                out
            }
            TxModel::WindowShuffle { window } => {
                assert!(window > 0, "shuffle window must be positive");
                let mut stream = layout.source_sequential();
                stream.extend(layout.parity_sequential());
                let mut out = Vec::with_capacity(stream.len());
                let mut buf: Vec<PacketRef> = Vec::with_capacity(window.min(stream.len()));
                for pkt in stream {
                    buf.push(pkt);
                    if buf.len() == window {
                        let i = rng.gen_range(0..buf.len());
                        out.push(buf.swap_remove(i));
                    }
                }
                // Stream exhausted: drain the buffer in random order.
                while !buf.is_empty() {
                    let i = rng.gen_range(0..buf.len());
                    out.push(buf.swap_remove(i));
                }
                out
            }
            TxModel::GroupInterleaved { depth } => {
                assert!(depth > 0, "interleaving depth must be positive");
                if layout.num_blocks() == 1 {
                    single_block_interleaved(layout)
                } else {
                    group_interleaved(layout, depth)
                }
            }
        }
    }
}

impl fmt::Display for TxModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn layouts() -> Vec<Layout> {
        vec![
            Layout::single_block(10, 25),
            Layout::from_blocks([(4, 10), (4, 10), (3, 7)]),
            Layout::from_blocks([(1, 2)]),
            // RSE's blocking of k = 250 at ratio 2.5 (n_b <= 255).
            Layout::from_blocks([(84, 210), (83, 207), (83, 207)]),
        ]
    }

    fn assert_permutation(layout: &Layout, order: &[PacketRef]) {
        let mut seen = HashSet::new();
        for &r in order {
            assert!(layout.contains(r), "unknown packet {r}");
            assert!(seen.insert(r), "duplicate packet {r}");
        }
        assert_eq!(seen.len() as u64, layout.total_packets());
    }

    #[test]
    fn full_models_emit_exact_permutations() {
        for layout in layouts() {
            for model in [
                TxModel::SourceSeqParitySeq,
                TxModel::SourceSeqParityRandom,
                TxModel::ParitySeqSourceRandom,
                TxModel::Random,
                TxModel::Interleaved,
            ] {
                let order = model.schedule(&layout, 42);
                assert_permutation(&layout, &order);
            }
        }
    }

    #[test]
    fn tx1_order_is_sequential() {
        let l = Layout::from_blocks([(2, 4), (2, 3)]);
        let order = TxModel::SourceSeqParitySeq.schedule(&l, 0);
        let got: Vec<(u32, u32)> = order.iter().map(|r| (r.block, r.esi)).collect();
        assert_eq!(
            got,
            vec![(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3), (1, 2)]
        );
    }

    #[test]
    fn tx2_prefix_is_sequential_sources() {
        let l = Layout::single_block(20, 50);
        let order = TxModel::SourceSeqParityRandom.schedule(&l, 7);
        for (i, r) in order.iter().take(20).enumerate() {
            assert_eq!(r.esi as usize, i);
        }
        // Parity tail contains every parity ESI exactly once.
        let tail: HashSet<u32> = order[20..].iter().map(|r| r.esi).collect();
        assert_eq!(tail.len(), 30);
        assert!(tail.iter().all(|&e| e >= 20));
        // And is actually shuffled (astronomically unlikely to be sorted).
        let tail_vec: Vec<u32> = order[20..].iter().map(|r| r.esi).collect();
        assert!(tail_vec.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn tx3_prefix_is_sequential_parity() {
        let l = Layout::single_block(20, 50);
        let order = TxModel::ParitySeqSourceRandom.schedule(&l, 7);
        for (i, r) in order.iter().take(30).enumerate() {
            assert_eq!(r.esi as usize, 20 + i);
        }
        let tail: HashSet<u32> = order[30..].iter().map(|r| r.esi).collect();
        assert_eq!(tail.len(), 20);
        assert!(tail.iter().all(|&e| e < 20));
    }

    #[test]
    fn tx4_is_shuffled() {
        let l = Layout::single_block(100, 250);
        let order = TxModel::Random.schedule(&l, 3);
        let esis: Vec<u32> = order.iter().map(|r| r.esi).collect();
        assert!(esis.windows(2).any(|w| w[0] > w[1]));
        // Source packets are spread out: some parity appears in the first k.
        assert!(order.iter().take(100).any(|r| !l.is_source(*r)));
    }

    #[test]
    fn tx6_sends_fraction_of_source_plus_all_parity() {
        let l = Layout::single_block(100, 250);
        let order = TxModel::tx6_paper().schedule(&l, 11);
        let sources = order.iter().filter(|r| l.is_source(**r)).count();
        let parity = order.iter().filter(|r| !l.is_source(**r)).count();
        assert_eq!(sources, 20); // 20% of 100
        assert_eq!(parity, 150); // all of it
                                 // No duplicates.
        let set: HashSet<PacketRef> = order.iter().copied().collect();
        assert_eq!(set.len(), order.len());
    }

    #[test]
    fn tx6_fraction_extremes() {
        let l = Layout::single_block(10, 25);
        let none = TxModel::PartialSourceRandom {
            source_fraction: 0.0,
        }
        .schedule(&l, 1);
        assert_eq!(none.len(), 15);
        assert!(none.iter().all(|r| !l.is_source(*r)));
        let all = TxModel::PartialSourceRandom {
            source_fraction: 1.0,
        }
        .schedule(&l, 1);
        assert_eq!(all.len(), 25);
    }

    #[test]
    fn repetition_sends_each_source_x_times() {
        let l = Layout::single_block(50, 125);
        let order = TxModel::RepeatSource { copies: 2 }.schedule(&l, 9);
        assert_eq!(order.len(), 100);
        assert!(order.iter().all(|r| l.is_source(*r)));
        let mut counts = [0u32; 50];
        for r in &order {
            counts[r.esi as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn window_shuffle_window_one_is_tx1() {
        for layout in layouts() {
            let tx1 = TxModel::SourceSeqParitySeq.schedule(&layout, 5);
            let w1 = TxModel::WindowShuffle { window: 1 }.schedule(&layout, 5);
            assert_eq!(tx1, w1);
        }
    }

    #[test]
    fn window_shuffle_huge_window_is_a_shuffle() {
        let l = Layout::single_block(100, 250);
        let order = TxModel::WindowShuffle { window: 10_000 }.schedule(&l, 3);
        assert_permutation(&l, &order);
        let esis: Vec<u32> = order.iter().map(|r| r.esi).collect();
        assert!(esis.windows(2).any(|w| w[0] > w[1]), "must not be sorted");
    }

    #[test]
    fn window_shuffle_displacement_bound() {
        // A packet emitted at output position p entered the buffer among the
        // first p + window stream elements, so its stream index is at most
        // p + window - 1: bounded-memory shuffles cannot pull packets
        // arbitrarily far forward.
        let l = Layout::single_block(60, 150);
        let window = 8usize;
        let stream = TxModel::SourceSeqParitySeq.schedule(&l, 0);
        let stream_pos = |r: &PacketRef| stream.iter().position(|s| s == r).unwrap();
        for seed in 0..5u64 {
            let order = TxModel::WindowShuffle { window }.schedule(&l, seed);
            assert_permutation(&l, &order);
            for (p, r) in order.iter().enumerate() {
                assert!(
                    stream_pos(r) < p + window,
                    "seed {seed}: output pos {p} pulled stream pos {} with window {window}",
                    stream_pos(r)
                );
            }
        }
    }

    #[test]
    fn group_interleaved_model_dispatches() {
        // Multi-block: matches the free function; full depth == Tx5.
        let l = Layout::from_blocks([(3, 7), (3, 7), (2, 5)]);
        let order = TxModel::GroupInterleaved { depth: 2 }.schedule(&l, 0);
        assert_eq!(order, crate::group_interleaved(&l, 2));
        let full = TxModel::GroupInterleaved { depth: 3 }.schedule(&l, 0);
        assert_eq!(full, TxModel::Interleaved.schedule(&l, 0));
        // Single block: falls back to the Tx5 source/parity alternation.
        let single = Layout::single_block(10, 25);
        let got = TxModel::GroupInterleaved { depth: 1 }.schedule(&single, 0);
        assert_eq!(got, TxModel::Interleaved.schedule(&single, 0));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn window_shuffle_rejects_zero() {
        let l = Layout::single_block(4, 8);
        let _ = TxModel::WindowShuffle { window: 0 }.schedule(&l, 0);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let l = Layout::from_blocks([(10, 25), (10, 24)]);
        for model in TxModel::paper_models() {
            let a = model.schedule(&l, 1234);
            let b = model.schedule(&l, 1234);
            assert_eq!(a, b, "{model}");
        }
        // And seed-sensitive for the randomized ones.
        for model in [
            TxModel::SourceSeqParityRandom,
            TxModel::ParitySeqSourceRandom,
            TxModel::Random,
            TxModel::tx6_paper(),
            TxModel::WindowShuffle { window: 4 },
        ] {
            let a = model.schedule(&l, 1);
            let b = model.schedule(&l, 2);
            assert_ne!(a, b, "{model}");
        }
        // WindowShuffle is deterministic per seed too.
        let w = TxModel::WindowShuffle { window: 7 };
        assert_eq!(w.schedule(&l, 9), w.schedule(&l, 9));
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = TxModel::paper_models().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "tx_model_1",
                "tx_model_2",
                "tx_model_3",
                "tx_model_4",
                "tx_model_5",
                "tx_model_6"
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn permutation_property_random_layouts(
            sizes in proptest::collection::vec((1usize..15, 1usize..15), 1..6),
            seed in any::<u64>(),
        ) {
            let l = Layout::from_blocks(sizes.iter().map(|&(k, extra)| (k, k + extra)));
            for model in [
                TxModel::SourceSeqParitySeq,
                TxModel::SourceSeqParityRandom,
                TxModel::ParitySeqSourceRandom,
                TxModel::Random,
                TxModel::Interleaved,
                TxModel::WindowShuffle { window: 5 },
                TxModel::GroupInterleaved { depth: 2 },
            ] {
                assert_permutation(&l, &model.schedule(&l, seed));
            }
        }

        #[test]
        fn schedule_len_is_the_schedule_length(
            sizes in proptest::collection::vec((1usize..15, 1usize..15), 1..6),
            pct in 0u32..=100,
            copies in 1u32..4,
            width in 1usize..40,
            seed in any::<u64>(),
        ) {
            let l = Layout::from_blocks(sizes.iter().map(|&(k, extra)| (k, k + extra)));
            for model in [
                TxModel::SourceSeqParitySeq,
                TxModel::SourceSeqParityRandom,
                TxModel::ParitySeqSourceRandom,
                TxModel::Random,
                TxModel::Interleaved,
                TxModel::tx6_paper(),
                TxModel::PartialSourceRandom { source_fraction: pct as f64 / 100.0 },
                TxModel::RepeatSource { copies },
                TxModel::WindowShuffle { window: width },
                TxModel::GroupInterleaved { depth: width },
            ] {
                let len = model.schedule(&l, seed).len() as u64;
                prop_assert_eq!(model.schedule_len(&l), len, "{}", model);
            }
        }

        #[test]
        fn tx6_source_count_is_rounded_fraction(
            k in 1usize..200,
            extra in 1usize..100,
            pct in 0u32..=100,
            seed in any::<u64>(),
        ) {
            let l = Layout::single_block(k, k + extra);
            let f = pct as f64 / 100.0;
            let order = TxModel::PartialSourceRandom { source_fraction: f }.schedule(&l, seed);
            let sources = order.iter().filter(|r| l.is_source(**r)).count();
            prop_assert_eq!(sources, ((k as f64) * f).round() as usize);
        }
    }
}
