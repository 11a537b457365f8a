//! Schedule oracle: every `TxModel` against the closed forms of the paper's
//! §4, on a single-block (LDGM) layout and on RSE multi-block layouts.
//!
//! The expected counts and orders are written out here from the layout's
//! `(k_b, n_b)` pairs alone; nothing is taken from the crate's own layout
//! helpers or interleavers. What the crate's unit tests already pin (the
//! Tx_model_1 sequence, the extensions' reductions to Tx_model_1 and
//! Tx_model_5, and `schedule_len` against every model) is not repeated
//! here.

use std::collections::{HashMap, HashSet};

use fec_sched::{Layout, PacketRef, TxModel};

/// RSE blocking (paper §2.2, RFC 5052): `B = ceil(k / floor(255 / ratio))`
/// blocks whose sizes differ by at most one, larger first, each with
/// `n_b = floor(k_b · ratio)` so that `n_b <= 255`.
fn rse_layout(k: usize, ratio: f64) -> Layout {
    let k_max = (255.0 / ratio).floor() as usize;
    let blocks = k.div_ceil(k_max);
    let (small, large_count) = (k / blocks, k % blocks);
    Layout::from_blocks((0..blocks).map(|b| {
        let kb = small + usize::from(b < large_count);
        (kb, (kb as f64 * ratio).floor() as usize)
    }))
}

fn layouts() -> Vec<(&'static str, Layout)> {
    vec![
        ("ldgm k=100 n=250", Layout::single_block(100, 250)),
        ("ldgm k=17 n=26", Layout::single_block(17, 26)),
        ("rse k=1000 ratio 2.5", rse_layout(1000, 2.5)),
        ("rse k=1001 ratio 1.5", rse_layout(1001, 1.5)),
        ("rse k=250 ratio 2.5", rse_layout(250, 2.5)),
    ]
}

/// Every model the crate ships: the paper's six, the §4.2 repetition
/// baseline, and both §7 extensions at their extremes and in between.
fn models(layout: &Layout) -> Vec<TxModel> {
    let n = layout.total_packets() as usize;
    let mut models = TxModel::paper_models().to_vec();
    models.extend([
        TxModel::RepeatSource { copies: 1 },
        TxModel::RepeatSource { copies: 2 },
        TxModel::WindowShuffle { window: 1 },
        TxModel::WindowShuffle { window: 7 },
        TxModel::WindowShuffle { window: n },
        TxModel::GroupInterleaved { depth: 1 },
        TxModel::GroupInterleaved { depth: 3 },
        TxModel::GroupInterleaved {
            depth: layout.num_blocks(),
        },
    ]);
    models
}

fn blocks(layout: &Layout) -> Vec<(usize, usize)> {
    (0..layout.num_blocks()).map(|b| layout.block(b)).collect()
}

fn packet(block: usize, esi: usize) -> PacketRef {
    PacketRef {
        block: block as u32,
        esi: esi as u32,
    }
}

/// `(source, parity)` packets sent per block.
fn per_block(layout: &Layout, order: &[PacketRef]) -> Vec<(usize, usize)> {
    let mut counts = vec![(0, 0); layout.num_blocks()];
    for &r in order {
        let (kb, nb) = blocks(layout)[r.block as usize];
        assert!((r.esi as usize) < nb, "packet {r} is outside its block");
        if (r.esi as usize) < kb {
            counts[r.block as usize].0 += 1;
        } else {
            counts[r.block as usize].1 += 1;
        }
    }
    counts
}

fn all_packets(layout: &Layout) -> HashSet<PacketRef> {
    blocks(layout)
        .iter()
        .enumerate()
        .flat_map(|(b, &(_, nb))| (0..nb).map(move |esi| packet(b, esi)))
        .collect()
}

fn assert_permutation(layout: &Layout, order: &[PacketRef], ctx: &str) {
    let set: HashSet<PacketRef> = order.iter().copied().collect();
    assert_eq!(set.len(), order.len(), "{ctx}: a packet is sent twice");
    assert_eq!(set, all_packets(layout), "{ctx}: not every packet is sent");
}

/// Sources block by block in ESI order, then parity the same way.
fn tx1_order(layout: &Layout) -> Vec<PacketRef> {
    let bs = blocks(layout);
    let sources = bs
        .iter()
        .enumerate()
        .flat_map(|(b, &(kb, _))| (0..kb).map(move |esi| packet(b, esi)));
    let parity = bs
        .iter()
        .enumerate()
        .flat_map(|(b, &(kb, nb))| (kb..nb).map(move |esi| packet(b, esi)));
    sources.chain(parity).collect()
}

/// Round robin over `group`'s blocks: ESI 0 of each, then ESI 1 of each,
/// skipping a block once its `n_b` packets are out.
fn round_robin(layout: &Layout, group: std::ops::Range<usize>) -> Vec<PacketRef> {
    let bs = blocks(layout);
    let longest = bs[group.clone()].iter().map(|&(_, nb)| nb).max().unwrap();
    (0..longest)
        .flat_map(|esi| {
            let bs = &bs;
            group
                .clone()
                .filter(move |&b| esi < bs[b].1)
                .map(move |b| packet(b, esi))
        })
        .collect()
}

#[test]
fn packets_per_block_follow_the_closed_forms() {
    for (name, layout) in layouts() {
        let k = layout.total_source() as usize;
        let full: Vec<(usize, usize)> = blocks(&layout)
            .iter()
            .map(|&(kb, nb)| (kb, nb - kb))
            .collect();
        for tx in models(&layout) {
            let order = tx.schedule(&layout, 5);
            let ctx = format!("{name}: {tx:?}");
            let counts = per_block(&layout, &order);
            match tx {
                // §4.6: a random 20 % of the source (rounded), every parity
                // packet, nothing twice.
                TxModel::PartialSourceRandom { source_fraction } => {
                    let sources: usize = counts.iter().map(|c| c.0).sum();
                    assert_eq!(
                        sources,
                        (k as f64 * source_fraction).round() as usize,
                        "{ctx}"
                    );
                    for (b, (&(s, p), &(kb, parity))) in counts.iter().zip(&full).enumerate() {
                        assert!(s <= kb, "{ctx}: block {b}");
                        assert_eq!(p, parity, "{ctx}: block {b} parity");
                    }
                    let set: HashSet<PacketRef> = order.iter().copied().collect();
                    assert_eq!(set.len(), order.len(), "{ctx}: a packet is sent twice");
                }
                // §4.2: every source packet `copies` times, no parity.
                TxModel::RepeatSource { copies } => {
                    let expected: Vec<(usize, usize)> = full
                        .iter()
                        .map(|&(kb, _)| (copies as usize * kb, 0))
                        .collect();
                    assert_eq!(counts, expected, "{ctx}");
                    let mut seen: HashMap<PacketRef, u32> = HashMap::new();
                    for &r in &order {
                        *seen.entry(r).or_default() += 1;
                    }
                    assert_eq!(seen.len(), k, "{ctx}: not every source is sent");
                    assert!(seen.values().all(|&c| c == copies), "{ctx}");
                }
                // Tx_model_1 to 5 and both extensions send all n packets
                // (Tx_model_4 in a seeded random order): k_b source and
                // n_b − k_b parity per block, each once.
                _ => {
                    assert_eq!(counts, full, "{ctx}");
                    assert_permutation(&layout, &order, &ctx);
                }
            }
        }
    }
}

#[test]
fn tx_models_2_and_3_send_the_paper_sequences() {
    for (name, layout) in layouts() {
        let sequential = tx1_order(&layout);
        let k = layout.total_source() as usize;
        let (sources, parity) = sequential.split_at(k);
        let source_set: HashSet<PacketRef> = sources.iter().copied().collect();
        let parity_set: HashSet<PacketRef> = parity.iter().copied().collect();
        for seed in 0..3 {
            // Tx_model_2: source sequentially, then all parity in any order.
            let tx2 = TxModel::SourceSeqParityRandom.schedule(&layout, seed);
            assert_eq!(&tx2[..k], sources, "{name}: Tx_model_2 source prefix");
            let tail: HashSet<PacketRef> = tx2[k..].iter().copied().collect();
            assert_eq!(tail, parity_set, "{name}: Tx_model_2 parity tail");

            // Tx_model_3: parity sequentially, then all source in any order.
            let tx3 = TxModel::ParitySeqSourceRandom.schedule(&layout, seed);
            let m = parity.len();
            assert_eq!(&tx3[..m], parity, "{name}: Tx_model_3 parity prefix");
            let tail: HashSet<PacketRef> = tx3[m..].iter().copied().collect();
            assert_eq!(tail, source_set, "{name}: Tx_model_3 source tail");
        }
    }
}

#[test]
fn tx_model_5_interleaves_across_blocks() {
    for (name, layout) in layouts() {
        let order = TxModel::Interleaved.schedule(&layout, 0);
        let bs = blocks(&layout);
        if let [(k, n)] = bs[..] {
            // One block: source and parity each in ESI order, and after
            // source i exactly floor((i + 1)(n − k) / k) parity packets.
            let mut parity_sent = 0;
            let mut next_source = 0;
            for &r in &order {
                if (r.esi as usize) < k {
                    assert_eq!(r.esi as usize, next_source, "{name}: source order");
                    assert_eq!(
                        parity_sent,
                        next_source * (n - k) / k,
                        "{name}: parity before source {next_source}"
                    );
                    next_source += 1;
                } else {
                    assert_eq!(r.esi as usize, k + parity_sent, "{name}: parity order");
                    parity_sent += 1;
                }
            }
            assert_eq!((next_source, parity_sent), (k, n - k), "{name}");
        } else {
            // Blocks: ESI 0 of every block, then ESI 1 of every block, …
            assert_eq!(order, round_robin(&layout, 0..bs.len()), "{name}");
            // So two packets of one block are a whole round apart while
            // every block still has packets left.
            let shortest = bs.iter().map(|&(_, nb)| nb).min().unwrap();
            let round = bs.len();
            for (i, w) in order[..shortest * round].chunks(round).enumerate() {
                let in_round: HashSet<u32> = w.iter().map(|r| r.block).collect();
                assert_eq!(in_round.len(), round, "{name}: round {i}");
                assert!(w.iter().all(|r| r.esi as usize == i), "{name}: round {i}");
            }
        }
    }
}

#[test]
fn group_interleaving_sends_groups_of_depth_blocks_one_after_another() {
    for (name, layout) in layouts() {
        let b = layout.num_blocks();
        if b == 1 {
            continue;
        }
        // Depth 1: each block's packets back to back, in ESI order.
        let expected: Vec<PacketRef> = (0..b)
            .flat_map(|g| round_robin(&layout, g..g + 1))
            .collect();
        assert_eq!(
            TxModel::GroupInterleaved { depth: 1 }.schedule(&layout, 0),
            expected,
            "{name}: depth 1"
        );
        let groups: Vec<PacketRef> = (0..b)
            .step_by(3)
            .flat_map(|g| round_robin(&layout, g..(g + 3).min(b)))
            .collect();
        assert_eq!(
            TxModel::GroupInterleaved { depth: 3 }.schedule(&layout, 0),
            groups,
            "{name}: depth 3"
        );
    }
}
