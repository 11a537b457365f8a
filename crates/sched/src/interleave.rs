//! Interleavers (Tx_model_5, paper §4.7).
//!
//! For blocked codes, interleaving maximises the transmission distance
//! between two packets of the same block, so a loss burst hits many blocks
//! once instead of one block many times: packet 0 of every block, then
//! packet 1 of every block, and so on.
//!
//! For single-block (LDGM) codes there is nothing to round-robin; the paper
//! instead alternates source and parity packets proportionally. We use a
//! Bresenham-style accumulator to spread the `n − k` parity packets evenly
//! among the `k` source packets. (The paper's text says "one source packet
//! and n/k parity packets", which would require `k · n/k > n − k` parity
//! packets; we read it as the obvious intent, `(n − k)/k` parity per
//! source — the deviation is documented in docs/PAPER_MAP.md
//! §"Substitutions and conventions".)

use crate::{Layout, PacketRef};

/// Round-robin block interleaving: ESI 0 of every block, then ESI 1 of every
/// block, …, skipping blocks that are exhausted (blocks may have unequal
/// sizes).
pub fn block_interleaved(layout: &Layout) -> Vec<PacketRef> {
    let mut out = Vec::with_capacity(layout.total_packets() as usize);
    let max_n = (0..layout.num_blocks())
        .map(|b| layout.block(b).1)
        .max()
        .expect("layout has blocks");
    for esi in 0..max_n {
        for b in 0..layout.num_blocks() {
            if esi < layout.block(b).1 {
                out.push(PacketRef {
                    block: b as u32,
                    esi: esi as u32,
                });
            }
        }
    }
    out
}

/// Depth-limited block interleaving: blocks are processed in consecutive
/// groups of `depth`, with full round-robin *inside* each group and groups
/// transmitted one after the other.
///
/// This models a real interleaver with bounded memory — the sender must
/// buffer one packet per block it round-robins across, so `depth` *is* the
/// interleaver's buffer size in packets. The two extremes recover known
/// schemes:
///
/// * `depth = 1` — no interleaving: each block is sent sequentially
///   (block-local Tx_model_1);
/// * `depth >= num_blocks` — exactly [`block_interleaved`] (Tx_model_5,
///   maximum burst protection).
///
/// In between, two packets of the same block are `min(depth, group size)`
/// transmissions apart, so a loss burst of length `L` destroys at most
/// `ceil(L / depth)` packets per block. The `ablation_schedule_memory`
/// bench sweeps `depth` against burst length to locate the knee.
///
/// Not part of the paper (its Tx_model_5 is the `depth = ∞` case); this is
/// the §7 "new transmission schemes" extension.
///
/// # Panics
/// Panics if `depth == 0`.
pub fn group_interleaved(layout: &Layout, depth: usize) -> Vec<PacketRef> {
    assert!(depth > 0, "interleaving depth must be positive");
    let mut out = Vec::with_capacity(layout.total_packets() as usize);
    let num_blocks = layout.num_blocks();
    let mut group_start = 0usize;
    while group_start < num_blocks {
        let group_end = (group_start + depth).min(num_blocks);
        let max_n = (group_start..group_end)
            .map(|b| layout.block(b).1)
            .max()
            .expect("group is non-empty");
        for esi in 0..max_n {
            for b in group_start..group_end {
                if esi < layout.block(b).1 {
                    out.push(PacketRef {
                        block: b as u32,
                        esi: esi as u32,
                    });
                }
            }
        }
        group_start = group_end;
    }
    out
}

/// Source/parity interleaving for a single-block code: after source packet
/// `i`, all parity packets up to `floor((i + 1) · (n − k) / k)` have been
/// sent. Both source and parity advance sequentially.
///
/// # Panics
/// Panics if the layout has more than one block (use [`block_interleaved`]).
pub fn single_block_interleaved(layout: &Layout) -> Vec<PacketRef> {
    assert_eq!(
        layout.num_blocks(),
        1,
        "single_block_interleaved on a multi-block layout"
    );
    let (k, n) = layout.block(0);
    let parity = n - k;
    let mut out = Vec::with_capacity(n);
    let mut sent_parity = 0usize;
    for i in 0..k {
        out.push(PacketRef {
            block: 0,
            esi: i as u32,
        });
        let due = (i + 1) * parity / k;
        while sent_parity < due {
            out.push(PacketRef {
                block: 0,
                esi: (k + sent_parity) as u32,
            });
            sent_parity += 1;
        }
    }
    // Rounding can leave a tail (never more than parity % k packets).
    while sent_parity < parity {
        out.push(PacketRef {
            block: 0,
            esi: (k + sent_parity) as u32,
        });
        sent_parity += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn is_permutation(layout: &Layout, order: &[PacketRef]) -> bool {
        let mut seen = vec![false; layout.total_packets() as usize];
        for &r in order {
            let g = layout.global_index(r) as usize;
            if seen[g] {
                return false;
            }
            seen[g] = true;
        }
        order.len() == layout.total_packets() as usize
    }

    #[test]
    fn block_interleave_equal_blocks() {
        let l = Layout::from_blocks([(2, 4), (2, 4)]);
        let got: Vec<(u32, u32)> = block_interleaved(&l)
            .iter()
            .map(|r| (r.block, r.esi))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0),
                (1, 0),
                (0, 1),
                (1, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (1, 3)
            ]
        );
    }

    #[test]
    fn block_interleave_unequal_blocks_skips_exhausted() {
        let l = Layout::from_blocks([(2, 5), (1, 2)]);
        let got: Vec<(u32, u32)> = block_interleaved(&l)
            .iter()
            .map(|r| (r.block, r.esi))
            .collect();
        assert_eq!(
            got,
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3), (0, 4)]
        );
    }

    #[test]
    fn block_interleave_distance_property() {
        // With B equal blocks, two packets of the same block are exactly B
        // transmissions apart — the "maximum distance" the paper describes.
        let b = 7;
        let l = Layout::from_blocks(vec![(3, 9); b]);
        let order = block_interleaved(&l);
        let mut last_seen: Vec<Option<usize>> = vec![None; b];
        for (pos, r) in order.iter().enumerate() {
            if let Some(prev) = last_seen[r.block as usize] {
                assert_eq!(pos - prev, b, "distance within block {}", r.block);
            }
            last_seen[r.block as usize] = Some(pos);
        }
    }

    #[test]
    fn single_block_pattern_ratio_2() {
        // k=4, n=8: one parity after each source.
        let l = Layout::single_block(4, 8);
        let got: Vec<u32> = single_block_interleaved(&l).iter().map(|r| r.esi).collect();
        assert_eq!(got, vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    fn single_block_pattern_ratio_2_5() {
        // k=4, n=10 (ratio 2.5): 6 parity spread over 4 sources: after
        // source i, floor((i+1)*6/4) parity are out: 1, 3, 4, 6.
        let l = Layout::single_block(4, 10);
        let got: Vec<u32> = single_block_interleaved(&l).iter().map(|r| r.esi).collect();
        assert_eq!(got, vec![0, 4, 1, 5, 6, 2, 7, 3, 8, 9]);
    }

    #[test]
    fn single_block_ratio_1_sends_sources_only_pattern() {
        // n = k: degenerate, no parity at all.
        let l = Layout::single_block(3, 3);
        let got: Vec<u32> = single_block_interleaved(&l).iter().map(|r| r.esi).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "multi-block layout")]
    fn single_block_interleave_rejects_multi_block() {
        let l = Layout::from_blocks([(2, 4), (2, 4)]);
        let _ = single_block_interleaved(&l);
    }

    #[test]
    fn group_interleave_full_depth_equals_block_interleave() {
        let l = Layout::from_blocks([(2, 5), (1, 2), (3, 6)]);
        assert_eq!(group_interleaved(&l, 3), block_interleaved(&l));
        assert_eq!(group_interleaved(&l, 100), block_interleaved(&l));
    }

    #[test]
    fn group_interleave_depth_one_is_sequential_blocks() {
        let l = Layout::from_blocks([(2, 4), (2, 3)]);
        let got: Vec<(u32, u32)> = group_interleaved(&l, 1)
            .iter()
            .map(|r| (r.block, r.esi))
            .collect();
        assert_eq!(
            got,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn group_interleave_intermediate_depth() {
        // 4 blocks, depth 2: blocks {0,1} fully interleaved, then {2,3}.
        let l = Layout::from_blocks(vec![(1, 2); 4]);
        let got: Vec<(u32, u32)> = group_interleaved(&l, 2)
            .iter()
            .map(|r| (r.block, r.esi))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 0),
                (1, 0),
                (0, 1),
                (1, 1),
                (2, 0),
                (3, 0),
                (2, 1),
                (3, 1)
            ]
        );
    }

    #[test]
    fn group_interleave_distance_is_group_size() {
        // 6 equal blocks, depth 3: same-block packets are exactly 3 apart.
        let l = Layout::from_blocks(vec![(2, 6); 6]);
        let order = group_interleaved(&l, 3);
        let mut last_seen: Vec<Option<usize>> = vec![None; 6];
        for (pos, r) in order.iter().enumerate() {
            if let Some(prev) = last_seen[r.block as usize] {
                assert_eq!(pos - prev, 3, "distance within block {}", r.block);
            }
            last_seen[r.block as usize] = Some(pos);
        }
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn group_interleave_rejects_zero_depth() {
        let l = Layout::from_blocks([(2, 4), (2, 4)]);
        let _ = group_interleaved(&l, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn block_interleave_is_permutation(
            sizes in proptest::collection::vec((1usize..20, 0usize..20), 1..10)
        ) {
            let l = Layout::from_blocks(sizes.iter().map(|&(k, extra)| (k, k + extra)));
            let order = block_interleaved(&l);
            prop_assert!(is_permutation(&l, &order));
        }

        #[test]
        fn group_interleave_is_permutation(
            sizes in proptest::collection::vec((1usize..20, 0usize..20), 1..10),
            depth in 1usize..12,
        ) {
            let l = Layout::from_blocks(sizes.iter().map(|&(k, extra)| (k, k + extra)));
            let order = group_interleaved(&l, depth);
            prop_assert!(is_permutation(&l, &order));
            // Blocks from different groups never interleave: block indices,
            // divided by depth, are non-decreasing along the order.
            let groups: Vec<usize> = order.iter().map(|r| r.block as usize / depth).collect();
            prop_assert!(groups.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn single_block_interleave_is_permutation(k in 1usize..200, extra in 0usize..300) {
            let l = Layout::single_block(k, k + extra);
            let order = single_block_interleaved(&l);
            prop_assert!(is_permutation(&l, &order));
            // Sources appear in order; parity appears in order.
            let esis: Vec<usize> = order.iter().map(|r| r.esi as usize).collect();
            let srcs: Vec<usize> = esis.iter().copied().filter(|&e| e < k).collect();
            let pars: Vec<usize> = esis.iter().copied().filter(|&e| e >= k).collect();
            prop_assert!(srcs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(pars.windows(2).all(|w| w[0] < w[1]));
        }

        /// The Bresenham spread is even: after the i-th source packet,
        /// exactly floor((i+1)(n-k)/k) parity packets are out.
        #[test]
        fn single_block_interleave_is_even(k in 1usize..100, extra in 0usize..200) {
            let l = Layout::single_block(k, k + extra);
            let order = single_block_interleaved(&l);
            let mut sources = 0usize;
            let mut parity = 0usize;
            for r in &order {
                if (r.esi as usize) < k {
                    // About to emit the next source: the run after source i
                    // (1-based count `sources`) must have emitted exactly
                    // floor(sources * extra / k) parity packets.
                    if sources > 0 {
                        prop_assert_eq!(parity, sources * extra / k);
                    }
                    sources += 1;
                } else {
                    parity += 1;
                }
            }
            prop_assert_eq!(sources, k);
            prop_assert_eq!(parity, extra);
        }
    }
}
