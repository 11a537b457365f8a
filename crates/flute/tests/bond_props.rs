//! Property tests for the bonded transport invariants.
//!
//! Two guarantees the bonding suite leans on:
//!
//! 1. **Path assignment is semantically invisible.** FEC makes symbols
//!    interchangeable, so *any* symbol-to-path assignment, under *any*
//!    cross-path reordering of delivery, must decode every object
//!    byte-identically — path choice is purely a rate/latency decision.
//! 2. **Per-path EXT_SEQ gap accounting never mixes paths.** Each path
//!    stamps its own sequence space; whatever the cross-path
//!    interleaving, the receiver's loss sketch must total exactly the
//!    interior per-path drops, with no phantom cross-path gaps.

use fec_core::ExpansionRatio;
use fec_flute::feedback::{ReportConfig, ReportEmitter};
use fec_flute::{FluteReceiver, FluteSender, SenderConfig};

use proptest::prelude::*;

const TSI: u32 = 44;
const SYMBOL: usize = 32;
const OBJ_LEN: usize = 2_048;

fn object_bytes(toi: u32) -> Vec<u8> {
    (0..OBJ_LEN)
        .map(|i| ((i as u32).wrapping_mul(29).wrapping_add(toi * 13) % 251) as u8)
        .collect()
}

fn build_sender() -> FluteSender {
    let mut config = SenderConfig::new(TSI);
    config.fdt_interval = 40;
    let mut sender = FluteSender::new(config);
    for toi in 1..=2u32 {
        sender
            .add_object(
                toi,
                format!("file:///obj-{toi}.bin"),
                &object_bytes(toi),
                fec_codec::registry::resolve("ldgm-triangle").unwrap(),
                ExpansionRatio::R2_5,
                SYMBOL,
                0xFACE + toi as u64,
                fec_sched::TxModel::Random,
            )
            .unwrap();
    }
    sender
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: any assignment of datagrams to paths, delivered in
    /// any cross-path interleaving, decodes byte-identically.
    #[test]
    fn any_path_assignment_and_reordering_decodes_byte_identically(
        assignment_seed in 0u64..1_000_000,
        paths in 2usize..5,
        chunk in 1usize..7,
    ) {
        let sender = build_sender();
        let mut stream = sender.stream(0xA55E);
        // Deterministic pseudo-random path assignment from the seed.
        let mut state = assignment_seed.wrapping_mul(2).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut per_path: Vec<Vec<Vec<u8>>> = vec![Vec::new(); paths];
        while let Some((path, dg)) = stream
            .next_datagram_routed(|_| next() % paths)
            .unwrap()
        {
            per_path[path].push(dg);
        }
        // Cross-path reordering: round-robin drain in `chunk`-sized
        // bursts, so paths interleave with different granularities.
        let mut receiver = FluteReceiver::new(TSI);
        let mut cursors = vec![0usize; paths];
        loop {
            let mut moved = false;
            for path in 0..paths {
                let start = cursors[path];
                let end = (start + chunk).min(per_path[path].len());
                if start < end {
                    moved = true;
                    receiver.push_datagrams_on(path, &per_path[path][start..end]).unwrap();
                    cursors[path] = end;
                }
            }
            if !moved {
                break;
            }
        }
        prop_assert!(receiver.all_complete(), "lossless union must decode");
        for toi in 1..=2u32 {
            prop_assert_eq!(
                receiver.object(toi).expect("decoded"),
                &object_bytes(toi)[..],
                "object {} differs under assignment", toi
            );
        }
    }

    /// Property 2: the per-path EXT_SEQ tracks account exactly the
    /// interior per-path drops, independent of interleaving.
    #[test]
    fn per_path_gap_accounting_never_mixes_paths(
        drops in proptest::collection::vec(any::<bool>(), 600),
        paths in 2usize..5,
        interleave_seed in 0u64..1_000_000,
    ) {
        // Build per-path sequence streams: packet j of path p carries
        // seq = its position in p's own space. Interior drops only —
        // first/last of each path anchored delivered.
        let mut em = ReportEmitter::new(TSI, ReportConfig {
            report_every: usize::MAX,
            max_runs: 4_096,
            ..ReportConfig::default()
        });
        let per_path = 600 / paths;
        let mut expected_lost = 0u64;
        // (path, seq, delivered) events, then interleaved pseudo-randomly.
        let mut events: Vec<(usize, u32, bool)> = Vec::new();
        for p in 0..paths {
            for j in 0..per_path {
                let idx = p * per_path + j;
                let anchored = j == 0 || j == per_path - 1;
                let delivered = anchored || !drops[idx];
                if !delivered {
                    expected_lost += 1;
                }
                events.push((p, j as u32, delivered));
            }
        }
        // Interleave across paths while preserving each path's order:
        // repeatedly pick a path with events left.
        let mut state = interleave_seed.wrapping_mul(2).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut queues: Vec<std::collections::VecDeque<(u32, bool)>> =
            vec![std::collections::VecDeque::new(); paths];
        for (p, seq, delivered) in events {
            queues[p].push_back((seq, delivered));
        }
        let mut remaining: Vec<usize> = (0..paths).collect();
        while !remaining.is_empty() {
            let pick = remaining[next() % remaining.len()];
            let (seq, delivered) = queues[pick].pop_front().unwrap();
            if delivered {
                em.observe_on(pick, 1, Some(seq));
            }
            if queues[pick].is_empty() {
                remaining.retain(|&p| p != pick);
            }
        }
        let digest = em.flush().expect("observations were made");
        let lost: u64 = digest
            .runs
            .iter()
            .filter(|r| r.lost)
            .map(|r| r.len as u64)
            .sum();
        prop_assert_eq!(
            lost, expected_lost,
            "sketch lost {} != interior drops {} (cross-path mixing?)",
            lost, expected_lost
        );
    }
}
