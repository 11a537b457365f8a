//! Property tests for the fan-out feedback path.
//!
//! Two guarantees the million-receiver loop depends on:
//!
//! 1. **EXT_SEQ wraparound is invisible.** The 24-bit sequence space
//!    wraps every ~16M packets; a receiver whose stream crosses the wrap
//!    must sketch exactly the losses that occurred, and the aggregator
//!    must fold exactly those observations — no phantom 16M-packet gap,
//!    no lost accounting.
//! 2. **Impaired digest delivery cannot corrupt the aggregate.** The
//!    return channel drops, duplicates, and reorders digests per
//!    receiver. Whatever arrives, the aggregator's estimator state must
//!    equal a clean single-stream replay of exactly the worst receiver's
//!    accepted digest subset — population bookkeeping is O(1) per digest
//!    and only the worst receiver's sketch reaches the estimator.

use std::net::SocketAddr;

use fec_adapt::{AdaptiveController, ControllerConfig};
use fec_flute::feedback::{
    AggregateOutcome, AggregatorConfig, FeedbackAggregator, LossRun, ReceptionReport, ReportConfig,
    ReportEmitter, ReportEntry, SEQ_MODULUS,
};

use proptest::prelude::*;

fn addr(n: u16) -> SocketAddr {
    SocketAddr::from(([10, 1, (n >> 8) as u8, n as u8], 4000))
}

fn aggregator() -> FeedbackAggregator {
    FeedbackAggregator::new(7, AggregatorConfig::default(), ControllerConfig::default())
}

/// A digest from the designated worst receiver: cumulative loss grows
/// strictly with every report, so it stays the population's worst.
fn worst_digest(seq: u32, loss_burst: u32, calm_run: u32) -> ReceptionReport {
    ReceptionReport {
        tsi: 7,
        report_seq: seq,
        highest_seq: Some(seq * 128 % SEQ_MODULUS),
        session_complete: false,
        truncated: false,
        entries: vec![ReportEntry {
            toi: 1,
            received: seq * 100,
            lost: seq * loss_burst,
            complete: false,
        }],
        runs: vec![
            LossRun {
                lost: false,
                len: calm_run,
            },
            LossRun {
                lost: true,
                len: loss_burst,
            },
            LossRun {
                lost: false,
                len: calm_run,
            },
        ],
        nacks: vec![],
    }
}

/// A loss-free digest from a healthy receiver.
fn clean_digest(seq: u32, calm_run: u32) -> ReceptionReport {
    ReceptionReport {
        tsi: 7,
        report_seq: seq,
        highest_seq: Some(seq * 128 % SEQ_MODULUS),
        session_complete: false,
        truncated: false,
        entries: vec![ReportEntry {
            toi: 1,
            received: seq * 100,
            lost: 0,
            complete: false,
        }],
        runs: vec![LossRun {
            lost: false,
            len: calm_run,
        }],
        nacks: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A receiver whose packet stream crosses the 24-bit EXT_SEQ wrap
    /// sketches exactly the interior losses, and the aggregator folds
    /// exactly those observations.
    #[test]
    fn ext_seq_wraparound_cannot_corrupt_loss_accounting(
        start_offset in 0u32..600,
        mut drop_mask in proptest::collection::vec(any::<bool>(), 1200),
        report_every in 16usize..200,
    ) {
        // Start close enough to the top that the stream always wraps.
        let n = drop_mask.len();
        let start = SEQ_MODULUS - 600 - start_offset;
        // Anchor both ends: losses before the first or after the last
        // delivered packet are unknowable from sequence gaps, so pin the
        // ground truth to interior drops only.
        drop_mask[0] = false;
        drop_mask[n - 1] = false;

        let mut em = ReportEmitter::new(7, ReportConfig {
            report_every,
            max_runs: 4096,
            ..ReportConfig::default()
        });
        let mut agg = aggregator();
        let src = addr(1);
        let ingest = |agg: &mut FeedbackAggregator, d: ReceptionReport| {
            // Through the wire, like the live path.
            let out = agg
                .ingest_datagram(src, &d.to_bytes().unwrap())
                .expect("wire roundtrip");
            prop_assert!(
                matches!(out, AggregateOutcome::Folded { .. }),
                "a population of one is always its own worst: {out:?}"
            );
        };
        let mut dropped = 0u64;
        let mut delivered = 0u64;
        for (i, &lost) in drop_mask.iter().enumerate() {
            if lost {
                dropped += 1;
                continue;
            }
            delivered += 1;
            em.observe_on(0, 1, Some((start + i as u32) % SEQ_MODULUS));
            if let Some(d) = em.poll() {
                ingest(&mut agg, d);
            }
        }
        if let Some(d) = em.flush() {
            ingest(&mut agg, d);
        }

        let s = agg.stats();
        prop_assert_eq!(s.ingested, s.folded + s.accepted + s.deduped + s.foreign);
        prop_assert_eq!(s.deduped, 0, "an in-order emitter never dedups");
        // Every packet fate was folded exactly once: a wrap is invisible
        // (a phantom gap would add ~16M observations; a missed gap would
        // lose `dropped`).
        prop_assert_eq!(s.observations, delivered + dropped);
        // The tracked cumulative loss fraction matches ground truth.
        let expect = dropped as f64 / (delivered + dropped) as f64;
        let got = agg.summary().worst_loss;
        prop_assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    /// However the return channel mangles per-receiver digest streams
    /// (drop / duplicate / reorder), the aggregator's estimator equals a
    /// clean replay of exactly the worst receiver's accepted digests.
    #[test]
    fn impaired_population_equals_worst_receiver_replay(
        clean_receivers in 1usize..5,
        count in 4u32..14,
        loss_burst in 1u32..8,
        calm_run in 30u32..150,
        copies in proptest::collection::vec(0u8..3, 14 * 5),
        shuffle_keys in proptest::collection::vec(any::<u64>(), 96),
    ) {
        let worst_src = addr(1);
        let worst: Vec<ReceptionReport> = (1..=count)
            .map(|seq| worst_digest(seq, loss_burst, calm_run))
            .collect();

        // Pool every digest after the worst receiver's first (which
        // seeds the comparison), impair, and shuffle deterministically.
        let mut pool: Vec<(u64, u16, ReceptionReport)> = Vec::new();
        let mut key_idx = 0usize;
        let push = |pool: &mut Vec<(u64, u16, ReceptionReport)>,
                        key_idx: &mut usize,
                        rx: u16,
                        d: &ReceptionReport| {
            let copies_here = copies[*key_idx % copies.len()];
            for _ in 0..copies_here {
                let key = shuffle_keys[*key_idx % shuffle_keys.len()];
                *key_idx += 1;
                pool.push((key, rx, d.clone()));
            }
            *key_idx += 1;
        };
        for d in worst.iter().skip(1) {
            push(&mut pool, &mut key_idx, 1, d);
        }
        for rx in 0..clean_receivers as u16 {
            for seq in 1..=count {
                push(&mut pool, &mut key_idx, rx + 2, &clean_digest(seq, calm_run));
            }
        }
        pool.sort_by_key(|(k, _, _)| *k);

        let mut agg = aggregator();
        prop_assert!(matches!(
            agg.ingest(worst_src, &worst[0]),
            AggregateOutcome::Folded { .. }
        ));
        // Worst's accepted subset: the strictly increasing report_seq
        // subsequence of its delivered digests, starting from digest 1.
        let mut accepted: Vec<u32> = vec![1];
        for (_, rx, d) in &pool {
            let out = agg.ingest(addr(*rx), d);
            if *rx == 1 {
                if d.report_seq > *accepted.last().unwrap_or(&0) {
                    accepted.push(d.report_seq);
                    prop_assert!(
                        matches!(out, AggregateOutcome::Folded { .. }),
                        "a fresh digest from the incumbent worst folds"
                    );
                } else {
                    prop_assert_eq!(out, AggregateOutcome::Deduped);
                }
            } else {
                // Loss-free receivers never beat a lossy incumbent.
                prop_assert!(
                    !matches!(out, AggregateOutcome::Folded { .. }),
                    "clean receiver must not fold: {out:?}"
                );
            }
        }
        prop_assert_eq!(agg.worst_receiver(), Some(worst_src));
        prop_assert_eq!(agg.stats().folded, accepted.len() as u64);
        prop_assert_eq!(
            agg.receiver_count(),
            1 + pool
                .iter()
                .map(|(_, rx, _)| rx)
                .filter(|&&rx| rx != 1)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );

        // The ground-truth replay: exactly the accepted worst digests,
        // in order, through a fresh single-stream controller.
        let mut replay = AdaptiveController::new(ControllerConfig::default());
        for seq in &accepted {
            replay.observe_runs(worst[(*seq - 1) as usize].run_pairs());
        }
        prop_assert_eq!(
            agg.controller().estimator().counts(),
            replay.estimator().counts()
        );
        prop_assert_eq!(
            agg.controller().estimator().window_len(),
            replay.estimator().window_len()
        );

        let s = agg.stats();
        prop_assert_eq!(s.ingested, s.folded + s.accepted + s.deduped + s.foreign);
    }
}
