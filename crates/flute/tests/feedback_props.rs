//! Property tests for the feedback channel under impairment.
//!
//! The reception-report return channel is plain UDP, so digests can be
//! **dropped, duplicated, and reordered** arbitrarily. These properties
//! pin the two guarantees the live loop depends on:
//!
//! 1. the estimator state after any impaired delivery equals the state
//!    after the in-order delivery of exactly the digest subset the
//!    aggregator accepted (no double counting, no out-of-order corruption), and
//! 2. re-planning never stalls: as long as *any* digest stream keeps
//!    arriving, the controller keeps producing estimates and plans.
//!
//! Every digest here comes from one fixed source address: the single
//! receiver is a population of one, which is its own worst receiver, so
//! every accepted digest folds. (`fanout_props.rs` pins the same
//! guarantees with healthy receivers interleaved.) The digest wire format
//! itself is fuzzed for parse robustness too.

use std::net::SocketAddr;

use fec_adapt::{ControllerConfig, Reconsideration};
use fec_flute::feedback::{
    AggregateOutcome, AggregatorConfig, FeedbackAggregator, LossRun, NackEntry, ReceptionReport,
    ReportEntry,
};
use proptest::prelude::*;

fn src() -> SocketAddr {
    SocketAddr::from(([10, 0, 0, 1], 4000))
}

fn aggregator(config: ControllerConfig) -> FeedbackAggregator {
    FeedbackAggregator::new(7, AggregatorConfig::default(), config)
}

/// A plausible digest stream: `count` digests with ~1–20% loss sketches.
fn digest_stream(count: u32, loss_burst: u32, calm_run: u32) -> Vec<ReceptionReport> {
    (1..=count)
        .map(|seq| ReceptionReport {
            tsi: 7,
            report_seq: seq,
            highest_seq: Some(seq * 128 % (1 << 24)),
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
        })
        .collect()
}

/// Applies an impairment script to a digest stream: per original digest, a
/// delivery count (0 = dropped, >1 = duplicated) and a shuffle key.
fn impair(
    digests: &[ReceptionReport],
    copies: &[u8],
    shuffle_keys: &[u64],
) -> Vec<ReceptionReport> {
    let mut delivered: Vec<(u64, ReceptionReport)> = Vec::new();
    let mut key_idx = 0usize;
    for (d, &n) in digests.iter().zip(copies) {
        for _ in 0..n {
            let key = shuffle_keys[key_idx % shuffle_keys.len()];
            key_idx += 1;
            delivered.push((key, d.clone()));
        }
    }
    delivered.sort_by_key(|(k, _)| *k);
    delivered.into_iter().map(|(_, d)| d).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Impaired delivery leaves the estimator in the same state as the
    /// in-order delivery of the accepted subset, and never panics.
    #[test]
    fn impairment_cannot_corrupt_estimator_state(
        copies in proptest::collection::vec(0u8..4, 12),
        shuffle_keys in proptest::collection::vec(any::<u64>(), 48),
        loss_burst in 1u32..8,
        calm_run in 20u32..120,
    ) {
        let digests = digest_stream(12, loss_burst, calm_run);
        let delivered = impair(&digests, &copies, &shuffle_keys);

        let mut impaired = aggregator(ControllerConfig::default());
        let mut accepted_seqs = Vec::new();
        for d in &delivered {
            // Through the wire: serialization must never drop fidelity.
            let outcome = impaired.ingest_datagram(src(), &d.to_bytes().unwrap()).unwrap();
            if matches!(outcome, AggregateOutcome::Folded { .. }) {
                accepted_seqs.push(d.report_seq);
            }
        }

        // The accepted subset is strictly increasing by construction…
        prop_assert!(accepted_seqs.windows(2).all(|w| w[0] < w[1]));
        // …and a clean aggregator fed exactly that subset in order agrees
        // on every piece of estimator state.
        let mut clean = aggregator(ControllerConfig::default());
        for seq in &accepted_seqs {
            let d = &digests[(*seq - 1) as usize];
            prop_assert!(matches!(clean.ingest(src(), d), AggregateOutcome::Folded { .. }));
        }
        prop_assert_eq!(
            impaired.controller().estimator().counts(),
            clean.controller().estimator().counts()
        );
        prop_assert_eq!(
            impaired.controller().estimator().window_len(),
            clean.controller().estimator().window_len()
        );
        prop_assert_eq!(impaired.stats().observations, clean.stats().observations);
        // Duplicates were all rejected: the folded count never exceeds
        // the number of distinct digests, and every delivery is accounted.
        let stats = impaired.stats();
        prop_assert!(stats.folded <= digests.len() as u64);
        prop_assert_eq!(stats.folded + stats.deduped, delivered.len() as u64);
    }

    /// However many digests the channel eats, the sender keeps planning as
    /// soon as enough observations got through — and a freshly arriving
    /// digest after a blackout revives it immediately.
    #[test]
    fn replanning_never_stalls(
        copies in proptest::collection::vec(0u8..3, 20),
        shuffle_keys in proptest::collection::vec(any::<u64>(), 60),
    ) {
        let digests = digest_stream(20, 2, 120); // ~1.6% loss, 244 obs each
        let delivered = impair(&digests, &copies, &shuffle_keys);
        let config = ControllerConfig {
            min_observations: 200,
            ..ControllerConfig::default()
        };
        let mut fb = aggregator(config);
        for d in &delivered {
            fb.ingest(src(), d);
        }
        // Blackout recovery: one final in-order digest always lands.
        let mut last = digests.last().unwrap().clone();
        last.report_seq = 1000;
        prop_assert!(matches!(fb.ingest(src(), &last), AggregateOutcome::Folded { .. }));

        let replan = fb.replan(10_000);
        prop_assert_ne!(replan.reconsideration, Reconsideration::NoEstimate);
        prop_assert!(
            replan.plan.is_some(),
            "light channel with {} observations must plan",
            fb.stats().observations
        );
    }

    /// Parsing arbitrary bytes never panics, and every structurally valid
    /// digest roundtrips bit-exactly.
    #[test]
    fn wire_fuzz_and_roundtrip(
        junk in proptest::collection::vec(any::<u8>(), 0..200),
        tsi in any::<u32>(),
        report_seq in any::<u32>(),
        highest_some in any::<bool>(),
        highest_val in 0u32..(1 << 24),
        fin in any::<bool>(),
        truncated in any::<bool>(),
        entries in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()),
            0..6
        ),
        runs in proptest::collection::vec(
            (any::<bool>(), 1u32..(1 << 31)),
            0..10
        ),
        nacks in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), proptest::collection::vec(any::<u32>(), 1..8)),
            0..4
        ),
    ) {
        let _ = ReceptionReport::from_bytes(&junk); // must not panic
        let report = ReceptionReport {
            tsi,
            report_seq,
            highest_seq: highest_some.then_some(highest_val),
            session_complete: fin,
            truncated,
            entries: entries
                .into_iter()
                .map(|(toi, received, lost, complete)| ReportEntry {
                    toi,
                    received,
                    lost,
                    complete,
                })
                .collect(),
            runs: runs
                .into_iter()
                .map(|(lost, len)| LossRun { lost, len })
                .collect(),
            nacks: nacks
                .into_iter()
                .map(|(toi, block, esis)| NackEntry { toi, block, esis })
                .collect(),
        };
        let wire = report.to_bytes().unwrap();
        prop_assert_eq!(ReceptionReport::from_bytes(&wire).unwrap(), report);
    }
}
