//! Property tests for the fan-out feedback path.
//!
//! Three guarantees the million-receiver loop depends on:
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
//! 3. **The bookkeeping is the rules.** Counters, completion masks and
//!    the cached worst receiver give, after every step, what a linear
//!    scan over a plain list of receivers gives from the module doc's
//!    rules alone.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{Ipv6Addr, SocketAddr};

use fec_adapt::{AdaptiveController, ControllerConfig, PopulationSummary};
use fec_flute::feedback::{
    AggregateOutcome, AggregateStats, AggregatorConfig, FeedbackAggregator, LossRun, NackEntry,
    ReceptionReport, ReportConfig, ReportEmitter, ReportEntry, SEQ_MODULUS,
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

// ---------------------------------------------------------------------
// An independent oracle: the aggregator against a linear-scan model.
// ---------------------------------------------------------------------

/// The oracle's aggregator settings: a cap below the address pool, a
/// short idle clock and a NACK budget a couple of digests exhaust.
const ORACLE_TSI: u32 = 7;
const ORACLE_MAX_RECEIVERS: usize = 4;
const ORACLE_IDLE_TICKS: u64 = 2;
const ORACLE_NACK_BUDGET: u64 = 5;
/// The FDT, two mask-tracked objects and one past the 64-bit mask.
const ORACLE_TOIS: [u32; 4] = [0, 1, 2, 70];
/// Sources the oracle draws from: two ports on one IPv4 address, two
/// more IPv4 addresses and two ports on one IPv6 address. Distinct
/// sources must stay distinct receivers.
const ORACLE_SOURCES: usize = 6;

fn oracle_source(n: u16) -> SocketAddr {
    let v6 = |port: u16| SocketAddr::from((Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 1), port));
    match usize::from(n) % ORACLE_SOURCES {
        0 => SocketAddr::from(([10, 1, 0, 1], 4000)),
        1 => SocketAddr::from(([10, 1, 0, 1], 4001)),
        2 => SocketAddr::from(([10, 1, 0, 2], 4000)),
        3 => SocketAddr::from(([10, 1, 0, 3], 4000)),
        4 => v6(4000),
        _ => v6(4001),
    }
}

/// One receiver as the model tracks it.
struct ModelReceiver {
    addr: SocketAddr,
    last_seq: u32,
    last_active: u64,
    received: u64,
    lost: u64,
    objects: u32,
    objects_complete: u32,
    /// Every non-FDT TOI this receiver has ever reported complete.
    completed: BTreeSet<u32>,
    session_complete: bool,
    nack_used: u64,
    nack_window: u64,
}

/// The aggregator's rules from its module doc, written as a linear scan
/// over a `Vec`: no counters, masks or histograms to keep in step.
struct Model {
    /// The receiver cap.
    max_receivers: usize,
    receivers: Vec<ModelReceiver>,
    worst: Option<SocketAddr>,
    tick: u64,
    outcome_recorded: BTreeSet<u32>,
    nack_union: BTreeMap<(u32, u32), BTreeSet<u32>>,
    stats: AggregateStats,
    controller: AdaptiveController,
}

impl Model {
    fn new() -> Model {
        Model::with_cap(ORACLE_MAX_RECEIVERS)
    }

    fn with_cap(max_receivers: usize) -> Model {
        Model {
            max_receivers,
            receivers: Vec::new(),
            worst: None,
            tick: 0,
            outcome_recorded: BTreeSet::new(),
            nack_union: BTreeMap::new(),
            stats: AggregateStats::default(),
            controller: AdaptiveController::new(ControllerConfig::default()),
        }
    }

    fn find(&self, addr: SocketAddr) -> Option<&ModelReceiver> {
        self.receivers.iter().find(|r| r.addr == addr)
    }

    /// Every tracked receiver has reported `toi` complete.
    fn is_complete(&self, toi: u32) -> bool {
        !self.receivers.is_empty() && self.receivers.iter().all(|r| r.completed.contains(&toi))
    }

    fn completed(&self) -> Vec<u32> {
        let seen: BTreeSet<u32> = self
            .receivers
            .iter()
            .flat_map(|r| r.completed.iter().copied())
            .collect();
        seen.into_iter().filter(|&t| self.is_complete(t)).collect()
    }

    fn session_complete(&self) -> bool {
        !self.receivers.is_empty() && self.receivers.iter().all(|r| r.session_complete)
    }

    fn ingest(&mut self, src: SocketAddr, d: &ReceptionReport) -> AggregateOutcome {
        self.stats.ingested += 1;
        if d.tsi != ORACLE_TSI {
            self.stats.foreign += 1;
            return AggregateOutcome::ForeignSession;
        }
        let i = match self.receivers.iter().position(|r| r.addr == src) {
            Some(i) if d.report_seq <= self.receivers[i].last_seq => {
                self.stats.deduped += 1;
                return AggregateOutcome::Deduped;
            }
            Some(i) => i,
            None if self.receivers.len() >= self.max_receivers => {
                self.stats.accepted += 1;
                return AggregateOutcome::Accepted;
            }
            None => {
                self.receivers.push(ModelReceiver {
                    addr: src,
                    last_seq: 0,
                    last_active: self.tick,
                    received: 0,
                    lost: 0,
                    objects: 0,
                    objects_complete: 0,
                    completed: BTreeSet::new(),
                    session_complete: false,
                    nack_used: 0,
                    nack_window: self.tick,
                });
                self.receivers.len() - 1
            }
        };

        let tick = self.tick;
        let r = &mut self.receivers[i];
        if r.nack_window < tick {
            r.nack_window = tick;
            r.nack_used = 0;
        }
        r.last_seq = d.report_seq;
        r.last_active = tick;
        r.received = d.entries.iter().map(|e| u64::from(e.received)).sum();
        r.lost = d.entries.iter().map(|e| u64::from(e.lost)).sum();
        let objects: Vec<_> = d.entries.iter().filter(|e| e.toi != 0).collect();
        r.objects = objects.len() as u32;
        r.objects_complete = objects.iter().filter(|e| e.complete).count() as u32;
        r.session_complete |= d.session_complete;
        for e in objects.iter().filter(|e| e.complete) {
            if self.receivers[i].completed.insert(e.toi)
                && self.is_complete(e.toi)
                && self.outcome_recorded.insert(e.toi)
            {
                self.controller.record_outcome(true);
            }
        }

        // Worst by exact cross-multiplication, lower address on a tie;
        // the incumbent folds its own digests.
        let (lost, total) = (
            self.receivers[i].lost,
            self.receivers[i].lost + self.receivers[i].received,
        );
        let folds = match self.worst {
            None => true,
            Some(w) if w == src => true,
            Some(w) => {
                let w_state = self.find(w).expect("the worst receiver is tracked");
                let w_total = w_state.lost + w_state.received;
                let lhs = u128::from(lost) * u128::from(w_total.max(1));
                let rhs = u128::from(w_state.lost) * u128::from(total.max(1));
                lhs > rhs || (lhs == rhs && src <= w)
            }
        };

        // NACK union, skipping population-complete objects (the FDT is
        // never skipped), each symbol charged against the source budget.
        let mut remaining = ORACLE_NACK_BUDGET - self.receivers[i].nack_used;
        for n in &d.nacks {
            if (n.toi != 0 && self.is_complete(n.toi)) || n.esis.is_empty() {
                continue;
            }
            for &esi in &n.esis {
                if remaining == 0 {
                    self.stats.throttled += 1;
                    continue;
                }
                remaining -= 1;
                if self
                    .nack_union
                    .entry((n.toi, n.block))
                    .or_default()
                    .insert(esi)
                {
                    self.stats.nack_symbols += 1;
                }
            }
        }
        self.receivers[i].nack_used = ORACLE_NACK_BUDGET - remaining;

        if folds {
            self.worst = Some(src);
            let observations: u64 = d.runs.iter().map(|r| u64::from(r.len)).sum();
            self.controller
                .observe_runs(d.runs.iter().map(|r| (r.lost, u64::from(r.len))));
            self.stats.folded += 1;
            self.stats.observations += observations;
            AggregateOutcome::Folded { observations }
        } else {
            self.stats.accepted += 1;
            AggregateOutcome::Accepted
        }
    }

    fn advance_tick(&mut self) -> usize {
        self.tick += 1;
        let tick = self.tick;
        let before = self.receivers.len();
        self.receivers
            .retain(|r| r.last_active + ORACLE_IDLE_TICKS >= tick);
        if self.worst.is_some_and(|w| self.find(w).is_none()) {
            self.worst = None;
        }
        let evicted = before - self.receivers.len();
        self.stats.evicted += evicted as u64;
        evicted
    }

    fn take_nack_requests(&mut self) -> Vec<NackEntry> {
        std::mem::take(&mut self.nack_union)
            .into_iter()
            .filter(|((toi, _), _)| !self.is_complete(*toi))
            .map(|((toi, block), esis)| NackEntry {
                toi,
                block,
                esis: esis.into_iter().collect(),
            })
            .collect()
    }

    fn summary(&self) -> PopulationSummary {
        let worst_loss = self
            .worst
            .and_then(|w| self.find(w))
            .map(|r| match r.lost + r.received {
                0 => 0.0,
                total => r.lost as f64 / total as f64,
            })
            .unwrap_or(0.0);
        // Completion in tenths, the fully-complete receiver in the top
        // tenth; the quantile is the ceil(q·n)-th smallest.
        let mut tenths: Vec<u64> = self
            .receivers
            .iter()
            .map(|r| match r.objects {
                0 => 0,
                n => (u64::from(r.objects_complete) * 10 / u64::from(n)).min(10),
            })
            .collect();
        tenths.sort_unstable();
        let quantile = |q: f64| match tenths.len() {
            0 => 0.0,
            n => {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                tenths[rank - 1] as f64 / 10.0
            }
        };
        PopulationSummary {
            receivers: self.receivers.len() as u64,
            worst_loss,
            completion_quantiles: [quantile(0.10), quantile(0.50), quantile(0.90)],
        }
    }
}

/// One step of the oracle run.
#[derive(Debug, Clone)]
enum OracleOp {
    Ingest {
        rx: u16,
        digest: ReceptionReport,
        through_wire: bool,
    },
    Tick,
    /// A fresh digest from every source `reporters` selects, then a
    /// tick: a tick after the whole tracked population reported walks
    /// nothing, one after a part of it sweeps.
    Round {
        reporters: u8,
        bits: u64,
    },
    TakeNacks,
    Failure,
}

/// Deterministically expands `bits` into a small digest: entries on a
/// subset of [`ORACLE_TOIS`], up to three runs, up to two NACKs, one in
/// sixteen for a foreign session.
fn oracle_digest(report_seq: u32, bits: u64) -> ReceptionReport {
    let mut state = bits;
    let mut next = |modulus: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % modulus
    };
    let tsi = if next(16) == 0 {
        ORACLE_TSI + 1
    } else {
        ORACLE_TSI
    };
    let session_complete = next(4) == 0;
    let mut entries = Vec::new();
    for toi in ORACLE_TOIS {
        if next(3) != 0 {
            entries.push(ReportEntry {
                toi,
                received: next(40) as u32,
                // Mostly loss-free, so fractions tie and the address
                // tie-break decides.
                lost: next(12).saturating_sub(8) as u32,
                complete: next(2) == 0,
            });
        }
    }
    let runs = (0..next(4))
        .map(|_| LossRun {
            lost: next(2) == 0,
            len: 1 + next(30) as u32,
        })
        .collect();
    let nacks = (0..next(3))
        .map(|_| {
            let toi = ORACLE_TOIS[next(4) as usize];
            let mut esis: Vec<u32> = (0..next(5)).map(|_| next(8) as u32).collect();
            esis.sort_unstable();
            esis.dedup();
            NackEntry {
                toi,
                block: next(2) as u32,
                esis,
            }
        })
        .collect();
    ReceptionReport {
        tsi,
        report_seq,
        highest_seq: None,
        session_complete,
        truncated: false,
        entries,
        runs,
        nacks,
    }
}

fn oracle_ops() -> impl Strategy<Value = Vec<OracleOp>> {
    proptest::collection::vec((0u8..17, 0u16..6, 0u32..6, any::<u64>()), 1..120).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, rx, seq, bits)| match kind {
                0..=8 => OracleOp::Ingest {
                    rx,
                    digest: oracle_digest(seq, bits),
                    through_wire: bits & 1 == 0,
                },
                9..=11 => OracleOp::Tick,
                12 => OracleOp::TakeNacks,
                // Half the rounds hear every source, half a random part.
                13 | 14 => OracleOp::Round {
                    reporters: if bits & 1 == 0 {
                        u8::MAX
                    } else {
                        (bits >> 8) as u8
                    },
                    bits,
                },
                _ => OracleOp::Failure,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Per-source dedup, the receiver cap, the worst-receiver rule,
    /// completion, eviction and the NACK budget agree with the
    /// linear-scan model after every step of an interleaved run.
    #[test]
    fn aggregator_matches_linear_scan_model(ops in oracle_ops()) {
        let mut agg = FeedbackAggregator::new(
            ORACLE_TSI,
            AggregatorConfig {
                idle_ticks: ORACLE_IDLE_TICKS,
                max_receivers: ORACLE_MAX_RECEIVERS,
                nack_budget: ORACLE_NACK_BUDGET,
            },
            ControllerConfig::default(),
        );
        let mut model = Model::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                OracleOp::Ingest { rx, digest, through_wire } => {
                    let src = oracle_source(*rx);
                    let wire = digest.to_bytes().ok().filter(|_| *through_wire);
                    let got = match &wire {
                        Some(bytes) => agg.ingest_datagram(src, bytes).expect("well-formed digest"),
                        None => agg.ingest(src, digest),
                    };
                    let want = model.ingest(src, digest);
                    prop_assert_eq!(got, want, "step {}: {:?}", step, op);
                }
                OracleOp::Tick => {
                    prop_assert_eq!(agg.advance_tick(), model.advance_tick(), "step {}", step);
                }
                OracleOp::Round { reporters, bits } => {
                    for rx in (0..ORACLE_SOURCES as u16).filter(|rx| reporters & (1 << rx) != 0) {
                        let src = oracle_source(rx);
                        // In this session and one past the source's last
                        // accepted sequence, so a tracked source is heard
                        // this tick.
                        let seq = model.find(src).map_or(1, |r| r.last_seq + 1);
                        let mut digest = oracle_digest(seq, bits ^ u64::from(rx));
                        digest.tsi = ORACLE_TSI;
                        let got = agg.ingest(src, &digest);
                        prop_assert_eq!(got, model.ingest(src, &digest), "step {} source {}", step, rx);
                    }
                    prop_assert_eq!(agg.advance_tick(), model.advance_tick(), "step {}", step);
                }
                OracleOp::TakeNacks => {
                    prop_assert_eq!(
                        agg.take_nack_requests(),
                        model.take_nack_requests(),
                        "step {}",
                        step
                    );
                }
                OracleOp::Failure => {
                    agg.record_failure();
                    model.controller.record_outcome(false);
                }
            }
            prop_assert_eq!(agg.stats(), model.stats, "step {}", step);
            prop_assert_eq!(agg.worst_receiver(), model.worst, "step {}", step);
            prop_assert_eq!(agg.receiver_count(), model.receivers.len(), "step {}", step);
            prop_assert_eq!(agg.summary(), model.summary(), "step {}", step);
            for toi in ORACLE_TOIS {
                prop_assert_eq!(agg.is_complete(toi), model.is_complete(toi), "step {} toi {}", step, toi);
            }
            prop_assert_eq!(agg.completed().collect::<Vec<_>>(), model.completed(), "step {}", step);
            prop_assert_eq!(agg.session_complete(), model.session_complete(), "step {}", step);
            prop_assert_eq!(
                agg.controller().estimator().counts(),
                model.controller.estimator().counts(),
                "step {}",
                step
            );
            prop_assert_eq!(
                agg.controller().in_backoff(),
                model.controller.in_backoff(),
                "step {}",
                step
            );
        }
    }
}

// ---------------------------------------------------------------------
// Sweeps that evict part of the population, then re-admission.
// ---------------------------------------------------------------------

/// Sources of the sweep cases: even numbers IPv4 (pairs of them share an
/// address on different ports), odd numbers IPv6. Within a family a
/// higher number sorts lower, so reporting in number order admits
/// against key order: slab order and index order differ, and a sweep
/// moves the survivors after an evicted slot to new slots.
const SWEEP_SOURCES: u16 = 12;

fn sweep_source(n: u16) -> SocketAddr {
    let rank = SWEEP_SOURCES - n % SWEEP_SOURCES;
    if n.is_multiple_of(2) {
        SocketAddr::from(([10, 2, 0, (rank / 4) as u8], 4000 + rank % 4))
    } else {
        SocketAddr::from((Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, rank), 4000))
    }
}

/// The sweep cases' aggregator and model: the cap holds the whole pool,
/// so only silence evicts.
fn sweep_pair() -> (FeedbackAggregator, Model) {
    let config = AggregatorConfig {
        idle_ticks: ORACLE_IDLE_TICKS,
        max_receivers: SWEEP_SOURCES.into(),
        nack_budget: ORACLE_NACK_BUDGET,
    };
    let agg = FeedbackAggregator::new(ORACLE_TSI, config, ControllerConfig::default());
    (agg, Model::with_cap(SWEEP_SOURCES.into()))
}

/// A fresh digest from every source in `reporters`, in number order,
/// then a tick. Source `n` numbers its digests from `1000 · (n + 1)`
/// (`sent` counts them), so sequence ranges grow with `n`: a source
/// handed a higher source's state is deduped where the model accepts.
fn sweep_round(
    agg: &mut FeedbackAggregator,
    model: &mut Model,
    sent: &mut [u32],
    reporters: u16,
    bits: u64,
) {
    for n in (0..SWEEP_SOURCES).filter(|n| reporters & (1 << n) != 0) {
        let src = sweep_source(n);
        sent[usize::from(n)] += 1;
        let mut digest = oracle_digest(
            1000 * (u32::from(n) + 1) + sent[usize::from(n)],
            bits ^ u64::from(n),
        );
        digest.tsi = ORACLE_TSI;
        prop_assert_eq!(
            agg.ingest(src, &digest),
            model.ingest(src, &digest),
            "source {}",
            n
        );
    }
    prop_assert_eq!(agg.advance_tick(), model.advance_tick());
}

/// Everything the aggregator exposes equals the model's view.
fn agrees(agg: &FeedbackAggregator, model: &Model, step: usize) {
    prop_assert_eq!(agg.stats(), model.stats, "step {}", step);
    prop_assert_eq!(agg.worst_receiver(), model.worst, "step {}", step);
    prop_assert_eq!(agg.receiver_count(), model.receivers.len(), "step {}", step);
    prop_assert_eq!(agg.summary(), model.summary(), "step {}", step);
    for toi in ORACLE_TOIS {
        prop_assert_eq!(
            agg.is_complete(toi),
            model.is_complete(toi),
            "step {} toi {}",
            step,
            toi
        );
    }
    prop_assert_eq!(
        agg.completed().collect::<Vec<_>>(),
        model.completed(),
        "step {}",
        step
    );
    prop_assert_eq!(
        agg.session_complete(),
        model.session_complete(),
        "step {}",
        step
    );
    prop_assert_eq!(
        agg.controller().estimator().counts(),
        model.controller.estimator().counts(),
        "step {}",
        step
    );
    prop_assert_eq!(
        agg.controller().in_backoff(),
        model.controller.in_backoff(),
        "step {}",
        step
    );
}

/// Two sweeps, scripted: the first evicts half the population, then
/// evicted IPv4 and IPv6 sources come back beside four new ones,
/// admitted against key order; the second sweep evicts the first
/// survivors, and they, and sources gone since the first, come back.
#[test]
fn partial_sweeps_then_readmission_match_the_model() {
    let (mut agg, mut model) = sweep_pair();
    let mut sent = [0u32; SWEEP_SOURCES as usize];
    let first_eight = 0x0FF;
    let survivors = 0x00F;
    let back = 0xF30; // 4 and 5 again, 8..12 for the first time
    let script: [(u16, usize); 7] = [
        (first_eight, 0),
        (survivors, 0),
        (survivors, 4), // this tick evicts 4..8
        (survivors | back, 10),
        (back, 10),
        (back, 6), // this tick evicts 0..4
        (0xFFF, 12),
    ];
    for (step, &(reporters, tracked)) in script.iter().enumerate() {
        sweep_round(
            &mut agg,
            &mut model,
            &mut sent,
            reporters,
            step as u64 * 0x9E37,
        );
        if step == 5 {
            let _ = agg.take_nack_requests();
            let _ = model.take_nack_requests();
        }
        agrees(&agg, &model, step);
        if tracked > 0 {
            prop_assert_eq!(agg.receiver_count(), tracked, "step {}", step);
        }
    }
    prop_assert_eq!(agg.stats().evicted, 8);
    sweep_round(&mut agg, &mut model, &mut sent, 0xFFF, 7);
    agrees(&agg, &model, script.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random rounds over the sweep pool: a source silent for
    /// `idle_ticks` is swept while the others move slots, and comes
    /// back as a new receiver; the last four sources join only after
    /// the first eight steps. The aggregator agrees with the model after
    /// every step.
    #[test]
    fn sweeps_and_readmission_match_the_model(
        ops in proptest::collection::vec((0u8..8, any::<u16>(), any::<u64>()), 8..48),
    ) {
        let (mut agg, mut model) = sweep_pair();
        let mut sent = [0u32; SWEEP_SOURCES as usize];
        for (step, &(kind, reporters, bits)) in ops.iter().enumerate() {
            let pool: u16 = if step < 8 { 0x0FF } else { 0xFFF };
            match kind {
                0..=5 => sweep_round(&mut agg, &mut model, &mut sent, reporters & pool, bits),
                6 => prop_assert_eq!(agg.advance_tick(), model.advance_tick(), "step {}", step),
                _ => prop_assert_eq!(agg.take_nack_requests(), model.take_nack_requests(), "step {}", step),
            }
            agrees(&agg, &model, step);
        }
    }
}
