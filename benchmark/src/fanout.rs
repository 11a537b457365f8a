//! `fanout_ingest`: the feedback layer alone. A synthetic population
//! reports every round into one `FeedbackAggregator`; a quarter of the
//! digests arrive twice, as a duplicating return channel delivers them.

use std::net::SocketAddr;
use std::time::Instant;

use fec_broadcast::adapt::ControllerConfig;
use fec_broadcast::flute::feedback::{LossRun, ReportEntry, SEQ_MODULUS};
use fec_broadcast::flute::{
    AggregateOutcome, AggregatorConfig, FeedbackAggregator, NackEntry, ReceptionReport,
};

use crate::host::status_kib;
use crate::trace::{Tracer, ROUND};
use crate::work::{bump, splitmix, sub_seed, Counts, Scale, Segment, Workload, TAG_DIGEST};

const TSI: u32 = 0xFA70;
const RECEIVERS: u64 = 300_000;

/// Source symbols of the object the aggregator re-plans each round (the
/// `bulk_ldgm` object).
const REPLAN_K: usize = 2040;

/// Feedback rounds per requested second of run time.
const ROUNDS_PER_SECOND: f64 = 4.0;

/// Every `DUPLICATE_EVERY`-th digest of a round is delivered twice.
const DUPLICATE_EVERY: usize = 4;

pub struct Fanout {
    seed: u64,
    scale: Scale,
    receivers: u64,
    addrs: Vec<SocketAddr>,
    aggregator: FeedbackAggregator,
    setup_counts: Counts,
}

fn receiver_addr(i: u64) -> SocketAddr {
    SocketAddr::from((
        [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
        4000 + (i >> 24) as u16,
    ))
}

/// Receiver `i`'s digest number `report_seq`: cumulative counters that
/// grow with the sequence number, a three-run loss sketch, and a NACK
/// section from one receiver in 128. Nine in ten receivers see light
/// loss, nine in a hundred medium, one in a hundred heavy.
fn digest(i: u64, report_seq: u32, seed: u64) -> ReceptionReport {
    let mut state = sub_seed(seed, TAG_DIGEST, &[i, u64::from(report_seq)]);
    let r = splitmix(&mut state);
    let received = report_seq.saturating_mul(40_000) + (r % 20_000) as u32;
    let lost_per_report = match i % 100 {
        0..=89 => (r >> 16) % 50,
        90..=98 => 500 + (r >> 16) % 500,
        _ => 5_000 + (r >> 16) % 2_000,
    };
    let lost = report_seq.saturating_mul(lost_per_report as u32);
    let nacks = if i.is_multiple_of(128) {
        vec![NackEntry {
            toi: 1,
            block: (i % 4) as u32,
            esis: vec![64 + (r >> 32) as u32 % 32, 100 + (r >> 40) as u32 % 16],
        }]
    } else {
        Vec::new()
    };
    ReceptionReport {
        tsi: TSI,
        report_seq,
        highest_seq: Some((u64::from(received) + u64::from(lost)) as u32 % SEQ_MODULUS),
        session_complete: false,
        truncated: false,
        entries: vec![ReportEntry {
            toi: 1,
            received,
            lost,
            complete: false,
        }],
        runs: vec![
            LossRun {
                lost: false,
                len: received / 2,
            },
            LossRun {
                lost: true,
                len: lost.max(1),
            },
            LossRun {
                lost: false,
                len: received - received / 2,
            },
        ],
        nacks,
    }
}

impl Fanout {
    pub fn setup(seed: u64, scale: Scale) -> Result<Fanout, String> {
        let receivers = if scale.check {
            RECEIVERS / 50
        } else {
            RECEIVERS
        };
        let addrs: Vec<SocketAddr> = (0..receivers).map(receiver_addr).collect();
        let mut fanout = Fanout {
            seed,
            scale,
            receivers,
            addrs,
            aggregator: FeedbackAggregator::new(
                TSI,
                AggregatorConfig::default(),
                ControllerConfig::default(),
            ),
            setup_counts: Counts::new(),
        };
        // The warm-up round registers the whole population, so every
        // timed round updates receivers the aggregator already tracks.
        let mut warmup = Segment::default();
        let digests = fanout.build(1, 0, &mut Tracer::disabled(), &mut warmup);
        let before = status_kib("VmRSS:");
        fanout.ingest(&digests, 0, &mut Tracer::disabled(), &mut warmup);
        if let (Some(before), Some(after)) = (before, status_kib("VmRSS:")) {
            // Growth of the resident set while the population registered:
            // the round's digests were built before the first read and
            // are still held at the second.
            fanout.setup_counts.insert(
                "feedback.bytes_per_receiver",
                after.saturating_sub(before) as f64 * 1024.0 / receivers as f64,
            );
        }
        if warmup.failed > 0 || !warmup.violations.is_empty() {
            return Err(format!("warm-up round failed: {:?}", warmup.violations));
        }
        Ok(fanout)
    }

    /// Every receiver's digest number `report_seq`, serialised. Not timed:
    /// receivers build their own digests.
    fn build(
        &self,
        report_seq: u32,
        object: u32,
        tracer: &mut Tracer,
        seg: &mut Segment,
    ) -> Vec<Vec<u8>> {
        let span = tracer.begin_shadow("feedback.build", object);
        let built = Instant::now();
        let digests: Vec<Vec<u8>> = (0..self.receivers)
            .map(|i| {
                digest(i, report_seq, self.seed)
                    .to_bytes()
                    .unwrap_or_default()
            })
            .collect();
        bump(
            &mut seg.counts,
            "feedback.build_ns",
            built.elapsed().as_nanos() as f64,
        );
        tracer.end(span);
        let bytes: usize = digests.iter().map(Vec::len).sum();
        bump(&mut seg.counts, "session.bytes", bytes as f64);
        bump(&mut seg.counts, "feedback.built", digests.len() as f64);
        digests
    }

    /// One feedback round: every receiver's digest, every fourth one
    /// again, then the tick, the re-plan and the NACK drain a sender does
    /// once per round.
    fn ingest(&mut self, digests: &[Vec<u8>], object: u32, tracer: &mut Tracer, seg: &mut Segment) {
        let before = self.aggregator.stats();
        let started = Instant::now();
        let root = tracer.begin(ROUND, object);

        let span = tracer.begin("feedback.ingest", object);
        let mut rejected = 0u64;
        let mut fresh_not_landed = 0u64;
        for (addr, bytes) in self.addrs.iter().zip(digests) {
            match self.aggregator.ingest_datagram(*addr, bytes) {
                Ok(AggregateOutcome::Folded { .. } | AggregateOutcome::Accepted) => {}
                Ok(_) => fresh_not_landed += 1,
                Err(_) => rejected += 1,
            }
        }
        let mut duplicates = 0u64;
        for (addr, bytes) in self.addrs.iter().zip(digests).step_by(DUPLICATE_EVERY) {
            duplicates += 1;
            if self.aggregator.ingest_datagram(*addr, bytes).is_err() {
                rejected += 1;
            }
        }
        tracer.end(span);

        let span = tracer.begin("feedback.tick", object);
        let evicted = self.aggregator.advance_tick();
        std::hint::black_box(self.aggregator.replan(REPLAN_K));
        let nack_requests = self.aggregator.take_nack_requests();
        tracer.end(span);

        tracer.end(root);
        let elapsed = started.elapsed();

        let after = self.aggregator.stats();
        let fresh = self.receivers;
        seg.attempted += fresh + duplicates;
        seg.failed += rejected + fresh_not_landed;
        if after.deduped - before.deduped != duplicates {
            seg.violation(format!(
                "{} digests deduped in a round that re-sent {duplicates}",
                after.deduped - before.deduped
            ));
        }
        if fresh_not_landed > 0 {
            seg.violation(format!(
                "{fresh_not_landed} fresh digests were not accepted"
            ));
        }
        if evicted > 0 {
            seg.violation(format!("{evicted} receivers evicted while all report"));
        }
        if nack_requests.is_empty() {
            seg.violation("no NACK request although 1 in 128 receivers NACKed".into());
        }
        bump(
            &mut seg.counts,
            "feedback.nack_requests",
            nack_requests.len() as f64,
        );
        seg.wall_ns += elapsed.as_nanos() as u64;
        seg.round_ms.push(elapsed.as_secs_f64() * 1e3);
    }
}

impl Workload for Fanout {
    fn run(&mut self, divisor: u32, first_round: u64, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        let before = self.aggregator.stats();
        for round in first_round..first_round + self.rounds(divisor) {
            // The warm-up round was digest number 1.
            let digests = self.build(round as u32 + 2, round as u32, tracer, &mut seg);
            self.ingest(&digests, round as u32, tracer, &mut seg);
        }
        let after = self.aggregator.stats();
        if after.folded + after.accepted + after.deduped + after.foreign != after.ingested {
            seg.violation(format!("outcome conservation broken: {after:?}"));
        }
        if self.aggregator.receiver_count() as u64 != self.receivers {
            seg.violation(format!(
                "{} receivers tracked of {}",
                self.aggregator.receiver_count(),
                self.receivers
            ));
        }
        let landed = (after.folded + after.accepted) - (before.folded + before.accepted);
        seg.consumed = (after.ingested - before.ingested) as f64;
        seg.needed = landed as f64;
        bump(
            &mut seg.counts,
            "feedback.deduped",
            (after.deduped - before.deduped) as f64,
        );
        bump(
            &mut seg.counts,
            "feedback.folded",
            (after.folded - before.folded) as f64,
        );
        seg.counts.insert(
            "feedback.receivers",
            self.aggregator.receiver_count() as f64,
        );
        seg
    }

    fn rounds(&self, divisor: u32) -> u64 {
        self.scale.count(ROUNDS_PER_SECOND, divisor)
    }

    fn spans_per_round(&self) -> usize {
        4
    }

    fn setup_counts(&self) -> Counts {
        self.setup_counts.clone()
    }
}
