//! fec-audit: deny(panic)
//!
//! One seeded in-process world for the closed loop: the shipped
//! [`send_session`] broadcasts a [`Workload`] to one receiver over one
//! link whose loss process is the workload's [`DriftingChannel`], and the
//! receiver's digests come straight back — no sockets, no threads.
//! `fec-broadcast adapt` runs it twice over:
//!
//! * the **adaptive** session: the receiver reports, so the engine
//!   re-plans the object in flight and deploys the controller's tuple on
//!   every object that comes due;
//! * one **static** session per [`static_candidates`] tuple: nobody
//!   reports, so every object goes out at its full schedule.
//!
//! Every session walks the same channel law from the same seed. The
//! receiver decodes through [`push_salvaging`], one datagram at a time,
//! so an object's packet count at decode is exact. An object that never
//! decodes is charged at its tuple's expansion ratio: the cost floor of a
//! transmission that delivered nothing useful.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;

use fec_adapt::Decision;
use fec_channel::{DriftingChannel, GilbertParams, LossModel, Regime};
use fec_codec::builtin;
use fec_core::ExpansionRatio;
use fec_flute::feedback::ReportConfig;
use fec_flute::{FluteReceiver, FluteSender, LctHeader, ReceiverEvent, SenderConfig, FDT_TOI};
use fec_sched::TxModel;
use fec_sim::mix_seed;
use fec_wire::{BufferPool, PoolBuf};
use serde::Serialize;

use crate::live::{push_salvaging, send_session, DigestSource, PathSink, SendConfig};

/// Bytes per symbol: the world counts packets, not bytes.
const SYMBOL: usize = 16;

/// `objects` objects of `k` source symbols each, broadcast over a channel
/// that cycles through regimes; every seed in the world derives from
/// `seed`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Source symbols per object.
    pub k: usize,
    /// Objects in the session, TOIs `1..=objects`.
    pub objects: u32,
    /// Master seed.
    pub seed: u64,
    regimes: Vec<Regime>,
}

impl Workload {
    /// Calm (1.2 % loss) → congested and bursty (37.5 %) → moderate
    /// (10.7 %), cycling, each regime held for `max(20 k, 8000)` packets.
    /// That outlives the estimation lag several times over: drift faster
    /// than about one estimation window per regime is noise no online
    /// controller can follow.
    pub fn drifting(k: usize, objects: u32, seed: u64) -> Workload {
        let span = (k as u64 * 20).max(8_000);
        let regimes = [(0.01, 0.8), (0.15, 0.25), (0.06, 0.5)].into_iter();
        let regimes = regimes.filter_map(|(p, q)| GilbertParams::new(p, q).ok());
        let regimes = regimes.map(|params| Regime::new(params, span)).collect();
        Workload {
            k,
            objects,
            seed,
            regimes,
        }
    }

    /// The channel's regimes, in the order it cycles through them.
    pub fn regimes(&self) -> &[Regime] {
        &self.regimes
    }

    /// Object `toi`'s bytes.
    pub fn object(&self, toi: u32) -> Vec<u8> {
        let salt = mix_seed(self.seed, &[u64::from(toi)]);
        let byte = |i: usize| ((i as u64).wrapping_mul(31).wrapping_add(salt) % 251) as u8;
        (0..self.k * SYMBOL).map(byte).collect()
    }

    /// Broadcasts every object, added under `decision`, over a fresh
    /// instance of the channel. With `feedback` the receiver reports and
    /// the engine adapts under that configuration; without, nobody
    /// reports. Returns the receiver too, holding what it decoded.
    pub fn run(
        &self,
        decision: &Decision,
        feedback: Option<&SendConfig>,
    ) -> Result<(Report, FluteReceiver), String> {
        let mut sender = FluteSender::new(SenderConfig::new(1));
        for toi in 1..=self.objects {
            let (code, ratio, tx) = (decision.code.clone(), decision.ratio, decision.tx);
            let (name, object) = (format!("file:///obj-{toi}.bin"), self.object(toi));
            let seed = mix_seed(self.seed, &[0x5EED, u64::from(toi)]);
            let added = sender.add_object(toi, name, &object, code, ratio, SYMBOL, seed, tx);
            added.map_err(|e| e.to_string())?;
        }
        let mut receiver = FluteReceiver::new(1);
        if feedback.is_some() {
            receiver.enable_reports(ReportConfig::default());
        }
        let world = Rc::new(RefCell::new(World {
            channel: DriftingChannel::cycling(self.regimes.clone(), mix_seed(self.seed, &[0xC4A7])),
            receiver,
            sent: BTreeMap::new(),
            needed: BTreeMap::new(),
            dropped: 0,
            left: false,
        }));
        let mut reports = Shared(world.clone());
        let digests = feedback.map(|_| &mut reports as &mut dyn DigestSource);
        let config = feedback.copied().unwrap_or_default();
        let mut link = [Shared(world.clone())];
        let outcome = send_session(&sender, self.seed, &mut link, digests, &config, None)?;

        let mut world = world.borrow_mut();
        let mut objects: Vec<ObjectOutcome> = Vec::new();
        for d in outcome.deployments {
            let (true_loss, n_sent) = world.sent.get(&d.toi).copied().unwrap_or_default();
            objects.push(ObjectOutcome {
                toi: d.toi,
                switched: objects.last().is_some_and(|o| o.decision != d.decision),
                decision: d.decision,
                true_loss,
                estimated_loss_bound: d.loss_bound,
                n_sent,
                n_necessary: world.needed.get(&d.toi).copied(),
            });
        }
        let receiver = std::mem::replace(&mut world.receiver, FluteReceiver::new(1));
        Ok((Report { k: self.k, objects }, receiver))
    }
}

/// Every tuple the §6.1 recommender can emit: what a non-adaptive
/// operator would plausibly deploy.
pub fn static_candidates() -> Vec<Decision> {
    let (staircase, triangle) = (builtin::ldgm_staircase(), builtin::ldgm_triangle());
    let (r1_5, r2_5) = (ExpansionRatio::R1_5, ExpansionRatio::R2_5);
    let tx2 = TxModel::SourceSeqParityRandom;
    [
        (staircase.clone(), tx2, r1_5),
        (staircase.clone(), tx2, r2_5),
        (triangle.clone(), TxModel::Random, r1_5),
        (triangle, TxModel::Random, r2_5),
        (staircase, TxModel::tx6_paper(), r2_5),
        (builtin::rse(), TxModel::Interleaved, r2_5),
    ]
    .into_iter()
    .map(|(code, tx, ratio)| Decision { code, tx, ratio })
    .collect()
}

/// One object's broadcast.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObjectOutcome {
    /// The object.
    pub toi: u32,
    /// The tuple its data went out under.
    pub decision: Decision,
    /// Whether that tuple differs from the previous object's.
    pub switched: bool,
    /// The stationary loss rate of the channel's regime when the object's
    /// first datagram went out: ground truth the controller never sees.
    pub true_loss: f64,
    /// The controller's conservative loss bound when the object came due.
    pub estimated_loss_bound: Option<f64>,
    /// The object's data datagrams offered to the link.
    pub n_sent: u64,
    /// Its data datagrams the receiver held when it decoded; `None` if it
    /// never did.
    pub n_necessary: Option<u64>,
}

/// One session's objects, in the order they came due.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Source symbols per object.
    pub k: usize,
    /// Per-object outcomes.
    pub objects: Vec<ObjectOutcome>,
}

impl Report {
    /// Objects that never decoded.
    pub fn failures(&self) -> usize {
        let failed = |o: &&ObjectOutcome| o.n_necessary.is_none();
        self.objects.iter().filter(failed).count()
    }

    /// Objects sent under another tuple than the one before.
    pub fn switches(&self) -> usize {
        self.objects.iter().filter(|o| o.switched).count()
    }

    /// Mean inefficiency ratio `n_necessary / k`, an object that never
    /// decoded charged at its tuple's expansion ratio: the headline
    /// comparison (lower is better, 1.0 is perfect).
    pub fn penalized_mean_inefficiency(&self) -> f64 {
        let k = self.k as f64;
        let cost = |o: &ObjectOutcome| {
            o.n_necessary
                .map_or(o.decision.ratio_value(), |n| n as f64 / k)
        };
        self.objects.iter().map(cost).sum::<f64>() / self.objects.len() as f64
    }

    /// Data datagrams sent per source symbol: the sender's bandwidth cost,
    /// the expansion ratio for a static session.
    pub fn mean_sent_ratio(&self) -> f64 {
        let sent: u64 = self.objects.iter().map(|o| o.n_sent).sum();
        sent as f64 / (self.k * self.objects.len()) as f64
    }
}

/// The link, the receiver behind it, and what the world recorded.
struct World {
    /// The link draws one loss from the channel per datagram offered, and
    /// neither duplicates nor reorders: `LinkEmulator` with its default
    /// configuration, except that the world reads the channel's regime.
    channel: DriftingChannel,
    receiver: FluteReceiver,
    /// Per object: the regime's loss rate when its first datagram went
    /// out, and how many of its datagrams went out.
    sent: BTreeMap<u32, (f64, u64)>,
    /// Per object: its datagrams the receiver held when it decoded.
    needed: BTreeMap<u32, u64>,
    dropped: u64,
    /// The receiver has sent its final digest.
    left: bool,
}

/// The world as the engine sees it: the path every datagram takes, and
/// the return channel digests come back on.
struct Shared(Rc<RefCell<World>>);

impl PathSink for Shared {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let world = &mut *self.0.borrow_mut();
        for datagram in burst {
            let (header, _) = LctHeader::parse(datagram).map_err(|e| e.to_string())?;
            if header.toi != FDT_TOI {
                let truth = world.channel.current().global_loss_probability();
                world.sent.entry(header.toi).or_insert((truth, 0)).1 += 1;
            }
            if world.channel.next_is_lost() {
                world.dropped += 1;
                continue;
            }
            let (events, _) = push_salvaging(&mut world.receiver, 0, &[datagram]);
            for event in events {
                if let ReceiverEvent::ObjectComplete { toi } = event {
                    let needed = world.receiver.packets_received(toi);
                    world.needed.insert(toi, needed);
                }
            }
        }
        let bytes = burst.iter().map(|d| d.len() as u64).sum();
        Ok((burst.len() as u64, bytes))
    }

    fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }
}

/// Each poll, the receiver flushes what it has to say, up to and
/// including its final digest.
impl DigestSource for Shared {
    fn try_recv_digests(&mut self, _max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let world = &mut *self.0.borrow_mut();
        let report = match world.receiver.flush_report() {
            Some(report) if !world.left => report,
            _ => return Ok(Vec::new()),
        };
        world.left = report.session_complete;
        let bytes = report.to_bytes().map_err(io::Error::other)?;
        let digest = BufferPool::with_config(bytes.len(), 1).buf_from(&bytes);
        Ok(vec![(digest, SocketAddr::from(([10, 0, 0, 1], 5000)))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Workload {
        Workload::drifting(400, 20, 0xAD47)
    }

    fn adaptive(workload: &Workload) -> Report {
        let config = SendConfig {
            window: 2_000,
            ..SendConfig::default()
        };
        workload.run(&Decision::prior(), Some(&config)).unwrap().0
    }

    #[test]
    fn adaptive_loop_runs_and_observes() {
        let workload = quick();
        let report = adaptive(&workload);
        assert_eq!(report.objects.len(), 20);
        // The first object goes out on the prior, before any estimate.
        assert_eq!(report.objects[0].decision, Decision::prior());
        assert!(report.objects[0].estimated_loss_bound.is_none());
        // Later objects come due with estimates.
        assert!(report.objects[4].estimated_loss_bound.is_some());
        // Ground truth is recorded for analysis: the channel drifted.
        assert!(report.objects.iter().any(|o| o.true_loss > 0.3));
        assert!(report.objects.iter().any(|o| o.true_loss < 0.05));
    }

    #[test]
    fn static_run_never_switches_and_sends_everything() {
        let triangle = static_candidates()[3].clone(); // Triangle Tx4 R2_5
        let (report, _) = quick().run(&triangle, None).unwrap();
        assert_eq!(report.switches(), 0);
        for o in &report.objects {
            assert_eq!(o.decision, triangle);
            assert_eq!(o.n_sent, 1_000, "full n = 2.5k for every object");
            assert!(o.estimated_loss_bound.is_none(), "nobody reports");
        }
        assert!((report.mean_sent_ratio() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn penalized_metric_charges_failures() {
        let report = Report {
            k: 100,
            objects: vec![ObjectOutcome {
                toi: 1,
                decision: static_candidates()[0].clone(),
                switched: false,
                true_loss: 0.8,
                estimated_loss_bound: None,
                n_sent: 150,
                n_necessary: None,
            }],
        };
        assert_eq!(report.failures(), 1);
        assert_eq!(report.penalized_mean_inefficiency(), 1.5);
        assert_eq!(report.mean_sent_ratio(), 1.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let workload = quick();
        assert_eq!(adaptive(&workload), adaptive(&workload));
    }
}
