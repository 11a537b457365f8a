//! fec-audit: deny(panic)
//!
//! The one seeded in-process world: the shipped [`send_session`] drives N
//! paths into a population of members, with no sockets and no threads.
//! `fec-broadcast adapt` runs in it, and so do the engine, bonding, fault
//! injection, telemetry and closed-loop suites.
//!
//! * Every (member, path) pair walks its own [`LinkEmulator`], so a member
//!   sees each path as an independent loss process.
//! * Each path takes a scripted fault schedule ([`World::at`]): kill it,
//!   degrade its loss process, garble every nth datagram, fail every nth
//!   send.
//! * Members run the receive loop's own step, [`Reception`], one
//!   datagram at a time, so an object's packet count at decode is exact.
//!   After each burst a member ships the step's digest; once it holds
//!   every object it ships its FIN digest and leaves.
//! * A digest poll that finds the queue empty is the members' idle tick:
//!   every member still in the session ships the step's idle flush.
//!
//! Each path records how many datagrams it was offered and an FNV-1a hash
//! of them in send order, the routing fingerprint a golden test pins. The
//! world records, per object, how many of its data datagrams were offered
//! and the offered index of the first.
//!
//! A [`Workload`] is the closed loop's scenario: one member on one link
//! whose loss process is a regime-switching [`DriftingChannel`].
//! `fec-broadcast adapt` runs it twice over:
//!
//! * the **adaptive** session: the member reports, so the engine re-plans
//!   the object in flight and deploys the controller's tuple on every
//!   object that comes due;
//! * one **static** session per [`static_candidates`] tuple: nobody
//!   reports, so every object goes out at its full schedule.
//!
//! Every session walks the same channel law from the same seed. An object
//! that never decodes is charged at its tuple's expansion ratio: the cost
//! floor of a transmission that delivered nothing useful.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;

use fec_adapt::Decision;
use fec_channel::{DriftingChannel, GilbertChannel, GilbertParams, LinkEmulator, Regime};
use fec_codec::builtin;
use fec_core::ExpansionRatio;
use fec_flute::feedback::{ReceptionReport, ReportConfig};
use fec_flute::{FluteReceiver, FluteSender, LctHeader, SenderConfig, FDT_TOI};
use fec_sched::TxModel;
use fec_sim::mix_seed;
use fec_wire::{BufferPool, PoolBuf};
use serde::Serialize;

use crate::live::{send_session, DigestSource, PathSink, Reception, SendConfig};

/// Bytes per symbol of a [`Workload`]: it counts packets, not bytes.
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

    /// Broadcasts every object, added under `decision`, to one member over
    /// a fresh instance of the channel. With `feedback` the member reports
    /// and the engine adapts under that configuration; without, nobody
    /// reports. Returns the member's receiver too, holding what it
    /// decoded.
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
        // The default link configuration draws nothing but the channel's
        // losses, one per datagram offered.
        let seed = mix_seed(self.seed, &[0xC4A7]);
        let channel = DriftingChannel::cycling(self.regimes.clone(), seed);
        let link = LinkEmulator::new(Box::new(channel), seed);
        let (world, mut paths, mut reports) =
            World::new(vec![Member::new(1, receiver, vec![link])], 1);
        let digests = feedback.map(|_| &mut reports as &mut dyn DigestSource);
        let config = feedback.copied().unwrap_or_default();
        let outcome = send_session(&sender, self.seed, &mut paths, digests, &config, None)?;

        let mut world = world.borrow_mut();
        let member = world.members.pop().ok_or("the world lost its member")?;
        let mut objects: Vec<ObjectOutcome> = Vec::new();
        for d in outcome.deployments {
            let sent = world.sent.get(&d.toi);
            let truth = sent.and_then(|&(first, _)| self.regime_at(first));
            objects.push(ObjectOutcome {
                toi: d.toi,
                switched: objects.last().is_some_and(|o| o.decision != d.decision),
                decision: d.decision,
                true_loss: truth.map_or(0.0, |params| params.global_loss_probability()),
                estimated_loss_bound: d.loss_bound,
                n_sent: sent.map_or(0, |&(_, n)| n),
                n_necessary: member.reception.completed.get(&d.toi).copied(),
            });
        }
        Ok((Report { k: self.k, objects }, member.receiver))
    }

    /// The parameters in force at the channel's `draw`th loss draw (from
    /// 0), read off the regime schedule: the link draws once per datagram
    /// offered, so this is ground truth the controller never sees.
    fn regime_at(&self, draw: u64) -> Option<GilbertParams> {
        let cycle: u64 = self.regimes.iter().map(|r| r.packets).sum();
        let mut at = draw.checked_rem(cycle)?;
        for regime in &self.regimes {
            if at < regime.packets {
                return Some(regime.params);
            }
            at -= regime.packets;
        }
        None
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
// audit:allow(surface) -- the element type of `Report::objects`, which the CLI and tests read
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

/// A link whose losses are a Gilbert `params` chain.
fn gilbert_link(params: GilbertParams, seed: u64) -> LinkEmulator {
    LinkEmulator::new(Box::new(GilbertChannel::new(params, seed)), seed)
}

/// One receiver behind one link per path.
pub struct Member {
    /// Its address: the sender keys its digests by it.
    pub addr: SocketAddr,
    links: Vec<LinkEmulator>,
    /// The receiver, holding what it decoded.
    pub receiver: FluteReceiver,
    /// Datagrams the paths had been offered when it finished.
    pub completed_at: Option<u64>,
    /// What its receive step recorded.
    pub reception: Reception,
}

impl Member {
    /// Member `n` (address 10.0.0.n) behind `links`, one per path.
    pub fn new(n: u8, receiver: FluteReceiver, links: Vec<LinkEmulator>) -> Member {
        Member {
            addr: SocketAddr::from(([10, 0, 0, n], 5000)),
            links,
            receiver,
            completed_at: None,
            reception: Reception::default(),
        }
    }

    /// Asks for missing symbols in every digest.
    pub fn nacks(mut self) -> Member {
        self.receiver.enable_nacks();
        self
    }

    /// Delivers `burst` through this member's link for `path`, one
    /// datagram at a time, and returns the digest it sends after the
    /// burst: its FIN digest once it holds every object, which is also
    /// when it leaves the session (the world stops delivering to it).
    fn hear(
        &mut self,
        path: usize,
        burst: &[Vec<u8>],
        offered: u64,
    ) -> Result<Option<ReceptionReport>, String> {
        let link = self.links.get_mut(path);
        let link = link.ok_or_else(|| format!("{} has no link for path {path}", self.addr))?;
        for datagram in link.transmit_batch(burst) {
            self.reception.decode(&mut self.receiver, path, &[datagram]);
        }
        self.completed_at = self.reception.is_done().then_some(offered);
        Ok(self.reception.digest(&mut self.receiver))
    }
}

/// A scripted change to one path.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Everything sent on the path vanishes; the sends still succeed.
    Kill,
    /// Every member's link on the path becomes a Gilbert channel with
    /// these parameters. Member i's draws from `seed ^ i·φ`: member 0
    /// keeps `seed`, and no two members share a loss sequence.
    Degrade(GilbertParams, u64),
    /// Every nth datagram on the path arrives with its header inverted.
    Garble(u64),
    /// Every nth send on the path fails.
    FailSend(u64),
}

/// One path's fault state and routing fingerprint.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lane {
    killed: bool,
    garble_every: u64,
    fail_every: u64,
    sends: u64,
    /// Datagrams offered to the path.
    pub carried: u64,
    /// FNV-1a over each offered datagram's length and bytes, in order.
    pub hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let step = |hash: u64, &b: &u8| (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(hash, step)
}

/// Members on paths, the fault script, and what the world recorded.
pub struct World {
    /// Everyone the session broadcasts to.
    pub members: Vec<Member>,
    /// Per path: its faults and routing fingerprint.
    pub lanes: Vec<Lane>,
    /// Datagrams offered to all paths so far.
    pub offered: u64,
    /// Per object: the offered index of its first data datagram, and how
    /// many of its data datagrams were offered.
    sent: BTreeMap<u32, (u64, u64)>,
    script: Vec<(u64, usize, Fault)>,
    /// Digests on their way to the sender, each with its member's address.
    digests: VecDeque<(Vec<u8>, SocketAddr)>,
}

impl World {
    /// `members` on `paths` paths: the shared world, its path sinks and
    /// the sender's digest source.
    pub fn new(members: Vec<Member>, paths: usize) -> (Rc<RefCell<World>>, Vec<Path>, Reports) {
        let lane = Lane {
            hash: FNV_OFFSET,
            ..Lane::default()
        };
        let world = Rc::new(RefCell::new(World {
            members,
            lanes: vec![lane; paths],
            offered: 0,
            sent: BTreeMap::new(),
            script: Vec::new(),
            digests: VecDeque::new(),
        }));
        let path = |index| Path {
            index,
            world: world.clone(),
        };
        let sinks = (0..paths).map(path).collect();
        (world.clone(), sinks, Reports(world))
    }

    /// Applies `fault` to `path` once the paths have been offered `at`
    /// datagrams (0: from the start).
    pub fn at(&mut self, at: u64, path: usize, fault: Fault) {
        self.script.push((at, path, fault));
    }

    /// Applies every fault now due; one scripted on a path the world
    /// does not have is an error, not a no-op.
    fn apply_due_faults(&mut self) -> Result<(), String> {
        let offered = self.offered;
        let (due, later) = self.script.drain(..).partition(|(at, ..)| *at <= offered);
        self.script = later;
        for (_, path, fault) in due {
            let missing = || format!("a fault is scripted on path {path}, which does not exist");
            let lane = self.lanes.get_mut(path).ok_or_else(missing)?;
            match fault {
                Fault::Kill => lane.killed = true,
                Fault::Garble(every) => lane.garble_every = every,
                Fault::FailSend(every) => lane.fail_every = every,
                Fault::Degrade(params, seed) => {
                    for (i, member) in (0u64..).zip(&mut self.members) {
                        let seed = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        *member.links.get_mut(path).ok_or_else(missing)? =
                            gilbert_link(params, seed);
                    }
                }
            }
        }
        Ok(())
    }
}

/// One path: a broadcast medium into every member's link for it.
pub struct Path {
    index: usize,
    world: Rc<RefCell<World>>,
}

impl PathSink for Path {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let world = &mut *self.world.borrow_mut();
        world.apply_due_faults()?;
        let lane = world.lanes.get_mut(self.index).ok_or("no such path")?;
        lane.sends += 1;
        let mut garbled = Vec::with_capacity(burst.len());
        for (at, datagram) in (world.offered..).zip(burst) {
            lane.carried += 1;
            lane.hash = fnv1a(lane.hash, &(datagram.len() as u64).to_le_bytes());
            lane.hash = fnv1a(lane.hash, datagram);
            match LctHeader::parse(datagram) {
                Ok((header, _)) if header.toi != FDT_TOI => {
                    world.sent.entry(header.toi).or_insert((at, 0)).1 += 1;
                }
                _ => {}
            }
            let mut datagram = datagram.clone();
            if lane.garble_every > 0 && lane.carried.is_multiple_of(lane.garble_every) {
                datagram.iter_mut().take(4).for_each(|b| *b = !*b);
            }
            garbled.push(datagram);
        }
        let failed = lane.fail_every > 0 && lane.sends.is_multiple_of(lane.fail_every);
        let killed = lane.killed;
        world.offered += burst.len() as u64;
        if failed {
            return Err(format!("scripted send failure on path {}", self.index));
        }
        // A killed path delivers nothing; a finished member has left.
        let present = |m: &&mut Member| !killed && m.completed_at.is_none();
        for member in world.members.iter_mut().filter(present) {
            if let Some(report) = member.hear(self.index, &garbled, world.offered)? {
                let bytes = report.to_bytes().map_err(|e| e.to_string())?;
                world.digests.push_back((bytes, member.addr));
            }
        }
        // Erasure happens per member, not on the path: `dropped` stays 0.
        let bytes = burst.iter().map(|d| d.len() as u64).sum();
        Ok((burst.len() as u64, bytes))
    }
}

/// The sender's return channel.
// audit:allow(surface) -- returned by `World::new`; tests hand it to `send_session`
pub struct Reports(Rc<RefCell<World>>);

impl DigestSource for Reports {
    fn try_recv_digests(&mut self, max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let world = &mut *self.0.borrow_mut();
        if world.digests.is_empty() {
            // The members' idle tick: the sender has gone quiet.
            for member in &mut world.members {
                if let Some(report) = member.reception.idle(&mut member.receiver) {
                    let bytes = report.to_bytes().map_err(io::Error::other)?;
                    world.digests.push_back((bytes, member.addr));
                }
            }
        }
        let n = max.min(world.digests.len());
        let pool =
            |(b, from): (Vec<u8>, _)| (BufferPool::with_config(b.len(), 1).buf_from(&b), from);
        Ok(world.digests.drain(..n).map(pool).collect())
    }
}

#[cfg(test)]
mod tests {
    use fec_channel::LossModel;

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

    fn fates(link: &mut LinkEmulator) -> Vec<bool> {
        (0..400).map(|_| link.model_mut().next_is_lost()).collect()
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

    /// The truth column reads the regime schedule instead of peeking at
    /// the channel: at every draw, over two full cycles, the schedule
    /// names the regime the channel has in force before that draw.
    #[test]
    fn the_regime_schedule_is_the_channel_s_regime() {
        let workload = Workload::drifting(50, 1, 3);
        let cycle: u64 = workload.regimes().iter().map(|r| r.packets).sum();
        let mut channel = DriftingChannel::cycling(workload.regimes().to_vec(), 3);
        for draw in 0..2 * cycle + 1 {
            assert_eq!(workload.regime_at(draw), Some(channel.current()), "{draw}");
            channel.next_is_lost();
        }
    }

    /// A degraded path stays an independent loss process per member, and
    /// member 0 draws from the script's own seed.
    #[test]
    fn a_degrade_gives_every_member_its_own_loss_process() {
        let link = |p, q, seed| gilbert_link(GilbertParams::new(p, q).unwrap(), seed);
        let member = |n| Member::new(n, FluteReceiver::new(1), vec![link(0.01, 0.5, 7)]);
        let members = vec![member(1), member(2)];
        let (world, ..) = World::new(members, 1);
        let mut world = world.borrow_mut();
        let params = GilbertParams::new(0.3, 0.3).unwrap();
        world.at(0, 0, Fault::Degrade(params, 0xBAD));
        world.apply_due_faults().unwrap();
        let first = fates(&mut world.members[0].links[0]);
        let second = fates(&mut world.members[1].links[0]);
        assert_ne!(first, second, "two members drew the same losses");
        assert_eq!(first, fates(&mut link(0.3, 0.3, 0xBAD)));
    }

    /// A mis-scripted scenario fails the send instead of passing with a
    /// fault that never took effect or a member that never heard a path.
    #[test]
    fn a_path_the_world_does_not_have_is_an_error() {
        let link = || gilbert_link(GilbertParams::new(0.01, 0.5).unwrap(), 7);
        let member = |links| Member::new(1, FluteReceiver::new(1), links);
        let (world, mut paths, _) = World::new(vec![member(vec![link()])], 1);
        world.borrow_mut().at(0, 3, Fault::Kill);
        let err = paths[0].send_burst(&[vec![0; 8]]).unwrap_err();
        assert!(err.contains("path 3"), "{err}");

        let (_, mut paths, _) = World::new(vec![member(vec![link()])], 2);
        let err = paths[1].send_burst(&[vec![0; 8]]).unwrap_err();
        assert!(err.contains("no link for path 1"), "{err}");
    }
}
