//! fec-audit: deny(panic)
//!
//! The live session engine: one send loop and one receive loop, shared by
//! the CLI, the examples and the acceptance tests.
//!
//! A live session varies along three axes — how many paths carry it, how
//! many receivers report on it, and whether anyone reports at all — and
//! none of them selects a different loop:
//!
//! * [`send_session`] — pulls bursts from a
//!   [`SessionStream`](fec_flute::SessionStream), routes each datagram
//!   through a credit scheduler over 1..N [`PathSink`]s, and drains
//!   reception-report digests from a [`DigestSource`] into the one
//!   feedback consumer, [`FeedbackAggregator`]. A single path is N = 1
//!   paths; a single receiver is a population of one; a static session
//!   is a session nobody reports on. A path whose sink fails is retired
//!   and the survivors carry on.
//! * [`Reception`] — the receive step, the one thing every receive loop
//!   does: decode a burst that arrived on a path (a burst the batched
//!   path rejects is replayed one datagram at a time, so a bad datagram
//!   costs itself, not its 4000-odd good neighbours), record each object
//!   it completes with its packet count at that moment, pick the digest
//!   to ship (the FIN digest once done), flush when idle, and say when
//!   the session is done: every object the FDT lists is decoded. The
//!   in-process [`world`](crate::world)'s members run it one datagram at
//!   a time.
//! * [`receive_session`] — that step as a blocking loop over datagrams
//!   tagged with the path (bound socket) they arrived on; a single-socket
//!   receiver tags everything 0. It runs until the session is done, or
//!   until the channel goes idle with something decoded. Reception
//!   reports ship through a *lossy* hook: failures are counted and
//!   logged, never fatal.
//! * [`drain_loop`] / [`spawn_drain`] — pull bursts from a
//!   [`BurstSource`] (the batched engine's [`BatchReceiver`], or a
//!   scripted source in tests) and forward datagrams to the decode
//!   thread. Errors route through
//!   [`fec_wire::classify_recv_error`]: interrupted
//!   syscalls retry, only an idle read timeout ends the session, and
//!   anything else is logged, counted, and survived.
//!
//! Everything here handles bytes from the network (digests on the send
//! side, datagrams on the receive side), so the module is panic-free by
//! lint.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fec_adapt::{ControllerConfig, Decision, Reconsideration};
use fec_channel::LinkEmulator;
use fec_flute::feedback::{AggregateOutcome, AggregatorConfig, FeedbackAggregator, NackEntry};
use fec_flute::{FluteReceiver, FluteSender, ReceiverEvent, ReceptionReport};
use fec_telemetry::{EstimatorSample, Event, EventLog, PathMetrics, Registry, SessionSummary};
use fec_wire::{
    classify_recv_error, Backend, BatchReceiver, BatchSender, BufferPool, PoolBuf, RecvDisposition,
    DEFAULT_BUF_CAPACITY, MAX_BURST,
};

/// Consecutive transient receive errors tolerated before the drain loop
/// concludes the socket is wedged and gives up. Transients are expected
/// in ones and twos (an ICMP-reflected `ECONNREFUSED`, a spurious kernel
/// hiccup); a thousand in a row with no successful read in between means
/// retrying is just spinning.
const TRANSIENT_ERROR_CAP: u32 = 1000;

/// Anything a drain loop can pull datagram bursts from: the batched
/// engine's [`BatchReceiver`] in production, a scripted source in tests.
pub trait BurstSource {
    /// Blocks for the next burst (honouring any configured read
    /// timeout). `max` bounds the number of wire messages read per call;
    /// with UDP GRO active one wire message may carry several coalesced
    /// datagrams, so the returned burst can exceed `max` entries.
    fn recv_burst(&mut self, max: usize) -> io::Result<Vec<PoolBuf>>;
}

impl BurstSource for BatchReceiver {
    fn recv_burst(&mut self, max: usize) -> io::Result<Vec<PoolBuf>> {
        BatchReceiver::recv_burst(self, max)
    }
}

/// What a drain loop did before it ended.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainStats {
    /// Bursts pulled from the source.
    pub bursts: u64,
    /// Datagrams forwarded to the decode thread.
    pub datagrams: u64,
    /// Interrupted syscalls retried (`EINTR`).
    pub retries: u64,
    /// Transient errors survived.
    pub transients: u64,
}

/// Pulls bursts from `source` and forwards each datagram into `tx`, tagged
/// with the index `path` of the socket it arrived on (so the decode loop
/// can keep per-path EXT_SEQ accounting honest), until the session ends.
/// The error discipline is the whole point:
///
/// * `Interrupted` (`EINTR`) — retry immediately; a signal delivery is
///   not an event.
/// * `WouldBlock` / `TimedOut` — the read timeout expired with no
///   traffic: the one legitimate way a session goes idle. Return.
/// * anything else — log it, count it, sleep a moment, keep receiving.
///   After 1000 consecutive failures (`TRANSIENT_ERROR_CAP`) give up
///   (the socket is wedged, not hiccuping).
///
/// Also returns when the decode side hangs up (`tx` disconnected).
pub fn drain_loop<S: BurstSource>(
    source: &mut S,
    path: usize,
    tx: &mpsc::Sender<(usize, PoolBuf)>,
    max_burst: usize,
) -> DrainStats {
    let mut stats = DrainStats::default();
    let mut consecutive_transients = 0u32;
    loop {
        match source.recv_burst(max_burst) {
            Ok(burst) => {
                consecutive_transients = 0;
                stats.bursts += 1;
                stats.datagrams += burst.len() as u64;
                for dg in burst {
                    if tx.send((path, dg)).is_err() {
                        return stats; // decoder hung up: session is over
                    }
                }
            }
            Err(e) => match classify_recv_error(&e) {
                RecvDisposition::Retry => stats.retries += 1,
                RecvDisposition::SessionIdle => return stats,
                RecvDisposition::Transient => {
                    stats.transients += 1;
                    consecutive_transients += 1;
                    if stats.transients <= 5 || consecutive_transients == TRANSIENT_ERROR_CAP {
                        eprintln!("transient receive error (continuing): {e}");
                    }
                    if consecutive_transients >= TRANSIENT_ERROR_CAP {
                        eprintln!(
                            "{TRANSIENT_ERROR_CAP} consecutive receive errors; giving up on the socket"
                        );
                        return stats;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
        }
    }
}

/// Runs [`drain_loop`] on a dedicated thread so a slow decode never lets
/// the kernel receive queue overflow — one call per bound socket, all
/// feeding the same decode channel. The handle yields the loop's
/// [`DrainStats`]; dropping it detaches the thread (the CLI does).
pub fn spawn_drain<S>(
    mut source: S,
    path: usize,
    tx: mpsc::Sender<(usize, PoolBuf)>,
) -> std::thread::JoinHandle<DrainStats>
where
    S: BurstSource + Send + 'static,
{
    std::thread::spawn(move || drain_loop(&mut source, path, &tx, MAX_BURST))
}

/// Feeds a burst that arrived on `path` through
/// [`FluteReceiver::push_datagrams_on`]; if the batched path errors,
/// replays the burst one datagram at a time so only the offending
/// datagrams are dropped. Returns the events (one per accepted datagram)
/// and how many datagrams were rejected — both the per-datagram
/// [`ReceiverEvent::Rejected`] skips the batched path already performs
/// and any salvage-pass casualties.
fn push_salvaging<D: AsRef<[u8]>>(
    session: &mut FluteReceiver,
    path: usize,
    burst: &[D],
) -> (Vec<ReceiverEvent>, u64) {
    let (events, undecodable) = match session.push_datagrams_on(path, burst) {
        Ok(events) => (events, 0),
        Err(burst_error) => {
            // The batched path hit a session-fatal state (a conflicting
            // OTI, a codec failure): what it can judge per datagram —
            // garbage, a payload ID or symbol size outside the object's
            // geometry — it has already skipped. Replay one-by-one:
            // good datagrams land, bad ones are dropped.
            let mut events = Vec::with_capacity(burst.len());
            let mut undecodable = 0u64;
            for dg in burst {
                match session.push_datagrams_on(path, std::slice::from_ref(dg)) {
                    Ok(mut singles) => events.append(&mut singles),
                    Err(e) => {
                        undecodable += 1;
                        if undecodable == 1 {
                            eprintln!(
                                "dropping bad datagram on path {path} (salvaging the \
                                 remaining burst): {e} (burst error: {burst_error})"
                            );
                        }
                    }
                }
            }
            (events, undecodable)
        }
    };
    let skipped = events
        .iter()
        .filter(|e| matches!(e, ReceiverEvent::Rejected))
        .count() as u64;
    (events, skipped + undecodable)
}

/// One receiver's progress through a session, and the receive step that
/// advances it: [`decode`](Self::decode) each burst, then ship
/// [`digest`](Self::digest); ship [`idle`](Self::idle) when the channel
/// is quiet; stop once [`is_done`](Self::is_done). Every receive loop is
/// this step: [`receive_session`] over the drain threads' bursts, the
/// in-process world's members one datagram at a time.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Reception {
    /// Per decoded object: the data packets the receiver held when it
    /// decoded, the numerator of the paper's inefficiency ratio.
    pub completed: BTreeMap<u32, u64>,
    /// Datagrams decoded (accepted or rejected).
    pub datagrams: u64,
    /// Datagrams rejected as malformed or undecodable.
    pub rejected: u64,
    /// Digests that failed to ship down the return channel.
    pub ship_failures: u64,
    done: bool,
}

impl Reception {
    /// Decodes `burst`, which arrived on `path`, into `session`; a bad
    /// datagram costs itself, not its burst. Records every object the
    /// burst completes with its packet count at that moment.
    pub fn decode<D: AsRef<[u8]>>(
        &mut self,
        session: &mut FluteReceiver,
        path: usize,
        burst: &[D],
    ) {
        let (events, rejected) = push_salvaging(session, path, burst);
        self.datagrams += burst.len() as u64;
        self.rejected += rejected;
        for event in events {
            if let ReceiverEvent::ObjectComplete { toi } = event {
                self.completed.insert(toi, session.packets_received(toi));
            }
        }
        self.done = session.all_complete();
    }

    /// Whether every object the FDT lists is decoded: the end of the
    /// session, and the condition the digests' FIN flag carries.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The digest to ship after a burst: the FIN digest once the session
    /// is done, else whatever the report batching releases.
    pub fn digest(&self, session: &mut FluteReceiver) -> Option<ReceptionReport> {
        if self.done {
            session.flush_report()
        } else {
            session.poll_report()
        }
    }

    /// The idle flush: what the emitter has batched, so the sender's
    /// estimator never starves on a quiet channel. Nothing once done.
    pub fn idle(&self, session: &mut FluteReceiver) -> Option<ReceptionReport> {
        if self.done {
            None
        } else {
            session.flush_report()
        }
    }
}

/// Knobs for [`receive_session`]. The defaults match the CLI.
pub struct ReceiveConfig {
    /// How long to wait for a datagram before shipping a timer-tick
    /// digest (so the sender's estimator never starves when quiet).
    pub flush_interval: Duration,
    /// Where the loop's own counters (rejected datagrams, unshipped
    /// digests) register; [`Registry::disabled`] by default.
    pub registry: Registry,
}

impl Default for ReceiveConfig {
    fn default() -> ReceiveConfig {
        ReceiveConfig {
            flush_interval: Duration::from_millis(250),
            registry: Registry::disabled(),
        }
    }
}

/// Most datagrams [`receive_session`] decodes per burst.
const RECEIVE_BURST_CAP: usize = 4096;

/// How many times [`receive_session`] ships the final FIN digest (the
/// return channel is lossy too).
const FIN_REPEATS: u32 = 3;

/// The receive loop: the [`Reception`] step over path-tagged datagrams
/// from the drain threads' channel, decoded in bursts grouped by path (so
/// the per-path EXT_SEQ gap accounting stays honest across a bond), with
/// an idle flush every [`flush_interval`](ReceiveConfig::flush_interval)
/// the channel stays quiet. It runs until the session is done, then ships
/// the FIN digest three times (the return channel is lossy too) so an
/// adaptive sender stops at once.
///
/// `ship` is treated as *lossy by design*: a failure is logged and
/// counted (`fec_session_report_ship_failures_total` on
/// [`ReceiveConfig::registry`]) but never ends the session — the sender's
/// digest protocol already tolerates missing reports, exactly like it
/// tolerates lost data datagrams.
///
/// When the channel disconnects first (every drain thread saw the read
/// timeout expire), returns what completed; errors only if nothing did.
pub fn receive_session<F>(
    session: &mut FluteReceiver,
    datagrams: &mpsc::Receiver<(usize, PoolBuf)>,
    mut ship: F,
    config: &ReceiveConfig,
) -> Result<Reception, String>
where
    F: FnMut(&ReceptionReport) -> Result<(), String>,
{
    let rejected_counter = config.registry.counter(
        "fec_session_rejected_datagrams_total",
        "Datagrams the receiver rejected as malformed or undecodable.",
    );
    let ship_failure_counter = config.registry.counter(
        "fec_session_report_ship_failures_total",
        "Reception-report digests that failed to ship (lossy return channel).",
    );
    let mut ship_failures = 0u64;
    let mut ship_lossy = |report: Option<ReceptionReport>| {
        let Some(Err(e)) = report.map(|report| ship(&report)) else {
            return;
        };
        ship_failures += 1;
        ship_failure_counter.inc();
        if ship_failures <= 5 {
            eprintln!("digest not shipped (return channel is lossy by design): {e}");
        }
    };
    let mut reception = Reception::default();
    while !reception.is_done() {
        let first = match datagrams.recv_timeout(config.flush_interval) {
            Ok(tagged) => tagged,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                ship_lossy(reception.idle(session));
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let burst = std::iter::once(first).chain(datagrams.try_iter());
        let mut burst: Vec<_> = burst.take(RECEIVE_BURST_CAP).collect();
        let rejected = reception.rejected;
        // Decode path by path (the sort is stable, so arrival order holds
        // within each path: all the per-path sequence tracks care about).
        burst.sort_by_key(|(path, _)| *path);
        for group in burst.chunk_by(|a, b| a.0 == b.0) {
            let path = group.first().map_or(0, |(path, _)| *path);
            let slice: Vec<&PoolBuf> = group.iter().map(|(_, dg)| dg).collect();
            reception.decode(session, path, &slice);
        }
        rejected_counter.add(reception.rejected - rejected);
        ship_lossy(reception.digest(session));
    }
    if reception.is_done() {
        // The burst that finished the session shipped the first FIN.
        for _ in 1..FIN_REPEATS {
            ship_lossy(reception.digest(session));
        }
    }
    reception.ship_failures = ship_failures;
    if reception.completed.is_empty() {
        return Err(format!(
            "timed out after {} datagrams without completing an object \
             (losses beyond the code's budget, or no sender running)",
            reception.datagrams
        ));
    }
    Ok(reception)
}

/// How long a sender whose planned emission ran dry waits for digests
/// still in flight before judging the plan (and, after a backoff to the
/// full schedule, the session).
const LINGER: Duration = Duration::from_millis(1500);

/// How long the sender naps between feedback polls while lingering.
const IDLE_NAP: Duration = Duration::from_millis(20);

/// One outgoing path of a live session: the wire in production, an
/// in-process link in tests.
pub trait PathSink {
    /// Sends one burst; returns `(datagrams delivered, bytes delivered)`.
    /// A path that injects loss erases datagrams before the wire, so
    /// delivered can be less than offered — the gap shows up in
    /// [`dropped`](PathSink::dropped).
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String>;

    /// Datagrams this path's injected loss erased so far; a path that
    /// injects none drops nothing.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The wire stack of one path: the batched engine (which paces), behind
/// an optional link emulator for reproducible injected loss. Keeping the
/// emulator in front of the engine means a lossy demo runs the exact
/// burst path of a clean session, and drop accounting comes off the
/// link's [`LinkStats`](fec_channel::LinkStats).
pub struct WirePath {
    sender: BatchSender,
    link: Option<LinkEmulator>,
}

impl WirePath {
    /// A path over `sender`; `link`, if given, erases datagrams first.
    pub fn new(sender: BatchSender, link: Option<LinkEmulator>) -> WirePath {
        WirePath { sender, link }
    }
}

impl PathSink for WirePath {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let survivors;
        let offered = match &mut self.link {
            Some(link) => {
                survivors = link.transmit_batch(burst);
                survivors.as_slice()
            }
            None => burst,
        };
        let refs: Vec<&[u8]> = offered.iter().map(Vec::as_slice).collect();
        let bytes = refs.iter().map(|d| d.len() as u64).sum();
        let n = self.sender.send_burst(&refs).map_err(|e| e.to_string())?;
        Ok((n as u64, bytes))
    }

    fn dropped(&self) -> u64 {
        self.link.as_ref().map_or(0, |link| link.stats().dropped)
    }
}

/// Where a sender polls reception-report digests from: the feedback
/// socket's [`BatchReceiver`] in production, a queue in tests. The source
/// address is the aggregator's receiver key.
pub trait DigestSource {
    /// Every digest queued right now (at most `max`), without blocking;
    /// an empty vector means the return channel is quiet.
    fn try_recv_digests(&mut self, max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>>;
}

impl DigestSource for BatchReceiver {
    fn try_recv_digests(&mut self, max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>> {
        self.try_recv_burst_from(max)
    }
}

/// The batched engine over a sender's return-channel socket. Its slabs
/// hold any UDP payload, so a NACK digest listing thousands of missing
/// ESIs arrives whole, never cut at the slab's end; the control poll
/// takes one slab per digest it reads, and the pool keeps a few idle
/// between polls.
pub fn digest_receiver(socket: UdpSocket) -> BatchReceiver {
    let pool = BufferPool::with_config(DEFAULT_BUF_CAPACITY, 8);
    BatchReceiver::new(socket, pool, Backend::detect())
}

/// Knobs for [`send_session`]'s feedback loop. The defaults match the
/// CLI; a session without a [`DigestSource`] uses neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendConfig {
    /// Sliding estimation window of the channel estimator, in packets;
    /// at least 2 (one transition), or [`send_session`] refuses it.
    pub window: usize,
    /// Datagrams between re-plan rounds (each round also advances the
    /// aggregator's idle-eviction clock).
    pub replan_every: usize,
}

impl Default for SendConfig {
    fn default() -> SendConfig {
        SendConfig {
            window: 20_000,
            replan_every: 64,
        }
    }
}

/// What one path carried.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
// audit:allow(surface) -- the element type of `SendOutcome::paths`, which the CLI and tests read
pub struct PathOutcome {
    /// Datagrams delivered to the path's wire.
    pub datagrams: u64,
    /// Source symbols (and session control) the scheduler routed here.
    pub source: u64,
    /// Repair symbols the scheduler routed here.
    pub repair: u64,
    /// The send error that retired the path, if one did.
    pub error: Option<String>,
}

/// Which path carries each datagram. Every live path earns an equal
/// credit per datagram and the chosen path pays a whole one, so the paths
/// take turns. Among the paths within one datagram of the richest credit,
/// source symbols take the first-listed and repair symbols the last
/// (Kurant, arXiv:0901.1479): list paths fastest first, and repair, which
/// only matters after a loss, absorbs the slow paths' delay.
struct PathScheduler {
    lanes: Vec<Lane>,
}

#[derive(Clone, Copy)]
struct Lane {
    alive: bool,
    credit: f64,
    source: u64,
    repair: u64,
}

impl PathScheduler {
    fn new(paths: usize) -> PathScheduler {
        let lane = Lane {
            alive: true,
            credit: 0.0,
            source: 0,
            repair: 0,
        };
        PathScheduler {
            lanes: vec![lane; paths],
        }
    }

    fn alive(&self) -> usize {
        self.lanes.iter().filter(|l| l.alive).count()
    }

    /// `path`'s share of the traffic: 1/alive while it is live, else 0.
    fn share(&self, path: usize) -> f64 {
        match self.lanes.get(path) {
            Some(lane) if lane.alive => 1.0 / self.alive() as f64,
            _ => 0.0,
        }
    }

    /// The path for the next datagram; `None` once every path is retired.
    fn route(&mut self, is_source: bool) -> Option<usize> {
        let deposit = 1.0 / self.alive() as f64;
        for lane in self.lanes.iter_mut().filter(|l| l.alive) {
            lane.credit += deposit;
        }
        let live = || self.lanes.iter().enumerate().filter(|(_, l)| l.alive);
        let richest = live().map(|(_, l)| l.credit).reduce(f64::max)?;
        // The band is never empty (the richest path is in it), and a
        // starved path's credit soon towers over the rest, which is what
        // bounds every path's drift from its turn.
        let mut band = live()
            .filter(|(_, l)| l.credit > richest - 1.0)
            .map(|(i, _)| i);
        let chosen = if is_source {
            band.next()
        } else {
            band.next_back()
        }?;
        let lane = self.lanes.get_mut(chosen)?;
        lane.credit -= 1.0;
        *if is_source {
            &mut lane.source
        } else {
            &mut lane.repair
        } += 1;
        Some(chosen)
    }

    /// Takes `path` out of rotation for good; returns the paths left.
    fn retire(&mut self, path: usize) -> usize {
        if let Some(lane) = self.lanes.get_mut(path) {
            lane.alive = false;
        }
        self.alive()
    }
}

/// The tuple one object's data went out under.
#[derive(Debug, Clone, PartialEq)]
// audit:allow(surface) -- the element type of `SendOutcome::deployments`, which `world` reads
pub struct Deployment {
    /// The object.
    pub toi: u32,
    /// Its (code, transmission model, expansion ratio).
    pub decision: Decision,
    /// The controller's conservative loss bound when the object came due;
    /// `None` while there was no estimate.
    pub loss_bound: Option<f64>,
}

/// How a [`send_session`] went.
#[derive(Debug, Clone, PartialEq)]
pub struct SendOutcome {
    /// Datagrams delivered to the wire, all paths.
    pub sent: u64,
    /// Datagrams erased by the paths' injected loss or lost in a failed
    /// send.
    pub dropped: u64,
    /// Per-path split, in path order.
    pub paths: Vec<PathOutcome>,
    /// One entry per object, in the order the objects came due.
    pub deployments: Vec<Deployment>,
    /// Goodput, overhead versus the static worst case, control activity
    /// and the estimator trajectory — finalized.
    pub summary: SessionSummary,
}

/// The live send loop. Per round it drains every pending digest into a
/// [`FeedbackAggregator`] keyed by source address, stops objects the
/// whole tracked population decoded, turns the population's NACK union
/// into targeted repair packets, emits one burst — each live path taking
/// an equal turn, source symbols preferring early-listed paths and repair
/// symbols late ones, after Kurant's multipath-FEC ordering — and every
/// [`replan_every`](SendConfig::replan_every) datagrams re-plans the
/// object in flight (§6.2) and advances the idle-eviction clock.
///
/// The tuple follows the controller. When an object comes due after a
/// re-plan that had an estimate, the stream re-encodes it under the
/// controller's decision if that differs from the object's tuple, and
/// announces it in a new FDT instance before any of its data leaves
/// ([`SessionStream::deploy`](fec_flute::SessionStream::deploy));
/// objects already in flight keep theirs. No estimate, no redeploy: a
/// session nobody reports on sends every object as it was added.
///
/// The first [`send_burst`](PathSink::send_burst) error on a path retires
/// it for the rest of the session: the failed burst counts as dropped,
/// later datagrams go to the surviving paths, and the error is printed
/// once and kept in that path's [`PathOutcome`]. Only the last path's
/// failure ends the session, with that error. A path that fails silently
/// stays in rotation; feedback and NACK repair make up for it.
///
/// The session ends when every tracked receiver reports it complete. If
/// the planned emission runs dry first, the sender lingers 1.5 s for
/// digests in flight, then backs off to the full schedule as the objects
/// are deployed now (recording the failure with the controller), and
/// gives up only once that is exhausted too. Without a `feedback` source
/// nobody can report, so the session is the full schedule, once.
///
/// The stream, the aggregator and the paths register their metric
/// families on `telemetry`'s registry (on [`Registry::disabled`] without
/// one), and every control decision lands in its event log. What the
/// session computes — the [`SendOutcome`], estimator trajectory included
/// — is the same either way.
pub fn send_session<P: PathSink>(
    session: &FluteSender,
    seed: u64,
    paths: &mut [P],
    mut feedback: Option<&mut dyn DigestSource>,
    config: &SendConfig,
    telemetry: Option<(&Registry, &EventLog)>,
) -> Result<SendOutcome, String> {
    if paths.is_empty() {
        return Err("a session needs at least one path".into());
    }
    if config.window < 2 {
        return Err("an estimation window needs at least 2 packets (one transition)".into());
    }
    let tsi = session.tsi();
    let fdt = session.fdt();
    let tois: Vec<u32> = fdt.files.iter().map(|f| f.toi).collect();
    let record = |event: Event| {
        if let Some((_, events)) = telemetry {
            events.record(event);
        }
    };

    let mut agg = FeedbackAggregator::new(
        tsi,
        AggregatorConfig::default(),
        ControllerConfig {
            window: config.window,
            ..ControllerConfig::default()
        },
    );
    // Whether anyone can report: without a digest source the feedback
    // half of every round below is skipped.
    let closed_loop = feedback.is_some();
    let mut scheduler = PathScheduler::new(paths.len());
    let mut stream = session.stream(seed);
    let registry = telemetry.map_or_else(Registry::disabled, |(registry, _)| registry.clone());
    stream.attach_telemetry(&registry);
    agg.attach_telemetry(&registry);
    let path_metrics = PathMetrics::register_all(&registry, paths.len());
    let publish_shares = |scheduler: &PathScheduler| {
        for (path, m) in path_metrics.iter().enumerate() {
            m.share.set(scheduler.share(path));
        }
    };
    publish_shares(&scheduler);
    let full_total = stream.full_total();
    record(Event::SessionStart {
        tsi: tsi as u64,
        objects: tois.len() as u32,
        full_schedule: full_total,
    });
    let started = Instant::now();
    let mut summary = SessionSummary::new(tsi as u64);
    summary.full_schedule = full_total;
    summary.object_bytes = fdt.files.iter().map(|f| f.oti.transfer_length).sum();

    // Bursts stay inside the replan cadence so control decisions keep
    // their per-`replan_every` granularity.
    let replan_every = config.replan_every.max(1);
    let burst_cap = if closed_loop {
        replan_every.min(MAX_BURST)
    } else {
        MAX_BURST
    };
    let mut bursts: Vec<Vec<Vec<u8>>> = vec![Vec::new(); paths.len()];
    let mut outcomes = vec![PathOutcome::default(); paths.len()];
    let mut sent = 0u64;
    let mut offered = 0u64;
    let mut failed = 0u64;
    let mut next_replan_at = replan_every as u64;
    let mut linger_until: Option<Instant> = None;
    let mut stopped: BTreeSet<u32> = BTreeSet::new();
    let mut repairs_queued = 0u64;
    // The tuple of the last re-plan that had an estimate.
    let mut decided: Option<Decision> = None;
    let mut deployments: Vec<Deployment> = Vec::with_capacity(tois.len());

    loop {
        if let Some(source) = feedback.as_deref_mut() {
            // Drain every pending digest, keyed by the receiver that
            // sent it.
            loop {
                let digests = source
                    .try_recv_digests(MAX_BURST)
                    .map_err(|e| e.to_string())?;
                if digests.is_empty() {
                    break;
                }
                for (dg, src) in &digests {
                    let outcome = match agg.ingest_datagram(*src, dg) {
                        Ok(outcome) => outcome,
                        Err(e) => {
                            eprintln!("ignoring malformed digest from {src}: {e}");
                            continue;
                        }
                    };
                    let report = agg.last_digest();
                    // Fresh digests advance population state whether or
                    // not they reach the estimator; dedups and foreigners
                    // don't.
                    let applied = matches!(
                        outcome,
                        AggregateOutcome::Folded { .. } | AggregateOutcome::Accepted
                    );
                    summary.digests_applied += u64::from(applied);
                    record(Event::DigestReceived {
                        report_seq: report.report_seq as u64,
                        observations: report.observations(),
                        applied,
                    });
                    if !matches!(outcome, AggregateOutcome::Folded { .. }) {
                        continue;
                    }
                    if let Some(est) = agg.controller().estimate() {
                        record(Event::EstimateUpdated {
                            p: est.params.p(),
                            q: est.params.q(),
                            p_upper: est.p_global_upper(),
                            window: agg.controller().estimator().window_len() as u64,
                        });
                        summary.estimator.push(EstimatorSample {
                            observations: agg.stats().observations,
                            p: est.params.p(),
                            q: est.params.q(),
                            p_upper: est.p_global_upper(),
                        });
                    }
                }
            }
            // Objects the whole tracked population decoded stop where
            // they stand (a later joiner's digest reopens them via
            // NACKs).
            let complete: Vec<u32> = agg.completed().filter(|t| !stopped.contains(t)).collect();
            for toi in complete {
                stopped.insert(toi);
                summary.objects_completed += 1;
                record(Event::ObjectComplete { toi });
                stream.stop_object(toi).map_err(|e| e.to_string())?;
            }
            if agg.session_complete() {
                eprintln!(
                    "all {} tracked receiver(s) reported the session complete after {sent} \
                     datagrams ({} planned, {full_total} full)",
                    agg.receiver_count(),
                    stream.planned_total()
                );
                break;
            }
            // Targeted repair: the population's missing-symbol union
            // becomes queued repair packets (deduped downstream against
            // in-flight schedule slots), not a longer carousel.
            let mut by_toi: BTreeMap<u32, Vec<NackEntry>> = BTreeMap::new();
            for request in agg.take_nack_requests() {
                by_toi.entry(request.toi).or_default().push(request);
            }
            for (toi, group) in by_toi {
                let requested: u64 = group.iter().map(|g| g.esis.len() as u64).sum();
                let queued = stream.queue_repair(&group);
                repairs_queued += queued;
                record(Event::RepairQueued {
                    toi,
                    requested,
                    queued,
                });
            }
        }

        let mut pulled = 0usize;
        while pulled < burst_cap {
            let last = deployments.last().map(|d| d.toi);
            if let Some(toi) = stream.due().filter(|&toi| last != Some(toi)) {
                let decision = stream.deploy(toi, decided.as_ref());
                deployments.push(Deployment {
                    toi,
                    decision: decision.map_err(|e| e.to_string())?,
                    loss_bound: agg.controller().estimate().map(|e| e.p_global_upper()),
                });
            }
            let Some((path, dg)) = stream
                .next_datagram_routed(|is_source| scheduler.route(is_source).unwrap_or(0))
                .map_err(|e| e.to_string())?
            else {
                break;
            };
            bursts
                .get_mut(path)
                .ok_or_else(|| format!("datagram routed to unknown path {path}"))?
                .push(dg);
            pulled += 1;
        }
        if pulled == 0 {
            if !closed_loop {
                break;
            }
            // Planned emission (and repair queue) exhausted: linger for
            // digests still in flight before judging the plan.
            let now = Instant::now();
            match linger_until {
                None => linger_until = Some(now + LINGER),
                Some(deadline) if now < deadline => {}
                Some(_) => {
                    // Objects still open fall back to their full schedules
                    // as deployed now. One the population already decoded
                    // stays stopped even if its receivers have since gone
                    // quiet and been evicted.
                    let planned = stream.planned_total();
                    let open = || tois.iter().copied().filter(|toi| !stopped.contains(toi));
                    for toi in open() {
                        stream.amend_plan(toi, None).map_err(|e| e.to_string())?;
                    }
                    if stream.is_done() {
                        let [_, median, _] = agg.summary().completion_quantiles;
                        eprintln!(
                            "full schedule exhausted without a completion report \
                             ({} receivers tracked, median completion {:.0}%; \
                             receivers gone, or losses beyond the code budget)",
                            agg.receiver_count(),
                            median * 100.0
                        );
                        break;
                    }
                    // The plan was too optimistic: keep going.
                    eprintln!(
                        "no completion report after the planned {planned} datagrams; \
                         reverting to the full schedule"
                    );
                    agg.record_failure();
                    summary.backoffs += 1;
                    for toi in open() {
                        record(Event::BackoffTriggered { reverted: toi });
                    }
                    linger_until = None;
                }
            }
            std::thread::sleep(IDLE_NAP);
            continue;
        }
        linger_until = None;
        offered += pulled as u64;
        let per_path = paths.iter_mut().zip(&mut bursts).zip(&mut outcomes);
        for (path, ((sink, burst), outcome)) in per_path.enumerate() {
            if burst.is_empty() {
                continue;
            }
            let result = sink.send_burst(burst);
            let len = burst.len() as u64;
            burst.clear();
            let (delivered, bytes) = match result {
                Ok(carried) => carried,
                Err(e) => {
                    let alive = scheduler.retire(path);
                    if alive == 0 {
                        return Err(e);
                    }
                    eprintln!(
                        "path {path} failed ({e}); retired for the rest of the session, \
                         {alive} path(s) carry on"
                    );
                    failed += len;
                    outcome.error = Some(e);
                    if let Some(m) = path_metrics.get(path) {
                        m.outages.inc();
                    }
                    publish_shares(&scheduler);
                    continue;
                }
            };
            outcome.datagrams += delivered;
            sent += delivered;
            summary.bytes_sent += bytes;
            if let Some(m) = path_metrics.get(path) {
                m.datagrams.add(delivered);
            }
        }
        // Re-plan (and advance the idle-eviction clock) periodically.
        if closed_loop && offered >= next_replan_at {
            next_replan_at = offered + replan_every as u64;
            agg.advance_tick();
            if let Some((toi, k)) = stream
                .current_toi()
                .and_then(|toi| stream.source_count(toi).map(|k| (toi, k)))
            {
                let replan = agg.replan(k as usize);
                if replan.reconsideration != Reconsideration::NoEstimate {
                    decided = Some(replan.decision.clone());
                }
                summary.replans += 1;
                stream
                    .amend_plan(toi, replan.plan.as_ref())
                    .map_err(|e| e.to_string())?;
                record(Event::ReplanIssued {
                    toi,
                    target: replan.plan.as_ref().map_or(full_total, |p| p.n_sent),
                    schedule: stream.planned_total(),
                });
            }
        }
    }

    for (outcome, lane) in outcomes.iter_mut().zip(&scheduler.lanes) {
        outcome.source = lane.source;
        outcome.repair = lane.repair;
    }
    summary.datagrams_sent = sent;
    summary.elapsed_secs = started.elapsed().as_secs_f64();
    summary.finalize();
    record(Event::SessionEnd {
        tsi: tsi as u64,
        datagrams: sent,
        planned: stream.planned_total(),
        completed: summary.objects_completed,
    });
    if closed_loop {
        let stats = agg.stats();
        let pop = agg.summary();
        let [p10, p50, p90] = pop.completion_quantiles.map(|q| q * 100.0);
        eprintln!(
            "feedback: {} receivers tracked, {} digests applied ({} folded, {} accepted, \
             {} deduped, {} foreign, {} evicted), {} observations, {repairs_queued} targeted \
             repairs; estimator bound {}, worst receiver loss {:.2}%, completion \
             p10/p50/p90 {p10:.0}%/{p50:.0}%/{p90:.0}%",
            pop.receivers,
            summary.digests_applied,
            stats.folded,
            stats.accepted,
            stats.deduped,
            stats.foreign,
            stats.evicted,
            stats.observations,
            agg.controller().estimate().map_or_else(
                || "-".into(),
                |e| format!("{:.2}%", e.p_global_upper() * 100.0)
            ),
            pop.worst_loss * 100.0,
        );
    }
    Ok(SendOutcome {
        sent,
        dropped: failed + paths.iter().map(|p| p.dropped()).sum::<u64>(),
        paths: outcomes,
        deployments,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::PathScheduler;

    fn routed(s: &PathScheduler) -> Vec<u64> {
        s.lanes.iter().map(|l| l.source + l.repair).collect()
    }

    #[test]
    fn live_paths_take_equal_turns() {
        let mut s = PathScheduler::new(3);
        for i in 0..9_999 {
            s.route(i % 3 != 0);
        }
        for n in routed(&s) {
            assert!(n.abs_diff(3_333) <= 2, "{:?}", routed(&s));
        }
    }

    #[test]
    fn source_prefers_fast_repair_prefers_slow() {
        let mut s = PathScheduler::new(2);
        for i in 0..2_000 {
            s.route(i % 2 == 0);
        }
        assert_eq!((s.lanes[0].source, s.lanes[1].repair), (1_000, 1_000));
    }

    #[test]
    fn retired_paths_are_never_picked() {
        let mut s = PathScheduler::new(3);
        for i in 0..10 {
            s.route(i % 2 == 0);
        }
        assert_eq!(s.retire(1), 2);
        assert_eq!((s.share(0), s.share(1)), (0.5, 0.0));
        let before = routed(&s)[1];
        for i in 0..500 {
            assert_ne!(s.route(i % 4 != 0), Some(1));
        }
        assert_eq!(routed(&s)[1], before);
    }

    #[test]
    fn all_retired_routes_nowhere() {
        let mut s = PathScheduler::new(2);
        s.retire(0);
        assert_eq!(s.retire(1), 0);
        assert_eq!(s.route(true), None);
    }
}
