//! fec-audit: deny(panic)
//!
//! Sender-side digest ingestion: the one feedback consumer, from a single
//! receiver to 10⁶ of them, in front of one estimator.
//!
//! A [`FeedbackAggregator`] owns an
//! [`AdaptiveController`](fec_adapt::AdaptiveController) and a table of
//! receivers keyed by source address. The return channel is itself UDP,
//! so digests arrive **late, twice, or never**, per receiver:
//!
//! * each digest carries a monotone `report_seq`; anything at or below
//!   its receiver's last accepted sequence is
//!   [`AggregateOutcome::Deduped`], so a duplicated or reordered digest
//!   can never double-count observations, and one receiver's sequence
//!   space never shadows another's;
//! * a *lost* digest only costs its own sketch — later digests carry
//!   later observations (and exact cumulative counters), so the estimator
//!   window fills a little slower and re-planning continues.
//!
//! Only the **worst** receiver's loss sketch is folded into the central
//! [`OnlineGilbertEstimator`](fec_adapt::OnlineGilbertEstimator): the
//! controller plans repair for the receiver that needs it most, and every
//! other digest costs O(1) bookkeeping instead of an estimator push per
//! observation. A population of one is its own worst receiver, so a
//! single-receiver session folds every fresh digest.
//!
//! "Worst" is the receiver with the highest cumulative loss fraction,
//! compared with exact integer cross-multiplication and a deterministic
//! key tie-break (lower address wins), so ingest order cannot flip ties.
//! The incumbent keeps folding until strictly beaten — which makes the
//! estimator state reproducible: replaying the worst receiver's accepted
//! digests alone through a fresh estimator yields the identical state
//! (property-tested in `tests/fanout_props.rs`).
//!
//! Idle receivers are evicted after
//! [`idle_ticks`](AggregatorConfig::idle_ticks) calls to
//! [`advance_tick`](FeedbackAggregator::advance_tick) without a fresh
//! digest, so a million receivers that left keep neither memory nor a
//! vote in population completion; a receiver that was merely quiet is
//! re-tracked, completion state included, by its next (cumulative)
//! digest. The controller sees the fleet through one
//! [`PopulationSummary`] per replan — count, worst-case loss, completion
//! quantiles — not n digest streams.
//!
//! NACK sections are unioned across the population into per-`(toi,
//! block)` missing-ESI sets; [`take_nack_requests`]
//! (FeedbackAggregator::take_nack_requests) drains them for targeted
//! repair emission.
//!
//! A digest costs one walk of the receiver table: a single `entry`
//! decides dedup and the cap and updates the state in place, and the
//! worst receiver's counters are cached beside its address, so the
//! comparison looks nothing up. The table is keyed by source, an IPv4
//! source packed into one integer (address and port), so each step of
//! that walk compares one word.
//! [`ingest_datagram`](FeedbackAggregator::ingest_datagram) parses into a
//! report the aggregator keeps (the live sender reads it back through
//! [`last_digest`](FeedbackAggregator::last_digest)), so parsing a digest
//! allocates only its NACKs' ESI lists.
//!
//! A tick walks the table only when some receiver can be due. The
//! aggregator keeps a lower bound on the oldest last-active tick, which
//! each sweep recomputes, and counts the receivers heard this tick; when
//! that count covers the table the bound is exact. So while every
//! receiver reports each round a tick touches no receiver, and when one
//! can be due, eviction is one pass. `tests/fanout_props.rs` checks the
//! bookkeeping against a linear-scan model of the rules above.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV6};

use fec_adapt::{AdaptiveController, ControllerConfig, PopulationSummary, Replan};
use fec_telemetry::Registry;

use super::wire::{NackEntry, ReceptionReport};
use crate::metrics::AggregatorMetrics;
use crate::{FluteError, FDT_TOI};

/// Completion-fraction histogram resolution: buckets of 10% plus one for
/// "fully complete".
const COMPLETION_BUCKETS: usize = 11;

/// Aggregator tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregatorConfig {
    /// [`advance_tick`](FeedbackAggregator::advance_tick) calls a
    /// receiver may stay silent before it is evicted. Callers typically
    /// tick once per replan round.
    pub idle_ticks: u64,
    /// Hard cap on tracked receivers; digests from new sources beyond it
    /// are still counted and folded by content but not tracked (the
    /// population summary undercounts instead of the sender exhausting
    /// memory).
    pub max_receivers: usize,
    /// Per-source NACK budget: the maximum NACK symbols one source may
    /// submit to the repair union per [`advance_tick`] window. A hostile
    /// (or confused) receiver NACKing the whole object on every digest
    /// would otherwise turn the targeted-repair path into an unbounded
    /// amplifier — each drained union re-fills on the next digest.
    /// Symbols past the budget are dropped and counted
    /// (`fec_feedback_throttled_total`); the digest itself still lands
    /// normally. 0 disables NACK ingestion entirely.
    ///
    /// [`advance_tick`]: FeedbackAggregator::advance_tick
    pub nack_budget: u64,
}

impl Default for AggregatorConfig {
    fn default() -> AggregatorConfig {
        AggregatorConfig {
            idle_ticks: 4,
            max_receivers: 4_000_000,
            nack_budget: 65_536,
        }
    }
}

/// What ingesting one digest did at population scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOutcome {
    /// Fresh digest from the current worst receiver: its sketch was
    /// folded into the central estimator.
    Folded {
        /// Per-packet observations folded in.
        observations: u64,
    },
    /// Fresh digest, tracked per-receiver, but not folded (its receiver
    /// is not the population's worst).
    Accepted,
    /// Duplicate or reordered `report_seq` for its receiver — dropped.
    Deduped,
    /// A digest for another session (TSI mismatch) — ignored.
    ForeignSession,
}

/// Aggregation statistics (diagnostics / assertions).
///
/// Conservation invariant: `folded + accepted + deduped + foreign ==
/// ingested` — every digest lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateStats {
    /// Digests ingested in total.
    pub ingested: u64,
    /// Digests whose sketch was folded into the estimator.
    pub folded: u64,
    /// Fresh digests tracked but not folded.
    pub accepted: u64,
    /// Digests dropped as per-receiver duplicates / reorders.
    pub deduped: u64,
    /// Digests for a different session.
    pub foreign: u64,
    /// Per-packet observations folded into the estimator.
    pub observations: u64,
    /// Receivers evicted after going idle.
    pub evicted: u64,
    /// Distinct symbols newly added to the NACK union.
    pub nack_symbols: u64,
    /// NACK symbols dropped by the per-source rate limit.
    pub throttled: u64,
}

/// Compact per-receiver tracking state: 64 bytes (pinned below) beside
/// a 32-byte [`SourceKey`], no larger than the `SocketAddr` it stands
/// for. With the B-tree's node overhead the `fanout_ingest` benchmark
/// measures 184.3 bytes of resident set per registered receiver
/// (`feedback.bytes_per_receiver`), and `ablation_fanout` records
/// 293 MB RSS at 10⁶ receivers, digests included
/// (`BENCH_fanout.json`).
#[derive(Debug, Clone, Copy)]
struct ReceiverState {
    last_report_seq: u32,
    last_active: u64,
    /// Cumulative counters from the latest digest, summed across TOIs.
    received: u64,
    lost: u64,
    /// Non-FDT objects the receiver has reported on / completed.
    objects: u32,
    objects_complete: u32,
    /// Completion bits for TOIs 0..64 (dedup for per-TOI population
    /// counts); larger TOIs go through the shared overflow set.
    complete_mask: u64,
    session_complete: bool,
    /// NACK symbols this source charged against its budget in the
    /// current tick window.
    nack_used: u64,
    /// The tick `nack_used` was last reset at (lazy per-window reset).
    nack_window: u64,
}

const _: () = assert!(std::mem::size_of::<ReceiverState>() <= 64);

/// The receiver table's key: an IPv4 source packed into one integer
/// (`address << 16 | port`), so the B-tree compares one word per step
/// instead of a whole `SocketAddr`; an IPv6 source keeps its address.
/// The packing is lossless, so distinct sources stay distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SourceKey {
    V4(u64),
    V6(SocketAddrV6),
}

/// A key takes no more room than the `SocketAddr` it replaces.
const _: () = assert!(std::mem::size_of::<SourceKey>() <= std::mem::size_of::<SocketAddr>());

impl SourceKey {
    fn new(addr: SocketAddr) -> SourceKey {
        match addr {
            SocketAddr::V4(a) => {
                SourceKey::V4(u64::from(a.ip().to_bits()) << 16 | u64::from(a.port()))
            }
            SocketAddr::V6(a) => SourceKey::V6(a),
        }
    }

    fn addr(self) -> SocketAddr {
        match self {
            SourceKey::V4(k) => SocketAddr::from((Ipv4Addr::from_bits((k >> 16) as u32), k as u16)),
            SourceKey::V6(a) => SocketAddr::V6(a),
        }
    }
}

impl ReceiverState {
    /// A receiver first heard from at `tick`.
    fn new(tick: u64) -> ReceiverState {
        ReceiverState {
            last_report_seq: 0,
            last_active: tick,
            received: 0,
            lost: 0,
            objects: 0,
            objects_complete: 0,
            complete_mask: 0,
            session_complete: false,
            nack_used: 0,
            nack_window: tick,
        }
    }

    fn completion_bucket(&self) -> usize {
        if self.objects == 0 {
            return 0;
        }
        let b = (self.objects_complete as u64 * 10 / self.objects as u64) as usize;
        b.min(COMPLETION_BUCKETS - 1)
    }
}

/// The worst receiver with the cumulative counters of its latest digest,
/// so a digest is compared against it without a table lookup.
#[derive(Debug, Clone, Copy)]
struct Worst {
    addr: SocketAddr,
    lost: u64,
    received: u64,
}

/// Sender half of the live adaptive loop.
#[derive(Debug)]
pub struct FeedbackAggregator {
    tsi: u32,
    config: AggregatorConfig,
    controller: AdaptiveController,
    receivers: BTreeMap<SourceKey, ReceiverState>,
    /// The current worst receiver (highest loss fraction; deterministic
    /// tie-break). `None` until the first digest. Only the worst's own
    /// digests change its counters, and each of them folds, so the cache
    /// is refreshed on every fold.
    worst: Option<Worst>,
    tick: u64,
    /// A lower bound on every tracked receiver's `last_active`: no one is
    /// due for eviction while the deadline stays at or below it. Digests
    /// only raise `last_active`, so the bound holds until a sweep (which
    /// recomputes it) or a fully heard tick (which sets it exactly).
    active_floor: u64,
    /// Tracked receivers whose `last_active` is the current tick.
    heard_this_tick: usize,
    /// Per-TOI count of tracked receivers reporting the object complete.
    toi_complete: BTreeMap<u32, u64>,
    /// Dedup for completion reports on TOIs ≥ 64 (rare; TOIs < 64 use
    /// the in-state mask), keyed receiver first so that an eviction drops
    /// one receiver's entries as one range.
    complete_overflow: BTreeSet<(SocketAddr, u32)>,
    /// Tracked receivers whose digests report the whole session done.
    session_complete_count: u64,
    /// TOIs whose population completion has been recorded as a positive
    /// controller outcome (once each — completion itself stays dynamic:
    /// a late joiner reopens it).
    outcome_recorded: BTreeSet<u32>,
    /// Histogram of per-receiver completion fractions (10% buckets) so
    /// quantiles cost O(1) memory and O(buckets) time.
    completion_hist: [u64; COMPLETION_BUCKETS],
    /// Union of missing ESIs across the population, keyed `(toi, block)`.
    nack_union: BTreeMap<(u32, u32), BTreeSet<u32>>,
    stats: AggregateStats,
    metrics: AggregatorMetrics,
    /// The parse target of [`ingest_datagram`](Self::ingest_datagram),
    /// kept so its vectors' capacity serves every digest (that capacity
    /// is what the largest digest parsed so far needed).
    report: ReceptionReport,
}

impl FeedbackAggregator {
    /// An aggregator for session `tsi` with a fresh controller.
    pub fn new(tsi: u32, config: AggregatorConfig, controller: ControllerConfig) -> Self {
        FeedbackAggregator {
            tsi,
            config: AggregatorConfig {
                idle_ticks: config.idle_ticks.max(1),
                max_receivers: config.max_receivers.max(1),
                nack_budget: config.nack_budget,
            },
            controller: AdaptiveController::new(controller),
            receivers: BTreeMap::new(),
            worst: None,
            tick: 0,
            active_floor: 0,
            heard_this_tick: 0,
            toi_complete: BTreeMap::new(),
            complete_overflow: BTreeSet::new(),
            session_complete_count: 0,
            outcome_recorded: BTreeSet::new(),
            completion_hist: [0; COMPLETION_BUCKETS],
            nack_union: BTreeMap::new(),
            stats: AggregateStats::default(),
            metrics: AggregatorMetrics::register(&Registry::disabled()),
            report: ReceptionReport::EMPTY,
        }
    }

    /// Starts recording aggregation activity into `registry`: the
    /// `fec_feedback_*` family (digest outcomes, tracked receivers,
    /// evictions, NACK symbols), the estimator's p/q and Wilson-CI
    /// gauges, and observation/replan/backoff/completion counts. Counters
    /// pick up from the current stats, so attaching mid-stream keeps the
    /// exported conservation invariant
    /// (`folded + accepted + deduped + foreign == ingested`) intact.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        let m = AggregatorMetrics::register(registry);
        m.observations.add(self.stats.observations);
        m.folded.add(self.stats.folded);
        m.accepted.add(self.stats.accepted);
        m.deduped.add(self.stats.deduped);
        m.foreign.add(self.stats.foreign);
        m.evicted.add(self.stats.evicted);
        m.nack_symbols.add(self.stats.nack_symbols);
        m.throttled.add(self.stats.throttled);
        m.receivers.set(self.receivers.len() as f64);
        self.metrics = m;
    }

    /// Parses and ingests one raw digest datagram from `src`.
    pub fn ingest_datagram(
        &mut self,
        src: SocketAddr,
        datagram: &[u8],
    ) -> Result<AggregateOutcome, FluteError> {
        let mut report = std::mem::replace(&mut self.report, ReceptionReport::EMPTY);
        let outcome = report
            .read_from(datagram)
            .map(|()| self.ingest(src, &report));
        self.report = report;
        outcome
    }

    /// The digest the last [`ingest_datagram`](Self::ingest_datagram)
    /// call parsed, for a caller that reports on it. Unspecified if that
    /// call returned an error.
    pub fn last_digest(&self) -> &ReceptionReport {
        &self.report
    }

    /// Ingests one parsed digest from `src`.
    pub fn ingest(&mut self, src: SocketAddr, report: &ReceptionReport) -> AggregateOutcome {
        self.stats.ingested += 1;
        if report.tsi != self.tsi {
            self.stats.foreign += 1;
            self.metrics.foreign.inc();
            return AggregateOutcome::ForeignSession;
        }

        // One walk of the receiver table: dedup, the cap and the update
        // all go through this entry. `population` counts the source.
        let tracked = self.receivers.len() as u64;
        let (state, old_bucket, population) = match self.receivers.entry(SourceKey::new(src)) {
            Entry::Occupied(entry) => {
                // Per-receiver dedup: a monotone report_seq guard per source.
                if report.report_seq <= entry.get().last_report_seq {
                    self.stats.deduped += 1;
                    self.metrics.deduped.inc();
                    return AggregateOutcome::Deduped;
                }
                if entry.get().last_active < self.tick {
                    self.heard_this_tick += 1;
                }
                let bucket = entry.get().completion_bucket();
                (entry.into_mut(), Some(bucket), tracked)
            }
            Entry::Vacant(entry) => {
                if tracked >= self.config.max_receivers as u64 {
                    // Over the cap: count the digest but do not track the
                    // source — the summary undercounts instead of the
                    // sender exhausting memory.
                    self.stats.accepted += 1;
                    self.metrics.accepted.inc();
                    return AggregateOutcome::Accepted;
                }
                self.heard_this_tick += 1;
                (
                    entry.insert(ReceiverState::new(self.tick)),
                    None,
                    tracked + 1,
                )
            }
        };
        if state.nack_window < self.tick {
            // A new tick window refreshes the source's NACK budget.
            state.nack_window = self.tick;
            state.nack_used = 0;
        }
        let mut nack_remaining = self.config.nack_budget.saturating_sub(state.nack_used);

        state.last_report_seq = report.report_seq;
        state.last_active = self.tick;
        let mut received = 0u64;
        let mut lost = 0u64;
        let mut objects = 0u32;
        let mut objects_complete = 0u32;
        let mut newly_population_complete = 0u64;
        for entry in &report.entries {
            received = received.saturating_add(entry.received as u64);
            lost = lost.saturating_add(entry.lost as u64);
            if entry.toi == FDT_TOI {
                continue;
            }
            objects = objects.saturating_add(1);
            if entry.complete {
                objects_complete = objects_complete.saturating_add(1);
                if note_receiver_completion(
                    &mut self.toi_complete,
                    &mut self.complete_overflow,
                    &mut self.outcome_recorded,
                    state,
                    src,
                    entry.toi,
                    population,
                ) {
                    newly_population_complete += 1;
                }
            }
        }
        state.received = received;
        state.lost = lost;
        state.objects = objects;
        state.objects_complete = objects_complete;
        if report.session_complete && !state.session_complete {
            state.session_complete = true;
            self.session_complete_count += 1;
        }

        // Completion histogram: move the receiver to its new bucket.
        if let Some(b) = old_bucket {
            if let Some(slot) = self.completion_hist.get_mut(b) {
                *slot = slot.saturating_sub(1);
            }
        }
        if let Some(slot) = self.completion_hist.get_mut(state.completion_bucket()) {
            *slot = slot.saturating_add(1);
        }

        // Worst-receiver comparison, in exact integer math.
        let folds = match self.worst {
            None => true,
            Some(w) if w.addr == src => true,
            Some(w) => {
                let lhs = (lost as u128) * ((w.lost + w.received).max(1) as u128);
                let rhs = (w.lost as u128) * ((lost + received).max(1) as u128);
                lhs > rhs || (lhs == rhs && src <= w.addr)
            }
        };

        // Union the NACK section (skip objects the population already
        // finished — a straggler's stale NACK must not reopen repair),
        // charging every submitted symbol against the source's per-tick
        // budget: a hostile source re-NACKing the whole object after
        // each repair drain gets throttled, not amplified.
        let mut fresh_symbols = 0u64;
        let mut throttled_symbols = 0u64;
        for nack in &report.nacks {
            if nack.toi != FDT_TOI
                && self
                    .toi_complete
                    .get(&nack.toi)
                    .is_some_and(|&count| covers(count, population))
            {
                continue;
            }
            if nack.esis.is_empty() {
                continue;
            }
            if nack_remaining == 0 {
                // Budget spent: count the whole section without touching
                // the union, so a throttled flood cannot even grow the
                // (toi, block) key space.
                throttled_symbols = throttled_symbols.saturating_add(nack.esis.len() as u64);
                continue;
            }
            let set = self.nack_union.entry((nack.toi, nack.block)).or_default();
            for &esi in &nack.esis {
                if nack_remaining == 0 {
                    throttled_symbols = throttled_symbols.saturating_add(1);
                    continue;
                }
                nack_remaining -= 1;
                if set.insert(esi) {
                    fresh_symbols += 1;
                }
            }
        }
        state.nack_used = self.config.nack_budget.saturating_sub(nack_remaining);
        self.metrics.receivers.set(population as f64);
        if fresh_symbols > 0 {
            self.stats.nack_symbols += fresh_symbols;
            self.metrics.nack_symbols.add(fresh_symbols);
        }
        if throttled_symbols > 0 {
            self.stats.throttled += throttled_symbols;
            self.metrics.throttled.add(throttled_symbols);
        }

        // Population-complete objects are the controller's positive
        // outcome signal, recorded once per TOI.
        for _ in 0..newly_population_complete {
            self.controller.record_outcome(true);
        }
        self.metrics.completed.add(newly_population_complete);

        if folds {
            self.worst = Some(Worst {
                addr: src,
                lost,
                received,
            });
            let observations = self.controller.observe_runs(report.run_pairs());
            self.stats.folded += 1;
            self.stats.observations += observations;
            let m = &self.metrics;
            m.folded.inc();
            m.observations.add(observations);
            if let Some(est) = self.controller.estimate() {
                m.p.set(est.params.p());
                m.q.set(est.params.q());
                m.p_upper.set(est.p_global_upper());
                m.p_ci_low.set(est.p_ci.lo);
                m.p_ci_high.set(est.p_ci.hi);
                m.q_ci_low.set(est.q_ci.lo);
                m.q_ci_high.set(est.q_ci.hi);
            }
            m.window
                .set(self.controller.estimator().window_len() as f64);
            AggregateOutcome::Folded { observations }
        } else {
            self.stats.accepted += 1;
            self.metrics.accepted.inc();
            AggregateOutcome::Accepted
        }
    }

    /// Advances the idle clock one tick and evicts receivers that have
    /// been silent for [`idle_ticks`](AggregatorConfig::idle_ticks) or
    /// more. Call once per replan round (or timer period). Returns the
    /// number of receivers evicted.
    ///
    /// The table is walked only when some receiver can be due: a tick
    /// after every tracked receiver reported, or within `idle_ticks` of
    /// the last sweep's oldest survivor, touches no receiver.
    pub fn advance_tick(&mut self) -> usize {
        if self.heard_this_tick == self.receivers.len() {
            // Everyone reported this tick: the oldest is exactly now.
            self.active_floor = self.tick;
        }
        self.heard_this_tick = 0;
        self.tick += 1;
        let deadline = self.tick.saturating_sub(self.config.idle_ticks);
        if deadline <= self.active_floor {
            return 0;
        }
        // One pass: every update below commutes, so eviction order does
        // not matter. The survivors' oldest tick is the new floor.
        let mut evicted = 0usize;
        let mut oldest = self.tick;
        self.receivers.retain(|&key, state| {
            if state.last_active >= deadline {
                oldest = oldest.min(state.last_active);
                return true;
            }
            evicted += 1;
            if let Some(slot) = self.completion_hist.get_mut(state.completion_bucket()) {
                *slot = slot.saturating_sub(1);
            }
            if state.session_complete {
                self.session_complete_count = self.session_complete_count.saturating_sub(1);
            }
            // Drop its completion votes so per-TOI population completion
            // keeps meaning "all *current* receivers".
            let mut mask = state.complete_mask;
            while mask != 0 {
                let toi = mask.trailing_zeros();
                mask &= mask - 1;
                if let Some(c) = self.toi_complete.get_mut(&toi) {
                    *c = c.saturating_sub(1);
                }
            }
            let addr = key.addr();
            while let Some(&(_, toi)) = self
                .complete_overflow
                .range((addr, 0)..=(addr, u32::MAX))
                .next()
            {
                self.complete_overflow.remove(&(addr, toi));
                if let Some(c) = self.toi_complete.get_mut(&toi) {
                    *c = c.saturating_sub(1);
                }
            }
            if self.worst.is_some_and(|w| w.addr == addr) {
                // The worst receiver left; the next accepted digest
                // re-seeds the comparison.
                self.worst = None;
            }
            false
        });
        self.active_floor = oldest;
        self.stats.evicted += evicted as u64;
        self.metrics.evicted.add(evicted as u64);
        self.metrics.receivers.set(self.receivers.len() as f64);
        evicted
    }

    /// The fleet-level view: receiver count, the worst receiver's loss and
    /// completion quantiles (10th/50th/90th percentile of per-receiver
    /// progress).
    pub fn summary(&self) -> PopulationSummary {
        let worst_loss = self
            .worst
            .map(|w| {
                let total = w.lost + w.received;
                if total == 0 {
                    0.0
                } else {
                    w.lost as f64 / total as f64
                }
            })
            .unwrap_or(0.0);
        PopulationSummary {
            receivers: self.receivers.len() as u64,
            worst_loss,
            completion_quantiles: [
                self.completion_quantile(0.10),
                self.completion_quantile(0.50),
                self.completion_quantile(0.90),
            ],
        }
    }

    /// The completion fraction at population quantile `q` (0..=1), from
    /// the 10%-bucket histogram.
    fn completion_quantile(&self, q: f64) -> f64 {
        let total: u64 = self.completion_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.completion_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (i as f64 / 10.0).min(1.0);
            }
        }
        1.0
    }

    /// Hands the controller the current population summary, reconsiders
    /// the tuple and re-plans a `k`-packet in-flight object (see
    /// [`AdaptiveController::replan`]).
    pub fn replan(&mut self, k: usize) -> Replan {
        self.metrics.replans.inc();
        self.controller.note_population(self.summary());
        self.controller.replan(k)
    }

    /// Records that an object's schedule was exhausted without the
    /// population completing it — the channel beat the plan.
    pub fn record_failure(&mut self) {
        self.controller.record_outcome(false);
        self.metrics.backoffs.inc();
    }

    /// Drains the unioned NACK requests as per-block missing-ESI lists,
    /// ascending `(toi, block)`, for targeted repair emission.
    pub fn take_nack_requests(&mut self) -> Vec<NackEntry> {
        let union = std::mem::take(&mut self.nack_union);
        union
            .into_iter()
            .filter(|((toi, _), _)| !self.is_complete(*toi))
            .map(|((toi, block), esis)| NackEntry {
                toi,
                block,
                esis: esis.into_iter().collect(),
            })
            .collect()
    }

    /// Whether every currently tracked receiver has reported `toi`
    /// complete (false while no receiver is tracked; a late joiner that
    /// has not completed it reopens the object).
    pub fn is_complete(&self, toi: u32) -> bool {
        let population = self.receivers.len() as u64;
        self.toi_complete
            .get(&toi)
            .is_some_and(|&count| covers(count, population))
    }

    /// TOIs complete across the whole currently tracked population.
    pub fn completed(&self) -> impl Iterator<Item = u32> + '_ {
        let population = self.receivers.len() as u64;
        self.toi_complete
            .iter()
            .filter(move |(_, &count)| covers(count, population))
            .map(|(&toi, _)| toi)
    }

    /// Whether every currently tracked receiver has reported the whole
    /// session complete (false while no receiver is tracked).
    pub fn session_complete(&self) -> bool {
        !self.receivers.is_empty() && self.session_complete_count >= self.receivers.len() as u64
    }

    /// Receivers currently tracked.
    pub fn receiver_count(&self) -> usize {
        self.receivers.len()
    }

    /// The current worst receiver, if any digest has arrived.
    pub fn worst_receiver(&self) -> Option<SocketAddr> {
        self.worst.map(|w| w.addr)
    }

    /// The controller driven by this aggregator.
    pub fn controller(&self) -> &AdaptiveController {
        &self.controller
    }

    /// Aggregation statistics so far.
    pub fn stats(&self) -> AggregateStats {
        self.stats
    }
}

/// Records one receiver's completion of `toi`, deduped; returns true
/// when this report makes the object complete across the whole tracked
/// `population` (the reporting receiver included) for the first time.
/// A function over the fields it touches, so it runs while the caller
/// holds the receiver's table entry.
fn note_receiver_completion(
    toi_complete: &mut BTreeMap<u32, u64>,
    complete_overflow: &mut BTreeSet<(SocketAddr, u32)>,
    outcome_recorded: &mut BTreeSet<u32>,
    state: &mut ReceiverState,
    src: SocketAddr,
    toi: u32,
    population: u64,
) -> bool {
    let first_time = if toi < 64 {
        let bit = 1u64 << toi;
        let fresh = state.complete_mask & bit == 0;
        state.complete_mask |= bit;
        fresh
    } else {
        complete_overflow.insert((src, toi))
    };
    if !first_time {
        return false;
    }
    let count = toi_complete.entry(toi).or_insert(0);
    *count += 1;
    covers(*count, population) && outcome_recorded.insert(toi)
}

/// Whether `count` completion votes cover all of `population` receivers
/// (an empty population never completes): the one population-completion
/// rule.
fn covers(count: u64, population: u64) -> bool {
    population > 0 && count >= population
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{LossRun, ReportEntry};

    fn addr(n: u16) -> SocketAddr {
        SocketAddr::from(([10, 0, (n >> 8) as u8, n as u8], 4000))
    }

    fn digest(seq: u32, lost: u32, received: u32) -> ReceptionReport {
        let mut runs = Vec::new();
        if received > 0 {
            runs.push(LossRun {
                lost: false,
                len: received,
            });
        }
        if lost > 0 {
            runs.push(LossRun {
                lost: true,
                len: lost,
            });
        }
        ReceptionReport {
            tsi: 7,
            report_seq: seq,
            highest_seq: Some((received + lost) % (1 << 24)),
            session_complete: false,
            truncated: false,
            entries: vec![ReportEntry {
                toi: 1,
                received,
                lost,
                complete: false,
            }],
            runs,
            nacks: vec![],
        }
    }

    fn agg() -> FeedbackAggregator {
        FeedbackAggregator::new(7, AggregatorConfig::default(), ControllerConfig::default())
    }

    /// A digest whose sketch is `n` × (99 received, 1 lost): ~1% loss in
    /// short bursts, 100 observations per repetition.
    fn light_digest(seq: u32, n: u32) -> ReceptionReport {
        let run = |lost, len| LossRun { lost, len };
        let mut d = digest(seq, seq * 10, seq * 90);
        d.runs = (0..n)
            .flat_map(|_| [run(false, 99), run(true, 1)])
            .collect();
        d
    }

    // The population-of-one cases: one fixed source address, the return
    // channel dropping, duplicating and reordering its digests.

    #[test]
    fn duplicates_and_reordering_are_deduped_at_one_source() {
        let mut a = agg();
        let r1 = light_digest(1, 2);
        let r2 = light_digest(2, 2);
        assert!(matches!(
            a.ingest(addr(1), &r1),
            AggregateOutcome::Folded { .. }
        ));
        let after_one = *a.controller().estimator().counts();
        assert_eq!(
            a.ingest(addr(1), &r1),
            AggregateOutcome::Deduped,
            "duplicate"
        );
        assert_eq!(
            a.controller().estimator().counts(),
            &after_one,
            "duplicate did not double-count"
        );
        assert!(matches!(
            a.ingest(addr(1), &r2),
            AggregateOutcome::Folded { .. }
        ));
        assert_eq!(
            a.ingest(addr(1), &r1),
            AggregateOutcome::Deduped,
            "reordered"
        );
        assert_eq!(a.stats().folded, 2);
        assert_eq!(a.stats().deduped, 2);
        assert_eq!(a.stats().observations, 400);
    }

    #[test]
    fn lost_digests_do_not_stall_replanning() {
        let mut a = FeedbackAggregator::new(
            7,
            AggregatorConfig::default(),
            ControllerConfig {
                min_observations: 500,
                ..ControllerConfig::default()
            },
        );
        // Digests 1..=3 lost in transit; 4 and 40 arrive.
        a.ingest(addr(1), &light_digest(4, 4));
        a.ingest(addr(1), &light_digest(40, 4));
        let replan = a.replan(10_000);
        assert_ne!(
            replan.reconsideration,
            fec_adapt::Reconsideration::NoEstimate
        );
        assert!(
            replan.plan.is_some(),
            "estimator kept working across losses"
        );
    }

    #[test]
    fn completion_records_outcomes_once() {
        let mut a = agg();
        // A failure arms the controller's backoff (2 successes to clear),
        // which makes every `record_outcome(true)` observable.
        a.record_failure();
        let mut r = light_digest(1, 1);
        r.entries[0].complete = true;
        r.entries.push(ReportEntry {
            toi: 0,
            received: 3,
            lost: 0,
            complete: true, // the FDT never counts as an object outcome
        });
        a.ingest(addr(1), &r);
        assert_eq!(a.completed().collect::<Vec<_>>(), vec![1]);
        assert!(a.is_complete(1));
        assert!(a.controller().in_backoff(), "one outcome, not two");
        // The same completion in a later digest is not a new outcome.
        let mut r2 = light_digest(2, 1);
        r2.entries[0].complete = true;
        r2.session_complete = true;
        a.ingest(addr(1), &r2);
        assert!(a.controller().in_backoff(), "still one outcome");
        assert!(a.session_complete());
    }

    #[test]
    fn ingest_datagram_roundtrips_the_wire() {
        let mut a = agg();
        let wire = light_digest(1, 3).to_bytes().unwrap();
        assert_eq!(
            a.ingest_datagram(addr(1), &wire).unwrap(),
            AggregateOutcome::Folded { observations: 300 }
        );
        assert_eq!(a.last_digest(), &light_digest(1, 3));
        assert!(a.ingest_datagram(addr(1), b"garbage").is_err());
    }

    /// The case a single shared `report_seq` never had: the lone receiver
    /// goes quiet for more than `idle_ticks` re-plan rounds (suppression
    /// backoff on a clean channel does exactly this), is evicted, and its
    /// next cumulative digest restores everything the eviction dropped.
    #[test]
    fn lone_receiver_is_retracked_after_eviction() {
        let mut a = FeedbackAggregator::new(
            7,
            AggregatorConfig {
                idle_ticks: 2,
                ..AggregatorConfig::default()
            },
            ControllerConfig::default(),
        );
        a.record_failure(); // arm the backoff: outcomes become countable
        let mut done = light_digest(1, 1);
        done.entries[0].complete = true;
        a.ingest(addr(1), &done);
        assert!(a.is_complete(1));
        assert!(a.controller().in_backoff());

        for _ in 0..3 {
            a.advance_tick();
        }
        assert_eq!(a.receiver_count(), 0, "silent receiver evicted");
        assert_eq!(a.stats().evicted, 1);
        assert!(!a.is_complete(1), "no population, no completion");
        assert!(!a.session_complete());

        // Digests are cumulative: the next one carries the completion
        // flag again and re-tracks the receiver in one step.
        let mut fin = light_digest(2, 1);
        fin.entries[0].complete = true;
        fin.session_complete = true;
        assert!(matches!(
            a.ingest(addr(1), &fin),
            AggregateOutcome::Folded { .. }
        ));
        assert_eq!(a.receiver_count(), 1);
        assert!(a.is_complete(1), "completion state restored");
        assert!(
            a.controller().in_backoff(),
            "re-tracking must not record the outcome a second time"
        );
        assert!(a.session_complete(), "the session still ends");
    }

    #[test]
    fn dedup_is_per_receiver() {
        let mut a = agg();
        let d1 = digest(1, 5, 95);
        assert!(matches!(
            a.ingest(addr(1), &d1),
            AggregateOutcome::Folded { .. }
        ));
        // The same seq from a *different* receiver is fresh.
        assert!(!matches!(a.ingest(addr(2), &d1), AggregateOutcome::Deduped));
        // The same seq from the same receiver is not.
        assert_eq!(a.ingest(addr(1), &d1), AggregateOutcome::Deduped);
        assert_eq!(a.receiver_count(), 2);
        let s = a.stats();
        assert_eq!(s.ingested, s.folded + s.accepted + s.deduped + s.foreign);
        assert_eq!(s.deduped, 1);
    }

    #[test]
    fn only_the_worst_receivers_sketch_folds() {
        let mut a = agg();
        // Receiver 1: 10% loss. Receiver 2: 1% loss. Receiver 3: 20%.
        assert!(matches!(
            a.ingest(addr(1), &digest(1, 10, 90)),
            AggregateOutcome::Folded { .. }
        ));
        let after_first = *a.controller().estimator().counts();
        assert_eq!(
            a.ingest(addr(2), &digest(1, 1, 99)),
            AggregateOutcome::Accepted,
            "a better receiver does not fold"
        );
        assert_eq!(
            a.controller().estimator().counts(),
            &after_first,
            "estimator untouched by the better receiver"
        );
        assert!(matches!(
            a.ingest(addr(3), &digest(1, 20, 80)),
            AggregateOutcome::Folded { .. }
        ));
        assert_eq!(a.worst_receiver(), Some(addr(3)));
        // The incumbent worst keeps folding its own later digests.
        assert!(matches!(
            a.ingest(addr(3), &digest(2, 40, 160)),
            AggregateOutcome::Folded { .. }
        ));
    }

    /// The worst receiver's cached counters follow its own digests: when
    /// the incumbent's loss falls, a receiver between its old and its
    /// new fraction takes over.
    #[test]
    fn improving_incumbent_yields_to_a_middle_receiver() {
        let mut a = agg();
        a.ingest(addr(1), &digest(1, 30, 70));
        assert_eq!(a.worst_receiver(), Some(addr(1)));
        assert_eq!(
            a.ingest(addr(2), &digest(1, 20, 80)),
            AggregateOutcome::Accepted,
            "20% does not beat 30%"
        );
        assert!(matches!(
            a.ingest(addr(1), &digest(2, 5, 95)),
            AggregateOutcome::Folded { .. }
        ));
        assert_eq!(a.worst_receiver(), Some(addr(1)), "the incumbent stays");
        assert_eq!(a.summary().worst_loss, 0.05);
        assert!(
            matches!(
                a.ingest(addr(2), &digest(2, 20, 80)),
                AggregateOutcome::Folded { .. }
            ),
            "20% beats the incumbent's new 5%"
        );
        assert_eq!(a.worst_receiver(), Some(addr(2)));
        assert_eq!(a.summary().worst_loss, 0.2);
    }

    #[test]
    fn worst_ties_break_deterministically_by_key() {
        let mut a = agg();
        a.ingest(addr(5), &digest(1, 10, 90));
        assert_eq!(a.worst_receiver(), Some(addr(5)));
        // Same fraction, lower address: takes over.
        a.ingest(addr(2), &digest(1, 10, 90));
        assert_eq!(a.worst_receiver(), Some(addr(2)));
        // Same fraction, higher address: incumbent stays.
        a.ingest(addr(9), &digest(1, 10, 90));
        assert_eq!(a.worst_receiver(), Some(addr(2)));
    }

    #[test]
    fn idle_receivers_are_evicted_and_completion_adjusts() {
        let mut a = FeedbackAggregator::new(
            7,
            AggregatorConfig {
                idle_ticks: 2,
                ..AggregatorConfig::default()
            },
            ControllerConfig::default(),
        );
        let mut done = digest(1, 0, 100);
        done.entries[0].complete = true;
        done.session_complete = true;
        a.ingest(addr(1), &done);
        a.ingest(addr(2), &digest(1, 3, 97));
        assert!(!a.is_complete(1), "receiver 2 is still missing it");
        assert!(!a.session_complete());
        // Receiver 2 goes silent; receiver 1 keeps reporting.
        for seq in 2..6 {
            a.advance_tick();
            let mut d = digest(seq, 0, 100);
            d.entries[0].complete = true;
            d.session_complete = true;
            a.ingest(addr(1), &d);
        }
        assert_eq!(a.receiver_count(), 1, "idle receiver evicted");
        assert!(a.stats().evicted >= 1);
        assert!(
            a.session_complete(),
            "the remaining population is all complete"
        );
    }

    /// TOIs ≥ 64 are deduped outside the per-receiver mask: evicting a
    /// receiver drops exactly its completion votes there, so completion
    /// then follows the survivor.
    #[test]
    fn evicting_a_receiver_drops_its_high_toi_completions() {
        let config = AggregatorConfig {
            idle_ticks: 2,
            ..AggregatorConfig::default()
        };
        let mut a = FeedbackAggregator::new(7, config, ControllerConfig::default());
        let high = |seq: u32, done_200: bool| {
            let mut d = digest(seq, 0, 100);
            let entry = |toi, complete| ReportEntry {
                toi,
                received: 50,
                lost: 0,
                complete,
            };
            d.entries = vec![entry(70, true), entry(200, done_200)];
            d
        };
        a.ingest(addr(1), &high(1, false));
        a.ingest(addr(2), &high(1, true));
        assert!(a.is_complete(70));
        assert!(!a.is_complete(200), "receiver 1 is still missing it");
        // Receiver 2 goes silent; receiver 1 keeps reporting.
        for seq in 2..6 {
            a.advance_tick();
            a.ingest(addr(1), &high(seq, false));
        }
        assert_eq!(a.receiver_count(), 1, "idle receiver evicted");
        assert!(
            !a.is_complete(200),
            "the evicted receiver's vote went with it"
        );
        assert_eq!(a.completed().collect::<Vec<_>>(), vec![70]);
        a.ingest(addr(1), &high(6, true));
        assert_eq!(a.completed().collect::<Vec<_>>(), vec![70, 200]);
    }

    #[test]
    fn population_completion_requires_everyone() {
        let mut a = agg();
        let mut done = digest(1, 0, 100);
        done.entries[0].complete = true;
        a.ingest(addr(1), &done);
        assert!(a.is_complete(1), "population of one");
        let mut a = agg();
        a.ingest(addr(1), &digest(1, 0, 100));
        a.ingest(addr(2), &digest(1, 0, 100));
        let mut done = digest(2, 0, 200);
        done.entries[0].complete = true;
        a.ingest(addr(1), &done.clone());
        assert!(!a.is_complete(1), "half the population");
        a.ingest(addr(2), &done);
        assert!(a.is_complete(1), "everyone");
    }

    #[test]
    fn nacks_union_across_receivers_and_drain_once() {
        let mut a = agg();
        let mut d1 = digest(1, 5, 95);
        d1.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![3, 7],
        }];
        let mut d2 = digest(1, 2, 98);
        d2.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![7, 9],
        }];
        a.ingest(addr(1), &d1);
        a.ingest(addr(2), &d2);
        assert_eq!(a.stats().nack_symbols, 3, "7 unioned once");
        let reqs = a.take_nack_requests();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].esis, vec![3, 7, 9]);
        assert!(a.take_nack_requests().is_empty(), "drained");
    }

    #[test]
    fn summary_reports_count_worst_and_quantiles() {
        let mut a = agg();
        for i in 0..10u16 {
            let mut d = digest(1, if i == 9 { 30 } else { 0 }, 100);
            // Receivers 0..5 complete, the rest not.
            d.entries[0].complete = i < 5;
            a.ingest(addr(i), &d);
        }
        let s = a.summary();
        assert_eq!(s.receivers, 10);
        assert!((s.worst_loss - 30.0 / 130.0).abs() < 1e-9);
        assert_eq!(s.completion_quantiles[0], 0.0, "p10: an incomplete one");
        assert_eq!(s.completion_quantiles[2], 1.0, "p90: a complete one");
    }

    #[test]
    fn prometheus_surface_conserves_digest_outcomes() {
        use fec_telemetry::Registry;

        let mut a = FeedbackAggregator::new(
            7,
            AggregatorConfig {
                idle_ticks: 1,
                ..AggregatorConfig::default()
            },
            ControllerConfig::default(),
        );
        // Pre-telemetry traffic: the attach must back-fill it.
        a.ingest(addr(1), &digest(1, 5, 95));
        a.ingest(addr(1), &digest(1, 5, 95)); // dedup
        let registry = Registry::new();
        a.attach_telemetry(&registry);
        // Post-attach traffic across every outcome.
        let mut foreign = digest(2, 1, 9);
        foreign.tsi = 8;
        a.ingest(addr(1), &foreign);
        a.ingest(addr(2), &digest(1, 0, 100)); // accepted (not worst)
        let mut nacked = digest(2, 6, 94);
        nacked.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![4, 8],
        }];
        a.ingest(addr(1), &nacked); // folded, with NACK symbols
        a.replan(100);
        a.record_failure();
        a.advance_tick();
        a.advance_tick(); // everyone idle -> evicted

        let s = a.stats();
        assert_eq!(s.ingested, s.folded + s.accepted + s.deduped + s.foreign);
        let text = registry.render_prometheus();
        let scrape = |outcome: &str| -> u64 {
            let needle = format!("fec_feedback_digests_total{{outcome=\"{outcome}\"}} ");
            let line = text
                .lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("missing {needle:?} in:\n{text}"));
            line[needle.len()..].trim().parse().expect("integer sample")
        };
        // The exported family mirrors the stats exactly, so the
        // conservation invariant holds on the scraped surface too.
        let exported: u64 = ["folded", "accepted", "deduped", "foreign"]
            .iter()
            .map(|o| scrape(o))
            .sum();
        assert_eq!(exported, s.ingested, "scraped outcomes sum to ingested");
        assert_eq!(scrape("folded"), s.folded);
        assert_eq!(scrape("accepted"), s.accepted);
        assert_eq!(scrape("deduped"), s.deduped);
        assert_eq!(scrape("foreign"), s.foreign);
        for line in [
            format!("fec_feedback_receivers {}", a.receiver_count()),
            format!("fec_feedback_evicted_total {}", s.evicted),
            format!("fec_feedback_nack_symbols_total {}", s.nack_symbols),
            // The estimator/controller series ride the same consumer,
            // pre-attach observations back-filled.
            format!("fec_observations_total {}", s.observations),
            format!(
                "fec_estimator_window {}",
                a.controller().estimator().window_len()
            ),
            "fec_estimator_p ".to_string(),
            "fec_replans_total 1".to_string(),
            "fec_backoffs_total 1".to_string(),
            "fec_objects_completed_total 0".to_string(),
        ] {
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }
        assert!(s.evicted >= 2 && s.nack_symbols == 2);
    }

    #[test]
    fn hostile_nack_flood_is_throttled_per_source() {
        let mut a = FeedbackAggregator::new(
            7,
            AggregatorConfig {
                nack_budget: 100,
                ..AggregatorConfig::default()
            },
            ControllerConfig::default(),
        );
        let registry = fec_telemetry::Registry::new();
        a.attach_telemetry(&registry);

        // A spoofed source NACKs 300 symbols at once: only the first 100
        // land in the union, the rest are counted as throttled.
        let mut flood = digest(1, 50, 50);
        flood.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: (0..300).collect(),
        }];
        a.ingest(addr(1), &flood);
        assert_eq!(a.stats().nack_symbols, 100, "budget caps fresh symbols");
        assert_eq!(a.stats().throttled, 200, "excess is counted, not queued");
        let reqs = a.take_nack_requests();
        let queued: usize = reqs.iter().map(|r| r.esis.len()).sum();
        assert_eq!(queued, 100, "only budgeted symbols reach repair");

        // Re-flooding inside the same tick window gets nothing: the
        // budget is spent, so the drain/re-NACK amplification loop is
        // closed.
        let mut again = digest(2, 50, 50);
        again.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: (0..300).collect(),
        }];
        a.ingest(addr(1), &again);
        assert_eq!(a.stats().nack_symbols, 100, "no budget left this window");
        assert_eq!(a.stats().throttled, 500);

        // An honest source is unaffected by the hostile one's spend.
        let mut honest = digest(1, 3, 97);
        honest.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![400, 401, 402],
        }];
        a.ingest(addr(2), &honest);
        assert_eq!(a.stats().nack_symbols, 103, "budgets are per source");
        assert_eq!(a.stats().throttled, 500);

        // A new tick window refreshes the hostile source's budget.
        a.advance_tick();
        let mut after = digest(3, 50, 50);
        after.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: (500..550).collect(),
        }];
        a.ingest(addr(1), &after);
        assert_eq!(a.stats().nack_symbols, 153, "budget refreshed per tick");
        assert_eq!(a.stats().throttled, 500);

        let text = registry.render_prometheus();
        assert!(
            text.contains("fec_feedback_throttled_total 500"),
            "throttle counter must export: {text}"
        );
    }

    #[test]
    fn zero_budget_disables_nack_ingestion() {
        let mut a = FeedbackAggregator::new(
            7,
            AggregatorConfig {
                nack_budget: 0,
                ..AggregatorConfig::default()
            },
            ControllerConfig::default(),
        );
        let mut d = digest(1, 10, 90);
        d.nacks = vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![1, 2, 3],
        }];
        a.ingest(addr(1), &d);
        assert_eq!(a.stats().nack_symbols, 0);
        assert_eq!(a.stats().throttled, 3);
        assert!(a.take_nack_requests().is_empty());
    }

    #[test]
    fn foreign_and_conservation() {
        let mut a = agg();
        let mut d = digest(1, 1, 9);
        d.tsi = 8;
        assert_eq!(a.ingest(addr(1), &d), AggregateOutcome::ForeignSession);
        assert_eq!(a.controller().estimator().window_len(), 0);
        assert_eq!(a.receiver_count(), 0, "a foreign source is not tracked");
        a.ingest(addr(1), &digest(1, 1, 9));
        a.ingest(addr(1), &digest(1, 1, 9));
        a.ingest(addr(2), &digest(1, 0, 10));
        let s = a.stats();
        assert_eq!(s.ingested, 4);
        assert_eq!(s.ingested, s.folded + s.accepted + s.deduped + s.foreign);
        assert_eq!(s.foreign, 1);
    }
}
