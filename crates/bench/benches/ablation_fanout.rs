//! Million-receiver fan-out ablation: digest aggregation, feedback
//! suppression, and NACK-driven targeted repair.
//!
//! Three claims from the fan-out design, each measured and gated:
//!
//! 1. **Feedback suppression is sublinear.** With the population-scaled
//!    poll threshold (`report_every × n / log₂ n`), per-receiver jitter
//!    and clean-channel backoff, the *aggregate* digest byte rate across
//!    `n` receivers grows like `c · log n`, not `n`. Measured on a
//!    stratified sample of fully simulated receivers (each with its own
//!    forked Gilbert state) at n = 10⁴ / 10⁵ / 10⁶ and gated on the
//!    10⁴ → 10⁶ ratio.
//! 2. **Sender-side aggregation is cheap at scale.** Ingesting one
//!    serialized digest from every one of `n` distinct receivers costs
//!    O(1) estimator work per digest (only the worst receiver's sketch
//!    folds); the bench times ingest per digest, the steady tick (every
//!    receiver reported, so nothing is due) and the eviction sweep (every
//!    receiver due) at each tier, records the resident bytes the table
//!    adds per receiver, and checks the aggregator's conservation
//!    invariant. Ingest is timed twice: the round that registers the
//!    population, where every new worst receiver folds its whole sketch
//!    into the estimator (a fixed cost that dominates small tiers), and
//!    a steady round from the registered population, where one does.
//! 3. **NACK mode beats the whole schedule at equal delivery.** A
//!    10⁴-receiver fate-simulated population (plus 16 real
//!    `FluteReceiver`s behind forked `LinkEmulator`s, checked
//!    byte-exact) completes an object from a population-cushioned plan
//!    plus targeted repair in fewer multicast packets than the full
//!    static schedule.
//!
//! `FEC_FANOUT_SMOKE=1` runs reduced tiers for CI; results land in
//! `BENCH_fanout.json` at the repo root either way.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

use fec_adapt::ControllerConfig;
use fec_channel::{fork_seed, GilbertChannel, GilbertParams, LinkEmulator, LossModel};
use fec_core::{CodeSpec, ExpansionRatio};
use fec_flute::feedback::{
    AggregatorConfig, FeedbackAggregator, LossRun, NackEntry, ReceptionReport, ReportConfig,
    ReportEmitter, ReportEntry, SEQ_MODULUS,
};
use fec_flute::{AlcPacket, FluteReceiver, FluteSender, SenderConfig, FDT_TOI};
use fec_sched::TxModel;

const TSI: u32 = 7;
const REPORT_EVERY: usize = 64;

/// The three loss classes a large receiver population stratifies into
/// (weights: ~90% mild, ~9% mid, ~1% bad).
fn mild() -> GilbertParams {
    GilbertParams::new(0.005, 0.6).expect("valid")
}
fn mid() -> GilbertParams {
    GilbertParams::new(0.02, 0.4).expect("valid")
}
fn bad() -> GilbertParams {
    GilbertParams::new(0.05, 0.35).expect("valid")
}
/// One deliberately awful tail receiver (~45% loss) that NACK mode must
/// serve without inflating the multicast plan for everyone else: the
/// population-cushioned plan leaves it short, and targeted repair
/// closes exactly its deficit.
fn awful() -> GilbertParams {
    GilbertParams::new(0.25, 0.30).expect("valid")
}

fn class_of(i: u64) -> GilbertParams {
    match i % 100 {
        0..=89 => mild(),
        90..=98 => mid(),
        _ => bad(),
    }
}

/// splitmix-style mixer for per-receiver digest variation.
fn mix(x: u64) -> u64 {
    fork_seed(0x5EED_F00D, x)
}

fn log2(n: f64) -> f64 {
    n.ln() / 2f64.ln()
}

// ---------------------------------------------------------------------
// Phase 1a: feedback suppression, measured on a stratified sample.
// ---------------------------------------------------------------------

struct SuppressionResult {
    sampled: usize,
    offered_per_receiver: u64,
    digests_per_receiver: f64,
    mean_digest_bytes: f64,
    mean_threshold: f64,
    /// Aggregate digests per 1000 multicast packets across the whole
    /// population (n × per-receiver digest rate × 1000).
    digests_per_1k_population: f64,
    /// Aggregate feedback bytes per 1000 multicast packets.
    bytes_per_1k_population: f64,
}

fn measure_suppression(n: u64, window_mult: f64) -> SuppressionResult {
    // 24 fully simulated receivers, stratified like the population.
    let classes: Vec<GilbertParams> = (0..20)
        .map(|_| mild())
        .chain((0..3).map(|_| mid()))
        .chain(std::iter::once(bad()))
        .collect();
    let base_threshold = (REPORT_EVERY as f64 * n as f64 / log2(n as f64)).ceil();
    let window = (window_mult * base_threshold) as u64;

    let mut offered_total = 0u64;
    let mut digests_total = 0u64;
    let mut bytes_total = 0u64;
    let mut threshold_sum = 0f64;
    for (i, params) in classes.iter().enumerate() {
        let mut ch = GilbertChannel::new_stationary(*params, fork_seed(n, i as u64));
        let mut em = ReportEmitter::new(
            TSI,
            ReportConfig {
                report_every: REPORT_EVERY,
                // Fan-out digests must be constant-size: the run sketch
                // is capped (cumulative counters stay exact) so
                // aggregate bytes track the digest *rate*, i.e. log n.
                max_runs: 64,
                population_hint: n,
                jitter_seed: fork_seed(n, 1000 + i as u64),
                max_backoff_exp: 2,
            },
        );
        for seq in 0..window {
            offered_total += 1;
            if ch.next_is_lost() {
                continue;
            }
            em.observe_on(0, 1, Some((seq % SEQ_MODULUS as u64) as u32));
            if let Some(d) = em.poll() {
                digests_total += 1;
                bytes_total += d.to_bytes().expect("digest serializes").len() as u64;
            }
        }
        threshold_sum += em.current_threshold() as f64;
    }
    assert!(
        digests_total >= classes.len() as u64,
        "every sampled receiver reports at least once within the window"
    );
    let digest_rate = digests_total as f64 / offered_total as f64;
    let mean_bytes = bytes_total as f64 / digests_total as f64;
    SuppressionResult {
        sampled: classes.len(),
        offered_per_receiver: window,
        digests_per_receiver: digests_total as f64 / classes.len() as f64,
        mean_digest_bytes: mean_bytes,
        mean_threshold: threshold_sum / classes.len() as f64,
        digests_per_1k_population: n as f64 * digest_rate * 1000.0,
        bytes_per_1k_population: n as f64 * digest_rate * mean_bytes * 1000.0,
    }
}

// ---------------------------------------------------------------------
// Phase 1b: aggregation CPU with one digest from each of n receivers.
// ---------------------------------------------------------------------

struct AggregationResult {
    digests: u64,
    build_ns_per_digest: f64,
    /// The registering round: new receivers, each new worst one folding.
    register_ns_per_digest: f64,
    /// A steady round: every source tracked, only the worst folding.
    ingest_ns_per_digest: f64,
    evict_ns_per_receiver: f64,
    steady_tick_ns: f64,
    /// Resident-set growth across the registering loop per receiver:
    /// what tracking one receiver costs, digests excluded (they are
    /// built before the first read).
    table_bytes_per_receiver: f64,
    folded: u64,
    accepted: u64,
    nack_entries: usize,
    rss_mb: f64,
}

fn receiver_addr(i: u64) -> SocketAddr {
    SocketAddr::from((
        [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
        4000 + (i >> 24) as u16,
    ))
}

/// Receiver `i`'s digest number `report_seq`; its counters do not
/// depend on the number, so a later digest never changes the worst.
fn synthesized_digest(i: u64, report_seq: u32) -> ReceptionReport {
    let r = mix(i);
    let received = 40_000 + (r % 20_000) as u32;
    let lost = match i % 1000 {
        0..=899 => (r % 50) as u32,
        900..=989 => 500 + (r % 500) as u32,
        _ => 5_000 + (r % 2_000) as u32,
    };
    let nacks = if i.is_multiple_of(128) {
        let lo = 64 + (r % 32) as u32;
        let hi = 100 + (r % 16) as u32;
        vec![NackEntry {
            toi: 1,
            block: (i % 4) as u32,
            esis: vec![lo, hi],
        }]
    } else {
        Vec::new()
    };
    ReceptionReport {
        tsi: TSI,
        report_seq,
        highest_seq: Some(((received + lost) as u64 % SEQ_MODULUS as u64) as u32),
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

fn rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn measure_aggregation(n: u64) -> AggregationResult {
    let t0 = Instant::now();
    let mut addrs = Vec::with_capacity(n as usize);
    let mut digests = Vec::with_capacity(n as usize);
    for i in 0..n {
        addrs.push(receiver_addr(i));
        digests.push(synthesized_digest(i, 1).to_bytes().expect("serializes"));
    }
    let build_ns = t0.elapsed().as_nanos() as f64 / n as f64;

    let mut agg = FeedbackAggregator::new(
        TSI,
        AggregatorConfig::default(),
        ControllerConfig::default(),
    );
    let rss_before = rss_kib();
    let t1 = Instant::now();
    for (addr, bytes) in addrs.iter().zip(&digests) {
        agg.ingest_datagram(*addr, bytes)
            .expect("well-formed digest");
    }
    let register_ns = t1.elapsed().as_nanos() as f64 / n as f64;
    let rss = rss_kib();

    let s = agg.stats();
    assert_eq!(s.ingested, n, "every digest counted");
    assert_eq!(
        s.ingested,
        s.folded + s.accepted + s.deduped + s.foreign,
        "outcome conservation"
    );
    assert_eq!(s.deduped + s.foreign, 0, "distinct receivers, same session");
    assert_eq!(agg.receiver_count() as u64, n, "all receivers tracked");
    let requests = agg.take_nack_requests();
    assert!(!requests.is_empty(), "1/128 receivers NACKed");
    let nack_entries = requests.len();

    // The steady round: every source tracked, the worst folding alone.
    drop(digests);
    let digests: Vec<Vec<u8>> = (0..n)
        .map(|i| synthesized_digest(i, 2).to_bytes().expect("serializes"))
        .collect();
    let t1 = Instant::now();
    for (addr, bytes) in addrs.iter().zip(&digests) {
        agg.ingest_datagram(*addr, bytes)
            .expect("well-formed digest");
    }
    let ingest_ns = t1.elapsed().as_nanos() as f64 / n as f64;
    let steady = agg.stats();
    assert_eq!(steady.folded - s.folded, 1, "only the worst folds");
    assert_eq!(steady.accepted - s.accepted, n - 1, "everyone else updates");

    // Every receiver reported this tick: the steady tick finds nobody due.
    let t2 = Instant::now();
    let steady_evicted = agg.advance_tick();
    let steady_tick_ns = t2.elapsed().as_nanos() as f64;
    assert_eq!(steady_evicted, 0, "a fully heard tick evicts nobody");

    // Silent from here on: the idle_ticks-th tick after the steady one
    // finds every receiver due, and its sweep evicts them all.
    for _ in 1..AggregatorConfig::default().idle_ticks {
        assert_eq!(agg.advance_tick(), 0, "nobody due before idle_ticks");
    }
    let t3 = Instant::now();
    let evicted = agg.advance_tick();
    let evict_ns = t3.elapsed().as_nanos() as f64 / n as f64;
    assert_eq!(evicted as u64, n, "idle receivers all evicted");
    assert_eq!(agg.receiver_count(), 0);

    AggregationResult {
        digests: n,
        build_ns_per_digest: build_ns,
        register_ns_per_digest: register_ns,
        ingest_ns_per_digest: ingest_ns,
        evict_ns_per_receiver: evict_ns,
        steady_tick_ns,
        table_bytes_per_receiver: (rss - rss_before).max(0.0) * 1024.0 / n as f64,
        folded: s.folded,
        accepted: s.accepted,
        nack_entries,
        rss_mb: rss / 1024.0,
    }
}

// ---------------------------------------------------------------------
// Phase 2: NACK-driven targeted repair vs the whole static schedule.
// ---------------------------------------------------------------------

const K_SOURCE: usize = 200;
const SYMBOL_SIZE: usize = 8;
const SCHEDULE_SEED: u64 = 11;
const MATRIX_SEED: u64 = 99;
const REAL_RECEIVERS: usize = 16;

/// A fate-only receiver: an MDS code decodes a block once k distinct
/// ESIs arrive, so per-receiver state is one bitmap per block plus the
/// counters and run sketch its digests need.
struct FateReceiver {
    ch: GilbertChannel,
    have: Vec<[u64; 4]>,
    have_cnt: Vec<u16>,
    received: u32,
    lost: u32,
    runs: Vec<LossRun>,
    run_truncated: bool,
    seq: u32,
    reported_complete: bool,
}

impl FateReceiver {
    fn new(i: u64, seed: u64, blocks: usize) -> FateReceiver {
        FateReceiver {
            ch: GilbertChannel::new_stationary(class_of(i), fork_seed(seed, i)),
            have: vec![[0u64; 4]; blocks],
            have_cnt: vec![0u16; blocks],
            received: 0,
            lost: 0,
            runs: Vec::new(),
            run_truncated: false,
            seq: 0,
            reported_complete: false,
        }
    }

    fn push_run(&mut self, lost: bool) {
        if let Some(r) = self.runs.last_mut() {
            if r.lost == lost {
                r.len += 1;
                return;
            }
        }
        if self.runs.len() < 512 {
            self.runs.push(LossRun { lost, len: 1 });
        } else {
            self.run_truncated = true;
        }
    }

    fn offer(&mut self, block: usize, esi: u32) {
        let lost = self.ch.next_is_lost();
        self.push_run(lost);
        if lost {
            self.lost += 1;
            return;
        }
        self.received += 1;
        let (word, bit) = (esi as usize / 64 % 4, 1u64 << (esi % 64));
        if self.have[block][word] & bit == 0 {
            self.have[block][word] |= bit;
            self.have_cnt[block] += 1;
        }
    }

    fn complete(&self, layout: &[(usize, usize)]) -> bool {
        self.have_cnt
            .iter()
            .zip(layout)
            .all(|(&have, &(k, _))| have as usize >= k)
    }

    /// Mirrors `FluteReceiver::missing_symbols`: up to `k - have`
    /// not-yet-received ESIs per short block, lowest first.
    fn nacks(&self, layout: &[(usize, usize)]) -> Vec<NackEntry> {
        let mut out = Vec::new();
        for (b, &(k, n)) in layout.iter().enumerate() {
            let have = self.have_cnt[b] as usize;
            if have >= k {
                continue;
            }
            let esis: Vec<u32> = (0..n as u32)
                .filter(|&esi| self.have[b][esi as usize / 64 % 4] & (1u64 << (esi % 64)) == 0)
                .take(k - have)
                .collect();
            out.push(NackEntry {
                toi: 1,
                block: b as u32,
                esis,
            });
        }
        out
    }

    fn digest(
        &mut self,
        layout: &[(usize, usize)],
        with_runs: bool,
        with_nacks: bool,
    ) -> ReceptionReport {
        self.seq += 1;
        let complete = self.complete(layout);
        ReceptionReport {
            tsi: TSI,
            report_seq: self.seq,
            highest_seq: Some((self.received + self.lost) % SEQ_MODULUS),
            session_complete: complete,
            truncated: with_runs && self.run_truncated,
            entries: vec![ReportEntry {
                toi: 1,
                received: self.received,
                lost: self.lost,
                complete,
            }],
            runs: if with_runs {
                std::mem::take(&mut self.runs)
            } else {
                Vec::new()
            },
            nacks: if with_nacks && !complete {
                self.nacks(layout)
            } else {
                Vec::new()
            },
        }
    }
}

fn fate_addr(i: u64) -> SocketAddr {
    SocketAddr::from(([10, 200, (i >> 8) as u8, i as u8], 5000 + (i >> 16) as u16))
}

fn real_addr(i: usize) -> SocketAddr {
    SocketAddr::from(([10, 99, 0, i as u8], 6000))
}

fn object_bytes() -> Vec<u8> {
    (0..K_SOURCE * SYMBOL_SIZE)
        .map(|i| (i.wrapping_mul(31).wrapping_add(7)) as u8)
        .collect()
}

fn make_sender(data: &[u8]) -> FluteSender {
    let mut sender = FluteSender::new(SenderConfig::new(TSI));
    sender
        .add_object(
            1,
            "file:///fanout.bin",
            data,
            fec_codec::builtin::rse(),
            ExpansionRatio::R2_5,
            SYMBOL_SIZE,
            MATRIX_SEED,
            TxModel::Interleaved,
        )
        .expect("object fits");
    sender
}

fn make_real_links(seed: u64) -> Vec<LinkEmulator> {
    // 15 decorrelated forks of one mild template, plus the awful tail
    // receiver the plan must not be inflated for.
    let template = LinkEmulator::new(Box::new(GilbertChannel::new_stationary(mild(), seed)), seed);
    let mut links: Vec<LinkEmulator> = (0..REAL_RECEIVERS - 1)
        .map(|i| template.fork(i as u64 + 1).expect("gilbert forks"))
        .collect();
    links.push(LinkEmulator::new(
        Box::new(GilbertChannel::new_stationary(
            awful(),
            fork_seed(seed, 999),
        )),
        fork_seed(seed, 1000),
    ));
    links
}

fn make_real_receivers() -> Vec<FluteReceiver> {
    (0..REAL_RECEIVERS)
        .map(|_| {
            let mut rx = FluteReceiver::new(TSI);
            rx.enable_reports(ReportConfig {
                report_every: usize::MAX / 2, // polled manually via flush
                ..ReportConfig::default()
            });
            rx.enable_nacks();
            rx
        })
        .collect()
}

struct Population {
    fates: Vec<FateReceiver>,
    links: Vec<LinkEmulator>,
    reals: Vec<FluteReceiver>,
    data_packets: u64,
    fdt_packets: u64,
}

impl Population {
    fn new(m: usize, seed: u64, blocks: usize) -> Population {
        Population {
            fates: (0..m)
                .map(|i| FateReceiver::new(i as u64, seed, blocks))
                .collect(),
            links: make_real_links(seed),
            reals: make_real_receivers(),
            data_packets: 0,
            fdt_packets: 0,
        }
    }

    fn deliver(&mut self, dg: &[u8]) {
        let packet = AlcPacket::from_bytes(dg).expect("sender emits valid ALC");
        if packet.header.toi == FDT_TOI {
            self.fdt_packets += 1;
        } else {
            self.data_packets += 1;
            let pid = packet.payload_id.expect("data packets carry a payload id");
            for f in &mut self.fates {
                f.offer(pid.sbn as usize, pid.esi);
            }
        }
        for (link, rx) in self.links.iter_mut().zip(&mut self.reals) {
            for out in link.transmit_batch(&[dg]) {
                rx.push_datagram(&out).expect("valid datagram");
            }
        }
    }
}

struct NackRunResult {
    whole_schedule_packets: u64,
    nack_mode_packets: u64,
    planned_target: u64,
    repairs_sent: u64,
    nack_rounds: u32,
    feedback_digests: u64,
    feedback_bytes: u64,
    schedule_len: u64,
}

fn measure_nack_vs_whole(m: usize, seed: u64) -> NackRunResult {
    let data = object_bytes();
    let spec = CodeSpec::rse(K_SOURCE, ExpansionRatio::R2_5);
    let layout_full = spec.layout().expect("rse layout");
    let layout: Vec<(usize, usize)> = (0..layout_full.num_blocks())
        .map(|b| layout_full.block(b))
        .collect();
    assert!(
        layout.iter().all(|&(_, n)| n <= 256),
        "fate bitmaps are 256-wide"
    );
    let schedule_len = layout_full.total_packets();

    // ---- Run A: the full static schedule, no feedback at all. ----
    let sender = make_sender(&data);
    let mut stream = sender.stream(SCHEDULE_SEED);
    let mut pop = Population::new(m, seed, layout.len());
    let fdt = stream.fdt_datagram().expect("fdt");
    for rx in &mut pop.reals {
        rx.push_datagram(&fdt).expect("fdt parses");
    }
    while let Some(dg) = stream.next_datagram().expect("stream ok") {
        pop.deliver(&dg);
    }
    let whole_schedule_packets = pop.data_packets;
    assert_eq!(
        whole_schedule_packets, schedule_len,
        "full schedule emitted"
    );
    for (i, f) in pop.fates.iter().enumerate() {
        assert!(
            f.complete(&layout),
            "whole-schedule run must deliver receiver {i} (class {:?})",
            class_of(i as u64)
        );
    }
    for (i, rx) in pop.reals.iter().enumerate() {
        assert_eq!(
            rx.object(1).expect("decoded"),
            &data[..],
            "run A receiver {i} byte-exact"
        );
    }

    // ---- Run B: source + population-cushioned plan + targeted repair. ----
    let sender = make_sender(&data);
    let mut stream = sender.stream(SCHEDULE_SEED);
    let mut pop = Population::new(m, seed, layout.len());
    let mut agg = FeedbackAggregator::new(
        TSI,
        AggregatorConfig::default(),
        ControllerConfig {
            min_observations: 150,
            assumed_inefficiency: 1.0, // RSE is MDS
            ..ControllerConfig::default()
        },
    );
    let mut feedback_digests = 0u64;
    let mut feedback_bytes = 0u64;

    let fdt = stream.fdt_datagram().expect("fdt");
    for rx in &mut pop.reals {
        rx.push_datagram(&fdt).expect("fdt parses");
    }
    // Source prefix: under Tx_model_5 the first k schedule slots are the
    // source symbols, round-robin across blocks.
    while pop.data_packets < K_SOURCE as u64 {
        let dg = stream
            .next_datagram()
            .expect("stream ok")
            .expect("schedule longer than k");
        pop.deliver(&dg);
    }

    // Every receiver reports once; the aggregator folds only the worst
    // sketch. The awful tail receiver suppresses its first report until
    // the planned phase ends (a late joiner, in protocol terms).
    let ingest = |agg: &mut FeedbackAggregator,
                  src: SocketAddr,
                  d: &ReceptionReport,
                  digests: &mut u64,
                  bytes: &mut u64| {
        let wire = d.to_bytes().expect("digest serializes");
        *digests += 1;
        *bytes += wire.len() as u64;
        agg.ingest_datagram(src, &wire).expect("well-formed digest");
    };
    for i in 0..m {
        let d = pop.fates[i].digest(&layout, true, false);
        ingest(
            &mut agg,
            fate_addr(i as u64),
            &d,
            &mut feedback_digests,
            &mut feedback_bytes,
        );
    }
    for i in 0..REAL_RECEIVERS - 1 {
        if let Some(d) = pop.reals[i].flush_report() {
            ingest(
                &mut agg,
                real_addr(i),
                &d,
                &mut feedback_digests,
                &mut feedback_bytes,
            );
        }
    }

    let replan = agg.replan(K_SOURCE);
    let plan = replan.plan.expect("population sketch yields a plan");
    assert!(
        plan.n_sent < schedule_len,
        "plan must truncate the schedule ({} vs {schedule_len})",
        plan.n_sent
    );
    stream.amend_plan(1, Some(&plan)).expect("amendable");
    let planned_target = stream.planned_total();
    eprintln!(
        "plan: n_sent={} n_total={} decode_probability={:.6} planned_target={planned_target}",
        plan.n_sent, plan.n_total, plan.decode_probability
    );
    while let Some(dg) = stream.next_datagram().expect("stream ok") {
        pop.deliver(&dg);
    }

    // End-game: NACKs voiced while the planned transmission was still
    // in flight are stale (the symbols they asked for were still
    // coming); drop them and let the round-loop digests re-state what
    // is genuinely still missing.
    let _ = agg.take_nack_requests();
    let mut nack_rounds = 0u32;
    for _round in 0..12 {
        for i in 0..m {
            let f = &mut pop.fates[i];
            let complete = f.complete(&layout);
            if complete && f.reported_complete {
                continue;
            }
            let d = f.digest(&layout, false, true);
            if complete {
                pop.fates[i].reported_complete = true;
            }
            ingest(
                &mut agg,
                fate_addr(i as u64),
                &d,
                &mut feedback_digests,
                &mut feedback_bytes,
            );
        }
        for i in 0..REAL_RECEIVERS {
            if let Some(d) = pop.reals[i].flush_report() {
                ingest(
                    &mut agg,
                    real_addr(i),
                    &d,
                    &mut feedback_digests,
                    &mut feedback_bytes,
                );
            }
        }
        if agg.is_complete(1) {
            break;
        }
        nack_rounds += 1;
        let requests = agg.take_nack_requests();
        assert!(!requests.is_empty(), "incomplete receivers always NACK");
        let nacked: usize = requests.iter().map(|r| r.esis.len()).sum();
        let queued = stream.queue_repair(&requests);
        assert!(queued > 0, "NACKed symbols are repairable");
        eprintln!(
            "round {nack_rounds}: {} NACK entries / {nacked} esis, queued {queued}",
            requests.len()
        );
        while let Some(dg) = stream.next_datagram().expect("stream ok") {
            pop.deliver(&dg);
        }
    }
    assert!(
        agg.is_complete(1),
        "population completes within the round budget"
    );
    for (i, f) in pop.fates.iter().enumerate() {
        assert!(f.complete(&layout), "NACK run must deliver receiver {i}");
    }
    for (i, rx) in pop.reals.iter().enumerate() {
        assert_eq!(
            rx.object(1).expect("decoded"),
            &data[..],
            "run B receiver {i} byte-exact"
        );
    }
    let nack_mode_packets = pop.data_packets;
    assert!(
        nack_mode_packets < whole_schedule_packets,
        "NACK mode must beat the whole schedule ({nack_mode_packets} vs {whole_schedule_packets})"
    );

    NackRunResult {
        whole_schedule_packets,
        nack_mode_packets,
        planned_target,
        repairs_sent: stream.repairs_sent(),
        nack_rounds,
        feedback_digests,
        feedback_bytes,
        schedule_len,
    }
}

// ---------------------------------------------------------------------

fn main() {
    let smoke = std::env::var("FEC_FANOUT_SMOKE").is_ok();
    let (tiers, window_mult, population): (&[u64], f64, usize) = if smoke {
        (&[1_000, 10_000], 1.5, 1_500)
    } else {
        (&[10_000, 100_000, 1_000_000], 2.5, 10_000)
    };

    let mut tier_rows = Vec::new();
    for &n in tiers {
        eprintln!("tier n={n}: measuring suppression...");
        let sup = measure_suppression(n, window_mult);
        eprintln!(
            "tier n={n}: {:.2} digests/receiver over {} offered (threshold ~{:.0}), \
             {:.1} feedback bytes / 1k multicast packets population-wide",
            sup.digests_per_receiver,
            sup.offered_per_receiver,
            sup.mean_threshold,
            sup.bytes_per_1k_population
        );
        eprintln!("tier n={n}: measuring aggregation...");
        let agg = measure_aggregation(n);
        eprintln!(
            "tier n={n}: register {:.0} ns/digest, ingest {:.0} ns/digest, \
             steady tick {:.0} ns, evict {:.0} ns/receiver, table {:.1} B/receiver, \
             rss {:.0} MB",
            agg.register_ns_per_digest,
            agg.ingest_ns_per_digest,
            agg.steady_tick_ns,
            agg.evict_ns_per_receiver,
            agg.table_bytes_per_receiver,
            agg.rss_mb
        );
        assert!(
            agg.register_ns_per_digest < 50_000.0,
            "registering a receiver must stay micro-scale: {} ns",
            agg.register_ns_per_digest
        );
        assert!(
            agg.ingest_ns_per_digest < 50_000.0,
            "digest ingest must stay micro-scale: {} ns",
            agg.ingest_ns_per_digest
        );
        tier_rows.push((n, sup, agg));
    }

    // Sublinearity gate: aggregate feedback bytes grow like c·log n.
    let (n0, first, _) = &tier_rows[0];
    let (n1, last, _) = &tier_rows[tier_rows.len() - 1];
    let bytes_ratio = last.bytes_per_1k_population / first.bytes_per_1k_population;
    let log_ratio = log2(*n1 as f64) / log2(*n0 as f64);
    let linear_ratio = *n1 as f64 / *n0 as f64;
    let slack = 3.0;
    eprintln!(
        "sublinearity: bytes ratio {bytes_ratio:.2} over {n0}→{n1} \
         (log ratio {log_ratio:.2}, linear would be {linear_ratio:.0})"
    );
    assert!(
        bytes_ratio <= slack * log_ratio,
        "aggregate feedback must grow ≤ {slack}×log: ratio {bytes_ratio:.2} vs bound {:.2}",
        slack * log_ratio
    );
    assert!(
        bytes_ratio < linear_ratio / 2.0,
        "aggregate feedback must be far from linear"
    );

    eprintln!("NACK vs whole schedule at m={population}...");
    let nack = measure_nack_vs_whole(population, 0xFA_0001);
    let reduction =
        100.0 * (1.0 - nack.nack_mode_packets as f64 / nack.whole_schedule_packets as f64);
    eprintln!(
        "NACK mode: {} packets/receiver vs {} whole-schedule ({reduction:.1}% fewer), \
         plan target {}, {} targeted repairs over {} rounds, {} digests / {} feedback bytes",
        nack.nack_mode_packets,
        nack.whole_schedule_packets,
        nack.planned_target,
        nack.repairs_sent,
        nack.nack_rounds,
        nack.feedback_digests,
        nack.feedback_bytes
    );

    // ---- JSON ----
    let mut json = String::new();
    let w = &mut json;
    writeln!(w, "{{").unwrap();
    writeln!(w, "  \"bench\": \"ablation_fanout\",").unwrap();
    writeln!(w, "  \"host\": {},", fec_bench::output::host_json()).unwrap();
    writeln!(
        w,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    )
    .unwrap();
    writeln!(w, "  \"report_every\": {REPORT_EVERY},").unwrap();
    writeln!(w, "  \"tiers\": [").unwrap();
    for (t, (n, sup, agg)) in tier_rows.iter().enumerate() {
        writeln!(w, "    {{").unwrap();
        writeln!(w, "      \"receivers\": {n},").unwrap();
        writeln!(w, "      \"suppression\": {{").unwrap();
        writeln!(w, "        \"sampled_receivers\": {},", sup.sampled).unwrap();
        writeln!(
            w,
            "        \"offered_per_receiver\": {},",
            sup.offered_per_receiver
        )
        .unwrap();
        writeln!(
            w,
            "        \"digests_per_receiver\": {:.4},",
            sup.digests_per_receiver
        )
        .unwrap();
        writeln!(
            w,
            "        \"mean_digest_bytes\": {:.1},",
            sup.mean_digest_bytes
        )
        .unwrap();
        writeln!(
            w,
            "        \"mean_threshold_packets\": {:.0},",
            sup.mean_threshold
        )
        .unwrap();
        writeln!(
            w,
            "        \"digests_per_1k_sender_packets_population\": {:.3},",
            sup.digests_per_1k_population
        )
        .unwrap();
        writeln!(
            w,
            "        \"feedback_bytes_per_1k_sender_packets_population\": {:.1}",
            sup.bytes_per_1k_population
        )
        .unwrap();
        writeln!(w, "      }},").unwrap();
        writeln!(w, "      \"aggregation\": {{").unwrap();
        writeln!(w, "        \"digests_ingested\": {},", agg.digests).unwrap();
        writeln!(
            w,
            "        \"build_ns_per_digest\": {:.0},",
            agg.build_ns_per_digest
        )
        .unwrap();
        writeln!(
            w,
            "        \"register_ns_per_digest\": {:.0},",
            agg.register_ns_per_digest
        )
        .unwrap();
        writeln!(
            w,
            "        \"ingest_ns_per_digest\": {:.0},",
            agg.ingest_ns_per_digest
        )
        .unwrap();
        writeln!(
            w,
            "        \"evict_ns_per_receiver\": {:.0},",
            agg.evict_ns_per_receiver
        )
        .unwrap();
        writeln!(w, "        \"steady_tick_ns\": {:.0},", agg.steady_tick_ns).unwrap();
        writeln!(
            w,
            "        \"table_bytes_per_receiver\": {:.1},",
            agg.table_bytes_per_receiver
        )
        .unwrap();
        writeln!(w, "        \"folded\": {},", agg.folded).unwrap();
        writeln!(w, "        \"accepted\": {},", agg.accepted).unwrap();
        writeln!(w, "        \"nack_entries\": {},", agg.nack_entries).unwrap();
        writeln!(w, "        \"rss_mb\": {:.0}", agg.rss_mb).unwrap();
        writeln!(w, "      }}").unwrap();
        writeln!(
            w,
            "    }}{}",
            if t + 1 < tier_rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(w, "  ],").unwrap();
    writeln!(w, "  \"sublinearity\": {{").unwrap();
    writeln!(w, "    \"bytes_ratio\": {bytes_ratio:.3},").unwrap();
    writeln!(w, "    \"log_ratio\": {log_ratio:.3},").unwrap();
    writeln!(w, "    \"linear_ratio\": {linear_ratio:.1},").unwrap();
    writeln!(w, "    \"slack\": {slack:.1},").unwrap();
    writeln!(w, "    \"pass\": true").unwrap();
    writeln!(w, "  }},").unwrap();
    writeln!(w, "  \"nack\": {{").unwrap();
    writeln!(w, "    \"population\": {population},").unwrap();
    writeln!(w, "    \"sampled_real_receivers\": {REAL_RECEIVERS},").unwrap();
    writeln!(w, "    \"schedule_len\": {},", nack.schedule_len).unwrap();
    writeln!(
        w,
        "    \"whole_schedule_packets\": {},",
        nack.whole_schedule_packets
    )
    .unwrap();
    writeln!(w, "    \"nack_mode_packets\": {},", nack.nack_mode_packets).unwrap();
    writeln!(w, "    \"planned_target\": {},", nack.planned_target).unwrap();
    writeln!(w, "    \"repairs_sent\": {},", nack.repairs_sent).unwrap();
    writeln!(w, "    \"nack_rounds\": {},", nack.nack_rounds).unwrap();
    writeln!(w, "    \"reduction_pct\": {reduction:.1},").unwrap();
    writeln!(w, "    \"feedback_digests\": {},", nack.feedback_digests).unwrap();
    writeln!(w, "    \"feedback_bytes\": {},", nack.feedback_bytes).unwrap();
    writeln!(w, "    \"byte_exact_receivers\": {REAL_RECEIVERS},").unwrap();
    writeln!(w, "    \"byte_exact\": true,").unwrap();
    writeln!(w, "    \"all_complete\": true").unwrap();
    writeln!(w, "  }}").unwrap();
    writeln!(w, "}}").unwrap();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fanout.json");
    std::fs::write(path, &json).expect("write BENCH_fanout.json");
    eprintln!("wrote {path}");
    print!("{json}");
}
