//! The byte-true pipe: object bytes → `FluteSender::add_object` →
//! `stream` → `next_datagram` → Gilbert gate → `fec-wire` loopback →
//! `FluteReceiver::push_datagrams` → object bytes, compared byte for byte.
//!
//! One client, one thread, one socket pair, closed loop: a burst of at
//! most [`MAX_BURST`] datagrams is sent, drained back and pushed before
//! the next one is pulled, so the load never outruns the system.

use std::net::UdpSocket;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fec_broadcast::channel::{GilbertChannel, GilbertParams, LossModel};
use fec_broadcast::codec::{builtin, CodecHandle};
use fec_broadcast::core::ExpansionRatio;
use fec_broadcast::flute::{
    AlcPacket, FluteReceiver, FluteSender, ObjectTransmissionInfo, ReceiverEvent, SenderConfig,
    SessionStream, FDT_TOI,
};
use fec_broadcast::sched::TxModel;
use fec_broadcast::wire::{
    classify_recv_error, Backend, BatchReceiver, BatchSender, BufferPool, Pacer, PoolBuf,
    RecvDisposition, MAX_BURST,
};

use crate::trace::{Tracer, ROUND};
use crate::work::{
    bump, checksum, random_bytes, sub_seed, Counts, Scale, Segment, Workload, TAG_CHANNEL,
    TAG_MATRIX, TAG_SCHED, TAG_SOURCE, WARMUP_ROUND,
};

const TSI: u32 = 0xBE7C;

/// Distinct source objects a run cycles through. Generating a fresh
/// object per round would put the generator, not the pipe, on the clock.
const SOURCE_POOL: u64 = 4;

/// Carousel cycles an object may take before its delivery counts as
/// failed. At ratio 1.5 under 7 % bursty loss a first cycle that falls
/// short is rare (none in 3 600 objects measured); when it happens the
/// sender simply keeps the carousel turning, as a FLUTE sender does.
const MAX_CYCLES: u64 = 3;

/// The traced run shadow-probes one burst in this many: enough samples
/// for a per-datagram cost, few enough that the probes' own work (a
/// second parse and a re-serialisation of every datagram) neither takes
/// a fifth of the run nor evicts the caches the measured calls rely on.
const PROBE_EVERY: u64 = 4;

/// How long a drain waits for a datagram the loopback never delivers.
const RECV_TIMEOUT: Duration = Duration::from_millis(50);

/// A loopback socket pair behind the batched wire engine, configured as
/// the CLI configures it (batched backend, GSO/GRO when granted).
pub struct Wire {
    tx: BatchSender,
    rx: BatchReceiver,
    pool: BufferPool,
}

impl Wire {
    pub fn open() -> Result<Wire, String> {
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        let rx = UdpSocket::bind("127.0.0.1:0").map_err(|e| io("bind receive socket", e))?;
        let dest = rx.local_addr().map_err(|e| io("local address", e))?;
        rx.set_read_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| io("read timeout", e))?;
        let tx = UdpSocket::bind("127.0.0.1:0").map_err(|e| io("bind send socket", e))?;
        let backend = Backend::detect();
        let mut sender = BatchSender::connect(tx, dest, backend, Pacer::unlimited())
            .map_err(|e| io("connect sender", e))?;
        // Full-size pool buffers: GRO needs room for a coalesced payload.
        let pool = BufferPool::new();
        let mut receiver = BatchReceiver::new(rx, pool.clone(), backend);
        receiver.request_recv_buffer(4 << 20);
        // Opportunistic, as in the CLI: a kernel without UDP GSO/GRO
        // leaves them off and the bytes are the same.
        let _ = sender.enable_gso();
        let _ = receiver.enable_gro();
        Ok(Wire {
            tx: sender,
            rx: receiver,
            pool,
        })
    }

    /// Buffer-pool hits and misses and the offloads the kernel granted.
    fn counts(&self) -> Counts {
        let (hits, misses) = self.pool.stats();
        Counts::from([
            ("wire.pool_hits", hits as f64),
            ("wire.pool_misses", misses as f64),
            ("wire.gso_active", f64::from(u8::from(self.tx.gso_active()))),
            ("wire.gro_active", f64::from(u8::from(self.rx.gro_active()))),
        ])
    }

    /// Sends `burst` and drains it back. A datagram the loopback drops is
    /// counted in `wire.lost`, never waited for beyond the read timeout.
    fn round_trip(
        &mut self,
        burst: &[&[u8]],
        tracer: &mut Tracer,
        object: u32,
        seg: &mut Segment,
    ) -> Vec<PoolBuf> {
        let span = tracer.begin("wire.send", object);
        let sent = self.tx.send_burst(burst);
        tracer.end(span);
        let sent = match sent {
            Ok(n) => n,
            Err(e) => {
                seg.violation(format!("loopback send failed: {e}"));
                0
            }
        };
        bump(&mut seg.counts, "wire.bursts", 1.0);
        bump(&mut seg.counts, "wire.dgrams", burst.len() as f64);

        let span = tracer.begin("wire.recv", object);
        let mut got: Vec<PoolBuf> = Vec::with_capacity(sent);
        while got.len() < sent {
            match self.rx.recv_burst((sent - got.len()).min(MAX_BURST)) {
                Ok(bufs) => got.extend(bufs),
                Err(e) if classify_recv_error(&e) == RecvDisposition::Retry => continue,
                Err(_) => break,
            }
        }
        tracer.end(span);
        let lost = burst.len().saturating_sub(got.len());
        bump(&mut seg.counts, "wire.lost", lost as f64);
        got
    }
}

/// Refills `pulled` with the next burst of at most [`MAX_BURST`]
/// datagrams. Returns whether the stream is exhausted.
fn pull_burst(
    stream: &mut SessionStream<'_>,
    pulled: &mut Vec<Vec<u8>>,
    tracer: &mut Tracer,
    object: u32,
    seg: &mut Segment,
) -> bool {
    pulled.clear();
    let mut exhausted = false;
    let span = tracer.begin("flute.tx_next", object);
    while pulled.len() < MAX_BURST {
        match stream.next_datagram() {
            Ok(Some(datagram)) => pulled.push(datagram),
            Ok(None) => {
                exhausted = true;
                break;
            }
            Err(e) => {
                seg.violation(format!("next_datagram failed: {e}"));
                exhausted = true;
                break;
            }
        }
    }
    tracer.end(span);
    bump(&mut seg.counts, "flute.tx_dgrams", pulled.len() as f64);
    exhausted
}

/// Parses a drained burst. In the bulk workloads this is a shadow probe
/// (the receiver parses the same bytes again inside `push_datagrams`); in
/// `carousel_tx` it is the workload's own receive path.
fn parse_burst(
    got: &[PoolBuf],
    tracer: &mut Tracer,
    object: u32,
    shadow: bool,
    counts: &mut Counts,
) -> Vec<Option<AlcPacket>> {
    let span = if shadow {
        tracer.begin_shadow("flute.parse", object)
    } else {
        tracer.begin("flute.parse", object)
    };
    let parsed = got.iter().map(|d| AlcPacket::from_bytes(d).ok()).collect();
    tracer.end(span);
    if tracer.is_enabled() {
        bump(counts, "parse.dgrams", got.len() as f64);
    }
    parsed
}

/// Shadow probe of the framing cost: re-serialises the parsed packets
/// with `AlcPacket::to_bytes`, checks the round trip is byte-exact, and
/// counts header bytes against symbol bytes.
fn probe_framing(
    got: &[PoolBuf],
    parsed: &[Option<AlcPacket>],
    tracer: &mut Tracer,
    object: u32,
    seg: &mut Segment,
) {
    let span = tracer.begin_shadow("flute.frame", object);
    let framed: Vec<Option<Vec<u8>>> = parsed
        .iter()
        .map(|p| p.as_ref().and_then(|p| p.to_bytes().ok()))
        .collect();
    tracer.end(span);

    let span = tracer.begin_shadow("bench.probe_check", object);
    for ((raw, packet), again) in got.iter().zip(parsed).zip(&framed) {
        bump(&mut seg.counts, "probe.dgrams", 1.0);
        bump(&mut seg.counts, "probe.dgram_bytes", raw.len() as f64);
        match (packet, again) {
            (Some(packet), Some(again)) => {
                if again.as_slice() != &raw[..] {
                    seg.violation("ALC parse/serialise round trip changed the bytes".into());
                }
                if packet.header.toi != FDT_TOI {
                    bump(
                        &mut seg.counts,
                        "probe.symbol_bytes",
                        packet.payload.len() as f64,
                    );
                }
            }
            _ => seg.violation("a datagram the sender built did not parse".into()),
        }
    }
    tracer.end(span);
}

/// Parameters that tell the three bulk workloads apart.
#[derive(Clone)]
pub struct BulkSpec {
    pub code: fn() -> CodecHandle,
    pub tx: TxModel,
    /// Source symbols per object. 2040 and 8160 are multiples of 170 and
    /// 102, so RSE blocks come out even and the OTI round trip holds
    /// (see [`oti_round_trips`]).
    pub k: usize,
    pub symbol: usize,
    /// Gilbert `(p, q)` of the loss gate, or none.
    pub loss: Option<(f64, f64)>,
    /// Objects per requested second of run time.
    pub objects_per_second: f64,
}

impl BulkSpec {
    pub fn bulk_ldgm() -> BulkSpec {
        BulkSpec {
            code: builtin::ldgm_triangle,
            tx: TxModel::Random,
            k: 2040,
            symbol: 1024,
            loss: Some((0.03, 0.4)),
            objects_per_second: 150.0,
        }
    }

    pub fn bulk_rse() -> BulkSpec {
        BulkSpec {
            code: builtin::rse,
            tx: TxModel::Interleaved,
            objects_per_second: 32.0,
            ..BulkSpec::bulk_ldgm()
        }
    }

    pub fn small_symbol() -> BulkSpec {
        BulkSpec {
            code: builtin::ldgm_staircase,
            tx: TxModel::Random,
            k: 8160,
            symbol: 64,
            loss: None,
            objects_per_second: 87.5,
        }
    }

    fn object_len(&self) -> usize {
        self.k * self.symbol
    }
}

const RATIO: ExpansionRatio = ExpansionRatio::R1_5;

/// Whether a receiver can rebuild the code geometry from the OTI a sender
/// advertises for `(code, k, ratio)`. It cannot for RSE whenever blocks
/// come out uneven, and such a session never decodes; the workloads keep
/// to sizes where it holds and refuse to start otherwise.
pub fn oti_round_trips(code: CodecHandle, k: usize, ratio: ExpansionRatio, symbol: usize) -> bool {
    let spec = fec_broadcast::core::CodeSpec::new(code, k, ratio);
    ObjectTransmissionInfo::from_spec(&spec, symbol, (k * symbol) as u64)
        .and_then(|oti| oti.code_spec())
        .is_ok()
}

/// `bulk_ldgm`, `bulk_rse` and `small_symbol`: one object per round.
pub struct Bulk {
    spec: BulkSpec,
    seed: u64,
    scale: Scale,
    sources: Vec<Rc<[u8]>>,
    wire: Wire,
    receiver: FluteReceiver,
    loss: Option<GilbertParams>,
}

impl Bulk {
    pub fn setup(spec: BulkSpec, seed: u64, scale: Scale) -> Result<Bulk, String> {
        if !oti_round_trips((spec.code)(), spec.k, RATIO, spec.symbol) {
            return Err(format!(
                "{} at k = {} does not survive the OTI round trip; the workload cannot decode",
                (spec.code)(),
                spec.k
            ));
        }
        let loss = match spec.loss {
            Some((p, q)) => Some(GilbertParams::new(p, q).map_err(|e| e.to_string())?),
            None => None,
        };
        let sources = (0..SOURCE_POOL)
            .map(|i| random_bytes(spec.object_len(), sub_seed(seed, TAG_SOURCE, &[i])).into())
            .collect();
        let mut bulk = Bulk {
            spec,
            seed,
            scale,
            sources,
            wire: Wire::open()?,
            receiver: FluteReceiver::new(TSI),
            loss,
        };
        let mut warmup = Segment::default();
        bulk.deliver(WARMUP_ROUND, &mut Tracer::disabled(), &mut warmup);
        if warmup.failed > 0 || !warmup.violations.is_empty() {
            return Err(format!(
                "warm-up object was not delivered: {:?}",
                warmup.violations
            ));
        }
        Ok(bulk)
    }

    /// Delivers object number `round` and verifies it byte for byte.
    fn deliver(&mut self, round: u64, tracer: &mut Tracer, seg: &mut Segment) {
        let object = round as u32;
        let toi = object + 1;
        let source = Rc::clone(&self.sources[(round % SOURCE_POOL) as usize]);
        let started = Instant::now();
        let root = tracer.begin(ROUND, object);
        seg.attempted += 1;

        let mut sender = FluteSender::new(SenderConfig::new(TSI));
        let span = tracer.begin("codec.encode", object);
        let added = sender.add_object(
            toi,
            "bench://object",
            &source,
            (self.spec.code)(),
            RATIO,
            self.spec.symbol,
            sub_seed(self.seed, TAG_MATRIX, &[round]),
            self.spec.tx,
        );
        tracer.end(span);
        bump(&mut seg.counts, "codec.encoded_bytes", source.len() as f64);

        let mut complete = false;
        if let Err(e) = added {
            seg.violation(format!("add_object failed: {e}"));
        } else {
            for cycle in 0..MAX_CYCLES {
                if self.emit_cycle(&sender, toi, round, cycle, tracer, seg) {
                    complete = true;
                    break;
                }
                if cycle == 0 {
                    bump(&mut seg.counts, "codec.decode_fail", 1.0);
                }
            }
        }

        let span = tracer.begin("flute.take_verify", object);
        let exact = complete
            && self
                .receiver
                .take_object(toi)
                .is_some_and(|decoded| decoded[..] == source[..]);
        tracer.end(span);
        tracer.end(root);
        let elapsed = started.elapsed();

        if exact {
            // The paper's inefficiency ratio counts only objects that
            // decoded; packets are counted when the burst that completed
            // the object has been pushed.
            let pushed = self.receiver.packets_received(toi) as f64;
            seg.consumed += pushed;
            seg.needed += self.spec.k as f64;
            bump(&mut seg.counts, "codec.symbols_in", pushed);
            bump(&mut seg.counts, "codec.symbols_needed", self.spec.k as f64);
            bump(&mut seg.counts, "codec.decoded_bytes", source.len() as f64);
            bump(&mut seg.counts, "session.bytes", source.len() as f64);
        } else {
            seg.failed += 1;
        }
        seg.wall_ns += elapsed.as_nanos() as u64;
        seg.round_ms.push(elapsed.as_secs_f64() * 1e3);
    }

    /// One pass of the object's schedule through gate, wire and receiver.
    /// Returns whether the object completed.
    fn emit_cycle(
        &mut self,
        sender: &FluteSender,
        toi: u32,
        round: u64,
        cycle: u64,
        tracer: &mut Tracer,
        seg: &mut Segment,
    ) -> bool {
        let object = round as u32;
        let span = tracer.begin("sched.schedule", object);
        let mut stream = sender.stream(sub_seed(self.seed, TAG_SCHED, &[round, cycle]));
        tracer.end(span);
        bump(&mut seg.counts, "sched.refs", stream.full_total() as f64);
        let mut channel = self.loss.map(|params| {
            GilbertChannel::new(params, sub_seed(self.seed, TAG_CHANNEL, &[round, cycle]))
        });

        let mut pulled: Vec<Vec<u8>> = Vec::with_capacity(MAX_BURST);
        let mut exhausted = false;
        let mut bursts = 0u64;
        while !exhausted {
            exhausted = pull_burst(&mut stream, &mut pulled, tracer, object, seg);

            let span = tracer.begin("channel.gate", object);
            let survivors: Vec<&[u8]> = match channel.as_mut() {
                Some(channel) => pulled
                    .iter()
                    .filter(|_| !channel.next_is_lost())
                    .map(Vec::as_slice)
                    .collect(),
                None => pulled.iter().map(Vec::as_slice).collect(),
            };
            tracer.end(span);
            if channel.is_some() {
                bump(&mut seg.counts, "channel.draws", pulled.len() as f64);
                bump(
                    &mut seg.counts,
                    "channel.lost",
                    (pulled.len() - survivors.len()) as f64,
                );
            }
            if survivors.is_empty() {
                continue;
            }

            let got = self.wire.round_trip(&survivors, tracer, object, seg);
            if tracer.is_enabled() && bursts.is_multiple_of(PROBE_EVERY) {
                let parsed = parse_burst(&got, tracer, object, true, &mut seg.counts);
                probe_framing(&got, &parsed, tracer, object, seg);
            }
            bursts += 1;

            let span = tracer.begin("flute.rx_push", object);
            let events = self.receiver.push_datagrams(&got);
            tracer.end(span);
            bump(&mut seg.counts, "flute.rx_dgrams", got.len() as f64);
            match events {
                Ok(events) => {
                    let rejected = events
                        .iter()
                        .filter(|e| matches!(e, ReceiverEvent::Rejected))
                        .count();
                    bump(&mut seg.counts, "flute.rejected", rejected as f64);
                    if events.contains(&ReceiverEvent::ObjectComplete { toi }) {
                        return true;
                    }
                }
                Err(e) => {
                    seg.violation(format!("push_datagrams failed: {e}"));
                    return false;
                }
            }
        }
        false
    }
}

impl Workload for Bulk {
    fn run(&mut self, divisor: u32, first_round: u64, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        for round in first_round..first_round + self.rounds(divisor) {
            self.deliver(round, tracer, &mut seg);
        }
        seg
    }

    fn rounds(&self, divisor: u32) -> u64 {
        self.scale.count(self.spec.objects_per_second, divisor)
    }

    fn spans_per_round(&self) -> usize {
        // Up to nine spans per burst (five layer calls, three probes on
        // the probed bursts, slack for partly gated bursts) plus the
        // per-object ones.
        let bursts = (self.spec.k * 3 / 2).div_ceil(MAX_BURST - 8) + 2;
        bursts * 9 + 8
    }

    fn symbol(&self) -> Option<usize> {
        Some(self.spec.symbol)
    }

    fn final_counts(&self) -> Counts {
        self.wire.counts()
    }
}

/// What one carousel cycle carried.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct CycleSum {
    dgrams: u64,
    wire_bytes: u64,
    payload_bytes: u64,
    checksum: u64,
}

/// `carousel_tx`: one object encoded in set-up, emitted cycle after cycle.
pub struct Carousel {
    seed: u64,
    scale: Scale,
    sender: FluteSender,
    wire: Wire,
    /// What every cycle must carry, taken from the warm-up cycle after
    /// its datagrams decoded to the source bytes.
    expected: CycleSum,
}

const CAROUSEL_TOI: u32 = 1;

/// Cycles per requested second of run time.
const CYCLES_PER_SECOND: f64 = 312.5;

impl Carousel {
    pub fn setup(seed: u64, scale: Scale) -> Result<Carousel, String> {
        let spec = BulkSpec::bulk_ldgm();
        let source = random_bytes(spec.object_len(), sub_seed(seed, TAG_SOURCE, &[0]));
        let mut sender = FluteSender::new(SenderConfig::new(TSI));
        sender
            .add_object(
                CAROUSEL_TOI,
                "bench://carousel",
                &source,
                (spec.code)(),
                RATIO,
                spec.symbol,
                sub_seed(seed, TAG_MATRIX, &[0]),
                spec.tx,
            )
            .map_err(|e| format!("add_object failed: {e}"))?;
        let mut carousel = Carousel {
            seed,
            scale,
            sender,
            wire: Wire::open()?,
            expected: CycleSum::default(),
        };

        // The warm-up cycle is the only one pushed into a receiver: once
        // it has decoded to the source bytes, its sums vouch for every
        // later cycle, which carries the same packets in another order.
        let mut receiver = FluteReceiver::new(TSI);
        let mut warmup = Segment::default();
        let sum = carousel.cycle(
            WARMUP_ROUND,
            &mut Tracer::disabled(),
            &mut warmup,
            Some(&mut receiver),
        );
        if receiver.take_object(CAROUSEL_TOI).as_deref() != Some(&source[..])
            || !warmup.violations.is_empty()
            || warmup.failed > 0
        {
            return Err(format!(
                "warm-up cycle did not decode to the source object: {:?}",
                warmup.violations
            ));
        }
        carousel.expected = sum;
        Ok(carousel)
    }

    /// Emits the whole object once, drains it and parses every header.
    fn cycle(
        &mut self,
        round: u64,
        tracer: &mut Tracer,
        seg: &mut Segment,
        mut receiver: Option<&mut FluteReceiver>,
    ) -> CycleSum {
        let object = round as u32;
        let started = Instant::now();
        let root = tracer.begin(ROUND, object);

        let span = tracer.begin("sched.schedule", object);
        let mut stream = self.sender.stream(sub_seed(self.seed, TAG_SCHED, &[round]));
        tracer.end(span);
        bump(&mut seg.counts, "sched.refs", stream.full_total() as f64);

        let mut sum = CycleSum::default();
        let mut emitted = 0u64;
        let mut pulled: Vec<Vec<u8>> = Vec::with_capacity(MAX_BURST);
        let mut exhausted = false;
        let mut bursts = 0u64;
        while !exhausted {
            exhausted = pull_burst(&mut stream, &mut pulled, tracer, object, seg);
            if pulled.is_empty() {
                continue;
            }
            emitted += pulled.len() as u64;

            let burst: Vec<&[u8]> = pulled.iter().map(Vec::as_slice).collect();
            let got = self.wire.round_trip(&burst, tracer, object, seg);
            let parsed = parse_burst(&got, tracer, object, false, &mut seg.counts);
            for (raw, packet) in got.iter().zip(&parsed) {
                match packet {
                    Some(p) if p.header.tsi == TSI => {
                        sum.dgrams += 1;
                        sum.wire_bytes += raw.len() as u64;
                        if p.header.toi != FDT_TOI {
                            sum.payload_bytes += p.payload.len() as u64;
                        }
                        sum.checksum = sum.checksum.wrapping_add(checksum(&p.payload));
                    }
                    _ => bump(&mut seg.counts, "flute.rejected", 1.0),
                }
            }
            if tracer.is_enabled() && bursts.is_multiple_of(PROBE_EVERY) {
                probe_framing(&got, &parsed, tracer, object, seg);
            }
            bursts += 1;
            if let Some(receiver) = receiver.as_deref_mut() {
                if let Err(e) = receiver.push_datagrams(&got) {
                    seg.violation(format!("push_datagrams failed: {e}"));
                }
            }
        }
        tracer.end(root);
        let elapsed = started.elapsed();

        seg.attempted += emitted;
        seg.failed += emitted - sum.dgrams.min(emitted);
        seg.consumed += sum.wire_bytes as f64;
        seg.needed += sum.payload_bytes as f64;
        bump(&mut seg.counts, "session.bytes", sum.payload_bytes as f64);
        seg.wall_ns += elapsed.as_nanos() as u64;
        seg.round_ms.push(elapsed.as_secs_f64() * 1e3);
        sum
    }
}

impl Workload for Carousel {
    fn run(&mut self, divisor: u32, first_round: u64, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        for round in first_round..first_round + self.rounds(divisor) {
            let sum = self.cycle(round, tracer, &mut seg, None);
            if sum != self.expected {
                seg.violation(format!(
                    "cycle {round} carried {sum:?}, the verified cycle {:?}",
                    self.expected
                ));
            }
        }
        seg
    }

    fn rounds(&self, divisor: u32) -> u64 {
        self.scale.count(CYCLES_PER_SECOND, divisor)
    }

    fn spans_per_round(&self) -> usize {
        let bursts = (BulkSpec::bulk_ldgm().k * 3 / 2).div_ceil(MAX_BURST) + 2;
        bursts * 7 + 4
    }

    fn symbol(&self) -> Option<usize> {
        Some(BulkSpec::bulk_ldgm().symbol)
    }

    fn final_counts(&self) -> Counts {
        self.wire.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_object_that_misses_its_first_cycle_is_completed_by_a_later_one() {
        // A third of the packets lost at ratio 1.5 leaves one cycle just
        // short of k symbols, so every object needs the carousel to turn.
        let spec = BulkSpec {
            k: 510,
            symbol: 64,
            loss: Some((0.2, 0.4)),
            ..BulkSpec::bulk_ldgm()
        };
        let scale = Scale {
            seconds: 1,
            check: true,
        };
        let mut bulk = Bulk::setup(spec, 3, scale).expect("set-up delivers its warm-up object");
        let seg = bulk.run(1, 0, &mut Tracer::disabled());
        assert_eq!((seg.attempted, seg.failed), (3, 0), "{:?}", seg.violations);
        assert!(seg.violations.is_empty());
        assert_eq!(seg.counts["codec.decode_fail"], 3.0);
        assert!(seg.consumed / seg.needed > 1.0);
    }

    #[test]
    fn uneven_rse_geometry_is_refused_at_set_up() {
        assert!(oti_round_trips(builtin::rse(), 2040, RATIO, 1024));
        assert!(!oti_round_trips(builtin::rse(), 20_000, RATIO, 1024));
        let spec = BulkSpec {
            k: 20_000,
            symbol: 16,
            ..BulkSpec::bulk_rse()
        };
        let scale = Scale {
            seconds: 1,
            check: true,
        };
        assert!(Bulk::setup(spec, 1, scale).is_err());
        assert_eq!(checksum(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 3]), 6);
    }
}
