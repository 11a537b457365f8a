//! FLUTE file-delivery sessions: [`FluteSender`] and [`FluteReceiver`].
//!
//! A session (one TSI) carries any number of objects (TOIs), each
//! FEC-encoded under its own code and schedule, plus the FDT on TOI 0.
//! The sender is a pure datagram factory — the caller owns pacing and the
//! actual socket (the paper's systems have no feedback, so there is
//! nothing else to own). The receiver is a state machine fed raw
//! datagrams in any order, with any losses and duplications; it starts
//! decoding an object as soon as it learns the OTI — from EXT_FTI on the
//! data packets themselves or from an FDT instance, whichever arrives
//! first — and buffers early data packets until then. A stream may
//! re-encode an object it has not started sending and announce it in a
//! newer FDT instance, so an OTI an FDT listed stays provisional until the
//! object accepts a symbol: a newer instance, or an EXT_FTI that differs,
//! replaces it.

use std::collections::{BTreeMap, HashMap};

use fec_adapt::Decision;
use fec_codec::Symbol;
use fec_core::{
    CodeSpec, CodecHandle, ExpansionRatio, Receiver as CoreReceiver, Sender as CoreSender,
};
use fec_sched::{Layout, PacketRef, TxModel};

use fec_telemetry::Registry;

use crate::alc::{split_symbol, AlcPacket, DataFrame};
use crate::fdt::{FdtInstance, FileEntry};
use crate::feedback::{ReceptionReport, ReportConfig, ReportEmitter, SEQ_MODULUS};
use crate::fti::ObjectTransmissionInfo;
use crate::lct::LctView;
use crate::metrics::{ReceiverMetrics, StreamMetrics};
use crate::payload_id::{FecPayloadId, PayloadIdFormat};
use crate::{FluteError, FDT_TOI};

/// How many data packets a receiver will buffer for an object whose OTI is
/// still unknown before declaring the session broken.
const MAX_PRE_OTI_BUFFER: usize = 4096;

/// Sender-side session configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Transport session identifier.
    pub tsi: u32,
    /// Attach EXT_FTI to every data packet (28 bytes of overhead per
    /// packet, but receivers can decode without ever seeing the FDT —
    /// the robust choice on lossy channels, and the default).
    pub fti_in_data_packets: bool,
    /// Re-send the FDT every `fdt_interval` data packets (0 = only once at
    /// the start). FDT packets are not FEC-protected, so on lossy channels
    /// they must be repeated.
    pub fdt_interval: usize,
    /// Stamp every emitted datagram (FDT included) with an EXT_SEQ
    /// session transmission sequence number (4 bytes of overhead per
    /// packet). Receivers use the sequence gaps to observe the loss
    /// *process* and report it back (see [`crate::feedback`]); without it
    /// a reception report can still count per-TOI arrivals but carries no
    /// loss-run sketch. On by default.
    pub sequence_datagrams: bool,
}

impl SenderConfig {
    /// A sensible default configuration for one session.
    pub fn new(tsi: u32) -> SenderConfig {
        SenderConfig {
            tsi,
            fti_in_data_packets: true,
            fdt_interval: 500,
            sequence_datagrams: true,
        }
    }
}

struct SessionObject {
    toi: u32,
    content_location: String,
    oti: ObjectTransmissionInfo,
    sender: CoreSender,
    tx: TxModel,
}

impl SessionObject {
    /// Object `toi` as `sender` encoded it, announced under the OTI its
    /// spec induces.
    fn new(toi: u32, name: String, sender: CoreSender, tx: TxModel) -> Result<Self, FluteError> {
        let length = sender.object_len() as u64;
        let oti = ObjectTransmissionInfo::from_spec(sender.spec(), sender.symbol_size(), length)?;
        Ok(SessionObject {
            toi,
            content_location: name,
            oti,
            sender,
            tx,
        })
    }

    /// The header template of this object's data datagrams.
    fn frame(&self, config: &SenderConfig) -> Result<DataFrame, FluteError> {
        let fti = config.fti_in_data_packets.then(|| self.oti.to_bytes());
        let sequenced = config.sequence_datagrams;
        DataFrame::new(config.tsi, self.toi, self.oti.fti_id(), fti, sequenced)
    }

    /// The (code, transmission model, ratio) tuple this object goes out
    /// under.
    fn decision(&self) -> Decision {
        let spec = self.sender.spec();
        let (code, ratio) = (spec.code.clone(), spec.ratio);
        Decision {
            code,
            tx: self.tx,
            ratio,
        }
    }

    /// This object encoded again under `decision`, from its own source
    /// symbols: same TOI, location, symbol size and matrix seed.
    fn reencode(&self, decision: &Decision) -> Result<SessionObject, FluteError> {
        let spec = self.sender.spec();
        let spec = CodeSpec::new(decision.code.clone(), spec.k, decision.ratio)
            .with_matrix_seed(spec.matrix_seed);
        let sender = self.sender.reencode(spec)?;
        SessionObject::new(self.toi, self.content_location.clone(), sender, decision.tx)
    }
}

/// FDT instance `instance_id` listing `objects`, with `Expires="0"`.
fn fdt_of<'o>(instance_id: u32, objects: impl Iterator<Item = &'o SessionObject>) -> FdtInstance {
    let mut fdt = FdtInstance::new(instance_id, 0);
    for o in objects {
        let entry = FileEntry::new(o.toi, o.content_location.clone(), o.oti.clone());
        fdt = fdt.with_file(entry);
    }
    fdt
}

/// The next EXT_SEQ of `path`'s sequence space, or `None` when the
/// session is unsequenced. Each bonded path is its own monotone space —
/// stamping from a shared counter would make every inter-path
/// interleaving look like loss or reordering to the receiver's per-path
/// tracks.
fn next_seq(path_seqs: &mut Vec<u32>, sequenced: bool, path: usize) -> Option<u32> {
    if !sequenced {
        return None;
    }
    if path_seqs.len() <= path {
        path_seqs.resize(path + 1, 0);
    }
    let seq = path_seqs[path];
    path_seqs[path] = (seq + 1) % SEQ_MODULUS;
    Some(seq)
}

/// The sending half of a FLUTE session: owns the encoded objects and emits
/// wire datagrams in the configured transmission schedule.
pub struct FluteSender {
    config: SenderConfig,
    objects: Vec<SessionObject>,
}

impl FluteSender {
    /// Creates an empty session.
    pub fn new(config: SenderConfig) -> FluteSender {
        FluteSender {
            config,
            objects: Vec::new(),
        }
    }

    /// Adds one object to the session. Its parity is encoded as the
    /// session's streams first emit it ([`fec_core::Sender`]).
    ///
    /// `toi` must be unique and non-zero; `tx` is the paper-style
    /// transmission model used for this object's packets.
    #[allow(clippy::too_many_arguments)] // a deliberate flat config surface
    pub fn add_object(
        &mut self,
        toi: u32,
        content_location: impl Into<String>,
        object: &[u8],
        code: impl Into<CodecHandle>,
        ratio: ExpansionRatio,
        symbol_size: usize,
        matrix_seed: u64,
        tx: TxModel,
    ) -> Result<(), FluteError> {
        if toi == FDT_TOI {
            return Err(FluteError::Session {
                reason: "TOI 0 is reserved for the FDT".into(),
            });
        }
        if self.objects.iter().any(|o| o.toi == toi) {
            return Err(FluteError::Session {
                reason: format!("duplicate TOI {toi}"),
            });
        }
        let spec = CodeSpec::for_object(code, ratio, object.len(), symbol_size)?
            .with_matrix_seed(matrix_seed);
        let sender = CoreSender::new(spec, object, symbol_size)?;
        let object = SessionObject::new(toi, content_location.into(), sender, tx)?;
        self.objects.push(object);
        Ok(())
    }

    /// The transport session identifier this sender stamps on every
    /// datagram.
    pub fn tsi(&self) -> u32 {
        self.config.tsi
    }

    /// The session's FDT instance, instance 0, as added (a stream
    /// announces its redeployments in later instances of its own).
    pub fn fdt(&self) -> FdtInstance {
        fdt_of(0, self.objects.iter())
    }

    /// Emits the complete session as wire datagrams: FDT first, then every
    /// object's packets in its schedule (objects back to back), with FDT
    /// repeats every `fdt_interval` data packets, the `B` flag on each
    /// object's last packet and the `A` flag on the session's last packet.
    ///
    /// This is [`stream`](Self::stream) collected to completion with no
    /// plan amendments.
    pub fn datagrams(&self, schedule_seed: u64) -> Result<Vec<Vec<u8>>, FluteError> {
        let mut stream = self.stream(schedule_seed);
        let mut out = Vec::new();
        while let Some(dg) = stream.next_datagram()? {
            out.push(dg);
        }
        Ok(out)
    }

    /// Starts an incremental, plan-amendable emission of the session —
    /// the live counterpart of [`datagrams`](Self::datagrams). Pull one
    /// wire datagram at a time with
    /// [`next_datagram`](SessionStream::next_datagram) and move any
    /// in-flight object's stopping point with
    /// [`amend_plan`](SessionStream::amend_plan) whenever the feedback
    /// loop produces a fresh [`TransmissionPlan`](fec_core::TransmissionPlan).
    pub fn stream(&self, schedule_seed: u64) -> SessionStream<'_> {
        let tois = self.objects.iter().map(|o| o.toi);
        let emissions = self
            .objects
            .iter()
            .map(|o| {
                o.sender
                    .emission(o.tx, schedule_seed ^ (o.toi as u64) << 32)
            })
            .collect();
        SessionStream {
            sender: self,
            emissions,
            redeployed: self.objects.iter().map(|_| None).collect(),
            schedule_seed,
            frames: vec![None; self.objects.len()],
            fdt_instance_id: 0,
            fdt_xml: self.fdt().to_xml().into_bytes(),
            current: 0,
            path_seqs: vec![0],
            since_fdt: 0,
            fdt_due: true,
            metrics: StreamMetrics::register(&Registry::disabled(), tois),
        }
    }

    /// Total data packets the session will emit (excluding FDT repeats).
    pub fn data_packet_count(&self) -> u64 {
        self.objects.iter().map(|o| o.sender.packet_count()).sum()
    }
}

/// The incremental sending half of a live session: a cursor over every
/// object's schedule, FDT repeats included, whose per-object stopping
/// points can be amended mid-flight (see
/// [`FluteSender::stream`]).
///
/// The `B`/`A` close flags are stamped on whatever packet is the last one
/// *under the plan in force when it is emitted*; a later extension simply
/// keeps sending (receivers treat the flags as advisory status, not as a
/// hard stop).
///
/// An object none of whose data has left can still change its tuple
/// ([`deploy`](Self::deploy)); the stream then announces it in a new FDT
/// instance. A stream that never redeploys sends only the sender's
/// instance.
pub struct SessionStream<'a> {
    sender: &'a FluteSender,
    emissions: Vec<fec_core::PlannedEmission>,
    /// Objects re-encoded by [`deploy`](Self::deploy), by index.
    redeployed: Vec<Option<SessionObject>>,
    schedule_seed: u64,
    /// Each object's data-datagram header template, built when the
    /// stream first emits that object: a stream resolves per-object facts
    /// (OTI blob, payload-ID format, header layout) once. `None` also
    /// means none of the object's data has left.
    frames: Vec<Option<DataFrame>>,
    fdt_instance_id: u32,
    /// The current FDT instance's document, rendered once per instance.
    fdt_xml: Vec<u8>,
    current: usize,
    /// One EXT_SEQ counter per bonded path (`path_seqs[p]` is the next
    /// sequence number stamped on path `p`), lazily grown. Each path is
    /// its own monotone sequence space — the receiver's per-path gap
    /// accounting ([`ReportEmitter::observe_on`]) depends on it. The
    /// single-path API ([`next_datagram`](Self::next_datagram)) stamps
    /// path 0.
    path_seqs: Vec<u32>,
    since_fdt: usize,
    /// An FDT datagram goes out before anything else: at the start, and
    /// after a redeploy.
    fdt_due: bool,
    metrics: StreamMetrics,
}

impl SessionStream<'_> {
    /// Starts recording this stream's activity into `registry`
    /// (datagram/byte counters, per-TOI progress, amendment counts, and
    /// the planned-vs-full schedule gauges). A disabled registry costs
    /// one branch per datagram.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        let tois = self.sender.objects.iter().map(|o| o.toi);
        self.metrics = StreamMetrics::register(registry, tois);
        self.metrics.planned.set(self.planned_total() as f64);
        self.metrics.full.set(self.full_total() as f64);
    }
    /// The next wire datagram, or `None` once every object's emission
    /// reached its target. Single-path shorthand for
    /// [`next_datagram_routed`](Self::next_datagram_routed) with every
    /// packet on path 0.
    ///
    /// A data datagram costs one allocation and one copy of its symbol:
    /// the returned `Vec` is sized exactly (`capacity() == len()`), filled
    /// from the object's header template and the symbol borrowed from the
    /// encoded object ([`fec_core::Sender::symbol`]). The codec registry,
    /// the OTI serialiser and the header builder run once per object, when
    /// the stream first emits it.
    pub fn next_datagram(&mut self) -> Result<Option<Vec<u8>>, FluteError> {
        Ok(self.next_datagram_routed(|_| 0)?.map(|(_, d)| d))
    }

    /// The next wire datagram for a **bonded** sender, with the carrying
    /// path chosen by `route` and returned alongside the datagram.
    ///
    /// `route` is called once per emitted datagram with `true` when the
    /// packet carries a source symbol (or session control: the FDT rides
    /// the source path) and `false` for repair symbols — the hook a
    /// Kurant-style path scheduler uses to put source packets on
    /// fast-propagation paths and repair on slower ones. The datagram is
    /// sequenced in the chosen path's own EXT_SEQ space.
    pub fn next_datagram_routed<F>(
        &mut self,
        mut route: F,
    ) -> Result<Option<(usize, Vec<u8>)>, FluteError>
    where
        F: FnMut(bool) -> usize,
    {
        if self.fdt_due {
            self.fdt_due = false;
            self.since_fdt = 0;
            let path = route(true);
            return self.fdt_datagram_on(path).map(|d| Some((path, d)));
        }
        let sender = self.sender;
        loop {
            let idx = self.current;
            let Some(emission) = self.emissions.get_mut(idx) else {
                return Ok(None);
            };
            // Classify before consuming so the scheduler sees what it is
            // routing; the subsequent `next_ref` returns the peeked
            // packet.
            let Some(peeked) = emission.peek_ref() else {
                self.current += 1;
                continue;
            };
            // A data packet is definitely coming: emit any due FDT repeat
            // first (this ordering also guarantees the session never
            // trails off with a lone FDT after the A-flagged packet).
            if sender.config.fdt_interval > 0 && self.since_fdt >= sender.config.fdt_interval {
                self.since_fdt = 0;
                let path = route(true);
                return self.fdt_datagram_on(path).map(|d| Some((path, d)));
            }
            let object = self.redeployed[idx].as_ref();
            let object = object.unwrap_or(&sender.objects[idx]);
            let path = route(object.sender.layout().is_source(peeked));
            // Peek just succeeded, so the consume cannot come back empty;
            // the fallback keeps this branch panic-free all the same.
            let r = emission.next_ref().unwrap_or(peeked);
            debug_assert_eq!(r, peeked, "peek/consume must agree");
            let close_object = emission.is_done();
            let close_session = close_object && idx + 1 == self.emissions.len();
            let symbol = object.sender.symbol(r)?;
            let seq = next_seq(&mut self.path_seqs, sender.config.sequence_datagrams, path);
            let frame = match &mut self.frames[idx] {
                Some(frame) => frame,
                slot => slot.insert(object.frame(&sender.config)?),
            };
            let id = FecPayloadId::new(r.block, r.esi);
            let datagram = frame.datagram(id, (close_object, close_session), seq, symbol)?;
            self.since_fdt += 1;
            self.metrics.data.inc();
            self.metrics.bytes.add(datagram.len() as u64);
            self.metrics.per_object[idx].inc();
            return Ok(Some((path, datagram)));
        }
    }

    /// One FDT announcement datagram, sequenced like any other (callers
    /// needing extra FDT robustness can interleave these at will).
    pub fn fdt_datagram(&mut self) -> Result<Vec<u8>, FluteError> {
        self.fdt_datagram_on(0)
    }

    fn fdt_datagram_on(&mut self, path: usize) -> Result<Vec<u8>, FluteError> {
        let config = &self.sender.config;
        let mut alc = AlcPacket::fdt(config.tsi, self.fdt_instance_id, self.fdt_xml.clone());
        if let Some(seq) = next_seq(&mut self.path_seqs, config.sequence_datagrams, path) {
            alc = alc.with_sequence(seq);
        }
        let datagram = alc.to_bytes()?;
        self.metrics.fdt.inc();
        self.metrics.bytes.add(datagram.len() as u64);
        Ok(datagram)
    }

    /// Deploys `toi` under decision `to`, if one is given, and returns the
    /// tuple its data goes out under. A differing decision re-encodes the
    /// object from its own source symbols (same TOI, symbol size and
    /// matrix seed) and announces it in a new FDT instance, which goes out
    /// before anything else. An object keeps its tuple once its data has
    /// started to leave, and in a session whose data packets carry no
    /// EXT_FTI: a receiver that lost the new instance would read the new
    /// encoding under the old announcement.
    pub fn deploy(&mut self, toi: u32, to: Option<&Decision>) -> Result<Decision, FluteError> {
        let idx = self.object_index(toi)?;
        let object = self.redeployed[idx].as_ref();
        let object = object.unwrap_or(&self.sender.objects[idx]);
        let current = object.decision();
        let fixed = self.frames[idx].is_some() || !self.sender.config.fti_in_data_packets;
        let Some(decision) = to.filter(|d| **d != current && !fixed) else {
            return Ok(current);
        };
        let object = object.reencode(decision)?;
        let seed = self.schedule_seed ^ (toi as u64) << 32;
        self.emissions[idx] = object.sender.emission(decision.tx, seed);
        self.redeployed[idx] = Some(object);
        self.fdt_instance_id = self.fdt_instance_id.wrapping_add(1);
        let added = self.sender.objects.iter().zip(&self.redeployed);
        let objects = added.map(|(added, redeployed)| redeployed.as_ref().unwrap_or(added));
        let fdt = fdt_of(self.fdt_instance_id, objects);
        self.fdt_xml = fdt.to_xml().into_bytes();
        self.fdt_due = true;
        self.metrics.planned.set(self.planned_total() as f64);
        self.metrics.full.set(self.full_total() as f64);
        Ok(decision.clone())
    }

    /// The object whose data the stream starts next, while none of it has
    /// left: the last moment it can still be [redeployed](Self::deploy).
    pub fn due(&self) -> Option<u32> {
        let idx = self.in_flight()?;
        let toi = self.sender.objects[idx].toi;
        self.frames[idx].is_none().then_some(toi)
    }

    /// Datagrams sequenced on path `path` so far (the next EXT_SEQ it
    /// will stamp, before wraparound).
    pub fn path_sequenced(&self, path: usize) -> u32 {
        self.path_seqs.get(path).copied().unwrap_or(0)
    }

    /// Moves `toi`'s stopping point to `plan` (`None` = the full
    /// schedule). Unknown TOIs are an error. An amendment that *extends*
    /// an object the cursor already passed rewinds the stream to it (the
    /// failure-backoff "the plan was too thin, keep sending" path), so an
    /// exhausted stream becomes productive again.
    pub fn amend_plan(
        &mut self,
        toi: u32,
        plan: Option<&fec_core::TransmissionPlan>,
    ) -> Result<fec_core::Amendment, FluteError> {
        let idx = self.object_index(toi)?;
        let amendment = self.emissions[idx].amend(plan);
        if matches!(amendment, fec_core::Amendment::Extended { .. }) && idx < self.current {
            self.current = idx;
        }
        match amendment {
            fec_core::Amendment::Truncated { .. } => self.metrics.amend_truncated.inc(),
            fec_core::Amendment::Extended { .. } => self.metrics.amend_extended.inc(),
            fec_core::Amendment::Unchanged => {}
        }
        self.metrics.planned.set(self.planned_total() as f64);
        Ok(amendment)
    }

    /// Queues targeted repair packets for the symbols receivers NACKed
    /// (see
    /// [`FeedbackAggregator::take_nack_requests`](crate::feedback::FeedbackAggregator::take_nack_requests)).
    /// Queued symbols jump ahead of the schedule and are deduped while
    /// waiting; entries for unknown TOIs or out-of-layout symbols are
    /// skipped (stale NACKs are normal on a lossy return channel), and a
    /// queue into an object the cursor already passed rewinds the stream
    /// to it. Returns how many packets were actually enqueued.
    pub fn queue_repair(&mut self, requests: &[crate::feedback::NackEntry]) -> u64 {
        let mut queued = 0;
        for req in requests {
            let Ok(idx) = self.object_index(req.toi) else {
                continue;
            };
            let object = self.redeployed[idx].as_ref();
            let layout = object.unwrap_or(&self.sender.objects[idx]).sender.layout();
            let refs: Vec<fec_sched::PacketRef> = req
                .esis
                .iter()
                .map(|&esi| fec_sched::PacketRef {
                    block: req.block,
                    esi,
                })
                .filter(|r| layout.contains(*r))
                .collect();
            let added = self.emissions[idx].queue_repair(refs);
            if added > 0 && idx < self.current {
                self.current = idx;
            }
            queued += added;
        }
        queued
    }

    /// Targeted repair packets emitted so far, across all objects.
    pub fn repairs_sent(&self) -> u64 {
        self.emissions.iter().map(|e| e.repairs_sent()).sum()
    }

    /// Stops `toi`'s emission where it stands (e.g. a digest reported the
    /// object complete — nothing more is needed). Idempotent.
    pub fn stop_object(&mut self, toi: u32) -> Result<fec_core::Amendment, FluteError> {
        let idx = self.object_index(toi)?;
        let amendment = self.emissions[idx].stop();
        if matches!(amendment, fec_core::Amendment::Truncated { .. }) {
            self.metrics.stops.inc();
        }
        self.metrics.planned.set(self.planned_total() as f64);
        Ok(amendment)
    }

    fn object_index(&self, toi: u32) -> Result<usize, FluteError> {
        self.sender
            .objects
            .iter()
            .position(|o| o.toi == toi)
            .ok_or_else(|| FluteError::Session {
                reason: format!("cannot amend unknown TOI {toi}"),
            })
    }

    /// The TOI currently being emitted, if the stream is not done.
    pub fn current_toi(&self) -> Option<u32> {
        self.in_flight().map(|i| self.sender.objects[i].toi)
    }

    fn in_flight(&self) -> Option<usize> {
        // `current` only advances when a later datagram is pulled, so skip
        // finished emissions to answer "what is in flight *now*".
        (self.current..self.emissions.len()).find(|&i| !self.emissions[i].is_done())
    }

    /// Source packet count (`k`) of one object — the planner's input.
    pub fn source_count(&self, toi: u32) -> Option<u64> {
        self.sender
            .objects
            .iter()
            .find(|o| o.toi == toi)
            .map(|o| o.sender.source_count())
    }

    /// Sum of the current per-object targets.
    pub fn planned_total(&self) -> u64 {
        self.emissions.iter().map(|e| e.target()).sum()
    }

    /// Sum of the full per-object schedules as the objects are deployed
    /// now (what a plan-free session would send; a redeploy changes it).
    pub fn full_total(&self) -> u64 {
        self.emissions.iter().map(|e| e.schedule_len()).sum()
    }

    /// True once every emission reached its current target.
    pub fn is_done(&self) -> bool {
        self.emissions.iter().all(|e| e.is_done())
    }
}

/// Decoding status of one object at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectStatus {
    /// Packets seen, but no OTI yet (neither EXT_FTI nor FDT entry).
    AwaitingOti,
    /// Decoding in progress.
    Decoding,
    /// Fully decoded; the object bytes are available.
    Complete,
    /// The sender closed the object (`B` flag) before we could decode it.
    ClosedIncomplete,
}

/// What a receiver holds once an object's OTI is known: the OTI and the
/// geometry every datagram of the object is read in and checked against,
/// resolved once instead of per datagram.
struct Geometry {
    oti: ObjectTransmissionInfo,
    codepoint: u8,
    format: PayloadIdFormat,
    layout: Layout,
}

/// An object's geometry and decoder, each boxed: an object's table slot
/// holds two pointers to them, and a finished object's slot stays small.
type Started = (Box<Geometry>, Box<CoreReceiver>);

impl Geometry {
    /// Resolves `oti` into the geometry and a decoder for it.
    fn resolve(oti: ObjectTransmissionInfo) -> Result<Started, FluteError> {
        let spec = oti.code_spec()?;
        let layout = spec.layout()?;
        let receiver =
            CoreReceiver::new(spec, oti.transfer_length as usize, oti.symbol_size as usize)?;
        let geometry = Geometry {
            codepoint: oti.fti_id(),
            format: PayloadIdFormat::for_code(&oti.code),
            layout,
            oti,
        };
        Ok((Box::new(geometry), Box::new(receiver)))
    }

    /// Whether `packet` addresses a symbol of this object and `symbol` has
    /// the advertised size — what the decoder would otherwise refuse,
    /// failing the whole burst around it.
    fn admits(&self, packet: PacketRef, symbol: &[u8]) -> bool {
        self.layout.contains(packet) && symbol.len() == usize::from(self.oti.symbol_size)
    }
}

#[derive(Default)]
struct ObjectState {
    geometry: Option<Box<Geometry>>,
    /// Dropped when the object completes.
    receiver: Option<Box<CoreReceiver>>,
    /// Data symbols held until the OTI is known — the only place the
    /// receive path owns symbol bytes.
    pre_oti: Vec<(PacketRef, Vec<u8>)>,
    decoded: Option<Vec<u8>>,
    /// Sticky: a carousel's later cycles stay duplicates of a finished
    /// object while its entry lives (see [`FluteReceiver::take_object`]).
    complete: bool,
    /// The geometry came from an FDT and no symbol has been accepted
    /// under it yet: a newer instance or a data packet's EXT_FTI may still
    /// replace it (the sender redeployed the object before sending it).
    provisional: bool,
    packets_received: u64,
    closed: bool,
    /// Distinct ESIs seen per block — only populated in NACK mode (see
    /// [`FluteReceiver::enable_nacks`]), where the per-block gaps become
    /// the digest's missing-symbol section.
    seen_esis: std::collections::BTreeMap<u32, std::collections::BTreeSet<u32>>,
}

impl ObjectState {
    /// The status of an object not finished yet.
    fn status(&self) -> ObjectStatus {
        if self.closed {
            ObjectStatus::ClosedIncomplete
        } else if self.geometry.is_none() {
            ObjectStatus::AwaitingOti
        } else {
            ObjectStatus::Decoding
        }
    }

    /// Learns the OTI an FDT lists (idempotent). A provisional OTI gives
    /// way to a differing one; once a symbol was accepted, a conflict is
    /// an error. True when the symbols buffered before it complete the
    /// object.
    fn set_oti(&mut self, oti: ObjectTransmissionInfo) -> Result<bool, FluteError> {
        match &self.geometry {
            Some(existing) if existing.oti == oti => Ok(false),
            Some(_) if !self.provisional => Err(FluteError::Session {
                reason: "conflicting OTI for the same TOI".into(),
            }),
            _ => self.start(Geometry::resolve(oti)?),
        }
    }

    /// Starts decoding under a freshly resolved geometry, which stays
    /// provisional unless buffered symbols were accepted under it. True
    /// when those symbols complete the object.
    fn start(&mut self, (geometry, receiver): Started) -> Result<bool, FluteError> {
        // Drain everything buffered before the OTI arrived, as one batch —
        // the late-FDT catch-up is the single largest symbol burst a
        // receiver ever sees. Nothing could judge those datagrams on
        // arrival: what the geometry refuses is dropped, and uncounted,
        // here.
        let buffered = std::mem::take(&mut self.pre_oti);
        let symbols: Vec<Symbol<'_>> = buffered
            .iter()
            .filter(|(packet, payload)| geometry.admits(*packet, payload))
            .map(|(packet, payload)| Symbol {
                packet: *packet,
                payload,
            })
            .collect();
        self.packets_received -= (buffered.len() - symbols.len()) as u64;
        self.provisional = symbols.is_empty();
        self.geometry = Some(geometry);
        self.receiver = Some(receiver);
        self.feed(&symbols)
    }

    /// Feeds a burst of this object's symbols, borrowed from the receive
    /// buffers, through the decoder's batched entry point
    /// ([`CoreReceiver::push_symbols`]), which defers block solves to the
    /// end of the batch instead of attempting one per symbol. True when
    /// this burst completes the object.
    fn feed(&mut self, symbols: &[Symbol<'_>]) -> Result<bool, FluteError> {
        if self.complete || symbols.is_empty() {
            return Ok(false); // late duplicates after completion are normal
        }
        let Some(receiver) = self.receiver.as_mut() else {
            if self.pre_oti.len() + symbols.len() > MAX_PRE_OTI_BUFFER {
                return Err(FluteError::Session {
                    reason: format!("{MAX_PRE_OTI_BUFFER} packets buffered with no OTI in sight"),
                });
            }
            self.pre_oti
                .extend(symbols.iter().map(|s| (s.packet, s.payload.to_vec())));
            return Ok(false);
        };
        if receiver.push_symbols(symbols)?.is_decoded() {
            if let Some(receiver) = self.receiver.take() {
                self.decoded = Some(receiver.into_object()?);
                self.complete = true;
            }
        }
        Ok(self.complete)
    }
}

/// The TOIs of the session's finished objects, as disjoint inclusive
/// runs keyed by their first TOI: objects that finish in TOI order cost
/// one run in all, however many there were.
#[derive(Default)]
struct FinishedTois(BTreeMap<u32, u32>);

impl FinishedTois {
    fn contains(&self, toi: u32) -> bool {
        let below = self.0.range(..=toi).next_back();
        below.is_some_and(|(_, &last)| toi <= last)
    }

    /// Adds `toi`, joining it to the runs it touches.
    fn insert(&mut self, toi: u32) {
        if self.contains(toi) {
            return;
        }
        let next = toi.checked_add(1).and_then(|next| self.0.remove(&next));
        let last = next.unwrap_or(toi);
        // A run below `toi` ends before it, so its end + 1 cannot overflow.
        match self.0.range_mut(..toi).next_back() {
            Some((_, end)) if *end + 1 == toi => *end = last,
            _ => _ = self.0.insert(toi, last),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().flat_map(|(&first, &last)| first..=last)
    }
}

/// What a pushed datagram did to the session state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiverEvent {
    /// A new FDT instance was accepted.
    FdtReceived,
    /// A stale or duplicate FDT was ignored.
    FdtIgnored,
    /// A data packet advanced (or duplicated into) the given TOI.
    ObjectProgress {
        /// The object the packet belonged to.
        toi: u32,
    },
    /// The given TOI just finished decoding.
    ObjectComplete {
        /// The object that completed.
        toi: u32,
    },
    /// A packet for another session (TSI mismatch) was ignored.
    ForeignSession,
    /// A malformed datagram was skipped (batched path only — the rest of
    /// the burst is unaffected; [`FluteReceiver::push_datagram`] surfaces
    /// the parse error instead).
    Rejected,
}

/// The receiving half of a FLUTE session.
///
/// An object's entry lives while it decodes and after it completes, until
/// its bytes are taken and then another object's are: then it folds into
/// the set of finished TOIs, so a long-lived receiver holds at most one
/// taken entry, and its finished objects cost one run per stretch of
/// consecutive TOIs.
pub struct FluteReceiver {
    tsi: u32,
    fdt: Option<FdtInstance>,
    objects: HashMap<u32, ObjectState>,
    /// Every object that completed, its entry live or folded.
    finished: FinishedTois,
    /// The object whose bytes were taken last: its entry folds at the
    /// next take.
    taken: Option<u32>,
    emitter: Option<ReportEmitter>,
    nack_mode: bool,
    last_nacked: Vec<crate::feedback::NackEntry>,
    metrics: ReceiverMetrics,
    /// Where an emitter enabled later registers its bundle.
    registry: Registry,
}

impl FluteReceiver {
    /// Creates a receiver joined to session `tsi`.
    pub fn new(tsi: u32) -> FluteReceiver {
        FluteReceiver {
            tsi,
            fdt: None,
            objects: HashMap::new(),
            finished: FinishedTois::default(),
            taken: None,
            emitter: None,
            nack_mode: false,
            last_nacked: Vec::new(),
            metrics: ReceiverMetrics::register(&Registry::disabled()),
            registry: Registry::disabled(),
        }
    }

    /// Attaches a reception-report emitter to the receive path: every
    /// accepted datagram is observed (EXT_SEQ gap detection + per-TOI
    /// counters) and digests become available through
    /// [`poll_report`](Self::poll_report) /
    /// [`flush_report`](Self::flush_report). Objects already complete are
    /// reported complete.
    pub fn enable_reports(&mut self, config: ReportConfig) {
        let mut emitter = ReportEmitter::new(self.tsi, config);
        emitter.attach_telemetry(&self.registry);
        self.emitter = Some(emitter);
        report_complete(self.emitter.as_mut(), self.finished.iter());
        self.report_session_complete();
    }

    /// Records that object `toi` just completed: the one place a
    /// completion is marked.
    fn finish(&mut self, toi: u32) {
        self.finished.insert(toi);
        report_complete(self.emitter.as_mut(), [toi]);
        self.report_session_complete();
    }

    /// Sets the digests' FIN flag once every file the FDT lists is done.
    fn report_session_complete(&mut self) {
        if self.emitter.is_some() && self.all_complete() {
            if let Some(em) = self.emitter.as_mut() {
                em.mark_session_complete();
            }
        }
    }

    /// Starts recording this receiver's activity into `registry`:
    /// datagram outcome counters, decode completions, and — once reports
    /// are enabled — the emitter's loss-process metrics (EXT_SEQ gaps,
    /// late/duplicate arrivals, sketch truncations, loss-run histograms).
    /// Call order relative to [`enable_reports`](Self::enable_reports)
    /// does not matter.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = ReceiverMetrics::register(registry);
        if let Some(emitter) = self.emitter.as_mut() {
            emitter.attach_telemetry(registry);
        }
        self.registry = registry.clone();
    }

    /// Folds the loss runs of still-undecoded objects into the residual
    /// (post-FEC) loss metrics. Call once, when the session is over from
    /// this receiver's point of view; without it the residual histograms
    /// stay empty (every run is presumed repairable until the session
    /// ends). No-op when reports are off.
    pub fn finalize_telemetry(&mut self) {
        if let Some(emitter) = self.emitter.as_mut() {
            emitter.finalize_residual();
        }
    }

    /// Switches the receiver into NACK mode: per-block reception gaps
    /// are tracked and every digest carries a missing-symbol section
    /// (see [`NackEntry`](crate::feedback::NackEntry)), so the sender
    /// can emit *targeted* repair instead of extending whole schedules.
    /// Combine with [`enable_reports`](Self::enable_reports).
    pub fn enable_nacks(&mut self) {
        self.nack_mode = true;
    }

    /// The symbols this receiver still needs, per `(toi, block)`: for
    /// each undecoded object, up to `k - seen` not-yet-received ESIs per
    /// short block (lowest first, so source symbols are preferred).
    /// Empty unless [`enable_nacks`](Self::enable_nacks) was called and
    /// something is actually missing.
    fn missing_symbols(&self) -> Vec<crate::feedback::NackEntry> {
        let mut out = Vec::new();
        if !self.nack_mode {
            return out;
        }
        let mut tois: Vec<u32> = self.objects.keys().copied().collect();
        tois.sort_unstable();
        for toi in tois {
            if toi == FDT_TOI {
                continue;
            }
            let Some(state) = self.objects.get(&toi) else {
                continue;
            };
            if state.complete {
                continue;
            }
            let Some(geometry) = &state.geometry else {
                continue;
            };
            let Geometry { oti, layout, .. } = &**geometry;
            for b in 0..layout.num_blocks() {
                let (k, n) = layout.block(b);
                let seen = state.seen_esis.get(&(b as u32));
                let have = seen.map_or(0, |s| s.len());
                let needed = if have >= k {
                    if !oti.code.is_large_block() {
                        // Enough distinct symbols for an MDS block: it
                        // will solve, nothing to request.
                        continue;
                    }
                    // A large-block (LDGM) object can hold >= k symbols
                    // and still be short: the decoder completes by
                    // maximum likelihood after every batch, so an object
                    // still decoding here holds a rank-deficient set.
                    // Keep requesting a margin of fresh symbols (lowest
                    // ESIs first, i.e. missing *source* symbols, which
                    // always add rank) until the solve goes through.
                    (k / 16).max(4)
                } else {
                    k - have
                };
                let esis: Vec<u32> = (0..n as u32)
                    .filter(|e| seen.is_none_or(|s| !s.contains(e)))
                    .take(needed)
                    .collect();
                if !esis.is_empty() {
                    out.push(crate::feedback::NackEntry {
                        toi,
                        block: b as u32,
                        esis,
                    });
                }
            }
        }
        out
    }

    /// Recomputes the missing-symbol section and hands it to the
    /// emitter: a *changed* set counts as news (the next timer flush
    /// emits it), an unchanged set just rides along with whatever digest
    /// goes out next — so an idle receiver does not re-emit identical
    /// NACKs every tick.
    fn refresh_nacks(&mut self) {
        if !self.nack_mode || self.emitter.is_none() {
            return;
        }
        let nacks = self.missing_symbols();
        let changed = nacks != self.last_nacked;
        if let Some(em) = self.emitter.as_mut() {
            if changed {
                self.last_nacked = nacks.clone();
                em.set_nacks(nacks);
            } else {
                em.carry_nacks(nacks);
            }
        }
    }

    /// A digest, if the configured batching threshold has been reached.
    /// Call after each [`push_datagrams`](Self::push_datagrams) burst and
    /// ship the bytes down the return channel.
    pub fn poll_report(&mut self) -> Option<ReceptionReport> {
        self.refresh_nacks();
        self.emitter.as_mut().and_then(ReportEmitter::poll)
    }

    /// A digest now, regardless of the threshold — the caller's timer
    /// tick, or the final FIN digest after completion. `None` if reports
    /// are disabled or nothing was ever observed.
    pub fn flush_report(&mut self) -> Option<ReceptionReport> {
        self.refresh_nacks();
        self.emitter.as_mut().and_then(ReportEmitter::flush)
    }

    /// Feeds one raw datagram (as read from the socket). Unlike the burst
    /// entry point, which skips what it cannot parse, this one names the
    /// reason: a malformed datagram is an `Err`.
    pub fn push_datagram(&mut self, datagram: &[u8]) -> Result<ReceiverEvent, FluteError> {
        let event = self.push_datagrams(&[datagram])?.pop();
        if event == Some(ReceiverEvent::Rejected) {
            // Off the hot path: parse again, for the error the burst path
            // skipped over. A datagram that parses was refused by the
            // session (bad FTI blob, garbled FDT, outside the object's
            // geometry) and stays an event.
            AlcPacket::from_bytes(datagram)?;
        }
        Ok(event.unwrap_or(ReceiverEvent::Rejected))
    }

    /// Feeds a burst of raw datagrams — everything a socket drain produced
    /// in one wakeup — returning one event per datagram in order.
    ///
    /// Consecutive data packets of the same object are funnelled through
    /// the decoder's batched entry point
    /// ([`push_symbols`](fec_core::Receiver::push_symbols)), which defers
    /// block solves to the end of the burst; a burst that completes an
    /// object reports [`ReceiverEvent::ObjectComplete`] on that object's
    /// last datagram of the burst. FDT packets act as batch barriers so
    /// metadata still applies in arrival order.
    ///
    /// Every datagram is read in place: once an object's OTI is known,
    /// nothing is allocated per datagram and its symbol is copied exactly
    /// once, from the caller's buffer into the decoder's store (only
    /// symbols that arrive before the OTI are buffered as owned bytes).
    /// The buffers are only borrowed for the duration of the call.
    ///
    /// Malformed datagrams are skipped with [`ReceiverEvent::Rejected`]
    /// (one corrupt datagram must not cost the burst), and so is a
    /// well-formed data datagram the object's geometry refuses — an
    /// (SBN, ESI) outside the layout, a symbol of the wrong size, an
    /// EXT_FTI no decoder can be built from. A rejected datagram touches
    /// no counter: not [`packets_received`](Self::packets_received), not
    /// the report emitter, not the `A`/`B` flags. `Err` is reserved for
    /// session-fatal states such as conflicting OTIs.
    pub fn push_datagrams<D: AsRef<[u8]>>(
        &mut self,
        datagrams: &[D],
    ) -> Result<Vec<ReceiverEvent>, FluteError> {
        self.push_datagrams_on(0, datagrams)
    }

    /// Feeds a burst that arrived on bonded path `path`: identical to
    /// [`push_datagrams`](Self::push_datagrams) except the report
    /// emitter's EXT_SEQ gap accounting uses that path's own sequence
    /// track — a bonded sender stamps an independent EXT_SEQ space per
    /// path, so feeding a path's traffic through the single-path entry
    /// point would misread cross-path interleaving as loss/reordering.
    pub fn push_datagrams_on<D: AsRef<[u8]>>(
        &mut self,
        path: usize,
        datagrams: &[D],
    ) -> Result<Vec<ReceiverEvent>, FluteError> {
        let mut events = Vec::with_capacity(datagrams.len());
        // Per-TOI bursts awaiting a batched feed, in first-seen order,
        // plus the event slot of each data datagram (to upgrade the right
        // entry to ObjectComplete once its burst decodes).
        let mut pending: Vec<(u32, Vec<Symbol<'_>>)> = Vec::new();
        let mut data_slots: Vec<(usize, u32)> = Vec::new();

        for datagram in datagrams {
            // Network garbage must not sink the burst's good datagrams:
            // skip it and keep going.
            let Ok(view) = LctView::walk(datagram.as_ref(), false) else {
                events.push(ReceiverEvent::Rejected);
                continue;
            };
            if view.header.tsi != self.tsi {
                events.push(ReceiverEvent::ForeignSession);
                continue;
            }
            if view.header.toi == FDT_TOI {
                if let Some(em) = self.emitter.as_mut() {
                    em.observe_on(path, FDT_TOI, view.seq);
                }
                // The FDT may unlock buffered objects; keep arrival order
                // by flushing the bursts collected so far first.
                self.flush_pending(&mut pending, &mut events, &mut data_slots)?;
                match self.accept_fdt(&view) {
                    Ok(event) => events.push(event),
                    // A garbled FDT payload (bad UTF-8, bad XML, missing
                    // EXT_FDT) is one bad datagram, not a dead session. A
                    // *conflicting* OTI for an object we are already
                    // decoding stays session-fatal.
                    Err(e @ FluteError::Session { .. }) => return Err(e),
                    Err(_) => events.push(ReceiverEvent::Rejected),
                }
                continue;
            }

            let toi = view.header.toi;
            let state = self.objects.get(&toi);
            if state.is_none() && self.finished.contains(toi) {
                // A folded object's late datagram (a carousel's next
                // cycle): a duplicate, and nothing is built for it.
                if let Some(em) = self.emitter.as_mut() {
                    em.observe_on(path, toi, view.seq);
                }
                events.push(ReceiverEvent::ObjectProgress { toi });
                continue;
            }
            let Some((symbol, fresh)) = Self::judge(state, &view) else {
                events.push(ReceiverEvent::Rejected);
                continue;
            };
            if fresh.is_some() {
                // Symbols of this object collected earlier in the burst
                // were judged without a geometry: route them through the
                // pre-OTI buffer, which `start` drains against it.
                self.flush_pending(&mut pending, &mut events, &mut data_slots)?;
            }
            if let Some(em) = self.emitter.as_mut() {
                em.observe_on(path, toi, view.seq);
            }
            let state = self.objects.entry(toi).or_default();
            state.closed |= view.header.close_object;
            state.packets_received += 1;
            let started_complete = fresh.map_or(Ok(false), |resolved| state.start(resolved))?;
            state.provisional = false;
            if !state.complete {
                if self.nack_mode {
                    let PacketRef { block, esi } = symbol.packet;
                    state.seen_esis.entry(block).or_default().insert(esi);
                }
                match pending.iter_mut().find(|(t, _)| *t == toi) {
                    Some((_, batch)) => batch.push(symbol),
                    None => pending.push((toi, vec![symbol])),
                }
            }
            data_slots.push((events.len(), toi));
            events.push(ReceiverEvent::ObjectProgress { toi });
            if started_complete {
                self.finish(toi);
            }
        }
        self.flush_pending(&mut pending, &mut events, &mut data_slots)?;
        let m = &self.metrics;
        for event in &events {
            match event {
                ReceiverEvent::FdtReceived => m.fdt.inc(),
                ReceiverEvent::FdtIgnored => m.fdt_ignored.inc(),
                ReceiverEvent::ObjectProgress { .. } => m.data.inc(),
                ReceiverEvent::ObjectComplete { .. } => {
                    m.data.inc();
                    m.completed.inc();
                }
                ReceiverEvent::ForeignSession => m.foreign.inc(),
                ReceiverEvent::Rejected => m.rejected.inc(),
            }
        }
        Ok(events)
    }

    /// Judges a data datagram on the borrowed view, before it touches any
    /// state: its symbol, plus the geometry and decoder its EXT_FTI starts
    /// when the object's OTI was still unknown — or `None` for a datagram
    /// to reject. The payload-ID format comes from the object once its OTI
    /// is known; the registry is asked only before that. `state` is the
    /// object's entry, if it has one.
    fn judge<'a>(
        state: Option<&ObjectState>,
        view: &LctView<'a>,
    ) -> Option<(Symbol<'a>, Option<Started>)> {
        let known = state.and_then(|s| s.geometry.as_ref());
        let format = match known {
            Some(geometry) if geometry.codepoint == view.header.codepoint => geometry.format,
            _ => PayloadIdFormat::for_fti(view.header.codepoint).ok()?,
        };
        let (id, payload) = split_symbol(view.body, format).ok()?;
        let packet = PacketRef {
            block: id.sbn,
            esi: id.esi,
        };
        // EXT_FTI on the packet lets decoding start before any FDT
        // arrives, and replaces a provisional OTI it contradicts (the FDT
        // instance announcing a redeploy was lost). A blob that is
        // corrupt, or that no decoder can be built from, is per-datagram
        // garbage.
        let fresh = match view.fti {
            Some(blob) if known.is_none() || state.is_some_and(|s| s.provisional) => {
                let oti = ObjectTransmissionInfo::from_bytes(blob).ok()?;
                let differs = known.is_none_or(|geometry| geometry.oti != oti);
                differs.then(|| Geometry::resolve(oti)).transpose().ok()?
            }
            _ => None,
        };
        let geometry = fresh.as_ref().map(|(geometry, _)| geometry).or(known);
        geometry
            .is_none_or(|g| g.admits(packet, payload))
            .then_some((Symbol { packet, payload }, fresh))
    }

    /// Feeds the collected per-object bursts down to the decoders, and
    /// finishes each object one completes, upgrading its last event of
    /// the burst.
    fn flush_pending(
        &mut self,
        pending: &mut Vec<(u32, Vec<Symbol<'_>>)>,
        events: &mut [ReceiverEvent],
        data_slots: &mut Vec<(usize, u32)>,
    ) -> Result<(), FluteError> {
        for (toi, batch) in pending.drain(..) {
            let Some(state) = self.objects.get_mut(&toi) else {
                continue;
            };
            if state.feed(&batch)? {
                self.finish(toi);
                if let Some(&(slot, _)) = data_slots.iter().rev().find(|(_, t)| *t == toi) {
                    events[slot] = ReceiverEvent::ObjectComplete { toi };
                }
            }
        }
        data_slots.clear();
        Ok(())
    }

    fn accept_fdt(&mut self, view: &LctView<'_>) -> Result<ReceiverEvent, FluteError> {
        let instance_id = view.fdt_instance.ok_or_else(|| FluteError::Malformed {
            reason: "FDT packet without EXT_FDT".into(),
        })?;
        if let Some(existing) = &self.fdt {
            if existing.instance_id >= instance_id {
                return Ok(ReceiverEvent::FdtIgnored);
            }
        }
        let text = std::str::from_utf8(view.body).map_err(|_| FluteError::Xml {
            reason: "FDT payload is not UTF-8".into(),
        })?;
        let fdt = FdtInstance::from_xml_with_id(text, instance_id)?;
        // Every listed file whose OTI we did not know yet can start
        // decoding, and one not sent yet takes the newer instance's OTI;
        // for files already decoding, this cross-checks that the FDT
        // agrees with the OTI we acted on (set_oti rejects conflicts).
        // A finished file has nothing left to learn.
        for file in &fdt.files {
            if self.finished.contains(file.toi) {
                continue;
            }
            let state = self.objects.entry(file.toi).or_default();
            if state.set_oti(file.oti.clone())? {
                self.finish(file.toi);
            }
        }
        self.fdt = Some(fdt);
        self.report_session_complete();
        Ok(ReceiverEvent::FdtReceived)
    }

    /// The most recent FDT instance, if any arrived.
    pub fn fdt(&self) -> Option<&FdtInstance> {
        self.fdt.as_ref()
    }

    /// Status of one object: [`ObjectStatus::Complete`] once it is
    /// finished, its entry live or folded.
    pub fn object_status(&self, toi: u32) -> Option<ObjectStatus> {
        if self.finished.contains(toi) {
            return Some(ObjectStatus::Complete);
        }
        self.objects.get(&toi).map(ObjectState::status)
    }

    /// Data packets received for one object (duplicates included), while
    /// its entry lives: 0 once it has folded (see
    /// [`take_object`](Self::take_object)).
    pub fn packets_received(&self, toi: u32) -> u64 {
        self.objects.get(&toi).map_or(0, |s| s.packets_received)
    }

    /// Borrows a decoded object's bytes.
    pub fn object(&self, toi: u32) -> Option<&[u8]> {
        self.objects.get(&toi).and_then(|s| s.decoded.as_deref())
    }

    /// Removes and returns a decoded object. The object stays
    /// [`ObjectStatus::Complete`]: later datagrams for it (a carousel's
    /// next cycle) are counted as duplicates and buffer nothing. Its entry
    /// — what [`packets_received`](Self::packets_received) reads — lives
    /// until the next object is taken; then it folds into the finished
    /// set, and later datagrams for it are no longer counted.
    pub fn take_object(&mut self, toi: u32) -> Option<Vec<u8>> {
        let decoded = self.objects.get_mut(&toi)?.decoded.take()?;
        if let Some(previous) = self.taken.replace(toi) {
            self.objects.remove(&previous);
        }
        Some(decoded)
    }

    /// True once every file listed in the FDT is decoded. False while no
    /// FDT has been received (we cannot know the session's contents).
    pub fn all_complete(&self) -> bool {
        self.fdt
            .as_ref()
            .is_some_and(|fdt| fdt.files.iter().all(|f| self.finished.contains(f.toi)))
    }
}

/// Marks `tois` complete in the report emitter, if reports are on.
fn report_complete(emitter: Option<&mut ReportEmitter>, tois: impl IntoIterator<Item = u32>) {
    if let Some(em) = emitter {
        tois.into_iter().for_each(|toi| em.mark_complete(toi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session_with_object(data: &[u8], tx: TxModel) -> FluteSender {
        let mut sender = FluteSender::new(SenderConfig::new(7));
        sender
            .add_object(
                1,
                "file:///demo.bin",
                data,
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                16,
                99,
                tx,
            )
            .unwrap();
        sender
    }

    fn object_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Whether `dg` is a data datagram (not an FDT one).
    fn is_data(dg: &[u8]) -> bool {
        AlcPacket::from_bytes(dg).unwrap().payload_id.is_some()
    }

    #[test]
    fn lossless_delivery_roundtrip() {
        let data = object_bytes(1000);
        let sender = session_with_object(&data, TxModel::Random);
        let mut receiver = FluteReceiver::new(7);
        let mut completed = false;
        for dg in sender.datagrams(5).unwrap() {
            if let ReceiverEvent::ObjectComplete { toi } = receiver.push_datagram(&dg).unwrap() {
                assert_eq!(toi, 1);
                completed = true;
            }
        }
        assert!(completed);
        assert!(receiver.all_complete());
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert_eq!(receiver.take_object(1).unwrap(), data);
        // FDT metadata arrived too.
        assert_eq!(
            receiver.fdt().unwrap().file(1).unwrap().content_location,
            "file:///demo.bin"
        );
    }

    /// The paper's k = 20 000 under RSE: 118 blocks that do not come out
    /// even, so the advertised `n` is a sum of per-block floors. The
    /// receiver must rebuild the sender's exact block partition from the
    /// OTI alone — and then recover every tenth packet from parity.
    #[test]
    fn rse_k20000_uneven_blocks_roundtrip_byte_true() {
        let data = object_bytes(20_000 * 16 - 5);
        let mut sender = FluteSender::new(SenderConfig::new(7));
        sender
            .add_object(
                1,
                "file:///paper-scale.bin",
                &data,
                fec_codec::builtin::rse(),
                ExpansionRatio::R1_5,
                16,
                0,
                TxModel::Interleaved,
            )
            .unwrap();
        let mut receiver = FluteReceiver::new(7);
        for (i, dg) in sender.datagrams(5).unwrap().iter().enumerate() {
            if i % 10 != 9 {
                receiver.push_datagram(dg).unwrap();
            }
        }
        assert!(receiver.all_complete());
        assert_eq!(receiver.take_object(1).unwrap(), data);
    }

    /// The full NACK loop on one stream: drop known symbols, let the
    /// receiver's digest name them, aggregate, queue targeted repair,
    /// and verify exactly those symbols close the object byte-exactly.
    #[test]
    fn nack_loop_repairs_exactly_the_missing_symbols() {
        use crate::feedback::{AggregatorConfig, FeedbackAggregator};
        use fec_adapt::ControllerConfig;
        use std::net::SocketAddr;

        let data = object_bytes(50 * 8);
        let mut sender = FluteSender::new(SenderConfig::new(7));
        sender
            .add_object(
                1,
                "file:///nack.bin",
                &data,
                fec_codec::builtin::rse(),
                ExpansionRatio::R2_5,
                8,
                99,
                TxModel::SourceSeqParitySeq,
            )
            .unwrap();
        let mut stream = sender.stream(5);
        let mut receiver = FluteReceiver::new(7);
        receiver.enable_reports(ReportConfig::default());
        receiver.enable_nacks();

        // Deliver the FDT and the k source packets, dropping three ESIs.
        let dropped = [3u32, 17, 29];
        let mut delivered = 0;
        while delivered < 50 {
            let dg = stream.next_datagram().unwrap().unwrap();
            let packet = AlcPacket::from_bytes(&dg).unwrap();
            if packet.header.toi == FDT_TOI {
                receiver.push_datagram(&dg).unwrap();
                continue;
            }
            delivered += 1;
            let esi = packet.payload_id.unwrap().esi;
            if dropped.contains(&esi) {
                continue;
            }
            receiver.push_datagram(&dg).unwrap();
        }
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Decoding));
        let missing = receiver.missing_symbols();
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].toi, 1);
        assert_eq!(missing[0].esis, dropped.to_vec());

        // The digest carries the NACKs to the sender's aggregator…
        let digest = receiver.flush_report().expect("losses are news");
        assert_eq!(digest.nacks, missing);
        let mut agg =
            FeedbackAggregator::new(7, AggregatorConfig::default(), ControllerConfig::default());
        let src: SocketAddr = "10.0.0.1:4000".parse().unwrap();
        agg.ingest(src, &digest);
        let requests = agg.take_nack_requests();
        assert_eq!(requests, missing);

        // …which repairs exactly those symbols instead of the remaining
        // 75-packet parity schedule.
        stream.stop_object(1).unwrap();
        assert_eq!(stream.queue_repair(&requests), 3);
        let mut repairs = Vec::new();
        while let Some(dg) = stream.next_datagram().unwrap() {
            repairs.push(dg);
        }
        assert_eq!(repairs.len(), 3, "targeted repair, not the schedule");
        for dg in &repairs {
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert!(receiver.missing_symbols().is_empty());
        // A fresh NACK for a completed object is ignored sender-side…
        let stale = requests.clone();
        agg.ingest(src, &{
            let mut d = digest.clone();
            d.report_seq += 1;
            for e in d.entries.iter_mut().filter(|e| e.toi == 1) {
                e.complete = true;
            }
            d
        });
        assert!(agg.is_complete(1));
        // …and queueing unknown TOIs/ESIs is harmless.
        let bogus = crate::feedback::NackEntry {
            toi: 9,
            block: 0,
            esis: vec![1],
        };
        assert_eq!(stream.queue_repair(&[bogus]), 0);
        assert_eq!(stream.repairs_sent(), 3);
        drop(stale);
    }

    /// A receiver that can finish an object locally sends no NACK for
    /// it. Here the symbols held stall the paper's peeling decoder but
    /// determine the object: it completes (by maximum likelihood) and
    /// leaves the missing-symbol section, while one symbol earlier it is
    /// still decoding and NACKs its margin.
    #[test]
    fn ml_decodable_object_completes_and_is_not_nacked() {
        use fec_codec::Decoding;

        let (k, seed) = (200, 5);
        let data = object_bytes(k * 16);
        let code = fec_codec::builtin::ldgm_triangle();
        let mut sender = FluteSender::new(SenderConfig::new(7));
        sender
            .add_object(
                1,
                "file:///ml.bin",
                &data,
                code.clone(),
                ExpansionRatio::R1_5,
                16,
                seed,
                TxModel::Random,
            )
            .unwrap();
        let datagrams = sender.datagrams(1).unwrap();
        let (fdt, data_dgs): (Vec<_>, Vec<_>) = datagrams.iter().partition(|dg| !is_data(dg));
        // Every seventh data datagram lost.
        let survivors: Vec<&Vec<u8>> = data_dgs
            .into_iter()
            .enumerate()
            .filter_map(|(i, dg)| (i % 7 != 3).then_some(dg))
            .collect();
        let packet = |dg: &[u8]| PacketRef {
            block: 0,
            esi: AlcPacket::from_bytes(dg).unwrap().payload_id.unwrap().esi,
        };
        let done_at = |decoding| {
            let factory = code.structural_factory(k, 1.5, &[seed], decoding).unwrap();
            let mut session = factory.session(0);
            survivors
                .iter()
                .position(|dg| session.add_batch(&[packet(dg)]).is_some())
                .unwrap()
        };
        let ml = done_at(Decoding::MaximumLikelihood);
        assert!(
            ml < done_at(Decoding::Iterative),
            "the set must stall peeling"
        );

        let mut receiver = FluteReceiver::new(7);
        receiver.enable_reports(ReportConfig::default());
        receiver.enable_nacks();
        for dg in fdt {
            receiver.push_datagram(dg).unwrap();
        }
        for dg in &survivors[..ml] {
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Decoding));
        let margin = receiver.missing_symbols();
        assert_eq!(margin.len(), 1);
        assert_eq!(margin[0].esis.len(), (k / 16).max(4), "the NACK margin");

        receiver.push_datagram(survivors[ml]).unwrap();
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert!(receiver.missing_symbols().is_empty(), "nothing to NACK");
        let digest = receiver.flush_report().expect("the completion is news");
        assert!(digest.nacks.is_empty());
    }

    /// A carousel keeps cycling after the application took the decoded
    /// object out: every later datagram of that TOI is a duplicate of a
    /// finished object, not a symbol with no decoder to go to.
    #[test]
    fn taken_object_stays_complete_through_later_carousel_cycles() {
        let data = object_bytes(3000 * 16);
        let sender = session_with_object(&data, TxModel::Random);
        let mut receiver = FluteReceiver::new(7);
        receiver.enable_reports(ReportConfig::default());
        receiver.enable_nacks();
        receiver
            .push_datagrams(&sender.datagrams(1).unwrap())
            .unwrap();
        assert_eq!(receiver.take_object(1).unwrap(), data);
        let after_first_cycle = receiver.packets_received(1);

        for cycle in 2..=4 {
            let datagrams = sender.datagrams(cycle).unwrap();
            let events = receiver
                .push_datagrams(&datagrams)
                .expect("a taken object must not break the session");
            assert!(events.iter().all(|e| matches!(
                e,
                ReceiverEvent::ObjectProgress { toi: 1 }
                    | ReceiverEvent::FdtIgnored
                    | ReceiverEvent::FdtReceived
            )));
            assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
            assert!(receiver.all_complete());
            assert!(receiver.missing_symbols().is_empty(), "nothing to NACK");
        }
        let state = &receiver.objects[&1];
        assert!(state.pre_oti.is_empty(), "late datagrams buffer nothing");
        assert!(state.receiver.is_none() && state.decoded.is_none());
        assert_eq!(
            receiver.packets_received(1),
            after_first_cycle + 3 * sender.data_packet_count(),
            "late datagrams still count as received duplicates"
        );
        assert!(receiver.take_object(1).is_none(), "taken once");
    }

    /// A sender with `count` small RSE objects, TOIs 1..=count.
    fn session_with_objects(count: u32) -> (FluteSender, Vec<u8>) {
        let data = object_bytes(256);
        let mut sender = FluteSender::new(SenderConfig::new(7));
        for toi in 1..=count {
            #[rustfmt::skip]
            sender.add_object(toi, format!("o{toi}"), &data, fec_codec::builtin::rse(), ExpansionRatio::R1_5, 64, 0, TxModel::Random).unwrap();
        }
        (sender, data)
    }

    fn toi_of(dg: &[u8]) -> u32 {
        AlcPacket::from_bytes(dg).unwrap().header.toi
    }

    #[test]
    fn finished_tois_join_into_runs() {
        let mut finished = FinishedTois::default();
        for toi in [5, 3, 7, 4, u32::MAX, 6, 4] {
            finished.insert(toi);
        }
        let runs: Vec<(u32, u32)> = finished.0.iter().map(|(&f, &l)| (f, l)).collect();
        assert_eq!(runs, vec![(3, 7), (u32::MAX, u32::MAX)]);
        assert!(finished.contains(3) && finished.contains(7) && finished.contains(u32::MAX));
        assert!(!finished.contains(2) && !finished.contains(8));
        assert_eq!(finished.iter().count(), 6);
    }

    /// Object 1 folds when object 2 is taken. A full replay of object 1
    /// (EXT_FTI and all) and an FDT that lists it re-create nothing: they
    /// are duplicates of a finished object.
    #[test]
    fn a_folded_object_stays_finished_through_a_replay() {
        let (sender, data) = session_with_objects(2);
        let datagrams = sender.datagrams(1).unwrap();
        let mut receiver = FluteReceiver::new(7);
        receiver.push_datagrams(&datagrams).unwrap();
        assert_eq!(receiver.take_object(1).as_deref(), Some(&data[..]));
        assert!(
            receiver.objects.contains_key(&1),
            "lives until the next take"
        );
        assert_eq!(receiver.take_object(2).as_deref(), Some(&data[..]));
        assert!(!receiver.objects.contains_key(&1), "folded");

        let replay: Vec<Vec<u8>> = sender
            .datagrams(2)
            .unwrap()
            .into_iter()
            .filter(|dg| toi_of(dg) == 1)
            .collect();
        assert!(replay
            .iter()
            .all(|dg| LctView::walk(dg, false).unwrap().fti.is_some()));
        let mut fdt = sender.fdt();
        fdt.instance_id += 1;
        let relisted = AlcPacket::fdt(7, fdt.instance_id, fdt.to_xml().into_bytes());
        let mut burst = replay;
        burst.push(relisted.to_bytes().unwrap());
        let events = receiver.push_datagrams(&burst).unwrap();

        assert!(events.iter().all(|e| matches!(
            e,
            ReceiverEvent::ObjectProgress { toi: 1 }
                | ReceiverEvent::FdtReceived
                | ReceiverEvent::FdtIgnored
        )));
        assert!(events.contains(&ReceiverEvent::FdtReceived));
        assert!(!receiver.objects.contains_key(&1), "no entry re-created");
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
        assert!(receiver.all_complete());
        assert!(receiver.take_object(1).is_none());
    }

    /// Reports enabled after an object completed still say it is: the
    /// next digest marks it complete, and the session with it.
    #[test]
    fn reports_enabled_late_mark_what_already_completed() {
        let (sender, _) = session_with_objects(1);
        let datagrams = sender.datagrams(1).unwrap();
        let mut receiver = FluteReceiver::new(7);
        receiver.push_datagrams(&datagrams).unwrap();
        assert!(receiver.all_complete());
        receiver.enable_reports(ReportConfig::default());
        let late = datagrams.iter().rfind(|dg| is_data(dg)).unwrap();
        receiver.push_datagram(late).unwrap();
        let digest = receiver.flush_report().expect("a digest");
        assert!(digest.session_complete);
        let entry = digest.entries.iter().find(|e| e.toi == 1).unwrap();
        assert!(entry.complete);
    }

    /// A long-lived receiver that takes its objects in order holds at most
    /// one entry, and its finished TOIs form one run. (Data datagrams
    /// only: an FDT listing all 40 objects would give each an entry up
    /// front.)
    #[test]
    fn objects_taken_in_order_leave_one_entry() {
        const OBJECTS: u32 = 40;
        let (sender, data) = session_with_objects(OBJECTS);
        let mut datagrams = sender.datagrams(1).unwrap();
        datagrams.retain(|dg| is_data(dg));
        let mut receiver = FluteReceiver::new(7);
        for dg in &datagrams {
            if let ReceiverEvent::ObjectComplete { toi } = receiver.push_datagram(dg).unwrap() {
                assert_eq!(receiver.take_object(toi).as_deref(), Some(&data[..]));
                assert_eq!(receiver.objects.len(), 1, "toi {toi}");
            }
        }
        assert_eq!(receiver.objects.len(), 1);
        assert_eq!(receiver.finished.0.len(), 1);
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
    }

    /// A well-formed data datagram the object's geometry refuses — an ESI
    /// outside the layout, a symbol of the wrong size — is rejected on its
    /// own, before any counter sees it, and its burst decodes around it.
    #[test]
    fn datagram_outside_the_geometry_is_rejected_uncounted() {
        let data = object_bytes(600);
        let sender = session_with_object(&data, TxModel::Random);
        let genuine = sender.datagrams(4).unwrap();
        let codepoint = AlcPacket::from_bytes(&genuine[1]).unwrap().header.codepoint;
        let forge = |esi: u32, len: usize| {
            AlcPacket::data(7, 1, codepoint, FecPayloadId::new(0, esi), vec![0xAB; len])
                .closing_session()
                .to_bytes()
                .unwrap()
        };
        let mut burst = genuine.clone();
        burst.insert(5, forge(9999, 16)); // outside the layout
        burst.insert(9, forge(3, 15)); // inside it, one byte short
        burst.truncate(20);

        let mut receiver = FluteReceiver::new(7);
        let events = receiver.push_datagrams(&burst).unwrap();
        let rejected = |events: &[ReceiverEvent]| {
            events
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::Rejected))
                .count()
        };
        assert_eq!(rejected(&events), 2);
        assert_eq!(receiver.packets_received(1), 17, "20 - FDT - 2 forgeries");
        assert_eq!(
            receiver.push_datagram(&forge(9999, 16)).unwrap(),
            ReceiverEvent::Rejected
        );

        // A forgery ahead of the burst's first EXT_FTI is judged when that
        // OTI starts the decoder, in the same burst.
        let mut no_fdt: Vec<Vec<u8>> = genuine[1..].to_vec();
        no_fdt.insert(0, forge(9999, 16));
        let mut receiver = FluteReceiver::new(7);
        assert_eq!(rejected(&receiver.push_datagrams(&no_fdt).unwrap()), 0);
        assert_eq!(receiver.packets_received(1), genuine.len() as u64 - 1);
        assert_eq!(receiver.object(1).unwrap(), &data[..]);

        // Before the OTI is known nothing can judge a datagram: it is
        // buffered and counted, then dropped and uncounted at the drain.
        let mut config = SenderConfig::new(7);
        config.fti_in_data_packets = false;
        config.fdt_interval = 0;
        let mut sender = FluteSender::new(config);
        sender
            .add_object(
                1,
                "x",
                &data,
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                16,
                99,
                TxModel::Random,
            )
            .unwrap();
        let genuine = sender.datagrams(4).unwrap();
        let mut late_fdt: Vec<Vec<u8>> = genuine[1..].to_vec();
        late_fdt.insert(3, forge(9999, 16));
        late_fdt.insert(7, forge(3, 15));
        let mut receiver = FluteReceiver::new(7);
        let events = receiver.push_datagrams(&late_fdt).unwrap();
        assert_eq!(rejected(&events), 0);
        assert_eq!(receiver.packets_received(1), late_fdt.len() as u64);
        receiver.push_datagram(&genuine[0]).unwrap();
        assert_eq!(receiver.packets_received(1), genuine.len() as u64 - 1);
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
    }

    #[test]
    fn decodes_without_fdt_via_ext_fti() {
        let data = object_bytes(500);
        let sender = session_with_object(&data, TxModel::Random);
        let mut receiver = FluteReceiver::new(7);
        for dg in sender.datagrams(5).unwrap() {
            // Drop every FDT packet: EXT_FTI alone must carry the day.
            let packet = AlcPacket::from_bytes(&dg).unwrap();
            if packet.header.toi == FDT_TOI {
                continue;
            }
            receiver.push_datagram(&dg).unwrap();
        }
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        // But without an FDT the receiver cannot declare the session done.
        assert!(!receiver.all_complete());
    }

    #[test]
    fn decodes_from_fdt_when_data_has_no_fti() {
        let data = object_bytes(500);
        let mut config = SenderConfig::new(7);
        config.fti_in_data_packets = false;
        let mut sender = FluteSender::new(config);
        sender
            .add_object(
                1,
                "x",
                &data,
                fec_codec::builtin::rse(),
                ExpansionRatio::R1_5,
                16,
                0,
                TxModel::Interleaved,
            )
            .unwrap();
        let mut receiver = FluteReceiver::new(7);
        for dg in sender.datagrams(1).unwrap() {
            receiver.push_datagram(&dg).unwrap();
        }
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
    }

    #[test]
    fn buffers_data_until_late_fdt() {
        let data = object_bytes(300);
        let mut config = SenderConfig::new(7);
        config.fti_in_data_packets = false;
        config.fdt_interval = 0;
        let mut sender = FluteSender::new(config);
        sender
            .add_object(
                1,
                "x",
                &data,
                fec_codec::builtin::ldgm_triangle(),
                ExpansionRatio::R2_5,
                8,
                1,
                TxModel::Random,
            )
            .unwrap();
        let datagrams = sender.datagrams(3).unwrap();
        let mut receiver = FluteReceiver::new(7);
        // Deliver the data first (skipping the leading FDT and the final
        // B-flagged packet), then the FDT last.
        for dg in &datagrams[1..datagrams.len() - 1] {
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::AwaitingOti));
        receiver.push_datagram(&datagrams[0]).unwrap();
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
    }

    #[test]
    fn multi_object_session() {
        let a = object_bytes(400);
        let b = object_bytes(777);
        let mut sender = FluteSender::new(SenderConfig::new(3));
        sender
            .add_object(
                1,
                "a",
                &a,
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                16,
                5,
                TxModel::Random,
            )
            .unwrap();
        sender
            .add_object(
                2,
                "b",
                &b,
                fec_codec::builtin::rse(),
                ExpansionRatio::R1_5,
                32,
                0,
                TxModel::Interleaved,
            )
            .unwrap();
        let mut receiver = FluteReceiver::new(3);
        for dg in sender.datagrams(8).unwrap() {
            receiver.push_datagram(&dg).unwrap();
        }
        assert!(receiver.all_complete());
        assert_eq!(receiver.object(1).unwrap(), &a[..]);
        assert_eq!(receiver.object(2).unwrap(), &b[..]);
    }

    #[test]
    fn survives_loss_reorder_and_duplication() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let data = object_bytes(1200);
        let sender = session_with_object(&data, TxModel::Random);
        let mut datagrams = sender.datagrams(11).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        // Lose 20%, duplicate 10%, shuffle everything.
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        for dg in datagrams.drain(..) {
            if rng.gen_bool(0.2) {
                continue;
            }
            if rng.gen_bool(0.1) {
                delivered.push(dg.clone());
            }
            delivered.push(dg);
        }
        delivered.shuffle(&mut rng);
        let mut receiver = FluteReceiver::new(7);
        for dg in &delivered {
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(
            receiver.object(1).unwrap(),
            &data[..],
            "ratio 2.5 absorbs 20% loss"
        );
    }

    #[test]
    fn batched_push_matches_per_datagram_push() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let data = object_bytes(1200);
        let sender = session_with_object(&data, TxModel::Random);
        let mut datagrams = sender.datagrams(11).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        // Same 20% loss / 10% duplication / shuffle as the scalar test.
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        for dg in datagrams.drain(..) {
            if rng.gen_bool(0.2) {
                continue;
            }
            if rng.gen_bool(0.1) {
                delivered.push(dg.clone());
            }
            delivered.push(dg);
        }
        delivered.shuffle(&mut rng);

        let mut scalar_rx = FluteReceiver::new(7);
        for dg in &delivered {
            scalar_rx.push_datagram(dg).unwrap();
        }
        // Feed the same stream in random burst sizes (as a socket drain
        // would produce them).
        let mut batched_rx = FluteReceiver::new(7);
        let mut events = Vec::new();
        let mut rest: &[Vec<u8>] = &delivered;
        while !rest.is_empty() {
            let n = rng.gen_range(1..=rest.len().min(64));
            let (burst, tail) = rest.split_at(n);
            events.extend(batched_rx.push_datagrams(burst).unwrap());
            rest = tail;
        }
        assert_eq!(events.len(), delivered.len(), "one event per datagram");
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::ObjectComplete { .. }))
                .count(),
            1
        );
        assert_eq!(batched_rx.object(1).unwrap(), &data[..]);
        assert_eq!(batched_rx.object(1), scalar_rx.object(1));
        assert_eq!(
            batched_rx.packets_received(1),
            scalar_rx.packets_received(1)
        );
    }

    #[test]
    fn corrupt_datagram_does_not_sink_the_burst() {
        let data = object_bytes(600);
        let sender = session_with_object(&data, TxModel::Random);
        let mut burst = sender.datagrams(4).unwrap();
        // Inject garbage mid-burst (and truncate one real datagram into
        // garbage too).
        burst.insert(burst.len() / 2, vec![0xFF; 7]);
        burst.insert(burst.len() / 3, b"not an alc packet".to_vec());
        let mut receiver = FluteReceiver::new(7);
        let events = receiver.push_datagrams(&burst).unwrap();
        assert_eq!(events.len(), burst.len());
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::Rejected))
                .count(),
            2
        );
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        // The scalar path keeps its error contract for the same bytes.
        assert!(receiver.push_datagram(&[0xFF; 7]).is_err());
    }

    #[test]
    fn corrupt_fti_blob_rejects_one_datagram_not_the_burst() {
        let data = object_bytes(600);
        let sender = session_with_object(&data, TxModel::Random);
        let mut burst = sender.datagrams(4).unwrap();
        // Forge a data packet whose EXT_FTI blob is garbage: the ALC
        // framing parses (codepoint borrowed from a real data packet),
        // the OTI inside does not.
        let template = AlcPacket::from_bytes(&burst[1]).unwrap();
        let poison = AlcPacket::data(
            7,
            1,
            template.header.codepoint,
            FecPayloadId { sbn: 0, esi: 9999 },
            vec![0u8; 16],
        )
        .with_fti(vec![0xFF; 3])
        .to_bytes()
        .unwrap();
        // Before the FDT, so the receiver must judge the FTI blob itself.
        burst.insert(0, poison);
        let mut receiver = FluteReceiver::new(7);
        let events = receiver.push_datagrams(&burst).unwrap();
        assert_eq!(events.len(), burst.len());
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::Rejected))
                .count(),
            1
        );
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
    }

    #[test]
    fn garbled_fdt_payload_rejects_one_datagram_not_the_burst() {
        let data = object_bytes(600);
        let sender = session_with_object(&data, TxModel::Random);
        let mut burst = sender.datagrams(4).unwrap();
        // Valid ALC framing, EXT_FDT present, but the payload is not XML.
        let bad_fdt = AlcPacket::fdt(7, 99, b"\xFF\xFEnot xml".to_vec())
            .to_bytes()
            .unwrap();
        burst.insert(1, bad_fdt);
        // And one FDT-TOI packet with no EXT_FDT at all.
        let no_ext = AlcPacket {
            header: crate::LctHeader::new(7, FDT_TOI, 0),
            payload_id: None,
            payload: b"<FDT/>".to_vec(),
        }
        .to_bytes()
        .unwrap();
        burst.insert(3, no_ext);
        let mut receiver = FluteReceiver::new(7);
        let events = receiver.push_datagrams(&burst).unwrap();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ReceiverEvent::Rejected))
                .count(),
            2
        );
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
    }

    #[test]
    fn whole_session_in_one_burst() {
        let a = object_bytes(400);
        let b = object_bytes(777);
        let mut sender = FluteSender::new(SenderConfig::new(3));
        sender
            .add_object(
                1,
                "a",
                &a,
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                16,
                5,
                TxModel::Random,
            )
            .unwrap();
        sender
            .add_object(
                2,
                "b",
                &b,
                fec_codec::builtin::rse(),
                ExpansionRatio::R1_5,
                32,
                0,
                TxModel::Interleaved,
            )
            .unwrap();
        let mut receiver = FluteReceiver::new(3);
        let events = receiver
            .push_datagrams(&sender.datagrams(8).unwrap())
            .unwrap();
        assert!(receiver.all_complete());
        assert_eq!(receiver.object(1).unwrap(), &a[..]);
        assert_eq!(receiver.object(2).unwrap(), &b[..]);
        // Both objects completed exactly once each, in this single burst.
        let completed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ReceiverEvent::ObjectComplete { toi } => Some(*toi),
                _ => None,
            })
            .collect();
        assert_eq!(completed.len(), 2);
        assert!(completed.contains(&1) && completed.contains(&2));
    }

    #[test]
    fn batched_push_buffers_until_late_fdt() {
        let data = object_bytes(300);
        let mut config = SenderConfig::new(7);
        config.fti_in_data_packets = false;
        config.fdt_interval = 0;
        let mut sender = FluteSender::new(config);
        sender
            .add_object(
                1,
                "x",
                &data,
                fec_codec::builtin::ldgm_triangle(),
                ExpansionRatio::R2_5,
                8,
                1,
                TxModel::Random,
            )
            .unwrap();
        let datagrams = sender.datagrams(3).unwrap();
        let mut receiver = FluteReceiver::new(7);
        // One burst: all data first (no OTI anywhere), then the FDT last —
        // the FDT barrier must flush the buffered burst and complete the
        // object within the same call.
        let mut reordered: Vec<Vec<u8>> = datagrams[1..].to_vec();
        reordered.push(datagrams[0].clone());
        let events = receiver.push_datagrams(&reordered).unwrap();
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Complete));
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert_eq!(events.len(), reordered.len());
    }

    #[test]
    fn stream_without_amendments_equals_datagrams() {
        let data = object_bytes(900);
        let mut sender = FluteSender::new(SenderConfig::new(7));
        sender
            .add_object(
                1,
                "a",
                &data,
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                16,
                5,
                TxModel::Random,
            )
            .unwrap();
        sender
            .add_object(
                2,
                "b",
                &object_bytes(333),
                fec_codec::builtin::rse(),
                ExpansionRatio::R1_5,
                16,
                0,
                TxModel::Interleaved,
            )
            .unwrap();
        let batch = sender.datagrams(9).unwrap();
        let mut stream = sender.stream(9);
        let mut streamed = Vec::new();
        while let Some(dg) = stream.next_datagram().unwrap() {
            streamed.push(dg);
        }
        assert_eq!(batch, streamed);
        assert!(stream.is_done());
        let data = streamed.iter().filter(|dg| is_data(dg)).count() as u64;
        assert_eq!(data, sender.data_packet_count());
        // Every datagram carries a distinct, consecutive EXT_SEQ, in a
        // buffer allocated once at its exact size and never grown.
        for (i, dg) in streamed.iter().enumerate() {
            assert_eq!(
                AlcPacket::from_bytes(dg).unwrap().sequence(),
                Some(i as u32)
            );
            assert_eq!(dg.capacity(), dg.len());
        }
    }

    /// The 24-bit EXT_SEQ space wraps to 0 on the FDT and the data
    /// datagrams alike.
    #[test]
    fn ext_seq_wraps_at_the_modulus() {
        let sender = session_with_object(&object_bytes(100), TxModel::Random);
        let mut stream = sender.stream(1);
        stream.path_seqs[0] = SEQ_MODULUS - 2;
        let seqs: Vec<Option<u32>> = (0..4)
            .map(|_| {
                let dg = stream.next_datagram().unwrap().unwrap();
                AlcPacket::from_bytes(&dg).unwrap().sequence()
            })
            .collect();
        let expected = [SEQ_MODULUS - 2, SEQ_MODULUS - 1, 0, 1].map(Some);
        assert_eq!(seqs, expected);
    }

    #[test]
    fn stream_amendment_truncates_mid_flight() {
        use fec_core::{Amendment, TransmissionPlan};

        let data = object_bytes(2000); // k = 125 at 16B symbols, n = 312
        let sender = session_with_object(&data, TxModel::Random);
        let mut stream = sender.stream(4);
        let full = stream.full_total();
        let k = stream.source_count(1).unwrap() as usize;

        // Emit a first chunk, then a plan arrives from the feedback loop.
        let mut receiver = FluteReceiver::new(7);
        for _ in 0..80 {
            let dg = stream.next_datagram().unwrap().unwrap();
            receiver.push_datagram(&dg).unwrap();
        }
        // 148 of the 312 packets: 1.15·k and four more.
        let need = (k as f64 * 1.15).ceil() as u64 + 4;
        let perfect = fec_channel::GilbertParams::perfect();
        let plan = TransmissionPlan::new(full, &[(need, 1)], perfect, 1).unwrap();
        assert!(matches!(
            stream.amend_plan(1, Some(&plan)).unwrap(),
            Amendment::Truncated { .. }
        ));
        assert!(stream.amend_plan(99, None).is_err(), "unknown TOI");

        let mut emitted = 80u64;
        let mut last = Vec::new();
        while let Some(dg) = stream.next_datagram().unwrap() {
            emitted += 1;
            receiver.push_datagram(&dg).unwrap();
            last = dg;
        }
        assert_eq!(receiver.packets_received(1), stream.planned_total());
        assert!(emitted < full, "truncated: {emitted} of {full}");
        // A lossless channel decodes from the planned prefix.
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert!(
            AlcPacket::from_bytes(&last).unwrap().header.close_session,
            "A flag rode the planned last packet"
        );
    }

    #[test]
    fn exhausted_stream_revives_on_extension() {
        use fec_core::{Amendment, TransmissionPlan};

        let data = object_bytes(2000);
        let sender = session_with_object(&data, TxModel::Random);
        let mut stream = sender.stream(4);
        let full = stream.full_total();
        let k = stream.source_count(1).unwrap() as usize;
        // Truncate hard, run the stream dry…
        let perfect = fec_channel::GilbertParams::perfect();
        let thin = TransmissionPlan::new(full, &[(k as u64, 1)], perfect, 1).unwrap();
        stream.amend_plan(1, Some(&thin)).unwrap();
        let mut first_leg = 0u64;
        while let Some(dg) = stream.next_datagram().unwrap() {
            first_leg += is_data(&dg) as u64;
        }
        assert!(stream.is_done());
        // …then the backoff path reverts to the full schedule: the cursor
        // must rewind and emission must resume (this is the "plan was too
        // thin, keep sending" recovery — it must not dead-end).
        assert!(matches!(
            stream.amend_plan(1, None).unwrap(),
            Amendment::Extended { .. }
        ));
        assert!(!stream.is_done());
        let mut second_leg = 0u64;
        let mut receiver = FluteReceiver::new(7);
        while let Some(dg) = stream.next_datagram().unwrap() {
            second_leg += is_data(&dg) as u64;
            receiver.push_datagram(&dg).unwrap();
        }
        assert!(second_leg > 0, "extension revived the stream");
        assert_eq!(first_leg + second_leg, full);
        // A decoded object stops mid-plan, idempotently.
        let mut stream2 = sender.stream(4);
        for _ in 0..10 {
            stream2.next_datagram().unwrap().unwrap();
        }
        assert!(matches!(
            stream2.stop_object(1).unwrap(),
            Amendment::Truncated { .. }
        ));
        assert!(matches!(
            stream2.stop_object(1).unwrap(),
            Amendment::Unchanged
        ));
        assert!(stream2.next_datagram().unwrap().is_none());
        assert!(stream2.stop_object(99).is_err(), "unknown TOI");
    }

    #[test]
    fn receiver_reports_feed_the_sender_loop() {
        use crate::feedback::{
            AggregateOutcome, AggregatorConfig, FeedbackAggregator, ReportConfig,
        };
        use fec_adapt::ControllerConfig;
        use fec_channel::{GilbertChannel, GilbertParams, LinkEmulator, LossModel};

        let data = object_bytes(4000);
        let sender = session_with_object(&data, TxModel::Random);
        let mut stream = sender.stream(11);
        let mut receiver = FluteReceiver::new(7);
        receiver.enable_reports(ReportConfig {
            report_every: 64,
            ..ReportConfig::default()
        });
        let src = std::net::SocketAddr::from(([127, 0, 0, 1], 4000));
        let mut feedback = FeedbackAggregator::new(
            7,
            AggregatorConfig::default(),
            ControllerConfig {
                min_observations: 100,
                ..ControllerConfig::default()
            },
        );
        // ~5% bursty loss on the forward channel, clean return channel.
        let model: Box<dyn LossModel> = Box::new(GilbertChannel::new(
            GilbertParams::new(0.02, 0.38).unwrap(),
            3,
        ));
        let mut link = LinkEmulator::new(model, 17);
        let mut digests = 0u64;
        while let Some(dg) = stream.next_datagram().unwrap() {
            for delivered in link.transmit_batch(&[&dg]) {
                receiver.push_datagram(&delivered).unwrap();
            }
            if let Some(report) = receiver.poll_report() {
                digests += 1;
                let outcome = feedback
                    .ingest_datagram(src, &report.to_bytes().unwrap())
                    .unwrap();
                assert!(matches!(outcome, AggregateOutcome::Folded { .. }));
            }
        }
        let report = receiver.flush_report().expect("observations exist");
        feedback.ingest(src, &report);
        assert!(digests > 3, "batching produced {digests} digests");
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert!(feedback.is_complete(1));
        assert!(feedback.session_complete());
        // The estimator saw the channel: its loss estimate is near 5%.
        let est = feedback.controller().estimator().estimate().unwrap();
        let p_global = est.p_global();
        assert!(
            (0.01..0.12).contains(&p_global),
            "estimated global loss {p_global}"
        );
        // And the counters crossed the wire: losses were reported.
        let entry = report.entries.iter().find(|e| e.toi == 1).unwrap();
        assert!(entry.lost > 0 && entry.received > 0);
        assert!(entry.complete);
    }

    #[test]
    fn foreign_tsi_ignored() {
        let sender = session_with_object(&object_bytes(100), TxModel::Random);
        let mut receiver = FluteReceiver::new(999); // different session
        for dg in sender.datagrams(1).unwrap() {
            assert_eq!(
                receiver.push_datagram(&dg).unwrap(),
                ReceiverEvent::ForeignSession
            );
        }
        assert!(receiver.object(1).is_none());
    }

    #[test]
    fn stale_fdt_instances_ignored() {
        let sender = session_with_object(&object_bytes(100), TxModel::Random);
        let fdt_dg = sender.stream(1).fdt_datagram().unwrap();
        let mut receiver = FluteReceiver::new(7);
        assert_eq!(
            receiver.push_datagram(&fdt_dg).unwrap(),
            ReceiverEvent::FdtReceived
        );
        assert_eq!(
            receiver.push_datagram(&fdt_dg).unwrap(),
            ReceiverEvent::FdtIgnored
        );
    }

    #[test]
    fn closed_incomplete_object_reports_status() {
        let data = object_bytes(800);
        let sender = session_with_object(&data, TxModel::Random);
        let datagrams = sender.datagrams(2).unwrap();
        let mut receiver = FluteReceiver::new(7);
        // Deliver only the very last datagram (B flag), nothing else.
        receiver.push_datagram(datagrams.last().unwrap()).unwrap();
        assert_eq!(
            receiver.object_status(1),
            Some(ObjectStatus::ClosedIncomplete)
        );
    }

    #[test]
    fn sender_validation() {
        let mut sender = FluteSender::new(SenderConfig::new(1));
        assert!(sender
            .add_object(
                0,
                "x",
                b"data",
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                4,
                1,
                TxModel::Random
            )
            .is_err());
        sender
            .add_object(
                5,
                "x",
                &object_bytes(64),
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                4,
                1,
                TxModel::Random,
            )
            .unwrap();
        assert!(
            sender
                .add_object(
                    5,
                    "y",
                    &object_bytes(64),
                    fec_codec::builtin::ldgm_staircase(),
                    ExpansionRatio::R2_5,
                    4,
                    1,
                    TxModel::Random
                )
                .is_err(),
            "duplicate TOI"
        );
    }

    #[test]
    fn conflicting_oti_is_an_error() {
        let data = object_bytes(256);
        let sender = session_with_object(&data, TxModel::Random);
        let datagrams = sender.datagrams(1).unwrap();
        // Datagram 0 is the FDT; datagram 1 is data with EXT_FTI.
        let mut receiver = FluteReceiver::new(7);
        receiver.push_datagram(&datagrams[1]).unwrap();
        // Forge an FDT advertising a different symbol size for TOI 1.
        let mut fdt = sender.fdt();
        fdt.instance_id += 1;
        fdt.files[0].oti.symbol_size *= 2;
        let forged = AlcPacket::fdt(7, fdt.instance_id, fdt.to_xml().into_bytes());
        assert!(receiver.push_datagram(&forged.to_bytes().unwrap()).is_err());
    }

    /// TOI 1 added as LDGM Triangle at 2.5 and redeployed as LDGM
    /// Staircase at 1.5 (same k and symbol size) after FDT instance 0 went
    /// out: datagram 1 is instance 1, the rest the new encoding.
    fn redeployed_session(data: &[u8]) -> Vec<Vec<u8>> {
        let mut sender = FluteSender::new(SenderConfig::new(7));
        let triangle = fec_codec::builtin::ldgm_triangle();
        let (ratio, tx) = (ExpansionRatio::R2_5, TxModel::Random);
        sender
            .add_object(1, "x", data, triangle, ratio, 16, 99, tx)
            .unwrap();
        let staircase = Decision {
            code: fec_codec::builtin::ldgm_staircase(),
            tx,
            ratio: ExpansionRatio::R1_5,
        };
        let mut stream = sender.stream(3);
        let mut datagrams = vec![stream.next_datagram().unwrap().unwrap()];
        assert_eq!(stream.deploy(1, Some(&staircase)).unwrap(), staircase);
        while let Some(dg) = stream.next_datagram().unwrap() {
            datagrams.push(dg);
        }
        let instance = |dg: &[u8]| AlcPacket::from_bytes(dg).unwrap().fdt_instance_id();
        assert_eq!(instance(&datagrams[0]), Some(0));
        assert_eq!(instance(&datagrams[1]), Some(1));
        datagrams
    }

    /// A deploy to another tuple encodes no parity: the new encoding's
    /// parity is computed as its datagrams leave, and under Tx_model_5
    /// the first 300 carry source symbols. The first parity datagram
    /// encodes one run: the eight lowest parity symbols of its block.
    #[test]
    fn a_deploy_encodes_nothing_until_the_objects_parity_leaves() {
        let data = object_bytes(300 * 16);
        let mut sender = FluteSender::new(SenderConfig::new(7));
        let triangle = fec_codec::builtin::ldgm_triangle();
        let (ratio, tx) = (ExpansionRatio::R2_5, TxModel::Random);
        sender
            .add_object(1, "x", &data, triangle, ratio, 16, 99, tx)
            .unwrap();
        let rse = Decision {
            code: fec_codec::builtin::rse(),
            tx: TxModel::Interleaved,
            ratio: ExpansionRatio::R1_5,
        };
        let mut stream = sender.stream(3);
        assert_eq!(stream.deploy(1, Some(&rse)).unwrap(), rse);
        let encoded = |stream: &SessionStream| {
            let deployed = stream.redeployed[0].as_ref().unwrap();
            deployed.sender.parity_encoded()
        };
        assert_eq!(encoded(&stream), 0);
        let mut data_sent = 0;
        while data_sent < 300 {
            let dg = stream.next_datagram().unwrap().unwrap();
            data_sent += usize::from(!is_fdt(&dg));
        }
        assert_eq!(encoded(&stream), 0, "300 source datagrams");
        assert!(!is_fdt(&stream.next_datagram().unwrap().unwrap()));
        assert_eq!(encoded(&stream), 8, "the first parity datagram");
        assert_eq!(sender.objects[0].sender.parity_encoded(), 0, "never sent");
    }

    fn is_fdt(datagram: &[u8]) -> bool {
        AlcPacket::from_bytes(datagram).unwrap().header.toi == FDT_TOI
    }

    #[test]
    fn a_newer_fdt_instance_replaces_a_provisional_oti() {
        let data = object_bytes(300 * 16);
        let datagrams = redeployed_session(&data);
        let mut receiver = FluteReceiver::new(7);
        receiver.push_datagram(&datagrams[0]).unwrap();
        assert_eq!(receiver.object_status(1), Some(ObjectStatus::Decoding));
        for dg in &datagrams[1..] {
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        let announced = &receiver.fdt().unwrap().file(1).unwrap().oti;
        assert_eq!(announced.code, fec_codec::builtin::ldgm_staircase());
    }

    #[test]
    fn ext_fti_replaces_a_provisional_oti_when_the_newer_instance_is_lost() {
        let data = object_bytes(300 * 16);
        let datagrams = redeployed_session(&data);
        let mut receiver = FluteReceiver::new(7);
        receiver.push_datagram(&datagrams[0]).unwrap();
        for dg in datagrams[1..].iter().filter(|dg| !is_fdt(dg)) {
            receiver.push_datagram(dg).unwrap();
        }
        assert_eq!(receiver.object(1).unwrap(), &data[..]);
        assert_eq!(
            receiver.fdt().unwrap().instance_id,
            0,
            "only instance 0 arrived"
        );
    }

    #[test]
    fn only_an_object_not_yet_sent_changes_its_tuple() {
        let sender = session_with_object(&object_bytes(1000), TxModel::Random);
        let mut stream = sender.stream(5);
        let added = stream.deploy(1, None).unwrap();
        assert_eq!(stream.deploy(1, Some(&added)).unwrap(), added, "same tuple");
        let rse = Decision {
            code: fec_codec::builtin::rse(),
            tx: TxModel::Interleaved,
            ratio: ExpansionRatio::R1_5,
        };
        let full = stream.full_total();
        assert_eq!(stream.due(), Some(1));
        assert_eq!(stream.deploy(1, Some(&rse)).unwrap(), rse);
        assert_eq!(stream.deploy(1, None).unwrap(), rse);
        assert!(stream.full_total() < full, "n shrank with the ratio");
        assert!(is_fdt(&stream.next_datagram().unwrap().unwrap()));
        assert!(!is_fdt(&stream.next_datagram().unwrap().unwrap()));
        assert_eq!(stream.due(), None, "in flight");
        assert_eq!(stream.deploy(1, Some(&added)).unwrap(), rse, "kept");
        assert!(stream.deploy(9, None).is_err(), "unknown TOI");

        // Without EXT_FTI on the data a lost FDT instance would go unseen.
        let mut config = SenderConfig::new(7);
        config.fti_in_data_packets = false;
        let mut sender = FluteSender::new(config);
        let staircase = fec_codec::builtin::ldgm_staircase();
        sender
            .add_object(
                1,
                "x",
                &object_bytes(64),
                staircase,
                added.ratio,
                16,
                1,
                added.tx,
            )
            .unwrap();
        assert_eq!(sender.stream(5).deploy(1, Some(&rse)).unwrap(), added);
    }

    #[test]
    fn fdt_interval_repeats_fdt() {
        let data = object_bytes(2000);
        let mut config = SenderConfig::new(7);
        config.fdt_interval = 10;
        let mut sender = FluteSender::new(config);
        sender
            .add_object(
                1,
                "x",
                &data,
                fec_codec::builtin::ldgm_staircase(),
                ExpansionRatio::R2_5,
                8,
                1,
                TxModel::Random,
            )
            .unwrap();
        let fdt_count = sender
            .datagrams(1)
            .unwrap()
            .iter()
            .filter(|dg| AlcPacket::from_bytes(dg).unwrap().header.toi == FDT_TOI)
            .count();
        // 250 source symbols -> 625 packets -> 1 leading + ~62 repeats.
        assert!(fdt_count > 50, "only {fdt_count} FDT datagrams");
    }
}
