//! Acceptance test for the live adaptive FLUTE loop: a sender and a
//! receiver joined by **real UDP sockets**, with a deterministic Gilbert
//! loss process emulated on the forward channel. The adaptive sender must
//!
//! 1. deliver every object intact (the receiver decodes all three files
//!    byte-exactly), while
//! 2. putting **fewer data packets on the wire than the static worst-case
//!    plan** — the full `ratio 2.5` schedule a feedback-free sender ships
//!    (§6.2's "significantly less than the n packets that would have been
//!    sent otherwise"), and
//! 3. doing it through the real machinery — the loops under test are
//!    [`live::send_session`] and [`live::receive_session`], the ones the
//!    CLI runs: EXT_SEQ gap
//!    detection, reception-report digests over a return socket,
//!    digest-driven online estimation, and mid-flight plan amendments.
//!
//! Loss placement is sender-side (the datagram is withheld from the
//! socket), so the loss pattern is exactly reproducible while the
//! transport stays genuinely UDP end to end.

use std::net::UdpSocket;
use std::sync::mpsc;
use std::time::Duration;

use fec_broadcast::channel::{GilbertParams, LinkEmulator, LossModel};
use fec_broadcast::flute::feedback::{
    AggregatorConfig, FeedbackAggregator, ReceptionReport, ReportConfig,
};
use fec_broadcast::flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_broadcast::live::{self, SendConfig, SendOutcome, WirePath};
use fec_broadcast::prelude::*;
use fec_broadcast::wire::{Backend, BatchReceiver, BatchSender, BufferPool, Pacer, MAX_BURST};

const TSI: u32 = 21;
const SYMBOL: usize = 64;
const OBJECTS: usize = 3;

fn object_bytes(toi: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(toi * 17) % 251) as u8)
        .collect()
}

fn build_session() -> FluteSender {
    let mut config = SenderConfig::new(TSI);
    config.fdt_interval = 200;
    let mut sender = FluteSender::new(config);
    for toi in 1..=OBJECTS as u32 {
        sender
            .add_object(
                toi,
                format!("file:///obj-{toi}.bin"),
                &object_bytes(toi, 16_000), // k = 250 at 64-byte symbols
                fec_broadcast::codec::registry::resolve("ldgm-triangle").unwrap(),
                ExpansionRatio::R2_5, // the §6.1 worst-case prior's ratio
                SYMBOL,
                0xBEEF + toi as u64,
                TxModel::Random,
            )
            .unwrap();
    }
    sender
}

/// The send side is the engine the CLI ships — [`live::send_session`] —
/// over one real-socket path behind a Gilbert link emulator. Returns the
/// outcome and how many re-plans truncated the object in flight (read
/// off the stream's own `fec_plan_amendments_total` series).
fn run_sender(
    session: &FluteSender,
    data_dest: std::net::SocketAddr,
    report_socket: UdpSocket,
) -> (SendOutcome, u64) {
    // ~2.4% bursty loss: p = 0.01, q = 0.4 (mean burst 2.5 packets).
    let params = GilbertParams::new(0.01, 0.4).unwrap();
    let model: Box<dyn LossModel> =
        Box::new(fec_broadcast::channel::GilbertChannel::new(params, 0xC4A2));
    // Pacing (≈2 ms per 32 datagrams) leaves the receiver — same
    // machine, debug builds included — room to decode and report back;
    // the whole session still takes well under a second.
    let wire = BatchSender::connect(
        UdpSocket::bind("127.0.0.1:0").unwrap(),
        data_dest,
        Backend::detect(),
        Pacer::per_datagram_micros(60),
    )
    .unwrap();
    let mut paths = [WirePath::new(wire, Some(LinkEmulator::new(model, 7)))];
    let mut reports = live::digest_receiver(report_socket);
    let registry = Registry::new();
    let events = EventLog::bounded(64);
    let outcome = live::send_session(
        session,
        0x5EED,
        &mut paths,
        Some(&mut reports),
        &SendConfig {
            window: 5_000,
            replan_every: 32,
        },
        Some((&registry, &events)),
    )
    .unwrap();
    let truncations = registry
        .counter_with(
            "fec_plan_amendments_total",
            "Mid-flight plan amendments applied to the stream, by action.",
            &[("action", "truncated")],
        )
        .get();
    (outcome, truncations)
}

/// The receive side is the loop the CLI's `recv --report-to` ships —
/// [`live::receive_session`] over a drain thread on the batched engine —
/// and it runs to the end of the session: every object decoded, the FIN
/// digest shipped. Ten quiet seconds end it early.
fn run_receiver(data_socket: UdpSocket, report_dest: std::net::SocketAddr) -> FluteReceiver {
    let report_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    data_socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (tx, rx) = mpsc::channel();
    let wire = BatchReceiver::new(data_socket, BufferPool::new(), Backend::detect());
    drop(live::spawn_drain(wire, 0, tx));
    let mut session = FluteReceiver::new(TSI);
    session.enable_reports(ReportConfig {
        report_every: 48,
        ..ReportConfig::default()
    });
    let ship = |report: &ReceptionReport| {
        let bytes = report.to_bytes().map_err(|e| e.to_string())?;
        let sent = report_socket.send_to(&bytes, report_dest);
        sent.map(drop).map_err(|e| e.to_string())
    };
    live::receive_session(&mut session, &rx, ship, &Registry::disabled()).unwrap();
    session
}

#[test]
fn live_adaptive_session_beats_the_static_worst_case_plan() {
    let session = build_session();

    let data_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let data_addr = data_socket.local_addr().unwrap();
    let report_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let report_addr = report_socket.local_addr().unwrap();

    let receiver_thread = std::thread::spawn(move || run_receiver(data_socket, report_addr));
    // Give the receiver a head start on its socket.
    std::thread::sleep(Duration::from_millis(100));
    let (outcome, truncations) = run_sender(&session, data_addr, report_socket);
    let receiver = receiver_thread.join().unwrap();

    let full_total = outcome.summary.full_schedule;
    eprintln!(
        "adaptive sender: {} data+fdt datagrams on the wire ({} dropped by the channel), \
         static worst-case plan = {full_total} data packets; {truncations} truncating \
         amendments, {} digests",
        outcome.sent, outcome.dropped, outcome.summary.digests_applied
    );

    // (1) Reliability: every object decoded byte-exactly.
    assert!(receiver.all_complete(), "receiver missed objects");
    for toi in 1..=OBJECTS as u32 {
        assert_eq!(
            receiver.object(toi).expect("decoded"),
            &object_bytes(toi, 16_000)[..],
            "object {toi} corrupted"
        );
    }

    // (2) Economy: fewer packets than the static worst-case plan (which
    // ships the full schedule; `sent` even includes our FDT repeats and
    // the packets the channel ate, so this is conservative).
    assert!(
        outcome.sent + outcome.dropped < (full_total * 85) / 100,
        "adaptive loop sent {} of the static worst case {full_total}",
        outcome.sent + outcome.dropped,
    );

    // (3) The loop really ran: digests arrived and plans moved.
    assert!(
        outcome.summary.digests_applied >= 3,
        "{}",
        outcome.summary.digests_applied
    );
    assert!(truncations >= 1, "no plan truncation happened");
}

/// A NACK receiver still short of most of an object lists up to
/// `k - have` missing ESIs per block, 4 bytes each, so its digests run to
/// kilobytes. Every one must reach the sender's aggregator whole through
/// the control poll the CLI opens, not cut at a small slab's end.
#[test]
fn kilobyte_nack_digests_reach_the_aggregator_whole() {
    // k = 2048 symbols of 64 bytes: an object still short of most of
    // them asks for up to 8 KiB of ESIs in one digest.
    let object = object_bytes(9, 2048 * SYMBOL);
    let mut sender = FluteSender::new(SenderConfig::new(TSI));
    sender
        .add_object(
            9,
            "file:///big.bin",
            &object,
            fec_broadcast::codec::registry::resolve("ldgm-triangle").unwrap(),
            ExpansionRatio::R1_5,
            SYMBOL,
            0xD16E,
            TxModel::Random,
        )
        .unwrap();
    let mut stream = sender.stream(0x5EED);
    let mut receiver = FluteReceiver::new(TSI);
    receiver.enable_reports(ReportConfig {
        report_every: 64,
        ..ReportConfig::default()
    });
    receiver.enable_nacks();

    let report_socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let report_addr = report_socket.local_addr().unwrap();
    let mut control = live::digest_receiver(report_socket);
    let reporter = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut agg = FeedbackAggregator::new(
        TSI,
        AggregatorConfig::default(),
        ControllerConfig::default(),
    );

    let (mut emitted, mut ingested, mut largest) = (0usize, 0usize, 0usize);
    // 1 200 datagrams at 10 % loss: well short of decoding, so every
    // digest carries a long NACK list.
    for i in 0..1200u32 {
        let dg = stream.next_datagram().unwrap().expect("schedule continues");
        if i.wrapping_mul(2654435761) % 10 == 3 {
            continue;
        }
        receiver.push_datagram(&dg).unwrap();
        let Some(report) = receiver.poll_report() else {
            continue;
        };
        let bytes = report.to_bytes().unwrap();
        largest = largest.max(bytes.len());
        emitted += 1;
        reporter.send_to(&bytes, report_addr).unwrap();
        // Loopback delivery is synchronous: the digest is queued now.
        for (digest, src) in control.try_recv_burst_from(MAX_BURST).unwrap() {
            assert_eq!(digest.len(), bytes.len(), "digest {emitted} was cut");
            agg.ingest_datagram(src, &digest)
                .unwrap_or_else(|e| panic!("digest {emitted} of {} B: {e}", bytes.len()));
            ingested += 1;
        }
    }
    assert!(emitted >= 10, "only {emitted} digests");
    assert!(largest > 4096, "largest digest {largest} B");
    assert_eq!(ingested, emitted, "digests lost on the way");
}
