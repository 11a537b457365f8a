//! Fault injection: the receiver must survive anything a session throws
//! at it — duplicates, wrong-session and wrong-size packets, and (below,
//! on the FLUTE wire) garbage and truncation — with errors, never panics,
//! and must still decode afterwards.

mod load;

use fec_broadcast::prelude::*;
use proptest::prelude::*;

fn fresh(k: usize, symbol: usize) -> (CodeSpec, Vec<u8>, Sender, Receiver) {
    let spec = CodeSpec::ldgm_staircase(k, ExpansionRatio::R2_5).with_matrix_seed(21);
    let obj: Vec<u8> = (0..k * symbol).map(|i| (i * 7 % 253) as u8).collect();
    let sender = Sender::new(spec.clone(), &obj, symbol).unwrap();
    let receiver = Receiver::new(spec.clone(), obj.len(), symbol).unwrap();
    (spec, obj, sender, receiver)
}

#[test]
fn decoding_succeeds_after_a_flood_of_bad_input() {
    let (_, obj, sender, mut rx) = fresh(60, 16);

    let first = PacketRef { block: 0, esi: 0 };
    let good = sender.symbol(first).unwrap();
    // 1. Wrong-session packet (bad block).
    assert!(rx.push(PacketRef { block: 9, esi: 0 }, good).is_err());
    // 2. Payload of the wrong size.
    assert!(rx.push(first, b"short").is_err());
    // 3. A duplicate storm of one legitimate packet.
    for _ in 0..100 {
        rx.push(first, good).unwrap();
    }
    assert_eq!(rx.progress().decoded_source, 1);

    // After all that abuse, a normal transmission still decodes cleanly.
    for r in TxModel::Random.schedule(sender.layout(), 3) {
        if rx.push(r, sender.symbol(r).unwrap()).unwrap().is_decoded() {
            break;
        }
    }
    assert_eq!(rx.into_object().unwrap(), obj);
}

#[test]
fn errors_do_not_count_as_received() {
    let (_, _, sender, mut rx) = fresh(10, 8);
    let before = rx.progress().received;
    let good = sender.symbol(PacketRef { block: 0, esi: 0 }).unwrap();
    let _ = rx.push(PacketRef { block: 42, esi: 0 }, good);
    assert_eq!(
        rx.progress().received,
        before,
        "rejected packets must not consume the budget"
    );
}

#[test]
fn corrupted_payload_is_detected_by_length_only_by_design() {
    // The erasure-channel assumption (§1: packets arrive intact or not at
    // all) means payload *content* corruption is out of scope — transport
    // checksums handle that. Assert the documented behaviour: a wrong-size
    // payload errors, a right-size corrupted one is accepted (garbage in,
    // garbage out, like the real FLUTE stack without integrity checks).
    let (_, _, _, mut rx) = fresh(10, 8);
    let corrupted = [0xFF; 8];
    assert!(rx.push(PacketRef { block: 0, esi: 0 }, &corrupted).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any packet with arbitrary (block, esi) is either accepted or
    /// rejected with an error — never a panic, never corrupted state.
    #[test]
    fn arbitrary_headers_never_panic(block in 0u32..20, esi in 0u32..2000) {
        let (_, _, _, mut rx) = fresh(10, 8);
        let _ = rx.push(PacketRef { block, esi }, &[0u8; 8]);
        // The receiver is still usable.
        let p = rx.progress();
        prop_assert!(p.decoded_source <= p.total_source);
    }
}

#[test]
fn sender_refuses_inconsistent_configuration() {
    // Object too large for the spec's k.
    let spec = CodeSpec::ldgm_staircase(4, ExpansionRatio::R2_5);
    assert!(Sender::new(spec.clone(), &[0u8; 1000], 8).is_err());
    // Empty object.
    assert!(Sender::new(spec.clone(), &[], 8).is_err());
    // Zero symbol size.
    assert!(Sender::new(spec, &[0u8; 32], 0).is_err());
}

#[test]
fn receiver_refuses_inconsistent_configuration() {
    let spec = CodeSpec::ldgm_staircase(4, ExpansionRatio::R2_5);
    assert!(Receiver::new(spec.clone(), 1000, 8).is_err());
    assert!(Receiver::new(spec.clone(), 0, 8).is_err());
    assert!(Receiver::new(spec, 32, 0).is_err());
}

#[test]
fn ldgm_spec_with_no_checks_is_rejected_cleanly() {
    // ratio so close to 1 that there is no parity at all.
    let spec = CodeSpec::ldgm_staircase(10, ExpansionRatio::Custom(1.04));
    assert!(Sender::new(spec, &[0u8; 100], 10).is_err());
}

/// Bonded fault injection: one member of a bonded path set turns
/// hostile — storming malformed datagrams and failing sends — while its
/// neighbours stay clean. The engine must retire the failing path and
/// complete byte-exactly with every fault counted, none fatal.
mod bonded_faults {
    use fec_broadcast::live::{self, SendConfig};
    use fec_broadcast::prelude::{ExpansionRatio, TxModel};

    use fec_broadcast::world::{Fault, World};

    use crate::load::{gilbert, ByteExact, Load};

    const LOAD: Load = Load {
        tsi: 88,
        objects: 2,
        len: 9_000,
    };

    /// Path 1 garbles every 2nd datagram and fails every 5th send; paths
    /// 0 and 2 stay clean. Delivery completes byte-exactly, the garbage
    /// is rejected, and the failing path is retired, not fatal.
    #[test]
    fn hostile_path_storm_is_counted_not_fatal() {
        let sender = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
        let links = (0..3).map(|i| gilbert(0.01, 0.5, 101 * (i + 1))).collect();
        let member = LOAD.member(1, links).nacks();
        let (world, mut paths, mut reports) = World::new(vec![member], 3);
        world.borrow_mut().at(0, 1, Fault::Garble(2));
        world.borrow_mut().at(0, 1, Fault::FailSend(5));

        let outcome = live::send_session(
            &sender,
            0x5EED,
            &mut paths,
            Some(&mut reports),
            &SendConfig::default(),
            None,
        )
        .expect("a hostile path must not sink the session");

        let world = world.borrow();
        let member = &world.members[0];
        member.assert_byte_exact();
        // The storm really happened, and every fault was accounted for.
        assert!(
            member.reception.rejected > 0,
            "malformed datagrams must surface as rejected"
        );
        let retired = outcome.paths[1].error.as_deref();
        assert_eq!(retired, Some("scripted send failure on path 1"));
        // The clean paths carried real traffic throughout.
        for path in [0usize, 2] {
            assert!(
                outcome.paths[path].datagrams > 0,
                "clean path {path} never used"
            );
            assert!(outcome.paths[path].error.is_none());
        }
        eprintln!(
            "hostile storm: {} rejected, {} dropped, {} total datagrams",
            member.reception.rejected, outcome.dropped, outcome.sent
        );
    }
}

/// Wire-level fault injection: the live-session loops in
/// `fec_broadcast::live` must survive the three historical failure modes
/// — a drain thread killed by a stray `EINTR`/ICMP error, a receive
/// aborted because one digest failed to ship down the (lossy by design)
/// return channel, and one malformed datagram poisoning its whole decode
/// burst.
mod wire_faults {
    use std::io;
    use std::sync::mpsc;

    use fec_broadcast::flute::feedback::{ReceptionReport, ReportConfig};
    use fec_broadcast::flute::{AlcPacket, FecPayloadId, FluteReceiver, FluteSender, SenderConfig};
    use fec_broadcast::live::{self, BurstSource, DrainStats};
    use fec_broadcast::prelude::{ExpansionRatio, TxModel};
    use fec_broadcast::telemetry::Registry;
    use fec_broadcast::wire::{BufferPool, PoolBuf};

    const TSI: u32 = 77;
    const SYMBOL: usize = 64;

    /// One scripted step for the fake burst source.
    enum Step {
        Burst(Vec<Vec<u8>>),
        Fail(io::ErrorKind),
    }

    /// A [`BurstSource`] that replays a script instead of a socket, so the
    /// drain loop's error discipline is testable without signals or ICMP.
    struct ScriptedSource {
        pool: BufferPool,
        steps: std::vec::IntoIter<Step>,
    }

    impl ScriptedSource {
        fn new(steps: Vec<Step>) -> ScriptedSource {
            ScriptedSource {
                pool: BufferPool::new(),
                steps: steps.into_iter(),
            }
        }
    }

    impl BurstSource for ScriptedSource {
        fn recv_burst(&mut self, _max: usize) -> io::Result<Vec<PoolBuf>> {
            match self.steps.next() {
                Some(Step::Burst(datagrams)) => {
                    Ok(datagrams.iter().map(|d| self.pool.buf_from(d)).collect())
                }
                Some(Step::Fail(kind)) => Err(io::Error::new(kind, "scripted fault")),
                // Script exhausted: behave like an idle read timeout.
                None => Err(io::Error::new(io::ErrorKind::TimedOut, "script over")),
            }
        }
    }

    /// Bugfix 1: the drain loop must retry `EINTR`, survive transient
    /// errors (an ICMP-reflected `ECONNREFUSED`), and end the session
    /// only on an idle read timeout — delivering every datagram that
    /// arrived around the faults.
    #[test]
    fn drain_survives_interrupts_and_transient_errors() {
        let mut source = ScriptedSource::new(vec![
            Step::Burst(vec![vec![1u8; 10]]),
            Step::Fail(io::ErrorKind::Interrupted),
            Step::Burst(vec![vec![2u8; 20], vec![3u8; 30]]),
            Step::Fail(io::ErrorKind::ConnectionRefused),
            Step::Fail(io::ErrorKind::Interrupted),
            Step::Burst(vec![vec![4u8; 40]]),
            Step::Fail(io::ErrorKind::TimedOut),
            // Never reached: the timeout above ends the session first.
            Step::Burst(vec![vec![5u8; 50]]),
        ]);
        let (tx, rx) = mpsc::channel();
        let stats = live::drain_loop(&mut source, 3, &tx);
        assert_eq!(
            stats,
            DrainStats {
                bursts: 3,
                datagrams: 4,
                retries: 2,
                transients: 1,
            }
        );
        let delivered: Vec<(usize, Vec<u8>)> =
            rx.try_iter().map(|(p, b)| (p, b.to_vec())).collect();
        assert_eq!(
            delivered,
            vec![
                (3, vec![1u8; 10]),
                (3, vec![2u8; 20]),
                (3, vec![3u8; 30]),
                (3, vec![4u8; 40])
            ],
            "every datagram that arrived around the faults must be forwarded, \
             tagged with the drain's path"
        );
    }

    /// The drain loop must also end promptly when the decode side hangs
    /// up, instead of spinning against a dead channel.
    #[test]
    fn drain_stops_when_the_decoder_hangs_up() {
        let mut source = ScriptedSource::new(vec![
            Step::Burst(vec![vec![1u8; 8]]),
            Step::Burst(vec![vec![2u8; 8]]),
        ]);
        let (tx, rx) = mpsc::channel();
        drop(rx);
        let stats = live::drain_loop(&mut source, 0, &tx);
        assert_eq!(stats.bursts, 1, "first failed send must end the loop");
    }

    fn object_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 13 % 251) as u8).collect()
    }

    /// The full datagram schedule of a session carrying `objects` as TOIs
    /// 1, 2, …, in wire order.
    fn schedule(objects: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut config = SenderConfig::new(TSI);
        config.fdt_interval = 1000;
        let mut sender = FluteSender::new(config);
        for (toi, object) in (1..).zip(objects) {
            sender
                .add_object(
                    toi,
                    format!("file:///wire-fault-{toi}.bin"),
                    object,
                    fec_broadcast::codec::registry::resolve("ldgm-staircase").unwrap(),
                    ExpansionRatio::R2_5,
                    SYMBOL,
                    0xFA11,
                    TxModel::Random,
                )
                .unwrap();
        }
        let mut stream = sender.stream(0xFA11);
        let mut datagrams = Vec::new();
        while let Some(dg) = stream.next_datagram().unwrap() {
            datagrams.push(dg);
        }
        datagrams
    }

    /// A channel holding `datagrams` whose drains have all ended: once
    /// they are read, it reports the session idle.
    fn feed(datagrams: Vec<Vec<u8>>) -> mpsc::Receiver<(usize, PoolBuf)> {
        let pool = BufferPool::new();
        let (tx, rx) = mpsc::channel();
        for dg in &datagrams {
            tx.send((0, pool.buf_from(dg))).unwrap();
        }
        rx
    }

    /// Bugfix 2: a digest that fails to ship must be logged and counted,
    /// never abort the receive — the return channel is lossy by design.
    #[test]
    fn digest_ship_failure_does_not_abort_receive() {
        let object = object_bytes(4000);
        let rx = feed(schedule(&[&object]));

        let mut session = FluteReceiver::new(TSI);
        session.enable_reports(ReportConfig {
            report_every: 16,
            ..ReportConfig::default()
        });
        let mut attempts = 0u64;
        let outcome = live::receive_session(
            &mut session,
            &rx,
            |_report| {
                attempts += 1;
                Err("return channel down".to_string())
            },
            &Registry::disabled(),
        )
        .expect("a dead return channel must not abort the receive");

        assert!(outcome.completed.contains_key(&1));
        assert!(attempts > 0, "the session must have tried to ship digests");
        assert_eq!(
            outcome.ship_failures, attempts,
            "every failed ship must be counted"
        );
        assert_eq!(
            session.take_object(1).unwrap(),
            object,
            "the object must decode byte-exactly despite the dead return channel"
        );
    }

    /// Bugfix 3: garbage datagrams and a forged undecodable packet mixed
    /// into a burst must be rejected individually — the good neighbours
    /// in the same burst still decode the object byte-exactly.
    #[test]
    fn malformed_datagram_mid_burst_still_decodes() {
        let object = object_bytes(4000);
        let mut datagrams = schedule(&[&object]);

        // Forge a syntactically valid ALC packet whose payload ID the
        // decoder must reject (ESI far beyond n). Borrow the codepoint
        // and a real symbol from a genuine data packet so the forgery
        // survives parsing and dies only at the decode stage — the case
        // that errors the *batched* push path.
        let template = datagrams
            .iter()
            .map(|dg| AlcPacket::from_bytes(dg).unwrap())
            .find(|pkt| pkt.payload_id.is_some())
            .expect("the schedule contains data packets");
        let forged = AlcPacket::data(
            TSI,
            1,
            template.header.codepoint,
            FecPayloadId { sbn: 0, esi: 9999 },
            template.payload,
        )
        .to_bytes()
        .unwrap();

        // Plant the faults mid-schedule, after the FTI is known (so the
        // forgery reaches the decoder) but long before decode completes.
        let genuine = datagrams.len() as u64;
        let fdts = datagrams
            .iter()
            .filter(|dg| AlcPacket::from_bytes(dg).unwrap().payload_id.is_none())
            .count() as u64;
        datagrams.insert(5, b"not an alc packet".to_vec());
        datagrams.insert(9, forged);
        datagrams.insert(12, vec![0xFF; 3]);

        let rx = feed(datagrams);
        let registry = Registry::new();
        let mut session = FluteReceiver::new(TSI);
        session.attach_telemetry(&registry);
        session.enable_reports(ReportConfig::default());
        let outcome = live::receive_session(&mut session, &rx, |_| Ok(()), &Registry::disabled())
            .expect("malformed datagrams must not sink the session");

        assert_eq!(outcome.completed.get(&1), Some(&(genuine - fdts)));
        assert!(
            outcome.rejected >= 3,
            "the two garbage datagrams and the forged packet must all be \
             counted as rejected (got {})",
            outcome.rejected
        );
        // The numerator of the inefficiency ratio: every genuine data
        // datagram counted once, the forgery and the garbage never — not
        // when their burst is pushed, not on a one-by-one replay of it.
        assert_eq!(
            outcome.datagrams,
            genuine + 3,
            "the whole schedule fits one decode burst"
        );
        assert_eq!(session.packets_received(1), genuine - fdts);
        assert_eq!(
            registry.counter("fec_rx_late_or_duplicate_total", "").get(),
            0,
            "the report emitter must see every EXT_SEQ once"
        );
        assert_eq!(
            session.take_object(1).unwrap(),
            object,
            "the burst's good datagrams must still decode the object"
        );
    }

    /// The shipped loop receives a whole session: it runs until every
    /// object the FDT lists is decoded, not to the first one, and its last
    /// digest carries the FIN flag. Object 1's 5000 datagrams overflow the
    /// loop's first decode burst (4096), which decodes it and nothing else.
    #[test]
    fn receive_session_decodes_every_object_of_the_session() {
        let objects: Vec<Vec<u8>> = [128_000, 4000, 5000].map(object_bytes).into();
        let refs: Vec<&[u8]> = objects.iter().map(Vec::as_slice).collect();
        let rx = feed(schedule(&refs));
        let mut session = FluteReceiver::new(TSI);
        session.enable_reports(ReportConfig::default());
        let mut last: Option<ReceptionReport> = None;
        let ship = |report: &ReceptionReport| {
            last = Some(report.clone());
            Ok(())
        };
        let reception = live::receive_session(&mut session, &rx, ship, &Registry::disabled())
            .expect("a clean three-object session decodes");

        assert!(reception.is_done());
        assert_eq!(reception.completed.len(), 3);
        for (toi, object) in (1..).zip(&objects) {
            assert_eq!(
                session.take_object(toi).as_ref(),
                Some(object),
                "object {toi}"
            );
        }
        let last = last.expect("digests were shipped");
        assert!(
            last.session_complete,
            "the final digest carries the FIN flag"
        );
    }

    /// An object decoded from EXT_FTI with every FDT lost cannot tell the
    /// receiver the session is over: the loop returns it, as a success,
    /// once the channel goes idle.
    #[test]
    fn an_object_without_its_fdt_returns_once_the_channel_goes_idle() {
        let object = object_bytes(4000);
        let mut datagrams = schedule(&[&object]);
        datagrams.retain(|dg| AlcPacket::from_bytes(dg).unwrap().payload_id.is_some());
        let rx = feed(datagrams);
        let mut session = FluteReceiver::new(TSI);
        let reception = live::receive_session(&mut session, &rx, |_| Ok(()), &Registry::disabled())
            .expect("the decoded object is a success without an FDT");

        assert!(
            !reception.is_done(),
            "without an FDT the session is never done"
        );
        assert_eq!(reception.completed.keys().collect::<Vec<_>>(), [&1]);
        assert_eq!(session.take_object(1).unwrap(), object);
    }
}
