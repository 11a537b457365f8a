//! The live adaptive loop, end to end in one process: the engine the CLI
//! ships ([`live::send_session`]) streaming a FLUTE session through a
//! Gilbert-impaired link, a receiver emitting reception-report digests,
//! and the feedback amending the transmission in flight.
//!
//! This is `fec-broadcast send --adaptive` / `recv --report-to` with the
//! sockets replaced by `fec_channel::LinkEmulator` behind the engine's
//! [`PathSink`] / [`DigestSource`] seams, so the whole run is
//! deterministic. Run with:
//!
//! ```text
//! cargo run --release --example live_adaptive
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::rc::Rc;

use fec_broadcast::channel::{GilbertChannel, GilbertParams, LinkConfig, LinkEmulator, LossModel};
use fec_broadcast::flute::feedback::ReportConfig;
use fec_broadcast::flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_broadcast::live::{self, DigestSource, PathSink, SendConfig};
use fec_broadcast::prelude::*;
use fec_broadcast::wire::{BufferPool, PoolBuf};

/// The far end of the link: the receiver, and the digests it has queued
/// for the return trip.
struct FarEnd {
    receiver: FluteReceiver,
    digests: VecDeque<PoolBuf>,
}

/// The forward path: impaired link, straight into the receiver.
struct ForwardPath {
    link: LinkEmulator,
    far: Rc<RefCell<FarEnd>>,
    pool: BufferPool,
}

impl PathSink for ForwardPath {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let far = &mut *self.far.borrow_mut();
        let delivered = self.link.transmit_batch(burst);
        far.receiver
            .push_datagrams(&delivered)
            .map_err(|e| e.to_string())?;
        // Return path: whenever the emitter's batch threshold fills (or
        // the session completes: the FIN digest), a digest crosses back.
        let report = if far.receiver.all_complete() {
            far.receiver.flush_report()
        } else {
            far.receiver.poll_report()
        };
        if let Some(report) = report {
            let bytes = report.to_bytes().map_err(|e| e.to_string())?;
            far.digests.push_back(self.pool.buf_from(&bytes));
        }
        Ok((
            delivered.len() as u64,
            delivered.iter().map(|d| d.len() as u64).sum(),
        ))
    }

    fn dropped(&self) -> u64 {
        self.link.stats().dropped
    }
}

struct ReturnPath(Rc<RefCell<FarEnd>>);

impl DigestSource for ReturnPath {
    fn try_recv_digests(&mut self, max: usize) -> std::io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let receiver_addr = SocketAddr::from(([127, 0, 0, 1], 4000));
        let digests = &mut self.0.borrow_mut().digests;
        let n = max.min(digests.len());
        Ok(digests.drain(..n).map(|d| (d, receiver_addr)).collect())
    }
}

fn main() {
    let tsi = 5;

    // Everything below records into one registry and one event log, as
    // `--metrics-addr` / `--telemetry-log` would.
    let registry = Registry::new();
    let events = EventLog::bounded(4096);

    // A session of three 16 KiB objects, encoded at the conservative
    // prior's ratio 2.5 (the sender does not know the channel yet).
    let mut sender = FluteSender::new(SenderConfig::new(tsi));
    let objects: Vec<Vec<u8>> = (1..=3u32)
        .map(|toi| {
            (0..16_000)
                .map(|i| ((i as u32 * 31 + toi) % 251) as u8)
                .collect()
        })
        .collect();
    for (i, object) in objects.iter().enumerate() {
        sender
            .add_object(
                i as u32 + 1,
                format!("file:///obj-{}.bin", i + 1),
                object,
                fec_broadcast::codec::registry::resolve("ldgm-triangle").unwrap(),
                ExpansionRatio::R2_5,
                64,
                7 + i as u64,
                TxModel::Random,
            )
            .unwrap();
    }

    // The forward channel: ~2.4% bursty loss, plus UDP's usual mischief.
    let params = GilbertParams::new(0.01, 0.4).unwrap();
    let model: Box<dyn LossModel> = Box::new(GilbertChannel::new(params, 42));
    let mut link = LinkEmulator::with_config(
        model,
        LinkConfig {
            duplicate_rate: 0.01,
            reorder_rate: 0.02,
            reorder_depth: 3,
        },
        9,
    );
    link.attach_telemetry(&registry);

    let mut receiver = FluteReceiver::new(tsi);
    receiver.enable_reports(ReportConfig {
        report_every: 64,
        ..ReportConfig::default()
    });
    receiver.attach_telemetry(&registry);
    let far = Rc::new(RefCell::new(FarEnd {
        receiver,
        digests: VecDeque::new(),
    }));

    let full = sender.data_packet_count();
    println!(
        "session: 3 × 16 KiB at ratio 2.5 → {full} data packets if sent statically\n\
         channel: p_global = {:.1}%, mean burst {:.1}\n",
        params.global_loss_probability() * 100.0,
        params.mean_burst_length().unwrap()
    );

    let mut paths = [ForwardPath {
        link,
        far: far.clone(),
        pool: BufferPool::with_config(2048, 64),
    }];
    let outcome = live::send_session(
        &sender,
        0x5EED,
        &mut paths,
        Some(&mut ReturnPath(far.clone())),
        &SendConfig {
            window: 5_000,
            replan_every: 64,
        },
        Some((&registry, &events)),
    )
    .unwrap();

    // Every control decision the engine took is in the event log (the
    // same records `--telemetry-log` writes as JSONL).
    for record in events.drain() {
        match record.event {
            Event::ObjectComplete { toi } => println!("  ← digest: object {toi} complete"),
            Event::ReplanIssued {
                toi,
                target,
                schedule,
            } => println!(
                "  → re-plan: object {toi} now stops at {target} packets \
                 (session plan {schedule} of {full})"
            ),
            _ => {}
        }
    }

    let far = &mut *far.borrow_mut();
    for (i, object) in objects.iter().enumerate() {
        assert_eq!(
            far.receiver.object(i as u32 + 1).expect("decoded"),
            &object[..],
            "object {} must decode byte-exactly",
            i + 1
        );
    }
    far.receiver.finalize_telemetry();
    let on_wire = outcome.sent + outcome.dropped;
    println!(
        "\ndelivered all 3 objects with {on_wire} datagrams on the wire \
         ({:.0}% of the static worst-case {full})",
        on_wire as f64 / full as f64 * 100.0,
    );

    // The same SessionSummary an adaptive `send --metrics-addr` prints on
    // exit: goodput, overhead against the static worst case, and the
    // estimator's trajectory.
    println!("\n{}", outcome.summary.to_json());

    assert!(on_wire < full, "the adaptive loop must save packets");
    assert!(
        outcome.summary.overhead_ratio < 1.0,
        "overhead {:.3} must undercut the static worst case",
        outcome.summary.overhead_ratio
    );
}
