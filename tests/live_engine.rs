//! Engine-level tests for [`live::send_session`] with in-process sinks:
//! the send loop the CLI ships, driven without sockets or threads, along
//! each of its three axes — how many receivers report, how many paths
//! carry the session, and whether anyone reports at all.
//!
//! Every path delivers each datagram to every receiver through that
//! receiver's own Gilbert link; digests go straight into a queue the
//! engine polls, tagged with the receiver's address.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;

use fec_broadcast::channel::{GilbertChannel, GilbertParams, LinkEmulator};
use fec_broadcast::flute::feedback::ReportConfig;
use fec_broadcast::flute::{FluteReceiver, FluteSender, SenderConfig};
use fec_broadcast::live::{self, DigestSource, PathSink, SendConfig};
use fec_broadcast::prelude::*;
use fec_broadcast::wire::{BufferPool, PoolBuf};

const TSI: u32 = 41;
const OBJECTS: u32 = 2;

fn object_bytes(toi: u32) -> Vec<u8> {
    (0..16_000u32)
        .map(|i| (i.wrapping_mul(29).wrapping_add(toi * 13) % 251) as u8)
        .collect()
}

/// Two 16 KB objects, k = 250 each, encoded at the worst-case prior's
/// ratio 2.5: 1250 data packets if sent statically.
fn build_session() -> FluteSender {
    let mut sender = FluteSender::new(SenderConfig::new(TSI));
    for toi in 1..=OBJECTS {
        sender
            .add_object(
                toi,
                format!("file:///obj-{toi}.bin"),
                &object_bytes(toi),
                fec_broadcast::codec::registry::resolve("ldgm-triangle").unwrap(),
                ExpansionRatio::R2_5,
                64,
                0xD1CE + toi as u64,
                TxModel::Random,
            )
            .unwrap();
    }
    sender
}

/// One receiver behind its own lossy link.
struct Member {
    addr: SocketAddr,
    link: LinkEmulator,
    receiver: FluteReceiver,
    /// Datagrams the paths had offered when this receiver finished.
    completed_at: Option<u64>,
}

impl Member {
    fn new(n: u8, p: f64, q: f64) -> Member {
        let params = GilbertParams::new(p, q).unwrap();
        let seed = 0xA000 + n as u64;
        let mut receiver = FluteReceiver::new(TSI);
        receiver.enable_reports(ReportConfig {
            report_every: 32,
            ..ReportConfig::default()
        });
        Member {
            addr: SocketAddr::from(([10, 0, 0, n], 5000)),
            link: LinkEmulator::new(Box::new(GilbertChannel::new(params, seed)), seed),
            receiver,
            completed_at: None,
        }
    }

    fn assert_byte_exact(&self) {
        assert!(self.receiver.all_complete(), "{} missed objects", self.addr);
        for toi in 1..=OBJECTS {
            assert_eq!(
                self.receiver.object(toi).expect("decoded"),
                &object_bytes(toi)[..],
                "{}: object {toi} corrupted",
                self.addr
            );
        }
    }
}

#[derive(Default)]
struct World {
    members: Vec<Member>,
    digests: VecDeque<(PoolBuf, SocketAddr)>,
    offered: u64,
}

/// One in-process path: a broadcast medium into every member's link.
struct Path {
    index: usize,
    world: Rc<RefCell<World>>,
    pool: BufferPool,
}

impl PathSink for Path {
    fn send_burst(&mut self, burst: &[Vec<u8>]) -> Result<(u64, u64), String> {
        let world = &mut *self.world.borrow_mut();
        world.offered += burst.len() as u64;
        for member in &mut world.members {
            if member.completed_at.is_some() {
                continue; // a finished receiver has left the session
            }
            let delivered = member.link.transmit_batch(burst);
            member
                .receiver
                .push_datagrams_on(self.index, &delivered)
                .map_err(|e| e.to_string())?;
            let report = if member.receiver.all_complete() {
                member.completed_at = Some(world.offered);
                member.receiver.flush_report() // the FIN digest
            } else {
                member.receiver.poll_report()
            };
            if let Some(report) = report {
                let bytes = report.to_bytes().map_err(|e| e.to_string())?;
                world
                    .digests
                    .push_back((self.pool.buf_from(&bytes), member.addr));
            }
        }
        Ok((
            burst.len() as u64,
            burst.iter().map(|d| d.len() as u64).sum(),
        ))
    }

    fn dropped(&self) -> u64 {
        0
    }
}

struct Reports(Rc<RefCell<World>>);

impl DigestSource for Reports {
    fn try_recv_digests(&mut self, max: usize) -> io::Result<Vec<(PoolBuf, SocketAddr)>> {
        let digests = &mut self.0.borrow_mut().digests;
        let n = max.min(digests.len());
        Ok(digests.drain(..n).collect())
    }
}

fn world_with(members: Vec<Member>, paths: usize) -> (Rc<RefCell<World>>, Vec<Path>) {
    let world = Rc::new(RefCell::new(World {
        members,
        ..World::default()
    }));
    let pool = BufferPool::with_config(2048, 64);
    let paths = (0..paths)
        .map(|index| Path {
            index,
            world: world.clone(),
            pool: pool.clone(),
        })
        .collect();
    (world, paths)
}

const CONFIG: SendConfig = SendConfig {
    window: 5_000,
    replan_every: 32,
};

/// Two receivers report to one sender. Receiver 1 sits on a nearly clean
/// link and finishes early; receiver 2 loses a fifth of its packets. A
/// sender with one shared `report_seq` guard would drop 2's digests as
/// stale after 1's and end the session on 1's FIN with 2 incomplete;
/// the engine keys digests by source, so the session ends only when
/// both have reported complete — and still well short of the static
/// worst case.
#[test]
fn two_receivers_on_different_links_both_finish_before_the_session_ends() {
    let session = build_session();
    let members = vec![Member::new(1, 0.004, 0.6), Member::new(2, 0.08, 0.3)];
    let (world, mut paths) = world_with(members, 1);
    let mut reports = Reports(world.clone());

    let outcome = live::send_session(
        &session,
        0x5EED,
        &mut paths,
        Some(&mut reports),
        &CONFIG,
        None,
    )
    .unwrap();

    let world = world.borrow();
    for member in &world.members {
        member.assert_byte_exact();
    }
    let finished: Vec<u64> = world
        .members
        .iter()
        .map(|m| m.completed_at.expect("finished"))
        .collect();
    assert!(
        finished[0] < finished[1],
        "the clean receiver must finish first ({finished:?})"
    );
    assert!(
        outcome.sent >= finished[1],
        "the session ended at {} datagrams, before receiver 2 finished at {}",
        outcome.sent,
        finished[1]
    );
    assert_eq!(outcome.summary.objects_completed, OBJECTS);
    assert!(
        outcome.sent < outcome.summary.full_schedule,
        "feedback must end the session before the full schedule ({} of {})",
        outcome.sent,
        outcome.summary.full_schedule
    );
}

/// The path axis and the feedback axis compose: the same loop stripes
/// one adaptive session across two paths (per-path EXT_SEQ spaces, one
/// receiver feeding each path's sequence track) and still ends early.
#[test]
fn feedback_and_multipath_compose() {
    let session = build_session();
    let (world, mut paths) = world_with(vec![Member::new(3, 0.02, 0.4)], 2);
    let mut reports = Reports(world.clone());

    let outcome = live::send_session(
        &session,
        0x5EED,
        &mut paths,
        Some(&mut reports),
        &CONFIG,
        None,
    )
    .unwrap();

    world.borrow().members[0].assert_byte_exact();
    assert!(outcome.sent < outcome.summary.full_schedule);
    assert!(outcome.summary.replans > 0);
    let split: Vec<u64> = outcome.paths.iter().map(|p| p.datagrams).collect();
    assert_eq!(split.iter().sum::<u64>(), outcome.sent);
    assert!(
        split.iter().all(|&n| n * 3 >= outcome.sent),
        "uniform shares must load both paths ({split:?})"
    );
    // Kurant ordering: source symbols prefer path 0, repair path 1.
    assert!(outcome.paths[0].source > outcome.paths[1].source);
    assert!(outcome.paths[1].repair > outcome.paths[0].repair);
}

/// Nobody reports: the session is the full schedule, once, with no
/// linger — on any number of paths.
#[test]
fn a_session_nobody_reports_on_is_the_full_schedule_once() {
    let session = build_session();
    let full = session.datagrams(0x5EED).unwrap().len() as u64;
    for path_count in [1, 2] {
        let (world, mut paths) = world_with(vec![Member::new(4, 0.02, 0.4)], path_count);
        let started = std::time::Instant::now();
        let outcome =
            live::send_session(&session, 0x5EED, &mut paths, None, &CONFIG, None).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(outcome.sent, full, "{path_count} path(s)");
        assert_eq!(world.borrow().offered, full);
        assert_eq!(outcome.paths.len(), path_count);
        assert_eq!(outcome.summary.replans, 0);
        assert_eq!(outcome.summary.digests_applied, 0);
    }
}
