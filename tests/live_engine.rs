//! Engine-level tests for [`live::send_session`] with in-process sinks:
//! the send loop the CLI ships, driven without sockets or threads, along
//! each of its three axes — how many receivers report, how many paths
//! carry the session, and whether anyone reports at all.
//!
//! The world is `fec_broadcast::world`: every path delivers each datagram
//! to every receiver through that receiver's own Gilbert link for the
//! path; digests go straight into a queue the engine polls, tagged with
//! the receiver's address. The objects and links are `tests/load`'s.

mod load;

use fec_broadcast::live::{self, SendConfig};
use fec_broadcast::prelude::*;
use fec_broadcast::world::{Fault, Member, World};
use load::{gilbert, ByteExact, Load};

/// Two 16 KB objects, k = 250 each, encoded at the worst-case prior's
/// ratio 2.5: 1250 data packets if sent statically.
const LOAD: Load = Load {
    tsi: 41,
    objects: 2,
    len: 16_000,
};
const OBJECTS: u32 = LOAD.objects;

fn build_session() -> FluteSender {
    LOAD.session(TxModel::Random, ExpansionRatio::R2_5)
}

/// Receiver `n` behind a Gilbert (p, q) link on each of `paths` paths.
fn member(n: u8, p: f64, q: f64, paths: usize) -> Member {
    let links = (0..paths as u64)
        .map(|path| gilbert(p, q, 0xA000 + n as u64 + (path << 8)))
        .collect();
    LOAD.member(n, links)
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
    let members = vec![member(1, 0.004, 0.6, 1), member(2, 0.08, 0.3, 1)];
    let (world, mut paths, mut reports) = World::new(members, 1);

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
    let (world, mut paths, mut reports) = World::new(vec![member(3, 0.02, 0.4, 2)], 2);

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
    // The estimator trajectory is part of the outcome, telemetry or not.
    assert!(!outcome.summary.estimator.is_empty());
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
        let (world, mut paths, _) = World::new(vec![member(4, 0.02, 0.4, path_count)], path_count);
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

/// A window too short to hold one transition is refused up front, like
/// an empty path list, even when nobody reports and the estimator would
/// never see a packet.
#[test]
fn a_window_below_two_packets_is_an_error_not_a_panic() {
    let session = build_session();
    for window in [0, 1] {
        let (world, mut paths, _) = World::new(vec![member(4, 0.02, 0.4, 1)], 1);
        let config = SendConfig { window, ..CONFIG };
        let err = live::send_session(&session, 0x5EED, &mut paths, None, &config, None)
            .expect_err("window < 2 must be refused");
        assert!(err.contains("estimation window"), "{err}");
        assert_eq!(world.borrow().offered, 0, "nothing may leave");
    }
}

/// The controller moves to a ratio-1.5 tuple and the objects still to
/// come are redeployed under it, so the session's full schedule shrinks;
/// then the path dies with objects left open. The plan runs dry, the
/// sender lingers, reverts the open objects to their full schedules as
/// deployed now, sends them, and — with nothing left to revert — ends on
/// "full schedule exhausted". Judged against the schedule the session
/// started with (or with the objects receivers had already stopped
/// counted in), a backoff always looked possible, and the sender backed
/// off every 1.5 s forever.
#[test]
fn a_dead_path_after_a_redeploy_exhausts_the_full_schedule() {
    let (done, outcome) = std::sync::mpsc::channel();
    let session = std::thread::spawn(move || {
        let load = Load {
            tsi: 43,
            objects: 6,
            len: 64 * 300,
        };
        let session = load.session(TxModel::Random, ExpansionRatio::R2_5);
        let (world, mut paths, mut reports) =
            World::new(vec![load.member(5, vec![gilbert(0.005, 0.8, 0xD1E)])], 1);
        world.borrow_mut().at(1_500, 0, Fault::Kill);
        let outcome = live::send_session(
            &session,
            0x5EED,
            &mut paths,
            Some(&mut reports),
            &CONFIG,
            None,
        );
        let complete = world.borrow().members[0].receiver.all_complete();
        done.send((outcome, complete)).ok();
    });
    let (outcome, complete) = outcome
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the session ends");
    session.join().expect("the session thread");
    let outcome = outcome.unwrap();
    let redeployed = outcome
        .deployments
        .iter()
        .filter(|d| d.decision.ratio == ExpansionRatio::R1_5)
        .count();
    assert!(redeployed >= 2, "{:?}", outcome.deployments);
    assert!(!complete);
    assert!(outcome.summary.objects_completed < 6);
    assert!(
        outcome.summary.backoffs <= 1,
        "{}",
        outcome.summary.backoffs
    );
}

/// The redeploy path with a population of two: the controller moves the
/// objects still to come to another tuple, and both receivers, on
/// different links and each holding an FDT-learned OTI provisionally
/// until the object accepts a symbol, decode every object byte-exactly.
#[test]
fn two_receivers_decode_every_object_across_a_redeploy() {
    let load = Load {
        tsi: 44,
        objects: 6,
        len: 64 * 300,
    };
    let session = load.session(TxModel::Random, ExpansionRatio::R2_5);
    let member = |n, p, seed| load.member(n, vec![gilbert(p, 0.7, seed)]);
    let (world, mut paths, mut reports) =
        World::new(vec![member(6, 0.005, 0xD1E), member(7, 0.01, 0xD1F)], 1);
    let reports = Some(&mut reports as &mut dyn live::DigestSource);
    let outcome = live::send_session(&session, 0x5EED, &mut paths, reports, &CONFIG, None);
    assert_eq!(outcome.unwrap().summary.objects_completed, load.objects);
    for member in &world.borrow().members {
        member.assert_byte_exact();
        let fdt = member.receiver.fdt().expect("the receiver holds an FDT");
        let oti = |toi: u32| &fdt.file(toi).expect("listed").oti;
        let redeployed = (2..=load.objects).any(|toi| oti(toi) != oti(1));
        assert!(redeployed, "{}: every object kept TOI 1's OTI", member.addr);
    }
}
