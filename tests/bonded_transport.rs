//! Bonding scenario suite: one FEC emission striped across
//! heterogeneous lossy paths by the shipped engine,
//! [`live::send_session`], in the seeded world of `tests/support`.
//!
//! The engine's scheduler gives every live path an equal share: source
//! symbols go to the first-listed path in the affordable band, repair
//! symbols to the last (Kurant, arXiv:0901.1479). A path whose sink
//! fails is retired for the rest of the session; a path that goes
//! silently dead stays in rotation and delivery completes through
//! feedback and NACK repair.

mod support;

use std::cell::{Ref, RefCell};

use fec_broadcast::channel::LinkEmulator;
use fec_broadcast::live::{self, SendConfig, SendOutcome};
use fec_broadcast::prelude::*;
use support::{bursty, gilbert, Fault, Load, Member, World};

const LOAD: Load = Load {
    tsi: 55,
    objects: 2,
    len: 12_000,
};

const CONFIG: SendConfig = SendConfig {
    window: 5_000,
    replan_every: 64,
};

/// Receiver 1 behind `links`, asking for missing symbols.
fn member(links: Vec<LinkEmulator>) -> Member {
    LOAD.member(1, links).nacks()
}

/// The world's only receiver, after the session.
fn receiver(world: &RefCell<World>) -> Ref<'_, Member> {
    Ref::map(world.borrow(), |w| &w.members[0])
}

/// A feedback session of `session` over `links`, one path each, with
/// `faults` scripted as `(at datagram, path, fault)`.
fn run(
    session: &FluteSender,
    links: Vec<LinkEmulator>,
    faults: &[(u64, usize, Fault)],
    telemetry: Option<(&Registry, &EventLog)>,
) -> (std::rc::Rc<RefCell<World>>, Result<SendOutcome, String>) {
    let count = links.len();
    let (world, mut paths, mut reports) = World::new(vec![member(links)], count);
    for &(at, path, fault) in faults {
        world.borrow_mut().at(at, path, fault);
    }
    let outcome = live::send_session(
        session,
        0x5EED,
        &mut paths,
        Some(&mut reports),
        &CONFIG,
        telemetry,
    );
    (world, outcome)
}

/// Each path's datagram count and FNV-1a hash for a static 3-path
/// session and a feedback 2-path session, as text.
fn routing_fingerprint() -> String {
    let mut text = String::new();
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let links = (0..3).map(|i| gilbert(0.02, 0.4, 0x60 + i)).collect();
    let (world, mut paths, _) = World::new(vec![member(links)], 3);
    live::send_session(&session, 0x5EED, &mut paths, None, &CONFIG, None).unwrap();
    for (i, lane) in world.borrow().lanes.iter().enumerate() {
        text += &format!(
            "static 3-path, path {i}: {} datagrams, fnv1a {:016x}\n",
            lane.carried, lane.hash
        );
    }
    let links = vec![bursty(0.04, 3.0, 0x71), bursty(0.06, 4.0, 0x72)];
    let (world, mut paths, mut reports) = World::new(vec![member(links)], 2);
    live::send_session(
        &session,
        0x5EED,
        &mut paths,
        Some(&mut reports),
        &CONFIG,
        None,
    )
    .unwrap();
    receiver(&world).assert_byte_exact();
    for (i, lane) in world.borrow().lanes.iter().enumerate() {
        text += &format!(
            "feedback 2-path, path {i}: {} datagrams, fnv1a {:016x}\n",
            lane.carried, lane.hash
        );
    }
    text
}

/// Recorded at b1de77a, while the scheduler still lived in its own
/// crate: moving it into the engine and teaching it to retire paths
/// changed no routing decision of a session whose paths all work.
#[test]
fn routing_is_unchanged_while_no_path_fails() {
    assert_eq!(
        routing_fingerprint(),
        include_str!("golden/bonded_routing.txt")
    );
}

#[test]
fn clean_three_path_bond_delivers_byte_exactly() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let links = vec![
        gilbert(0.01, 0.5, 11),
        gilbert(0.02, 0.5, 22),
        gilbert(0.03, 0.5, 33),
    ];
    let registry = Registry::new();
    let events = EventLog::bounded(1 << 16);
    let (world, outcome) = run(&session, links, &[], Some((&registry, &events)));
    let outcome = outcome.unwrap();
    receiver(&world).assert_byte_exact();
    // Striping really happened: every path carried traffic.
    for (path, p) in outcome.paths.iter().enumerate() {
        assert!(p.datagrams > 0, "path {path} never used");
    }
    let text = registry.render_prometheus();
    assert!(
        text.contains("fec_path_datagrams_total{path=\"0\"}"),
        "{text}"
    );
}

#[test]
fn single_path_bond_degenerates_to_plain_transfer() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let (world, outcome) = run(&session, vec![gilbert(0.02, 0.5, 7)], &[], None);
    let outcome = outcome.unwrap();
    receiver(&world).assert_byte_exact();
    assert_eq!(outcome.paths.len(), 1);
    assert_eq!(outcome.sent, outcome.paths[0].datagrams);
}

/// Loss well past what the plan expects: the planned emission runs dry
/// and the receiver's NACKs, turned into targeted repair, finish the job.
#[test]
fn schedule_exhaustion_recovers_via_targeted_repair() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let links = vec![gilbert(0.10, 0.25, 97), gilbert(0.10, 0.25, 98)];
    let registry = Registry::new();
    let events = EventLog::bounded(1 << 16);
    let (world, outcome) = run(&session, links, &[], Some((&registry, &events)));
    outcome.unwrap();
    receiver(&world).assert_byte_exact();
    let repairs = events
        .drain()
        .into_iter()
        .filter(|r| matches!(r.event, Event::RepairQueued { queued, .. } if queued > 0))
        .count();
    assert!(repairs > 0, "no targeted repair was queued");
}

/// A path that falls off a cliff mid-flight keeps its turn (nothing
/// reallocates shares), and delivery still completes byte-exactly.
#[test]
fn degraded_path_keeps_its_turn_and_delivery_completes() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let links = vec![bursty(0.02, 2.0, 71), bursty(0.02, 2.0, 72)];
    let degrade = Fault::Degrade(GilbertParams::new(0.1, 0.1).unwrap(), 0xBAD);
    let (world, outcome) = run(&session, links, &[(128, 1, degrade)], None);
    let outcome = outcome.unwrap();
    receiver(&world).assert_byte_exact();
    let split: Vec<u64> = outcome.paths.iter().map(|p| p.datagrams).collect();
    assert!(
        split.iter().all(|&n| n * 3 >= outcome.sent),
        "equal turns must load both paths ({split:?})"
    );
}

/// A path that dies silently mid-flight stays in rotation: the sender
/// cannot tell, and feedback plus NACK repair complete the delivery.
#[test]
fn killed_path_stays_in_rotation_and_delivery_completes() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let links = vec![
        bursty(0.02, 2.0, 81),
        bursty(0.03, 2.0, 82),
        bursty(0.04, 2.0, 83),
    ];
    let (world, outcome) = run(&session, links, &[(200, 2, Fault::Kill)], None);
    let outcome = outcome.unwrap();
    receiver(&world).assert_byte_exact();
    let dead = &outcome.paths[2];
    assert!(dead.error.is_none(), "a silent path is not a failing one");
    assert!(
        dead.datagrams * 4 >= outcome.sent,
        "the dead path kept its turn: {} of {}",
        dead.datagrams,
        outcome.sent
    );
    eprintln!("kill: delivered after {} datagrams", outcome.sent);
}

/// A path whose sends fail is retired: its burst is dropped, its share
/// gauge goes to 0 and the others' to 1/2, its outage counter to 1, and
/// the survivors finish the session.
#[test]
fn failing_path_is_retired_and_the_survivors_finish() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let links = (0..3).map(|i| gilbert(0.02, 0.5, 40 + i)).collect();
    let registry = Registry::new();
    let events = EventLog::bounded(1 << 16);
    let fail = [(100, 1, Fault::FailSend(1))];
    let (world, outcome) = run(&session, links, &fail, Some((&registry, &events)));
    let outcome = outcome.unwrap();
    receiver(&world).assert_byte_exact();
    let world = world.borrow();
    let retired = &outcome.paths[1];
    assert_eq!(
        retired.error.as_deref(),
        Some("scripted send failure on path 1")
    );
    // What path 1 was offered and did not deliver is what the sender
    // counts as dropped: the failed burst.
    assert!(outcome.dropped > 0);
    assert_eq!(outcome.dropped, world.lanes[1].carried - retired.datagrams);
    assert!(outcome.paths[0].datagrams + outcome.paths[2].datagrams > retired.datagrams);
    let text = registry.render_prometheus();
    for line in [
        "fec_path_share{path=\"0\"} 0.5",
        "fec_path_share{path=\"1\"} 0",
        "fec_path_share{path=\"2\"} 0.5",
        "fec_path_outages_total{path=\"1\"} 1",
    ] {
        assert!(text.contains(line), "{line} missing:\n{text}");
    }
}

/// Retiring the last path ends the session with that path's error, as a
/// single-path send always has.
#[test]
fn the_last_path_failing_ends_the_session() {
    let session = LOAD.session(TxModel::Random, ExpansionRatio::R2_5);
    let fail = [(0, 0, Fault::FailSend(1))];
    let (_, outcome) = run(&session, vec![gilbert(0.02, 0.5, 9)], &fail, None);
    assert_eq!(outcome.unwrap_err(), "scripted send failure on path 0");
}

/// The bonding claim, measured on the engine: on three asymmetric bursty
/// links (10/12/14 % loss, mean bursts of 8/10/12 packets) under a
/// sequential schedule, how many datagrams has a bonded session offered
/// when its receiver decodes, against the best of the three links alone?
/// Prints the mean saving with a 95 % confidence interval over 20 link
/// realisations; asserts only byte-exact delivery.
#[test]
fn bonded_versus_best_single_path_over_twenty_realisations() {
    const REALISATIONS: u64 = 20;
    let session = LOAD.session(TxModel::SourceSeqParitySeq, ExpansionRatio::R1_5);
    let links = |salt: u64| {
        vec![
            bursty(0.10, 8.0, 911 ^ (salt * 0x9E37)),
            bursty(0.12, 10.0, 922 ^ (salt * 0x9E37)),
            bursty(0.14, 12.0, 933 ^ (salt * 0x9E37)),
        ]
    };
    let needed = |links: Vec<LinkEmulator>| {
        let (world, outcome) = run(&session, links, &[], None);
        outcome.unwrap();
        let member = receiver(&world);
        member.assert_byte_exact();
        member.completed_at.unwrap() as f64
    };
    let savings: Vec<f64> = (0..REALISATIONS)
        .map(|salt| {
            let best = (0..3)
                .map(|i| needed(vec![links(salt).remove(i)]))
                .fold(f64::INFINITY, f64::min);
            let bonded = needed(links(salt));
            100.0 * (best - bonded) / best
        })
        .collect();
    let n = savings.len() as f64;
    let mean = savings.iter().sum::<f64>() / n;
    let var = savings.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    // Student's t at 19 degrees of freedom, two-sided 95 %.
    let half = 2.093 * (var / n).sqrt();
    eprintln!(
        "bonded vs best single path over {REALISATIONS} realisations: mean saving \
         {mean:.1} % ± {half:.1} % (95 % CI [{:.1} %, {:.1} %])",
        mean - half,
        mean + half
    );
}
