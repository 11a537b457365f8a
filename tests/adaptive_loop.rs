//! Acceptance test for the closed loop, run on the live engine in the
//! in-process world (`fec_broadcast::world`): on a regime-switching
//! Gilbert channel the adaptive session must
//!
//! 1. achieve a lower penalized mean inefficiency than the **static worst
//!    case** (the fixed tuple an unlucky non-adaptive operator would have
//!    shipped), and
//! 2. stay within a documented **1.25× margin** of the static oracle (the
//!    best fixed tuple in hindsight), while
//! 3. actually *sending* fewer packets per object than a full static
//!    transmission at the oracle's own expansion ratio would.
//!
//! The margin in (2) is the price of learning: the controller spends its
//! first objects on the conservative prior and a few more confirming each
//! regime switch, while the oracle is granted hindsight for free.

use fec_broadcast::adapt::Decision;
use fec_broadcast::flute::FluteReceiver;
use fec_broadcast::live::SendConfig;
use fec_broadcast::world::{static_candidates, Report, Workload};

fn workload() -> Workload {
    // Three regimes — calm, congested-bursty, moderate — each spanning
    // several objects at k = 400 (schedule length ≤ 1000 packets/object).
    Workload::drifting(400, 36, 0x5EED_AD47)
}

fn adaptive() -> (Report, FluteReceiver) {
    // Small window so regime switches are tracked within ~2 objects.
    let config = SendConfig {
        window: 2_500,
        ..SendConfig::default()
    };
    workload().run(&Decision::prior(), Some(&config)).unwrap()
}

#[test]
fn adaptive_beats_static_worst_case_and_tracks_oracle() {
    let (adaptive, _) = adaptive();
    let mut statics: Vec<(Decision, Report)> = static_candidates()
        .into_iter()
        .map(|d| {
            let (report, _) = workload().run(&d, None).unwrap();
            (d, report)
        })
        .collect();
    let cost = |r: &Report| r.penalized_mean_inefficiency();
    statics.sort_by(|a, b| cost(&a.1).total_cmp(&cost(&b.1)));
    let (oracle_decision, oracle) = statics.first().unwrap();
    let (worst_decision, worst) = statics.last().unwrap();
    let (adaptive_cost, oracle_cost, worst_cost) = (cost(&adaptive), cost(oracle), cost(worst));

    eprintln!(
        "adaptive {adaptive_cost:.4} | oracle {oracle_decision} {oracle_cost:.4} | \
         worst {worst_decision} {worst_cost:.4} | switches {}",
        adaptive.switches()
    );
    for (d, r) in &statics {
        eprintln!(
            "  static {d}: penalized {:.4}, failures {}/{}",
            cost(r),
            r.failures(),
            r.objects.len()
        );
    }

    // (1) The reason to adapt at all: the worst static tuple fails
    // outright in the heavy regime — more objects than the adaptive
    // session loses — and costs more. (The receivers decode by maximum
    // likelihood, which narrows every LDGM tuple's cost, so the margin
    // between the costs is not what this asserts.)
    assert!(
        worst.failures() > adaptive.failures(),
        "worst static tuple fails {} objects, the adaptive session {}",
        worst.failures(),
        adaptive.failures()
    );
    assert!(
        adaptive_cost < worst_cost,
        "adaptive {adaptive_cost:.4} should beat worst {worst_cost:.4}"
    );

    // (2) The documented oracle margin.
    assert!(
        adaptive_cost <= oracle_cost * 1.25,
        "adaptive {adaptive_cost:.4} within 1.25x of oracle {oracle_cost:.4}"
    );

    // (3) Planning and feedback save sender bandwidth: fewer packets on
    // the wire than the oracle's full static send.
    let adaptive_sent = adaptive.mean_sent_ratio();
    let oracle_sent = oracle.mean_sent_ratio();
    eprintln!("sent ratios: adaptive {adaptive_sent:.3} vs oracle (full) {oracle_sent:.3}");
    assert!(
        adaptive_sent < oracle_sent,
        "planned transmission {adaptive_sent:.3} must undercut the static full send {oracle_sent:.3}"
    );
}

#[test]
fn adaptive_controller_actually_adapts() {
    let (report, _) = adaptive();
    let objects = report.objects.len();
    // The regime schedule forces at least one tuple change, and
    // hysteresis keeps churn far below one switch per object.
    assert!(report.switches() >= 1, "no adaptation happened");
    assert!(
        report.switches() <= objects / 3,
        "thrashing: {} switches in {objects} objects",
        report.switches()
    );
    // Distinct tuples were actually deployed.
    let mut deployed: Vec<String> = report
        .objects
        .iter()
        .map(|o| o.decision.to_string())
        .collect();
    deployed.sort();
    deployed.dedup();
    assert!(deployed.len() >= 2, "only ever used {deployed:?}");
    // And decode reliability stayed high despite the heavy regime.
    let failures = report.failures();
    assert!(
        failures <= objects / 6,
        "{failures} failures in {objects} objects"
    );
}

/// The engine deploys the controller's tuple: after a regime switch a
/// later object goes out under another FTI than TOI 1's, and the receiver
/// — running the shipped receive step, `live::Reception` — decodes both
/// byte-exactly.
#[test]
fn a_later_object_goes_out_under_another_fti_and_decodes() {
    let (report, receiver) = adaptive();
    let fdt = receiver.fdt().expect("the receiver holds an FDT");
    let oti = |toi: u32| &fdt.file(toi).expect("listed").oti;
    let switched = report
        .objects
        .iter()
        .find(|o| o.switched && o.n_necessary.is_some())
        .expect("a redeployed object decoded");
    assert_ne!(oti(switched.toi), oti(1));
    assert_ne!(oti(switched.toi).n, oti(1).n, "another ratio on the wire");
    for toi in [1, switched.toi] {
        let decoded = receiver.object(toi).expect("decoded");
        assert_eq!(decoded, &workload().object(toi)[..], "object {toi}");
    }
    // Every object that decoded decoded byte-exactly.
    for o in report.objects.iter().filter(|o| o.n_necessary.is_some()) {
        assert_eq!(receiver.object(o.toi), Some(&workload().object(o.toi)[..]));
    }
}
