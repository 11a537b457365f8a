//! Acceptance test for the `fec-adapt` closed loop: on a regime-switching
//! Gilbert channel the adaptive controller must
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
//! first epochs on the conservative prior and a few more confirming each
//! regime switch, while the oracle is granted hindsight for free.

use fec_broadcast::adapt::{AdaptiveRunner, ControllerConfig, Scenario};

fn scenario() -> Scenario {
    // Three regimes — calm, congested-bursty, moderate — each spanning
    // several epochs at k = 400 (schedule length ≤ 1000 packets/epoch).
    Scenario::regime_switching(400, 36, 0x5EED_AD47)
}

fn config() -> ControllerConfig {
    ControllerConfig {
        // Small window so regime switches are tracked within ~2 epochs.
        window: 2_500,
        min_observations: 500,
        ..ControllerConfig::default()
    }
}

#[test]
fn adaptive_beats_static_worst_case_and_tracks_oracle() {
    let comparison = AdaptiveRunner::new(scenario(), config()).compare();

    let adaptive = comparison.adaptive.penalized_mean_inefficiency();
    let oracle = comparison.oracle.penalized_mean_inefficiency();
    let worst = comparison.worst.penalized_mean_inefficiency();

    eprintln!(
        "adaptive {adaptive:.4} | oracle {:?} {oracle:.4} | worst {:?} {worst:.4} | switches {}",
        comparison.oracle_decision, comparison.worst_decision, comparison.adaptive.switches
    );
    for (d, r) in &comparison.statics {
        eprintln!(
            "  static {d:?}: penalized {:.4}, failures {}/{}",
            r.penalized_mean_inefficiency(),
            r.failures(),
            r.epochs.len()
        );
    }

    // (1) The reason to adapt at all.
    assert!(
        comparison.beats_worst_case(),
        "adaptive {adaptive:.4} must beat static worst case {worst:.4}"
    );
    // The gap must be material, not a rounding artifact: the worst static
    // tuple fails outright in the heavy regime.
    assert!(
        adaptive < worst * 0.9,
        "adaptive {adaptive:.4} should be well clear of worst {worst:.4}"
    );

    // (2) The documented oracle margin.
    assert!(
        comparison.oracle_gap() <= 1.25,
        "adaptive {adaptive:.4} within 1.25x of oracle {oracle:.4} (gap {:.3})",
        comparison.oracle_gap()
    );

    // (3) Planning saves sender bandwidth: fewer packets on the wire than
    // any full static send at ratio >= the oracle's.
    let adaptive_sent = comparison.adaptive.mean_sent_ratio();
    let oracle_sent = comparison.oracle.mean_sent_ratio();
    eprintln!("sent ratios: adaptive {adaptive_sent:.3} vs oracle (full) {oracle_sent:.3}");
    assert!(
        adaptive_sent < oracle_sent,
        "planned transmission {adaptive_sent:.3} must undercut the static full send {oracle_sent:.3}"
    );
}

#[test]
fn adaptive_controller_actually_adapts() {
    let report = AdaptiveRunner::new(scenario(), config()).run();
    // The regime schedule forces at least one decision change, and
    // hysteresis keeps churn far below one switch per epoch.
    assert!(report.switches >= 1, "no adaptation happened");
    assert!(
        report.switches <= report.epochs.len() as u64 / 3,
        "thrashing: {} switches in {} epochs",
        report.switches,
        report.epochs.len()
    );
    // Distinct tuples were actually deployed.
    let mut deployed: Vec<String> = report
        .epochs
        .iter()
        .map(|e| format!("{:?}", e.decision))
        .collect();
    deployed.sort();
    deployed.dedup();
    assert!(deployed.len() >= 2, "only ever used {deployed:?}");
    // And decode reliability stayed high despite the heavy regime.
    let failures = report.failures();
    assert!(
        failures <= report.epochs.len() as u32 / 6,
        "{failures} failures in {} epochs",
        report.epochs.len()
    );
}
