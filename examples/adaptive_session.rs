//! Adaptive broadcast session: the sender side of the `fec-adapt` loop,
//! end to end with real packets.
//!
//! A long-lived sender broadcasts a sequence of objects while the channel
//! drifts between a calm and a congested-bursty regime. From per-packet
//! loss feedback alone it (1) estimates the Gilbert parameters online,
//! (2) re-selects the (code, tx model, expansion ratio) tuple through the
//! paper's §6.1 rules with hysteresis, and (3) truncates each transmission
//! to the §6.2 plan. Receivers decode from whatever survives.
//!
//! Run with: `cargo run --example adaptive_session`

use fec_broadcast::prelude::*;

fn main() {
    let k = 120usize;
    let symbol = 64usize;
    let objects = 10u32;

    // The true channel — the controller never sees these parameters.
    let mut channel = DriftingChannel::cycling(
        vec![
            Regime::new(GilbertParams::new(0.01, 0.8).unwrap(), 1_500),
            Regime::new(GilbertParams::new(0.12, 0.3).unwrap(), 1_500),
        ],
        7,
    );

    let mut controller = AdaptiveController::new(ControllerConfig {
        window: 1_200,
        min_observations: 150,
        ..ControllerConfig::default()
    });

    println!("adaptive broadcast of {objects} objects, k = {k}, {symbol}-byte symbols\n");

    for object_id in 0..objects {
        // One re-plan per object: the tuple to encode under and, if the
        // estimate supports one, the §6.2 plan to truncate the schedule to.
        let replan = controller.replan(k);
        let decision = replan.decision;
        let true_params = channel.current();

        // Encode this object under the currently deployed tuple.
        let object: Vec<u8> = (0..k * symbol)
            .map(|i| ((i as u32 * 31 + object_id * 17) % 251) as u8)
            .collect();
        let spec = CodeSpec::new(decision.code.clone(), k, decision.ratio).with_matrix_seed(11);
        let sender = Sender::new(spec.clone(), &object, symbol).unwrap();

        let schedule_seed = 1000 + object_id as u64;
        let packets = match replan.plan {
            Some(plan) => sender.planned_transmission(&plan, decision.tx, schedule_seed),
            None => sender.transmission(decision.tx, schedule_seed),
        };

        // Broadcast through the channel; the receiver reports per-packet
        // fates (in a FLUTE deployment this is a reception report).
        let mut receiver = Receiver::new(spec, object.len(), symbol).unwrap();
        let mut observed = Vec::with_capacity(packets.len());
        let mut needed = None;
        for (i, pkt) in packets.iter().enumerate() {
            let lost = channel.next_is_lost();
            observed.push(lost);
            if lost {
                continue;
            }
            if receiver.push(pkt).unwrap().is_decoded() && needed.is_none() {
                needed = Some(i + 1);
            }
        }
        controller.observe_runs(observed.iter().map(|&lost| (lost, 1)));
        let decoded = needed.is_some();
        controller.record_outcome(decoded);
        if decoded {
            assert_eq!(receiver.into_object().unwrap(), object, "byte-exact");
        }

        let bound = controller.estimate().map_or_else(
            || "   -  ".into(),
            |e| format!("{:>5.1}%", e.p_global_upper() * 100.0),
        );
        println!(
            "object {object_id}: true loss {:>5.1}% | est bound {bound} | {} | sent {:>3}/{} | {}",
            true_params.global_loss_probability() * 100.0,
            decision,
            packets.len(),
            sender.packet_count(),
            if decoded {
                "decoded"
            } else {
                "FAILED (backoff engages)"
            },
        );
    }

    println!(
        "\ncontroller ended on `{}` after {} switch(es)",
        controller.decision(),
        controller.switches()
    );
}
