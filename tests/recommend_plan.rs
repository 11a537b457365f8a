//! Scenario test for §6: trace → Gilbert fit → recommendation → `n_sent`
//! plan → validated delivery.
//!
//! This walks the paper's full operational loop end-to-end on synthetic
//! data, closing with an actual byte-level delivery under the planned,
//! truncated transmission.

use fec_broadcast::channel::{fit_gilbert, LossTrace};
use fec_broadcast::codec::builtin;
use fec_broadcast::core::PLAN_EPSILON;
use fec_broadcast::prelude::*;

#[test]
fn full_operational_loop_on_a_known_channel() {
    // 1. "Measure" the channel: record a trace from the true process.
    let truth = GilbertParams::new(0.02, 0.6).unwrap(); // ~3.2% loss, bursts ~1.7
    let mut probe = GilbertChannel::new(truth, 0xACE);
    let trace = LossTrace::record(&mut probe, 400_000);
    let fitted = fit_gilbert(&trace).expect("identifiable trace");
    assert!(
        (fitted.p() - truth.p()).abs() < 0.005,
        "p fit {}",
        fitted.p()
    );
    assert!(
        (fitted.q() - truth.q()).abs() < 0.05,
        "q fit {}",
        fitted.q()
    );

    // 2. Rule-based recommendation agrees this is the low-loss regime.
    let recs = recommend(ChannelKnowledge::Known(fitted));
    assert_eq!(recs[0].code, builtin::ldgm_staircase());
    assert_eq!(recs[0].tx, TxModel::SourceSeqParityRandom);

    // 3. Measured selection over the candidate tuples. Each plan reads its
    //    cell's whole law of n_necessary against the exact law of
    //    arrivals — a plan built from the *mean* inefficiency alone would
    //    miss on roughly half the runs.
    let selector = MeasuredSelector::new(1200, 6);
    let choices = selector.select(fitted).expect("candidates run");
    let best = &choices[0];
    assert!(best.is_reliable());
    let plan = best.plan.as_ref().expect("reliable tuple has a plan");
    assert!(plan.decode_probability >= 1.0 - PLAN_EPSILON);
    assert!(
        plan.n_sent < plan.n_total,
        "a low-loss channel must allow truncation"
    );

    // 4. Execute the plan for real: send only the first n_sent packets of
    //    the winning schedule and verify the object still arrives.
    let k = selector.k;
    let symbol = 8;
    let spec = CodeSpec::new(best.code.clone(), k, best.ratio).with_matrix_seed(77);
    let obj: Vec<u8> = (0..k * symbol).map(|i| (i % 251) as u8).collect();
    let sender = Sender::new(spec.clone(), &obj, symbol).expect("sender");
    let mut delivered = 0;
    let runs = 10;
    for seed in 0..runs {
        let mut rx = Receiver::new(spec.clone(), obj.len(), symbol).expect("receiver");
        let mut ch = GilbertChannel::new(truth, 0xBEE + seed);
        let schedule = best.tx.schedule(sender.layout(), seed);
        for r in schedule.into_iter().take(plan.n_sent as usize) {
            if ch.next_is_lost() {
                continue;
            }
            if rx.push(r, sender.symbol(r).unwrap()).unwrap().is_decoded() {
                assert_eq!(rx.into_object().unwrap(), obj);
                delivered += 1;
                break;
            }
        }
    }
    assert!(
        delivered >= runs - 1,
        "the plan delivered only {delivered}/{runs}"
    );
}

#[test]
fn unknown_channel_recommendation_is_universal() {
    // §6.2.2: the Tx4+Triangle tuple must decode on wildly different
    // channels without re-tuning.
    let rec = &recommend(ChannelKnowledge::Unknown)[0];
    assert_eq!(rec.tx, TxModel::Random);
    let k = 800;
    for channel in [
        GilbertParams::perfect(),
        GilbertParams::bernoulli(0.15).unwrap(),
        GilbertParams::new(0.05, 0.3).unwrap(), // bursty
        GilbertParams::new(0.01, 0.9).unwrap(), // sparse
    ] {
        let exp = Experiment::new(rec.code.clone(), k, ExpansionRatio::R2_5, rec.tx)
            .with_channel(channel);
        let runner = Runner::new(exp, 2).expect("runner");
        for run in 0..5 {
            let out = runner.run(11, run, false);
            assert!(
                out.decoded,
                "universal scheme failed on channel {channel:?} run {run}"
            );
        }
    }
}

/// The plan states the probability that one receiver decodes; over 30
/// seeds, its deliveries must be as many as that probability allows.
#[test]
fn planned_deliveries_match_the_stated_probability() {
    let channel = GilbertParams::bernoulli(0.1).unwrap();
    let k = 600;
    let experiment = Experiment::new(
        builtin::ldgm_triangle(),
        k,
        ExpansionRatio::R2_5,
        TxModel::Random,
    )
    .with_channel(channel);
    let runner = Runner::new(experiment, 2).expect("runner");
    // Measure inefficiency.
    let runs = 8;
    let mut sum = 0.0;
    for run in 0..runs {
        sum += runner.run(5, run, false).inefficiency(k).expect("decodes");
    }
    let need = (sum / runs as f64 * k as f64).ceil() as u64;
    let n_total = runner.layout().total_packets();
    let plan = TransmissionPlan::new(n_total, &[(need, 1)], channel, 1).expect("plannable");
    assert!(plan.n_sent < n_total);

    // Count survivors of the truncated transmission against the need
    // (equation 2).
    let seeds = 100..130u64;
    let failures = seeds
        .clone()
        .filter(|&seed| {
            let mut ch = GilbertChannel::new(channel, seed ^ 0x5A5A);
            let survivors = (0..plan.n_sent).filter(|_| !ch.next_is_lost()).count();
            (survivors as u64) < need
        })
        .count();
    // The most failures a decode probability of `plan.decode_probability`
    // leaves in 30 trials, but for a tail of 10⁻³.
    let (trials, miss) = (seeds.count(), 1.0 - plan.decode_probability);
    let (mut bound, mut tail) = (0, 1.0);
    let pmf = |f: usize| {
        let choose: f64 = (0..f)
            .map(|i| (trials - i) as f64 / (i + 1) as f64)
            .product();
        choose * miss.powi(f as i32) * (1.0 - miss).powi((trials - f) as i32)
    };
    while tail >= 1e-3 {
        tail -= pmf(bound);
        bound += 1;
    }
    assert!(
        failures < bound,
        "{failures} of {trials} planned sends fell short; decode probability {:.4} allows {}",
        plan.decode_probability,
        bound - 1
    );
}
