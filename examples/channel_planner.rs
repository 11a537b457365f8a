//! The §6.2.1 workflow: a *known* channel, end to end.
//!
//! 1. Probe the channel and record a loss trace.
//! 2. Fit a Gilbert model to the trace (transition counting).
//! 3. Rank candidate (code, schedule, ratio) tuples by *measured*
//!    inefficiency at the fitted (p, q).
//! 4. Plan `n_sent` from the exact law of arrivals, beside equation 3's
//!    mean-based count, and show the savings.
//! 5. Verify by delivering an object under the truncated plan.
//!
//! ```sh
//! cargo run --release --example channel_planner
//! ```

use fec_broadcast::channel::{fit_gilbert, LossTrace};
use fec_broadcast::core::{decode_probability, optimal_n_sent};
use fec_broadcast::prelude::*;

fn main() {
    // --- 1. The "real" channel, unknown to the planner: the paper's
    //        Amherst -> Los Angeles fit from Yajnik et al.
    let truth = GilbertParams::new(0.0109, 0.7915).expect("probabilities");
    let mut probe = GilbertChannel::new(truth, 0xFEED);

    // --- 2. Record and fit.
    let trace = LossTrace::record(&mut probe, 500_000);
    let fitted = fit_gilbert(&trace).expect("identifiable trace");
    println!(
        "trace: {} packets, loss rate {:.2}%, mean burst {:.2}",
        trace.len(),
        trace.loss_rate() * 100.0,
        trace.burst_lengths().iter().sum::<usize>() as f64
            / trace.burst_lengths().len().max(1) as f64
    );
    println!(
        "fitted Gilbert: p = {:.4}, q = {:.4} (truth: p = {}, q = {})\n",
        fitted.p(),
        fitted.q(),
        truth.p(),
        truth.q()
    );

    // --- 3. Measured selection (the paper's Fig. 15 at reduced scale).
    let selector = MeasuredSelector::new(3000, 12);
    let choices = selector.select(fitted).expect("simulations run");
    println!(
        "{:<16} {:<12} {:>5} {:>8} {:>7}",
        "code", "model", "ratio", "inef", "n_sent"
    );
    for c in choices.iter().take(8) {
        println!(
            "{:<16} {:<12} {:>5} {:>8} {:>7}",
            c.code.name(),
            c.tx.name(),
            c.ratio.as_f64(),
            c.mean_inefficiency
                .map_or_else(|| "-".into(), |m| format!("{m:.4}")),
            c.plan
                .as_ref()
                .map_or_else(|| "-".into(), |p| p.n_sent.to_string()),
        );
    }
    let best = &choices[0];
    println!(
        "\nwinner: ({}, {}, ratio {}) — the paper picked (LDGM Staircase, tx_model_2, 1.5)",
        best.code.name(),
        best.tx.name(),
        best.ratio.as_f64()
    );

    // --- 4. Plan at the paper's object size: 50 MB in 1024-byte payloads.
    let k = 50_000_000usize.div_ceil(1024);
    let n = (k as f64 * best.ratio.as_f64()).floor() as u64;
    let inef = best.mean_inefficiency.expect("reliable winner");
    let need = [((inef * k as f64).ceil() as u64, 1)];
    let eq3 = optimal_n_sent(k, inef, fitted.global_loss_probability());
    let plan = TransmissionPlan::new(n, &need, fitted, 1).expect("n covers a 1.4% channel");
    println!(
        "plan for the 50 MB object: send {} of {} packets ({:.1}% saved), decoded with \
         probability {:.4}; equation 3's {eq3} decode with probability {:.3}",
        plan.n_sent,
        plan.n_total,
        plan.savings_fraction() * 100.0,
        plan.decode_probability,
        decode_probability(&need, fitted, eq3),
    );

    // --- 5. Validate the plan on a (smaller) real object.
    let symbol = 64;
    let spec = CodeSpec::new(best.code.clone(), selector.k, best.ratio).with_matrix_seed(11);
    let object: Vec<u8> = (0..selector.k * symbol).map(|i| (i % 241) as u8).collect();
    let sender = Sender::new(spec.clone(), &object, symbol).expect("encode");
    let small_plan = best.plan.as_ref().expect("winner has a plan");
    let mut delivered = 0;
    let trials = 20;
    for seed in 0..trials {
        let mut rx = Receiver::new(spec.clone(), object.len(), symbol).expect("session");
        let mut ch = GilbertChannel::new(truth, 0x900D + seed);
        for r in best
            .tx
            .schedule(sender.layout(), seed)
            .into_iter()
            .take(small_plan.n_sent as usize)
        {
            if ch.next_is_lost() {
                continue;
            }
            let symbol = sender.symbol(r).expect("ref");
            if rx.push(r, symbol).expect("push").is_decoded() {
                assert_eq!(rx.into_object().expect("decoded"), object);
                delivered += 1;
                break;
            }
        }
    }
    println!(
        "validation: {delivered}/{trials} deliveries under the truncated plan \
         (n_sent = {} of n = {})",
        small_plan.n_sent, small_plan.n_total
    );
    assert!(delivered >= trials - 2, "plan under-delivers");
}
