//! Figure 15 + §6.2.1: the end-to-end use case — a 50 MB object to a single
//! receiver over the measured Amherst→Los Angeles channel (Yajnik et al.
//! Gilbert fit: p = 0.0109, q = 0.7915).
//!
//! Reproduces the per-(model, code) inefficiency bars at both expansion
//! ratios, then the paper's planning arithmetic: best tuple, optimal
//! `n_sent`, and the savings versus sending everything.

use fec_bench::{banner, output, paper, Scale};
use fec_channel::GilbertParams;
use fec_codec::registry;
use fec_core::{decode_probability, optimal_n_sent, MeasuredSelector, TransmissionPlan};
use fec_sched::TxModel;
use fec_sim::ExpansionRatio;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 15 / §6.2.1: known channel use case (Yajnik Amherst->LA)",
        &scale,
    );

    let channel = GilbertParams::new(paper::prose::USECASE_P, paper::prose::USECASE_Q)
        .expect("paper probabilities");
    println!(
        "channel: p = {}, q = {}, p_global = {:.4}\n",
        channel.p(),
        channel.q(),
        channel.global_loss_probability()
    );

    // Full candidate matrix like the figure: tx1..tx6 for each code.
    let mut candidates = Vec::new();
    for ratio in ExpansionRatio::paper_ratios() {
        for tx in [
            TxModel::SourceSeqParitySeq,
            TxModel::SourceSeqParityRandom,
            TxModel::ParitySeqSourceRandom,
            TxModel::Random,
            TxModel::Interleaved,
        ] {
            for code in registry::candidates() {
                candidates.push((code, tx, ratio));
            }
        }
    }
    // Tx6 only at ratio 2.5 (the paper's Fig. 15b).
    for code in registry::candidates() {
        candidates.push((code, TxModel::tx6_paper(), ExpansionRatio::R2_5));
    }

    let selector = MeasuredSelector {
        k: scale.k,
        runs: scale.runs,
        seed: scale.seed,
        candidates,
    };
    let choices = selector.select(channel).expect("valid candidates");

    let mut csv = String::from("code,tx,ratio,mean_inefficiency,failures,n_sent\n");
    println!(
        "{:<16} {:<12} {:>5} {:>10} {:>8} {:>9}",
        "code", "model", "ratio", "inef", "failures", "n_sent"
    );
    for c in &choices {
        println!(
            "{:<16} {:<12} {:>5} {:>10} {:>8} {:>9}",
            c.code.name(),
            c.tx.name(),
            c.ratio.as_f64(),
            c.mean_inefficiency
                .map_or_else(|| "-".into(), |m| format!("{m:.4}")),
            c.failures,
            c.plan
                .as_ref()
                .map_or_else(|| "-".into(), |p| p.n_sent.to_string()),
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            c.code.name(),
            c.tx.name(),
            c.ratio.as_f64(),
            c.mean_inefficiency
                .map_or(String::new(), |m| format!("{m:.6}")),
            c.failures,
            c.plan
                .as_ref()
                .map_or(String::new(), |p| p.n_sent.to_string()),
        ));
    }
    output::save("fig15", "usecase_ranking.csv", &csv);

    // The paper's conclusion: (Tx2, LDGM Staircase, 1.5) wins with ≈ 1.011.
    let best = &choices[0];
    println!(
        "\nbest tuple: ({}, {}, ratio {}) inefficiency {:.4}",
        best.code.name(),
        best.tx.name(),
        best.ratio.as_f64(),
        best.mean_inefficiency.unwrap_or(f64::NAN)
    );
    assert!(best.is_reliable(), "winning tuple must never fail");
    assert_eq!(
        best.ratio,
        ExpansionRatio::R1_5,
        "the low-loss channel affords ratio 1.5 (paper §6.2.1)"
    );
    assert!(
        best.code.is_large_block(),
        "an LDGM code wins at this loss rate (paper: LDGM Staircase)"
    );
    assert_eq!(
        best.tx,
        TxModel::SourceSeqParityRandom,
        "Tx_model_2 wins on this channel (paper §6.2.1)"
    );

    // §6.2.1 arithmetic at the paper's exact object size: 50 MB (10^6-byte
    // MB) in 1024-byte payloads -> k = 48829, n = 73243.
    let k = 50_000_000usize.div_ceil(1024);
    let n = (k as f64 * 1.5).floor() as u64;
    let inef = best.mean_inefficiency.expect("reliable tuple");
    let need = [((inef * k as f64).ceil() as u64, 1)];
    let eq3 = optimal_n_sent(k, inef, channel.global_loss_probability());
    let plan = TransmissionPlan::new(n, &need, channel, 1).expect("n covers a 1.4% channel");
    println!("\n§6.2.1 plan at paper scale (k = {k}, n = {n}):");
    println!(
        "  measured inefficiency {:.4} (paper: {:.3})",
        inef,
        paper::prose::USECASE_BEST_INEF
    );
    println!(
        "  equation 3: n_sent = {eq3} packets (paper: ≈ 50041), decoded with probability {:.3}",
        decode_probability(&need, channel, eq3)
    );
    println!(
        "  plan: n_sent = {} packets, decoded with probability {:.4}; savings = {} packets ({:.1}%)",
        plan.n_sent,
        plan.decode_probability,
        plan.savings_packets(),
        plan.savings_fraction() * 100.0
    );
    assert!(
        (inef - paper::prose::USECASE_BEST_INEF).abs() < 0.02,
        "winning inefficiency {inef} too far from the paper's 1.011"
    );
    assert!(
        plan.savings_fraction() > 0.25,
        "the §6.2.1 point is that the savings are large"
    );
    println!("\nshape checks passed: §6.2.1 reproduced (winner, inefficiency, savings)");
}
