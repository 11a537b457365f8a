//! The simulator against the exact law of arrivals on a Gilbert channel
//! (`fec_channel::analysis::arrival_shortfall`).
//!
//! An MDS block decodes as soon as k of its packets arrive, so for
//! Reed–Solomon the decode time is the time of an arrival, and the law
//! says everything:
//!
//! - with `track_total`, a run's `n_received` over its n sends follows the
//!   law of arrivals under every transmission model that sends all n
//!   (compared whole, by χ² at a fixed seed);
//! - a single-block object decodes exactly when `n_received ≥ k`;
//! - a Tx_model_5 object of B blocks fails with a probability inside the
//!   bracket of its blocks' failure laws: block b sees the chain every B
//!   sends (transition matrix Pᴮ, itself a Gilbert chain), so each block's
//!   law is exact, and the object fails at least as often as its worst
//!   block and at most as often as the union bound says.

use fec_channel::analysis::arrival_shortfall;
use fec_channel::GilbertParams;
use fec_codec::builtin;
use fec_sched::TxModel;
use fec_sim::{ExpansionRatio, Experiment, Runner};

/// The transmission models that send all n packets of the layout.
const SEND_ALL: [TxModel; 5] = [
    TxModel::SourceSeqParitySeq,
    TxModel::SourceSeqParityRandom,
    TxModel::ParitySeqSourceRandom,
    TxModel::Random,
    TxModel::Interleaved,
];

fn runner(k: usize, tx: TxModel, channel: GilbertParams) -> Runner {
    let experiment = Experiment::new(builtin::rse(), k, ExpansionRatio::R1_5, tx);
    Runner::new(experiment.with_channel(channel), 1).expect("RSE supports the shape")
}

/// `P(A_n = a)` for a = 0..=n: the law of arrivals in n sends from the
/// simulator's NoLoss start.
fn arrivals_law(channel: GilbertParams, n: u64) -> Vec<f64> {
    let at_least = |a: u64| 1.0 - arrival_shortfall(channel, 0.0, a, n);
    (0..=n).map(|a| at_least(a) - at_least(a + 1)).collect()
}

/// Pearson's χ² of `observed` against `law` over `runs` draws, adjacent
/// values pooled until each bin expects at least 5, with its degrees of
/// freedom.
fn chi_square(observed: &[u64], law: &[f64], runs: u64) -> (f64, usize) {
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let mut open = (0.0, 0.0);
    for (&o, &p) in observed.iter().zip(law) {
        open = (open.0 + o as f64, open.1 + p * runs as f64);
        if open.1 >= 5.0 {
            bins.push(std::mem::take(&mut open));
        }
    }
    match bins.last_mut() {
        Some(last) => *last = (last.0 + open.0, last.1 + open.1),
        None => bins.push(open),
    }
    let chi2 = bins.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
    (chi2, bins.len() - 1)
}

/// The 99.9 % point of χ² with `df` degrees of freedom, by the
/// Wilson–Hilferty cube-root approximation (z = 3.09).
fn chi_square_bound(df: usize) -> f64 {
    let h = 2.0 / (9.0 * df as f64);
    df as f64 * (1.0 - h + 3.09 * h.sqrt()).powi(3)
}

/// The χ² of every send-all model's `n_received` against the law. Run in
/// the channel's own sample-then-step order, every model must pass; a
/// chain that stepped before it sampled (losing the first packet with
/// probability p) fails at the bursty channel, where k = 8 sends only 12.
#[test]
fn received_counts_follow_the_law_of_arrivals() {
    const RUNS: u64 = 4_000;
    for (k, (p, q)) in [(8, (0.2, 0.4)), (170, (0.05, 0.5))] {
        let channel = GilbertParams::new(p, q).unwrap();
        for tx in SEND_ALL {
            let runner = runner(k, tx, channel);
            let n = runner.layout().total_packets();
            let mut observed = vec![0u64; n as usize + 1];
            for run in 0..RUNS {
                let result = runner.run(0xA111A, run, true);
                assert_eq!(result.n_sent, n);
                observed[result.n_received as usize] += 1;
            }
            let (chi2, df) = chi_square(&observed, &arrivals_law(channel, n), RUNS);
            let bound = chi_square_bound(df);
            assert!(
                chi2 <= bound,
                "k = {k}, ({p}, {q}), {}: χ² = {chi2:.1} over {df} df > {bound:.1}",
                tx.name()
            );
        }
    }
}

/// A single RSE block decodes exactly when k of its packets arrive.
#[test]
fn a_single_block_decodes_exactly_when_k_arrive() {
    let channel = GilbertParams::new(0.2, 0.45).unwrap();
    for tx in SEND_ALL {
        let runner = runner(170, tx, channel);
        assert_eq!(runner.layout().num_blocks(), 1);
        let (mut decoded, runs) = (0, 400u64);
        for run in 0..runs {
            let result = runner.run(0xB10C, run, true);
            let enough = result.n_received >= 170;
            assert_eq!(result.decoded, enough, "{} run {run}", tx.name());
            assert_eq!(result.n_necessary, enough.then_some(170));
            decoded += u64::from(enough);
        }
        assert!(0 < decoded && decoded < runs, "both outcomes occur");
    }
}

/// The failure probability of one block of `k_block` packets out of
/// `n_block`, interleaved round-robin at position `offset` among `blocks`:
/// the law on the chain seen every `blocks` sends, from the state it is
/// in at send `offset` of a NoLoss start.
fn block_failure(
    channel: GilbertParams,
    blocks: u32,
    offset: i32,
    k_block: u64,
    n_block: u64,
) -> f64 {
    let (p, q) = (channel.p(), channel.q());
    let (loss, lambda) = (channel.global_loss_probability(), 1.0 - p - q);
    // Pᴮ of a two-state chain: NoLoss → Loss with loss·(1 − λᴮ), Loss →
    // NoLoss with (1 − loss)·(1 − λᴮ); from NoLoss, Loss after t steps
    // with loss·(1 − λᵗ).
    let mixing = 1.0 - lambda.powi(blocks as i32);
    let thinned = GilbertParams::new(loss * mixing, (1.0 - loss) * mixing).unwrap();
    let start = loss * (1.0 - lambda.powi(offset));
    arrival_shortfall(thinned, start, k_block, n_block)
}

/// A Tx_model_5 object of three equal RSE blocks fails inside the bracket
/// of its blocks' exact laws: no less often than its worst block, no more
/// often than their union bound (each side widened by 4 binomial standard
/// errors).
#[test]
fn interleaved_blocks_fail_inside_the_bracket() {
    const RUNS: u32 = 3_000;
    for (p, q) in [(0.2, 0.45), (0.1, 0.25), (0.05, 0.1)] {
        let channel = GilbertParams::new(p, q).unwrap();
        let runner = runner(510, TxModel::Interleaved, channel);
        let layout = runner.layout();
        let blocks = layout.num_blocks() as u32;
        assert_eq!(blocks, 3);
        let failures: Vec<f64> = (0..blocks as usize)
            .map(|b| {
                let (k_block, n_block) = layout.block(b);
                assert_eq!((k_block, n_block), (170, 255), "equal blocks");
                block_failure(channel, blocks, b as i32, 170, 255)
            })
            .collect();
        let worst = failures.iter().copied().fold(0.0, f64::max);
        let union = failures.iter().sum::<f64>().min(1.0);
        let failed = (0..RUNS)
            .filter(|&run| !runner.run(0xB4AC, u64::from(run), false).decoded)
            .count();
        let observed = failed as f64 / f64::from(RUNS);
        let slack = |x: f64| 4.0 * (x * (1.0 - x) / f64::from(RUNS)).sqrt();
        assert!(
            worst - slack(worst) <= observed && observed <= union + slack(union),
            "({p}, {q}): {observed:.4} outside [{worst:.4}, {union:.4}]"
        );
        assert!(worst > 0.01, "({p}, {q}): the bracket is not vacuous");
    }
}
