//! Figure 14: Rx_model_1 — receive a controlled number of source packets,
//! then all parity in random order (LDGM Staircase, ratio 2.5).
//!
//! The paper's surprising §5.1 result: there is a *sweet spot* — receiving
//! roughly 2–5% of the source packets first (≈ 400–1000 of k = 20000)
//! yields a better inefficiency than receiving either fewer or more. We
//! sweep a log-spaced axis of `num_source` and verify the U-shape: the
//! best point is interior, and both endpoints are measurably worse.

use std::fmt::Write as _;

use fec_bench::{banner, output, Scale};
use fec_codec::builtin;
use fec_sched::{RxModel, TxModel};
use fec_sim::{ExpansionRatio, Experiment, Runner};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 14: Rx_model_1 (m source packets, then random parity)",
        &scale,
    );

    let experiment = Experiment::new(
        builtin::ldgm_staircase(),
        scale.k,
        ExpansionRatio::R2_5,
        TxModel::Random, // unused by run_reception, required by the type
    );
    let runner = Runner::new(experiment, scale.matrix_pool()).expect("valid experiment");

    // Log-spaced num_source axis: 1, 2, 5, 10, ... up to k/2 — the paper's
    // plotted range (10^0 .. 10^4 for k = 20000). Beyond k/2 the curve
    // trivially returns to 1.0 at m = k (the receiver then holds exactly
    // the k source packets), which the paper does not plot.
    let mut axis = vec![0usize, 1, 2];
    let mut v = 5usize;
    while v < scale.k / 2 {
        axis.push(v);
        v = (v as f64 * 1.9) as usize;
    }
    axis.push(scale.k / 2);
    axis.dedup();

    let mut dat = String::new();
    let mut curve = Vec::new();
    for &m in &axis {
        let rx = RxModel::SourceThenParityRandom { num_source: m };
        let mut sum = 0.0;
        let mut fails = 0u32;
        for run in 0..scale.runs {
            let out = runner.run_reception(rx, scale.seed, run as u64);
            match out.inefficiency(scale.k) {
                Some(i) => sum += i,
                None => fails += 1,
            }
        }
        let successes = scale.runs - fails;
        let mean = (successes > 0).then(|| sum / successes as f64);
        match mean {
            Some(mean) if fails == 0 => {
                println!("m = {m:>6}: inefficiency {mean:.4}");
                let _ = writeln!(dat, "{m} {mean:.6}");
                curve.push((m, mean));
            }
            _ => println!("m = {m:>6}: {fails}/{} runs failed", scale.runs),
        }
    }
    output::save("fig14", "rx1_staircase_r2.5.dat", &dat);

    // U-shape checks.
    let (best_m, best) = curve
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty curve");
    let first = curve.first().expect("non-empty");
    let last = curve.last().expect("non-empty");
    println!(
        "\nsweet spot: m = {best_m} (inefficiency {best:.4}); endpoints: m={} -> {:.4}, m={} -> {:.4}",
        first.0, first.1, last.0, last.1
    );
    assert!(
        best_m > 0 && best_m < scale.k / 2,
        "sweet spot must be interior to the plotted range"
    );
    assert!(
        first.1 > best + 0.002 && last.1 > best + 0.002,
        "receiving fewer or more source packets must hurt (U-shape)"
    );
    // The paper's sweet spot at k=20000 is 400..1000, i.e. 2..5% of k; at
    // other scales the relative position is what transfers.
    let frac = best_m as f64 / scale.k as f64;
    println!(
        "sweet spot at {:.1}% of k (paper: 2-5% of k = 20000)",
        frac * 100.0
    );
    assert!(
        frac > 0.001 && frac < 0.25,
        "sweet spot fraction {frac} implausibly far from the paper's 2-5%"
    );
    println!("shape checks passed: the §5.1 sweet spot exists and is interior");
}
