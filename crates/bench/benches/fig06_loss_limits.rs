//! Figure 6: the fundamental decodability limits ("loss limits") for FEC
//! expansion ratios 1.5 and 2.5.
//!
//! Analytic boundary `q(p)` plus an *empirical* cross-check: a quick sweep
//! with LDGM Staircase whose failure mask must nest inside the analytic
//! infeasible region (the analytic bound assumes a perfect code, so real
//! codes can only be worse).

use std::fmt::Write as _;

use fec_bench::{banner, output, sweep, Scale};
use fec_channel::analysis::FeasibilityLimit;
use fec_codec::builtin;
use fec_sched::TxModel;
use fec_sim::{report, ExpansionRatio};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 6: loss limits (decoding-impossible regions)",
        &scale,
    );

    let mut dat = String::new();
    for ratio in [1.5, 2.5] {
        let limit = FeasibilityLimit::ideal(ratio);
        println!(
            "ratio {ratio}: required delivery rate = {:.3}; boundary q(p) = p * r/(1-r):",
            limit.required_delivery_rate()
        );
        for pct in [10u32, 20, 40, 60, 80, 100] {
            let p = pct as f64 / 100.0;
            let q = limit.q_boundary(p).unwrap();
            println!("  p = {pct:>3}% -> q >= {:.3}", q.min(9.99));
            let _ = writeln!(dat, "{ratio} {p} {q}");
        }
        dat.push('\n');
    }
    output::save("fig06", "boundaries.dat", &dat);

    // ASCII map of the analytic regions, paper-style (rows p, cols q).
    println!("\nanalytic feasible region ('2' = only ratio 2.5, '#' = both, '.' = none):");
    for &p in &scale.grid {
        let mut row = String::new();
        for &q in &scale.grid {
            let f15 = FeasibilityLimit::ideal(1.5).is_feasible(p, q);
            let f25 = FeasibilityLimit::ideal(2.5).is_feasible(p, q);
            row.push(match (f15, f25) {
                (true, true) => '#',
                (false, true) => '2',
                (false, false) => '.',
                (true, false) => '!', // impossible: 2.5 dominates 1.5
            });
        }
        println!("  p={:>5.2} {row}", p);
    }

    // Empirical cross-check with a real (non-MDS) code.
    println!("\nempirical mask (LDGM Staircase, Tx_model_4) vs analytic bound:");
    let mut violations = 0;
    for ratio in [ExpansionRatio::R1_5, ExpansionRatio::R2_5] {
        let result = sweep(
            &builtin::ldgm_staircase(),
            ratio,
            TxModel::Random,
            &scale,
            false,
        );
        let limit = FeasibilityLimit::ideal(ratio.as_f64());
        for cell in &result.cells {
            if !cell.is_masked() && !limit.is_feasible(cell.p, cell.q) {
                violations += 1;
                println!(
                    "  VIOLATION: decoded at (p={}, q={}) outside the analytic region!",
                    cell.p, cell.q
                );
            }
        }
        println!("ratio {} mask:", ratio);
        print!("{}", report::ascii_mask(&result));
        output::save(
            "fig06",
            &format!("empirical_mask_r{}.txt", ratio.as_f64()),
            &report::ascii_mask(&result),
        );
    }
    assert_eq!(
        violations, 0,
        "real codes can never beat the information-theoretic bound"
    );
    println!("cross-check passed: every decodable cell lies inside the analytic region");
}
