//! Figure 12: Tx_model_5 — interleaving, the paper's mandatory scheme for
//! RSE.
//!
//! Paper findings (§4.7) asserted here:
//! * interleaved RSE is the best RSE scheme across the paper's models
//!   (better than RSE under Tx2 and Tx4 on the common decodable cells);
//! * at p = 0 it is exactly 1.0 (interleaving reorders, never wastes).

use fec_bench::{banner, output, sweep, Scale};
use fec_codec::builtin;
use fec_sched::TxModel;
use fec_sim::{report, ExpansionRatio};

fn main() {
    let scale = Scale::from_env();
    banner("Figure 12: Tx_model_5 (interleaving) with RSE", &scale);

    for ratio in [ExpansionRatio::R2_5, ExpansionRatio::R1_5] {
        let tx5 = sweep(&builtin::rse(), ratio, TxModel::Interleaved, &scale, false);
        println!("\n--- RSE interleaved, ratio {ratio} ---");
        println!("{}", report::paper_table(&tx5));
        output::save(
            "fig12",
            &format!("tx5_rse_r{}.csv", ratio.as_f64()),
            &report::to_csv(&tx5),
        );
        output::save(
            "fig12",
            &format!("tx5_rse_r{}.dat", ratio.as_f64()),
            &report::to_dat(&tx5),
        );

        for cell in &tx5.cells {
            if cell.p == 0.0 {
                assert_eq!(cell.mean_inefficiency, Some(1.0), "p=0 row");
            }
        }

        // Interleaving beats the other RSE schedules: on the vast majority
        // of common decodable cells, and on the grand mean. (Cell-level
        // ties flip either way at boundary cells with finite runs, so the
        // gate is a clear majority, not unanimity.)
        for other in [TxModel::SourceSeqParityRandom, TxModel::Random] {
            let alt = sweep(&builtin::rse(), ratio, other, &scale, false);
            let mut wins = 0;
            let mut losses = 0;
            for (c5, ca) in tx5.cells.iter().zip(&alt.cells) {
                if let (Some(a), Some(b)) = (c5.mean_inefficiency, ca.mean_inefficiency) {
                    if a <= b + 1e-3 {
                        wins += 1;
                    } else {
                        losses += 1;
                    }
                }
            }
            println!(
                "ratio {ratio}: interleaving vs {}: better-or-equal on {wins}, worse on {losses} cells",
                other.name()
            );
            assert!(
                wins >= 3 * losses.max(1),
                "interleaving must beat {} on a clear majority of cells",
                other.name()
            );
            let (g5, ga) = (tx5.grand_mean(), alt.grand_mean());
            if let (Some(g5), Some(ga)) = (g5, ga) {
                assert!(
                    g5 <= ga + 1e-3,
                    "interleaving grand mean {g5:.4} must not lose to {} ({ga:.4})",
                    other.name()
                );
            }
        }
    }
    println!("\nshape checks passed: interleaving is RSE's best schedule (§4.7)");
}
