//! Figure 8: Tx_model_1 — source packets sequentially, then parity
//! sequentially.
//!
//! Paper findings (§4.3) asserted here:
//! * at p = 0 every code achieves exactly 1.0;
//! * with losses, the inefficiency hugs the `n_received / k` curve — the
//!   receiver effectively waits for the end of the transmission;
//! * RSE's decodable region is smaller than LDGM's (sequential parity +
//!   bursts wipe out whole blocks).

use fec_bench::{banner, figure_grid, paper_codes, Scale};
use fec_codec::builtin;
use fec_sched::TxModel;
use fec_sim::{ExpansionRatio, SweepResult};

fn check_shape(result: &SweepResult, label: &str) {
    for cell in &result.cells {
        if cell.p == 0.0 {
            assert_eq!(
                cell.mean_inefficiency,
                Some(1.0),
                "{label}: p=0 must be exactly 1.0"
            );
        }
    }
    // "The inefficiency ratio curve is very close to the nreceived/k curve
    // for nearly all values of p and q": at meaningful loss rates the
    // receiver waits for (almost) the end of the transmission. At very low
    // loss the inefficiency drops below the reception curve (there is
    // nothing to wait for), which the paper's z-clipped surfaces also show,
    // so the check is restricted to cells with p_global >= 15%.
    let mut ratios = Vec::new();
    for cell in &result.cells {
        let p_global = fec_channel::GilbertParams::new(cell.p, cell.q)
            .expect("grid values")
            .global_loss_probability();
        if cell.is_masked() || p_global < 0.15 {
            continue;
        }
        let inef = cell.mean_inefficiency.unwrap();
        let received = cell.mean_received_ratio.expect("track_total sweeps");
        ratios.push(inef / received);
    }
    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!(
            "{label}: mean inefficiency/(nreceived/k) over {} lossy cells = {mean:.3}",
            ratios.len()
        );
        assert!(
            mean > 0.9,
            "{label}: Tx1 should track the reception curve at real loss rates, got {mean:.3}"
        );
    }
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 8: Tx_model_1 (sequential source, then sequential parity)",
        &scale,
    );

    for ratio in [ExpansionRatio::R2_5, ExpansionRatio::R1_5] {
        let cells = figure_grid(
            "fig08",
            "tx1",
            &paper_codes(),
            &[ratio],
            TxModel::SourceSeqParitySeq,
            &scale,
            true,
            true,
        );
        let masked: Vec<_> = cells
            .iter()
            .map(|c| (c.code.clone(), c.result.masked_cells()))
            .collect();
        for c in &cells {
            check_shape(&c.result, &format!("{}@{ratio}", c.code));
        }
        // RSE loses more of the grid than the LDGM codes.
        let rse = masked.iter().find(|(c, _)| *c == builtin::rse()).unwrap().1;
        for (code, m) in &masked {
            println!("ratio {ratio}: {code} masked cells = {m}");
            if *code != builtin::rse() {
                assert!(
                    rse >= *m,
                    "RSE must cover a smaller area than {code} under Tx1"
                );
            }
        }
    }
    println!("\nshape checks passed: Tx_model_1 is 'definitively bad' as the paper says");
}
