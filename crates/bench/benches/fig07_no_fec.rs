//! Figure 7: "Why is FEC needed?" — the ×2 repetition baseline.
//!
//! The paper sends every source packet twice, in random order, with no FEC
//! at all, and observes (a) decoding only ever succeeds at p = 0, and (b)
//! even there the inefficiency is ≈ 2.0 (the receiver waits for the last
//! missing coupon near the end of the stream).

use fec_bench::{banner, output, sweep, Scale};
use fec_codec::builtin;
use fec_sched::TxModel;
use fec_sim::{report, ExpansionRatio};

fn main() {
    let scale = Scale::from_env();
    banner("Figure 7: no FEC, x2 repetition, random order", &scale);

    let result = sweep(
        &builtin::ldgm_staircase(), // irrelevant: no parity is ever sent
        ExpansionRatio::R2_5,
        TxModel::RepeatSource { copies: 2 },
        &scale,
        false,
    );

    let table = report::paper_table(&result);
    println!("{table}");
    output::save("fig07", "no_fec.txt", &table);
    output::save("fig07", "no_fec.csv", &report::to_csv(&result));

    // Shape assertions from §4.2.
    let mut p0_cells = 0;
    for cell in &result.cells {
        if cell.p == 0.0 {
            p0_cells += 1;
            assert!(!cell.is_masked(), "p=0 must always decode");
            let m = cell.mean_inefficiency.unwrap();
            assert!(
                m > 1.8 && m <= 2.0,
                "p=0 inefficiency ≈ 2.0 expected, got {m}"
            );
        } else {
            // With p > 0, at least one run should lose both copies of some
            // packet. At reduced k the odds of surviving shrink with k; the
            // paper observed universal failure at k = 20000. Tolerate rare
            // unmasked cells at tiny scales but report them.
            if !cell.is_masked() {
                println!(
                    "note: (p={}, q={}) survived all {} runs at k={} (paper masks it at k=20000)",
                    cell.p, cell.q, cell.runs, scale.k
                );
            }
        }
    }
    assert_eq!(p0_cells, scale.grid.len());
    let masked = result.masked_cells();
    let non_p0 = result.cells.len() - p0_cells;
    println!("masked cells: {masked}/{non_p0} non-perfect cells (paper: all of them at k=20000)");
    assert!(
        masked as f64 >= 0.9 * non_p0 as f64,
        "repetition must fail almost everywhere"
    );
    println!("shape checks passed: only p=0 decodes, with inefficiency ≈ 2.0");
}
