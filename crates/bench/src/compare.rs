//! Paper-vs-measured comparison.

use std::fmt::Write as _;

use fec_sim::SweepResult;

use crate::paper::PaperTable;

/// Aggregate deltas between a published table and a measured sweep.
///
/// Cells are matched by their percentage coordinates; grid values absent
/// from either side are skipped (e.g. a `coarse` measured grid against a
/// 14-value paper grid, or the 13-value grids of Tables 7–8).
#[derive(Debug, Clone, PartialEq)]
struct Comparison {
    /// Cells where both sides have a numeric value.
    both_numeric: usize,
    /// Cells where both sides are masked (`-`).
    both_masked: usize,
    /// Cells numeric in the paper but masked in the measurement.
    we_masked: usize,
    /// Cells masked in the paper but numeric in the measurement.
    paper_masked: usize,
    /// Mean absolute difference over `both_numeric` cells.
    mean_abs_delta: f64,
    /// Maximum absolute difference over `both_numeric` cells.
    max_abs_delta: f64,
    /// Coordinates (p%, q%) of the worst cell.
    worst_cell: Option<(u32, u32)>,
}

impl Comparison {
    /// Fraction of comparable cells whose mask state agrees.
    fn mask_agreement(&self) -> f64 {
        let total = self.both_numeric + self.both_masked + self.we_masked + self.paper_masked;
        if total == 0 {
            return 1.0;
        }
        (self.both_numeric + self.both_masked) as f64 / total as f64
    }
}

/// Compares a measured sweep against a published table.
fn compare(paper: &PaperTable, measured: &SweepResult) -> Comparison {
    let paper_grid = paper.grid();
    let mut c = Comparison {
        both_numeric: 0,
        both_masked: 0,
        we_masked: 0,
        paper_masked: 0,
        mean_abs_delta: 0.0,
        max_abs_delta: 0.0,
        worst_cell: None,
    };
    let mut sum = 0.0;
    for (pi, &p) in paper_grid.iter().enumerate() {
        for (qi, &q) in paper_grid.iter().enumerate() {
            let Some(cell) = measured.cell(p, q) else {
                continue; // measured on a different grid
            };
            let paper_val = paper.cells()[pi * paper_grid.len() + qi];
            match (paper_val, cell.mean_inefficiency) {
                (Some(pv), Some(mv)) => {
                    let d = (pv - mv).abs();
                    sum += d;
                    c.both_numeric += 1;
                    if d > c.max_abs_delta {
                        c.max_abs_delta = d;
                        c.worst_cell = Some((paper.grid_pct[pi], paper.grid_pct[qi]));
                    }
                }
                (None, None) => c.both_masked += 1,
                (Some(_), None) => c.we_masked += 1,
                (None, Some(_)) => c.paper_masked += 1,
            }
        }
    }
    if c.both_numeric > 0 {
        c.mean_abs_delta = sum / c.both_numeric as f64;
    }
    c
}

/// Human-readable comparison block for the `paper_tables` bench output
/// (docs/PAPER_MAP.md §"Figures", Tables 1–9).
pub fn report(paper: &PaperTable, measured: &SweepResult) -> String {
    let c = compare(paper, measured);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({} / {} / ratio {}):",
        paper.id,
        (paper.code)().name(),
        paper.tx.name(),
        paper.ratio
    );
    let _ = writeln!(
        out,
        "  comparable cells: {} numeric on both sides, {} masked on both sides",
        c.both_numeric, c.both_masked
    );
    let _ = writeln!(
        out,
        "  mask agreement: {:.1}% ({} only-we-masked, {} only-paper-masked)",
        c.mask_agreement() * 100.0,
        c.we_masked,
        c.paper_masked
    );
    if c.both_numeric > 0 {
        let _ = writeln!(
            out,
            "  inefficiency delta: mean |Δ| = {:.4}, max |Δ| = {:.4} at (p={}%, q={}%)",
            c.mean_abs_delta,
            c.max_abs_delta,
            c.worst_cell.map_or(0, |w| w.0),
            c.worst_cell.map_or(0, |w| w.1),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::TABLE_5;
    use fec_sim::{CellStats, Experiment, SweepConfig, SweepResult};

    /// Builds a synthetic SweepResult that echoes the paper table exactly.
    fn echo_result(table: &PaperTable) -> SweepResult {
        let grid = table.grid();
        let cells = table
            .cells()
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let p = grid[i / grid.len()];
                let q = grid[i % grid.len()];
                CellStats {
                    p,
                    q,
                    runs: 100,
                    failures: u32::from(v.is_none()),
                    mean_inefficiency: v,
                    mean_inefficiency_unmasked: v,
                    min_inefficiency: v,
                    max_inefficiency: v,
                    std_inefficiency: None,
                    mean_received_ratio: None,
                }
            })
            .collect();
        SweepResult {
            experiment: Experiment::new((table.code)(), 20_000, table.ratio, table.tx),
            config: SweepConfig {
                grid_p: grid.clone(),
                grid_q: grid,
                ..SweepConfig::default()
            },
            cells,
        }
    }

    #[test]
    fn identical_data_gives_zero_delta_and_full_agreement() {
        let measured = echo_result(&TABLE_5);
        let c = compare(&TABLE_5, &measured);
        assert_eq!(c.mean_abs_delta, 0.0);
        assert_eq!(c.max_abs_delta, 0.0);
        assert_eq!(c.mask_agreement(), 1.0);
        assert_eq!(c.we_masked, 0);
        assert_eq!(c.paper_masked, 0);
        assert!(c.both_numeric > 0);
        assert!(c.both_masked > 0);
    }

    #[test]
    fn perturbed_data_is_detected() {
        let mut measured = echo_result(&TABLE_5);
        // Shift the p=0,q=0 cell by 0.05 and mask another.
        measured.cells[0].mean_inefficiency = Some(1.116 + 0.05);
        let idx = measured
            .cells
            .iter()
            .position(|c| c.mean_inefficiency.is_some() && c.p > 0.0)
            .unwrap();
        measured.cells[idx].mean_inefficiency = None;
        let c = compare(&TABLE_5, &measured);
        assert!((c.max_abs_delta - 0.05).abs() < 1e-12);
        assert_eq!(c.worst_cell, Some((0, 0)));
        assert_eq!(c.we_masked, 1);
        assert!(c.mask_agreement() < 1.0);
    }

    #[test]
    fn report_mentions_the_table_id() {
        let measured = echo_result(&TABLE_5);
        let r = report(&TABLE_5, &measured);
        assert!(r.contains("Table 5"));
        assert!(r.contains("mask agreement: 100.0%"));
    }
}
