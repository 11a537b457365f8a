//! Report generation: the paper's appendix-style tables, CSV, gnuplot
//! surfaces and ASCII heat maps.

use std::fmt::Write as _;

use crate::SweepResult;

/// Formats a sweep like the paper's appendix tables: rows are `p` values,
/// columns are `q` values, cells show the mean inefficiency with three
/// decimals, and `-` marks cells where at least one run failed.
pub fn paper_table(result: &SweepResult) -> String {
    let mut out = String::new();
    let _ = write!(out, "p \\ q ");
    for q in &result.config.grid_q {
        let _ = write!(out, "{:>7}", format_pct(*q));
    }
    let _ = writeln!(out);
    for (pi, p) in result.config.grid_p.iter().enumerate() {
        let _ = write!(out, "{:>5} ", format_pct(*p));
        for qi in 0..result.config.grid_q.len() {
            let cell = result.cell_at(pi, qi).expect("cell on grid");
            match cell.mean_inefficiency {
                Some(m) => {
                    let _ = write!(out, "{m:>7.3}");
                }
                None => {
                    let _ = write!(out, "{:>7}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// CSV export: `p,q,runs,failures,mean_inef,min,max,std,mean_received_ratio`
/// and the median, 99th and 99.9th percentile inefficiency
/// ([`CellStats::quantile`](crate::CellStats::quantile) over `k`), each
/// empty where it falls among the failures.
pub fn to_csv(result: &SweepResult) -> String {
    let mut out = String::from(
        "p,q,runs,failures,mean_inef,min_inef,max_inef,std_inef,mean_received_ratio,\
         q50_inef,q99_inef,q999_inef\n",
    );
    let k = result.experiment.k as f64;
    for c in &result.cells {
        let quantile = |f| opt(c.quantile(f).map(|n| n as f64 / k));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            c.p,
            c.q,
            c.runs,
            c.failures,
            opt(c.mean_inefficiency),
            opt(c.min_inefficiency),
            opt(c.max_inefficiency),
            opt(c.std_inefficiency),
            opt(c.mean_received_ratio),
            quantile(0.5),
            quantile(0.99),
            quantile(0.999),
        );
    }
    out
}

/// Gnuplot `splot`-ready surface: blocks of `p q value` lines separated by
/// blank lines per `p` row; masked cells are omitted (exactly how the paper
/// leaves holes in its 3-D plots).
pub fn to_dat(result: &SweepResult) -> String {
    let mut out = String::new();
    for pi in 0..result.config.grid_p.len() {
        for qi in 0..result.config.grid_q.len() {
            let cell = result.cell_at(pi, qi).expect("cell on grid");
            if let Some(m) = cell.mean_inefficiency {
                let _ = writeln!(out, "{} {} {m:.6}", cell.p, cell.q);
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// A terminal heat map of the masked/unmasked structure: `#` = decodable
/// cell (all runs succeeded), `.` = masked. Rows are `p` (top = 0), columns
/// `q` (left = 0) — visually matching Fig. 6's feasibility region.
pub fn ascii_mask(result: &SweepResult) -> String {
    let mut out = String::new();
    for pi in 0..result.config.grid_p.len() {
        for qi in 0..result.config.grid_q.len() {
            let cell = result.cell_at(pi, qi).expect("cell on grid");
            out.push(if cell.is_masked() { '.' } else { '#' });
        }
        out.push('\n');
    }
    out
}

fn format_pct(v: f64) -> String {
    let pct = v * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as i64)
    } else {
        format!("{pct:.1}")
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or(String::new(), |x| format!("{x:.6}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpansionRatio, Experiment, GridSweep, SweepConfig};
    use fec_codec::builtin;
    use fec_sched::TxModel;

    fn sample() -> SweepResult {
        let exp = Experiment::new(
            builtin::ldgm_staircase(),
            150,
            ExpansionRatio::R2_5,
            TxModel::Random,
        );
        let cfg = SweepConfig {
            runs: 3,
            grid_p: vec![0.0, 0.9],
            grid_q: vec![0.1, 1.0],
            seed: 2,
            matrix_pool: 1,
            track_total: false,
            threads: Some(1),
        };
        GridSweep::new(exp, cfg).unwrap().execute()
    }

    #[test]
    fn paper_table_shape() {
        let t = paper_table(&sample());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 p-rows
        assert!(lines[0].contains("10"));
        assert!(lines[0].contains("100"));
        // p=0 row has numeric cells with 3 decimals.
        assert!(lines[1].trim_start().starts_with('0'));
        assert!(lines[1].contains("1."), "numeric cell in {:?}", lines[1]);
        // p=0.9,q=0.1 is hopeless → a dash somewhere in the last row.
        assert!(lines[2].contains('-'));
    }

    #[test]
    fn csv_has_header_and_all_cells() {
        let r = sample();
        let csv = to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.cells.len());
        assert!(lines[0].starts_with("p,q,runs"));
        assert!(lines[0].ends_with(",q50_inef,q99_inef,q999_inef"));
        assert!(lines.iter().all(|l| l.split(',').count() == 12), "{csv}");
        // Masked cells leave the mean column empty.
        assert!(lines.iter().any(|l| l.contains(",,")));
        // The hopeless cell (p = 0.9, q = 0.1) never decodes: no quantile.
        assert!(lines[3].starts_with("0.9,0.1,3,3,") && lines[3].ends_with(",,,"));
        // A cell where every run decoded has its quantiles, ordered.
        let perfect: Vec<f64> = lines[1]
            .split(',')
            .skip(9)
            .map(|v| v.parse().unwrap())
            .collect();
        assert!(perfect[0] >= 1.0 && perfect[0] <= perfect[1] && perfect[1] <= perfect[2]);
    }

    #[test]
    fn dat_omits_masked_cells_and_separates_rows() {
        let r = sample();
        let dat = to_dat(&r);
        let data_lines = dat.lines().filter(|l| !l.is_empty()).count();
        let unmasked = r.cells.iter().filter(|c| !c.is_masked()).count();
        assert_eq!(data_lines, unmasked);
        assert!(dat.contains("\n\n"), "blank separators between p-rows");
    }

    #[test]
    fn ascii_mask_dimensions() {
        let r = sample();
        let map = ascii_mask(&r);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.len() == 2));
        assert!(map.contains('#'));
        assert!(map.contains('.'));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(format_pct(0.0), "0");
        assert_eq!(format_pct(0.05), "5");
        assert_eq!(format_pct(1.0), "100");
        assert_eq!(format_pct(0.0109), "1.1");
    }
}
