//! Appendix Tables 1–9: regenerate every published numerical table and
//! report paper-vs-measured deltas.
//!
//! Select a subset with `FEC_REPRO_TABLES=1,5,9`; default is all nine.
//! At the default reduced scale the absolute deltas reflect the smaller
//! `k` (LDGM inefficiency shrinks slowly with k) — run with
//! `FEC_REPRO_SCALE=paper` for the full-fidelity comparison (the
//! "Tables 1–9" row of docs/PAPER_MAP.md §"Figures").

use fec_bench::{banner, compare, output, paper::PaperTable, Scale};
use fec_sim::{report, Experiment, GridSweep, SweepConfig};

fn selected() -> Vec<usize> {
    match std::env::var("FEC_REPRO_TABLES") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&i| (1..=9).contains(&i))
            .collect(),
        Err(_) => (1..=9).collect(),
    }
}

fn main() {
    let scale = Scale::from_env();
    banner("Appendix Tables 1-9: paper-vs-measured", &scale);

    let tables = PaperTable::all();
    let mut summary = String::new();
    for idx in selected() {
        let table = tables[idx - 1];
        // Sweep on the table's own grid (Tables 7-8 use 13 values).
        let config = SweepConfig {
            runs: scale.runs,
            grid_p: table.grid(),
            grid_q: table.grid(),
            seed: scale.seed,
            matrix_pool: scale.matrix_pool(),
            track_total: false,
            threads: None,
        };
        let experiment = Experiment::new((table.code)(), scale.k, table.ratio, table.tx);
        let result = GridSweep::new(experiment, config)
            .expect("experiment from a published table")
            .execute();

        println!(
            "\n=== {} — {} / {} / ratio {} ===",
            table.id,
            (table.code)().name(),
            table.tx.name(),
            table.ratio
        );
        println!("{}", report::paper_table(&result));
        let block = compare::report(table, &result);
        println!("{block}");
        summary.push_str(&block);
        summary.push('\n');

        let stem = table.id.to_lowercase().replace(' ', "_");
        output::save(
            "tables",
            &format!("{stem}_measured.csv"),
            &report::to_csv(&result),
        );
        output::save(
            "tables",
            &format!("{stem}_measured.dat"),
            &report::to_dat(&result),
        );
        output::save(
            "tables",
            &format!("{stem}_measured.json"),
            &serde_json::to_string_pretty(&result).expect("serializable"),
        );
    }
    output::save("tables", "summary.txt", &summary);
    println!("\nAll requested tables regenerated.");
}
