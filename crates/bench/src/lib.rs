//! Shared infrastructure for the reproduction benches.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the paper
//! (see docs/PAPER_MAP.md §"Figures" for the full index). This library
//! provides:
//!
//! * [`Scale`] — the `FEC_REPRO_*` environment knobs that trade fidelity
//!   for runtime (defaults: `k = 2000`, 30 runs; `FEC_REPRO_SCALE=paper`
//!   switches to the paper's `k = 20000`, 100 runs);
//! * [`sweep`] / [`figure_grid`] — the shared experiment-grid boilerplate:
//!   one cell, or a whole figure's (code × ratio) matrix swept, printed
//!   and saved in one call, against any registered codec;
//! * [`paper`] — the paper's appendix Tables 1–9 transcribed as ground
//!   truth;
//! * [`compare`] — paper-vs-measured delta reports;
//! * [`output`] — writes results under `results/` so every artifact in
//!   docs/PAPER_MAP.md §"Figures" can be regenerated mechanically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod output;
pub mod paper;
mod scale;

pub use scale::Scale;

use fec_codec::{registry, CodecHandle};
use fec_sched::TxModel;
use fec_sim::{report, ExpansionRatio, Experiment, GridSweep, SweepConfig, SweepResult};

/// The paper's three codecs as registry handles, in paper order
/// (everything the recommenders consider; a registered third-party codec
/// joins automatically).
pub fn paper_codes() -> Vec<CodecHandle> {
    registry::candidates()
}

/// Runs one grid sweep for a `(code, ratio, tx)` tuple at the given scale.
///
/// [`GridSweep::execute`] folds the default unit slicing, so the output is
/// byte-identical to a sharded execution of the same sweep — a bench grid
/// can be farmed out as `fec-broadcast sweep --shard i/n` runs and merged
/// without invalidating previously published `results/`.
///
/// # Panics
/// Panics if the experiment is invalid — bench targets are developer tools,
/// so configuration bugs should abort loudly.
pub fn sweep(
    code: &CodecHandle,
    ratio: ExpansionRatio,
    tx: TxModel,
    scale: &Scale,
    track_total: bool,
) -> SweepResult {
    let experiment = Experiment::new(code.clone(), scale.k, ratio, tx);
    let config = SweepConfig {
        runs: scale.runs,
        grid_p: scale.grid.clone(),
        grid_q: scale.grid.clone(),
        seed: scale.seed,
        matrix_pool: scale.matrix_pool(),
        track_total,
        threads: None,
    };
    GridSweep::new(experiment, config)
        .expect("valid experiment")
        .execute()
}

/// One `(code, ratio)` cell of a figure's sweep matrix.
// audit:allow(surface) -- returned by `figure_grid`, whose cells the figure benches read
pub struct FigureCell {
    /// The codec swept.
    pub code: CodecHandle,
    /// The expansion ratio swept.
    pub ratio: ExpansionRatio,
    /// The sweep outcome.
    pub result: SweepResult,
}

impl FigureCell {
    /// The CSV/DAT base name this cell is saved under.
    fn file_stem(&self, prefix: &str) -> String {
        format!(
            "{prefix}_{}_r{}",
            self.code.name().replace(' ', "_"),
            self.ratio.as_f64()
        )
    }
}

/// Looks up one cell of a [`figure_grid`] result.
///
/// # Panics
/// Panics when the `(code, ratio)` pair was not part of the grid.
pub fn cell(
    cells: &[FigureCell],
    code: impl Into<CodecHandle>,
    ratio: ExpansionRatio,
) -> &FigureCell {
    let code = code.into();
    cells
        .iter()
        .find(|c| c.code == code && c.ratio == ratio)
        .unwrap_or_else(|| panic!("no figure cell for ({}, {ratio})", code.id()))
}

/// The whole-figure boilerplate every per-figure bench shares: sweeps the
/// `(code × ratio)` matrix for one transmission model, prints each
/// paper-style table, saves `results/<figure>/<prefix>_<code>_r<ratio>.csv`
/// (plus `.dat` surfaces when `save_dat`), and returns the cells for the
/// bench's own shape checks.
#[allow(clippy::too_many_arguments)] // a deliberate flat config surface
pub fn figure_grid(
    figure: &str,
    prefix: &str,
    codes: &[CodecHandle],
    ratios: &[ExpansionRatio],
    tx: TxModel,
    scale: &Scale,
    track_total: bool,
    save_dat: bool,
) -> Vec<FigureCell> {
    let mut cells = Vec::with_capacity(codes.len() * ratios.len());
    for &ratio in ratios {
        for code in codes {
            let result = sweep(code, ratio, tx, scale, track_total);
            println!("\n--- {code}, ratio {ratio} ---");
            println!("{}", report::paper_table(&result));
            let cell = FigureCell {
                code: code.clone(),
                ratio,
                result,
            };
            let stem = cell.file_stem(prefix);
            output::save(
                figure,
                &format!("{stem}.csv"),
                &report::to_csv(&cell.result),
            );
            if save_dat {
                output::save(
                    figure,
                    &format!("{stem}.dat"),
                    &report::to_dat(&cell.result),
                );
            }
            cells.push(cell);
        }
    }
    cells
}

/// Prints a standard header for a bench target.
pub fn banner(title: &str, scale: &Scale) {
    println!("================================================================");
    println!("{title}");
    println!(
        "scale: k = {}, runs/cell = {}, grid = {}x{} (paper: k = 20000, runs = 100, 14x14)",
        scale.k,
        scale.runs,
        scale.grid.len(),
        scale.grid.len()
    );
    println!("================================================================");
}
