//! Grid sweeps over the `(p, q)` channel space, with the paper's
//! failure-masking aggregation (§4.1).
//!
//! Since the sharded-sweep refactor the sweep is an explicit
//! *plan → execute → merge* pipeline even in-process:
//!
//! 1. the configuration canonically enumerates [`WorkUnit`]s (cell ×
//!    run-range slices, [`SweepConfig::units`]);
//! 2. each unit executes independently into a mergeable [`CellAccum`]
//!    (`GridSweep::execute_unit`) — seeds derive from
//!    `(master seed, cell index, absolute run index)` so results do not
//!    depend on execution order or partitioning;
//! 3. accumulators, whose state is integers only (counts and the law of
//!    `n_necessary`), add into their cells exactly, in any order, and
//!    each cell reduces once into the public [`CellStats`]
//!    ([`finalize_cells`]).
//!
//! [`GridSweep::execute`] is the degenerate single-process path over that
//! pipeline; a [`Shard`](crate::Shard) runs the same three stages on one
//! slice per host, and [`StreamingMerge`](crate::StreamingMerge) folds the
//! slices into byte-identical results.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

use fec_channel::{grid, GilbertParams};
use serde::{Deserialize, Serialize};

use crate::seed::mix_seed;
use crate::{Experiment, Runner, SimError};

/// Default run-range slice size for [`SweepConfig::units`]: small enough
/// that the paper's 100-runs cells split four ways, large enough that one
/// unit amortises its cell's channel setup.
pub const DEFAULT_RUNS_PER_UNIT: u32 = 25;

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Trials per grid cell (paper: 100).
    pub runs: u32,
    /// Values of `p` to sweep (paper: [`grid::PAPER_GRID`]).
    pub grid_p: Vec<f64>,
    /// Values of `q` to sweep.
    pub grid_q: Vec<f64>,
    /// Master seed; every run derives deterministically from it.
    pub seed: u64,
    /// Number of independently-seeded LDGM matrices to rotate through.
    pub matrix_pool: usize,
    /// Whether to consume the whole schedule per run so the
    /// `n_received / k` curve is exact (slower; needed for Figs. 8 and 10).
    pub track_total: bool,
    /// Worker threads (`None` = all available cores).
    pub threads: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            runs: 100,
            grid_p: grid::GridKind::Paper.to_vec(),
            grid_q: grid::GridKind::Paper.to_vec(),
            seed: 0x0C0_FFEE,
            matrix_pool: Runner::DEFAULT_MATRIX_POOL,
            track_total: false,
            threads: None,
        }
    }
}

impl SweepConfig {
    /// A smaller configuration for quick exploration and tests.
    pub fn quick(runs: u32) -> SweepConfig {
        SweepConfig {
            runs,
            grid_p: grid::GridKind::Coarse.to_vec(),
            grid_q: grid::GridKind::Coarse.to_vec(),
            ..SweepConfig::default()
        }
    }

    /// Number of `(p, q)` grid cells.
    pub fn cell_count(&self) -> usize {
        self.grid_p.len() * self.grid_q.len()
    }

    /// The `(p, q)` values of every cell, row-major (`p` outer).
    fn coords(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (self.grid_p.iter()).flat_map(move |&p| self.grid_q.iter().map(move |&q| (p, q)))
    }

    /// Canonically enumerates this configuration's work units: for every
    /// cell in row-major order, its `runs` trials sliced into ranges of at
    /// most `runs_per_unit`, unit ids ascending.
    ///
    /// This enumeration **is** the unit of work distribution: two processes
    /// given the same configuration and `runs_per_unit` agree on every
    /// unit's id, cell, run range and (via [`mix_seed`]) random stream.
    pub fn units(&self, runs_per_unit: u32) -> Vec<WorkUnit> {
        (0..=u32::MAX)
            .map_while(|unit_id| self.unit(unit_id, runs_per_unit))
            .collect()
    }

    /// How many units [`SweepConfig::units`] enumerates, without
    /// enumerating them.
    pub fn unit_count(&self, runs_per_unit: u32) -> u64 {
        let slices_per_cell = self.runs.div_ceil(runs_per_unit.max(1));
        (self.cell_count() as u64).saturating_mul(u64::from(slices_per_cell))
    }

    /// Unit `unit_id` of [`SweepConfig::units`], computed from its id
    /// alone; `None` past the last unit.
    pub fn unit(&self, unit_id: u32, runs_per_unit: u32) -> Option<WorkUnit> {
        let per_unit = runs_per_unit.max(1);
        let slices_per_cell = self.runs.div_ceil(per_unit);
        let cell_idx = unit_id.checked_div(slices_per_cell)?;
        if cell_idx as usize >= self.cell_count() {
            return None;
        }
        let run_start = unit_id % slices_per_cell * per_unit;
        Some(WorkUnit {
            unit_id,
            cell_idx,
            run_start,
            run_len: per_unit.min(self.runs - run_start),
        })
    }
}

/// One independently-executable slice of a sweep: `run_len` trials of one
/// grid cell starting at absolute run index `run_start`.
///
/// Units are enumerated canonically by [`SweepConfig::units`]; a unit's
/// random streams depend only on `(seed, cell_idx, absolute run index)`,
/// never on which process executes it or in what order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkUnit {
    /// Position in the canonical enumeration.
    pub unit_id: u32,
    /// Row-major grid cell index (`p` outer, `q` inner).
    pub cell_idx: u32,
    /// First absolute run index of this slice.
    pub run_start: u32,
    /// Number of runs in this slice.
    pub run_len: u32,
}

/// Mergeable accumulator for one cell (or a run-range slice of one): the
/// run and failure counts, the packets received, and the law of
/// `n_necessary` over the successful runs.
///
/// Every field is an integer, and [`CellAccum::merge`] adds counts and
/// merges two sorted lists. Accumulators therefore reduce exactly, in
/// any order and any fold tree, into what one sequential pass over the
/// same runs records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellAccum {
    /// Row-major index of the cell these runs belong to.
    pub cell_idx: u32,
    /// Trials accumulated.
    pub runs: u32,
    /// Trials where decoding never completed.
    pub failures: u32,
    /// Sum of `n_received` over all runs.
    pub received: u64,
    /// The law of `n_necessary` over successful runs: `(n, runs that
    /// decoded with exactly n packets)`, strictly ascending in `n`, every
    /// count non-zero.
    pub law: Vec<(u64, u32)>,
}

impl CellAccum {
    /// An empty accumulator for one cell.
    pub fn new(cell_idx: u32) -> CellAccum {
        CellAccum {
            cell_idx,
            ..CellAccum::default()
        }
    }

    /// Absorbs one run's outcome: its [`RunResult::n_necessary`] (`None`
    /// = decode failure) and [`RunResult::n_received`].
    ///
    /// [`RunResult::n_necessary`]: crate::RunResult::n_necessary
    /// [`RunResult::n_received`]: crate::RunResult::n_received
    pub fn record(&mut self, n_necessary: Option<u64>, n_received: u64) {
        self.runs += 1;
        self.received += n_received;
        match n_necessary {
            Some(n) => self.add_to_law(n, 1),
            None => self.failures += 1,
        }
    }

    /// Adds `count` runs that decoded at `n` to the law, in order.
    fn add_to_law(&mut self, n: u64, count: u32) {
        match self.law.binary_search_by_key(&n, |&(m, _)| m) {
            Ok(i) => self.law[i].1 += count,
            Err(i) => self.law.insert(i, (n, count)),
        }
    }

    /// Absorbs another accumulator for the same cell.
    ///
    /// # Panics
    /// Panics if the accumulators belong to different cells.
    pub fn merge(&mut self, other: CellAccum) {
        assert_eq!(
            self.cell_idx, other.cell_idx,
            "merging accumulators of different cells"
        );
        // An empty accumulator takes the other's law without copying it.
        if *self == CellAccum::new(other.cell_idx) {
            *self = other;
            return;
        }
        self.runs += other.runs;
        self.failures += other.failures;
        // Saturating: a partial file's received totals are not checked,
        // so a forged one must not overflow the cell's sum.
        self.received = self.received.saturating_add(other.received);
        for (n, count) in other.law {
            self.add_to_law(n, count);
        }
    }

    /// Reduces the accumulated runs of an object of `k` source packets
    /// into the public per-cell statistics.
    ///
    /// Mean and σ come from the law's exact integer moments: with `S`
    /// successes, `Σn` and `Σn²`, the sample variance is
    /// `(S·Σn² − (Σn)²) / (S·(S − 1))`, whose numerator is computed
    /// exactly in `u128`, so no cancellation can occur however tightly the
    /// runs cluster. It fits while every `n` and `S` are below 2³², which
    /// a merge checks of every law it reads.
    pub fn finalize(self, p: f64, q: f64, k: usize, track_total: bool) -> CellStats {
        let (sum, sum_sq) = self.law.iter().fold((0u128, 0u128), |(s, s2), &(n, c)| {
            let (n, c) = (u128::from(n), u128::from(c));
            (s + c * n, s2 + c * n * n)
        });
        let successes = u128::from(self.runs - self.failures);
        let k = k as f64;
        let mean_unmasked = (successes > 0).then(|| sum as f64 / (successes as f64 * k));
        let variance_numerator = successes * sum_sq - sum * sum;
        let ratio = |n: u64| n as f64 / k;
        CellStats {
            p,
            q,
            runs: self.runs,
            failures: self.failures,
            mean_inefficiency: mean_unmasked.filter(|_| self.failures == 0),
            mean_inefficiency_unmasked: mean_unmasked,
            min_inefficiency: self.law.first().map(|&(n, _)| ratio(n)),
            max_inefficiency: self.law.last().map(|&(n, _)| ratio(n)),
            std_inefficiency: (successes > 1).then(|| {
                (variance_numerator as f64 / (successes * (successes - 1)) as f64).sqrt() / k
            }),
            mean_received_ratio: (track_total && self.runs > 0)
                .then(|| self.received as f64 / (f64::from(self.runs) * k)),
            n_necessary: self.law,
        }
    }
}

/// One empty accumulator per cell of `config`, row-major.
fn empty_cells(config: &SweepConfig) -> Vec<CellAccum> {
    (0..config.cell_count() as u32)
        .map(CellAccum::new)
        .collect()
}

/// Reduces per-unit accumulators of an object of `k` source packets into
/// the final row-major cell statistics.
///
/// `accums` may come in any order; each is added into its cell, and
/// together they must cover every cell's full run count — exactly the
/// completeness a merged shard set guarantees.
///
/// # Panics
/// Panics if an accumulator lies off the grid or a cell's accumulated run
/// count differs from `config.runs` (an incomplete or duplicated shard
/// set; [`StreamingMerge`] checks completeness before calling).
///
/// [`StreamingMerge`]: crate::StreamingMerge
pub fn finalize_cells(
    config: &SweepConfig,
    k: usize,
    accums: impl IntoIterator<Item = CellAccum>,
) -> Vec<CellStats> {
    let mut cells = empty_cells(config);
    for accum in accums {
        cells[accum.cell_idx as usize].merge(accum);
    }
    cells
        .into_iter()
        .zip(config.coords())
        .map(|(acc, (p, q))| {
            assert_eq!(
                acc.runs, config.runs,
                "accumulators cover {} of {} runs for cell {}",
                acc.runs, config.runs, acc.cell_idx
            );
            acc.finalize(p, q, k, config.track_total)
        })
        .collect()
}

/// Aggregated statistics for one `(p, q)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// Channel parameter `p` of this cell.
    pub p: f64,
    /// Channel parameter `q` of this cell.
    pub q: f64,
    /// Trials executed.
    pub runs: u32,
    /// Trials where decoding never completed.
    pub failures: u32,
    /// Mean inefficiency ratio over *successful* runs, masked to `None` if
    /// any run failed (the paper's plotting rule) or no run succeeded.
    pub mean_inefficiency: Option<f64>,
    /// Mean inefficiency over successful runs even when some failed
    /// (diagnostic; the paper hides these points).
    pub mean_inefficiency_unmasked: Option<f64>,
    /// Min/max inefficiency over successful runs.
    pub min_inefficiency: Option<f64>,
    /// Maximum inefficiency over successful runs.
    pub max_inefficiency: Option<f64>,
    /// Sample standard deviation of the inefficiency over successful runs.
    pub std_inefficiency: Option<f64>,
    /// Mean `n_received / k` over all runs (only if `track_total`).
    pub mean_received_ratio: Option<f64>,
    /// The law of `n_necessary` over successful runs, as in
    /// [`CellAccum::law`]: `(n, runs that decoded with exactly n
    /// packets)`, ascending in `n`.
    pub n_necessary: Vec<(u64, u32)>,
}

impl CellStats {
    /// The paper's "plot nothing here" predicate.
    pub fn is_masked(&self) -> bool {
        self.mean_inefficiency.is_none()
    }

    /// The share of *all* runs, failures included, that decoded with at
    /// most `n` packets received (NaN for a cell that ran no runs).
    pub fn decode_probability(&self, n: u64) -> f64 {
        let within = self.n_necessary.iter().take_while(|&&(m, _)| m <= n);
        let decoded: u64 = within.map(|&(_, count)| u64::from(count)).sum();
        decoded as f64 / f64::from(self.runs)
    }

    /// The `f`-quantile of `n_necessary` for `f` in `(0, 1]`: the smallest
    /// `n` with [`decode_probability(n)`](CellStats::decode_probability)
    /// `≥ f`, or `None` when that quantile falls among the failures.
    pub fn quantile(&self, f: f64) -> Option<u64> {
        let mut support = self.n_necessary.iter().map(|&(n, _)| n);
        support.find(|&n| self.decode_probability(n) >= f)
    }
}

/// Result of a full grid sweep: cells in row-major order, `p` outer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// The experiment swept (its `channel` field is ignored/replaced).
    pub experiment: Experiment,
    /// The configuration used.
    pub config: SweepConfig,
    /// One entry per `(p, q)` pair, `p` outer, `q` inner.
    pub cells: Vec<CellStats>,
}

impl SweepResult {
    /// Looks up the cell for `(p, q)` by resolving both values against the
    /// grid axes with an epsilon tolerance ([`grid::index_of`]), so values
    /// that went through parsing or arithmetic still land on their cell.
    pub fn cell(&self, p: f64, q: f64) -> Option<&CellStats> {
        let pi = grid::index_of(&self.config.grid_p, p)?;
        let qi = grid::index_of(&self.config.grid_q, q)?;
        self.cell_at(pi, qi)
    }

    /// Looks up a cell by grid indices (`p_idx` into `grid_p`, `q_idx`
    /// into `grid_q`) — the exact accessor reports iterate with.
    pub fn cell_at(&self, p_idx: usize, q_idx: usize) -> Option<&CellStats> {
        if p_idx >= self.config.grid_p.len() || q_idx >= self.config.grid_q.len() {
            return None;
        }
        self.cells.get(p_idx * self.config.grid_q.len() + q_idx)
    }

    /// Iterates over non-masked `(p, q, mean_inefficiency)` triples.
    pub fn surface(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        self.cells
            .iter()
            .filter_map(|c| c.mean_inefficiency.map(|m| (c.p, c.q, m)))
    }

    /// Overall mean of the non-masked cell means (a scalar summary used by
    /// shape tests: "model A beats model B on this channel family").
    pub fn grand_mean(&self) -> Option<f64> {
        let (sum, cells) =
            (self.surface()).fold((0.0, 0), |(sum, cells), (_, _, m)| (sum + m, cells + 1));
        (cells > 0).then(|| sum / f64::from(cells))
    }

    /// Number of masked cells.
    pub fn masked_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.is_masked()).count()
    }
}

/// A prepared grid sweep.
pub struct GridSweep {
    runner: Runner,
    config: SweepConfig,
    /// Every cell's channel, row-major (`p` outer), validated once.
    channels: Vec<GilbertParams>,
}

impl GridSweep {
    /// Validates and prepares the sweep.
    pub fn new(experiment: Experiment, config: SweepConfig) -> Result<GridSweep, SimError> {
        if config.runs == 0 {
            return Err(SimError::BadExperiment {
                reason: "sweep needs at least one run per cell".into(),
            });
        }
        for (name, g) in [("p", &config.grid_p), ("q", &config.grid_q)] {
            if g.is_empty() {
                return Err(SimError::BadExperiment {
                    reason: format!("empty {name} grid"),
                });
            }
        }
        let channels = config
            .coords()
            .map(|(p, q)| GilbertParams::new(p, q))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| SimError::BadExperiment {
                reason: format!("grid: {e}"),
            })?;
        let runner = Runner::new(experiment, config.matrix_pool)?;
        Ok(GridSweep {
            runner,
            config,
            channels,
        })
    }

    /// The underlying runner (its experiment is the one swept).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Runs the sweep across worker threads and aggregates per cell — the
    /// degenerate single-process path through the plan → execute → merge
    /// pipeline: every [`WorkUnit`] of the canonical enumeration executes
    /// locally, each accumulator is added into its cell as it completes,
    /// and the cells reduce through the same [`finalize_cells`] the
    /// distributed merge uses. The merge is exact, so the output is
    /// byte-identical to any sharded execution of the same configuration.
    pub fn execute(&self) -> SweepResult {
        self.execute_observed(&self.config.units(DEFAULT_RUNS_PER_UNIT), || {})
    }

    /// [`execute`](Self::execute) over `units`, calling `unit_done` on the
    /// caller's thread each time a unit's accumulator has been added into
    /// its cell (a progress hook).
    ///
    /// # Panics
    /// Panics if `units` do not cover every cell's runs exactly once, as
    /// [`finalize_cells`] does.
    pub fn execute_observed(&self, units: &[WorkUnit], mut unit_done: impl FnMut()) -> SweepResult {
        let mut cells = empty_cells(&self.config);
        self.execute_streamed(units, |_, accum| {
            cells[accum.cell_idx as usize].merge(accum);
            unit_done();
        });
        let experiment = self.runner.experiment().clone();
        SweepResult {
            cells: finalize_cells(&self.config, experiment.k, cells),
            experiment,
            config: self.config.clone(),
        }
    }

    /// Executes a set of work units across the configured worker threads,
    /// returning one accumulator per unit in the same order as `units`.
    pub fn execute_units(&self, units: &[WorkUnit]) -> Vec<CellAccum> {
        let mut results = Vec::with_capacity(units.len());
        self.execute_streamed(units, |i, accum| results.push((i, accum)));
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, accum)| accum).collect()
    }

    /// The configured worker count (`None` = all available cores).
    fn threads(&self) -> usize {
        self.config
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// The work-queue executor every sweep path runs on: executes `units`
    /// on the configured workers (clamped to `1..=units.len()`; one worker
    /// means inline, on the caller's thread) and hands each accumulator to
    /// `consume` — on the caller's thread, in completion order — together
    /// with its unit's position in `units`.
    ///
    /// Results change hands by rendezvous: a worker takes its next unit
    /// only once the caller's thread has accepted its last result, so no
    /// finished accumulator waits in a queue.
    ///
    /// Structured concurrency: workers are scoped and a panic in any of
    /// them propagates to the caller.
    fn execute_streamed(&self, units: &[WorkUnit], mut consume: impl FnMut(usize, CellAccum)) {
        let threads = self.threads().clamp(1, units.len().max(1));
        if threads == 1 {
            for (i, unit) in units.iter().enumerate() {
                consume(i, self.execute_unit(unit));
            }
            return;
        }

        let next = AtomicUsize::new(0);
        let (done_tx, done_rx) = sync_channel::<(usize, CellAccum)>(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (next, done_tx) = (&next, done_tx.clone());
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(unit) = units.get(i) else { break };
                    if done_tx.send((i, self.execute_unit(unit))).is_err() {
                        break; // the consumer panicked and hung up
                    }
                });
            }
            drop(done_tx);
            for (i, accum) in done_rx {
                consume(i, accum);
            }
        });
    }

    /// Executes one work unit: `run_len` trials of its cell starting at
    /// absolute run index `run_start`, accumulated in run order.
    ///
    /// Every random stream derives from `(config.seed, cell_idx, absolute
    /// run index)`, so the accumulator is identical no matter which
    /// process, thread or shard executes the unit. A unit off the grid
    /// runs no trials: its empty accumulator fails the run-count checks of
    /// [`finalize_cells`] and of a merge.
    fn execute_unit(&self, unit: &WorkUnit) -> CellAccum {
        let mut acc = CellAccum::new(unit.cell_idx);
        let Some(&channel) = self.channels.get(unit.cell_idx as usize) else {
            return acc;
        };
        let cell_seed = mix_seed(self.config.seed, &[unit.cell_idx as u64]);
        for run_idx in unit.run_start..unit.run_start + unit.run_len {
            let out = self.runner.run_with_channel(
                channel,
                cell_seed,
                run_idx as u64,
                self.config.track_total,
            );
            acc.record(out.n_necessary, out.n_received);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpansionRatio;
    use fec_codec::{builtin, CodecHandle};
    use fec_sched::TxModel;

    fn tiny_sweep(code: CodecHandle, tx: TxModel) -> SweepResult {
        let exp = Experiment::new(code, 200, ExpansionRatio::R2_5, tx);
        let cfg = SweepConfig {
            runs: 5,
            grid_p: vec![0.0, 0.1, 0.9],
            grid_q: vec![0.1, 0.9],
            seed: 1,
            matrix_pool: 2,
            track_total: false,
            threads: Some(2),
        };
        GridSweep::new(exp, cfg).unwrap().execute()
    }

    #[test]
    fn sweep_covers_every_cell_in_order() {
        let r = tiny_sweep(builtin::ldgm_staircase(), TxModel::Random);
        assert_eq!(r.cells.len(), 6);
        let coords: Vec<(f64, f64)> = r.cells.iter().map(|c| (c.p, c.q)).collect();
        assert_eq!(
            coords,
            vec![
                (0.0, 0.1),
                (0.0, 0.9),
                (0.1, 0.1),
                (0.1, 0.9),
                (0.9, 0.1),
                (0.9, 0.9)
            ]
        );
    }

    #[test]
    fn perfect_channel_cells_never_fail() {
        let r = tiny_sweep(builtin::rse(), TxModel::Interleaved);
        for c in r.cells.iter().filter(|c| c.p == 0.0) {
            assert_eq!(c.failures, 0);
            assert!(c.mean_inefficiency.is_some());
        }
    }

    #[test]
    fn hopeless_cells_are_masked() {
        // p=0.9, q=0.1 → 90% loss: impossible at ratio 2.5.
        let r = tiny_sweep(builtin::ldgm_staircase(), TxModel::Random);
        let c = r.cell(0.9, 0.1).unwrap();
        assert_eq!(c.failures, c.runs);
        assert!(c.is_masked());
        assert!(c.mean_inefficiency_unmasked.is_none());
        assert!(r.masked_cells() >= 1);
    }

    #[test]
    fn cell_lookup_tolerates_float_noise() {
        let r = tiny_sweep(builtin::ldgm_staircase(), TxModel::Random);
        // A value that went through arithmetic: 0.1 is not exactly
        // representable, so 1.0 - 0.9 != 0.1 bit-for-bit.
        let noisy_p = 1.0 - 0.9;
        assert!(noisy_p != 0.1, "test premise: the values differ in bits");
        let c = r.cell(noisy_p, 0.9).unwrap();
        assert_eq!((c.p, c.q), (0.1, 0.9));
        assert!(r.cell(0.05, 0.9).is_none(), "off-grid p stays a miss");
    }

    #[test]
    fn cell_at_is_row_major() {
        let r = tiny_sweep(builtin::ldgm_staircase(), TxModel::Random);
        for (pi, &p) in r.config.grid_p.clone().iter().enumerate() {
            for (qi, &q) in r.config.grid_q.clone().iter().enumerate() {
                let c = r.cell_at(pi, qi).unwrap();
                assert_eq!((c.p, c.q), (p, q));
            }
        }
        assert!(r.cell_at(3, 0).is_none());
        assert!(r.cell_at(0, 2).is_none());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let exp = Experiment::new(
            builtin::ldgm_triangle(),
            150,
            ExpansionRatio::R2_5,
            TxModel::Random,
        );
        let mk = |threads| {
            let exp = exp.clone();
            let cfg = SweepConfig {
                runs: 4,
                grid_p: vec![0.0, 0.2],
                grid_q: vec![0.3, 0.8],
                seed: 9,
                matrix_pool: 2,
                track_total: true,
                threads: Some(threads),
            };
            GridSweep::new(exp, cfg).unwrap().execute().cells
        };
        assert_eq!(mk(1), mk(4), "results must not depend on scheduling");
    }

    #[test]
    fn unit_enumeration_is_canonical() {
        let cfg = SweepConfig {
            runs: 10,
            grid_p: vec![0.0, 0.5],
            grid_q: vec![0.1, 0.9],
            ..SweepConfig::default()
        };
        let units = cfg.units(4);
        // 4 cells × ceil(10/4)=3 slices.
        assert_eq!(units.len(), 12);
        assert_eq!(cfg.unit_count(4), 12);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.unit_id as usize, i);
            assert_eq!(cfg.unit(u.unit_id, 4), Some(*u));
        }
        assert_eq!(cfg.unit(12, 4), None);
        // Per-cell slices are [0..4), [4..8), [8..10).
        let cell0: Vec<(u32, u32)> = units
            .iter()
            .filter(|u| u.cell_idx == 0)
            .map(|u| (u.run_start, u.run_len))
            .collect();
        assert_eq!(cell0, vec![(0, 4), (4, 4), (8, 2)]);
        // Total runs per cell is exact.
        for cell in 0..4 {
            let total: u32 = units
                .iter()
                .filter(|u| u.cell_idx == cell)
                .map(|u| u.run_len)
                .sum();
            assert_eq!(total, 10);
        }
    }

    #[test]
    fn unit_slicing_does_not_change_results() {
        // The same sweep executed over 1-run units and whole-cell units
        // adds up to the same integers, so every statistic agrees exactly.
        let exp = Experiment::new(
            builtin::ldgm_staircase(),
            150,
            ExpansionRatio::R2_5,
            TxModel::Random,
        );
        let cfg = SweepConfig {
            runs: 6,
            grid_p: vec![0.1],
            grid_q: vec![0.5],
            seed: 77,
            matrix_pool: 2,
            track_total: true,
            threads: Some(1),
        };
        let sweep = GridSweep::new(exp, cfg.clone()).unwrap();
        let fine: Vec<CellAccum> = sweep.execute_units(&cfg.units(1));
        let coarse: Vec<CellAccum> = sweep.execute_units(&cfg.units(100));
        let fine_cells = finalize_cells(&cfg, 150, fine.clone());
        assert_eq!(fine_cells, finalize_cells(&cfg, 150, coarse));
        assert_eq!(
            fine_cells,
            finalize_cells(&cfg, 150, fine.into_iter().rev())
        );
        assert!(fine_cells[0].std_inefficiency.is_some(), "{fine_cells:?}");
    }

    #[test]
    fn accum_merge_matches_sequential_record() {
        let samples = [
            (Some(153), 165),
            (None, 60),
            (Some(165), 180),
            (Some(153), 172),
            (None, 30),
            (Some(195), 210),
        ];
        let mut whole = CellAccum::new(3);
        for (n, received) in samples {
            whole.record(n, received);
        }
        assert_eq!(whole.law, vec![(153, 2), (165, 1), (195, 1)]);
        for split in 0..=samples.len() {
            let mut a = CellAccum::new(3);
            let mut b = CellAccum::new(3);
            for (n, received) in &samples[..split] {
                a.record(*n, *received);
            }
            for (n, received) in &samples[split..] {
                b.record(*n, *received);
            }
            let mut ba = b.clone();
            ba.merge(a.clone());
            a.merge(b);
            assert_eq!(a, whole);
            assert_eq!(ba, whole);
        }
    }

    #[test]
    #[should_panic(expected = "different cells")]
    fn accum_merge_rejects_cell_mismatch() {
        let mut a = CellAccum::new(0);
        a.merge(CellAccum::new(1));
    }

    #[test]
    fn cell_stats_serde_layout_is_golden() {
        // The on-disk contract: partial files and merged results from older
        // builds must keep loading, so the field set and order are frozen.
        let stats = CellStats {
            p: 0.5,
            q: 0.25,
            runs: 4,
            failures: 1,
            mean_inefficiency: None,
            mean_inefficiency_unmasked: Some(1.5),
            min_inefficiency: Some(1.25),
            max_inefficiency: Some(1.75),
            std_inefficiency: Some(0.25),
            mean_received_ratio: None,
            n_necessary: vec![(5, 1), (6, 1), (7, 1)],
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(
            json,
            "{\"p\":0.5,\"q\":0.25,\"runs\":4,\"failures\":1,\
             \"mean_inefficiency\":null,\"mean_inefficiency_unmasked\":1.5,\
             \"min_inefficiency\":1.25,\"max_inefficiency\":1.75,\
             \"std_inefficiency\":0.25,\"mean_received_ratio\":null,\
             \"n_necessary\":[[5,1],[6,1],[7,1]]}"
        );
        let back: CellStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn track_total_populates_received_ratio() {
        let exp = Experiment::new(builtin::rse(), 100, ExpansionRatio::R1_5, TxModel::Random);
        let cfg = SweepConfig {
            runs: 3,
            grid_p: vec![0.1],
            grid_q: vec![0.5],
            track_total: true,
            threads: Some(1),
            ..SweepConfig::default()
        };
        let r = GridSweep::new(exp, cfg).unwrap().execute();
        let ratio = r.cells[0].mean_received_ratio.unwrap();
        // ~78% delivery of 1.5k packets ≈ 1.17k received.
        assert!(ratio > 0.9 && ratio < 1.5, "received ratio {ratio}");
    }

    #[test]
    fn config_validation() {
        let exp = Experiment::new(builtin::rse(), 10, ExpansionRatio::R1_5, TxModel::Random);
        let bad_runs = SweepConfig {
            runs: 0,
            ..SweepConfig::default()
        };
        assert!(GridSweep::new(exp.clone(), bad_runs).is_err());
        let bad_grid = SweepConfig {
            grid_p: vec![1.5],
            ..SweepConfig::default()
        };
        assert!(GridSweep::new(exp.clone(), bad_grid).is_err());
        let empty_grid = SweepConfig {
            grid_q: vec![],
            ..SweepConfig::default()
        };
        assert!(GridSweep::new(exp, empty_grid).is_err());
    }

    #[test]
    fn a_unit_off_the_grid_runs_no_trials() {
        let exp = Experiment::new(builtin::rse(), 10, ExpansionRatio::R1_5, TxModel::Random);
        let cfg = SweepConfig {
            runs: 2,
            grid_p: vec![0.1],
            grid_q: vec![0.5],
            threads: Some(1),
            ..SweepConfig::default()
        };
        let sweep = GridSweep::new(exp, cfg).unwrap();
        let off = WorkUnit {
            unit_id: 1,
            cell_idx: 1,
            run_start: 0,
            run_len: 2,
        };
        assert_eq!(sweep.execute_units(&[off]), vec![CellAccum::new(1)]);
    }

    #[test]
    fn grand_mean_and_surface() {
        let r = tiny_sweep(builtin::ldgm_staircase(), TxModel::Random);
        let gm = r.grand_mean().unwrap();
        assert!(gm >= 1.0, "inefficiency is at least 1, got {gm}");
        for (_, _, m) in r.surface() {
            assert!(m >= 1.0);
        }
    }

    #[test]
    fn sweep_result_serializes() {
        // Float text formatting may differ in the last ulp, so compare the
        // JSON fixed point: deserialize -> serialize must be idempotent.
        let r = tiny_sweep(builtin::rse(), TxModel::Random);
        let json = serde_json::to_string(&r).unwrap();
        let back: SweepResult = serde_json::from_str(&json).unwrap();
        let json2 = serde_json::to_string(&back).unwrap();
        assert_eq!(json, json2);
        assert_eq!(back.cells.len(), r.cells.len());
        assert_eq!(back.masked_cells(), r.masked_cells());
    }
}
