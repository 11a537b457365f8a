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
//! 3. accumulators reduce associatively in canonical unit order into the
//!    public [`CellStats`] ([`finalize_cells`]).
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
    /// The paper's configuration: 14×14 grid, 100 runs per cell.
    pub fn paper() -> SweepConfig {
        SweepConfig::default()
    }

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

    /// The `(p, q)` values of a row-major cell index (`p` outer).
    fn cell_coords(&self, cell_idx: u32) -> Option<(f64, f64)> {
        let cols = self.grid_q.len();
        if cols == 0 {
            return None;
        }
        let p = self.grid_p.get(cell_idx as usize / cols)?;
        let q = self.grid_q.get(cell_idx as usize % cols)?;
        Some((*p, *q))
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
    /// Position in the canonical enumeration (also the merge fold order).
    pub unit_id: u32,
    /// Row-major grid cell index (`p` outer, `q` inner).
    pub cell_idx: u32,
    /// First absolute run index of this slice.
    pub run_start: u32,
    /// Number of runs in this slice.
    pub run_len: u32,
}

/// Mergeable accumulator for one cell (or a run-range slice of one):
/// run/failure counts, inefficiency sum, Welford mean/M2, min/max and the
/// `n_received / k` sum.
///
/// [`CellAccum::merge`] is the parallel Welford combination (Chan et al.),
/// so partial accumulators reduce into exactly the statistics a sequential
/// pass over the same runs produces — up to float rounding, which is why
/// merging is always performed in canonical unit order (ascending
/// `unit_id`, see [`finalize_cells`]): the fold tree is then identical for
/// every partitioning and the result byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellAccum {
    /// Row-major index of the cell these runs belong to.
    pub cell_idx: u32,
    /// Trials accumulated.
    pub runs: u32,
    /// Trials where decoding never completed.
    pub failures: u32,
    /// Sum of the inefficiency ratio over successful runs.
    pub sum: f64,
    /// Welford running mean of the inefficiency over successful runs.
    pub mean: f64,
    /// Welford M2 (sum of squared deviations) over successful runs.
    pub m2: f64,
    /// Minimum inefficiency over successful runs.
    pub min: Option<f64>,
    /// Maximum inefficiency over successful runs.
    pub max: Option<f64>,
    /// Sum of `n_received / k` over all runs.
    pub received_sum: f64,
}

impl CellAccum {
    /// An empty accumulator for one cell.
    pub fn new(cell_idx: u32) -> CellAccum {
        CellAccum {
            cell_idx,
            runs: 0,
            failures: 0,
            sum: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: None,
            max: None,
            received_sum: 0.0,
        }
    }

    /// Successful trials accumulated so far.
    pub fn successes(&self) -> u32 {
        self.runs - self.failures
    }

    /// Absorbs one run's outcome (`None` inefficiency = decode failure).
    pub fn record(&mut self, inefficiency: Option<f64>, received_ratio: f64) {
        self.runs += 1;
        self.received_sum += received_ratio;
        match inefficiency {
            Some(x) => {
                self.sum += x;
                let n = self.successes() as f64;
                let delta = x - self.mean;
                self.mean += delta / n;
                self.m2 += delta * (x - self.mean);
                self.min = Some(self.min.map_or(x, |m| m.min(x)));
                self.max = Some(self.max.map_or(x, |m| m.max(x)));
            }
            None => self.failures += 1,
        }
    }

    /// Absorbs another accumulator for the same cell (`other`'s runs are
    /// treated as coming after `self`'s).
    ///
    /// # Panics
    /// Panics if the accumulators belong to different cells.
    pub fn merge(&mut self, other: &CellAccum) {
        assert_eq!(
            self.cell_idx, other.cell_idx,
            "merging accumulators of different cells"
        );
        let na = self.successes() as f64;
        let nb = other.successes() as f64;
        self.runs += other.runs;
        self.failures += other.failures;
        self.sum += other.sum;
        self.received_sum += other.received_sum;
        if nb > 0.0 {
            if na == 0.0 {
                self.mean = other.mean;
                self.m2 = other.m2;
            } else {
                let n = na + nb;
                let delta = other.mean - self.mean;
                self.mean += delta * (nb / n);
                self.m2 += other.m2 + delta * delta * (na * nb / n);
            }
        }
        self.min = merge_extreme(self.min, other.min, f64::min);
        self.max = merge_extreme(self.max, other.max, f64::max);
    }

    /// Reduces the accumulated runs into the public per-cell statistics.
    ///
    /// The mean comes from `sum / successes` and the standard deviation
    /// from the Welford M2 (numerically stable even at paper scale, where
    /// inefficiencies cluster tightly above 1.0).
    pub fn finalize(&self, p: f64, q: f64, track_total: bool) -> CellStats {
        let successes = self.successes();
        let mean_unmasked = (successes > 0).then(|| self.sum / successes as f64);
        CellStats {
            p,
            q,
            runs: self.runs,
            failures: self.failures,
            mean_inefficiency: if self.failures == 0 {
                mean_unmasked
            } else {
                None
            },
            mean_inefficiency_unmasked: mean_unmasked,
            min_inefficiency: self.min,
            max_inefficiency: self.max,
            std_inefficiency: (successes > 1).then(|| (self.m2 / (successes - 1) as f64).sqrt()),
            mean_received_ratio: (track_total && self.runs > 0)
                .then(|| self.received_sum / self.runs as f64),
        }
    }
}

fn merge_extreme(a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(pick(x, y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Reduces per-unit accumulators into the final row-major cell statistics.
///
/// `accums` must be in canonical unit order (ascending `unit_id`) and
/// cover every cell's full run count — exactly the completeness a merged
/// shard set guarantees. Keeping the fold order canonical makes the result
/// byte-identical across every partitioning and execution order.
///
/// # Panics
/// Panics if a cell's accumulated run count differs from `config.runs`
/// (an incomplete or duplicated shard set; [`StreamingMerge`] checks
/// completeness before calling).
///
/// [`StreamingMerge`]: crate::StreamingMerge
pub fn finalize_cells(config: &SweepConfig, accums: &[CellAccum]) -> Vec<CellStats> {
    let mut cells = Vec::with_capacity(config.cell_count());
    let mut it = accums.iter().peekable();
    for cell_idx in 0..config.cell_count() as u32 {
        let (p, q) = config.cell_coords(cell_idx).expect("cell on grid");
        let mut acc = CellAccum::new(cell_idx);
        while let Some(a) = it.peek() {
            if a.cell_idx != cell_idx {
                break;
            }
            acc.merge(a);
            it.next();
        }
        assert_eq!(
            acc.runs, config.runs,
            "accumulators cover {} of {} runs for cell {cell_idx}",
            acc.runs, config.runs
        );
        cells.push(acc.finalize(p, q, config.track_total));
    }
    assert!(it.next().is_none(), "accumulators past the last cell");
    cells
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
}

impl CellStats {
    /// The paper's "plot nothing here" predicate.
    pub fn is_masked(&self) -> bool {
        self.mean_inefficiency.is_none()
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
        let vals: Vec<f64> = self.surface().map(|(_, _, m)| m).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
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
            .grid_p
            .iter()
            .flat_map(|&p| config.grid_q.iter().map(move |&q| GilbertParams::new(p, q)))
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

    /// The sweep's configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// The underlying runner (its experiment is the one swept).
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// Runs the sweep across worker threads and aggregates per cell — the
    /// degenerate single-process path through the plan → execute → merge
    /// pipeline: every [`WorkUnit`] of the canonical enumeration executes
    /// locally and reduces through the same [`finalize_cells`] fold the
    /// distributed merge uses, so the output is byte-identical to any
    /// sharded execution of the same configuration.
    pub fn execute(&self) -> SweepResult {
        let units = self.config.units(DEFAULT_RUNS_PER_UNIT);
        let accums = self.execute_units(&units);
        SweepResult {
            experiment: self.runner.experiment().clone(),
            config: self.config.clone(),
            cells: finalize_cells(&self.config, &accums),
        }
    }

    /// Executes a set of work units across the configured worker threads,
    /// returning one accumulator per unit in the same order as `units`.
    pub fn execute_units(&self, units: &[WorkUnit]) -> Vec<CellAccum> {
        let threads = self
            .config
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        let mut results: Vec<Option<CellAccum>> = vec![None; units.len()];
        let (_, collected) = self.execute_streamed(units, threads, |i, accum| {
            results[i] = Some(accum);
            Ok::<(), std::convert::Infallible>(())
        });
        let Ok(()) = collected;
        results
            .into_iter()
            .map(|a| a.expect("every unit completed"))
            .collect()
    }

    /// The work-queue executor every sweep path runs on: executes `units`
    /// on `threads` workers (clamped to `1..=units.len()`; one worker means
    /// inline, on the caller's thread) and hands each accumulator to
    /// `consume` — on the caller's thread, in completion order — together
    /// with its unit's position in `units`.
    ///
    /// Results change hands by rendezvous: a worker takes its next unit
    /// only once the caller's thread has accepted its last result. So when
    /// `consume` fails, no further unit is handed out; the ones in flight
    /// (at most one per worker) finish and are discarded, and the error
    /// comes back. The first value returned is how many units were
    /// executed.
    ///
    /// Structured concurrency: workers are scoped and a panic in any of
    /// them propagates to the caller.
    pub fn execute_streamed<E>(
        &self,
        units: &[WorkUnit],
        threads: usize,
        mut consume: impl FnMut(usize, CellAccum) -> Result<(), E>,
    ) -> (usize, Result<(), E>) {
        let threads = threads.clamp(1, units.len().max(1));
        if threads == 1 {
            for (i, unit) in units.iter().enumerate() {
                if let Err(e) = consume(i, self.execute_unit(unit)) {
                    return (i + 1, Err(e));
                }
            }
            return (units.len(), Ok(()));
        }

        let next = AtomicUsize::new(0);
        let (done_tx, done_rx) = sync_channel::<(usize, CellAccum)>(0);
        let streamed = std::thread::scope(|scope| {
            for _ in 0..threads {
                let (next, done_tx) = (&next, done_tx.clone());
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(unit) = units.get(i) else { break };
                    if done_tx.send((i, self.execute_unit(unit))).is_err() {
                        break; // the consumer failed and hung up
                    }
                });
            }
            drop(done_tx);
            // `done_rx` moves into the loop, so an early return drops it
            // and every pending or later `send` fails.
            for (i, accum) in done_rx {
                consume(i, accum)?;
            }
            Ok(())
        });
        (next.into_inner().min(units.len()), streamed)
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
        let k = self.runner.experiment().k;
        let cell_seed = mix_seed(self.config.seed, &[unit.cell_idx as u64]);
        for run_idx in unit.run_start..unit.run_start + unit.run_len {
            let out = self.runner.run_with_channel(
                channel,
                cell_seed,
                run_idx as u64,
                self.config.track_total,
            );
            acc.record(out.inefficiency(k), out.received_ratio(k));
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
    fn a_failing_consumer_stops_the_queue_instead_of_draining_it() {
        let exp = Experiment::new(
            builtin::ldgm_staircase(),
            150,
            ExpansionRatio::R2_5,
            TxModel::Random,
        );
        let cfg = SweepConfig {
            runs: 4,
            grid_p: vec![0.0, 0.2],
            grid_q: vec![0.3, 0.8],
            matrix_pool: 2,
            ..SweepConfig::default()
        };
        let units = cfg.units(2);
        let sweep = GridSweep::new(exp, cfg).unwrap();
        for threads in [1, 2] {
            assert!(
                units.len() > threads + 1,
                "the queue must outlast the bound"
            );
            // The unit whose result was refused, plus at most one more per
            // thread that was already in flight — never the rest.
            let (executed, streamed) = sweep.execute_streamed(&units, threads, |_, _| Err(()));
            assert_eq!(streamed, Err(()));
            assert!(
                executed <= threads + 1,
                "{executed} of {} units ran at {threads} thread(s)",
                units.len()
            );
        }
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
        // must agree on everything except float fold order — and because
        // the fold is canonical, even the floats must agree with the
        // default execute() path only when the slicing matches. Here we
        // check statistical equality: counts exactly, floats to 1e-12.
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
        let fine_cells = finalize_cells(&cfg, &fine);
        let coarse_cells = finalize_cells(&cfg, &coarse);
        assert_eq!(fine_cells[0].runs, coarse_cells[0].runs);
        assert_eq!(fine_cells[0].failures, coarse_cells[0].failures);
        let close = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(x), Some(y)) => (x - y).abs() < 1e-12,
            (None, None) => true,
            _ => false,
        };
        assert!(close(
            fine_cells[0].mean_inefficiency,
            coarse_cells[0].mean_inefficiency
        ));
        assert!(close(
            fine_cells[0].std_inefficiency,
            coarse_cells[0].std_inefficiency
        ));
        assert!(close(
            fine_cells[0].mean_received_ratio,
            coarse_cells[0].mean_received_ratio
        ));
    }

    #[test]
    fn accum_merge_matches_sequential_record() {
        let samples = [
            (Some(1.02), 1.1),
            (None, 0.4),
            (Some(1.10), 1.2),
            (Some(1.05), 1.15),
            (None, 0.2),
            (Some(1.30), 1.4),
        ];
        let mut whole = CellAccum::new(3);
        for (inef, rr) in samples {
            whole.record(inef, rr);
        }
        for split in 0..=samples.len() {
            let mut a = CellAccum::new(3);
            let mut b = CellAccum::new(3);
            for (inef, rr) in &samples[..split] {
                a.record(*inef, *rr);
            }
            for (inef, rr) in &samples[split..] {
                b.record(*inef, *rr);
            }
            a.merge(&b);
            assert_eq!(a.runs, whole.runs);
            assert_eq!(a.failures, whole.failures);
            assert!((a.sum - whole.sum).abs() < 1e-12);
            assert!((a.mean - whole.mean).abs() < 1e-12);
            assert!((a.m2 - whole.m2).abs() < 1e-12);
            assert_eq!(a.min, whole.min);
            assert_eq!(a.max, whole.max);
            assert!((a.received_sum - whole.received_sum).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "different cells")]
    fn accum_merge_rejects_cell_mismatch() {
        let mut a = CellAccum::new(0);
        a.merge(&CellAccum::new(1));
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
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert_eq!(
            json,
            "{\"p\":0.5,\"q\":0.25,\"runs\":4,\"failures\":1,\
             \"mean_inefficiency\":null,\"mean_inefficiency_unmasked\":1.5,\
             \"min_inefficiency\":1.25,\"max_inefficiency\":1.75,\
             \"std_inefficiency\":0.25,\"mean_received_ratio\":null}"
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
