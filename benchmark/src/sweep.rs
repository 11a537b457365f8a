//! `sweep_grid`: the paper's own index-only Monte-Carlo. No bytes move;
//! `fec-sim` walks `fec-sched` schedules through `fec-channel` into the
//! structural decoders, on one worker thread.

use std::time::Instant;

use fec_broadcast::channel::grid::GridKind;
use fec_broadcast::channel::{GilbertChannel, GilbertParams, LossModel};
use fec_broadcast::codec::{builtin, CodecHandle};
use fec_broadcast::core::ExpansionRatio;
use fec_broadcast::sched::TxModel;
use fec_broadcast::sim::{Experiment, GridSweep, SweepConfig, SweepResult};

use crate::trace::{Tracer, ROUND};
use crate::work::{bump, sub_seed, Scale, Segment, Workload, TAG_SCHED, TAG_SWEEP};

const K: usize = 5000;
const RATIO: ExpansionRatio = ExpansionRatio::R2_5;

/// Rounds per requested second of run time. A round sweeps the grid once
/// under each configuration, so that rounds are alike and a run can be
/// cut into comparable slices.
const ROUNDS_PER_SECOND: f64 = 1.0;

/// Trials per grid cell, configuration and round: 8 rounds x 15 = the
/// 120 trials per cell of a full run, 23 040 trials over the three grids.
const RUNS_PER_CELL: u32 = 15;
const RUNS_PER_CELL_CHECK: u32 = 2;

/// Schedules (and channel walks of the same length) the traced run's
/// shadow probe times per configuration.
const PROBE_TRIALS: u64 = 32;

struct Config {
    /// This configuration's `sim.trial_us.*` metric.
    trial_metric: &'static str,
    code: fn() -> CodecHandle,
    tx: TxModel,
}

/// The code/schedule pairs the paper recommends (§6): both LDGM variants
/// under Tx_model_4, RSE under the interleaving it requires.
const CONFIGS: [Config; 3] = [
    Config {
        trial_metric: "sim.trial_us.ldgm_triangle",
        code: builtin::ldgm_triangle,
        tx: TxModel::Random,
    },
    Config {
        trial_metric: "sim.trial_us.ldgm_staircase",
        code: builtin::ldgm_staircase,
        tx: TxModel::Random,
    },
    Config {
        trial_metric: "sim.trial_us.rse",
        code: builtin::rse,
        tx: TxModel::Interleaved,
    },
];

pub struct SweepGrid {
    seed: u64,
    scale: Scale,
    /// The round of a traced segment that also runs the shadow probe.
    probe_round: u64,
    /// `execute()` time in ns and trials per configuration, over the
    /// segment being run.
    executed: [(u64, u64); CONFIGS.len()],
}

fn prepare(config: &Config, runs: u32, seed: u64) -> Result<GridSweep, String> {
    let grid = GridKind::Coarse.to_vec();
    GridSweep::new(
        Experiment::new((config.code)(), K, RATIO, config.tx),
        SweepConfig {
            runs,
            grid_p: grid.clone(),
            grid_q: grid,
            seed,
            threads: Some(1),
            ..SweepConfig::default()
        },
    )
    .map_err(|e| format!("GridSweep::new failed: {e}"))
}

impl SweepGrid {
    pub fn setup(seed: u64, scale: Scale) -> Result<SweepGrid, String> {
        // Warm-up: every configuration prepared and swept once at one
        // trial per cell.
        for (i, config) in CONFIGS.iter().enumerate() {
            let sweep = prepare(config, 1, sub_seed(seed, TAG_SWEEP, &[u64::MAX, i as u64]))?;
            std::hint::black_box(sweep.execute());
        }
        Ok(SweepGrid {
            seed,
            scale,
            probe_round: 0,
            executed: [(0, 0); CONFIGS.len()],
        })
    }

    fn runs_per_cell(&self) -> u32 {
        if self.scale.check {
            RUNS_PER_CELL_CHECK
        } else {
            RUNS_PER_CELL
        }
    }
}

/// Counts trials whose cell breaks an invariant of the simulation. A
/// trial that does not decode is a result, not a failure: at the lossy
/// end of the grid no code can decode, and the paper masks those cells.
fn check_cells(result: &SweepResult, runs: u32, seg: &mut Segment) -> u64 {
    let ratio = RATIO.as_f64();
    let mut bad_trials = 0u64;
    if result.cells.len() != result.config.cell_count() {
        seg.violation(format!(
            "sweep returned {} cells for a {}-cell grid",
            result.cells.len(),
            result.config.cell_count()
        ));
    }
    for cell in &result.cells {
        let perfect_channel_failed = cell.p == 0.0 && cell.failures > 0;
        let out_of_range = cell.min_inefficiency.is_some_and(|m| m < 1.0)
            || cell.max_inefficiency.is_some_and(|m| m > ratio);
        if cell.runs != runs || cell.failures > cell.runs || perfect_channel_failed || out_of_range
        {
            seg.violation(format!(
                "cell (p={}, q={}) breaks an invariant: {cell:?}",
                cell.p, cell.q
            ));
            bad_trials += u64::from(cell.runs);
        }
    }
    bad_trials
}

impl SweepGrid {
    /// One round: the grid swept once under each configuration. Only the
    /// `execute()` calls are timed; preparing a sweep is `sim.setup_s`.
    fn round(&mut self, round: u64, tracer: &mut Tracer, seg: &mut Segment) {
        let object = round as u32;
        let runs = self.runs_per_cell();
        let mut round_ns = 0u64;
        for (i, config) in CONFIGS.iter().enumerate() {
            let span = tracer.begin("sim.setup", object);
            let prepared = Instant::now();
            let sweep = prepare(
                config,
                runs,
                sub_seed(self.seed, TAG_SWEEP, &[round, i as u64]),
            );
            bump(
                &mut seg.counts,
                "sim.setup_s",
                prepared.elapsed().as_secs_f64(),
            );
            tracer.end(span);
            let sweep = match sweep {
                Ok(sweep) => sweep,
                Err(e) => {
                    seg.violation(e);
                    continue;
                }
            };

            let started = Instant::now();
            let root = tracer.begin(ROUND, object);
            let span = tracer.begin("sim.exec", object);
            let result = sweep.execute();
            tracer.end(span);
            tracer.end(root);
            let elapsed = started.elapsed();
            round_ns += elapsed.as_nanos() as u64;

            let trials = result.cells.iter().map(|c| u64::from(c.runs)).sum::<u64>();
            seg.attempted += trials;
            let bad_trials = check_cells(&result, runs, seg);
            seg.failed += bad_trials;
            match result.grand_mean() {
                Some(mean) => {
                    seg.consumed += mean;
                    seg.needed += 1.0;
                }
                None => seg.violation(format!("{}: every cell masked", config.trial_metric)),
            }
            let undecoded: u64 = result.cells.iter().map(|c| u64::from(c.failures)).sum();
            bump(&mut seg.counts, "sim.undecoded", undecoded as f64);
            bump(
                &mut seg.counts,
                "sim.masked_cells",
                result.masked_cells() as f64,
            );
            self.executed[i].0 += elapsed.as_nanos() as u64;
            self.executed[i].1 += trials;

            if tracer.is_enabled() && round == self.probe_round {
                probe_trial_parts(&sweep, self.seed, object, tracer, seg);
            }
        }
        seg.wall_ns += round_ns;
        seg.round_ms.push(round_ns as f64 / 1e6);
    }
}

impl Workload for SweepGrid {
    fn run(&mut self, divisor: u32, first_round: u64, tracer: &mut Tracer) -> Segment {
        let mut seg = Segment::default();
        self.probe_round = first_round;
        self.executed = [(0, 0); CONFIGS.len()];
        for round in first_round..first_round + self.rounds(divisor) {
            self.round(round, tracer, &mut seg);
        }
        for (config, (ns, trials)) in CONFIGS.iter().zip(self.executed) {
            if trials > 0 {
                seg.counts
                    .insert(config.trial_metric, ns as f64 / 1e3 / trials as f64);
            }
        }
        seg
    }

    fn rounds(&self, divisor: u32) -> u64 {
        self.scale.count(ROUNDS_PER_SECOND, divisor)
    }

    fn spans_per_round(&self) -> usize {
        CONFIGS.len() * 5
    }
}

/// Shadow probe splitting a trial: generates [`PROBE_TRIALS`] schedules
/// with `TxModel::schedule` and draws as many channel fates with
/// `GilbertChannel`, the two public calls a trial makes before it
/// decodes. What is left of `sim.trial_us.*` is the structural decoder.
fn probe_trial_parts(
    sweep: &GridSweep,
    seed: u64,
    object: u32,
    tracer: &mut Tracer,
    seg: &mut Segment,
) {
    let runner = sweep.runner();
    let tx = runner.experiment().tx;
    let mut refs = 0u64;
    let span = tracer.begin_shadow("sched.schedule", object);
    for t in 0..PROBE_TRIALS {
        let schedule = tx.schedule(runner.layout(), sub_seed(seed, TAG_SCHED, &[t]));
        refs += std::hint::black_box(schedule).len() as u64;
    }
    tracer.end(span);
    bump(&mut seg.counts, "sched.refs", refs as f64);
    bump(&mut seg.counts, "sched.probe_trials", PROBE_TRIALS as f64);

    // The mid-grid cell: both transitions are exercised.
    let Ok(params) = GilbertParams::new(0.2, 0.4) else {
        return;
    };
    let mut channel = GilbertChannel::new(params, seed);
    let mut lost = 0u64;
    let span = tracer.begin_shadow("channel.gate", object);
    for _ in 0..refs {
        lost += u64::from(channel.next_is_lost());
    }
    tracer.end(span);
    bump(&mut seg.counts, "channel.draws", refs as f64);
    bump(&mut seg.counts, "channel.lost", lost as f64);
}
