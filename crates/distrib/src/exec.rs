//! In-process execution of a plan (or a shard of one).

use fec_sim::SweepResult;

use crate::{from_partials, DistribError, PartialSweep, ShardSpec, SweepPlan, UnitResult};

/// Executes one shard of a plan in this process (across the plan's
/// configured worker threads) and returns its partial result.
pub fn run_shard(plan: &SweepPlan, shard: &ShardSpec) -> Result<PartialSweep, DistribError> {
    let sweep = plan.prepare()?;
    let units = shard.select(&plan.units())?;
    let accums = sweep.execute_units(&units);
    Ok(PartialSweep {
        fingerprint: plan.fingerprint(),
        units: units
            .iter()
            .zip(accums)
            .map(|(u, accum)| UnitResult {
                unit_id: u.unit_id,
                accum,
            })
            .collect(),
    })
}

/// The whole pipeline in one process: plan → execute every unit → merge.
///
/// This honours `plan.runs_per_unit` (unlike `GridSweep::execute`, which
/// always uses the default slicing), so it is the entry point for callers
/// that need results byte-identical to a sharded execution of the same
/// plan — the benches route through here.
pub fn execute_plan(plan: &SweepPlan) -> Result<SweepResult, DistribError> {
    let partial = run_shard(plan, &ShardSpec::all())?;
    from_partials(plan, &[partial])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;
    use fec_sim::{ExpansionRatio, Experiment, GridSweep, SweepConfig};

    #[test]
    fn default_slicing_matches_the_plain_grid_sweep() {
        let experiment = Experiment::new(
            builtin::ldgm_staircase(),
            150,
            ExpansionRatio::R2_5,
            fec_sched::TxModel::Random,
        );
        let config = SweepConfig {
            runs: 4,
            grid_p: vec![0.0, 0.2],
            grid_q: vec![0.3, 0.8],
            matrix_pool: 2,
            threads: Some(2),
            ..SweepConfig::default()
        };
        let plan = SweepPlan::new(experiment.clone(), config.clone()).unwrap();
        let via_gridsweep = GridSweep::new(experiment, config).unwrap().execute();
        assert_eq!(
            serde_json::to_string(&execute_plan(&plan).unwrap()).unwrap(),
            serde_json::to_string(&via_gridsweep).unwrap()
        );
    }
}
