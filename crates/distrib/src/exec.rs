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
