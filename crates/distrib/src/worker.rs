//! The worker half of the subprocess protocol.
//!
//! A worker reads one [`SweepPlan`] JSON document on stdin, executes its
//! shard's units, and streams one single-unit [`PartialSweep`] JSON line
//! per completed unit on stdout (flushed per line, so a coordinator sees
//! progress and a killed worker loses only its in-flight unit).

use std::io::{Read, Write};

use crate::{DistribError, PartialSweep, ShardSpec, SweepPlan, UnitResult};

/// Runs the worker protocol over arbitrary byte streams (the CLI's
/// `sweep-worker` subcommand passes stdin/stdout; tests pass buffers).
///
/// `threads` sets how many executor threads this worker runs its units
/// on, without touching the plan (a coordinator dividing one host's
/// cores among several workers passes `--threads`); `None` falls back to
/// the plan's `config.threads`, and that to 1. With more than one thread
/// the partial lines stream in completion order — each line is a
/// self-describing single-unit [`PartialSweep`], so the merge does not
/// care. A failed write ends the run with that error after at most the
/// units already in flight.
pub fn run_worker(
    input: &mut dyn Read,
    output: &mut dyn Write,
    shard: &ShardSpec,
    threads: Option<usize>,
) -> Result<(), DistribError> {
    let mut doc = String::new();
    input.read_to_string(&mut doc).map_err(DistribError::from)?;
    let plan = SweepPlan::from_json(&doc)?;
    let sweep = plan.prepare()?;
    let fingerprint = plan.fingerprint();
    let units = shard.select(&plan.units())?;
    let threads = threads.or(plan.config.threads).unwrap_or(1);

    let emit = |i: usize, accum| -> Result<(), DistribError> {
        let line = serde_json::to_string(&PartialSweep {
            fingerprint,
            units: vec![UnitResult {
                unit_id: units[i].unit_id,
                accum,
            }],
        })
        .map_err(|e| DistribError::Protocol {
            detail: format!("partial does not serialize: {e}"),
        })?;
        writeln!(output, "{line}").map_err(DistribError::from)?;
        output.flush().map_err(DistribError::from)
    };
    let (_executed, streamed) = sweep.execute_streamed(&units, threads, emit);
    streamed
}

/// Parses one worker stdout line into a [`PartialSweep`].
pub fn parse_partial_line(line: &str) -> Result<PartialSweep, DistribError> {
    serde_json::from_str(line.trim()).map_err(|e| DistribError::Protocol {
        detail: format!("malformed partial line: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_partials;
    use fec_codec::builtin;
    use fec_sim::{ExpansionRatio, Experiment, GridSweep, SweepConfig};

    fn plan() -> SweepPlan {
        SweepPlan::new(
            Experiment::new(
                builtin::ldgm_staircase(),
                150,
                ExpansionRatio::R2_5,
                fec_sched::TxModel::Random,
            ),
            SweepConfig {
                runs: 4,
                grid_p: vec![0.0, 0.2],
                grid_q: vec![0.3, 0.8],
                seed: 9,
                matrix_pool: 2,
                track_total: true,
                threads: Some(1),
            },
        )
        .unwrap()
        .with_runs_per_unit(2)
    }

    #[test]
    fn worker_streams_match_in_process_execution() {
        let plan = plan();
        let doc = plan.to_json().unwrap();
        let mut partials = Vec::new();
        for index in 0..3u32 {
            let mut out = Vec::new();
            run_worker(
                &mut doc.as_bytes(),
                &mut out,
                &ShardSpec::RoundRobin { index, count: 3 },
                Some(2),
            )
            .unwrap();
            for line in String::from_utf8(out).unwrap().lines() {
                partials.push(parse_partial_line(line).unwrap());
            }
        }
        let merged = from_partials(&plan, &partials).unwrap();
        let direct = crate::execute_plan(&plan).unwrap();
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "sharded workers must reproduce the in-process sweep byte for byte"
        );
        // And the plan path agrees with the plain GridSweep when the
        // slicing is canonical.
        let default_plan = SweepPlan::new(plan.experiment.clone(), plan.config.clone()).unwrap();
        let via_gridsweep = GridSweep::new(plan.experiment.clone(), plan.config.clone())
            .unwrap()
            .execute();
        assert_eq!(
            serde_json::to_string(&crate::execute_plan(&default_plan).unwrap()).unwrap(),
            serde_json::to_string(&via_gridsweep).unwrap()
        );
    }

    /// A stdout whose reader went away.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_stdout_stops_the_shard_instead_of_finishing_it() {
        let plan = plan();
        let doc = plan.to_json().unwrap();
        let units = plan.units();
        for threads in [1, 2] {
            assert!(
                units.len() > threads + 1,
                "the shard must outlast the bound"
            );
            let err = run_worker(
                &mut doc.as_bytes(),
                &mut BrokenPipe,
                &ShardSpec::all(),
                Some(threads),
            )
            .unwrap_err();
            assert!(matches!(err, DistribError::Io { .. }), "{err}");
            // The same refusal handed straight to the executor `run_worker`
            // streams through, which reports how much it ran: the unit
            // whose line failed, plus at most one more per thread that was
            // already in flight — never the rest of the shard.
            let (executed, streamed) =
                plan.prepare()
                    .unwrap()
                    .execute_streamed(&units, threads, |_, _| Err(()));
            assert_eq!(streamed, Err(()));
            assert!(
                executed <= threads + 1,
                "{executed} of {} units ran at {threads} thread(s)",
                units.len()
            );
        }
    }

    #[test]
    fn worker_rejects_garbage() {
        let mut out = Vec::new();
        assert!(run_worker(
            &mut "not a plan".as_bytes(),
            &mut out,
            &ShardSpec::all(),
            None
        )
        .is_err());
        assert!(parse_partial_line("{oops").is_err());
    }
}
