//! Golden bytes for two serialised outputs. The sweep documents' runs
//! were recorded at 66b505f — before the LDGM peeling cascade, the batched
//! walk and the work-queue executor each became the only copy of their
//! loop — and every inefficiency figure and `recommend` table in the tree
//! is one of them at a larger scale. They were re-pinned once, when each
//! cell gained its law of `n_necessary` and its statistics came to be
//! read off that law's exact integer moments: every earlier field kept
//! its value to within 2.3e-16. The closed-loop reports are the live
//! engine's in the in-process world, as `fec-broadcast adapt` runs it: one
//! that never lingers and one that does. "Same bytes" here is the
//! statement that a refactor moved no number.
//!
//! The files under `tests/golden/` are compared byte for byte; they are
//! never regenerated by the suite.

use fec_broadcast::adapt::Decision;
use fec_broadcast::codec::{builtin, CodecHandle};
use fec_broadcast::live::SendConfig;
use fec_broadcast::sched::TxModel;
use fec_broadcast::sim::{ExpansionRatio, Experiment, GridSweep, SweepConfig};
use fec_broadcast::world::Workload;

/// One small fixed-seed grid sweep, two worker threads (so the pooled
/// executor, not the serial branch, produces the accumulators). With
/// `track_total` the whole schedule is consumed (so `n_received` is pinned
/// too); without it each run stops at decode completion or, when the
/// channel leaves fewer than k survivors, before decoding anything.
fn sweep_bytes(code: CodecHandle, tx: TxModel, track_total: bool) -> String {
    let experiment = Experiment::new(code, 240, ExpansionRatio::R2_5, tx);
    let config = SweepConfig {
        runs: 7,
        grid_p: vec![0.0, 0.05, 0.3],
        grid_q: vec![0.2, 0.7],
        seed: 0x601D,
        matrix_pool: 3,
        track_total,
        threads: Some(2),
    };
    let result = GridSweep::new(experiment, config)
        .expect("valid sweep")
        .execute();
    serde_json::to_string_pretty(&result).expect("serialisable") + "\n"
}

#[test]
fn ldgm_staircase_tx4_sweep_keeps_its_bytes() {
    assert_eq!(
        sweep_bytes(builtin::ldgm_staircase(), TxModel::Random, true),
        include_str!("golden/sweep_ldgm_staircase_tx4.json")
    );
}

#[test]
fn ldgm_triangle_tx4_sweep_keeps_its_bytes() {
    assert_eq!(
        sweep_bytes(builtin::ldgm_triangle(), TxModel::Random, true),
        include_str!("golden/sweep_ldgm_triangle_tx4.json")
    );
}

#[test]
fn rse_tx5_sweep_keeps_its_bytes() {
    assert_eq!(
        sweep_bytes(builtin::rse(), TxModel::Interleaved, true),
        include_str!("golden/sweep_rse_tx5.json")
    );
}

/// The sweep's default walk (`track_total: false`): early exit at
/// completion and the short-run gate.
#[test]
fn ldgm_triangle_tx4_early_exit_sweep_keeps_its_bytes() {
    assert_eq!(
        sweep_bytes(builtin::ldgm_triangle(), TxModel::Random, false),
        include_str!("golden/sweep_ldgm_triangle_tx4_early_exit.json")
    );
}

/// The world's adaptive session over `workload`'s drifting channel,
/// serialised.
fn adaptive_report_bytes(workload: Workload) -> String {
    let config = SendConfig {
        window: 2_000,
        ..SendConfig::default()
    };
    let (report, _) = workload
        .run(&Decision::prior(), Some(&config))
        .expect("the session runs");
    serde_json::to_string_pretty(&report).expect("serialisable") + "\n"
}

/// The closed loop on the engine: the world's adaptive session over a
/// drifting channel, one object redeployed after another as the
/// controller decides. The report pins each object's tuple, the estimate
/// it came due under, how much of it went out and what it took to decode
/// — and no wall-clock figure.
#[test]
fn adaptive_loop_report_keeps_its_bytes() {
    assert_eq!(
        adaptive_report_bytes(Workload::drifting(200, 14, 0x601D_AD47)),
        include_str!("golden/adaptive_loop_report.json")
    );
}

/// A session whose planned emission runs dry before its last object
/// decodes: the sender lingers for digests in flight, then judges the
/// plan. Recorded while the linger still ran on a wall-clock deadline;
/// counted in quiet polls, it moves no number.
#[test]
fn adaptive_linger_report_keeps_its_bytes() {
    assert_eq!(
        adaptive_report_bytes(Workload::drifting(400, 20, 0xAD47)),
        include_str!("golden/adaptive_linger_report.json")
    );
}
