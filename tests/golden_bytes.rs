//! Golden bytes for the simulator's two serialised outputs, recorded at
//! 66b505f — before the LDGM peeling cascade, the batched walk and the
//! work-queue executor each became the only copy of their loop. Every
//! inefficiency figure, `recommend` table and closed-loop report in the
//! tree is one of these two documents at a larger scale, so "same bytes"
//! here is the statement that the refactor moved no number.
//!
//! The files under `tests/golden/` are compared byte for byte; they are
//! never regenerated by the suite.

use fec_broadcast::adapt::{AdaptiveRunner, ControllerConfig, Scenario};
use fec_broadcast::codec::{builtin, CodecHandle};
use fec_broadcast::sched::TxModel;
use fec_broadcast::sim::{ExpansionRatio, Experiment, GridSweep, SweepConfig};

/// One small fixed-seed grid sweep, two worker threads (so the pooled
/// executor, not the serial branch, produces the accumulators), whole
/// schedule consumed (so `n_received` is pinned too).
fn sweep_bytes(code: CodecHandle, tx: TxModel) -> String {
    let experiment = Experiment::new(code, 240, ExpansionRatio::R2_5, tx);
    let config = SweepConfig {
        runs: 7,
        grid_p: vec![0.0, 0.05, 0.3],
        grid_q: vec![0.2, 0.7],
        seed: 0x601D,
        matrix_pool: 3,
        track_total: true,
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
        sweep_bytes(builtin::ldgm_staircase(), TxModel::Random),
        include_str!("golden/sweep_ldgm_staircase_tx4.json")
    );
}

#[test]
fn ldgm_triangle_tx4_sweep_keeps_its_bytes() {
    assert_eq!(
        sweep_bytes(builtin::ldgm_triangle(), TxModel::Random),
        include_str!("golden/sweep_ldgm_triangle_tx4.json")
    );
}

#[test]
fn rse_tx5_sweep_keeps_its_bytes() {
    assert_eq!(
        sweep_bytes(builtin::rse(), TxModel::Interleaved),
        include_str!("golden/sweep_rse_tx5.json")
    );
}

/// The external-`LossModel` path: `AdaptiveRunner` drives one drifting
/// channel through `Runner::run_observed` epoch after epoch, with plan
/// truncation, so the report pins how far every run advances the shared
/// loss process as well as what it decodes.
#[test]
fn adaptive_loop_report_keeps_its_bytes() {
    let scenario = Scenario::regime_switching(200, 14, 0x601D_AD47);
    let config = ControllerConfig {
        window: 2_000,
        min_observations: 400,
        ..ControllerConfig::default()
    };
    let report = AdaptiveRunner::new(scenario, config).run();
    assert_eq!(
        serde_json::to_string_pretty(&report).expect("serialisable") + "\n",
        include_str!("golden/adaptive_loop_report.json")
    );
}
