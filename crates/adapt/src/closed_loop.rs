//! Closed-loop simulation: estimator + controller against a drifting
//! channel, with static baselines for comparison.
//!
//! Each *epoch* transmits one `k`-packet object through a shared
//! [`DriftingChannel`] that never resets — exactly the situation of a
//! long-lived broadcast server whose network weather changes. The loop
//! drives the controller exactly as the live feedback loop does: before
//! each epoch one `replan` reconsiders the (code, tx, ratio) tuple from
//! loss feedback alone and plans the object; after the epoch
//! `observe_runs` ingests the reception report and `record_outcome` the
//! decode result. The same harness runs **static** senders (one fixed
//! tuple, full `n` transmission) over the identical channel law, giving
//! the two baselines the paper's methodology suggests:
//!
//! * the **static oracle** — the best single tuple in hindsight (min
//!   penalized mean inefficiency over the whole scenario);
//! * the **static worst case** — the worst such tuple, i.e. what an
//!   operator who guessed wrong and never adapted would have shipped.
//!
//! A useful adaptive controller must land below the worst case and within
//! a modest margin of the oracle, while also *sending* less (equation 3
//! plans truncate the schedule; static senders without channel knowledge
//! cannot).

use std::collections::HashMap;

use fec_channel::{DriftingChannel, GilbertParams, Regime};
use fec_sim::{mix_seed, Experiment, RunResult, Runner};
use serde::{Deserialize, Serialize};

use crate::controller::{AdaptiveController, ControllerConfig, Decision, Reconsideration};

/// LDGM matrix pool per runner.
const MATRIX_POOL: usize = 2;

/// A closed-loop workload: object size, epoch count and the channel's
/// regime schedule.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Source packets per object.
    pub k: usize,
    /// Objects transmitted.
    pub epochs: u32,
    /// The drifting channel's regime schedule (cycled).
    pub regimes: Vec<Regime>,
    /// Master seed; the channel path and every schedule derive from it.
    pub seed: u64,
}

impl Scenario {
    /// A regime-switching reference scenario: calm → congested-bursty →
    /// moderate, cycling.
    ///
    /// Spans are chosen so each regime outlives the estimation lag by a
    /// comfortable factor — the fundamental trackability requirement of
    /// any feedback loop: drift faster than roughly one estimation window
    /// per regime is indistinguishable from noise, and *no* online
    /// controller can follow it (it can only fall back to the
    /// conservative prior). At `k * 20` packets per regime, a controller
    /// with a window of a few thousand packets sees each regime for many
    /// consecutive objects.
    pub fn regime_switching(k: usize, epochs: u32, seed: u64) -> Scenario {
        let span = (k as u64 * 20).max(8_000);
        Scenario {
            k,
            epochs,
            regimes: vec![
                Regime::new(GilbertParams::new(0.01, 0.8).expect("valid"), span), // ~1.2%
                Regime::new(GilbertParams::new(0.15, 0.25).expect("valid"), span), // 37.5%, bursty
                Regime::new(GilbertParams::new(0.06, 0.5).expect("valid"), span), // ~10.7%
            ],
            seed,
        }
    }

    /// The channel this scenario drives, freshly seeded.
    pub fn channel(&self) -> DriftingChannel {
        DriftingChannel::cycling(self.regimes.clone(), mix_seed(self.seed, &[0xC4A7]))
    }
}

/// One epoch's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// Epoch index.
    pub epoch: u32,
    /// The tuple deployed this epoch.
    pub decision: Decision,
    /// True channel parameters when the epoch started (ground truth the
    /// controller never sees).
    pub true_p: f64,
    /// True `q` at epoch start.
    pub true_q: f64,
    /// The controller's conservative loss bound, if it had an estimate.
    pub estimated_loss_bound: Option<f64>,
    /// Planned `n_sent`, `None` when the full schedule was sent.
    pub planned_n_sent: Option<u64>,
    /// Whether the controller switched tuples entering this epoch.
    pub switched: bool,
    /// Whether the object decoded.
    pub decoded: bool,
    /// Packets received when decoding completed.
    pub n_necessary: Option<u64>,
    /// Packets transmitted.
    pub n_sent: u64,
    /// Packets delivered by the channel.
    pub n_received: u64,
}

impl EpochOutcome {
    /// The epoch's inefficiency ratio, `None` on decode failure.
    pub fn inefficiency(&self, k: usize) -> Option<f64> {
        self.n_necessary.map(|n| n as f64 / k as f64)
    }

    /// Inefficiency with failures charged at the tuple's full expansion
    /// ratio — the honest cost floor of a failed feedback-free
    /// transmission (everything was sent, nothing was delivered usefully).
    pub fn penalized_inefficiency(&self, k: usize) -> f64 {
        self.inefficiency(k)
            .unwrap_or_else(|| self.decision.ratio_value())
    }

    fn from_run(
        epoch: u32,
        decision: Decision,
        true_params: GilbertParams,
        estimated_loss_bound: Option<f64>,
        planned_n_sent: Option<u64>,
        switched: bool,
        result: RunResult,
    ) -> EpochOutcome {
        EpochOutcome {
            epoch,
            decision,
            true_p: true_params.p(),
            true_q: true_params.q(),
            estimated_loss_bound,
            planned_n_sent,
            switched,
            decoded: result.decoded,
            n_necessary: result.n_necessary,
            n_sent: result.n_sent,
            n_received: result.n_received,
        }
    }
}

/// Aggregate of one closed-loop (or static) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopReport {
    /// Object size the epochs transmitted.
    pub k: usize,
    /// Per-epoch outcomes.
    pub epochs: Vec<EpochOutcome>,
    /// Tuple switches performed (0 for static runs).
    pub switches: u64,
}

impl LoopReport {
    /// Epochs whose object never decoded.
    pub fn failures(&self) -> u32 {
        self.epochs.iter().filter(|e| !e.decoded).count() as u32
    }

    /// Mean inefficiency over *successful* epochs, `None` if none
    /// succeeded.
    pub fn mean_inefficiency(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .epochs
            .iter()
            .filter_map(|e| e.inefficiency(self.k))
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Mean inefficiency with failures charged at the epoch tuple's
    /// expansion ratio — the headline comparison metric (lower is better,
    /// 1.0 is perfect).
    pub fn penalized_mean_inefficiency(&self) -> f64 {
        if self.epochs.is_empty() {
            return f64::NAN;
        }
        self.epochs
            .iter()
            .map(|e| e.penalized_inefficiency(self.k))
            .sum::<f64>()
            / self.epochs.len() as f64
    }

    /// Total packets put on the wire across all epochs.
    pub fn total_sent(&self) -> u64 {
        self.epochs.iter().map(|e| e.n_sent).sum()
    }

    /// Mean transmitted-packets-per-source-packet (the sender-side
    /// bandwidth cost; equals the expansion ratio for full static sends).
    pub fn mean_sent_ratio(&self) -> f64 {
        self.total_sent() as f64 / (self.k as f64 * self.epochs.len() as f64)
    }
}

/// The closed-loop executor.
pub struct AdaptiveRunner {
    scenario: Scenario,
    config: ControllerConfig,
    plan_truncation: bool,
}

impl AdaptiveRunner {
    /// Builds a runner; planning (schedule truncation per equation 3) is
    /// on by default.
    pub fn new(scenario: Scenario, config: ControllerConfig) -> AdaptiveRunner {
        AdaptiveRunner {
            scenario,
            config,
            plan_truncation: true,
        }
    }

    /// Disables plan truncation (every epoch sends all `n` packets); the
    /// adaptive gain then comes from tuple selection alone.
    pub fn without_plan_truncation(mut self) -> AdaptiveRunner {
        self.plan_truncation = false;
        self
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn runner_for<'c>(
        cache: &'c mut HashMap<String, Runner>,
        scenario: &Scenario,
        decision: &Decision,
    ) -> &'c Runner {
        let key = format!("{decision:?}");
        cache.entry(key).or_insert_with(|| {
            let exp = Experiment::new(
                decision.code.clone(),
                scenario.k,
                decision.ratio,
                decision.tx,
            );
            Runner::new(exp, MATRIX_POOL).expect("scenario decisions are valid")
        })
    }

    /// Runs the adaptive closed loop.
    pub fn run(&self) -> LoopReport {
        let scenario = &self.scenario;
        let mut channel = scenario.channel();
        let mut controller = AdaptiveController::new(self.config.clone());
        let mut cache: HashMap<String, Runner> = HashMap::new();
        let mut epochs = Vec::with_capacity(scenario.epochs as usize);

        for epoch in 0..scenario.epochs {
            let true_params = channel.current();
            let replan = controller.replan(scenario.k);
            let bound = controller.estimate().map(|e| e.p_global_upper());
            let planned_n_sent = replan
                .plan
                .filter(|_| self.plan_truncation)
                .map(|p| p.n_sent);

            let runner = Self::runner_for(&mut cache, scenario, &replan.decision);
            let (result, observed) =
                runner.run_observed(&mut channel, scenario.seed, epoch as u64, planned_n_sent);
            controller.observe_runs(observed.iter().map(|&lost| (lost, 1)));
            controller.record_outcome(result.decoded);

            epochs.push(EpochOutcome::from_run(
                epoch,
                replan.decision,
                true_params,
                bound,
                planned_n_sent,
                replan.reconsideration == Reconsideration::Switched,
                result,
            ));
        }
        LoopReport {
            k: scenario.k,
            epochs,
            switches: controller.switches(),
        }
    }

    /// Runs one fixed tuple over the identical channel law (fresh channel
    /// instance, same seed): the static baseline.
    pub fn run_static(&self, decision: &Decision) -> LoopReport {
        let scenario = &self.scenario;
        let mut channel = scenario.channel();
        let mut cache: HashMap<String, Runner> = HashMap::new();
        let mut epochs = Vec::with_capacity(scenario.epochs as usize);
        for epoch in 0..scenario.epochs {
            let true_params = channel.current();
            let runner = Self::runner_for(&mut cache, scenario, decision);
            let (result, _) = runner.run_observed(&mut channel, scenario.seed, epoch as u64, None);
            epochs.push(EpochOutcome::from_run(
                epoch,
                decision.clone(),
                true_params,
                None,
                None,
                false,
                result,
            ));
        }
        LoopReport {
            k: scenario.k,
            epochs,
            switches: 0,
        }
    }

    /// The static candidate set: every tuple the §6.1 recommender can
    /// emit, i.e. what a non-adaptive operator would plausibly deploy.
    pub fn static_candidates() -> Vec<Decision> {
        use fec_codec::builtin;
        use fec_sched::TxModel;
        use fec_sim::ExpansionRatio;
        vec![
            Decision {
                code: builtin::ldgm_staircase(),
                tx: TxModel::SourceSeqParityRandom,
                ratio: ExpansionRatio::R1_5,
            },
            Decision {
                code: builtin::ldgm_staircase(),
                tx: TxModel::SourceSeqParityRandom,
                ratio: ExpansionRatio::R2_5,
            },
            Decision {
                code: builtin::ldgm_triangle(),
                tx: TxModel::Random,
                ratio: ExpansionRatio::R1_5,
            },
            Decision {
                code: builtin::ldgm_triangle(),
                tx: TxModel::Random,
                ratio: ExpansionRatio::R2_5,
            },
            Decision {
                code: builtin::ldgm_staircase(),
                tx: TxModel::tx6_paper(),
                ratio: ExpansionRatio::R2_5,
            },
            Decision {
                code: builtin::rse(),
                tx: TxModel::Interleaved,
                ratio: ExpansionRatio::R2_5,
            },
        ]
    }

    /// Evaluates every static candidate over the scenario.
    pub fn evaluate_static_candidates(&self) -> Vec<(Decision, LoopReport)> {
        Self::static_candidates()
            .into_iter()
            .map(|d| {
                let report = self.run_static(&d);
                (d, report)
            })
            .collect()
    }

    /// Full comparison: the adaptive loop against the best and worst
    /// static tuples in hindsight.
    pub fn compare(&self) -> Comparison {
        let adaptive = self.run();
        let mut statics = self.evaluate_static_candidates();
        statics.sort_by(|a, b| {
            a.1.penalized_mean_inefficiency()
                .partial_cmp(&b.1.penalized_mean_inefficiency())
                .expect("finite means")
        });
        let oracle = statics.first().expect("candidates non-empty").clone();
        let worst = statics.last().expect("candidates non-empty").clone();
        Comparison {
            adaptive,
            oracle_decision: oracle.0,
            oracle: oracle.1,
            worst_decision: worst.0,
            worst: worst.1,
            statics,
        }
    }
}

/// Adaptive-vs-static comparison over one scenario.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The closed-loop report.
    pub adaptive: LoopReport,
    /// The best static tuple in hindsight.
    pub oracle_decision: Decision,
    /// Its report.
    pub oracle: LoopReport,
    /// The worst static tuple in hindsight.
    pub worst_decision: Decision,
    /// Its report.
    pub worst: LoopReport,
    /// Every static candidate's report, best first.
    pub statics: Vec<(Decision, LoopReport)>,
}

impl Comparison {
    /// `adaptive / oracle` penalized mean inefficiency (1.0 = matches the
    /// oracle; the documented acceptance margin is 1.25).
    pub fn oracle_gap(&self) -> f64 {
        self.adaptive.penalized_mean_inefficiency() / self.oracle.penalized_mean_inefficiency()
    }

    /// True when the adaptive loop beats the static worst case — the
    /// guarantee adaptivity exists to provide.
    pub fn beats_worst_case(&self) -> bool {
        self.adaptive.penalized_mean_inefficiency() < self.worst.penalized_mean_inefficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;

    fn quick_scenario() -> Scenario {
        Scenario {
            k: 300,
            epochs: 12,
            regimes: vec![
                Regime::new(GilbertParams::new(0.01, 0.8).unwrap(), 3_000),
                Regime::new(GilbertParams::new(0.15, 0.25).unwrap(), 3_000),
            ],
            seed: 0xAD47,
        }
    }

    fn quick_config() -> ControllerConfig {
        ControllerConfig {
            window: 3_000,
            min_observations: 400,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn adaptive_loop_runs_and_observes() {
        let runner = AdaptiveRunner::new(quick_scenario(), quick_config());
        let report = runner.run();
        assert_eq!(report.epochs.len(), 12);
        // The first epoch runs on the prior.
        assert_eq!(report.epochs[0].decision.code, builtin::ldgm_triangle());
        assert!(report.epochs[0].estimated_loss_bound.is_none());
        // Later epochs have estimates.
        assert!(report.epochs[4].estimated_loss_bound.is_some());
        // Ground truth is recorded for analysis.
        assert!(report.epochs.iter().any(|e| e.true_p > 0.1));
        assert!(report.epochs.iter().any(|e| e.true_p < 0.05));
    }

    #[test]
    fn static_run_never_switches_and_sends_everything() {
        let runner = AdaptiveRunner::new(quick_scenario(), quick_config());
        let d = AdaptiveRunner::static_candidates()[3].clone(); // Triangle Tx4 R2_5
        let report = runner.run_static(&d);
        assert_eq!(report.switches, 0);
        for e in &report.epochs {
            assert_eq!(e.n_sent, 750, "full n = 2.5k every epoch");
            assert!(e.planned_n_sent.is_none());
        }
        assert!((report.mean_sent_ratio() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn penalized_metric_charges_failures() {
        let report = LoopReport {
            k: 100,
            epochs: vec![EpochOutcome {
                epoch: 0,
                decision: AdaptiveRunner::static_candidates()[0].clone(),
                true_p: 0.5,
                true_q: 0.1,
                estimated_loss_bound: None,
                planned_n_sent: None,
                switched: false,
                decoded: false,
                n_necessary: None,
                n_sent: 150,
                n_received: 20,
            }],
            switches: 0,
        };
        assert_eq!(report.failures(), 1);
        assert!(report.mean_inefficiency().is_none());
        assert_eq!(report.penalized_mean_inefficiency(), 1.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let runner = AdaptiveRunner::new(quick_scenario(), quick_config());
        let a = runner.run();
        let b = runner.run();
        assert_eq!(a.switches, b.switches);
        let fates_a: Vec<u64> = a.epochs.iter().map(|e| e.n_received).collect();
        let fates_b: Vec<u64> = b.epochs.iter().map(|e| e.n_received).collect();
        assert_eq!(fates_a, fates_b);
    }
}
