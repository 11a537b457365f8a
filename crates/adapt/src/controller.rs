//! The adaptive controller: estimate → recommend → plan, with hysteresis.
//!
//! Closing the loop naively — re-run the §6.1 recommender on every fresh
//! estimate and deploy whatever comes out — thrashes: near a decision
//! boundary (say `p_global ≈ 5%`), estimation noise flips the chosen tuple
//! every few objects, and every flip costs a re-encode and a new FDT
//! instance to every receiver. The closed loop drives the controller
//! through three calls —
//! [`observe_runs`](AdaptiveController::observe_runs) →
//! [`replan`](AdaptiveController::replan) →
//! [`record_outcome`](AdaptiveController::record_outcome) — and each
//! `replan`:
//!
//! 1. maps the current [`ChannelEstimate`] through
//!    [`recommend_known`](fec_core::recommend_known) using the estimate's
//!    **worst-case** loss bound (uncertain estimates degrade toward robust
//!    tuples, per the paper's unknown-channel advice);
//! 2. applies **hysteresis**: a differing recommendation is adopted only
//!    once the loss bound has moved by more than `DEAD_BAND` relative to
//!    the bound the active tuple was adopted under;
//! 3. derives the §6.2 transmission plan for the object in flight from the
//!    exact law of arrivals at the estimate's conservative (p, q) corner
//!    and the configured inefficiency margin.

use fec_core::{
    recommend, recommend_known, ChannelKnowledge, CodecHandle, ExpansionRatio, TransmissionPlan,
};
use fec_sched::TxModel;
use serde::{Deserialize, Serialize};

use crate::estimate::{ChannelEstimate, OnlineGilbertEstimator};

/// A deployable (code, transmission model, expansion ratio) tuple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// FEC code (any registered codec).
    pub code: CodecHandle,
    /// Transmission model.
    pub tx: TxModel,
    /// Expansion ratio.
    pub ratio: ExpansionRatio,
}

impl Decision {
    /// The conservative prior used before any estimate exists: LDGM
    /// Triangle under Tx_model_4 at ratio 2.5 — the paper's pick when very
    /// high loss cannot be ruled out (§6.1), which is exactly the situation
    /// before the first observation arrives.
    pub fn prior() -> Decision {
        let top = &recommend(ChannelKnowledge::UnknownHighLoss)[0];
        Decision {
            code: top.code.clone(),
            tx: top.tx,
            ratio: top.ratio,
        }
    }
}

impl core::fmt::Display for Decision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} + {} @ {}",
            self.code.name(),
            self.tx.name(),
            self.ratio
        )
    }
}

/// Relative dead-band on the conservative loss bound: a differing
/// candidate is ignored while the bound stays within this factor of the
/// bound the active decision was adopted under.
const DEAD_BAND: f64 = 0.25;

/// After a decode failure, plan truncation is suspended (the full schedule
/// is sent) until this many objects decode again — the channel just proved
/// it was worse than the estimate.
const FAILURE_BACKOFF: u32 = 2;

/// Controller tuning knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Sliding estimation window, in packets.
    pub window: usize,
    /// Observations required before the controller trusts an estimate at
    /// all (below this it stays on [`Decision::prior`]). A window shorter
    /// than this is trusted once full.
    pub min_observations: usize,
    /// Inefficiency ratio assumed when planning `n_sent` (equation 3)
    /// before any measurement of the actual tuple exists. Conservative by
    /// default: small-object LDGM inefficiency plus margin.
    pub assumed_inefficiency: f64,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            window: 20_000,
            min_observations: 500,
            assumed_inefficiency: 1.35,
        }
    }
}

/// One aggregated view of a whole receiver population, handed to the
/// controller by a sender-side digest aggregator in place of n separate
/// digest streams. The aggregator folds only the *worst* receiver's loss
/// sketch into the estimator (so `estimate()` is already worst-case);
/// this summary carries the fleet-level context around that estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationSummary {
    /// Receivers the aggregator is currently tracking.
    pub receivers: u64,
    /// Worst per-receiver cumulative loss fraction observed (lost /
    /// (received + lost)), 0.0 when nothing has been lost anywhere.
    pub worst_loss: f64,
    /// Completion-fraction quantiles across the population, ascending:
    /// 10th, 50th and 90th percentile of per-receiver session progress
    /// (completed objects / objects seen), each in `[0, 1]`.
    pub completion_quantiles: [f64; 3],
}

/// Why the last reconsideration did (or did not) change the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reconsideration {
    /// No estimate yet (or not enough observations).
    NoEstimate,
    /// The recommendation matches the active decision.
    Unchanged,
    /// The loss bound moved too little to justify churn.
    HeldByDeadBand,
    /// The controller switched to a new decision.
    Switched,
}

/// The closed-loop decision maker.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    config: ControllerConfig,
    estimator: OnlineGilbertEstimator,
    active: Decision,
    /// Conservative loss bound the active decision was adopted under
    /// (`None` while running on the prior).
    adopted_bound: Option<f64>,
    switches: u64,
    /// Objects that must decode before planning resumes.
    backoff_remaining: u32,
    /// Latest population summary from a fan-out aggregator, if any.
    population: Option<PopulationSummary>,
}

impl AdaptiveController {
    /// Builds a controller starting from [`Decision::prior`].
    pub fn new(config: ControllerConfig) -> AdaptiveController {
        let estimator = OnlineGilbertEstimator::new(config.window);
        AdaptiveController {
            config,
            estimator,
            active: Decision::prior(),
            adopted_bound: None,
            switches: 0,
            backoff_remaining: 0,
            population: None,
        }
    }

    /// The currently deployed tuple.
    pub fn decision(&self) -> Decision {
        self.active.clone()
    }

    /// How often the controller has switched tuples.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Read access to the estimator.
    pub fn estimator(&self) -> &OnlineGilbertEstimator {
        &self.estimator
    }

    /// The current channel estimate, if identifiable and past
    /// `min_observations` (or past a full window, when the window is the
    /// shorter of the two).
    pub fn estimate(&self) -> Option<ChannelEstimate> {
        let trusted_after = self.config.min_observations.min(self.config.window);
        if self.estimator.window_len() < trusted_after {
            return None;
        }
        self.estimator.estimate()
    }

    /// Feeds run-length-encoded observations — the shape a reception
    /// report's loss sketch arrives in (`(lost, run length)` pairs, in
    /// transmission order). Returns the number of per-packet observations
    /// folded into the estimator.
    pub fn observe_runs(&mut self, runs: impl IntoIterator<Item = (bool, u64)>) -> u64 {
        let mut n = 0;
        for (lost, len) in runs {
            self.estimator.push_run(lost, len);
            n += len;
        }
        n
    }

    /// Records the latest population summary from a fan-out aggregator.
    /// The estimator already tracks the worst receiver's sketch; the
    /// summary's receiver count N sets the plan's target: all N decode
    /// together with probability `1 − ε`, so each must decode with
    /// probability `(1 − ε)^(1/N)`.
    pub fn note_population(&mut self, summary: PopulationSummary) {
        self.population = Some(summary);
    }

    /// Reports whether the last object decoded. A failure suspends plan
    /// truncation for `FAILURE_BACKOFF` (2) successful objects: the
    /// channel just demonstrated it was worse than the estimate (typically
    /// a regime switch the window has not flushed yet), so the sender
    /// falls back to full transmissions while the estimator catches up.
    pub fn record_outcome(&mut self, decoded: bool) {
        if decoded {
            self.backoff_remaining = self.backoff_remaining.saturating_sub(1);
        } else {
            self.backoff_remaining = FAILURE_BACKOFF;
        }
    }

    /// True while planning is suspended by a recent decode failure.
    pub fn in_backoff(&self) -> bool {
        self.backoff_remaining > 0
    }

    /// What the recommender would deploy for `estimate`, evaluated at the
    /// estimate's conservative loss bound.
    fn candidate_for(estimate: &ChannelEstimate) -> Decision {
        let top = &recommend_known(estimate.params, estimate.p_global_upper())[0];
        Decision {
            code: top.code.clone(),
            tx: top.tx,
            ratio: top.ratio,
        }
    }

    /// Re-evaluates the decision against the current estimate, applying
    /// the dead-band hysteresis.
    fn reconsider(&mut self) -> Reconsideration {
        let Some(estimate) = self.estimate() else {
            return Reconsideration::NoEstimate;
        };
        let bound = estimate.p_global_upper();
        let candidate = Self::candidate_for(&estimate);

        if candidate == self.active {
            // Keep the adopted bound tracking reality while the decision is
            // stable, so the dead-band is measured from recent conditions
            // rather than a stale adoption point.
            self.adopted_bound = Some(bound);
            return Reconsideration::Unchanged;
        }

        // Dead-band: ignore differing candidates while the loss bound has
        // not meaningfully moved since adoption. An absolute floor keeps
        // the relative test meaningful near zero loss.
        if let Some(adopted) = self.adopted_bound {
            let moved = (bound - adopted).abs();
            let threshold = (adopted * DEAD_BAND).max(0.005);
            if moved < threshold {
                return Reconsideration::HeldByDeadBand;
            }
        }

        self.active = candidate;
        self.adopted_bound = Some(bound);
        self.switches += 1;
        Reconsideration::Switched
    }

    /// The §6.2 transmission plan for the `k`-packet object in flight:
    /// the smallest n at which each of the population's N receivers gets
    /// `⌈assumed_inefficiency · k⌉` packets with probability at least
    /// `(1 − ε)^(1/N)` ([`TransmissionPlan::new`]). The channel is the
    /// estimate's [conservative corner](ChannelEstimate::conservative_corner),
    /// met in its stationary law. N is the latest
    /// [`PopulationSummary`]'s receiver count, or 1.
    ///
    /// The object in flight may carry another tuple than the active one
    /// (the first object, or one in flight at a switch), so n is searched
    /// up to k × the largest ratio the recommender deploys; the emission
    /// clamps it to the object's own schedule.
    ///
    /// Returns `None` — meaning *send everything* — while no usable
    /// estimate exists, during [failure backoff](Self::record_outcome), or
    /// when even that many sends fall short.
    fn plan(&self, k: usize) -> Option<TransmissionPlan> {
        if self.in_backoff() {
            return None;
        }
        let corner = self.estimate()?.conservative_corner()?;
        let need = (self.config.assumed_inefficiency * k as f64).ceil() as u64;
        let n_max = (k as f64 * ExpansionRatio::R2_5.as_f64()).floor() as u64;
        let receivers = self.population.map_or(1, |p| p.receivers);
        TransmissionPlan::new(n_max, &[(need, 1)], corner, receivers)
    }

    /// The one re-plan call the closed loop drives between feedback
    /// rounds: reconsider the tuple against the current estimate (with
    /// dead-band hysteresis), then plan the `k`-packet object in flight
    /// under whatever decision is now active. A `plan` of `None` means
    /// *send the full schedule*.
    pub fn replan(&mut self, k: usize) -> Replan {
        let reconsideration = self.reconsider();
        Replan {
            reconsideration,
            decision: self.decision(),
            plan: self.plan(k),
        }
    }
}

/// The outcome of one [`AdaptiveController::replan`] call.
#[derive(Debug, Clone)]
pub struct Replan {
    /// What reconsidering the estimate did to the active tuple.
    pub reconsideration: Reconsideration,
    /// The tuple in force after reconsideration: the live engine deploys
    /// it on every object that comes due from now on; the object in
    /// flight keeps its encoding.
    pub decision: Decision,
    /// The §6.2 plan for the in-flight object, `None` = send everything.
    pub plan: Option<TransmissionPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_channel::{GilbertChannel, GilbertParams, LossModel};
    use fec_codec::builtin;
    use fec_core::{decode_probability, PlannedEmission, PLAN_EPSILON};
    use fec_sched::PacketRef;

    fn feed(c: &mut AdaptiveController, params: GilbertParams, n: usize, seed: u64) {
        let mut ch = GilbertChannel::new(params, seed);
        c.observe_runs((0..n).map(|_| (ch.next_is_lost(), 1)));
    }

    /// `n` packets losing exactly one in every `period`, in runs.
    fn feed_periodic(c: &mut AdaptiveController, period: u64, n: u64) {
        c.observe_runs((0..n / period).flat_map(|_| [(false, period - 1), (true, 1)]));
    }

    #[test]
    fn prior_is_the_paper_high_loss_tuple() {
        let d = Decision::prior();
        assert_eq!(d.code, builtin::ldgm_triangle());
        assert_eq!(d.tx, TxModel::Random);
        assert_eq!(d.ratio, ExpansionRatio::R2_5);
    }

    #[test]
    fn no_estimate_keeps_the_prior() {
        let mut c = AdaptiveController::new(ControllerConfig::default());
        let r = c.replan(1000);
        assert_eq!(r.reconsideration, Reconsideration::NoEstimate);
        assert_eq!(r.decision, Decision::prior());
        assert!(r.plan.is_none(), "no estimate -> send everything");
        // A few observations below min_observations change nothing.
        feed(&mut c, GilbertParams::new(0.01, 0.8).unwrap(), 100, 1);
        assert_eq!(c.replan(1000).reconsideration, Reconsideration::NoEstimate);
    }

    #[test]
    fn a_window_shorter_than_min_observations_is_trusted_once_full() {
        let mut c = AdaptiveController::new(ControllerConfig {
            window: 300,
            ..ControllerConfig::default()
        });
        feed(&mut c, GilbertParams::new(0.01, 0.8).unwrap(), 1_000, 4);
        assert_eq!(c.estimator().window_len(), 300);
        assert!(c.estimate().is_some(), "min_observations = 500 > window");
        assert_ne!(c.replan(1000).reconsideration, Reconsideration::NoEstimate);
    }

    #[test]
    fn converges_to_low_loss_tuple_and_plans() {
        let mut c = AdaptiveController::new(ControllerConfig::default());
        let light = GilbertParams::new(0.0109, 0.7915).unwrap(); // §6.2.1
        feed(&mut c, light, 30_000, 2);
        // The first differing recommendation is adopted at once.
        let r = c.replan(10_000);
        assert_eq!(r.reconsideration, Reconsideration::Switched);
        let d = c.decision();
        assert_eq!(d.code, builtin::ldgm_staircase(), "low loss: Tx2+Staircase");
        assert_eq!(d.tx, TxModel::SourceSeqParityRandom);
        assert_eq!(d.ratio, ExpansionRatio::R1_5);
        assert_eq!(c.switches(), 1);
        // And the plan saves real bandwidth at 1.35% loss.
        let plan = r.plan.unwrap();
        assert!(plan.decode_probability >= 1.0 - PLAN_EPSILON);
        assert!(plan.n_sent < 14_000, "plan truncates the R1.5 schedule");
        // Stable conditions afterwards: no further churn.
        for _ in 0..10 {
            assert_eq!(c.replan(10_000).reconsideration, Reconsideration::Unchanged);
        }
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn dead_band_holds_near_the_boundary() {
        // Adopt Staircase just under the 5% low-loss threshold (1 loss in
        // 25 packets), then cross it by a hair (1 in 21): the recommender
        // flips to Triangle, but the bound moved less than DEAD_BAND of
        // the adopted bound, so the decision holds.
        let mut c = AdaptiveController::new(ControllerConfig::default());
        feed_periodic(&mut c, 25, 25_000);
        assert_eq!(c.replan(1000).reconsideration, Reconsideration::Switched);
        let adopted = c.decision();
        assert_eq!(adopted.code, builtin::ldgm_staircase());
        feed_periodic(&mut c, 21, 21_000);
        let est = c.estimate().unwrap();
        assert_ne!(AdaptiveController::candidate_for(&est), adopted);
        assert_eq!(
            c.replan(1000).reconsideration,
            Reconsideration::HeldByDeadBand
        );
        assert_eq!(c.decision(), adopted);
        // A move well past the band (1 in 12, ~8% loss) is adopted.
        feed_periodic(&mut c, 12, 24_000);
        assert_eq!(c.replan(1000).reconsideration, Reconsideration::Switched);
        assert_eq!(c.decision().code, builtin::ldgm_triangle());
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn heavy_loss_switches_to_robust_tuple() {
        let mut c = AdaptiveController::new(ControllerConfig::default());
        // First adopt a low-loss tuple…
        feed(
            &mut c,
            GilbertParams::new(0.0109, 0.7915).unwrap(),
            25_000,
            6,
        );
        assert_eq!(c.replan(2_000).reconsideration, Reconsideration::Switched);
        assert_eq!(c.decision().code, builtin::ldgm_staircase());
        // …then the channel degrades to 40% loss: back to the robust tuple.
        feed(&mut c, GilbertParams::new(0.2, 0.3).unwrap(), 25_000, 7);
        let r = c.replan(2_000);
        assert_eq!(r.reconsideration, Reconsideration::Switched);
        let d = c.decision();
        assert_eq!(d.code, builtin::ldgm_triangle());
        assert_eq!(d.tx, TxModel::Random);
        assert_eq!(d.ratio, ExpansionRatio::R2_5);
        // 40% loss at ratio 2.5 with a 1.35 margin: equation 3 wants
        // ~1.35k/0.6 ≈ 2.25k of the 2.5k available on average, but at the
        // estimate's conservative corner no n ≤ 2.5k decodes w.p. 0.999.
        assert!(r.plan.is_none());
    }

    #[test]
    fn impossible_channels_yield_no_plan() {
        let mut c = AdaptiveController::new(ControllerConfig::default());
        // 60% loss: ratio 2.5 needs 40% delivery; with the 1.35 margin the
        // plan cannot be sufficient -> None (send everything, hope).
        feed(&mut c, GilbertParams::bernoulli(0.6).unwrap(), 25_000, 8);
        assert!(c.replan(2_000).plan.is_none());
    }

    #[test]
    fn observe_runs_matches_observe_and_replan_plans() {
        let light = GilbertParams::new(0.0109, 0.7915).unwrap();
        let mut ch = GilbertChannel::new(light, 13);
        // Record 30k observations, once one packet at a time and once as
        // runs.
        let mut scalar = AdaptiveController::new(ControllerConfig::default());
        let mut runs: Vec<(bool, u64)> = Vec::new();
        for _ in 0..30_000 {
            let lost = ch.next_is_lost();
            scalar.observe_runs([(lost, 1)]);
            match runs.last_mut() {
                Some((l, len)) if *l == lost => *len += 1,
                _ => runs.push((lost, 1)),
            }
        }
        let mut by_run = AdaptiveController::new(ControllerConfig::default());
        assert_eq!(by_run.observe_runs(runs), 30_000);
        assert_eq!(
            by_run.estimate().unwrap().params,
            scalar.estimate().unwrap().params
        );

        // The replan hook reconsiders and plans in one call.
        let r = by_run.replan(10_000);
        assert_eq!(r.reconsideration, Reconsideration::Switched);
        let plan = r.plan.expect("light channel is plannable");
        assert!(plan.n_sent < plan.n_total);
        assert_eq!(r.decision, by_run.decision());
    }

    #[test]
    fn population_summary_raises_the_plan() {
        let mut c = AdaptiveController::new(ControllerConfig::default());
        feed(&mut c, GilbertParams::new(0.02, 0.6).unwrap(), 30_000, 11);
        let solo = c.replan(10_000).plan.expect("plannable channel");
        c.note_population(PopulationSummary {
            receivers: 1_000_000,
            worst_loss: 0.05,
            completion_quantiles: [0.1, 0.5, 0.9],
        });
        let fleet = c.replan(10_000).plan.expect("still plannable");
        // Each of 10⁶ receivers must decode w.p. 0.999^(1/10⁶): a later
        // stop, but still a truncating plan.
        assert!(
            fleet.n_sent > solo.n_sent,
            "fleet {} vs solo {}",
            fleet.n_sent,
            solo.n_sent
        );
        assert!(fleet.n_sent < 15_000);
        assert!(fleet.decode_probability >= (1.0 - PLAN_EPSILON).powf(1e-6));
        // A single-receiver population keeps the one-receiver plan.
        c.note_population(PopulationSummary {
            receivers: 1,
            worst_loss: 0.0,
            completion_quantiles: [1.0, 1.0, 1.0],
        });
        assert_eq!(c.replan(10_000).plan.unwrap().n_sent, solo.n_sent);
    }

    /// A plan is not capped at k × the active ratio: the object in flight
    /// may carry another. At k = 100 on Gilbert(0.01, 0.4) the controller
    /// sits on Staircase R1.5 and the plan asks for more than that tuple's
    /// 150 packets, so an R2.5 object in flight is not cut at 150.
    #[test]
    fn a_plan_is_not_capped_at_the_active_ratio() {
        let mut c = AdaptiveController::new(ControllerConfig::default());
        feed(&mut c, GilbertParams::new(0.01, 0.4).unwrap(), 30_000, 3);
        let r = c.replan(100);
        assert_eq!(r.decision.code, builtin::ldgm_staircase());
        assert_eq!(r.decision.ratio, ExpansionRatio::R1_5);
        let plan = r.plan.expect("plannable channel");
        assert!(plan.n_sent > 150 && plan.n_sent <= 250, "{}", plan.n_sent);
        // An R2.5 object (n = 250) in flight keeps what the plan asks.
        let schedule = (0..250).map(|esi| PacketRef { block: 0, esi }).collect();
        let mut in_flight = PlannedEmission::full(schedule);
        in_flight.amend(Some(&plan));
        assert_eq!(in_flight.target(), plan.n_sent);
    }

    /// Every plan reaches `(1 − ε)^(1/N)` at the estimate's corner, and
    /// ends no later than the law allows.
    #[test]
    fn every_plan_reaches_its_target_at_the_corner() {
        for (params, receivers) in [
            ((0.0109, 0.7915), 1),
            ((0.02, 0.6), 300_000),
            ((0.05, 0.5), 1),
            ((0.01, 0.9), 1_000_000),
        ] {
            let mut c = AdaptiveController::new(ControllerConfig::default());
            feed(
                &mut c,
                GilbertParams::new(params.0, params.1).unwrap(),
                30_000,
                5,
            );
            c.note_population(PopulationSummary {
                receivers,
                worst_loss: 0.05,
                completion_quantiles: [0.1, 0.5, 0.9],
            });
            let plan = c.replan(2_040).plan.expect("plannable channel");
            let target = (1.0 - PLAN_EPSILON).powf(1.0 / receivers as f64);
            assert!(plan.decode_probability >= target, "{params:?}: {plan:?}");
            let corner = c.estimate().unwrap().conservative_corner().unwrap();
            let inef = ControllerConfig::default().assumed_inefficiency;
            let need = [((inef * 2_040.0).ceil() as u64, 1)];
            let one_less = decode_probability(&need, corner, plan.n_sent - 1);
            assert!(one_less < target, "{params:?}: {plan:?}");
        }
    }

    #[test]
    fn uncertain_estimates_recommend_conservatively() {
        // Just past min_observations at ~4.5% loss: the point estimate
        // says "low loss" but the Wilson bound does not clear the 5%
        // threshold, so the controller must stay conservative.
        let mut c = AdaptiveController::new(ControllerConfig {
            min_observations: 600,
            ..ControllerConfig::default()
        });
        feed(&mut c, GilbertParams::new(0.035, 0.75).unwrap(), 700, 9);
        let est = c.estimate().unwrap();
        assert!(est.p_global_upper() > est.p_global());
        let cand = AdaptiveController::candidate_for(&est);
        assert_eq!(
            cand.code,
            builtin::ldgm_triangle(),
            "uncertainty keeps the robust §6.1 tuple, got {cand}"
        );
    }
}
