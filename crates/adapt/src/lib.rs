//! # fec-adapt — online channel estimation + adaptive FEC control
//!
//! The paper's recommendations (§6) assume the Gilbert `(p, q)` parameters
//! are *known*: fitted offline from traces, then baked into a static
//! (code, transmission model, expansion ratio) choice and a §6.2
//! transmission plan. Deployed systems do not get that luxury — the
//! channel must be **estimated online** from loss feedback, and the plan
//! must **follow the channel** as it drifts (TAROT, arXiv:2602.09880,
//! shows optimization-driven adaptive FEC beating any static
//! configuration; McCann & Fendick, arXiv:1911.03265, show the coding
//! choice itself feeds back into perceived burstiness, so the loop must
//! keep estimating after it acts).
//!
//! This crate closes that loop on top of the reproduction's existing
//! machinery:
//!
//! * [`OnlineGilbertEstimator`] — sliding-window maximum likelihood over
//!   the chain's transition counts, with Wilson 95% confidence intervals
//!   and a worst-case stationary-loss bound for conservative planning;
//! * [`AdaptiveController`] — maps estimates through the §6.1 rules
//!   ([`fec_core::recommend_known`]) and equation 3
//!   ([`fec_core::TransmissionPlan`]), with hysteresis (confirmation
//!   counting + a loss-bound dead-band) so estimation noise near decision
//!   boundaries does not thrash the deployed tuple;
//! * [`AdaptiveRunner`] — closed-loop simulation against a
//!   [`fec_channel::DriftingChannel`], with static baselines (best and
//!   worst fixed tuple in hindsight) for the comparison that justifies the
//!   whole exercise.
//!
//! The controller is transport-agnostic: observations arrive either
//! per-packet ([`AdaptiveController::observe`]) or as the run-length
//! sketches a live reception-report digest carries
//! ([`AdaptiveController::observe_runs`] /
//! [`OnlineGilbertEstimator::push_run`]), and
//! [`AdaptiveController::replan`] is the one-call reconsider-and-plan
//! hook a feedback loop drives between digests. The live UDP transport —
//! EXT_SEQ sequence stamping, digest wire format, receiver-side emitter
//! and sender-side ingestion — lives in `fec_flute::feedback`, which
//! depends on this crate; `tests/adaptive_flute.rs` closes the loop over
//! real sockets.
//!
//! ```
//! use fec_adapt::{AdaptiveRunner, ControllerConfig, Scenario};
//!
//! let scenario = Scenario::regime_switching(200, 6, 42);
//! let config = ControllerConfig {
//!     window: 2_000,
//!     min_observations: 300,
//!     confirm_after: 1,
//!     ..ControllerConfig::default()
//! };
//! let comparison = AdaptiveRunner::new(scenario, config).compare();
//! assert!(comparison.beats_worst_case());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closed_loop;
mod controller;
mod estimate;

pub use closed_loop::{
    clairvoyant_decision, AdaptiveRunner, Comparison, EpochOutcome, LoopReport, Scenario,
};
pub use controller::{
    AdaptiveController, ControllerConfig, Decision, PopulationSummary, Reconsideration, Replan,
};
pub use estimate::{ChannelEstimate, ConfidenceInterval, OnlineGilbertEstimator};
