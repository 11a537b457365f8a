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
//!   ([`fec_core::TransmissionPlan`]), with hysteresis (a loss-bound
//!   dead-band) so estimation noise near decision boundaries does not
//!   thrash the deployed tuple;
//! * [`AdaptiveRunner`] — closed-loop simulation against a
//!   [`fec_channel::DriftingChannel`], with static baselines (best and
//!   worst fixed tuple in hindsight) for the comparison that justifies the
//!   whole exercise.
//!
//! The controller is transport-agnostic, and every loop drives it through
//! one contract: [`AdaptiveController::observe_runs`] folds observations
//! in the run-length shape a live reception-report digest carries (a
//! per-packet fate is a run of one), [`AdaptiveController::replan`]
//! reconsiders the tuple and plans the object in flight, and
//! [`AdaptiveController::record_outcome`] reports whether it decoded.
//! [`AdaptiveRunner`] and the live sender make exactly these calls, so the
//! controller validated in simulation is the one the live loop runs. The
//! live UDP transport — EXT_SEQ sequence stamping, digest wire format,
//! receiver-side emitter and sender-side ingestion — lives in
//! `fec_flute::feedback`, which depends on this crate;
//! `tests/adaptive_flute.rs` closes the loop over real sockets.
//!
//! ```
//! use fec_adapt::{AdaptiveRunner, ControllerConfig, Scenario};
//!
//! let scenario = Scenario::regime_switching(200, 6, 42);
//! let config = ControllerConfig {
//!     window: 2_000,
//!     min_observations: 300,
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

pub use closed_loop::{AdaptiveRunner, Comparison, EpochOutcome, LoopReport, Scenario};
pub use controller::{
    AdaptiveController, ControllerConfig, Decision, PopulationSummary, Reconsideration, Replan,
};
pub use estimate::{ChannelEstimate, ConfidenceInterval, OnlineGilbertEstimator};
