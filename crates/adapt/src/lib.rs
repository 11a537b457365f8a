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
//! This crate is the decision half of that loop:
//!
//! * [`OnlineGilbertEstimator`] — sliding-window maximum likelihood over
//!   the chain's transition counts, with Wilson 95% confidence intervals
//!   and a worst-case stationary-loss bound for conservative planning;
//! * [`AdaptiveController`] — maps estimates through the §6.1 rules
//!   ([`fec_core::recommend_known`]), with hysteresis (a loss-bound
//!   dead-band) so estimation noise near decision boundaries does not
//!   thrash the deployed tuple, and plans each object in flight from the
//!   exact law of arrivals at the estimate's conservative corner
//!   ([`fec_core::TransmissionPlan`]).
//!
//! The controller is transport-agnostic and is driven through one
//! contract: [`AdaptiveController::observe_runs`] folds observations in
//! the run-length shape a live reception-report digest carries (a
//! per-packet fate is a run of one), [`AdaptiveController::replan`]
//! reconsiders the tuple and plans the object in flight, and
//! [`AdaptiveController::record_outcome`] reports whether it decoded.
//! There is one closed loop: the live sender, `fec_broadcast::live::
//! send_session`, which plans each object in flight and deploys the
//! decided tuple on every object that comes due. Its return channel —
//! EXT_SEQ stamping, the digest wire format, the receiver-side emitter and
//! the sender-side aggregator — lives in `fec_flute::feedback`, which
//! depends on this crate; `fec_broadcast::world` runs the loop in-process
//! against a drifting channel and the static tuples it must beat.
//!
//! ```
//! use fec_adapt::{AdaptiveController, ControllerConfig, Decision, Reconsideration};
//!
//! let mut controller = AdaptiveController::new(ControllerConfig::default());
//! // No feedback yet: the conservative prior, sent in full.
//! let replan = controller.replan(1_000);
//! assert_eq!(replan.decision, Decision::prior());
//! assert!(replan.plan.is_none());
//!
//! // A digest's loss sketch: 30 000 packets, one in every hundred lost.
//! controller.observe_runs((0..300).flat_map(|_| [(false, 99), (true, 1)]));
//! let replan = controller.replan(1_000);
//! assert_eq!(replan.reconsideration, Reconsideration::Switched);
//! let plan = replan.plan.expect("a 1% channel is plannable");
//! // Each receiver decodes w.p. 0.999 after fewer than the R1.5 tuple's
//! // 1 500 packets.
//! assert!(plan.n_sent < 1_500 && plan.decode_probability >= 0.999);
//! controller.record_outcome(true);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod estimate;

pub use controller::{
    AdaptiveController, ControllerConfig, Decision, PopulationSummary, Reconsideration, Replan,
};
pub use estimate::{ChannelEstimate, ConfidenceInterval, OnlineGilbertEstimator};
