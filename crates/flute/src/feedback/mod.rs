//! fec-audit: deny(panic)
//!
//! The live reception-report feedback channel.
//!
//! The paper's delivery stack is feedback-free by design — reliability
//! comes from FEC alone — but its §6 recommendations presuppose a sender
//! that *knows* the loss process. This module closes that gap with a
//! return channel an order of magnitude lighter than the forward one:
//!
//! 1. the sender stamps every datagram with an EXT_SEQ sequence number
//!    ([`HeaderExtension::seq`](crate::lct::HeaderExtension::seq));
//! 2. the receiver's [`ReportEmitter`] turns sequence gaps into a
//!    run-length loss sketch and batches it, with cumulative per-TOI
//!    counters, into compact [`ReceptionReport`] digests (one small UDP
//!    datagram every few hundred received packets);
//! 3. the sender's [`FeedbackAggregator`] dedups digests per source
//!    address, folds the worst receiver's sketch into its online Gilbert
//!    estimator and re-plans the in-flight object's transmission via
//!    [`AdaptiveController::replan`](fec_adapt::AdaptiveController::replan)
//!    — amendments land through
//!    [`SessionStream::amend_plan`](crate::SessionStream::amend_plan).
//!
//! Both channel directions are lossy UDP: the sketch survives forward
//! reordering/duplication (see [`ReportEmitter`]) and the aggregator
//! survives dropped, duplicated and reordered digests.
//!
//! One receiver or 10⁶, the consumer is the same: per-source dedup,
//! worst-receiver estimator folding, idle eviction and population
//! summaries keep the sender's per-digest work O(1), while the emitter's
//! population-scaled suppression ([`ReportConfig::population_hint`])
//! keeps the aggregate return-channel rate O(log n). Receivers may attach
//! per-block missing-ESI NACK sections ([`NackEntry`]) for targeted
//! repair.

mod aggregator;
mod emitter;
mod wire;

pub use aggregator::{AggregateOutcome, AggregateStats, AggregatorConfig, FeedbackAggregator};
pub use emitter::{ReportConfig, ReportEmitter, MAX_PATH_TRACKS};
pub use wire::{
    LossRun, NackEntry, ReceptionReport, ReportEntry, REPORT_ENTRY_LEN, REPORT_HEADER_LEN,
    REPORT_MAGIC, REPORT_NACK_HEADER_LEN, REPORT_RUN_LEN, REPORT_VERSION, SEQ_MODULUS,
};
