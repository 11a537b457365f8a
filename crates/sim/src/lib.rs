//! Monte-Carlo simulation engine for the paper's methodology (§4.1).
//!
//! An [`Experiment`] fixes a (FEC code, object size, expansion ratio,
//! transmission model, channel) tuple. A [`Runner`] executes independent
//! randomized runs of it: draw the Gilbert channel's fate for every
//! transmitted position, fail a run left fewer than k survivors, generate
//! the transmission schedule, feed its survivors to a *structural*
//! decoder, and record when decoding completed ([`RunResult`]). A [`GridSweep`]
//! repeats that over the paper's 14×14 `(p, q)` grid with `runs` trials per
//! cell, in parallel, and aggregates with the paper's strict rule: **a cell
//! where any run failed is masked** (printed as `-`), because a scheme that
//! sometimes fails outright is not acceptable in a feedback-free system.
//!
//! The headline metric is the **average inefficiency ratio**
//! `inef_ratio = n_necessary_for_decoding / k`; the secondary curve
//! `n_received / k` (everything the channel delivered, even after decoding
//! finished) bounds it from above and reproduces the paper's
//! `nreceived/k` surfaces. Behind the mean, every cell keeps the exact law
//! of `n_necessary` over its successful runs ([`CellStats::n_necessary`]),
//! so its quantiles ([`CellStats::quantile`]) and the share of runs that
//! decode within a packet budget ([`CellStats::decode_probability`]) are
//! exact too; the accumulators behind it are integers and merge exactly in
//! any order.
//!
//! Parallelism follows the workspace guides: scoped threads (structured
//! concurrency, panics propagate) pulling from one work queue
//! ([`GridSweep::execute_streamed`]); no async runtime, because this is
//! pure CPU-bound work. Past one host, a [`SweepPlan`] is cut into
//! [`Shard`]s whose partial files a [`StreamingMerge`] folds back into
//! the single-process result, byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
mod run;
mod seed;
mod shard;
mod spec;
mod sweep;

pub use run::{RunResult, Runner};
pub use seed::mix_seed;
pub use shard::{
    merge_paths, PartialFile, PartialHeader, Shard, StreamingMerge, SweepPlan, UnitResult,
};
pub use spec::{CodecHandle, ExpansionRatio, SimError};
pub use sweep::{
    finalize_cells, CellAccum, CellStats, GridSweep, SweepConfig, SweepResult, WorkUnit,
    DEFAULT_RUNS_PER_UNIT,
};

use fec_channel::GilbertParams;
use fec_sched::TxModel;
use serde::{Deserialize, Serialize};

/// A fully-specified simulation experiment (one curve/cell family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Which FEC code to simulate (any registered codec).
    pub code: CodecHandle,
    /// Number of source packets in the object (paper: 20000).
    pub k: usize,
    /// FEC expansion ratio `n/k` (paper: 1.5 and 2.5).
    pub ratio: ExpansionRatio,
    /// Transmission model.
    pub tx: TxModel,
    /// Channel parameters (overridden per cell by grid sweeps).
    pub channel: GilbertParams,
}

impl Experiment {
    /// Convenience constructor with a perfect channel (grid sweeps replace
    /// the channel per cell anyway). Accepts a codec handle or a `&`-ref to
    /// one.
    pub fn new(
        code: impl Into<CodecHandle>,
        k: usize,
        ratio: ExpansionRatio,
        tx: TxModel,
    ) -> Experiment {
        Experiment {
            code: code.into(),
            k,
            ratio,
            tx,
            channel: GilbertParams::perfect(),
        }
    }

    /// Same experiment with different channel parameters.
    pub fn with_channel(mut self, channel: GilbertParams) -> Experiment {
        self.channel = channel;
        self
    }
}
