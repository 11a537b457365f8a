//! # fec-distrib — the sharded sweep engine
//!
//! The paper's figures are Monte-Carlo grid sweeps — 14×14 Gilbert
//! `(p, q)` cells × 100 runs per cell at `k = 20000` — and one machine's
//! cores are the ceiling of the in-process [`GridSweep`]
//! (`fec_sim::GridSweep`). This crate turns that loop into an explicit
//! **plan → shard → execute → merge** pipeline so a sweep can spread over
//! hosts, resume from partial files, and still produce
//! output *byte-identical* to the single-process run:
//!
//! 1. **Plan** ([`SweepPlan`]): a serializable document fixing the
//!    experiment, grid, seed and the canonical work-unit decomposition
//!    (cell × run-range slices). Every unit's random streams derive from
//!    `(seed, cell index, absolute run index)`, so results are independent
//!    of execution order and partitioning.
//! 2. **Shard** ([`ShardSpec`]): `i/n` round-robin over unit ids, or an
//!    explicit unit list. Any partitioning axis — by cell, by run-range —
//!    is just a choice of unit subsets.
//! 3. **Execute** ([`run_shard`], [`execute_plan`]): units reduce into
//!    mergeable accumulators (`fec_sim::CellAccum` — counts, sums,
//!    Welford mean/M2, min/max) on the in-process work queue
//!    (`GridSweep::execute_streamed`) — all of a plan on one host's
//!    cores, or one shard of it per host.
//! 4. **Merge** ([`from_partials`], [`merge_paths`], [`StreamingMerge`]):
//!    completeness-checked reduction in canonical unit order, yielding a
//!    [`SweepResult`] whose JSON serialization is byte-identical for
//!    every execution strategy of the same plan. On-disk partials are
//!    JSONL — a [`PartialHeader`] line carrying the plan, then one
//!    [`UnitResult`] per line — and [`merge_paths`] folds them
//!    unit-by-unit, so a multi-host merge holds the plan's slot table,
//!    never whole files, in memory.
//!
//! ## In one process
//!
//! ```no_run
//! use fec_codec::builtin;
//! use fec_distrib::{execute_plan, SweepPlan};
//! use fec_sim::{Experiment, ExpansionRatio, SweepConfig};
//!
//! let plan = SweepPlan::new(
//!     Experiment::new(
//!         builtin::ldgm_staircase(),
//!         2000,
//!         ExpansionRatio::R2_5,
//!         fec_sched::TxModel::Random,
//!     ),
//!     SweepConfig::quick(20),
//! )
//! .unwrap();
//! let result = execute_plan(&plan).unwrap();
//! println!("{}", fec_sim::report::paper_table(&result));
//! ```
//!
//! ## Across hosts
//!
//! ```text
//! # one machine: every core, one process
//! fec-broadcast sweep --code staircase --tx 4 --ratio 2.5
//!
//! # many machines: run complementary shards anywhere…
//! hostA$ fec-broadcast sweep … --shard 0/2 --emit-partial --out a.partial.json
//! hostB$ fec-broadcast sweep … --shard 1/2 --emit-partial --out b.partial.json
//! # …ship the files home and combine:
//! home$  fec-broadcast merge a.partial.json b.partial.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;
mod merge;
mod partial;
mod plan;
mod shard;

pub use error::DistribError;
pub use exec::{execute_plan, run_shard};
pub use merge::{from_partials, merge_paths, StreamingMerge};
pub use partial::{PartialFile, PartialHeader, PartialSweep, UnitResult, PARTIAL_JSONL_FORMAT};
pub use plan::SweepPlan;
pub use shard::ShardSpec;

// Re-exported so downstreams driving the pipeline have the sim-side types
// at hand without a separate import.
pub use fec_sim::{CellAccum, GridSweep, SweepResult, WorkUnit, DEFAULT_RUNS_PER_UNIT};
