//! Low-Density Generator Matrix (LDGM) large-block erasure codes.
//!
//! This crate implements the paper's two large-block codes (§2.3) plus the
//! plain-LDGM ancestor they derive from:
//!
//! * **LDGM** — parity check matrix `H = [H1 | I]`: each parity packet is the
//!   XOR of the source packets in its equation.
//! * **LDGM Staircase** — `I` replaced by a staircase (double diagonal):
//!   each parity additionally depends on the previous one. Same encoding
//!   cost, much better erasure recovery.
//! * **LDGM Triangle** — the staircase plus a progressively-filled lower
//!   triangle, adding dependencies between distant parity packets.
//!
//! `H1` is regular with **left degree 3** (every source packet appears in
//! exactly 3 equations, paper §2.3.1), with row weights balanced to within
//! one edge. Matrix construction is deterministic given a seed, driven by a
//! self-contained Park-Miller PRNG ([`prng`]) in the spirit of RFC 5170, so
//! sender and receiver build bit-identical matrices from the seed alone.
//!
//! Unlike Reed-Solomon these codes are **not MDS**: a receiver needs
//! `inef_ratio * k` packets (`inef_ratio >= 1`, experimentally ~1.05–1.15)
//! for iterative decoding to finish — measuring that ratio under different
//! packet schedules and channels is the whole point of the paper.
//!
//! There is one peeling cascade (`peel.rs`) and two views of it:
//! * [`Decoder`] runs it with a payload store and reconstructs the object;
//! * [`StructuralDecoder`] runs it with no store at all — indices only —
//!   and is what the Monte-Carlo sweeps run on. The two cannot disagree
//!   about when an object decodes; `tests/oracle.rs` checks both against a
//!   naive decoder that shares no code with this crate.
//!
//! Beyond the paper's iterative decoder, the [`gauss`] module adds the
//! second phase that later-generation codecs standardised (RFC 5170 full
//! decoding, RFC 6330 inactivation decoding): when peeling stalls,
//! [`Decoder::try_complete`] / [`StructuralDecoder::ml_complete`] solve the
//! residual stopping-set system over GF(2) with one incremental
//! inactivation engine, cheap enough to ask after every batch. The codec
//! layer's byte-true decoder does ([`Decoder::push_batch`] itself stays
//! pure peeling), so every receiver completes at the maximum-likelihood
//! point; the Monte-Carlo sweeps keep the paper's decoder, and the
//! `ablation_ml` bench quantifies how much inefficiency the paper's
//! conclusions inherit from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmat;
mod decoder;
mod encoder;
pub mod gauss;
mod matrix;
mod peel;
pub mod prng;
mod structural;

pub use decoder::{Decoder, MemoryStats, PushOutcome};
pub use encoder::Encoder;
pub use gauss::{ml_necessary, peeling_necessary};
pub use matrix::{LdgmError, LdgmParams, MatrixStats, RightSide, SparseMatrix, TriangleFill};
pub use structural::StructuralDecoder;

/// Default left degree (number of equations each source packet appears in).
/// The paper fixes this to 3 (§2.3.1); it is a parameter here so the
/// ablation benches can vary it.
pub const DEFAULT_LEFT_DEGREE: usize = 3;
