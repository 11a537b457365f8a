//! Packet-erasure channel models (paper §3.2).
//!
//! The paper models the channel at packet granularity with the classic
//! two-state Gilbert Markov chain: a *no-loss* state and a *loss* state,
//! with transition probabilities `p` (no-loss → loss) and `q` (loss →
//! no-loss). This single model covers, as special cases,
//!
//! * the **perfect channel** (`p = 0`),
//! * **IID / Bernoulli losses** (`q = 1 − p`, a memoryless chain),
//! * **bursty losses** (small `q` ⇒ mean burst length `1/q`).
//!
//! The paper sweeps a 14×14 grid of `(p, q)` values (exposed here as
//! [`grid::PAPER_GRID`]) and masks any cell where decoding failed at least
//! once. The [`analysis`] module carries the closed-form results of §3.2:
//! the global loss probability `p/(p+q)` (Fig. 5) and the fundamental
//! feasibility limit of *any* FEC code (Fig. 6).
//!
//! Everything is deterministic given a seed; channels implement the
//! object-safe [`LossModel`] trait. The n-state generalisation the paper
//! lists as future work (§7) is provided too: [`MarkovLossModel`] supports
//! arbitrary finite chains with per-state loss probabilities, including the
//! classic Gilbert-Elliott and wireless three-state (good/degraded/outage)
//! shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod drift;
mod emulate;
mod gilbert;
pub mod grid;
mod nstate;
mod trace;

pub use drift::{DriftingChannel, Regime};
pub use emulate::{LinkConfig, LinkEmulator, LinkStats};
pub use gilbert::{ChannelError, GilbertChannel, GilbertParams, GilbertState};
pub use nstate::{MarkovChannel, MarkovLossModel};
pub use trace::{fit_gilbert, LossTrace, TraceChannel, TransitionCounts};

/// A packet-erasure channel: a (usually random) source of per-packet
/// keep/lose decisions.
///
/// Implementations must be deterministic given their construction seed so
/// simulation runs are reproducible.
pub trait LossModel {
    /// Decides the fate of the next transmitted packet.
    /// Returns `true` if the packet is **lost**.
    fn next_is_lost(&mut self) -> bool;

    /// Long-run packet loss probability of this model, if defined.
    fn global_loss_probability(&self) -> Option<f64> {
        None
    }

    /// Creates an **independent** channel of the same kind — same
    /// statistical parameters, fresh state, randomness derived from
    /// `salt`. This is what lets a single configured model fan out into
    /// one decorrelated loss process per receiver without sharing chain
    /// state: `fork(a)` and `fork(b)` with `a != b` walk different
    /// sample paths, while the same salt reproduces the same path.
    ///
    /// Returns `None` when the model cannot be re-instantiated (the
    /// default, so foreign implementations keep compiling).
    fn fork(&self, salt: u64) -> Option<Box<dyn LossModel>> {
        let _ = salt;
        None
    }
}

/// Derives a decorrelated per-lane seed from a base seed, splitmix64
/// style. Adjacent lanes (`0, 1, 2, …`) yield unrelated seeds, so a
/// million-receiver fan-out can mint per-receiver channels from one base
/// seed without correlated loss patterns.
#[inline]
pub fn fork_seed(base: u64, lane: u64) -> u64 {
    let mut z = base.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(lane.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must stay object-safe: the simulator holds `Box<dyn LossModel>`.
    #[test]
    fn loss_model_is_object_safe() {
        let params = GilbertParams::new(0.1, 0.5).unwrap();
        let mut boxed: Box<dyn LossModel> = Box::new(GilbertChannel::new(params, 1));
        let _ = boxed.next_is_lost();
        assert!(boxed.global_loss_probability().is_some());
    }
}
