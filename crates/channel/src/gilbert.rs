//! The two-state Gilbert (Markov) packet-loss model.

use core::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::LossModel;

/// Errors from channel construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// A probability was outside `[0, 1]` or not finite.
    BadProbability {
        /// Which parameter was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::BadProbability { name, value } => {
                write!(f, "probability {name} = {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// The two states of the Gilbert chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GilbertState {
    /// Packets are delivered.
    NoLoss,
    /// Packets are lost.
    Loss,
}

/// Parameters of the Gilbert model: `p` = P(no-loss → loss),
/// `q` = P(loss → no-loss).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertParams {
    p: f64,
    q: f64,
}

impl GilbertParams {
    /// Validates and wraps `(p, q)`.
    pub fn new(p: f64, q: f64) -> Result<GilbertParams, ChannelError> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(ChannelError::BadProbability {
                name: "p",
                value: p,
            });
        }
        if !(0.0..=1.0).contains(&q) || !q.is_finite() {
            return Err(ChannelError::BadProbability {
                name: "q",
                value: q,
            });
        }
        Ok(GilbertParams { p, q })
    }

    /// The perfect channel: no packet is ever lost (`p = 0`).
    pub fn perfect() -> GilbertParams {
        GilbertParams { p: 0.0, q: 1.0 }
    }

    /// The memoryless (IID / Bernoulli) channel with the given loss rate:
    /// `p = rate`, `q = 1 − rate`, so the next state never depends on the
    /// current one.
    pub fn bernoulli(loss_rate: f64) -> Result<GilbertParams, ChannelError> {
        if !(0.0..=1.0).contains(&loss_rate) || !loss_rate.is_finite() {
            return Err(ChannelError::BadProbability {
                name: "loss_rate",
                value: loss_rate,
            });
        }
        Ok(GilbertParams {
            p: loss_rate,
            q: 1.0 - loss_rate,
        })
    }

    /// P(no-loss → loss).
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// P(loss → no-loss).
    #[inline]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The long-run loss probability `p / (p + q)` (paper §3.2, Fig. 5).
    ///
    /// For the degenerate `p = q = 0` chain (stuck forever in its initial
    /// state) this returns 0, matching the `NoLoss` start used throughout.
    pub fn global_loss_probability(&self) -> f64 {
        if self.p == 0.0 {
            0.0
        } else {
            self.p / (self.p + self.q)
        }
    }

    /// Mean loss-burst length `1/q` (in packets), `None` if `q = 0` (bursts
    /// never end) or the loss state is unreachable.
    pub fn mean_burst_length(&self) -> Option<f64> {
        // Unreachable loss state (p = 0) and never-ending bursts (q = 0)
        // both make the mean undefined.
        if self.p == 0.0 || self.q == 0.0 {
            None
        } else {
            Some(1.0 / self.q)
        }
    }

    /// True if this is a memoryless chain (`q = 1 − p` within tolerance).
    pub fn is_memoryless(&self) -> bool {
        (self.q - (1.0 - self.p)).abs() < 1e-12
    }
}

/// A running Gilbert channel.
///
/// Semantics (documented convention, see docs/PAPER_MAP.md
/// §"Substitutions and conventions"): *sample-then-step* —
/// the fate of packet `i` is decided by the state the chain is in when the
/// packet is transmitted, after which one transition is taken. The chain
/// starts in [`GilbertState::NoLoss`], so `p = 0` yields a perfect channel.
#[derive(Debug, Clone)]
pub struct GilbertChannel {
    params: GilbertParams,
    state: GilbertState,
    rng: SmallRng,
}

impl GilbertChannel {
    /// Creates a channel starting in the `NoLoss` state.
    pub fn new(params: GilbertParams, seed: u64) -> GilbertChannel {
        GilbertChannel {
            params,
            state: GilbertState::NoLoss,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates a channel whose initial state is drawn from the stationary
    /// distribution (useful when simulating a receiver joining mid-stream).
    pub fn new_stationary(params: GilbertParams, seed: u64) -> GilbertChannel {
        let mut rng = SmallRng::seed_from_u64(seed);
        let state = if rng.gen::<f64>() < params.global_loss_probability() {
            GilbertState::Loss
        } else {
            GilbertState::NoLoss
        };
        GilbertChannel { params, state, rng }
    }

    /// The parameters this channel runs with.
    #[inline]
    pub fn params(&self) -> GilbertParams {
        self.params
    }

    /// Current chain state.
    #[inline]
    pub fn state(&self) -> GilbertState {
        self.state
    }

    /// Generates the fate of the next `count` packets (true = lost).
    pub fn sample_losses(&mut self, count: usize) -> Vec<bool> {
        (0..count).map(|_| self.next_is_lost()).collect()
    }
}

impl LossModel for GilbertChannel {
    fn next_is_lost(&mut self) -> bool {
        let lost = self.state == GilbertState::Loss;
        let u: f64 = self.rng.gen();
        self.state = match self.state {
            GilbertState::NoLoss if u < self.params.p => GilbertState::Loss,
            GilbertState::NoLoss => GilbertState::NoLoss,
            GilbertState::Loss if u < self.params.q => GilbertState::NoLoss,
            GilbertState::Loss => GilbertState::Loss,
        };
        lost
    }

    fn global_loss_probability(&self) -> Option<f64> {
        Some(self.params.global_loss_probability())
    }

    /// Same `(p, q)`, fresh chain drawn from the stationary distribution
    /// (a forked receiver joins mid-stream, not at a synchronized reset).
    fn fork(&self, salt: u64) -> Option<Box<dyn LossModel>> {
        Some(Box::new(GilbertChannel::new_stationary(self.params, salt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_validation() {
        assert!(GilbertParams::new(0.5, 0.5).is_ok());
        assert!(GilbertParams::new(-0.1, 0.5).is_err());
        assert!(GilbertParams::new(0.1, 1.5).is_err());
        assert!(GilbertParams::new(f64::NAN, 0.5).is_err());
        assert!(GilbertParams::bernoulli(2.0).is_err());
    }

    #[test]
    fn perfect_channel_never_loses() {
        let mut ch = GilbertChannel::new(GilbertParams::perfect(), 42);
        assert!(ch.sample_losses(10_000).iter().all(|&l| !l));
        assert_eq!(ch.params().global_loss_probability(), 0.0);
    }

    #[test]
    fn p_zero_is_perfect_regardless_of_q() {
        // Paper: "No loss: this perfect channel corresponds to p = 0."
        for q in [0.0, 0.3, 1.0] {
            let mut ch = GilbertChannel::new(GilbertParams::new(0.0, q).unwrap(), 7);
            assert!(ch.sample_losses(1000).iter().all(|&l| !l));
        }
    }

    #[test]
    fn q_zero_loses_everything_after_first_loss() {
        let params = GilbertParams::new(0.3, 0.0).unwrap();
        let mut ch = GilbertChannel::new(params, 3);
        let losses = ch.sample_losses(10_000);
        let first = losses.iter().position(|&l| l);
        let first = first.expect("with p=0.3 a loss happens quickly");
        assert!(
            losses[first..].iter().all(|&l| l),
            "loss state is absorbing"
        );
    }

    #[test]
    fn all_loss_channel() {
        // p = 1, q = 0: first packet survives (start NoLoss), all others lost.
        let mut ch = GilbertChannel::new(GilbertParams::new(1.0, 0.0).unwrap(), 5);
        let losses = ch.sample_losses(100);
        assert!(!losses[0]);
        assert!(losses[1..].iter().all(|&l| l));
    }

    #[test]
    fn alternating_channel() {
        // p = 1, q = 1 deterministically alternates: keep, lose, keep, …
        let mut ch = GilbertChannel::new(GilbertParams::new(1.0, 1.0).unwrap(), 5);
        let losses = ch.sample_losses(10);
        assert_eq!(
            losses,
            vec![false, true, false, true, false, true, false, true, false, true]
        );
    }

    #[test]
    fn global_loss_probability_formula() {
        let p = GilbertParams::new(0.2, 0.6).unwrap();
        assert!((p.global_loss_probability() - 0.25).abs() < 1e-12);
        // Yajnik et al. Amherst→LA fit used in paper §6.2.1.
        let y = GilbertParams::new(0.0109, 0.7915).unwrap();
        assert!((y.global_loss_probability() - 0.0135).abs() < 5e-4);
    }

    #[test]
    fn empirical_rate_matches_stationary_law() {
        let params = GilbertParams::new(0.15, 0.45).unwrap();
        let mut ch = GilbertChannel::new(params, 11);
        let n = 300_000;
        let lost = ch.sample_losses(n).iter().filter(|&&l| l).count();
        let rate = lost as f64 / n as f64;
        let expect = params.global_loss_probability(); // 0.25
        assert!(
            (rate - expect).abs() < 0.01,
            "empirical {rate} vs stationary {expect}"
        );
    }

    #[test]
    fn bernoulli_is_memoryless_and_iid() {
        let params = GilbertParams::bernoulli(0.3).unwrap();
        assert!(params.is_memoryless());
        // For an IID channel, P(loss | previous loss) == P(loss). Estimate
        // both and compare.
        let mut ch = GilbertChannel::new(params, 23);
        let losses = ch.sample_losses(400_000);
        let mut after_loss = 0u32;
        let mut after_loss_lost = 0u32;
        for w in losses.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let cond = after_loss_lost as f64 / after_loss as f64;
        assert!((cond - 0.3).abs() < 0.01, "P(loss|loss) = {cond}, want 0.3");
    }

    #[test]
    fn burst_lengths_are_geometric() {
        let params = GilbertParams::new(0.1, 0.4).unwrap();
        let mut ch = GilbertChannel::new(params, 31);
        let losses = ch.sample_losses(400_000);
        // Collect loss-burst lengths.
        let mut bursts = Vec::new();
        let mut cur = 0usize;
        for &l in &losses {
            if l {
                cur += 1;
            } else if cur > 0 {
                bursts.push(cur);
                cur = 0;
            }
        }
        let mean = bursts.iter().sum::<usize>() as f64 / bursts.len() as f64;
        let expect = params.mean_burst_length().unwrap(); // 2.5
        assert!((mean - expect).abs() < 0.1, "mean burst {mean} vs {expect}");
    }

    #[test]
    fn deterministic_given_seed() {
        let params = GilbertParams::new(0.2, 0.3).unwrap();
        let a = GilbertChannel::new(params, 99).sample_losses(1000);
        let b = GilbertChannel::new(params, 99).sample_losses(1000);
        assert_eq!(a, b);
        let c = GilbertChannel::new(params, 100).sample_losses(1000);
        assert_ne!(a, c);
    }

    #[test]
    fn stationary_start_uses_loss_state_sometimes() {
        let params = GilbertParams::new(0.9, 0.1).unwrap(); // 90% loss
        let started_lossy = (0..200)
            .filter(|&s| GilbertChannel::new_stationary(params, s).state() == GilbertState::Loss)
            .count();
        assert!(
            started_lossy > 140,
            "expected ~180/200, got {started_lossy}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Empirical loss rate tracks p/(p+q) across the parameter space.
        #[test]
        fn stationary_law_holds(p in 0.05f64..1.0, q in 0.05f64..1.0, seed in any::<u64>()) {
            let params = GilbertParams::new(p, q).unwrap();
            let mut ch = GilbertChannel::new(params, seed);
            let n = 60_000;
            let lost = ch.sample_losses(n).iter().filter(|&&l| l).count();
            let rate = lost as f64 / n as f64;
            let expect = params.global_loss_probability();
            // Mixing is slowest for small p+q; 0.05 floors keep variance sane.
            prop_assert!((rate - expect).abs() < 0.05, "rate {rate} vs {expect}");
        }
    }
}
