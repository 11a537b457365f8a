//! General finite-state Markov packet-loss models.
//!
//! The paper's §7 lists "more elaborated channel models (e.g. the n-state
//! Markov models)" as future work; this module implements them. A chain has
//! `n` states, each with its own per-packet loss probability, and an `n×n`
//! transition matrix. The two-state Gilbert model is the special case with
//! loss probabilities `{0, 1}`.
//!
//! The common literature models are provided as constructors:
//!
//! * [`MarkovLossModel::gilbert_elliott`] — two states like Gilbert, but
//!   each state loses packets with its own probability (the "soft" Gilbert
//!   of Elliott 1963);
//! * [`MarkovLossModel::three_state`] — good / degraded / outage, the shape
//!   typically fitted to wireless traces (cf. Konrad et al., the paper's
//!   [8]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{ChannelError, GilbertParams, LossModel};

/// An `n`-state Markov chain where each state drops packets with a fixed
/// probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovLossModel {
    /// `transitions[i][j]` = P(state j | state i); each row sums to 1.
    transitions: Vec<Vec<f64>>,
    /// Per-state packet loss probability.
    loss: Vec<f64>,
    /// Initial state.
    start: usize,
}

impl MarkovLossModel {
    /// Validates and builds a model.
    pub fn new(
        transitions: Vec<Vec<f64>>,
        loss: Vec<f64>,
        start: usize,
    ) -> Result<MarkovLossModel, ChannelError> {
        let n = transitions.len();
        if n == 0 || loss.len() != n || start >= n {
            return Err(ChannelError::BadProbability {
                name: "inconsistent Markov model shape",
                value: n as f64,
            });
        }
        for row in &transitions {
            if row.len() != n {
                return Err(ChannelError::BadProbability {
                    name: "transition matrix not square",
                    value: row.len() as f64,
                });
            }
            let sum: f64 = row.iter().sum();
            if row
                .iter()
                .any(|p| !(0.0..=1.0).contains(p) || !p.is_finite())
            {
                return Err(ChannelError::BadProbability {
                    name: "transition probability",
                    value: sum,
                });
            }
            if (sum - 1.0).abs() > 1e-9 {
                return Err(ChannelError::BadProbability {
                    name: "transition row sum",
                    value: sum,
                });
            }
        }
        for &l in &loss {
            if !(0.0..=1.0).contains(&l) || !l.is_finite() {
                return Err(ChannelError::BadProbability {
                    name: "state loss probability",
                    value: l,
                });
            }
        }
        Ok(MarkovLossModel {
            transitions,
            loss,
            start,
        })
    }

    /// The Gilbert model embedded as a 2-state chain (loss = {0, 1}).
    pub fn from_gilbert(params: GilbertParams) -> MarkovLossModel {
        let (p, q) = (params.p(), params.q());
        MarkovLossModel {
            transitions: vec![vec![1.0 - p, p], vec![q, 1.0 - q]],
            loss: vec![0.0, 1.0],
            start: 0,
        }
    }

    /// Gilbert-Elliott: like Gilbert, but the "good" state loses packets
    /// with probability `loss_good` and the "bad" state with `loss_bad`.
    pub fn gilbert_elliott(
        p: f64,
        q: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Result<MarkovLossModel, ChannelError> {
        let _ = GilbertParams::new(p, q)?; // probability validation
        MarkovLossModel::new(
            vec![vec![1.0 - p, p], vec![q, 1.0 - q]],
            vec![loss_good, loss_bad],
            0,
        )
    }

    /// A wireless-style 3-state chain: good (lossless), degraded
    /// (intermittent loss), outage (total loss). `a` = P(good→degraded),
    /// `b` = P(degraded→good), `c` = P(degraded→outage), `d` = P(outage→degraded).
    pub fn three_state(
        a: f64,
        b: f64,
        c: f64,
        d: f64,
        degraded_loss: f64,
    ) -> Result<MarkovLossModel, ChannelError> {
        for (name, v) in [("a", a), ("b", b), ("c", c), ("d", d)] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(ChannelError::BadProbability { name, value: v });
            }
        }
        if b + c > 1.0 {
            return Err(ChannelError::BadProbability {
                name: "b + c must not exceed 1",
                value: b + c,
            });
        }
        MarkovLossModel::new(
            vec![
                vec![1.0 - a, a, 0.0],
                vec![b, 1.0 - b - c, c],
                vec![0.0, d, 1.0 - d],
            ],
            vec![0.0, degraded_loss, 1.0],
            0,
        )
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.loss.len()
    }

    /// Stationary distribution, computed by power iteration (the chains
    /// used here are small and aperiodic in practice; iteration count is
    /// capped and the result normalised).
    pub fn stationary(&self) -> Vec<f64> {
        let n = self.num_states();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..10_000 {
            let mut next = vec![0.0; n];
            for (i, w) in pi.iter().enumerate() {
                for (j, t) in self.transitions[i].iter().enumerate() {
                    next[j] += w * t;
                }
            }
            let delta: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if delta < 1e-14 {
                break;
            }
        }
        let sum: f64 = pi.iter().sum();
        pi.iter().map(|v| v / sum).collect()
    }

    /// Long-run loss probability: `sum_i pi_i * loss_i`.
    pub fn stationary_loss_probability(&self) -> f64 {
        self.stationary()
            .iter()
            .zip(&self.loss)
            .map(|(pi, l)| pi * l)
            .sum()
    }

    /// Instantiates a running channel.
    pub fn channel(&self, seed: u64) -> MarkovChannel {
        MarkovChannel {
            model: self.clone(),
            state: self.start,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

/// A running n-state Markov channel.
#[derive(Debug, Clone)]
pub struct MarkovChannel {
    model: MarkovLossModel,
    state: usize,
    rng: SmallRng,
}

impl MarkovChannel {
    /// Current state index.
    pub fn state(&self) -> usize {
        self.state
    }
}

impl LossModel for MarkovChannel {
    fn next_is_lost(&mut self) -> bool {
        // Sample-then-step, matching the Gilbert convention
        // (docs/PAPER_MAP.md §"Substitutions and conventions").
        let loss_p = self.model.loss[self.state];
        let lost = loss_p > 0.0 && (loss_p >= 1.0 || self.rng.gen::<f64>() < loss_p);
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        let row = &self.model.transitions[self.state];
        let mut next = row.len() - 1;
        for (j, t) in row.iter().enumerate() {
            acc += t;
            if u < acc {
                next = j;
                break;
            }
        }
        self.state = next;
        lost
    }

    fn global_loss_probability(&self) -> Option<f64> {
        Some(self.model.stationary_loss_probability())
    }

    /// Same chain restarted at its start state with fresh randomness.
    fn fork(&self, salt: u64) -> Option<Box<dyn LossModel>> {
        Some(Box::new(self.model.channel(salt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_malformed_models() {
        assert!(MarkovLossModel::new(vec![], vec![], 0).is_err());
        // Row does not sum to 1.
        assert!(MarkovLossModel::new(vec![vec![0.5, 0.4]], vec![0.0], 0).is_err());
        // Non-square.
        assert!(MarkovLossModel::new(vec![vec![1.0], vec![0.5, 0.5]], vec![0.0, 0.0], 0).is_err());
        // Loss probability out of range.
        assert!(
            MarkovLossModel::new(vec![vec![0.5, 0.5], vec![0.5, 0.5]], vec![0.0, 1.5], 0).is_err()
        );
        // Bad start state.
        assert!(MarkovLossModel::new(vec![vec![1.0]], vec![0.0], 3).is_err());
    }

    #[test]
    fn gilbert_embedding_behaves_like_gilbert() {
        let params = GilbertParams::new(0.1, 0.4).unwrap();
        let model = MarkovLossModel::from_gilbert(params);
        assert!(
            (model.stationary_loss_probability() - params.global_loss_probability()).abs() < 1e-12
        );
        // Empirical loss rate matches the 2-state closed form.
        let mut ch = model.channel(3);
        let n = 200_000;
        let lost = (0..n).filter(|_| ch.next_is_lost()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn stationary_distribution_of_three_state() {
        let m = MarkovLossModel::three_state(0.1, 0.3, 0.1, 0.5, 0.5).unwrap();
        let pi = m.stationary();
        assert_eq!(pi.len(), 3);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Detailed balance check via one application of the transition
        // matrix: pi * T = pi.
        let mut applied = [0.0; 3];
        for (i, &pi_i) in pi.iter().enumerate() {
            for (j, a) in applied.iter_mut().enumerate() {
                *a += pi_i * m.transitions[i][j];
            }
        }
        for (a, b) in applied.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn outage_state_loses_everything() {
        // Force start in outage with no escape: everything is lost.
        let m =
            MarkovLossModel::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![0.0, 1.0], 1).unwrap();
        let mut ch = m.channel(1);
        assert!((0..1000).all(|_| ch.next_is_lost()));
    }

    #[test]
    fn gilbert_elliott_soft_states() {
        // good state loses 1%, bad state 50%.
        let m = MarkovLossModel::gilbert_elliott(0.05, 0.5, 0.01, 0.5).unwrap();
        let expect = m.stationary_loss_probability();
        let mut ch = m.channel(9);
        let n = 300_000;
        let rate = (0..n).filter(|_| ch.next_is_lost()).count() as f64 / n as f64;
        assert!((rate - expect).abs() < 0.01, "rate {rate} vs {expect}");
        // Stationary: pi = (q, p)/(p+q) = (10/11, 1/11); loss ≈ 0.0545.
        assert!((expect - (10.0 / 11.0 * 0.01 + 1.0 / 11.0 * 0.5)).abs() < 1e-9);
    }

    #[test]
    fn three_state_parameter_validation() {
        assert!(MarkovLossModel::three_state(0.1, 0.7, 0.6, 0.5, 0.5).is_err()); // b+c > 1
        assert!(MarkovLossModel::three_state(1.5, 0.1, 0.1, 0.5, 0.5).is_err());
        assert!(MarkovLossModel::three_state(0.1, 0.1, 0.1, 0.5, 2.0).is_err());
    }

    #[test]
    fn object_safe_through_loss_model_trait() {
        let m = MarkovLossModel::three_state(0.05, 0.4, 0.05, 0.3, 0.3).unwrap();
        let mut boxed: Box<dyn LossModel> = Box::new(m.channel(5));
        let _ = boxed.next_is_lost();
        assert!(boxed.global_loss_probability().unwrap() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let m = MarkovLossModel::three_state(0.1, 0.3, 0.1, 0.5, 0.5).unwrap();
        let a: Vec<bool> = {
            let mut c = m.channel(42);
            (0..500).map(|_| c.next_is_lost()).collect()
        };
        let b: Vec<bool> = {
            let mut c = m.channel(42);
            (0..500).map(|_| c.next_is_lost()).collect()
        };
        assert_eq!(a, b);
    }
}
