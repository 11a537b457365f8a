//! Non-stationary channels: piecewise-Gilbert regime switching.
//!
//! The paper's study (§4) holds `(p, q)` fixed per experiment; real
//! channels drift — cross-traffic builds up, a wireless receiver walks
//! behind a wall, a peering link flaps. [`DriftingChannel`] models this as
//! a schedule of Gilbert regimes, each active for a fixed number of
//! packets, cycling forever. It is the workload the
//! `fec-adapt` closed loop is evaluated against: an online estimator must
//! notice the regime change from loss observations alone and re-plan.
//!
//! The chain *state* (currently in a burst or not) carries across regime
//! boundaries — a switch changes the transition probabilities, not the
//! weather. That matches e.g. a congestion episode persisting while its
//! intensity changes, and it is what makes fast change detection hard.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{GilbertParams, GilbertState, LossModel};

/// One regime of a [`DriftingChannel`]: Gilbert parameters held for a span
/// of packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regime {
    /// The Gilbert parameters during this regime.
    pub params: GilbertParams,
    /// How many packets the regime lasts.
    pub packets: u64,
}

impl Regime {
    /// Convenience constructor.
    pub fn new(params: GilbertParams, packets: u64) -> Regime {
        Regime { params, packets }
    }
}

/// A piecewise-Gilbert loss model that switches regimes on a packet
/// schedule.
#[derive(Debug, Clone)]
pub struct DriftingChannel {
    regimes: Vec<Regime>,
    /// Index of the active regime.
    idx: usize,
    /// Packets left in the active regime.
    remaining: u64,
    state: GilbertState,
    rng: SmallRng,
}

impl DriftingChannel {
    /// A channel that cycles through `regimes` forever.
    ///
    /// # Panics
    /// Panics if `regimes` is empty or any regime lasts zero packets.
    pub fn cycling(regimes: Vec<Regime>, seed: u64) -> DriftingChannel {
        assert!(
            !regimes.is_empty(),
            "a drifting channel needs at least one regime"
        );
        assert!(
            regimes.iter().all(|r| r.packets > 0),
            "zero-length regimes are unreachable"
        );
        let remaining = regimes[0].packets;
        DriftingChannel {
            regimes,
            idx: 0,
            remaining,
            state: GilbertState::NoLoss,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The regimes this channel walks.
    pub fn regimes(&self) -> &[Regime] {
        &self.regimes
    }

    /// The parameters currently in force.
    pub fn current(&self) -> GilbertParams {
        self.regimes[self.idx].params
    }

    /// Advances the regime schedule by one consumed packet.
    fn advance(&mut self) {
        self.remaining -= 1;
        if self.remaining > 0 {
            return;
        }
        self.idx = (self.idx + 1) % self.regimes.len();
        self.remaining = self.regimes[self.idx].packets;
    }
}

impl LossModel for DriftingChannel {
    fn next_is_lost(&mut self) -> bool {
        let params = self.current();
        let lost = self.state == GilbertState::Loss;
        let u: f64 = self.rng.gen();
        self.state = match self.state {
            GilbertState::NoLoss if u < params.p() => GilbertState::Loss,
            GilbertState::NoLoss => GilbertState::NoLoss,
            GilbertState::Loss if u < params.q() => GilbertState::NoLoss,
            GilbertState::Loss => GilbertState::Loss,
        };
        self.advance();
        lost
    }

    /// The long-run loss rate: the packet-weighted average of the
    /// per-regime stationary rates (exact over whole cycles).
    fn global_loss_probability(&self) -> Option<f64> {
        let total: u64 = self.regimes.iter().map(|r| r.packets).sum();
        let weighted: f64 = self
            .regimes
            .iter()
            .map(|r| r.params.global_loss_probability() * r.packets as f64)
            .sum();
        Some(weighted / total as f64)
    }

    /// Same regime schedule from the top, fresh chain and randomness.
    fn fork(&self, salt: u64) -> Option<Box<dyn LossModel>> {
        Some(Box::new(DriftingChannel::cycling(
            self.regimes.clone(),
            salt,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(p: f64, q: f64) -> GilbertParams {
        GilbertParams::new(p, q).unwrap()
    }

    #[test]
    fn single_regime_behaves_like_gilbert() {
        let mut ch = DriftingChannel::cycling(vec![Regime::new(params(0.2, 0.6), 1000)], 3);
        let n = 200_000;
        let lost = (0..n).filter(|_| ch.next_is_lost()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn regimes_switch_on_schedule() {
        let mut ch = DriftingChannel::cycling(
            vec![
                Regime::new(GilbertParams::perfect(), 5),
                Regime::new(params(1.0, 0.0), 3),
            ],
            1,
        );
        assert_eq!(ch.current(), GilbertParams::perfect());
        for _ in 0..5 {
            ch.next_is_lost();
        }
        assert_eq!(ch.current(), params(1.0, 0.0));
        for _ in 0..3 {
            ch.next_is_lost();
        }
        assert_eq!(ch.current(), GilbertParams::perfect(), "cycles back");
    }

    #[test]
    fn perfect_and_absorbing_phases_alternate() {
        // Phase 1: perfect (no losses). Phase 2: p=1, q=0 — everything lost
        // once the chain enters Loss. State carries across boundaries, so
        // phase 2 loses all but its first packet, and the first packet of
        // the following perfect phase is still lost (state was Loss).
        let mut ch = DriftingChannel::cycling(
            vec![
                Regime::new(GilbertParams::perfect(), 4),
                Regime::new(params(1.0, 0.0), 4),
            ],
            9,
        );
        let fates: Vec<bool> = (0..12).map(|_| ch.next_is_lost()).collect();
        assert_eq!(
            fates,
            vec![
                false, false, false, false, // perfect
                false, true, true, true, // absorbing: first survives
                true, false, false, false // state Loss carried one packet
            ]
        );
    }

    #[test]
    fn average_loss_is_packet_weighted() {
        let ch = DriftingChannel::cycling(
            vec![
                Regime::new(params(0.2, 0.6), 300),         // 25%
                Regime::new(GilbertParams::perfect(), 100), // 0%
            ],
            1,
        );
        let g = ch.global_loss_probability().unwrap();
        assert!((g - 0.1875).abs() < 1e-12, "got {g}");
    }

    #[test]
    fn deterministic_per_seed() {
        let regimes = vec![
            Regime::new(params(0.1, 0.4), 50),
            Regime::new(params(0.4, 0.2), 50),
        ];
        let mut a = DriftingChannel::cycling(regimes.clone(), 7);
        let mut b = DriftingChannel::cycling(regimes, 7);
        let fa: Vec<bool> = (0..500).map(|_| a.next_is_lost()).collect();
        let fb: Vec<bool> = (0..500).map(|_| b.next_is_lost()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    #[should_panic(expected = "at least one regime")]
    fn empty_regime_list_rejected() {
        DriftingChannel::cycling(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_regime_rejected() {
        DriftingChannel::cycling(vec![Regime::new(GilbertParams::perfect(), 0)], 0);
    }
}
