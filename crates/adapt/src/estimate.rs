//! Online maximum-likelihood Gilbert estimation from per-packet loss
//! observations.
//!
//! The paper (§3.2) estimates `(p, q)` offline from recorded traces; a
//! deployed sender must do it *online*, from the loss feedback its
//! receivers report, while the channel drifts underneath it. The
//! [`OnlineGilbertEstimator`] maintains the two-state chain's sufficient
//! statistic — the four consecutive-pair transition counts — over a
//! sliding window of the most recent observations:
//!
//! * **MLE**: `p̂ = #(delivered→lost) / #delivered`,
//!   `q̂ = #(lost→delivered) / #lost`, identical to the offline
//!   [`fit_gilbert`](fec_channel::fit_gilbert) on the window's contents;
//! * **confidence**: Wilson 95% intervals on both transition estimates
//!   (each is a binomial proportion of its state's exit trials), combined
//!   into a worst-case stationary loss bound for conservative planning;
//! * **drift tracking**: the window forgets — after a regime switch the
//!   estimate converges to the new regime within one window length.

use std::collections::VecDeque;

use fec_channel::analysis::wilson_interval;
use fec_channel::{ChannelError, GilbertParams, TransitionCounts};

/// A two-sided confidence interval on a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

/// A point estimate of the channel with its uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelEstimate {
    /// Maximum-likelihood `(p, q)`.
    pub params: GilbertParams,
    /// 95% Wilson interval on `p`.
    pub p_ci: ConfidenceInterval,
    /// 95% Wilson interval on `q`.
    pub q_ci: ConfidenceInterval,
    /// Observations currently in the estimation window.
    pub window_len: usize,
    /// Conservative upper bound on the stationary loss rate (see
    /// [`ChannelEstimate::p_global_upper`]).
    pub stationary_upper: f64,
}

impl ChannelEstimate {
    /// The stationary loss rate of the point estimate.
    pub fn p_global(&self) -> f64 {
        self.params.global_loss_probability()
    }

    /// The worst-case stationary loss rate consistent with the window, the
    /// tighter of two conservative bounds:
    ///
    /// * the CI decomposition — pessimistic `p` (high) against pessimistic
    ///   `q` (low); vacuous (`1.0`) when the loss state was never exited,
    ///   e.g. on a loss-free window where `q` is unconstrained;
    /// * a Wilson upper bound on the window's raw loss fraction, computed
    ///   at a burstiness-corrected effective sample size — this is what
    ///   keeps a long loss-free window's bound near `~3.7/n` instead of 1.
    ///
    /// Planning against this bound keeps an uncertain estimate from
    /// under-provisioning the FEC budget without freezing the controller
    /// on its conservative prior forever.
    pub fn p_global_upper(&self) -> f64 {
        self.stationary_upper
    }

    /// The pessimistic channel consistent with the window: `p` at the
    /// upper end of its interval, `q` at the lower end of its. q's
    /// interval is vacuous (bursts that never end) on a window that never
    /// left the loss state, so q rises where needed to keep the corner's
    /// stationary loss within [`p_global_upper`](Self::p_global_upper).
    pub fn conservative_corner(&self) -> Option<GilbertParams> {
        let (p, bound) = (self.p_ci.hi, self.stationary_upper);
        let q = self.q_ci.lo.max(p * (1.0 - bound) / bound).min(1.0);
        GilbertParams::new(p, q).ok()
    }

    /// Mean loss-burst length of the point estimate, if defined.
    pub fn mean_burst_length(&self) -> Option<f64> {
        self.params.mean_burst_length()
    }
}

/// Sliding-window online estimator of Gilbert `(p, q)`.
///
/// The window is held as runs of equal fate, so a run of any length costs
/// O(1) amortised: one boundary transition, its same-state pairs added in
/// one step, and a trim at the front.
#[derive(Debug, Clone)]
pub struct OnlineGilbertEstimator {
    /// The window's observations as `(lost, length)` runs, oldest first;
    /// neighbouring runs differ in fate.
    window: VecDeque<(bool, u64)>,
    /// Observations in the window.
    len: u64,
    /// Lost observations in the window.
    lost: u64,
    capacity: u64,
    counts: TransitionCounts,
}

impl OnlineGilbertEstimator {
    /// Critical value for the 95% Wilson intervals.
    const Z95: f64 = 1.959_963_984_540_054;

    /// Builds an estimator remembering the last `window` observations.
    ///
    /// # Panics
    /// Panics if `window < 2` (no transition fits in it).
    pub fn new(window: usize) -> OnlineGilbertEstimator {
        assert!(
            window >= 2,
            "estimation window must hold at least one transition"
        );
        OnlineGilbertEstimator {
            window: VecDeque::new(),
            len: 0,
            lost: 0,
            capacity: window as u64,
            counts: TransitionCounts::default(),
        }
    }

    /// Records the fate of one packet (`true` = lost), in transmission
    /// order.
    pub fn push(&mut self, lost: bool) {
        self.push_run(lost, 1);
    }

    /// Records one run of `len` consecutive packets that all shared the
    /// same fate — the natural unit of a reception report's run-length
    /// sketch (see `fec_flute::feedback`). Runs longer than the window
    /// only contribute their final `capacity` observations, exactly as if
    /// they had been pushed one by one.
    pub fn push_run(&mut self, lost: bool, len: u64) {
        // Of a run that alone fills the window, only its last `capacity`
        // observations stay; the trim below evicts everything older.
        let len = len.min(self.capacity);
        if len == 0 {
            return;
        }
        if let Some(&(back, _)) = self.window.back() {
            self.counts.record(back, lost);
        }
        *stays(&mut self.counts, lost) += len - 1;
        match self.window.back_mut() {
            Some(back) if back.0 == lost => back.1 += len,
            _ => self.window.push_back((lost, len)),
        }
        self.len += len;
        if lost {
            self.lost += len;
        }
        self.trim();
    }

    /// Evicts the oldest observations until the window fits its capacity,
    /// unrecording the pair each evicted observation began.
    fn trim(&mut self) {
        while self.len > self.capacity {
            let excess = self.len - self.capacity;
            let Some(front) = self.window.front_mut() else {
                break;
            };
            let (fate, evicted) = if excess < front.1 {
                // Only same-state pairs leave with part of the front run.
                front.1 -= excess;
                *stays(&mut self.counts, front.0) -= excess;
                (front.0, excess)
            } else {
                // The whole front run leaves, with the pair that joins it
                // to the next run: the window still holds `capacity ≥ 2`
                // observations after it, so that run exists.
                let (fate, run) = *front;
                self.window.pop_front();
                *stays(&mut self.counts, fate) -= run - 1;
                if let Some(&(next, _)) = self.window.front() {
                    self.counts.unrecord(fate, next);
                }
                (fate, run)
            };
            self.len -= evicted;
            if fate {
                self.lost -= evicted;
            }
        }
    }

    /// Observations currently in the window.
    pub fn window_len(&self) -> usize {
        self.len as usize
    }

    /// The windowed transition counts (the estimator's whole state).
    pub fn counts(&self) -> &TransitionCounts {
        &self.counts
    }

    /// Loss fraction inside the window.
    fn window_loss_rate(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.lost as f64 / self.len as f64
    }

    /// The current estimate, `None` until the window holds at least one
    /// consecutive-pair transition.
    ///
    /// Each transition rate is estimated independently from its own
    /// state's exit trials, so e.g. a window whose only loss is its final
    /// element still yields the observed `p̂ = good_to_bad / good`. A rate
    /// whose state was never observed exiting is unestimable and defaults
    /// pessimistically to `1.0` for `p` (assume entry is easy) and
    /// optimistically to `1.0` for `q` — the pessimism for planning lives
    /// in [`ChannelEstimate::p_global_upper`], which accounts for the full
    /// `q ∈ [0, 1]` uncertainty. A loss-free window thus reports
    /// `p̂ = 0` with an honest non-zero upper bound; an all-loss window
    /// reports the outage `(1, 0)`.
    pub fn estimate(&self) -> Option<ChannelEstimate> {
        let c = &self.counts;
        if c.total() == 0 {
            return None;
        }
        let p_hat = if c.good > 0 {
            c.good_to_bad as f64 / c.good as f64
        } else {
            1.0
        };
        let q_hat = if c.bad > 0 {
            c.bad_to_good as f64 / c.bad as f64
        } else {
            1.0
        };
        let (p_lo, p_hi) = wilson_interval(c.good_to_bad, c.good, Self::Z95);
        let (q_lo, q_hi) = wilson_interval(c.bad_to_good, c.bad, Self::Z95);
        let params = match GilbertParams::new(p_hat, q_hat) {
            Ok(p) => p,
            Err(ChannelError::BadProbability { .. }) => unreachable!("MLE rates are in [0,1]"),
        };

        // Conservative stationary-rate bound: the CI decomposition is
        // vacuous (→ 1) whenever the loss state was never exited (q_lo =
        // 0), so intersect it with a Wilson bound on the window's raw loss
        // fraction. Serial correlation shrinks the information content of
        // the window; correct with the standard autocorrelation effective
        // sample size n·(1−ρ)/(1+ρ) at the *point* lag-1 correlation
        // ρ = 1−p̂−q̂ (CI-edge ρ would be vacuous whenever q is
        // unidentified — the exact case this bound exists to rescue; the
        // decomposition term already carries the CI conservatism).
        let decomposition_upper = if p_hi == 0.0 {
            0.0
        } else {
            p_hi / (p_hi + q_lo)
        };
        let n = self.len as f64;
        let loss_fraction = self.window_loss_rate();
        let rho = (1.0 - p_hat - q_hat).clamp(0.0, 0.99);
        let ess = ((n * (1.0 - rho) / (1.0 + rho)).round() as u64).max(1);
        let losses_ess = ((loss_fraction * ess as f64).round() as u64).min(ess);
        let (_, fraction_upper) = wilson_interval(losses_ess, ess, Self::Z95);
        let point = params.global_loss_probability();
        let stationary_upper = decomposition_upper.min(fraction_upper).max(point);

        Some(ChannelEstimate {
            params,
            p_ci: ConfidenceInterval { lo: p_lo, hi: p_hi },
            q_ci: ConfidenceInterval { lo: q_lo, hi: q_hi },
            window_len: self.window_len(),
            stationary_upper,
        })
    }
}

/// The count of same-state pairs (`lost → lost` or `delivered →
/// delivered`) for observations of fate `lost`.
fn stays(counts: &mut TransitionCounts, lost: bool) -> &mut u64 {
    if lost {
        &mut counts.bad
    } else {
        &mut counts.good
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_channel::{GilbertChannel, LossModel, LossTrace};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn feed(est: &mut OnlineGilbertEstimator, params: GilbertParams, n: usize, seed: u64) {
        let mut ch = GilbertChannel::new(params, seed);
        for _ in 0..n {
            est.push(ch.next_is_lost());
        }
    }

    #[test]
    fn matches_offline_fit_on_full_window() {
        let params = GilbertParams::new(0.05, 0.45).unwrap();
        let mut ch = GilbertChannel::new(params, 11);
        let trace = LossTrace::record(&mut ch, 5_000);
        let mut est = OnlineGilbertEstimator::new(5_000);
        for &lost in trace.losses() {
            est.push(lost);
        }
        let online = est.estimate().unwrap();
        let offline = fec_channel::fit_gilbert(&trace).unwrap();
        assert!((online.params.p() - offline.p()).abs() < 1e-12);
        assert!((online.params.q() - offline.q()).abs() < 1e-12);
        assert_eq!(online.window_len, 5_000);
    }

    #[test]
    fn confidence_intervals_cover_the_truth_and_tighten() {
        let params = GilbertParams::new(0.02, 0.6).unwrap();
        let mut est = OnlineGilbertEstimator::new(100_000);
        feed(&mut est, params, 3_000, 1);
        let coarse = est.estimate().unwrap();
        assert!(coarse.p_ci.contains(params.p()), "{:?}", coarse.p_ci);
        assert!(coarse.q_ci.contains(params.q()), "{:?}", coarse.q_ci);
        feed(&mut est, params, 80_000, 2);
        let fine = est.estimate().unwrap();
        let width = |ci: ConfidenceInterval| ci.hi - ci.lo;
        assert!(width(fine.p_ci) < width(coarse.p_ci));
        assert!(width(fine.q_ci) < width(coarse.q_ci));
        assert!(fine.p_ci.contains(params.p()));
    }

    #[test]
    fn window_forgets_an_old_regime() {
        // 30k packets of a heavy regime, then 30k of a light one, with a
        // 20k window: the estimate must describe only the light regime.
        let heavy = GilbertParams::new(0.25, 0.25).unwrap();
        let light = GilbertParams::new(0.01, 0.8).unwrap();
        let mut est = OnlineGilbertEstimator::new(20_000);
        feed(&mut est, heavy, 30_000, 3);
        let during = est.estimate().unwrap();
        assert!(
            during.p_global() > 0.4,
            "heavy regime seen: {}",
            during.p_global()
        );
        feed(&mut est, light, 30_000, 4);
        let after = est.estimate().unwrap();
        assert!(
            after.p_global() < 0.03,
            "light regime tracked: {}",
            after.p_global()
        );
        assert!(after.p_ci.contains(light.p()));
    }

    #[test]
    fn degenerate_windows_stay_usable() {
        let mut est = OnlineGilbertEstimator::new(100);
        assert!(est.estimate().is_none());
        est.push(false);
        assert!(est.estimate().is_none(), "one packet has no transitions");
        for _ in 0..50 {
            est.push(false);
        }
        let loss_free = est.estimate().unwrap();
        assert_eq!(loss_free.params.p(), 0.0);
        assert_eq!(loss_free.p_global(), 0.0);
        assert!(loss_free.p_ci.hi > 0.0, "upper bound stays honest");
        assert!(loss_free.p_global_upper() > 0.0);
        // …but a loss-free window must NOT degenerate to a vacuous bound
        // of 1 just because q is unconstrained: the raw-fraction Wilson
        // bound keeps planning alive (~3.7/n for 0-of-n).
        assert!(
            loss_free.p_global_upper() < 0.15,
            "bound {} should be ~7% at n=51",
            loss_free.p_global_upper()
        );

        let mut outage = OnlineGilbertEstimator::new(100);
        for _ in 0..50 {
            outage.push(true);
        }
        let est = outage.estimate().unwrap();
        assert_eq!(est.params.q(), 0.0);
        assert_eq!(est.p_global(), 1.0);
    }

    #[test]
    fn terminal_transition_is_not_discarded() {
        // A window whose only loss is its final element has an observed
        // delivered→lost transition; p̂ must reflect it even though q is
        // unidentifiable.
        let mut est = OnlineGilbertEstimator::new(100);
        for lost in [false, false, true] {
            est.push(lost);
        }
        let e = est.estimate().unwrap();
        assert_eq!(e.params.p(), 0.5, "good=2, good_to_bad=1");
        assert!(
            e.p_ci.contains(e.params.p()),
            "point lies inside its own CI"
        );
        assert!(e.p_global() > 0.0);
        // Symmetric case: a recovery as the final element.
        let mut est = OnlineGilbertEstimator::new(100);
        for lost in [true, true, false] {
            est.push(lost);
        }
        let e = est.estimate().unwrap();
        assert_eq!(e.params.q(), 0.5, "bad=2, bad_to_good=1");
        assert!(e.p_global() < 1.0, "an observed recovery is not an outage");
    }

    #[test]
    fn long_calm_window_keeps_a_tight_bound() {
        // 20k loss-free packets: the old CI decomposition returned a
        // vacuous bound of 1.0 here, freezing the controller on its prior.
        let mut est = OnlineGilbertEstimator::new(30_000);
        for _ in 0..20_000 {
            est.push(false);
        }
        let e = est.estimate().unwrap();
        assert!(
            e.p_global_upper() < 0.001,
            "bound {} must scale like 1/n",
            e.p_global_upper()
        );
    }

    #[test]
    fn worst_case_loss_bound_dominates_the_point_estimate() {
        let params = GilbertParams::new(0.05, 0.5).unwrap();
        let mut est = OnlineGilbertEstimator::new(10_000);
        feed(&mut est, params, 2_000, 9);
        let e = est.estimate().unwrap();
        assert!(e.p_global_upper() >= e.p_global());
        assert!(e.p_global_upper() <= 1.0);
    }

    #[test]
    fn sliding_counts_equal_recount_of_window() {
        // Differential maintenance must agree with recounting from scratch
        // at every step, including across evictions.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut est = OnlineGilbertEstimator::new(50);
        let mut mirror: Vec<bool> = Vec::new();
        for i in 0..400 {
            use rand::Rng as _;
            let lost = rng.gen_bool(0.3);
            est.push(lost);
            mirror.push(lost);
            if mirror.len() > 50 {
                mirror.remove(0);
            }
            if i % 37 == 0 {
                let recount = LossTrace::new(mirror.clone()).transition_counts();
                assert_eq!(est.counts(), &recount, "step {i}");
            }
        }
        assert_eq!(est.window_len(), 50);
    }

    #[test]
    fn push_run_equals_pushing_one_by_one() {
        let mut rng = SmallRng::seed_from_u64(21);
        // Random alternating runs, some longer than the window.
        let mut runs: Vec<(bool, u64)> = Vec::new();
        let mut lost = false;
        for _ in 0..40 {
            use rand::Rng as _;
            runs.push((lost, rng.gen_range(1..90)));
            lost = !lost;
        }
        runs.push((true, 500)); // overflows the 64-packet window outright
        runs.push((false, 3));

        // `push` is itself a run of one, so the window is also checked
        // against a recount of the last 64 observations.
        let mut by_run = OnlineGilbertEstimator::new(64);
        let mut scalar = OnlineGilbertEstimator::new(64);
        let mut mirror: Vec<bool> = Vec::new();
        for &(lost, len) in &runs {
            by_run.push_run(lost, len);
            for _ in 0..len {
                scalar.push(lost);
                mirror.push(lost);
            }
            let last = mirror[mirror.len().saturating_sub(64)..].to_vec();
            let losses = last.iter().filter(|&&l| l).count() as u64;
            let recount = LossTrace::new(last).transition_counts();
            assert_eq!(by_run.counts(), &recount);
            assert_eq!(by_run.counts(), scalar.counts());
            assert_eq!(by_run.window_len(), mirror.len().min(64));
            assert_eq!(by_run.window_len(), scalar.window_len());
            assert_eq!((by_run.lost, scalar.lost), (losses, losses));
        }
        assert_eq!(
            by_run.estimate().unwrap().params,
            scalar.estimate().unwrap().params
        );
    }

    #[test]
    #[should_panic(expected = "at least one transition")]
    fn tiny_window_rejected() {
        OnlineGilbertEstimator::new(1);
    }
}
