//! Closed-form channel analysis (paper §3.2, Figs. 5 and 6).

use std::iter::successors;

use crate::GilbertParams;

/// The global loss probability surface of Fig. 5: `p_global = p / (p + q)`
/// evaluated on a grid. Returns `(p, q, p_global)` triples in row-major
/// order (p outer, q inner).
pub fn global_loss_surface(ps: &[f64], qs: &[f64]) -> Vec<(f64, f64, f64)> {
    let mut out = Vec::with_capacity(ps.len() * qs.len());
    for &p in ps {
        for &q in qs {
            let g = GilbertParams::new(p, q)
                .expect("grid values are probabilities")
                .global_loss_probability();
            out.push((p, q, g));
        }
    }
    out
}

/// The fundamental decodability limit of §3.2 ("When is decoding
/// impossible?").
///
/// A code with `k` source packets, of which `n_sent` are transmitted,
/// receives on average `n_sent * (1 - p_global)` packets; decoding *cannot*
/// succeed unless that is at least `inef_ratio * k`. On the boundary,
///
/// ```text
/// q = -p * inef_ratio / (inef_ratio - n_sent / k)
/// ```
///
/// This struct captures the parameters; [`FeasibilityLimit::q_boundary`]
/// returns the boundary and [`FeasibilityLimit::is_feasible`] classifies a
/// `(p, q)` point. `inef_ratio = 1` (the paper's Fig. 6 assumption) is the
/// bound for *any* erasure code, MDS or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibilityLimit {
    /// Ratio of transmitted packets to source packets (`n_sent / k`); equals
    /// the FEC expansion ratio when everything is sent.
    pub sent_ratio: f64,
    /// Assumed decoding inefficiency (1.0 = lower bound / MDS).
    pub inef_ratio: f64,
}

impl FeasibilityLimit {
    /// Limit for a code that transmits everything (`n_sent = n`), assuming
    /// perfect (MDS-like) decoding efficiency — exactly Fig. 6.
    pub fn ideal(expansion_ratio: f64) -> FeasibilityLimit {
        FeasibilityLimit {
            sent_ratio: expansion_ratio,
            inef_ratio: 1.0,
        }
    }

    /// Average fraction of transmitted packets that must survive for
    /// decoding to be possible: `inef_ratio / sent_ratio`.
    pub fn required_delivery_rate(&self) -> f64 {
        self.inef_ratio / self.sent_ratio
    }

    /// The boundary `q(p)` above which decoding is (on average) possible.
    /// Returns `None` when no `q` in `[0, 1]` can save the receiver, or when
    /// the channel is loss-free for every `q` (p = 0).
    pub fn q_boundary(&self, p: f64) -> Option<f64> {
        debug_assert!((0.0..=1.0).contains(&p));
        if p == 0.0 {
            // Perfect channel: feasible for every q; there is no boundary.
            return None;
        }
        // Feasibility: (1 - p/(p+q)) * sent_ratio >= inef_ratio
        //  ⇔ q/(p+q) >= required_delivery_rate r
        //  ⇔ q >= p * r / (1 - r)    (for r < 1)
        let r = self.required_delivery_rate();
        if r >= 1.0 {
            // Must receive everything: impossible once p > 0.
            return Some(f64::INFINITY);
        }
        Some(p * r / (1.0 - r))
    }

    /// Whether the average number of received packets suffices at `(p, q)`.
    /// (A necessary, not sufficient, condition for reliable decoding.)
    pub fn is_feasible(&self, p: f64, q: f64) -> bool {
        let g = GilbertParams::new(p, q)
            .expect("probabilities")
            .global_loss_probability();
        (1.0 - g) * self.sent_ratio >= self.inef_ratio - 1e-12
    }
}

/// Wilson score interval for a binomial proportion — the confidence
/// interval online Gilbert estimators attach to their `p`/`q` transition
/// estimates. Unlike the Wald interval it stays inside `[0, 1]` and behaves
/// sensibly at small counts, which matters right after a regime switch when
/// the estimation window has just been flushed.
///
/// `successes` out of `trials`, at critical value `z` (1.96 ≈ 95%).
/// Returns the degenerate full interval `(0, 1)` when `trials == 0`.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let phat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = phat + z2 / (2.0 * n);
    let half = z * (phat * (1.0 - phat) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - half) / denom).max(0.0),
        ((centre + half) / denom).min(1.0),
    )
}

/// The exact law of `T_r`, the send index of the `r`-th arrival on a
/// Gilbert channel run sample-then-step (as
/// [`GilbertChannel`](crate::GilbertChannel) runs): the probability that
/// fewer than `r` of the first `n` packets arrive, `P(T_r > n)`.
///
/// `loss_at_start` is the probability that the chain is in the loss state
/// when the first packet is sent: 0 for
/// [`GilbertChannel::new`](crate::GilbertChannel::new)'s NoLoss start,
/// `params.global_loss_probability()` for a receiver that meets the chain
/// in its stationary law.
///
/// Each arrival leaves the chain in NoLoss, so the run of losses before
/// the next arrival is empty with probability `1 − p` and Geometric(q)
/// (at least one loss) otherwise. From NoLoss, with `m = n − r`,
///
/// ```text
/// P(T_r > r + m) = Σ_b Bin(r − 1, p)(b) · P(Bin(m, q) < b)
/// ```
///
/// (b runs of losses fit in m lost sends iff m Bernoulli(q) trials end at
/// least b of them); a Loss start puts one more run before the first
/// arrival (`b + 1`). The shortfall is summed directly, not as
/// `1 − P(T_r ≤ n)`, so a tail of 1e-12 keeps its digits. The cost is
/// O(√r + √m) terms.
pub fn arrival_shortfall(params: GilbertParams, loss_at_start: f64, r: u64, n: u64) -> f64 {
    let (Some(gaps), Some(m)) = (r.checked_sub(1), n.checked_sub(r)) else {
        return if r == 0 { 0.0 } else { 1.0 };
    };
    let (gaps_from, gaps) = binomial(gaps, params.p());
    let (losses_from, mut cdf) = binomial(m, params.q());
    // P(Bin(m, q) ≤ losses_from + i), summed from the lower tail up.
    let mut sum = 0.0;
    for w in &mut cdf {
        sum += *w;
        *w = sum;
    }
    let fewer_losses = |b: u64| match b.checked_sub(losses_from + 1) {
        None => 0.0,
        Some(i) => cdf.get(i as usize).copied().unwrap_or(1.0),
    };
    let runs = |b| (1.0 - loss_at_start) * fewer_losses(b) + loss_at_start * fewer_losses(b + 1);
    (gaps_from..).zip(gaps).map(|(b, w)| w * runs(b)).sum()
}

/// `Bin(n, p)` as `(first value, probabilities)`: the terms above 1e-40 of
/// the mode's, walked out from the mode by their ratio and normalised by
/// their sum, so none underflows however large `n` is.
fn binomial(n: u64, p: f64) -> (u64, Vec<f64>) {
    if n == 0 || p <= 0.0 || p >= 1.0 {
        return (if p >= 1.0 { n } else { 0 }, vec![1.0]);
    }
    let mode = (((n + 1) as f64 * p) as u64).min(n);
    // Term b + 1 over term b.
    let up = |b: u64| (n - b) as f64 * p / ((b + 1) as f64 * (1.0 - p));
    let below = successors(Some((mode, 1.0)), |&(b, w)| {
        (b > 0).then(|| (b - 1, w / up(b - 1)))
    });
    let above = successors(Some((mode, 1.0)), |&(b, w)| {
        (b < n).then(|| (b + 1, w * up(b)))
    });
    let mut terms: Vec<(u64, f64)> = below.take_while(|t| t.1 > 1e-40).collect();
    terms.reverse();
    terms.extend(above.skip(1).take_while(|t| t.1 > 1e-40));
    let total: f64 = terms.iter().map(|t| t.1).sum();
    (terms[0].0, terms.iter().map(|t| t.1 / total).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(30, 100, 1.96);
        assert!(lo < 0.3 && 0.3 < hi);
        assert!(hi - lo < 0.2, "95% CI at n=100 is tight-ish: {lo}..{hi}");
        let (lo2, hi2) = wilson_interval(300, 1000, 1.96);
        assert!(hi2 - lo2 < hi - lo, "more data tightens the interval");
    }

    #[test]
    fn wilson_interval_edge_cases() {
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 50, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.15, "zero successes still bound p: {hi}");
        let (lo, hi) = wilson_interval(50, 50, 1.96);
        assert!(lo > 0.85 && lo < 1.0, "all successes still bound p: {lo}");
        assert_eq!(hi, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The interval is always ordered, inside [0,1], and contains phat.
        #[test]
        fn wilson_interval_is_well_formed(s in 0u64..500, extra in 0u64..500) {
            let n = s + extra;
            let (lo, hi) = wilson_interval(s, n, 1.96);
            prop_assert!((0.0..=1.0).contains(&lo));
            prop_assert!((0.0..=1.0).contains(&hi));
            prop_assert!(lo <= hi);
            if n > 0 {
                let phat = s as f64 / n as f64;
                prop_assert!(lo <= phat + 1e-12 && phat - 1e-12 <= hi);
            }
        }
    }

    /// `P(T_r ≤ n)` by a forward recursion over (chain state, arrivals so
    /// far): each send samples its fate from the state, then steps. O(n·r).
    fn arrival_cdf_by_recursion(params: GilbertParams, loss_at_start: f64, r: u64, n: u64) -> f64 {
        let (p, q) = (params.p(), params.q());
        let r = r as usize;
        // [in NoLoss, in Loss] by arrivals so far, capped at r.
        let mut no_loss = vec![0.0; r + 1];
        let mut loss = vec![0.0; r + 1];
        no_loss[0] = 1.0 - loss_at_start;
        loss[0] = loss_at_start;
        for _ in 0..n {
            let (mut next_no_loss, mut next_loss) = (vec![0.0; r + 1], vec![0.0; r + 1]);
            for a in 0..=r {
                let arrived = (a + 1).min(r);
                next_no_loss[arrived] += no_loss[a] * (1.0 - p);
                next_loss[arrived] += no_loss[a] * p;
                next_no_loss[a] += loss[a] * q;
                next_loss[a] += loss[a] * (1.0 - q);
            }
            (no_loss, loss) = (next_no_loss, next_loss);
        }
        no_loss[r] + loss[r]
    }

    #[test]
    fn arrival_law_matches_the_forward_recursion() {
        let mut worst: f64 = 0.0;
        for p in [0.0, 0.01, 0.2, 0.7, 1.0] {
            for q in [0.0, 0.3, 0.7915, 1.0] {
                let params = GilbertParams::new(p, q).unwrap();
                let starts = [0.0, 1.0, params.global_loss_probability()];
                for r in [1u64, 5, 40] {
                    for n in [0, r - 1, r, r + 3, 2 * r + 10, 120] {
                        for s in starts {
                            let closed = 1.0 - arrival_shortfall(params, s, r, n);
                            let recursed = arrival_cdf_by_recursion(params, s, r, n);
                            worst = worst.max((closed - recursed).abs());
                            assert!(
                                (closed - recursed).abs() < 1e-12,
                                "(p, q) = ({p}, {q}), r = {r}, n = {n}, start {s}: \
                                 {closed} vs {recursed}"
                            );
                        }
                    }
                }
            }
        }
        assert!(worst < 1e-12, "{worst}");
    }

    /// The smallest `n` at which each of `receivers` independent
    /// receivers gets `r` arrivals with probability at least
    /// `0.999^(1/receivers)`.
    fn quantile(params: GilbertParams, start: f64, r: u64, receivers: f64) -> u64 {
        let miss = -(0.999f64.ln() / receivers).exp_m1();
        (r..)
            .find(|&n| arrival_shortfall(params, start, r, n) <= miss)
            .unwrap()
    }

    /// One RSE block of k = 170 from the simulator's NoLoss start:
    /// ⌈equation 3⌉'s decode probability, the 99.9 % quantile, and the n
    /// at which all of 10⁶ receivers decode with probability 0.999.
    #[test]
    fn arrival_law_pins_the_single_block_figures() {
        for ((p, q), eq3, decodes, q999, million) in [
            ((0.0109, 0.7915), 173, 0.769, 181, 194),
            ((0.05, 0.5), 187, 0.573, 214, 253),
        ] {
            let params = GilbertParams::new(p, q).unwrap();
            let mean_sends = 170.0 / (1.0 - params.global_loss_probability());
            assert_eq!(mean_sends.ceil() as u64, eq3);
            let at_eq3 = 1.0 - arrival_shortfall(params, 0.0, 170, eq3);
            assert!((at_eq3 - decodes).abs() < 5e-4, "({p}, {q}): {at_eq3}");
            assert_eq!(quantile(params, 0.0, 170, 1.0), q999, "({p}, {q})");
            assert_eq!(quantile(params, 0.0, 170, 1e6), million, "({p}, {q})");
        }
    }

    #[test]
    fn arrival_law_edge_cases() {
        let ch = GilbertParams::new(0.2, 0.4).unwrap();
        assert_eq!(arrival_shortfall(ch, 0.5, 0, 0), 0.0, "zero arrivals");
        assert_eq!(arrival_shortfall(ch, 0.5, 10, 9), 1.0, "too few sends");
        // A perfect channel delivers every packet from NoLoss.
        assert_eq!(
            arrival_shortfall(GilbertParams::perfect(), 0.0, 10, 10),
            0.0
        );
        // An absorbing loss state delivers nothing from Loss.
        let stuck = GilbertParams::new(0.1, 0.0).unwrap();
        assert_eq!(arrival_shortfall(stuck, 1.0, 1, 1_000), 1.0);
        // Large r and n: no term underflows, and the law is monotone in n.
        let at = |n| arrival_shortfall(ch, 1.0 / 3.0, 50_000, n);
        assert!(at(74_000) > at(76_000) && at(76_000) > at(80_000));
        assert!(at(70_000) > 0.999 && at(80_000) < 1e-3);
    }

    #[test]
    fn surface_matches_formula() {
        let s = global_loss_surface(&[0.0, 0.5], &[0.5, 1.0]);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], (0.0, 0.5, 0.0));
        assert!((s[2].2 - 0.5).abs() < 1e-12); // p=0.5,q=0.5
        assert!((s[3].2 - 1.0 / 3.0).abs() < 1e-12); // p=0.5,q=1.0
    }

    #[test]
    fn ideal_limits_match_paper_figure6() {
        // Fig. 6: with expansion ratio 2.5 a receiver needs 40% delivery;
        // with 1.5 it needs 2/3.
        let f25 = FeasibilityLimit::ideal(2.5);
        assert!((f25.required_delivery_rate() - 0.4).abs() < 1e-12);
        let f15 = FeasibilityLimit::ideal(1.5);
        assert!((f15.required_delivery_rate() - 2.0 / 3.0).abs() < 1e-12);

        // The 2.5 region strictly contains the 1.5 region.
        for p in [0.1, 0.3, 0.5, 0.9] {
            let b25 = f25.q_boundary(p).unwrap();
            let b15 = f15.q_boundary(p).unwrap();
            assert!(b25 < b15, "p={p}: ratio 2.5 must tolerate more");
        }
    }

    #[test]
    fn boundary_points_classify_consistently() {
        let f = FeasibilityLimit::ideal(2.5);
        // q = p * 0.4/0.6 = 2p/3 on the boundary.
        let p = 0.3;
        let b = f.q_boundary(p).unwrap();
        assert!((b - 0.2).abs() < 1e-12);
        assert!(f.is_feasible(p, b + 1e-9));
        assert!(!f.is_feasible(p, b - 1e-3));
    }

    #[test]
    fn p_zero_has_no_boundary() {
        assert_eq!(FeasibilityLimit::ideal(1.5).q_boundary(0.0), None);
        assert!(FeasibilityLimit::ideal(1.5).is_feasible(0.0, 0.0));
    }

    #[test]
    fn ratio_one_requires_perfect_channel() {
        let f = FeasibilityLimit::ideal(1.0);
        assert_eq!(f.q_boundary(0.01), Some(f64::INFINITY));
        assert!(f.is_feasible(0.0, 1.0));
        assert!(!f.is_feasible(0.01, 1.0));
    }

    #[test]
    fn totally_uncorrelated_diagonal_of_fig6() {
        // Fig. 6 marks the q = 1 - p anti-diagonal as "totally uncorrelated".
        // Along it, p_global = p; ratio 2.5 is feasible up to p = 0.6.
        let f = FeasibilityLimit::ideal(2.5);
        assert!(f.is_feasible(0.59, 1.0 - 0.59));
        assert!(!f.is_feasible(0.61, 1.0 - 0.61));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// q_boundary and is_feasible are mutually consistent everywhere.
        #[test]
        fn boundary_consistency(p in 0.001f64..1.0, q in 0.0f64..1.0, ratio in 1.01f64..4.0) {
            let f = FeasibilityLimit::ideal(ratio);
            let b = f.q_boundary(p).unwrap();
            let feasible = f.is_feasible(p, q);
            if b.is_infinite() {
                prop_assert!(!feasible);
            } else if q > b + 1e-9 {
                prop_assert!(feasible, "q {q} above boundary {b}");
            } else if q < b - 1e-9 {
                prop_assert!(!feasible, "q {q} below boundary {b}");
            }
        }
    }
}
