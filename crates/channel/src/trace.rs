//! Loss traces: recording, replaying and Gilbert fitting.
//!
//! The paper (§3.2) notes that `p` and `q` can be estimated from packet-loss
//! traces, citing the GSM traces of Konrad et al. and the Internet traces of
//! Yajnik et al. (whose Amherst→LA fit, `p = 0.0109, q = 0.7915`, drives the
//! §6.2.1 use case). We do not have those raw traces — the substitution
//! (docs/PAPER_MAP.md §"Substitutions and conventions") is to *synthesise*
//! traces from a Gilbert chain and verify the fitter recovers the
//! parameters, plus a [`TraceChannel`] that replays any recorded boolean
//! trace through the [`LossModel`] interface.

use crate::{ChannelError, GilbertParams, LossModel};

/// A recorded sequence of per-packet outcomes (`true` = lost).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LossTrace {
    losses: Vec<bool>,
}

impl LossTrace {
    /// Wraps a recorded outcome sequence.
    pub fn new(losses: Vec<bool>) -> LossTrace {
        LossTrace { losses }
    }

    /// Records `count` outcomes from any loss model.
    pub fn record(model: &mut dyn LossModel, count: usize) -> LossTrace {
        LossTrace {
            losses: (0..count).map(|_| model.next_is_lost()).collect(),
        }
    }

    /// The raw outcomes.
    pub fn losses(&self) -> &[bool] {
        &self.losses
    }

    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.losses.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.losses.is_empty()
    }

    /// Overall loss fraction.
    pub fn loss_rate(&self) -> f64 {
        if self.losses.is_empty() {
            return 0.0;
        }
        self.losses.iter().filter(|&&l| l).count() as f64 / self.losses.len() as f64
    }

    /// Lengths of the maximal loss bursts.
    pub fn burst_lengths(&self) -> Vec<usize> {
        self.run_lengths(true)
    }

    /// Lengths of the maximal runs of `state` (`true` = loss bursts).
    fn run_lengths(&self, state: bool) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = 0usize;
        for &l in &self.losses {
            if l == state {
                cur += 1;
            } else if cur > 0 {
                out.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            out.push(cur);
        }
        out
    }

    /// Transition statistics over consecutive packet pairs — the sufficient
    /// statistic for Gilbert maximum likelihood (and what online estimators
    /// maintain incrementally).
    pub fn transition_counts(&self) -> TransitionCounts {
        let mut counts = TransitionCounts::default();
        for w in self.losses.windows(2) {
            counts.record(w[0], w[1]);
        }
        counts
    }
}

/// Counts of the four consecutive-pair transitions of a loss process.
///
/// `good` / `bad` count pairs *leaving* the delivered / lost state, so
/// `p = good_to_bad / good` and `q = bad_to_good / bad` are the two-state
/// chain's maximum-likelihood estimates. Counts are additive: merging two
/// disjoint windows sums their fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransitionCounts {
    /// Pairs starting in the delivered state.
    pub good: u64,
    /// Pairs delivered → lost.
    pub good_to_bad: u64,
    /// Pairs starting in the lost state.
    pub bad: u64,
    /// Pairs lost → delivered.
    pub bad_to_good: u64,
}

impl TransitionCounts {
    /// Records one consecutive pair (`true` = lost).
    pub fn record(&mut self, first: bool, second: bool) {
        match (first, second) {
            (false, false) => self.good += 1,
            (false, true) => {
                self.good += 1;
                self.good_to_bad += 1;
            }
            (true, true) => self.bad += 1,
            (true, false) => {
                self.bad += 1;
                self.bad_to_good += 1;
            }
        }
    }

    /// Removes one previously recorded pair (for sliding windows).
    ///
    /// # Panics
    /// Panics (in debug builds) if the pair was never recorded.
    pub fn unrecord(&mut self, first: bool, second: bool) {
        match (first, second) {
            (false, false) => self.good -= 1,
            (false, true) => {
                self.good -= 1;
                self.good_to_bad -= 1;
            }
            (true, true) => self.bad -= 1,
            (true, false) => {
                self.bad -= 1;
                self.bad_to_good -= 1;
            }
        }
    }

    /// Total pairs recorded.
    pub fn total(&self) -> u64 {
        self.good + self.bad
    }

    /// True when both `p` and `q` are identifiable (each state was left at
    /// least once observed, i.e. appeared as a pair's first element).
    fn is_identifiable(&self) -> bool {
        self.good > 0 && self.bad > 0
    }

    /// The maximum-likelihood `(p, q)` point estimate, `None` while a state
    /// is unobserved.
    fn mle(&self) -> Option<(f64, f64)> {
        self.is_identifiable().then(|| {
            (
                self.good_to_bad as f64 / self.good as f64,
                self.bad_to_good as f64 / self.bad as f64,
            )
        })
    }
}

/// Fits a Gilbert model to a trace by transition counting (maximum
/// likelihood for a two-state chain):
/// `p = #(delivered → lost) / #delivered`, `q = #(lost → delivered) / #lost`
/// over consecutive pairs.
///
/// Returns an error if the trace has fewer than two packets or never visits
/// one of the states (the corresponding rate is unidentifiable).
pub fn fit_gilbert(trace: &LossTrace) -> Result<GilbertParams, ChannelError> {
    let xs = trace.losses();
    if xs.len() < 2 {
        return Err(ChannelError::BadProbability {
            name: "trace too short to fit",
            value: xs.len() as f64,
        });
    }
    let counts = trace.transition_counts();
    if counts.good == 0 {
        return Err(ChannelError::BadProbability {
            name: "trace never leaves the loss state; p unidentifiable",
            value: 0.0,
        });
    }
    if counts.bad == 0 {
        return Err(ChannelError::BadProbability {
            name: "trace has no losses; q unidentifiable",
            value: 0.0,
        });
    }
    let (p, q) = counts.mle().expect("both states observed");
    GilbertParams::new(p, q)
}

/// Replays a recorded trace as a [`LossModel`], cycling when exhausted.
#[derive(Debug, Clone)]
pub struct TraceChannel {
    trace: LossTrace,
    pos: usize,
}

impl TraceChannel {
    /// Wraps a trace for replay.
    ///
    /// # Panics
    /// Panics on an empty trace (nothing to replay).
    pub fn new(trace: LossTrace) -> TraceChannel {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        TraceChannel { trace, pos: 0 }
    }
}

impl LossModel for TraceChannel {
    fn next_is_lost(&mut self) -> bool {
        let lost = self.trace.losses()[self.pos];
        self.pos = (self.pos + 1) % self.trace.len();
        lost
    }

    fn global_loss_probability(&self) -> Option<f64> {
        Some(self.trace.loss_rate())
    }

    /// Same trace, replay phase-shifted by `salt` — forks share the
    /// recorded loss statistics but not the instantaneous loss pattern.
    fn fork(&self, salt: u64) -> Option<Box<dyn LossModel>> {
        let pos = (salt % self.trace.len() as u64) as usize;
        Some(Box::new(TraceChannel {
            trace: self.trace.clone(),
            pos,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GilbertChannel;

    #[test]
    fn fitter_recovers_synthetic_parameters() {
        let truth = GilbertParams::new(0.0109, 0.7915).unwrap(); // §6.2.1 values
        let mut ch = GilbertChannel::new(truth, 77);
        let trace = LossTrace::record(&mut ch, 2_000_000);
        let fit = fit_gilbert(&trace).unwrap();
        assert!((fit.p() - truth.p()).abs() < 0.002, "p fit {}", fit.p());
        assert!((fit.q() - truth.q()).abs() < 0.03, "q fit {}", fit.q());
    }

    #[test]
    fn fitter_rejects_degenerate_traces() {
        assert!(fit_gilbert(&LossTrace::new(vec![])).is_err());
        assert!(fit_gilbert(&LossTrace::new(vec![true])).is_err());
        assert!(fit_gilbert(&LossTrace::new(vec![false, false, false])).is_err());
        assert!(fit_gilbert(&LossTrace::new(vec![true, true, true])).is_err());
    }

    #[test]
    fn fitter_exact_on_small_trace() {
        // delivered, lost, lost, delivered, delivered
        //   transitions: d→l (1 of 3 from d... count pairs):
        //   (d,l) (l,l) (l,d) (d,d): n_good=2, g2b=1 -> p=0.5
        //   n_bad=2, b2g=1 -> q=0.5
        let t = LossTrace::new(vec![false, true, true, false, false]);
        let fit = fit_gilbert(&t).unwrap();
        assert_eq!((fit.p(), fit.q()), (0.5, 0.5));
    }

    #[test]
    fn trace_statistics() {
        let t = LossTrace::new(vec![false, true, true, false, true, false, false]);
        assert_eq!(t.len(), 7);
        assert!((t.loss_rate() - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.burst_lengths(), vec![2, 1]);
    }

    #[test]
    fn run_lengths_partition_the_trace() {
        let t = LossTrace::new(vec![false, true, true, false, true, false, false]);
        assert_eq!(t.run_lengths(false), vec![1, 1, 2]);
        assert_eq!(t.run_lengths(true), t.burst_lengths());
        let total: usize =
            t.burst_lengths().iter().sum::<usize>() + t.run_lengths(false).iter().sum::<usize>();
        assert_eq!(total, t.len());
    }

    #[test]
    fn transition_counts_match_fit() {
        let t = LossTrace::new(vec![false, true, true, false, false]);
        let c = t.transition_counts();
        assert_eq!((c.good, c.good_to_bad, c.bad, c.bad_to_good), (2, 1, 2, 1));
        assert_eq!(c.total(), 4);
        assert!(c.is_identifiable());
        let (p, q) = c.mle().unwrap();
        let fit = fit_gilbert(&t).unwrap();
        assert_eq!((p, q), (fit.p(), fit.q()));
    }

    #[test]
    fn transition_counts_slide_consistently() {
        // Recording then unrecording a pair returns to the prior counts, so
        // a sliding window can maintain counts incrementally.
        let mut c = TransitionCounts::default();
        c.record(false, true);
        c.record(true, true);
        let snapshot = c;
        c.record(true, false);
        c.unrecord(true, false);
        assert_eq!(c, snapshot);
        assert!(TransitionCounts::default().mle().is_none());
    }

    #[test]
    fn trailing_burst_is_counted() {
        let t = LossTrace::new(vec![false, true, true]);
        assert_eq!(t.burst_lengths(), vec![2]);
    }

    #[test]
    fn trace_channel_replays_and_cycles() {
        let t = LossTrace::new(vec![true, false, false]);
        let mut ch = TraceChannel::new(t);
        let got: Vec<bool> = (0..7).map(|_| ch.next_is_lost()).collect();
        assert_eq!(got, vec![true, false, false, true, false, false, true]);
        assert!((ch.global_loss_probability().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_replay_panics() {
        TraceChannel::new(LossTrace::new(vec![]));
    }

    #[test]
    fn record_then_replay_roundtrip() {
        let params = GilbertParams::new(0.2, 0.5).unwrap();
        let mut ch = GilbertChannel::new(params, 13);
        let trace = LossTrace::record(&mut ch, 500);
        let mut replay = TraceChannel::new(trace.clone());
        let replayed: Vec<bool> = (0..500).map(|_| replay.next_is_lost()).collect();
        assert_eq!(replayed, trace.losses());
    }
}
