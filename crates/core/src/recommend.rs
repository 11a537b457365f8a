//! The §6 decision procedure: which (code, transmission model, expansion
//! ratio) tuple to deploy.
//!
//! Two modes, mirroring the paper's two use cases:
//!
//! * [`recommend`] — rule-based, from the §6.1 summary. Instant, no
//!   simulation; the right tool when the channel is unknown (§6.2.2).
//! * [`MeasuredSelector`] — empirical, for a *known* channel (§6.2.1): run
//!   the actual simulator on candidate tuples at the channel's `(p, q)`,
//!   rank by the resulting optimal `n_sent`, and return ready-made
//!   [`TransmissionPlan`]s. This is exactly the paper's Fig. 15 workflow.

use fec_channel::{analysis::FeasibilityLimit, GilbertParams};
use fec_codec::{builtin, registry, CodecHandle};
use fec_sched::TxModel;
use fec_sim::{CellAccum, ExpansionRatio, Experiment, Runner, SimError};
use serde::{Deserialize, Serialize};

use crate::TransmissionPlan;

/// What the operator knows about the loss channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelKnowledge {
    /// Nothing — heterogeneous receivers, wireless, the general case.
    Unknown,
    /// Nothing precise, but very high loss rates are expected.
    UnknownHighLoss,
    /// A Gilbert fit of the channel (e.g. from traces, §3.2).
    Known(GilbertParams),
}

/// A ranked recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Recommended code.
    pub code: CodecHandle,
    /// Recommended transmission model.
    pub tx: TxModel,
    /// Recommended FEC expansion ratio.
    pub ratio: ExpansionRatio,
    /// Why (summarising the paper's findings).
    pub rationale: String,
}

/// Rule-based recommendations from the paper's §6.1 summary, best first.
///
/// The rules encoded here:
/// * unknown channel → `(LDGM Triangle, Tx4)` or `(LDGM Staircase, Tx6)` —
///   the schemes least dependent on the loss distribution;
/// * suspected very high loss → `(LDGM Triangle, Tx4)` at ratio 2.5;
/// * known low-loss channel → `(LDGM Staircase, Tx2)` (excellent there, but
///   risky at higher loss);
/// * RSE, when used at all, must use interleaving (Tx5) — never first
///   choice, since the best LDGM schemes beat it and are an order of
///   magnitude faster;
/// * Tx1 and Tx3 never appear ("of little interest in all cases").
pub fn recommend(knowledge: ChannelKnowledge) -> Vec<Recommendation> {
    match knowledge {
        ChannelKnowledge::Unknown => vec![
            rec(
                builtin::ldgm_triangle(),
                TxModel::Random,
                ExpansionRatio::R1_5,
                "Tx_model_4 with LDGM Triangle is the least dependent on the loss \
                 distribution; all receivers see almost the same performance (§6.2.2)",
            ),
            rec(
                builtin::ldgm_staircase(),
                TxModel::tx6_paper(),
                ExpansionRatio::R2_5,
                "Tx_model_6 with LDGM Staircase is the other distribution-insensitive \
                 scheme (§4.8); needs a high expansion ratio since only 20% of source \
                 packets are sent",
            ),
            rec(
                builtin::rse(),
                TxModel::Interleaved,
                ExpansionRatio::R2_5,
                "RSE with interleaving works everywhere but performance differs \
                 between receivers and lags the best LDGM schemes (§6.2.2)",
            ),
        ],
        ChannelKnowledge::UnknownHighLoss => vec![
            rec(
                builtin::ldgm_triangle(),
                TxModel::Random,
                ExpansionRatio::R2_5,
                "Tx_model_4 is preferred when, additionally, very high loss rates \
                 are suspected (§6.1); ratio 2.5 maximises the feasible region",
            ),
            rec(
                builtin::ldgm_staircase(),
                TxModel::Random,
                ExpansionRatio::R2_5,
                "LDGM Staircase under Tx_model_4 is flat across the grid, slightly \
                 behind Triangle (§4.6)",
            ),
        ],
        ChannelKnowledge::Known(params) => {
            recommend_known(params, params.global_loss_probability())
        }
    }
}

/// The §6.1 known-channel rules, evaluated against a *conservative* loss
/// estimate: `p_global_upper` is the worst loss rate the operator still
/// considers plausible (for an exact fit, the stationary rate itself; for
/// an online estimate, the upper edge of its confidence interval).
///
/// This is the entry point the `fec-adapt` controller drives: decision
/// thresholds (ratio selection, the low-loss regime split) use the upper
/// bound, so an uncertain estimate degrades gracefully toward the robust
/// high-loss tuples instead of gambling on the point estimate.
pub fn recommend_known(params: GilbertParams, p_global_upper: f64) -> Vec<Recommendation> {
    let p_global = p_global_upper.max(params.global_loss_probability());
    let mut out = Vec::new();
    // Prefer the smaller ratio when it leaves a comfortable margin
    // to the fundamental limit of §3.2 (1.25x the required rate).
    let ratio = if FeasibilityLimit::ideal(1.5).required_delivery_rate() * 1.25 <= 1.0 - p_global {
        ExpansionRatio::R1_5
    } else {
        ExpansionRatio::R2_5
    };
    if p_global < 0.05 {
        out.push(rec(
            builtin::ldgm_staircase(),
            TxModel::SourceSeqParityRandom,
            ratio,
            "low loss: Tx_model_2 with LDGM Staircase is the paper's best \
             tuple in this regime (§6.2.1, Fig. 15)",
        ));
        out.push(rec(
            builtin::ldgm_triangle(),
            TxModel::Random,
            ratio,
            "robust runner-up, much less sensitive to a mis-estimated \
             channel (§6.1)",
        ));
    } else {
        out.push(rec(
            builtin::ldgm_triangle(),
            TxModel::Random,
            ratio,
            "medium/high loss: Tx_model_4 with LDGM Triangle gives the best \
             and most stable inefficiency (§4.6)",
        ));
        out.push(rec(
            builtin::ldgm_staircase(),
            TxModel::tx6_paper(),
            ExpansionRatio::R2_5,
            "Tx_model_6 with LDGM Staircase is flat across loss patterns \
             (§4.8)",
        ));
    }
    out.push(rec(
        builtin::rse(),
        TxModel::Interleaved,
        ExpansionRatio::R2_5,
        "if RSE must be used (e.g. codec availability), always interleave \
         (§4.7)",
    ));
    out
}

/// Builds one [`Recommendation`] (shared by both rule entry points).
fn rec(code: CodecHandle, tx: TxModel, ratio: ExpansionRatio, rationale: &str) -> Recommendation {
    Recommendation {
        code,
        tx,
        ratio,
        rationale: rationale.to_string(),
    }
}

/// One measured candidate outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredChoice {
    /// Candidate code.
    pub code: CodecHandle,
    /// Candidate transmission model.
    pub tx: TxModel,
    /// Candidate expansion ratio.
    pub ratio: ExpansionRatio,
    /// Mean inefficiency over successful runs; `None` if every run failed.
    pub mean_inefficiency: Option<f64>,
    /// Runs that failed to decode (any failure disqualifies the tuple for
    /// reliable broadcast, per the paper's masking rule).
    pub failures: u32,
    /// Runs executed.
    pub runs: u32,
    /// The §6.2 plan for one receiver, from the measured law of
    /// `n_necessary` (only for fully successful tuples, and only when all
    /// `n` packets reach the plan's decode probability).
    pub plan: Option<TransmissionPlan>,
}

impl MeasuredChoice {
    /// True if every run decoded.
    pub fn is_reliable(&self) -> bool {
        self.failures == 0
    }
}

/// Empirical tuple selection for a known channel (§6.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredSelector {
    /// Object size (source packets) to simulate. Smaller than production is
    /// fine — inefficiency ratios converge quickly with k.
    pub k: usize,
    /// Monte-Carlo runs per candidate.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Candidate tuples to evaluate.
    pub candidates: Vec<(CodecHandle, TxModel, ExpansionRatio)>,
}

impl MeasuredSelector {
    /// A sensible default: every recommendable codec in the global
    /// registry, paired with its own
    /// [`candidate_tuples`](fec_codec::ErasureCode::candidate_tuples)
    /// (for the built-ins this reproduces the paper's §6.1 shortlist at
    /// both ratios, Tx6 included for Staircase). A third-party codec joins
    /// the selection simply by being registered; tuples outside a codec's
    /// supported `(k, ratio)` envelope are skipped rather than failing the
    /// whole selection.
    pub fn new(k: usize, runs: u32) -> MeasuredSelector {
        let mut candidates = Vec::new();
        for code in registry::candidates() {
            for (tx, ratio) in code.candidate_tuples() {
                if code.supports(k, ratio.as_f64()) {
                    candidates.push((code.clone(), tx, ratio));
                }
            }
        }
        MeasuredSelector {
            k,
            runs,
            seed: 0xBEA2,
            candidates,
        }
    }

    /// Evaluates every candidate on `channel`, returning reliable tuples
    /// first, ordered by the `n_sent` their plan needs (fewest packets on
    /// the wire wins — this is the actual bandwidth cost of reliability).
    ///
    /// Each plan reads the cell's whole law of `n_necessary`. Under
    /// Tx_model_4 the random order makes the need independent of where the
    /// losses fall, so the plan's decode probability is exact for the
    /// measured law; under the other orders it is an approximation.
    pub fn select(&self, channel: GilbertParams) -> Result<Vec<MeasuredChoice>, SimError> {
        let mut out = Vec::with_capacity(self.candidates.len());
        for (idx, (code, tx, ratio)) in self.candidates.iter().enumerate() {
            let (code, tx, ratio) = (code.clone(), *tx, *ratio);
            let exp = Experiment::new(code.clone(), self.k, ratio, tx).with_channel(channel);
            let runner = Runner::new(exp, Runner::DEFAULT_MATRIX_POOL.min(self.runs as usize))?;
            let seed = fec_sim::mix_seed(self.seed, &[idx as u64]);
            let mut accum = CellAccum::new(0);
            for run in 0..self.runs {
                let res = runner.run(seed, run as u64, false);
                accum.record(res.n_necessary, res.n_received);
            }
            let stats = accum.finalize(channel.p(), channel.q(), self.k, false);
            let (mean, failures) = (stats.mean_inefficiency_unmasked, stats.failures);
            let n_total = runner.layout().total_packets();
            let plan = TransmissionPlan::new(n_total, &stats.n_necessary, channel, 1)
                .filter(|_| failures == 0);
            out.push(MeasuredChoice {
                code,
                tx,
                ratio,
                mean_inefficiency: mean,
                failures,
                runs: self.runs,
                plan,
            });
        }
        // Reliable tuples first, then the fewest planned sends (with no
        // plan, the lowest mean inefficiency); ties go to large-block codes,
        // an order of magnitude faster to decode than blocked MDS (§6.2).
        out.sort_by_key(|c| {
            let n_sent = c.plan.map_or(u64::MAX, |p| p.n_sent);
            let mean = c.mean_inefficiency.filter(|_| c.plan.is_none());
            let mean = mean.map_or(u64::MAX, f64::to_bits);
            (!c.is_reliable(), n_sent, mean, !c.code.is_large_block())
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_channel_prefers_triangle_tx4() {
        let recs = recommend(ChannelKnowledge::Unknown);
        assert_eq!(recs[0].code, builtin::ldgm_triangle());
        assert_eq!(recs[0].tx, TxModel::Random);
        // Tx1/Tx3 never recommended.
        for r in &recs {
            assert!(!matches!(
                r.tx,
                TxModel::SourceSeqParitySeq | TxModel::ParitySeqSourceRandom
            ));
        }
    }

    #[test]
    fn high_loss_prefers_high_ratio_tx4() {
        let recs = recommend(ChannelKnowledge::UnknownHighLoss);
        assert_eq!(recs[0].tx, TxModel::Random);
        assert_eq!(recs[0].ratio, ExpansionRatio::R2_5);
    }

    #[test]
    fn known_low_loss_prefers_staircase_tx2() {
        let ch = GilbertParams::new(0.0109, 0.7915).unwrap(); // §6.2.1
        let recs = recommend(ChannelKnowledge::Known(ch));
        assert_eq!(recs[0].code, builtin::ldgm_staircase());
        assert_eq!(recs[0].tx, TxModel::SourceSeqParityRandom);
        assert_eq!(recs[0].ratio, ExpansionRatio::R1_5, "low loss affords 1.5");
    }

    #[test]
    fn known_heavy_loss_prefers_triangle_tx4_at_2_5() {
        let ch = GilbertParams::new(0.3, 0.5).unwrap(); // 37.5% loss
        let recs = recommend(ChannelKnowledge::Known(ch));
        assert_eq!(recs[0].code, builtin::ldgm_triangle());
        assert_eq!(recs[0].tx, TxModel::Random);
        assert_eq!(recs[0].ratio, ExpansionRatio::R2_5);
    }

    #[test]
    fn rse_always_comes_with_interleaving() {
        for knowledge in [
            ChannelKnowledge::Unknown,
            ChannelKnowledge::UnknownHighLoss,
            ChannelKnowledge::Known(GilbertParams::bernoulli(0.1).unwrap()),
        ] {
            for r in recommend(knowledge) {
                if r.code == builtin::rse() {
                    assert_eq!(r.tx, TxModel::Interleaved, "RSE must interleave");
                }
            }
        }
    }

    #[test]
    fn measured_selector_on_low_loss_channel() {
        // Small k, few runs: this is a smoke test of the machinery, the
        // full workflow lives in the fig15 bench.
        let sel = MeasuredSelector::new(600, 5);
        let ch = GilbertParams::new(0.0109, 0.7915).unwrap();
        let choices = sel.select(ch).unwrap();
        assert_eq!(choices.len(), sel.candidates.len());
        // Reliable tuples first, each with a plan.
        let first = &choices[0];
        assert!(first.is_reliable(), "top choice failed runs: {first:?}");
        let plan = first.plan.as_ref().unwrap();
        assert!(plan.decode_probability >= 1.0 - crate::PLAN_EPSILON);
        // At 1.35% loss the winner must be a ratio-1.5 scheme: its n_sent
        // beats every ratio-2.5 candidate by construction. (Which *code*
        // wins at k=600 is scale-dependent — RSE's coupon-collector penalty
        // only bites with many blocks; the paper-scale ranking is exercised
        // by the fig15 bench.)
        assert_eq!(first.ratio, ExpansionRatio::R1_5);
        // And the ranking is by n_sent among reliable tuples.
        let reliable: Vec<_> = choices.iter().filter(|c| c.is_reliable()).collect();
        for w in reliable.windows(2) {
            assert!(
                w[0].plan.as_ref().unwrap().n_sent <= w[1].plan.as_ref().unwrap().n_sent,
                "ranking violated"
            );
        }
    }

    #[test]
    fn measured_selector_disqualifies_hopeless_tuples() {
        // 60% IID loss: ratio 1.5 candidates cannot decode (required
        // delivery rate 2/3 > 40%).
        let sel = MeasuredSelector::new(300, 4);
        let ch = GilbertParams::bernoulli(0.6).unwrap();
        let choices = sel.select(ch).unwrap();
        for c in &choices {
            if c.ratio == ExpansionRatio::R1_5 {
                assert!(!c.is_reliable(), "{c:?} cannot be reliable at 60% loss");
                assert!(c.plan.is_none());
            }
        }
        // But some ratio-2.5 tuple survives (40% required, 40% delivered —
        // borderline; Tx6 with 20% sources won't, Tx4 2.5 needs inef*k <=
        // 0.4*2.5k = k exactly: infeasible too!). All candidates may fail;
        // the selector must still return a full, ordered list.
        assert_eq!(choices.len(), sel.candidates.len());
    }
}
