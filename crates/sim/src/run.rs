//! fec-audit: deny(panic)
//!
//! Single-experiment execution: channel → gate → schedule → structural
//! decode (head window, then the walk).

use std::cell::Cell;

use fec_channel::{GilbertChannel, GilbertParams, LossModel};
use fec_codec::{Decoding, StructuralFactory, StructuralSession};
use fec_sched::{Layout, PacketRef, RxModel, TxModel};

use crate::seed::mix_seed;
use crate::spec::SimError;
use crate::Experiment;

/// Sub-seed stream tags (see [`mix_seed`]).
const TAG_SCHED: u64 = 1;
const TAG_CHAN: u64 = 2;
const TAG_MATRIX: u64 = 3;

/// Outcome of one simulated transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Whether the receiver decoded the full object before the transmission
    /// ended.
    pub decoded: bool,
    /// Number of packets received when decoding completed (the paper's
    /// `n_necessary_for_decoding`); `None` if decoding never completed.
    pub n_necessary: Option<u64>,
    /// Total packets the channel delivered over the whole transmission.
    /// Only meaningful when the run was executed with `track_total`
    /// (otherwise it stops counting at decode completion).
    pub n_received: u64,
    /// Packets the sender transmitted (the schedule length).
    pub n_sent: u64,
}

impl RunResult {
    /// The paper's inefficiency ratio `n_necessary / k` (`None` on failure).
    pub fn inefficiency(&self, k: usize) -> Option<f64> {
        self.n_necessary.map(|n| n as f64 / k as f64)
    }
}

/// The §4.2 repetition baseline: no FEC at all, completion is "collected
/// all k distinct source packets". This is a transmission-model property,
/// not a codec, so it lives here rather than behind [`fec_codec`].
struct CouponCounting<'l> {
    layout: &'l Layout,
    seen: Vec<bool>,
    missing: usize,
}

impl StructuralSession for CouponCounting<'_> {
    fn add_batch(&mut self, batch: &[PacketRef]) -> Option<usize> {
        let mut done_at = None;
        for (i, &r) in batch.iter().enumerate() {
            let g = self.layout.global_index(r) as usize;
            let fresh = self.layout.is_source(r)
                && self
                    .seen
                    .get_mut(g)
                    .is_some_and(|seen| !std::mem::replace(seen, true));
            if fresh {
                self.missing -= 1;
            }
            if done_at.is_none() && self.missing == 0 {
                done_at = Some(i);
            }
        }
        done_at
    }
}

/// Prepared executor for one experiment: owns the layout and the codec's
/// [`StructuralFactory`] (matrix pools, partitions) so repeated runs
/// amortise construction.
///
/// `Runner` is immutable after construction and can be shared across sweep
/// threads (`&Runner` is `Sync`).
pub struct Runner {
    experiment: Experiment,
    layout: Layout,
    structural: Box<dyn StructuralFactory>,
}

impl Runner {
    /// Default number of independently-seeded code structures (LDGM
    /// matrices) per runner.
    ///
    /// The paper regenerates the graph per test; re-using a small pool
    /// round-robin keeps that variability at a fraction of the build cost.
    pub const DEFAULT_MATRIX_POOL: usize = 4;

    /// Prepares a runner, building a pool of `matrix_pool` code structures
    /// if the code needs them (pass [`Runner::DEFAULT_MATRIX_POOL`]
    /// normally).
    pub fn new(experiment: Experiment, matrix_pool: usize) -> Result<Runner, SimError> {
        let ratio = experiment.ratio.as_f64();
        let layout = experiment.code.layout(experiment.k, ratio)?;
        // Fixed base so every runner with equal (code, k, ratio) uses the
        // same structure pool — comparisons across transmission models
        // then hold the code instance constant.
        let seeds: Vec<u64> = (0..matrix_pool)
            .map(|i| mix_seed(0x5EED_BA5E, &[TAG_MATRIX, i as u64]))
            .collect();
        // The paper's decoder: every sweep, figure and table measures it.
        let structural =
            experiment
                .code
                .structural_factory(experiment.k, ratio, &seeds, Decoding::Iterative)?;
        Ok(Runner {
            experiment,
            layout,
            structural,
        })
    }

    /// The experiment this runner executes.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The packet layout (block structure).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Executes run number `run_idx` with the experiment's own channel.
    ///
    /// With `track_total = false` the walk stops at decode completion
    /// (faster); with `true` it consumes the whole schedule so
    /// [`RunResult::n_received`] reflects the full transmission.
    pub fn run(&self, master_seed: u64, run_idx: u64, track_total: bool) -> RunResult {
        self.run_with_channel(self.experiment.channel, master_seed, run_idx, track_total)
    }

    /// Executes run number `run_idx` against an explicit channel (used by
    /// grid sweeps, which vary the channel per cell).
    pub fn run_with_channel(
        &self,
        channel: GilbertParams,
        master_seed: u64,
        run_idx: u64,
        track_total: bool,
    ) -> RunResult {
        let sched_seed = mix_seed(master_seed, &[TAG_SCHED, run_idx]);
        let chan_seed = mix_seed(master_seed, &[TAG_CHAN, run_idx]);
        // Channel → gate → schedule → walk. The channel is local to the
        // run, and its fates depend only on the position index and
        // `chan_seed`, the schedule only on `sched_seed`: drawing a fate
        // before the schedule exists, or only when the walk reaches its
        // position, is unobservable. No codec completes from fewer than k
        // packets (the `StructuralSession` contract), so the gate draws
        // fates until it has counted k survivors, and a run the channel
        // leaves short of k is a failure without a schedule or a decode.
        let n_sent = self.experiment.tx.schedule_len(&self.layout);
        let k = self.experiment.k as u64;
        let mut gilbert = GilbertChannel::new(channel, chan_seed);
        let mut fates = Vec::with_capacity(n_sent as usize);
        let mut survivors = 0u64;
        while survivors < k && (fates.len() as u64) < n_sent {
            let lost = gilbert.next_is_lost();
            survivors += u64::from(!lost);
            fates.push(lost);
        }
        if survivors < k {
            return RunResult {
                decoded: false,
                n_necessary: None,
                n_received: survivors,
                n_sent,
            };
        }
        // The gate's k survivors move to the front of its positions in
        // place (as `Cell`s, read and written in one pass), so the walk's
        // head window is no second copy. Every later position draws its
        // fate when the walk reaches it.
        let mut schedule = self.experiment.tx.schedule(&self.layout, sched_seed);
        let drawn = fates.len().min(schedule.len());
        let (gated, later) = schedule.split_at_mut(drawn);
        let cells = Cell::from_mut(&mut *gated).as_slice_of_cells();
        let mut kept = 0;
        for (packet, &lost) in cells.iter().zip(&fates) {
            if let Some(slot) = cells.get(kept) {
                slot.set(packet.get());
            }
            kept += usize::from(!lost);
        }
        let (head, _) = gated.split_at(kept);
        let later = later
            .iter()
            .zip(std::iter::from_fn(|| Some(gilbert.next_is_lost())))
            .filter(|&(_, lost)| !lost)
            .map(|(&r, _)| r);
        self.walk(head, later, n_sent, run_idx, track_total)
    }

    /// Executes a §5 reception-model run: the arrival sequence is given
    /// directly, nothing is lost.
    pub fn run_reception(&self, rx: RxModel, master_seed: u64, run_idx: u64) -> RunResult {
        let rx_seed = mix_seed(master_seed, &[TAG_SCHED, run_idx]);
        let arrivals = rx.reception(&self.layout, rx_seed);
        let n_sent = arrivals.len() as u64;
        let (head, rest) = arrivals.split_at(arrivals.len().min(self.experiment.k));
        self.walk(head, rest.iter().copied(), n_sent, run_idx, false)
    }

    /// Survivor-window size for the batched walk past the head: big enough
    /// to amortise the per-call dispatch, small enough that an
    /// early-stopping run does not decode far past its completion point.
    const WALK_BATCH: usize = 128;

    /// Feeds the packets that arrived, in order, into a fresh structural
    /// decoding session ([`StructuralSession::add_batch`]): `head`, the
    /// first k of them, as one window (a session learns the packets before
    /// the k-th in one pass, as they cannot complete the object), then the
    /// `rest` in [`Runner::WALK_BATCH`]-sized windows; `n_sent` is the
    /// length of the transmission they survived.
    ///
    /// The completion index inside a window pins `n_necessary` to the
    /// packet. With `track_total = false` the walk stops at the completing
    /// packet; with `true` it counts every arrival, but decodes nothing
    /// past completion.
    fn walk(
        &self,
        head: &[PacketRef],
        mut rest: impl Iterator<Item = PacketRef>,
        n_sent: u64,
        run_idx: u64,
        track_total: bool,
    ) -> RunResult {
        let mut session = self.make_session(run_idx);
        let mut n_received = 0u64;
        let mut n_necessary = None;
        // One window; true once reception stops.
        let mut feed = |window: &[PacketRef]| {
            if n_necessary.is_none() {
                if let Some(done) = session.add_batch(window) {
                    let at = n_received + done as u64 + 1;
                    n_necessary = Some(at);
                    if !track_total {
                        // Reception stops at the completing packet.
                        n_received = at;
                        return true;
                    }
                }
            }
            n_received += window.len() as u64;
            false
        };
        let mut stopped = feed(head);
        let mut batch: Vec<PacketRef> = Vec::with_capacity(Self::WALK_BATCH);
        while !stopped {
            batch.clear();
            batch.extend(rest.by_ref().take(Self::WALK_BATCH));
            if batch.is_empty() {
                break;
            }
            stopped = feed(&batch);
        }
        RunResult {
            decoded: n_necessary.is_some(),
            n_necessary,
            n_received,
            n_sent,
        }
    }

    fn make_session(&self, run_idx: u64) -> Box<dyn StructuralSession + '_> {
        if matches!(self.experiment.tx, TxModel::RepeatSource { .. }) {
            // No FEC: parity never enters the schedule; completion is
            // "collected all k distinct source packets".
            return Box::new(CouponCounting {
                layout: &self.layout,
                seen: vec![false; self.layout.total_packets() as usize],
                missing: self.experiment.k,
            });
        }
        self.structural.session(run_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExpansionRatio;
    use fec_codec::{builtin, registry, CodecHandle};

    fn exp(code: CodecHandle, k: usize, ratio: ExpansionRatio, tx: TxModel) -> Experiment {
        Experiment::new(code, k, ratio, tx)
    }

    #[test]
    fn perfect_channel_tx1_is_exactly_k() {
        // Paper §4.3: "without loss (p = 0) the inefficiency ratio is 1.0
        // with all codes" under Tx_model_1.
        for code in registry::candidates() {
            let r = Runner::new(
                exp(
                    code.clone(),
                    500,
                    ExpansionRatio::R2_5,
                    TxModel::SourceSeqParitySeq,
                ),
                2,
            )
            .unwrap();
            let out = r.run(7, 0, false);
            assert!(out.decoded);
            assert_eq!(out.n_necessary, Some(500), "{code}");
            assert_eq!(out.inefficiency(500), Some(1.0));
        }
    }

    #[test]
    fn tx2_perfect_channel_also_exactly_k() {
        for code in registry::candidates() {
            let r = Runner::new(
                exp(
                    code.clone(),
                    300,
                    ExpansionRatio::R1_5,
                    TxModel::SourceSeqParityRandom,
                ),
                2,
            )
            .unwrap();
            let out = r.run(11, 0, false);
            assert_eq!(out.n_necessary, Some(300), "{code}");
        }
    }

    #[test]
    fn tx3_perfect_channel_matches_paper_section_4_5() {
        // Paper: with p = 0 under Tx_model_3 the inefficiency is ~1.5 at
        // ratio 2.5 for both families (parity is sent first; LDGM needs one
        // source packet, RSE needs k_b of the last block).
        let k = 500;
        for code in [builtin::ldgm_staircase(), builtin::ldgm_triangle()] {
            let r = Runner::new(
                exp(
                    code.clone(),
                    k,
                    ExpansionRatio::R2_5,
                    TxModel::ParitySeqSourceRandom,
                ),
                2,
            )
            .unwrap();
            let out = r.run(3, 0, false);
            // All n-k = 750 parity packets + exactly one source packet.
            assert_eq!(out.n_necessary, Some(751), "{code}");
        }
        let r = Runner::new(
            exp(
                builtin::rse(),
                k,
                ExpansionRatio::R2_5,
                TxModel::ParitySeqSourceRandom,
            ),
            2,
        )
        .unwrap();
        let out = r.run(3, 0, false);
        let inef = out.inefficiency(k).unwrap();
        assert!((1.4..=1.6).contains(&inef), "RSE Tx3 inefficiency {inef}");
    }

    #[test]
    fn lossy_channel_needs_more_than_k() {
        let ch = GilbertParams::new(0.05, 0.5).unwrap();
        let r = Runner::new(
            exp(
                builtin::ldgm_staircase(),
                1000,
                ExpansionRatio::R2_5,
                TxModel::Random,
            ),
            2,
        )
        .unwrap();
        let out = r.run_with_channel(ch, 5, 0, false);
        assert!(out.decoded);
        assert!(out.n_necessary.unwrap() > 1000);
    }

    #[test]
    fn hopeless_channel_fails() {
        // q = 0: after the first loss, everything is lost. With p = 0.5 the
        // receiver gets only a handful of packets.
        let ch = GilbertParams::new(0.5, 0.0).unwrap();
        let r = Runner::new(
            exp(
                builtin::ldgm_staircase(),
                200,
                ExpansionRatio::R2_5,
                TxModel::Random,
            ),
            2,
        )
        .unwrap();
        let out = r.run_with_channel(ch, 5, 0, true);
        assert!(!out.decoded);
        assert_eq!(out.n_necessary, None);
        assert!(out.n_received < 200);
    }

    #[test]
    fn early_exit_equals_the_full_walk() {
        // Reference: the schedule first, one fate drawn per schedule entry,
        // every arrival fed one packet at a time, no gate and no exit.
        fn full_walk(r: &Runner, ch: GilbertParams, seed: u64, run: u64, track: bool) -> RunResult {
            let schedule = r
                .experiment
                .tx
                .schedule(&r.layout, mix_seed(seed, &[TAG_SCHED, run]));
            let mut gilbert = GilbertChannel::new(ch, mix_seed(seed, &[TAG_CHAN, run]));
            let mut session = r.make_session(run);
            let (mut n_received, mut n_necessary) = (0, None);
            for &packet in &schedule {
                if !gilbert.next_is_lost() {
                    n_received += 1;
                    if n_necessary.is_none() && session.add_batch(&[packet]).is_some() {
                        n_necessary = Some(n_received);
                    }
                }
            }
            RunResult {
                decoded: n_necessary.is_some(),
                n_necessary,
                n_received: if track {
                    n_received
                } else {
                    n_necessary.unwrap_or(n_received)
                },
                n_sent: schedule.len() as u64,
            }
        }
        let k = 200;
        let mut decoded = 0;
        for (code, ratio, tx) in [
            (
                builtin::ldgm_triangle(),
                ExpansionRatio::R1_5,
                TxModel::Random,
            ),
            (
                builtin::ldgm_staircase(),
                ExpansionRatio::R1_5,
                TxModel::SourceSeqParityRandom,
            ),
            (builtin::rse(), ExpansionRatio::R1_5, TxModel::Interleaved),
            (
                builtin::ldgm_triangle(),
                ExpansionRatio::R2_5,
                TxModel::tx6_paper(),
            ),
            (
                builtin::rse(),
                ExpansionRatio::R1_5,
                TxModel::RepeatSource { copies: 2 },
            ),
            // Exactly k sent: a lossless run decodes with exactly k
            // survivors, the gate's boundary.
            (
                builtin::rse(),
                ExpansionRatio::R1_5,
                TxModel::RepeatSource { copies: 1 },
            ),
        ] {
            let r = Runner::new(exp(code, k, ratio, tx), 2).unwrap();
            let mut hopeless = 0;
            for p in [0.0, 0.05, 0.3, 0.6] {
                for q in [0.05, 0.3, 0.9] {
                    let ch = GilbertParams::new(p, q).unwrap();
                    for run in 0..4 {
                        for track in [false, true] {
                            let got = r.run_with_channel(ch, 17, run, track);
                            assert_eq!(got, full_walk(&r, ch, 17, run, track), "{tx} p={p} q={q}");
                            if got.decoded {
                                decoded += 1;
                            } else if got.n_received < k as u64 {
                                hopeless += 1;
                            }
                        }
                    }
                }
            }
            assert!(hopeless > 0, "{tx}: no run took the short path");
        }
        assert!(decoded > 0, "no run decoded");
    }

    #[test]
    fn track_total_consumes_whole_schedule() {
        let r = Runner::new(
            exp(
                builtin::rse(),
                100,
                ExpansionRatio::R1_5,
                TxModel::Interleaved,
            ),
            1,
        )
        .unwrap();
        let full = r.run(1, 0, true);
        assert_eq!(full.n_received, full.n_sent); // perfect channel
        let short = r.run(1, 0, false);
        assert!(short.n_received <= full.n_received);
    }

    #[test]
    fn repetition_baseline_decodes_only_when_all_coupons_collected() {
        let r = Runner::new(
            exp(
                builtin::ldgm_staircase(),
                100,
                ExpansionRatio::R2_5,
                TxModel::RepeatSource { copies: 2 },
            ),
            1,
        )
        .unwrap();
        let out = r.run(9, 0, false);
        assert!(out.decoded, "no loss: all coupons arrive");
        assert_eq!(out.n_sent, 200);
        // Must wait for the last distinct coupon; with 2 copies shuffled the
        // expected completion is deep into the stream.
        assert!(out.n_necessary.unwrap() > 100);
    }

    #[test]
    fn repetition_baseline_completes_at_the_last_new_coupon() {
        // On a perfect channel the no-FEC run completes one past the packet
        // that brings the last distinct source symbol of the schedule the
        // run walks (it holds no parity). k = 300 puts that point past the
        // first `WALK_BATCH` window.
        let tx = TxModel::RepeatSource { copies: 2 };
        let r = Runner::new(exp(builtin::rse(), 300, ExpansionRatio::R2_5, tx), 1).unwrap();
        for (master, run_idx) in [(9, 0), (9, 1), (21, 5)] {
            let schedule = tx.schedule(&r.layout, mix_seed(master, &[TAG_SCHED, run_idx]));
            let mut seen = vec![false; r.layout.total_packets() as usize];
            let last_new = (0..schedule.len())
                .filter(|&i| {
                    !std::mem::replace(&mut seen[r.layout.global_index(schedule[i]) as usize], true)
                })
                .last()
                .unwrap();
            assert!(last_new >= Runner::WALK_BATCH, "{last_new}");
            for track_total in [false, true] {
                let got = r.run(master, run_idx, track_total).n_necessary;
                assert_eq!(got, Some(last_new as u64 + 1), "{master}/{run_idx}");
            }
        }
    }

    #[test]
    fn repetition_fails_with_any_burst_loss() {
        // fig 7's point: with p > 0 some source packet loses both copies.
        let ch = GilbertParams::new(0.2, 0.3).unwrap();
        let r = Runner::new(
            exp(
                builtin::ldgm_staircase(),
                500,
                ExpansionRatio::R2_5,
                TxModel::RepeatSource { copies: 2 },
            ),
            1,
        )
        .unwrap();
        let failures = (0..10)
            .filter(|&i| !r.run_with_channel(ch, 3, i, true).decoded)
            .count();
        assert!(failures >= 8, "only {failures}/10 failed");
    }

    #[test]
    fn reception_model_runs_without_channel() {
        let r = Runner::new(
            exp(
                builtin::ldgm_staircase(),
                200,
                ExpansionRatio::R2_5,
                TxModel::Random,
            ),
            2,
        )
        .unwrap();
        let out = r.run_reception(RxModel::SourceThenParityRandom { num_source: 20 }, 5, 0);
        assert!(out.decoded);
        assert_eq!(out.n_sent, 20 + 300);
    }

    #[test]
    fn ldgm_parity_only_reception_fails() {
        let r = Runner::new(
            exp(
                builtin::ldgm_staircase(),
                200,
                ExpansionRatio::R2_5,
                TxModel::Random,
            ),
            2,
        )
        .unwrap();
        let out = r.run_reception(RxModel::ParityOnlyRandom, 5, 0);
        assert!(!out.decoded, "LDGM cannot decode from parity alone");
    }

    #[test]
    fn rse_parity_only_reception_succeeds_at_ratio_2_5() {
        // n - k >= k per block at ratio 2.5, so RSE decodes from parity only
        // (paper §4.5: RSE can be used as a non-systematic code).
        let r = Runner::new(
            exp(builtin::rse(), 200, ExpansionRatio::R2_5, TxModel::Random),
            1,
        )
        .unwrap();
        let out = r.run_reception(RxModel::ParityOnlyRandom, 5, 0);
        assert!(out.decoded);
    }

    #[test]
    fn deterministic_runs() {
        let r = Runner::new(
            exp(
                builtin::ldgm_triangle(),
                300,
                ExpansionRatio::R2_5,
                TxModel::Random,
            ),
            2,
        )
        .unwrap();
        let ch = GilbertParams::new(0.1, 0.5).unwrap();
        let a = r.run_with_channel(ch, 42, 3, true);
        let b = r.run_with_channel(ch, 42, 3, true);
        assert_eq!(a, b);
        let c = r.run_with_channel(ch, 43, 3, true);
        assert_ne!(a, c);
    }

    #[test]
    fn runner_validation() {
        assert!(Runner::new(
            exp(
                builtin::ldgm_staircase(),
                10,
                ExpansionRatio::Custom(1.1),
                TxModel::Random
            ),
            2
        )
        .is_err()); // only 1 check equation
        assert!(Runner::new(
            exp(
                builtin::ldgm_staircase(),
                100,
                ExpansionRatio::R2_5,
                TxModel::Random
            ),
            0
        )
        .is_err()); // empty matrix pool
    }
}
