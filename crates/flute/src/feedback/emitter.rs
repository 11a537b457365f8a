//! fec-audit: deny(panic)
//!
//! Receiver-side digest batching.
//!
//! A [`ReportEmitter`] rides along the receive path (enable it with
//! [`FluteReceiver::enable_reports`](crate::FluteReceiver::enable_reports)
//! or drive it standalone via [`observe_on`](ReportEmitter::observe_on)): every
//! datagram's EXT_SEQ is compared against the expected next sequence
//! number, turning the gap structure into the loss run sketch, while
//! per-TOI counters accumulate. Digests are batched — one per
//! [`report_every`](ReportConfig::report_every) observed datagrams via
//! [`poll`](ReportEmitter::poll), or on demand via
//! [`flush`](ReportEmitter::flush) (the caller's timer) — so the return
//! channel carries a trickle, not a mirror, of the forward traffic.
//!
//! Reordered or duplicated *forward* datagrams (EXT_SEQ at or below the
//! highest already seen) count as received for their TOI but do not enter
//! the sketch: the gap they once left was already recorded as a loss, so
//! late arrivals bias the estimate slightly pessimistic — the safe
//! direction for FEC provisioning.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use fec_telemetry::Registry;

use super::wire::{LossRun, NackEntry, ReceptionReport, ReportEntry, SEQ_MODULUS};
use crate::metrics::EmitterMetrics;
use crate::FDT_TOI;

/// Loss runs retained per session for residual (post-FEC) attribution.
/// Beyond this the oldest are folded into the repaired count (the common
/// fate) to bound memory.
const MAX_RESIDUAL_RUNS: usize = 4096;

/// Upper bound on per-path sequence tracks, so a buggy or hostile path
/// index cannot balloon memory; observations at or above the cap fold
/// into the last track (and trip a debug assertion first). Whoever
/// assigns path indices — one per receive socket — must stay below it.
pub const MAX_PATH_TRACKS: usize = 64;

/// EXT_SEQ tracking state for **one** path's sequence space.
///
/// A bonded sender stamps an independent EXT_SEQ counter per path, so
/// gap detection is only meaningful within a path: mixing spaces would
/// let a gap on path A register as loss (or mask reordering) on path B.
/// The emitter therefore keeps one `SeqTrack` per observed path — the
/// single-path session is simply path 0.
#[derive(Debug, Default, Clone, Copy)]
struct SeqTrack {
    /// Next EXT_SEQ expected on this path (modulo [`SEQ_MODULUS`]);
    /// `None` until the first sequenced datagram arrives on the path.
    expected: Option<u32>,
    highest: Option<u32>,
}

/// Emitter tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportConfig {
    /// Emit a digest every this many observed datagrams ([`poll`]
    /// threshold; [`flush`] ignores it).
    ///
    /// [`poll`]: ReportEmitter::poll
    /// [`flush`]: ReportEmitter::flush
    pub report_every: usize,
    /// Run-sketch capacity per digest; overflowing drops the oldest runs
    /// and sets the digest's `truncated` flag.
    pub max_runs: usize,
    /// The receiver's belief about the session population size. Above 1
    /// the [`poll`](ReportEmitter::poll) threshold is scaled by
    /// `n / log₂ n`, so the *aggregate* digest rate across n receivers
    /// stays O(log n) instead of O(n) — the RTCP-style suppression that
    /// keeps a million-receiver return channel from melting the sender.
    pub population_hint: u64,
    /// Seed for the deterministic per-receiver threshold jitter (±25%),
    /// which de-synchronises the report times of receivers that joined
    /// together. 0 disables jitter; real deployments should use a
    /// per-receiver value.
    pub jitter_seed: u64,
    /// Maximum exponential-backoff doublings of the report interval
    /// while the channel stays loss-free. Quiet receivers go quieter
    /// (each clean digest doubles the next threshold, up to
    /// 2^max_backoff_exp); the first observed loss snaps the backoff —
    /// and the current threshold — back to base, so bad news still
    /// travels fast. 0 disables backoff.
    pub max_backoff_exp: u32,
}

impl Default for ReportConfig {
    fn default() -> ReportConfig {
        ReportConfig {
            report_every: 256,
            max_runs: 2048,
            population_hint: 1,
            jitter_seed: 0,
            max_backoff_exp: 0,
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ToiCounters {
    received: u32,
    lost: u32,
    complete: bool,
}

/// Batches per-packet observations into [`ReceptionReport`] digests.
#[derive(Debug)]
pub struct ReportEmitter {
    tsi: u32,
    config: ReportConfig,
    next_report_seq: u32,
    /// Per-path EXT_SEQ tracking, lazily grown; index = path. See
    /// [`SeqTrack`] for the invariant.
    tracks: Vec<SeqTrack>,
    counters: BTreeMap<u32, ToiCounters>,
    runs: VecDeque<LossRun>,
    truncated: bool,
    observed_since_report: usize,
    session_complete: bool,
    observed_ever: bool,
    /// Anything reportable happened since the last built digest. Guards
    /// [`flush`](Self::flush) against minting a duplicate near-empty
    /// digest when the caller's timer fires in the same tick as a
    /// threshold [`poll`](Self::poll).
    dirty: bool,
    /// Consecutive digests whose sketch saw no loss (drives backoff).
    quiet_streak: u32,
    loss_since_report: bool,
    /// The effective poll threshold for the current interval (base ×
    /// population scale × backoff ± jitter).
    threshold: usize,
    /// Missing-ESI lists to attach to the next digest (NACK mode).
    pending_nacks: Vec<NackEntry>,
    metrics: EmitterMetrics,
    /// Loss runs not yet claimed by a completed object: `(attributed
    /// TOI, run length)`, oldest first. The digest wire format never
    /// carries this; [`finalize_residual`](Self::finalize_residual)
    /// reports it.
    residual_runs: VecDeque<(u32, u32)>,
}

impl ReportEmitter {
    /// An emitter for session `tsi`.
    pub fn new(tsi: u32, config: ReportConfig) -> ReportEmitter {
        let mut em = ReportEmitter {
            tsi,
            config: ReportConfig {
                report_every: config.report_every.max(1),
                max_runs: config.max_runs.max(2),
                ..config
            },
            next_report_seq: 1,
            tracks: Vec::new(),
            counters: BTreeMap::new(),
            runs: VecDeque::new(),
            truncated: false,
            observed_since_report: 0,
            session_complete: false,
            observed_ever: false,
            dirty: false,
            quiet_streak: 0,
            loss_since_report: false,
            threshold: 0,
            pending_nacks: Vec::new(),
            metrics: EmitterMetrics::register(&Registry::disabled()),
            residual_runs: VecDeque::new(),
        };
        em.threshold = em.next_threshold();
        em
    }

    /// Starts recording this emitter's loss-process observations into
    /// `registry`: EXT_SEQ gap counters, the link loss-run-length
    /// histogram, and the repaired-vs-residual run accounting (see
    /// [`finalize_residual`](Self::finalize_residual)). Runs observed
    /// before the call are still attributed: the residual accounting runs
    /// whether or not a registry is attached.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = EmitterMetrics::register(registry);
    }

    /// Records one received datagram of the session that arrived on
    /// bonded path `path` (0 on a single-path session): its TOI and its
    /// EXT_SEQ (if the sender attached one).
    ///
    /// Each path carries its own EXT_SEQ sequence space, so the gap
    /// computation uses that path's track only: a gap on path A must
    /// never register loss — or be misread as reordering — on path B.
    /// TOI counters and the loss-run sketch are shared across paths (the
    /// digest describes the session as a whole); only sequence tracking
    /// is per-path.
    pub fn observe_on(&mut self, path: usize, toi: u32, seq: Option<u32>) {
        debug_assert!(
            path < MAX_PATH_TRACKS,
            "path index {path} exceeds the per-path track cap"
        );
        let path = path.min(MAX_PATH_TRACKS - 1);
        self.observed_ever = true;
        self.dirty = true;
        self.observed_since_report += 1;
        let c = self.counters.entry(toi).or_default();
        c.received = c.received.saturating_add(1);
        let Some(seq) = seq else {
            // No sequencing: the sketch cannot see losses, but the packet
            // itself was delivered.
            self.push_run(false, 1, toi);
            return;
        };
        let seq = seq % SEQ_MODULUS;
        let mut track = self.tracks.get(path).copied().unwrap_or_default();
        match track.expected {
            None => {
                // First sequenced datagram on this path: everything
                // before it is unknowable (we may have joined
                // mid-session, or the path just came up), so the
                // path's sketch contribution starts here.
                self.push_run(false, 1, toi);
                track.expected = Some((seq + 1) % SEQ_MODULUS);
                track.highest = Some(seq);
            }
            Some(expected) => {
                let gap = (seq.wrapping_sub(expected)) % SEQ_MODULUS;
                if gap >= SEQ_MODULUS / 2 {
                    // At or behind the highest seen *on this path*: a
                    // duplicate or a reordered late arrival. Its loss was
                    // already sketched; leave the pattern alone.
                    self.metrics.late_or_duplicate.inc();
                    return;
                }
                if gap > 0 {
                    self.metrics.seq_gaps.inc();
                    self.metrics.lost_packets.add(gap as u64);
                    self.push_run(true, gap, toi);
                }
                self.push_run(false, 1, toi);
                track.expected = Some((seq + 1) % SEQ_MODULUS);
                track.highest = Some(seq);
            }
        }
        if self.tracks.len() <= path {
            self.tracks.resize_with(path + 1, SeqTrack::default);
        }
        if let Some(slot) = self.tracks.get_mut(path) {
            *slot = track;
        }
    }

    /// Marks one object as fully decoded: the loss runs attributed to it
    /// so far, and any after, count as repaired.
    pub fn mark_complete(&mut self, toi: u32) {
        self.dirty = true;
        self.counters.entry(toi).or_default().complete = true;
        // Every loss run attributed to this object is now known repaired:
        // the erasure code filled the gaps.
        let before = self.residual_runs.len();
        self.residual_runs.retain(|&(t, _)| t != toi);
        self.metrics
            .repaired_runs
            .add((before - self.residual_runs.len()) as u64);
    }

    /// Folds the loss runs of still-undecoded objects into the residual
    /// (post-FEC) loss histogram. Call once at session end.
    pub fn finalize_residual(&mut self) {
        for (_, len) in self.residual_runs.drain(..) {
            self.metrics.residual_run_length.observe(len as f64);
            self.metrics.residual_lost_packets.add(len as u64);
        }
    }

    /// Marks the whole session as complete (every FDT-listed object
    /// decoded) — sets the FIN flag on subsequent digests.
    pub fn mark_session_complete(&mut self) {
        self.dirty = true;
        self.session_complete = true;
    }

    /// Replaces the missing-ESI lists attached to the next digest (NACK
    /// mode). Callers snapshot their decoder's incomplete blocks right
    /// before polling; the lists are dropped once a digest carries them.
    pub fn set_nacks(&mut self, nacks: Vec<NackEntry>) {
        if !nacks.is_empty() {
            self.dirty = true;
        }
        self.pending_nacks = nacks;
    }

    /// Like [`set_nacks`](Self::set_nacks), but an *unchanged* missing
    /// set is not news: it rides along with whatever digest goes out
    /// next instead of making the next timer flush emit one. Callers use
    /// this when the snapshot equals what they last attached.
    pub fn carry_nacks(&mut self, nacks: Vec<NackEntry>) {
        self.pending_nacks = nacks;
    }

    /// Emits a digest if the batching threshold has been reached. With a
    /// [`population_hint`](ReportConfig::population_hint) above 1 and/or
    /// backoff enabled, the effective threshold is the suppressed one —
    /// see [`current_threshold`](Self::current_threshold).
    pub fn poll(&mut self) -> Option<ReceptionReport> {
        (self.observed_since_report >= self.threshold).then(|| self.build())
    }

    /// Emits a digest now regardless of the threshold (the caller's timer
    /// tick, or the final FIN digest). Returns `None` before any
    /// observation at all, and — the same-tick dedup — when nothing
    /// reportable happened since the previous digest, so a timer firing
    /// right after a threshold [`poll`](Self::poll) cannot mint a
    /// near-empty duplicate. FIN digests are exempt: once the session
    /// completes every flush emits, because the live loop re-sends the
    /// final digest over the lossy return channel on purpose.
    pub fn flush(&mut self) -> Option<ReceptionReport> {
        (self.observed_ever && (self.dirty || self.session_complete)).then(|| self.build())
    }

    /// The number of observations the next [`poll`](Self::poll) waits
    /// for: `report_every` scaled by the population hint and the current
    /// backoff, jittered.
    pub fn current_threshold(&self) -> usize {
        self.threshold
    }

    fn push_run(&mut self, lost: bool, len: u32, attributed_toi: u32) {
        if lost {
            if !self.loss_since_report {
                // Bad news travels fast: the first loss of the interval
                // cancels any quiet-channel backoff immediately, so the
                // sender hears about trouble at the base cadence.
                self.loss_since_report = true;
                self.quiet_streak = 0;
                self.threshold = self.threshold.min(self.base_threshold());
            }
            let c = self.counters.entry(attributed_toi).or_default();
            c.lost = c.lost.saturating_add(len);
            let repaired = c.complete;
            // Each gap is one complete link-level loss run (runs can only
            // merge across a digest boundary, which is rare and biases the
            // histogram short, never long).
            self.metrics.loss_run_length.observe(len as f64);
            if repaired {
                // A gap attributed to an object already decoded (a
                // carousel's later cycle) cost it nothing.
                self.metrics.repaired_runs.inc();
            } else if attributed_toi != FDT_TOI {
                if self.residual_runs.len() == MAX_RESIDUAL_RUNS {
                    self.residual_runs.pop_front();
                    self.metrics.repaired_runs.inc();
                }
                self.residual_runs.push_back((attributed_toi, len));
            }
        }
        match self.runs.back_mut() {
            Some(last) if last.lost == lost => last.len = last.len.saturating_add(len),
            _ => {
                self.runs.push_back(LossRun { lost, len });
                if self.runs.len() > self.config.max_runs {
                    self.runs.pop_front();
                    self.truncated = true;
                    self.metrics.sketch_truncations.inc();
                }
            }
        }
    }

    fn build(&mut self) -> ReceptionReport {
        let report = ReceptionReport {
            tsi: self.tsi,
            report_seq: self.next_report_seq,
            // The digest's single highest-seq field reports path 0 — the
            // primary path in a bond, the only path otherwise. Per-path
            // loss still reaches the sender through the run sketch.
            highest_seq: self.tracks.first().and_then(|t| t.highest),
            session_complete: self.session_complete,
            truncated: self.truncated,
            entries: self
                .counters
                .iter()
                .map(|(&toi, c)| ReportEntry {
                    toi,
                    received: c.received,
                    lost: c.lost,
                    complete: c.complete,
                })
                .collect(),
            runs: self.runs.iter().copied().collect(),
            nacks: std::mem::take(&mut self.pending_nacks),
        };
        self.metrics.digests.inc();
        // Digests this one replaced versus the unsuppressed base cadence:
        // the feedback traffic the population scheme saved.
        let base = self.config.report_every.max(1);
        self.metrics
            .suppressed
            .add((self.observed_since_report / base).saturating_sub(1) as u64);
        self.next_report_seq = self.next_report_seq.wrapping_add(1);
        self.runs.clear();
        self.truncated = false;
        self.observed_since_report = 0;
        self.dirty = false;
        if self.loss_since_report {
            self.quiet_streak = 0;
        } else {
            self.quiet_streak = self.quiet_streak.saturating_add(1);
        }
        self.loss_since_report = false;
        self.threshold = self.next_threshold();
        report
    }

    /// The unjittered base threshold: `report_every` scaled by
    /// `n / log₂ n` for a population hint of n.
    fn base_threshold(&self) -> usize {
        let base = self.config.report_every.max(1) as u64;
        let n = self.config.population_hint.max(1);
        let scale = if n >= 2 {
            let log2 = (64 - n.leading_zeros() as u64).max(1);
            (n / log2).max(1)
        } else {
            1
        };
        base.saturating_mul(scale).min(usize::MAX as u64) as usize
    }

    /// The next interval's effective threshold: base × 2^backoff, with
    /// deterministic ±25% jitter keyed on the seed and the digest number.
    fn next_threshold(&mut self) -> usize {
        let backoff = self.quiet_streak.min(self.config.max_backoff_exp);
        let mut t = (self.base_threshold() as u64)
            .saturating_mul(1u64 << backoff.min(32))
            .min(usize::MAX as u64 / 2);
        if self.config.jitter_seed != 0 && t >= 4 {
            // xorshift64* on (seed, digest number): cheap, deterministic,
            // and different across receivers with different seeds.
            let mut x = self
                .config
                .jitter_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.next_report_seq as u64)
                | 1;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Uniform in [0.75·t, 1.25·t).
            t = t * 3 / 4 + r % (t / 2).max(1);
        }
        t.max(1).min(usize::MAX as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_detection_builds_the_loss_sketch() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        // Sequences 0,1,2 then a 3-packet gap, then 6,7.
        for s in [0u32, 1, 2, 6, 7] {
            em.observe_on(0, 1, Some(s));
        }
        let r = em.flush().unwrap();
        assert_eq!(
            r.runs,
            vec![
                LossRun {
                    lost: false,
                    len: 3
                },
                LossRun { lost: true, len: 3 },
                LossRun {
                    lost: false,
                    len: 2
                },
            ]
        );
        assert_eq!(r.entries.len(), 1);
        assert_eq!((r.entries[0].received, r.entries[0].lost), (5, 3));
        assert_eq!(r.highest_seq, Some(7));
        assert_eq!(r.report_seq, 1);
        // The sketch resets per digest; counters are cumulative.
        em.observe_on(0, 1, Some(8));
        let r2 = em.flush().unwrap();
        assert_eq!(r2.report_seq, 2);
        assert_eq!(r2.runs.len(), 1);
        assert_eq!(r2.entries[0].received, 6);
        assert_eq!(r2.entries[0].lost, 3);
    }

    #[test]
    fn duplicates_and_reordering_do_not_enter_the_sketch() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        for s in [0u32, 1, 4, 4, 2] {
            em.observe_on(0, 1, Some(s));
        }
        let r = em.flush().unwrap();
        // 0,1 delivered; 2,3 gapped; 4 delivered; dup 4 and late 2 ignored
        // by the sketch but counted as received.
        assert_eq!(
            r.runs,
            vec![
                LossRun {
                    lost: false,
                    len: 2
                },
                LossRun { lost: true, len: 2 },
                LossRun {
                    lost: false,
                    len: 1
                },
            ]
        );
        assert_eq!(r.entries[0].received, 5);
    }

    #[test]
    fn sequence_wraparound_is_a_gap_not_a_reorder() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(0, 1, Some(SEQ_MODULUS - 2));
        em.observe_on(0, 1, Some(SEQ_MODULUS - 1));
        em.observe_on(0, 1, Some(1)); // seq 0 lost across the wrap
        let r = em.flush().unwrap();
        assert_eq!(
            r.runs,
            vec![
                LossRun {
                    lost: false,
                    len: 2
                },
                LossRun { lost: true, len: 1 },
                LossRun {
                    lost: false,
                    len: 1
                },
            ]
        );
        assert_eq!(r.highest_seq, Some(1));
    }

    #[test]
    fn poll_batches_on_threshold() {
        let mut em = ReportEmitter::new(
            7,
            ReportConfig {
                report_every: 10,
                ..ReportConfig::default()
            },
        );
        assert!(em.flush().is_none(), "nothing observed yet");
        for s in 0..9u32 {
            em.observe_on(0, 1, Some(s));
            assert!(em.poll().is_none());
        }
        em.observe_on(0, 1, Some(9));
        let r = em.poll().expect("threshold reached");
        assert_eq!(r.observations(), 10);
        assert!(em.poll().is_none(), "threshold resets");
    }

    #[test]
    fn sketch_overflow_truncates_oldest_and_flags_it() {
        let mut em = ReportEmitter::new(
            7,
            ReportConfig {
                report_every: 1_000_000,
                max_runs: 4,
                ..ReportConfig::default()
            },
        );
        // Alternating delivered/lost: every observation is a new run.
        for i in 0..10u32 {
            em.observe_on(0, 1, Some(i * 2)); // gap of 1 before each after the first
        }
        let r = em.flush().unwrap();
        assert!(r.truncated);
        assert_eq!(r.runs.len(), 4);
        // Counters stay exact despite sketch truncation.
        assert_eq!(r.entries[0].received, 10);
        assert_eq!(r.entries[0].lost, 9);
    }

    #[test]
    fn completion_flags_propagate() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(0, 0, Some(0));
        em.observe_on(0, 1, Some(1));
        em.mark_complete(1);
        em.mark_session_complete();
        let r = em.flush().unwrap();
        assert!(r.session_complete);
        let toi1 = r.entries.iter().find(|e| e.toi == 1).unwrap();
        assert!(toi1.complete);
        let fdt = r.entries.iter().find(|e| e.toi == 0).unwrap();
        assert!(!fdt.complete);
    }

    /// The double-emission bug: a threshold `poll` followed by the
    /// caller's timer `flush` in the same tick used to mint a second,
    /// near-empty digest with a fresh `report_seq`. The flush must now
    /// stay silent until something new is observed.
    #[test]
    fn same_tick_flush_after_poll_emits_nothing() {
        let mut em = ReportEmitter::new(
            7,
            ReportConfig {
                report_every: 4,
                ..ReportConfig::default()
            },
        );
        for s in 0..4u32 {
            em.observe_on(0, 1, Some(s));
        }
        let polled = em.poll().expect("threshold reached");
        assert_eq!(polled.report_seq, 1);
        assert!(em.flush().is_none(), "same-tick flush must not duplicate");
        assert!(em.poll().is_none());
        // New observations make the next flush meaningful again.
        em.observe_on(0, 1, Some(4));
        let flushed = em.flush().expect("dirty again");
        assert_eq!(flushed.report_seq, 2);
        assert!(em.flush().is_none(), "and it dedups again");
        // Completion state counts as news even with no new datagrams.
        em.mark_complete(1);
        assert!(em.flush().is_some(), "completion must reach the sender");
    }

    /// FIN digests are exempt from the dedup: the live loop repeats the
    /// final digest over the lossy return channel on purpose.
    #[test]
    fn fin_digests_flush_repeatedly() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(0, 1, Some(0));
        em.mark_complete(1);
        em.mark_session_complete();
        for i in 0..3 {
            let r = em.flush().unwrap_or_else(|| panic!("FIN repeat {i}"));
            assert!(r.session_complete);
        }
    }

    /// A population hint of n scales the poll threshold by n / log₂ n,
    /// keeping the aggregate digest rate across n receivers O(log n).
    #[test]
    fn population_hint_scales_the_threshold() {
        let base = ReportEmitter::new(7, ReportConfig::default());
        assert_eq!(base.current_threshold(), 256);
        let big = ReportEmitter::new(
            7,
            ReportConfig {
                population_hint: 1 << 20,
                ..ReportConfig::default()
            },
        );
        // n = 2^20, log2 = 21 (position of the leading bit + 1).
        assert_eq!(big.current_threshold(), 256 * ((1 << 20) / 21));
        // Jitter stays within ±25% of the scaled threshold.
        let jittered = ReportEmitter::new(
            7,
            ReportConfig {
                population_hint: 1 << 20,
                jitter_seed: 12345,
                ..ReportConfig::default()
            },
        );
        let t = jittered.current_threshold() as f64;
        let mid = (256 * ((1 << 20) / 21)) as f64;
        assert!(t >= mid * 0.75 && t < mid * 1.25, "jittered {t} vs {mid}");
    }

    /// Quiet intervals double the threshold (up to the cap); the first
    /// loss snaps it back to base immediately.
    #[test]
    fn backoff_doubles_when_quiet_and_resets_on_loss() {
        let mut em = ReportEmitter::new(
            7,
            ReportConfig {
                report_every: 4,
                max_backoff_exp: 3,
                ..ReportConfig::default()
            },
        );
        let mut seq = 0u32;
        let clean_digest = |em: &mut ReportEmitter, seq: &mut u32| {
            while em.poll().is_none() {
                em.observe_on(0, 1, Some(*seq));
                *seq += 1;
            }
        };
        assert_eq!(em.current_threshold(), 4);
        clean_digest(&mut em, &mut seq);
        assert_eq!(em.current_threshold(), 8, "one quiet digest doubles");
        clean_digest(&mut em, &mut seq);
        assert_eq!(em.current_threshold(), 16);
        clean_digest(&mut em, &mut seq);
        clean_digest(&mut em, &mut seq);
        assert_eq!(em.current_threshold(), 32, "capped at 2^3");
        // A loss mid-interval cancels the backoff before the next poll.
        em.observe_on(0, 1, Some(seq + 3)); // 3-packet gap
        assert_eq!(em.current_threshold(), 4, "loss resets to base");
        seq += 4;
        clean_digest(&mut em, &mut seq);
        assert_eq!(
            em.current_threshold(),
            4,
            "the lossy digest does not re-arm backoff"
        );
    }

    /// NACK lists ride the next digest and are dropped once carried.
    #[test]
    fn nacks_attach_to_the_next_digest_once() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(0, 1, Some(0));
        em.set_nacks(vec![NackEntry {
            toi: 1,
            block: 0,
            esis: vec![3, 4],
        }]);
        let r = em.flush().unwrap();
        assert_eq!(r.nacks.len(), 1);
        assert_eq!(r.nack_symbols(), 2);
        em.observe_on(0, 1, Some(1));
        let r2 = em.flush().unwrap();
        assert!(r2.nacks.is_empty(), "carried once, then dropped");
        // Setting fresh NACKs alone makes the next flush meaningful.
        em.set_nacks(vec![NackEntry {
            toi: 1,
            block: 1,
            esis: vec![9],
        }]);
        let r3 = em.flush().expect("pending NACKs are news");
        assert_eq!(r3.nacks.len(), 1);
    }

    /// The latent single-path assumption, pinned: EXT_SEQ spaces are
    /// per-path, so a gap on one path must not register loss on another,
    /// and one path's high sequence numbers must not make another path's
    /// in-order arrivals look late.
    #[test]
    fn per_path_gap_accounting_never_mixes_paths() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        // Path 0 delivers 0,1,2 contiguously; path 1 delivers 0 then 5
        // (a 4-packet gap), interleaved.
        em.observe_on(0, 1, Some(0));
        em.observe_on(1, 1, Some(0));
        em.observe_on(0, 1, Some(1));
        em.observe_on(1, 1, Some(5));
        em.observe_on(0, 1, Some(2));
        let r = em.flush().unwrap();
        // Only path 1's gap counts as loss; in a mixed sequence space
        // path 0's seq 1 and 2 (arriving after path 1's seq 5) would
        // have been discarded as late arrivals and the gap mis-sized.
        assert_eq!(r.entries[0].lost, 4, "exactly path 1's gap");
        assert_eq!(r.entries[0].received, 5, "no arrival mistaken as late");
        assert_eq!(
            r.runs,
            vec![
                LossRun {
                    lost: false,
                    len: 3
                },
                LossRun { lost: true, len: 4 },
                LossRun {
                    lost: false,
                    len: 2
                },
            ]
        );
        assert_eq!(r.highest_seq, Some(2), "digest reports path 0's track");
    }

    /// Duplicate/late detection is also per path: path 1 re-delivering
    /// its own seq is late, but the same number first seen on path 0 is
    /// a fresh in-order arrival there.
    #[test]
    fn per_path_duplicate_detection() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(1, 1, Some(4));
        em.observe_on(1, 1, Some(4)); // true duplicate on path 1
        em.observe_on(0, 1, Some(4)); // fresh on path 0
        em.observe_on(0, 1, Some(5));
        let r = em.flush().unwrap();
        assert_eq!(r.entries[0].received, 4);
        assert_eq!(r.entries[0].lost, 0);
        // Sketch: path-1 first arrival, dup ignored, then path-0's two.
        assert_eq!(
            r.runs,
            vec![LossRun {
                lost: false,
                len: 3
            }]
        );
    }

    /// Residual attribution runs whether or not telemetry is attached: a
    /// gap observed before `attach_telemetry` still reaches the residual
    /// counters at finalization.
    #[test]
    fn residual_runs_are_tracked_before_attach() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(0, 1, Some(0));
        em.observe_on(0, 1, Some(5)); // a 4-packet gap
        let live = Registry::new();
        em.attach_telemetry(&live);
        em.finalize_residual();
        let lost = live.counter("fec_residual_lost_packets_total", "");
        assert_eq!(lost.get(), 4);
    }

    /// One mark settles an object for good: the runs attributed to it
    /// before the mark and after it (a carousel's later cycle) all count
    /// as repaired, and none reaches the residual at finalization.
    #[test]
    fn runs_after_the_completion_mark_count_as_repaired() {
        let live = Registry::new();
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.attach_telemetry(&live);
        em.observe_on(0, 1, Some(0));
        em.observe_on(0, 1, Some(3)); // a 2-packet gap before completion
        em.mark_complete(1);
        em.observe_on(0, 1, Some(6)); // a 2-packet gap after it
        em.observe_on(0, 2, Some(9)); // object 2's gap stays residual
        em.finalize_residual();
        let repaired = live.counter("fec_repaired_loss_runs_total", "");
        let residual = live.counter("fec_residual_lost_packets_total", "");
        assert_eq!((repaired.get(), residual.get()), (2, 2));
    }

    #[test]
    fn unsequenced_datagrams_still_count() {
        let mut em = ReportEmitter::new(7, ReportConfig::default());
        em.observe_on(0, 1, None);
        em.observe_on(0, 1, None);
        let r = em.flush().unwrap();
        assert_eq!(r.entries[0].received, 2);
        assert_eq!(r.entries[0].lost, 0);
        assert_eq!(r.highest_seq, None);
        assert_eq!(
            r.runs,
            vec![LossRun {
                lost: false,
                len: 2
            }]
        );
    }
}
