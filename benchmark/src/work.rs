//! What every workload shares: how much work a run does, what a measured
//! segment reports, and how seeds are derived.

use std::collections::BTreeMap;

use fec_broadcast::sim::mix_seed;

use crate::trace::Tracer;

/// Sub-seed tags: every object, matrix, schedule and channel stream of a
/// run derives from `--seed` through [`sub_seed`] with one of these.
pub const TAG_SOURCE: u64 = 0x51;
pub const TAG_MATRIX: u64 = 0x52;
pub const TAG_SCHED: u64 = 0x53;
pub const TAG_CHANNEL: u64 = 0x54;
pub const TAG_SWEEP: u64 = 0x55;
pub const TAG_DIGEST: u64 = 0x56;

/// Round index of the untimed warm-up round done in set-up.
pub const WARMUP_ROUND: u64 = u32::MAX as u64 - 1;

pub fn sub_seed(seed: u64, tag: u64, parts: &[u64]) -> u64 {
    let mut all = Vec::with_capacity(parts.len() + 1);
    all.push(tag);
    all.extend_from_slice(parts);
    mix_seed(seed, &all)
}

/// splitmix64: fills source objects and varies synthetic digests.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Wrapping sum of little-endian words: cheap enough to stay out of the
/// measurement, and order-independent, so that a carousel cycle sums to
/// the same value whatever its schedule.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut sum = 0u64;
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        sum = sum.wrapping_add(u64::from_le_bytes(word));
    }
    for &b in chunks.remainder() {
        sum = sum.wrapping_add(u64::from(b));
    }
    sum
}

/// How much work one run does. Operation counts are fixed by
/// `(seconds, divisor)` alone, never by the clock, so that the same seed
/// gives the same counts: each workload states its count per requested
/// second, sized so that a run measures for about `seconds` on the
/// reference host.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The `--seconds` argument.
    pub seconds: u32,
    /// `--check` smoke mode: one fiftieth of the counts.
    pub check: bool,
}

impl Scale {
    /// `per_second * seconds / divisor`, at least 1 (and a further
    /// fiftieth in `--check` mode).
    pub fn count(&self, per_second: f64, divisor: u32) -> u64 {
        let div = f64::from(divisor) * if self.check { 50.0 } else { 1.0 };
        ((per_second * f64::from(self.seconds) / div).round() as u64).max(1)
    }
}

/// Exact counts a workload reports next to its spans (datagrams, bytes,
/// losses, …), keyed by metric-style names.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn bump(counts: &mut Counts, key: &'static str, by: f64) {
    *counts.entry(key).or_insert(0.0) += by;
}

/// What one measured stretch of rounds produced.
#[derive(Debug, Default)]
pub struct Segment {
    /// Sum of the timed rounds (work done between rounds to prepare
    /// inputs, such as building digests, is not timed).
    pub wall_ns: u64,
    /// Latency of each round, in ms.
    pub round_ms: Vec<f64>,
    /// Operations attempted and failed (the unit is the workload's).
    pub attempted: u64,
    pub failed: u64,
    /// `consumed / needed` is the workload's inefficiency ratio.
    pub consumed: f64,
    pub needed: f64,
    pub counts: Counts,
    /// Invariant violations; any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Segment {
    pub fn violation(&mut self, what: String) {
        // One line per kind is enough to act on; a broken run would
        // otherwise repeat the same line per object.
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }
}

/// One benchmark workload, set up: inputs built from the seed, sockets
/// open, codecs prepared and one untimed warm-up round done (all of which
/// `setup_s` times).
pub trait Workload {
    /// Runs `1/divisor` of the workload's full count, starting at round
    /// `first_round` so that consecutive segments never reuse a round's
    /// seeds.
    fn run(&mut self, divisor: u32, first_round: u64, tracer: &mut Tracer) -> Segment;

    /// Rounds [`run`](Self::run) performs at `divisor`.
    fn rounds(&self, divisor: u32) -> u64;

    /// Upper estimate of spans per round, to preallocate the tracer.
    fn spans_per_round(&self) -> usize;

    /// Symbol size of the objects the workload moves, if it moves any:
    /// the size the GF(2^8) kernel probe runs at.
    fn symbol(&self) -> Option<usize> {
        None
    }

    /// Counts taken during set-up (the harness keeps those of the first
    /// set-up of a process, before the allocator holds freed pages).
    fn setup_counts(&self) -> Counts {
        Counts::new()
    }

    /// Counts that are only meaningful once the run is over.
    fn final_counts(&self) -> Counts {
        Counts::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_never_reach_zero() {
        let full = Scale {
            seconds: 8,
            check: false,
        };
        assert_eq!(full.count(150.0, 1), 1200);
        assert_eq!(full.count(150.0, 4), 300);
        let check = Scale {
            seconds: 8,
            check: true,
        };
        assert_eq!(check.count(150.0, 1), 24);
        assert_eq!(check.count(0.4, 8), 1);
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_part() {
        let a = sub_seed(1, TAG_SCHED, &[0]);
        assert_eq!(a, sub_seed(1, TAG_SCHED, &[0]));
        assert_ne!(a, sub_seed(1, TAG_CHANNEL, &[0]));
        assert_ne!(a, sub_seed(1, TAG_SCHED, &[1]));
        assert_ne!(a, sub_seed(2, TAG_SCHED, &[0]));
        assert_ne!(random_bytes(64, 1), random_bytes(64, 2));
        assert_eq!(random_bytes(13, 9).len(), 13);
    }
}
