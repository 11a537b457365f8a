//! Datagram-level link emulation for loopback experiments.
//!
//! The sweep machinery applies a [`LossModel`](crate::LossModel) to
//! *symbols inside a simulator*; closing the adaptive loop over real UDP
//! needs the same loss process applied to *datagrams on their way to a
//! socket* — plus the two impairments UDP adds for free, duplication and
//! reordering. [`LinkEmulator`] wraps any loss model into a deterministic
//! datagram gate: feed each outgoing burst through
//! [`transmit_batch`](LinkEmulator::transmit_batch) and send whatever
//! comes back.
//!
//! The emulator is transport-agnostic (it moves opaque byte vectors), so
//! the same instance can impair a forward data channel or a reception-
//! report return channel in tests.

use std::collections::VecDeque;

use fec_telemetry::{Counter, Registry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::LossModel;

/// Impairment knobs beyond the loss model itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Probability that a delivered datagram is delivered twice.
    pub duplicate_rate: f64,
    /// Probability that a delivered datagram is held back and released
    /// after up to [`reorder_depth`](LinkConfig::reorder_depth) later
    /// datagrams (out-of-order delivery).
    pub reorder_rate: f64,
    /// How many subsequent datagrams may overtake a held-back one.
    pub reorder_depth: usize,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_depth: 4,
        }
    }
}

/// Lifetime delivery statistics of a [`LinkEmulator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams offered to the link.
    pub offered: u64,
    /// Datagram copies that came out the far end (duplicates included).
    pub delivered: u64,
    /// Datagrams the loss model erased.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Datagrams delivered out of order.
    pub reordered: u64,
}

impl LinkStats {
    /// Observed loss fraction of the link so far.
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.offered as f64
    }

    /// Datagrams impaired in any way (dropped, duplicated, or
    /// reordered) — the per-impairment breakdown summed back up.
    pub fn impaired(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered
    }
}

/// Per-fate link counters mirrored into a telemetry registry.
#[derive(Debug)]
struct LinkMetrics {
    offered: Counter,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    reordered: Counter,
}

impl LinkMetrics {
    fn register(registry: &Registry) -> LinkMetrics {
        let name = "fec_link_datagrams_total";
        let help = "Datagrams through the link emulator, by fate.";
        LinkMetrics {
            offered: registry.counter_with(name, help, &[("fate", "offered")]),
            delivered: registry.counter_with(name, help, &[("fate", "delivered")]),
            dropped: registry.counter_with(name, help, &[("fate", "dropped")]),
            duplicated: registry.counter_with(name, help, &[("fate", "duplicated")]),
            reordered: registry.counter_with(name, help, &[("fate", "reordered")]),
        }
    }
}

/// A deterministic lossy/duplicating/reordering datagram gate.
pub struct LinkEmulator {
    model: Box<dyn LossModel>,
    config: LinkConfig,
    seed: u64,
    rng: SmallRng,
    /// Held-back datagrams: `(release_after_countdown, datagram)`.
    held: VecDeque<(usize, Vec<u8>)>,
    stats: LinkStats,
    metrics: LinkMetrics,
}

impl LinkEmulator {
    /// Wraps `model` into a plain lossy link (no duplication/reordering).
    pub fn new(model: Box<dyn LossModel>, seed: u64) -> LinkEmulator {
        LinkEmulator::with_config(model, LinkConfig::default(), seed)
    }

    /// Wraps `model` with explicit duplication/reordering knobs.
    pub fn with_config(model: Box<dyn LossModel>, config: LinkConfig, seed: u64) -> LinkEmulator {
        LinkEmulator {
            model,
            config,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            held: VecDeque::new(),
            stats: LinkStats::default(),
            metrics: LinkMetrics::register(&Registry::disabled()),
        }
    }

    /// Mints an **independent per-receiver link** from this one: same
    /// impairment knobs, same kind of loss model with the same
    /// parameters, but decorrelated randomness derived from `receiver`
    /// (so lanes `0, 1, 2, …` walk unrelated sample paths) and fresh
    /// held/stats state. This is the cheap path to a fan-out population:
    /// configure one template link, then `fork` it once per receiver —
    /// inert telemetry handles, no datagram buffers, just two small RNG
    /// states per receiver.
    ///
    /// Deterministic: the same `(template seed, receiver)` pair always
    /// yields the same link behavior. Returns `None` when the underlying
    /// model does not support [`LossModel::fork`].
    pub fn fork(&self, receiver: u64) -> Option<LinkEmulator> {
        let salt = crate::fork_seed(self.seed, receiver);
        let model = self.model.fork(salt)?;
        // A distinct stream for the dup/reorder coin flips so they do
        // not replay the loss process.
        let link_seed = crate::fork_seed(salt, u64::MAX);
        Some(LinkEmulator {
            model,
            config: self.config,
            seed: salt,
            rng: SmallRng::seed_from_u64(link_seed),
            held: VecDeque::new(),
            stats: LinkStats::default(),
            metrics: LinkMetrics::register(&Registry::disabled()),
        })
    }

    /// The loss model driving this link (for fate-only simulation, where
    /// per-datagram byte shuffling is not needed).
    pub fn model_mut(&mut self) -> &mut dyn LossModel {
        self.model.as_mut()
    }

    /// Starts mirroring this link's per-fate counters into `registry`
    /// (metric `fec_link_datagrams_total{fate=...}`). Counters pick up
    /// from the current stats so attach order does not skew totals.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        let metrics = LinkMetrics::register(registry);
        metrics.offered.add(self.stats.offered);
        metrics.delivered.add(self.stats.delivered);
        metrics.dropped.add(self.stats.dropped);
        metrics.duplicated.add(self.stats.duplicated);
        metrics.reordered.add(self.stats.reordered);
        self.metrics = metrics;
    }

    /// Offers one datagram to the link: [`transmit_batch`](Self::transmit_batch)'s
    /// step.
    fn transmit(&mut self, datagram: &[u8]) -> Vec<Vec<u8>> {
        self.stats.offered += 1;
        self.metrics.offered.inc();
        let mut out = Vec::new();
        // Tick only the datagrams held by *earlier* transmits. A fresh
        // hold is pushed un-ticked and the expired ones are released
        // *after* the current datagram's own delivery — so a countdown of
        // c means "overtaken by the next c delivered datagrams", and even
        // depth 1 produces genuine out-of-order arrival.
        for entry in self.held.iter_mut() {
            entry.0 = entry.0.saturating_sub(1);
        }
        if self.model.next_is_lost() {
            self.stats.dropped += 1;
            self.metrics.dropped.inc();
        } else {
            let duplicate = self.config.duplicate_rate > 0.0
                && self
                    .rng
                    .gen_bool(self.config.duplicate_rate.clamp(0.0, 1.0));
            let hold = self.config.reorder_rate > 0.0
                && self.config.reorder_depth > 0
                && self.rng.gen_bool(self.config.reorder_rate.clamp(0.0, 1.0));
            if hold {
                let countdown = self.rng.gen_range(1..=self.config.reorder_depth);
                self.held.push_back((countdown, datagram.to_vec()));
                self.stats.reordered += 1;
                self.metrics.reordered.inc();
            } else {
                out.push(datagram.to_vec());
                self.stats.delivered += 1;
            }
            if duplicate {
                out.push(datagram.to_vec());
                self.stats.delivered += 1;
                self.stats.duplicated += 1;
                self.metrics.duplicated.inc();
            }
        }
        while let Some((0, _)) = self.held.front() {
            let (_, dg) = self.held.pop_front().expect("peeked");
            self.stats.delivered += 1;
            out.push(dg);
        }
        self.metrics.delivered.add(out.len() as u64);
        out
    }

    /// Releases every held-back datagram (end of transmission).
    pub fn flush(&mut self) -> Vec<Vec<u8>> {
        let out: Vec<Vec<u8>> = self.held.drain(..).map(|(_, dg)| dg).collect();
        self.stats.delivered += out.len() as u64;
        self.metrics.delivered.add(out.len() as u64);
        out
    }

    /// Offers a burst to the link (one datagram is a burst of one);
    /// returns every datagram copy that comes out the far end now, in
    /// delivery order. Per datagram that is possibly none — lost or held
    /// back — and possibly several: duplicates and earlier held-back
    /// datagrams whose countdown expired. How a stream is split into
    /// bursts does not change what comes out.
    pub fn transmit_batch<D: AsRef<[u8]>>(&mut self, datagrams: &[D]) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(datagrams.len());
        for dg in datagrams {
            out.extend(self.transmit(dg.as_ref()));
        }
        out
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

impl core::fmt::Debug for LinkEmulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "LinkEmulator({:?}, held {}, {:?})",
            self.config,
            self.held.len(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GilbertChannel, GilbertParams};

    fn datagrams(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; 8]).collect()
    }

    fn gilbert(p: f64, q: f64, seed: u64) -> Box<dyn LossModel> {
        Box::new(GilbertChannel::new(GilbertParams::new(p, q).unwrap(), seed))
    }

    #[test]
    fn perfect_link_delivers_everything_in_order() {
        let mut link = LinkEmulator::new(gilbert(0.0, 1.0, 1), 9);
        let mut delivered = Vec::new();
        for dg in datagrams(100) {
            delivered.extend(link.transmit(&dg));
        }
        delivered.extend(link.flush());
        assert_eq!(delivered, datagrams(100));
        let s = link.stats();
        assert_eq!((s.offered, s.delivered, s.dropped), (100, 100, 0));
    }

    #[test]
    fn lossy_link_drops_at_the_model_rate() {
        let mut link = LinkEmulator::new(gilbert(0.1, 0.4, 2), 3);
        for dg in datagrams(20_000) {
            link.transmit(&dg);
        }
        let rate = link.stats().loss_rate();
        assert!((rate - 0.2).abs() < 0.02, "p_global 20%, saw {rate}");
    }

    #[test]
    fn duplication_and_reordering_preserve_the_multiset() {
        let config = LinkConfig {
            duplicate_rate: 0.1,
            reorder_rate: 0.2,
            reorder_depth: 5,
        };
        let mut link = LinkEmulator::with_config(gilbert(0.0, 1.0, 4), config, 7);
        let sent = datagrams(2_000);
        let mut delivered = Vec::new();
        for dg in &sent {
            delivered.extend(link.transmit(dg));
        }
        delivered.extend(link.flush());
        let s = link.stats();
        assert_eq!(s.delivered as usize, delivered.len());
        assert!(s.duplicated > 100, "{s:?}");
        assert!(s.reordered > 200, "{s:?}");
        assert_ne!(delivered, sent, "order was perturbed");
        // Every original datagram arrives at least once, and nothing
        // arrives that was never sent.
        let mut sorted_sent = sent.clone();
        let mut unique_delivered = delivered.clone();
        sorted_sent.sort();
        unique_delivered.sort();
        unique_delivered.dedup();
        sorted_sent.dedup();
        assert_eq!(unique_delivered, sorted_sent);
    }

    #[test]
    fn depth_one_reordering_really_reorders() {
        // Regression: a hold must survive the call that created it, so a
        // depth-1 hold is genuinely overtaken by the next delivered
        // datagram instead of being released in the same call.
        let config = LinkConfig {
            duplicate_rate: 0.0,
            reorder_rate: 0.5,
            reorder_depth: 1,
        };
        let mut link = LinkEmulator::with_config(gilbert(0.0, 1.0, 1), config, 2);
        let sent = datagrams(50);
        let mut delivered = Vec::new();
        for dg in &sent {
            delivered.extend(link.transmit(dg));
        }
        delivered.extend(link.flush());
        assert_eq!(delivered.len(), sent.len());
        assert!(link.stats().reordered > 10, "{:?}", link.stats());
        assert_ne!(delivered, sent, "held datagrams were overtaken");
    }

    #[test]
    fn stats_accessors_break_down_impairments() {
        let config = LinkConfig {
            duplicate_rate: 0.1,
            reorder_rate: 0.2,
            reorder_depth: 3,
        };
        let mut link = LinkEmulator::with_config(gilbert(0.05, 0.5, 21), config, 22);
        for dg in datagrams(5_000) {
            link.transmit(&dg);
        }
        link.flush();
        let s = link.stats();
        assert_eq!(s.impaired(), s.dropped + s.duplicated + s.reordered);
        // Every impairment actually occurred, distinctly.
        assert!(s.dropped > 0 && s.duplicated > 0 && s.reordered > 0);
        assert!((s.loss_rate() - 0.09).abs() < 0.03, "{}", s.loss_rate());
        let duplication = s.duplicated as f64 / s.offered as f64;
        let reordering = s.reordered as f64 / s.offered as f64;
        assert!(
            (duplication - 0.1 * (1.0 - s.loss_rate())).abs() < 0.03,
            "{duplication}"
        );
        assert!(
            (reordering - 0.2 * (1.0 - s.loss_rate())).abs() < 0.03,
            "{reordering}"
        );
        // Conservation: everything offered was dropped, delivered in
        // order, or delivered late; duplicates are extra copies.
        assert_eq!(s.offered + s.duplicated, s.delivered + s.dropped);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        use fec_telemetry::Registry;

        let config = LinkConfig {
            duplicate_rate: 0.1,
            reorder_rate: 0.2,
            reorder_depth: 3,
        };
        let mut link = LinkEmulator::with_config(gilbert(0.05, 0.5, 21), config, 22);
        // Attach mid-stream: the counters must back-fill what happened
        // before and track what happens after.
        for dg in datagrams(500) {
            link.transmit(&dg);
        }
        let registry = Registry::new();
        link.attach_telemetry(&registry);
        for dg in datagrams(500) {
            link.transmit(&dg);
        }
        link.flush();
        let s = link.stats();
        let text = registry.render_prometheus();
        for (fate, value) in [
            ("offered", s.offered),
            ("delivered", s.delivered),
            ("dropped", s.dropped),
            ("duplicated", s.duplicated),
            ("reordered", s.reordered),
        ] {
            let line = format!("fec_link_datagrams_total{{fate=\"{fate}\"}} {value}");
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn transmit_batch_matches_per_datagram_transmit() {
        let config = LinkConfig {
            duplicate_rate: 0.05,
            reorder_rate: 0.1,
            reorder_depth: 3,
        };
        let sent = datagrams(600);
        let mut one = LinkEmulator::with_config(gilbert(0.05, 0.5, 11), config, 13);
        let mut per: Vec<Vec<u8>> = Vec::new();
        for dg in &sent {
            per.extend(one.transmit(dg));
        }
        per.extend(one.flush());
        let mut two = LinkEmulator::with_config(gilbert(0.05, 0.5, 11), config, 13);
        let mut batched = Vec::new();
        for chunk in sent.chunks(64) {
            batched.extend(two.transmit_batch(chunk));
        }
        batched.extend(two.flush());
        assert_eq!(per, batched);
        assert_eq!(one.stats(), two.stats());
    }

    #[test]
    fn forked_links_are_decorrelated_reproducible_and_fresh() {
        let config = LinkConfig {
            duplicate_rate: 0.02,
            reorder_rate: 0.05,
            reorder_depth: 3,
        };
        let mut template = LinkEmulator::with_config(gilbert(0.1, 0.4, 11), config, 42);
        // Age the template so forks can't be accidentally sharing state.
        for dg in datagrams(200) {
            template.transmit(&dg);
        }
        let fates = |link: &mut LinkEmulator, n: usize| -> Vec<usize> {
            datagrams(n)
                .iter()
                .map(|dg| link.transmit(dg).len())
                .collect()
        };
        let mut a = template.fork(0).expect("gilbert forks");
        let mut b = template.fork(1).expect("gilbert forks");
        let mut a_again = template.fork(0).expect("gilbert forks");
        assert_eq!(a.stats(), LinkStats::default(), "forks start fresh");
        let fa = fates(&mut a, 2_000);
        let fb = fates(&mut b, 2_000);
        assert_ne!(fa, fb, "adjacent receivers walk different sample paths");
        assert_eq!(fa, fates(&mut a_again, 2_000), "same lane reproduces");
        // Statistics are shared even though the sample paths are not.
        let (ra, rb) = (a.stats().loss_rate(), b.stats().loss_rate());
        assert!(
            (ra - 0.2).abs() < 0.05 && (rb - 0.2).abs() < 0.05,
            "{ra} {rb}"
        );
        // The template itself is untouched by forking.
        assert_eq!(template.stats().offered, 200);
    }

    #[test]
    fn every_stock_model_forks() {
        use crate::{DriftingChannel, LossTrace, MarkovLossModel, Regime, TraceChannel};
        let params = GilbertParams::new(0.1, 0.4).unwrap();
        let drift = DriftingChannel::cycling(vec![Regime::new(params, 100)], 1);
        let markov = MarkovLossModel::from_gilbert(params).channel(1);
        let trace = TraceChannel::new(LossTrace::new(vec![true, false, false, false, false]));
        let models: Vec<Box<dyn LossModel>> = vec![
            gilbert(0.1, 0.4, 1),
            Box::new(drift),
            Box::new(markov),
            Box::new(trace),
        ];
        for model in models {
            let template = LinkEmulator::new(model, 7);
            let mut forked = template.fork(3).expect("stock models all fork");
            // The fork is live and preserves the long-run loss rate.
            let rate = forked
                .model_mut()
                .global_loss_probability()
                .expect("stock models report a rate");
            assert!((rate - 0.2).abs() < 1e-9, "fork changed the rate: {rate}");
            forked.transmit(&[0u8; 8]);
            assert_eq!(forked.stats().offered, 1);
        }
    }

    #[test]
    fn fork_seed_decorrelates_adjacent_lanes() {
        let seeds: Vec<u64> = (0..64).map(|i| crate::fork_seed(99, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "no collisions across lanes");
        // Adjacent lanes differ in roughly half their bits.
        for w in seeds.windows(2) {
            let flips = (w[0] ^ w[1]).count_ones();
            assert!((16..=48).contains(&flips), "weak mixing: {flips} flips");
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let config = LinkConfig {
            duplicate_rate: 0.05,
            reorder_rate: 0.1,
            reorder_depth: 3,
        };
        let run = || {
            let mut link = LinkEmulator::with_config(gilbert(0.05, 0.5, 11), config, 13);
            let mut all = Vec::new();
            for dg in datagrams(500) {
                all.extend(link.transmit(&dg));
            }
            all.extend(link.flush());
            all
        };
        assert_eq!(run(), run());
    }
}
