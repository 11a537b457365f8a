//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root repeats this table for the driver; a test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// One named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "bulk_ldgm",
        why: "2 MiB objects, LDGM Triangle ratio 1.5, Tx_model_4, Gilbert(0.03, 0.4) loss: the paper's unknown-channel recommendation; XOR-only, every layer of the byte-true pipe carries a visible share",
    },
    WorkloadDef {
        name: "bulk_rse",
        why: "same objects and channel under RSE ratio 1.5, Tx_model_5: the GF(2^8) codec dominates, so a kernel or RSE change shows here and a wire or framing change must not",
    },
    WorkloadDef {
        name: "small_symbol",
        why: "8160 symbols of 64 B, LDGM Staircase, no loss: per-datagram cost (framing, parse, syscalls) dominates and kernels do little; 45 % of every datagram is header",
    },
    WorkloadDef {
        name: "carousel_tx",
        why: "one object encoded in set-up, then emitted cycle after cycle through the wire and header-parsed: sender and wire cost with no codec work, the counter-workload for codec changes",
    },
    WorkloadDef {
        name: "sweep_grid",
        why: "the paper's index-only Monte-Carlo (GridSweep, coarse 8x8 grid, k = 5000, three code/schedule pairs, one thread): simulator, scheduler and channel with the byte path idle",
    },
    WorkloadDef {
        name: "fanout_ingest",
        why: "300 000 synthetic receivers report every round into one FeedbackAggregator with a quarter re-sent: the feedback layer alone, dedup path included",
    },
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// End-to-end metrics, measured with tracing off; every workload reports
/// every one of them (the operation and the round are defined per
/// workload, see the README).
pub const END_TO_END: [MetricDef; 6] = [
    gated("ops_per_s", "1/s", Better::Higher, 0.25),
    gated("round_ms_p50", "ms", Better::Lower, 0.25),
    gated("inefficiency_ratio", "ratio", Better::Lower, 0.01),
    gated("success_share", "ratio", Better::Higher, 0.001),
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced run; a layer a workload leaves idle
/// reports 0.
pub const PER_LAYER: [MetricDef; 66] = [
    // GF(2^8) kernels: a probe at the workload's symbol size.
    layer("gf256.xor_gib_s", "GiB/s", Higher),
    layer("gf256.addmul_gib_s", "GiB/s", Higher),
    // Codec: FluteSender::add_object, and push_datagrams minus shadow parse.
    layer("codec.encode_s", "s", Lower),
    layer("codec.encode_mib_s", "MiB/s", Higher),
    layer("codec.decode_s", "s", Lower),
    layer("codec.decode_mib_s", "MiB/s", Higher),
    layer("codec.symbols_in", "count", Lower),
    layer("codec.symbols_needed_share", "ratio", Higher),
    layer("codec.decode_fail", "count", Lower),
    // Scheduler and channel.
    layer("sched.schedule_s", "s", Lower),
    layer("sched.refs_per_s", "1/s", Higher),
    layer("channel.gate_s", "s", Lower),
    layer("channel.draws", "count", Lower),
    layer("channel.lost_share", "ratio", Lower),
    // FLUTE/ALC framing and parsing.
    layer("flute.tx_next_s", "s", Lower),
    layer("flute.tx_ns_per_dgram", "ns", Lower),
    layer("flute.frame_ns_per_dgram", "ns", Lower),
    layer("flute.rx_push_s", "s", Lower),
    layer("flute.rx_ns_per_dgram", "ns", Lower),
    layer("flute.parse_ns_per_dgram", "ns", Lower),
    layer("flute.header_share", "ratio", Lower),
    layer("flute.rejected", "count", Lower),
    layer("flute.take_verify_s", "s", Lower),
    layer("flute.oti_roundtrip_fail", "count", Lower),
    // Wire engine over loopback.
    layer("wire.send_s", "s", Lower),
    layer("wire.recv_s", "s", Lower),
    layer("wire.send_ns_per_dgram", "ns", Lower),
    layer("wire.recv_ns_per_dgram", "ns", Lower),
    layer("wire.dgrams", "count", Lower),
    layer("wire.bursts", "count", Lower),
    layer("wire.dgrams_per_burst", "count", Higher),
    layer("wire.lost", "count", Lower),
    layer("wire.pool_hit_share", "ratio", Higher),
    layer("wire.gso_active", "count", Higher),
    // Simulator.
    layer("sim.setup_s", "s", Lower),
    layer("sim.exec_s", "s", Lower),
    layer("sim.trial_us.ldgm_triangle", "us", Lower),
    layer("sim.trial_us.ldgm_staircase", "us", Lower),
    layer("sim.trial_us.rse", "us", Lower),
    layer("sim.masked_cells", "count", Lower),
    layer("sim.undecoded_share", "ratio", Lower),
    // Feedback aggregation.
    layer("feedback.build_ns_per_digest", "ns", Lower),
    layer("feedback.ingest_ns_per_digest", "ns", Lower),
    layer("feedback.tick_s", "s", Lower),
    layer("feedback.deduped_share", "ratio", Lower),
    layer("feedback.folded", "count", Lower),
    layer("feedback.receivers", "count", Higher),
    layer("feedback.bytes_per_receiver", "B", Lower),
    // Share of the timed wall (shadow probes excluded) spent in each layer.
    layer("share.gf256_codec", "ratio", Lower),
    layer("share.sched", "ratio", Lower),
    layer("share.channel", "ratio", Lower),
    layer("share.flute", "ratio", Lower),
    layer("share.wire", "ratio", Lower),
    layer("share.sim", "ratio", Lower),
    layer("share.feedback", "ratio", Lower),
    // The harness itself, and whole-session figures that are informative
    // but too noisy or too workload-specific to gate.
    layer("bench.other_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.probe_share", "ratio", Lower),
    layer("bench.spans", "count", Lower),
    layer("session.goodput_mbps", "Mb/s", Higher),
    layer("session.dgrams_per_s", "1/s", Higher),
    layer("session.round_ms_p90", "ms", Lower),
    layer("session.round_ms_tail", "ms", Lower),
    layer("session.tail_percentile", "%", Higher),
    layer("session.rounds", "count", Higher),
    layer("session.ops", "count", Higher),
];

#[cfg(test)]
/// Whether `name` fits the driver's charset: starts with a letter or a
/// digit, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` fits the driver's charset.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The `--list` output: one line per workload and metric.
pub fn list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(out, "workload {} -- {}", w.name, w.why);
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0)
        );
    }
    for m in &PER_LAYER {
        let _ = writeln!(out, "per_layer {} {} {}", m.name, m.unit, m.better.as_str());
    }
    out
}
