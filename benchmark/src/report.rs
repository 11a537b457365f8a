//! Turns measured segments and spans into the named metrics.

use std::collections::BTreeMap;

use serde::{Number, Value};

use crate::spec::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{nested_shadow_ns, totals, Tracer, ROUND};
use crate::work::{Counts, Segment};

pub type Metrics = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when `b` is 0: a layer that did nothing has no rate.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced segment.
pub fn end_to_end(seg: &Segment, setup_s: f64, peak_rss_mib: f64) -> Metrics {
    let done = seg.attempted.saturating_sub(seg.failed) as f64;
    let mut m = Metrics::new();
    m.insert("ops_per_s", per(done, seg.wall_ns as f64 / 1e9));
    m.insert("round_ms_p50", median(&seg.round_ms));
    m.insert("inefficiency_ratio", per(seg.consumed, seg.needed));
    m.insert("success_share", per(done, seg.attempted as f64));
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mib", peak_rss_mib);
    m
}

/// The per-layer metrics of a traced segment. `untraced` is the shorter
/// segment run just before it with tracing off, the base of
/// `bench.trace_overhead_share`; `extra` holds set-up counts and one-off
/// probes.
pub fn per_layer(traced: &Segment, untraced: &Segment, tracer: &Tracer, extra: &Counts) -> Metrics {
    let spans = tracer.spans();
    let totals = totals(spans);
    let t = |name: &str| totals.get(name).map_or(0.0, |x| x.total_ns as f64 / 1e9);
    let nested = |name: &str| totals.get(name).map_or(0.0, |x| x.nested_ns as f64 / 1e9);
    let c = |name: &str| {
        traced
            .counts
            .get(name)
            .or_else(|| extra.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    // Shadow probes inside rounds are extra work of the traced run only.
    let shadow_s = nested_shadow_ns(spans) as f64 / 1e9;
    let wall_s = traced.wall_ns as f64 / 1e9;
    let timed_s = (wall_s - shadow_s).max(0.0);
    let done = traced.attempted.saturating_sub(traced.failed) as f64;

    // `push_datagrams` parses and decodes in one call; a shadow parse of
    // the same bytes, on a sample of the bursts, prices the parse inside
    // it. `carousel_tx` has no receiver: its parse span is the real
    // receive path and nothing decodes.
    let parse_ns_per_dgram = per(t("flute.parse") * 1e9, c("parse.dgrams"));
    let rx_push_s = t("flute.rx_push");
    let (parse_s, decode_s) = if rx_push_s > 0.0 {
        let parse_s = parse_ns_per_dgram * c("flute.rx_dgrams") / 1e9;
        (parse_s, (rx_push_s - parse_s).max(0.0))
    } else {
        (t("flute.parse"), 0.0)
    };
    let encode_s = t("codec.encode");

    let mut m = Metrics::new();
    for key in ["gf256.xor_gib_s", "gf256.addmul_gib_s"] {
        m.insert(key, c(key));
    }
    m.insert("codec.encode_s", encode_s);
    m.insert(
        "codec.encode_mib_s",
        per(c("codec.encoded_bytes") / (1 << 20) as f64, encode_s),
    );
    m.insert("codec.decode_s", decode_s);
    m.insert(
        "codec.decode_mib_s",
        per(c("codec.decoded_bytes") / (1 << 20) as f64, decode_s),
    );
    m.insert("codec.symbols_in", c("codec.symbols_in"));
    m.insert(
        "codec.symbols_needed_share",
        per(c("codec.symbols_needed"), c("codec.symbols_in")),
    );
    m.insert("codec.decode_fail", c("codec.decode_fail"));

    m.insert("sched.schedule_s", t("sched.schedule"));
    m.insert(
        "sched.refs_per_s",
        per(c("sched.refs"), t("sched.schedule")),
    );
    m.insert("channel.gate_s", t("channel.gate"));
    m.insert("channel.draws", c("channel.draws"));
    m.insert(
        "channel.lost_share",
        per(c("channel.lost"), c("channel.draws")),
    );

    let tx_next_s = t("flute.tx_next");
    m.insert("flute.tx_next_s", tx_next_s);
    m.insert(
        "flute.tx_ns_per_dgram",
        per(tx_next_s * 1e9, c("flute.tx_dgrams")),
    );
    m.insert(
        "flute.frame_ns_per_dgram",
        per(t("flute.frame") * 1e9, c("probe.dgrams")),
    );
    m.insert("flute.rx_push_s", rx_push_s);
    m.insert(
        "flute.rx_ns_per_dgram",
        per(rx_push_s * 1e9, c("flute.rx_dgrams")),
    );
    m.insert("flute.parse_ns_per_dgram", parse_ns_per_dgram);
    m.insert(
        "flute.header_share",
        if c("probe.dgram_bytes") > 0.0 {
            1.0 - c("probe.symbol_bytes") / c("probe.dgram_bytes")
        } else {
            0.0
        },
    );
    m.insert("flute.rejected", c("flute.rejected"));
    m.insert("flute.take_verify_s", t("flute.take_verify"));
    m.insert("flute.oti_roundtrip_fail", c("flute.oti_roundtrip_fail"));

    let (send_s, recv_s) = (t("wire.send"), t("wire.recv"));
    m.insert("wire.send_s", send_s);
    m.insert("wire.recv_s", recv_s);
    m.insert(
        "wire.send_ns_per_dgram",
        per(send_s * 1e9, c("wire.dgrams")),
    );
    m.insert(
        "wire.recv_ns_per_dgram",
        per(recv_s * 1e9, c("wire.dgrams")),
    );
    m.insert("wire.dgrams", c("wire.dgrams"));
    m.insert("wire.bursts", c("wire.bursts"));
    m.insert(
        "wire.dgrams_per_burst",
        per(c("wire.dgrams"), c("wire.bursts")),
    );
    m.insert("wire.lost", c("wire.lost"));
    m.insert(
        "wire.pool_hit_share",
        per(
            c("wire.pool_hits"),
            c("wire.pool_hits") + c("wire.pool_misses"),
        ),
    );
    m.insert("wire.gso_active", c("wire.gso_active"));

    let exec_s = t("sim.exec");
    m.insert("sim.setup_s", c("sim.setup_s"));
    m.insert("sim.exec_s", exec_s);
    for key in [
        "sim.trial_us.ldgm_triangle",
        "sim.trial_us.ldgm_staircase",
        "sim.trial_us.rse",
        "sim.masked_cells",
    ] {
        m.insert(key, c(key));
    }
    m.insert(
        "sim.undecoded_share",
        per(c("sim.undecoded"), traced.attempted as f64),
    );

    let (ingest_s, tick_s) = (t("feedback.ingest"), t("feedback.tick"));
    m.insert(
        "feedback.build_ns_per_digest",
        per(c("feedback.build_ns"), c("feedback.built")),
    );
    m.insert(
        "feedback.ingest_ns_per_digest",
        if ingest_s > 0.0 {
            per(ingest_s * 1e9, traced.attempted as f64)
        } else {
            0.0
        },
    );
    m.insert("feedback.tick_s", tick_s);
    m.insert(
        "feedback.deduped_share",
        per(
            c("feedback.deduped"),
            c("feedback.built") + c("feedback.deduped"),
        ),
    );
    m.insert("feedback.folded", c("feedback.folded"));
    m.insert("feedback.receivers", c("feedback.receivers"));
    m.insert(
        "feedback.bytes_per_receiver",
        c("feedback.bytes_per_receiver"),
    );

    m.insert("share.gf256_codec", per(encode_s + decode_s, timed_s));
    // On `sweep_grid` the scheduler and channel spans are shadow probes
    // outside any round and take no share of the timed wall.
    m.insert("share.sched", per(nested("sched.schedule"), timed_s));
    m.insert("share.channel", per(nested("channel.gate"), timed_s));
    m.insert(
        "share.flute",
        per(tx_next_s + parse_s + t("flute.take_verify"), timed_s),
    );
    m.insert("share.wire", per(send_s + recv_s, timed_s));
    m.insert("share.sim", per(exec_s, timed_s));
    m.insert("share.feedback", per(ingest_s + tick_s, timed_s));

    let round_self_s = totals.get(ROUND).map_or(0.0, |x| x.self_ns as f64 / 1e9);
    m.insert("bench.other_share", per(round_self_s, timed_s));
    let untraced_rate = per(
        untraced.attempted.saturating_sub(untraced.failed) as f64,
        untraced.wall_ns as f64 / 1e9,
    );
    m.insert(
        "bench.trace_overhead_share",
        if untraced_rate > 0.0 {
            1.0 - per(done, timed_s) / untraced_rate
        } else {
            0.0
        },
    );
    m.insert("bench.probe_share", per(shadow_s, wall_s));
    m.insert("bench.spans", spans.len() as f64);

    m.insert(
        "session.goodput_mbps",
        per(c("session.bytes") * 8.0 / 1e6, timed_s),
    );
    m.insert("session.dgrams_per_s", per(c("wire.dgrams"), timed_s));
    m.insert("session.round_ms_p90", percentile(&traced.round_ms, 90.0));
    let tail = tail_percentile(traced.round_ms.len());
    m.insert("session.round_ms_tail", percentile(&traced.round_ms, tail));
    m.insert("session.tail_percentile", tail);
    m.insert("session.rounds", traced.round_ms.len() as f64);
    m.insert("session.ops", traced.attempted as f64);
    m
}

/// `{"name": {"value": v, "unit": u}, …}` in the order of `defs`; a
/// metric the workload did not produce reads 0.
pub fn metrics_value(defs: &[MetricDef], metrics: &Metrics) -> Value {
    Value::Object(
        defs.iter()
            .map(|d| {
                let v = metrics.get(d.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    d.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(Number::F64(v))),
                        ("unit".into(), Value::String(d.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The metric table a run of `trace` prints.
pub fn defs_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
