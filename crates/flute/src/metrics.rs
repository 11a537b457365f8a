//! Metric bundles for the session layer.
//!
//! Each instrumented type owns one of these bundles from construction,
//! registered on `Registry::disabled()` (inert handles: one branch per
//! would-be update); `attach_telemetry` re-registers it on a live
//! registry. Registration happens here; the hot paths only touch the
//! pre-registered atomic handles, and nothing a type computes depends on
//! which registry its bundle sits on.

use fec_telemetry::{Counter, Gauge, Histogram, Registry};

/// Loss-run-length buckets (packets). Runs of 1–2 dominate on random
/// channels; the Fibonacci-ish tail resolves the bursty regimes the
/// paper's §4 analysis cares about.
pub(crate) const LOSS_RUN_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0];

/// Sender-side stream metrics ([`SessionStream`](crate::SessionStream)).
#[derive(Debug)]
pub(crate) struct StreamMetrics {
    pub data: Counter,
    pub fdt: Counter,
    pub bytes: Counter,
    /// Index-aligned with the stream's objects.
    pub per_object: Vec<Counter>,
    pub amend_truncated: Counter,
    pub amend_extended: Counter,
    pub stops: Counter,
    pub planned: Gauge,
    pub full: Gauge,
}

impl StreamMetrics {
    pub fn register(registry: &Registry, tois: impl Iterator<Item = u32>) -> StreamMetrics {
        let datagrams = "fec_session_datagrams_total";
        let datagrams_help = "Datagrams emitted by the session stream, by kind.";
        StreamMetrics {
            data: registry.counter_with(datagrams, datagrams_help, &[("kind", "data")]),
            fdt: registry.counter_with(datagrams, datagrams_help, &[("kind", "fdt")]),
            bytes: registry.counter(
                "fec_session_bytes_total",
                "Wire bytes emitted by the session stream.",
            ),
            per_object: tois
                .map(|toi| {
                    registry.counter_with(
                        "fec_session_object_packets_total",
                        "Data packets emitted per object.",
                        &[("toi", &toi.to_string())],
                    )
                })
                .collect(),
            amend_truncated: registry.counter_with(
                "fec_plan_amendments_total",
                "Mid-flight plan amendments applied to the stream, by action.",
                &[("action", "truncated")],
            ),
            amend_extended: registry.counter_with(
                "fec_plan_amendments_total",
                "Mid-flight plan amendments applied to the stream, by action.",
                &[("action", "extended")],
            ),
            stops: registry.counter(
                "fec_object_stops_total",
                "Objects stopped early because feedback confirmed them complete.",
            ),
            planned: registry.gauge(
                "fec_session_planned_packets",
                "Sum of the per-object packet targets currently in force.",
            ),
            full: registry.gauge(
                "fec_session_full_schedule_packets",
                "Sum of the full per-object schedules (the static worst case).",
            ),
        }
    }
}

/// Sender-side feedback metrics
/// ([`FeedbackAggregator`](crate::feedback::FeedbackAggregator)).
///
/// Conservation invariant (tested): every ingested digest lands in
/// exactly one `fec_feedback_digests_total` outcome —
/// `folded + accepted + deduped + foreign == ingested`.
#[derive(Debug)]
pub(crate) struct AggregatorMetrics {
    /// Fresh digest from the population's worst receiver: its sketch was
    /// folded into the central estimator.
    pub folded: Counter,
    /// Fresh digest tracked per-receiver but not folded (not the worst).
    pub accepted: Counter,
    /// Duplicate or out-of-order `report_seq` for its receiver.
    pub deduped: Counter,
    /// Wrong-session digest.
    pub foreign: Counter,
    /// Receivers currently tracked.
    pub receivers: Gauge,
    /// Receivers evicted after going idle.
    pub evicted: Counter,
    /// Distinct symbols queued for targeted repair from NACK sections.
    pub nack_symbols: Counter,
    /// NACK symbols dropped by the per-source rate limit.
    pub throttled: Counter,
    pub observations: Counter,
    pub replans: Counter,
    pub backoffs: Counter,
    pub completed: Counter,
    pub p: Gauge,
    pub q: Gauge,
    pub p_upper: Gauge,
    pub p_ci_low: Gauge,
    pub p_ci_high: Gauge,
    pub q_ci_low: Gauge,
    pub q_ci_high: Gauge,
    pub window: Gauge,
}

impl AggregatorMetrics {
    pub fn register(registry: &Registry) -> AggregatorMetrics {
        let digests = "fec_feedback_digests_total";
        let digests_help = "Reception-report digests ingested by the sender, by outcome.";
        AggregatorMetrics {
            folded: registry.counter_with(digests, digests_help, &[("outcome", "folded")]),
            accepted: registry.counter_with(digests, digests_help, &[("outcome", "accepted")]),
            deduped: registry.counter_with(digests, digests_help, &[("outcome", "deduped")]),
            foreign: registry.counter_with(digests, digests_help, &[("outcome", "foreign")]),
            receivers: registry.gauge(
                "fec_feedback_receivers",
                "Receivers currently tracked by the feedback aggregator.",
            ),
            evicted: registry.counter(
                "fec_feedback_evicted_total",
                "Receivers evicted from the aggregator after going idle.",
            ),
            nack_symbols: registry.counter(
                "fec_feedback_nack_symbols_total",
                "Distinct symbols queued for targeted repair from NACK digests.",
            ),
            throttled: registry.counter(
                "fec_feedback_throttled_total",
                "NACK symbols dropped by the per-source rate limit.",
            ),
            observations: registry.counter(
                "fec_observations_total",
                "Per-packet loss observations folded into the estimator.",
            ),
            replans: registry.counter(
                "fec_replans_total",
                "Transmission plans derived by the adaptive controller.",
            ),
            backoffs: registry.counter(
                "fec_backoffs_total",
                "Failure backoffs (schedule exhausted with no completion digest).",
            ),
            completed: registry.counter(
                "fec_objects_completed_total",
                "Objects every tracked receiver reported fully decoded.",
            ),
            p: registry.gauge(
                "fec_estimator_p",
                "Estimated Gilbert loss-entry probability.",
            ),
            q: registry.gauge(
                "fec_estimator_q",
                "Estimated Gilbert loss-exit probability.",
            ),
            p_upper: registry.gauge(
                "fec_estimator_p_upper",
                "Conservative (Wilson upper bound) global loss estimate.",
            ),
            p_ci_low: registry.gauge(
                "fec_estimator_p_ci_low",
                "Wilson confidence interval on p, lower bound.",
            ),
            p_ci_high: registry.gauge(
                "fec_estimator_p_ci_high",
                "Wilson confidence interval on p, upper bound.",
            ),
            q_ci_low: registry.gauge(
                "fec_estimator_q_ci_low",
                "Wilson confidence interval on q, lower bound.",
            ),
            q_ci_high: registry.gauge(
                "fec_estimator_q_ci_high",
                "Wilson confidence interval on q, upper bound.",
            ),
            window: registry.gauge(
                "fec_estimator_window",
                "Loss observations currently inside the estimator window.",
            ),
        }
    }
}

/// Receiver-side session metrics ([`FluteReceiver`](crate::FluteReceiver)).
#[derive(Debug)]
pub(crate) struct ReceiverMetrics {
    pub data: Counter,
    pub fdt: Counter,
    pub fdt_ignored: Counter,
    pub foreign: Counter,
    pub rejected: Counter,
    pub completed: Counter,
}

impl ReceiverMetrics {
    pub fn register(registry: &Registry) -> ReceiverMetrics {
        let datagrams = "fec_rx_datagrams_total";
        let datagrams_help = "Datagrams pushed into the receiver, by what they did.";
        ReceiverMetrics {
            data: registry.counter_with(datagrams, datagrams_help, &[("result", "data")]),
            fdt: registry.counter_with(datagrams, datagrams_help, &[("result", "fdt")]),
            fdt_ignored: registry.counter_with(
                datagrams,
                datagrams_help,
                &[("result", "fdt_ignored")],
            ),
            foreign: registry.counter_with(datagrams, datagrams_help, &[("result", "foreign")]),
            rejected: registry.counter_with(datagrams, datagrams_help, &[("result", "rejected")]),
            completed: registry.counter(
                "fec_rx_objects_completed_total",
                "Objects fully decoded at this receiver.",
            ),
        }
    }
}

/// Receiver-side loss-process metrics
/// ([`ReportEmitter`](crate::feedback::ReportEmitter)).
#[derive(Debug)]
pub(crate) struct EmitterMetrics {
    pub seq_gaps: Counter,
    pub lost_packets: Counter,
    pub late_or_duplicate: Counter,
    pub sketch_truncations: Counter,
    pub digests: Counter,
    /// Digests withheld versus the unsuppressed base cadence.
    pub suppressed: Counter,
    /// Link-level loss runs, as observed from EXT_SEQ gaps (the paper's
    /// §4 pre-FEC loss process).
    pub loss_run_length: Histogram,
    /// Loss runs whose object later decoded — FEC repaired them.
    pub repaired_runs: Counter,
    /// Loss runs still attributed to undecoded objects when the session
    /// was finalized (the post-FEC residual loss process).
    pub residual_run_length: Histogram,
    pub residual_lost_packets: Counter,
}

impl EmitterMetrics {
    pub fn register(registry: &Registry) -> EmitterMetrics {
        EmitterMetrics {
            seq_gaps: registry.counter(
                "fec_rx_seq_gaps_total",
                "EXT_SEQ gaps detected (distinct loss events).",
            ),
            lost_packets: registry.counter(
                "fec_rx_lost_packets_total",
                "Packets inferred lost from EXT_SEQ gaps.",
            ),
            late_or_duplicate: registry.counter(
                "fec_rx_late_or_duplicate_total",
                "Datagrams at or behind the highest EXT_SEQ (reordered or duplicated).",
            ),
            sketch_truncations: registry.counter(
                "fec_rx_sketch_truncations_total",
                "Digest run sketches that overflowed and dropped their oldest runs.",
            ),
            digests: registry.counter(
                "fec_rx_digests_emitted_total",
                "Reception-report digests emitted.",
            ),
            suppressed: registry.counter(
                "fec_feedback_suppressed_total",
                "Digests withheld by population-scaled suppression/backoff \
                 (base-cadence digests folded into a later one).",
            ),
            loss_run_length: registry.histogram(
                "fec_loss_run_length",
                "Link-level loss run lengths observed from EXT_SEQ gaps (packets).",
                LOSS_RUN_BOUNDS,
            ),
            repaired_runs: registry.counter(
                "fec_repaired_loss_runs_total",
                "Loss runs whose object later decoded (repaired by FEC).",
            ),
            residual_run_length: registry.histogram(
                "fec_residual_loss_run_length",
                "Loss run lengths still unrepaired at session finalization (packets).",
                LOSS_RUN_BOUNDS,
            ),
            residual_lost_packets: registry.counter(
                "fec_residual_lost_packets_total",
                "Packets in loss runs still unrepaired at session finalization.",
            ),
        }
    }
}
