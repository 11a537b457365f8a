//! Property tests for the structured event layer, plus the
//! concurrent-counter soundness check.

use std::sync::Arc;

use fec_telemetry::{Event, EventLog, JsonlSink, Registry};
use proptest::prelude::*;

/// Builds one of every [`Event`] variant from generated primitives; the
/// selector wraps, so every variant is reachable from any `u8`.
fn build_event(variant: u8, a: u64, b: u64, c: u64, x: f64, y: f64, flag: bool) -> Event {
    match variant % 10 {
        0 => Event::SessionStart {
            tsi: a,
            objects: b as u32,
            full_schedule: c,
        },
        1 => Event::SessionEnd {
            tsi: a,
            datagrams: b,
            planned: c,
            completed: a as u32,
        },
        2 => Event::ObjectComplete { toi: a as u32 },
        3 => Event::DigestReceived {
            report_seq: a,
            observations: b,
            applied: flag,
        },
        4 => Event::DigestEmitted {
            report_seq: a,
            observations: b,
        },
        5 => Event::EstimateUpdated {
            p: x,
            q: y,
            p_upper: x,
            window: c,
        },
        6 => Event::ReplanIssued {
            toi: a as u32,
            target: b,
            schedule: c,
        },
        7 => Event::BackoffTriggered { reverted: a as u32 },
        8 => Event::RepairQueued {
            toi: a as u32,
            requested: b,
            queued: c,
        },
        _ => Event::SweepProgress {
            units_done: a,
            units_total: b,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every event variant survives a JSON round trip bit-exactly — the
    /// guarantee the JSONL sink and its consumers rely on.
    #[test]
    fn event_json_roundtrip(
        variant in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
        flag in any::<bool>(),
    ) {
        let event = build_event(variant, a, b, c, x, y, flag);
        let json = serde_json::to_string(&event).expect("serialize");
        let back: Event = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, event);
    }
}

/// The JSONL sink writes exactly one parseable line per record, and the
/// parsed lines reproduce the recorded sequence.
#[test]
fn jsonl_sink_roundtrips_a_session() {
    let dir = std::env::temp_dir().join(format!("fec-telemetry-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");

    let log = EventLog::bounded(64);
    let recorded: Vec<Event> = (0..20u8)
        .map(|i| build_event(i, i as u64 * 3, i as u64 + 7, 2, 0.25, 0.5, i % 2 == 0))
        .collect();
    for event in &recorded {
        log.record(event.clone());
    }
    let mut sink = JsonlSink::create(&path).unwrap();
    assert_eq!(sink.drain_from(&log).unwrap(), 20);
    sink.flush().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 20);
    for (i, (line, expected)) in lines.iter().zip(&recorded).enumerate() {
        let record: fec_telemetry::EventRecord = serde_json::from_str(line).unwrap();
        assert_eq!(record.seq, i as u64);
        assert_eq!(&record.event, expected);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Counter increments from many threads must all land: the whole point of
/// handing `Clone`d atomic handles to worker threads.
#[test]
fn concurrent_counter_increments_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let registry = Registry::new();
    let counter = Arc::new(registry.counter(
        "demo_contended_total",
        "Counter hammered from many threads.",
    ));
    let histogram = Arc::new(registry.histogram(
        "demo_contended_values",
        "Histogram hammered from many threads.",
        &[0.5, 1.5],
    ));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = Arc::clone(&counter);
            let histogram = Arc::clone(&histogram);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    // Alternate buckets so bucket cells and the CAS-looped
                    // float sum both see contention.
                    histogram.observe(if (i + t as u64).is_multiple_of(2) {
                        0.0
                    } else {
                        1.0
                    });
                }
            });
        }
    });

    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), total);
    assert_eq!(histogram.count(), total);
    assert_eq!(histogram.sum(), (total / 2) as f64);
    let rendered = registry.render_prometheus();
    assert!(
        rendered.contains(&format!("demo_contended_total {total}")),
        "rendered total drifted:\n{rendered}"
    );
}
