//! Structured session events: a bounded in-memory log plus a JSONL sink.
//!
//! Instrumented layers *record* events (cheap: one mutex push, never
//! blocking on I/O or a full buffer — the oldest record is dropped and
//! counted instead). The session driver *drains* records whenever it
//! likes and ships them to a [`JsonlSink`], one serde-framed JSON object
//! per line, for offline analysis and replay.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// One structured occurrence inside a live session.
///
/// Externally tagged: `{"DigestReceived":{"report_seq":3,…}}` on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A sender session began streaming.
    SessionStart {
        /// Transport Session Identifier.
        tsi: u64,
        /// Number of objects queued in the session.
        objects: u32,
        /// Static worst-case schedule length (packets), before any
        /// feedback-driven truncation.
        full_schedule: u64,
    },
    /// A sender session finished.
    SessionEnd {
        /// Transport Session Identifier.
        tsi: u64,
        /// Data datagrams actually emitted.
        datagrams: u64,
        /// Planned packets at the end (after amendments).
        planned: u64,
        /// Objects confirmed complete by feedback.
        completed: u32,
    },
    /// A receiver (or feedback digest) confirmed an object decoded.
    ObjectComplete {
        /// Transport Object Identifier.
        toi: u32,
    },
    /// The sender ingested a reception report.
    DigestReceived {
        /// Report sequence number from the receiver.
        report_seq: u64,
        /// Loss observations carried by the report.
        observations: u64,
        /// Whether the report advanced state (false: stale/foreign).
        applied: bool,
    },
    /// The receiver emitted a reception report.
    DigestEmitted {
        /// Report sequence number.
        report_seq: u64,
        /// Loss observations carried.
        observations: u64,
    },
    /// The sender-side channel estimator absorbed new observations.
    EstimateUpdated {
        /// Estimated loss-entry probability `p`.
        p: f64,
        /// Estimated loss-exit probability `q`.
        q: f64,
        /// Conservative (Wilson upper bound) loss estimate.
        p_upper: f64,
        /// Observation window length behind the estimate.
        window: u64,
    },
    /// The controller re-planned an in-flight object.
    ReplanIssued {
        /// Object the new plan applies to.
        toi: u32,
        /// New target packet count for the object.
        target: u64,
        /// New schedule length.
        schedule: u64,
    },
    /// The controller entered failure backoff and reverted a plan.
    BackoffTriggered {
        /// Object whose plan was reverted to the full schedule.
        reverted: u32,
    },
    /// The sender turned receiver NACKs into targeted repair symbols.
    RepairQueued {
        /// Object the repairs belong to.
        toi: u32,
        /// Distinct missing symbols the population requested.
        requested: u64,
        /// Symbols actually queued (deduped against packets in flight).
        queued: u64,
    },
    /// Distributed sweep progress.
    SweepProgress {
        /// Work units merged so far.
        units_done: u64,
        /// Work units planned in total.
        units_total: u64,
    },
}

/// An [`Event`] plus its position in the session's event stream.
///
/// `seq` is assigned at record time and never reused, so gaps in a drained
/// stream reveal exactly how many records were dropped under pressure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotone sequence number (0-based) within the log's lifetime.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

#[derive(Debug)]
struct LogInner {
    records: VecDeque<EventRecord>,
    next_seq: u64,
    dropped: u64,
    capacity: usize,
}

/// A bounded, thread-safe event log.
///
/// Clones share the same buffer. Recording never blocks and never
/// allocates beyond the event itself: when the buffer is full the oldest
/// record is evicted and counted in [`EventLog::dropped`].
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<Mutex<LogInner>>,
}

impl EventLog {
    /// A log holding at most `capacity` undrained records.
    pub fn bounded(capacity: usize) -> EventLog {
        assert!(capacity > 0, "event log capacity must be positive");
        EventLog {
            inner: Arc::new(Mutex::new(LogInner {
                records: VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 0,
                dropped: 0,
                capacity,
            })),
        }
    }

    /// Appends an event, evicting the oldest record if full.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock().expect("event log poisoned");
        if inner.records.len() == inner.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.records.push_back(EventRecord { seq, event });
    }

    /// Removes and returns every buffered record, oldest first.
    pub fn drain(&self) -> Vec<EventRecord> {
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.records.drain(..).collect()
    }

    /// Records buffered right now.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event log poisoned").records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted (lost) because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event log poisoned").dropped
    }

    /// Total events ever recorded (including later-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("event log poisoned").next_seq
    }
}

/// Writes drained [`EventRecord`]s as JSON Lines: one object per line.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    written: u64,
}

impl JsonlSink {
    /// Creates (truncating) the sink file.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            written: 0,
        })
    }

    /// Appends one record per line.
    pub fn write_all(&mut self, records: &[EventRecord]) -> std::io::Result<()> {
        for record in records {
            let line = serde_json::to_string(record).map_err(std::io::Error::other)?;
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.written += 1;
        }
        Ok(())
    }

    /// Drains `log` into the sink.
    pub fn drain_from(&mut self, log: &EventLog) -> std::io::Result<usize> {
        let records = log.drain();
        self.write_all(&records)?;
        Ok(records.len())
    }

    /// Flushes buffered lines to the file.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_drain_in_order_with_monotone_seq() {
        let log = EventLog::bounded(16);
        log.record(Event::ObjectComplete { toi: 1 });
        log.record(Event::ObjectComplete { toi: 2 });
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].seq, 0);
        assert_eq!(drained[1].seq, 1);
        assert!(log.is_empty());
        // seq keeps counting across drains.
        log.record(Event::ObjectComplete { toi: 3 });
        assert_eq!(log.drain()[0].seq, 2);
    }

    #[test]
    fn full_log_drops_oldest_and_counts() {
        let log = EventLog::bounded(2);
        for toi in 0..5u32 {
            log.record(Event::ObjectComplete { toi });
        }
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.recorded(), 5);
        let drained = log.drain();
        let seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn events_roundtrip_through_json() {
        let event = Event::EstimateUpdated {
            p: 0.05,
            q: 0.6,
            p_upper: 0.09,
            window: 512,
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("fec_telemetry_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let log = EventLog::bounded(8);
        log.record(Event::SessionStart {
            tsi: 7,
            objects: 1,
            full_schedule: 100,
        });
        log.record(Event::ObjectComplete { toi: 0 });
        let mut sink = JsonlSink::create(&path).unwrap();
        assert_eq!(sink.drain_from(&log).unwrap(), 2);
        sink.flush().unwrap();
        assert_eq!(sink.written(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let record: EventRecord = serde_json::from_str(line).unwrap();
            assert!(record.seq < 2);
        }
        std::fs::remove_file(&path).ok();
    }
}
