//! Telemetry bundle for the wire engine: syscall and datagram counters
//! plus a batch-size histogram, labelled by direction (`op="send"` /
//! `op="recv"`). An engine registers its bundle on
//! `Registry::disabled()` when it is built, so until `attach_telemetry`
//! it pays one predicted branch per update.

use fec_telemetry::{Counter, Histogram, Registry};

/// Histogram bounds for datagrams-per-syscall: powers of two up to the
/// engine's burst cap.
pub const BATCH_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 64.0];

/// Per-direction engine metrics.
#[derive(Clone)]
pub(crate) struct DirectionMetrics {
    syscalls: Counter,
    datagrams: Counter,
    bytes: Counter,
    batch: Histogram,
}

impl DirectionMetrics {
    /// Registers the `op`-labelled series.
    pub fn register(registry: &Registry, op: &str) -> DirectionMetrics {
        let labels = [("op", op)];
        DirectionMetrics {
            syscalls: registry.counter_with(
                "fec_wire_syscalls_total",
                "Datagram-path syscalls issued by the wire engine",
                &labels,
            ),
            datagrams: registry.counter_with(
                "fec_wire_datagrams_total",
                "Datagrams moved by the wire engine",
                &labels,
            ),
            bytes: registry.counter_with(
                "fec_wire_bytes_total",
                "Payload bytes moved by the wire engine",
                &labels,
            ),
            batch: registry.histogram_with(
                "fec_wire_batch_size",
                "Datagrams moved per syscall",
                &BATCH_BOUNDS,
                &labels,
            ),
        }
    }

    /// Records one burst: `datagrams` moved in `syscalls` syscalls.
    pub fn record(&self, datagrams: usize, bytes: usize, syscalls: u64) {
        self.syscalls.add(syscalls);
        self.datagrams.add(datagrams as u64);
        self.bytes.add(bytes as u64);
        if syscalls > 0 {
            self.batch.observe(datagrams as f64 / syscalls as f64);
        }
    }

    /// Records a syscall that moved nothing (e.g. a poll that came back
    /// empty) so syscall totals stay honest.
    pub fn record_empty_syscall(&self) {
        self.syscalls.inc();
    }
}
