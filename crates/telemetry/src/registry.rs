//! The metric registry: cheap atomic counters/gauges/histograms plus the
//! Prometheus text-format encoder.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path must stay hot.** A metric update is one relaxed
//!    atomic RMW on an `Arc`'d cell — no locks, no allocation, no
//!    formatting. A handle from a [`Registry::disabled`] registry is an
//!    `Option::None` inside, so instrumented code pays exactly one
//!    well-predicted branch when telemetry is off.
//! 2. **Registration is setup-time.** Creating a metric takes a mutex and
//!    allocates; do it once (session start), keep the handle, update it
//!    forever after. Registering the same `(name, labels)` twice returns
//!    the *same* underlying cell, so independent components can share a
//!    series safely.
//! 3. **Exposition is deterministic.** [`Registry::render_prometheus`]
//!    sorts families by name and series by label signature, so the byte
//!    layout is stable and golden-testable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
///
/// Handles are cheap to clone and safe to update from any thread. A handle
/// from a disabled registry ignores updates.
#[derive(Debug, Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            // audit:allow(relaxed) -- single independent cell, monotone RMW;
            // scrapes are statistical snapshots with no cross-cell invariant.
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for inert handles).
    pub fn get(&self) -> u64 {
        // audit:allow(relaxed) -- reads one monotone cell; the value is a
        // point-in-time sample, not a synchronisation signal.
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a single settable `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            // audit:allow(relaxed) -- last-write-wins on a single cell; the
            // bits are a complete f64, so no torn read is observable.
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for inert handles).
    pub fn get(&self) -> f64 {
        // audit:allow(relaxed) -- point-in-time sample of one cell.
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCells {
    /// Finite upper bounds, ascending; the implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One cell per finite bound plus the `+Inf` overflow, NON-cumulative
    /// (cumulated at render time).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, as `f64` bits (CAS loop — observation is
    /// not the decode hot path).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram. Buckets are chosen at registration; observing
/// is a linear scan over a handful of bounds plus two atomic adds — no
/// allocation ever.
#[derive(Debug, Clone)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let Some(cells) = &self.0 else {
            return;
        };
        let idx = cells
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(cells.bounds.len());
        // audit:allow(relaxed) -- bucket, count and sum are deliberately
        // NOT updated atomically as a group: a concurrent scrape may see
        // count ahead of the bucket row (documented in render_prometheus).
        // Each cell on its own is a monotone counter, so Relaxed suffices.
        cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed); // audit:allow(relaxed) -- see above
        let mut current = cells.sum_bits.load(Ordering::Relaxed); // audit:allow(relaxed) -- CAS retry loop re-reads
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match cells.sum_bits.compare_exchange_weak(
                current,
                next,
                // audit:allow(relaxed) -- the loop only publishes the sum
                // bits themselves; failure re-reads, success needs no
                // release because no other data is guarded by this cell.
                Ordering::Relaxed,
                Ordering::Relaxed, // audit:allow(relaxed) -- see above
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Total observations (0 for inert handles).
    pub fn count(&self) -> u64 {
        // audit:allow(relaxed) -- point-in-time sample of one cell.
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of observations (0.0 for inert handles).
    pub fn sum(&self) -> f64 {
        // audit:allow(relaxed) -- point-in-time sample of one cell.
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.sum_bits.load(Ordering::Relaxed)))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Cells {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCells>),
}

#[derive(Debug)]
struct Series {
    /// Pre-rendered `{label="value",…}` signature ("" for no labels); also
    /// the dedup key within a family.
    signature: String,
    cells: Cells,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

#[derive(Debug, Default)]
struct Inner {
    families: Mutex<Vec<Family>>,
}

/// A registry of named metrics.
///
/// Clones share the same underlying metric store (it is an `Arc` inside),
/// so one registry can be handed to every instrumented layer and to the
/// exposition server at once. [`Registry::disabled`] builds a no-op
/// registry whose handles ignore updates and whose exposition is empty.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A no-op registry: every handle it returns is inert, and
    /// [`render_prometheus`](Registry::render_prometheus) returns `""`.
    /// This is the default for instrumented types, so un-observed
    /// sessions pay one branch per would-be update.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a counter with the given label pairs.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels, &[]) {
            Some(Cells::Counter(cell)) => Counter(Some(cell)),
            None => Counter(None),
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a gauge with the given label pairs.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, Kind::Gauge, labels, &[]) {
            Some(Cells::Gauge(cell)) => Gauge(Some(cell)),
            None => Gauge(None),
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram with the given
    /// finite bucket bounds (ascending; the `+Inf` bucket is implicit).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers (or retrieves) a labelled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.register(name, help, Kind::Histogram, labels, bounds) {
            Some(Cells::Histogram(cells)) => Histogram(Some(cells)),
            None => Histogram(None),
            _ => unreachable!("kind checked in register"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Option<Cells> {
        let inner = self.inner.as_ref()?;
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let signature = render_labels(labels);
        let mut families = inner.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name:?} registered as {} and {}",
                    f.kind.as_str(),
                    kind.as_str()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.signature == signature) {
            return Some(clone_cells(&existing.cells));
        }
        let cells = match kind {
            Kind::Counter => Cells::Counter(Arc::new(AtomicU64::new(0))),
            Kind::Gauge => Cells::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
            Kind::Histogram => Cells::Histogram(Arc::new(HistogramCells {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })),
        };
        let handle = clone_cells(&cells);
        family.series.push(Series { signature, cells });
        Some(handle)
    }

    /// Renders every metric in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, one sample line
    /// per series, families sorted by name and series by label signature.
    /// A disabled registry renders as the empty string.
    pub fn render_prometheus(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let families = inner.families.lock().expect("registry poisoned");
        let mut order: Vec<&Family> = families.iter().collect();
        order.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        for family in order {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            let mut series: Vec<&Series> = family.series.iter().collect();
            series.sort_by(|a, b| a.signature.cmp(&b.signature));
            for s in series {
                render_series(&mut out, &family.name, s);
            }
        }
        out
    }
}

fn clone_cells(cells: &Cells) -> Cells {
    match cells {
        Cells::Counter(c) => Cells::Counter(Arc::clone(c)),
        Cells::Gauge(g) => Cells::Gauge(Arc::clone(g)),
        Cells::Histogram(h) => Cells::Histogram(Arc::clone(h)),
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a float the Prometheus way: integral values without a trailing
/// `.0`, everything else via Rust's shortest-roundtrip `Display`.
fn render_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.cells {
        Cells::Counter(c) => {
            out.push_str(name);
            out.push_str(&series.signature);
            out.push(' ');
            // audit:allow(relaxed) -- exposition samples each cell once; a
            // scrape racing an update sees either value, both valid.
            out.push_str(&c.load(Ordering::Relaxed).to_string());
            out.push('\n');
        }
        Cells::Gauge(g) => {
            out.push_str(name);
            out.push_str(&series.signature);
            out.push(' ');
            // audit:allow(relaxed) -- same sampling argument as counters.
            out.push_str(&render_float(f64::from_bits(g.load(Ordering::Relaxed))));
            out.push('\n');
        }
        Cells::Histogram(h) => {
            let mut cumulative = 0u64;
            for (i, bucket) in h.buckets.iter().enumerate() {
                // audit:allow(relaxed) -- bucket/count/sum may be mutually
                // skewed by in-flight observe() calls (each cell is exact);
                // Prometheus tolerates this between scrapes by design.
                cumulative += bucket.load(Ordering::Relaxed);
                let le = h
                    .bounds
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), |b| render_float(*b));
                out.push_str(name);
                out.push_str("_bucket");
                out.push_str(&merge_label(&series.signature, "le", &le));
                out.push(' ');
                out.push_str(&cumulative.to_string());
                out.push('\n');
            }
            out.push_str(name);
            out.push_str("_sum");
            out.push_str(&series.signature);
            out.push(' ');
            out.push_str(&render_float(f64::from_bits(
                h.sum_bits.load(Ordering::Relaxed), // audit:allow(relaxed) -- see bucket note
            )));
            out.push('\n');
            out.push_str(name);
            out.push_str("_count");
            out.push_str(&series.signature);
            out.push(' ');
            // audit:allow(relaxed) -- see the bucket note above.
            out.push_str(&h.count.load(Ordering::Relaxed).to_string());
            out.push('\n');
        }
    }
}

/// Appends `extra="value"` to an existing `{…}` signature (or starts one).
fn merge_label(signature: &str, extra: &str, value: &str) -> String {
    if signature.is_empty() {
        format!("{{{extra}=\"{value}\"}}")
    } else {
        let body = &signature[1..signature.len() - 1];
        format!("{{{body},{extra}=\"{value}\"}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_register_and_update() {
        let r = Registry::new();
        let c = r.counter("t_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same cell.
        let c2 = r.counter("t_total", "a counter");
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = r.gauge("t_gauge", "a gauge");
        g.set(0.25);
        assert_eq!(g.get(), 0.25);

        let h = r.histogram("t_hist", "a histogram", &[1.0, 4.0]);
        for v in [0.5, 2.0, 2.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 13.5);
    }

    #[test]
    fn labelled_series_are_distinct() {
        let r = Registry::new();
        let a = r.counter_with("t_total", "labelled", &[("toi", "1")]);
        let b = r.counter_with("t_total", "labelled", &[("toi", "2")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 2);
        let text = r.render_prometheus();
        assert!(text.contains("t_total{toi=\"1\"} 1"));
        assert!(text.contains("t_total{toi=\"2\"} 2"));
        // HELP/TYPE appear once per family, not per series.
        assert_eq!(text.matches("# TYPE t_total").count(), 1);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("x_total", "nope");
        c.add(100);
        assert_eq!(c.get(), 0);
        let g = r.gauge("x", "nope");
        g.set(3.0);
        assert_eq!(g.get(), 0.0);
        let h = r.histogram("x_hist", "nope", &[1.0]);
        h.observe(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(r.render_prometheus(), "");
    }

    #[test]
    fn clones_share_the_store() {
        let r = Registry::new();
        let c = r.counter("shared_total", "one cell");
        let r2 = r.clone();
        let c2 = r2.counter("shared_total", "one cell");
        c.inc();
        c2.inc();
        assert_eq!(c.get(), 2);
        assert!(r2.render_prometheus().contains("shared_total 2"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("9bad name", "nope");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_are_rejected() {
        let r = Registry::new();
        r.counter("twice", "as counter");
        r.gauge("twice", "as gauge");
    }
}
