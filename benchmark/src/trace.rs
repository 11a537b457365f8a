//! In-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer (one span per burst, never per datagram), into a
//! preallocated vector that is written out only after timing has ended.
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover; the self time of the per-round root spans plus
//! any time outside them is the harness's own cost (`bench.other_share`).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Name of the per-round root span every layer span hangs under.
pub const ROUND: &str = "session.round";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.send`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The round (object, cycle, sweep, feedback round) this span belongs
    /// to; spans of one round share it.
    pub object: u32,
    /// A shadow probe re-runs one layer's public function on the same
    /// bytes to split a composite call. Its time is extra work the
    /// untraced run never does, so it is excluded from the timed wall.
    pub shadow: bool,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Records spans when enabled; every call is one branch when disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so that no
    /// reallocation lands inside a timed section.
    pub fn enabled(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, object: u32, shadow: bool) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            object,
            shadow,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, object: u32) -> Open {
        self.open(name, object, false)
    }

    /// Opens a shadow-probe span (see [`Span::shadow`]).
    pub fn begin_shadow(&mut self, name: &'static str, object: u32) -> Open {
        self.open(name, object, true)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        if let Some(span) = self.spans.get_mut(open.0 as usize) {
            span.end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"object\": {}, \"shadow\": {}}}",
                s.name, s.start_ns, s.end_ns, s.object, s.shadow
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus what child spans cover).
    pub self_ns: u64,
    /// Sum of durations of the spans that have a parent, that is, that
    /// ran inside a timed round.
    pub nested_ns: u64,
}

/// Sums duration and self time per span name.
///
/// Children never overlap one another (spans close innermost first on a
/// single thread), so a parent's covered time is the plain sum of its
/// children's durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += s.duration().saturating_sub(covered);
        if s.parent != NO_PARENT {
            t.nested_ns += s.duration();
        }
    }
    out
}

/// Time shadow probes took inside timed rounds: extra work of the traced
/// run, to be taken off its timed wall.
pub fn nested_shadow_ns(spans: &[Span]) -> u64 {
    // A shadow span never nests inside another shadow span, so the sum
    // does not count any interval twice.
    spans
        .iter()
        .filter(|s| s.shadow && s.parent != NO_PARENT)
        .map(Span::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            object: 0,
            shadow: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // round [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
        let spans = vec![
            span(ROUND, 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 50, 90, 0),
            span("c", 60, 70, 2),
        ];
        let t = totals(&spans);
        assert_eq!(t[ROUND].total_ns, 100);
        assert_eq!(t[ROUND].self_ns, 100 - 30 - 40);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].total_ns, 40);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 10);
        assert_eq!((t[ROUND].nested_ns, t["b"].nested_ns), (0, 40));
        // Self times partition the root interval.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![span("x", 0, 5, NO_PARENT), span("x", 5, 12, NO_PARENT)];
        let t = totals(&spans);
        assert_eq!(
            t["x"],
            Total {
                count: 2,
                total_ns: 12,
                self_ns: 12,
                nested_ns: 0
            }
        );
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::enabled(4);
        let root = tr.begin(ROUND, 7);
        let child = tr.begin("wire.send", 7);
        tr.end(child);
        let probe = tr.begin_shadow("flute.parse", 7);
        tr.end(probe);
        tr.end(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans[2].shadow && !spans[1].shadow);
        assert!(spans
            .iter()
            .all(|s| s.object == 7 && s.end_ns >= s.start_ns));
        assert_eq!(nested_shadow_ns(spans), spans[2].duration());

        let mut off = Tracer::disabled();
        let o = off.begin("a", 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
