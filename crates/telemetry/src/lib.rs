//! Session-wide telemetry for the live adaptive stack.
//!
//! Every other crate in this workspace *does* something — encodes,
//! schedules, estimates, re-plans. This one only *watches*: it is the ops
//! surface that makes a live session observable from the outside without
//! perturbing the hot paths being observed. Three pieces:
//!
//! * **Metrics** — a [`Registry`] of named counters, gauges and
//!   fixed-bucket histograms. Handles are plain atomics behind an `Arc`,
//!   so instrumented code pays one relaxed atomic op per update — and one
//!   predictable branch (and nothing else) when the registry was built
//!   with [`Registry::disabled`], the only off switch: every instrumented
//!   type registers its handles there at construction, and its
//!   `attach_telemetry(&Registry)` re-registers them on the caller's
//!   registry. Registration allocates; updates never
//!   do. The whole registry renders to Prometheus text exposition format
//!   via [`Registry::render_prometheus`] (byte layout golden-tested) and
//!   is served over HTTP by [`MetricsServer`].
//! * **Events** — a bounded, thread-safe structured [`EventLog`] of
//!   [`Event`]s (session start/end, object completion, digests, estimator
//!   updates, re-plans, backoffs, link impairments). Drained records
//!   serialize one-per-line into a JSONL sink ([`JsonlSink`]) for offline
//!   analysis/replay; when the log is full the oldest records are dropped
//!   and counted, never blocking the emitter.
//! * **Summary** — a [`SessionSummary`] struct (goodput, overhead versus
//!   the static worst case, re-plan churn, estimator trajectory) the CLI
//!   prints as a single JSON document on exit.
//!
//! The crate depends only on the (shimmed) `serde` stack — it sits at the
//! bottom of the workspace graph so every layer can be instrumented.
//!
//! ```
//! use fec_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let sent = registry.counter("demo_datagrams_total", "Datagrams sent.");
//! sent.add(3);
//! let text = registry.render_prometheus();
//! assert!(text.contains("demo_datagrams_total 3"));
//!
//! // A disabled registry hands out inert handles: same call sites, no
//! // work, no output.
//! let off = Registry::disabled();
//! let inert = off.counter("demo_datagrams_total", "Datagrams sent.");
//! inert.inc();
//! assert_eq!(off.render_prometheus(), "");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod http;
mod path;
mod registry;
mod summary;

pub use event::{Event, EventLog, EventRecord, JsonlSink};
pub use http::MetricsServer;
pub use path::PathMetrics;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use summary::{EstimatorSample, SessionSummary};
