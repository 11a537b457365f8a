//! Per-path metric family for bonded (multipath) transport.
//!
//! A bonded sender stripes one emission across N paths; operators need
//! to see, *per path*, what share of the traffic it takes, how much
//! actually went out, and whether the path has been retired. One
//! [`PathMetrics`] bundle per path keeps those series under a single
//! `fec_path_*` family, distinguished by a `path` label, so a
//! Prometheus scrape shows the whole bond side by side.

use crate::registry::{Counter, Gauge, Registry};

/// Handles for one bonded path's metric series.
#[derive(Debug, Clone)]
pub struct PathMetrics {
    /// `fec_path_share` — the fraction of the traffic the scheduler
    /// currently routes to this path (0 once it is retired).
    pub share: Gauge,
    /// `fec_path_datagrams_total` — datagrams handed to this path's
    /// socket/emulator.
    pub datagrams: Counter,
    /// `fec_path_outages_total` — times a send failure retired this path.
    pub outages: Counter,
}

impl PathMetrics {
    /// Registers (or retrieves) the `fec_path_*` series for path index
    /// `path` in `registry`.
    pub fn register(registry: &Registry, path: usize) -> PathMetrics {
        let idx = path.to_string();
        let labels: &[(&str, &str)] = &[("path", idx.as_str())];
        PathMetrics {
            share: registry.gauge_with(
                "fec_path_share",
                "Fraction of the traffic routed to the path.",
                labels,
            ),
            datagrams: registry.counter_with(
                "fec_path_datagrams_total",
                "Datagrams emitted on the path.",
                labels,
            ),
            outages: registry.counter_with(
                "fec_path_outages_total",
                "Times a send failure retired the path.",
                labels,
            ),
        }
    }

    /// Registers bundles for paths `0..count`.
    pub fn register_all(registry: &Registry, count: usize) -> Vec<PathMetrics> {
        (0..count)
            .map(|p| PathMetrics::register(registry, p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_family_renders_with_labels() {
        let registry = Registry::new();
        let paths = PathMetrics::register_all(&registry, 2);
        paths[0].share.set(0.5);
        paths[0].datagrams.add(7);
        paths[1].outages.inc();
        let text = registry.render_prometheus();
        assert!(text.contains("fec_path_share{path=\"0\"} 0.5"));
        assert!(text.contains("fec_path_datagrams_total{path=\"0\"} 7"));
        assert!(text.contains("fec_path_outages_total{path=\"1\"} 1"));
    }

    #[test]
    fn disabled_registry_hands_out_inert_bundles() {
        let off = Registry::disabled();
        let paths = PathMetrics::register_all(&off, 3);
        paths[2].datagrams.inc();
        paths[2].share.set(10.0);
        assert_eq!(off.render_prometheus(), "");
        assert_eq!(paths[2].datagrams.get(), 0);
    }
}
