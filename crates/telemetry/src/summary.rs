//! End-of-session roll-up: the single JSON document a CLI session prints
//! on exit.
//!
//! The summary answers the paper-level questions about a finished run:
//! how fast did useful bytes move (goodput), how much of the static
//! worst-case schedule did feedback let us skip (overhead ratio), how
//! often did the controller re-plan or back off, and what trajectory did
//! the Gilbert estimator trace while doing it.

use serde::{Deserialize, Serialize};

/// One point on the estimator's trajectory through the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorSample {
    /// Loss observations absorbed when the sample was taken.
    pub observations: u64,
    /// Estimated loss-entry probability `p`.
    pub p: f64,
    /// Estimated loss-exit probability `q`.
    pub q: f64,
    /// Conservative (Wilson upper bound) loss estimate the planner used.
    pub p_upper: f64,
}

/// Final statistics for one live session, printed as JSON on exit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Transport Session Identifier.
    pub tsi: u64,
    /// Wall-clock session duration in seconds.
    pub elapsed_secs: f64,
    /// Data datagrams emitted (excludes FDT refreshes).
    pub datagrams_sent: u64,
    /// Payload bytes emitted on the wire.
    pub bytes_sent: u64,
    /// Source object bytes the session carried.
    pub object_bytes: u64,
    /// `object_bytes / elapsed_secs` (0 when the clock reads zero).
    pub goodput_bytes_per_sec: f64,
    /// Full schedule length (packets) at session start: what the static
    /// sender, which never re-plans or redeploys, would have sent.
    pub full_schedule: u64,
    /// `datagrams_sent / full_schedule`: < 1.0 means feedback saved
    /// transmissions versus the static plan.
    pub overhead_ratio: f64,
    /// Plans issued by the adaptive controller.
    pub replans: u64,
    /// Failure backoffs (plan reverted to worst case).
    pub backoffs: u64,
    /// Reception reports that advanced sender state.
    pub digests_applied: u64,
    /// Objects confirmed complete via feedback.
    pub objects_completed: u32,
    /// Estimator trajectory, oldest sample first.
    pub estimator: Vec<EstimatorSample>,
}

impl SessionSummary {
    /// A zeroed summary for session `tsi`; fill fields as the session
    /// closes out.
    pub fn new(tsi: u64) -> SessionSummary {
        SessionSummary {
            tsi,
            elapsed_secs: 0.0,
            datagrams_sent: 0,
            bytes_sent: 0,
            object_bytes: 0,
            goodput_bytes_per_sec: 0.0,
            full_schedule: 0,
            overhead_ratio: 0.0,
            replans: 0,
            backoffs: 0,
            digests_applied: 0,
            objects_completed: 0,
            estimator: Vec::new(),
        }
    }

    /// Recomputes the derived rates (`goodput_bytes_per_sec`,
    /// `overhead_ratio`) from the raw fields.
    pub fn finalize(&mut self) {
        self.goodput_bytes_per_sec = if self.elapsed_secs > 0.0 {
            self.object_bytes as f64 / self.elapsed_secs
        } else {
            0.0
        };
        self.overhead_ratio = if self.full_schedule > 0 {
            self.datagrams_sent as f64 / self.full_schedule as f64
        } else {
            0.0
        };
    }

    /// Serializes the summary as a single pretty JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_derives_rates() {
        let mut s = SessionSummary::new(42);
        s.elapsed_secs = 2.0;
        s.object_bytes = 4096;
        s.datagrams_sent = 75;
        s.full_schedule = 100;
        s.finalize();
        assert_eq!(s.goodput_bytes_per_sec, 2048.0);
        assert_eq!(s.overhead_ratio, 0.75);
    }

    #[test]
    fn finalize_tolerates_zero_denominators() {
        let mut s = SessionSummary::new(0);
        s.finalize();
        assert_eq!(s.goodput_bytes_per_sec, 0.0);
        assert_eq!(s.overhead_ratio, 0.0);
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let mut s = SessionSummary::new(7);
        s.datagrams_sent = 10;
        s.estimator.push(EstimatorSample {
            observations: 100,
            p: 0.05,
            q: 0.5,
            p_upper: 0.08,
        });
        s.finalize();
        let json = s.to_json();
        let back: SessionSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
