//! fec-audit: deny(panic)
//!
//! [`SweepPlan`] — the serializable contract every shard executes against.

use fec_sim::{Experiment, GridSweep, SweepConfig, WorkUnit, DEFAULT_RUNS_PER_UNIT};
use serde::{Deserialize, Serialize};

use crate::DistribError;

/// A fully-specified sweep with a frozen work-unit decomposition.
///
/// The plan is what travels between processes and hosts: it fixes the
/// experiment, the grid/runs/seed configuration, and `runs_per_unit` — and
/// with them the canonical [`WorkUnit`] enumeration every participant
/// agrees on. Because every unit's random streams derive from
/// `(seed, cell index, absolute run index)` alone, *who* executes a unit
/// and *in which order* never changes its result; merging the per-unit
/// accumulators in canonical order therefore reproduces the single-process
/// sweep byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPlan {
    /// The experiment swept (channel field replaced per cell).
    pub experiment: Experiment,
    /// Grid, runs-per-cell, seed and aggregation options.
    pub config: SweepConfig,
    /// Maximum runs per work unit (the run-range slicing granularity).
    pub runs_per_unit: u32,
}

impl SweepPlan {
    /// Builds a plan with the canonical default slicing
    /// ([`DEFAULT_RUNS_PER_UNIT`]), validating the configuration shape.
    ///
    /// Deep validation (codec envelope, matrix pool) happens when a
    /// participant prepares the sweep ([`SweepPlan::prepare`]); this
    /// constructor only rejects plans no participant could ever run.
    pub fn new(experiment: Experiment, config: SweepConfig) -> Result<SweepPlan, DistribError> {
        let plan = SweepPlan {
            experiment,
            config,
            runs_per_unit: DEFAULT_RUNS_PER_UNIT,
        };
        plan.check_shape()?;
        Ok(plan)
    }

    /// Same plan with a different run-range slicing granularity.
    ///
    /// Finer slices shard a small grid across more hosts; note that the
    /// float fold order (and so the last-ulp of the merged statistics)
    /// follows the slicing, so only executions of the **same** plan are
    /// guaranteed byte-identical.
    pub fn with_runs_per_unit(mut self, runs_per_unit: u32) -> SweepPlan {
        self.runs_per_unit = runs_per_unit.max(1);
        self
    }

    fn check_shape(&self) -> Result<(), DistribError> {
        if self.config.runs == 0 {
            return Err(DistribError::Protocol {
                detail: "plan needs at least one run per cell".into(),
            });
        }
        for (name, g) in [("p", &self.config.grid_p), ("q", &self.config.grid_q)] {
            if g.is_empty() {
                return Err(DistribError::Protocol {
                    detail: format!("plan has an empty {name} grid"),
                });
            }
            if g.iter().any(|v| !(0.0..=1.0).contains(v)) {
                return Err(DistribError::Protocol {
                    detail: format!("plan {name} grid contains non-probability values"),
                });
            }
        }
        if self.runs_per_unit == 0 {
            return Err(DistribError::Protocol {
                detail: "runs_per_unit must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The canonical work-unit enumeration (see [`SweepConfig::units`]).
    pub fn units(&self) -> Vec<WorkUnit> {
        self.config.units(self.runs_per_unit)
    }

    /// Number of work units in the plan.
    pub fn unit_count(&self) -> usize {
        let per_unit = self.runs_per_unit.max(1);
        self.config.cell_count() * self.config.runs.div_ceil(per_unit) as usize
    }

    /// A stable 64-bit digest of the plan document (FNV-1a over the
    /// canonical JSON serialization). Partial results carry it so a merge
    /// can refuse units computed against a different plan.
    pub fn fingerprint(&self) -> u64 {
        // audit:allow(panic) -- serialising our own in-memory plan cannot
        // fail; only network-received bytes must parse totally.
        let json = self.to_json().expect("plan serializes");
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in json.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Serializes the plan (the document partial files carry).
    pub fn to_json(&self) -> Result<String, DistribError> {
        serde_json::to_string(self).map_err(|e| DistribError::Protocol {
            detail: format!("plan does not serialize: {e}"),
        })
    }

    /// Parses a plan document and validates its shape.
    pub fn from_json(json: &str) -> Result<SweepPlan, DistribError> {
        let plan: SweepPlan = serde_json::from_str(json).map_err(|e| DistribError::Protocol {
            detail: format!("malformed plan document: {e}"),
        })?;
        plan.check_shape()?;
        Ok(plan)
    }

    /// Prepares the executable sweep (validates deeply and builds the
    /// codec's structural pool).
    pub fn prepare(&self) -> Result<GridSweep, DistribError> {
        Ok(GridSweep::new(
            self.experiment.clone(),
            self.config.clone(),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;
    use fec_sched::TxModel;
    use fec_sim::ExpansionRatio;

    fn plan() -> SweepPlan {
        plan_of(Experiment::new(
            builtin::ldgm_staircase(),
            200,
            ExpansionRatio::R2_5,
            TxModel::Random,
        ))
    }

    fn plan_of(exp: Experiment) -> SweepPlan {
        let cfg = SweepConfig {
            runs: 7,
            grid_p: vec![0.0, 0.1],
            grid_q: vec![0.5],
            seed: 42,
            matrix_pool: 2,
            track_total: false,
            threads: Some(1),
        };
        SweepPlan::new(exp, cfg).unwrap()
    }

    #[test]
    fn roundtrips_through_json() {
        let p = plan();
        let back = SweepPlan::from_json(&p.to_json().unwrap()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.fingerprint(), p.fingerprint());
    }

    #[test]
    fn fingerprint_is_sensitive() {
        let p = plan();
        let mut other = p.clone();
        other.config.seed += 1;
        assert_ne!(p.fingerprint(), other.fingerprint());
        let resliced = p.clone().with_runs_per_unit(1);
        assert_ne!(p.fingerprint(), resliced.fingerprint());
    }

    #[test]
    fn unit_count_matches_enumeration() {
        let p = plan().with_runs_per_unit(3);
        assert_eq!(p.unit_count(), p.units().len());
        assert_eq!(p.unit_count(), 2 * 3); // 2 cells × ceil(7/3)
    }

    #[test]
    fn rejects_malformed_plans() {
        let mut p = plan();
        p.config.runs = 0;
        assert!(p.check_shape().is_err());
        let mut p = plan();
        p.config.grid_p = vec![1.5];
        assert!(SweepPlan::from_json(&p.to_json().unwrap()).is_err());
        assert!(SweepPlan::from_json("{not json").is_err());
    }

    /// Plan documents travel between hosts and builds, and partials are
    /// matched to them by fingerprint: a document an earlier build wrote
    /// must parse to the same plan, re-serialize byte for byte and keep
    /// its fingerprint.
    #[test]
    fn golden_documents_keep_their_bytes_and_fingerprints() {
        let golden = [
            (
                Experiment::new(
                    builtin::rse(),
                    200,
                    ExpansionRatio::R1_5,
                    TxModel::Interleaved,
                ),
                r#"{"experiment":{"code":"Rse","k":200,"ratio":"R1_5","tx":"Interleaved","channel":{"p":0,"q":1}},"config":{"runs":7,"grid_p":[0,0.1],"grid_q":[0.5],"seed":42,"matrix_pool":2,"track_total":false,"threads":1},"runs_per_unit":25}"#,
                0x1269_2b95_3077_b8a8_u64,
            ),
            (
                Experiment::new(
                    builtin::ldgm_triangle(),
                    200,
                    ExpansionRatio::R2_5,
                    TxModel::Random,
                ),
                r#"{"experiment":{"code":"LdgmTriangle","k":200,"ratio":"R2_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":7,"grid_p":[0,0.1],"grid_q":[0.5],"seed":42,"matrix_pool":2,"track_total":false,"threads":1},"runs_per_unit":25}"#,
                0xe86f_2c76_fdee_d129_u64,
            ),
        ];
        for (experiment, doc, fingerprint) in golden {
            let parsed = SweepPlan::from_json(doc).unwrap();
            assert_eq!(parsed, plan_of(experiment));
            assert_eq!(parsed.to_json().unwrap(), doc);
            assert_eq!(parsed.fingerprint(), fingerprint, "{doc}");
        }
    }
}
