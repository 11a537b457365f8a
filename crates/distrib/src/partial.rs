//! fec-audit: deny(panic)
//!
//! Partial sweep results: what a shard produces and hosts ship.

use fec_sim::CellAccum;
use serde::{Deserialize, Serialize};

use crate::{DistribError, SweepPlan};

/// One executed work unit's accumulator, tagged with its canonical id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitResult {
    /// The unit's position in the plan's canonical enumeration.
    pub unit_id: u32,
    /// The statistics accumulated over the unit's runs.
    pub accum: CellAccum,
}

/// A set of unit results tied to a plan by fingerprint: what
/// [`run_shard`](crate::run_shard) returns and the in-memory merge input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialSweep {
    /// [`SweepPlan::fingerprint`] of the plan these units belong to.
    pub fingerprint: u64,
    /// The executed units (any subset of the plan, any order).
    pub units: Vec<UnitResult>,
}

/// A self-contained partial file: the plan plus the units one host
/// executed. This is what `fec-broadcast sweep --shard i/n --emit-partial`
/// writes and what the `merge` subcommand combines, so multi-host users
/// never have to ship the plan separately.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFile {
    /// The complete plan (every host must have built the identical one).
    pub plan: SweepPlan,
    /// The units this file accounts for.
    pub units: Vec<UnitResult>,
}

/// First line of a partial file: the plan, tagged with the format name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialHeader {
    /// Always [`PARTIAL_JSONL_FORMAT`].
    pub format: String,
    /// The complete plan (identical on every host).
    pub plan: SweepPlan,
}

/// Format tag of the partial-file layout.
pub const PARTIAL_JSONL_FORMAT: &str = "fec-partial/1";

impl PartialHeader {
    /// Parses a partial file's first non-blank line. Anything that is not
    /// a [`PARTIAL_JSONL_FORMAT`] header is rejected by naming the format
    /// a partial file must have.
    pub(crate) fn parse(line: &str) -> Result<PartialHeader, DistribError> {
        match serde_json::from_str::<PartialHeader>(line) {
            Ok(header) if header.format == PARTIAL_JSONL_FORMAT => Ok(header),
            _ => Err(DistribError::Protocol {
                detail: format!(
                    "not a {PARTIAL_JSONL_FORMAT} partial file: the first line must be a \
                     {{\"format\":\"{PARTIAL_JSONL_FORMAT}\",\"plan\":…}} header, \
                     followed by one unit result per line \
                     (as written by `sweep --shard i/n --emit-partial`)"
                ),
            }),
        }
    }
}

/// Parses one unit line of a partial file.
pub(crate) fn parse_unit_line(line: &str) -> Result<UnitResult, DistribError> {
    serde_json::from_str(line).map_err(|e| DistribError::Protocol {
        detail: format!("malformed unit line: {e}"),
    })
}

impl PartialFile {
    /// Serializes the file: one [`PartialHeader`] line carrying the plan,
    /// then one [`UnitResult`] per line. A reader can fold units as it
    /// goes instead of materialising the whole file.
    pub fn to_jsonl(&self) -> Result<String, DistribError> {
        let err = |e: serde_json::Error| DistribError::Protocol {
            detail: format!("partial file does not serialize: {e}"),
        };
        let mut out = serde_json::to_string(&PartialHeader {
            format: PARTIAL_JSONL_FORMAT.to_string(),
            plan: self.plan.clone(),
        })
        .map_err(err)?;
        out.push('\n');
        for unit in &self.units {
            out.push_str(&serde_json::to_string(unit).map_err(err)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a partial file, loading it fully into memory. The
    /// constant-memory path is [`merge_paths`](crate::merge_paths).
    pub fn from_text(text: &str) -> Result<PartialFile, DistribError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let first = lines.next().ok_or_else(|| DistribError::Protocol {
            detail: "empty partial file".into(),
        })?;
        let header = PartialHeader::parse(first)?;
        let units = lines
            .map(parse_unit_line)
            .collect::<Result<Vec<UnitResult>, DistribError>>()?;
        Ok(PartialFile {
            plan: header.plan,
            units,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_codec::builtin;
    use fec_sim::{CellAccum, ExpansionRatio, Experiment, SweepConfig};

    #[test]
    fn partial_file_roundtrips() {
        let plan = SweepPlan::new(
            Experiment::new(
                builtin::rse(),
                100,
                ExpansionRatio::R1_5,
                fec_sched::TxModel::Random,
            ),
            SweepConfig {
                runs: 2,
                grid_p: vec![0.0],
                grid_q: vec![0.0],
                ..SweepConfig::default()
            },
        )
        .unwrap();
        let mut accum = CellAccum::new(0);
        accum.record(Some(1.0), 1.0);
        accum.record(None, 0.5);
        let file = PartialFile {
            plan,
            units: vec![UnitResult { unit_id: 0, accum }],
        };
        let back = PartialFile::from_text(&file.to_jsonl().unwrap()).unwrap();
        assert_eq!(back, file);
    }
}
