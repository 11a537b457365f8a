//! Merging partial results back into a [`SweepResult`] — in memory or
//! streamed unit-by-unit.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use fec_sim::{finalize_cells, CellAccum, SweepResult, WorkUnit};

use crate::partial::{parse_unit_line, PartialHeader};
use crate::{DistribError, PartialSweep, SweepPlan, UnitResult};

/// Merges a set of partials into the plan's final [`SweepResult`], with
/// completeness checking: every canonical unit must be accounted for
/// exactly once (bit-identical duplicates — e.g. a rerun shard — are
/// tolerated; conflicting duplicates are an error), every partial must
/// carry the plan's fingerprint, and every accumulator must match its
/// unit's cell and run count.
///
/// The per-unit accumulators are folded in canonical unit order, so the
/// result is byte-identical to the single-process sweep of the same plan
/// no matter how the units were partitioned or in which order the partials
/// arrive.
pub fn from_partials(
    plan: &SweepPlan,
    partials: &[PartialSweep],
) -> Result<SweepResult, DistribError> {
    let mut merge = StreamingMerge::new(plan.clone());
    for partial in partials {
        merge.fold_partial(partial)?;
    }
    merge.finish()
}

/// An incremental merge: units fold in one at a time (any source, any
/// order), so a multi-host merge never holds more than the plan's slot
/// table plus one unit in memory — constant in the number and size of the
/// partial files.
#[derive(Debug)]
pub struct StreamingMerge {
    plan: SweepPlan,
    units: Vec<WorkUnit>,
    fingerprint: u64,
    slots: Vec<Option<CellAccum>>,
    folded: u64,
}

impl StreamingMerge {
    /// Starts a merge of `plan`.
    pub fn new(plan: SweepPlan) -> StreamingMerge {
        let units = plan.units();
        let fingerprint = plan.fingerprint();
        let slots = vec![None; units.len()];
        StreamingMerge {
            plan,
            units,
            fingerprint,
            slots,
            folded: 0,
        }
    }

    /// The plan being merged.
    pub fn plan(&self) -> &SweepPlan {
        &self.plan
    }

    /// Unit results folded so far (duplicates included).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Plan units still unaccounted for.
    pub fn missing(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// Folds one unit result, with the full validation set: the unit must
    /// exist in the plan, its accumulator must cover the unit's cell and
    /// run count, and a duplicate must be bit-identical (idempotent
    /// re-runs are fine, conflicting ones are an error).
    pub fn fold_unit(&mut self, ur: &UnitResult) -> Result<(), DistribError> {
        let unit = self
            .units
            .get(ur.unit_id as usize)
            .ok_or_else(|| DistribError::Protocol {
                detail: format!(
                    "unit {} is not in the plan ({} units)",
                    ur.unit_id,
                    self.units.len()
                ),
            })?;
        if ur.accum.cell_idx != unit.cell_idx || ur.accum.runs != unit.run_len {
            return Err(DistribError::Protocol {
                detail: format!(
                    "unit {} accumulator covers cell {} over {} run(s), \
                     but the plan says cell {} over {} run(s)",
                    ur.unit_id, ur.accum.cell_idx, ur.accum.runs, unit.cell_idx, unit.run_len
                ),
            });
        }
        match &self.slots[ur.unit_id as usize] {
            Some(existing) if *existing != ur.accum => {
                return Err(DistribError::Protocol {
                    detail: format!(
                        "unit {} was reported twice with conflicting results",
                        ur.unit_id
                    ),
                });
            }
            Some(_) => {} // identical duplicate: idempotent
            None => self.slots[ur.unit_id as usize] = Some(ur.accum.clone()),
        }
        self.folded += 1;
        Ok(())
    }

    /// Folds a fingerprint-tagged batch (one shard's in-memory result).
    pub fn fold_partial(&mut self, partial: &PartialSweep) -> Result<(), DistribError> {
        if partial.fingerprint != self.fingerprint {
            return Err(DistribError::PlanMismatch {
                expected: self.fingerprint,
                found: partial.fingerprint,
            });
        }
        for ur in &partial.units {
            self.fold_unit(ur)?;
        }
        Ok(())
    }

    /// Folds one partial file from a line reader without materialising
    /// it: the header must carry this merge's plan, then units stream in
    /// one line at a time. Returns the number of unit results folded from
    /// this source.
    pub fn fold_reader(&mut self, reader: impl BufRead) -> Result<u64, DistribError> {
        let before = self.folded;
        let mut lines = reader.lines();
        let header = read_header(&mut lines)?;
        if header.plan.fingerprint() != self.fingerprint {
            return Err(DistribError::PlanMismatch {
                expected: self.fingerprint,
                found: header.plan.fingerprint(),
            });
        }
        for line in lines {
            let line = line.map_err(unreadable)?;
            if !line.trim().is_empty() {
                self.fold_unit(&parse_unit_line(&line)?)?;
            }
        }
        Ok(self.folded - before)
    }

    /// Completes the merge: every plan unit must be accounted for.
    pub fn finish(self) -> Result<SweepResult, DistribError> {
        let missing: Vec<u32> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        if !missing.is_empty() {
            return Err(DistribError::Incomplete {
                missing_count: missing.len(),
                missing: missing.into_iter().take(8).collect(),
            });
        }
        let accums: Vec<CellAccum> = self
            .slots
            .into_iter()
            .map(|s| s.expect("checked complete"))
            .collect();
        Ok(SweepResult {
            experiment: self.plan.experiment.clone(),
            config: self.plan.config.clone(),
            cells: finalize_cells(&self.plan.config, &accums),
        })
    }
}

fn unreadable(e: std::io::Error) -> DistribError {
    DistribError::Protocol {
        detail: format!("cannot read partial file: {e}"),
    }
}

/// Reads a partial file's header: its first non-blank line (a leading
/// blank line, e.g. from a shell pipeline, is tolerated).
fn read_header(lines: &mut std::io::Lines<impl BufRead>) -> Result<PartialHeader, DistribError> {
    for line in lines {
        let line = line.map_err(unreadable)?;
        if !line.trim().is_empty() {
            return PartialHeader::parse(&line);
        }
    }
    Err(DistribError::Protocol {
        detail: "empty partial file".into(),
    })
}

/// Merges partial files from disk in constant memory: the first file's
/// header fixes the plan, then every file streams its units into a
/// [`StreamingMerge`] line by line. Returns the result and the number of
/// unit results folded.
pub fn merge_paths<P: AsRef<Path>>(paths: &[P]) -> Result<(SweepResult, u64), DistribError> {
    let open = |path: &Path| {
        File::open(path)
            .map(BufReader::new)
            .map_err(|e| DistribError::Protocol {
                detail: format!("cannot read {}: {e}", path.display()),
            })
    };
    // Every error names the file it came from.
    let in_file = |path: &Path, e: DistribError| match e {
        DistribError::PlanMismatch { expected, found } => DistribError::Protocol {
            detail: format!(
                "{} was produced by a different plan \
                 (fingerprint {found:#018x}, expected {expected:#018x}); \
                 every host must run the same sweep parameters",
                path.display()
            ),
        },
        DistribError::Protocol { detail } => DistribError::Protocol {
            detail: format!("{}: {detail}", path.display()),
        },
        other => other,
    };
    let first = paths
        .first()
        .ok_or_else(|| DistribError::Protocol {
            detail: "no partial files to merge".into(),
        })?
        .as_ref();
    // Only the first file's header line is parsed twice: once here for
    // the plan, once when the file streams through with the others.
    let header = read_header(&mut open(first)?.lines()).map_err(|e| in_file(first, e))?;
    let mut merge = StreamingMerge::new(header.plan);
    let mut folded = 0u64;
    for path in paths {
        let path = path.as_ref();
        folded += merge
            .fold_reader(open(path)?)
            .map_err(|e| in_file(path, e))?;
    }
    merge.finish().map(|r| (r, folded))
}
