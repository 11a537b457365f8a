//! fec-audit: deny(panic)
//!
//! Multi-host sweeps. One machine's cores are the ceiling of
//! [`GridSweep::execute`](crate::GridSweep::execute); the paper's figures
//! (14×14 cells × 100 runs at `k = 20000`) spread over hosts in four steps,
//! with output byte-identical to the single-process sweep:
//!
//! 1. **Plan** ([`SweepPlan`]): the experiment, grid, seed and unit slicing
//!    every host agrees on, fingerprinted so foreign work is refused.
//! 2. **Shard** ([`Shard`]): `i/n` takes every unit whose id is `i` mod `n`.
//! 3. **Execute** the shard's units
//!    ([`GridSweep::execute_units`](crate::GridSweep::execute_units)) and
//!    save them as a `fec-partial/2` file ([`PartialFile`]): a
//!    [`PartialHeader`] line carrying the plan, then one [`UnitResult`] per
//!    line, each holding its runs' law of `n_necessary`.
//! 4. **Merge** ([`StreamingMerge`], [`merge_paths`]): fold the units of
//!    every file, in any order, and add each into its cell; the integer
//!    accumulators add exactly, so no order is canonical.
//!
//! A partial file is untrusted input. The merge parses it totally, holds
//! only the units it has read — a unit's cell and run count follow from
//! its id — and refuses a unit the plan does not have, an accumulator that
//! does not fit its unit (a law out of order, a zero count, counts that
//! do not add up to the unit's runs), and a duplicate that disagrees. A
//! `fec-partial/1` file from an earlier build holds float sums, which
//! cannot be turned back into a law, so it is refused by its format tag.
//!
//! ```no_run
//! use fec_codec::builtin;
//! use fec_sim::{ExpansionRatio, Experiment, GridSweep, Shard, StreamingMerge};
//! use fec_sim::{SweepConfig, SweepPlan, UnitResult};
//!
//! let experiment = Experiment::new(
//!     builtin::ldgm_staircase(),
//!     2000,
//!     ExpansionRatio::R2_5,
//!     fec_sched::TxModel::Random,
//! );
//! let plan = SweepPlan::new(experiment, SweepConfig::quick(20));
//! let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone())?;
//! let mut merge = StreamingMerge::new(plan.clone());
//! for index in 0..2 {
//!     // What `fec-broadcast sweep … --shard {index}/2` computes on one host.
//!     let units = Shard { index, count: 2 }.select(&plan.units());
//!     for (unit, accum) in units.iter().zip(sweep.execute_units(&units)) {
//!         merge.fold_unit(UnitResult { unit_id: unit.unit_id, accum })?;
//!     }
//! }
//! println!("{}", fec_sim::report::paper_table(&merge.finish()?));
//! # Ok::<(), fec_sim::SimError>(())
//! ```

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Lines};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::{
    finalize_cells, CellAccum, Experiment, SimError, SweepConfig, SweepResult, WorkUnit,
    DEFAULT_RUNS_PER_UNIT,
};

/// Format tag of the partial-file layout.
const PARTIAL_JSONL_FORMAT: &str = "fec-partial/2";

/// The largest `n_necessary` a law may hold. Below it, a cell's `u128`
/// law moments (see [`CellAccum::finalize`]) cannot overflow; every
/// built-in codec's envelope stays far below it.
const MAX_PACKETS_PER_RUN: u64 = u32::MAX as u64;

/// A fully-specified sweep with a frozen work-unit decomposition.
///
/// The plan is what travels between hosts: it fixes the experiment, the
/// grid/runs/seed configuration, and `runs_per_unit` — and with them the
/// canonical [`WorkUnit`] enumeration every participant agrees on. Because
/// every unit's random streams derive from `(seed, cell index, absolute run
/// index)` alone, *who* executes a unit and *in which order* never changes
/// its result; merging the per-unit accumulators, which is exact, therefore
/// reproduces the single-process sweep byte for byte.
/// [`GridSweep::new`](crate::GridSweep::new) validates its shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPlan {
    /// The experiment swept (channel field replaced per cell).
    pub experiment: Experiment,
    /// Grid, runs-per-cell, seed and aggregation options.
    pub config: SweepConfig,
    /// Maximum runs per work unit (the run-range slicing granularity);
    /// the `fec-partial/2` format carries it.
    pub runs_per_unit: u32,
}

impl SweepPlan {
    /// The plan with the default slicing ([`DEFAULT_RUNS_PER_UNIT`]), the
    /// one [`GridSweep::execute`](crate::GridSweep::execute) runs.
    pub fn new(experiment: Experiment, config: SweepConfig) -> SweepPlan {
        SweepPlan {
            experiment,
            config,
            runs_per_unit: DEFAULT_RUNS_PER_UNIT,
        }
    }

    /// The canonical work-unit enumeration (see [`SweepConfig::units`]).
    pub fn units(&self) -> Vec<WorkUnit> {
        self.config.units(self.runs_per_unit)
    }

    /// A stable 64-bit digest of the plan document (FNV-1a over the
    /// canonical JSON serialization). A merge refuses partial files whose
    /// plan has a different one.
    pub fn fingerprint(&self) -> u64 {
        // audit:allow(panic) -- serialising our own in-memory plan cannot
        // fail; only network-received bytes must parse totally.
        let json = serde_json::to_string(self).expect("plan serializes");
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in json.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// One host's slice of a plan: every unit whose id is `index` modulo
/// `count`. Consecutive unit ids belong to consecutive cells and
/// run-ranges, so round-robin spreads grid rows and heavy cells evenly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Shard {
    /// Parses the CLI syntax `i/n` (0-based: shards of a 4-way split are
    /// `0/4` … `3/4`).
    pub fn parse(s: &str) -> Result<Shard, SimError> {
        let err = || {
            protocol(format!(
                "bad shard spec {s:?}: expected i/n with 0 <= i < n (e.g. 0/4)"
            ))
        };
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = i.trim().parse().map_err(|_| err())?;
        let count: u32 = n.trim().parse().map_err(|_| err())?;
        if index >= count {
            return Err(protocol(format!(
                "shard index {index} out of range for {count} shard(s)"
            )));
        }
        Ok(Shard { index, count })
    }

    /// Selects this shard's units out of a plan's canonical enumeration.
    pub fn select(&self, units: &[WorkUnit]) -> Vec<WorkUnit> {
        units
            .iter()
            .filter(|u| u.unit_id.checked_rem(self.count) == Some(self.index))
            .copied()
            .collect()
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One executed work unit's accumulator, tagged with its canonical id:
/// one line of a partial file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnitResult {
    /// The unit's position in the plan's canonical enumeration.
    pub unit_id: u32,
    /// The statistics accumulated over the unit's runs.
    pub accum: CellAccum,
}

/// First line of a partial file: the plan, tagged with the format name.
#[derive(Debug, Serialize, Deserialize)]
pub struct PartialHeader {
    /// Always `fec-partial/2`.
    pub format: String,
    /// The complete plan (identical on every host).
    pub plan: SweepPlan,
}

/// A self-contained partial file: the plan plus the units one host
/// executed. This is what `fec-broadcast sweep --shard i/n --emit-partial`
/// writes and what the `merge` subcommand combines, so multi-host users
/// never have to ship the plan separately.
#[derive(Debug)]
pub struct PartialFile {
    /// The complete plan (every host must have built the identical one).
    pub plan: SweepPlan,
    /// The units this file accounts for.
    pub units: Vec<UnitResult>,
}

impl PartialFile {
    /// Serializes the file as JSON Lines: one [`PartialHeader`] line
    /// carrying the plan, then one [`UnitResult`] per line, so a merge can
    /// fold units as it reads them.
    pub fn to_jsonl(&self) -> Result<String, SimError> {
        let header = PartialHeader {
            format: PARTIAL_JSONL_FORMAT.to_string(),
            plan: self.plan.clone(),
        };
        let lines = std::iter::once(serde_json::to_string(&header))
            .chain(self.units.iter().map(serde_json::to_string));
        let mut out = String::new();
        for line in lines {
            let line =
                line.map_err(|e| protocol(format!("partial file does not serialize: {e}")))?;
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }
}

/// The merge: unit results fold in one at a time, from any source in any
/// order, and [`finish`](StreamingMerge::finish) adds each into its cell.
/// The accumulators add exactly, so the result is byte-identical to the
/// single-process sweep of the same plan however the units were
/// partitioned.
///
/// Memory follows what was folded, never what a plan claims: a unit's cell
/// and run count are computed from its id, and only the units read so far
/// are held.
#[derive(Debug)]
pub struct StreamingMerge {
    plan: SweepPlan,
    fingerprint: u64,
    units: BTreeMap<u32, CellAccum>,
}

impl StreamingMerge {
    /// Starts a merge of `plan`.
    pub fn new(plan: SweepPlan) -> StreamingMerge {
        StreamingMerge {
            fingerprint: plan.fingerprint(),
            plan,
            units: BTreeMap::new(),
        }
    }

    /// Folds one unit result. The unit must exist in the plan, its
    /// accumulator must cover the unit's cell and run count, its law must
    /// be strictly ascending with non-zero counts that add up, with the
    /// failures, to the unit's runs (so there are no more failures than
    /// runs), and a duplicate must be bit-identical (an idempotent re-run
    /// is fine, a conflicting one is an error).
    pub fn fold_unit(&mut self, unit: UnitResult) -> Result<(), SimError> {
        self.fold(unit).map_err(protocol)
    }

    fn fold(&mut self, unit: UnitResult) -> Result<(), String> {
        let UnitResult { unit_id, accum } = unit;
        let Some(planned) = self.plan.config.unit(unit_id, self.plan.runs_per_unit) else {
            return Err(format!(
                "unit {unit_id} is not in the plan ({} units)",
                self.unit_count()
            ));
        };
        if accum.cell_idx != planned.cell_idx || accum.runs != planned.run_len {
            return Err(format!(
                "unit {unit_id} accumulator covers cell {} over {} run(s), \
                 but the plan says cell {} over {} run(s)",
                accum.cell_idx, accum.runs, planned.cell_idx, planned.run_len
            ));
        }
        check_law(unit_id, &accum)?;
        match self.units.entry(unit_id) {
            Entry::Occupied(held) if *held.get() != accum => Err(format!(
                "unit {unit_id} was reported twice with conflicting results"
            )),
            Entry::Occupied(_) => Ok(()), // identical duplicate: idempotent
            Entry::Vacant(slot) => {
                slot.insert(accum);
                Ok(())
            }
        }
    }

    /// Folds one partial file from a line reader without materialising
    /// it: the header must carry this merge's plan, then units stream in
    /// one line at a time. Errors name the file as `source`. Returns the
    /// number of unit results the file held.
    pub fn fold_reader(&mut self, source: &str, reader: impl BufRead) -> Result<u64, SimError> {
        let in_source = |detail: String| protocol(format!("{source}: {detail}"));
        let mut lines = reader.lines();
        let found = read_header(&mut lines)
            .map_err(in_source)?
            .plan
            .fingerprint();
        if found != self.fingerprint {
            return Err(protocol(format!(
                "{source} was produced by a different plan \
                 (fingerprint {found:#018x}, expected {:#018x}); \
                 every host must run the same sweep parameters",
                self.fingerprint
            )));
        }
        let mut folded = 0;
        for line in lines {
            let line = line.map_err(unreadable).map_err(in_source)?;
            if line.trim().is_empty() {
                continue;
            }
            let unit = serde_json::from_str(&line)
                .map_err(|e| in_source(format!("malformed unit line: {e}")))?;
            self.fold(unit).map_err(in_source)?;
            folded += 1;
        }
        Ok(folded)
    }

    /// Completes the merge: every plan unit must be accounted for.
    pub fn finish(self) -> Result<SweepResult, SimError> {
        // Only plan units are held, each once, so this cannot underflow.
        let missing_count = self.unit_count().saturating_sub(self.units.len() as u64);
        if missing_count > 0 {
            // Every id scanned is either held or reported, so the scan
            // stops after `units.len() + 8` ids at most.
            let missing: Vec<u32> = (0..=u32::MAX)
                .filter(|id| !self.units.contains_key(id))
                .take(missing_count.min(8) as usize)
                .collect();
            return Err(SimError::Shard {
                detail: format!(
                    "partial set is incomplete: {missing_count} unit(s) missing \
                     (first: {missing:?})"
                ),
            });
        }
        if self.units.is_empty() {
            return Err(protocol("the plan has no work units"));
        }
        let cells = finalize_cells(
            &self.plan.config,
            self.plan.experiment.k,
            self.units.into_values(),
        );
        Ok(SweepResult {
            experiment: self.plan.experiment,
            config: self.plan.config,
            cells,
        })
    }

    fn unit_count(&self) -> u64 {
        self.plan.config.unit_count(self.plan.runs_per_unit)
    }
}

/// Merges partial files from disk unit by unit: the first file's header
/// fixes the plan, then every file streams its units into a
/// [`StreamingMerge`] line by line. Returns the result and the number of
/// unit results folded.
pub fn merge_paths<P: AsRef<Path>>(paths: &[P]) -> Result<(SweepResult, u64), SimError> {
    let open = |path: &Path| {
        File::open(path)
            .map(BufReader::new)
            .map_err(|e| protocol(format!("cannot read {}: {e}", path.display())))
    };
    let first = paths
        .first()
        .ok_or_else(|| protocol("no partial files to merge"))?
        .as_ref();
    // Only the first file's header line is parsed twice: once here for
    // the plan, once when the file streams through with the others.
    let header = read_header(&mut open(first)?.lines())
        .map_err(|detail| protocol(format!("{}: {detail}", first.display())))?;
    let mut merge = StreamingMerge::new(header.plan);
    let mut folded = 0;
    for path in paths {
        let path = path.as_ref();
        folded += merge.fold_reader(&path.display().to_string(), open(path)?)?;
    }
    merge.finish().map(|result| (result, folded))
}

/// Reads a partial file's header: its first non-blank line (a leading
/// blank line, e.g. from a shell pipeline, is tolerated). Anything that
/// is not a `fec-partial/2` header — a `fec-partial/1` one included — is
/// rejected by naming the format a partial file must have.
fn read_header(lines: &mut Lines<impl BufRead>) -> Result<PartialHeader, String> {
    for line in lines {
        let line = line.map_err(unreadable)?;
        if line.trim().is_empty() {
            continue;
        }
        return match serde_json::from_str::<PartialHeader>(&line) {
            Ok(header) if header.format == PARTIAL_JSONL_FORMAT => Ok(header),
            _ => Err(format!(
                "not a {PARTIAL_JSONL_FORMAT} partial file: the first line must be a \
                 {{\"format\":\"{PARTIAL_JSONL_FORMAT}\",\"plan\":…}} header, \
                 followed by one unit result per line \
                 (as written by `sweep --shard i/n --emit-partial`)"
            )),
        };
    }
    Err("empty partial file".into())
}

/// Refuses an accumulator whose law is not a law of its unit's runs:
/// `n` strictly ascending and at most [`MAX_PACKETS_PER_RUN`], every count
/// non-zero, and counts plus failures equal to the runs.
fn check_law(unit_id: u32, accum: &CellAccum) -> Result<(), String> {
    let law = &accum.law;
    let descent = law.iter().zip(law.iter().skip(1)).find(|(a, b)| a.0 >= b.0);
    let decoded = law.iter().fold(0u64, |sum, &(_, count)| {
        sum.saturating_add(u64::from(count))
    });
    let refusal = if let Some((_, (n, _))) = descent {
        format!("law is not strictly ascending at n = {n}")
    } else if let Some((n, _)) = law.iter().find(|&&(_, count)| count == 0) {
        format!("law has a zero count at n = {n}")
    } else if let Some((n, _)) = law.last().filter(|&&(n, _)| n > MAX_PACKETS_PER_RUN) {
        format!("law holds n = {n}, above {MAX_PACKETS_PER_RUN} packets per run")
    } else if decoded.saturating_add(u64::from(accum.failures)) != u64::from(accum.runs) {
        format!(
            "accumulator reports {} failure(s) in {} run(s) and a law of {decoded} decoded run(s)",
            accum.failures, accum.runs
        )
    } else {
        return Ok(());
    };
    Err(format!("unit {unit_id} {refusal}"))
}

fn unreadable(e: std::io::Error) -> String {
    format!("cannot read partial file: {e}")
}

/// Every refusal but the incomplete set's carries this prefix, so the
/// messages users grep for keep their wording.
fn protocol(detail: impl fmt::Display) -> SimError {
    SimError::Shard {
        detail: format!("protocol error: {detail}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpansionRatio;
    use fec_codec::builtin;
    use fec_sched::TxModel;

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
        SweepPlan::new(exp, cfg)
    }

    fn units(n: u32) -> Vec<WorkUnit> {
        (0..n)
            .map(|i| WorkUnit {
                unit_id: i,
                cell_idx: i / 2,
                run_start: 0,
                run_len: 1,
            })
            .collect()
    }

    #[test]
    fn parse_and_roundtrip() {
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { index: 2, count: 4 });
        assert!(Shard::parse("4/4").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("x/4").is_err());
        assert!(Shard::parse("3").is_err());
        assert_eq!(Shard::parse("1/3").unwrap().to_string(), "1/3");
    }

    #[test]
    fn round_robin_partitions_exactly() {
        let us = units(10);
        let mut covered = vec![0u32; 10];
        for index in 0..3 {
            for u in (Shard { index, count: 3 }).select(&us) {
                covered[u.unit_id as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
    }

    #[test]
    fn fingerprint_is_sensitive() {
        let p = plan();
        let mut other = p.clone();
        other.config.seed += 1;
        assert_ne!(p.fingerprint(), other.fingerprint());
        let resliced = SweepPlan {
            runs_per_unit: 1,
            ..p.clone()
        };
        assert_ne!(p.fingerprint(), resliced.fingerprint());
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
            let parsed: SweepPlan = serde_json::from_str(doc).unwrap();
            assert_eq!(parsed, plan_of(experiment));
            assert_eq!(serde_json::to_string(&parsed).unwrap(), doc);
            assert_eq!(parsed.fingerprint(), fingerprint, "{doc}");
        }
    }
}
