//! Merge-algebra properties: any partition of a plan's units, with the
//! partitions and their unit lists in any order, must merge into a
//! `SweepResult` whose JSON serialization is byte-identical to the
//! single-process run of the same plan — plus the numeric-stability check
//! for the Welford `std_inefficiency` path.

use std::sync::OnceLock;

use fec_codec::builtin;
use fec_sim::{
    finalize_cells, merge_paths, mix_seed, CellAccum, ExpansionRatio, Experiment, GridSweep,
    PartialFile, PartialHeader, SimError, StreamingMerge, SweepConfig, SweepPlan, SweepResult,
    UnitResult,
};
use proptest::prelude::*;

const GROUPS: usize = 5;

/// The shared fixture: a small but non-trivial plan (4 cells × 3 units
/// per cell, with failures in the hopeless cell), its per-unit results,
/// and the single-process reference JSON (the canonical fold, without the
/// merge).
fn reference() -> &'static (SweepPlan, Vec<UnitResult>, String) {
    static REFERENCE: OnceLock<(SweepPlan, Vec<UnitResult>, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let plan = SweepPlan {
            runs_per_unit: 2,
            ..SweepPlan::new(
                Experiment::new(
                    builtin::ldgm_staircase(),
                    150,
                    ExpansionRatio::R2_5,
                    fec_sched::TxModel::Random,
                ),
                SweepConfig {
                    runs: 6,
                    grid_p: vec![0.0, 0.9],
                    grid_q: vec![0.1, 0.8],
                    seed: 0x00D1_571B,
                    matrix_pool: 2,
                    track_total: true,
                    threads: Some(2),
                },
            )
        };
        let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone()).unwrap();
        let units = plan.units();
        let accums = sweep.execute_units(&units);
        let single = SweepResult {
            experiment: plan.experiment.clone(),
            config: plan.config.clone(),
            cells: finalize_cells(&plan.config, &accums),
        };
        let expected = serde_json::to_string(&single).expect("result serializes");
        let all = units
            .iter()
            .zip(accums)
            .map(|(u, accum)| UnitResult {
                unit_id: u.unit_id,
                accum,
            })
            .collect();
        (plan, all, expected)
    })
}

/// Folds `units` into a merge of `plan`, in the order given.
fn merge_all(
    plan: &SweepPlan,
    units: impl IntoIterator<Item = UnitResult>,
) -> Result<SweepResult, SimError> {
    let mut merge = StreamingMerge::new(plan.clone());
    for unit in units {
        merge.fold_unit(unit)?;
    }
    merge.finish()
}

proptest! {
    #[test]
    fn any_partition_merged_in_any_order_is_byte_identical(
        assignment in proptest::collection::vec(0usize..GROUPS, 12),
        order_seed in 0u64..u64::MAX,
    ) {
        let (plan, units, expected) = reference();
        prop_assert_eq!(units.len(), assignment.len(), "fixture has 12 units");
        let mut groups: Vec<(usize, Vec<UnitResult>)> =
            (0..GROUPS).map(|g| (g, Vec::new())).collect();
        for (unit, &g) in units.iter().zip(&assignment) {
            groups[g].1.push(unit.clone());
        }
        // Arbitrary arrival order, inside and across partitions.
        let shuffled = |tag: u64, i: u64| mix_seed(order_seed, &[tag, i]);
        groups.sort_by_key(|(g, _)| shuffled(0, *g as u64));
        for (_, group) in &mut groups {
            group.sort_by_key(|u| shuffled(1, u64::from(u.unit_id)));
        }
        let merged = merge_all(plan, groups.into_iter().flat_map(|(_, group)| group)).unwrap();
        let json = serde_json::to_string(&merged).expect("result serializes");
        prop_assert_eq!(&json, expected);
    }
}

#[test]
fn incomplete_and_conflicting_sets_are_rejected() {
    let (plan, units, _) = reference();
    let rejection = |units: Vec<UnitResult>| merge_all(plan, units).unwrap_err().to_string();

    // Missing units.
    let err = rejection(units[..units.len() - 2].to_vec());
    assert!(
        err.contains("incomplete: 2 unit(s) missing (first: [10, 11])"),
        "{err}"
    );

    // Identical duplicates are idempotent (a rerun shard).
    assert!(merge_all(plan, units.iter().chain(&units[..1]).cloned()).is_ok());

    // Conflicting duplicates are not.
    let mut forged = units[0].clone();
    forged.accum.received_sum += 1.0;
    let err = rejection(units.iter().cloned().chain([forged]).collect());
    assert!(
        err.contains("unit 0 was reported twice with conflicting results"),
        "{err}"
    );

    // Nor is a unit the plan does not have, or one with more failures
    // than runs.
    let mut stray = units[0].clone();
    stray.unit_id = 12;
    let err = rejection(vec![stray]);
    assert!(
        err.contains("unit 12 is not in the plan (12 units)"),
        "{err}"
    );
    let mut impossible = units[0].clone();
    impossible.accum.failures = impossible.accum.runs + 1;
    let err = rejection(vec![impossible]);
    assert!(
        err.contains("unit 0 accumulator reports 3 failure(s) in 2 run(s)"),
        "{err}"
    );

    // Foreign plans never merge.
    let mut foreign_plan = plan.clone();
    foreign_plan.config.seed ^= 1;
    let foreign = PartialFile {
        plan: foreign_plan,
        units: units.clone(),
    };
    let err = StreamingMerge::new(plan.clone())
        .fold_reader("foreign.json", foreign.to_jsonl().unwrap().as_bytes())
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("foreign.json was produced by a different plan"),
        "{err}"
    );
}

/// A `fec-partial/1` file written by an earlier build (LDGM Triangle,
/// one cell, one unit) and the merged result that build printed for it.
const GOLDEN_PARTIAL: &str = r#"{"format":"fec-partial/1","plan":{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"runs_per_unit":25}}
{"unit_id":0,"accum":{"cell_idx":0,"runs":3,"failures":0,"sum":3.2666666666666666,"mean":1.088888888888889,"m2":0.00907407407407407,"min":1.05,"max":1.1666666666666667,"received_sum":4}}
"#;
const GOLDEN_RESULT: &str = r#"{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"cells":[{"p":0.1,"q":0.5,"runs":3,"failures":0,"mean_inefficiency":1.0888888888888888,"mean_inefficiency_unmasked":1.0888888888888888,"min_inefficiency":1.05,"max_inefficiency":1.1666666666666667,"std_inefficiency":0.06735753140545632,"mean_received_ratio":1.3333333333333333}]}"#;

/// The streamed merge (JSONL partial files folded line-by-line) must be
/// byte-identical to the single-process run for every file the format
/// admits — freshly written, written by an earlier build, led by a blank
/// line — with every rejection path intact, and anything that is not
/// `fec-partial/1` JSONL turned away by name.
#[test]
fn streamed_jsonl_merge_is_byte_identical_across_formats() {
    let (plan, units, expected) = reference();
    let dir = std::env::temp_dir().join(format!("fec-merge-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let third = units.len() / 3;
    let shards = [
        &units[..third],
        &units[third..2 * third],
        &units[2 * third..],
    ];
    let mut paths = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let file = PartialFile {
            plan: plan.clone(),
            units: shard.to_vec(),
        };
        let path = dir.join(format!("p{i}.json"));
        let text = if i == 0 {
            // A leading blank line (e.g. from a shell pipeline) must not
            // break the first-file plan peek.
            format!("\n{}", file.to_jsonl().unwrap())
        } else {
            file.to_jsonl().unwrap()
        };
        std::fs::write(&path, text).unwrap();
        paths.push(path);
    }
    let (merged, folded) = merge_paths(&paths).unwrap();
    assert_eq!(folded as usize, units.len());
    assert_eq!(&serde_json::to_string(&merged).unwrap(), expected);

    // Argument order must not matter.
    let reordered = [paths[1].clone(), paths[2].clone(), paths[0].clone()];
    let (merged2, folded2) = merge_paths(&reordered).unwrap();
    assert_eq!(folded2, folded);
    assert_eq!(&serde_json::to_string(&merged2).unwrap(), expected);

    // Every file carries the plan: each folds, alone, into a merge of it.
    for (path, shard) in paths.iter().zip(shards) {
        let text = std::fs::read_to_string(path).unwrap();
        let mut merge = StreamingMerge::new(plan.clone());
        let folded = merge.fold_reader("p.json", text.as_bytes()).unwrap();
        assert_eq!(folded as usize, shard.len());
    }

    // A file an earlier build wrote still merges, to the result that
    // build computed — which is also what this build computes.
    let golden_path = dir.join("golden.json");
    std::fs::write(&golden_path, GOLDEN_PARTIAL).unwrap();
    let (golden, golden_folded) = merge_paths(std::slice::from_ref(&golden_path)).unwrap();
    assert_eq!(golden_folded, 1);
    assert_eq!(serde_json::to_string(&golden).unwrap(), GOLDEN_RESULT);
    let header = GOLDEN_PARTIAL.lines().next().unwrap();
    let golden_plan = serde_json::from_str::<PartialHeader>(header).unwrap().plan;
    let rerun = GridSweep::new(golden_plan.experiment, golden_plan.config)
        .unwrap()
        .execute();
    assert_eq!(serde_json::to_string(&rerun).unwrap(), GOLDEN_RESULT);

    // Unit by unit in canonical order matches too.
    let incremental = merge_all(plan, units.iter().cloned()).unwrap();
    assert_eq!(&serde_json::to_string(&incremental).unwrap(), expected);

    // An incomplete streamed merge still fails loudly.
    let err = merge_paths(&paths[..1]).unwrap_err().to_string();
    assert!(err.contains("incomplete"), "{err}");

    // A foreign-plan JSONL file is rejected by fingerprint.
    let mut foreign_plan = plan.clone();
    foreign_plan.config.seed ^= 1;
    let foreign = PartialFile {
        plan: foreign_plan,
        units: units.clone(),
    };
    let foreign_path = dir.join("foreign.json");
    std::fs::write(&foreign_path, foreign.to_jsonl().unwrap()).unwrap();
    assert!(merge_paths(&[paths[0].clone(), foreign_path]).is_err());

    // A rerun shard is idempotent; one that disagrees is a conflict.
    let (again, folded_again) = merge_paths(&[&paths[..], &paths[..1]].concat()).unwrap();
    assert_eq!(folded_again as usize, units.len() + third);
    assert_eq!(&serde_json::to_string(&again).unwrap(), expected);
    let mut forged = units[0].clone();
    forged.accum.received_sum += 1.0;
    let conflict = PartialFile {
        plan: plan.clone(),
        units: vec![forged],
    };
    let conflict_path = dir.join("conflict.json");
    std::fs::write(&conflict_path, conflict.to_jsonl().unwrap()).unwrap();
    let err = merge_paths(&[&paths[..], std::slice::from_ref(&conflict_path)].concat())
        .unwrap_err()
        .to_string();
    assert!(err.contains("conflicting"), "{err}");

    // A single-document `{"plan":…,"units":[…]}` file is not a partial
    // file: whether it comes first or later, the error names the file and
    // the format it should have had.
    let single_document = format!(
        "{{\"plan\":{},\"units\":{}}}",
        serde_json::to_string(plan).unwrap(),
        serde_json::to_string(&shards[1].to_vec()).unwrap()
    );
    let legacy_path = dir.join("legacy.json");
    std::fs::write(&legacy_path, &single_document).unwrap();
    for order in [
        vec![legacy_path.clone(), paths[0].clone(), paths[2].clone()],
        vec![paths[0].clone(), legacy_path.clone(), paths[2].clone()],
    ] {
        let err = merge_paths(&order).unwrap_err().to_string();
        assert!(
            err.contains("legacy.json: not a fec-partial/1 partial file")
                && err.contains(r#"{"format":"fec-partial/1","plan":…}"#),
            "{err}"
        );
    }
    let err = StreamingMerge::new(plan.clone())
        .fold_reader("legacy.json", single_document.as_bytes())
        .unwrap_err();
    assert!(err.to_string().contains("not a fec-partial/1 partial file"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `std_inefficiency` must come out of the Welford/M2 path with two-pass
/// accuracy. The adversarial input is the realistic one: a large common
/// offset (inefficiencies sit just above 1.0) with variation many orders
/// of magnitude smaller, where the textbook one-pass formula
/// `E[x²] − E[x]²` cancels catastrophically.
#[test]
fn welford_std_is_numerically_stable_where_naive_is_not() {
    let n = 1000usize;
    let values: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-12).collect();

    // Reference: two-pass in f64 (exact to rounding for this input, since
    // the deviations are exactly representable).
    let mean = values.iter().sum::<f64>() / n as f64;
    let two_pass = (values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt();

    // Welford, through the production accumulator (also exercising merge).
    let mut left = CellAccum::new(0);
    let mut right = CellAccum::new(0);
    for (i, &x) in values.iter().enumerate() {
        if i < n / 2 {
            left.record(Some(x), 1.0);
        } else {
            right.record(Some(x), 1.0);
        }
    }
    left.merge(&right);
    let stats = left.finalize(0.0, 0.0, false);
    let welford = stats.std_inefficiency.expect("n > 1");

    // Naive one-pass sum of squares.
    let sum_sq = values.iter().map(|x| x * x).sum::<f64>();
    let naive_var = (sum_sq - n as f64 * mean * mean) / (n - 1) as f64;
    let naive = if naive_var > 0.0 {
        naive_var.sqrt()
    } else {
        f64::NAN // cancellation went negative — the classic failure
    };

    // The input's condition number is ~1e12 (offset / spread), so the
    // best a one-pass method can do is ~1e12·ε ≈ 1e-4 relative error;
    // Welford stays inside that envelope while the naive formula loses
    // *all* significant digits (or goes negative).
    let rel = |a: f64, b: f64| ((a - b) / b).abs();
    assert!(two_pass > 0.0, "fixture has spread");
    assert!(
        rel(welford, two_pass) < 1e-3,
        "welford {welford:e} vs two-pass {two_pass:e}"
    );
    assert!(
        naive.is_nan() || rel(naive, two_pass) > 1e-1,
        "naive {naive:e} unexpectedly accurate vs {two_pass:e} \
         (the fixture no longer stresses cancellation)"
    );
    if !naive.is_nan() {
        assert!(
            rel(welford, two_pass) < rel(naive, two_pass) / 100.0,
            "welford must beat naive by orders of magnitude"
        );
    }
}
