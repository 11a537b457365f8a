//! Merge-algebra properties: any partition of a plan's units, with the
//! partials and their unit lists in any order, must merge into a
//! `SweepResult` whose JSON serialization is byte-identical to the
//! single-process run of the same plan — plus the numeric-stability check
//! for the Welford `std_inefficiency` path.

use std::sync::OnceLock;

use fec_codec::builtin;
use fec_distrib::{
    execute_plan, from_partials, run_shard, DistribError, PartialSweep, ShardSpec, SweepPlan,
    UnitResult,
};
use fec_sim::{CellAccum, ExpansionRatio, Experiment, SweepConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const GROUPS: usize = 5;

/// The shared fixture: a small but non-trivial plan (4 cells × 3 units
/// per cell, with failures in the hopeless cell), its per-unit results,
/// and the single-process reference JSON.
fn reference() -> &'static (SweepPlan, Vec<UnitResult>, String) {
    static REFERENCE: OnceLock<(SweepPlan, Vec<UnitResult>, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let plan = SweepPlan::new(
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
        .unwrap()
        .with_runs_per_unit(2);
        let all = run_shard(&plan, &ShardSpec::all()).unwrap();
        let expected =
            serde_json::to_string(&execute_plan(&plan).unwrap()).expect("result serializes");
        (plan, all.units, expected)
    })
}

proptest! {
    #[test]
    fn any_partition_merged_in_any_order_is_byte_identical(
        assignment in proptest::collection::vec(0usize..GROUPS, 12),
        order_seed in 0u64..u64::MAX,
    ) {
        let (plan, units, expected) = reference();
        prop_assert_eq!(units.len(), assignment.len(), "fixture has 12 units");
        let mut groups: Vec<Vec<UnitResult>> = vec![Vec::new(); GROUPS];
        for (unit, &g) in units.iter().zip(&assignment) {
            groups[g].push(unit.clone());
        }
        let fingerprint = plan.fingerprint();
        let mut partials: Vec<PartialSweep> = groups
            .into_iter()
            .filter(|g| !g.is_empty())
            .map(|units| PartialSweep { fingerprint, units })
            .collect();
        // Arbitrary arrival order, inside and across partials.
        let mut rng = SmallRng::seed_from_u64(order_seed);
        partials.shuffle(&mut rng);
        for partial in &mut partials {
            partial.units.shuffle(&mut rng);
        }
        let merged = from_partials(plan, &partials).unwrap();
        let json = serde_json::to_string(&merged).expect("result serializes");
        prop_assert_eq!(&json, expected);
    }
}

#[test]
fn incomplete_and_conflicting_sets_are_rejected() {
    let (plan, units, _) = reference();
    let fingerprint = plan.fingerprint();

    // Missing units.
    let partial = PartialSweep {
        fingerprint,
        units: units[..units.len() - 2].to_vec(),
    };
    match from_partials(plan, &[partial]) {
        Err(DistribError::Incomplete { missing_count, .. }) => assert_eq!(missing_count, 2),
        other => panic!("expected Incomplete, got {other:?}"),
    }

    // Identical duplicates are idempotent (a rerun shard).
    let everything = PartialSweep {
        fingerprint,
        units: units.clone(),
    };
    let first_again = PartialSweep {
        fingerprint,
        units: vec![units[0].clone()],
    };
    assert!(from_partials(plan, &[everything.clone(), first_again]).is_ok());

    // Conflicting duplicates are not.
    let mut forged = units[0].clone();
    forged.accum.received_sum += 1.0;
    let conflict = PartialSweep {
        fingerprint,
        units: vec![forged],
    };
    assert!(matches!(
        from_partials(plan, &[everything, conflict]),
        Err(DistribError::Protocol { .. })
    ));

    // Foreign fingerprints never merge.
    let foreign = PartialSweep {
        fingerprint: fingerprint ^ 1,
        units: units.clone(),
    };
    assert!(matches!(
        from_partials(plan, &[foreign]),
        Err(DistribError::PlanMismatch { .. })
    ));
}

/// A `fec-partial/1` file written by an earlier build (LDGM Triangle,
/// one cell, one unit) and the merged result that build printed for it.
const GOLDEN_PARTIAL: &str = r#"{"format":"fec-partial/1","plan":{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"runs_per_unit":25}}
{"unit_id":0,"accum":{"cell_idx":0,"runs":3,"failures":0,"sum":3.2666666666666666,"mean":1.088888888888889,"m2":0.00907407407407407,"min":1.05,"max":1.1666666666666667,"received_sum":4}}
"#;
const GOLDEN_RESULT: &str = r#"{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"cells":[{"p":0.1,"q":0.5,"runs":3,"failures":0,"mean_inefficiency":1.0888888888888888,"mean_inefficiency_unmasked":1.0888888888888888,"min_inefficiency":1.05,"max_inefficiency":1.1666666666666667,"std_inefficiency":0.06735753140545632,"mean_received_ratio":1.3333333333333333}]}"#;

/// The streamed merge (JSONL partial files folded line-by-line) must be
/// byte-identical to the in-memory merge and to the single-process run
/// for every file the format admits — freshly written, written by an
/// earlier build, led by a blank line — with every rejection path intact,
/// and anything that is not `fec-partial/1` JSONL turned away by name.
#[test]
fn streamed_jsonl_merge_is_byte_identical_across_formats() {
    use fec_distrib::{merge_paths, PartialFile, StreamingMerge};

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

    // Round-trip through from_text agrees.
    for path in &paths {
        let file = PartialFile::from_text(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(file.plan.fingerprint(), plan.fingerprint());
    }

    // A file an earlier build wrote still merges, to the result that
    // build computed — which is also what this build computes.
    let golden_path = dir.join("golden.json");
    std::fs::write(&golden_path, GOLDEN_PARTIAL).unwrap();
    let (golden, golden_folded) = merge_paths(std::slice::from_ref(&golden_path)).unwrap();
    assert_eq!(golden_folded, 1);
    assert_eq!(serde_json::to_string(&golden).unwrap(), GOLDEN_RESULT);
    let golden_plan = PartialFile::from_text(GOLDEN_PARTIAL).unwrap().plan;
    let rerun = execute_plan(&golden_plan).unwrap();
    assert_eq!(serde_json::to_string(&rerun).unwrap(), GOLDEN_RESULT);

    // Incremental API: folding unit-by-unit matches too, and missing
    // units are reported before finish.
    let mut stream = StreamingMerge::new(plan.clone());
    assert_eq!(stream.missing(), units.len());
    for ur in units {
        stream.fold_unit(ur).unwrap();
    }
    assert_eq!(stream.missing(), 0);
    let incremental = stream.finish().unwrap();
    assert_eq!(&serde_json::to_string(&incremental).unwrap(), expected);

    // An incomplete streamed merge still fails loudly.
    assert!(matches!(
        merge_paths(&paths[..1]).map(|_| ()),
        Err(DistribError::Incomplete { .. })
    ));

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
        plan.to_json().unwrap(),
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
    let err = PartialFile::from_text(&single_document).unwrap_err();
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
