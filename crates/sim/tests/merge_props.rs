//! Merge-algebra properties: any partition of a plan's units, with the
//! partitions and their unit lists in any order, must merge into a
//! `SweepResult` whose JSON serialization is byte-identical to the
//! single-process run of the same plan; any fold tree of a cell's
//! accumulators equals the sequential record; and the statistics read
//! off a cell's law are exact.

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
/// and the single-process reference JSON (the fold without the merge).
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
            cells: finalize_cells(&plan.config, plan.experiment.k, accums.clone()),
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

/// Each run of the fixture plan as its own one-run accumulator, and each
/// cell recorded run by run into one accumulator.
fn runs_and_cells() -> &'static (Vec<CellAccum>, Vec<CellAccum>) {
    static FIXTURE: OnceLock<(Vec<CellAccum>, Vec<CellAccum>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (plan, _, _) = reference();
        let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone()).unwrap();
        let per_run = sweep.execute_units(&plan.config.units(1));
        let whole = sweep.execute_units(&plan.config.units(plan.config.runs));
        (per_run, whole)
    })
}

proptest! {
    #[test]
    fn any_fold_tree_of_a_cell_equals_its_sequential_record(tree_seed in 0u64..u64::MAX) {
        let (per_run, whole) = runs_and_cells();
        for sequential in whole {
            let mut pool: Vec<CellAccum> = per_run
                .iter()
                .filter(|a| a.cell_idx == sequential.cell_idx)
                .cloned()
                .collect();
            prop_assert_eq!(pool.len(), 6, "one accumulator per run");
            // A random fold tree: merge one accumulator drawn at random
            // into another drawn at random, until one is left.
            let mut draws = 0u64;
            let mut draw = |len: usize| {
                draws += 1;
                let r = mix_seed(tree_seed, &[u64::from(sequential.cell_idx), draws]);
                (r % len as u64) as usize
            };
            while pool.len() > 1 {
                let other = pool.swap_remove(draw(pool.len()));
                let into = draw(pool.len());
                pool[into].merge(other);
            }
            prop_assert_eq!(&pool[0], sequential);
            prop_assert!(pool[0].law.len() <= pool[0].runs as usize);
        }
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
    forged.accum.received += 1;
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

    // A unit's law is checked before it is held: n strictly ascending,
    // every count non-zero, counts and failures adding up to the runs,
    // and no n beyond what a run can carry, so a forged law can neither
    // overflow a cell's moments nor outgrow its runs.
    let decoded = &units[0];
    assert_eq!(decoded.accum.failures, 0, "perfect-channel unit");
    let (n, _) = decoded.accum.law[0];
    let forged = |edit: &dyn Fn(&mut CellAccum)| {
        let mut unit = decoded.clone();
        edit(&mut unit.accum);
        rejection(vec![unit])
    };
    let err = forged(&|a| a.law.insert(0, a.law[0]));
    assert!(
        err.contains(&format!("unit 0 law is not strictly ascending at n = {n}")),
        "{err}"
    );
    let err = forged(&|a| a.law.insert(0, (n - 1, 0)));
    assert!(
        err.contains(&format!("unit 0 law has a zero count at n = {}", n - 1)),
        "{err}"
    );
    let err = forged(&|a| a.law[0].1 += 1);
    assert!(
        err.contains(
            "unit 0 accumulator reports 0 failure(s) in 2 run(s) and a law of 3 decoded run(s)"
        ),
        "{err}"
    );
    let err = forged(&|a| a.law = vec![(u64::MAX, 2)]);
    assert!(
        err.contains(&format!(
            "unit 0 law holds n = {}, above 4294967295 packets per run",
            u64::MAX
        )),
        "{err}"
    );
    // Received totals are not part of the law: forged ones saturate
    // instead of overflowing the cell's sum.
    let saturated = units.iter().cloned().map(|mut unit| {
        unit.accum.received = u64::MAX;
        unit
    });
    let cell = &merge_all(plan, saturated).unwrap().cells[0];
    assert_eq!(cell.mean_received_ratio, Some(u64::MAX as f64 / 900.0));

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

/// A `fec-partial/2` file written by this build (LDGM Triangle, one cell,
/// one unit) and the merged result it printed for it.
const GOLDEN_PARTIAL: &str = r#"{"format":"fec-partial/2","plan":{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"runs_per_unit":25}}
{"unit_id":0,"accum":{"cell_idx":0,"runs":3,"failures":0,"received":240,"law":[[63,2],[70,1]]}}
"#;
const GOLDEN_RESULT: &str = r#"{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"cells":[{"p":0.1,"q":0.5,"runs":3,"failures":0,"mean_inefficiency":1.0888888888888888,"mean_inefficiency_unmasked":1.0888888888888888,"min_inefficiency":1.05,"max_inefficiency":1.1666666666666667,"std_inefficiency":0.06735753140545635,"mean_received_ratio":1.3333333333333333,"n_necessary":[[63,2],[70,1]]}]}"#;

/// The same unit as an earlier build wrote it, as `fec-partial/1`: float
/// sums and a Welford state, from which no law can be recovered.
const FEC_PARTIAL_1: &str = r#"{"format":"fec-partial/1","plan":{"experiment":{"code":"LdgmTriangle","k":60,"ratio":"R1_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":3,"grid_p":[0.1],"grid_q":[0.5],"seed":7,"matrix_pool":1,"track_total":true,"threads":1},"runs_per_unit":25}}
{"unit_id":0,"accum":{"cell_idx":0,"runs":3,"failures":0,"sum":3.2666666666666666,"mean":1.088888888888889,"m2":0.00907407407407407,"min":1.05,"max":1.1666666666666667,"received_sum":4}}
"#;

/// The streamed merge (JSONL partial files folded line-by-line) must be
/// byte-identical to the single-process run for every file the format
/// admits — freshly written, pinned as golden, led by a blank line — with
/// every rejection path intact, and anything that is not `fec-partial/2`
/// JSONL, a `fec-partial/1` file included, turned away by name.
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

    // The golden file merges to the golden result, which is also what a
    // fresh single-process run computes.
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
    forged.accum.received += 1;
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
    let v1_path = dir.join("v1.json");
    std::fs::write(&v1_path, FEC_PARTIAL_1).unwrap();
    for (refused, name, text) in [
        (&legacy_path, "legacy.json", single_document.as_str()),
        (&v1_path, "v1.json", FEC_PARTIAL_1),
    ] {
        for order in [
            vec![refused.clone(), paths[0].clone(), paths[2].clone()],
            vec![paths[0].clone(), refused.clone(), paths[2].clone()],
        ] {
            let err = merge_paths(&order).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{name}: not a fec-partial/2 partial file"))
                    && err.contains(r#"{"format":"fec-partial/2","plan":…}"#),
                "{err}"
            );
        }
        let err = StreamingMerge::new(plan.clone())
            .fold_reader(name, text.as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("not a fec-partial/2 partial file"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `std_inefficiency` is exact. It is read off the law's integer moments,
/// so a cell whose runs sit at n ≈ 10⁶ with a spread of one packet —
/// where the one-pass float formula `E[x²] − E[x]²` cancels
/// catastrophically — gives exactly the closed form: for `a` runs at `n`
/// and `b` at `n + 1`, `S·Σn² − (Σn)² = a·b`, so
/// `σ = √(a·b / (S·(S − 1))) / k`.
#[test]
fn law_std_is_exact_at_a_large_offset() {
    let (a, b, k) = (600u32, 400u32, 1000usize);
    let n = 1_000_000u64;
    let (mut left, mut right) = (CellAccum::new(0), CellAccum::new(0));
    for i in 0..a + b {
        let half = if i % 3 == 0 { &mut left } else { &mut right };
        half.record(Some(if i < a { n } else { n + 1 }), n);
    }
    left.merge(right);
    assert_eq!(left.law, vec![(n, a), (n + 1, b)]);

    let stats = left.finalize(0.0, 0.0, k, true);
    let s = f64::from(a + b);
    let closed_form = (f64::from(a) * f64::from(b) / (s * (s - 1.0))).sqrt() / k as f64;
    assert_eq!(stats.std_inefficiency, Some(closed_form));
    let sum = n * u64::from(a + b) + u64::from(b);
    assert_eq!(stats.mean_inefficiency, Some(sum as f64 / (s * k as f64)));
    assert_eq!(stats.min_inefficiency, Some(1000.0));
    assert_eq!(stats.max_inefficiency, Some(1000.001));
    assert_eq!(stats.mean_received_ratio, Some(1000.0));
}

/// The law answers what a mean and a σ cannot: a cell of ten runs, two of
/// which never decoded, read as a decode probability and as quantiles.
#[test]
fn quantiles_and_decode_probability_read_the_law() {
    let mut accum = CellAccum::new(0);
    for n in [103, 0, 100, 101, 100, 0, 120, 100, 101, 104] {
        accum.record((n > 0).then_some(n), 130);
    }
    let cell = accum.finalize(0.1, 0.5, 100, true);
    assert_eq!(
        cell.n_necessary,
        vec![(100, 3), (101, 2), (103, 1), (104, 1), (120, 1)]
    );
    assert!(cell.is_masked());
    assert_eq!(
        (cell.min_inefficiency, cell.max_inefficiency),
        (Some(1.0), Some(1.2))
    );

    // Failures count in the denominator and never decode.
    assert_eq!(cell.decode_probability(99), 0.0);
    assert_eq!(cell.decode_probability(100), 0.3);
    assert_eq!(cell.decode_probability(102), 0.5);
    assert_eq!(cell.decode_probability(120), 0.8);
    assert_eq!(cell.decode_probability(u64::MAX), 0.8);

    assert_eq!(cell.quantile(0.1), Some(100));
    assert_eq!(cell.quantile(0.3), Some(100));
    assert_eq!(cell.quantile(0.31), Some(101));
    assert_eq!(cell.quantile(0.5), Some(101));
    assert_eq!(cell.quantile(0.8), Some(120));
    // The 90th percentile falls among the failures.
    assert_eq!(cell.quantile(0.9), None);
    assert_eq!(cell.quantile(1.0), None);
}
