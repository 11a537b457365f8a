//! The sharded sweep pipeline, driven from the library: plan → shard →
//! execute (three complementary shards, as a multi-host run would) →
//! merge — and proof that the merged result is byte-identical to the
//! single-process sweep.
//!
//! ```text
//! cargo run --release --example distributed_sweep
//! ```

use fec_broadcast::codec::builtin;
use fec_broadcast::prelude::*;
use fec_broadcast::sim::{report, Shard, StreamingMerge, SweepPlan, UnitResult};

fn main() {
    // 1. Plan: freeze the experiment, grid, seed and unit decomposition.
    let experiment = Experiment::new(
        builtin::ldgm_staircase(),
        1000,
        ExpansionRatio::R2_5,
        TxModel::Random,
    );
    let config = SweepConfig {
        runs: 12,
        seed: 0xFEC,
        ..SweepConfig::quick(12)
    };
    let plan = SweepPlan::new(experiment, config);
    println!(
        "plan: {} cells x {} runs = {} work units (fingerprint {:#018x})",
        plan.config.cell_count(),
        plan.config.runs,
        plan.units().len(),
        plan.fingerprint()
    );

    // 2+3. Shard and execute: three complementary round-robin shards,
    // exactly what three hosts given `--shard i/3` would each compute.
    let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone()).expect("valid plan");
    let mut merge = StreamingMerge::new(plan.clone());
    for index in 0..3 {
        let shard = Shard { index, count: 3 };
        let units = shard.select(&plan.units());
        println!("shard {shard}: {} units", units.len());
        // 4. Merge, with completeness checking, as each unit arrives.
        for (unit, accum) in units.iter().zip(sweep.execute_units(&units)) {
            let unit_id = unit.unit_id;
            merge
                .fold_unit(UnitResult { unit_id, accum })
                .expect("plan unit");
        }
    }
    let merged = merge.finish().expect("complete set");
    println!("\n{}", report::paper_table(&merged));

    // The whole point: identical bytes to the single-process run.
    let single = sweep.execute();
    let merged_json = serde_json::to_string(&merged).unwrap();
    let single_json = serde_json::to_string(&single).unwrap();
    assert_eq!(merged_json, single_json);
    println!(
        "sharded == single-process: byte-identical ({} bytes of JSON)",
        merged_json.len()
    );
}
