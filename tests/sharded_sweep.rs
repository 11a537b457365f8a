//! End-to-end acceptance for the sharded sweep engine: the same plan run
//! single-process, via `--shard i/n --emit-partial` + `merge`, and through
//! the library's `Shard` / `StreamingMerge` must all produce
//! byte-identical merged JSON — and `merge` must survive what a partial
//! file claims.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use fec_broadcast::prelude::*;
use fec_broadcast::sim::{PartialHeader, Shard, StreamingMerge, SweepPlan, UnitResult};

const SWEEP_ARGS: &[&str] = &[
    "sweep", "--code", "rse", "--tx", "4", "--ratio", "2.5", "--k", "300", "--runs", "4",
    "--coarse", "--seed", "1234",
];

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fec-broadcast"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fec-sharded-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_to_file(extra: &[&str], out: &PathBuf) {
    let status = bin()
        .args(SWEEP_ARGS)
        .args(extra)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .expect("binary runs");
    assert!(status.success(), "sweep {extra:?} failed");
}

/// The plan the CLI builds from `SWEEP_ARGS` (for the library-level leg).
fn cli_plan() -> SweepPlan {
    let code = fec_broadcast::codec::registry::resolve("rse").unwrap();
    let experiment = Experiment::new(code, 300, ExpansionRatio::R2_5, TxModel::Random);
    let grid = fec_broadcast::channel::grid::GridKind::Coarse.to_vec();
    let config = SweepConfig {
        runs: 4,
        grid_p: grid.clone(),
        grid_q: grid,
        seed: 1234,
        ..SweepConfig::default()
    };
    SweepPlan::new(experiment, config)
}

#[test]
fn all_execution_strategies_are_byte_identical() {
    let dir = tmp_dir("strategies");
    let single = dir.join("single.json");
    let merged = dir.join("merged.json");

    // 1. Single process.
    run_to_file(&[], &single);
    let reference = std::fs::read(&single).expect("single result written");
    assert!(!reference.is_empty());

    // 2. Multi-host recipe: four independent shard runs, partials shipped
    //    to `merge`.
    let mut partial_paths = Vec::new();
    for i in 0..4 {
        let path = dir.join(format!("p{i}.json"));
        run_to_file(&["--shard", &format!("{i}/4"), "--emit-partial"], &path);
        partial_paths.push(path);
    }
    let status = bin()
        .arg("merge")
        .args(&partial_paths)
        .arg("--out")
        .arg(&merged)
        .stdout(Stdio::null())
        .status()
        .expect("binary runs");
    assert!(status.success(), "merge failed");
    assert_eq!(
        reference,
        std::fs::read(&merged).unwrap(),
        "shard + merge must be byte-identical to the single-process run"
    );

    // 3. The same shards through the library.
    let plan = cli_plan();
    let sweep = GridSweep::new(plan.experiment.clone(), plan.config.clone()).unwrap();
    let mut merge = StreamingMerge::new(plan.clone());
    for index in 0..3 {
        let units = Shard { index, count: 3 }.select(&plan.units());
        for (u, accum) in units.iter().zip(sweep.execute_units(&units)) {
            let unit_id = u.unit_id;
            merge.fold_unit(UnitResult { unit_id, accum }).unwrap();
        }
    }
    let via_library = merge.finish().unwrap();
    assert_eq!(
        String::from_utf8(reference.clone()).unwrap(),
        serde_json::to_string(&via_library).unwrap(),
        "library shards must reproduce the single-process run"
    );

    // The CLI plan is the library plan: a partial file from disk carries
    // the same fingerprint.
    let text = std::fs::read_to_string(&partial_paths[0]).unwrap();
    let from_disk: PartialHeader = serde_json::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(from_disk.plan.fingerprint(), plan.fingerprint());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_incomplete_and_mismatched_sets() {
    let dir = tmp_dir("reject");
    let p0 = dir.join("p0.json");
    let p1 = dir.join("p1.json");
    run_to_file(&["--shard", "0/2", "--emit-partial"], &p0);
    run_to_file(&["--shard", "1/2", "--emit-partial"], &p1);

    // Missing half the units.
    let out = bin().arg("merge").arg(&p0).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("incomplete"),
        "stderr should name the problem"
    );

    // A partial from a different plan (other seed) does not merge.
    let foreign = dir.join("foreign.json");
    let status = bin()
        .args([
            "sweep",
            "--code",
            "rse",
            "--tx",
            "4",
            "--ratio",
            "2.5",
            "--k",
            "300",
            "--runs",
            "4",
            "--coarse",
            "--seed",
            "999",
            "--shard",
            "1/2",
            "--emit-partial",
        ])
        .arg("--out")
        .arg(&foreign)
        .stdout(Stdio::null())
        .status()
        .expect("binary runs");
    assert!(status.success());
    let out = bin()
        .arg("merge")
        .args([&p0, &foreign])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("different plan"));

    // --shard without --emit-partial is a user error, not a silent sweep.
    let out = bin()
        .args(SWEEP_ARGS)
        .args(["--shard", "0/2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--emit-partial"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A partial file is untrusted: a header that claims 2^32 − 1 one-run
/// units in each of the paper's 196 cells (13 TB of unit table if taken at
/// its word) and carries none is an incomplete set, reported as one.
#[test]
fn merge_memory_follows_the_lines_read_not_the_header() {
    let dir = tmp_dir("claims");
    let path = dir.join("huge.json");
    let header = r#"{"format":"fec-partial/2","plan":{"experiment":{"code":"LdgmStaircase","k":2000,"ratio":"R2_5","tx":"Random","channel":{"p":0,"q":1}},"config":{"runs":4294967295,"grid_p":GRID,"grid_q":GRID,"seed":42,"matrix_pool":4,"track_total":false,"threads":null},"runs_per_unit":1}}"#
        .replace("GRID", "[0,0.01,0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1]");
    std::fs::write(&path, header).unwrap();

    let out = bin().arg("merge").arg(&path).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("incomplete"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
