//! End-to-end acceptance for the sharded sweep engine: the same plan run
//! single-process, via `--shard i/n --emit-partial` + `merge`, and through
//! the library's `run_shard` / `from_partials` must all produce
//! byte-identical merged JSON.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use fec_broadcast::distrib::{self, PartialFile, SweepPlan};
use fec_broadcast::prelude::*;

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
    SweepPlan::new(experiment, config).unwrap()
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
    let partials: Vec<_> = (0..3)
        .map(|index| distrib::run_shard(&plan, &ShardSpec::RoundRobin { index, count: 3 }).unwrap())
        .collect();
    let via_library = distrib::from_partials(&plan, &partials).unwrap();
    assert_eq!(
        String::from_utf8(reference.clone()).unwrap(),
        serde_json::to_string(&via_library).unwrap(),
        "library shards must reproduce the single-process run"
    );

    // The CLI plan is the library plan: a partial file from disk carries
    // the same fingerprint.
    let from_disk =
        PartialFile::from_text(&std::fs::read_to_string(&partial_paths[0]).unwrap()).unwrap();
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
