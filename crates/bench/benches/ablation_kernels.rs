//! Kernel-backend ablation: what the runtime-dispatched SIMD backends buy
//! over the scalar reference, and what that does to end-to-end sweep
//! wall-clock.
//!
//! Measures, for every backend compiled into this binary and supported by
//! this host, the throughput of the four hot kernels (single-source XOR
//! and GF(2⁸) addmul, plus the fused multi-source row variants), then
//! times one small Monte-Carlo grid sweep end to end under the *active*
//! backend. Results are printed and appended-by-overwrite to
//! `BENCH_kernels.json` at the repository root so the perf trajectory is
//! recorded in-tree.
//!
//! Knobs: `FEC_FORCE_KERNEL` picks the backend the end-to-end section
//! (and the whole workspace) runs on.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use criterion::black_box;
use fec_channel::grid::GridKind;
use fec_codec::builtin;
use fec_gf256::kernels::{self, Kernels};
use fec_sched::TxModel;
use fec_sim::{ExpansionRatio, Experiment, GridSweep, SweepConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Working-set size per buffer: comfortably L2-resident so the numbers
/// measure the kernels, not DRAM.
const BUF: usize = 64 * 1024;

/// Sources per fused-row measurement (a typical LDGM row / RSE block row
/// fragment).
const SOURCES: usize = 8;

/// Times `f` and returns the best per-iteration duration over several
/// samples (the least-noise estimator for short deterministic kernels;
/// same policy as the criterion shim).
fn time_best(mut f: impl FnMut()) -> Duration {
    let mut batch = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        if start.elapsed() >= Duration::from_millis(4) || batch >= 1 << 22 {
            break;
        }
        batch *= 4;
    }
    let mut best: Option<Duration> = None;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let per_iter = start.elapsed() / batch;
        best = Some(best.map_or(per_iter, |b| b.min(per_iter)));
    }
    best.expect("at least one sample")
}

fn gib_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64() / (1024.0 * 1024.0 * 1024.0)
}

struct BackendRow {
    name: &'static str,
    xor: f64,
    addmul: f64,
    xor_many: f64,
    addmul_many: f64,
}

fn measure_backend(backend: &'static Kernels) -> BackendRow {
    let mut rng = SmallRng::seed_from_u64(7);
    let src: Vec<u8> = (0..BUF).map(|_| rng.gen()).collect();
    let mut dst: Vec<u8> = (0..BUF).map(|_| rng.gen()).collect();
    let many: Vec<Vec<u8>> = (0..SOURCES)
        .map(|_| (0..BUF).map(|_| rng.gen()).collect())
        .collect();
    let refs: Vec<&[u8]> = many.iter().map(|s| s.as_slice()).collect();
    let coeffs: Vec<u8> = (0..SOURCES).map(|_| rng.gen_range(2..=255)).collect();

    let xor = time_best(|| {
        backend.xor_slice(black_box(&mut dst), black_box(&src));
    });
    let addmul = time_best(|| {
        backend.addmul_slice(black_box(&mut dst), black_box(&src), 0x8E);
    });
    let xor_many = time_best(|| {
        backend.xor_acc_many(black_box(&mut dst), black_box(&refs));
    });
    let addmul_many = time_best(|| {
        backend.addmul_rows(
            black_box(&mut [&mut dst[..]]),
            black_box(&refs),
            black_box(&coeffs),
        );
    });
    black_box(dst[0]);
    BackendRow {
        name: backend.name(),
        xor: gib_per_s(BUF, xor),
        addmul: gib_per_s(BUF, addmul),
        // Fused throughput counts the bytes of every source read.
        xor_many: gib_per_s(BUF * SOURCES, xor_many),
        addmul_many: gib_per_s(BUF * SOURCES, addmul_many),
    }
}

/// One small end-to-end grid sweep (structural Monte-Carlo + payload-free
/// peeling) under the active backend.
fn end_to_end_sweep_seconds() -> (String, f64) {
    let experiment = Experiment::new(
        builtin::ldgm_staircase(),
        1000,
        ExpansionRatio::R2_5,
        TxModel::Random,
    );
    let config = SweepConfig {
        runs: 5,
        grid_p: GridKind::Coarse.to_vec(),
        grid_q: GridKind::Coarse.to_vec(),
        seed: 42,
        matrix_pool: 2,
        track_total: false,
        threads: None,
    };
    let sweep = GridSweep::new(experiment, config).expect("valid experiment");
    let start = Instant::now();
    let result = sweep.execute();
    let secs = start.elapsed().as_secs_f64();
    black_box(result.masked_cells());
    (
        "ldgm-staircase k=1000 r=2.5 tx4, 8x8 coarse grid, 5 runs/cell".to_string(),
        secs,
    )
}

fn main() {
    println!("================================================================");
    println!(
        "kernel backend ablation ({} KiB buffers, {SOURCES} fused sources)",
        BUF / 1024
    );
    println!("active backend: {}", kernels::active_name());
    println!("================================================================");

    let rows: Vec<BackendRow> = kernels::backends()
        .iter()
        .map(|b| measure_backend(b))
        .collect();
    println!(
        "\n{:<10} {:>12} {:>14} {:>14} {:>16}",
        "backend", "xor GiB/s", "addmul GiB/s", "xor_many GiB/s", "addmul_many GiB/s"
    );
    for r in &rows {
        println!(
            "{:<10} {:>12.2} {:>14.2} {:>14.2} {:>16.2}",
            r.name, r.xor, r.addmul, r.xor_many, r.addmul_many
        );
    }

    let scalar = rows.first().expect("scalar backend always present");
    assert_eq!(scalar.name, "scalar");
    let best = rows.last().expect("non-empty");
    let xor_speedup = best.xor / scalar.xor;
    let addmul_speedup = best.addmul / scalar.addmul;
    println!(
        "\nbest backend ({}) vs scalar reference: XOR {xor_speedup:.1}x, addmul {addmul_speedup:.1}x",
        best.name
    );

    let (sweep_desc, sweep_secs) = end_to_end_sweep_seconds();
    println!(
        "end-to-end sweep [{}]: {sweep_desc} -> {sweep_secs:.2} s",
        kernels::active_name()
    );

    // Record the trajectory at the repo root (hand-rolled JSON: flat and
    // dependency-free).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"ablation_kernels\",");
    let _ = writeln!(json, "  \"arch\": \"{}\",", std::env::consts::ARCH);
    let _ = writeln!(json, "  \"buffer_bytes\": {BUF},");
    let _ = writeln!(json, "  \"fused_sources\": {SOURCES},");
    let _ = writeln!(
        json,
        "  \"active_backend\": \"{}\",",
        kernels::active_name()
    );
    let _ = writeln!(json, "  \"backends\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"xor_gib_s\": {:.3}, \"addmul_gib_s\": {:.3}, \
             \"xor_many_gib_s\": {:.3}, \"addmul_many_gib_s\": {:.3}}}{}",
            r.name,
            r.xor,
            r.addmul,
            r.xor_many,
            r.addmul_many,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"best_vs_scalar\": {{\"backend\": \"{}\", \"xor_speedup\": {:.2}, \"addmul_speedup\": {:.2}}},",
        best.name, xor_speedup, addmul_speedup
    );
    let _ = writeln!(
        json,
        "  \"end_to_end_sweep\": {{\"backend\": \"{}\", \"workload\": \"{sweep_desc}\", \"seconds\": {sweep_secs:.3}}}",
        kernels::active_name()
    );
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
