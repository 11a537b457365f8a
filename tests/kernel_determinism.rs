//! Kernel choice can never change science output.
//!
//! The SIMD kernel backends (`fec_gf256::kernels`) promise byte-identical
//! arithmetic; this test pins the system-level consequence: a fig08-style
//! Monte-Carlo sweep and a payload round-trip produce **identical**
//! results under `FEC_FORCE_KERNEL=scalar` and under the best
//! runtime-detected backend.
//!
//! The backend is selected once per process (`OnceLock`), so each forced
//! configuration runs in a child process: the test re-executes its own
//! test binary with `FEC_FORCE_KERNEL` set, filtered to the emitter test
//! below, and compares the emitted reports byte for byte.

use std::process::Command;

use fec_broadcast::codec::builtin;
use fec_broadcast::gf256::kernels;
use fec_broadcast::prelude::*;
use fec_broadcast::sim::{ExpansionRatio, Experiment, GridSweep, SweepConfig};

const EMIT_ENV: &str = "FEC_KERNEL_DETERMINISM_EMIT";
const BEGIN: &str = "KERNEL-DETERMINISM-BEGIN";
const END: &str = "KERNEL-DETERMINISM-END";

/// Tiny FNV-1a so the payload digest is independent of the kernels under
/// test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A fig08-style sweep (Tx_model_1 cells over a small `(p, q)` grid, both
/// paper code families) plus a lossy payload round-trip per codec.
fn science_report() -> String {
    let mut out = String::new();

    // Structural Monte-Carlo sweep, serialized in full.
    for code in [builtin::ldgm_staircase(), builtin::rse()] {
        let experiment = Experiment::new(
            code,
            150,
            ExpansionRatio::R2_5,
            TxModel::SourceSeqParityRandom,
        );
        let config = SweepConfig {
            runs: 3,
            grid_p: vec![0.0, 0.1, 0.3],
            grid_q: vec![0.2, 0.7],
            seed: 0xF1608,
            matrix_pool: 2,
            track_total: true,
            threads: Some(1),
        };
        let result = GridSweep::new(experiment, config)
            .expect("valid experiment")
            .execute();
        out.push_str(&serde_json::to_string(&result).expect("serializable"));
        out.push('\n');
    }

    // Payload path: batched reception through a deterministic loss
    // pattern; digest of every decoded byte.
    for code in [
        builtin::ldgm_staircase(),
        builtin::ldgm_triangle(),
        builtin::rse(),
    ] {
        let id = code.id().to_string();
        let spec = CodeSpec::new(code, 120, ExpansionRatio::R2_5).with_matrix_seed(9);
        let object: Vec<u8> = (0..120 * 64 - 11).map(|i| (i * 37 % 253) as u8).collect();
        let sender = Sender::new(spec.clone(), &object, 64).expect("sender");
        let mut rx = Receiver::new(spec, object.len(), 64).expect("receiver");
        let survivors: Vec<Symbol<'_>> = TxModel::Random
            .schedule(sender.layout(), 5)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 7 != 0)
            .map(|(_, packet)| Symbol {
                packet,
                payload: sender.symbol(packet).expect("valid ref"),
            })
            .collect();
        for window in survivors.chunks(48) {
            if rx.push_symbols(window).expect("push_symbols").is_decoded() {
                break;
            }
        }
        let decoded = rx.into_object().expect("decodable with 6/7 delivery");
        assert_eq!(decoded, object, "{id}: round-trip bytes");
        out.push_str(&format!("{id} digest {:016x}\n", fnv1a(&decoded)));
    }

    // RSE at k = 340 (two 170/255 blocks) with 1 000-byte symbols:
    // 1 000 = 3 x 256 + 232, so the fused rows' block loop, their 64-byte
    // single-source loop and the byte tail all reach the digest, which
    // covers every delivered symbol (parity included) as well as the
    // decoded object.
    let spec = CodeSpec::new(builtin::rse(), 340, ExpansionRatio::R1_5);
    let object: Vec<u8> = (0..340 * 1000 - 7).map(|i| (i * 31 % 251) as u8).collect();
    let sender = Sender::new(spec.clone(), &object, 1000).expect("sender");
    let mut rx = Receiver::new(spec, object.len(), 1000).expect("receiver");
    let mut delivered = Vec::new();
    for (i, packet) in TxModel::Random
        .schedule(sender.layout(), 7)
        .into_iter()
        .enumerate()
    {
        if i % 7 == 0 {
            continue;
        }
        let payload = sender.symbol(packet).expect("valid ref");
        delivered.extend_from_slice(payload);
        if rx
            .push_symbols(&[Symbol { packet, payload }])
            .expect("push_symbols")
            .is_decoded()
        {
            break;
        }
    }
    let decoded = rx.into_object().expect("decodable with 6/7 delivery");
    assert_eq!(decoded, object, "rse k = 340: round-trip bytes");
    out.push_str(&format!(
        "rse k340 s1000 delivered {:016x} decoded {:016x}\n",
        fnv1a(&delivered),
        fnv1a(&decoded)
    ));
    out
}

/// Child-process emitter: runs only when re-invoked by
/// `sweep_results_identical_across_kernel_backends` with the env marker
/// set; prints the report between sentinels for the parent to capture.
#[test]
fn emit_science_report_for_forced_kernel() {
    if std::env::var(EMIT_ENV).is_err() {
        return;
    }
    println!("{BEGIN}");
    println!("active-backend: {}", kernels::active_name());
    print!("{}", science_report());
    println!("{END}");
}

fn run_child(backend: &str) -> (String, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "--exact",
            "emit_science_report_for_forced_kernel",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(EMIT_ENV, "1")
        .env("FEC_FORCE_KERNEL", backend)
        .output()
        .expect("spawn test binary");
    assert!(
        out.status.success(),
        "child with FEC_FORCE_KERNEL={backend} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 report");
    let begin = stdout.find(BEGIN).expect("begin sentinel") + BEGIN.len();
    let end = stdout.find(END).expect("end sentinel");
    let body = &stdout[begin..end];
    let (header, report) = body
        .trim_start()
        .split_once('\n')
        .expect("backend header line");
    (header.to_string(), report.to_string())
}

#[test]
fn sweep_results_identical_across_kernel_backends() {
    let best = kernels::backends()
        .last()
        .expect("scalar always present")
        .name();
    let (scalar_hdr, scalar_report) = run_child("scalar");
    assert_eq!(scalar_hdr, "active-backend: scalar");
    let (best_hdr, best_report) = run_child(best);
    assert_eq!(best_hdr, format!("active-backend: {best}"));
    assert!(
        !scalar_report.is_empty(),
        "emitter produced an empty report"
    );
    assert_eq!(
        scalar_report, best_report,
        "kernel backend changed science output (scalar vs {best})"
    );
}
