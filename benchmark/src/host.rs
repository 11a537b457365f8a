//! Where a result was measured: every result record carries this, so
//! that two sets of runs are only compared when they mean the same thing.

use std::process::Command;
use std::time::Instant;

use fec_broadcast::gf256::kernels;
use fec_broadcast::wire::Backend;

use crate::work::{checksum, random_bytes};

/// The text after `field` on its line of `/proc/self/status`.
fn status_text(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(line[field.len()..].trim().to_string())
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM:` or `VmRSS:`.
pub fn status_kib(field: &str) -> Option<u64> {
    status_text(field)?.split_whitespace().next()?.parse().ok()
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// MiB/s of a plain summing pass over a 32 MiB buffer: how fast the host
/// is at the moment of the run, in a figure no change to the product can
/// move. On a shared host it drifts by a quarter over minutes, and the
/// timings of a run drift with it.
fn reference_mib_s() -> f64 {
    const MIB: usize = 32;
    let buffer = random_bytes(MIB << 20, 0);
    let started = Instant::now();
    std::hint::black_box(checksum(std::hint::black_box(&buffer)));
    MIB as f64 / started.elapsed().as_secs_f64()
}

/// The host descriptor, as `(key, value)` pairs in a fixed order.
pub fn describe(gso: bool, gro: bool) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
        ("cpu", cpu_model().unwrap_or_else(unknown)),
        ("reference_mib_s", format!("{:.0}", reference_mib_s())),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
        ("gf256_kernels", kernels::active_name().to_string()),
        ("wire_backend", Backend::detect().name().to_string()),
        ("gso", gso.to_string()),
        ("gro", gro.to_string()),
        (
            "cpus_allowed",
            status_text("Cpus_allowed_list:").unwrap_or_else(unknown),
        ),
        (
            "rustc",
            first_line_of("rustc", &["-V"]).unwrap_or_else(unknown),
        ),
        (
            // A checkout the driver makes is not a git repository.
            "git_rev",
            first_line_of("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
        ),
    ]
}
