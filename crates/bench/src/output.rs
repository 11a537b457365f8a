//! Results-file output for the reproduction benches.
//!
//! Everything a bench prints is also written under `results/` (or
//! `$FEC_RESULTS_DIR`) so a write-up of the benches docs/PAPER_MAP.md
//! §"Figures" lists can reference stable artifacts:
//! `results/<target>/<name>.{txt,csv,dat,json}`.

use std::fs;
use std::path::PathBuf;

/// Resolves the results directory for a bench target, creating it.
///
/// Defaults to `<workspace root>/results/<target>`; override the root with
/// `FEC_RESULTS_DIR`.
fn results_dir(target: &str) -> PathBuf {
    let root = std::env::var("FEC_RESULTS_DIR").map_or_else(
        |_| {
            // crates/bench -> workspace root is two levels up.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("results")
        },
        PathBuf::from,
    );
    let dir = root.join(target);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    dir
}

/// Writes one artifact, logging instead of failing on I/O problems (a bench
/// must still print its report when the filesystem is read-only).
pub fn save(target: &str, name: &str, contents: &str) {
    let path = results_dir(target).join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// The machine a run measured, as a JSON object: CPU model, the cores
/// this process may use (one when pinned with `taskset`), and the kernel
/// release (GSO/GRO depend on it).
pub fn host_json() -> String {
    let read = |path: &str| fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = read("/proc/sys/kernel/osrelease");
    format!(
        "{{\"cpu\": \"{cpu}\", \"cores\": {cores}, \"kernel\": \"{}\"}}",
        kernel.trim()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_writes_under_env_override() {
        let tmp = std::env::temp_dir().join(format!("fec-bench-test-{}", std::process::id()));
        // Serialise access to the env var (tests may run in parallel).
        std::env::set_var("FEC_RESULTS_DIR", &tmp);
        save("unit", "hello.txt", "world");
        let read = fs::read_to_string(tmp.join("unit").join("hello.txt")).unwrap();
        std::env::remove_var("FEC_RESULTS_DIR");
        let _ = fs::remove_dir_all(&tmp);
        assert_eq!(read, "world");
    }
}
