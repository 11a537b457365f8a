//! `fec-audit` CLI — run the workspace soundness lints.
//!
//! ```text
//! cargo run -p fec-audit -- all                      # every lint, check mode
//! cargo run -p fec-audit -- unsafe                   # one lint
//! cargo run -p fec-audit -- size                     # per-crate code-line ratchet
//! cargo run -p fec-audit -- surface                  # pub items no other file names
//! cargo run -p fec-audit -- unsafe --write-ledger    # regenerate docs/UNSAFE_LEDGER.md
//! cargo run -p fec-audit -- all --update-baselines   # intentional re-baseline
//! cargo run -p fec-audit -- panic --root /some/tree  # lint another workspace
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use fec_audit::{run, Lint, Options};

const USAGE: &str = "usage: fec-audit <unsafe|panic|ordering|ci|size|surface|all> \
                     [--root PATH] [--update-baselines] [--write-ledger] [--verbose]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut lints: Vec<Lint> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut update_baselines = false;
    let mut write_ledger = false;
    let mut verbose = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "unsafe" => lints.push(Lint::Unsafe),
            "panic" => lints.push(Lint::Panic),
            "ordering" => lints.push(Lint::Ordering),
            "ci" => lints.push(Lint::Ci),
            "size" => lints.push(Lint::Size),
            "surface" => lints.push(Lint::Surface),
            "all" => lints.extend(Lint::ALL),
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--update-baselines" => update_baselines = true,
            "--write-ledger" => write_ledger = true,
            "--verbose" => verbose = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    if lints.is_empty() {
        return usage("no lint selected");
    }

    let root = root.unwrap_or_else(workspace_root);
    let opts = Options {
        root,
        update_baselines,
        write_ledger,
    };
    match run(&lints, &opts) {
        Ok(outcome) => {
            if verbose {
                for note in &outcome.notes {
                    eprintln!("note: {note}");
                }
            } else if let Some(summary) = outcome.notes.last() {
                eprintln!("note: {summary}");
            }
            if outcome.is_clean() {
                eprintln!(
                    "fec-audit: {} clean",
                    lints
                        .iter()
                        .map(|l| l.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::SUCCESS
            } else {
                for d in &outcome.diagnostics {
                    println!("{d}");
                }
                eprintln!("fec-audit: {} violation(s)", outcome.diagnostics.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fec-audit: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("fec-audit: {why}\n{USAGE}");
    ExitCode::from(2)
}

/// The workspace root: this crate's manifest dir is `crates/audit`, so
/// the root is two levels up; fall back to the current directory when the
/// binary runs outside cargo.
fn workspace_root() -> PathBuf {
    let manifest: PathBuf = env!("CARGO_MANIFEST_DIR").into();
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
