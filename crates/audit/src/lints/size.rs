//! Lint 5: per-crate size ratchet — growth is a decision, not a drift.
//!
//! Counts the code lines (non-blank once comments are stripped, by the
//! same lexer the other lints use) under every first-party crate's
//! `src/`, and checks them against `audit/size.baseline.toml`: a crate
//! may shrink freely, but growing past its baseline fails until someone
//! re-baselines on purpose with `--update-baselines`. Unit-test modules
//! are not counted (like the panic ratchet), so adding a test never needs
//! a re-baseline; the vendored dependency stand-ins under `crates/shims/`
//! are not first-party code.

use std::collections::BTreeMap;

use crate::{Options, Outcome, Section, Workspace};

/// Baseline file, relative to the workspace root.
pub const BASELINE_PATH: &str = "audit/size.baseline.toml";

const LINT: &str = "size";

const SHIMS_DIR: &str = "crates/shims/";

/// Runs the size ratchet over the scanned workspace.
pub fn run(ws: &Workspace, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for file in &ws.files {
        if file.section != Section::Lib || file.rel_path.starts_with(SHIMS_DIR) {
            continue;
        }
        let code_lines = file
            .lines
            .iter()
            .take(file.test_cutoff)
            .filter(|l| !l.is_code_blank())
            .count();
        *counts.entry(file.crate_name.clone()).or_default() += code_lines as u64;
    }
    let total: u64 = counts.values().sum();
    super::unsafe_audit::ratchet(
        ws,
        opts,
        BASELINE_PATH,
        "size",
        &counts,
        total,
        LINT,
        &mut out,
    )?;
    out.notes.push(format!(
        "{total} code lines in the `src/` of {} first-party crates",
        counts.len()
    ));
    Ok(out)
}
