//! Lint 5: size ratchets — growth is a decision, not a drift.
//!
//! Counts the code lines (non-blank once comments are stripped, by the
//! same lexer the other lints use) under every first-party crate's
//! `src/`, and checks them against `audit/size.baseline.toml`: a crate
//! may shrink freely, but growing past its baseline fails until someone
//! re-baselines on purpose with `--update-baselines`. Unit-test modules
//! are not counted (like the panic ratchet), so adding a test never needs
//! a re-baseline; the vendored dependency stand-ins under `crates/shims/`
//! are not first-party code.
//!
//! A second figure in the same file, `tree_total`, is the same count over
//! everything the scan reads — unit-test modules, `tests/`, `benches/`,
//! `examples/` and the shims included (`benchmark/` is its own workspace
//! and stays out) — and ratchets the same way: the whole tree only grows
//! on purpose.

use std::collections::BTreeMap;

use crate::lexer::Line;
use crate::{Options, Outcome, Section, Workspace};

/// Baseline file, relative to the workspace root.
pub const BASELINE_PATH: &str = "audit/size.baseline.toml";

const LINT: &str = "size";

const SHIMS_DIR: &str = "crates/shims/";

/// Baseline key of the whole-tree figure (no crate is named like it).
const TREE_TOTAL: &str = "tree_total";

/// Runs the size ratchet over the scanned workspace.
pub fn run(ws: &Workspace, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut tree_total = 0;
    let code_lines = |lines: &[Line]| lines.iter().filter(|l| !l.is_code_blank()).count() as u64;
    for file in &ws.files {
        tree_total += code_lines(&file.lines);
        if file.section != Section::Lib || file.rel_path.starts_with(SHIMS_DIR) {
            continue;
        }
        *counts.entry(file.crate_name.clone()).or_default() +=
            code_lines(&file.lines[..file.test_cutoff]);
    }
    let total: u64 = counts.values().sum();
    let crates = counts.len();
    counts.insert(TREE_TOTAL.to_string(), tree_total);
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
        "{total} code lines in the `src/` of {crates} first-party crates; \
         {TREE_TOTAL} {tree_total} with tests, benches, examples and shims"
    ));
    Ok(out)
}
