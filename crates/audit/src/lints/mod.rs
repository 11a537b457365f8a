//! The six workspace lints. Each submodule exposes a `run` function
//! returning an [`Outcome`](crate::Outcome); diagnostics are violations,
//! notes are inventory/ratchet information.

pub mod ci_coverage;
pub mod ordering_audit;
pub mod panic_lint;
pub mod size;
pub mod surface;
pub mod unsafe_audit;

use crate::{Section, SourceFile};

/// Whether `file` is shipped first-party code: a `src/` file outside the
/// shims under `crates/shims/`, which stand in for external crates.
fn first_party_src(file: &SourceFile) -> bool {
    file.section == Section::Lib && !file.rel_path.starts_with("crates/shims/")
}
