//! The five workspace lints. Each submodule exposes a `run` function
//! returning an [`Outcome`](crate::Outcome); diagnostics are violations,
//! notes are inventory/ratchet information.

pub mod ci_coverage;
pub mod ordering_audit;
pub mod panic_lint;
pub mod size;
pub mod unsafe_audit;
