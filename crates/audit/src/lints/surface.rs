//! Lint 6: the public surface — a `pub` item no other file names is not API.
//!
//! Every `pub fn` (`const`/`unsafe` ones included), `pub struct`,
//! `pub enum`, `pub trait`, `pub type`, `pub const` and `pub static` in a
//! first-party crate's `src/` (above its unit-test module) must be named,
//! as a whole identifier in *code*, by at least one other `.rs` file: a
//! member's `src/`, `tests/`, `benches/` or `examples/`, or the benchmark
//! harness under `benchmark/src/`, which is read but never reported on.
//! A mention in a comment, a doc or a string literal is not a use. An item
//! nothing else names is surface without traffic: make it private, delete
//! it, or justify it with `// audit:allow(surface) -- <reason>`.
//!
//! `pub(crate)` and `pub(super)` items are not `pub`, and the shims under
//! `crates/shims/` are out of scope, since they mirror the APIs of external
//! crates. There is no baseline: the floor is zero, so the lint denies,
//! like the ordering audit.
//!
//! Known limit: the match is by name, not by path, so a common name such
//! as `new` or `len` always occurs in some other file and is never flagged.
//! A deny-only lint can live with that: it misses findings, it never
//! invents one.

use std::collections::{HashMap, HashSet};

use crate::lexer::is_ident_char;
use crate::{Diagnostic, Outcome, Section, Workspace};

const LINT: &str = "surface";

/// The benchmark harness: its own workspace, so the scan does not list it,
/// but it calls the product crates and its uses count.
const BENCHMARK_SRC: &str = "benchmark/src";

/// Runs the surface lint over the scanned workspace.
pub fn run(ws: &Workspace) -> Result<Outcome, String> {
    let mut benchmark = Vec::new();
    crate::collect_rs(
        &ws.root.join(BENCHMARK_SRC),
        &ws.root,
        "benchmark",
        Section::Lib,
        &mut benchmark,
    )?;
    // For every identifier, the number of files whose code names it.
    let mut naming_files: HashMap<&str, usize> = HashMap::new();
    for file in ws.files.iter().chain(&benchmark) {
        let idents: HashSet<&str> = file
            .lines
            .iter()
            .flat_map(|l| l.code.split(|c: char| !is_ident_char(c)))
            .filter(|w| !w.is_empty())
            .collect();
        for ident in idents {
            *naming_files.entry(ident).or_default() += 1;
        }
    }

    let mut out = Outcome::default();
    let (mut checked, mut allowed) = (0usize, 0usize);
    for file in ws.files.iter().filter(|f| super::first_party_src(f)) {
        for (idx, line) in file.lines[..file.test_cutoff].iter().enumerate() {
            let Some((kind, name)) = declared(&line.code) else {
                continue;
            };
            checked += 1;
            // The declaring file names the item itself.
            if naming_files.get(name).copied().unwrap_or(0) > 1 {
                continue;
            }
            if file.allows(idx, "surface") {
                allowed += 1;
                continue;
            }
            out.diagnostics.push(Diagnostic {
                file: file.rel_path.clone(),
                line: idx + 1,
                lint: LINT,
                message: format!(
                    "`pub {kind} {name}` is named by no other file — make it private, \
                     delete it, or justify it with `// audit:allow(surface) -- <reason>`"
                ),
            });
        }
    }
    out.notes.push(format!(
        "{checked} pub items checked: {} named by no other file, {allowed} allowed",
        out.diagnostics.len()
    ));
    Ok(out)
}

/// The kind and name of the `pub` item a code line declares, if any.
fn declared(code: &str) -> Option<(&str, &str)> {
    let mut words = code
        .trim_start()
        .strip_prefix("pub ")?
        .split_whitespace()
        .peekable();
    while let Some(word) = words.next() {
        match word {
            "unsafe" => {}
            "const" if matches!(words.peek(), Some(&("fn" | "unsafe"))) => {}
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" => {
                let next = words.next()?;
                let end = next.find(|c| !is_ident_char(c)).unwrap_or(next.len());
                return Some((word, &next[..end]));
            }
            _ => return None,
        }
    }
    None
}
