//! Lint 1: `unsafe` containment, justification, ratchet and ledger.
//!
//! Every `unsafe` token must (a) live in an allowlisted module — the
//! `fec-gf256` SIMD kernel backends are the only place this workspace is
//! permitted to leave safe Rust — and (b) be justified by an adjacent
//! `SAFETY` comment (`// SAFETY: …` above the block, or a `# Safety`
//! rustdoc section on an `unsafe fn`). Per-crate counts ratchet against
//! `audit/unsafe.baseline.toml`: they may go down (the lint then asks for
//! a re-baseline) but never up. The lint also renders
//! `docs/UNSAFE_LEDGER.md` — one row per site with its justification
//! excerpt — and fails when the checked-in ledger is stale, so every
//! reviewer sees exactly which unsafe surface a PR adds or removes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::baseline::Baseline;
use crate::{lexer, Diagnostic, Options, Outcome, Workspace};

/// Path prefixes (workspace-relative) where `unsafe` is permitted: the
/// SIMD kernel backends, the wire engine's raw `sendmmsg`/`recvmmsg`
/// syscall shim, and the counting `#[global_allocator]` of the decoder
/// allocation test (a test binary; `GlobalAlloc` is an unsafe trait).
const ALLOWED_MODULES: [&str; 3] = [
    "crates/gf256/src/kernels/",
    "crates/wire/src/sys.rs",
    "crates/core/tests/decode_allocations.rs",
];

/// Baseline file, relative to the workspace root.
pub const BASELINE_PATH: &str = "audit/unsafe.baseline.toml";

/// Ledger file, relative to the workspace root.
const LEDGER_PATH: &str = "docs/UNSAFE_LEDGER.md";

const LINT: &str = "unsafe-audit";

/// One `unsafe` occurrence.
struct Site {
    file: String,
    line: usize,
    crate_name: String,
    kind: &'static str,
    justified: bool,
    excerpt: String,
}

/// Runs the unsafe audit over the scanned workspace.
pub fn run(ws: &Workspace, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut sites = Vec::new();
    for file in &ws.files {
        for (idx, line) in file.lines.iter().enumerate() {
            for off in lexer::keyword_offsets(&line.code, "unsafe") {
                let rest = line.code[off + "unsafe".len()..].trim_start();
                let kind = if rest.starts_with("fn") {
                    "fn"
                } else if rest.starts_with("impl") {
                    "impl"
                } else if rest.starts_with("trait") {
                    "trait"
                } else {
                    "block"
                };
                let justified = file.has_safety_comment(idx);
                let excerpt = safety_excerpt(file, idx);
                sites.push(Site {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    crate_name: file.crate_name.clone(),
                    kind,
                    justified,
                    excerpt,
                });
            }
        }
    }

    // (a) containment + (b) justification.
    for s in &sites {
        if !ALLOWED_MODULES.iter().any(|m| s.file.starts_with(m)) {
            out.diagnostics.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                lint: LINT,
                message: format!(
                    "`unsafe` outside the allowlisted modules ({}); keep unsafe code \
                     confined to the SIMD kernel backends, the wire syscall shim and \
                     the allocation-counting test, or extend the allowlist in \
                     crates/audit/src/lints/unsafe_audit.rs with a review",
                    ALLOWED_MODULES.join(", ")
                ),
            });
        }
        if !s.justified {
            out.diagnostics.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                lint: LINT,
                message: format!(
                    "`unsafe` {} without an adjacent SAFETY justification \
                     (add `// SAFETY: …` above it, or a `# Safety` doc section)",
                    s.kind
                ),
            });
        }
    }

    // (c) per-crate ratchet.
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for s in &sites {
        *counts.entry(s.crate_name.clone()).or_default() += 1;
    }
    let total: u64 = counts.values().sum();
    ratchet(
        ws,
        opts,
        BASELINE_PATH,
        "unsafe",
        &counts,
        total,
        LINT,
        &mut out,
    )?;

    // (d) the ledger.
    let ledger = render_ledger(&sites, total);
    let ledger_path = ws.root.join(LEDGER_PATH);
    if opts.write_ledger || opts.update_baselines {
        if let Some(parent) = ledger_path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(&ledger_path, &ledger)
            .map_err(|e| format!("cannot write {}: {e}", ledger_path.display()))?;
        out.notes
            .push(format!("wrote {LEDGER_PATH} ({total} sites)"));
    } else {
        let on_disk = std::fs::read_to_string(&ledger_path).unwrap_or_default();
        if on_disk != ledger {
            out.diagnostics.push(Diagnostic {
                file: LEDGER_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "stale unsafe ledger; regenerate with `cargo run -p fec-audit -- \
                     unsafe --write-ledger`. Drift:\n{}",
                    drift(&on_disk, &ledger)
                ),
            });
        }
    }
    out.notes.push(format!(
        "{total} unsafe sites across {} crates",
        counts.len()
    ));
    Ok(out)
}

/// Compares observed counts against a baseline section and reports
/// up-ratchet violations (or rewrites the file under `--update-baselines`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ratchet(
    ws: &Workspace,
    opts: &Options,
    path: &str,
    section: &str,
    counts: &BTreeMap<String, u64>,
    total: u64,
    lint: &'static str,
    out: &mut Outcome,
) -> Result<(), String> {
    let file = ws.root.join(path);
    if opts.update_baselines {
        let mut b = Baseline::default();
        for (name, n) in counts {
            if *n > 0 {
                b.set(section, name, *n);
            }
        }
        b.set(section, "total", total);
        let header = format!(
            "{path} — ratcheted {section} counts per crate.\n\
             Counts may only decrease; regenerate intentionally with\n\
             `cargo run -p fec-audit -- {section} --update-baselines`\n\
             (see docs/ANALYSIS.md for the re-baseline workflow)."
        );
        if let Some(parent) = file.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        std::fs::write(&file, b.render(&header))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        out.notes.push(format!("wrote {path} (total = {total})"));
        return Ok(());
    }
    if !file.exists() {
        out.diagnostics.push(Diagnostic {
            file: path.to_string(),
            line: 0,
            lint,
            message: format!(
                "missing baseline; create it with `cargo run -p fec-audit -- \
                 {section} --update-baselines`"
            ),
        });
        return Ok(());
    }
    let base = Baseline::load(&file)?;
    for (name, &n) in counts {
        let allowed = base.get(section, name).unwrap_or(0);
        if n > allowed {
            out.diagnostics.push(Diagnostic {
                file: path.to_string(),
                line: 0,
                lint,
                message: format!(
                    "{section} count for {name} grew: {n} > baseline {allowed} \
                     (the ratchet only goes down; remove the new sites or \
                     re-baseline intentionally)"
                ),
            });
        } else if n < allowed {
            out.notes.push(format!(
                "{name}: {section} count {n} is below baseline {allowed} — \
                 tighten with `cargo run -p fec-audit -- {section} --update-baselines`"
            ));
        }
    }
    let allowed_total = base.get(section, "total").unwrap_or(0);
    if total > allowed_total {
        out.diagnostics.push(Diagnostic {
            file: path.to_string(),
            line: 0,
            lint,
            message: format!("workspace {section} total grew: {total} > baseline {allowed_total}"),
        });
    }
    Ok(())
}

/// The first SAFETY-bearing comment line attached to `idx`, truncated.
fn safety_excerpt(file: &crate::SourceFile, idx: usize) -> String {
    // Walk the same block `has_safety_comment` consults, preferring the
    // line closest to the unsafe site.
    let mut best = String::new();
    let mut i = idx + 1;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        if i < idx && !(line.is_comment_only() || line.is_attribute()) {
            break;
        }
        let c = line.comment.trim();
        if c.to_ascii_lowercase().contains("safety") {
            best = c.to_string();
        }
    }
    if best.len() > 90 {
        let mut cut = 87;
        while !best.is_char_boundary(cut) {
            cut -= 1;
        }
        best.truncate(cut);
        best.push_str("...");
    }
    best
}

/// Renders the canonical ledger markdown.
fn render_ledger(sites: &[Site], total: u64) -> String {
    let mut out = String::new();
    out.push_str("# Unsafe ledger\n\n");
    out.push_str(
        "<!-- Generated by `cargo run -p fec-audit -- unsafe --write-ledger`.\n     \
         Do not edit by hand: CI fails when this file is stale. -->\n\n",
    );
    let _ = writeln!(
        out,
        "Every `unsafe` site in the workspace, with its SAFETY justification.\n\
         Total sites: **{total}**, all confined to the allowlisted modules\n\
         (`{}`): the SIMD kernel backends and the wire\n\
         engine's raw syscall shim. The per-crate counts ratchet in\n\
         `{}`.\n",
        ALLOWED_MODULES.join("`, `"),
        BASELINE_PATH
    );
    out.push_str("| File | Line | Kind | SAFETY excerpt |\n|---|---|---|---|\n");
    for s in sites {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            s.file,
            s.line,
            s.kind,
            s.excerpt.replace('|', "\\|")
        );
    }
    out
}

/// A short human-readable diff of ledger drift (first few changed lines).
fn drift(old: &str, new: &str) -> String {
    let old_lines: Vec<&str> = old.lines().collect();
    let new_lines: Vec<&str> = new.lines().collect();
    let mut msgs = Vec::new();
    let max = old_lines.len().max(new_lines.len());
    for i in 0..max {
        match (old_lines.get(i), new_lines.get(i)) {
            (Some(o), Some(n)) if o != n => {
                msgs.push(format!("  line {}: checked in `{o}` vs tree `{n}`", i + 1));
            }
            (Some(o), None) => msgs.push(format!("  line {}: removed `{o}`", i + 1)),
            (None, Some(n)) => msgs.push(format!("  line {}: added `{n}`", i + 1)),
            _ => {}
        }
        if msgs.len() >= 6 {
            msgs.push("  …".to_string());
            break;
        }
    }
    msgs.join("\n")
}
