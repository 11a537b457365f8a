//! `fec-audit` — the workspace soundness suite.
//!
//! Six source-level lints. Four guard the places this workspace is most
//! exposed — hand-written SIMD `unsafe` (`fec-gf256`), hand-rolled wire
//! parsers fed by an adversarial network (`fec-flute`, `fec-sim`'s
//! partial files), lock-free atomics on the hot path (`fec-telemetry`) —
//! and two keep its size a decision:
//!
//! * [`lints::unsafe_audit`] — every `unsafe` token needs an adjacent
//!   `SAFETY` justification, `unsafe` is confined to an allowlist of
//!   modules, per-crate counts ratchet against
//!   `audit/unsafe.baseline.toml`, and `docs/UNSAFE_LEDGER.md` must match
//!   the tree.
//! * [`lints::panic_lint`] — `unwrap`/`expect`/`panic!`-family macros and
//!   slice indexing are denied in modules tagged
//!   `//! fec-audit: deny(panic)` (the wire parsers), with an
//!   `// audit:allow(panic) -- reason` escape hatch, plus a
//!   workspace-wide count ratchet (`audit/panic.baseline.toml`).
//! * [`lints::ordering_audit`] — every atomic `Ordering::Relaxed` needs an
//!   `// audit:allow(relaxed) -- reason` justification; stronger orders
//!   pass.
//! * [`lints::ci_coverage`] — every workspace member must be exercised by
//!   at least one `cargo test` job in `.github/workflows/ci.yml`.
//! * [`lints::size`] — code lines per first-party crate `src/`, and over
//!   the whole tree (`tree_total`: tests, benches, examples and shims
//!   too), ratchet against `audit/size.baseline.toml`: either grows only
//!   with an explicit re-baseline.
//! * [`lints::surface`] — every `pub` item in a first-party crate's `src/`
//!   must be named in the code of some other file (`benchmark/src`
//!   included), or carry `// audit:allow(surface) -- reason`.
//!
//! The scanner is a small hand-rolled lexer ([`lexer`]) rather than a full
//! parser: the build is offline (no `syn`), and the lints only need to
//! tell code from comments and string literals. See `docs/ANALYSIS.md`
//! for the ratchet workflow and how these lints compose with the Miri and
//! sanitizer CI jobs.

pub mod baseline;
pub mod lexer;
pub mod lints;

use std::path::{Path, PathBuf};

/// Which lint(s) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// `unsafe` containment, SAFETY comments, ratchet, ledger.
    Unsafe,
    /// Panic-freedom of tagged modules + workspace ratchet.
    Panic,
    /// Atomic memory-ordering justifications.
    Ordering,
    /// CI coverage of every workspace crate.
    Ci,
    /// Per-crate code-line ratchet.
    Size,
    /// `pub` items that no other file names.
    Surface,
}

impl Lint {
    /// All lints, in the order `all` runs them.
    pub const ALL: [Lint; 6] = [
        Lint::Unsafe,
        Lint::Panic,
        Lint::Ordering,
        Lint::Ci,
        Lint::Size,
        Lint::Surface,
    ];

    /// The lint's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Unsafe => "unsafe",
            Lint::Panic => "panic",
            Lint::Ordering => "ordering",
            Lint::Ci => "ci",
            Lint::Size => "size",
            Lint::Surface => "surface",
        }
    }
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Rewrite the ratchet baselines to the observed counts.
    pub update_baselines: bool,
    /// Rewrite `docs/UNSAFE_LEDGER.md` instead of checking it.
    pub write_ledger: bool,
}

impl Options {
    /// Options rooted at `root`, check-only.
    pub fn check(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            update_baselines: false,
            write_ledger: false,
        }
    }
}

/// One lint finding, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (unix separators).
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Which lint produced it.
    pub lint: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.lint, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.lint, self.message
            )
        }
    }
}

/// The result of running one or more lints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations; non-empty means the run fails.
    pub diagnostics: Vec<Diagnostic>,
    /// Informational notes (inventory lines, ratchet slack, …).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether the lint run passed.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn merge(&mut self, other: Outcome) {
        self.diagnostics.extend(other.diagnostics);
        self.notes.extend(other.notes);
    }
}

/// A workspace member crate.
#[derive(Debug, Clone)]
struct CrateInfo {
    /// Package name from its `Cargo.toml`.
    name: String,
    /// Workspace-relative directory (empty for the root package).
    dir: String,
}

/// Where a source file lives, for lint scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `src/` trees: shipped library/binary code.
    Lib,
    /// `tests/`, `benches/`, `examples/`: auxiliary code.
    Aux,
}

/// A lexed source file plus the metadata the lints share.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, unix separators.
    pub rel_path: String,
    /// Owning crate's package name.
    pub crate_name: String,
    /// `src/` vs `tests`/`benches`/`examples`.
    pub section: Section,
    /// Per-line code/comment split.
    pub lines: Vec<lexer::Line>,
    /// 0-based index of the first `#[cfg(test)]` line (this workspace
    /// keeps unit tests in a trailing `mod tests`), or `lines.len()`.
    pub test_cutoff: usize,
}

impl SourceFile {
    /// Whether the file opts into the panic deny-list via a
    /// `//! fec-audit: deny(panic)` header tag. The tag must be a comment
    /// line of its own — prose that merely *mentions* the tag (like this
    /// sentence) does not opt a file in.
    pub fn denies_panic(&self) -> bool {
        self.lines
            .iter()
            .any(|l| l.comment.trim() == "fec-audit: deny(panic)")
    }

    /// Whether line `idx` (0-based) carries an `audit:allow(<what>)`
    /// justification: a trailing comment on the line itself, or a comment
    /// in the contiguous comment/attribute block immediately above.
    pub fn allows(&self, idx: usize, what: &str) -> bool {
        let marker = format!("audit:allow({what})");
        self.comment_block_for(idx)
            .any(|c| c.contains(marker.as_str()))
    }

    /// Whether line `idx` is justified by an adjacent `SAFETY` comment
    /// (`// SAFETY: …` or a `# Safety` rustdoc section).
    pub fn has_safety_comment(&self, idx: usize) -> bool {
        self.comment_block_for(idx)
            .any(|c| c.to_ascii_lowercase().contains("safety"))
    }

    /// The comments attached to code line `idx`: trailing comments on any
    /// line of the enclosing statement (a statement starts after a line
    /// ending in `;`, `{` or `}`), plus the contiguous run of
    /// comment-only / attribute lines immediately above that statement.
    fn comment_block_for(&self, idx: usize) -> impl Iterator<Item = &str> {
        // Walk up to the statement's first line.
        let mut start = idx;
        while start > 0 {
            let above = &self.lines[start - 1];
            let code = above.code.trim_end();
            if code.trim().is_empty()
                || above.is_comment_only()
                || above.is_attribute()
                || code.ends_with(';')
                || code.ends_with('{')
                || code.ends_with('}')
            {
                break;
            }
            start -= 1;
        }
        let mut texts: Vec<&str> = self.lines[start..=idx]
            .iter()
            .map(|l| l.comment.as_str())
            .collect();
        let mut i = start;
        while i > 0 {
            i -= 1;
            let line = &self.lines[i];
            if line.is_comment_only() || (line.is_attribute() && !line.is_code_blank()) {
                texts.push(line.comment.as_str());
            } else {
                break;
            }
        }
        texts.into_iter()
    }
}

/// The scanned workspace: member crates and their lexed sources.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Member crates (root package included).
    crates: Vec<CrateInfo>,
    /// Every `.rs` file under the members' source trees.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Scans the workspace rooted at `root`.
    fn scan(root: &Path) -> Result<Workspace, String> {
        let manifest = std::fs::read_to_string(root.join("Cargo.toml"))
            .map_err(|e| format!("cannot read {}/Cargo.toml: {e}", root.display()))?;
        let mut crates = Vec::new();
        for dir in member_dirs(&manifest)? {
            let name = package_name(root, &dir)?;
            crates.push(CrateInfo { name, dir });
        }
        // The root package, if the root manifest declares one.
        if manifest.contains("[package]") {
            let name = package_name(root, "")?;
            crates.push(CrateInfo {
                name,
                dir: String::new(),
            });
        }

        let mut files = Vec::new();
        for c in &crates {
            let base = if c.dir.is_empty() {
                root.to_path_buf()
            } else {
                root.join(&c.dir)
            };
            for (sub, section) in [
                ("src", Section::Lib),
                ("tests", Section::Aux),
                ("benches", Section::Aux),
                ("examples", Section::Aux),
            ] {
                // The root package's `src/bin` etc. are under `src`; its
                // tests/examples live at the workspace root.
                collect_rs(&base.join(sub), root, &c.name, section, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        files.dedup_by(|a, b| a.rel_path == b.rel_path);
        Ok(Workspace {
            root: root.to_path_buf(),
            crates,
            files,
        })
    }

    /// Crate names, for the CI coverage lint.
    pub fn crate_names(&self) -> impl Iterator<Item = &str> {
        self.crates.iter().map(|c| c.name.as_str())
    }
}

/// Parses `members = [ "a", "b", … ]` out of the root manifest.
fn member_dirs(manifest: &str) -> Result<Vec<String>, String> {
    let start = manifest
        .find("members")
        .ok_or("root Cargo.toml has no `members` list")?;
    let open = manifest[start..]
        .find('[')
        .ok_or("members list has no `[`")?;
    let close = manifest[start + open..]
        .find(']')
        .ok_or("members list has no `]`")?;
    let body = &manifest[start + open + 1..start + open + close];
    Ok(body
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect())
}

/// Reads the `name = "…"` of a member's `[package]` table.
fn package_name(root: &Path, dir: &str) -> Result<String, String> {
    let path = if dir.is_empty() {
        root.join("Cargo.toml")
    } else {
        root.join(dir).join("Cargo.toml")
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let pkg = text
        .find("[package]")
        .ok_or_else(|| format!("{}: no [package] table", path.display()))?;
    for line in text[pkg..].lines().skip(1) {
        if line.starts_with('[') {
            break;
        }
        if let Some(rest) = line.strip_prefix("name") {
            if let Some((_, v)) = rest.split_once('=') {
                return Ok(v.trim().trim_matches('"').to_string());
            }
        }
    }
    Err(format!("{}: no package name", path.display()))
}

/// Recursively collects and lexes `.rs` files under `dir`.
pub(crate) fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    section: Section,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // crates without tests/benches/examples
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("walking {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, crate_name, section, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let lines = lexer::split_lines(&source);
            let test_cutoff = lines
                .iter()
                .position(|l| l.code.contains("cfg(test"))
                .unwrap_or(lines.len());
            let rel_path = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the workspace", path.display()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                rel_path,
                crate_name: crate_name.to_string(),
                section,
                lines,
                test_cutoff,
            });
        }
    }
    Ok(())
}

/// Runs the given lints and merges their outcomes.
pub fn run(lints: &[Lint], opts: &Options) -> Result<Outcome, String> {
    let ws = Workspace::scan(&opts.root)?;
    let mut outcome = Outcome::default();
    for lint in lints {
        let one = match lint {
            Lint::Unsafe => lints::unsafe_audit::run(&ws, opts)?,
            Lint::Panic => lints::panic_lint::run(&ws, opts)?,
            Lint::Ordering => lints::ordering_audit::run(&ws)?,
            Lint::Ci => lints::ci_coverage::run(&ws)?,
            Lint::Size => lints::size::run(&ws, opts)?,
            Lint::Surface => lints::surface::run(&ws)?,
        };
        outcome.merge(one);
    }
    Ok(outcome)
}
