//! End-to-end tests driving the real `fec-audit` binary.
//!
//! Each test fabricates a small workspace under `CARGO_TARGET_TMPDIR`
//! with a seeded violation — an unjustified `unsafe`, a panic in a
//! `deny(panic)` module, an unexplained `Ordering::Relaxed`, a crate
//! missing from CI, a crate or the whole tree grown past its size
//! baseline, a `pub` item no other file names — and asserts the binary
//! exits non-zero with a `file:line` diagnostic. The final test runs
//! `all` against the real committed tree, so `cargo test` itself
//! enforces the lints.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn audit(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fec-audit"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn fec-audit")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Materialises a throwaway workspace tree under the test tmpdir.
fn write_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear old tree");
    }
    for (rel, content) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, content).expect("write");
    }
    root
}

const WS_ONE_MEMBER: &str = "[workspace]\nmembers = [\"crates/wire\"]\n";
const WIRE_MANIFEST: &str = "[package]\nname = \"wire\"\n";

#[test]
fn unjustified_unsafe_outside_allowlist_fails() {
    let root = write_tree(
        "unsafe-violation",
        &[
            ("Cargo.toml", WS_ONE_MEMBER),
            ("crates/wire/Cargo.toml", WIRE_MANIFEST),
            (
                "crates/wire/src/lib.rs",
                "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            ),
            (
                "audit/unsafe.baseline.toml",
                "[unsafe]\nwire = 1\ntotal = 1\n",
            ),
        ],
    );
    let out = audit(&root, &["unsafe"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("crates/wire/src/lib.rs:2"),
        "diagnostic must carry file:line, got:\n{text}"
    );
    assert!(text.contains("outside the allowlisted"), "{text}");
    assert!(text.contains("SAFETY"), "{text}");
}

#[test]
fn justified_unsafe_in_allowlist_passes_and_ratchet_rejects_growth() {
    let kernel = "//! Fake SIMD backend.\n\n\
                  /// # Safety\n/// `p` must be valid for reads.\n\
                  pub unsafe fn peek(p: *const u8) -> u8 {\n\
                  \x20   // SAFETY: forwarded precondition.\n    unsafe { *p }\n}\n";
    let root = write_tree(
        "unsafe-clean",
        &[
            ("Cargo.toml", "[workspace]\nmembers = [\"crates/gf256\"]\n"),
            ("crates/gf256/Cargo.toml", "[package]\nname = \"gf256\"\n"),
            ("crates/gf256/src/kernels/simd.rs", kernel),
        ],
    );
    // First pass writes the baseline and the ledger; the check pass must
    // then be green.
    let gen = audit(&root, &["unsafe", "--update-baselines"]);
    assert!(gen.status.success(), "{}", stdout(&gen));
    let check = audit(&root, &["unsafe"]);
    assert!(check.status.success(), "{}", stdout(&check));
    assert!(root.join("docs/UNSAFE_LEDGER.md").exists());

    // One more unsafe site — justified, allowlisted, but above baseline:
    // the ratchet must reject it (and the ledger is now stale too).
    let grown = format!(
        "{kernel}\n// SAFETY: still valid for reads.\n\
         pub fn peek2(p: *const u8) -> u8 {{\n    unsafe {{ *p }}\n}}\n"
    );
    std::fs::write(root.join("crates/gf256/src/kernels/simd.rs"), grown).expect("write");
    let out = audit(&root, &["unsafe"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("grew"), "{text}");
    assert!(text.contains("stale unsafe ledger"), "{text}");
}

#[test]
fn panic_in_deny_module_fails_with_location() {
    let root = write_tree(
        "panic-violation",
        &[
            ("Cargo.toml", WS_ONE_MEMBER),
            ("crates/wire/Cargo.toml", WIRE_MANIFEST),
            (
                "crates/wire/src/lib.rs",
                "//! fec-audit: deny(panic)\n\n\
                 pub fn first(d: &[u8]) -> u8 {\n    d[0]\n}\n\n\
                 pub fn decode(d: &[u8]) -> u8 {\n    d.first().copied().unwrap()\n}\n\n\
                 pub fn version() -> u8 {\n\
                 \x20   // audit:allow(panic) -- constant table, cannot be empty\n\
                 \x20   [1u8][0]\n}\n",
            ),
            (
                "audit/panic.baseline.toml",
                "[panic]\nwire = 2\ntotal = 2\n",
            ),
        ],
    );
    let out = audit(&root, &["panic"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("crates/wire/src/lib.rs:4"),
        "indexing: {text}"
    );
    assert!(text.contains("crates/wire/src/lib.rs:8"), "unwrap: {text}");
    assert!(text.contains("deny(panic)"), "{text}");
    // The justified site is not reported.
    assert!(!text.contains("lib.rs:13"), "escape hatch ignored: {text}");
}

#[test]
fn panic_ratchet_rejects_growth_in_untagged_code() {
    let root = write_tree(
        "panic-ratchet",
        &[
            ("Cargo.toml", WS_ONE_MEMBER),
            ("crates/wire/Cargo.toml", WIRE_MANIFEST),
            (
                "crates/wire/src/lib.rs",
                "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n\
                 pub fn g(x: Option<u8>) -> u8 {\n    x.expect(\"set\")\n}\n",
            ),
            (
                "audit/panic.baseline.toml",
                "[panic]\nwire = 1\ntotal = 1\n",
            ),
        ],
    );
    let out = audit(&root, &["panic"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("grew"), "{}", stdout(&out));
}

#[test]
fn unjustified_relaxed_ordering_fails() {
    let root = write_tree(
        "ordering-violation",
        &[
            ("Cargo.toml", WS_ONE_MEMBER),
            ("crates/wire/Cargo.toml", WIRE_MANIFEST),
            (
                "crates/wire/src/lib.rs",
                "use std::sync::atomic::{AtomicU64, Ordering};\n\n\
                 pub fn load(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed)\n}\n\n\
                 pub fn load_ok(a: &AtomicU64) -> u64 {\n\
                 \x20   // audit:allow(relaxed) -- independent counter cell\n\
                 \x20   a.load(Ordering::Relaxed)\n}\n\n\
                 pub fn load_acq(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Acquire)\n}\n",
            ),
        ],
    );
    let out = audit(&root, &["ordering"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("crates/wire/src/lib.rs:4"), "{text}");
    assert!(text.contains("Relaxed"), "{text}");
    // The justified Relaxed and the Acquire are inventory, not violations.
    assert!(!text.contains("lib.rs:9"), "{text}");
    assert!(!text.contains("lib.rs:13"), "{text}");
}

#[test]
fn crate_missing_from_ci_fails() {
    let files = [
        (
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/alpha\", \"crates/beta\"]\n",
        ),
        ("crates/alpha/Cargo.toml", "[package]\nname = \"alpha\"\n"),
        ("crates/alpha/src/lib.rs", ""),
        ("crates/beta/Cargo.toml", "[package]\nname = \"beta\"\n"),
        ("crates/beta/src/lib.rs", ""),
        (
            ".github/workflows/ci.yml",
            "jobs:\n  test:\n    steps:\n      - run: cargo test -p alpha\n",
        ),
    ];
    let root = write_tree("ci-gap", &files);
    let out = audit(&root, &["ci"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("beta"), "{}", stdout(&out));

    // A workspace-wide job covers everyone.
    let mut covered = files;
    covered[5].1 = "jobs:\n  test:\n    steps:\n      - run: cargo test --workspace\n";
    let root = write_tree("ci-covered", &covered);
    let out = audit(&root, &["ci"]);
    assert!(out.status.success(), "{}", stdout(&out));
}

#[test]
fn size_ratchet_rejects_growth_but_not_comments_or_tests() {
    let lib = "//! Two code lines.\n\npub fn f() -> u8 {\n    // a comment is not code\n    1\n}\n";
    let root = write_tree(
        "size-ratchet",
        &[
            ("Cargo.toml", WS_ONE_MEMBER),
            ("crates/wire/Cargo.toml", WIRE_MANIFEST),
            ("crates/wire/src/lib.rs", lib),
            (
                "audit/size.baseline.toml",
                "[size]\nwire = 3\ntotal = 3\ntree_total = 8\n",
            ),
        ],
    );
    let out = audit(&root, &["size"]);
    assert!(out.status.success(), "{}", stdout(&out));

    // Comments, blank lines and a unit-test module are free…
    let padded = format!(
        "{lib}\n// more prose\n\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{}}\n}}\n"
    );
    std::fs::write(root.join("crates/wire/src/lib.rs"), padded).expect("write");
    let out = audit(&root, &["size"]);
    assert!(out.status.success(), "{}", stdout(&out));

    // …one more line of code is not, until someone re-baselines.
    let grown = format!("{lib}pub const G: u8 = 2;\n");
    std::fs::write(root.join("crates/wire/src/lib.rs"), grown).expect("write");
    let out = audit(&root, &["size"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(text.contains("audit/size.baseline.toml"), "{text}");
    assert!(
        text.contains("size count for wire grew: 4 > baseline 3"),
        "{text}"
    );
    let rebase = audit(&root, &["size", "--update-baselines"]);
    assert!(rebase.status.success(), "{}", stdout(&rebase));
    assert!(audit(&root, &["size"]).status.success());
}

/// The whole-tree figure counts what the per-crate one leaves out — unit
/// tests, `tests/`, the shims — and moves the same way: down freely, up
/// only through a re-baseline.
#[test]
fn tree_ratchet_counts_tests_and_shims_and_only_goes_down() {
    let lib = "pub fn f() -> u8 {\n    1\n}\n\n#[cfg(test)]\nmod tests {}\n";
    let root = write_tree(
        "tree-ratchet",
        &[
            (
                "Cargo.toml",
                "[workspace]\nmembers = [\"crates/wire\", \"crates/shims/dep\"]\n",
            ),
            ("crates/wire/Cargo.toml", WIRE_MANIFEST),
            ("crates/wire/src/lib.rs", lib),
            ("crates/wire/tests/t.rs", "fn t() {}\nfn u() {}\n"),
            ("crates/shims/dep/Cargo.toml", "[package]\nname = \"dep\"\n"),
            ("crates/shims/dep/src/lib.rs", "pub struct Dep;\n"),
            (
                "audit/size.baseline.toml",
                "[size]\nwire = 3\ntotal = 3\ntree_total = 8\n",
            ),
        ],
    );
    let out = audit(&root, &["size"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stderr(&out).contains("tree_total 8 "), "{}", stderr(&out));

    // One more line in a shim: no crate's `src/` moved, the tree did.
    let shim = root.join("crates/shims/dep/src/lib.rs");
    std::fs::write(&shim, "pub struct Dep;\npub struct More;\n").expect("write");
    let out = audit(&root, &["size"]);
    assert!(!out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("size count for tree_total grew: 9 > baseline 8"),
        "{text}"
    );
    assert!(!text.contains("for wire grew"), "{text}");

    // Deleting a test more than pays for it.
    std::fs::write(root.join("crates/wire/tests/t.rs"), "").expect("write");
    let out = audit(&root, &["size"]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stderr(&out).contains("tree_total 7 "), "{}", stderr(&out));
}

/// The surface lint, case by case. Each case adds files to a two-crate
/// workspace (`wire` declares, `user` may call) with a shim crate, and
/// lists the `file:line` findings it expects; none means a clean run.
#[test]
fn surface_denies_pub_items_no_other_file_names() {
    let base = [
        (
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/wire\", \"crates/user\", \"crates/shims/dep\"]\n",
        ),
        ("crates/wire/Cargo.toml", WIRE_MANIFEST),
        ("crates/user/Cargo.toml", "[package]\nname = \"user\"\n"),
        ("crates/shims/dep/Cargo.toml", "[package]\nname = \"dep\"\n"),
        ("crates/shims/dep/src/lib.rs", "pub fn mirrored() {}\n"),
    ];
    type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str]);
    let cases: [Case; 6] = [
        (
            "own-file",
            &[
                (
                    "crates/wire/src/lib.rs",
                    "pub fn lonely() {}\n\npub const fn helper() -> u8 {\n    0\n}\n\n\
                     pub fn caller() -> u8 {\n    lonely();\n    helper()\n}\n",
                ),
                ("crates/user/src/lib.rs", "fn f() -> u8 {\n    wire::caller()\n}\n"),
            ],
            &["crates/wire/src/lib.rs:1:", "crates/wire/src/lib.rs:3:"],
        ),
        (
            "tests-and-examples",
            &[
                ("crates/wire/src/lib.rs", "pub fn tested() {}\npub struct Shown;\n"),
                ("crates/user/tests/t.rs", "fn t() {\n    wire::tested();\n}\n"),
                ("crates/user/examples/e.rs", "fn main() {\n    let _ = wire::Shown;\n}\n"),
            ],
            &[],
        ),
        (
            "benchmark",
            &[
                ("crates/wire/src/lib.rs", "pub static BENCHED: u8 = 1;\n"),
                (
                    "benchmark/src/main.rs",
                    "pub fn harness_only() {}\nfn main() {\n    let _ = wire::BENCHED;\n}\n",
                ),
            ],
            &[],
        ),
        (
            "comment-doc-string",
            &[
                ("crates/wire/src/lib.rs", "pub type Mentioned = u8;\n"),
                (
                    "crates/user/src/lib.rs",
                    "//! Mentioned\n/// Mentioned\nfn f() -> &'static str {\n    \
                     // Mentioned\n    \"Mentioned\"\n}\n",
                ),
            ],
            &["crates/wire/src/lib.rs:1:"],
        ),
        (
            "allowed",
            &[(
                "crates/wire/src/lib.rs",
                "/// Kept.\n// audit:allow(surface) -- a reason a reader can check\npub enum Kept {}\n",
            )],
            &[],
        ),
        (
            "out-of-scope",
            &[(
                "crates/wire/src/lib.rs",
                "pub(crate) fn inner() {}\n\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
            )],
            &[],
        ),
    ];
    for (case, files, expected) in cases {
        let tree: Vec<(&str, &str)> = base.iter().chain(files).copied().collect();
        let root = write_tree(&format!("surface-{case}"), &tree);
        let out = audit(&root, &["surface"]);
        let text = stdout(&out);
        assert_eq!(out.status.success(), expected.is_empty(), "{case}: {text}");
        assert_eq!(text.lines().count(), expected.len(), "{case}: {text}");
        for at in expected {
            assert!(text.contains(at), "{case}: no finding at {at} in:\n{text}");
        }
    }
}

/// The committed tree itself must be clean — this is what makes tier-1
/// (`cargo test`) enforce the soundness suite without extra CI plumbing.
#[test]
fn committed_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let out = audit(root, &["all"]);
    assert!(
        out.status.success(),
        "fec-audit all failed on the committed tree:\n{}\n{}",
        stdout(&out),
        String::from_utf8_lossy(&out.stderr)
    );
}
