//! Lint 4: every workspace crate must be exercised by CI.
//!
//! Parses `.github/workflows/ci.yml` (line-oriented — the workflow is
//! YAML, but the lint only needs the `cargo test` invocations) and checks
//! that every workspace member is covered by at least one test job:
//! either a `--workspace` run, or an explicit `-p <crate>` /
//! `--package <crate>`. This catches the quiet failure mode where a new
//! crate lands with its own test suite but never joins a CI job — its
//! tests rot green-by-omission.

use std::collections::BTreeSet;

use crate::{Diagnostic, Outcome, Workspace};

/// Workflow file, relative to the workspace root.
const WORKFLOW_PATH: &str = ".github/workflows/ci.yml";

const LINT: &str = "ci-coverage";

/// Runs the CI coverage lint.
pub fn run(ws: &Workspace) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = ws.root.join(WORKFLOW_PATH);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            out.diagnostics.push(Diagnostic {
                file: WORKFLOW_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: "missing CI workflow — every workspace crate must be tested in CI"
                    .to_string(),
            });
            return Ok(out);
        }
    };

    let mut workspace_wide = false;
    let mut explicit: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        if !(line.contains("cargo test") || line.contains("miri test")) {
            continue;
        }
        if line.contains("--workspace") || line.contains("--all ") || line.ends_with("--all") {
            workspace_wide = true;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for pair in tokens.windows(2) {
            if pair[0] == "-p" || pair[0] == "--package" {
                explicit.insert(pair[1].to_string());
            }
        }
    }

    for name in ws.crate_names() {
        let covered = workspace_wide || explicit.contains(name);
        if !covered {
            out.diagnostics.push(Diagnostic {
                file: WORKFLOW_PATH.to_string(),
                line: 0,
                lint: LINT,
                message: format!(
                    "crate {name} is not covered by any CI test job — add it to a \
                     `cargo test` invocation (or a `--workspace` run)"
                ),
            });
        }
    }
    out.notes.push(format!(
        "CI coverage: workspace-wide test job {}; {} explicit -p jobs",
        if workspace_wide { "present" } else { "absent" },
        explicit.len()
    ));
    Ok(out)
}
