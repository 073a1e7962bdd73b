//! `repro lint` — the CLI face of the `grass-analysis` determinism &
//! robustness lint engine.
//!
//! ```text
//! repro lint [--format text|json] [--root <dir>] [paths…]
//! ```
//!
//! With no `--root`, the workspace root is found by walking up from the
//! current directory to the nearest `analysis.toml`. Positional paths narrow
//! the run to files under those workspace-relative prefixes (handy while
//! iterating on one crate). Exit status is `0` when no unsuppressed
//! error-severity finding remains, `1` otherwise — which is exactly the CI
//! gate.

use std::path::PathBuf;

use grass_analysis::{path_covers, render_json, render_text, run_lints, summarize, Workspace};

use crate::cli::{write_stdout, Flags};

/// Run `repro lint`. `Ok(true)` means the tree is clean (exit 0), `Ok(false)`
/// that unsuppressed error findings remain (exit 1); `Err` is a usage or I/O
/// error.
pub fn run_lint_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["help"], &["format", "root"])?;
    if flags.has("help") {
        write_stdout(HELP)?;
        return Ok(true);
    }
    let render = match flags.get("format").unwrap_or("text") {
        "text" => render_text,
        "json" => render_json,
        other => return Err(format!("unknown format '{other}' (expected text|json)")),
    };
    let root = match flags.get("root") {
        Some(root) => PathBuf::from(root),
        None => default_root()?,
    };
    let filters: Vec<String> = flags
        .positional
        .iter()
        .map(|p| normalize_filter(p))
        .collect();
    let mut workspace = Workspace::discover(&root)?;
    // An empty discovery means the root is wrong (e.g. run from outside the
    // workspace with no analysis.toml above) — passing silently would make
    // the CI gate vacuous.
    if workspace.files.is_empty() {
        return Err(format!(
            "no Rust sources found under {} (not a workspace root? pass --root)",
            root.display()
        ));
    }
    if !filters.is_empty() {
        workspace
            .files
            .retain(|file| filters.iter().any(|f| path_covers(f, &file.rel_path)));
        if workspace.files.is_empty() {
            return Err(format!(
                "no Rust sources match {} under {}",
                filters.join(", "),
                root.display()
            ));
        }
    }

    let findings = run_lints(&workspace);
    let summary = summarize(&findings, workspace.files.len());
    write_stdout(&render(&findings, &summary))?;
    Ok(summary.errors == 0)
}

/// Walk up from the current directory to the nearest `analysis.toml`; fall
/// back to the current directory when none is found (lints then run under
/// default configuration).
fn default_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    let mut dir = cwd.clone();
    loop {
        if dir.join("analysis.toml").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Ok(cwd);
        }
    }
}

/// Normalise a positional path filter to workspace-relative `/` form.
fn normalize_filter(path: &str) -> String {
    path.trim_start_matches("./")
        .trim_end_matches('/')
        .to_string()
}

const HELP: &str = "\
repro lint — determinism & robustness lints over the workspace

USAGE: repro lint [--format text|json] [--root <dir>] [paths...]

Exit status 0 when no unsuppressed error-severity finding remains, 1 otherwise.
Configuration: analysis.toml at the workspace root (path classes, severities,
path-scoped allows). Per-line suppressions take the form
  <code>  // grass: allow(<lint-id>, \"<reason>\")
with the reason mandatory. See docs/lints.md for the lint catalog.
";
