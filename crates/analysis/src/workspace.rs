//! Workspace discovery: find every Rust source file under a root, classify its
//! role from its path, and run the lint pipeline over the lot.

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::AnalysisConfig;
use crate::engine::lint_source;
use crate::finding::{sort_findings, Finding};

/// What kind of target a file belongs to, derived from its path. Several lints
/// scope themselves by role: test, bench and example code is exempt from
/// library-robustness rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code (`src/**`, the default).
    Lib,
    /// Binary target (`src/bin/**`, `build.rs`).
    Bin,
    /// Test code (any `tests/` directory).
    Test,
    /// Bench code (any `benches/` directory).
    Bench,
    /// Example code (any `examples/` directory).
    Example,
}

impl Role {
    /// The JSON/report spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Lib => "lib",
            Role::Bin => "bin",
            Role::Test => "test",
            Role::Bench => "bench",
            Role::Example => "example",
        }
    }
}

/// Derive a file's [`Role`] from its workspace-relative path.
pub fn role_for(rel_path: &str) -> Role {
    let mut under_src = false;
    for component in rel_path.split('/') {
        match component {
            "tests" => return Role::Test,
            "benches" => return Role::Bench,
            "examples" => return Role::Example,
            "bin" if under_src => return Role::Bin,
            "src" => under_src = true,
            _ => {}
        }
    }
    if rel_path.ends_with("build.rs") {
        Role::Bin
    } else {
        Role::Lib
    }
}

/// One discovered source file, read eagerly so linting is infallible.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// File contents.
    pub source: String,
}

/// A discovered tree of Rust sources plus the configuration they are linted
/// under.
#[derive(Debug)]
pub struct Workspace {
    /// Discovery root.
    pub root: PathBuf,
    /// Effective configuration (parsed `analysis.toml`, or defaults).
    pub config: AnalysisConfig,
    /// Every `.rs` file found, in sorted path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Discover `root`, loading `<root>/analysis.toml` when present.
    pub fn discover(root: &Path) -> Result<Workspace, String> {
        let config_path = root.join("analysis.toml");
        let config = if config_path.exists() {
            // grass: allow(unbounded-read, "the workspace's own analysis.toml, which its developers write")
            let text = fs::read_to_string(&config_path)
                .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
            AnalysisConfig::parse(&text)?
        } else {
            AnalysisConfig::default()
        };
        Workspace::discover_with_config(root, config)
    }

    /// Discover `root` under an explicit configuration (used by self-tests).
    pub fn discover_with_config(root: &Path, config: AnalysisConfig) -> Result<Workspace, String> {
        let mut files = Vec::new();
        walk(root, root, &config, &mut files)?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            config,
            files,
        })
    }
}

/// Run every lint over every discovered file. Findings come back sorted by
/// (path, line, column, lint) and include suppressed entries (flagged as such).
pub fn run_lints(workspace: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &workspace.files {
        findings.extend(lint_source(&file.rel_path, &file.source, &workspace.config));
    }
    sort_findings(&mut findings);
    findings
}

/// Directory names never descended into, regardless of configuration.
fn always_skipped(name: &str) -> bool {
    name == "target" || name.starts_with('.')
}

fn walk(
    root: &Path,
    dir: &Path,
    config: &AnalysisConfig,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    // Sort for deterministic discovery order — readdir order is OS-dependent.
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if always_skipped(name) {
            continue;
        }
        let rel = rel_path(root, &path);
        if config.is_skipped(&rel) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, config, out)?;
        } else if name.ends_with(".rs") {
            // grass: allow(unbounded-read, "one of the workspace's own source files, which its developers write")
            let source = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push(SourceFile {
                rel_path: rel,
                source,
            });
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_from_paths() {
        assert_eq!(role_for("crates/sim/src/event.rs"), Role::Lib);
        assert_eq!(role_for("crates/experiments/src/bin/repro.rs"), Role::Bin);
        assert_eq!(role_for("tests/pipeline.rs"), Role::Test);
        assert_eq!(role_for("crates/fleet/tests/state_props.rs"), Role::Test);
        assert_eq!(role_for("crates/bench/benches/microbench.rs"), Role::Bench);
        assert_eq!(role_for("examples/quickstart.rs"), Role::Example);
        assert_eq!(
            role_for("crates/analysis/tests/corpus/clean.rs"),
            Role::Test
        );
        assert_eq!(role_for("build.rs"), Role::Bin);
        assert_eq!(role_for("src/lib.rs"), Role::Lib);
    }
}
