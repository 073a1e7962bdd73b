//! Corpus self-test: every fixture under `tests/corpus/` self-describes its
//! expected findings with trailing `//~ <lint-id>` markers (compiletest
//! style; `//~^` anchors to the previous line). The engine must produce
//! exactly that set — same lint, same file, same line — no more, no less.
//!
//! The corpus directory is excluded from workspace linting via the `skip`
//! list in the repo-root `analysis.toml`, and its files are not compiled by
//! cargo (only top-level `tests/*.rs` are test targets), so fixtures are free
//! to contain deliberately broken patterns.

use std::path::PathBuf;

use grass_analysis::{run_lints, AnalysisConfig, Workspace};

/// Classes and allows the fixtures are linted under. Mirrors the shape of the
/// repo-root `analysis.toml`, scoped to fixture file names.
const CORPUS_CONFIG: &str = r#"
digest = ["unordered.rs", "clean.rs"]
library = ["panicky.rs", "unbounded_read.rs", "clean.rs"]

[[allow]]
lint = "wall-clock-in-core"
path = "allowed_by_config.rs"
reason = "fixture: path-scoped allow"
"#;

fn corpus() -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus");
    let config = match AnalysisConfig::parse(CORPUS_CONFIG) {
        Ok(config) => config,
        Err(e) => panic!("corpus config must parse: {e}"),
    };
    match Workspace::discover_with_config(&root, config) {
        Ok(workspace) => workspace,
        Err(e) => panic!("corpus must be discoverable: {e}"),
    }
}

/// Extract `(path, line, lint)` expectations from `//~` markers. A marker on
/// its own line with `^` (`//~^ lint-id`) anchors to the previous line.
fn expected_markers(workspace: &Workspace) -> Vec<(String, u32, String)> {
    let mut expected = Vec::new();
    for file in &workspace.files {
        for (index, text) in file.source.lines().enumerate() {
            let line = index as u32 + 1;
            for chunk in text.split("//~").skip(1) {
                let (anchor, rest) = match chunk.strip_prefix('^') {
                    Some(rest) => (line.saturating_sub(1), rest),
                    None => (line, chunk),
                };
                let lint: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                assert!(
                    !lint.is_empty(),
                    "{}:{}: marker with no lint id",
                    file.rel_path,
                    line
                );
                expected.push((file.rel_path.clone(), anchor, lint));
            }
        }
    }
    expected.sort();
    expected
}

#[test]
fn corpus_findings_match_markers_exactly() {
    let workspace = corpus();
    assert!(
        workspace.files.len() >= 8,
        "corpus went missing: found only {} files",
        workspace.files.len()
    );

    let expected = expected_markers(&workspace);
    let mut actual: Vec<(String, u32, String)> = run_lints(&workspace)
        .into_iter()
        .filter(|f| f.suppressed.is_none())
        .map(|f| (f.path.clone(), f.line, f.lint.to_string()))
        .collect();
    actual.sort();

    for miss in expected.iter().filter(|e| !actual.contains(e)) {
        eprintln!("expected but not reported: {miss:?}");
    }
    for extra in actual.iter().filter(|a| !expected.contains(a)) {
        eprintln!("reported but not expected: {extra:?}");
    }
    assert_eq!(actual, expected);
}

#[test]
fn corpus_exercises_every_lint() {
    let workspace = corpus();
    let expected = expected_markers(&workspace);
    for lint in [
        "nan-unsafe-cmp",
        "unordered-iter-on-digest-path",
        "wall-clock-in-core",
        "unseeded-rng",
        "panicky-lib",
        "nested-lock",
        "unbounded-read",
        "malformed-suppression",
        "unused-suppression",
    ] {
        assert!(
            expected.iter().any(|(_, _, id)| id == lint),
            "corpus has no fixture exercising `{lint}` — a pass could go dead unnoticed"
        );
    }
}

#[test]
fn suppressions_carry_their_reasons() {
    let workspace = corpus();
    let findings = run_lints(&workspace);

    // Line directive, own-line form.
    assert!(findings.iter().any(|f| f.path == "suppress.rs"
        && f.lint == "unseeded-rng"
        && f.suppressed.as_deref() == Some("fixture: demonstrating a justified suppression")));
    // Line directive, trailing form.
    assert!(findings.iter().any(|f| f.path == "suppress.rs"
        && f.lint == "unseeded-rng"
        && f.suppressed.as_deref() == Some("fixture: trailing form")));
    // Path-scoped allow from the configuration, reason prefixed with its origin.
    let config_suppressed = findings
        .iter()
        .filter(|f| f.path == "allowed_by_config.rs" && f.lint == "wall-clock-in-core")
        .collect::<Vec<_>>();
    assert_eq!(config_suppressed.len(), 3);
    for finding in config_suppressed {
        assert_eq!(
            finding.suppressed.as_deref(),
            Some("analysis.toml: fixture: path-scoped allow")
        );
    }
}

#[test]
fn clean_fixture_is_clean() {
    let workspace = corpus();
    let findings = run_lints(&workspace);
    assert!(
        !findings.iter().any(|f| f.path == "clean.rs"),
        "clean.rs must produce zero findings"
    );
}

#[test]
fn severity_override_downgrades_to_warning() {
    let source = "pub fn roll() -> u64 { rand::thread_rng().gen() }\n";
    let config = match AnalysisConfig::parse("[severity]\nunseeded-rng = \"warn\"\n") {
        Ok(config) => config,
        Err(e) => panic!("severity config must parse: {e}"),
    };
    let findings = grass_analysis::lint_source("demo/src/lib.rs", source, &config);
    assert_eq!(findings.len(), 1);
    let finding = &findings[0];
    assert_eq!(finding.lint, "unseeded-rng");
    assert_eq!(finding.severity, grass_analysis::Severity::Warn);
    assert!(!finding.is_blocking(), "warnings must not gate the build");
}

#[test]
fn severity_off_disables_a_lint() {
    let source = "pub fn roll() -> u64 { rand::thread_rng().gen() }\n";
    let config = match AnalysisConfig::parse("[severity]\nunseeded-rng = \"off\"\n") {
        Ok(config) => config,
        Err(e) => panic!("severity config must parse: {e}"),
    };
    let findings = grass_analysis::lint_source("demo/src/lib.rs", source, &config);
    assert!(findings.is_empty());
}
