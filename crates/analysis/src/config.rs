//! `analysis.toml` — the path-scoped lint configuration.
//!
//! Hand-parsed (the workspace is offline; no toml crate), accepting the small
//! TOML subset the file actually uses:
//!
//! * top-level string arrays: `skip`, `digest`, `timing`, `library` — each a
//!   list of workspace-relative path prefixes (a prefix matches itself and
//!   everything below it);
//! * a `[severity]` table mapping lint ids to `"off" | "warn" | "error"`;
//! * repeated `[[allow]]` tables with `lint`, `path` and a **required**
//!   `reason` — the path-scoped counterpart of the per-line
//!   `grass: allow(...)` comment directive.
//!
//! `#` comments and blank lines are ignored; arrays may span lines.

use crate::finding::Severity;
use crate::lints;

/// A path-scoped suppression from an `[[allow]]` table.
#[derive(Debug, Clone)]
pub struct PathAllow {
    /// Lint id the allowance applies to.
    pub lint: String,
    /// Workspace-relative path prefix it covers.
    pub path: String,
    /// Mandatory justification, echoed into reports.
    pub reason: String,
}

/// Parsed `analysis.toml`.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Path prefixes never linted (fixture corpora, vendored code).
    pub skip: Vec<String>,
    /// Digest-path modules: iteration order and float comparisons here reach
    /// result digests (`unordered-iter-on-digest-path` applies).
    pub digest: Vec<String>,
    /// Timing modules: wall-clock reads are their job
    /// (`wall-clock-in-core` does not apply).
    pub timing: Vec<String>,
    /// Library modules: panicking is an API bug (`panicky-lib` applies).
    pub library: Vec<String>,
    /// Per-lint severity overrides.
    pub severity: Vec<(String, Severity)>,
    /// Path-scoped suppressions.
    pub allows: Vec<PathAllow>,
}

/// Class membership of one file under a config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassSet {
    /// In a `digest` path.
    pub digest: bool,
    /// In a `timing` path.
    pub timing: bool,
    /// In a `library` path.
    pub library: bool,
}

/// Does `prefix` cover `rel` (equal, or an ancestor directory of it)?
pub fn path_covers(prefix: &str, rel: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    rel == prefix
        || (rel.len() > prefix.len()
            && rel.starts_with(prefix)
            && rel.as_bytes().get(prefix.len()) == Some(&b'/'))
}

impl AnalysisConfig {
    /// Parse `analysis.toml` text. Errors name the offending 1-based line.
    pub fn parse(text: &str) -> Result<AnalysisConfig, String> {
        Parser::default().run(text)
    }

    /// Whether `rel` is excluded from linting entirely.
    pub fn is_skipped(&self, rel: &str) -> bool {
        self.skip.iter().any(|p| path_covers(p, rel))
    }

    /// Class membership for `rel`.
    pub fn classes_for(&self, rel: &str) -> ClassSet {
        ClassSet {
            digest: self.digest.iter().any(|p| path_covers(p, rel)),
            timing: self.timing.iter().any(|p| path_covers(p, rel)),
            library: self.library.iter().any(|p| path_covers(p, rel)),
        }
    }

    /// Effective severity of `lint`, honouring overrides.
    pub fn severity_of(&self, lint: &str, default: Severity) -> Severity {
        self.severity
            .iter()
            .find(|(id, _)| id == lint)
            .map(|(_, s)| *s)
            .unwrap_or(default)
    }

    /// The reason of the first path-scoped allow covering (`lint`, `rel`).
    pub fn allow_reason(&self, lint: &str, rel: &str) -> Option<&str> {
        self.allows
            .iter()
            .find(|a| a.lint == lint && path_covers(&a.path, rel))
            .map(|a| a.reason.as_str())
    }
}

#[derive(Default)]
enum Section {
    #[default]
    Top,
    Severity,
    Allow,
}

// Partially parsed [[allow]] table: (lint, path, reason), with the line it
// started on for error reporting.
type PartialAllow = (Option<String>, Option<String>, Option<String>, u32);

#[derive(Default)]
struct Parser {
    config: AnalysisConfig,
    section: Section,
    allow: Option<PartialAllow>,
    // Key whose array value is still open across lines.
    pending: Option<(String, String, u32)>,
}

impl Parser {
    fn run(mut self, text: &str) -> Result<AnalysisConfig, String> {
        // grass: allow(unbounded-read, "`str::lines` over the config text already in memory")
        for (index, raw) in text.lines().enumerate() {
            let lineno = (index as u32) + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some((key, mut value, start)) = self.pending.take() {
                value.push(' ');
                value.push_str(&line);
                if brackets_balance(&value) {
                    self.finish_array(&key, &value, start)?;
                } else {
                    self.pending = Some((key, value, start));
                }
                continue;
            }
            if line == "[[allow]]" {
                self.flush_allow()?;
                self.section = Section::Allow;
                self.allow = Some((None, None, None, lineno));
                continue;
            }
            if line == "[severity]" {
                self.flush_allow()?;
                self.section = Section::Severity;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("analysis.toml:{lineno}: unknown section {line}"));
            }
            let (key, value) = split_key_value(&line)
                .ok_or_else(|| format!("analysis.toml:{lineno}: expected `key = value`"))?;
            match self.section {
                Section::Top => {
                    if !matches!(key.as_str(), "skip" | "digest" | "timing" | "library") {
                        return Err(format!("analysis.toml:{lineno}: unknown key `{key}`"));
                    }
                    if brackets_balance(&value) {
                        self.finish_array(&key, &value, lineno)?;
                    } else {
                        self.pending = Some((key, value, lineno));
                    }
                }
                Section::Severity => {
                    let id = unquote(&key);
                    if !lints::is_known_lint(&id) {
                        return Err(format!("analysis.toml:{lineno}: unknown lint `{id}`"));
                    }
                    let spelled = parse_string(&value).ok_or_else(|| {
                        format!("analysis.toml:{lineno}: severity must be a string")
                    })?;
                    let severity = Severity::parse(&spelled).ok_or_else(|| {
                        format!(
                            "analysis.toml:{lineno}: severity must be off|warn|error, got `{spelled}`"
                        )
                    })?;
                    self.config.severity.push((id, severity));
                }
                Section::Allow => {
                    let slot = match self.allow.as_mut() {
                        Some(entry) => entry,
                        None => {
                            return Err(format!(
                                "analysis.toml:{lineno}: key outside an [[allow]] table"
                            ))
                        }
                    };
                    let text = parse_string(&value).ok_or_else(|| {
                        format!("analysis.toml:{lineno}: `{key}` must be a string")
                    })?;
                    match key.as_str() {
                        "lint" => slot.0 = Some(text),
                        "path" => slot.1 = Some(text),
                        "reason" => slot.2 = Some(text),
                        other => {
                            return Err(format!(
                                "analysis.toml:{lineno}: unknown [[allow]] key `{other}`"
                            ))
                        }
                    }
                }
            }
        }
        if let Some((_, _, start)) = &self.pending {
            return Err(format!("analysis.toml:{start}: unterminated array"));
        }
        self.flush_allow()?;
        Ok(self.config)
    }

    fn finish_array(&mut self, key: &str, value: &str, lineno: u32) -> Result<(), String> {
        let items = parse_string_array(value)
            .ok_or_else(|| format!("analysis.toml:{lineno}: `{key}` must be a string array"))?;
        let target = match key {
            "skip" => &mut self.config.skip,
            "digest" => &mut self.config.digest,
            "timing" => &mut self.config.timing,
            "library" => &mut self.config.library,
            other => return Err(format!("analysis.toml:{lineno}: unknown key `{other}`")),
        };
        target.extend(items);
        Ok(())
    }

    fn flush_allow(&mut self) -> Result<(), String> {
        let Some((lint, path, reason, start)) = self.allow.take() else {
            return Ok(());
        };
        let lint =
            lint.ok_or_else(|| format!("analysis.toml:{start}: [[allow]] is missing `lint`"))?;
        let path =
            path.ok_or_else(|| format!("analysis.toml:{start}: [[allow]] is missing `path`"))?;
        let reason = reason.ok_or_else(|| {
            format!("analysis.toml:{start}: [[allow]] is missing `reason` — every suppression must be justified")
        })?;
        if !lints::is_known_lint(&lint) {
            return Err(format!("analysis.toml:{start}: unknown lint `{lint}`"));
        }
        if reason.trim().is_empty() {
            return Err(format!(
                "analysis.toml:{start}: [[allow]] reason must not be empty"
            ));
        }
        self.config.allows.push(PathAllow { lint, path, reason });
        Ok(())
    }
}

/// Remove a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (index, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return line.get(..index).unwrap_or(line),
            _ => {}
        }
    }
    line
}

fn brackets_balance(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    for c in value.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn split_key_value(line: &str) -> Option<(String, String)> {
    let eq = line.find('=')?;
    let key = line.get(..eq)?.trim().to_string();
    let value = line.get(eq + 1..)?.trim().to_string();
    if key.is_empty() || value.is_empty() {
        return None;
    }
    Some((key, value))
}

fn unquote(text: &str) -> String {
    let trimmed = text.trim();
    trimmed
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(trimmed)
        .to_string()
}

/// Parse a `"string"` value.
fn parse_string(value: &str) -> Option<String> {
    let trimmed = value.trim().trim_end_matches(',').trim();
    let inner = trimmed.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

/// Parse a `[ "a", "b" ]` value (trailing comma tolerated).
fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let trimmed = value.trim();
    let inner = trimmed.strip_prefix('[')?.strip_suffix(']')?;
    let mut items = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let lit = piece.strip_prefix('"')?.strip_suffix('"')?;
        items.push(lit.to_string());
    }
    Some(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_subset() {
        let text = r##"
# comment
skip = ["a/b"]
digest = [
    "crates/sim",  # trailing comment
    "crates/core",
]
timing = []
library = ["crates/core"]

[severity]
"unused-suppression" = "warn"

[[allow]]
lint = "panicky-lib"
path = "crates/core/src/grass/samples.rs"
reason = "bounded kernel indexing"
"##;
        let config = AnalysisConfig::parse(text).expect("parses");
        assert_eq!(config.skip, ["a/b"]);
        assert_eq!(config.digest, ["crates/sim", "crates/core"]);
        assert!(config.timing.is_empty());
        let classes = config.classes_for("crates/sim/src/event.rs");
        assert!(classes.digest && !classes.timing && !classes.library);
        assert_eq!(
            config.severity_of("unused-suppression", Severity::Error),
            Severity::Warn
        );
        assert_eq!(
            config.severity_of("panicky-lib", Severity::Error),
            Severity::Error
        );
        assert_eq!(
            config.allow_reason("panicky-lib", "crates/core/src/grass/samples.rs"),
            Some("bounded kernel indexing")
        );
        assert_eq!(
            config.allow_reason("panicky-lib", "crates/core/src/job.rs"),
            None
        );
    }

    #[test]
    fn path_cover_is_component_aware() {
        assert!(path_covers("crates/sim", "crates/sim/src/event.rs"));
        assert!(path_covers("crates/sim", "crates/sim"));
        assert!(!path_covers("crates/sim", "crates/simx/src/lib.rs"));
        assert!(!path_covers("crates/sim/src/event.rs", "crates/sim/src"));
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let text = "[[allow]]\nlint = \"panicky-lib\"\npath = \"x\"\n";
        let err = AnalysisConfig::parse(text).expect_err("must fail");
        assert!(err.contains("missing `reason`"), "{err}");
    }

    #[test]
    fn unknown_lint_is_rejected() {
        let text = "[severity]\nnot-a-lint = \"warn\"\n";
        assert!(AnalysisConfig::parse(text).is_err());
        let text = "[[allow]]\nlint = \"nope\"\npath = \"x\"\nreason = \"y\"\n";
        assert!(AnalysisConfig::parse(text).is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text = "skip = [\"a#b\"]\n";
        let config = AnalysisConfig::parse(text).expect("parses");
        assert_eq!(config.skip, ["a#b"]);
    }
}
