//! Per-file lint pipeline: lex, locate test code, run the catalog, apply
//! suppressions, and keep the suppression system honest.

use crate::config::AnalysisConfig;
use crate::finding::{sort_findings, Finding, Severity};
use crate::lexer::{lex, Token, TokenKind};
use crate::lints;
use crate::suppress::parse_suppressions;
use crate::workspace::{role_for, Role};

/// Everything a lint pass may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// File role derived from its path (lib, bin, test, bench, example).
    pub role: Role,
    /// Class membership from `analysis.toml`.
    pub classes: crate::config::ClassSet,
    /// The lexed token stream.
    pub tokens: &'a [Token],
    /// Token index ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
}

impl FileCtx<'_> {
    /// Whether the token at `index` sits inside test-only code.
    pub fn in_test(&self, index: usize) -> bool {
        self.test_regions
            .iter()
            .any(|(start, end)| (*start..=*end).contains(&index))
    }
}

/// Lint a single file's source text under `config`. The file's role and class
/// membership are derived from `rel_path`, exactly as in a workspace run.
pub fn lint_source(rel_path: &str, source: &str, config: &AnalysisConfig) -> Vec<Finding> {
    let lexed = lex(source);
    let ctx = FileCtx {
        rel_path,
        role: role_for(rel_path),
        classes: config.classes_for(rel_path),
        tokens: &lexed.tokens,
        test_regions: test_regions(&lexed.tokens),
    };

    let mut findings = lints::run_catalog(&ctx, config);
    let (suppressions, errors) = parse_suppressions(&lexed);

    // Directive problems are findings themselves, and are never suppressible:
    // a broken allow must be fixed, not allowed.
    let malformed_severity = config.severity_of(lints::MALFORMED_SUPPRESSION, Severity::Error);
    if malformed_severity != Severity::Off {
        for error in &errors {
            findings.push(Finding {
                lint: lints::MALFORMED_SUPPRESSION,
                severity: malformed_severity,
                path: rel_path.to_string(),
                line: error.line,
                column: 1,
                message: error.message.clone(),
                suppressed: None,
            });
        }
    }

    // Per-line directives first, then path-scoped config allows.
    let mut used = vec![false; suppressions.len()];
    for finding in findings.iter_mut() {
        if finding.lint == lints::MALFORMED_SUPPRESSION {
            continue;
        }
        let matched = suppressions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lint == finding.lint && s.target_line == finding.line)
            .map(|(index, s)| (index, s.reason.clone()))
            .collect::<Vec<_>>();
        if let Some((_, reason)) = matched.first() {
            finding.suppressed = Some(reason.clone());
            for (index, _) in &matched {
                if let Some(slot) = used.get_mut(*index) {
                    *slot = true;
                }
            }
            continue;
        }
        if let Some(reason) = config.allow_reason(finding.lint, rel_path) {
            finding.suppressed = Some(format!("analysis.toml: {reason}"));
        }
    }

    // A directive that allowed nothing is stale (or mis-targeted) and would
    // otherwise silently mask a future regression at the wrong line.
    let unused_severity = config.severity_of(lints::UNUSED_SUPPRESSION, Severity::Error);
    if unused_severity != Severity::Off {
        for (suppression, was_used) in suppressions.iter().zip(&used) {
            if !was_used {
                findings.push(Finding {
                    lint: lints::UNUSED_SUPPRESSION,
                    severity: unused_severity,
                    path: rel_path.to_string(),
                    line: suppression.comment_line,
                    column: 1,
                    message: format!(
                        "suppression of `{}` matches no finding on line {}",
                        suppression.lint, suppression.target_line
                    ),
                    suppressed: None,
                });
            }
        }
    }

    sort_findings(&mut findings);
    findings
}

/// Token ranges belonging to `#[cfg(test)]` / `#[test]` items (the attached
/// item body, brace-matched), plus the whole file for `#![cfg(test)]`.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut index = 0usize;
    while index < tokens.len() {
        if !is_punct(tokens, index, '#') {
            index += 1;
            continue;
        }
        let inner = is_punct(tokens, index + 1, '!');
        let open = if inner { index + 2 } else { index + 1 };
        if !is_punct(tokens, open, '[') {
            index += 1;
            continue;
        }
        let Some(close) = matching(tokens, open, '[', ']') else {
            break;
        };
        if is_test_attribute(tokens.get(open + 1..close).unwrap_or(&[])) {
            if inner {
                // `#![cfg(test)]`: the enclosing file is test-only.
                regions.push((0, tokens.len().saturating_sub(1)));
                break;
            }
            if let Some(region) = attached_item(tokens, close + 1) {
                regions.push((index, region));
                index = region + 1;
                continue;
            }
        }
        index = close + 1;
    }
    regions
}

/// A `cfg`/`test` attribute body marks test code when it mentions `test` and is
/// not a `not(test)` / `any(not(test), ..)` shape.
fn is_test_attribute(body: &[Token]) -> bool {
    let mut saw_test = false;
    for token in body {
        if token.kind == TokenKind::Ident {
            match token.text.as_str() {
                "test" => saw_test = true,
                "not" => return false,
                _ => {}
            }
        }
    }
    saw_test
}

/// The end of the item an attribute at `start` is attached to: skip further
/// attributes, then brace-match the first `{` (or stop at a bare `;`).
fn attached_item(tokens: &[Token], mut start: usize) -> Option<usize> {
    // Skip stacked attributes such as `#[cfg(test)] #[allow(...)] mod t {}`.
    while is_punct(tokens, start, '#') && is_punct(tokens, start + 1, '[') {
        start = matching(tokens, start + 1, '[', ']')? + 1;
    }
    let mut index = start;
    while index < tokens.len() {
        if is_punct(tokens, index, '{') {
            return matching(tokens, index, '{', '}');
        }
        if is_punct(tokens, index, ';') {
            return Some(index);
        }
        index += 1;
    }
    None
}

/// Index of the delimiter closing `open_index` (which must hold `open`).
fn matching(tokens: &[Token], open_index: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    let mut index = open_index;
    while let Some(token) = tokens.get(index) {
        if token.kind == TokenKind::Punct {
            if token.text.starts_with(open) {
                depth += 1;
            } else if token.text.starts_with(close) {
                depth -= 1;
                if depth == 0 {
                    return Some(index);
                }
            }
        }
        index += 1;
    }
    None
}

fn is_punct(tokens: &[Token], index: usize, c: char) -> bool {
    tokens
        .get(index)
        .map(|t| t.kind == TokenKind::Punct && t.text.starts_with(c))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(source: &str) -> Vec<(usize, usize)> {
        test_regions(&lex(source).tokens)
    }

    #[test]
    fn cfg_test_module_is_a_region() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        let (start, end) = regions[0];
        let covered: Vec<&str> = lexed.tokens[start..=end]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(covered.contains(&"tests"));
        assert!(covered.contains(&"b"));
        assert!(!covered.contains(&"c"));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        assert!(regions("#[cfg(not(test))]\nfn a() {}").is_empty());
    }

    #[test]
    fn stacked_attributes_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn x() {} }";
        assert_eq!(regions(src).len(), 1);
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn a() {}\nfn b() {}";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(0, lexed.tokens.len() - 1)]);
    }

    #[test]
    fn test_fn_attribute_is_a_region() {
        let src = "#[test]\nfn works() { assert!(true); }\nfn not_test() {}";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions.len(), 1);
        let (_, end) = regions[0];
        let tail: Vec<&str> = lexed.tokens[end + 1..]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(tail.contains(&"not_test"));
    }
}
