//! The lint catalog and the shared lint-author toolkit.
//!
//! Every lint has a stable id (used in suppression directives, `analysis.toml`
//! and the JSON report), a one-line summary and a default severity. The seven
//! code lints are token-pattern passes over the [`crate::lexer`] output; two
//! meta lints (`malformed-suppression`, `unused-suppression`) keep the
//! suppression system itself honest and are produced by the engine.
//!
//! The catalog is documented for humans in `docs/lints.md` — keep the two in
//! sync when adding a lint.

mod cmp;
mod collections;
mod locks;
mod panicky;
mod reads;
mod rng;
mod time;

use crate::config::AnalysisConfig;
use crate::engine::FileCtx;
use crate::finding::{Finding, Severity};
use crate::lexer::Token;

/// Catalog metadata for one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable id, as used by `grass: allow(<id>, "...")`.
    pub id: &'static str,
    /// One-line summary (shown by `repro lint --help` style listings).
    pub summary: &'static str,
    /// Severity unless overridden in `analysis.toml`.
    pub default_severity: Severity,
}

/// Lint id of the NaN-unsafe comparator lint.
pub const NAN_UNSAFE_CMP: &str = "nan-unsafe-cmp";
/// Lint id of the hash-collection-in-digest-path lint.
pub const UNORDERED_ITER: &str = "unordered-iter-on-digest-path";
/// Lint id of the wall-clock lint.
pub const WALL_CLOCK: &str = "wall-clock-in-core";
/// Lint id of the entropy-seeded RNG lint.
pub const UNSEEDED_RNG: &str = "unseeded-rng";
/// Lint id of the panicking-library-code lint.
pub const PANICKY_LIB: &str = "panicky-lib";
/// Lint id of the nested lock-guard lint.
pub const NESTED_LOCK: &str = "nested-lock";
/// Lint id of the uncapped-read lint.
pub const UNBOUNDED_READ: &str = "unbounded-read";
/// Lint id for unparseable or reasonless suppression directives.
pub const MALFORMED_SUPPRESSION: &str = "malformed-suppression";
/// Lint id for suppression directives that matched no finding.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every lint the engine knows, in documentation order.
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        id: NAN_UNSAFE_CMP,
        summary: "`partial_cmp(..).unwrap()`-style float comparators panic or mis-order on NaN",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: UNORDERED_ITER,
        summary: "HashMap/HashSet in digest-path modules leak nondeterministic iteration order",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: WALL_CLOCK,
        summary: "Instant::now/SystemTime outside declared timing modules",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: UNSEEDED_RNG,
        summary: "thread_rng/from_entropy draw OS entropy and destroy reproducibility",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: PANICKY_LIB,
        summary: "unwrap/expect/panic!/indexing in non-test library code",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: NESTED_LOCK,
        summary: "second lock guard acquired while another is live in the same function",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: UNBOUNDED_READ,
        summary: "read_line/read_to_end/read_to_string/lines() with no length cap in library code",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: MALFORMED_SUPPRESSION,
        summary: "suppression directive that does not parse or lacks a reason",
        default_severity: Severity::Error,
    },
    LintInfo {
        id: UNUSED_SUPPRESSION,
        summary: "suppression directive that matched no finding",
        default_severity: Severity::Error,
    },
];

/// Whether `id` names a catalog lint.
pub fn is_known_lint(id: &str) -> bool {
    CATALOG.iter().any(|info| info.id == id)
}

/// Catalog metadata for `id`, if known.
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    CATALOG.iter().find(|info| info.id == id)
}

/// Run the seven code lints over one file, honouring severity overrides.
pub(crate) fn run_catalog(ctx: &FileCtx<'_>, config: &AnalysisConfig) -> Vec<Finding> {
    type Pass = fn(&FileCtx<'_>, Severity, &mut Vec<Finding>);
    const PASSES: &[(&str, Pass)] = &[
        (NAN_UNSAFE_CMP, cmp::check),
        (UNORDERED_ITER, collections::check),
        (WALL_CLOCK, time::check),
        (UNSEEDED_RNG, rng::check),
        (PANICKY_LIB, panicky::check),
        (NESTED_LOCK, locks::check),
        (UNBOUNDED_READ, reads::check),
    ];
    let mut out = Vec::new();
    for (id, pass) in PASSES {
        let default = lint_info(id)
            .map(|i| i.default_severity)
            .unwrap_or(Severity::Error);
        let severity = config.severity_of(id, default);
        if severity == Severity::Off {
            continue;
        }
        pass(ctx, severity, &mut out);
    }
    out
}

/// Build a finding anchored at `token`.
pub(crate) fn finding(
    ctx: &FileCtx<'_>,
    lint: &'static str,
    severity: Severity,
    token: &Token,
    message: String,
) -> Finding {
    Finding {
        lint,
        severity,
        path: ctx.rel_path.to_string(),
        line: token.line,
        column: token.col,
        message,
        suppressed: None,
    }
}

/// Rust keywords, for "is the previous token an expression tail?" decisions.
pub(crate) fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "false"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "true"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}
