//! # grass-analysis — determinism & robustness lints for the GRASS workspace
//!
//! The workspace's headline claims are byte-identity claims: fleet digests
//! equal sweep digests, streamed decode equals eager decode, the live
//! simulator equals the reference oracle. Those claims die quietly — a
//! `HashMap` iteration here, an `Instant::now()` there — long before a test
//! notices. This crate is the standing audit: a dependency-free lint engine
//! (no `syn`, no `clippy` plumbing; the container has neither as a library)
//! that tokenizes every `.rs` file in the workspace and runs a small catalog
//! of determinism and robustness passes over the token stream.
//!
//! ## Architecture
//!
//! * [`lexer`] — a hand-rolled Rust lexer that understands line and nested
//!   block comments, strings, raw strings, byte/char literals and lifetimes.
//!   Everything downstream works on tokens, so a lint pattern inside a string
//!   or comment can never fire.
//! * [`config`] — `analysis.toml`, hand-parsed (line-oriented TOML subset):
//!   path classes (`digest`, `timing`, `library`), per-lint severities, skips,
//!   and path-scoped `[[allow]]` entries with mandatory reasons.
//! * [`suppress`] — per-line suppressions:
//!   `// grass: allow(<lint-id>, "<reason>")`, reason mandatory. A trailing
//!   comment targets its own line; an own-line comment targets the next code
//!   line. Malformed or unused directives are findings themselves
//!   (`malformed-suppression`, `unused-suppression`) and cannot be suppressed.
//! * [`lints`] — the catalog. Seven passes: `nan-unsafe-cmp`,
//!   `unordered-iter-on-digest-path`, `wall-clock-in-core`, `unseeded-rng`,
//!   `panicky-lib`, `nested-lock`, `unbounded-read`.
//! * [`engine`] / [`workspace`] — per-file orchestration ([`lint_source`]) and
//!   the directory walk + config discovery ([`Workspace`], [`run_lints`]).
//! * [`report`] — text and versioned-JSON renderers (`grass-analysis/1`).
//!
//! ## Entry points
//!
//! ```no_run
//! use grass_analysis::{run_lints, Workspace};
//!
//! let workspace = Workspace::discover("/path/to/repo".as_ref())?;
//! let findings = run_lints(&workspace);
//! for finding in findings.iter().filter(|f| f.is_blocking()) {
//!     eprintln!("{}:{}: [{}] {}", finding.path, finding.line, finding.lint, finding.message);
//! }
//! # Ok::<(), String>(())
//! ```
//!
//! The CLI lives in `grass-experiments` as `repro lint [--format text|json]
//! [paths…]` and is wired into CI: any unsuppressed error-severity finding
//! fails the build.

pub mod config;
pub mod engine;
pub mod finding;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod suppress;
pub mod workspace;

pub use config::{path_covers, AnalysisConfig, ClassSet, PathAllow};
pub use engine::{lint_source, FileCtx};
pub use finding::{sort_findings, Finding, Severity};
pub use lexer::{lex, Comment, LexedFile, Token, TokenKind};
pub use lints::{is_known_lint, lint_info, LintInfo, CATALOG};
pub use report::{render_json, render_text, summarize, Summary};
pub use suppress::{parse_suppressions, Suppression, SuppressionError};
pub use workspace::{role_for, run_lints, Role, SourceFile, Workspace};
