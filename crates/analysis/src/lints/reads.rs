//! `unbounded-read` — reads with no length cap in non-test library code.
//!
//! `BufRead::read_line`, `Read::read_to_end` and `Read::read_to_string` grow
//! their buffer until a newline or end of input arrives, and `BufRead::lines()`
//! does the same per line. Fed by a trace file or a fleet peer, a stream that
//! never sends one grows the buffer until the process runs out of memory: the
//! bug class that capped line reading fixed. The lint flags those method calls:
//!
//! * `.read_line(`, `.read_to_end(` and `.read_to_string(`,
//! * every zero-argument `.lines()`.
//!
//! Tokens cannot tell `str::lines` from `BufRead::lines`, so a `.lines()` over
//! text already in memory carries an allow saying so. Free functions (such as
//! the codec's capped `read_line(..)`, or `fs::read_to_string(..)` in tooling)
//! are not method calls and are not flagged. Code under `#[cfg(test)]` /
//! `#[test]` is exempt, as are test/bench/example targets (by role).

use crate::engine::FileCtx;
use crate::finding::{Finding, Severity};
use crate::lexer::{Token, TokenKind};
use crate::lints::{finding, UNBOUNDED_READ};
use crate::workspace::Role;

/// Method names that read without a cap whatever their arguments.
const UNCAPPED_READS: &[&str] = &["read_line", "read_to_end", "read_to_string"];

pub(crate) fn check(ctx: &FileCtx<'_>, severity: Severity, out: &mut Vec<Finding>) {
    if !ctx.classes.library || ctx.role != Role::Lib {
        return;
    }
    let tokens = ctx.tokens;
    let punct = |index: usize, text: &str| {
        tokens
            .get(index)
            .is_some_and(|t: &Token| t.kind == TokenKind::Punct && t.text == text)
    };
    for (index, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident || ctx.in_test(index) {
            continue;
        }
        let is_method_call =
            index.checked_sub(1).is_some_and(|dot| punct(dot, ".")) && punct(index + 1, "(");
        if !is_method_call {
            continue;
        }
        let name = token.text.as_str();
        let unbounded =
            UNCAPPED_READS.contains(&name) || (name == "lines" && punct(index + 2, ")"));
        if unbounded {
            out.push(finding(
                ctx,
                UNBOUNDED_READ,
                severity,
                token,
                format!(
                    "`.{name}()` reads with no length cap, so input that never ends a line \
                     grows the buffer without bound; read lines through \
                     `grass_trace::codec::read_frame`, or justify the bound with an allow"
                ),
            ));
        }
    }
}
