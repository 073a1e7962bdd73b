//! `unbounded-read` — reads with no length cap in non-test library code.
//!
//! `BufRead::read_line`, `Read::read_to_end` and `Read::read_to_string` grow
//! their buffer until a newline or end of input arrives, and `BufRead::lines()`
//! does the same per line. Fed by a trace file or a fleet peer, a stream that
//! never sends one grows the buffer until the process runs out of memory: the
//! bug class that capped line reading fixed. `fs::read_to_string` and
//! `fs::read` do the same with a whole file. The lint flags:
//!
//! * the method calls `.read_line(`, `.read_to_end(` and `.read_to_string(`,
//! * every zero-argument `.lines()`,
//! * the path calls `fs::read_to_string(` and `fs::read(`.
//!
//! Tokens cannot tell `str::lines` from `BufRead::lines`, so a `.lines()` over
//! text already in memory carries an allow saying so, as does a whole-file read
//! whose size is bounded some other way. Other free functions (such as the
//! codec's capped `read_line(..)`) are not flagged. Code under `#[cfg(test)]` /
//! `#[test]` is exempt, as are test/bench/example targets (by role).

use crate::engine::FileCtx;
use crate::finding::{Finding, Severity};
use crate::lexer::{Token, TokenKind};
use crate::lints::{finding, UNBOUNDED_READ};
use crate::workspace::Role;

/// Method names that read without a cap whatever their arguments.
const UNCAPPED_READS: &[&str] = &["read_line", "read_to_end", "read_to_string"];

/// `std::fs` functions that read a whole file whatever its size.
const WHOLE_FILE_READS: &[&str] = &["read", "read_to_string"];

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
    // `fs` `:` `:` before the token at `index`.
    let after_fs = |index: usize| {
        index.checked_sub(3).is_some_and(|fs| {
            tokens
                .get(fs)
                .is_some_and(|t: &Token| t.kind == TokenKind::Ident && t.text == "fs")
                && punct(fs + 1, ":")
                && punct(fs + 2, ":")
        })
    };
    for (index, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Ident || ctx.in_test(index) || !punct(index + 1, "(") {
            continue;
        }
        let name = token.text.as_str();
        let method = index.checked_sub(1).is_some_and(|dot| punct(dot, "."));
        let message = if method {
            let uncapped =
                UNCAPPED_READS.contains(&name) || (name == "lines" && punct(index + 2, ")"));
            if !uncapped {
                continue;
            }
            format!(
                "`.{name}()` reads with no length cap, so input that never ends a line \
                 grows the buffer without bound; read lines through \
                 `grass_trace::codec::read_frame`, or justify the bound with an allow"
            )
        } else if WHOLE_FILE_READS.contains(&name) && after_fs(index) {
            format!(
                "`fs::{name}()` buffers a whole file whatever its size; read through \
                 `Read::take` with a cap, or justify the bound with an allow"
            )
        } else {
            continue;
        };
        out.push(finding(ctx, UNBOUNDED_READ, severity, token, message));
    }
}
