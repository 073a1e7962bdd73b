//! Property tests for the fleet's untrusted byte streams, mirroring the trace
//! decoders' fuzz tests:
//!
//! * `read_frame` (the capped line reader both ends share with the text trace
//!   decoder, in `grass_trace::codec`) over arbitrary bytes under a small cap
//!   returns exactly the
//!   newline-split frames a model predicts, never one longer than the cap, and
//!   fails with `InvalidData` on the first frame past the cap or not UTF-8.
//! * `Request::parse` and `Response::parse` never panic on arbitrary text.
//! * Generated frames, with values that need escaping, round-trip through
//!   `encode` and `parse`.
//!
//! `PROPTEST_CASES` sets the case count (CI runs 500 in release).

use std::io::{self, BufReader};

use grass_fleet::{Request, Response};
use grass_trace::codec::read_frame;
use proptest::prelude::*;

/// Bytes a frame stream is drawn from: frame text, structural characters,
/// newlines, and bytes that are never valid UTF-8 on their own.
const BYTES: &[u8] = b"ab=% \n\n\n\r\t\x0b\x1f\xc3\xa9\xff\x80";

/// Text fragments a frame line is drawn from: every tag and key of both frame
/// kinds, numbers at and past the `u32` / `u64` limits, escapes (well-formed,
/// truncated and non-hex), whitespace, and non-ASCII text.
const TOKENS: &[&str] = &[
    "hello",
    "claim",
    "heartbeat",
    "complete",
    "fail",
    "sync",
    "bye",
    "welcome",
    "grant",
    "wait",
    "state",
    "finished",
    "ok",
    "stale",
    "error",
    "worker",
    "cell",
    "cells",
    "lease",
    "payload",
    "version",
    "attempt",
    "heartbeat_ms",
    "spec",
    "ms",
    "message",
    "=",
    "==",
    " ",
    "  ",
    "\t",
    "\x0b",
    "\u{a0}",
    "0",
    "7",
    "-1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "%20",
    "%",
    "%4",
    "%zz",
    "%c3%a9",
    "%ff",
    "é",
    "日本",
    "\x1f",
    "\0",
];

/// Characters a value is drawn from: everything `escape` must protect, the
/// `state` payload separator (`SYNC_SEPARATOR`, `\x1f`) included.
const VALUE_CHARS: &str = "wZ0 =%:|,\n\r\t\x0b\x0c\x1f\x7f\0é\u{a0}\u{2028}日";

fn bytes_of(picks: &[usize]) -> Vec<u8> {
    picks.iter().map(|&i| BYTES[i % BYTES.len()]).collect()
}

fn line_of(picks: &[usize]) -> String {
    picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

fn text_of(picks: &[usize]) -> String {
    let chars: Vec<char> = VALUE_CHARS.chars().collect();
    picks.iter().map(|&i| chars[i % chars.len()]).collect()
}

/// What `read_frame` must yield for `input` under `cap`: one item per
/// newline-split frame (a final frame needs no newline), stopping at the first
/// frame longer than `cap` or not UTF-8, whose item is `None`.
fn model_frames(input: &[u8], cap: usize) -> Vec<Option<String>> {
    let mut frames: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    // Text after the last newline is a frame only if there is some.
    if frames.last().is_some_and(|last| last.is_empty()) {
        frames.pop();
    }
    let mut out = Vec::new();
    for frame in frames {
        match std::str::from_utf8(frame) {
            Ok(text) if frame.len() <= cap => out.push(Some(text.to_string())),
            _ => {
                out.push(None);
                break;
            }
        }
    }
    out
}

fn request_cases(worker: String, text: String, n: u64) -> Vec<Request> {
    let cell = n as usize;
    vec![
        Request::Hello {
            worker: worker.clone(),
        },
        Request::Claim {
            worker: worker.clone(),
        },
        Request::Heartbeat {
            worker: worker.clone(),
            cell,
        },
        Request::Complete {
            worker: worker.clone(),
            cell,
            lease: n,
            payload: text.clone(),
        },
        Request::Fail {
            worker: worker.clone(),
            cell,
            lease: u64::MAX - n,
            error: text.clone(),
        },
        Request::Sync {
            worker: worker.clone(),
            payload: text,
        },
        Request::Bye { worker },
    ]
}

fn response_cases(text: String, n: u64) -> Vec<Response> {
    vec![
        Response::Welcome {
            version: n as u32,
            cells: n as usize,
        },
        Response::Grant {
            cell: n as usize,
            attempt: u32::MAX - n as u32,
            lease: n,
            heartbeat_ms: u64::MAX - n,
            spec: text.clone(),
        },
        Response::Wait { ms: n },
        Response::State {
            payload: text.clone(),
        },
        Response::Finished,
        Response::Ok,
        Response::Stale,
        Response::Error { message: text },
    ]
}

proptest! {
    #[test]
    fn read_frame_yields_the_modelled_frames_and_never_exceeds_the_cap(
        picks in prop::collection::vec(0usize..64, 0..80),
        cap in 0usize..12,
        buffer in 1usize..8,
    ) {
        let input = bytes_of(&picks);
        // A small buffer makes frames straddle `fill_buf` chunks.
        let mut reader = BufReader::with_capacity(buffer, &input[..]);
        let mut got = Vec::new();
        loop {
            match read_frame(&mut reader, cap) {
                Ok(Some(frame)) => {
                    prop_assert!(frame.len() <= cap, "{} bytes under cap {cap}", frame.len());
                    got.push(Some(frame));
                }
                Ok(None) => break,
                Err(e) => {
                    prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    got.push(None);
                    break;
                }
            }
        }
        prop_assert_eq!(got, model_frames(&input, cap), "input {:?} cap {}", input, cap);
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_text(
        picks in prop::collection::vec(0usize..256, 0..24),
    ) {
        let line = line_of(&picks);
        // Parse results are not checked: any `Ok` or `Err` is fine, a panic is not.
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    #[test]
    fn generated_frames_round_trip_through_encode_and_parse(
        worker in prop::collection::vec(0usize..64, 0..12),
        text in prop::collection::vec(0usize..64, 0..24),
        n in 0u64..u64::from(u32::MAX),
    ) {
        let (worker, text) = (text_of(&worker), text_of(&text));
        for request in request_cases(worker, text.clone(), n) {
            let line = request.encode();
            prop_assert!(!line.contains('\n'), "{line:?}");
            prop_assert_eq!(Request::parse(&line), Ok(request));
        }
        for response in response_cases(text, n) {
            let line = response.encode();
            prop_assert!(!line.contains('\n'), "{line:?}");
            prop_assert_eq!(Response::parse(&line), Ok(response));
        }
    }
}
