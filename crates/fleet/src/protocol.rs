//! The line-oriented wire protocol between workers and the broker.
//!
//! One frame per line, `tag key=value ...`, written by
//! [`grass_trace::codec::LineBuilder`] and split by
//! [`grass_trace::codec::Fields`], the line codec text traces use: one space
//! between words, and every free-form value percent-escaped, so frames survive
//! spaces, `=`, newlines and non-ASCII in worker ids, cell specs and payloads.
//!
//! ```text
//! -> hello worker=w1
//! <- welcome version=1 cells=12
//! -> claim worker=w1
//! <- grant cell=3 attempt=1 lease=7 heartbeat_ms=1000 spec=<escaped>
//! <- wait ms=25                 (nothing claimable right now)
//! <- finished                   (every cell is terminal)
//! -> heartbeat worker=w1 cell=3          (fire-and-forget, no response)
//! -> complete worker=w1 cell=3 lease=7 payload=<escaped>
//! <- ok | stale
//! -> fail worker=w1 cell=3 lease=7 error=<escaped>
//! <- ok
//! -> sync worker=w1 payload=<escaped>        (offer learned state, get peers')
//! <- state payload=<escaped>
//! -> bye worker=w1
//! <- ok
//! ```

use grass_trace::codec::{Fields, LineBuilder};

/// Protocol version carried in `welcome`; workers refuse a mismatch.
/// Version history: 1 = initial broker/worker protocol; 2 = added the
/// `sync`/`state` learned-state exchange frames.
pub const PROTOCOL_VERSION: u32 = 2;

/// Longest frame either side reads through [`grass_trace::codec::read_frame`],
/// in bytes, newline excluded. The largest frames are `complete` payloads,
/// about 450 B per trace job (21.7 KB for a 48-job trace); the sweep runner's
/// `sync` payload is one line of store counts, about 90 B. 64 MiB holds the
/// cells of a 100k-job trace (about 45 MB) with room to spare, and bounds what
/// one peer can make the other buffer.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Separator between individual peer snapshots inside a `state` payload. Chosen as
/// an ASCII control character that never appears in snapshot encodings (which are
/// printable text), and that `split_whitespace` does not treat as whitespace.
pub const SYNC_SEPARATOR: char = '\x1f';

/// Frames a worker sends to the broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Introduce the worker; the broker answers [`Response::Welcome`].
    Hello { worker: String },
    /// Ask for a cell; answered by `grant`, `wait` or `finished`.
    Claim { worker: String },
    /// Keep a lease alive. Fire-and-forget: no response frame.
    Heartbeat { worker: String, cell: usize },
    /// Report a finished cell with its result payload.
    Complete {
        worker: String,
        cell: usize,
        lease: u64,
        payload: String,
    },
    /// Report a cell the worker could not run (the broker re-dispatches it).
    Fail {
        worker: String,
        cell: usize,
        lease: u64,
        error: String,
    },
    /// Offer this worker's learned-state snapshot to the fleet; answered by
    /// [`Response::State`] carrying the other workers' snapshots.
    Sync { worker: String, payload: String },
    /// Clean shutdown: the broker must not treat the disconnect as a crash.
    Bye { worker: String },
}

/// Frames the broker sends back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Welcome {
        version: u32,
        cells: usize,
    },
    Grant {
        cell: usize,
        attempt: u32,
        lease: u64,
        heartbeat_ms: u64,
        spec: String,
    },
    Wait {
        ms: u64,
    },
    /// Answer to [`Request::Sync`]: every *other* worker's most recent snapshot,
    /// joined with [`SYNC_SEPARATOR`] (empty when no peer has synced yet).
    State {
        payload: String,
    },
    Finished,
    Ok,
    Stale,
    Error {
        message: String,
    },
}

impl Request {
    /// Encode as a single line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello { worker } => LineBuilder::new("hello").text("worker", worker),
            Request::Claim { worker } => LineBuilder::new("claim").text("worker", worker),
            Request::Heartbeat { worker, cell } => LineBuilder::new("heartbeat")
                .text("worker", worker)
                .num("cell", cell),
            Request::Complete {
                worker,
                cell,
                lease,
                payload,
            } => LineBuilder::new("complete")
                .text("worker", worker)
                .num("cell", cell)
                .num("lease", lease)
                .text("payload", payload),
            Request::Fail {
                worker,
                cell,
                lease,
                error,
            } => LineBuilder::new("fail")
                .text("worker", worker)
                .num("cell", cell)
                .num("lease", lease)
                .text("error", error),
            Request::Sync { worker, payload } => LineBuilder::new("sync")
                .text("worker", worker)
                .text("payload", payload),
            Request::Bye { worker } => LineBuilder::new("bye").text("worker", worker),
        }
        .build()
    }

    /// Parse one line. `Err` carries a human-readable reason.
    pub fn parse(line: &str) -> Result<Request, String> {
        let frame = Fields::parse(line)?;
        let worker = || frame.text("worker");
        match frame.tag {
            "hello" => Ok(Request::Hello { worker: worker()? }),
            "claim" => Ok(Request::Claim { worker: worker()? }),
            "heartbeat" => Ok(Request::Heartbeat {
                worker: worker()?,
                cell: frame.num("cell")?,
            }),
            "complete" => Ok(Request::Complete {
                worker: worker()?,
                cell: frame.num("cell")?,
                lease: frame.num("lease")?,
                payload: frame.text("payload")?,
            }),
            "fail" => Ok(Request::Fail {
                worker: worker()?,
                cell: frame.num("cell")?,
                lease: frame.num("lease")?,
                error: frame.text("error")?,
            }),
            "sync" => Ok(Request::Sync {
                worker: worker()?,
                payload: frame.text("payload")?,
            }),
            "bye" => Ok(Request::Bye { worker: worker()? }),
            other => Err(format!("unknown request tag `{other}`")),
        }
    }

    /// The worker id carried by every request variant.
    pub fn worker(&self) -> &str {
        match self {
            Request::Hello { worker }
            | Request::Claim { worker }
            | Request::Heartbeat { worker, .. }
            | Request::Complete { worker, .. }
            | Request::Fail { worker, .. }
            | Request::Sync { worker, .. }
            | Request::Bye { worker } => worker,
        }
    }
}

impl Response {
    /// Encode as a single line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Welcome { version, cells } => LineBuilder::new("welcome")
                .num("version", version)
                .num("cells", cells),
            Response::Grant {
                cell,
                attempt,
                lease,
                heartbeat_ms,
                spec,
            } => LineBuilder::new("grant")
                .num("cell", cell)
                .num("attempt", attempt)
                .num("lease", lease)
                .num("heartbeat_ms", heartbeat_ms)
                .text("spec", spec),
            Response::Wait { ms } => LineBuilder::new("wait").num("ms", ms),
            Response::State { payload } => LineBuilder::new("state").text("payload", payload),
            Response::Finished => LineBuilder::new("finished"),
            Response::Ok => LineBuilder::new("ok"),
            Response::Stale => LineBuilder::new("stale"),
            Response::Error { message } => LineBuilder::new("error").text("message", message),
        }
        .build()
    }

    /// Parse one line. `Err` carries a human-readable reason.
    pub fn parse(line: &str) -> Result<Response, String> {
        let frame = Fields::parse(line)?;
        match frame.tag {
            "welcome" => Ok(Response::Welcome {
                version: frame.num("version")?,
                cells: frame.num("cells")?,
            }),
            "grant" => Ok(Response::Grant {
                cell: frame.num("cell")?,
                attempt: frame.num("attempt")?,
                lease: frame.num("lease")?,
                heartbeat_ms: frame.num("heartbeat_ms")?,
                spec: frame.text("spec")?,
            }),
            "wait" => Ok(Response::Wait {
                ms: frame.num("ms")?,
            }),
            "state" => Ok(Response::State {
                payload: frame.text("payload")?,
            }),
            "finished" => Ok(Response::Finished),
            "ok" => Ok(Response::Ok),
            "stale" => Ok(Response::Stale),
            "error" => Ok(Response::Error {
                message: frame.text("message")?,
            }),
            other => Err(format!("unknown response tag `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello {
                worker: "worker 1 = weird|id".into(),
            },
            Request::Claim { worker: "w".into() },
            Request::Heartbeat {
                worker: "w".into(),
                cell: 7,
            },
            Request::Complete {
                worker: "w".into(),
                cell: 3,
                lease: 19,
                payload: "line one\nline two = 0.5%".into(),
            },
            Request::Fail {
                worker: "w".into(),
                cell: 0,
                lease: 1,
                error: "boom: café".into(),
            },
            Request::Sync {
                worker: "w".into(),
                payload: "storesnap v1\npart idx=0 lifetime=3".into(),
            },
            Request::Bye { worker: "w".into() },
        ];
        for req in cases {
            let line = req.encode();
            assert!(!line.contains('\n'), "frame must be one line: {line:?}");
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Welcome {
                version: PROTOCOL_VERSION,
                cells: 12,
            },
            Response::Grant {
                cell: 4,
                attempt: 2,
                lease: 11,
                heartbeat_ms: 20,
                spec: "machines=50 policy=grass trace=/tmp/a b.trace".into(),
            },
            Response::Wait { ms: 25 },
            Response::State {
                payload: format!("snap one{SYNC_SEPARATOR}snap two\nwith a second line"),
            },
            Response::State {
                payload: String::new(),
            },
            Response::Finished,
            Response::Ok,
            Response::Stale,
            Response::Error {
                message: "no such cell".into(),
            },
        ];
        for resp in cases {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Response::parse(&line).unwrap(), resp);
        }
    }

    #[test]
    fn out_of_range_numbers_fail_instead_of_truncating() {
        // 2^32 + 2 once truncated to version 2 and passed the worker's check.
        let err = Response::parse("welcome version=4294967298 cells=12").unwrap_err();
        assert!(err.contains("`version`"), "{err}");
        let err = Response::parse("grant cell=1 attempt=4294967297 lease=1 heartbeat_ms=5 spec=s")
            .unwrap_err();
        assert!(err.contains("`attempt`"), "{err}");
        // The largest in-range values still parse.
        assert_eq!(
            Response::parse(&format!("welcome version={} cells=12", u32::MAX)).unwrap(),
            Response::Welcome {
                version: u32::MAX,
                cells: 12
            }
        );
        if usize::BITS < u64::BITS {
            let err = Request::parse(&format!("heartbeat worker=w cell={}", u64::MAX)).unwrap_err();
            assert!(err.contains("`cell`"), "{err}");
        }
    }

    #[test]
    fn parse_rejects_malformed_frames() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("warble worker=w").is_err());
        assert!(Request::parse("heartbeat worker=w").is_err());
        assert!(Request::parse("heartbeat worker=w cell=notanumber").is_err());
        assert!(Response::parse("grant cell=1").is_err());
        assert!(Request::parse("complete worker w").is_err());
    }
}
