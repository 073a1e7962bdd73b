//! The line-oriented wire protocol between workers and the broker.
//!
//! One frame per line, `tag key=value ...`, every free-form value
//! percent-escaped with [`grass_trace::codec::escape`] (the same escaping the
//! trace formats use), so frames survive spaces, `=`, newlines and non-ASCII in
//! worker ids, cell specs and payloads.
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

use grass_trace::codec::{escape, unescape};

/// Protocol version carried in `welcome`; workers refuse a mismatch.
/// Version history: 1 = initial broker/worker protocol; 2 = added the
/// `sync`/`state` learned-state exchange frames.
pub const PROTOCOL_VERSION: u32 = 2;

/// Longest frame either side reads through [`grass_trace::codec::read_frame`],
/// in bytes, newline excluded. The largest frames are `complete` payloads,
/// about 450 B per trace job (21.7 KB for a 48-job trace); `sync` snapshots
/// stay near 14 KB. 64 MiB holds the cells of a 100k-job trace (about 45 MB)
/// with room to spare, and bounds what one peer can make the other buffer.
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
            Request::Hello { worker } => format!("hello worker={}", escape(worker)),
            Request::Claim { worker } => format!("claim worker={}", escape(worker)),
            Request::Heartbeat { worker, cell } => {
                format!("heartbeat worker={} cell={cell}", escape(worker))
            }
            Request::Complete {
                worker,
                cell,
                lease,
                payload,
            } => format!(
                "complete worker={} cell={cell} lease={lease} payload={}",
                escape(worker),
                escape(payload)
            ),
            Request::Fail {
                worker,
                cell,
                lease,
                error,
            } => format!(
                "fail worker={} cell={cell} lease={lease} error={}",
                escape(worker),
                escape(error)
            ),
            Request::Sync { worker, payload } => {
                format!("sync worker={} payload={}", escape(worker), escape(payload))
            }
            Request::Bye { worker } => format!("bye worker={}", escape(worker)),
        }
    }

    /// Parse one line. `Err` carries a human-readable reason.
    pub fn parse(line: &str) -> Result<Request, String> {
        let frame = Frame::parse(line)?;
        match frame.tag {
            "hello" => Ok(Request::Hello {
                worker: frame.text("worker")?,
            }),
            "claim" => Ok(Request::Claim {
                worker: frame.text("worker")?,
            }),
            "heartbeat" => Ok(Request::Heartbeat {
                worker: frame.text("worker")?,
                cell: frame.number("cell")?,
            }),
            "complete" => Ok(Request::Complete {
                worker: frame.text("worker")?,
                cell: frame.number("cell")?,
                lease: frame.number("lease")?,
                payload: frame.text("payload")?,
            }),
            "fail" => Ok(Request::Fail {
                worker: frame.text("worker")?,
                cell: frame.number("cell")?,
                lease: frame.number("lease")?,
                error: frame.text("error")?,
            }),
            "sync" => Ok(Request::Sync {
                worker: frame.text("worker")?,
                payload: frame.text("payload")?,
            }),
            "bye" => Ok(Request::Bye {
                worker: frame.text("worker")?,
            }),
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
            Response::Welcome { version, cells } => {
                format!("welcome version={version} cells={cells}")
            }
            Response::Grant {
                cell,
                attempt,
                lease,
                heartbeat_ms,
                spec,
            } => format!(
                "grant cell={cell} attempt={attempt} lease={lease} heartbeat_ms={heartbeat_ms} spec={}",
                escape(spec)
            ),
            Response::Wait { ms } => format!("wait ms={ms}"),
            Response::State { payload } => format!("state payload={}", escape(payload)),
            Response::Finished => "finished".to_string(),
            Response::Ok => "ok".to_string(),
            Response::Stale => "stale".to_string(),
            Response::Error { message } => format!("error message={}", escape(message)),
        }
    }

    /// Parse one line. `Err` carries a human-readable reason.
    pub fn parse(line: &str) -> Result<Response, String> {
        let frame = Frame::parse(line)?;
        match frame.tag {
            "welcome" => Ok(Response::Welcome {
                version: frame.number("version")?,
                cells: frame.number("cells")?,
            }),
            "grant" => Ok(Response::Grant {
                cell: frame.number("cell")?,
                attempt: frame.number("attempt")?,
                lease: frame.number("lease")?,
                heartbeat_ms: frame.number("heartbeat_ms")?,
                spec: frame.text("spec")?,
            }),
            "wait" => Ok(Response::Wait {
                ms: frame.number("ms")?,
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

/// A parsed `tag key=value ...` line.
struct Frame<'a> {
    tag: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Frame<'a> {
    fn parse(line: &'a str) -> Result<Frame<'a>, String> {
        let mut parts = line.split_whitespace();
        let tag = parts.next().ok_or_else(|| "empty frame".to_string())?;
        let mut fields = Vec::new();
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("field `{part}` is not key=value"))?;
            fields.push((key, value));
        }
        Ok(Frame { tag, fields })
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("`{}` frame missing field `{key}`", self.tag))
    }

    fn text(&self, key: &str) -> Result<String, String> {
        unescape(self.raw(key)?).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// A decimal field converted to the frame's field type. A value out of that
    /// type's range is an error naming the field, never a truncation.
    fn number<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let raw = self.raw(key)?;
        let wide = raw
            .parse::<u64>()
            .map_err(|e| format!("field `{key}`={raw}: {e}"))?;
        T::try_from(wide).map_err(|_| format!("field `{key}`={raw}: out of range"))
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
