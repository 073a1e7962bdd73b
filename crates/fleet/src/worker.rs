//! The worker side: connect, claim cells, heartbeat while running, report
//! results, repeat until the broker says `finished`.

use crate::protocol::{Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use crate::FleetError;
use grass_trace::codec::read_frame;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Runs one cell. The spec and payload are opaque to the transport; the
/// domain layer (`grass-experiments`) defines both encodings.
///
/// `Err` reports a cell the worker could not run — the broker re-dispatches
/// it (subject to the retry cap), so a runner error is not fatal to the fleet.
pub trait CellRunner: Sync {
    fn run(&self, cell: usize, spec: &str) -> Result<String, String>;

    /// Learned-state snapshot to offer the fleet after each accepted completion.
    /// `None` (the default) disables the sync exchange entirely.
    fn snapshot(&self) -> Option<String> {
        None
    }

    /// Absorb the peer snapshots returned by the broker (joined with
    /// [`SYNC_SEPARATOR`](crate::protocol::SYNC_SEPARATOR); never called with an
    /// empty payload). Default: ignore them.
    fn absorb(&self, _snapshots: &str) {}
}

impl<F> CellRunner for F
where
    F: Fn(usize, &str) -> Result<String, String> + Sync,
{
    fn run(&self, cell: usize, spec: &str) -> Result<String, String> {
        self(cell, spec)
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells completed and accepted by the broker.
    pub completed: usize,
    /// Cells completed but rejected as stale (lease had expired).
    pub stale: usize,
    /// Cells the runner failed.
    pub failed: usize,
    /// Learned-state sync exchanges performed with the broker.
    pub syncs: usize,
}

/// Writes protocol lines; shared with the heartbeat thread behind a mutex so
/// concurrent frames never interleave mid-line.
#[derive(Clone)]
struct FrameWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl FrameWriter {
    /// Write one frame; [`FleetError::Panicked`] if a thread panicked holding
    /// the stream.
    fn send(&self, request: &Request) -> Result<(), FleetError> {
        let mut line = request.encode();
        line.push('\n');
        let mut stream = self.stream.lock().map_err(|_| {
            FleetError::Panicked("the worker's frame-writer lock is poisoned".into())
        })?;
        Ok(stream.write_all(line.as_bytes())?)
    }
}

/// Connect to a broker and work until it reports `finished`.
///
/// While a cell runs, a background thread heartbeats it at the cadence the
/// broker supplied in the grant, so a long cell keeps its lease and a
/// SIGKILLed worker stops heartbeating (and loses it).
///
/// A worker that first connects after [`crate::BrokerHandle::wait`] has
/// returned finds the listener closed: it fails with [`FleetError::Io`]
/// (connection refused), not with `finished`.
pub fn run_worker(
    addr: impl ToSocketAddrs,
    worker_id: &str,
    runner: &dyn CellRunner,
) -> Result<WorkerReport, FleetError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = FrameWriter {
        stream: Arc::new(Mutex::new(stream)),
    };
    let worker = worker_id.to_string();
    let mut report = WorkerReport::default();

    writer.send(&Request::Hello {
        worker: worker.clone(),
    })?;
    match recv(&mut reader)? {
        Response::Welcome { version, .. } if version == PROTOCOL_VERSION => {}
        Response::Welcome { version, .. } => {
            return Err(FleetError::Protocol(format!(
                "broker speaks protocol v{version}, worker speaks v{PROTOCOL_VERSION}"
            )))
        }
        other => return Err(unexpected("welcome", &other)),
    }

    loop {
        writer.send(&Request::Claim {
            worker: worker.clone(),
        })?;
        match recv(&mut reader)? {
            Response::Grant {
                cell,
                lease,
                heartbeat_ms,
                spec,
                ..
            } => {
                let result = run_with_heartbeats(&writer, &worker, cell, heartbeat_ms, || {
                    runner.run(cell, &spec)
                })?;
                match result {
                    Ok(payload) => {
                        writer.send(&Request::Complete {
                            worker: worker.clone(),
                            cell,
                            lease,
                            payload,
                        })?;
                        match recv(&mut reader)? {
                            Response::Ok => report.completed += 1,
                            Response::Stale => report.stale += 1,
                            other => return Err(unexpected("ok|stale", &other)),
                        }
                        // Learned-state exchange: offer our snapshot, absorb the
                        // peers'. The heartbeat thread is already joined, so no
                        // other frame can interleave with this request/response.
                        if let Some(snapshot) = runner.snapshot() {
                            writer.send(&Request::Sync {
                                worker: worker.clone(),
                                payload: snapshot,
                            })?;
                            match recv(&mut reader)? {
                                Response::State { payload } => {
                                    if !payload.is_empty() {
                                        runner.absorb(&payload);
                                    }
                                    report.syncs += 1;
                                }
                                other => return Err(unexpected("state", &other)),
                            }
                        }
                    }
                    Err(error) => {
                        writer.send(&Request::Fail {
                            worker: worker.clone(),
                            cell,
                            lease,
                            error,
                        })?;
                        match recv(&mut reader)? {
                            Response::Ok => report.failed += 1,
                            other => return Err(unexpected("ok", &other)),
                        }
                    }
                }
            }
            Response::Wait { ms } => thread::sleep(Duration::from_millis(ms.clamp(1, 5_000))),
            Response::Finished => {
                writer.send(&Request::Bye { worker })?;
                // The broker acks `bye`, but it may already be shutting down;
                // a missing ack is not an error.
                let _ = recv(&mut reader);
                return Ok(report);
            }
            other => return Err(unexpected("grant|wait|finished", &other)),
        }
    }
}

/// Run `body`, heartbeating `(worker, cell)` every `heartbeat_ms` until it
/// returns. The heartbeat thread waits on a channel that `body`'s return
/// closes, so it stops at once instead of at the end of a sleep. It is joined
/// before reporting, so a `complete` frame is never followed by a heartbeat
/// for the same (released) lease.
///
/// A heartbeat that could not be sent, or a heartbeat thread that panicked,
/// fails the call after `body` returns: the lease may already be lost.
fn run_with_heartbeats<T>(
    writer: &FrameWriter,
    worker: &str,
    cell: usize,
    heartbeat_ms: u64,
    body: impl FnOnce() -> T,
) -> Result<T, FleetError> {
    let (done, stop) = mpsc::channel::<()>();
    let beat_writer = writer.clone();
    let beat_worker = worker.to_string();
    let interval = Duration::from_millis(heartbeat_ms.max(1));
    let beats = thread::Builder::new()
        .name("grass-fleet-heartbeat".into())
        .spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
                beat_writer.send(&Request::Heartbeat {
                    worker: beat_worker.clone(),
                    cell,
                })?;
            }
            Ok(())
        })?;
    let result = body();
    drop(done);
    match beats.join() {
        Ok(beats) => beats.map(|()| result),
        Err(_) => Err(FleetError::Panicked("the heartbeat thread".into())),
    }
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<Response, FleetError> {
    match read_frame(reader, MAX_FRAME_BYTES) {
        Ok(Some(line)) => Response::parse(&line).map_err(FleetError::Protocol),
        Ok(None) => Err(FleetError::Protocol("broker closed the connection".into())),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            Err(FleetError::Protocol(format!("broker frame: {e}")))
        }
        Err(e) => Err(FleetError::Io(e)),
    }
}

fn unexpected(wanted: &str, got: &Response) -> FleetError {
    FleetError::Protocol(format!("expected {wanted}, got `{}`", got.encode()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn heartbeats_keep_their_cadence_and_stop_when_the_body_returns() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let writer = FrameWriter {
            stream: Arc::new(Mutex::new(client)),
        };
        let answer = run_with_heartbeats(&writer, "w", 3, 20, || {
            thread::sleep(Duration::from_millis(110));
            7
        });
        assert_eq!(answer.unwrap(), 7);
        // Anything the heartbeat thread still sent would land after this frame.
        writer.send(&Request::Bye { worker: "w".into() }).unwrap();
        thread::sleep(Duration::from_millis(60));
        drop(writer);

        let mut reader = BufReader::new(server);
        let mut frames = Vec::new();
        while let Some(line) = read_frame(&mut reader, MAX_FRAME_BYTES).unwrap() {
            frames.push(Request::parse(&line).unwrap());
        }
        let beat = Request::Heartbeat {
            worker: "w".into(),
            cell: 3,
        };
        let (last, beats) = frames.split_last().unwrap();
        assert_eq!(last, &Request::Bye { worker: "w".into() });
        assert!(beats.iter().all(|f| f == &beat), "{frames:?}");
        assert!((4..=6).contains(&beats.len()), "{} heartbeats", beats.len());
    }

    #[test]
    fn a_poisoned_frame_writer_fails_sends_and_heartbeats_instead_of_panicking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let writer = FrameWriter {
            stream: Arc::new(Mutex::new(client)),
        };
        let holder = writer.clone();
        let poisoner = thread::spawn(move || {
            let _stream = holder.stream.lock().unwrap();
            panic!("a thread dies holding the frame writer");
        });
        assert!(poisoner.join().is_err());

        let sent = writer.send(&Request::Bye { worker: "w".into() });
        assert!(matches!(sent, Err(FleetError::Panicked(_))), "{sent:?}");
        // The first heartbeat falls due while the body runs, and fails.
        let beaten = run_with_heartbeats(&writer, "w", 3, 5, || {
            thread::sleep(Duration::from_millis(40));
            7
        });
        assert!(matches!(beaten, Err(FleetError::Panicked(_))), "{beaten:?}");
    }

    #[test]
    fn malformed_broker_frame_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let broker = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut hello = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut hello)
                .unwrap();
            // Not UTF-8: refused like an over-long frame.
            stream
                .write_all(b"welcome version=2 cells=1 \xff\n")
                .unwrap();
        });
        let err = run_worker(addr, "w", &|_c: usize, _s: &str| Ok(String::new())).unwrap_err();
        broker.join().unwrap();
        assert!(matches!(err, FleetError::Protocol(_)), "{err}");
    }
}
