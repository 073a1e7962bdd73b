//! The TCP broker: owns the [`GridState`] behind a mutex, accepts worker
//! connections on localhost, and drives lease expiry from a poll loop.
//!
//! The broker is embeddable: [`serve_broker`] returns a [`BrokerHandle`]
//! immediately, and the caller decides whether to spawn worker processes
//! ([`crate::spawn::run_fleet`]), run worker threads in-process (tests), or
//! just wait for external workers (`repro fleet serve`).

use crate::config::FleetConfig;
use crate::protocol::{Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use crate::state::{CellStatus, Claim, Completion, FleetStats, GridState};
use crate::FleetError;
use grass_trace::codec::read_frame;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Everything a finished fleet run produced: grid-order payloads plus the
/// broker's event counters.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// One result payload per cell, in grid order.
    pub results: Vec<String>,
    pub stats: FleetStats,
}

/// A point-in-time view of the broker, for monitoring and tests.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    pub statuses: Vec<CellStatus>,
    pub stats: FleetStats,
    /// `(cell, worker)` pairs for currently active leases.
    pub leases: Vec<(usize, String)>,
    pub done: bool,
}

struct Shared {
    state: Mutex<GridState>,
    specs: Vec<String>,
    config: FleetConfig,
    started: Instant,
    done: AtomicBool,
    /// Set by [`BrokerHandle::wait`] once the grid is done; the accept loop then
    /// serves its backlog and closes the listener.
    stop: AtomicBool,
}

impl Shared {
    /// The grid state, or [`FleetError::Panicked`] if a thread panicked while
    /// holding it.
    fn state(&self) -> Result<MutexGuard<'_, GridState>, FleetError> {
        self.state
            .lock()
            .map_err(|_| FleetError::Panicked("the broker's grid-state lock is poisoned".into()))
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Re-check terminality after any mutation and latch the done flag.
    fn refresh_done(&self, state: &GridState) {
        if state.all_done() {
            self.done.store(true, Ordering::SeqCst);
        }
    }
}

/// A running broker. Dropping the handle does not stop the accept thread;
/// call [`BrokerHandle::wait`] to drive the run to completion and close the
/// listener.
pub struct BrokerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

/// Start a broker for `specs` on `127.0.0.1:port` (`port = 0` picks a free
/// one). `cached[i] = Some(payload)` pre-completes cell `i` from the digest
/// cache so it is never dispatched.
pub fn serve_broker(
    specs: Vec<String>,
    cached: Vec<Option<String>>,
    config: FleetConfig,
) -> io::Result<BrokerHandle> {
    serve_broker_on(specs, cached, config, 0)
}

/// [`serve_broker`] with an explicit port.
pub fn serve_broker_on(
    specs: Vec<String>,
    cached: Vec<Option<String>>,
    config: FleetConfig,
    port: u16,
) -> io::Result<BrokerHandle> {
    assert_eq!(specs.len(), cached.len(), "one cached slot per spec");
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let mut state = GridState::new(specs.len(), config.clone());
    for (i, payload) in cached.into_iter().enumerate() {
        if let Some(payload) = payload {
            state.preload(i, payload);
        }
    }
    let shared = Arc::new(Shared {
        done: AtomicBool::new(state.all_done()),
        stop: AtomicBool::new(false),
        state: Mutex::new(state),
        specs,
        config: config.clone(),
        started: Instant::now(),
    });

    let accept_shared = Arc::clone(&shared);
    let accept = thread::Builder::new()
        .name("grass-fleet-broker".into())
        .spawn(move || accept_loop(listener, accept_shared))?;

    Ok(BrokerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

impl BrokerHandle {
    /// The address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once every cell is terminal.
    pub fn done(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }

    /// Point-in-time view of the grid.
    pub fn snapshot(&self) -> Result<FleetSnapshot, FleetError> {
        let state = self.shared.state()?;
        Ok(FleetSnapshot {
            statuses: state.statuses(),
            stats: state.stats(),
            leases: state.active_leases(),
            done: self.done(),
        })
    }

    /// Block until every cell is terminal, stop accepting workers, then return
    /// grid-order results.
    ///
    /// Workers already queued on the listener are still served, so they are told
    /// `finished`. The listener is closed before this returns: a worker that
    /// first connects afterwards is refused by the operating system, and
    /// [`crate::run_worker`] fails with [`FleetError::Io`] (connection refused),
    /// not `finished`.
    ///
    /// Returns [`FleetError::Exhausted`] when any cell ran out of retries, and
    /// [`FleetError::Panicked`] when a broker thread panicked holding the grid
    /// state (the accept loop then stops and marks the run done).
    pub fn wait(mut self) -> Result<FleetOutcome, FleetError> {
        let poll = Duration::from_millis(self.shared.config.poll_ms.max(1));
        while !self.done() {
            thread::sleep(poll);
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        let state = self.shared.state()?;
        match state.results() {
            Ok(results) => Ok(FleetOutcome {
                results,
                stats: state.stats(),
            }),
            Err(cells) => Err(FleetError::Exhausted(cells)),
        }
    }
}

/// Accept workers until [`BrokerHandle::wait`] stops the broker.
///
/// The loop outlives `done`: a worker that connects after the last cell
/// finished, or to a fully cached grid, still gets `welcome` and then
/// `finished`, because closing the listener resets every connection still
/// queued on it. On stop, the queued connections are accepted and served
/// before the listener closes.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let poll = Duration::from_millis(shared.config.poll_ms.max(1));
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        // Drive lease expiry from the accept loop: the broker's one ticker. A
        // poisoned state ends the run: `wait` then reports it.
        match shared.state() {
            Ok(mut state) => {
                state.expire_leases(shared.now_ms());
                shared.refresh_done(&state);
            }
            Err(_) => {
                shared.done.store(true, Ordering::SeqCst);
                return;
            }
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("grass-fleet-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared));
            }
            // The backlog is empty (or the listener failed): close once stopped.
            Err(_) if stopping => return,
            // `wait` unparks the thread when it stops the broker.
            Err(_) => thread::park_timeout(poll),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut worker_id: Option<String> = None;
    let mut clean_exit = false;
    if let Err(_e) = serve_connection(&stream, &shared, &mut worker_id, &mut clean_exit) {
        // I/O errors fall through to the crash-release path below.
    }
    if !clean_exit {
        if let (Some(worker), Ok(mut state)) = (worker_id, shared.state()) {
            state.release_worker(&worker, shared.now_ms());
            shared.refresh_done(&state);
        }
    }
}

fn serve_connection(
    stream: &TcpStream,
    shared: &Shared,
    worker_id: &mut Option<String>,
    clean_exit: &mut bool,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    loop {
        let line = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            // An over-long or non-UTF-8 frame: answer, then drop the peer
            // through the crash-release path.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let message = e.to_string();
                write_response(&mut writer, &Response::Error { message })?;
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(req) => req,
            Err(message) => {
                write_response(&mut writer, &Response::Error { message })?;
                continue;
            }
        };
        *worker_id = Some(request.worker().to_string());
        let is_bye = matches!(request, Request::Bye { .. });
        // Compute the response under the lock, write it outside the lock.
        let response = {
            let mut state = shared.state().map_err(io::Error::other)?;
            let response = apply_request(&mut state, shared, &request);
            shared.refresh_done(&state);
            response
        };
        if let Some(response) = response {
            write_response(&mut writer, &response)?;
        }
        if is_bye {
            *clean_exit = true;
            return Ok(());
        }
    }
}

/// Translate one request into a state transition plus an optional response
/// (`heartbeat` is fire-and-forget).
fn apply_request(state: &mut GridState, shared: &Shared, request: &Request) -> Option<Response> {
    let now_ms = shared.now_ms();
    match request {
        Request::Hello { .. } => Some(Response::Welcome {
            version: PROTOCOL_VERSION,
            cells: state.len(),
        }),
        Request::Claim { worker } => Some(match state.claim(worker, now_ms) {
            Claim::Granted {
                cell,
                attempt,
                lease,
            } => Response::Grant {
                cell,
                attempt,
                lease,
                heartbeat_ms: shared.config.heartbeat_ms,
                // grass: allow(panicky-lib, "the grid has one cell per spec (serve_broker_on asserts it), and claim grants only its own cells")
                spec: shared.specs[cell].clone(),
            },
            Claim::Wait { ms } => Response::Wait { ms },
            Claim::Finished => Response::Finished,
        }),
        Request::Heartbeat { worker, cell } => {
            state.heartbeat(worker, *cell, now_ms);
            None
        }
        Request::Complete {
            worker,
            cell,
            lease,
            payload,
        } => Some(
            match state.complete(worker, *cell, *lease, payload.clone()) {
                Completion::Accepted => Response::Ok,
                Completion::Stale => Response::Stale,
            },
        ),
        Request::Fail {
            worker,
            cell,
            lease,
            ..
        } => {
            state.fail(worker, *cell, *lease, now_ms);
            Some(Response::Ok)
        }
        Request::Sync { worker, payload } => Some(Response::State {
            payload: state.sync(worker, payload.clone()),
        }),
        Request::Bye { .. } => Some(Response::Ok),
    }
}

fn write_response(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::run_worker;
    use std::io::{BufRead, Read};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn broker_with_thread_workers_collects_grid_order_results() {
        let specs: Vec<String> = (0..6).map(|i| format!("spec-{i}")).collect();
        let cached = vec![None; specs.len()];
        let handle = serve_broker(specs, cached, FleetConfig::test_profile()).unwrap();
        let addr = handle.addr();

        let workers: Vec<_> = (0..2)
            .map(|w| {
                thread::spawn(move || {
                    run_worker(addr, &format!("w{w}"), &|cell: usize, spec: &str| {
                        Ok(format!("cell={cell} spec={spec}"))
                    })
                })
            })
            .collect();

        let outcome = handle.wait().unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        assert_eq!(outcome.results.len(), 6);
        for (i, payload) in outcome.results.iter().enumerate() {
            assert_eq!(payload, &format!("cell={i} spec=spec-{i}"));
        }
        assert_eq!(outcome.stats.completed, 6);
        assert_eq!(outcome.stats.dispatched, 6);
    }

    #[test]
    fn failed_cells_are_retried_until_they_succeed() {
        static FAILURES_LEFT: AtomicUsize = AtomicUsize::new(2);
        let handle =
            serve_broker(vec!["only".into()], vec![None], FleetConfig::test_profile()).unwrap();
        let addr = handle.addr();
        let worker = thread::spawn(move || {
            run_worker(addr, "flaky", &|cell: usize, _spec: &str| {
                if FAILURES_LEFT
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    Err("transient".into())
                } else {
                    Ok(format!("ok-{cell}"))
                }
            })
        });
        let outcome = handle.wait().unwrap();
        let report = worker.join().unwrap().unwrap();
        assert_eq!(outcome.results, vec!["ok-0"]);
        assert_eq!(outcome.stats.failed_reports, 2);
        assert_eq!(outcome.stats.dispatched, 3);
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn fully_cached_grid_finishes_without_any_worker() {
        let handle = serve_broker(
            vec!["a".into(), "b".into()],
            vec![Some("ra".into()), Some("rb".into())],
            FleetConfig::test_profile(),
        )
        .unwrap();
        assert!(handle.done());
        let outcome = handle.wait().unwrap();
        assert_eq!(outcome.results, vec!["ra", "rb"]);
        assert_eq!(outcome.stats.cached, 2);
        assert_eq!(outcome.stats.dispatched, 0);
    }

    #[test]
    fn worker_joining_a_finished_grid_before_wait_is_told_finished() {
        let handle = serve_broker(
            vec!["a".into()],
            vec![Some("ra".into())],
            FleetConfig::test_profile(),
        )
        .unwrap();
        assert!(handle.done());
        // The grid is done from the start, but the broker keeps answering
        // until `wait()` stops it.
        let report = run_worker(handle.addr(), "late", &|_c: usize, _s: &str| {
            Err("no cell should be granted".to_string())
        })
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 0);
        let outcome = handle.wait().unwrap();
        assert_eq!(outcome.results, vec!["ra"]);
        assert_eq!(outcome.stats.dispatched, 0);
    }

    #[test]
    fn worker_connecting_after_wait_is_refused() {
        let handle = serve_broker(
            vec!["a".into()],
            vec![Some("ra".into())],
            FleetConfig::test_profile(),
        )
        .unwrap();
        let addr = handle.addr();
        // `wait` joins the accept thread, which closes the listener.
        handle.wait().unwrap();
        let err = run_worker(addr, "too-late", &|_c: usize, _s: &str| {
            Err("no cell should be granted".to_string())
        })
        .unwrap_err();
        match err {
            FleetError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            other => panic!("expected a refused connection, got {other}"),
        }
    }

    #[test]
    fn dropped_connection_releases_leases_for_redispatch() {
        let handle =
            serve_broker(vec!["only".into()], vec![None], FleetConfig::test_profile()).unwrap();
        let addr = handle.addr();

        // A raw client claims the cell and vanishes without `bye`.
        {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            writer.write_all(b"hello worker=ghost\n").unwrap();
            reader.read_line(&mut line).unwrap();
            line.clear();
            writer.write_all(b"claim worker=ghost\n").unwrap();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("grant "), "got {line:?}");
            // Drop both halves: unclean disconnect.
        }

        // A healthy worker picks the cell back up after the crash release.
        let worker = thread::spawn(move || {
            run_worker(addr, "healthy", &|_c: usize, _s: &str| Ok("done".into()))
        });
        let outcome = handle.wait().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(outcome.results, vec!["done"]);
        assert_eq!(outcome.stats.crash_releases, 1);
        assert_eq!(outcome.stats.dispatched, 2);
    }

    #[test]
    fn over_long_frame_is_refused_and_its_lease_released() {
        // The flooding client never heartbeats: only the crash release, not
        // lease expiry, may return its cell.
        let config = FleetConfig {
            lease_timeout_ms: 600_000,
            ..FleetConfig::test_profile()
        };
        let handle = serve_broker(vec!["only".into()], vec![None], config).unwrap();
        let addr = handle.addr();
        {
            let stream = TcpStream::connect(addr).unwrap();
            // A broker that kept buffering would never answer: fail, not hang.
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            writer.write_all(b"hello worker=flood\n").unwrap();
            reader.read_line(&mut line).unwrap();
            writer.write_all(b"claim worker=flood\n").unwrap();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("grant "), "got {line:?}");

            // Cap + 1 bytes and no newline.
            let chunk = vec![b'x'; 1 << 16];
            let mut left = MAX_FRAME_BYTES + 1;
            while left > 0 {
                let n = left.min(chunk.len());
                writer.write_all(&chunk[..n]).unwrap();
                left -= n;
            }
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("error "), "got {line:?}");
            // The broker hung up instead of reading on.
            assert_eq!(reader.read(&mut [0u8; 16]).unwrap(), 0);
        }

        let worker = thread::spawn(move || {
            run_worker(addr, "healthy", &|_c: usize, _s: &str| Ok("done".into()))
        });
        let outcome = handle.wait().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(outcome.results, vec!["done"]);
        assert_eq!(outcome.stats.crash_releases, 1);
        assert_eq!(outcome.stats.dispatched, 2);
    }
}
