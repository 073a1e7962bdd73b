//! The local spawn harness: broker in-process plus N worker child processes —
//! the first-cut "fleet of machines" (`repro fleet run --workers N`).

use crate::broker::{serve_broker, FleetOutcome};
use crate::config::FleetConfig;
use crate::FleetError;
use std::net::SocketAddr;
use std::process::{Child, Command};
use std::thread;
use std::time::{Duration, Instant};

/// The outcome of a spawned fleet run plus per-worker exit codes.
#[derive(Debug)]
pub struct FleetRunReport {
    pub outcome: FleetOutcome,
    /// Exit code per worker (`None` when the process was killed by a signal
    /// or had to be reaped forcibly at shutdown).
    pub worker_exit_codes: Vec<Option<i32>>,
}

/// Serve the grid on an ephemeral port, spawn `workers` child processes via
/// `make_worker(index, broker_addr)`, and wait for every cell to finish.
///
/// Fails with [`FleetError::WorkersExited`] when all workers die while cells
/// are still outstanding (instead of hanging forever on an empty fleet).
pub fn run_fleet(
    specs: Vec<String>,
    cached: Vec<Option<String>>,
    config: FleetConfig,
    workers: usize,
    mut make_worker: impl FnMut(usize, SocketAddr) -> Command,
) -> Result<FleetRunReport, FleetError> {
    let poll = Duration::from_millis(config.poll_ms.max(1));
    let handle = serve_broker(specs, cached, config)?;
    let addr = handle.addr();

    if workers == 0 && !handle.done() {
        return Err(FleetError::WorkersExited(0));
    }

    let mut children: Vec<Option<Child>> = Vec::with_capacity(workers);
    for i in 0..workers {
        match make_worker(i, addr).spawn() {
            Ok(child) => children.push(Some(child)),
            Err(e) => {
                kill_all(&mut children);
                return Err(FleetError::Io(e));
            }
        }
    }
    let mut exit_codes: Vec<Option<i32>> = vec![None; workers];

    // Watch for the all-workers-dead-with-work-left condition.
    while !handle.done() {
        let mut alive = 0;
        for (slot, code) in children.iter_mut().zip(exit_codes.iter_mut()) {
            if let Some(child) = slot {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        *code = status.code();
                        *slot = None;
                    }
                    Ok(None) => alive += 1,
                    Err(_) => alive += 1,
                }
            }
        }
        if alive == 0 && !handle.done() {
            return Err(FleetError::WorkersExited(workers));
        }
        thread::sleep(poll);
    }

    let outcome = handle.wait()?;

    // Workers exit on their own after `finished`; give them a grace window,
    // then reap forcibly so the harness never leaks processes.
    let deadline = Instant::now() + Duration::from_secs(10);
    for (slot, code) in children.iter_mut().zip(exit_codes.iter_mut()) {
        if let Some(child) = slot {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        *code = status.code();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => thread::sleep(poll),
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }

    Ok(FleetRunReport {
        outcome,
        worker_exit_codes: exit_codes,
    })
}

fn kill_all(children: &mut [Option<Child>]) {
    for slot in children.iter_mut().flatten() {
        let _ = slot.kill();
        let _ = slot.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_cached_grid_needs_no_workers() {
        let report = run_fleet(
            vec!["a".into(), "b".into()],
            vec![Some("ra".into()), Some("rb".into())],
            FleetConfig::test_profile(),
            0,
            |_i, _addr| unreachable!("no workers should be spawned"),
        )
        .unwrap();
        assert_eq!(report.outcome.results, vec!["ra", "rb"]);
        assert!(report.worker_exit_codes.is_empty());
    }

    #[test]
    fn zero_workers_with_outstanding_cells_is_an_error() {
        let err = run_fleet(
            vec!["a".into()],
            vec![None],
            FleetConfig::test_profile(),
            0,
            |_i, _addr| unreachable!(),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::WorkersExited(0)), "{err}");
    }

    #[test]
    fn workers_that_exit_immediately_fail_the_run() {
        // `true` exits instantly without speaking the protocol: the harness
        // must detect the dead fleet instead of hanging.
        let err = run_fleet(
            vec!["a".into()],
            vec![None],
            FleetConfig::test_profile(),
            2,
            |_i, _addr| Command::new("true"),
        )
        .unwrap_err();
        assert!(matches!(err, FleetError::WorkersExited(2)), "{err}");
    }
}
