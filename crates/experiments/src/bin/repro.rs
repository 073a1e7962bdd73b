//! `repro` — regenerate the tables and figures of the GRASS paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--csv] [<experiment-id>...]
//! repro trace record --out <dir> [--jobs N] [--policy P] [--format text|binary|compressed] [...]
//! repro trace gen --out <file> [--jobs N] [--seed S] [--format text|binary|compressed] [...]
//! repro trace replay <workload.trace> [--policy P]
//! repro trace convert <in> <out> --format text|binary|compressed
//! repro trace stats [--mmap] <trace-file>...
//! repro sweep <workload.trace|dir> [--machines 20,50,100] [--policies late,gs,ras,grass]
//!             [--baseline late] [--threads N] [--seeds a,b,c] [--slots N] [--quick]
//!             [--resume <cache-dir>] [--mmap]
//! repro fleet serve <workload.trace|dir> [grid flags] [--port P] [--cache <dir>]
//! repro fleet work --connect <host:port> [--id NAME] [--stall-ms N]
//! repro fleet run <workload.trace|dir> [grid flags] [--workers N] [--cache <dir>]
//! repro lint [--format text|json] [--root <dir>] [paths...]
//! ```
//!
//! With no experiment ids, every experiment is run in paper order. `--quick` uses the
//! reduced configuration (fewer jobs, one seed, smaller cluster) intended for smoke
//! tests; the default configuration averages three seeds on the 200-slot cluster.
//! The `trace` subcommand records, generates, replays, converts and inspects workload/execution
//! traces in either wire format (see `grass_experiments::trace_cli`); `sweep` replays
//! one recorded workload across a cluster-size × policy grid (see
//! `grass_experiments::sweep`). Every command parses its flags and writes stdout
//! through `grass_experiments::cli`: an unknown flag is an error, and a closed
//! stdout (`repro --quick | head -1`) exits 0.

use std::process::ExitCode;

use grass_experiments::{
    run_experiments_command, run_fleet_command, run_lint_command, run_sweep_command,
    run_trace_command,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let (command, result) = match args.first().map(String::as_str) {
        Some("trace") => ("repro trace", run_trace_command(rest).map(|()| true)),
        Some("sweep") => ("repro sweep", run_sweep_command(rest).map(|()| true)),
        Some("lint") => ("repro lint", run_lint_command(rest)),
        Some("fleet") => ("repro fleet", run_fleet_command(rest).map(|()| true)),
        _ => ("repro", run_experiments_command(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{command}: {message}");
            ExitCode::FAILURE
        }
    }
}
