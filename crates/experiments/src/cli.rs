//! Plumbing shared by every `repro` subcommand: the one command-line flag
//! parser, the one stdout writer, and the top-level experiment runner.

use std::io::{ErrorKind, Write};

use crate::{experiment_ids, run_experiment, ExpConfig};

/// Minimal `--flag value` command-line parser shared by every `repro`
/// subcommand. Strict: a flag the command does not accept is an error naming
/// it, so a typo never silently falls back to a default.
pub(crate) struct Flags {
    named: Vec<(String, String)>,
    pub(crate) positional: Vec<String>,
}

impl Flags {
    /// Parse `args`: names in `switches` are valueless booleans (present or
    /// absent), names in `valued` consume the following argument, and `-h` is
    /// `--help`.
    pub(crate) fn parse(
        args: &[String],
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Self, String> {
        let mut named = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--").or((arg == "-h").then_some("help")) else {
                positional.push(arg.clone());
                continue;
            };
            let value = if switches.contains(&name) {
                "true".to_string()
            } else if valued.contains(&name) {
                it.next()
                    .ok_or_else(|| format!("flag --{name} is missing its value"))?
                    .clone()
            } else {
                let expected = [switches, valued].concat().join(", --");
                return Err(format!(
                    "unknown flag --{name}; expected one of: --{expected}"
                ));
            };
            named.push((name.to_string(), value));
        }
        Ok(Flags { named, positional })
    }

    /// Whether a boolean switch was present.
    pub(crate) fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of flag `name` parsed by `T`'s own `FromStr`, so a number out of
    /// `T`'s range is an error naming the flag; `default` when it is absent.
    pub(crate) fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("flag --{name} got '{v}': {e}")),
        }
    }
}

/// Write `text` to stdout, the one path every `repro` subcommand prints
/// through. A closed stdout (`repro … | head -1`) means the reader has all it
/// wants, so the process exits 0 there instead of panicking like `print!`.
pub(crate) fn write_stdout(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        result => result.map_err(|e| format!("cannot write to stdout: {e}")),
    }
}

/// Entry point for `repro [--quick] [--csv] [<experiment-id>...]`: run the
/// named experiments, or every one in paper order when none is named.
/// `Ok(false)` means an id was unknown (the known ones still ran).
pub fn run_experiments_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["quick", "csv", "help"], &[])?;
    if flags.has("help") {
        let ids = experiment_ids().join("\n  ");
        write_stdout(&format!("{USAGE}  {ids}\n"))?;
        return Ok(true);
    }
    let config = if flags.has("quick") {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };
    let ids: Vec<&str> = if flags.positional.is_empty() {
        experiment_ids()
    } else {
        flags.positional.iter().map(String::as_str).collect()
    };
    let mut all_known = true;
    for id in ids {
        let Some(report) = run_experiment(id, &config) else {
            eprintln!(
                "unknown experiment id '{id}'; known ids: {}",
                experiment_ids().join(", ")
            );
            all_known = false;
            continue;
        };
        if flags.has("csv") {
            for table in &report.tables {
                write_stdout(&format!("# {}\n{}\n", table.title, table.render_csv()))?;
            }
        } else {
            write_stdout(&format!("{}\n", report.render_text()))?;
        }
    }
    Ok(all_known)
}

const USAGE: &str = "\
repro — regenerate the tables and figures of the GRASS (NSDI '14) paper

USAGE: repro [--quick] [--csv] [<experiment-id>...]
       repro trace record --out <dir> [--jobs N] [--gen-seed S] [--sim-seed S]
                          [--policy P] [--profile facebook|bing]
                          [--framework hadoop|spark] [--bound deadlines|errors|exact]
                          [--machines N] [--slots N] [--format text|binary|compressed]
       repro trace gen --out <file> [--jobs N] [--seed S] [--sim-seed S]
                       [--policy P] [--profile facebook|bing]
                       [--framework hadoop|spark] [--bound deadlines|errors|exact]
                       [--machines N] [--slots N] [--format text|binary|compressed]
       repro trace replay <workload.trace|dir> [--policy P]
       repro trace convert <in> <out> --format text|binary|compressed
       repro trace stats [--mmap] <trace-file>...
       repro sweep <workload.trace|dir> [--machines 20,50,100]
                   [--policies late,gs,ras,grass] [--baseline late]
                   [--threads N] [--seeds a,b,c] [--slots N] [--quick]
                   [--resume <cache-dir>] [--mmap]
       repro fleet serve <workload.trace|dir> [grid flags] [--port P]
                         [--cache <dir>] [--test-profile] [--mmap] [timing flags]
       repro fleet work --connect <host:port> [--id NAME] [--stall-ms N] [--mmap]
       repro fleet run <workload.trace|dir> [grid flags] [--workers N]
                       [--cache <dir>] [--test-profile] [--mmap] [timing flags]
       repro lint [--format text|json] [--root <dir>] [paths...]

Experiment ids:
";
