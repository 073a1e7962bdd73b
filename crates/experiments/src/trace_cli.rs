//! The `repro trace` subcommand surface: record, generate, replay, convert and
//! inspect traces.
//!
//! ```text
//! repro trace record --out <dir> [--jobs N] [--gen-seed S] [--sim-seed S]
//!                    [--policy P] [--profile facebook|bing] [--framework hadoop|spark]
//!                    [--bound deadlines|errors|exact] [--machines N] [--slots N]
//!                    [--format text|binary|compressed]
//! repro trace gen --out <file> [--jobs N] [--seed S] [--sim-seed S] [--policy P]
//!                 [--profile facebook|bing] [--framework hadoop|spark]
//!                 [--bound deadlines|errors|exact] [--machines N] [--slots N]
//!                 [--format text|binary|compressed]
//! repro trace replay <workload.trace> [--policy P]
//! repro trace convert <in> <out> --format text|binary|compressed
//! repro trace stats [--mmap] <trace-file>...
//! ```
//!
//! `record` samples a synthetic workload, persists it as `workload.trace`, runs it
//! through the simulator while streaming `execution.trace` (both in the chosen
//! `--format`), and prints a deterministic outcome digest to stdout. `gen`
//! synthesizes the same workload trace **without running a simulation and without
//! ever materialising the job list** — jobs stream from the generator straight
//! into a `WorkloadTraceSink`, so it can produce GB-scale traces in O(one job)
//! memory; with matching parameters its output is byte-identical to `record`'s
//! `workload.trace`. `replay` decodes a workload trace — the format is sniffed,
//! so text and binary replay identically — re-runs it with the recorded simulator
//! seed / cluster / policy and prints the same digest, so `diff <(record)
//! <(replay)` is the record→replay determinism check CI runs in both formats.
//! `convert` re-encodes a trace of either stream kind into the requested format,
//! record at a time through `convert_stream` (O(one record) memory). `stats`
//! folds each file in one streaming pass; `--mmap` reads the files through a
//! memory map instead of a buffered reader, with identical output.
//! Informational messages go to stderr to keep stdout digest-clean.

use std::path::{Path, PathBuf};

use grass_core::PolicyFactory;
use grass_sim::{run_simulation, run_simulation_traced, SimResult};
use grass_trace::{
    convert_stream, record_workload, replay_config, ExecutionMeta, ExecutionTraceSink, TraceFormat,
    TraceStats, WorkloadMeta, WorkloadTrace, WorkloadTraceSink,
};
use grass_workload::{BoundSpec, Framework, JobGen, TraceProfile, WorkloadConfig};

use crate::cli::{write_stdout, Flags};
use crate::PolicyKind;

/// Entry point for `repro trace <verb> ...`. Returns an error message on failure.
pub fn run_trace_command(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("replay") => replay_cmd(&args[1..]),
        Some("convert") => convert(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some(other) => Err(format!(
            "unknown trace verb '{other}'; expected record, gen, replay, convert or stats"
        )),
        None => {
            Err("missing trace verb; expected record, gen, replay, convert or stats".to_string())
        }
    }
}

/// Parse a `--format` value, defaulting to text when the flag is absent.
fn parse_format(value: Option<&str>) -> Result<TraceFormat, String> {
    match value {
        None => Ok(TraceFormat::Text),
        Some(v) => TraceFormat::parse(v)
            .ok_or_else(|| format!("unknown format '{v}' (text|binary|compressed)")),
    }
}

/// One-line-per-job outcome digest. Full-precision floats so that byte-identical
/// digests imply bit-identical results.
pub fn outcome_digest(result: &SimResult) -> String {
    let mut out = String::new();
    for o in &result.outcomes {
        out.push_str(&format!(
            "outcome job={} policy={} finish={} completed_input={} completed_total={} \
             speculative={} killed={} slot_seconds={}\n",
            o.job.value(),
            o.policy,
            o.finish,
            o.completed_input_tasks,
            o.completed_tasks,
            o.speculative_copies,
            o.killed_copies,
            o.slot_seconds,
        ));
    }
    out.push_str(&format!(
        "summary jobs={} makespan={} total_copies={}\n",
        result.outcomes.len(),
        result.makespan,
        result.total_copies,
    ));
    out
}

/// Build the policy factory for a trace run. Seeded factories (GRASS) derive all
/// their randomness from `seed`, so record and replay construct identical factories.
pub fn make_factory(policy: &str, seed: u64) -> Result<Box<dyn PolicyFactory>, String> {
    Ok(PolicyKind::parse(policy)?.factory(seed))
}

/// Flags `trace record` and `trace gen` share; record seeds the generator with
/// `--gen-seed`, gen with `--seed`.
const WORKLOAD_FLAGS: &[&str] = &[
    "out",
    "jobs",
    "sim-seed",
    "machines",
    "slots",
    "policy",
    "profile",
    "framework",
    "bound",
    "format",
];

/// Parse the shared `--profile` / `--framework` / `--bound` workload flags.
fn workload_from_flags(flags: &Flags, jobs: usize) -> Result<WorkloadConfig, String> {
    let profile = match flags.get("profile").unwrap_or("facebook") {
        "facebook" => TraceProfile::facebook,
        "bing" => TraceProfile::bing,
        other => return Err(format!("unknown profile '{other}' (facebook|bing)")),
    };
    let framework = match flags.get("framework").unwrap_or("spark") {
        "hadoop" => Framework::Hadoop,
        "spark" => Framework::Spark,
        other => return Err(format!("unknown framework '{other}' (hadoop|spark)")),
    };
    let bound = match flags.get("bound").unwrap_or("errors") {
        "deadlines" => BoundSpec::paper_deadlines(),
        "errors" => BoundSpec::paper_errors(),
        "exact" => BoundSpec::Exact,
        other => return Err(format!("unknown bound '{other}' (deadlines|errors|exact)")),
    };
    Ok(WorkloadConfig::new(profile(framework))
        .with_jobs(jobs)
        .with_bound(bound))
}

fn record(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &[WORKLOAD_FLAGS, &["gen-seed"]].concat())?;
    if !flags.positional.is_empty() {
        return Err(format!(
            "unexpected positional arguments: {:?}",
            flags.positional
        ));
    }
    let out_dir = PathBuf::from(flags.get("out").unwrap_or("trace-out"));
    let jobs = flags.num("jobs", 24)?;
    let gen_seed = flags.num("gen-seed", 7)?;
    let sim_seed = flags.num("sim-seed", 11)?;
    let machines = flags.num("machines", 20)?;
    let slots = flags.num("slots", 4)?;
    let policy = flags.get("policy").unwrap_or("grass").to_string();
    let format = parse_format(flags.get("format"))?;

    let workload = workload_from_flags(&flags, jobs)?;
    let trace = record_workload(&workload, gen_seed, sim_seed, &policy, machines, slots);
    let sim = replay_config(&trace);
    let factory = make_factory(&policy, sim_seed)?;

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let workload_path = out_dir.join("workload.trace");
    trace
        .save_as(&workload_path, format)
        .map_err(|e| format!("cannot write {}: {e}", workload_path.display()))?;

    let execution_path = out_dir.join("execution.trace");
    let exec_meta = ExecutionMeta {
        sim_seed,
        policy: factory.name().to_string(),
        machines,
        slots_per_machine: slots,
    };
    let file = std::fs::File::create(&execution_path)
        .map_err(|e| format!("cannot create {}: {e}", execution_path.display()))?;
    let mut sink =
        ExecutionTraceSink::with_format(std::io::BufWriter::new(file), &exec_meta, format)
            .map_err(|e| e.to_string())?;
    let result = run_simulation_traced(&sim, trace.jobs.clone(), factory.as_ref(), &mut sink);
    sink.finish()
        .map_err(|e| format!("cannot finish {}: {e}", execution_path.display()))?;

    eprintln!(
        "recorded {} jobs ({} profile, policy {}, {format} format) -> {} + {}",
        trace.jobs.len(),
        trace.meta.profile,
        factory.name(),
        workload_path.display(),
        execution_path.display(),
    );
    write_stdout(&outcome_digest(&result))
}

/// `repro trace gen`: synthesize a (possibly GB-scale) workload trace straight
/// to a streaming sink — the generator's job iterator feeds a
/// [`WorkloadTraceSink`] one record at a time, so memory stays O(one job) no
/// matter how many jobs are requested. With the same parameters as `trace
/// record` (`--seed` here is `record`'s `--gen-seed`) the output file is
/// byte-identical to `record`'s `workload.trace`.
fn gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &[WORKLOAD_FLAGS, &["seed"]].concat())?;
    if !flags.positional.is_empty() {
        return Err(format!(
            "unexpected positional arguments: {:?}",
            flags.positional
        ));
    }
    let out = PathBuf::from(flags.get("out").unwrap_or("workload.trace"));
    let jobs = flags.num("jobs", 24)?;
    let seed = flags.num("seed", 7)?;
    let sim_seed = flags.num("sim-seed", 11)?;
    let machines = flags.num("machines", 20)?;
    let slots = flags.num("slots", 4)?;
    let policy = flags.get("policy").unwrap_or("grass").to_string();
    let format = parse_format(flags.get("format"))?;
    let workload = workload_from_flags(&flags, jobs)?;
    // Validate the policy label up front, like record does, so a typo fails
    // before any bytes hit the disk.
    make_factory(&policy, sim_seed)?;

    let meta = WorkloadMeta {
        generator_seed: seed,
        sim_seed,
        policy,
        profile: workload.profile.label(),
        machines,
        slots_per_machine: slots,
    };
    // grass: allow(wall-clock-in-core, "elapsed is reported on stderr only; it never reaches a result")
    let started = std::time::Instant::now();
    let file =
        std::fs::File::create(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut sink =
        WorkloadTraceSink::with_format(std::io::BufWriter::new(file), &meta, jobs, format)
            .map_err(|e| e.to_string())?;
    for job in JobGen::new(workload, seed) {
        sink.push(&job)
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    sink.finish()
        .map_err(|e| format!("cannot finish {}: {e}", out.display()))?;

    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    let elapsed = started.elapsed();
    eprintln!(
        "generated {jobs} jobs ({} profile, {format} format) -> {} \
         ({:.1} MiB in {:.2?}, {:.0} MiB/s)",
        meta.profile,
        out.display(),
        bytes as f64 / (1024.0 * 1024.0),
        elapsed,
        bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64().max(1e-9),
    );
    Ok(())
}

fn replay_cmd(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["policy"])?;
    let [path] = flags.positional.as_slice() else {
        return Err("replay expects exactly one trace path".to_string());
    };
    let path = resolve_workload_path(Path::new(path));
    let trace =
        WorkloadTrace::load(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let sim = replay_config(&trace);
    let policy = flags.get("policy").unwrap_or(&trace.meta.policy);
    let factory = make_factory(policy, trace.meta.sim_seed)?;
    eprintln!(
        "replaying {} jobs ({} profile, policy {}, sim seed {})",
        trace.jobs.len(),
        trace.meta.profile,
        factory.name(),
        trace.meta.sim_seed,
    );
    let result = run_simulation(&sim, trace.jobs.clone(), factory.as_ref());
    write_stdout(&outcome_digest(&result))
}

fn convert(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[], &["format"])?;
    let [input, output] = flags.positional.as_slice() else {
        return Err("convert expects exactly two paths: <in> <out>".to_string());
    };
    let format = parse_format(Some(
        flags
            .get("format")
            .ok_or("convert requires --format text|binary|compressed")?,
    ))?;
    // Record-at-a-time re-encode: the input is never held in memory, so a trace
    // bigger than RAM converts fine.
    let reader = std::io::BufReader::new(
        std::fs::File::open(input).map_err(|e| format!("cannot read {input}: {e}"))?,
    );
    let writer = std::io::BufWriter::new(
        std::fs::File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?,
    );
    match convert_stream(reader, writer, format) {
        Ok((from, kind)) => {
            eprintln!("converted {input} ({from} {kind} trace) -> {output} ({format})");
            Ok(())
        }
        Err(e) => {
            // A partially converted execution stream has no trailing count check,
            // so it would decode cleanly as a shorter trace; never leave one behind.
            let _ = std::fs::remove_file(output);
            Err(format!("cannot convert {input}: {e}"))
        }
    }
}

/// Accept either a workload trace file or the directory `record` wrote it into.
pub(crate) fn resolve_workload_path(path: &Path) -> PathBuf {
    if path.is_dir() {
        path.join("workload.trace")
    } else {
        path.to_path_buf()
    }
}

fn stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["mmap"], &[])?;
    if flags.positional.is_empty() {
        return Err("stats expects at least one trace path".to_string());
    }
    let mmap = flags.has("mmap");
    for path in &flags.positional {
        let stats = if mmap {
            TraceStats::load_mmap(path)
        } else {
            TraceStats::load(path)
        }
        .map_err(|e| format!("cannot read {path}: {e}"))?;
        write_stdout(&format!("== {path}\n{stats}\n"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_record_and_replay(dir: &Path, policy: &str, format: &str) -> (String, String) {
        let record_args: Vec<String> = [
            "record",
            "--out",
            dir.to_str().unwrap(),
            "--jobs",
            "6",
            "--policy",
            policy,
            "--format",
            format,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run_trace_command(&record_args).unwrap();
        let trace = WorkloadTrace::load(dir.join("workload.trace")).unwrap();
        let sim = replay_config(&trace);
        let factory = make_factory(policy, trace.meta.sim_seed).unwrap();
        let digest = outcome_digest(&run_simulation(&sim, trace.jobs.clone(), factory.as_ref()));
        let factory2 = make_factory(policy, trace.meta.sim_seed).unwrap();
        let digest2 = outcome_digest(&run_simulation(&sim, trace.jobs, factory2.as_ref()));
        (digest, digest2)
    }

    #[test]
    fn record_then_replay_digests_are_identical_in_both_formats() {
        let dir = std::env::temp_dir().join(format!("grass-trace-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut digests = Vec::new();
        for format in ["text", "binary", "compressed"] {
            for policy in ["gs", "grass"] {
                let (a, b) = run_record_and_replay(&dir, policy, format);
                assert_eq!(a, b, "digest mismatch for policy {policy} ({format})");
                assert!(a.contains("summary jobs=6"));
                digests.push(a);
            }
            // The stats verb reads both written files, whichever format they are
            // in — and --mmap must not change what it reports.
            let stats_args: Vec<String> = vec![
                "stats".into(),
                dir.join("workload.trace").to_str().unwrap().into(),
                dir.join("execution.trace").to_str().unwrap().into(),
            ];
            run_trace_command(&stats_args).unwrap();
            let mut mmap_args = stats_args.clone();
            mmap_args.insert(1, "--mmap".into());
            run_trace_command(&mmap_args).unwrap();
        }
        // Same seeds, same policy: the digest must not depend on the wire format.
        for pair in digests.chunks(2).skip(1) {
            assert_eq!(digests[0], pair[0]);
            assert_eq!(digests[1], pair[1]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn convert_round_trips_both_stream_kinds() {
        let dir = std::env::temp_dir().join(format!("grass-trace-conv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run_record_and_replay(&dir, "gs", "binary");
        for name in ["workload.trace", "execution.trace"] {
            let binary = dir.join(name);
            let text = dir.join(format!("{name}.txt"));
            let back = dir.join(format!("{name}.bin"));
            let args = |input: &Path, output: &Path, fmt: &str| -> Vec<String> {
                vec![
                    "convert".into(),
                    input.to_str().unwrap().into(),
                    output.to_str().unwrap().into(),
                    "--format".into(),
                    fmt.into(),
                ]
            };
            run_trace_command(&args(&binary, &text, "text")).unwrap();
            run_trace_command(&args(&text, &back, "binary")).unwrap();
            // Canonical encodings: binary -> text -> binary is byte-identical.
            assert_eq!(
                std::fs::read(&binary).unwrap(),
                std::fs::read(&back).unwrap(),
                "{name}"
            );
            assert_ne!(
                std::fs::read(&binary).unwrap(),
                std::fs::read(&text).unwrap()
            );
            // Same canonical round trip through the compressed format.
            let comp = dir.join(format!("{name}.v3"));
            let back_v3 = dir.join(format!("{name}.bin2"));
            run_trace_command(&args(&binary, &comp, "compressed")).unwrap();
            run_trace_command(&args(&comp, &back_v3, "binary")).unwrap();
            assert_eq!(
                std::fs::read(&binary).unwrap(),
                std::fs::read(&back_v3).unwrap(),
                "{name} via compressed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gen_matches_record_byte_for_byte_and_streams_through_convert() {
        let dir = std::env::temp_dir().join(format!("grass-trace-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let arg = |s: &str| s.to_string();
        for format in ["text", "binary", "compressed"] {
            // record writes workload.trace into a directory; gen writes one file.
            let rec_dir = dir.join(format!("rec-{format}"));
            run_trace_command(&[
                arg("record"),
                arg("--out"),
                rec_dir.to_str().unwrap().into(),
                arg("--jobs"),
                arg("9"),
                arg("--policy"),
                arg("gs"),
                arg("--format"),
                arg(format),
            ])
            .unwrap();
            let gen_path = dir.join(format!("gen-{format}.trace"));
            run_trace_command(&[
                arg("gen"),
                arg("--out"),
                gen_path.to_str().unwrap().into(),
                arg("--jobs"),
                arg("9"),
                arg("--seed"),
                arg("7"), // record's --gen-seed default
                arg("--policy"),
                arg("gs"),
                arg("--format"),
                arg(format),
            ])
            .unwrap();
            assert_eq!(
                std::fs::read(rec_dir.join("workload.trace")).unwrap(),
                std::fs::read(&gen_path).unwrap(),
                "gen differs from record's workload.trace ({format})"
            );

            // The generated trace flows through the streamed convert and stats.
            let other = if format == "text" { "binary" } else { "text" };
            let conv = dir.join(format!("gen-{format}.{other}.trace"));
            let back = dir.join(format!("gen-{format}.back.trace"));
            run_trace_command(&[
                arg("convert"),
                gen_path.to_str().unwrap().into(),
                conv.to_str().unwrap().into(),
                arg("--format"),
                arg(other),
            ])
            .unwrap();
            run_trace_command(&[
                arg("convert"),
                conv.to_str().unwrap().into(),
                back.to_str().unwrap().into(),
                arg("--format"),
                arg(format),
            ])
            .unwrap();
            assert_eq!(
                std::fs::read(&gen_path).unwrap(),
                std::fs::read(&back).unwrap(),
                "streamed convert round trip is not canonical ({format})"
            );
            let stats = grass_trace::TraceStats::load(&gen_path).unwrap();
            assert_eq!(stats.jobs, 9);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_conversions_leave_no_partial_output() {
        let dir = std::env::temp_dir().join(format!("grass-trace-convfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An execution stream truncated mid-record: streaming convert fails part
        // way through, after some records were already written. The output file
        // must be removed — a partial execution trace has no trailing count
        // check and would pass a later decode as a shorter, valid-looking trace.
        let input = dir.join("truncated.trace");
        std::fs::write(
            &input,
            b"grass-trace 1 execution\n\
              meta sim_seed=0 policy=GS machines=1 slots_per_machine=1\n\
              arrive t=0 job=1\n\
              arrive t=1 job\n",
        )
        .unwrap();
        let output = dir.join("out.trace");
        let err = run_trace_command(&[
            "convert".into(),
            input.to_str().unwrap().into(),
            output.to_str().unwrap().into(),
            "--format".into(),
            "binary".into(),
        ])
        .unwrap_err();
        assert!(err.contains("cannot convert"), "{err}");
        assert!(!output.exists(), "partial output left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_invocations_are_rejected_with_messages() {
        let err = run_trace_command(&["warp".to_string()]).unwrap_err();
        assert!(err.contains("unknown trace verb"));
        let err = run_trace_command(&[]).unwrap_err();
        assert!(err.contains("missing trace verb"));
        let err = run_trace_command(&["replay".to_string()]).unwrap_err();
        assert!(err.contains("exactly one"));
        let err = run_trace_command(&["stats".to_string()]).unwrap_err();
        assert!(err.contains("at least one"));
        let err = run_trace_command(&[
            "record".to_string(),
            "--policy".to_string(),
            "quantum".to_string(),
            "--out".to_string(),
            std::env::temp_dir()
                .join("grass-trace-cli-unreached")
                .to_str()
                .unwrap()
                .to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown policy"));
        // A typo'd flag must error out, not silently record with defaults.
        let err = run_trace_command(&["record".to_string(), "--job".to_string(), "12".to_string()])
            .unwrap_err();
        assert!(err.contains("unknown flag --job"), "{err}");
        // gen shares the strict-flag posture (record's --gen-seed is gen's --seed),
        // and validates the policy before writing anything.
        let err =
            run_trace_command(&["gen".to_string(), "--gen-seed".to_string(), "7".to_string()])
                .unwrap_err();
        assert!(err.contains("unknown flag --gen-seed"), "{err}");
        let err = run_trace_command(&[
            "gen".to_string(),
            "--policy".to_string(),
            "quantum".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
        let err = run_trace_command(&[
            "replay".to_string(),
            "x.trace".to_string(),
            "--sim-seed".to_string(),
            "3".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown flag --sim-seed"), "{err}");
        assert!(make_factory("late", 1).is_ok());
        assert!(make_factory("zzz", 1).is_err());
        // Format handling: unknown labels and a missing --format on convert.
        let err = run_trace_command(&[
            "record".to_string(),
            "--format".to_string(),
            "json".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
        let err = run_trace_command(&[
            "convert".to_string(),
            "a.trace".to_string(),
            "b.trace".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("requires --format"), "{err}");
        let err = run_trace_command(&["convert".to_string(), "only-one".to_string()]).unwrap_err();
        assert!(err.contains("exactly two"), "{err}");
    }
}
