//! `trace-pipeline`: `JobGen` → `WorkloadTraceSink` to a v2 file →
//! `TraceStats` → `convert_stream` v2→v3 → `TraceStats` on v3 →
//! `convert_stream` v3→v2 (byte-identical to the first file) →
//! `open_workload_source` and a full job pull. No simulation.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use grass_core::JobSpec;
use grass_trace::{
    convert_stream, open_workload_source, StreamKind, TraceFormat, TraceStats, WorkloadMeta,
    WorkloadTraceSink,
};
use grass_workload::{BoundSpec, Framework, JobGen, JobSource, TraceProfile, WorkloadConfig};

use crate::probe::Recorder;
use crate::{now, Fnv64, Iteration, Metrics, Workload, MIB};

#[derive(Debug, Clone, Copy)]
pub struct TracePipeline {
    pub jobs: usize,
}

impl TracePipeline {
    pub const FULL: TracePipeline = TracePipeline { jobs: 20_000 };

    fn config(&self, jobs: usize) -> WorkloadConfig {
        WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(jobs)
            .with_bound(BoundSpec::paper_errors())
    }
}

pub struct PipelineInput {
    seed: u64,
    dir: PathBuf,
}

impl PipelineInput {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

fn meta(seed: u64, config: &WorkloadConfig) -> WorkloadMeta {
    WorkloadMeta {
        generator_seed: seed,
        sim_seed: seed,
        policy: "GRASS".to_string(),
        profile: config.profile.label(),
        machines: 20,
        slots_per_machine: 4,
    }
}

/// Stream `config`'s jobs into a v2 file. Returns (tasks, gen time, encode
/// time); the split is measured only when `split` is set, since timing every
/// `next()` and `push()` costs two clock reads per job.
fn gen_encode(
    config: &WorkloadConfig,
    seed: u64,
    path: &Path,
    split: bool,
) -> Result<(usize, Duration, Duration), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut sink = WorkloadTraceSink::with_format(
        BufWriter::new(file),
        &meta(seed, config),
        config.num_jobs,
        TraceFormat::Binary,
    )
    .map_err(|e| e.to_string())?;
    let mut jobs = JobGen::new(*config, seed);
    let (mut tasks, mut gen, mut encode) = (0, Duration::ZERO, Duration::ZERO);
    loop {
        let t0 = split.then(now);
        let Some(job) = jobs.next() else { break };
        let t1 = split.then(now);
        tasks += job.total_tasks();
        sink.push(&job).map_err(|e| e.to_string())?;
        if let (Some(t0), Some(t1)) = (t0, t1) {
            gen += t1 - t0;
            encode += t1.elapsed();
        }
    }
    let t = now();
    sink.finish().map_err(|e| e.to_string())?;
    encode += t.elapsed();
    Ok((tasks, gen, encode))
}

fn convert(
    from: &Path,
    to: &Path,
    format: TraceFormat,
) -> Result<(TraceFormat, StreamKind), String> {
    let r = BufReader::new(File::open(from).map_err(|e| format!("open {}: {e}", from.display()))?);
    let w = BufWriter::new(File::create(to).map_err(|e| format!("create {}: {e}", to.display()))?);
    convert_stream(r, w, format).map_err(|e| e.to_string())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Length and FNV-1a 64 of a file, streamed; (0, "") if it cannot be read.
fn file_fnv64(path: &Path) -> (u64, String) {
    let Ok(mut file) = File::open(path).map(BufReader::new) else {
        return (0, String::new());
    };
    let mut hasher = Fnv64::default();
    let mut len = 0;
    loop {
        let chunk = match file.fill_buf() {
            Ok([]) | Err(_) => break,
            Ok(chunk) => chunk,
        };
        hasher.write(chunk);
        let n = chunk.len();
        len += n as u64;
        file.consume(n);
    }
    (len, hasher.hex())
}

/// Everything a pipeline run produced, for the checks after the clock stops.
struct Stages {
    tasks: usize,
    gen: Duration,
    encode: Duration,
    stats_v2: TraceStats,
    stats_v3: TraceStats,
    to_v3: (TraceFormat, StreamKind),
    to_v2: (TraceFormat, StreamKind),
    decoded: Vec<JobSpec>,
}

/// A finished stage: (span name, start, end).
type Lap = (&'static str, Instant, Instant);

fn run_stages(
    config: &WorkloadConfig,
    input: &PipelineInput,
    split: bool,
    laps: &mut Vec<Lap>,
) -> Result<Stages, String> {
    let mut t = now();
    let mut lap = |name: &'static str| {
        let now = now();
        laps.push((name, t, now));
        t = now;
    };
    let (v2, v3, back) = (input.path(V2), input.path(V3), input.path(BACK));
    let (tasks, gen, encode) = gen_encode(config, input.seed, &v2, split)?;
    lap("trace-pipeline.gen_encode");
    let stats_v2 = TraceStats::load(&v2).map_err(|e| format!("stats v2: {e}"))?;
    lap("trace.stats_s.v2");
    let to_v3 = convert(&v2, &v3, TraceFormat::Compressed)?;
    lap("trace.convert_s.v2_v3");
    let stats_v3 = TraceStats::load(&v3).map_err(|e| format!("stats v3: {e}"))?;
    lap("trace.stats_s.v3");
    let to_v2 = convert(&v3, &back, TraceFormat::Binary)?;
    lap("trace.convert_s.v3_v2");
    let (_meta, source) = open_workload_source(&v2).map_err(|e| format!("open v2: {e}"))?;
    let decoded = source.jobs(0);
    lap("trace.decode_s");
    Ok(Stages {
        tasks,
        gen,
        encode,
        stats_v2,
        stats_v3,
        to_v3,
        to_v2,
        decoded,
    })
}

const V2: &str = "trace-pipeline.v2.trace";
const V3: &str = "trace-pipeline.v3.trace";
const BACK: &str = "trace-pipeline.v3v2.trace";

impl Workload for TracePipeline {
    type Input = PipelineInput;

    fn jobs(&self) -> usize {
        self.jobs
    }

    /// Prepares the output directory and warms the write and read paths with
    /// a 1/16-size generate → encode → stats pass.
    fn setup(&self, seed: u64, out: &Path) -> Result<(PipelineInput, Metrics), String> {
        let input = PipelineInput {
            seed,
            dir: out.to_path_buf(),
        };
        let warm = input.path("trace-pipeline.warmup.trace");
        gen_encode(&self.config((self.jobs / 16).max(1)), seed, &warm, false)?;
        TraceStats::load(&warm).map_err(|e| e.to_string())?;
        Ok((input, Metrics::default()))
    }

    fn run(&self, input: &PipelineInput, recorder: Option<&mut Recorder>) -> Iteration {
        let mut it = Iteration::default();
        let n = self.jobs;
        let mut laps = Vec::new();
        let started = now();
        let stages = run_stages(&self.config(n), input, recorder.is_some(), &mut laps);
        it.wall_s = started.elapsed().as_secs_f64();
        let st = match stages {
            Ok(st) => st,
            Err(e) => {
                it.tally(6, 6, || format!("pipeline stage failed: {e}"));
                return it;
            }
        };

        // Checks, one per stage, after the clock stopped.
        let decoded_tasks: usize = st.decoded.iter().map(JobSpec::total_tasks).sum();
        let decoded_jobs = st.decoded.len();
        drop(st.decoded);
        let (v2_len, v2_fnv) = file_fnv64(&input.path(V2));
        let (back_len, back_fnv) = file_fnv64(&input.path(BACK));
        let v3_len = file_len(&input.path(V3));
        let (s2, s3) = (&st.stats_v2, &st.stats_v3);
        it.check(
            s2.kind == StreamKind::Workload && s2.jobs == n && s2.tasks == st.tasks,
            || {
                format!(
                    "v2 stats: {} jobs / {} tasks, wrote {n} / {}",
                    s2.jobs, s2.tasks, st.tasks
                )
            },
        );
        it.check(s2.format == TraceFormat::Binary, || {
            format!("v2 file sniffed as {:?}", s2.format)
        });
        it.check(
            st.to_v3 == (TraceFormat::Binary, StreamKind::Workload),
            || format!("v2→v3 read {:?}", st.to_v3),
        );
        it.check(
            s3.format == TraceFormat::Compressed
                && s3.jobs == s2.jobs
                && s3.tasks == s2.tasks
                && s3.total_work.to_bits() == s2.total_work.to_bits()
                && s3.horizon.to_bits() == s2.horizon.to_bits(),
            || format!("v3 stats {s3:?} differ from v2 stats {s2:?}"),
        );
        it.check(
            st.to_v2 == (TraceFormat::Compressed, StreamKind::Workload)
                && (back_len, &back_fnv) == (v2_len, &v2_fnv),
            || format!("v3→v2 is not byte-identical ({back_len} vs {v2_len} bytes)"),
        );
        it.check(decoded_jobs == n && decoded_tasks == st.tasks, || {
            format!("decoded {decoded_jobs} jobs / {decoded_tasks} tasks")
        });

        let written = v2_len + back_len + v3_len;
        let read = 4 * v2_len + 2 * v3_len;
        it.digest = format!(
            "jobs={n} tasks={} v2_bytes={v2_len} v3_bytes={v3_len} v2_fnv={v2_fnv} total_work={}\n",
            st.tasks, s2.total_work,
        );
        let c = &mut it.counts;
        c.set("workload.jobs", n as f64, "count");
        c.set("workload.tasks", st.tasks as f64, "count");
        c.set("trace.encode_mib", written as f64 / MIB, "MiB");
        c.set("trace.decode_mib", read as f64 / MIB, "MiB");

        if let Some(rec) = recorder {
            let l = &mut it.layers;
            l.set("workload.gen_s", st.gen.as_secs_f64(), "s");
            l.set("trace.encode_s", st.encode.as_secs_f64(), "s");
            for &(name, a, b) in &laps {
                rec.record(name, a, b);
                if name.starts_with("trace.") {
                    l.set(name, (b - a).as_secs_f64(), "s");
                }
            }
        }
        it
    }

    fn pinned_digest(&self) -> Option<&'static str> {
        (self.jobs == Self::FULL.jobs).then_some(PINNED_DIGEST)
    }
}

/// FNV-1a 64 of the pipeline digest for [`crate::DEFAULT_SEED`] at [`TracePipeline::FULL`].
pub const PINNED_DIGEST: &str = "aec6974991f56390";
