//! The text format plugin (v1): the original line-oriented `key=value` codec
//! behind the [`TraceCodec`] interface.
//!
//! This format is **frozen**: its byte output is pinned by the golden fixtures
//! under `tests/fixtures/`, so any change to record layout or number formatting
//! must instead go into a new format version. The line-level primitives (header
//! grammar, escaping, [`Fields`], [`LineBuilder`], [`TraceReader`]) live in
//! [`crate::codec`]; this module binds the two typed record streams to them.

use std::io::{BufRead, Write};

use grass_core::{ActionKind, Bound, JobId, JobSpec, StageSpec, TaskId, TaskSpec};
use grass_sim::{SimTraceEvent, SlotId};

use crate::codec::{
    escape, unescape, write_line, Fields, LineBuilder, StreamKind, TraceError, TraceReader,
    FORMAT_VERSION, MAGIC, MAX_LINE_LEN,
};
use crate::execution::ExecutionMeta;
use crate::format::{TraceCodec, TraceFormat};
use crate::stream::{ExecutionEvents, ExecutionFrames, WorkloadFrames, WorkloadItems};
use crate::workload::WorkloadMeta;

/// The line-codec plugin (format v1).
#[derive(Debug, Default)]
pub struct TextCodec;

impl TextCodec {
    /// A fresh text codec.
    pub fn new() -> Self {
        TextCodec
    }

    fn header(&self, w: &mut dyn Write, kind: StreamKind) -> Result<(), TraceError> {
        writeln!(w, "{MAGIC} {FORMAT_VERSION} {}", kind.label())?;
        Ok(())
    }
}

impl TraceCodec for TextCodec {
    fn format(&self) -> TraceFormat {
        TraceFormat::Text
    }

    fn begin_workload(
        &mut self,
        w: &mut dyn Write,
        meta: &WorkloadMeta,
        num_jobs: usize,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Workload)?;
        write_line(w, &encode_workload_meta(meta, num_jobs), MAX_LINE_LEN)
    }

    fn encode_job(&mut self, w: &mut dyn Write, job: &JobSpec) -> Result<(), TraceError> {
        write_line(w, &encode_job(job), MAX_LINE_LEN)
    }

    fn begin_execution(
        &mut self,
        w: &mut dyn Write,
        meta: &ExecutionMeta,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Execution)?;
        write_line(w, &encode_execution_meta(meta), MAX_LINE_LEN)
    }

    fn encode_event(&mut self, w: &mut dyn Write, event: &SimTraceEvent) -> Result<(), TraceError> {
        write_line(w, &encode_event(event), MAX_LINE_LEN)
    }

    fn finish(&mut self, _w: &mut dyn Write) -> Result<(), TraceError> {
        Ok(())
    }

    fn workload_items<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<WorkloadItems<'r>, TraceError> {
        let mut reader = TraceReader::new(r, Some(StreamKind::Workload))?;
        let (meta, declared_jobs) = read_meta(&mut reader, "workload", |rec| {
            let meta = WorkloadMeta {
                generator_seed: rec.num("generator_seed")?,
                sim_seed: rec.num("sim_seed")?,
                policy: rec.text("policy")?,
                profile: rec.text("profile")?,
                machines: rec.num("machines")?,
                slots_per_machine: rec.num("slots_per_machine")?,
            };
            Ok((meta, rec.num("num_jobs")?))
        })?;
        Ok(WorkloadItems::from_parts(
            TraceFormat::Text,
            meta,
            declared_jobs,
            Box::new(TextWorkloadFrames {
                reader,
                declared_jobs,
                seen: 0,
            }),
        ))
    }

    fn execution_events<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<ExecutionEvents<'r>, TraceError> {
        let mut reader = TraceReader::new(r, Some(StreamKind::Execution))?;
        let meta = read_meta(&mut reader, "execution", |rec| {
            Ok(ExecutionMeta {
                sim_seed: rec.num("sim_seed")?,
                policy: rec.text("policy")?,
                machines: rec.num("machines")?,
                slots_per_machine: rec.num("slots_per_machine")?,
            })
        })?;
        Ok(ExecutionEvents::from_parts(
            TraceFormat::Text,
            meta,
            Box::new(TextExecutionFrames { reader }),
        ))
    }

    fn peek_kind(&mut self, r: &mut dyn BufRead) -> Result<StreamKind, TraceError> {
        Ok(TraceReader::new(r, None)?.kind())
    }
}

/// Read and decode the mandatory first record of a stream, which must be tagged
/// `meta`.
fn read_meta<R: BufRead, T>(
    reader: &mut TraceReader<R>,
    stream: &str,
    decode: impl FnOnce(&Fields<'_>) -> Result<T, String>,
) -> Result<T, TraceError> {
    let meta = reader.next_record(|rec| match rec.tag {
        "meta" => decode(rec),
        tag => Err(format!(
            "expected `meta` as the first record, found `{tag}`"
        )),
    })?;
    meta.ok_or_else(|| TraceError::Parse {
        line: 1,
        message: format!("{stream} trace has no meta record"),
    })
}

/// Line-at-a-time job puller behind [`WorkloadItems`]: decodes one `job` record
/// per pull, and enforces the meta's declared job count at end of stream.
struct TextWorkloadFrames<R: BufRead> {
    reader: TraceReader<R>,
    declared_jobs: usize,
    seen: usize,
}

impl<R: BufRead> WorkloadFrames for TextWorkloadFrames<R> {
    fn next_job(&mut self) -> Option<Result<JobSpec, TraceError>> {
        let next = self.reader.next_record(|rec| match rec.tag {
            "job" => decode_job(rec),
            tag => Err(format!("unknown record tag `{tag}` in workload trace")),
        });
        match next {
            Ok(Some(job)) => {
                self.seen += 1;
                Some(Ok(job))
            }
            Ok(None) if self.seen != self.declared_jobs => Some(Err(TraceError::Parse {
                line: 0,
                message: format!(
                    "meta declares {} jobs but the trace contains {}",
                    self.declared_jobs, self.seen
                ),
            })),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Line-at-a-time event puller behind [`ExecutionEvents`].
struct TextExecutionFrames<R: BufRead> {
    reader: TraceReader<R>,
}

impl<R: BufRead> ExecutionFrames for TextExecutionFrames<R> {
    fn next_event(&mut self) -> Option<Result<SimTraceEvent, TraceError>> {
        self.reader.next_record(decode_event).transpose()
    }
}

/// Encode the workload meta record (field order is frozen, v1).
fn encode_workload_meta(meta: &WorkloadMeta, num_jobs: usize) -> String {
    LineBuilder::new("meta")
        .num("generator_seed", meta.generator_seed)
        .num("sim_seed", meta.sim_seed)
        .text("policy", &meta.policy)
        .text("profile", &meta.profile)
        .num("machines", meta.machines)
        .num("slots_per_machine", meta.slots_per_machine)
        .num("num_jobs", num_jobs)
        .build()
}

/// Encode one job as a single record line. Stages are `name:count` pairs joined by
/// `|`; tasks are `stage:work` pairs joined by `,` (fully general: stage membership
/// is explicit per task, not inferred from ordering).
fn encode_job(job: &JobSpec) -> String {
    let stages: Vec<String> = job
        .stages
        .iter()
        .map(|s| format!("{}:{}", escape(&s.name), s.task_count))
        .collect();
    let tasks: Vec<String> = job
        .tasks
        .iter()
        .map(|t| format!("{}:{}", t.stage.value(), t.work))
        .collect();
    LineBuilder::new("job")
        .num("id", job.id.value())
        .num("arrival", job.arrival)
        .num("bound", bound_text(job.bound))
        .num("stages", stages.join("|"))
        .num("tasks", tasks.join(","))
        .build()
}

fn decode_job(rec: &Fields<'_>) -> Result<JobSpec, String> {
    let mut stages = Vec::new();
    let stages_raw = rec.raw("stages")?;
    if stages_raw.is_empty() {
        return Err("job has no stages".into());
    }
    for part in stages_raw.split('|') {
        let (name, count) = part
            .split_once(':')
            .ok_or_else(|| format!("bad stage `{part}`"))?;
        stages.push(StageSpec {
            name: unescape(name)?,
            task_count: count
                .parse()
                .map_err(|_| format!("bad stage count `{count}`"))?,
        });
    }

    let mut tasks = Vec::new();
    let tasks_raw = rec.raw("tasks")?;
    if !tasks_raw.is_empty() {
        for part in tasks_raw.split(',') {
            let (stage, work) = part
                .split_once(':')
                .ok_or_else(|| format!("bad task `{part}`"))?;
            let stage: u8 = stage
                .parse()
                .map_err(|_| format!("bad task stage `{stage}`"))?;
            let work: f64 = work
                .parse()
                .map_err(|_| format!("bad task work `{work}`"))?;
            tasks.push(TaskSpec::in_stage(work, stage));
        }
    }

    let job = JobSpec {
        id: JobId(rec.num("id")?),
        arrival: rec.num("arrival")?,
        bound: parse_bound(rec.raw("bound")?)?,
        stages,
        tasks,
    };
    job.validate()
        .map_err(|e| format!("decoded job is invalid: {e}"))?;
    Ok(job)
}

/// A job's bound as text `job` records and sweep cell payloads write it:
/// `deadline:<seconds>` or `error:<fraction>`.
pub fn bound_text(bound: Bound) -> String {
    match bound {
        Bound::Deadline(d) => format!("deadline:{d}"),
        Bound::Error(e) => format!("error:{e}"),
    }
}

/// Invert [`bound_text`].
pub fn parse_bound(raw: &str) -> Result<Bound, String> {
    let value = match raw.split_once(':') {
        Some(("deadline", v)) => v.parse().map(Bound::Deadline),
        Some(("error", v)) => v.parse().map(Bound::Error),
        _ => return Err(format!("bad bound `{raw}`")),
    };
    value.map_err(|e| format!("bad bound `{raw}`: {e}"))
}

fn encode_execution_meta(meta: &ExecutionMeta) -> String {
    LineBuilder::new("meta")
        .num("sim_seed", meta.sim_seed)
        .text("policy", &meta.policy)
        .num("machines", meta.machines)
        .num("slots_per_machine", meta.slots_per_machine)
        .build()
}

/// Encode one simulator event as a record line (tag = the event's kind label).
fn encode_event(event: &SimTraceEvent) -> String {
    let base = LineBuilder::new(event.kind_label())
        .num("t", event.time())
        .num("job", event.job().value());
    match *event {
        SimTraceEvent::JobArrival { .. } => base.build(),
        SimTraceEvent::Decision { task, kind, .. } => base
            .num("task", task.0)
            .num(
                "kind",
                match kind {
                    ActionKind::Launch => "launch",
                    ActionKind::Speculate => "speculate",
                },
            )
            .build(),
        SimTraceEvent::CopyLaunch {
            task,
            copy,
            slot,
            duration,
            speculative,
            ..
        } => base
            .num("task", task.0)
            .num("copy", copy)
            .num("slot", format_slot(slot))
            .num("dur", duration)
            .flag("spec", speculative)
            .build(),
        SimTraceEvent::CopyFinish {
            task,
            copy,
            task_completed,
            ..
        } => base
            .num("task", task.0)
            .num("copy", copy)
            .flag("done", task_completed)
            .build(),
        SimTraceEvent::CopyKill {
            task, copy, slot, ..
        } => base
            .num("task", task.0)
            .num("copy", copy)
            .num("slot", format_slot(slot))
            .build(),
        SimTraceEvent::JobFinish {
            completed_input,
            completed_total,
            ..
        } => base
            .num("input", completed_input)
            .num("total", completed_total)
            .build(),
    }
}

fn format_slot(slot: SlotId) -> String {
    format!("{}.{}", slot.machine, slot.slot)
}

fn parse_slot(rec: &Fields<'_>, key: &str) -> Result<SlotId, String> {
    let raw = rec.raw(key)?;
    let parsed = raw.split_once('.').and_then(|(m, s)| {
        Some(SlotId {
            machine: m.parse().ok()?,
            slot: s.parse().ok()?,
        })
    });
    parsed.ok_or_else(|| format!("field `{key}` is not a machine.slot pair: `{raw}`"))
}

fn decode_event(rec: &Fields<'_>) -> Result<SimTraceEvent, String> {
    let time = rec.num("t")?;
    let job = JobId(rec.num("job")?);
    let task = |rec: &Fields<'_>| -> Result<TaskId, String> {
        let raw: u64 = rec.num("task")?;
        u32::try_from(raw)
            .map(TaskId)
            .map_err(|_| format!("task id {raw} overflows u32"))
    };
    match rec.tag {
        "arrive" => Ok(SimTraceEvent::JobArrival { time, job }),
        "decide" => {
            let kind = match rec.raw("kind")? {
                "launch" => ActionKind::Launch,
                "speculate" => ActionKind::Speculate,
                other => return Err(format!("unknown decision kind `{other}`")),
            };
            Ok(SimTraceEvent::Decision {
                time,
                job,
                task: task(rec)?,
                kind,
            })
        }
        "launch" => Ok(SimTraceEvent::CopyLaunch {
            time,
            job,
            task: task(rec)?,
            copy: rec.num("copy")?,
            slot: parse_slot(rec, "slot")?,
            duration: rec.num("dur")?,
            speculative: rec.flag("spec")?,
        }),
        "finish" => Ok(SimTraceEvent::CopyFinish {
            time,
            job,
            task: task(rec)?,
            copy: rec.num("copy")?,
            task_completed: rec.flag("done")?,
        }),
        "kill" => Ok(SimTraceEvent::CopyKill {
            time,
            job,
            task: task(rec)?,
            copy: rec.num("copy")?,
            slot: parse_slot(rec, "slot")?,
        }),
        "jobdone" => Ok(SimTraceEvent::JobFinish {
            time,
            job,
            completed_input: rec.num("input")?,
            completed_total: rec.num("total")?,
        }),
        other => Err(format!("unknown event tag `{other}`")),
    }
}
