//! The text format plugin (v1): the original line-oriented `key=value` codec
//! behind the [`TraceCodec`] interface.
//!
//! This format is **frozen**: its byte output is pinned by the golden fixtures
//! under `tests/fixtures/`, so any change to record layout or number formatting
//! must instead go into a new format version. The line-level primitives (header
//! grammar, escaping, [`LineBuilder`], [`TraceReader`]/[`crate::TraceWriter`])
//! live in [`crate::codec`]; this module binds the two typed record streams to
//! them.

use std::io::{BufRead, Write};

use grass_core::{ActionKind, Bound, JobId, JobSpec, StageSpec, TaskId, TaskSpec};
use grass_sim::{SimTraceEvent, SlotId};

use crate::codec::{
    write_line, LineBuilder, Record, StreamKind, TraceError, TraceReader, FORMAT_VERSION, MAGIC,
    MAX_LINE_LEN,
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
        let meta_rec = read_meta_record(&mut reader, "workload")?;
        let meta = WorkloadMeta {
            generator_seed: meta_rec.u64("generator_seed")?,
            sim_seed: meta_rec.u64("sim_seed")?,
            policy: meta_rec.text("policy")?,
            profile: meta_rec.text("profile")?,
            machines: meta_rec.usize("machines")?,
            slots_per_machine: meta_rec.usize("slots_per_machine")?,
        };
        let declared_jobs = meta_rec.usize("num_jobs")?;
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
        let meta_rec = read_meta_record(&mut reader, "execution")?;
        let meta = decode_execution_meta(&meta_rec)?;
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

/// Read the mandatory first record of a stream and check its `meta` tag.
fn read_meta_record<R: BufRead>(
    reader: &mut TraceReader<R>,
    stream: &str,
) -> Result<Record, TraceError> {
    let meta_rec = reader.next_record()?.ok_or(TraceError::Parse {
        line: 1,
        message: format!("{stream} trace has no meta record"),
    })?;
    if meta_rec.tag != "meta" {
        return Err(TraceError::Parse {
            line: meta_rec.line,
            message: format!(
                "expected 'meta' as the first record, found '{}'",
                meta_rec.tag
            ),
        });
    }
    Ok(meta_rec)
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
        match self.reader.next_record() {
            Err(e) => Some(Err(e)),
            Ok(Some(rec)) if rec.tag == "job" => {
                self.seen += 1;
                Some(decode_job(&rec))
            }
            Ok(Some(rec)) => Some(Err(TraceError::Parse {
                line: rec.line,
                message: format!("unknown record tag '{}' in workload trace", rec.tag),
            })),
            Ok(None) => {
                if self.seen != self.declared_jobs {
                    Some(Err(TraceError::Parse {
                        line: 0,
                        message: format!(
                            "meta declares {} jobs but the trace contains {}",
                            self.declared_jobs, self.seen
                        ),
                    }))
                } else {
                    None
                }
            }
        }
    }
}

/// Line-at-a-time event puller behind [`ExecutionEvents`].
struct TextExecutionFrames<R: BufRead> {
    reader: TraceReader<R>,
}

impl<R: BufRead> ExecutionFrames for TextExecutionFrames<R> {
    fn next_event(&mut self) -> Option<Result<SimTraceEvent, TraceError>> {
        match self.reader.next_record() {
            Err(e) => Some(Err(e)),
            Ok(Some(rec)) => Some(decode_event(&rec)),
            Ok(None) => None,
        }
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
        .map(|s| format!("{}:{}", crate::codec::escape(&s.name), s.task_count))
        .collect();
    let tasks: Vec<String> = job
        .tasks
        .iter()
        .map(|t| format!("{}:{}", t.stage.value(), t.work))
        .collect();
    let bound = match job.bound {
        Bound::Deadline(d) => format!("deadline:{d}"),
        Bound::Error(e) => format!("error:{e}"),
    };
    LineBuilder::new("job")
        .num("id", job.id.value())
        .num("arrival", job.arrival)
        .num("bound", bound)
        .num("stages", stages.join("|"))
        .num("tasks", tasks.join(","))
        .build()
}

fn decode_job(rec: &Record) -> Result<JobSpec, TraceError> {
    let line = rec.line;
    let err = |message: String| TraceError::Parse { line, message };

    let bound_raw = rec.raw("bound")?;
    let bound = match bound_raw.split_once(':') {
        Some(("deadline", v)) => Bound::Deadline(
            v.parse()
                .map_err(|_| err(format!("bad deadline value '{v}'")))?,
        ),
        Some(("error", v)) => Bound::Error(
            v.parse()
                .map_err(|_| err(format!("bad error value '{v}'")))?,
        ),
        _ => return Err(err(format!("bad bound '{bound_raw}'"))),
    };

    let mut stages = Vec::new();
    let stages_raw = rec.raw("stages")?;
    if stages_raw.is_empty() {
        return Err(err("job has no stages".into()));
    }
    for part in stages_raw.split('|') {
        let (name, count) = part
            .split_once(':')
            .ok_or_else(|| err(format!("bad stage '{part}'")))?;
        stages.push(StageSpec {
            name: crate::codec::unescape(name).map_err(&err)?,
            task_count: count
                .parse()
                .map_err(|_| err(format!("bad stage count '{count}'")))?,
        });
    }

    let mut tasks = Vec::new();
    let tasks_raw = rec.raw("tasks")?;
    if !tasks_raw.is_empty() {
        for part in tasks_raw.split(',') {
            let (stage, work) = part
                .split_once(':')
                .ok_or_else(|| err(format!("bad task '{part}'")))?;
            let stage: u8 = stage
                .parse()
                .map_err(|_| err(format!("bad task stage '{stage}'")))?;
            let work: f64 = work
                .parse()
                .map_err(|_| err(format!("bad task work '{work}'")))?;
            tasks.push(TaskSpec::in_stage(work, stage));
        }
    }

    let job = JobSpec {
        id: JobId(rec.u64("id")?),
        arrival: rec.f64("arrival")?,
        bound,
        stages,
        tasks,
    };
    job.validate()
        .map_err(|e| err(format!("decoded job is invalid: {e}")))?;
    Ok(job)
}

fn encode_execution_meta(meta: &ExecutionMeta) -> String {
    LineBuilder::new("meta")
        .num("sim_seed", meta.sim_seed)
        .text("policy", &meta.policy)
        .num("machines", meta.machines)
        .num("slots_per_machine", meta.slots_per_machine)
        .build()
}

fn decode_execution_meta(rec: &Record) -> Result<ExecutionMeta, TraceError> {
    Ok(ExecutionMeta {
        sim_seed: rec.u64("sim_seed")?,
        policy: rec.text("policy")?,
        machines: rec.usize("machines")?,
        slots_per_machine: rec.usize("slots_per_machine")?,
    })
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

fn parse_slot(rec: &Record, key: &str) -> Result<SlotId, TraceError> {
    let raw = rec.raw(key)?;
    let parsed = raw.split_once('.').and_then(|(m, s)| {
        Some(SlotId {
            machine: m.parse().ok()?,
            slot: s.parse().ok()?,
        })
    });
    parsed.ok_or(TraceError::Parse {
        line: rec.line,
        message: format!("field '{key}' is not a machine.slot pair: '{raw}'"),
    })
}

fn decode_event(rec: &Record) -> Result<SimTraceEvent, TraceError> {
    let time = rec.f64("t")?;
    let job = JobId(rec.u64("job")?);
    let task = |rec: &Record| -> Result<TaskId, TraceError> {
        let raw = rec.u64("task")?;
        u32::try_from(raw)
            .map(TaskId)
            .map_err(|_| TraceError::Parse {
                line: rec.line,
                message: format!("task id {raw} overflows u32"),
            })
    };
    match rec.tag.as_str() {
        "arrive" => Ok(SimTraceEvent::JobArrival { time, job }),
        "decide" => {
            let kind = match rec.raw("kind")? {
                "launch" => ActionKind::Launch,
                "speculate" => ActionKind::Speculate,
                other => {
                    return Err(TraceError::Parse {
                        line: rec.line,
                        message: format!("unknown decision kind '{other}'"),
                    })
                }
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
            copy: rec.u64("copy")?,
            slot: parse_slot(rec, "slot")?,
            duration: rec.f64("dur")?,
            speculative: rec.bool("spec")?,
        }),
        "finish" => Ok(SimTraceEvent::CopyFinish {
            time,
            job,
            task: task(rec)?,
            copy: rec.u64("copy")?,
            task_completed: rec.bool("done")?,
        }),
        "kill" => Ok(SimTraceEvent::CopyKill {
            time,
            job,
            task: task(rec)?,
            copy: rec.u64("copy")?,
            slot: parse_slot(rec, "slot")?,
        }),
        "jobdone" => Ok(SimTraceEvent::JobFinish {
            time,
            job,
            completed_input: rec.usize("input")?,
            completed_total: rec.usize("total")?,
        }),
        other => Err(TraceError::Parse {
            line: rec.line,
            message: format!("unknown event tag '{other}'"),
        }),
    }
}
