//! The compact binary format plugin (v2): length-prefixed frames, varint
//! integers, raw-bits floats.
//!
//! Layout:
//!
//! ```text
//! header   := "grass-trace" 0x00 version:u8 kind:u8      (14 bytes)
//! stream   := header frame*
//! frame    := len:varint body                             (len = body length)
//! body     := tag:u8 payload                              (schema fixed per tag)
//! ```
//!
//! Integers are LEB128 varints; `f64`s are their IEEE-754 bits little-endian, so
//! every float round-trips bit-exactly without any formatting or parsing — the
//! property the replay guarantee rests on, and the reason this format is an order
//! of magnitude faster than the text codec. Strings are varint-length-prefixed
//! UTF-8. Booleans are one byte, `0`/`1`.
//!
//! Decoding is strict, mirroring the text codec's posture: a bad magic, an
//! unsupported version, a wrong stream kind, an unknown frame tag, a truncated
//! frame, an oversized frame length, trailing bytes inside a frame, or a
//! job-count mismatch all fail with a [`TraceError`] naming the absolute byte
//! offset.

use std::io::{BufRead, Write};

use grass_core::{ActionKind, Bound, JobId, JobSpec, StageSpec, TaskId, TaskSpec};
use grass_sim::{SimTraceEvent, SlotId};

use crate::codec::{StreamKind, TraceError, BINARY_FORMAT_VERSION, MAGIC};
use crate::execution::ExecutionMeta;
use crate::format::{TraceCodec, TraceFormat};
use crate::stream::{ExecutionEvents, ExecutionFrames, WorkloadFrames, WorkloadItems};
use crate::workload::WorkloadMeta;

/// Byte that follows the shared magic in a binary header (text uses `' '`).
pub(crate) const MAGIC_TERMINATOR: u8 = 0;

/// Upper bound on a single frame's body length. Generously above any real record
/// (the largest are multi-thousand-task job frames, tens of KiB) while keeping a
/// corrupt length prefix from looking like a 16 EiB allocation request.
pub const MAX_FRAME_LEN: u64 = 1 << 28;

/// Stream-kind byte in the binary header.
pub(crate) fn kind_code(kind: StreamKind) -> u8 {
    match kind {
        StreamKind::Workload => 0,
        StreamKind::Execution => 1,
    }
}

// Frame tags. Meta is always the first frame of either stream; the remaining
// tags are stream-specific (job frames in workload streams, event frames in
// execution streams).
const TAG_META: u8 = 0x01;
const TAG_JOB: u8 = 0x02;
const TAG_ARRIVE: u8 = 0x10;
const TAG_DECIDE: u8 = 0x11;
const TAG_LAUNCH: u8 = 0x12;
const TAG_FINISH: u8 = 0x13;
const TAG_KILL: u8 = 0x14;
const TAG_JOBDONE: u8 = 0x15;

pub(crate) fn frame_err(offset: u64, message: impl Into<String>) -> TraceError {
    TraceError::Frame {
        offset,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Encode primitives (append to a frame buffer).
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

// ---------------------------------------------------------------------------
// Frame bodies (shared by the v2 codec and the compressed v3 codec, whose
// blocks carry the same frame schema).
// ---------------------------------------------------------------------------

/// Encode a workload meta frame body (tag included).
pub(crate) fn workload_meta_body(buf: &mut Vec<u8>, meta: &WorkloadMeta, num_jobs: usize) {
    buf.push(TAG_META);
    put_varint(buf, meta.generator_seed);
    put_varint(buf, meta.sim_seed);
    put_str(buf, &meta.policy);
    put_str(buf, &meta.profile);
    put_varint(buf, meta.machines as u64);
    put_varint(buf, meta.slots_per_machine as u64);
    put_varint(buf, num_jobs as u64);
}

/// Encode a job frame body (tag included).
pub(crate) fn job_body(buf: &mut Vec<u8>, job: &JobSpec) {
    buf.push(TAG_JOB);
    put_varint(buf, job.id.value());
    put_f64(buf, job.arrival);
    match job.bound {
        Bound::Deadline(d) => {
            buf.push(0);
            put_f64(buf, d);
        }
        Bound::Error(e) => {
            buf.push(1);
            put_f64(buf, e);
        }
    }
    put_varint(buf, job.stages.len() as u64);
    for stage in &job.stages {
        put_str(buf, &stage.name);
        put_varint(buf, stage.task_count as u64);
    }
    put_varint(buf, job.tasks.len() as u64);
    for task in &job.tasks {
        buf.push(task.stage.value());
        put_f64(buf, task.work);
    }
}

/// Encode an execution meta frame body (tag included).
pub(crate) fn execution_meta_body(buf: &mut Vec<u8>, meta: &ExecutionMeta) {
    buf.push(TAG_META);
    put_varint(buf, meta.sim_seed);
    put_str(buf, &meta.policy);
    put_varint(buf, meta.machines as u64);
    put_varint(buf, meta.slots_per_machine as u64);
}

/// Encode an execution event frame body (tag included).
pub(crate) fn event_body(buf: &mut Vec<u8>, event: &SimTraceEvent) {
    let tag = match *event {
        SimTraceEvent::JobArrival { .. } => TAG_ARRIVE,
        SimTraceEvent::Decision { .. } => TAG_DECIDE,
        SimTraceEvent::CopyLaunch { .. } => TAG_LAUNCH,
        SimTraceEvent::CopyFinish { .. } => TAG_FINISH,
        SimTraceEvent::CopyKill { .. } => TAG_KILL,
        SimTraceEvent::JobFinish { .. } => TAG_JOBDONE,
    };
    buf.push(tag);
    put_f64(buf, event.time());
    put_varint(buf, event.job().value());
    match *event {
        SimTraceEvent::JobArrival { .. } => {}
        SimTraceEvent::Decision { task, kind, .. } => {
            put_varint(buf, u64::from(task.0));
            buf.push(match kind {
                ActionKind::Launch => 0,
                ActionKind::Speculate => 1,
            });
        }
        SimTraceEvent::CopyLaunch {
            task,
            copy,
            slot,
            duration,
            speculative,
            ..
        } => {
            put_varint(buf, u64::from(task.0));
            put_varint(buf, copy);
            put_varint(buf, slot.machine as u64);
            put_varint(buf, slot.slot as u64);
            put_f64(buf, duration);
            put_bool(buf, speculative);
        }
        SimTraceEvent::CopyFinish {
            task,
            copy,
            task_completed,
            ..
        } => {
            put_varint(buf, u64::from(task.0));
            put_varint(buf, copy);
            put_bool(buf, task_completed);
        }
        SimTraceEvent::CopyKill {
            task, copy, slot, ..
        } => {
            put_varint(buf, u64::from(task.0));
            put_varint(buf, copy);
            put_varint(buf, slot.machine as u64);
            put_varint(buf, slot.slot as u64);
        }
        SimTraceEvent::JobFinish {
            completed_input,
            completed_total,
            ..
        } => {
            put_varint(buf, completed_input as u64);
            put_varint(buf, completed_total as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Decode primitives.
// ---------------------------------------------------------------------------

/// Reads frames off a stream, tracking the absolute byte offset for error
/// reporting. Owns its reader so streaming iterators can carry it. Shared with
/// the compressed (v3) codec, which reuses the varint/offset machinery for its
/// block framing.
pub(crate) struct FrameReader<R> {
    r: R,
    pub(crate) offset: u64,
    /// Body of the frame last returned by [`FrameSource::next_frame`].
    frame: Vec<u8>,
}

impl<R: BufRead> FrameReader<R> {
    pub(crate) fn new(r: R) -> Self {
        FrameReader {
            r,
            offset: 0,
            frame: Vec::new(),
        }
    }

    pub(crate) fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TraceError> {
        let at = self.offset;
        self.r.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                frame_err(
                    at,
                    format!("truncated trace: expected {} more bytes", buf.len()),
                )
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Validate the 14-byte binary header, returning the declared stream kind.
    fn read_header(&mut self) -> Result<StreamKind, TraceError> {
        self.read_header_version(BINARY_FORMAT_VERSION)
    }

    /// Validate a 14-byte binary-framing header against `expected_version`
    /// (shared by the v2 and v3 codecs, which differ only in the version byte).
    pub(crate) fn read_header_version(
        &mut self,
        expected_version: u32,
    ) -> Result<StreamKind, TraceError> {
        let mut header = [0u8; 14];
        self.r.read_exact(&mut header).map_err(|e| {
            // A too-short stream is "not a binary trace"; a genuine I/O failure
            // must surface as such, not masquerade as corruption.
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::BadMagic
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += header.len() as u64;
        // grass: allow(panicky-lib, "constant offsets into the fixed 14-byte header array")
        if &header[..MAGIC.len()] != MAGIC.as_bytes() || header[MAGIC.len()] != MAGIC_TERMINATOR {
            return Err(TraceError::BadMagic);
        }
        // grass: allow(panicky-lib, "constant offsets into the fixed 14-byte header array")
        let version = header[12];
        if u32::from(version) != expected_version {
            return Err(TraceError::UnsupportedVersion(u32::from(version)));
        }
        // grass: allow(panicky-lib, "constant offsets into the fixed 14-byte header array")
        match header[13] {
            0 => Ok(StreamKind::Workload),
            1 => Ok(StreamKind::Execution),
            other => Err(frame_err(13, format!("unknown stream-kind byte {other}"))),
        }
    }

    /// Whether the underlying reader is exactly at end of stream.
    pub(crate) fn at_eof(&mut self) -> Result<bool, TraceError> {
        Ok(self.r.fill_buf()?.is_empty())
    }

    /// Read the next frame's length prefix, or `None` at a clean end of stream.
    fn next_frame_len(&mut self) -> Result<Option<u64>, TraceError> {
        if self.at_eof()? {
            return Ok(None);
        }
        let start = self.offset;
        let len = self.read_varint()?;
        if len > MAX_FRAME_LEN {
            return Err(frame_err(
                start,
                format!("frame length {len} overflows the {MAX_FRAME_LEN}-byte cap"),
            ));
        }
        Ok(Some(len))
    }

    pub(crate) fn read_varint(&mut self) -> Result<u64, TraceError> {
        let start = self.offset;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let mut byte = [0u8; 1];
            self.read_exact(&mut byte)?;
            let [byte] = byte;
            if shift == 63 && byte > 1 {
                return Err(frame_err(start, "varint overflows 64 bits"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(frame_err(start, "varint longer than 10 bytes"));
            }
        }
    }
}

/// The one frame walker under both framed formats: the v2 [`FrameReader`]
/// reads frames straight off the stream, the v3 `BlockReader` serves them out
/// of decompressed blocks. The meta open and the job and event pullers are
/// written once on top of it, so v2 and v3 decode identically past framing.
pub(crate) trait FrameSource {
    /// The next frame body and the stream offset it starts at, or `None` at a
    /// clean end of stream.
    fn next_frame(&mut self) -> Result<Option<(&[u8], u64)>, TraceError>;

    /// File offset of the next unread byte; anchors the missing-meta and
    /// job-count diagnostics.
    fn file_offset(&self) -> u64;
}

impl<R: BufRead> FrameSource for FrameReader<R> {
    fn next_frame(&mut self) -> Result<Option<(&[u8], u64)>, TraceError> {
        let Some(len) = self.next_frame_len()? else {
            return Ok(None);
        };
        let start = self.offset;
        self.frame.clear();
        self.frame.resize(len as usize, 0);
        self.r.read_exact(&mut self.frame).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                frame_err(
                    start,
                    format!(
                        "truncated frame: length prefix declares {len} bytes past end of trace"
                    ),
                )
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += len;
        Ok(Some((&self.frame, start)))
    }

    fn file_offset(&self) -> u64 {
        self.offset
    }
}

/// Cursor over one frame's body; every error names the absolute byte offset of
/// the offending field. Shared by the v2 and v3 decode paths.
pub(crate) struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
}

impl<'a> Body<'a> {
    pub(crate) fn new(buf: &'a [u8], base: u64) -> Self {
        Body { buf, pos: 0, base }
    }

    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Position within the frame buffer (bytes consumed so far).
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        // `n` comes from untrusted varints (string/array lengths), so compare
        // against the remaining bytes rather than computing `pos + n`, which a
        // corrupt near-usize::MAX length would overflow into a panic.
        if n > self.buf.len() - self.pos {
            return Err(frame_err(
                self.offset(),
                format!("frame ends inside {what} ({n} bytes needed)"),
            ));
        }
        // grass: allow(panicky-lib, "range proven in bounds by the remaining-bytes check above")
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn take_u8(&mut self, what: &str) -> Result<u8, TraceError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    pub(crate) fn take_bool(&mut self, what: &str) -> Result<bool, TraceError> {
        let at = self.offset();
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(frame_err(at, format!("{what} is not a boolean: {other}"))),
        }
    }

    pub(crate) fn take_f64(&mut self, what: &str) -> Result<f64, TraceError> {
        let at = self.offset();
        let bytes = self.take(8, what)?;
        let bytes: [u8; 8] = bytes
            .try_into()
            .map_err(|_| frame_err(at, format!("{what} is not 8 bytes")))?;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    pub(crate) fn take_varint(&mut self, what: &str) -> Result<u64, TraceError> {
        let start = self.offset();
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8(what)?;
            if shift == 63 && byte > 1 {
                return Err(frame_err(start, format!("{what} varint overflows 64 bits")));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(frame_err(start, format!("{what} varint is too long")));
            }
        }
    }

    pub(crate) fn take_usize(&mut self, what: &str) -> Result<usize, TraceError> {
        let at = self.offset();
        let v = self.take_varint(what)?;
        usize::try_from(v).map_err(|_| frame_err(at, format!("{what} {v} overflows usize")))
    }

    pub(crate) fn take_str(&mut self, what: &str) -> Result<String, TraceError> {
        let len = self.take_usize(what)?;
        let at = self.offset();
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| frame_err(at, format!("{what} is not valid UTF-8")))
    }

    /// A frame must be consumed exactly: trailing bytes mean a schema mismatch.
    pub(crate) fn expect_end(&mut self, what: &str) -> Result<(), TraceError> {
        if self.pos != self.buf.len() {
            return Err(frame_err(
                self.offset(),
                format!(
                    "{} trailing bytes after {what} frame",
                    self.buf.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The codec.
// ---------------------------------------------------------------------------

/// The compact binary plugin (format v2). Holds reusable scratch buffers, so one
/// codec instance encodes or decodes a whole stream without per-record
/// allocation.
#[derive(Debug, Default)]
pub struct BinaryCodec {
    scratch: Vec<u8>,
    frame: Vec<u8>,
}

impl BinaryCodec {
    /// A fresh binary codec.
    pub fn new() -> Self {
        BinaryCodec::default()
    }

    fn header(&self, w: &mut dyn Write, kind: StreamKind) -> Result<(), TraceError> {
        w.write_all(MAGIC.as_bytes())?;
        w.write_all(&[
            MAGIC_TERMINATOR,
            BINARY_FORMAT_VERSION as u8,
            kind_code(kind),
        ])?;
        Ok(())
    }

    /// Write `self.scratch` as one length-prefixed frame.
    fn write_frame(&mut self, w: &mut dyn Write) -> Result<(), TraceError> {
        let len = self.scratch.len() as u64;
        if len > MAX_FRAME_LEN {
            return Err(frame_err(
                0,
                format!("record encodes to {len} bytes, over the {MAX_FRAME_LEN}-byte frame cap"),
            ));
        }
        self.frame.clear();
        put_varint(&mut self.frame, len);
        w.write_all(&self.frame)?;
        w.write_all(&self.scratch)?;
        Ok(())
    }
}

impl TraceCodec for BinaryCodec {
    fn format(&self) -> TraceFormat {
        TraceFormat::Binary
    }

    fn begin_workload(
        &mut self,
        w: &mut dyn Write,
        meta: &WorkloadMeta,
        num_jobs: usize,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Workload)?;
        self.scratch.clear();
        workload_meta_body(&mut self.scratch, meta, num_jobs);
        self.write_frame(w)
    }

    fn encode_job(&mut self, w: &mut dyn Write, job: &JobSpec) -> Result<(), TraceError> {
        self.scratch.clear();
        job_body(&mut self.scratch, job);
        self.write_frame(w)
    }

    fn begin_execution(
        &mut self,
        w: &mut dyn Write,
        meta: &ExecutionMeta,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Execution)?;
        self.scratch.clear();
        execution_meta_body(&mut self.scratch, meta);
        self.write_frame(w)
    }

    fn encode_event(&mut self, w: &mut dyn Write, event: &SimTraceEvent) -> Result<(), TraceError> {
        self.scratch.clear();
        event_body(&mut self.scratch, event);
        self.write_frame(w)
    }

    fn finish(&mut self, _w: &mut dyn Write) -> Result<(), TraceError> {
        Ok(())
    }

    fn workload_items<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<WorkloadItems<'r>, TraceError> {
        let mut fr = FrameReader::new(r);
        let kind = fr.read_header()?;
        framed_workload_items(TraceFormat::Binary, kind, fr)
    }

    fn execution_events<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<ExecutionEvents<'r>, TraceError> {
        let mut fr = FrameReader::new(r);
        let kind = fr.read_header()?;
        framed_execution_events(TraceFormat::Binary, kind, fr)
    }

    fn peek_kind(&mut self, r: &mut dyn BufRead) -> Result<StreamKind, TraceError> {
        FrameReader::new(r).read_header()
    }
}

// ---------------------------------------------------------------------------
// Framed decode (shared by the v2 and v3 codecs through `FrameSource`).
// ---------------------------------------------------------------------------

fn expect_kind(expected: StreamKind, found: StreamKind) -> Result<(), TraceError> {
    if found == expected {
        Ok(())
    } else {
        Err(TraceError::WrongStream { expected, found })
    }
}

/// Decode one whole frame body with `decode`: trailing bytes after the
/// record are a schema mismatch, not silently ignored. (Written with
/// `and_then`: an early-return `?` here measured ~10% slower on event decode.)
fn decode_frame<T>(
    frame: &[u8],
    base: u64,
    what: &str,
    decode: impl FnOnce(&mut Body<'_>) -> Result<T, TraceError>,
) -> Result<T, TraceError> {
    let mut body = Body::new(frame, base);
    decode(&mut body).and_then(|record| {
        body.expect_end(what)?;
        Ok(record)
    })
}

/// Read the mandatory first frame of a stream and decode it as a meta frame.
fn read_meta<T>(
    frames: &mut impl FrameSource,
    stream: &str,
    decode: impl FnOnce(&mut Body<'_>) -> Result<T, TraceError>,
) -> Result<T, TraceError> {
    let at = frames.file_offset();
    let Some((frame, base)) = frames.next_frame()? else {
        return Err(frame_err(at, format!("{stream} trace has no meta frame")));
    };
    decode_frame(frame, base, "meta", |body| {
        let tag = body.take_u8("frame tag")?;
        if tag != TAG_META {
            return Err(frame_err(
                base,
                format!("expected a meta frame first, found tag {tag:#04x}"),
            ));
        }
        decode(body)
    })
}

/// Open the workload decoder over a framed stream whose header declared `kind`.
pub(crate) fn framed_workload_items<'r>(
    format: TraceFormat,
    kind: StreamKind,
    mut frames: impl FrameSource + 'r,
) -> Result<WorkloadItems<'r>, TraceError> {
    expect_kind(StreamKind::Workload, kind)?;
    let (meta, declared_jobs) = read_meta(&mut frames, "workload", |body| {
        let meta = WorkloadMeta {
            generator_seed: body.take_varint("generator_seed")?,
            sim_seed: body.take_varint("sim_seed")?,
            policy: body.take_str("policy")?,
            profile: body.take_str("profile")?,
            machines: body.take_usize("machines")?,
            slots_per_machine: body.take_usize("slots_per_machine")?,
        };
        Ok((meta, body.take_usize("num_jobs")?))
    })?;
    let jobs = JobFrames {
        frames,
        declared_jobs,
        seen: 0,
    };
    Ok(WorkloadItems::from_parts(
        format,
        meta,
        declared_jobs,
        Box::new(jobs),
    ))
}

/// Open the execution decoder over a framed stream whose header declared `kind`.
pub(crate) fn framed_execution_events<'r>(
    format: TraceFormat,
    kind: StreamKind,
    mut frames: impl FrameSource + 'r,
) -> Result<ExecutionEvents<'r>, TraceError> {
    expect_kind(StreamKind::Execution, kind)?;
    let meta = read_meta(&mut frames, "execution", |body| {
        Ok(ExecutionMeta {
            sim_seed: body.take_varint("sim_seed")?,
            policy: body.take_str("policy")?,
            machines: body.take_usize("machines")?,
            slots_per_machine: body.take_usize("slots_per_machine")?,
        })
    })?;
    Ok(ExecutionEvents::from_parts(
        format,
        meta,
        Box::new(EventFrames(frames)),
    ))
}

/// Frame-at-a-time job puller behind [`WorkloadItems`]; enforces the meta's
/// declared job count at end of stream.
struct JobFrames<F> {
    frames: F,
    declared_jobs: usize,
    seen: usize,
}

impl<F: FrameSource> WorkloadFrames for JobFrames<F> {
    fn next_job(&mut self) -> Option<Result<JobSpec, TraceError>> {
        match self.frames.next_frame() {
            Err(e) => Some(Err(e)),
            Ok(Some((frame, base))) => {
                self.seen += 1;
                // The tag check stays out of `decode_job`: with it inside, the
                // compiler stops inlining the per-task reads (~20% slower).
                Some(decode_frame(frame, base, "job", |body| {
                    let tag = body.take_u8("frame tag")?;
                    if tag != TAG_JOB {
                        return Err(frame_err(
                            base,
                            format!("unknown frame tag {tag:#04x} in workload trace"),
                        ));
                    }
                    decode_job(body)
                }))
            }
            Ok(None) if self.seen != self.declared_jobs => Some(Err(frame_err(
                self.frames.file_offset(),
                format!(
                    "meta declares {} jobs but the trace contains {}",
                    self.declared_jobs, self.seen
                ),
            ))),
            Ok(None) => None,
        }
    }
}

/// Frame-at-a-time event puller behind [`ExecutionEvents`].
struct EventFrames<F>(F);

impl<F: FrameSource> ExecutionFrames for EventFrames<F> {
    fn next_event(&mut self) -> Option<Result<SimTraceEvent, TraceError>> {
        let frame = self.0.next_frame().transpose()?;
        Some(frame.and_then(|(frame, base)| decode_frame(frame, base, "event", decode_event)))
    }
}

fn decode_job(body: &mut Body<'_>) -> Result<JobSpec, TraceError> {
    let start = body.offset();
    let id = JobId(body.take_varint("job id")?);
    let arrival = body.take_f64("arrival")?;
    let bound_at = body.offset();
    let bound = match body.take_u8("bound kind")? {
        0 => Bound::Deadline(body.take_f64("deadline")?),
        1 => Bound::Error(body.take_f64("error bound")?),
        other => return Err(frame_err(bound_at, format!("bad bound kind {other}"))),
    };
    let stage_count = body.take_usize("stage count")?;
    let mut stages = Vec::with_capacity(stage_count.min(1 << 16));
    for _ in 0..stage_count {
        stages.push(StageSpec {
            name: body.take_str("stage name")?,
            task_count: body.take_usize("stage task count")?,
        });
    }
    let task_count = body.take_usize("task count")?;
    let mut tasks = Vec::with_capacity(task_count.min(1 << 20));
    for _ in 0..task_count {
        let stage = body.take_u8("task stage")?;
        let work = body.take_f64("task work")?;
        tasks.push(TaskSpec::in_stage(work, stage));
    }
    let job = JobSpec {
        id,
        arrival,
        bound,
        stages,
        tasks,
    };
    job.validate()
        .map_err(|e| frame_err(start, format!("decoded job is invalid: {e}")))?;
    Ok(job)
}

fn decode_event(body: &mut Body<'_>) -> Result<SimTraceEvent, TraceError> {
    let tag_at = body.offset();
    let tag = body.take_u8("frame tag")?;
    let time = body.take_f64("event time")?;
    let job = JobId(body.take_varint("job id")?);
    let take_task = |body: &mut Body<'_>| -> Result<TaskId, TraceError> {
        let at = body.offset();
        let raw = body.take_varint("task id")?;
        u32::try_from(raw)
            .map(TaskId)
            .map_err(|_| frame_err(at, format!("task id {raw} overflows u32")))
    };
    match tag {
        TAG_ARRIVE => Ok(SimTraceEvent::JobArrival { time, job }),
        TAG_DECIDE => {
            let task = take_task(body)?;
            let at = body.offset();
            let kind = match body.take_u8("decision kind")? {
                0 => ActionKind::Launch,
                1 => ActionKind::Speculate,
                other => return Err(frame_err(at, format!("unknown decision kind {other}"))),
            };
            Ok(SimTraceEvent::Decision {
                time,
                job,
                task,
                kind,
            })
        }
        TAG_LAUNCH => Ok(SimTraceEvent::CopyLaunch {
            time,
            job,
            task: take_task(body)?,
            copy: body.take_varint("copy id")?,
            slot: SlotId {
                machine: body.take_usize("slot machine")?,
                slot: body.take_usize("slot index")?,
            },
            duration: body.take_f64("duration")?,
            speculative: body.take_bool("speculative flag")?,
        }),
        TAG_FINISH => Ok(SimTraceEvent::CopyFinish {
            time,
            job,
            task: take_task(body)?,
            copy: body.take_varint("copy id")?,
            task_completed: body.take_bool("completion flag")?,
        }),
        TAG_KILL => Ok(SimTraceEvent::CopyKill {
            time,
            job,
            task: take_task(body)?,
            copy: body.take_varint("copy id")?,
            slot: SlotId {
                machine: body.take_usize("slot machine")?,
                slot: body.take_usize("slot index")?,
            },
        }),
        TAG_JOBDONE => Ok(SimTraceEvent::JobFinish {
            time,
            job,
            completed_input: body.take_usize("completed input")?,
            completed_total: body.take_usize("completed total")?,
        }),
        other => Err(frame_err(
            tag_at,
            format!("unknown frame tag {other:#04x} in execution trace"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_the_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut body = Body::new(&buf, 0);
            assert_eq!(body.take_varint("v").unwrap(), v, "{v}");
            body.expect_end("v").unwrap();
        }
    }

    #[test]
    fn body_errors_name_their_offset() {
        // A varint that never terminates (all continuation bits set).
        let buf = [0xFFu8; 11];
        let mut body = Body::new(&buf, 100);
        let err = body.take_varint("x").unwrap_err();
        assert!(
            matches!(err, TraceError::Frame { offset: 100, .. }),
            "{err}"
        );

        // Reading past the end of the frame names the current position.
        let buf = [0u8; 3];
        let mut body = Body::new(&buf, 50);
        body.take_u8("a").unwrap();
        let err = body.take_f64("b").unwrap_err();
        assert!(matches!(err, TraceError::Frame { offset: 51, .. }), "{err}");
    }

    #[test]
    fn floats_survive_raw_bits_round_trips() {
        for v in [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut body = Body::new(&buf, 0);
            assert_eq!(body.take_f64("v").unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn header_round_trips_both_kinds() {
        let mut codec = BinaryCodec::new();
        for kind in [StreamKind::Workload, StreamKind::Execution] {
            let mut bytes = Vec::new();
            codec.header(&mut bytes, kind).unwrap();
            assert_eq!(bytes.len(), 14);
            assert_eq!(codec.peek_kind(&mut &bytes[..]).unwrap(), kind);
        }
    }
}
