//! The compressed binary format plugin (v3): the v2 record schema inside
//! LZ-compressed blocks.
//!
//! ```text
//! header := "grass-trace" 0x00 0x03 kind:u8                (14 bytes, stored raw)
//! stream := header block*
//! block  := raw_len:varint comp_len:varint payload          (see crate::compress)
//! ```
//!
//! Every frame body is byte-identical to its v2 encoding — v2 ↔ v3 conversion
//! is pure re-framing — so the replay guarantee (raw-bits floats, canonical
//! varints) carries over unchanged. Compression is deterministic, making v3
//! output canonical: re-encoding a decoded stream reproduces it byte for byte.
//!
//! Decoding keeps the strict posture of v2: bad magic, bad version, wrong
//! stream kind, corrupt block framing, truncated payloads, unknown tags and
//! job-count mismatches all fail with exact offsets (file offsets for block
//! defects, decompressed-stream offsets for frame defects — see
//! [`crate::compress`]).

use std::io::{BufRead, Write};

use grass_core::JobSpec;
use grass_sim::SimTraceEvent;

use crate::binary::{
    event_body, execution_meta_body, framed_execution_events, framed_workload_items, job_body,
    kind_code, workload_meta_body, FrameReader, MAGIC_TERMINATOR,
};
use crate::codec::{StreamKind, TraceError, COMPRESSED_FORMAT_VERSION, MAGIC};
use crate::compress::{BlockReader, BlockWriter};
use crate::execution::ExecutionMeta;
use crate::format::{TraceCodec, TraceFormat};
use crate::stream::{ExecutionEvents, WorkloadItems};
use crate::workload::WorkloadMeta;

/// The compressed binary plugin (format v3). Buffers at most one block of
/// encoded frames; [`TraceCodec::finish`] flushes the final partial block.
#[derive(Debug, Default)]
pub struct CompressedCodec {
    scratch: Vec<u8>,
    writer: BlockWriter,
}

impl CompressedCodec {
    /// A fresh compressed codec.
    pub fn new() -> Self {
        CompressedCodec::default()
    }

    fn header(&self, w: &mut dyn Write, kind: StreamKind) -> Result<(), TraceError> {
        w.write_all(MAGIC.as_bytes())?;
        w.write_all(&[
            MAGIC_TERMINATOR,
            COMPRESSED_FORMAT_VERSION as u8,
            kind_code(kind),
        ])?;
        Ok(())
    }
}

impl TraceCodec for CompressedCodec {
    fn format(&self) -> TraceFormat {
        TraceFormat::Compressed
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
        self.writer.push_frame(w, &self.scratch)
    }

    fn encode_job(&mut self, w: &mut dyn Write, job: &JobSpec) -> Result<(), TraceError> {
        self.scratch.clear();
        job_body(&mut self.scratch, job);
        self.writer.push_frame(w, &self.scratch)
    }

    fn begin_execution(
        &mut self,
        w: &mut dyn Write,
        meta: &ExecutionMeta,
    ) -> Result<(), TraceError> {
        self.header(w, StreamKind::Execution)?;
        self.scratch.clear();
        execution_meta_body(&mut self.scratch, meta);
        self.writer.push_frame(w, &self.scratch)
    }

    fn encode_event(&mut self, w: &mut dyn Write, event: &SimTraceEvent) -> Result<(), TraceError> {
        self.scratch.clear();
        event_body(&mut self.scratch, event);
        self.writer.push_frame(w, &self.scratch)
    }

    fn finish(&mut self, w: &mut dyn Write) -> Result<(), TraceError> {
        self.writer.flush(w)
    }

    fn workload_items<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<WorkloadItems<'r>, TraceError> {
        let (br, kind) = BlockReader::open(r)?;
        framed_workload_items(TraceFormat::Compressed, kind, br)
    }

    fn execution_events<'r>(
        &mut self,
        r: Box<dyn BufRead + 'r>,
    ) -> Result<ExecutionEvents<'r>, TraceError> {
        let (br, kind) = BlockReader::open(r)?;
        framed_execution_events(TraceFormat::Compressed, kind, br)
    }

    fn peek_kind(&mut self, r: &mut dyn BufRead) -> Result<StreamKind, TraceError> {
        FrameReader::new(r).read_header_version(COMPRESSED_FORMAT_VERSION)
    }
}
