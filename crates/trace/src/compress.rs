//! Block framing for the compressed (v3) trace format: concatenated v2-schema
//! frames packed into independently-decodable LZ blocks.
//!
//! ```text
//! stream := header block*
//! block  := raw_len:varint comp_len:varint payload[comp_len]
//! ```
//!
//! `raw_len` is the decompressed payload size. `comp_len == raw_len` marks a
//! *stored* block (payload is the raw bytes — the compressor falls back to
//! stored whenever LZ would not shrink the block); `comp_len < raw_len` marks
//! an LZ-compressed payload; `comp_len > raw_len` is corrupt. A frame never
//! straddles a block boundary, so each block decompresses and decodes on its
//! own — streaming, seeking to a block, and truncation diagnostics all survive
//! compression.
//!
//! Error-offset convention: *block-level* defects (bad lengths, truncated
//! payloads, corrupt LZ data) name absolute **file** offsets, exactly like v2
//! frame errors. *Frame-level* defects inside a block name offsets in the
//! **decompressed frame stream** (header bytes + all raw block payloads
//! concatenated) — still exact and monotonic, and equal to the file offset for
//! an uncompressed equivalent of the stream. `docs/trace-formats.md` specifies
//! both.

use std::io::{BufRead, Write};

use crate::binary::{frame_err, Body, FrameReader, FrameSource, MAX_FRAME_LEN};
use crate::codec::{StreamKind, TraceError, COMPRESSED_FORMAT_VERSION};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::MAGIC_TERMINATOR;
    use crate::codec::MAGIC;

    /// Frames with mixed compressible/incompressible content, enough to span
    /// several blocks, survive the block framing bit-exactly.
    #[test]
    fn multi_block_round_trip_is_bit_exact() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000u64 {
            let mut frame = vec![(i % 251) as u8];
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            frame.extend_from_slice(&x.to_le_bytes());
            if i % 7 == 0 {
                frame.extend_from_slice(b"repetitive-tail-repetitive-tail");
            }
            frames.push(frame);
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC.as_bytes());
        bytes.extend_from_slice(&[MAGIC_TERMINATOR, COMPRESSED_FORMAT_VERSION as u8, 0]);
        let mut bw = BlockWriter::default();
        for frame in &frames {
            bw.push_frame(&mut bytes, frame).unwrap();
        }
        bw.flush(&mut bytes).unwrap();

        let (mut br, kind) = BlockReader::open(&bytes[..]).unwrap();
        assert_eq!(kind, StreamKind::Workload);
        for (i, expected) in frames.iter().enumerate() {
            let (frame, _) = br
                .next_frame()
                .unwrap()
                .unwrap_or_else(|| panic!("stream ended early at frame {i} of {}", frames.len()));
            assert_eq!(frame, &expected[..], "frame {i}");
        }
        assert!(br.next_frame().unwrap().is_none());
    }
}

/// Target uncompressed block size. Big enough to amortise per-block overhead
/// and give the LZ window (64 KiB offsets) full reach; small enough that
/// streaming decode stays O(one block) memory.
pub(crate) const BLOCK_TARGET: usize = 64 * 1024;

/// Upper bound on a block's decompressed length: the write path bounds blocks
/// by `BLOCK_TARGET` plus one maximal frame, so anything larger is corruption,
/// not data.
pub(crate) const MAX_BLOCK_LEN: u64 = MAX_FRAME_LEN + 16;

/// Accumulates encoded frames and writes them out as compressed blocks.
#[derive(Debug, Default)]
pub(crate) struct BlockWriter {
    /// Pending uncompressed frame bytes of the current block.
    block: Vec<u8>,
    /// Compression scratch.
    comp: Vec<u8>,
    /// Varint scratch for prefixes.
    prefix: Vec<u8>,
}

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

impl BlockWriter {
    /// Append one frame body as a length-prefixed frame in the pending block,
    /// flushing completed blocks to `w`. Frame-size validation mirrors v2.
    pub(crate) fn push_frame(&mut self, w: &mut dyn Write, body: &[u8]) -> Result<(), TraceError> {
        let len = body.len() as u64;
        if len > MAX_FRAME_LEN {
            return Err(frame_err(
                0,
                format!("record encodes to {len} bytes, over the {MAX_FRAME_LEN}-byte frame cap"),
            ));
        }
        self.prefix.clear();
        put_varint(&mut self.prefix, len);
        let framed = self.prefix.len() + body.len();
        // Keep blocks near the target: start a new block rather than grow this
        // one past it, but never split a frame.
        if !self.block.is_empty() && self.block.len() + framed > BLOCK_TARGET {
            self.flush(w)?;
        }
        self.block.extend_from_slice(&self.prefix);
        self.block.extend_from_slice(body);
        if self.block.len() >= BLOCK_TARGET {
            self.flush(w)?;
        }
        Ok(())
    }

    /// Compress and write the pending block, if any. Called per completed block
    /// and once more from the codec's `finish`.
    pub(crate) fn flush(&mut self, w: &mut dyn Write) -> Result<(), TraceError> {
        if self.block.is_empty() {
            return Ok(());
        }
        self.comp.clear();
        lz::compress_into(&self.block, &mut self.comp);
        let raw_len = self.block.len() as u64;
        let (comp_len, payload) = if self.comp.len() < self.block.len() {
            (self.comp.len() as u64, self.comp.as_slice())
        } else {
            // Stored block: LZ would not shrink it (comp_len == raw_len).
            (raw_len, self.block.as_slice())
        };
        // Local buffer: `self.prefix` may hold a frame prefix mid-`push_frame`.
        let mut lengths = Vec::with_capacity(20);
        put_varint(&mut lengths, raw_len);
        put_varint(&mut lengths, comp_len);
        w.write_all(&lengths)?;
        w.write_all(payload)?;
        self.block.clear();
        Ok(())
    }
}

/// Pull-based reader over a v3 stream: validates the header, then serves one
/// frame per call out of lazily-loaded, lazily-decompressed blocks.
pub(crate) struct BlockReader<R> {
    fr: FrameReader<R>,
    /// Decompressed bytes of the current block.
    block: Vec<u8>,
    /// Cursor within `block`.
    pos: usize,
    /// Decompressed-stream offset of `block[0]` (header bytes included).
    dbase: u64,
    /// Compressed-payload scratch.
    comp: Vec<u8>,
}

impl<R: BufRead> BlockReader<R> {
    /// Validate the v3 header and position the reader before the first block.
    pub(crate) fn open(r: R) -> Result<(Self, StreamKind), TraceError> {
        let mut fr = FrameReader::new(r);
        let kind = fr.read_header_version(COMPRESSED_FORMAT_VERSION)?;
        let dbase = fr.offset;
        Ok((
            BlockReader {
                fr,
                block: Vec::new(),
                pos: 0,
                dbase,
                comp: Vec::new(),
            },
            kind,
        ))
    }

    /// Load and decompress the next block. `Ok(false)` at a clean end of
    /// stream. Block-level errors name absolute file offsets.
    fn load_block(&mut self) -> Result<bool, TraceError> {
        self.dbase += self.block.len() as u64;
        self.block.clear();
        self.pos = 0;
        if self.fr.at_eof()? {
            return Ok(false);
        }
        let lengths_at = self.fr.offset;
        let raw_len = self.fr.read_varint()?;
        if raw_len == 0 {
            return Err(frame_err(lengths_at, "block declares a zero raw length"));
        }
        if raw_len > MAX_BLOCK_LEN {
            return Err(frame_err(
                lengths_at,
                format!("block length {raw_len} overflows the {MAX_BLOCK_LEN}-byte cap"),
            ));
        }
        let comp_at = self.fr.offset;
        let comp_len = self.fr.read_varint()?;
        if comp_len > raw_len {
            return Err(frame_err(
                comp_at,
                format!("block compressed length {comp_len} exceeds its raw length {raw_len}"),
            ));
        }
        let payload_at = self.fr.offset;
        self.comp.clear();
        self.comp.resize(comp_len as usize, 0);
        let mut payload = std::mem::take(&mut self.comp);
        let read = self.fr.read_exact(&mut payload);
        self.comp = payload;
        read.map_err(|e| match e {
            TraceError::Frame { .. } => frame_err(
                payload_at,
                format!(
                    "truncated block: length prefix declares {comp_len} bytes past end of trace"
                ),
            ),
            other => other,
        })?;
        if comp_len == raw_len {
            self.block.extend_from_slice(&self.comp);
        } else {
            lz::decompress_into(&self.comp, &mut self.block, raw_len as usize)
                .map_err(|e| frame_err(payload_at, format!("corrupt compressed block: {e}")))?;
        }
        Ok(true)
    }
}

/// Frames come out of the current decompressed block; the offset that comes
/// with each is a decompressed-stream offset, and so are frame-level errors.
impl<R: BufRead> FrameSource for BlockReader<R> {
    fn next_frame(&mut self) -> Result<Option<(&[u8], u64)>, TraceError> {
        if self.pos == self.block.len() && !self.load_block()? {
            return Ok(None);
        }
        let prefix_at = self.dbase + self.pos as u64;
        // Parse the frame length prefix in decompressed space via a Body cursor
        // so varint diagnostics match the v2 wording.
        let mut cur = Body::new(self.block.get(self.pos..).unwrap_or(&[]), prefix_at);
        let len = cur.take_varint("frame length")?;
        if len > MAX_FRAME_LEN {
            return Err(frame_err(
                prefix_at,
                format!("frame length {len} overflows the {MAX_FRAME_LEN}-byte cap"),
            ));
        }
        let start = self.pos + cur.position();
        let remaining = self.block.len() - start;
        if len as usize > remaining {
            return Err(frame_err(
                self.dbase + start as u64,
                format!(
                    "truncated frame: length prefix declares {len} bytes but its block has \
                     {remaining} left"
                ),
            ));
        }
        let end = start + len as usize;
        self.pos = end;
        let frame = self.block.get(start..end).unwrap_or(&[]);
        Ok(Some((frame, self.dbase + start as u64)))
    }

    fn file_offset(&self) -> u64 {
        self.fr.offset
    }
}
