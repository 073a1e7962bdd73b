//! The low-level line codec shared by both trace streams and by the fleet's
//! frames, sweep cell specs and cell result payloads: [`LineBuilder`] writes a
//! `tag key=value` line and [`Fields`] splits one.
//!
//! A trace file is plain UTF-8 text, one record per line (JSONL-style framing with a
//! simpler `key=value` record body so no general-purpose parser is needed — the
//! workspace's serde shim derives are no-ops, so this codec is deliberately
//! hand-rolled and dependency-free):
//!
//! ```text
//! grass-trace 1 workload            <- header: magic, format version, stream kind
//! meta generator_seed=42 ...        <- records: tag, then key=value fields
//! job id=0 arrival=0 ...
//! # free-form comment               <- comments and blank lines are ignored
//! ```
//!
//! Numbers are written with Rust's shortest-round-trip `Display` formatting, so every
//! `f64` survives an encode→decode cycle bit-exactly — the property the replay
//! guarantee rests on. Text values are percent-escaped down to printable ASCII with
//! no whitespace, `=`, `%` or list separators. Decoding is strict: an unknown magic,
//! an unsupported
//! version, a stream-kind mismatch, an unknown tag or a malformed field is an error
//! that names the offending line.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use crate::binary::MAX_FRAME_LEN;

/// Magic word opening every trace file (both formats share it: the text header
/// follows it with a space, the binary header with a NUL byte).
pub const MAGIC: &str = "grass-trace";

/// Version of the *text* trace format (v1, frozen). Text readers reject anything
/// else; the binary framing is [`BINARY_FORMAT_VERSION`].
pub const FORMAT_VERSION: u32 = 1;

/// Version of the *binary* trace framing (v2). See [`crate::binary`].
pub const BINARY_FORMAT_VERSION: u32 = 2;

/// Version of the *compressed* binary trace framing (v3): v2 frames packed into
/// LZ-compressed blocks. See [`crate::v3`].
pub const COMPRESSED_FORMAT_VERSION: u32 = 3;

/// Which of the two record streams a trace file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// A workload trace: job/task specifications plus generator metadata.
    Workload,
    /// An execution trace: timestamped simulator events.
    Execution,
}

impl StreamKind {
    /// Stable label used in the header line.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::Workload => "workload",
            StreamKind::Execution => "execution",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "workload" => Some(StreamKind::Workload),
            "execution" => Some(StreamKind::Execution),
            _ => None,
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything that can go wrong while encoding or decoding a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `grass-trace` magic.
    BadMagic,
    /// The file uses a format version this reader does not understand.
    UnsupportedVersion(u32),
    /// The header declares a different stream kind than the caller expected.
    WrongStream {
        /// Stream kind the caller asked for.
        expected: StreamKind,
        /// Stream kind found in the header.
        found: StreamKind,
    },
    /// A record line could not be parsed. Carries the 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A binary frame could not be decoded (or encoded). Carries the absolute byte
    /// offset — the binary analogue of [`TraceError::Parse`]'s line number.
    Frame {
        /// 0-based byte offset of the offending byte in the trace stream.
        offset: u64,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a grass-trace file (missing magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (supported: {FORMAT_VERSION} = text, \
                     {BINARY_FORMAT_VERSION} = binary, {COMPRESSED_FORMAT_VERSION} = compressed)"
                )
            }
            TraceError::WrongStream { expected, found } => {
                write!(f, "expected a {expected} trace but found a {found} trace")
            }
            TraceError::Parse { line, message } => write!(f, "trace line {line}: {message}"),
            TraceError::Frame { offset, message } => {
                write!(f, "trace byte offset {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError::Parse {
        line,
        message: message.into(),
    }
}

/// Percent-escape a text value so what remains is printable ASCII containing no
/// whitespace and none of the codec's structural characters (`=`, `%`, and the
/// `:` / `|` / `,` list separators used inside composite fields). Every other
/// byte outside printable ASCII is escaped too: spaces and control bytes
/// (including the vertical tab and form feed that `split_whitespace` splits on),
/// and non-ASCII bytes, so the escaped form is byte-for-byte ASCII and
/// [`unescape`] reassembles the original UTF-8 exactly.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'=' | b'%' | b':' | b'|' | b',' => escape_byte(b, &mut out),
            _ if !b.is_ascii_graphic() => escape_byte(b, &mut out),
            _ => out.push(b as char),
        }
    }
    out
}

fn escape_byte(b: u8, out: &mut String) {
    out.push('%');
    // grass: allow(panicky-lib, "a nibble is < 16, so from_digit(_, 16) is always Some")
    out.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
    // grass: allow(panicky-lib, "a nibble is < 16, so from_digit(_, 16) is always Some")
    out.push(char::from_digit(u32::from(b & 0xF), 16).unwrap());
}

/// Invert [`escape`]. Fails on truncated or non-hex escapes.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // grass: allow(panicky-lib, "i < bytes.len() is the loop condition")
        if bytes[i] == b'%' {
            let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16));
            let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16));
            match (hi, lo) {
                (Some(h), Some(l)) => {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                }
                _ => return Err(format!("truncated escape in '{s}'")),
            }
        } else {
            // grass: allow(panicky-lib, "i < bytes.len() is the loop condition")
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape decodes to invalid UTF-8 in '{s}'"))
}

/// One `tag key=value ...` line, borrowed from its text: the tag and the fields
/// in line order, values still escaped. Text trace records, fleet frames, sweep
/// cell specs and cell payload lines all parse through here.
///
/// The grammar is strict: words are separated by exactly one space, with none
/// leading or trailing, and every word after the tag is `key=value` (the value
/// runs to the end of the word and may itself contain `=`). Getter errors name
/// the tag and the field in backticks.
#[derive(Debug)]
pub struct Fields<'a> {
    /// The line's first word, or the label a tagless line was parsed under.
    pub tag: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    /// Split `line` into its tag and fields. A line of one word is a tag with no
    /// fields.
    pub fn parse(line: &'a str) -> Result<Self, String> {
        match line.split_once(' ') {
            Some((tag, rest)) => Self::untagged(tag, rest),
            None => Ok(Fields {
                tag: line,
                fields: Vec::new(),
            }),
        }
    }

    /// Split a line of fields that carries no tag, such as a sweep cell spec;
    /// `label` stands in for the tag in errors.
    pub fn untagged(label: &'a str, line: &'a str) -> Result<Self, String> {
        let fields = line
            .split(' ')
            .map(|word| {
                word.split_once('=').ok_or_else(|| match word {
                    "" => format!("`{label}` line has an empty word (one space between words)"),
                    _ => format!("`{label}` word `{word}` is not key=value"),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Fields { tag: label, fields })
    }

    /// Raw (still escaped) value of `key`.
    pub fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("`{}` line is missing field `{key}`", self.tag))
    }

    /// Unescaped text value of `key`.
    pub fn text(&self, key: &str) -> Result<String, String> {
        unescape(self.raw(key)?).map_err(|e| format!("`{}` field `{key}`: {e}", self.tag))
    }

    /// Value of `key` parsed by `T`'s own `FromStr`, so an integer out of `T`'s
    /// range is an error naming the field, never a truncation.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        let raw = self.raw(key)?;
        raw.parse()
            .map_err(|e| format!("`{}` field `{key}`={raw}: {e}", self.tag))
    }

    /// Boolean value of `key`, written `0` / `1`.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.raw(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            raw => Err(format!(
                "`{}` field `{key}`={raw} is not a 0/1 flag",
                self.tag
            )),
        }
    }
}

/// Builder for one line that [`Fields`] parses back: the tag, then one
/// ` key=value` per field. Numeric fields use `Display` (shortest round-trip for
/// floats); text fields are escaped. An empty tag starts a tagless line.
#[derive(Debug)]
pub struct LineBuilder {
    buf: String,
}

impl LineBuilder {
    /// Start a line with the given tag (`""` for none).
    pub fn new(tag: &str) -> Self {
        LineBuilder {
            buf: tag.to_string(),
        }
    }

    /// Append a numeric (or otherwise wire-safe `Display`) field.
    pub fn num(mut self, key: &str, value: impl fmt::Display) -> Self {
        use fmt::Write as _;
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        let _ = write!(self.buf, "{key}={value}");
        self
    }

    /// Append a boolean field as `0` / `1`.
    pub fn flag(self, key: &str, value: bool) -> Self {
        self.num(key, u8::from(value))
    }

    /// Append a text field, escaping it.
    pub fn text(self, key: &str, value: &str) -> Self {
        let escaped = escape(value);
        self.num(key, escaped)
    }

    /// Finish the line (no trailing newline).
    pub fn build(self) -> String {
        self.buf
    }
}

/// Longest line a text trace reader accepts and a text trace writer emits, in
/// bytes, newline excluded: the binary frame cap, [`MAX_FRAME_LEN`], so no
/// format's decoder buffers more for one record.
pub const MAX_LINE_LEN: usize = MAX_FRAME_LEN as usize;

/// Read one newline-terminated line, without its newline. `Ok(None)` means
/// the stream ended before a line began; a final line without a newline is
/// still returned.
///
/// A line longer than `cap` bytes, or one that is not UTF-8, fails with
/// [`io::ErrorKind::InvalidData`]. At most `cap + 1` bytes of a line are ever
/// buffered, so a peer or file that never sends a newline cannot grow the
/// reader's memory without bound. Text traces read every line this way, and
/// both ends of the fleet protocol read every frame through here.
pub fn read_frame(reader: &mut impl BufRead, cap: usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    if !read_capped(reader, cap, &mut line)? {
        return Ok(None);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// [`read_frame`] into `line` (cleared first), as bytes: `Ok(false)` at the end
/// of the stream, and no UTF-8 check.
fn read_capped(reader: &mut impl BufRead, cap: usize, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    // One byte past the cap tells an over-long line from one that fits exactly.
    let limit = u64::try_from(cap).unwrap_or(u64::MAX).saturating_add(1);
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.len() > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {cap} bytes"),
        ));
    }
    Ok(true)
}

/// Write `line` and its newline, refusing a line over `cap` bytes as the binary
/// writer refuses an over-long frame: no reader would accept it. The text codec
/// writes every record line through here.
pub(crate) fn write_line(w: &mut dyn Write, line: &str, cap: usize) -> Result<(), TraceError> {
    if line.len() > cap {
        return Err(parse_err(
            0,
            format!(
                "record line of {} bytes is over the {cap}-byte cap",
                line.len()
            ),
        ));
    }
    writeln!(w, "{line}")?;
    Ok(())
}

/// Low-level reader: validates the header, then yields records line by line.
/// Every line is read as [`read_frame`] reads it, capped at [`MAX_LINE_LEN`] bytes,
/// into one buffer the reader keeps.
pub struct TraceReader<R: BufRead> {
    r: R,
    /// Stream kind declared by the header.
    kind: StreamKind,
    line_no: usize,
    line_cap: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> TraceReader<R> {
    /// Open a trace stream, validating magic and version and that the stream kind is
    /// `expected` (pass `None` to accept either kind, e.g. for `trace stats`).
    pub fn new(r: R, expected: Option<StreamKind>) -> Result<Self, TraceError> {
        Self::with_line_cap(r, expected, MAX_LINE_LEN)
    }

    /// [`TraceReader::new`] with lines capped at `line_cap` bytes.
    fn with_line_cap(
        mut r: R,
        expected: Option<StreamKind>,
        line_cap: usize,
    ) -> Result<Self, TraceError> {
        let mut buf = Vec::new();
        read_line(&mut r, line_cap, 1, &mut buf)?;
        let header = std::str::from_utf8(&buf)
            .map_err(|e| parse_err(1, e.to_string()))?
            .trim_end_matches('\r');
        let mut words = header.split(' ');
        if words.next() != Some(MAGIC) {
            return Err(TraceError::BadMagic);
        }
        let version: u32 = words
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| parse_err(1, "header is missing the format version"))?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let kind = words
            .next()
            .and_then(StreamKind::parse)
            .ok_or_else(|| parse_err(1, "header is missing the stream kind"))?;
        if words.next().is_some() {
            return Err(parse_err(1, "trailing junk in header"));
        }
        if let Some(expected) = expected {
            if kind != expected {
                return Err(TraceError::WrongStream {
                    expected,
                    found: kind,
                });
            }
        }
        Ok(TraceReader {
            r,
            kind,
            line_no: 1,
            line_cap,
            buf,
        })
    }

    /// Stream kind declared by the header.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// Read the next record, skipping blank and comment lines, and decode it
    /// with `decode`; `Ok(None)` at EOF. A line that does not split into fields,
    /// and every error `decode` returns, fails as a [`TraceError::Parse`] naming
    /// the record's line.
    pub fn next_record<T>(
        &mut self,
        decode: impl FnOnce(&Fields<'_>) -> Result<T, String>,
    ) -> Result<Option<T>, TraceError> {
        loop {
            if !read_line(&mut self.r, self.line_cap, self.line_no + 1, &mut self.buf)? {
                return Ok(None);
            }
            self.line_no += 1;
            let line_no = self.line_no;
            let line = std::str::from_utf8(&self.buf)
                .map_err(|e| parse_err(line_no, e.to_string()))?
                .trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            return Fields::parse(line)
                .and_then(|fields| decode(&fields))
                .map(Some)
                .map_err(|message| parse_err(line_no, message));
        }
    }
}

/// One line of a text trace into `buf`, as [`read_frame`] reads it; an
/// over-long line fails as a [`TraceError::Parse`] naming `line_no`.
fn read_line(
    r: &mut impl BufRead,
    cap: usize,
    line_no: usize,
    buf: &mut Vec<u8>,
) -> Result<bool, TraceError> {
    read_capped(r, cap, buf).map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => parse_err(line_no, e.to_string()),
        _ => TraceError::Io(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in [
            "plain",
            "with space",
            "a=b",
            "100%",
            "tab\there",
            "multi\nline",
            "",
            "café",
            "日本語",
            "map:shuffle",
            "a|b,c:d",
            "vt\x0bff\x0cus\x1fdel\x7f",
        ] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "round trip of {s:?}");
            assert!(escape(s).bytes().all(|b| b.is_ascii_graphic()), "{s:?}");
        }
        assert!(escape("a b=c%").chars().all(|c| c != ' ' && c != '='));
        // Escaped output is pure ASCII with no structural characters left.
        for s in ["café", "map:shuffle", "a|b,c"] {
            let e = escape(s);
            assert!(e.is_ascii(), "{e}");
            assert!(e.chars().all(|c| !": | ,".contains(c)), "{e}");
        }
        assert!(unescape("bad%").is_err());
        assert!(unescape("bad%0").is_err());
        assert!(unescape("bad%zz").is_err());
    }

    #[test]
    fn floats_round_trip_exactly() {
        let values = [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -123.456e-7,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in values {
            let encoded = LineBuilder::new("x").num("v", v).build();
            let raw = encoded.strip_prefix("x v=").unwrap();
            let parsed: f64 = raw.parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} -> '{raw}' -> {parsed}");
        }
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut bytes = b"grass-trace 1 workload\n# a comment\n\n# with two lines\n".to_vec();
        let meta = LineBuilder::new("meta")
            .num("seed", 42u64)
            .text("profile", "Facebook Hadoop")
            .flag("quick", true);
        write_line(&mut bytes, &meta.build(), MAX_LINE_LEN).unwrap();
        let mut r = TraceReader::new(&bytes[..], Some(StreamKind::Workload)).unwrap();
        assert_eq!(r.kind(), StreamKind::Workload);
        r.next_record(|rec| {
            assert_eq!(rec.tag, "meta");
            assert_eq!(rec.num::<u64>("seed").unwrap(), 42);
            assert_eq!(rec.text("profile").unwrap(), "Facebook Hadoop");
            assert!(rec.flag("quick").unwrap());
            assert!(rec.raw("missing").is_err());
            Ok(())
        })
        .unwrap()
        .unwrap();
        assert!(r.next_record(|_| Ok(())).unwrap().is_none());
    }

    #[test]
    fn fields_split_on_single_spaces_only() {
        let line = Fields::parse("grant cell=3 spec=a=b").unwrap();
        assert_eq!(line.tag, "grant");
        assert_eq!(line.num::<u8>("cell").unwrap(), 3);
        assert_eq!(line.raw("spec").unwrap(), "a=b");
        assert_eq!(Fields::parse("finished").unwrap().tag, "finished");
        for bad in ["ok ", " ok", "grant  cell=3", "grant cell=3 "] {
            assert!(Fields::parse(bad).is_err(), "{bad:?}");
        }
        // Only a space separates words: a tab stays inside its word.
        assert_eq!(Fields::parse("ok\tcell=3").unwrap().tag, "ok\tcell=3");
        assert!(Fields::parse("grant cell").unwrap_err().contains("`cell`"));

        let spec = Fields::untagged("spec", "machines=50 trace=/a%20b").unwrap();
        assert_eq!(spec.text("trace").unwrap(), "/a b");
        assert!(Fields::untagged("spec", "").is_err());
        assert!(Fields::untagged("spec", "machines=50  seed=1").is_err());
        let built = LineBuilder::new("")
            .num("machines", 50)
            .text("trace", "/a b");
        assert_eq!(built.build(), "machines=50 trace=/a%20b");
    }

    #[test]
    fn getter_errors_name_the_tag_and_the_field() {
        let line = Fields::parse("welcome version=4294967296 flag=2 name=%zz").unwrap();
        for err in [
            line.num::<u32>("version").unwrap_err(),
            line.flag("flag").unwrap_err(),
            line.text("name").unwrap_err(),
            line.raw("cells").unwrap_err(),
        ] {
            assert!(err.starts_with("`welcome` "), "{err}");
        }
        assert!(line
            .num::<u32>("version")
            .unwrap_err()
            .contains("`version`"));
        assert_eq!(line.num::<u64>("version").unwrap(), 1 << 32);
        assert!(line.raw("cells").unwrap_err().contains("`cells`"));
        assert!(line.num::<f64>("flag").is_ok() && line.num::<f64>("name").is_err());
    }

    #[test]
    fn reader_rejects_bad_headers() {
        assert!(matches!(
            TraceReader::new(&b"not-a-trace 1 workload\n"[..], None),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            TraceReader::new(&b"grass-trace 99 workload\n"[..], None),
            Err(TraceError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            TraceReader::new(
                &b"grass-trace 1 execution\n"[..],
                Some(StreamKind::Workload)
            ),
            Err(TraceError::WrongStream { .. })
        ));
        assert!(TraceReader::new(&b"grass-trace 1 sideways\n"[..], None).is_err());
        assert!(TraceReader::new(&b"grass-trace one workload\n"[..], None).is_err());
    }

    #[test]
    fn reader_rejects_malformed_records() {
        let input = b"grass-trace 1 workload\nmeta seed\n";
        let mut r = TraceReader::new(&input[..], None).unwrap();
        let err = r.next_record(|_| Ok(())).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");

        let input = b"grass-trace 1 workload\nmeta seed=1 x=notanumber\n";
        let mut r = TraceReader::new(&input[..], None).unwrap();
        r.next_record(|rec| {
            assert!(rec.num::<u64>("x").is_err());
            assert!(rec.num::<f64>("x").is_err());
            assert!(rec.flag("x").is_err());
            Ok(())
        })
        .unwrap()
        .unwrap();
        // A decoder's own error names the record's line too.
        let input = b"grass-trace 1 workload\n\n# note\nmeta seed=1\n";
        let mut r = TraceReader::new(&input[..], None).unwrap();
        let err = r.next_record(|rec| rec.num::<u64>("x")).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 4, .. }), "{err}");
        assert!(err.to_string().contains("`meta` line is missing field `x`"));
    }

    #[test]
    fn read_frame_splits_lines_and_enforces_the_cap() {
        // Exactly the cap, a final frame without a newline, then the end.
        let mut reader = io::BufReader::with_capacity(3, &b"12345678\nabc"[..]);
        assert_eq!(read_frame(&mut reader, 8).unwrap().unwrap(), "12345678");
        assert_eq!(read_frame(&mut reader, 8).unwrap().unwrap(), "abc");
        assert_eq!(read_frame(&mut reader, 8).unwrap(), None);

        // Cap + 1 bytes fail, with or without a newline after them.
        for input in [&b"123456789"[..], &b"123456789\nok\n"[..]] {
            let err = read_frame(&mut io::BufReader::new(input), 8).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // A stream that never sends a newline is cut off at the cap.
        let mut endless = io::BufReader::new(io::repeat(b'x'));
        let err = read_frame(&mut endless, 1 << 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = read_frame(&mut &b"caf\xe9\n"[..], 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A workload header plus `records` and a final newline.
    fn text_trace(records: &[&str]) -> Vec<u8> {
        let mut bytes = b"grass-trace 1 workload\n".to_vec();
        for r in records {
            bytes.extend_from_slice(r.as_bytes());
            bytes.push(b'\n');
        }
        bytes
    }

    #[test]
    fn reader_refuses_a_line_over_the_cap_naming_it() {
        // The header is 22 bytes: a 22-byte cap admits it and `a x=1`, not the 24-byte line 3.
        let bytes = text_trace(&["a x=1", "b y=12345678901234567890"]);
        let mut r = TraceReader::with_line_cap(&bytes[..], None, 22).unwrap();
        let tag = r.next_record(|rec| Ok(rec.tag.to_string())).unwrap();
        assert_eq!(tag.unwrap(), "a");
        let err = r.next_record(|_| Ok(())).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("22"), "{err}");

        // The header line itself, and an endless line that never ends.
        let err = TraceReader::with_line_cap(&bytes[..], None, 21)
            .err()
            .unwrap();
        assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err}");
        let endless = b"grass-trace 1 workload\n".chain(io::repeat(b'x'));
        let mut r = TraceReader::with_line_cap(io::BufReader::new(endless), None, 1 << 12).unwrap();
        let err = r.next_record(|_| Ok(())).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 2, .. }), "{err}");

        // A comment line counts too, and a line that is not UTF-8 names its line.
        let bytes = text_trace(&["# a comment longer than the cap", "a x=1"]);
        let mut r = TraceReader::with_line_cap(&bytes[..], None, 22).unwrap();
        assert!(matches!(
            r.next_record(|_| Ok(())),
            Err(TraceError::Parse { line: 2, .. })
        ));
        let mut bytes = text_trace(&["a x=1"]);
        bytes.extend_from_slice(b"b x=caf\xe9\n");
        let mut r = TraceReader::new(&bytes[..], None).unwrap();
        assert!(matches!(
            r.next_record(|_| Err::<(), _>("refused".to_string())),
            Err(TraceError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            r.next_record(|_| Ok(())),
            Err(TraceError::Parse { line: 3, .. })
        ));
        // Under the real cap the same records read back, `\r\n` endings included.
        let bytes = b"grass-trace 1 workload\r\na x=1\r\n";
        let mut r = TraceReader::new(&bytes[..], None).unwrap();
        let x = r.next_record(|rec| Ok(rec.raw("x")?.to_string())).unwrap();
        assert_eq!(x.unwrap(), "1");
        assert!(r.next_record(|_| Ok(())).unwrap().is_none());
    }

    #[test]
    fn writer_refuses_a_line_over_the_cap() {
        let mut out = Vec::new();
        write_line(&mut out, "a x=1234", 8).unwrap();
        let err = write_line(&mut out, "a x=12345", 8).unwrap_err();
        assert!(err.to_string().contains("9 bytes"), "{err}");
        assert_eq!(out, b"a x=1234\n", "nothing of the refused line is written");
    }

    #[test]
    fn errors_render_their_context() {
        let msg = TraceError::UnsupportedVersion(9).to_string();
        assert!(msg.contains('9') && msg.contains('1'), "{msg}");
        let msg = TraceError::Parse {
            line: 12,
            message: "boom".into(),
        }
        .to_string();
        assert!(msg.contains("12") && msg.contains("boom"));
        let msg = TraceError::WrongStream {
            expected: StreamKind::Workload,
            found: StreamKind::Execution,
        }
        .to_string();
        assert!(msg.contains("workload") && msg.contains("execution"));
    }
}
