//! Memory-mapped trace reads: the map is one more byte source for the
//! streaming decoders.
//!
//! [`open_workload_source_mmap`] and [`crate::TraceStats::load_mmap`] map the
//! trace file read-only and hand the map, as a `Cursor` over its bytes, to
//! the same [`crate::WorkloadItems`] / [`crate::TraceItems`] decoders that
//! read buffered files. Every format and stream kind therefore decodes from
//! the map, with values and errors identical to the buffered read by
//! construction; only the I/O strategy differs (`repro sweep|fleet|trace
//! stats --mmap`).
//!
//! # Safety
//!
//! The map is created read-only and private. The one soundness contract —
//! inherited from `mmap(2)`, not from this crate — is that the underlying file
//! must not be truncated or mutated while the map is alive; trace files are
//! written once and then read, so the contract holds for every consumer in this
//! workspace.

use std::fs::File;
use std::io::Cursor;
use std::path::Path;

use grass_workload::StreamedWorkload;

use crate::codec::TraceError;
use crate::stream::WorkloadItems;
use crate::workload::{open_source_with, WorkloadMeta};

/// Map a trace file into memory as a buffered reader over the mapped bytes.
pub(crate) fn map_trace(path: &Path) -> Result<Cursor<memmap2::Mmap>, TraceError> {
    let file = File::open(path)?;
    // SAFETY: read-only private mapping; trace files are write-once, so the
    // file is not mutated or truncated while the map is alive (module
    // contract above).
    let map = unsafe { memmap2::Mmap::map(&file)? };
    Ok(Cursor::new(map))
}

/// Open a workload trace as a streaming job source read through a memory map —
/// the drop-in variant of [`crate::open_workload_source`], sharing its
/// validation pass and on-demand loader. Metadata, jobs and errors are
/// identical to the buffered open for every format.
pub fn open_workload_source_mmap(
    path: impl AsRef<Path>,
) -> Result<(WorkloadMeta, StreamedWorkload), TraceError> {
    open_source_with(path.as_ref(), |path| WorkloadItems::open(map_trace(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceFormat;
    use crate::workload::{open_workload_source, record_workload, WorkloadTrace};
    use grass_workload::{BoundSpec, Framework, JobSource, TraceProfile, WorkloadConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample_trace() -> WorkloadTrace {
        let config = WorkloadConfig::new(TraceProfile::facebook(Framework::Spark))
            .with_jobs(10)
            .with_bound(BoundSpec::paper_errors());
        record_workload(&config, 7, 11, "GRASS", 20, 4)
    }

    /// A uniquely-named trace file under the OS temp dir, removed on drop.
    struct TempTrace(PathBuf);

    impl TempTrace {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            TempTrace(std::env::temp_dir().join(format!(
                "grass-mmap-{tag}-{}-{seq}.trace",
                std::process::id()
            )))
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn mmap_errors_match_streamed_errors_byte_for_byte() {
        let trace = sample_trace();
        let file = TempTrace::new("cut");
        for format in TraceFormat::ALL {
            // Truncate at byte boundaries from the header on; the mapped open
            // must fail (or succeed) exactly like the buffered open.
            let bytes = trace.to_bytes_as(format);
            for cut in (0..bytes.len()).step_by(7) {
                std::fs::write(file.path(), &bytes[..cut]).unwrap();
                let streamed = open_workload_source(file.path()).map(|(meta, _)| meta);
                let mapped = open_workload_source_mmap(file.path()).map(|(meta, _)| meta);
                match (streamed, mapped) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{format} cut {cut}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{format} cut {cut}")
                    }
                    (a, b) => panic!("divergent outcomes, {format} cut {cut}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn mmap_source_matches_streamed_source() {
        let trace = sample_trace();
        for format in TraceFormat::ALL {
            let file = TempTrace::new("source");
            trace.save_as(file.path(), format).unwrap();
            let (meta_a, streamed) = open_workload_source(file.path()).unwrap();
            let (meta_b, mapped) = open_workload_source_mmap(file.path()).unwrap();
            assert_eq!(meta_a, meta_b, "{format}");
            assert_eq!(streamed.label(), mapped.label(), "{format}");
            assert_eq!(mapped.jobs(0), trace.jobs, "{format}");
            // Warm-up prefixes decode only the requested jobs; same prefix either way.
            assert_eq!(
                streamed.warmup_jobs(0.3, 0),
                mapped.warmup_jobs(0.3, 0),
                "{format}"
            );
        }
    }
}
