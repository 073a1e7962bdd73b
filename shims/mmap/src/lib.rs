//! Offline stand-in for the `memmap2` crate (read-only subset).
//!
//! Provides [`Mmap`] — an immutable memory mapping of a whole file — with the
//! same construction contract as the real crate: `unsafe { Mmap::map(&file) }`,
//! `Deref<Target = [u8]>`, `Send + Sync`, unmapped on drop. The implementation
//! calls `mmap`/`munmap` through hand-declared `extern "C"` bindings (the
//! container has no `libc` crate), so it is Unix-only; on other targets the
//! crate falls back to reading the file into an owned buffer, which keeps the
//! API total at the cost of the copy the mapping exists to avoid.
//!
//! Safety contract (same as real memmap2): the caller must ensure the mapped
//! file is not truncated or mutated while the map is alive — the trace layer
//! only maps traces it treats as immutable inputs.

use std::fs::File;
use std::io;
use std::ops::Deref;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::{c_int, c_long};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// An immutable memory-mapped view of an entire file.
#[cfg(unix)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
impl Mmap {
    /// Map `file` read-only in its entirety.
    ///
    /// # Safety
    ///
    /// Undefined behaviour results if the underlying file is truncated or
    /// modified while the returned mapping is alive (the OS may deliver
    /// `SIGBUS` on access). Callers must treat the file as immutable.
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;

        let meta = file.metadata()?;
        let len = usize::try_from(meta.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; model an empty file as an
            // empty, well-aligned, never-unmapped slice.
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        let ptr = sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        );
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }
}

#[cfg(unix)]
impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // Invariant: `ptr` is a live PROT_READ mapping of `len` bytes (or a
        // dangling-but-aligned pointer with len == 0, which from_raw_parts
        // permits).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // Invariant: non-empty maps came from a successful mmap() of
            // exactly `len` bytes and are unmapped exactly once.
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

// The mapping is read-only shared memory; no interior mutability.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

/// Non-Unix fallback: an owned copy of the file contents behind the same API.
#[cfg(not(unix))]
pub struct Mmap {
    buf: Vec<u8>,
}

#[cfg(not(unix))]
impl Mmap {
    /// Read `file` into memory. Not an actual mapping — see the crate docs.
    ///
    /// # Safety
    ///
    /// Kept `unsafe` for signature compatibility with the Unix path; the
    /// fallback itself performs no unsafe operations.
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::new();
        let mut file = file.try_clone()?;
        // grass: allow(unbounded-read, "non-unix fallback that copies the file: bounded by its size, as the map it stands in for is")
        file.read_to_end(&mut buf)?;
        Ok(Mmap { buf })
    }
}

#[cfg(not(unix))]
impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len()).finish()
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("grass-mmap-shim-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&map[..], &payload[..]);
        assert_eq!(map.as_ref().len(), payload.len());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maps_empty_file_as_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_empty());
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn map_outlives_the_file_handle() {
        let path = temp_path("outlives");
        std::fs::write(&path, b"persistent bytes").unwrap();
        let map = {
            let file = File::open(&path).unwrap();
            unsafe { Mmap::map(&file) }.unwrap()
        };
        assert_eq!(&map[..], b"persistent bytes");
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }
}
