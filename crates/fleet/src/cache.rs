//! The persistent per-cell digest cache.
//!
//! One file per cell, named by the FNV-1a 64 hash of the cell key; the file
//! stores the escaped key on its first line (so hash collisions and key-scheme
//! drift are detected, never silently served) followed by the payload verbatim.
//! Writes go through a temp file + rename, so a crashed writer never leaves a
//! half-written entry that a later run would trust.

use grass_trace::codec::{escape, unescape};
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process;

use crate::protocol::MAX_FRAME_BYTES;

/// FNV-1a 64-bit hash — tiny, dependency-free, stable across runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// An on-disk map from cell key to result payload.
#[derive(Debug, Clone)]
pub struct DigestCache {
    dir: PathBuf,
}

impl DigestCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(DigestCache { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.cell", fnv1a64(key.as_bytes())))
    }

    /// Look `key` up. Returns `None` on a miss, a hash collision, or an entry
    /// that fails to parse (corruption is treated as a miss, not an error).
    ///
    /// Reads at most the key line plus what a fleet frame can carry
    /// ([`MAX_FRAME_BYTES`]); a longer entry is a miss, so its cell re-runs.
    pub fn get(&self, key: &str) -> Option<String> {
        let cap = escape(key).len() + 1 + MAX_FRAME_BYTES;
        let text = read_capped(&self.path_for(key), cap)?;
        let (stored_key, payload) = text.split_once('\n')?;
        if unescape(stored_key).ok()? != key {
            return None;
        }
        Some(payload.to_string())
    }

    /// Store `payload` under `key`, atomically (temp file + rename).
    pub fn put(&self, key: &str, payload: &str) -> io::Result<()> {
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.tmp",
            fnv1a64(key.as_bytes()),
            process::id()
        ));
        fs::write(&tmp, format!("{}\n{}", escape(key), payload))?;
        fs::rename(&tmp, &path)
    }

    /// Number of entries on disk (diagnostic; counts `.cell` files).
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "cell") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// The text of the file at `path`, if it holds at most `cap` bytes.
fn read_capped(path: &Path, cap: usize) -> Option<String> {
    let file = File::open(path).ok()?;
    if file.metadata().ok()?.len() > cap as u64 {
        return None;
    }
    let mut text = String::new();
    // grass: allow(unbounded-read, "Read::take stops one byte past `cap`, should the file grow")
    file.take(cap as u64 + 1).read_to_string(&mut text).ok()?;
    (text.len() <= cap).then_some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn temp_cache(tag: &str) -> DigestCache {
        let dir = env::temp_dir().join(format!("grass-fleet-cache-{tag}-{}", process::id()));
        let _ = fs::remove_dir_all(&dir);
        DigestCache::open(&dir).unwrap()
    }

    #[test]
    fn put_get_round_trip_preserves_payload_bytes() {
        let cache = temp_cache("roundtrip");
        let key = "trace=abc machines=50 policy=grass seed=11 slots=4";
        let payload = "line1\nline2 mean=0.30000000000000004\n";
        assert!(cache.get(key).is_none());
        cache.put(key, payload).unwrap();
        assert_eq!(cache.get(key).as_deref(), Some(payload));
        assert_eq!(cache.len().unwrap(), 1);

        // Overwrite is atomic and last-write-wins.
        cache.put(key, "v2").unwrap();
        assert_eq!(cache.get(key).as_deref(), Some("v2"));
        assert_eq!(cache.len().unwrap(), 1);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn key_mismatch_in_entry_is_a_miss() {
        let cache = temp_cache("collide");
        cache.put("key-a", "payload-a").unwrap();
        // Simulate a hash collision: copy a's entry onto b's slot.
        let a_path = cache.path_for("key-a");
        let b_path = cache.path_for("key-b");
        fs::copy(&a_path, &b_path).unwrap();
        assert_eq!(cache.get("key-a").as_deref(), Some("payload-a"));
        assert!(
            cache.get("key-b").is_none(),
            "foreign key must not be served"
        );
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let cache = temp_cache("corrupt");
        cache.put("k", "v").unwrap();
        fs::write(cache.path_for("k"), "no-newline-no-key").unwrap();
        assert!(cache.get("k").is_none());
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn over_long_entry_is_a_miss() {
        let cache = temp_cache("overlong");
        let key = "k";
        cache.put(key, "v").unwrap();
        // One byte past the key line plus a full frame: the entry is refused
        // unread. The file is sparse, so its length costs no disk.
        let at_cap = (escape(key).len() + 1 + MAX_FRAME_BYTES) as u64;
        let file = fs::OpenOptions::new()
            .write(true)
            .open(cache.path_for(key))
            .unwrap();
        file.set_len(at_cap + 1).unwrap();
        assert!(cache.get(key).is_none());

        // At the cap an entry is read; one byte more is refused.
        let path = cache.dir().join("small");
        fs::write(&path, "0123456789").unwrap();
        assert_eq!(read_capped(&path, 10).as_deref(), Some("0123456789"));
        assert!(read_capped(&path, 9).is_none());
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn keys_with_newlines_and_spaces_survive_escaping() {
        let cache = temp_cache("escape");
        let key = "weird key\nwith=newline and café";
        cache.put(key, "v").unwrap();
        assert_eq!(cache.get(key).as_deref(), Some("v"));
        fs::remove_dir_all(cache.dir()).unwrap();
    }
}
