//! The content-addressed result store.
//!
//! Determinism makes caching sound: the harness guarantees that one
//! canonical scenario (at any worker count) produces byte-identical
//! envelopes on one engine, and the [`canonical_hash`] covers both the
//! spec and the engine (crate version and behaviour pins), so it is a
//! complete address for the result. Each entry is one file,
//! `<key>.env`, framed with an integrity header:
//!
//! ```text
//! polite-wifi-cache v1 <key> <crc32-hex> <byte-len>\n
//! <envelope bytes>
//! ```
//!
//! Reads re-derive the CRC-32 (the same FCS polynomial the frame codec
//! uses) and the length; any mismatch — truncation, bit rot, a foreign
//! file under the right name — is reported as [`CacheRead::Corrupt`] so
//! the caller recomputes and overwrites rather than serving garbage.
//!
//! [`canonical_hash`]: polite_wifi_scenario::spec::ScenarioSpec::canonical_hash

use polite_wifi_frame::fcs::crc32;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &str = "polite-wifi-cache v1";

/// Outcome of a cache lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum CacheRead {
    /// Entry present and integrity-verified; the stored envelope bytes.
    Hit(Vec<u8>),
    /// No entry under this key.
    Miss,
    /// An entry exists but fails verification; the caller must treat it
    /// as absent and overwrite it with a recomputed result.
    Corrupt(String),
}

/// One directory of integrity-framed envelope files.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    pub fn new(dir: impl Into<PathBuf>) -> ResultStore {
        ResultStore { dir: dir.into() }
    }

    /// The file an entry for `key` lives in (exposed so tests can
    /// corrupt it deliberately).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.env"))
    }

    /// Looks up `key`, verifying the integrity frame.
    pub fn get(&self, key: &str) -> CacheRead {
        let raw = match std::fs::read(self.entry_path(key)) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheRead::Miss,
            Err(e) => return CacheRead::Corrupt(format!("unreadable entry: {e}")),
        };
        let header_end = match raw.iter().position(|&b| b == b'\n') {
            Some(i) => i,
            None => return CacheRead::Corrupt("missing header line".to_string()),
        };
        let header = String::from_utf8_lossy(&raw[..header_end]).into_owned();
        let body = &raw[header_end + 1..];
        let fields: Vec<&str> = header.split(' ').collect();
        // "polite-wifi-cache" "v1" <key> <crc32-hex> <len>
        if fields.len() != 5 || format!("{} {}", fields[0], fields[1]) != MAGIC {
            return CacheRead::Corrupt(format!("bad header `{header}`"));
        }
        if fields[2] != key {
            return CacheRead::Corrupt(format!(
                "key mismatch: file says `{}`, path says `{key}`",
                fields[2]
            ));
        }
        let want_crc = match u32::from_str_radix(fields[3], 16) {
            Ok(c) => c,
            Err(_) => return CacheRead::Corrupt(format!("bad crc field `{}`", fields[3])),
        };
        let want_len = match fields[4].parse::<usize>() {
            Ok(n) => n,
            Err(_) => return CacheRead::Corrupt(format!("bad length field `{}`", fields[4])),
        };
        if body.len() != want_len {
            return CacheRead::Corrupt(format!(
                "length mismatch: header says {want_len}, body is {}",
                body.len()
            ));
        }
        let got_crc = crc32(body);
        if got_crc != want_crc {
            return CacheRead::Corrupt(format!(
                "crc mismatch: header says {want_crc:08x}, body is {got_crc:08x}"
            ));
        }
        CacheRead::Hit(body.to_vec())
    }

    /// Stores `envelope` under `key`, atomically (temp file + rename),
    /// overwriting any existing entry.
    pub fn put(&self, key: &str, envelope: &[u8]) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let header = format!("{MAGIC} {key} {:08x} {}\n", crc32(envelope), envelope.len());
        let tmp = self.dir.join(format!(".{key}.{}.tmp", std::process::id()));
        let mut framed = header.into_bytes();
        framed.extend_from_slice(envelope);
        std::fs::write(&tmp, &framed)?;
        let path = self.entry_path(key);
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// Clobbers one byte of an entry's body in place — test helper for the
/// corruption-recovery paths (kept here so integration tests and CI
/// smoke share one definition of "corrupt").
pub fn corrupt_entry(path: &Path) -> io::Result<()> {
    let mut raw = std::fs::read(path)?;
    let header_end = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header"))?;
    let target = header_end + 1 + (raw.len() - header_end - 1) / 2;
    raw[target] ^= 0x40;
    std::fs::write(path, raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (ResultStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "polite-wifi-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ResultStore::new(&dir), dir)
    }

    #[test]
    fn put_then_get_round_trips() {
        let (store, dir) = store();
        assert_eq!(store.get("00ff"), CacheRead::Miss);
        store.put("00ff", b"{\"seed\": 7}").unwrap();
        assert_eq!(store.get("00ff"), CacheRead::Hit(b"{\"seed\": 7}".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_is_detected_and_overwrite_recovers() {
        let (store, dir) = store();
        store.put("abcd", b"payload payload payload").unwrap();
        corrupt_entry(&store.entry_path("abcd")).unwrap();
        match store.get("abcd") {
            CacheRead::Corrupt(why) => assert!(why.contains("crc mismatch"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        store.put("abcd", b"payload payload payload").unwrap();
        assert_eq!(
            store.get("abcd"),
            CacheRead::Hit(b"payload payload payload".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_key_swaps_are_detected() {
        let (store, dir) = store();
        store.put("1111", b"0123456789").unwrap();
        // Truncate the body.
        let path = store.entry_path("1111");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        match store.get("1111") {
            CacheRead::Corrupt(why) => assert!(why.contains("length mismatch"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A valid entry renamed to the wrong key must not be served.
        store.put("2222", b"0123456789").unwrap();
        std::fs::copy(store.entry_path("2222"), store.entry_path("3333")).unwrap();
        match store.get("3333") {
            CacheRead::Corrupt(why) => assert!(why.contains("key mismatch"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
