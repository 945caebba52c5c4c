//! The persistent cache store: where a [`Snapshot`] lives between
//! processes.
//!
//! One whole-snapshot file (`--cache-file`, [`CacheStore::file`]): JSON
//! when the path ends in `.json`, the compact binary codec otherwise.
//! Loading reads every byte and is all-or-nothing; saving rewrites the
//! file with the union of what was loaded and what the run added.

use std::path::{Path, PathBuf};

use sega_wire::snapshot::fnv1a64;
use sega_wire::Snapshot;

use crate::batch::{decode_cache_file, encode_cache_file};

/// Store traffic accounting, surfaced in the batch report's `"cache"`
/// object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries the last load yielded.
    pub entries_loaded: usize,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
}

/// A persistent home for cache snapshots: one snapshot file.
#[derive(Debug)]
pub struct CacheStore {
    path: PathBuf,
    stats: StoreStats,
}

impl CacheStore {
    /// A single-file store at `path` (created on first save).
    pub fn file(path: impl Into<PathBuf>) -> CacheStore {
        CacheStore {
            path: path.into(),
            stats: StoreStats::default(),
        }
    }

    /// The store's path, for log lines.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Traffic accounting so far.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Loads everything the store holds. A missing file is an empty
    /// snapshot, not an error.
    ///
    /// # Errors
    ///
    /// A message naming the path, the content fingerprint and the byte
    /// offset where decoding stopped.
    pub fn load(&mut self) -> Result<Snapshot, String> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Snapshot::default()),
            Err(e) => {
                return Err(format!(
                    "cannot read cache file `{}`: {e}",
                    self.path.display()
                ))
            }
        };
        self.stats.bytes_read += bytes.len() as u64;
        let snapshot = decode_cache_file(&bytes).map_err(|e| {
            format!(
                "cache file `{}` (content fingerprint {:016x}): {e}",
                self.path.display(),
                fnv1a64(&bytes)
            )
        })?;
        self.stats.entries_loaded = snapshot.len();
        Ok(snapshot)
    }

    /// Persists `current` by rewriting the file whole.
    ///
    /// # Errors
    ///
    /// A human-readable I/O message.
    pub fn save(&mut self, current: &Snapshot) -> Result<(), String> {
        let bytes = encode_cache_file(current, &self.path);
        std::fs::write(&self.path, &bytes)
            .map_err(|e| format!("cannot write cache file `{}`: {e}", self.path.display()))?;
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sega_wire::snapshot::{EntryRecord, GeometryRecord, KeyRecord, SpaceRecord};

    fn snapshot(wstore: u64, range: std::ops::Range<u32>) -> Snapshot {
        let key = KeyRecord {
            tech_name: "tsmc28-calibrated".to_owned(),
            node_bits: 28.0f64.to_bits(),
            gate_area_bits: 0.18f64.to_bits(),
            gate_delay_bits: 0.008f64.to_bits(),
            gate_energy_bits: 0.4f64.to_bits(),
            nominal_voltage_bits: 0.9f64.to_bits(),
            voltage_bits: 0.9f64.to_bits(),
            sparsity_bits: 0.1f64.to_bits(),
            activity_bits: 0.1f64.to_bits(),
            precision: "INT8".to_owned(),
            wstore,
        };
        let mut s = Snapshot {
            spaces: vec![SpaceRecord {
                key,
                entries: range
                    .map(|i| EntryRecord {
                        geometry: GeometryRecord {
                            log_h: i,
                            log_l: 0,
                            k: 1,
                        },
                        objectives: [i as f64, 1.0, 2.0, -3.0],
                    })
                    .collect(),
            }],
        };
        s.canonicalize();
        s
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sega-store-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_store_round_trips_and_reports_missing_as_empty() {
        let dir = tempdir("file");
        let path = dir.join("warm.bin");
        let mut store = CacheStore::file(&path);
        assert!(store.load().unwrap().is_empty());
        let s = snapshot(8192, 0..10);
        store.save(&s).unwrap();
        let mut again = CacheStore::file(&path);
        assert_eq!(again.load().unwrap(), s);
        assert_eq!(again.stats().entries_loaded, 10);
        assert!(again.stats().bytes_read > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_errors_name_path_offset_and_fingerprint() {
        let dir = tempdir("file-err");
        let path = dir.join("warm.bin");
        let mut bytes = snapshot(8192, 0..10).encode_binary();
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        let err = CacheStore::file(&path).load().unwrap_err();
        assert!(err.contains("warm.bin"), "{err}");
        assert!(err.contains("fingerprint"), "{err}");
        assert!(err.contains("offset"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
