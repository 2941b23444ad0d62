//! The content-addressed result cache.
//!
//! A result is a pure function of `(canonical spec JSON, code version,
//! scale)` — PR 4 made experiments deterministic functions of their spec
//! document, so the triple's SHA-256 is a complete address for the
//! finished table. Identical and overlapping submissions (same figure
//! requested by many clients, a spec re-submitted with its keys in a
//! different order) resolve to the same key and are served from disk
//! without touching the simulator.
//!
//! Entries are single JSON files `<dir>/<key>.json` of the form
//! `{"checksum": <sha256 of canonical entry>, "entry": {...}}`, written
//! atomically (temp file + rename). A corrupt entry — truncated write,
//! bit rot, hand-editing — fails checksum or structural validation, is
//! **evicted** (deleted) and the result recomputed; a corrupt entry is
//! never served.

use qsc_core::report::{SinkFormat, Table};
use qsc_json::sha256::sha256_hex;
use qsc_json::{JsonError, Value};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bump to invalidate every cached result on a change that affects
/// numeric output without changing the crate version (kernel tweaks,
/// seeding changes). Part of every cache key.
///
/// Epoch 2: dense embeddings build only the eigenvectors they read
/// (`eigh_spectrum`). Tolerance contract against epoch 1: eigenvalues are
/// bit-identical; eigenvectors are within `4·n·ε` (max entry modulus) of
/// `eigh`'s, with the same sign and phase; label and metric columns are
/// unchanged (the quick-suite goldens still match byte for byte).
pub const CACHE_EPOCH: u32 = 2;

/// The code-version component of cache keys: crate version + cache
/// epoch. Two builds that can disagree on any table byte must differ
/// here.
pub fn code_version() -> String {
    format!("{}+epoch{}", env!("CARGO_PKG_VERSION"), CACHE_EPOCH)
}

/// The content address of one sweep result.
///
/// # Errors
///
/// Returns [`JsonError`] if the spec document cannot be canonicalized
/// (duplicate keys in a hand-built value; parsed documents never fail).
pub fn cache_key(spec: &Value, code_version: &str, scale: &str) -> Result<String, JsonError> {
    let canonical = spec.to_json_canonical()?;
    let material = format!("{code_version}\n{scale}\n{canonical}");
    Ok(sha256_hex(material.as_bytes()))
}

/// Errors of the cache layer (I/O only — corruption is not an error,
/// it is an eviction).
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem failure reading/writing the cache directory.
    Io(std::io::Error),
    /// An entry could not be serialized.
    Encode(JsonError),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache I/O: {e}"),
            CacheError::Encode(e) => write!(f, "cache entry encoding: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// A finished sweep result in cacheable form: everything the service's
/// result endpoints need to answer without re-running anything.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Spec name (output file stem).
    pub name: String,
    /// Spec title.
    pub title: String,
    /// The primary (machine-readable) table.
    pub table: Table,
    /// Post-table analysis notes.
    pub notes: Vec<String>,
    /// The sink formats the spec requested.
    pub sinks: Vec<SinkFormat>,
}

impl CachedResult {
    fn to_json(&self) -> Value {
        let rows = Value::Arr(
            self.table
                .rows()
                .iter()
                .map(|row| Value::Arr(row.iter().map(|c| Value::Str(c.clone())).collect()))
                .collect(),
        );
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("title".into(), Value::Str(self.title.clone())),
            (
                "columns".into(),
                Value::Arr(
                    self.table
                        .columns()
                        .iter()
                        .map(|c| Value::Str(c.clone()))
                        .collect(),
                ),
            ),
            ("rows".into(), rows),
            (
                "notes".into(),
                Value::Arr(self.notes.iter().map(|n| Value::Str(n.clone())).collect()),
            ),
            (
                "sinks".into(),
                Value::Arr(
                    self.sinks
                        .iter()
                        .map(|s| Value::Str(s.extension().to_string()))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<CachedResult, JsonError> {
        let mut r = v.reader("cache entry")?;
        let name = r.req_str("name")?.to_string();
        let title = r.req_str("title")?.to_string();
        let str_list = |v: &Value, what: &str| -> Result<Vec<String>, JsonError> {
            v.as_array()
                .ok_or_else(|| JsonError::msg(format!("cache entry: {what} must be an array")))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| JsonError::msg(format!("cache entry: non-string {what}")))
                })
                .collect()
        };
        let columns = str_list(r.required("columns")?, "columns")?;
        let rows_value = r.required("rows")?;
        let mut table = Table::new(columns.clone());
        for row in rows_value
            .as_array()
            .ok_or_else(|| JsonError::msg("cache entry: rows must be an array"))?
        {
            let cells = str_list(row, "row")?;
            if cells.len() != columns.len() {
                return Err(JsonError::msg(format!(
                    "cache entry: row width {} != column count {}",
                    cells.len(),
                    columns.len()
                )));
            }
            table.push_row(cells);
        }
        let notes = str_list(r.required("notes")?, "notes")?;
        let sinks = str_list(r.required("sinks")?, "sinks")?
            .iter()
            .map(|name| {
                SinkFormat::parse(name)
                    .ok_or_else(|| JsonError::msg(format!("cache entry: unknown sink `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        Ok(CachedResult {
            name,
            title,
            table,
            notes,
            sinks,
        })
    }
}

/// A point-in-time view of cache activity since the cache was opened.
/// Counters are process-lifetime (they reset on restart); `entries` is
/// the current on-disk entry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entry files currently on disk.
    pub entries: u64,
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found nothing servable (absent or evicted).
    pub misses: u64,
    /// Corrupt entries deleted during lookup.
    pub evictions: u64,
}

/// The on-disk cache: one checksummed JSON file per key. Clones share
/// the same activity counters, so stats aggregate across every worker
/// holding a handle.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
}

impl ResultCache {
    /// Opens (creating if needed, parents included) a cache directory.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            evictions: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The entry file of a key.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks a key up. Corrupt entries (parse failure, checksum mismatch,
    /// structural mismatch) are evicted from disk and reported as a miss —
    /// never served.
    pub fn lookup(&self, key: &str) -> Option<CachedResult> {
        let path = self.entry_path(key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match Self::validate(&text) {
            Ok(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Err(_) => {
                // Eviction is best-effort: a failed delete just means the
                // next lookup revalidates (and re-fails) the same bytes.
                let _ = std::fs::remove_file(&path);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// A snapshot of cache activity since this cache was opened, plus the
    /// current on-disk entry count (temp files excluded).
    pub fn stats(&self) -> CacheStats {
        let entries = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.ends_with(".json") && !name.starts_with('.')
                    })
                    .count() as u64
            })
            .unwrap_or(0);
        CacheStats {
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn validate(text: &str) -> Result<CachedResult, JsonError> {
        let envelope = Value::parse(text)?;
        let mut r = envelope.reader("cache envelope")?;
        let checksum = r.req_str("checksum")?.to_string();
        let entry = r.required("entry")?.clone();
        r.finish()?;
        let canonical = entry.to_json_canonical()?;
        if sha256_hex(canonical.as_bytes()) != checksum {
            return Err(JsonError::msg("cache entry checksum mismatch"));
        }
        CachedResult::from_json(&entry)
    }

    /// Persists a result under a key (atomic: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] for filesystem failures.
    pub fn store(&self, key: &str, result: &CachedResult) -> Result<(), CacheError> {
        let entry = result.to_json();
        let canonical = entry.to_json_canonical().map_err(CacheError::Encode)?;
        let envelope = Value::Obj(vec![
            (
                "checksum".into(),
                Value::Str(sha256_hex(canonical.as_bytes())),
            ),
            ("entry".into(), entry),
        ]);
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(".{key}.tmp"));
        std::fs::write(&tmp, envelope.pretty())?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qsc-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> CachedResult {
        let mut table = Table::new(["n", "accuracy"]);
        table.push_row(["100", "0.990 ± 0.003"]);
        table.push_row(["200", "failed(budget)"]);
        CachedResult {
            name: "t".into(),
            title: "a test".into(),
            table,
            notes: vec!["fitted log–log growth: n^2.00".into()],
            sinks: vec![SinkFormat::Csv, SinkFormat::Json],
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = ResultCache::open(tmp_dir("roundtrip")).unwrap();
        let result = sample();
        let key = cache_key(
            &Value::parse(r#"{"name":"t","b":1}"#).unwrap(),
            &code_version(),
            "quick",
        )
        .unwrap();
        assert!(cache.lookup(&key).is_none(), "cold cache must miss");
        cache.store(&key, &result).unwrap();
        assert_eq!(cache.lookup(&key), Some(result));
    }

    #[test]
    fn key_ignores_field_order_but_not_content() {
        let a = Value::parse(r#"{"name":"t","reps":3}"#).unwrap();
        let b = Value::parse(r#"{"reps":3,"name":"t"}"#).unwrap();
        let c = Value::parse(r#"{"reps":4,"name":"t"}"#).unwrap();
        let v = code_version();
        assert_eq!(
            cache_key(&a, &v, "quick").unwrap(),
            cache_key(&b, &v, "quick").unwrap()
        );
        assert_ne!(
            cache_key(&a, &v, "quick").unwrap(),
            cache_key(&c, &v, "quick").unwrap()
        );
        assert_ne!(
            cache_key(&a, &v, "quick").unwrap(),
            cache_key(&a, &v, "full").unwrap()
        );
    }

    #[test]
    fn code_version_bump_changes_key() {
        let spec = Value::parse(r#"{"name":"t"}"#).unwrap();
        let now = cache_key(&spec, &code_version(), "quick").unwrap();
        let bumped = cache_key(
            &spec,
            &format!("{}+epoch{}", env!("CARGO_PKG_VERSION"), CACHE_EPOCH + 1),
            "quick",
        )
        .unwrap();
        assert_ne!(now, bumped);
    }

    #[test]
    fn corrupt_entries_are_evicted_not_served() {
        let cache = ResultCache::open(tmp_dir("corrupt")).unwrap();
        let key = "0".repeat(64);
        cache.store(&key, &sample()).unwrap();

        // Flip one byte inside the stored rows: checksum catches it.
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes
            .windows(5)
            .position(|w| w == b"0.990")
            .expect("payload present");
        bytes[pos] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup(&key).is_none(), "corrupt entry served");
        assert!(!path.exists(), "corrupt entry not evicted");

        // Truncation and non-JSON garbage likewise evict.
        for garbage in ["{\"checksum\": \"ab", "not json at all"] {
            cache.store(&key, &sample()).unwrap();
            std::fs::write(&path, garbage).unwrap();
            assert!(cache.lookup(&key).is_none());
            assert!(!path.exists());
        }

        // And a fresh store afterwards serves again.
        cache.store(&key, &sample()).unwrap();
        assert_eq!(cache.lookup(&key), Some(sample()));
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let cache = ResultCache::open(tmp_dir("stats")).unwrap();
        let key = "1".repeat(64);
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 0,
                hits: 0,
                misses: 0,
                evictions: 0
            }
        );

        // Cold miss, then store → hit; clones share the counters.
        assert!(cache.lookup(&key).is_none());
        cache.store(&key, &sample()).unwrap();
        let clone = cache.clone();
        assert!(clone.lookup(&key).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 1,
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );

        // Corruption: the failed lookup is both an eviction and a miss.
        std::fs::write(cache.entry_path(&key), "garbage").unwrap();
        assert!(cache.lookup(&key).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                entries: 0,
                hits: 1,
                misses: 2,
                evictions: 1
            }
        );
    }
}
