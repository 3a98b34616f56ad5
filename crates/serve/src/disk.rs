//! Persistent sharded content-addressed result store.
//!
//! On-disk layout under the cache root:
//!
//! ```text
//! <root>/ab/ab3f…e2.entry      ← one finished result, shard = key[0..2]
//! <root>/ab/ab3f…e2.tmp-<n>    ← in-flight write (crash leftover only)
//! <root>/quarantine/…          ← torn/corrupt files found on startup
//! ```
//!
//! Every entry file is a one-line JSON header — the key, the cache-key
//! version ([`KEY_VERSION`]), the payload's SHA-256, the payload byte
//! length, and the write timestamp — followed by the raw payload bytes. The write protocol is crash-safe:
//! serialize into `<final>.tmp-<seq>`, `fsync` the temp file, atomically
//! `rename` it over the final path, then `fsync` the shard directory. A
//! crash at any point leaves either the old state or the new state plus
//! possibly a torn `.tmp-*` file; startup recovery
//! ([`DiskCache::open`]) validates every `.entry` (header parses, name
//! matches key, digest matches payload) into the index and moves
//! everything else into `quarantine/`, counting both outcomes. An entry
//! of another key version is deleted and counted as discarded: no key
//! of this version can reach it, so it must not hold disk budget.
//!
//! The in-memory index mirrors the directory: the serve crate's one LRU,
//! each key weighted by its file's bytes. Inserts past the byte cap
//! evict strictly least-recently-used entries (loads refresh recency,
//! and touch the file's mtime so the ordering survives a restart).
//! Startup recovery and the offline [`gc`] share one shard walk that
//! judges every file; each applies its own policy to the verdicts. [`shard_rel_path`] / [`key_of_rel_path`]
//! are the pure key↔path maps the format proptests round-trip.
//!
//! Fault injection: [`DiskCacheConfig::cache_fault`] (the daemon sets it
//! from `RETIME_SERVE_CACHE_FAULT=abort-before-rename`) makes the first
//! store abort the process between the temp-file write and the rename —
//! the crash-recovery integration test uses this to manufacture a torn
//! write deterministically.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use crate::canon::KEY_VERSION;
use crate::hash::sha256_hex;
use crate::json::{obj, parse, Json};
use crate::lru::Lru;

/// Suffix of a committed entry file.
pub const ENTRY_SUFFIX: &str = ".entry";
/// Infix marking an in-flight temp file (`<key>.entry.tmp-<seq>`).
pub const TMP_INFIX: &str = ".tmp-";
/// Subdirectory torn/corrupt files are moved into on startup.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Relative path of a key's entry file: `ab/ab…{64 hex}.entry`.
pub fn shard_rel_path(key: &str) -> PathBuf {
    PathBuf::from(&key[..2]).join(format!("{key}{ENTRY_SUFFIX}"))
}

/// Inverse of [`shard_rel_path`]: recovers the key from a relative
/// entry path, or `None` when the path is not a well-formed entry
/// location (wrong shard, wrong suffix, non-hex, wrong length).
pub fn key_of_rel_path(rel: &Path) -> Option<String> {
    let mut comps = rel.components();
    let shard = comps.next()?.as_os_str().to_str()?;
    let file = comps.next()?.as_os_str().to_str()?;
    if comps.next().is_some() {
        return None;
    }
    let key = file.strip_suffix(ENTRY_SUFFIX)?;
    let well_formed = key.len() == 64
        && key
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        && shard == &key[..2];
    well_formed.then(|| key.to_string())
}

/// How a [`DiskCache`] is wired up.
#[derive(Debug, Clone)]
pub struct DiskCacheConfig {
    /// Cache root directory (created if missing).
    pub dir: PathBuf,
    /// Byte cap across all entry files; inserts past it evict LRU.
    pub max_bytes: u64,
    /// Abort the process between a store's temp-file write and its
    /// rename (crash-recovery tests only).
    pub cache_fault: bool,
}

/// What startup recovery found in an existing cache directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid entries admitted into the index.
    pub recovered: u64,
    /// Torn temp files and corrupt entries moved to `quarantine/`, and
    /// entries of another key version deleted.
    pub discarded: u64,
}

/// A validated entry read back from disk.
#[derive(Debug)]
pub struct DiskEntry {
    /// The stored payload text, byte-identical to what was written.
    pub payload: String,
    /// SHA-256 (hex) of `payload`, from the verified header.
    pub payload_sha256: String,
    /// Seconds since the entry was written (0 when clocks disagree).
    pub age_secs: u64,
}

/// The persistent store: sharded directory plus in-memory LRU index.
pub struct DiskCache {
    dir: PathBuf,
    cache_fault: bool,
    /// Every indexed entry, weighted by its file's bytes against the
    /// byte cap.
    index: Mutex<Lru<()>>,
    tmp_seq: AtomicU64,
    evictions: AtomicU64,
}

impl DiskCache {
    /// Opens (or creates) a cache directory, scanning existing shards
    /// into the index. Valid entries are admitted oldest-mtime-first so
    /// the rebuilt LRU order matches the writing process's; torn temp
    /// files and corrupt entries are moved to `quarantine/` and counted.
    ///
    /// # Errors
    /// Propagates directory creation/scan failures. Unreadable
    /// individual files are quarantined, not fatal.
    pub fn open(cfg: DiskCacheConfig) -> io::Result<(DiskCache, RecoveryStats)> {
        fs::create_dir_all(&cfg.dir)?;
        let cache = DiskCache {
            dir: cfg.dir,
            cache_fault: cfg.cache_fault,
            index: Mutex::new(Lru::new(cfg.max_bytes)),
            tmp_seq: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
        };
        let mut stats = RecoveryStats::default();
        // (mtime, key, bytes) of every valid entry, admitted in age order.
        let mut valid: Vec<(SystemTime, String, u64)> = Vec::new();
        walk_shards(&cache.dir, |path, found| {
            match found {
                Found::Entry { key, bytes } => {
                    let mtime = fs::symlink_metadata(path)
                        .and_then(|m| m.modified())
                        .unwrap_or(SystemTime::UNIX_EPOCH);
                    valid.push((mtime, key, bytes));
                }
                Found::Stale => {
                    let _ = fs::remove_file(path);
                    stats.discarded += 1;
                }
                Found::Temp | Found::Corrupt => {
                    let _ = quarantine(&cache.dir, path);
                    stats.discarded += 1;
                }
                Found::Foreign => {}
            }
            Ok(())
        })?;
        valid.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut index = cache.index.lock().expect("disk index lock");
        for (_, key, bytes) in valid {
            index.insert(&key, (), bytes);
            stats.recovered += 1;
        }
        drop(index);
        Ok((cache, stats))
    }

    /// Loads and verifies a key's entry, refreshing its LRU recency (in
    /// memory and on the file's mtime). Returns `None` on miss; a
    /// corrupt entry is quarantined and reads as a miss.
    pub fn load(&self, key: &str) -> Option<DiskEntry> {
        if !self.index.lock().expect("disk index lock").contains(key) {
            return None;
        }
        let path = self.dir.join(shard_rel_path(key));
        match read_entry(&path, key) {
            Ok(entry) => {
                self.index.lock().expect("disk index lock").get(key);
                if let Ok(f) = fs::OpenOptions::new().append(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(entry)
            }
            Err(_) => {
                self.index.lock().expect("disk index lock").remove(key);
                let _ = quarantine(&self.dir, &path);
                None
            }
        }
    }

    /// Persists a payload under its key with the crash-safe temp-file +
    /// `fsync` + atomic-rename protocol, then evicts LRU entries until
    /// the byte cap holds again. Returns how many entries were evicted.
    ///
    /// # Errors
    /// Propagates I/O failures; the index is only updated after the
    /// rename committed.
    pub fn store(&self, key: &str, payload: &str, payload_sha256: &str) -> io::Result<u64> {
        let rel = shard_rel_path(key);
        let final_path = self.dir.join(&rel);
        let shard_dir = final_path.parent().expect("entry has a shard dir");
        fs::create_dir_all(shard_dir)?;

        let header = obj(vec![
            ("key", Json::Str(key.to_string())),
            ("key_version", Json::Str(KEY_VERSION.to_string())),
            ("sha256", Json::Str(payload_sha256.to_string())),
            ("len", Json::Num(payload.len() as f64)),
            ("created_unix", Json::Num(unix_now() as f64)),
        ])
        .render();
        let tmp = self.dir.join(format!(
            "{}{}{}",
            rel.display(),
            TMP_INFIX,
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(b"\n")?;
            f.write_all(payload.as_bytes())?;
            f.sync_all()?;
        }
        if self.cache_fault {
            eprintln!("[retime-serve] cache fault injection: aborting before rename of {key}");
            std::process::abort();
        }
        fs::rename(&tmp, &final_path)?;
        // Persist the rename itself: fsync the shard directory.
        if let Ok(d) = fs::File::open(shard_dir) {
            let _ = d.sync_all();
        }

        let bytes = fs::metadata(&final_path)?.len();
        let mut index = self.index.lock().expect("disk index lock");
        index.insert(key, (), bytes);
        let mut evicted = 0;
        while let Some(victim) = index.pop_over_cap() {
            let _ = fs::remove_file(self.dir.join(shard_rel_path(&victim)));
            evicted += 1;
        }
        drop(index);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(evicted)
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.index.lock().expect("disk index lock").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of all indexed entry files.
    pub fn total_bytes(&self) -> u64 {
        self.index.lock().expect("disk index lock").weight()
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Keys in eviction order, least recently used first (test hook for
    /// the strict-LRU property).
    pub fn keys_lru(&self) -> Vec<String> {
        self.index
            .lock()
            .expect("disk index lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Per-key byte sizes (test hook for rebuild-equality checks).
    pub fn sizes(&self) -> BTreeMap<String, u64> {
        self.index
            .lock()
            .expect("disk index lock")
            .weights()
            .map(|(k, bytes)| (k.clone(), bytes))
            .collect()
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// What an offline [`gc`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Valid entries kept (header parses, name matches key, digest
    /// matches payload).
    pub kept: u64,
    /// Total bytes of the kept entries.
    pub kept_bytes: u64,
    /// Orphaned `.tmp-*` files deleted.
    pub temps_removed: u64,
    /// Entries of another key version deleted (no key reaches them).
    pub stale_removed: u64,
    /// Corrupt, misnamed, or foreign shard files moved to
    /// `quarantine/` (the same policy startup recovery applies).
    pub quarantined: u64,
    /// Top-level non-shard entries left untouched (not ours to judge).
    pub skipped: u64,
}

impl std::fmt::Display for GcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {} entries ({} bytes), removed {} orphaned temp files, \
             removed {} entries of another key version, \
             quarantined {} corrupt entries, skipped {} foreign files",
            self.kept,
            self.kept_bytes,
            self.temps_removed,
            self.stale_removed,
            self.quarantined,
            self.skipped
        )
    }
}

/// Offline cache-directory compaction (`retime-serve --cache-gc`): walk
/// every shard, delete orphaned `.tmp-*` leftovers from interrupted
/// writes and entries of another key version, re-verify each `.entry`'s
/// header and payload digest (moving anything corrupt or misnamed into
/// `quarantine/`), and report what was kept. The same validation startup recovery applies, runnable
/// without starting a server and without loading payloads into memory
/// beyond one at a time. Must not run concurrently with a serving
/// process on the same directory — a temp file about to be renamed
/// would read as an orphan.
///
/// # Errors
/// Propagates directory scan failures; individual bad files are
/// handled, not fatal.
pub fn gc(dir: &Path) -> io::Result<GcReport> {
    let mut report = GcReport::default();
    walk_shards(dir, |path, found| {
        match found {
            Found::Entry { bytes, .. } => {
                report.kept += 1;
                report.kept_bytes += bytes;
            }
            Found::Temp => {
                fs::remove_file(path)?;
                report.temps_removed += 1;
            }
            Found::Stale => {
                fs::remove_file(path)?;
                report.stale_removed += 1;
            }
            Found::Corrupt => {
                quarantine(dir, path)?;
                report.quarantined += 1;
            }
            Found::Foreign => report.skipped += 1,
        }
        Ok(())
    })?;
    Ok(report)
}

/// The verdict of the shard walk on one path under the cache root.
enum Found {
    /// A valid entry of this key version: its key and file size.
    Entry { key: String, bytes: u64 },
    /// An in-flight temp file: a crash leftover, unless a store is
    /// running.
    Temp,
    /// An entry written under another cache-key version: well formed,
    /// but no key of this version can reach it.
    Stale,
    /// A shard file that is unreadable, torn, misnamed or corrupt.
    Corrupt,
    /// A top-level entry that is not a shard directory: not ours to
    /// judge.
    Foreign,
}

/// Walks the cache root `dir` and calls `visit` on every shard file,
/// and on every top-level entry that is no shard, with its verdict.
/// The quarantine directory is not entered. Validating an entry reads
/// one payload at a time.
///
/// # Errors
/// Propagates directory scan failures and `visit`'s errors.
fn walk_shards(
    dir: &Path,
    mut visit: impl FnMut(&Path, Found) -> io::Result<()>,
) -> io::Result<()> {
    for shard in fs::read_dir(dir)? {
        let shard = shard?;
        let name = shard.file_name();
        let shard_name = match name.to_str() {
            Some(name) if shard.file_type()?.is_dir() => name,
            _ => {
                visit(&shard.path(), Found::Foreign)?;
                continue;
            }
        };
        if shard_name == QUARANTINE_DIR {
            continue;
        }
        for file in fs::read_dir(shard.path())? {
            let file = file?;
            let name = file.file_name();
            let found = if name.to_str().is_some_and(|n| n.contains(TMP_INFIX)) {
                Found::Temp
            } else {
                judge(&file.path(), &Path::new(shard_name).join(name))
            };
            visit(&file.path(), found)?;
        }
    }
    Ok(())
}

/// Moves `path` into the quarantine directory of the cache root `dir`.
fn quarantine(dir: &Path, path: &Path) -> io::Result<()> {
    let pen = dir.join(QUARANTINE_DIR);
    fs::create_dir_all(&pen)?;
    match path.file_name() {
        Some(name) => fs::rename(path, pen.join(name)),
        None => Ok(()),
    }
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Judges one shard file at `path`, relative path `rel`: committed
/// suffix, header parses, name matches the header key, key version is
/// this one, digest matches the payload.
fn judge(path: &Path, rel: &Path) -> Found {
    let Some(key) = key_of_rel_path(rel) else {
        return Found::Corrupt;
    };
    match read_entry(path, &key) {
        Ok(_) => match fs::metadata(path) {
            Ok(meta) => Found::Entry {
                key,
                bytes: meta.len(),
            },
            Err(_) => Found::Corrupt,
        },
        Err(e) if e.kind() == io::ErrorKind::Unsupported => Found::Stale,
        Err(_) => Found::Corrupt,
    }
}

/// Reads and fully validates one entry file: header line parses, its
/// key matches `key`, its length matches the payload, and the payload
/// hashes to the recorded digest. A well-formed header of another key
/// version is an [`io::ErrorKind::Unsupported`] error.
fn read_entry(path: &Path, key: &str) -> io::Result<DiskEntry> {
    let mut raw = Vec::new();
    fs::File::open(path)?.read_to_end(&mut raw)?;
    let nl = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing header line"))?;
    let header_text = std::str::from_utf8(&raw[..nl]).map_err(|_| corrupt("non-UTF-8 header"))?;
    let header = parse(header_text).map_err(|_| corrupt("unparseable header"))?;
    if header.get("key").and_then(Json::as_str) != Some(key) {
        return Err(corrupt("header key mismatch"));
    }
    if header.get("key_version").and_then(Json::as_str) != Some(KEY_VERSION) {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "cache entry of another key version",
        ));
    }
    let sha = header
        .get("sha256")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("header missing sha256"))?;
    let len = header
        .get("len")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("header missing len"))?;
    let payload = &raw[nl + 1..];
    if payload.len() as u64 != len {
        return Err(corrupt("payload length mismatch"));
    }
    if sha256_hex(payload) != sha {
        return Err(corrupt("payload digest mismatch"));
    }
    let created = header
        .get("created_unix")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let payload = String::from_utf8(payload.to_vec()).map_err(|_| corrupt("non-UTF-8 payload"))?;
    Ok(DiskEntry {
        payload,
        payload_sha256: sha.to_string(),
        age_secs: unix_now().saturating_sub(created),
    })
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt cache entry: {what}"),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A unique scratch directory under the system temp dir, removed on
    /// drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "retime-serve-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed),
            ));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(n: u8) -> String {
        sha256_hex(&[n])
    }

    fn open(dir: &Path, cap: u64) -> (DiskCache, RecoveryStats) {
        DiskCache::open(DiskCacheConfig {
            dir: dir.to_path_buf(),
            max_bytes: cap,
            cache_fault: false,
        })
        .expect("open disk cache")
    }

    fn store(cache: &DiskCache, key: &str, payload: &str) -> u64 {
        cache
            .store(key, payload, &sha256_hex(payload.as_bytes()))
            .expect("store")
    }

    #[test]
    fn path_round_trip_and_rejects() {
        let k = key(1);
        let rel = shard_rel_path(&k);
        assert_eq!(key_of_rel_path(&rel), Some(k.clone()));
        assert_eq!(rel.parent().unwrap().to_str().unwrap(), &k[..2]);
        // Wrong shard dir, bad suffix, junk names.
        assert_eq!(
            key_of_rel_path(&PathBuf::from("zz").join(format!("{k}.entry"))),
            None
        );
        assert_eq!(
            key_of_rel_path(&PathBuf::from(&k[..2]).join(format!("{k}.tmp-1"))),
            None
        );
        assert_eq!(key_of_rel_path(&PathBuf::from("ab/short.entry")), None);
    }

    #[test]
    fn store_load_round_trip_survives_reopen() {
        let tmp = TempDir::new("roundtrip");
        let (cache, stats) = open(&tmp.0, 1 << 20);
        assert_eq!(stats, RecoveryStats::default());
        let k = key(1);
        store(&cache, &k, "{\"hello\":1}");
        let hit = cache.load(&k).expect("hit");
        assert_eq!(hit.payload, "{\"hello\":1}");
        drop(cache);

        let (reopened, stats) = open(&tmp.0, 1 << 20);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.discarded, 0);
        let hit = reopened.load(&k).expect("hit after reopen");
        assert_eq!(hit.payload, "{\"hello\":1}");
        assert!(reopened.load(&key(2)).is_none());
    }

    #[test]
    fn eviction_is_lru_and_respects_cap() {
        let tmp = TempDir::new("evict");
        let payload = "x".repeat(100);
        // Room for two entries of this payload, not three.
        let entry = {
            let probe = TempDir::new("evict-probe");
            let (cache, _) = open(&probe.0, u64::MAX);
            store(&cache, &key(1), &payload);
            cache.total_bytes()
        };
        let cap = 2 * entry + entry / 2;
        let (cache, _) = open(&tmp.0, cap);
        store(&cache, &key(1), &payload);
        store(&cache, &key(2), &payload);
        // Touch key 1 so key 2 is now LRU.
        cache.load(&key(1)).expect("hit");
        store(&cache, &key(3), &payload);
        assert!(cache.total_bytes() <= cap);
        assert!(cache.load(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.load(&key(1)).is_some());
        assert!(cache.load(&key(3)).is_some());
        assert!(cache.evictions() >= 1);
    }

    #[test]
    fn gc_removes_temps_quarantines_corrupt_and_keeps_valid() {
        let tmp = TempDir::new("gc");
        let (cache, _) = open(&tmp.0, 1 << 20);
        let k1 = key(1);
        let k2 = key(2);
        store(&cache, &k1, "keep me");
        store(&cache, &k2, "flip me");
        drop(cache);

        let shard1 = tmp.0.join(&k1[..2]);
        fs::write(shard1.join(format!("{k1}.entry.tmp-3")), b"torn").unwrap();
        fs::write(shard1.join("notes.txt"), b"foreign in shard").unwrap();
        fs::write(tmp.0.join("README"), b"foreign at top level").unwrap();
        let victim = tmp.0.join(shard_rel_path(&k2));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();

        let report = gc(&tmp.0).expect("gc");
        assert_eq!(report.kept, 1);
        assert!(report.kept_bytes > 0);
        assert_eq!(report.temps_removed, 1);
        assert_eq!(report.quarantined, 2, "corrupt entry + foreign shard file");
        assert_eq!(report.skipped, 1, "top-level file left untouched");
        assert!(!shard1.join("notes.txt").exists());
        assert!(tmp.0.join("README").exists());
        assert!(!victim.exists());

        // A compacted directory reopens with zero discards, and gc is
        // idempotent.
        let (reopened, stats) = open(&tmp.0, 1 << 20);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.discarded, 0);
        assert!(reopened.load(&k1).is_some());
        drop(reopened);
        let again = gc(&tmp.0).expect("gc again");
        assert_eq!(again.kept, 1);
        assert_eq!(again.temps_removed, 0);
        assert_eq!(again.quarantined, 0);
    }

    /// Recovery and `gc` judge a shard file through the same walk: a
    /// name that is not UTF-8 is no entry of ours, and both quarantine it.
    #[test]
    fn non_utf8_shard_files_are_quarantined_by_gc_and_recovery() {
        use std::os::unix::ffi::OsStrExt;
        let tmp = TempDir::new("non-utf8");
        let (cache, _) = open(&tmp.0, 1 << 20);
        let k = key(1);
        store(&cache, &k, "keep me");
        drop(cache);
        let odd = std::ffi::OsStr::from_bytes(b"\xff.entry");
        let shard = tmp.0.join(&k[..2]);
        fs::write(shard.join(odd), b"junk").unwrap();
        let (reopened, stats) = open(&tmp.0, 1 << 20);
        assert_eq!((stats.recovered, stats.discarded), (1, 1));
        drop(reopened);
        fs::write(shard.join(odd), b"junk").unwrap();
        let report = gc(&tmp.0).unwrap();
        assert_eq!((report.kept, report.quarantined, report.skipped), (1, 1, 0));
        assert!(!shard.join(odd).exists());
    }

    #[test]
    fn torn_temp_and_corrupt_entries_are_quarantined() {
        let tmp = TempDir::new("quarantine");
        let (cache, _) = open(&tmp.0, 1 << 20);
        let k1 = key(1);
        let k2 = key(2);
        store(&cache, &k1, "good");
        store(&cache, &k2, "soon-corrupt");
        drop(cache);

        // A torn temp file and a bit-flipped entry.
        let shard = tmp.0.join(&k1[..2]);
        fs::write(shard.join(format!("{k1}.entry.tmp-9")), b"torn").unwrap();
        let victim = tmp.0.join(shard_rel_path(&k2));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();

        let (reopened, stats) = open(&tmp.0, 1 << 20);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.discarded, 2);
        assert!(reopened.load(&k1).is_some());
        assert!(reopened.load(&k2).is_none());
        let pen: Vec<_> = fs::read_dir(tmp.0.join(QUARANTINE_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(pen.len(), 2, "{pen:?}");
    }

    /// Rewrites an entry's header as an older key version wrote it.
    fn downgrade(path: &Path, version: Option<&str>) {
        let text = fs::read_to_string(path).unwrap();
        let stamp = format!(",\"key_version\":\"{KEY_VERSION}\"");
        assert!(text.contains(&stamp), "{text}");
        let old = version.map_or(String::new(), |v| format!(",\"key_version\":\"{v}\""));
        fs::write(path, text.replacen(&stamp, &old, 1)).unwrap();
    }

    /// An entry of another key version is deleted on open: not
    /// recovered, counted as discarded, and out of the byte total.
    #[test]
    fn entries_of_another_key_version_are_dropped_on_open() {
        let tmp = TempDir::new("stale");
        let (cache, _) = open(&tmp.0, 1 << 20);
        let (k1, k2, k3) = (key(1), key(2), key(3));
        store(&cache, &k1, "current");
        store(&cache, &k2, "written by v3");
        store(&cache, &k3, "from the future");
        let kept_bytes = cache.sizes()[&k1];
        drop(cache);
        downgrade(&tmp.0.join(shard_rel_path(&k2)), None);
        downgrade(
            &tmp.0.join(shard_rel_path(&k3)),
            Some("retime-serve-key-v5"),
        );

        let (reopened, stats) = open(&tmp.0, 1 << 20);
        assert_eq!(
            stats,
            RecoveryStats {
                recovered: 1,
                discarded: 2
            }
        );
        assert_eq!(reopened.total_bytes(), kept_bytes);
        assert!(reopened.load(&k2).is_none());
        for k in [&k2, &k3] {
            assert!(!tmp.0.join(shard_rel_path(k)).exists());
        }
        assert!(!tmp.0.join(QUARANTINE_DIR).exists(), "stale is not corrupt");
        drop(reopened);

        // `gc` drops them too, and says so.
        store(&open(&tmp.0, 1 << 20).0, &k2, "written by v3");
        downgrade(&tmp.0.join(shard_rel_path(&k2)), None);
        let report = gc(&tmp.0).unwrap();
        assert_eq!(
            (report.kept, report.stale_removed, report.quarantined),
            (1, 1, 0)
        );
        assert!(report
            .to_string()
            .contains("removed 1 entries of another key version"));
    }
}
