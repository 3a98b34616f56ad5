//! Tiered content-addressed result cache: in-memory LRU over an
//! optional persistent disk tier.
//!
//! Keys are the SHA-256 of canonical netlist + library + flow config
//! (see [`crate::canon::cache_key`]); values are the finished job
//! payloads. A repeat submission of an identical job is answered from
//! here with zero solver work, byte-identical to the first run.
//!
//! Lookups consult the memory tier first, then fall through to the
//! [`DiskCache`] (when the daemon runs with `--cache-dir`) — a disk hit
//! re-verifies the payload digest, promotes the entry into memory, and
//! is counted separately from a memory hit so the disk-vs-memory split
//! shows up in the Prometheus metrics. Stores write through: memory
//! immediately, then the crash-safe disk protocol. Disk failures are
//! counted and swallowed — persistence is an accelerator, never a
//! correctness dependency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::disk::{DiskCache, DiskCacheConfig, RecoveryStats};
use crate::job::JobOutput;
use crate::lru::Lru;

/// A cached result: the deterministic payload and its digest.
#[derive(Debug)]
pub struct CachedResult {
    /// Rendered payload text.
    pub payload: String,
    /// SHA-256 (hex) of `payload`.
    pub payload_sha256: String,
}

/// How a [`ResultCache`] is wired up.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Memory-tier entry cap (`0` = unbounded).
    pub memory_entries: usize,
    /// Optional persistent tier.
    pub disk: Option<DiskCacheConfig>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            memory_entries: 4096,
            disk: None,
        }
    }
}

/// Which tier answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Served straight from the in-memory map.
    Memory,
    /// Re-read and verified from the disk tier (then promoted).
    Disk,
}

/// Counter snapshot of the cache's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub memory_hits: u64,
    /// Lookups answered from disk (verified + promoted).
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Memory-tier entries dropped by the entry cap.
    pub memory_evictions: u64,
    /// Disk-tier entries dropped by the byte cap.
    pub disk_evictions: u64,
    /// Disk stores/loads that failed (persistence is best-effort).
    pub disk_errors: u64,
    /// Accumulated age (seconds since write) of disk-served entries.
    pub disk_hit_age_secs: u64,
}

/// Thread-safe tiered content-addressed store.
pub struct ResultCache {
    /// The memory tier: every entry weighs 1 against the entry cap.
    mem: Mutex<Lru<Arc<CachedResult>>>,
    disk: Option<DiskCache>,
    recovery: RecoveryStats,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    memory_evictions: AtomicU64,
    disk_errors: AtomicU64,
    disk_hit_age_secs: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new()
    }
}

impl ResultCache {
    /// An unbounded memory-only cache (the test/bench default).
    pub fn new() -> ResultCache {
        ResultCache::with_config(CacheConfig {
            memory_entries: 0,
            disk: None,
        })
        .expect("memory-only cache cannot fail to open")
    }

    /// Opens a cache per `config`, running disk recovery when a
    /// persistent tier is configured.
    ///
    /// # Errors
    /// Propagates disk-tier open/scan failures.
    pub fn with_config(config: CacheConfig) -> std::io::Result<ResultCache> {
        let (disk, recovery) = match config.disk {
            Some(cfg) => {
                let (d, r) = DiskCache::open(cfg)?;
                (Some(d), r)
            }
            None => (None, RecoveryStats::default()),
        };
        let cap = match config.memory_entries {
            0 => u64::MAX,
            n => n as u64,
        };
        Ok(ResultCache {
            mem: Mutex::new(Lru::new(cap)),
            disk,
            recovery,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            memory_evictions: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
            disk_hit_age_secs: AtomicU64::new(0),
        })
    }

    /// Looks up a key across both tiers, counting the hit tier or miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<CachedResult>> {
        self.lookup_tiered(key).map(|(v, _)| v)
    }

    /// [`ResultCache::lookup`] that also reports which tier answered.
    pub fn lookup_tiered(&self, key: &str) -> Option<(Arc<CachedResult>, HitTier)> {
        if let Some(hit) = self.mem.lock().expect("cache lock").get(key).cloned() {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some((hit, HitTier::Memory));
        }
        if let Some(disk) = &self.disk {
            if let Some(entry) = disk.load(key) {
                let value = Arc::new(CachedResult {
                    payload: entry.payload,
                    payload_sha256: entry.payload_sha256,
                });
                self.remember(key, Arc::clone(&value));
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hit_age_secs
                    .fetch_add(entry.age_secs, Ordering::Relaxed);
                return Some((value, HitTier::Disk));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a finished job under its key: memory immediately, then
    /// write-through to the disk tier (best-effort, errors counted).
    pub fn store(&self, key: &str, output: &JobOutput) {
        let value = Arc::new(CachedResult {
            payload: output.payload.clone(),
            payload_sha256: output.payload_sha256.clone(),
        });
        self.remember(key, value);
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(key, &output.payload, &output.payload_sha256) {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("[retime-serve] disk cache store failed for {key}: {e}");
            }
        }
    }

    /// Puts a value into the memory tier, evicting LRU entries past the
    /// entry cap.
    fn remember(&self, key: &str, value: Arc<CachedResult>) {
        let mut mem = self.mem.lock().expect("cache lock");
        mem.insert(key, value, 1);
        let mut evicted = 0;
        while mem.pop_over_cap().is_some() {
            evicted += 1;
        }
        drop(mem);
        self.memory_evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Memory-tier entries resident.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Disk-tier entry count (0 without a persistent tier).
    pub fn disk_len(&self) -> usize {
        self.disk.as_ref().map_or(0, DiskCache::len)
    }

    /// Disk-tier resident bytes (0 without a persistent tier).
    pub fn disk_bytes(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskCache::total_bytes)
    }

    /// What startup recovery found (zeros without a persistent tier).
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            memory_evictions: self.memory_evictions.load(Ordering::Relaxed),
            disk_evictions: self.disk.as_ref().map_or(0, DiskCache::evictions),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            disk_hit_age_secs: self.disk_hit_age_secs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_engine::PhaseTimings;

    fn output(payload: &str) -> JobOutput {
        JobOutput {
            payload: payload.to_string(),
            payload_sha256: crate::hash::sha256_hex(payload.as_bytes()),
            solver_invocations: 1,
            phases: PhaseTimings::new(),
        }
    }

    /// Cache keys are SHA-256 digests in production; derive one.
    fn key(tag: &str) -> String {
        crate::hash::sha256_hex(tag.as_bytes())
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ResultCache::new();
        let k = key("k");
        assert!(cache.lookup(&k).is_none());
        cache.store(&k, &output("{\"a\":1}"));
        let hit = cache.lookup(&k).unwrap();
        assert_eq!(hit.payload, "{\"a\":1}");
        let stats = cache.stats();
        assert_eq!((stats.memory_hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn memory_tier_evicts_lru_at_entry_cap() {
        let cache = ResultCache::with_config(CacheConfig {
            memory_entries: 2,
            disk: None,
        })
        .unwrap();
        let (a, b, c) = (key("a"), key("b"), key("c"));
        cache.store(&a, &output("1"));
        cache.store(&b, &output("2"));
        assert!(cache.lookup(&a).is_some(), "a is now most recent");
        cache.store(&c, &output("3"));
        assert!(cache.lookup(&b).is_none(), "b was LRU");
        assert!(cache.lookup(&a).is_some());
        assert!(cache.lookup(&c).is_some());
        assert_eq!(cache.stats().memory_evictions, 1);
    }

    #[test]
    fn disk_tier_persists_across_cache_instances() {
        let tmp = crate::disk::tests::TempDir::new("cache-tiered");
        let cfg = || CacheConfig {
            memory_entries: 8,
            disk: Some(DiskCacheConfig {
                dir: tmp.0.clone(),
                max_bytes: 1 << 20,
                cache_fault: false,
            }),
        };
        let k = key("k");
        let first = ResultCache::with_config(cfg()).unwrap();
        first.store(&k, &output("{\"persisted\":true}"));
        drop(first);

        let second = ResultCache::with_config(cfg()).unwrap();
        assert_eq!(second.recovery().recovered, 1);
        assert_eq!(second.len(), 0, "memory tier starts cold");
        let (hit, tier) = second.lookup_tiered(&k).expect("disk hit");
        assert_eq!(tier, HitTier::Disk);
        assert_eq!(hit.payload, "{\"persisted\":true}");
        // Promoted: the second lookup is a memory hit.
        let (_, tier) = second.lookup_tiered(&k).expect("memory hit");
        assert_eq!(tier, HitTier::Memory);
        let stats = second.stats();
        assert_eq!((stats.disk_hits, stats.memory_hits), (1, 1));
    }
}
