//! Property tests for the on-disk cache format: the key↔path mapping
//! round-trips across shard prefixes, eviction never exceeds the byte
//! cap and is strictly LRU against a reference model, and an index
//! rebuilt by scanning the directory equals the index that wrote it.
//!
//! Op sequences are expanded deterministically from a generated `u64`
//! seed (the vendored proptest stub has no collection strategies), so
//! every failing case reproduces from its printed inputs.

use std::collections::VecDeque;
use std::path::PathBuf;

use proptest::prelude::*;
use retime_serve::{sha256_hex, shard_rel_path, DiskCache, DiskCacheConfig, RecoveryStats};

/// A tiny deterministic generator for expanding one seed into ops.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "retime-diskprop-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key_from(n: u64) -> String {
    sha256_hex(&n.to_le_bytes())
}

fn open(dir: &TempDir, cap: u64) -> (DiskCache, RecoveryStats) {
    DiskCache::open(DiskCacheConfig {
        dir: dir.0.clone(),
        max_bytes: cap,
        cache_fault: false,
    })
    .expect("open disk cache")
}

/// Replays a seed-derived store/load sequence over a small key pool,
/// keeping a reference LRU model in lockstep. Returns the cache, the
/// model (LRU-first key order), and the temp dir keeping it alive.
fn replay(seed: u64, ops: usize, cap: u64) -> (DiskCache, VecDeque<String>, TempDir) {
    let tmp = TempDir::new("replay");
    let (cache, stats) = open(&tmp, cap);
    assert_eq!(stats, RecoveryStats::default(), "fresh dir recovers empty");
    let mut rng = Lcg(seed);
    let mut model: VecDeque<String> = VecDeque::new();
    let pool: Vec<String> = (0..6).map(key_from).collect();

    for _ in 0..ops {
        let key = &pool[rng.below(6) as usize];
        if rng.below(3) == 0 {
            // Load: a hit refreshes recency in cache and model alike.
            let hit = cache.load(key).is_some();
            assert_eq!(
                hit,
                model.contains(key),
                "load({key}) disagrees with the model"
            );
            if hit {
                model.retain(|k| k != key);
                model.push_back(key.clone());
            }
        } else {
            // Store: payload size varies so byte accounting is exercised.
            let payload = "x".repeat(40 + rng.below(300) as usize);
            let evicted = cache
                .store(key, &payload, &sha256_hex(payload.as_bytes()))
                .expect("store");
            model.retain(|k| k != key);
            model.push_back(key.clone());
            // Strict LRU: the evicted entries are exactly the model's
            // least-recently-used prefix.
            for _ in 0..evicted {
                let victim = model.pop_front().expect("eviction matches model size");
                assert_ne!(victim, *key, "a store may never evict its own key");
            }
            assert!(
                cache.total_bytes() <= cap,
                "byte cap violated: {} > {cap}",
                cache.total_bytes()
            );
        }
        let got = cache.keys_lru();
        let want: Vec<String> = model.iter().cloned().collect();
        assert_eq!(got, want, "cache LRU order diverged from the model");
    }
    (cache, model, tmp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn key_path_round_trips_across_shards(n in any::<u64>()) {
        let key = key_from(n);
        let rel = shard_rel_path(&key);
        prop_assert_eq!(
            rel.parent().and_then(|p| p.to_str()),
            Some(&key[..2]),
            "sharded by the first two key chars"
        );
        prop_assert_eq!(retime_serve::disk::key_of_rel_path(&rel), Some(key.clone()));

        // Perturbations must all be rejected.
        let file = rel.file_name().unwrap().to_str().unwrap().to_string();
        let wrong_shard = PathBuf::from(if &key[..2] == "ab" { "ba" } else { "ab" }).join(&file);
        prop_assert_eq!(retime_serve::disk::key_of_rel_path(&wrong_shard), None);
        let torn = PathBuf::from(&key[..2]).join(format!("{key}.entry.tmp-3"));
        prop_assert_eq!(retime_serve::disk::key_of_rel_path(&torn), None);
        let upper = PathBuf::from(&key[..2]).join(format!("{}.entry", key.to_uppercase()));
        prop_assert_eq!(retime_serve::disk::key_of_rel_path(&upper), None);
        let truncated = PathBuf::from(&key[..2]).join(format!("{}.entry", &key[..63]));
        prop_assert_eq!(retime_serve::disk::key_of_rel_path(&truncated), None);
    }

    #[test]
    fn eviction_holds_the_byte_cap_and_is_strictly_lru(
        seed in any::<u64>(),
        ops in 8usize..32,
        cap_kb in 1u64..3,
    ) {
        // Cap of 1–2 KiB against ~100–400-byte entries forces frequent
        // evictions; `replay` asserts cap + strict-LRU after every op.
        let (cache, model, _tmp) = replay(seed, ops, cap_kb * 1024);
        prop_assert_eq!(cache.len(), model.len());
    }

    #[test]
    fn rebuilt_index_equals_the_writers(seed in any::<u64>(), ops in 8usize..32) {
        let (cache, model, tmp) = replay(seed, ops, 4096);
        let written_sizes = cache.sizes();
        let written_bytes = cache.total_bytes();
        drop(cache);

        let (rebuilt, stats) = open(&tmp, 4096);
        prop_assert_eq!(stats.discarded, 0);
        prop_assert_eq!(stats.recovered as usize, model.len());
        prop_assert_eq!(rebuilt.sizes(), written_sizes, "scan found different entries");
        prop_assert_eq!(rebuilt.total_bytes(), written_bytes);
        // Every surviving entry still loads and verifies.
        for key in &model {
            prop_assert!(rebuilt.load(key).is_some(), "recovered entry {key} unreadable");
        }
    }
}
