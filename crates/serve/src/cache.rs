//! Byte-bounded LRU cache of per-shard signature folds, over the one
//! byte-bounded LRU ([`ByteLru`]) the serving layer has: the shard
//! host's dominance-plan memo is the same map over other keys.
//!
//! The cache key is the full provenance of one shard's fold —
//! `(dataset, shard, preference subspace, t, seed)` — so a hit is
//! guaranteed to reproduce, bit for bit, what re-scanning the shard
//! would compute. Values are `Arc`-shared
//! [`ShardFingerprint`]s: an entry may be evicted while the registry's
//! assembled fingerprints still hold it, eviction only drops the
//! cache's own reference.
//!
//! Keying per shard (not per whole dataset) is what makes `APPEND`
//! incremental: appending a shard leaves every old shard's entries
//! valid — shards are immutable and row ids global — so the next query
//! re-scans only the new shard (plus old shards for newly exposed
//! skyline columns) and merges the rest from here.
//!
//! Only *complete* folds may live here: the registry never inserts the
//! shards of a budget-curtailed run (such runs return no shard folds at
//! all), because a partial fold would silently poison every later query
//! with approximate-er-than-promised distances.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use skydiver_core::ShardFingerprint;

/// Cache key: everything that determines one shard's signature fold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FingerprintKey {
    /// Registry name of the dataset.
    pub dataset: String,
    /// Shard index within the dataset.
    pub shard: usize,
    /// Canonical preference string (`"min,max,..."`).
    pub prefs: String,
    /// Signature size `t`.
    pub t: usize,
    /// Hash-family seed.
    pub seed: u64,
}

/// A key of a [`ByteLru`] holding values `V`: the dataset its entry
/// belongs to, and the bytes an entry is charged.
pub trait LruKey<V>: Clone + Eq + Hash {
    /// The dataset whose [`ByteLru::invalidate_dataset`] drops the entry.
    fn dataset(&self) -> &str;
    /// The bytes `value` is charged under this key.
    fn charge(&self, value: &V) -> usize;
}

impl LruKey<Arc<ShardFingerprint>> for FingerprintKey {
    fn dataset(&self) -> &str {
        &self.dataset
    }

    fn charge(&self, fp: &Arc<ShardFingerprint>) -> usize {
        fp.memory_bytes()
    }
}

/// LRU shard-fold cache with a resident-byte ceiling.
pub type FingerprintCache = ByteLru<FingerprintKey, Arc<ShardFingerprint>>;

struct Entry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// Least-recently-used map with a ceiling on the bytes its entries are
/// charged ([`LruKey::charge`]).
///
/// Not internally synchronised — its owner wraps it in a `Mutex`.
/// Recency is a monotonic tick; eviction scans for the minimum, which is
/// O(entries) but entries are few (a whole `t × m` matrix, or a
/// dominance plan, each).
pub struct ByteLru<K, V> {
    ceiling: usize,
    map: HashMap<K, Entry<V>>,
    bytes: usize,
    tick: u64,
    evictions: u64,
}

impl<K: LruKey<V>, V: Clone> ByteLru<K, V> {
    /// A map holding at most `ceiling` charged bytes.
    pub fn new(ceiling: usize) -> Self {
        ByteLru {
            ceiling,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// The configured byte ceiling.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// Bytes currently charged.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted to make room since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up an entry, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Looks up an entry without refreshing its recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|e| &e.value)
    }

    /// Inserts an entry, evicting least-recently-used entries until the
    /// ceiling is respected. Returns `false` (and holds nothing new) if
    /// the entry alone exceeds the ceiling; re-inserting an existing key
    /// replaces the entry.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let bytes = key.charge(&value);
        if bytes > self.ceiling {
            return false;
        }
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        while self.bytes + bytes > self.ceiling {
            let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            // lint: allow(R1) -- `lru` was produced by iterating the map
            // two lines up under `&mut self`; it cannot have vanished
            let dropped = self.map.remove(&lru).expect("key just observed");
            self.bytes -= dropped.bytes;
            self.evictions += 1;
        }
        self.map.insert(key, Entry { value, bytes, last_used: self.tick });
        self.bytes += bytes;
        true
    }

    /// Drops every entry of `dataset` (for the fold cache: all shards,
    /// all preference/t/seed coordinates) — the `LOAD`-replaces-dataset
    /// path, where the old shards no longer describe the registered
    /// data. Returns how many entries were dropped (not counted as
    /// evictions: nothing was displaced by pressure).
    pub fn invalidate_dataset(&mut self, dataset: &str) -> usize {
        let doomed: Vec<K> = self
            .map
            .keys()
            .filter(|k| k.dataset() == dataset)
            .cloned()
            .collect();
        for k in &doomed {
            // lint: allow(R1) -- `doomed` keys were just collected from the
            // map under `&mut self`; removal cannot miss
            let e = self.map.remove(k).expect("key just observed");
            self.bytes -= e.bytes;
        }
        doomed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skydiver_core::SignatureAccumulator;

    fn key(name: &str, shard: usize, t: usize) -> FingerprintKey {
        FingerprintKey {
            dataset: name.into(),
            shard,
            prefs: "min,min".into(),
            t,
            seed: 0,
        }
    }

    fn fold(t: usize, m: usize) -> Arc<ShardFingerprint> {
        Arc::new(ShardFingerprint {
            columns: (0..m).collect(),
            acc: SignatureAccumulator::new(t, m),
        })
    }

    #[test]
    fn hit_miss_and_byte_accounting() {
        let mut c = FingerprintCache::new(1 << 20);
        assert!(c.get(&key("a", 0, 8)).is_none());
        let f = fold(8, 10);
        let bytes = f.memory_bytes();
        assert!(c.insert(key("a", 0, 8), f));
        assert_eq!(c.bytes(), bytes);
        assert!(c.get(&key("a", 0, 8)).is_some());
        assert!(c.get(&key("a", 1, 8)).is_none(), "shard is part of the key");
        assert!(c.get(&key("a", 0, 16)).is_none(), "t is part of the key");
        assert!(c.get(&key("b", 0, 8)).is_none(), "dataset is part of the key");
    }

    #[test]
    fn charged_bytes_pin_the_fingerprint_formula() {
        // The ceiling maths only works if the charge per entry is the
        // exact closed form of the fold's layout: t·m·8 for the
        // column-major matrix, m·8 for the score vector, |columns|·8
        // for the global-id map. Nothing else — in particular not the
        // slot-major transpose, which is selection-time-only and never
        // lives in a cached fold.
        let (t, m) = (8usize, 10usize);
        let f = fold(t, m);
        let formula = t * m * 8 + m * 8 + m * 8;
        assert_eq!(f.memory_bytes(), formula);
        let mut c = FingerprintCache::new(1 << 20);
        assert!(c.insert(key("a", 0, t), f));
        assert_eq!(c.bytes(), formula);
        assert!(c.insert(key("a", 1, t), fold(t, m)));
        assert_eq!(c.bytes(), 2 * formula);
        assert_eq!(c.invalidate_dataset("a"), 2);
        assert_eq!(c.bytes(), 0, "every charged byte is returned");
    }

    #[test]
    fn evicts_least_recently_used_under_pressure() {
        let one = fold(8, 10).memory_bytes();
        // Room for exactly two entries.
        let mut c = FingerprintCache::new(2 * one);
        assert!(c.insert(key("a", 0, 8), fold(8, 10)));
        assert!(c.insert(key("b", 0, 8), fold(8, 10)));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key("a", 0, 8)).is_some());
        assert!(c.insert(key("c", 0, 8), fold(8, 10)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key("a", 0, 8)).is_some());
        assert!(c.get(&key("b", 0, 8)).is_none(), "LRU entry evicted");
        assert!(c.get(&key("c", 0, 8)).is_some());
        assert!(c.bytes() <= c.ceiling());
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut c = FingerprintCache::new(64);
        assert!(!c.insert(key("big", 0, 64), fold(64, 64)));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = FingerprintCache::new(1 << 20);
        assert!(c.insert(key("a", 0, 8), fold(8, 10)));
        let b1 = c.bytes();
        assert!(c.insert(key("a", 0, 8), fold(8, 10)));
        assert_eq!(c.bytes(), b1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_drops_every_shard_of_one_dataset() {
        let mut c = FingerprintCache::new(1 << 20);
        assert!(c.insert(key("a", 0, 8), fold(8, 10)));
        assert!(c.insert(key("a", 1, 8), fold(8, 10)));
        assert!(c.insert(key("a", 0, 16), fold(16, 10)));
        assert!(c.insert(key("b", 0, 8), fold(8, 10)));
        let other = fold(8, 10).memory_bytes();
        assert_eq!(c.invalidate_dataset("a"), 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), other);
        assert_eq!(c.evictions(), 0, "invalidation is not eviction");
        assert!(c.get(&key("b", 0, 8)).is_some());
        assert_eq!(c.invalidate_dataset("ghost"), 0);
    }
}
