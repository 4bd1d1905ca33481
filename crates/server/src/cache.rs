//! A small LRU cache for query results, keyed by `(kind, normalized
//! query)`.
//!
//! The key carries no version: each entry holds the stamps it is valid
//! under (relation versions for a value, which every `insert`, `update`
//! and `domain` on a mentioned relation moves; tuple counts for a compiled
//! program, which only a new tuple moves), and the service checks them
//! against its snapshot on every probe. A stale entry is replaced in place
//! by the result that supersedes it, so mutations never strand dead
//! entries in the LRU.
//!
//! Recency is tracked with a `BTreeMap<tick, key>` side index: `get` and
//! `insert` are `O(log n)`, eviction pops the least-recent tick. That is
//! deliberately the simplest structure that is obviously correct under a
//! mutex; at the default capacity (1024 entries) the `log n` is ~10.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A fixed-capacity least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
    tick: u64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries; a capacity of 0
    /// is clamped to 1 (a zero-capacity LRU cannot satisfy its own insert
    /// postcondition, and the request path must not assert).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let (_, stamp) = self.map.get_mut(key)?;
        self.recency.remove(&std::mem::replace(stamp, tick));
        self.recency.insert(tick, key.clone());
        self.map.get(key).map(|(v, _)| v)
    }

    /// Inserts (or refreshes) `key → value`, evicting the least-recently
    /// used entry if the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if let Some((_, old_stamp)) = self.map.remove(&key) {
            self.recency.remove(&old_stamp);
        } else if self.map.len() >= self.capacity {
            if let Some((_, evicted)) = self.recency.pop_first() {
                self.map.remove(&evicted);
            }
        }
        self.map.insert(key.clone(), (value, self.tick));
        self.recency.insert(self.tick, key);
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c = LruCache::new(4);
        assert!(c.is_empty());
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"z"), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "b" is now LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "LRU entry evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh: "b" becomes LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert(1u64, "x");
        c.insert(2u64, "y");
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&"y"));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(8);
        for i in 0..8u64 {
            c.insert(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&3), None);
    }

    #[test]
    fn stress_against_reference_model() {
        // Cross-check against a straightforward O(n) reference LRU.
        let mut c = LruCache::new(8);
        let mut model: Vec<(u64, u64)> = Vec::new(); // front = most recent
        let mut state = 0x1234_5678_u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 24;
            if state & 1 == 0 {
                // insert
                c.insert(key, key * 10);
                model.retain(|(k, _)| *k != key);
                model.insert(0, (key, key * 10));
                model.truncate(8);
            } else {
                let got = c.get(&key).copied();
                let want = model.iter().position(|(k, _)| *k == key).map(|i| {
                    let e = model.remove(i);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(got, want, "key {key}");
            }
            assert_eq!(c.len(), model.len());
        }
    }
}
