//! A small in-memory LRU map.
//!
//! The service's artifact cache: digest → lowered program + memoized
//! result, bounded so a long-running process cannot grow without limit.
//! Recency is tracked with a monotonic counter stamped on every access;
//! eviction scans for the minimum stamp, which is O(n) — at the
//! capacities the service uses (dozens to hundreds of entries, each
//! standing for a multi-millisecond study run) a linked-list LRU would
//! be invisible in any profile and cost its own complexity.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
/// Values are cloned out on [`Lru::get`] — callers store `Arc`s.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty LRU holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cache that can hold nothing is a
    /// configuration bug, not a degenerate mode worth supporting.
    pub fn new(capacity: usize) -> Lru<K, V> {
        assert!(capacity > 0, "Lru capacity must be at least 1");
        Lru { capacity, tick: 0, entries: HashMap::with_capacity(capacity) }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(v, stamp)| {
            *stamp = tick;
            v.clone()
        })
    }

    /// Insert (or replace — the value and recency are refreshed) an
    /// entry, evicting the least-recently-used one if the cache is over
    /// capacity. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let oldest = self
            .entries
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| k.clone())
            .expect("over-capacity cache is non-empty");
        self.entries.remove(&oldest);
        Some(oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_in_order() {
        let mut lru = Lru::new(3);
        for k in 1..=3 {
            assert_eq!(lru.insert(k, k * 10), None);
        }
        // Touch 1: the eviction order is now 2, 3, 1.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.insert(4, 40), Some(2));
        assert_eq!(lru.insert(5, 50), Some(3));
        assert_eq!(lru.insert(6, 60), Some(1));
        assert_eq!(lru.entries.len(), 3);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&4), Some(40));
    }

    #[test]
    fn replacing_a_key_refreshes_without_eviction() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 3), None, "replacement must not overflow");
        assert_eq!(lru.entries.len(), 2);
        assert_eq!(lru.get(&"a"), Some(3));
        // "b" is now oldest.
        assert_eq!(lru.insert("c", 4), Some("b"));
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = Lru::<u32, u32>::new(0);
    }
}
