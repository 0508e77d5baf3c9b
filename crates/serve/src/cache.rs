//! A small LRU cache for recommendation responses.
//!
//! Keys include the dataset and model generations, so entries computed
//! against a superseded model can never be served after a hot reload —
//! they simply stop being hit and age out.
//!
//! The implementation is a slab of entries threaded on a doubly linked
//! recency list (most recent at the head), with a `HashMap` from key to
//! slab slot. A hit relinks its entry at the head; a miss on a full cache
//! reuses the tail entry's slot for the new key. Both are O(1), so an
//! eviction costs the same at any capacity, and the slab never grows
//! past `capacity` entries. Map and slab share each key through an `Arc`
//! rather than holding two copies of it.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Slab index meaning "no entry".
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: Arc<K>,
    value: V,
    /// Next more recently used entry.
    prev: u32,
    /// Next less recently used entry.
    next: u32,
}

/// A bounded least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<Arc<K>, u32>,
    slab: Vec<Entry<K, V>>,
    /// Most recently used entry.
    head: u32,
    /// Least recently used entry: the next victim.
    tail: u32,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries (0 disables it).
    pub fn new(capacity: usize) -> Self {
        let reserve = capacity.min(4096);
        Self {
            map: HashMap::with_capacity(reserve),
            slab: Vec::with_capacity(reserve),
            head: NIL,
            tail: NIL,
            // Slots are `u32`s below `NIL`.
            capacity: capacity.min(NIL as usize),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let slot = *self.map.get(key)?;
        self.touch(slot);
        Some(self.slab[slot as usize].value.clone())
    }

    /// Insert `key → value`, evicting the least-recently-used entry when
    /// the cache is full.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot as usize].value = value;
            self.touch(slot);
            return;
        }
        let key = Arc::new(key);
        let slot = if self.slab.len() < self.capacity {
            self.slab.push(Entry { key: Arc::clone(&key), value, prev: NIL, next: NIL });
            (self.slab.len() - 1) as u32
        } else {
            let victim = self.tail;
            self.unlink(victim);
            let entry = &mut self.slab[victim as usize];
            self.map.remove(&*entry.key);
            entry.key = Arc::clone(&key);
            entry.value = value;
            victim
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }

    /// Make `slot` the most recently used entry.
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.slab[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.slab[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slab[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Keys from least to most recently used, without touching recency.
    fn keys_by_recency(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.len());
        let mut slot = self.tail;
        while slot != NIL {
            let entry = &self.slab[slot as usize];
            keys.push(K::clone(&entry.key));
            slot = entry.prev;
        }
        keys
    }
}

/// The cache as it was before the linked list: a map plus an access
/// tick, evicting by a linear scan for the oldest tick. Kept as the
/// oracle the linked list must match.
#[cfg(test)]
mod scan_oracle {
    use std::collections::HashMap;
    use std::hash::Hash;

    pub struct ScanLru<K, V> {
        map: HashMap<K, (V, u64)>,
        capacity: usize,
        tick: u64,
    }

    impl<K: Eq + Hash + Clone, V: Clone> ScanLru<K, V> {
        pub fn new(capacity: usize) -> Self {
            Self { map: HashMap::new(), capacity, tick: 0 }
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        pub fn get(&mut self, key: &K) -> Option<V> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(key).map(|(v, t)| {
                *t = tick;
                v.clone()
            })
        }

        pub fn put(&mut self, key: K, value: V) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                if let Some(oldest) =
                    self.map.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k.clone())
                {
                    self.map.remove(&oldest);
                }
            }
            self.map.insert(key, (value, self.tick));
        }

        /// Keys from least to most recently used.
        pub fn keys_by_recency(&self) -> Vec<K> {
            let mut entries: Vec<(&K, u64)> = self.map.iter().map(|(k, (_, t))| (k, *t)).collect();
            entries.sort_by_key(|&(_, t)| t);
            entries.into_iter().map(|(k, _)| k.clone()).collect()
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    use proptest::prelude::*;

    use super::scan_oracle::ScanLru;
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Over random get/put sequences at small capacities the linked
        /// list gives the scan's hits, misses and evictions, and keeps its
        /// recency order after every operation.
        #[test]
        fn linked_list_matches_the_scan_oracle(
            capacity in prop::sample::select(vec![0usize, 1, 1, 2, 3, 5]),
            ops in prop::collection::vec((0u8..3, 0u32..8, 0u32..1000), 0..120),
        ) {
            let mut cache: LruCache<u32, u32> = LruCache::new(capacity);
            let mut oracle: ScanLru<u32, u32> = ScanLru::new(capacity);
            let evicted = |before: &[u32], after: &[u32]| -> Vec<u32> {
                before.iter().copied().filter(|k| !after.contains(k)).collect()
            };
            for (step, &(op, key, value)) in ops.iter().enumerate() {
                if op == 0 {
                    prop_assert_eq!(cache.get(&key), oracle.get(&key), "get({}) at step {}", key, step);
                } else {
                    let before = (cache.keys_by_recency(), oracle.keys_by_recency());
                    cache.put(key, value);
                    oracle.put(key, value);
                    prop_assert_eq!(
                        evicted(&before.0, &cache.keys_by_recency()),
                        evicted(&before.1, &oracle.keys_by_recency()),
                        "evictions of put({}) at step {}",
                        key,
                        step
                    );
                }
                prop_assert_eq!(cache.len(), oracle.len(), "len at step {}", step);
                prop_assert_eq!(
                    cache.keys_by_recency(),
                    oracle.keys_by_recency(),
                    "recency order at step {}",
                    step
                );
                prop_assert!(cache.len() <= capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut c: LruCache<u32, &'static str> = LruCache::new(2);
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        c.put(1, "a");
        assert_eq!(c.get(&1), Some("a"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        assert_eq!(c.get(&1), Some(10)); // refresh 1; 2 is now LRU
        c.put(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_a_present_key_does_not_evict() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.put(1, 10);
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }
}
