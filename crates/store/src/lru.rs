//! An exact, O(1) least-recently-used cache over hashable keys.
//!
//! Built on a `HashMap` plus an intrusive doubly-linked list threaded through
//! an arena of entries (index-based links — no unsafe). Used by the POET-style
//! timestamp cache and the paged-memory simulator.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

struct Entry<K, V> {
    key: K,
    val: V,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU cache.
pub struct LruCache<K, V> {
    map: HashMap<K, u32>,
    entries: Vec<Entry<K, V>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Cache holding at most `capacity` entries (≥ 1). Allocates nothing
    /// until the first insert; storage grows on demand up to `capacity`
    /// entries.
    pub fn new(capacity: usize) -> LruCache<K, V> {
        assert!(capacity >= 1, "capacity must be positive");
        LruCache {
            map: HashMap::new(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// (hits, misses, evictions) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = {
            let e = &self.entries[i as usize];
            (e.prev, e.next)
        };
        if p != NIL {
            self.entries[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.entries[n as usize].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let e = &mut self.entries[i as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entries[old_head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Get a value, marking it most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.unlink(i);
                self.push_front(i);
                Some(&self.entries[i as usize].val)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Check for a key without touching recency or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.entries[i as usize].val)
    }

    /// Insert a value, evicting the LRU entry if at capacity. Returns the
    /// evicted `(key, value)` if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.entries[i as usize].val = val;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let e = &mut self.entries[victim as usize];
            self.map.remove(&e.key);
            self.free.push(victim);
            self.evictions += 1;
            // Move out key/val by swapping placeholders is awkward without
            // Default; read them with replace-by-clone for the key and a
            // pointer move for the value via Vec index writes below.
            let old_key = e.key.clone();
            // Temporarily leave val in place; it is overwritten on reuse.
            evicted = Some((old_key, None::<V>));
        }
        let i = match self.free.pop() {
            Some(slot) => {
                let old = std::mem::replace(
                    &mut self.entries[slot as usize],
                    Entry {
                        key: key.clone(),
                        val,
                        prev: NIL,
                        next: NIL,
                    },
                );
                if let Some((k, _)) = evicted.take() {
                    evicted = Some((k, Some(old.val)));
                }
                slot
            }
            None => {
                self.entries.push(Entry {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                });
                (self.entries.len() - 1) as u32
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted.and_then(|(k, v)| v.map(|v| (k, v)))
    }

    /// Remove everything, keeping counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert!(c.get(&1).is_none());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&2), Some(&20));
        let (h, m, e) = c.stats();
        assert_eq!((h, m, e), (2, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1); // 2 is now LRU
        let ev = c.insert(3, "c");
        assert_eq!(ev, Some((2, "b")));
        assert!(c.peek(&2).is_none());
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_thrashes() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        for k in 0..100 {
            c.insert(k, k);
            assert_eq!(c.len(), 1);
        }
        let (_, _, e) = c.stats();
        assert_eq!(e, 99);
        assert_eq!(c.peek(&99), Some(&99));
    }

    #[test]
    fn heavy_mixed_workload_is_consistent() {
        // Cross-check against a naive model.
        let mut c: LruCache<u64, u64> = LruCache::new(8);
        let mut model: Vec<u64> = Vec::new(); // recency order, front = MRU
        for step in 0..5000u64 {
            let k = (step * 7 + step / 3) % 23;
            if step % 3 == 0 {
                let hit_real = c.get(&k).copied();
                let hit_model = model.iter().position(|&x| x == k);
                match (hit_real, hit_model) {
                    (Some(v), Some(pos)) => {
                        assert_eq!(v, k * 2);
                        model.remove(pos);
                        model.insert(0, k);
                    }
                    (None, None) => {}
                    other => panic!("divergence at step {step}: {other:?}"),
                }
            } else {
                c.insert(k, k * 2);
                if let Some(pos) = model.iter().position(|&x| x == k) {
                    model.remove(pos);
                } else if model.len() == 8 {
                    model.pop();
                }
                model.insert(0, k);
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    fn huge_capacity_does_not_preallocate() {
        // Regression: `new` used to pass the raw capacity to
        // `HashMap::with_capacity` (and `capacity + 1` overflowed on
        // usize::MAX). A pathological capacity must construct instantly and
        // behave like an unbounded cache.
        let mut c: LruCache<u64, u64> = LruCache::new(usize::MAX);
        assert_eq!(c.capacity(), usize::MAX);
        for k in 0..10_000 {
            c.insert(k, k * 3);
        }
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.get(&1234), Some(&3702));
        let (_, _, evictions) = c.stats();
        assert_eq!(evictions, 0, "nothing should ever be evicted");
    }

    #[test]
    fn new_allocates_nothing_until_first_insert() {
        let mut c: LruCache<u64, u64> = LruCache::new(1024);
        assert_eq!((c.map.capacity(), c.entries.capacity()), (0, 0));
        assert_eq!(c.get(&1), None);
        assert_eq!((c.map.capacity(), c.entries.capacity()), (0, 0));
        c.insert(1, 2);
        assert!(c.map.capacity() >= 1 && c.entries.capacity() >= 1);
        assert_eq!(c.stats(), (0, 1, 0));
    }

    #[test]
    fn clear_resets_contents() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for k in 0..4 {
            c.insert(k, k);
        }
        c.clear();
        assert!(c.is_empty());
        c.insert(9, 9);
        assert_eq!(c.get(&9), Some(&9));
    }
}
