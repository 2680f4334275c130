//! A fixed-capacity least-recently-used cache.
//!
//! Used by the serving path to memoize link results: a repeated
//! `(mention, context)` input skips retrieval and the rerank entirely.
//! Every operation is O(1): the recency order is a doubly-linked list
//! threaded through a slab of nodes, and the key → node mapping is a
//! `HashMap`. The cache also counts hits and misses so callers (the
//! `/metrics` endpoint) can report a hit rate without wrapping it.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with a fixed capacity.
///
/// `get` refreshes recency; `put` inserts or updates, evicting the
/// least recently used entry when full. A capacity of 0 is allowed and
/// caches nothing (every lookup is a miss).
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used node, or `NIL` when empty.
    head: usize,
    /// Least recently used node, or `NIL` when empty.
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Unlink node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Link node `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up `key`, refreshing its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.unlink(i);
                self.link_front(i);
                Some(&self.nodes[i].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert or update `key`, making it the most recently used entry.
    /// A full cache evicts its least recently used entry and reuses that
    /// entry's slot.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            self.unlink(i);
            self.link_front(i);
            return;
        }
        let node = Node { key: key.clone(), value, prev: NIL, next: NIL };
        let slot = if self.map.len() >= self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.nodes[lru].key);
            self.nodes[lru] = node;
            lru
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.map.insert(key, slot);
        self.link_front(slot);
    }

    /// Keys from most to least recently used (tests, diagnostics).
    pub fn keys_by_recency(&self) -> Vec<&K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(&self.nodes[i].key);
            i = self.nodes[i].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_and_eviction_order() {
        let mut c = LruCache::new(2);
        c.put(1, "a");
        c.put(2, "b");
        assert_eq!(c.get(&1), Some(&"a")); // refresh 1; 2 is now LRU
        c.put(3, "c"); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&3), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn update_refreshes_without_eviction() {
        let mut c = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        c.put(1, 11); // update, no eviction
        assert_eq!(c.keys_by_recency(), vec![&1, &2]);
        c.put(3, 30); // 2 was LRU
        assert_eq!(c.keys_by_recency(), vec![&3, &1]);
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = LruCache::new(1);
        c.put("k", 1);
        c.get(&"k");
        c.get(&"absent");
        c.get(&"k");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        c.put(1, "a");
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn recency_list_is_consistent() {
        let mut c = LruCache::new(3);
        for i in 0..10 {
            c.put(i, i);
        }
        assert_eq!(c.keys_by_recency(), vec![&9, &8, &7]);
        c.get(&8);
        assert_eq!(c.keys_by_recency(), vec![&8, &9, &7]);
    }
}
