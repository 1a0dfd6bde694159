//! The query-result cache: a fixed-capacity LRU keyed by the canonical
//! query fingerprint.
//!
//! Keys combine the registry key of the target system with
//! [`sd_core::Query::fingerprint`] into one `u128`. Values are the
//! *serialised* answer (`proto::encode_answer` output) behind an
//! `Arc<str>`, so a hit is a pointer clone and the replayed response is
//! byte-identical to the original. Only successful answers are cached:
//! errors (timeouts, exhausted budgets) depend on the request's limits,
//! which the fingerprint deliberately excludes.
//!
//! The LRU is intrusive over a slab of nodes (`Vec` + free list), so a
//! full cache does steady-state hits/insertions with zero allocation
//! beyond the value strings themselves.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters, surfaced through the `metrics` scrape
/// (the `cache` group).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real query run.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Current number of cached answers.
    pub entries: u64,
    /// Configured capacity.
    pub capacity: u64,
}

const NIL: usize = usize::MAX;

struct Node {
    key: u128,
    val: Arc<str>,
    prev: usize,
    next: usize,
}

struct Lru {
    map: HashMap<u128, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Lru {
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

    fn push_front(&mut self, i: usize) {
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
}

/// A thread-safe LRU result cache. Capacity 0 disables caching (every
/// lookup misses, inserts are dropped).
pub struct ResultCache {
    inner: Mutex<Lru>,
}

impl ResultCache {
    /// A cache holding at most `cap` answers.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                cap,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: u128) -> Option<Arc<str>> {
        let mut lru = self.inner.lock().expect("cache lock");
        match lru.map.get(&key).copied() {
            Some(i) => {
                lru.hits += 1;
                lru.unlink(i);
                lru.push_front(i);
                Some(Arc::clone(&lru.nodes[i].val))
            }
            None => {
                lru.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&self, key: u128, val: Arc<str>) {
        let mut lru = self.inner.lock().expect("cache lock");
        if lru.cap == 0 {
            return;
        }
        if let Some(i) = lru.map.get(&key).copied() {
            lru.nodes[i].val = val;
            lru.unlink(i);
            lru.push_front(i);
            return;
        }
        if lru.map.len() >= lru.cap {
            let victim = lru.tail;
            lru.unlink(victim);
            let old_key = lru.nodes[victim].key;
            lru.map.remove(&old_key);
            lru.free.push(victim);
            lru.evictions += 1;
        }
        let i = match lru.free.pop() {
            Some(i) => {
                lru.nodes[i] = Node {
                    key,
                    val,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                lru.nodes.push(Node {
                    key,
                    val,
                    prev: NIL,
                    next: NIL,
                });
                lru.nodes.len() - 1
            }
        };
        lru.map.insert(key, i);
        lru.push_front(i);
        lru.insertions += 1;
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let lru = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions,
            entries: lru.map.len() as u64,
            capacity: lru.cap as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn hit_returns_identical_value() {
        let c = ResultCache::new(2);
        c.insert(1, v("a"));
        assert_eq!(c.get(1).as_deref(), Some("a"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 0, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.insert(1, v("a"));
        c.insert(2, v("b"));
        c.get(1); // promote 1; victim should be 2
        c.insert(3, v("c"));
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1).as_deref(), Some("a"));
        assert_eq!(c.get(3).as_deref(), Some("c"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refresh_updates_value_without_growth() {
        let c = ResultCache::new(2);
        c.insert(1, v("a"));
        c.insert(1, v("a2"));
        assert_eq!(c.get(1).as_deref(), Some("a2"));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = ResultCache::new(0);
        c.insert(1, v("a"));
        assert!(c.get(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let c = ResultCache::new(2);
        for k in 0..100u128 {
            c.insert(k, v("x"));
        }
        let lru = c.inner.lock().unwrap();
        assert!(lru.nodes.len() <= 3, "slab grew: {}", lru.nodes.len());
    }
}
