//! The estimate memo: an LRU map from a feature row's bits to the
//! estimate one flow served for it.
//!
//! Two callers asking for the cost of the same operator with the same
//! features (a planner re-costing the same sub-plan across placement
//! candidates, a federation layer retrying a query) should not pay for
//! two NN forward passes. Each registered model in a
//! [`crate::epoch::ModelSnapshot`] holds one memo beside its flow, made
//! fresh whenever the flow is created or replaced, so a memo only ever
//! holds estimates of the flow it sits beside and needs no version tag.
//! A row is keyed by the `f64::to_bits` of its features — the rule
//! `EstimatorService::estimate_batch_dedup_pinned` uses too — so a memo
//! answers only a row whose bits it has seen: `-0.0` and `0.0` stay
//! apart, and so do ±∞ and rows that differ in the last bit.

use crate::estimator::CostEstimate;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: Vec<u64>,
    value: CostEstimate,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from feature bits to estimates with O(1)
/// get/insert.
///
/// Entries live in a slab; recency is a doubly-linked list threaded
/// through the slab (head = most recent).
#[derive(Debug)]
pub(crate) struct LruCache {
    map: HashMap<Vec<u64>, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruCache {
    /// An empty cache holding at most `capacity` entries; it allocates
    /// as it fills, so a fresh memo costs nothing until it is used.
    /// Capacity 0 is a *disabled* cache: every `get` misses and every
    /// `insert` is a no-op.
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Looks up a row by its feature bits; a hit is promoted to
    /// most-recent.
    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    pub(crate) fn get(&mut self, key: &[u64]) -> Option<CostEstimate> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one if the cache is full. No-op on a disabled (capacity-0) cache.
    /// Only a new key allocates: its owned copies for the map and the
    /// recency list.
    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    pub(crate) fn insert(&mut self, key: &[u64], value: CostEstimate) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.remove_idx(lru);
        }
        let entry = Entry {
            key: key.to_vec(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key.to_vec(), idx);
        self.push_front(idx);
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    fn remove_idx(&mut self, idx: usize) {
        self.unlink(idx);
        self.map.remove(&self.slab[idx].key);
        self.free.push(idx);
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimateSource;

    fn est(secs: f64) -> CostEstimate {
        CostEstimate::new(secs, EstimateSource::NeuralNetwork)
    }

    fn key(features: &[f64]) -> Vec<u64> {
        features.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = LruCache::new(4);
        c.insert(&key(&[1.0]), est(5.0));
        assert_eq!(c.get(&key(&[1.0])).unwrap().secs, 5.0);
        assert!(c.get(&key(&[2.0])).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(&key(&[1.0]), est(1.0));
        c.insert(&key(&[2.0]), est(2.0));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&key(&[1.0])).is_some());
        c.insert(&key(&[3.0]), est(3.0));
        assert!(
            c.get(&key(&[2.0])).is_none(),
            "2 was LRU and must be evicted"
        );
        assert!(c.get(&key(&[1.0])).is_some());
        assert!(c.get(&key(&[3.0])).is_some());
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(&key(&[1.0]), est(1.0));
        c.insert(&key(&[2.0]), est(2.0));
        c.insert(&key(&[1.0]), est(10.0));
        c.insert(&key(&[3.0]), est(3.0));
        assert_eq!(c.get(&key(&[1.0])).unwrap().secs, 10.0);
        assert!(c.get(&key(&[2.0])).is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(&key(&[i as f64]), est(i as f64));
        }
        c.clear();
        assert!(c.map.is_empty());
        for i in 0..4 {
            assert!(c.get(&key(&[i as f64])).is_none());
        }
        // Still usable after clear.
        c.insert(&key(&[9.0]), est(9.0));
        assert_eq!(c.map.len(), 1);
    }

    #[test]
    fn borrowed_probe_matches_owned_key() {
        let mut c = LruCache::new(4);
        c.insert(&key(&[3.0, 7.0]), est(4.0));
        // A probe is the row's bits in a borrowed buffer; the map's
        // owned `Vec<u64>` keys answer it without a copy.
        let probe: [u64; 2] = [3.0f64.to_bits(), 7.0f64.to_bits()];
        assert_eq!(c.get(&probe[..]).unwrap().secs, 4.0);
        // Bits, not values: `-0.0 == 0.0`, yet they are two keys.
        c.insert(&key(&[0.0]), est(1.0));
        assert!(c.get(&key(&[-0.0])).is_none());
    }

    #[test]
    fn zero_capacity_cache_is_disabled() {
        let mut c = LruCache::new(0);
        c.insert(&key(&[1.0]), est(1.0));
        assert!(c.map.is_empty());
        assert!(c.get(&key(&[1.0])).is_none());
    }

    #[test]
    fn churn_well_past_capacity_stays_bounded() {
        let mut c = LruCache::new(8);
        for i in 0..1000 {
            c.insert(&key(&[i as f64, 0.5]), est(i as f64));
            assert!(c.map.len() <= 8);
        }
        // The most recent 8 survive.
        for i in 992..1000 {
            assert_eq!(c.get(&key(&[i as f64, 0.5])).unwrap().secs, i as f64);
        }
    }
}
