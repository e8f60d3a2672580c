//! The estimate cache: an LRU map keyed by quantized feature vectors.
//!
//! Two callers asking for the cost of the same operator with the same
//! features (a planner re-costing the same sub-plan across placement
//! candidates, a federation layer retrying a query) should not pay for
//! two NN forward passes. Entries are tagged with the [`crate::epoch`]
//! number of the snapshot that computed them, so a value can only ever
//! be served against the exact model state it came from. Feature vectors are `f64`s, which are neither
//! `Eq` nor `Hash`, so the cache key quantizes each feature to a fixed
//! number of significant decimal digits; values that agree to that
//! precision are interchangeable for costing purposes (the models are
//! smooth at far finer scales than the default 9 digits).

use crate::estimator::{CostEstimate, OperatorKind};
use catalog::SystemId;
use std::collections::HashMap;

/// A cache key: system + operator + quantized features.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    system: SystemId,
    op: OperatorKind,
    qfeatures: Vec<u64>,
}

impl CacheKey {
    /// Builds a key, quantizing `features` to `sig_digits` significant
    /// decimal digits.
    #[cfg(test)]
    pub(crate) fn new(
        system: &SystemId,
        op: OperatorKind,
        features: &[f64],
        sig_digits: i32,
    ) -> Self {
        CacheKey {
            system: system.clone(),
            op,
            qfeatures: features.iter().map(|&v| quantize(v, sig_digits)).collect(),
        }
    }

    /// Builds a key from already-quantized features (the owned form of
    /// a [`CacheKeyRef`] probe, materialised only on the miss path).
    pub(crate) fn from_quantized(system: &SystemId, op: OperatorKind, qfeatures: &[u64]) -> Self {
        CacheKey {
            // Miss-path key materialisation: the documented allocating
            // branch of the cache-enabled estimate.
            system: system.clone(),
            op,
            qfeatures: qfeatures.to_vec(),
        }
    }
}

/// Borrowed-key lookup for the cache map.
///
/// An owned [`CacheKey`] clones the `SystemId` and collects a fresh
/// `Vec<u64>` — two allocations per probe, paid even on a hit. Lookups
/// instead quantize into a reusable scratch buffer and probe with a
/// [`CacheKeyRef`]; the `Borrow<dyn CacheQuery>` bridge below lets
/// `HashMap::get` accept it against owned [`CacheKey`] entries. The
/// `Hash`/`Eq` impls on the trait object mirror [`CacheKey`]'s derived
/// ones field for field (a `Vec<u64>` hashes exactly like its slice),
/// which is the `Borrow` contract.
pub trait CacheQuery {
    /// The system component of the key.
    fn system(&self) -> &SystemId;
    /// The operator component of the key.
    fn op(&self) -> OperatorKind;
    /// The quantized feature vector.
    fn qfeatures(&self) -> &[u64];
}

/// A borrowed cache probe: quantized features in a caller-owned buffer.
#[derive(Debug, Clone, Copy)]
pub struct CacheKeyRef<'a> {
    /// The system component (borrowed).
    pub system: &'a SystemId,
    /// The operator component.
    pub op: OperatorKind,
    /// Quantized features (borrowed scratch).
    pub qfeatures: &'a [u64],
}

impl CacheQuery for CacheKey {
    fn system(&self) -> &SystemId {
        &self.system
    }
    fn op(&self) -> OperatorKind {
        self.op
    }
    fn qfeatures(&self) -> &[u64] {
        &self.qfeatures
    }
}

impl CacheQuery for CacheKeyRef<'_> {
    fn system(&self) -> &SystemId {
        self.system
    }
    fn op(&self) -> OperatorKind {
        self.op
    }
    fn qfeatures(&self) -> &[u64] {
        self.qfeatures
    }
}

impl std::hash::Hash for dyn CacheQuery + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.system().hash(state);
        self.op().hash(state);
        self.qfeatures().hash(state);
    }
}

impl PartialEq for dyn CacheQuery + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.system() == other.system()
            && self.op() == other.op()
            && self.qfeatures() == other.qfeatures()
    }
}

impl Eq for dyn CacheQuery + '_ {}

impl<'a> std::borrow::Borrow<dyn CacheQuery + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn CacheQuery + 'a) {
        self
    }
}

/// Canonical bit pattern of `v` rounded to `sig` significant decimal
/// digits. All NaNs collapse to one pattern and `-0.0` to `+0.0`, so the
/// key is a total function of the numeric value.
pub(crate) fn quantize(v: f64, sig: i32) -> u64 {
    if v.is_nan() {
        return f64::NAN.to_bits();
    }
    if v == 0.0 {
        return 0;
    }
    let exp = v.abs().log10().floor() as i32;
    let scale = 10f64.powi(sig - 1 - exp);
    let q = (v * scale).round() / scale;
    if q == 0.0 {
        0
    } else {
        q.to_bits()
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    value: CostEstimate,
    /// Epoch of the snapshot the value was computed from; a published
    /// epoch makes the entry stale without requiring an eager sweep.
    epoch: u64,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache over [`CacheKey`]s with O(1) get/insert.
///
/// Entries live in a slab; recency is a doubly-linked list threaded
/// through the slab (head = most recent). Entries from other epochs are
/// treated as misses and evicted lazily.
#[derive(Debug)]
pub struct LruCache {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruCache {
    /// An empty cache holding at most `capacity` entries. Capacity 0 is
    /// a *disabled* cache: every `get` misses and every `insert` is a
    /// no-op (used by latency-critical deployments that prefer the
    /// packed-kernel recompute over cache-lock traffic).
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Looks up `key` (owned [`CacheKey`] or borrowed [`CacheKeyRef`],
    /// both coerce); a hit is promoted to most-recent. An entry whose
    /// epoch differs from `epoch` is removed and reported as a miss.
    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    pub(crate) fn get(&mut self, key: &(dyn CacheQuery + '_), epoch: u64) -> Option<CostEstimate> {
        let idx = *self.map.get(key)?;
        if self.slab[idx].epoch != epoch {
            self.remove_idx(idx);
            return None;
        }
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one if the cache is full. No-op on a disabled (capacity-0) cache.
    #[expect(
        clippy::indexing_slicing,
        reason = "the map, head, tail and every prev/next link hold only live slab indices"
    )]
    pub(crate) fn insert(&mut self, key: CacheKey, value: CostEstimate, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.slab[idx].epoch = epoch;
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
            // The map and the LRU list each need the key; insert only
            // runs on the documented miss path.
            key: key.clone(),
            value,
            epoch,
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
        self.map.insert(key, idx);
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

    fn key(features: &[f64]) -> CacheKey {
        CacheKey::new(&SystemId::new("hive-a"), OperatorKind::Join, features, 9)
    }

    #[test]
    fn quantization_merges_sub_precision_noise() {
        let a = key(&[1_000_000.000000001, 250.0]);
        let b = key(&[1_000_000.000000002, 250.0]);
        assert_eq!(a, b, "noise below 9 significant digits must not split keys");
        let c = key(&[1_000_001.0, 250.0]);
        assert_ne!(a, c);
    }

    #[test]
    fn quantization_canonicalises_zero_and_nan() {
        assert_eq!(quantize(0.0, 9), quantize(-0.0, 9));
        assert_eq!(quantize(f64::NAN, 9), quantize(-f64::NAN, 9));
        assert_ne!(quantize(1.0, 9), quantize(-1.0, 9));
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = LruCache::new(4);
        c.insert(key(&[1.0]), est(5.0), 0);
        assert_eq!(c.get(&key(&[1.0]), 0).unwrap().secs, 5.0);
        assert!(c.get(&key(&[2.0]), 0).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(key(&[1.0]), est(1.0), 0);
        c.insert(key(&[2.0]), est(2.0), 0);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&key(&[1.0]), 0).is_some());
        c.insert(key(&[3.0]), est(3.0), 0);
        assert!(
            c.get(&key(&[2.0]), 0).is_none(),
            "2 was LRU and must be evicted"
        );
        assert!(c.get(&key(&[1.0]), 0).is_some());
        assert!(c.get(&key(&[3.0]), 0).is_some());
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn stale_epoch_is_a_miss_and_is_removed() {
        let mut c = LruCache::new(4);
        c.insert(key(&[1.0]), est(1.0), 0);
        assert!(c.get(&key(&[1.0]), 1).is_none());
        assert!(c.map.is_empty());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(key(&[1.0]), est(1.0), 0);
        c.insert(key(&[2.0]), est(2.0), 0);
        c.insert(key(&[1.0]), est(10.0), 0);
        c.insert(key(&[3.0]), est(3.0), 0);
        assert_eq!(c.get(&key(&[1.0]), 0).unwrap().secs, 10.0);
        assert!(c.get(&key(&[2.0]), 0).is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = LruCache::new(4);
        for i in 0..4 {
            c.insert(key(&[i as f64]), est(i as f64), 0);
        }
        c.clear();
        assert!(c.map.is_empty());
        for i in 0..4 {
            assert!(c.get(&key(&[i as f64]), 0).is_none());
        }
        // Still usable after clear.
        c.insert(key(&[9.0]), est(9.0), 0);
        assert_eq!(c.map.len(), 1);
    }

    #[test]
    fn borrowed_probe_matches_owned_key() {
        let mut c = LruCache::new(4);
        let system = SystemId::new("hive-a");
        c.insert(key(&[3.0, 7.0]), est(4.0), 2);
        let qbuf: Vec<u64> = [3.0f64, 7.0].iter().map(|&v| quantize(v, 9)).collect();
        let probe = CacheKeyRef {
            system: &system,
            op: OperatorKind::Join,
            qfeatures: &qbuf,
        };
        assert_eq!(c.get(&probe, 2).unwrap().secs, 4.0);
        // And the owned form built from the same quantized buffer is the
        // same key.
        let owned = CacheKey::from_quantized(&system, OperatorKind::Join, &qbuf);
        assert_eq!(owned, key(&[3.0, 7.0]));
    }

    #[test]
    fn zero_capacity_cache_is_disabled() {
        let mut c = LruCache::new(0);
        c.insert(key(&[1.0]), est(1.0), 0);
        assert!(c.map.is_empty());
        assert!(c.get(&key(&[1.0]), 0).is_none());
    }

    #[test]
    fn churn_well_past_capacity_stays_bounded() {
        let mut c = LruCache::new(8);
        for i in 0..1000 {
            c.insert(key(&[i as f64, 0.5]), est(i as f64), 0);
            assert!(c.map.len() <= 8);
        }
        // The most recent 8 survive.
        for i in 992..1000 {
            assert_eq!(c.get(&key(&[i as f64, 0.5]), 0).unwrap().secs, i as f64);
        }
    }
}
