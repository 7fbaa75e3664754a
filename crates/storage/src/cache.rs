//! Bounded content-addressed read cache for checkout blobs.
//!
//! Time-traveling is read-heavy in exactly the way the write path is
//! write-light: an undo/redo loop re-reads the same few diverged
//! co-variable blobs over and over, and a branch compare bounces between
//! two small sets of versions. [`BlobCache`] keeps recently verified
//! checkout payloads in memory, keyed by the same `(xxh64, length)`
//! [`ContentKey`] the write pipeline's [`crate::BlobIndex`] uses — so a
//! payload that deduplicated on the way in is also shared on the way out,
//! regardless of how many blob ids point at it.
//!
//! Semantics that keep the layers above simple:
//!
//! * the cache holds **verified** payloads (post-CRC, pre-deserialize);
//!   a hit can skip the store read *and* the integrity check;
//! * payloads are shared and immutable (`Arc<[u8]>`): admission moves the
//!   caller's handle in and a hit hands out another handle to the same
//!   allocation, so neither copies a byte. A handle stays valid after its
//!   entry is evicted; the bytes are freed with the last handle;
//! * eviction is strict LRU by payload bytes against a fixed capacity;
//!   an entry larger than the whole capacity is never admitted;
//! * `capacity == 0` disables the cache entirely (every lookup returns
//!   nothing and counts as `CacheStats::disabled`, not as a miss; every
//!   insert is dropped) — the knob's documented "off" position;
//! * the cache is advisory and deterministic: identical call sequences
//!   produce identical hit/miss/eviction sequences, which the parallel
//!   checkout differential suite relies on.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::dedup::ContentKey;

/// Counters for cache observability (`CheckoutReport::blobs_cached` and the
/// restore bench sweep read these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a payload.
    pub hits: u64,
    /// Lookups that found nothing *while the cache was enabled*. Lookups
    /// against a disabled cache are not misses — the cache never had a
    /// chance — and counting them here used to poison miss-rate numbers in
    /// cache-off comparisons; they are tracked in `disabled` instead.
    pub misses: u64,
    /// Lookups made while the cache was disabled (`capacity == 0`).
    /// Excluded from hit/miss-rate derivations.
    pub disabled: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Payload bytes currently resident.
    pub bytes: u64,
}

/// An LRU-by-bytes cache of verified checkout payloads.
#[derive(Debug, Default)]
pub struct BlobCache {
    capacity: u64,
    /// Resident payloads with the recency tick they were last touched at.
    entries: HashMap<ContentKey, (u64, Arc<[u8]>)>,
    /// Recency order: tick -> key. Ticks are unique (monotone counter), so
    /// the first entry is always the least recently used.
    recency: BTreeMap<u64, ContentKey>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    disabled: u64,
    evictions: u64,
}

impl BlobCache {
    /// A cache bounded to `capacity` payload bytes; `0` disables it.
    pub fn new(capacity: u64) -> Self {
        BlobCache {
            capacity,
            ..BlobCache::default()
        }
    }

    /// The configured byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Look `key` up, refreshing its recency on a hit. A hit returns a
    /// handle to the resident payload, not a copy of it.
    pub fn get(&mut self, key: ContentKey) -> Option<Arc<[u8]>> {
        if self.capacity == 0 {
            // A disabled cache can't miss — don't let the "off" knob
            // masquerade as a 100% miss rate.
            self.disabled += 1;
            return None;
        }
        match self.entries.get_mut(&key) {
            Some((tick, payload)) => {
                self.recency.remove(tick);
                self.tick += 1;
                *tick = self.tick;
                self.recency.insert(self.tick, key);
                self.hits += 1;
                Some(Arc::clone(payload))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Admit a verified payload, moving the handle in. Re-inserting a
    /// resident key only refreshes its recency; a payload larger than the
    /// whole capacity is rejected; otherwise least-recently-used entries
    /// are evicted until it fits.
    pub fn insert(&mut self, key: ContentKey, payload: Arc<[u8]>) {
        if self.capacity == 0 || payload.len() as u64 > self.capacity {
            return;
        }
        if let Some((tick, _)) = self.entries.get_mut(&key) {
            self.recency.remove(tick);
            self.tick += 1;
            *tick = self.tick;
            self.recency.insert(self.tick, key);
            return;
        }
        while self.bytes + payload.len() as u64 > self.capacity {
            let (&oldest, &victim) = self
                .recency
                .iter()
                .next()
                .expect("over capacity implies a resident entry");
            self.recency.remove(&oldest);
            let (_, evicted) = self.entries.remove(&victim).expect("recency/entries in sync");
            self.bytes -= evicted.len() as u64;
            self.evictions += 1;
        }
        self.tick += 1;
        self.bytes += payload.len() as u64;
        self.entries.insert(key, (self.tick, payload));
        self.recency.insert(self.tick, key);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            disabled: self.disabled,
            evictions: self.evictions,
            entries: self.entries.len() as u64,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dedup::content_key;

    /// A shared handle to a copy of `bytes`.
    fn shared(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    #[test]
    fn hit_returns_the_inserted_payload() {
        let mut c = BlobCache::new(1024);
        let k = content_key(b"payload");
        assert_eq!(c.get(k), None);
        c.insert(k, shared(b"payload"));
        assert_eq!(c.get(k).as_deref(), Some(&b"payload"[..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 1, 1, 7));
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let mut c = BlobCache::new(0);
        assert_eq!(c.capacity(), 0);
        let k = content_key(b"x");
        c.insert(k, shared(b"x"));
        assert_eq!(c.get(k), None);
        assert_eq!(c.get(k), None);
        let s = c.stats();
        assert_eq!(s.entries, 0);
        // Disabled lookups are their own counter — not misses, so a
        // cache-off run derives a 0/0 miss rate instead of 100%.
        assert_eq!((s.hits, s.misses, s.disabled), (0, 0, 2));
    }

    #[test]
    fn lru_evicts_the_coldest_entry_by_bytes() {
        let mut c = BlobCache::new(10);
        let a = content_key(b"aaaa");
        let b = content_key(b"bbbb");
        c.insert(a, shared(b"aaaa"));
        c.insert(b, shared(b"bbbb"));
        // Touch `a` so `b` is now the LRU entry.
        assert!(c.get(a).is_some());
        c.insert(content_key(b"cccc"), shared(b"cccc"));
        assert!(c.get(a).is_some(), "recently used survives");
        assert_eq!(c.get(b), None, "LRU entry evicted");
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 10);
    }

    #[test]
    fn oversized_payload_is_never_admitted() {
        let mut c = BlobCache::new(4);
        let k = content_key(b"too large");
        c.insert(k, shared(b"too large"));
        assert_eq!(c.get(k), None);
        assert_eq!(c.stats().entries, 0);
        // And it evicted nothing on the way.
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn reinsert_refreshes_recency_without_duplicating() {
        let mut c = BlobCache::new(8);
        let a = content_key(b"aaaa");
        let b = content_key(b"bbbb");
        c.insert(a, shared(b"aaaa"));
        c.insert(b, shared(b"bbbb"));
        c.insert(a, shared(b"aaaa")); // refresh, not duplicate
        assert_eq!(c.stats().bytes, 8);
        c.insert(content_key(b"cccc"), shared(b"cccc"));
        assert!(c.get(a).is_some(), "refreshed entry survived");
        assert_eq!(c.get(b), None, "stale entry evicted instead");
    }

    #[test]
    fn deterministic_across_identical_sequences() {
        let run = || {
            let mut c = BlobCache::new(64);
            let keys: Vec<_> = (0u8..16)
                .map(|i| {
                    let payload = vec![i; 8];
                    let k = content_key(&payload);
                    c.insert(k, shared(&payload));
                    k
                })
                .collect();
            let pattern: Vec<bool> = keys.iter().map(|k| c.get(*k).is_some()).collect();
            (pattern, c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_hit_shares_the_inserted_allocation() {
        let mut c = BlobCache::new(8);
        let (a, b) = (content_key(b"aaaa"), content_key(b"bbbb"));
        let payload = shared(b"aaaa");
        c.insert(a, Arc::clone(&payload));
        let hit = c.get(a).expect("resident");
        assert!(Arc::ptr_eq(&hit, &payload), "a hit hands out the inserted bytes, not a copy");
        c.insert(b, shared(b"bbbb"));
        c.insert(content_key(b"cccc"), shared(b"cccc"));
        assert_eq!(c.get(a), None, "evicted");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(&hit[..], b"aaaa", "a handle outlives its entry");
    }
}
