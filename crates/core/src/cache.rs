//! Client-side caches.
//!
//! Khameleon's client cache is a fixed-capacity **ring buffer** with FIFO
//! replacement (§3.3): the `i`-th block received from the server is stored in
//! slot `i % C`, where `C` is the capacity in blocks.  The determinism of this
//! policy is what allows the server-side scheduler to simulate the client's
//! cache contents without any coordination — and it simulates it with the
//! same type: [`RingCache`] is the one FIFO ring, run by the client's
//! [`CacheManager`](crate::client::CacheManager) and by the
//! [`GreedyScheduler`](crate::scheduler::GreedyScheduler), whose §5.3.2
//! rollback is [`RingCache::undo_insert`].
//!
//! Baseline prefetching systems (§6.1) use a conventional byte-capacity
//! [`LruCache`] instead, which this module also provides.

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::types::{BlockRef, Bytes, RequestId};

/// Fixed-capacity ring-buffer block cache with FIFO replacement: the client's
/// cache, and the scheduler's simulation of it.
///
/// Stores block *references*; payloads and sizes are the embedding
/// application's concern (the live example keeps payloads in an
/// application-side map keyed by [`BlockRef`]).  Slots are filled as blocks
/// arrive, not preallocated: a ring that has received `k < C` blocks holds
/// `k` slots, which is what a fleet of mostly idle sessions pays for.
#[derive(Debug, Clone)]
pub struct RingCache {
    capacity: usize,
    /// Slot contents, `slots[i % capacity]` for the `i`-th insert; grows to
    /// `capacity` and stays there.
    slots: Vec<BlockRef>,
    /// Next write position: blocks inserted minus inserts undone.
    cursor: u64,
    /// Blocks currently cached per request, for O(1) lookup.
    per_request: HashMap<RequestId, CachedResponse>,
}

/// Blocks currently cached for one request.
#[derive(Debug, Clone, Default)]
struct CachedResponse {
    /// Sorted block indices currently resident.
    indices: Vec<u32>,
}

impl CachedResponse {
    fn insert(&mut self, index: u32) {
        if let Err(pos) = self.indices.binary_search(&index) {
            self.indices.insert(pos, index);
        }
    }

    fn remove(&mut self, index: u32) {
        if let Ok(pos) = self.indices.binary_search(&index) {
            self.indices.remove(pos);
        }
    }

    fn prefix_len(&self) -> u32 {
        let mut len = 0;
        for (i, &idx) in self.indices.iter().enumerate() {
            if idx == i as u32 {
                len = idx + 1;
            } else {
                break;
            }
        }
        len
    }
}

impl RingCache {
    /// Creates a ring cache with `capacity` block slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        RingCache {
            capacity,
            slots: Vec::new(),
            cursor: 0,
            per_request: HashMap::new(),
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total number of blocks inserted since creation, less the inserts
    /// undone.
    pub fn blocks_received(&self) -> u64 {
        self.cursor
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Inserts a block into the next ring slot and returns the block it
    /// evicted, if the slot was occupied.
    ///
    /// Duplicate blocks (same request and index as one already cached) still
    /// consume a slot — mirroring the paper's design where the server never
    /// re-sends a block within a schedule, so duplicates only arise across
    /// schedule boundaries and are rare.
    pub fn insert(&mut self, block: BlockRef) -> Option<BlockRef> {
        let slot = self.slot(self.cursor);
        self.cursor += 1;
        let evicted = match self.slots.get_mut(slot) {
            Some(s) => Some(std::mem::replace(s, block)),
            None => {
                self.slots.push(block);
                None
            }
        };
        if let Some(old) = evicted {
            self.forget(old);
        }
        self.remember(block);
        evicted
    }

    /// Undoes the newest [`insert`](Self::insert), which stored `block` and
    /// returned `evicted`: its exact inverse, the evicted block back in its
    /// slot.  The scheduler's §5.3.2 rollback: the client never received a
    /// rolled-back block, so its real ring still holds what that delivery
    /// evicted in the simulation.
    pub fn undo_insert(&mut self, block: BlockRef, evicted: Option<BlockRef>) {
        debug_assert!(self.cursor > 0, "undo_insert on a ring with no inserts");
        self.cursor -= 1;
        let slot = self.slot(self.cursor);
        debug_assert_eq!(
            self.slots.get(slot),
            Some(&block),
            "undo_insert must undo the newest insert"
        );
        self.forget(block);
        match evicted {
            Some(old) => {
                self.slots[slot] = old;
                self.remember(old);
            }
            None => {
                debug_assert_eq!(
                    slot + 1,
                    self.slots.len(),
                    "only a ring with room evicts nothing"
                );
                self.slots.pop();
            }
        }
    }

    fn slot(&self, position: u64) -> usize {
        (position % self.capacity as u64) as usize
    }

    fn remember(&mut self, block: BlockRef) {
        self.per_request
            .entry(block.request)
            .or_default()
            .insert(block.index);
    }

    fn forget(&mut self, block: BlockRef) {
        if let Some(entry) = self.per_request.get_mut(&block.request) {
            entry.remove(block.index);
            if entry.indices.is_empty() {
                self.per_request.remove(&block.request);
            }
        }
    }

    /// Length of the contiguous prefix of blocks (starting at block 0)
    /// currently cached for `request`.  This is the quantity that determines
    /// renderable quality for progressive encodings.
    pub fn prefix_len(&self, request: RequestId) -> u32 {
        self.per_request
            .get(&request)
            .map(|e| e.prefix_len())
            .unwrap_or(0)
    }

    /// Whether at least one block for `request` is cached — the cache-hit
    /// condition used throughout the paper's evaluation (§6.1).
    pub fn contains(&self, request: RequestId) -> bool {
        self.per_request.contains_key(&request)
    }

    /// The requests with at least one cached block, in hash order.
    pub fn requests(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.per_request.keys().copied()
    }

    /// `(request, resident blocks)` for every request with a cached block, in
    /// hash order.
    pub fn resident_counts(&self) -> impl Iterator<Item = (RequestId, u32)> + '_ {
        self.per_request
            .iter()
            .map(|(&r, e)| (r, e.indices.len() as u32))
    }

    /// Iterates over the cached blocks in arrival order, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &BlockRef> {
        let oldest = if self.slots.len() < self.capacity {
            0
        } else {
            self.slot(self.cursor)
        };
        let (newer, older) = self.slots.split_at(oldest);
        older.iter().chain(newer)
    }

    /// Clears the cache, keeping its capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.cursor = 0;
        self.per_request.clear();
    }
}

/// Entry bookkeeping for [`LruCache`].
#[derive(Debug, Clone)]
struct LruEntry {
    /// Number of blocks cached for the request (baselines always fetch full
    /// responses, so this usually equals the response's block count).
    blocks: u32,
    total_blocks: u32,
    bytes: Bytes,
}

/// Byte-capacity LRU cache keyed by request, used by the traditional
/// prefetching baselines (§6.1).
///
/// Baselines fetch whole responses, so entries record the response's block
/// count and byte size; eviction removes the least-recently *used* response
/// until the new entry fits.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_bytes: Bytes,
    used_bytes: Bytes,
    entries: HashMap<RequestId, LruEntry>,
    /// Recency queue: front = least recently used.  May contain stale ids;
    /// they are skipped on eviction.
    recency: VecDeque<RequestId>,
    /// Monotonic counters for hit-rate style introspection in tests.
    evictions: u64,
}

impl LruCache {
    /// Creates an LRU cache with the given byte capacity.
    pub fn new(capacity_bytes: Bytes) -> Self {
        assert!(capacity_bytes > 0, "cache capacity must be positive");
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            recency: VecDeque::new(),
            evictions: 0,
        }
    }

    /// Byte capacity.
    pub fn capacity_bytes(&self) -> Bytes {
        self.capacity_bytes
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> Bytes {
        self.used_bytes
    }

    /// Number of responses currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of evicted responses since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Inserts (or replaces) the cached response for `request`.
    ///
    /// `blocks`/`total_blocks` describe how much of the response is stored;
    /// `bytes` is its size.  Evicts least-recently-used responses until the
    /// entry fits.  An entry larger than the whole cache is not stored.
    pub fn insert(&mut self, request: RequestId, blocks: u32, total_blocks: u32, bytes: Bytes) {
        if bytes > self.capacity_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(&request) {
            self.used_bytes -= old.bytes;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            if !self.evict_one(Some(request)) {
                break;
            }
        }
        self.entries.insert(
            request,
            LruEntry {
                blocks,
                total_blocks,
                bytes,
            },
        );
        self.used_bytes += bytes;
        self.recency.push_back(request);
    }

    fn evict_one(&mut self, protect: Option<RequestId>) -> bool {
        while let Some(candidate) = self.recency.pop_front() {
            if Some(candidate) == protect {
                // Re-queue the protected entry and keep looking.
                self.recency.push_back(candidate);
                if self.recency.len() == 1 {
                    return false;
                }
                continue;
            }
            // Skip stale recency entries (already removed or touched later).
            if self.recency.contains(&candidate) {
                continue;
            }
            if let Some(e) = self.entries.remove(&candidate) {
                self.used_bytes -= e.bytes;
                self.evictions += 1;
                return true;
            }
        }
        false
    }

    /// Whether a response for `request` is cached; updates recency on hit.
    pub fn get(&mut self, request: RequestId) -> bool {
        if self.entries.contains_key(&request) {
            self.touch(request);
            true
        } else {
            false
        }
    }

    /// Whether a response for `request` is cached, without updating recency.
    pub fn peek(&self, request: RequestId) -> bool {
        self.entries.contains_key(&request)
    }

    /// Fraction of the response cached for `request` (0 when absent).
    pub fn prefix_fraction(&self, request: RequestId) -> f64 {
        match self.entries.get(&request) {
            Some(e) if e.total_blocks > 0 => e.blocks as f64 / e.total_blocks as f64,
            _ => 0.0,
        }
    }

    fn touch(&mut self, request: RequestId) {
        // Lazy recency maintenance: push a fresh marker; stale duplicates are
        // skipped during eviction.
        self.recency.retain(|r| *r != request);
        self.recency.push_back(request);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(req: u32, idx: u32) -> BlockRef {
        BlockRef::new(RequestId(req), idx)
    }

    /// Number of blocks currently cached for `request` (resident, possibly
    /// non-contiguous).
    fn cached_blocks(c: &RingCache, request: RequestId) -> u32 {
        c.per_request
            .get(&request)
            .map_or(0, |e| e.indices.len() as u32)
    }

    #[test]
    fn ring_inserts_wrap_and_evict() {
        let mut c = RingCache::new(3);
        assert!(c.is_empty());
        assert_eq!(c.insert(blk(0, 0)), None);
        assert_eq!(c.insert(blk(1, 0)), None);
        assert_eq!(c.insert(blk(2, 0)), None);
        assert_eq!(c.len(), 3);
        // Fourth insert overwrites slot 0 (block of request 0).
        let evicted = c.insert(blk(3, 0)).unwrap();
        assert_eq!(evicted.request, RequestId(0));
        assert!(!c.contains(RequestId(0)));
        assert!(c.contains(RequestId(3)));
        assert_eq!(c.blocks_received(), 4);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn ring_prefix_tracking() {
        let mut c = RingCache::new(10);
        c.insert(blk(5, 0));
        c.insert(blk(5, 2));
        assert_eq!(cached_blocks(&c, RequestId(5)), 2);
        // Block 1 missing: prefix stops after block 0.
        assert_eq!(c.prefix_len(RequestId(5)), 1);
        c.insert(blk(5, 1));
        assert_eq!(c.prefix_len(RequestId(5)), 3);
    }

    #[test]
    fn ring_eviction_updates_prefix() {
        let mut c = RingCache::new(2);
        c.insert(blk(1, 0));
        c.insert(blk(1, 1));
        assert_eq!(c.prefix_len(RequestId(1)), 2);
        // Overwrites slot 0 (block 0 of request 1): prefix collapses to 0.
        c.insert(blk(2, 0));
        assert_eq!(cached_blocks(&c, RequestId(1)), 1);
        assert_eq!(c.prefix_len(RequestId(1)), 0);
    }

    #[test]
    fn ring_clear_resets() {
        let mut c = RingCache::new(4);
        c.insert(blk(0, 0));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(cached_blocks(&c, RequestId(0)), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn ring_zero_capacity_panics() {
        RingCache::new(0);
    }

    #[test]
    fn lru_insert_get_evict() {
        let mut c = LruCache::new(10_000);
        c.insert(RequestId(1), 1, 1, 4_000);
        c.insert(RequestId(2), 1, 1, 4_000);
        assert!(c.get(RequestId(1)));
        assert!(!c.get(RequestId(9)));
        // Inserting a third 4KB entry must evict the LRU one, which is
        // request 2 (request 1 was touched by the get above).
        c.insert(RequestId(3), 1, 1, 4_000);
        assert!(c.peek(RequestId(1)));
        assert!(!c.peek(RequestId(2)));
        assert!(c.peek(RequestId(3)));
        assert_eq!(c.evictions(), 1);
        assert!(c.used_bytes() <= c.capacity_bytes());
    }

    #[test]
    fn lru_rejects_oversized_and_replaces() {
        let mut c = LruCache::new(1_000);
        c.insert(RequestId(0), 1, 1, 5_000);
        assert!(c.is_empty());
        c.insert(RequestId(1), 2, 4, 600);
        assert!((c.prefix_fraction(RequestId(1)) - 0.5).abs() < 1e-12);
        // Replacing the same request updates bytes rather than double counting.
        c.insert(RequestId(1), 4, 4, 800);
        assert_eq!(c.used_bytes(), 800);
        assert_eq!(c.len(), 1);
        assert!((c.prefix_fraction(RequestId(1)) - 1.0).abs() < 1e-12);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// The FIFO ring `GreedyScheduler` kept beside this type before it
        /// simulated the client with `RingCache` (`deliver_to_ring` /
        /// `undo_ring_delivery` / `resident_prefix_len`), kept as the oracle.
        ///
        /// One deliberate difference: the deleted code added the new block's
        /// index before dropping the evicted one's, so a block that evicted
        /// its own duplicate left its request without it.  The scheduler
        /// never delivers a resident block, so no schedule reaches that case;
        /// a client can, and its slot does hold the block.
        struct SchedulerRing {
            cap: usize,
            ring: VecDeque<BlockRef>,
            resident: HashMap<RequestId, BTreeSet<u32>>,
        }

        impl SchedulerRing {
            fn forget(&mut self, old: BlockRef) {
                if let Some(set) = self.resident.get_mut(&old.request) {
                    set.remove(&old.index);
                    if set.is_empty() {
                        self.resident.remove(&old.request);
                    }
                }
            }

            fn deliver(&mut self, block: BlockRef) -> Option<BlockRef> {
                self.ring.push_back(block);
                let mut evicted = None;
                if self.ring.len() > self.cap {
                    if let Some(old) = self.ring.pop_front() {
                        self.forget(old);
                        evicted = Some(old);
                    }
                }
                self.resident
                    .entry(block.request)
                    .or_default()
                    .insert(block.index);
                evicted
            }

            fn undo(&mut self, block: BlockRef, evicted: Option<BlockRef>) {
                if self.ring.back() == Some(&block) {
                    self.ring.pop_back();
                    self.forget(block);
                }
                if let Some(old) = evicted {
                    self.ring.push_front(old);
                    self.resident
                        .entry(old.request)
                        .or_default()
                        .insert(old.index);
                }
            }

            fn prefix_len(&self, request: RequestId) -> u32 {
                let mut len = 0;
                for &idx in self.resident.get(&request).into_iter().flatten() {
                    if idx != len {
                        break;
                    }
                    len += 1;
                }
                len
            }
        }

        proptest! {
            /// `insert` and `undo_insert` move the ring exactly as the
            /// scheduler's deleted private ring did, through duplicates,
            /// wraps and LIFO undos that cross a wrap.
            #[test]
            fn ring_matches_the_scheduler_ring_it_replaced(
                cap in 1usize..32,
                ops in proptest::collection::vec((0u8..3, 0u32..16, 0u32..8), 0..200)
            ) {
                let mut c = RingCache::new(cap);
                let mut oracle = SchedulerRing {
                    cap,
                    ring: VecDeque::new(),
                    resident: HashMap::new(),
                };
                // Inserts not yet undone, newest last.
                let mut undoable: Vec<(BlockRef, Option<BlockRef>)> = Vec::new();
                for (kind, req, idx) in ops {
                    match undoable.last().copied() {
                        Some((block, evicted)) if kind == 0 => {
                            undoable.pop();
                            c.undo_insert(block, evicted);
                            oracle.undo(block, evicted);
                        }
                        _ => {
                            let block = blk(req, idx);
                            let evicted = c.insert(block);
                            prop_assert_eq!(evicted, oracle.deliver(block));
                            undoable.push((block, evicted));
                        }
                    }
                    let contents: Vec<BlockRef> = c.iter().copied().collect();
                    let expected: Vec<BlockRef> = oracle.ring.iter().copied().collect();
                    prop_assert_eq!(contents, expected);
                    prop_assert_eq!(c.len(), oracle.ring.len());
                    prop_assert_eq!(c.blocks_received(), undoable.len() as u64);
                    for r in (0..16).map(RequestId) {
                        let set = oracle.resident.get(&r);
                        prop_assert_eq!(c.contains(r), set.is_some());
                        prop_assert_eq!(cached_blocks(&c, r), set.map_or(0, |s| s.len() as u32));
                        prop_assert_eq!(c.prefix_len(r), oracle.prefix_len(r));
                    }
                    let mut counts: Vec<(RequestId, u32)> = c.resident_counts().collect();
                    counts.sort_unstable();
                    let mut requests: Vec<RequestId> = c.requests().collect();
                    requests.sort_unstable();
                    prop_assert_eq!(requests, counts.iter().map(|&(r, _)| r).collect::<Vec<_>>());
                }
            }

            /// The ring cache never holds more blocks than its capacity and the
            /// per-request counts always sum to the number of occupied slots.
            #[test]
            fn ring_occupancy_invariant(
                cap in 1usize..32,
                inserts in proptest::collection::vec((0u32..16, 0u32..8), 0..200)
            ) {
                let mut c = RingCache::new(cap);
                let mut requests_seen = std::collections::HashSet::new();
                for (req, idx) in inserts {
                    requests_seen.insert(req);
                    c.insert(blk(req, idx));
                    prop_assert!(c.len() <= cap);
                    // Per-request counts track distinct resident blocks, so they
                    // never exceed the number of occupied slots (duplicates of
                    // the same block occupy a slot but count once).
                    let total: u32 = requests_seen
                        .iter()
                        .map(|&r| cached_blocks(&c, RequestId(r)))
                        .sum();
                    prop_assert!(total as usize <= c.len());
                    prop_assert!(total >= 1);
                }
            }

            /// LRU never exceeds its byte capacity.
            #[test]
            fn lru_capacity_invariant(
                cap in 1_000u64..50_000,
                ops in proptest::collection::vec((0u32..32, 100u64..20_000), 0..100)
            ) {
                let mut c = LruCache::new(cap);
                for (req, bytes) in ops {
                    c.insert(RequestId(req), 1, 1, bytes);
                    prop_assert!(c.used_bytes() <= c.capacity_bytes());
                }
            }
        }
    }
}
