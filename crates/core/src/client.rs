//! Client-side library: the Cache Manager (§3.2, §3.3).
//!
//! User-generated requests are *not* sent on the network.  They are registered
//! with the [`CacheManager`], which waits until the ring-buffer cache holds at
//! least one block for the request and then makes an application **upcall**
//! with whatever prefix is available.  Registering a request assigns it an
//! increasing logical timestamp; when the upcall for request `i` fires, all
//! requests with earlier timestamps are deregistered (the *preemptive
//! interactions* behaviour of §2 — the interface only ever shows the most
//! recent interaction's data).
//!
//! The manager also keeps the raw metric samples (§6.1) so experiments and
//! applications can report cache-hit rate, response latency, response
//! utility, preemption and overpush without extra plumbing.

use std::collections::HashSet;
use std::sync::Arc;

use crate::block::{BlockMeta, ResponseCatalog};
use crate::cache::RingCache;
use crate::metrics::{MetricsCollector, ResponseSample};
use crate::types::{BlockRef, Duration, RequestId, Time};
use crate::utility::UtilityModel;

/// An upcall delivered to the application: the freshest registered request
/// now has renderable data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Upcall {
    /// The request being answered.
    pub request: RequestId,
    /// Logical timestamp assigned at registration.
    pub logical_ts: u64,
    /// When the request was registered.
    pub registered_at: Time,
    /// When the upcall fired.
    pub at: Time,
    /// Contiguous prefix of blocks available at upcall time.
    pub blocks: u32,
    /// Utility of that prefix.
    pub utility: f64,
    /// Whether data was already cached when the request was registered.
    pub cache_hit: bool,
}

impl Upcall {
    /// Registration-to-upcall latency.
    pub fn latency(&self) -> Duration {
        self.at.saturating_sub(self.registered_at)
    }
}

/// A registered request waiting for data.
#[derive(Debug, Clone, Copy)]
struct Pending {
    request: RequestId,
    logical_ts: u64,
    registered_at: Time,
    cache_hit_at_registration: bool,
}

/// Client-side cache manager: ring cache + request registration + upcalls +
/// metric collection.
pub struct CacheManager {
    cache: RingCache,
    catalog: Arc<ResponseCatalog>,
    utility: UtilityModel,
    pending: Vec<Pending>,
    next_ts: u64,
    /// The most recently *answered* request; later blocks for it improve the
    /// rendered quality (tracked for convergence experiments).
    active: Option<RequestId>,
    /// Blocks that have contributed to an upcall (for overpush accounting).
    used_blocks: HashSet<BlockRef>,
    metrics: MetricsCollector,
}

impl CacheManager {
    /// Creates a cache manager with a ring cache of `cache_blocks` slots.
    pub fn new(cache_blocks: usize, catalog: Arc<ResponseCatalog>, utility: UtilityModel) -> Self {
        CacheManager {
            cache: RingCache::new(cache_blocks),
            catalog,
            utility,
            pending: Vec::new(),
            next_ts: 0,
            active: None,
            used_blocks: HashSet::new(),
            metrics: MetricsCollector::new(),
        }
    }

    /// Convenience constructor that sizes the cache from a byte budget, using
    /// the catalog's maximum padded block size as the slot size (how the
    /// paper's experiments express cache sizes, e.g. "50 MB").
    pub fn with_byte_capacity(
        capacity_bytes: u64,
        catalog: Arc<ResponseCatalog>,
        utility: UtilityModel,
    ) -> Self {
        let slot = catalog.max_block_size().max(1);
        let blocks = (capacity_bytes / slot).max(1) as usize;
        Self::new(blocks, catalog, utility)
    }

    /// The cache capacity in blocks (the scheduler's horizon `C`).
    pub fn cache_blocks(&self) -> usize {
        self.cache.capacity()
    }

    /// Registers a user request at time `now`.
    ///
    /// If the cache already holds data for it, the upcall fires immediately
    /// (a cache hit) and is returned; otherwise the request is queued until a
    /// block arrives.
    pub fn register(&mut self, request: RequestId, now: Time) -> Option<Upcall> {
        self.metrics.record_request();
        let ts = self.next_ts;
        self.next_ts += 1;
        let hit = self.cache.contains(request);
        let pending = Pending {
            request,
            logical_ts: ts,
            registered_at: now,
            cache_hit_at_registration: hit,
        };
        if hit {
            let upcall = self.fire_upcall(pending, now);
            Some(upcall)
        } else {
            self.pending.push(pending);
            None
        }
    }

    /// Delivers a block pushed by the server; returns any upcalls it
    /// triggered (at most one — for the newest pending request that now has
    /// data).
    pub fn on_block(&mut self, block: BlockMeta, now: Time) -> Vec<Upcall> {
        self.metrics.record_pushed(block.size);
        self.cache.insert(block.block);
        // Answer the *newest* pending request that now has data; older ones
        // will be preempted by its upcall.
        let candidate = self
            .pending
            .iter()
            .filter(|p| self.cache.contains(p.request))
            .max_by_key(|p| p.logical_ts)
            .copied();
        match candidate {
            Some(p) => {
                self.pending.retain(|x| x.logical_ts != p.logical_ts);
                vec![self.fire_upcall(p, now)]
            }
            None => Vec::new(),
        }
    }

    fn fire_upcall(&mut self, pending: Pending, now: Time) -> Upcall {
        // Preempt all earlier registrations (§2, §3.3).
        let before = self.pending.len();
        self.pending.retain(|p| p.logical_ts > pending.logical_ts);
        let preempted = before - self.pending.len();
        for _ in 0..preempted {
            self.metrics.record_preempted();
        }

        let blocks = self.cache.prefix_len(pending.request);
        let utility = self.utility.step(pending.request.index(), blocks);
        self.active = Some(pending.request);
        self.mark_used(pending.request);

        let upcall = Upcall {
            request: pending.request,
            logical_ts: pending.logical_ts,
            registered_at: pending.registered_at,
            at: now,
            blocks,
            utility,
            cache_hit: pending.cache_hit_at_registration,
        };
        self.metrics.record_response(ResponseSample {
            request: pending.request,
            registered_at: pending.registered_at,
            answered_at: now,
            cache_hit: pending.cache_hit_at_registration,
            blocks,
            utility,
        });
        upcall
    }

    fn mark_used(&mut self, request: RequestId) {
        let mut newly_used = 0;
        for b in self.cache.iter() {
            if b.request == request && self.used_blocks.insert(*b) {
                newly_used += 1;
            }
        }
        if newly_used > 0 {
            self.metrics.record_used(newly_used);
        }
    }

    /// The most recently answered request.
    pub fn active_request(&self) -> Option<RequestId> {
        self.active
    }

    /// Current renderable utility of `request`, given the blocks cached right
    /// now (used by the convergence experiments, Figure 10).
    pub fn current_utility(&self, request: RequestId) -> f64 {
        let blocks = self.cache.prefix_len(request);
        self.utility.step(request.index(), blocks)
    }

    /// Current contiguous block prefix cached for `request`.
    pub fn current_blocks(&self, request: RequestId) -> u32 {
        self.cache.prefix_len(request)
    }

    /// Whether any data is cached for `request`.
    pub fn has_data(&self, request: RequestId) -> bool {
        self.cache.contains(request)
    }

    /// Number of requests still waiting for data.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Records that a prediction message was sent (uplink accounting).
    pub fn note_prediction_sent(&mut self, bytes: u64) {
        self.metrics.record_prediction(bytes);
    }

    /// Marks, at the end of a run, the still-pending requests as preempted
    /// (they never received data); call once before reading final metrics.
    pub fn finalize(&mut self) {
        let remaining = self.pending.len();
        for _ in 0..remaining {
            self.metrics.record_preempted();
        }
        self.pending.clear();
    }

    /// Read access to the collected metrics.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// The underlying ring cache (read-only), e.g. for the server to verify
    /// its simulation in tests.
    pub fn cache(&self) -> &RingCache {
        &self.cache
    }

    /// The response catalog shared with the server.
    pub fn catalog(&self) -> &Arc<ResponseCatalog> {
        &self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::LinearUtility;

    fn manager(n: usize, blocks: u32, cache: usize) -> CacheManager {
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 1000));
        CacheManager::new(
            cache,
            catalog,
            UtilityModel::homogeneous(&LinearUtility, blocks),
        )
    }

    fn meta(catalog: &ResponseCatalog, req: u32, idx: u32) -> BlockMeta {
        catalog.layout(RequestId(req)).block_meta(idx).unwrap()
    }

    #[test]
    fn miss_then_block_triggers_upcall() {
        let mut m = manager(4, 2, 8);
        let cat = m.catalog().clone();
        assert!(m.register(RequestId(1), Time::from_millis(0)).is_none());
        assert_eq!(m.pending_count(), 1);
        let ups = m.on_block(meta(&cat, 1, 0), Time::from_millis(30));
        assert_eq!(ups.len(), 1);
        let u = ups[0];
        assert_eq!(u.request, RequestId(1));
        assert_eq!(u.blocks, 1);
        assert!((u.utility - 0.5).abs() < 1e-12);
        assert!(!u.cache_hit);
        assert_eq!(u.latency(), Duration::from_millis(30));
        assert_eq!(m.pending_count(), 0);
        assert_eq!(m.active_request(), Some(RequestId(1)));
    }

    #[test]
    fn cache_hit_answers_immediately() {
        let mut m = manager(4, 2, 8);
        let cat = m.catalog().clone();
        assert!(m
            .on_block(meta(&cat, 2, 0), Time::from_millis(5))
            .is_empty());
        let u = m.register(RequestId(2), Time::from_millis(10)).unwrap();
        assert!(u.cache_hit);
        assert_eq!(u.latency(), Duration::ZERO);
        let s = m.metrics().summary();
        assert_eq!(s.completed, 1);
        assert!((s.cache_hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn newer_request_preempts_older() {
        let mut m = manager(8, 1, 8);
        let cat = m.catalog().clone();
        assert!(m.register(RequestId(0), Time::from_millis(0)).is_none());
        assert!(m.register(RequestId(1), Time::from_millis(5)).is_none());
        assert!(m.register(RequestId(2), Time::from_millis(10)).is_none());
        // A block for the newest request answers it and preempts the others.
        let ups = m.on_block(meta(&cat, 2, 0), Time::from_millis(20));
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].request, RequestId(2));
        assert_eq!(m.pending_count(), 0);
        let s = m.metrics().summary();
        assert_eq!(s.preempted, 2);
        assert_eq!(s.completed, 1);
        // A late block for a preempted request does nothing.
        assert!(m
            .on_block(meta(&cat, 0, 0), Time::from_millis(30))
            .is_empty());
    }

    #[test]
    fn older_block_answers_older_request_but_is_preempted_later() {
        let mut m = manager(8, 1, 8);
        let cat = m.catalog().clone();
        assert!(m.register(RequestId(0), Time::from_millis(0)).is_none());
        assert!(m.register(RequestId(1), Time::from_millis(5)).is_none());
        // Data for the *older* request arrives first: request 1 is newer and
        // still pending, so the upcall goes to request 0?  No — the manager
        // answers the newest pending request *that has data*, which is 0 here;
        // request 1 stays pending (it has no data yet).
        let ups = m.on_block(meta(&cat, 0, 0), Time::from_millis(8));
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].request, RequestId(0));
        assert_eq!(m.pending_count(), 1);
        // Then request 1's data arrives and answers it.
        let ups = m.on_block(meta(&cat, 1, 0), Time::from_millis(9));
        assert_eq!(ups[0].request, RequestId(1));
        assert_eq!(m.metrics().summary().preempted, 0);
    }

    #[test]
    fn utility_improves_with_more_blocks() {
        let mut m = manager(2, 4, 8);
        let cat = m.catalog().clone();
        m.on_block(meta(&cat, 0, 0), Time::from_millis(1));
        let u = m.register(RequestId(0), Time::from_millis(2)).unwrap();
        assert!((u.utility - 0.25).abs() < 1e-12);
        m.on_block(meta(&cat, 0, 1), Time::from_millis(3));
        m.on_block(meta(&cat, 0, 2), Time::from_millis(4));
        assert!((m.current_utility(RequestId(0)) - 0.75).abs() < 1e-12);
        assert_eq!(m.current_blocks(RequestId(0)), 3);
    }

    #[test]
    fn overpush_accounting() {
        let mut m = manager(4, 2, 8);
        let cat = m.catalog().clone();
        // Push blocks for requests 0 and 1; only 0 is ever requested.
        m.on_block(meta(&cat, 0, 0), Time::from_millis(1));
        m.on_block(meta(&cat, 0, 1), Time::from_millis(2));
        m.on_block(meta(&cat, 1, 0), Time::from_millis(3));
        let _ = m.register(RequestId(0), Time::from_millis(5));
        m.finalize();
        let s = m.metrics().summary();
        assert_eq!(s.blocks_pushed, 3);
        // Blocks of request 0 were used; request 1's block was overpushed.
        assert!((s.overpush_rate - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn finalize_counts_unanswered_as_preempted() {
        let mut m = manager(4, 1, 4);
        assert!(m.register(RequestId(3), Time::ZERO).is_none());
        m.finalize();
        assert_eq!(m.metrics().summary().preempted, 1);
        assert_eq!(m.pending_count(), 0);
    }

    #[test]
    fn byte_capacity_constructor_sizes_ring() {
        let catalog = Arc::new(ResponseCatalog::uniform(4, 2, 10_000));
        let m = CacheManager::with_byte_capacity(
            100_000,
            catalog,
            UtilityModel::homogeneous(&LinearUtility, 2),
        );
        assert_eq!(m.cache_blocks(), 10);
    }

    #[test]
    fn prediction_accounting() {
        let mut m = manager(2, 1, 2);
        m.note_prediction_sent(64);
        m.note_prediction_sent(64);
        let s = m.metrics().summary();
        assert_eq!(s.predictions_sent, 2);
        assert_eq!(s.prediction_bytes, 128);
    }
}
