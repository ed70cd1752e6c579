//! Cross-session deduplication of [`HorizonModel`]s.
//!
//! Many concurrent sessions often run *identical* predictors over the same
//! catalog — anonymous clients browsing the same gallery all ship the same
//! prediction summaries — yet each session's scheduler would materialize its
//! own `O(b · horizon + m)` model.  The [`ModelCache`] lets those sessions
//! resolve to **one** shared `Arc<HorizonModel>` (including its
//! [`TailShapePartition`](crate::scheduler::TailShapePartition)), extending
//! the Arc-shared [`GreedyContext`](crate::scheduler::GreedyContext) pattern
//! from catalog-derived state to prediction-derived state.  Memory then
//! scales with the number of *distinct* predictions, not the number of
//! sessions.
//!
//! ## The invariant
//!
//! *A shared model is always `build(summary, params)`; a diffed model is
//! always private.*  The uniform prior every scheduler starts from is no
//! exception: it is the build of [`PredictionSummary::uniform`], so N fresh
//! sessions share one pristine model, and a session whose predictor later
//! falls back to an explicit uniform summary rejoins it.  Entries are keyed
//! by the fingerprint of their build input, and [`HorizonModel::build`] is a
//! pure function of it, so two sessions resolving the same key hold
//! *bit-identical* content — even if a cross-thread race makes them build it
//! twice and only one registration wins — whatever either predicted before
//! and whichever other sessions happen to be live.  A scheduler applying a
//! prediction *delta* mutates through [`Arc::make_mut`]: the first delta
//! clones a shared model privately (the copy-on-write split, leaving every
//! other holder on the shared instance) and later ones patch that private
//! copy in place; its next whole summary resolves here again and rejoins
//! the shared build.  A diffed tail differs from a fresh build at the ulp
//! level (`coef *= c` versus re-summed suffixes), which is why it is never
//! registered.
//!
//! ## The lookup
//!
//! Every whole-summary install resolves here, so a resolution must not grow
//! with the number of live models.  The fingerprint is two multiply-xorshift
//! lanes over the summary's words, one word a step; the registry is a map
//! keyed by it, hashed by its own low word, so a hit is one lookup under the
//! lock.  Dead entries are pruned only on a miss, when a build is paid
//! anyway.  The hash is fixed, so clients could aim summaries at one
//! bucket; but an entry outlives a miss only while some scheduler holds its
//! model, so colliding entries number at most the sessions holding them.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, Weak};

use crate::distribution::PredictionSummary;
use crate::scheduler::HorizonModel;
use crate::types::Duration;

/// A 128-bit build-input fingerprint plus the build parameters it was taken
/// under.  The parameters are compared explicitly (not only hashed) so a
/// fingerprint collision across different horizons can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelKey {
    fingerprint: u128,
    n: usize,
    horizon: usize,
    slot_micros: u64,
    gamma_bits: u64,
}

/// The fingerprint is already a hash of every other field's inputs, so the
/// registry's table hashes its low word and nothing else.
impl Hash for ModelKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint as u64);
    }
}

/// The registry's [`Hasher`]: passes [`ModelKey`]'s one word through, with
/// no per-process random state and no byte-by-byte hashing.
#[derive(Debug, Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 << 8) | u64::from(byte);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The registry: one weakly held model per key.
type Registry = HashMap<ModelKey, Weak<HorizonModel>, BuildHasherDefault<FingerprintHasher>>;

/// Two multiply-xorshift lanes over the words of the build input, one 64-bit
/// word a step: deterministic across processes and threads (unlike `std`'s
/// randomized hasher), cheap, and with 128 output bits collisions are not a
/// practical concern — and the explicit parameter comparison in
/// [`ModelKey`] bounds the blast radius of one.  Each step is a bijection
/// of a lane's state, and the xorshift carries a word's high bits into the
/// low ones, which a bare multiply never does.
#[derive(Debug, Clone, Copy)]
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
    // A distinct offset basis, prime and word rotation decorrelate the
    // second lane.
    const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
    const PRIME_A: u64 = 0x1000_0000_01b3;
    const PRIME_B: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        Fnv2 {
            a: Self::OFFSET_A,
            b: Self::OFFSET_B,
        }
    }

    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(Self::PRIME_A);
        self.a ^= self.a >> 29;
        self.b = (self.b ^ w.rotate_left(32)).wrapping_mul(Self::PRIME_B);
        self.b ^= self.b >> 31;
    }

    fn finish(self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Fingerprints the content of a prediction summary together with the model
/// build parameters.  Two summaries hash equal iff their slice structure,
/// per-request explicit probabilities (bit-exact), and residual masses all
/// match — exactly the inputs [`HorizonModel::build`] consumes (the
/// client-side `generated_at` stamp is deliberately excluded).
fn fingerprint_summary(
    summary: &PredictionSummary,
    horizon: usize,
    slot_duration: Duration,
    gamma: f64,
) -> ModelKey {
    let mut h = Fnv2::new();
    h.word(summary.num_requests() as u64);
    h.word(summary.slices().len() as u64);
    for slice in summary.slices() {
        h.word(slice.delta.as_micros());
        h.word(slice.dist.num_requests() as u64);
        h.word(slice.dist.residual_mass().to_bits());
        h.word(slice.dist.explicit_entries().len() as u64);
        for &(r, p) in slice.dist.explicit_entries() {
            h.word(u64::from(r.0));
            h.word(p.to_bits());
        }
    }
    ModelKey {
        fingerprint: h.finish(),
        n: summary.num_requests(),
        horizon,
        slot_micros: slot_duration.as_micros(),
        gamma_bits: gamma.to_bits(),
    }
}

/// Shared registry of canonical [`HorizonModel`]s, keyed by content
/// fingerprint.  Every entry is a [`HorizonModel::build`], the uniform prior
/// (the build of [`PredictionSummary::uniform`]) included.  Entries are held
/// weakly: a model lives exactly as long as some scheduler holds it, so a
/// departing session's models are reclaimed without any explicit eviction
/// protocol.
///
/// A resolution is one keyed lookup under the lock.  Dead entries — keys
/// whose model every holder dropped — are pruned on a miss, before the new
/// model registers, so a hit never scans the registry.
///
/// One instance is shared by every session of a
/// [`SessionManager`](crate::session::SessionManager) and, under sharding,
/// by every shard of a
/// [`ShardedSessionManager`](crate::shard::ShardedSessionManager) — the
/// interior mutex makes cross-thread resolution safe, and the
/// canonical-build-only rule (module docs) makes it *deterministic*.
#[derive(Debug, Default)]
pub struct ModelCache {
    entries: Mutex<Registry>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl ModelCache {
    /// Creates an empty cache behind an `Arc`, ready to share.
    pub fn new() -> Arc<Self> {
        Arc::new(ModelCache::default())
    }

    /// Resolves the canonical model for `summary` under the given build
    /// parameters: returns the live shared instance if one exists, otherwise
    /// builds, registers, and returns it.
    pub fn resolve_build(
        &self,
        summary: &PredictionSummary,
        horizon: usize,
        slot_duration: Duration,
        gamma: f64,
    ) -> Arc<HorizonModel> {
        use std::sync::atomic::Ordering;
        let key = fingerprint_summary(summary, horizon, slot_duration, gamma);
        if let Some(live) = self.lock_entries().get(&key).and_then(Weak::upgrade) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return live;
        }
        // Build outside the lock: canonical builds are pure functions of the
        // key, so two threads racing on the same key build identical models
        // and it does not matter whose registration wins.
        let built = Arc::new(HorizonModel::build(summary, horizon, slot_duration, gamma));
        let mut entries = self.lock_entries();
        if let Some(live) = entries.get(&key).and_then(Weak::upgrade) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return live;
        }
        entries.retain(|_, model| model.strong_count() > 0);
        entries.insert(key, Arc::downgrade(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        built
    }

    fn lock_entries(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of distinct models currently kept alive by some scheduler.
    /// Prunes dead entries as a side effect.
    pub fn live_models(&self) -> usize {
        let mut entries = self.lock_entries();
        entries.retain(|_, model| model.strong_count() > 0);
        entries.len()
    }

    /// Resolutions answered from a live shared instance.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resolutions that had to build (and register) a fresh model.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{HorizonSlice, SparseDistribution};
    use crate::types::{RequestId, Time};

    fn summary(entries: &[(u32, f64)]) -> PredictionSummary {
        let dist = SparseDistribution::from_entries(
            64,
            entries
                .iter()
                .map(|&(r, p)| (RequestId(r), p))
                .collect::<Vec<_>>(),
            0.1,
        );
        PredictionSummary::new(
            64,
            vec![HorizonSlice {
                delta: Duration::ZERO,
                dist,
            }],
            Time::ZERO,
        )
    }

    #[test]
    fn identical_summaries_share_one_model() {
        let cache = ModelCache::new();
        let a = cache.resolve_build(&summary(&[(3, 0.5)]), 32, Duration::from_millis(1), 0.8);
        let b = cache.resolve_build(&summary(&[(3, 0.5)]), 32, Duration::from_millis(1), 0.8);
        assert!(Arc::ptr_eq(&a, &b), "identical inputs must dedup");
        assert_eq!(cache.live_models(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn different_params_do_not_alias() {
        let cache = ModelCache::new();
        let s = summary(&[(3, 0.5)]);
        let a = cache.resolve_build(&s, 32, Duration::from_millis(1), 0.8);
        let b = cache.resolve_build(&s, 64, Duration::from_millis(1), 0.8);
        let c = cache.resolve_build(&s, 32, Duration::from_millis(2), 0.8);
        let d = cache.resolve_build(&s, 32, Duration::from_millis(1), 0.9);
        let e = cache.resolve_build(&summary(&[(3, 0.25)]), 32, Duration::from_millis(1), 0.8);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(!Arc::ptr_eq(&a, &e));
        assert_eq!(cache.live_models(), 5);
    }

    #[test]
    fn dropped_models_are_reclaimed() {
        let cache = ModelCache::new();
        let a = cache.resolve_build(&summary(&[(1, 0.9)]), 16, Duration::from_millis(1), 1.0);
        assert_eq!(cache.live_models(), 1);
        drop(a);
        assert_eq!(cache.live_models(), 0);
        // A fresh resolve after reclamation is a miss, not a hit on a corpse.
        let _b = cache.resolve_build(&summary(&[(1, 0.9)]), 16, Duration::from_millis(1), 1.0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn desynchronised_histories_converge() {
        use crate::block::ResponseCatalog;
        use crate::delta::DirectUplink;
        use crate::scheduler::{GreedyContext, GreedyScheduler, GreedySchedulerConfig, Scheduler};
        use crate::utility::{LinearUtility, UtilityModel};

        let catalog = Arc::new(ResponseCatalog::uniform(64, 2, 100));
        let utility = UtilityModel::homogeneous(&LinearUtility, 2);
        let ctx = Arc::new(GreedyContext::new(&utility, &catalog));
        let cache = ModelCache::new();
        let mk = || {
            let cfg = GreedySchedulerConfig {
                cache_blocks: 32,
                ..Default::default()
            };
            let (cat, ctx) = (catalog.clone(), ctx.clone());
            GreedyScheduler::with_context_and_cache(cfg, cat, ctx, Some(cache.clone()))
        };
        let (mut a, mut b, mut c) = (mk(), mk(), mk());
        assert!(Arc::ptr_eq(a.model_arc(), b.model_arc()));
        assert_eq!(cache.live_models(), 1, "one uniform prior for all three");

        // Three routes to `s`: through `x` then `y`, through `y` then `x`,
        // and directly.  What a session predicted before, and when, is not
        // part of a model's identity.
        let wide = |p3: f64| {
            summary(&[
                (1, 0.1),
                (3, p3),
                (5, 0.1),
                (7, 0.5 - p3),
                (9, 0.1),
                (11, 0.1),
            ])
        };
        let (s, x, y) = (wide(0.3), summary(&[(3, 0.5)]), summary(&[(9, 0.7)]));
        a.update_prediction(&x, 0);
        b.update_prediction(&y, 0);
        assert_eq!(cache.live_models(), 3, "x, y and c's uniform prior");
        a.update_prediction(&y, 0);
        b.update_prediction(&x, 0);
        assert_eq!(cache.live_models(), 3);
        for sched in [&mut a, &mut b, &mut c] {
            sched.update_prediction(&s, 0);
        }
        assert!(Arc::ptr_eq(a.model_arc(), b.model_arc()));
        assert!(Arc::ptr_eq(a.model_arc(), c.model_arc()));
        assert_eq!(cache.live_models(), 1, "one distinct prediction held");

        // A delta on one of them is the copy-on-write split: `b` walks away
        // with a private, unregistered copy; the other two keep sharing.
        let shared = a.model_arc().clone();
        let mut uplink = DirectUplink::new();
        uplink.ship(&mut b, &s);
        assert!(Arc::ptr_eq(b.model_arc(), &shared), "whole: same build");
        let s2 = wide(0.2);
        uplink.ship(&mut b, &s2);
        assert_eq!(b.diff_applied_updates(), 1, "s → s2 travelled as a delta");
        assert!(!Arc::ptr_eq(b.model_arc(), &shared));
        assert!(Arc::ptr_eq(a.model_arc(), &shared));
        assert!(Arc::ptr_eq(c.model_arc(), &shared));
        assert_eq!(cache.live_models(), 1, "a diffed model is never registered");
        // ... not even for a session that then installs the same summary.
        a.update_prediction(&s2, 0);
        assert!(!Arc::ptr_eq(a.model_arc(), b.model_arc()));
        assert_eq!(cache.live_models(), 2, "s (held by c) and s2 (by a)");

        // The next whole summary rejoins the shared build.
        b.update_prediction(&s2, 0);
        assert!(Arc::ptr_eq(a.model_arc(), b.model_arc()));
        b.update_prediction(&s, 0);
        assert!(Arc::ptr_eq(b.model_arc(), c.model_arc()));
        // One entry per distinct (summary, slot duration, γ, horizon) held.
        c.set_slot_duration(Duration::from_millis(2));
        c.update_prediction(&s, 0);
        assert!(!Arc::ptr_eq(b.model_arc(), c.model_arc()));
        assert_eq!(cache.live_models(), 3, "s2, s at 1 ms, s at 2 ms");
    }

    #[test]
    fn uniform_models_dedup_per_parameter_set() {
        let cache = ModelCache::new();
        let uniform = |n| PredictionSummary::uniform(n, Time::ZERO);
        let a = cache.resolve_build(&uniform(100), 32, Duration::from_millis(1), 0.8);
        let b = cache.resolve_build(&uniform(100), 32, Duration::from_millis(1), 0.8);
        let c = cache.resolve_build(&uniform(101), 32, Duration::from_millis(1), 0.8);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn explicit_uniform_summary_shares_the_prior() {
        use crate::block::ResponseCatalog;
        use crate::scheduler::{GreedyContext, GreedyScheduler, GreedySchedulerConfig};
        use crate::utility::{LinearUtility, UtilityModel};

        let catalog = Arc::new(ResponseCatalog::uniform(64, 2, 100));
        let utility = UtilityModel::homogeneous(&LinearUtility, 2);
        let ctx = Arc::new(GreedyContext::new(&utility, &catalog));
        let cache = ModelCache::new();
        let mk = || {
            let cfg = GreedySchedulerConfig {
                cache_blocks: 32,
                ..Default::default()
            };
            let (cat, ctx) = (catalog.clone(), ctx.clone());
            GreedyScheduler::with_context_and_cache(cfg, cat, ctx, Some(cache.clone()))
        };
        let (fresh, mut fallen_back) = (mk(), mk());
        // What a predictor with nothing to go on sends, stamped later.
        fallen_back.update_prediction(&PredictionSummary::uniform(64, Time::from_micros(7)), 0);
        assert!(Arc::ptr_eq(fresh.model_arc(), fallen_back.model_arc()));
        assert_eq!(cache.live_models(), 1);
    }
}
