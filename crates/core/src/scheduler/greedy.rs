//! The greedy scheduler (Listing 1 of the paper).
//!
//! Each scheduling step computes, for every request, the expected utility
//! gain of giving it one more block — `P_{i,t} · g(B_i + 1)`, `t` slots after
//! the last prediction update — and samples a request proportionally to that
//! gain.  Blocks are drawn in refills of whatever size the caller asks for
//! (a session asks for `ServerConfig::sender_queue_target`) into the log of
//! unconfirmed sends, which is the sender queue: [`Scheduler::next_block`]
//! hands its blocks out oldest first, so the sender is never blocked.
//! Each draw takes its randomness from a generator keyed by the seed, the
//! number of prediction updates applied and the slot (a counter-based
//! stream, as in Salmon et al., SC 2011), so the refill size is a cost, not
//! a schedule: drawing `k` blocks ahead, confirming `j` of them and then
//! updating commits what drawing `j` would have.
//! This departs from Listing 1's text but not from its behaviour: Listing 1
//! resets `B_i` after each schedule of `C` blocks (the cache size), as the
//! client's ring overwrites itself (§5.3.1); here `B_i` is
//! [`RingCache::prefix_len`] of the simulated ring, so nothing resets.
//!
//! Three refinements from / beyond the paper are implemented:
//!
//! * **Meta-request optimization** (§5.3.1): the (usually huge) set of
//!   requests with identical residual probability is never materialized;
//!   it is represented by a single meta-entry whose weight is the sum of its
//!   members', and a member is drawn uniformly when the meta-entry wins.
//!   [`GreedySchedulerConfig::use_meta_request`] turns it off for Figure
//!   16's ablation.
//! * **Client-cache tracking**: the scheduler simulates the client's
//!   deterministic FIFO ring (§3.3) with the client's own
//!   [`RingCache`], so it knows which block index to send next for each
//!   request and never re-pushes a block that is still resident.  The log
//!   of unconfirmed sends keeps, with each block, the ring entry its
//!   delivery evicted, so re-predictions roll the simulated ring back
//!   *exactly* ([`RingCache::undo_insert`]) and the simulation stays equal
//!   to the client's real ring (§5.3.2).
//! * **Incremental sampling** ([`crate::sampling`]): per-request gain
//!   weights live in Fenwick sum trees instead of being rebuilt, sorted,
//!   and prefix-scanned for every block; materialized requests whose tails
//!   evolve by the same per-slot multiplier are grouped into shared
//!   buckets, each carrying one scalar factor.
//!
//! # Per-block sampling cost
//!
//! With `T` touched requests (about the cache size `C`), `m`
//! materialized requests (`m ≤ T`, typically ≪ `T`), `b` distinct tail
//! shapes (`b ≤ m`; `b = 1` for homogeneous-tail predictions), `k` utility
//! classes, and `n` requests in the catalog:
//!
//! | [`SamplerVariant`] | per-block cost |
//! |------|----------------|
//! | [`Scan`](SamplerVariant::Scan), meta off | `O(n)` (Figure 16's unoptimized baseline) |
//! | [`Scan`](SamplerVariant::Scan), meta on  | `O(m + T + k)` — every weight recomputed and prefix-scanned per draw |
//! | [`Lazy`](SamplerVariant::Lazy) | `O(b log m + log T)` — one scalar per shape bucket per slot |
//!
//! The incremental sampler exploits the shared-residual-tail structure of
//! [`HorizonModel`]: every touched-but-unmaterialized request shares one
//! scalar tail factor, and the untouched remainder is one meta-entry per
//! utility class (exact per-class first-block gains, see
//! [`UtilityModel::class_catalog`]).  It additionally exploits the model's
//! [tail-shape partition](crate::scheduler::TailShapePartition):
//! materialized requests with proportional tails share one bucket factor,
//! so advancing the slot index touches `O(b)` scalars plus the small
//! irregular exact-refresh set instead of rewriting all `m` materialized
//! weights.  Over `C` blocks this turns `O(C² log C)` of sampling work
//! into `O(C (b log m + log C))` — per-block cost flat in `m` for
//! homogeneous-tail workloads, the same "cost must not grow with catalog
//! size" argument §5.3.1 makes for its 13× meta-request speedup.  The scan
//! path is retained behind [`GreedySchedulerConfig::sampler`] as the Figure
//! 16 baseline and the parity oracle.  The variants differ only in the
//! draw: the scheduler keeps the [`GainSampler`] up to date under both, the
//! lazy draw reads its weights, and the scan recomputes every weight from
//! the model and reads only the sampler's shared-segment order.  Both walk
//! the same segment layout and read the same per-slot randomness, so a
//! fixed seed yields block-for-block identical schedules (enforced by a
//! 256-case parity proptest below).
//!
//! The meta-request optimization is a layout, not a branch: with it off,
//! every request counts as touched, so every unmaterialized request sits in
//! the shared segment and no meta-entry has members.
//!
//! Four further hot-path properties:
//!
//! * **One update rule**: a whole summary installs the canonical
//!   [`HorizonModel::build`] (resolved through the shared
//!   [`ModelCache`](crate::scheduler::ModelCache) when one is attached) and
//!   rebuilds the sampler — `O(m · slices)` plus an `O(T log T)` sampler
//!   rebuild; only a prediction *delta* is diffed
//!   ([`HorizonModel::apply_update_sparse`], `O(Δ · slices)`): unchanged
//!   requests keep their tails, bucket membership, and Fenwick entries,
//!   shape-preserving changes are `O(1)` coefficient rescales, and only the
//!   structurally changed set is recomputed, reclassified, and applied to
//!   the sampler as point updates (tombstoned removals + appends).
//!   Oversized deltas, changed horizon parameters, and bucket-cap pressure
//!   fall back to the install.
//! * **Departed shared-tail requests** keep their shared-tail slot when an
//!   eviction takes their last block: their weight there, `g(1)` times the
//!   residual tail, is what they add to their meta class.  They move back,
//!   in one ordered compaction, once they outnumber half the shared segment
//!   (the sampler's tombstone rule), so the segment stays within
//!   `max(C + 32, 2C)` entries.
//! * **Confirmed sends**: the scheduler owns the sender's position and its
//!   queue.  One log holds every drawn block that [`Scheduler::note_sent`]
//!   has not confirmed, oldest first, with a count of those already handed
//!   out; the rest are the sender queue.  A confirmation pops the log's
//!   front.  A prediction update pops the log from the back, undoes each
//!   entry on the ring (§5.3.2) and takes `since_install` back one slot for
//!   it.  Every update empties the log, and the queue with it, so every
//!   logged block was drawn after the last install and `since_install`
//!   comes back exactly.  A diffed update also
//!   undoes what each draw did to the touched set, the shared segment and
//!   its departure count (a compaction among them included, from the
//!   segment kept until the draw is confirmed), so a rolled-back draw
//!   leaves no trace; an install rebuilds all of that.
//! * **Refused requests**: a block the backend could not resolve rolls the
//!   log back the same way ([`Scheduler::drop_unsent`]) and puts its
//!   request on a refused list, whose marginal gain is zero in both
//!   variants until the next update; its slot is redrawn from the same
//!   stream, without the refused request.  An update that finds the list
//!   non-empty installs the model whole instead of diffing it, as only an
//!   install re-derives the zeroed weights.  An empty list costs each gain
//!   one branch.
//!
//! Under a backend concurrency limit (§5.4) a refill names at most
//! `max_distinct` requests ([`Scheduler::next_block`]): once it holds that
//! many it draws only among them, by the same weights, in a scan both
//! variants share.  Its blocks enter the ring and the log like any other,
//! and it ends early once they all saturate.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(feature = "audit")]
use crate::audit::{AuditCheck, AuditConfig, AuditReport, AuditViolation, SamplerAuditor};
use crate::block::ResponseCatalog;
use crate::cache::RingCache;
use crate::distribution::PredictionSummary;
use crate::sampling::{GainSampler, SampledGroup, SamplerVariant};
use crate::scheduler::{HorizonModel, Schedule, Scheduler};
use crate::types::{BlockRef, Duration, RequestId};
use crate::utility::{UtilityClassCatalog, UtilityModel};

/// Configuration of the greedy scheduler.
#[derive(Debug, Clone)]
pub struct GreedySchedulerConfig {
    /// Client cache size in blocks — the scheduling horizon `C`.
    pub cache_blocks: usize,
    /// Future discount γ ∈ [0, 1] (Eq. 1).  The default of 0.8 per slot keeps
    /// a confident short-term prediction from being swamped by the
    /// near-uniform residual mass that accumulates when the scheduling
    /// horizon (`C` slots) extends far past the predictor's own horizon;
    /// experiment configs that sweep γ pass their own value.
    pub gamma: f64,
    /// Time to place one block on the network at the current bandwidth
    /// estimate; used to convert slot indices into prediction offsets.
    pub slot_duration: Duration,
    /// Enables the meta-request optimization (§5.3.1).
    pub use_meta_request: bool,
    /// Which sampling implementation performs the per-block proportional
    /// draw: the default lazy shape-bucket sampler, or the legacy per-block
    /// scan (the Figure 16 baseline and the parity tests' oracle).  Both
    /// draw identical schedules under a fixed seed; only the per-block cost
    /// differs (see the module docs).
    pub sampler: SamplerVariant,
    /// Seed of the proportional sampling, for reproducibility: with the
    /// update count and the slot, it keys each draw's randomness.
    pub seed: u64,
}

impl Default for GreedySchedulerConfig {
    fn default() -> Self {
        GreedySchedulerConfig {
            cache_blocks: 1024,
            gamma: 0.80,
            slot_duration: Duration::from_millis(1),
            use_meta_request: true,
            sampler: SamplerVariant::Lazy,
            seed: 0x5eed,
        }
    }
}

/// Catalog- and utility-derived scheduler state that is identical for every
/// scheduler built over an equal `(UtilityModel, ResponseCatalog)` pair: the
/// utility model itself, the utility-class catalog, per-class first-block
/// gains, and per-request block counts.  Multi-session servers share one
/// instance via `Arc` between sessions whose models are equal by value
/// ([`UtilityModel::same_tables`]; see
/// [`SessionManager`](crate::session::SessionManager)) instead of
/// re-deriving `O(n)` state per client.
#[derive(Debug)]
pub struct GreedyContext {
    /// The utility model the context was derived from: the one every
    /// scheduler holding the context prices blocks with.
    utility: UtilityModel,
    /// Per-utility-class view of the catalog (one class per distinct gain
    /// table): exact first-block gains for the per-class meta-entries.
    classes: UtilityClassCatalog,
    /// Exact first-block gain of each utility class, in class order.
    meta_gains: Vec<f64>,
    /// Per-request block counts, copied out of the catalog into one dense
    /// array: the per-block gain computation reads a 4-byte entry instead
    /// of chasing the catalog's per-request layout structs.
    num_blocks: Vec<u32>,
}

impl GreedyContext {
    /// Derives the shared context for a utility model over a catalog.
    pub fn new(utility: &UtilityModel, catalog: &ResponseCatalog) -> Self {
        let num_requests = catalog.num_requests();
        let num_blocks: Vec<u32> = (0..num_requests)
            .map(|i| catalog.num_blocks(RequestId::from(i)))
            .collect();
        let classes = utility.class_catalog(num_requests);
        let meta_gains: Vec<f64> = classes.classes().map(|c| c.first_gain()).collect();
        GreedyContext {
            utility: utility.clone(),
            classes,
            meta_gains,
            num_blocks,
        }
    }

    /// Number of requests the context was derived for.
    pub fn num_requests(&self) -> usize {
        self.num_blocks.len()
    }

    /// The utility model the context was derived from.
    pub(crate) fn utility(&self) -> &UtilityModel {
        &self.utility
    }
}

/// An emitted block the sender has not confirmed, with what undoing its
/// draw restores.
#[derive(Debug, Clone, Copy)]
struct Unconfirmed {
    block: BlockRef,
    /// The ring entry its delivery evicted (`None` while the ring had room).
    evicted: Option<BlockRef>,
    /// Whether the draw touched its request, which a meta draw does.
    touched: bool,
    /// Whether the eviction compacted the shared segment.
    compacted: bool,
}

/// The greedy scheduler of §5.3.
pub struct GreedyScheduler {
    cfg: GreedySchedulerConfig,
    /// The probability model, behind an `Arc` so sessions with bit-identical
    /// predictions can share one instance via a [`ModelCache`]
    /// (`crate::scheduler::ModelCache`).  Reads go through the `Arc`; a
    /// delta mutates via [`Arc::make_mut`], which *is* the copy-on-write
    /// split when the model is shared.
    model: Arc<HorizonModel>,
    /// Shared dedup registry; `None` outside multi-session deployments.
    /// Every whole-summary install resolves through it by build-input
    /// fingerprint — see [`crate::scheduler::dedup`].
    model_cache: Option<Arc<crate::scheduler::ModelCache>>,
    /// Blocks drawn since the last prediction update, less those rolled
    /// back: the `t` of the paper's `P_{i,t}`, read through
    /// [`read_slot`](Self::read_slot), and with `updates` the key of each
    /// draw's randomness ([`slot_rng`](Self::slot_rng)).
    since_install: usize,
    /// Every emitted block that [`Scheduler::note_sent`] has not confirmed,
    /// oldest first, with what undoing its draw restores.  Rolling an entry
    /// back restores its evicted block, keeping the simulated ring exactly
    /// equal to the client's, which never saw the rolled-back block
    /// (§5.3.2).  Its blocks are the ring's newest entries, newest last.
    /// The entries past the first `handed` are the sender queue.
    unconfirmed: VecDeque<Unconfirmed>,
    /// How many of `unconfirmed`, oldest first, [`Scheduler::next_block`]
    /// has handed out.
    handed: usize,
    /// The shared segment and the departure count as each compaction among
    /// the unconfirmed draws found them, oldest first (see
    /// [`note_eviction`](Self::note_eviction)): what a diffed update's
    /// rollback puts back.
    compactions: VecDeque<(Vec<RequestId>, usize)>,
    /// Exact simulation of the client's ring-buffer cache, in the client's
    /// own type.  Its per-request resident indices let the scheduler repair
    /// prefix gaps after evictions, since renderable quality depends on the
    /// contiguous prefix (§3.3).
    ring: RingCache,
    /// Requests currently excluded from the meta group because they have
    /// explicit probability, allocations, or resident blocks — with the
    /// meta-request optimization off, every request.  A bitset indexed by
    /// request (bit `r % 64` of word `r / 64`, read through
    /// [`is_touched`]), so a membership check is one word load and a shift
    /// instead of a hash probe, and the set costs `n / 8` bytes, not `n`.
    /// The touched unmaterialized requests are the sampler's shared
    /// segment.
    touched: Vec<u64>,
    /// Shared-tail departures since the last compaction (see
    /// [`note_eviction`](Self::note_eviction)).
    departed: usize,
    /// Requests the backend refused since the last prediction update
    /// ([`Scheduler::drop_unsent`]): their marginal gain is zero, and they
    /// stay touched, so no meta draw reaches them either.
    refused: Vec<RequestId>,
    /// The requests a delta's rollback touched, kept between updates for
    /// its buffer (see [`rollback_unsent`](Self::rollback_unsent)).
    rolled: Vec<RequestId>,
    /// Shared catalog/utility-derived state (the utility model, classes,
    /// meta gains, block counts) — one `Arc` per `(utility value, catalog)`
    /// pair across sessions.
    ctx: Arc<GreedyContext>,
    /// Touched-request count per utility class; the complement (against the
    /// class size) is each meta-entry's untouched member count.
    touched_per_class: Vec<usize>,
    /// Incrementally maintained gain weights and the draw layout, kept up
    /// to date under both variants by `rebuild_sampler` /
    /// `refresh_after_allocation` / `note_eviction` / the diff path: the
    /// `Lazy` draw reads its weights, the `Scan` draw its shared segment.
    sampler: GainSampler,
    /// Number of prediction updates received (for instrumentation).
    updates: u64,
    /// Prediction deltas applied as a model diff (whole summaries, and
    /// deltas the model refused, installed the canonical build instead).
    diff_updates: u64,
    /// Attached runtime invariant auditor (`None` until
    /// [`GreedyScheduler::audit_attach`]); absent entirely without the
    /// `audit` feature, so the disabled cost is zero.
    #[cfg(feature = "audit")]
    auditor: Option<SamplerAuditor>,
}

impl GreedyScheduler {
    /// Creates a scheduler with a uniform prior over all requests.
    pub fn new(
        cfg: GreedySchedulerConfig,
        utility: UtilityModel,
        catalog: Arc<ResponseCatalog>,
    ) -> Self {
        let ctx = Arc::new(GreedyContext::new(&utility, &catalog));
        Self::with_context_and_cache(cfg, catalog, ctx, None)
    }

    /// Creates a scheduler reusing a shared [`GreedyContext`] (derived from
    /// the catalog and the utility model to price blocks with) instead of
    /// computing its own — the multi-session path, where N sessions over one
    /// catalog share one `O(n)` context — with the uniform prior, and every
    /// later whole-summary install, resolved through `model_cache` when one
    /// is supplied.
    pub(crate) fn with_context_and_cache(
        cfg: GreedySchedulerConfig,
        catalog: Arc<ResponseCatalog>,
        ctx: Arc<GreedyContext>,
        model_cache: Option<Arc<crate::scheduler::ModelCache>>,
    ) -> Self {
        assert!(cfg.cache_blocks > 0, "cache must hold at least one block");
        let num_requests = catalog.num_requests();
        assert_eq!(
            ctx.num_requests(),
            num_requests,
            "shared context derived for a different catalog"
        );
        let prior = PredictionSummary::uniform(num_requests, crate::types::Time::ZERO);
        let model = canonical_model(&cfg, model_cache.as_ref(), &prior);
        let touched_per_class = vec![0; ctx.classes.num_classes()];
        let ring = RingCache::new(cfg.cache_blocks);
        let mut s = GreedyScheduler {
            cfg,
            model,
            model_cache,
            since_install: 0,
            unconfirmed: VecDeque::new(),
            handed: 0,
            compactions: VecDeque::new(),
            ring,
            touched: vec![0; num_requests.div_ceil(64)],
            departed: 0,
            refused: Vec::new(),
            rolled: Vec::new(),
            ctx,
            touched_per_class,
            sampler: GainSampler::new(),
            updates: 0,
            diff_updates: 0,
            #[cfg(feature = "audit")]
            auditor: None,
        };
        s.rebuild_touched();
        s
    }

    /// The model slot draws read: blocks drawn since the last install,
    /// clamped to the horizon's last slot, which holds the last slice, so
    /// a session that hears no prediction for `C` slots keeps drawing.
    fn read_slot(&self) -> usize {
        self.since_install.min(self.model.horizon() - 1)
    }

    /// Compares the incrementally maintained sampler weights against a
    /// from-scratch recomputation of every candidate weight (the scan
    /// variant's view), returning the mismatches as `(request, recomputed,
    /// stored)`.  The shared segment is checked as a set against the touched
    /// unmaterialized requests, read off the bitset: a missing member is
    /// stored as NaN, a member that should not be there is recomputed as
    /// NaN.  Diagnostic only.
    #[doc(hidden)]
    pub fn debug_weight_divergence(&self) -> Vec<(RequestId, f64, f64)> {
        let scale = self.model.residual_tail(self.read_slot());
        let mut out = Vec::new();
        let mut check = |r: RequestId, want: f64, got: Option<f64>| {
            let tol = 1e-9 * want.abs().max(1e-9);
            if got.is_none_or(|got| (got - want).abs() > tol) {
                out.push((r, want, got.unwrap_or(f64::NAN)));
            }
        };
        let part = self.model.shape_partition();
        for b in &part.buckets {
            for &r in &b.members {
                check(r, self.gain_for(r), self.sampler.debug_weight(r));
            }
        }
        for &r in &part.irregular {
            check(r, self.gain_for(r), self.sampler.debug_weight(r));
        }
        let shared = touched_ids(&self.touched).filter(|&r| !self.model.is_materialized(r));
        for r in shared {
            check(
                r,
                self.marginal_gain(r) * scale,
                self.sampler.debug_weight(r),
            );
        }
        for &r in self.sampler.shared_ids() {
            if !is_touched(&self.touched, r) || self.model.is_materialized(r) {
                let got = self.sampler.debug_weight(r).unwrap_or(f64::NAN);
                out.push((r, f64::NAN, got));
            }
        }
        out
    }

    /// Applies a fresh prediction from the client, shipped as a whole
    /// summary: installs the canonical [`HorizonModel::build`] and rebuilds
    /// the sampler.
    ///
    /// Per §5.3.2, blocks the sender has placed on the network are immutable
    /// and the rest are re-planned.  The scheduler tells them apart itself:
    /// every drawn block that [`Scheduler::note_sent`] has not confirmed is
    /// rolled back first.
    /// The `usize` argument is ignored; it
    /// stays only for the benchmark's frozen call surface
    /// (`kbench/src/sut.rs`).  [`Scheduler::update_prediction`] is the same
    /// update without it.
    pub fn update_prediction(&mut self, summary: &PredictionSummary, _sender_position: usize) {
        Scheduler::update_prediction(self, summary);
    }

    /// Applies a prediction *delta*: `changes` carries the precomputed
    /// changed-set and slot-plan scalars from the prediction-delta shadow
    /// (see [`crate::delta`]), so the model is diffed in `O(Δ · slices)`
    /// via [`HorizonModel::apply_update_sparse`] and the sampler takes point
    /// updates.  Rollback is identical to
    /// [`update_prediction`](Self::update_prediction), which is also the
    /// fallback when the model refuses the diff (too large, changed horizon
    /// parameters, bucket-cap pressure).  The `usize` argument is ignored,
    /// as there.
    pub fn update_prediction_sparse(
        &mut self,
        summary: &PredictionSummary,
        changes: &crate::delta::PredictionChanges,
        _sender_position: usize,
    ) {
        Scheduler::update_prediction_sparse(self, summary, changes);
    }

    /// Installs the canonical model for `summary` — the shared instance when
    /// a cache is attached — and rebuilds the touched set and sampler.
    fn install(&mut self, summary: &PredictionSummary) {
        self.model = canonical_model(&self.cfg, self.model_cache.as_ref(), summary);
        self.rebuild_touched();
        #[cfg(feature = "audit")]
        self.audit_on_update(summary, false);
    }

    /// Rolls back every block the sender has not confirmed, newest first,
    /// undoing each on the ring and taking `since_install` back one slot:
    /// every update empties the log, so each logged block was drawn after
    /// the last install.  With `rolled` given (a model diff follows), it
    /// also undoes each draw's changes to the touched set, the shared
    /// segment and the departure count, so they stand as before the oldest
    /// unconfirmed draw, and appends the requests whose simulated residency
    /// the rollback touched, unsorted: after the diff their gains must be
    /// re-derived even when the diff leaves them untouched.  An install
    /// rebuilds all of that, so it passes `None`.
    fn rollback_unsent(&mut self, mut rolled: Option<&mut Vec<RequestId>>) {
        while let Some(sent) = self.unconfirmed.pop_back() {
            let Unconfirmed { block, evicted, .. } = sent;
            if self.ring.newest() != Some(block) {
                let noted = self.audit_note_misalignment(
                    self.since_install,
                    "rollback found an unconfirmed log entry that is not the ring's newest",
                );
                debug_assert!(
                    noted,
                    "unconfirmed {block} is not the ring's newest at slot {}",
                    self.since_install
                );
                self.unconfirmed.clear();
                break;
            }
            if let Some(rolled) = rolled.as_deref_mut() {
                rolled.push(block.request);
                rolled.extend(evicted.map(|old| old.request));
                self.undo_draw_layout(sent);
            }
            self.ring.undo_insert(block, evicted);
            self.since_install -= 1;
        }
        self.handed = 0;
        self.compactions.clear();
    }

    /// Undoes what drawing `sent` did to the touched set, the shared
    /// segment and the departure count, on the ring as the draw left it:
    /// the compaction its eviction ran, the departure it counted, and the
    /// request it touched, in the reverse of the order the draw made them.
    /// Gains are left as they are; the diff re-derives the rolled ones.
    fn undo_draw_layout(&mut self, sent: Unconfirmed) {
        if sent.compacted {
            if let Some((shared, departed)) = self.compactions.pop_back() {
                for &r in &shared {
                    self.mark_touched(r);
                }
                self.sampler.compact_shared(|_| false);
                for r in shared {
                    let g = self.marginal_gain(r);
                    self.sampler.set_shared_gain(r, g);
                }
                self.departed = departed;
            }
        }
        if sent.evicted.is_some_and(|old| self.departs(old.request)) {
            self.departed -= 1;
        }
        let q = sent.block.request;
        if sent.touched && self.untouch(q) && !self.model.is_materialized(q) {
            let popped = self.sampler.pop_shared();
            debug_assert_eq!(
                popped,
                Some(q),
                "a touched draw's request is the newest shared"
            );
        }
    }

    /// Applies a [`ModelDiff`] to the touched set and the sampler, with
    /// point updates only — the whole point of diffing.  `rolled` lists the
    /// requests whose allocations/residency the preceding rollback changed,
    /// ascending and deduplicated.
    fn apply_model_diff(&mut self, diff: &crate::scheduler::ModelDiff, rolled: &[RequestId]) {
        use crate::scheduler::ExplicitPlacement;
        for _ in 0..diff.buckets_added {
            self.sampler.push_bucket();
        }
        for &r in &diff.removed {
            self.sampler.remove_explicit(r);
        }
        for &(r, p) in &diff.placed {
            match p {
                ExplicitPlacement::Bucket(b) => self.sampler.append_bucket_member(b, r),
                ExplicitPlacement::Irregular => self.sampler.append_irregular(r),
            }
        }
        // The shared segment holds the touched unmaterialized requests: a
        // joined request leaves it if it was touched, and a departed one
        // enters it if it stays touched.
        let mut drop_from_shared: Vec<RequestId> = Vec::new();
        let mut add_to_shared: Vec<RequestId> = Vec::new();
        for &r in &diff.joined {
            if !self.mark_touched(r) {
                drop_from_shared.push(r);
            }
        }
        for &r in &diff.departed {
            if !self.ring.contains(r) {
                self.untouch(r);
            }
            if is_touched(&self.touched, r) {
                add_to_shared.push(r);
            }
        }
        if !drop_from_shared.is_empty() {
            drop_from_shared.sort_unstable();
            let dead = |r: RequestId| drop_from_shared.binary_search(&r).is_ok();
            self.sampler.compact_shared(|r| !dead(r));
        }
        for &r in &add_to_shared {
            let g = self.marginal_gain(r);
            self.sampler.set_shared_gain(r, g);
        }
        // Point updates for the changed explicit entries, then the
        // O(b + |irr|) slot refresh.
        for &(r, _) in &diff.placed {
            self.refresh_explicit_entry(r);
        }
        for &r in &diff.rescaled {
            self.refresh_explicit_entry(r);
        }
        for &r in rolled {
            if self.sampler.is_explicit(r) {
                self.refresh_explicit_entry(r);
            }
        }
        self.refresh_slot();
        // Rolled-back shared members: their gain part changed.
        for &r in rolled {
            if !self.sampler.is_explicit(r) && is_touched(&self.touched, r) {
                let g = self.marginal_gain(r);
                self.sampler.set_shared_gain(r, g);
            }
        }
        self.sampler
            .set_shared_scale(self.model.residual_tail(self.read_slot()));
        self.sync_meta_counts();
    }

    /// Clears `r`'s touched flag, maintaining the per-class tallies, and
    /// returns whether it was touched.  With the meta-request optimization
    /// off every request stays touched, so this does nothing.
    fn untouch(&mut self, r: RequestId) -> bool {
        if !self.cfg.use_meta_request || !is_touched(&self.touched, r) {
            return false;
        }
        clear_touched(&mut self.touched, r);
        self.touched_per_class[self.ctx.classes.class_of(r)] -= 1;
        true
    }

    /// Re-derives one explicit (materialized) entry's cached coefficient and
    /// stored value from the current model — the point update behind diff
    /// placements and rescales.
    fn refresh_explicit_entry(&mut self, r: RequestId) {
        if !self.sampler.is_irregular(r) {
            self.sampler.set_explicit_coef(r, self.model.tail(r, 0));
        }
        let v = self.explicit_value(r);
        self.sampler.set_explicit_value(r, v);
    }

    /// Records a slot-alignment fault with the attached auditor, returning
    /// whether one was attached to receive it (callers debug-assert on
    /// `false`, preserving the abort-in-debug behaviour when unaudited).
    #[cfg(feature = "audit")]
    fn audit_note_misalignment(&mut self, slot: usize, what: &str) -> bool {
        match self.auditor.as_mut() {
            Some(aud) => {
                aud.report.record(AuditViolation {
                    check: AuditCheck::SlotAlignment,
                    slot: Some(slot),
                    request: None,
                    detail: what.to_string(),
                });
                true
            }
            None => false,
        }
    }

    #[cfg(not(feature = "audit"))]
    fn audit_note_misalignment(&mut self, _slot: usize, _what: &str) -> bool {
        false
    }

    /// Marks `r` touched, maintaining the count and per-class tallies.
    /// Returns whether `r` was previously untouched.
    fn mark_touched(&mut self, r: RequestId) -> bool {
        if is_touched(&self.touched, r) {
            return false;
        }
        set_touched(&mut self.touched, r);
        self.touched_per_class[self.ctx.classes.class_of(r)] += 1;
        true
    }

    /// Re-derives the touched set — the materialized, resident and refused
    /// requests, or with the meta-request optimization off every request
    /// (the unoptimized Figure 16 / §5.3.1 baseline, whose shared segment
    /// holds every unmaterialized request and whose meta-entries are
    /// empty) — then rebuilds the sampler over it.
    fn rebuild_touched(&mut self) {
        self.touched.fill(0);
        self.departed = 0;
        if self.cfg.use_meta_request {
            let materialized = self.model.materialized().iter().copied();
            let refused = self.refused.iter().copied();
            for r in materialized.chain(self.ring.requests()).chain(refused) {
                set_touched(&mut self.touched, r);
            }
        } else {
            for i in 0..self.model.num_requests() {
                set_touched(&mut self.touched, RequestId::from(i));
            }
        }
        self.touched_per_class.fill(0);
        for r in touched_ids(&self.touched) {
            self.touched_per_class[self.ctx.classes.class_of(r)] += 1;
        }
        self.rebuild_sampler();
    }

    /// Rebuilds the incremental weight structure from scratch: `O(n / 64 + T
    /// log T)` with the meta-request optimization on, `O(n log n)` with it
    /// off (every unmaterialized request gets an explicit shared-tail
    /// entry).  The shared segment is installed in id order, read off the
    /// touched bitset, and appended in touch order thereafter.  Called only
    /// when the whole state shifts (prediction update); per-block maintenance
    /// goes through `refresh_after_allocation` and `note_eviction`.
    fn rebuild_sampler(&mut self) {
        self.sampler
            .rebuild(self.model.shape_partition(), &self.ctx.meta_gains);
        // Bucket members: cache the slot-invariant coefficient (so per-block
        // gain updates never touch the model's tail vectors) and store the
        // slot-invariant value.  Factors and the irregular set follow.
        for b in 0..self.sampler.num_buckets() {
            for i in 0..self.model.shape_partition().buckets[b].members.len() {
                let r = self.model.shape_partition().buckets[b].members[i];
                self.refresh_explicit_entry(r);
            }
        }
        self.refresh_slot();
        self.sampler
            .set_shared_scale(self.model.residual_tail(self.read_slot()));
        for r in touched_ids(&self.touched) {
            if !self.sampler.is_explicit(r) {
                let g = self.marginal_gain(r);
                self.sampler.set_shared_gain(r, g);
            }
        }
        self.sync_meta_counts();
    }

    /// The per-slot storage rescale `γ^t`: stored slot-dependent (irregular)
    /// weights are divided by it (with the matching scale applied at draw
    /// time), so magnitudes stay O(1) across the horizon no matter how deep
    /// the `γ^t` tails decay — the Fenwick delta-update residue can never
    /// dwarf the live values.  Degenerate discounts (γ of 0 or 1, or an
    /// underflowed power — where the tails themselves are exactly 0) fall
    /// back to no rescale.
    fn slot_scale(&self) -> f64 {
        let g = self.cfg.gamma;
        if g > 0.0 && g < 1.0 {
            let s = g.powi(self.read_slot() as i32);
            if s > 0.0 {
                return s;
            }
        }
        1.0
    }

    /// The value stored in the explicit layout for materialized request `r`:
    /// the slot-invariant `g · tail(0)` for bucket members, the rescaled
    /// current weight `g · tail(t) · γ^{-t}` for irregular ones.
    fn explicit_value(&self, r: RequestId) -> f64 {
        let g = self.marginal_gain(r);
        if self.sampler.is_irregular(r) {
            g * self.model.tail(r, self.read_slot()) / self.slot_scale()
        } else {
            g * self.model.tail(r, 0)
        }
    }

    /// The per-slot refresh: one factor per shape bucket plus an exact
    /// rewrite of the (small) irregular set — `O(b + |irr| log m)`, never
    /// touching the bucketed member weights.
    fn refresh_slot(&mut self) {
        for b in 0..self.sampler.num_buckets() {
            let factor = self.model.shape_factor(b, self.read_slot());
            self.sampler.set_bucket_factor(b, factor);
        }
        self.sampler.set_irregular_scale(self.slot_scale());
        for i in 0..self.model.shape_partition().irregular.len() {
            let r = self.model.shape_partition().irregular[i];
            let v = self.explicit_value(r);
            self.sampler.set_explicit_value(r, v);
        }
    }

    /// Pushes the per-class untouched counts into the sampler's
    /// meta-entries.
    fn sync_meta_counts(&mut self) {
        for c in 0..self.ctx.meta_gains.len() {
            let untouched = self.ctx.classes.class(c).len() - self.touched_per_class[c];
            self.sampler.set_meta_untouched(c, untouched);
        }
    }

    /// Re-derives one request's weight after its residency or allocation
    /// changed.  Materialized requests carry their (possibly slot-invariant)
    /// value in the explicit layout; everything else carries only the gain
    /// part under the shared residual-tail scale.
    ///
    /// The bucket path multiplies the sampler's cached coefficient —
    /// `g · tail(0)` with `tail(0)` a local load — instead of chasing the
    /// model's per-request tail vectors, whose working set at large `m`
    /// dwarfs the cache.
    fn refresh_request_weight(&mut self, r: RequestId) {
        if self.sampler.is_explicit(r) {
            if self.sampler.is_irregular(r) {
                let v = self.explicit_value(r);
                self.sampler.set_explicit_value(r, v);
            } else {
                let g = self.marginal_gain(r);
                self.sampler.set_explicit_gain(r, g);
            }
        } else {
            let g = self.marginal_gain(r);
            self.sampler.set_shared_gain(r, g);
        }
    }

    /// Incremental bookkeeping after allocating one block to `q`: the slot
    /// index advanced, `q`'s gain moved, an eviction may have changed
    /// another request's resident prefix, and `q` may have left its meta
    /// class.
    ///
    /// Advancing the slot costs `O(b)` bucket-factor updates plus the small
    /// irregular exact-refresh set (`O(b log m + log T)` total — flat in `m`
    /// for homogeneous-tail workloads).
    fn refresh_after_allocation(
        &mut self,
        q: RequestId,
        evicted: Option<BlockRef>,
        newly_touched: bool,
    ) {
        self.sampler
            .set_shared_scale(self.model.residual_tail(self.read_slot()));
        self.refresh_slot();
        self.refresh_request_weight(q);
        if let Some(old) = evicted {
            if old.request != q {
                self.refresh_request_weight(old.request);
            }
        }
        if newly_touched {
            let c = self.ctx.classes.class_of(q);
            self.sampler.set_meta_untouched(
                c,
                self.ctx.classes.class(c).len() - self.touched_per_class[c],
            );
        }
    }

    /// Blocks of `request` the scheduler believes the client currently holds
    /// (as a renderable contiguous prefix) or will hold once the pending
    /// schedule is delivered.
    ///
    /// The simulated ring already includes the blocks of the current
    /// schedule (they are "delivered" to the simulation as they are
    /// scheduled), so it is the single source of truth.  The prefix — not
    /// the raw count — is used so that a response whose early blocks were
    /// evicted gets its prefix repaired before its tail is extended.
    fn effective_blocks(&self, request: RequestId) -> u32 {
        self.ring.prefix_len(request)
    }

    /// Marginal utility gain `g(B_i + 1)` of the next block for `request`
    /// (the probability-independent factor of its weight).
    fn marginal_gain(&self, request: RequestId) -> f64 {
        if !self.refused.is_empty() && self.refused.contains(&request) {
            return 0.0;
        }
        let have = self.effective_blocks(request);
        let nb = self.ctx.num_blocks[request.index()];
        if have >= nb {
            return 0.0;
        }
        self.ctx.utility.table(request.index()).next_gain(have)
    }

    /// Expected utility gain of giving one more block to `request` at the
    /// read slot.
    fn gain_for(&self, request: RequestId) -> f64 {
        self.marginal_gain(request) * self.model.tail(request, self.read_slot())
    }

    /// The randomness of the draw at slot `since_install` after the
    /// `updates`-th prediction update: a fresh generator keyed by the seed,
    /// the update and the slot (a counter-based stream), so a draw that is
    /// rolled back leaves the stream of every later draw as it was, and
    /// drawing `k` blocks ahead and confirming `j` of them commits what
    /// drawing `j` would have.
    fn slot_rng(&self) -> StdRng {
        let key = mix(mix(self.cfg.seed ^ mix(self.updates)) ^ self.since_install as u64);
        StdRng::seed_from_u64(key)
    }

    /// Draws one request proportionally to utility gain; returns `None` when
    /// every request is saturated or has zero gain.
    fn sample_request(&self, rng: &mut StdRng) -> Option<RequestId> {
        let drawn = match self.cfg.sampler {
            SamplerVariant::Scan => self.sample_request_scan(rng),
            SamplerVariant::Lazy => self.sample_request_incremental(rng),
        };
        match drawn? {
            SampledGroup::Request(r) => Some(r),
            SampledGroup::Meta(c) => self.sample_untouched_in_class(c, rng),
        }
    }

    /// `O(b log m + log T)` proportional draw from the Fenwick weight
    /// structure.  The segment layouts are
    /// deterministic (partition-ordered buckets, reproducible slot order for
    /// the shared group, class-ordered meta-entries), so a fixed seed yields
    /// a deterministic schedule — the *same* schedule the scan variant
    /// draws, since both walk the identical layout.
    fn sample_request_incremental(&self, rng: &mut StdRng) -> Option<SampledGroup> {
        let total = self.sampler.total();
        if total <= 0.0 {
            return None;
        }
        let x = rng.gen::<f64>() * total;
        self.sampler.locate(x)
    }

    /// The legacy per-block scan (the Figure 16 baseline): recomputes every
    /// candidate weight from the model and prefix-scans them on each draw,
    /// walking the incremental sampler's segment layout (shape buckets →
    /// irregular → the sampler's shared segment → per-class meta-entries).
    fn sample_request_scan(&self, rng: &mut StdRng) -> Option<SampledGroup> {
        use SampledGroup::{Meta, Request};
        let scale = self.model.residual_tail(self.read_slot());
        let part = self.model.shape_partition();
        let shared = self.sampler.shared_ids();
        let classes = self.ctx.meta_gains.len();
        let mut entries = Vec::with_capacity(part.materialized_count() + shared.len() + classes);
        let mut push = |e: SampledGroup, w: f64| {
            if w > 0.0 {
                entries.push((e, w));
            }
        };
        for b in &part.buckets {
            for &r in &b.members {
                push(Request(r), self.gain_for(r));
            }
        }
        for &r in &part.irregular {
            push(Request(r), self.gain_for(r));
        }
        for &r in shared {
            push(Request(r), self.marginal_gain(r) * scale);
        }
        for (c, &g1) in self.ctx.meta_gains.iter().enumerate() {
            let untouched = self.ctx.classes.class(c).len() - self.touched_per_class[c];
            push(Meta(c), untouched as f64 * g1 * scale);
        }
        if entries.is_empty() {
            return None;
        }
        let u = rng.gen::<f64>();
        draw_weighted(u, entries.iter().copied())
    }

    /// Uniformly samples an untouched request of utility class `c`.
    fn sample_untouched_in_class(&self, c: usize, rng: &mut StdRng) -> Option<RequestId> {
        let class = self.ctx.classes.class(c);
        let len = class.len();
        if len == self.touched_per_class[c] {
            return None;
        }
        // Rejection sampling: the touched subset of a class is tiny compared
        // to the class in every realistic configuration, so this terminates
        // almost immediately.  A deterministic fallback scan guards
        // pathological cases.
        for _ in 0..64 {
            let candidate = class.member(rng.gen_range(0..len));
            if !is_touched(&self.touched, candidate) {
                return Some(candidate);
            }
        }
        class.members().find(|&r| !is_touched(&self.touched, r))
    }

    /// Draws one of `kept` proportionally to its gain, among those whose
    /// gain is positive: the draw of a batch that names its allowance of
    /// requests.  `None`, with no random draw, when there are none.
    fn draw_among(&self, kept: &[RequestId], rng: &mut StdRng) -> Option<RequestId> {
        self.positive_gains(kept).next()?;
        let u = rng.gen::<f64>();
        draw_weighted(u, self.positive_gains(kept))
    }

    /// `(request, gain)` for each of `requests` whose gain is positive.
    fn positive_gains<'a>(
        &'a self,
        requests: &'a [RequestId],
    ) -> impl Iterator<Item = (RequestId, f64)> + Clone + 'a {
        let gains = requests.iter().map(|&r| (r, self.gain_for(r)));
        gains.filter(|&(_, w)| w > 0.0)
    }

    /// Hands out up to `count` blocks in push order, drawing what the log
    /// lacks in one refill ([`Scheduler::next_block`] with no limit).
    pub fn next_batch(&mut self, count: usize) -> Schedule {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let Some(block) = Scheduler::next_block(self, count - out.len(), None) else {
                break;
            };
            out.push(block);
        }
        out
    }

    /// Logs up to `count` blocks from at most `max_distinct` requests, each
    /// drawn with its slot's randomness.
    fn draw_batch(&mut self, count: usize, max_distinct: Option<usize>) {
        // The batch's requests in first-draw order, tracked under a limit.
        let mut kept: Vec<RequestId> = Vec::new();
        for _ in 0..count {
            let mut rng = self.slot_rng();
            let drawn = match max_distinct {
                Some(limit) if kept.len() >= limit => self.draw_among(&kept, &mut rng),
                _ => self.sample_request(&mut rng),
            };
            let Some(q) = drawn else {
                break;
            };
            if max_distinct.is_some() && !kept.contains(&q) {
                kept.push(q);
            }
            let have = self.effective_blocks(q);
            let block = BlockRef::new(q, have);
            // Only a meta draw reaches an untouched request, and
            // materialized requests are always touched.
            let touched = self.mark_touched(q);
            debug_assert!(!touched || !self.model.is_materialized(q));
            self.since_install += 1;
            // Delivered to the simulated ring as it is scheduled; the logged
            // eviction is what a rollback of this block restores.
            let evicted = self.ring.insert(block);
            self.unconfirmed.push_back(Unconfirmed {
                block,
                evicted,
                touched,
                compacted: false,
            });
            self.refresh_after_allocation(q, evicted, touched);
            if let Some(old) = evicted {
                self.note_eviction(old.request);
            }
            #[cfg(feature = "audit")]
            self.audit_on_block();
        }
    }

    /// Whether an eviction that left `r` out of the ring departs it from the
    /// shared tail: it is not materialized and holds no resident block.
    fn departs(&self, r: RequestId) -> bool {
        !self.model.is_materialized(r) && !self.ring.contains(r)
    }

    /// Counts a shared-tail request departed when an eviction took its last
    /// resident block.  Once departures dominate the shared segment
    /// (`departed > 32 && departed · 2 > len`), every departed request goes
    /// back to its meta class and the sampler compacts the segment in order;
    /// the segment as it stood is kept until the draw is confirmed, for a
    /// diffed update's rollback.  With the meta-request optimization off no
    /// request leaves the touched set, so the compaction keeps every member.
    fn note_eviction(&mut self, r: RequestId) {
        if !self.departs(r) {
            return;
        }
        self.departed += 1;
        let len = self.sampler.shared_ids().len();
        if self.departed <= 32 || self.departed * 2 <= len {
            return;
        }
        let before = (self.sampler.shared_ids().to_vec(), self.departed);
        self.compactions.push_back(before);
        if let Some(sent) = self.unconfirmed.back_mut() {
            sent.compacted = true;
        }
        self.departed = 0;
        for i in 0..len {
            let r = self.sampler.shared_ids()[i];
            if !self.ring.contains(r) && !self.refused.contains(&r) {
                self.untouch(r);
            }
        }
        let touched = &self.touched;
        self.sampler.compact_shared(|r| is_touched(touched, r));
        self.sync_meta_counts();
    }
}

/// The SplitMix64 finalizer of `x` after one golden-ratio step: keys the
/// per-slot generators.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical model of `summary` under `cfg`'s horizon, slot duration
/// and γ: the shared instance when a cache is attached.
fn canonical_model(
    cfg: &GreedySchedulerConfig,
    cache: Option<&Arc<crate::scheduler::ModelCache>>,
    summary: &PredictionSummary,
) -> Arc<HorizonModel> {
    let (horizon, slot, gamma) = (cfg.cache_blocks, cfg.slot_duration, cfg.gamma);
    match cache {
        Some(cache) => cache.resolve_build(summary, horizon, slot, gamma),
        None => Arc::new(HorizonModel::build(summary, horizon, slot, gamma)),
    }
}

/// The entry of `entries`, whose weights are positive, that the uniform draw
/// `u ∈ [0, 1)` lands on, proportionally to weight.
fn draw_weighted<T: Copy>(u: f64, entries: impl Iterator<Item = (T, f64)> + Clone) -> Option<T> {
    let total = entries.clone().fold(0.0, |sum, (_, w)| sum + w);
    let mut x = u * total;
    let mut chosen = None;
    for (e, w) in entries {
        chosen = Some(e);
        x -= w;
        if x <= 0.0 {
            break;
        }
    }
    chosen
}

/// Whether `r` is in the request-indexed bitset `touched`.
fn is_touched(touched: &[u64], r: RequestId) -> bool {
    touched[r.index() / 64] & (1 << (r.index() % 64)) != 0
}

fn set_touched(touched: &mut [u64], r: RequestId) {
    touched[r.index() / 64] |= 1 << (r.index() % 64);
}

fn clear_touched(touched: &mut [u64], r: RequestId) {
    touched[r.index() / 64] &= !(1 << (r.index() % 64));
}

/// The requests in the bitset `touched`, in id order.
fn touched_ids(touched: &[u64]) -> impl Iterator<Item = RequestId> + '_ {
    touched.iter().enumerate().flat_map(|(w, &word)| {
        let rest = |&bits: &u64| Some(bits & (bits - 1)).filter(|&b| b != 0);
        std::iter::successors(Some(word).filter(|&b| b != 0), rest)
            .map(move |bits| RequestId::from(w * 64 + bits.trailing_zeros() as usize))
    })
}

#[cfg(feature = "audit")]
impl GreedyScheduler {
    /// Attaches a [`SamplerAuditor`]: from now on the scheduler
    /// shadow-verifies its invariants at `cfg`'s sampling frequencies and
    /// accumulates a violation report instead of debug-aborting.  Replaces
    /// any previously attached auditor (and its report).
    pub fn audit_attach(&mut self, cfg: AuditConfig) {
        self.auditor = Some(SamplerAuditor::new(cfg));
    }

    /// The accumulated audit report, when an auditor is attached.
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.auditor.as_ref().map(|a| a.report.clone())
    }

    /// Test-only fault injection: drops the newest entry of the log of
    /// unconfirmed sends, deliberately desynchronizing the log from the
    /// simulated ring so the promoted alignment check (and the rollback's
    /// behaviour on a mismatch) can be exercised.
    #[doc(hidden)]
    // lint:allow(unreferenced-pub) -- the seeded fault of crates/core/tests/audit.rs
    pub fn audit_inject_unconfirmed_log_truncation(&mut self) {
        self.unconfirmed.pop_back();
        self.handed = self.handed.min(self.unconfirmed.len());
    }

    /// Per-block hook: ticks the auditor and runs the structural checks at
    /// the configured frequency.
    fn audit_on_block(&mut self) {
        let Some(mut aud) = self.auditor.take() else {
            return;
        };
        if aud.tick_block() {
            self.audit_run_checks(&mut aud.report, None);
        }
        self.auditor = Some(aud);
    }

    /// Post-update hook: like [`GreedyScheduler::audit_on_block`], but when
    /// the update went through the diff path it additionally shadow-rebuilds
    /// the model from `summary` and compares signatures.
    fn audit_on_update(&mut self, summary: &PredictionSummary, diff_applied: bool) {
        let Some(mut aud) = self.auditor.take() else {
            return;
        };
        let run_general = aud.tick_update();
        let run_diff = diff_applied && aud.tick_diff();
        if run_general || run_diff {
            let shadow = run_diff.then_some(summary);
            self.audit_run_checks(&mut aud.report, shadow);
        }
        self.auditor = Some(aud);
    }

    fn audit_run_checks(&self, report: &mut AuditReport, shadow: Option<&PredictionSummary>) {
        self.audit_check_fenwick(report);
        self.audit_check_bucket_coefficients(report);
        self.audit_check_slot_alignment(report);
        if let Some(summary) = shadow {
            self.audit_check_diff_signature(report, summary);
        }
    }

    /// Every Fenwick sum node re-summed against its covered values, plus the
    /// positive-entry counters (the phantom-total defense).
    fn audit_check_fenwick(&self, report: &mut AuditReport) {
        report.begin(AuditCheck::FenwickSums);
        for (label, tree) in self.sampler.audit_fenwick_trees() {
            for (node, stored, expected) in tree.audit_bad_nodes() {
                report.record(AuditViolation {
                    check: AuditCheck::FenwickSums,
                    slot: Some(self.since_install),
                    request: None,
                    detail: format!(
                        "{label} sum node {node}: stored {stored:e}, recomputed {expected:e}"
                    ),
                });
            }
            if let Some((stored, actual)) = tree.audit_positive_count_drift() {
                report.record(AuditViolation {
                    check: AuditCheck::FenwickSums,
                    slot: Some(self.since_install),
                    request: None,
                    detail: format!(
                        "{label} positive-entry counter drift: stored {stored}, actual {actual}"
                    ),
                });
            }
        }
    }

    /// Every incrementally maintained draw weight re-derived from the
    /// model's tails, plus each bucket's scalar factor and cached per-member
    /// coefficient against the shape vector.
    fn audit_check_bucket_coefficients(&self, report: &mut AuditReport) {
        report.begin(AuditCheck::BucketCoefficients);
        for (r, want, got) in self.debug_weight_divergence() {
            report.record(AuditViolation {
                check: AuditCheck::BucketCoefficients,
                slot: Some(self.since_install),
                request: Some(r),
                detail: format!("stored draw weight {got:e}, recomputed {want:e}"),
            });
        }
        let part = self.model.shape_partition();
        for (b, bucket) in part.buckets.iter().enumerate() {
            let want = self.model.shape_factor(b, self.read_slot());
            let got = self.sampler.audit_bucket_factor(b);
            if (got - want).abs() > 1e-9 * want.abs().max(1e-9) {
                report.record(AuditViolation {
                    check: AuditCheck::BucketCoefficients,
                    slot: Some(self.since_install),
                    request: None,
                    detail: format!(
                        "bucket {b} factor: stored {got:e}, shape vector says {want:e}"
                    ),
                });
            }
            for &r in &bucket.members {
                let Some(coef) = self.sampler.audit_bucket_coef(r) else {
                    continue;
                };
                let want = self.model.tail(r, 0);
                if (coef - want).abs() > 1e-9 * want.abs().max(1e-9) {
                    report.record(AuditViolation {
                        check: AuditCheck::BucketCoefficients,
                        slot: Some(self.since_install),
                        request: Some(r),
                        detail: format!(
                            "cached coefficient {coef:e} diverges from tail(0) = {want:e}"
                        ),
                    });
                }
            }
        }
    }

    /// The promoted slot-alignment invariant: the log of unconfirmed sends
    /// holds the ring's newest entries, newest last.
    fn audit_check_slot_alignment(&self, report: &mut AuditReport) {
        report.begin(AuditCheck::SlotAlignment);
        let logged = self.unconfirmed.iter().rev().map(|sent| sent.block);
        let mismatch = logged
            .zip(self.ring.iter().rev())
            .enumerate()
            .find(|&(_, (block, resident))| block != *resident);
        if let Some((age, (block, resident))) = mismatch {
            report.record(AuditViolation {
                check: AuditCheck::SlotAlignment,
                slot: Some(self.since_install),
                request: Some(block.request),
                detail: format!(
                    "unconfirmed log entry {age} from the newest holds {block}, the ring holds {resident}"
                ),
            });
        }
    }

    /// Diff-path signature agreement: rebuilds a shadow model from the same
    /// summary the diff path consumed and compares materialized sets, tails
    /// at sampled slots, and the residual tail.  The shadow is the per-slot
    /// reference evaluator, not [`HorizonModel::build`]: the build shares
    /// the diff path's slot-plan arithmetic, the reference shares none of
    /// it.
    fn audit_check_diff_signature(&self, report: &mut AuditReport, summary: &PredictionSummary) {
        report.begin(AuditCheck::DiffSignature);
        let shadow = HorizonModel::build_reference(
            summary,
            self.cfg.cache_blocks,
            self.cfg.slot_duration,
            self.cfg.gamma,
        );
        let (diffed, rebuilt) = (self.model.materialized(), shadow.materialized());
        if diffed != rebuilt {
            report.record(AuditViolation {
                check: AuditCheck::DiffSignature,
                slot: Some(self.since_install),
                request: None,
                detail: format!(
                    "materialized sets diverge: diff path holds {}, rebuild holds {}",
                    diffed.len(),
                    rebuilt.len()
                ),
            });
            return;
        }
        let probe_slots = [0, self.read_slot()];
        for &r in diffed {
            for &slot in &probe_slots {
                let got = self.model.tail(r, slot);
                let want = shadow.tail(r, slot);
                if (got - want).abs() > 1e-8 * want.abs().max(1e-12) {
                    report.record(AuditViolation {
                        check: AuditCheck::DiffSignature,
                        slot: Some(slot),
                        request: Some(r),
                        detail: format!("diffed tail {got:e}, rebuilt tail {want:e}"),
                    });
                    break;
                }
            }
        }
        for &slot in &probe_slots {
            let got = self.model.residual_tail(slot);
            let want = shadow.residual_tail(slot);
            if (got - want).abs() > 1e-8 * want.abs().max(1e-12) {
                report.record(AuditViolation {
                    check: AuditCheck::DiffSignature,
                    slot: Some(slot),
                    request: None,
                    detail: format!("diffed residual tail {got:e}, rebuilt {want:e}"),
                });
            }
        }
    }
}

impl Scheduler for GreedyScheduler {
    fn update_prediction(&mut self, summary: &PredictionSummary) {
        self.updates += 1;
        self.rollback_unsent(None);
        self.since_install = 0;
        self.refused.clear();
        self.install(summary);
    }

    fn update_prediction_sparse(
        &mut self,
        summary: &PredictionSummary,
        changes: &crate::delta::PredictionChanges,
    ) {
        self.updates += 1;
        let mut rolled = std::mem::take(&mut self.rolled);
        rolled.clear();
        self.rollback_unsent(Some(&mut rolled));
        self.since_install = 0;
        // A refused request is drawable again, and only an install
        // re-derives its zeroed weights.
        let diffable = self.refused.is_empty()
            && self.model.horizon() == self.cfg.cache_blocks
            && self.model.slot_duration() == self.cfg.slot_duration
            && self.model.gamma().to_bits() == self.cfg.gamma.to_bits();
        self.refused.clear();
        // `make_mut` is the copy-on-write split: a scheduler on a shared
        // model clones it privately before the diff lands, and stays private
        // until its next whole summary.
        let diff = diffable
            .then(|| Arc::make_mut(&mut self.model).apply_update_sparse(summary, changes))
            .flatten();
        match diff {
            Some(diff) => {
                self.diff_updates += 1;
                rolled.sort_unstable();
                rolled.dedup();
                self.apply_model_diff(&diff, &rolled);
                #[cfg(feature = "audit")]
                self.audit_on_update(summary, true);
            }
            None => self.install(summary),
        }
        self.rolled = rolled;
    }

    /// Confirms the oldest unconfirmed block; a confirmation of any other
    /// block means the ring left the client's.
    fn note_sent(&mut self, block: BlockRef) {
        let oldest = self.unconfirmed.pop_front();
        self.handed = self.handed.saturating_sub(1);
        if oldest.is_some_and(|sent| sent.compacted) {
            self.compactions.pop_front();
        }
        let oldest = oldest.map(|sent| sent.block);
        if oldest != Some(block) {
            let what = "a confirmation does not name the oldest unconfirmed log entry";
            let noted = self.audit_note_misalignment(self.since_install, what);
            debug_assert!(
                noted,
                "confirmed {block}, the oldest unconfirmed is {oldest:?}"
            );
        }
    }

    /// The rollback a prediction update runs, with the model kept: the
    /// refused request joins the refused list, and the touched set and the
    /// sampler are rebuilt over the restored ring.
    fn drop_unsent(&mut self, refused: BlockRef) {
        self.rollback_unsent(None);
        if !self.refused.contains(&refused.request) {
            self.refused.push(refused.request);
        }
        self.rebuild_touched();
    }

    #[cfg(feature = "audit")]
    fn audit_attach(&mut self, cfg: AuditConfig) {
        GreedyScheduler::audit_attach(self, cfg);
    }

    #[cfg(feature = "audit")]
    fn audit_report(&self) -> Option<AuditReport> {
        GreedyScheduler::audit_report(self)
    }

    fn next_block(&mut self, refill: usize, max_distinct: Option<usize>) -> Option<BlockRef> {
        if self.handed == self.unconfirmed.len() {
            self.draw_batch(refill, max_distinct);
        }
        let block = self.unconfirmed.get(self.handed)?.block;
        self.handed += 1;
        Some(block)
    }

    /// Takes effect on the next prediction update (the current materialized
    /// horizon is kept).
    fn set_slot_duration(&mut self, slot: Duration) {
        self.cfg.slot_duration = slot;
    }

    fn simulated_cache(&self) -> HashMap<RequestId, u32> {
        self.ring.resident_counts().collect()
    }

    fn prediction_updates(&self) -> u64 {
        self.updates
    }

    fn diff_applied_updates(&self) -> u64 {
        self.diff_updates
    }

    fn sampler_entries(&self) -> usize {
        self.sampler.live_entries()
    }

    #[cfg(test)]
    fn queued(&self) -> usize {
        self.unconfirmed.len() - self.handed
    }
}

/// What the scheduler tests of this module and of `dedup` observe.
#[cfg(test)]
impl GreedyScheduler {
    /// The shared probability model: dedup sharing and copy-on-write splits
    /// show through [`Arc::ptr_eq`].
    pub(crate) fn model_arc(&self) -> &Arc<HorizonModel> {
        &self.model
    }

    /// The simulated client ring contents in arrival order, oldest first:
    /// the rollback property tests assert it matches a ground-truth replay
    /// of the client's FIFO ring.
    pub(crate) fn simulated_ring(&self) -> Vec<BlockRef> {
        self.ring.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DirectUplink;
    use crate::types::Time;
    use crate::utility::{GainTable, LinearUtility, PiecewiseUtility, PowerUtility};
    use std::collections::HashSet;

    /// The blocks one refill of `count` under `max_distinct` draws, handed
    /// out through [`Scheduler::next_block`].
    fn refill(s: &mut GreedyScheduler, count: usize, max_distinct: Option<usize>) -> Schedule {
        let mut out: Schedule = Scheduler::next_block(s, count, max_distinct)
            .into_iter()
            .collect();
        while Scheduler::queued(s) > 0 {
            out.extend(Scheduler::next_block(s, count, max_distinct));
        }
        out
    }

    fn mk(n: usize, blocks: u32, cache_blocks: usize, meta: bool) -> GreedyScheduler {
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 1000));
        let cfg = GreedySchedulerConfig {
            cache_blocks,
            use_meta_request: meta,
            ..Default::default()
        };
        GreedyScheduler::new(
            cfg,
            UtilityModel::homogeneous(&LinearUtility, blocks),
            catalog,
        )
    }

    #[test]
    fn fills_batches_and_respects_block_limits() {
        let mut s = mk(4, 2, 8, true);
        let batch = s.next_batch(8);
        assert_eq!(batch.len(), 8);
        // 4 requests × 2 blocks each = 8 blocks total; all must be distinct.
        let mut seen = HashSet::new();
        for b in &batch {
            assert!(seen.insert(*b), "block {b} scheduled twice");
            assert!(b.index < 2);
        }
    }

    #[test]
    fn concentrates_on_predicted_request() {
        let mut s = mk(100, 10, 50, true);
        let pred = PredictionSummary::point(100, RequestId(7), Time::ZERO);
        s.update_prediction(&pred, 0);
        let batch = s.next_batch(50);
        let for_7 = batch.iter().filter(|b| b.request == RequestId(7)).count();
        // With probability 1 on request 7, the vast majority of blocks go to
        // it (it only has 10 blocks, so exactly 10 here).
        assert_eq!(for_7, 10);
        // Block indices for request 7 are the full prefix 0..10.
        let mut idx: Vec<u32> = batch
            .iter()
            .filter(|b| b.request == RequestId(7))
            .map(|b| b.index)
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_prior_hedges_widely() {
        let mut s = mk(1000, 10, 200, true);
        let batch = s.next_batch(200);
        assert_eq!(batch.len(), 200);
        let distinct: HashSet<RequestId> = batch.iter().map(|b| b.request).collect();
        // With a uniform prior and linear utility, hedging should cover many
        // distinct requests (mostly first blocks).
        assert!(
            distinct.len() > 100,
            "only {} distinct requests",
            distinct.len()
        );
    }

    #[test]
    fn concave_utility_spreads_more_than_linear() {
        let n = 50;
        let blocks = 20;
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 1000));
        let cfg = GreedySchedulerConfig {
            cache_blocks: 100,
            ..Default::default()
        };
        let mut linear = GreedyScheduler::new(
            cfg.clone(),
            UtilityModel::homogeneous(&LinearUtility, blocks),
            catalog.clone(),
        );
        let mut concave = GreedyScheduler::new(
            cfg,
            UtilityModel::homogeneous(&PowerUtility::new(0.3), blocks),
            catalog,
        );
        let pred = PredictionSummary::point(n, RequestId(0), Time::ZERO);
        linear.update_prediction(&pred, 0);
        concave.update_prediction(&pred, 0);
        let lb = linear.next_batch(100);
        let cb = concave.next_batch(100);
        let l_distinct: HashSet<_> = lb.iter().map(|b| b.request).collect();
        let c_distinct: HashSet<_> = cb.iter().map(|b| b.request).collect();
        // Concave utility saturates the likely request's marginal gain faster,
        // so it hedges across at least as many other requests.
        assert!(c_distinct.len() >= l_distinct.len());
    }

    #[test]
    fn tracks_client_cache_across_schedules() {
        // Cache comfortably larger than one response: the prefix continues
        // across batches instead of restarting at block 0.
        let mut s = mk(2, 8, 16, true);
        let pred = PredictionSummary::point(2, RequestId(1), Time::ZERO);
        s.update_prediction(&pred, 0);
        // First batch: 4 blocks, all for request 1 (indices 0..4).
        let b1 = s.next_batch(4);
        assert!(b1.iter().all(|b| b.request == RequestId(1)));
        // The next batch continues the prefix instead of restarting at 0.
        let b2 = s.next_batch(4);
        let idx: Vec<u32> = b2
            .iter()
            .filter(|b| b.request == RequestId(1))
            .map(|b| b.index)
            .collect();
        assert!(idx.iter().all(|&i| i >= 4), "indices restarted: {idx:?}");
        assert!(s.simulated_cache().contains_key(&RequestId(1)));
    }

    #[test]
    fn repairs_evicted_prefix_blocks() {
        // Cache (4 blocks) smaller than one response (8 blocks): pushing the
        // tail evicts the head, so the scheduler must circle back and repair
        // the renderable prefix rather than pushing ever-higher indices.
        let mut s = mk(2, 8, 4, true);
        let pred = PredictionSummary::point(2, RequestId(1), Time::ZERO);
        s.update_prediction(&pred, 0);
        let _ = s.next_batch(4); // indices 0..4 pushed, ring full
        let b2 = s.next_batch(4);
        // The first block of the second batch (index 4) evicts block 0, so a
        // later slot must re-push block 0.
        assert!(
            b2.iter().any(|b| b.index == 0),
            "prefix never repaired: {b2:?}"
        );
    }

    #[test]
    fn sender_position_is_respected_on_update() {
        let mut s = mk(10, 4, 20, true);
        let warm_up = s.next_batch(10);
        assert_eq!(s.since_install, 10);
        // New prediction arrives after the sender confirmed 6 of the 10
        // blocks: the other 4 are rolled back, and the new model is read
        // from its first slot.
        for &b in &warm_up[..6] {
            s.note_sent(b);
        }
        let pred = PredictionSummary::point(10, RequestId(3), Time::ZERO);
        s.update_prediction(&pred, 0);
        assert_eq!(s.since_install, 0);
        let resident_before = s.simulated_cache().get(&RequestId(3)).copied().unwrap_or(0);
        let batch = s.next_batch(100);
        // All probability mass sits on request 3, so the batch completes its
        // prefix (whatever the confirmed warm-up blocks delivered) before
        // anything else — and nothing else has positive gain.
        let need = (4 - resident_before) as usize;
        assert!(batch.len() >= need, "batch too short: {batch:?}");
        assert!(
            batch.iter().take(need).all(|b| b.request == RequestId(3)),
            "request 3's prefix not completed first: {batch:?}"
        );
        assert_eq!(
            s.simulated_cache().get(&RequestId(3)).copied().unwrap_or(0),
            4,
            "request 3 should be fully resident after the update"
        );
    }

    #[test]
    fn exhausts_all_blocks_then_stops() {
        let mut s = mk(2, 2, 16, true);
        let batch = s.next_batch(16);
        // Only 4 distinct blocks exist; with cache tracking the scheduler
        // refuses to schedule duplicates within the ring's lifetime.
        assert_eq!(batch.len(), 4);
        assert!(s.next_batch(4).is_empty());
    }

    #[test]
    fn meta_and_materialized_paths_agree_statistically() {
        // With and without the meta-request optimization, the same prediction
        // should lead to a similar spread of scheduled requests.
        let mut with_meta = mk(200, 4, 100, true);
        let mut without_meta = mk(200, 4, 100, false);
        let pred = PredictionSummary::point(200, RequestId(5), Time::ZERO);
        with_meta.update_prediction(&pred, 0);
        without_meta.update_prediction(&pred, 0);
        let a = with_meta.next_batch(100);
        let b = without_meta.next_batch(100);
        let a5 = a.iter().filter(|x| x.request == RequestId(5)).count();
        let b5 = b.iter().filter(|x| x.request == RequestId(5)).count();
        assert_eq!(a5, 4);
        assert_eq!(b5, 4);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mk_seeded = || {
            let catalog = Arc::new(ResponseCatalog::uniform(50, 5, 100));
            GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: 60,
                    seed: 42,
                    ..Default::default()
                },
                UtilityModel::homogeneous(&LinearUtility, 5),
                catalog,
            )
        };
        let mut a = mk_seeded();
        let mut b = mk_seeded();
        assert_eq!(a.next_batch(60), b.next_batch(60));
    }

    #[test]
    fn legacy_scan_path_still_schedules() {
        let catalog = Arc::new(ResponseCatalog::uniform(4, 2, 1000));
        let cfg = GreedySchedulerConfig {
            cache_blocks: 8,
            sampler: SamplerVariant::Scan,
            ..Default::default()
        };
        let mut s =
            GreedyScheduler::new(cfg, UtilityModel::homogeneous(&LinearUtility, 2), catalog);
        let batch = s.next_batch(8);
        assert_eq!(batch.len(), 8);
        let mut seen = HashSet::new();
        for b in &batch {
            assert!(seen.insert(*b), "block {b} scheduled twice");
        }
    }

    const ALL_VARIANTS: [SamplerVariant; 2] = [SamplerVariant::Scan, SamplerVariant::Lazy];

    /// Builds one scheduler per seed, applies `pred`, and returns how often
    /// the first sampled block went to `watch` and how often it went to a
    /// request that was untouched (not materialized) at draw time.
    fn first_draw_stats(
        catalog: &Arc<ResponseCatalog>,
        cache: usize,
        variant: SamplerVariant,
        pred: &PredictionSummary,
        watch: RequestId,
        utility: &UtilityModel,
        seeds: u64,
    ) -> (f64, f64) {
        let materialized: HashSet<RequestId> = pred.materialized_requests().into_iter().collect();
        let mut watched = 0usize;
        let mut untouched = 0usize;
        for seed in 0..seeds {
            let mut s = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: cache,
                    sampler: variant,
                    seed,
                    ..Default::default()
                },
                utility.clone(),
                catalog.clone(),
            );
            s.update_prediction(pred, 0);
            let batch = s.next_batch(1);
            let Some(first) = batch.first() else { continue };
            if first.request == watch {
                watched += 1;
            }
            if !materialized.contains(&first.request) {
                untouched += 1;
            }
        }
        (
            watched as f64 / seeds as f64,
            untouched as f64 / seeds as f64,
        )
    }

    fn sparse_pred(n: usize, entries: Vec<(RequestId, f64)>, residual: f64) -> PredictionSummary {
        let dist = crate::distribution::SparseDistribution::from_entries(n, entries, residual);
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .map(|delta| crate::distribution::HorizonSlice {
                delta,
                dist: dist.clone(),
            })
            .collect();
        PredictionSummary::new(n, slices, Time::ZERO)
    }

    #[test]
    fn all_variants_first_draw_distributions_match() {
        // Statistical parity: for the same prediction, the stationary
        // first-draw distribution of the lazy sampler must match the legacy
        // scan's within a seed-controlled tolerance (both paths draw from
        // the identical weight decomposition; only the cost differs).
        let n = 100;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 4, 1000));
        let utility = UtilityModel::homogeneous(&LinearUtility, 4);
        let pred = sparse_pred(n, vec![(RequestId(5), 0.4), (RequestId(9), 0.2)], 0.4);
        let seeds = 400;
        let (scan_watch, scan_meta) = first_draw_stats(
            &catalog,
            50,
            SamplerVariant::Scan,
            &pred,
            RequestId(5),
            &utility,
            seeds,
        );
        let (watch, meta) = first_draw_stats(
            &catalog,
            50,
            SamplerVariant::Lazy,
            &pred,
            RequestId(5),
            &utility,
            seeds,
        );
        assert!(
            (watch - scan_watch).abs() < 0.1,
            "request-5 share diverged: lazy {watch} vs scan {scan_watch}"
        );
        assert!(
            (meta - scan_meta).abs() < 0.1,
            "untouched share diverged: lazy {meta} vs scan {scan_meta}"
        );
        // Sanity: the materialized request actually dominates the residual.
        assert!(watch > 0.3, "request-5 share only {watch}");
    }

    #[test]
    fn all_variants_agree_on_point_prediction() {
        // Under a point prediction the draw is deterministic regardless of
        // sampler: every path must allocate exactly the predicted request's
        // blocks, in prefix order.
        for variant in ALL_VARIANTS {
            let catalog = Arc::new(ResponseCatalog::uniform(50, 6, 1000));
            let mut s = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: 40,
                    sampler: variant,
                    ..Default::default()
                },
                UtilityModel::homogeneous(&LinearUtility, 6),
                catalog,
            );
            s.update_prediction(&PredictionSummary::point(50, RequestId(3), Time::ZERO), 0);
            let batch = s.next_batch(40);
            let expected: Vec<BlockRef> = (0..6).map(|j| BlockRef::new(RequestId(3), j)).collect();
            assert_eq!(batch, expected, "variant={variant:?}");
        }
    }

    #[test]
    fn heterogeneous_meta_hedge_not_starved() {
        // Regression for the PR 2 meta-weight bug: the untouched meta-group's
        // per-member gain used `utility.table(0).next_gain(0)`.  With a
        // heterogeneous model whose table 0 has a tiny first-block gain, that
        // under-weighted every untouched request ~50×, starving the hedge.
        // Per-class meta-entries make the hedge exact for every class.
        let n = 40;
        let tiny_first = PiecewiseUtility::from_points(vec![(0.5, 0.01)], "tiny-first");
        let mut tables = vec![GainTable::new(&tiny_first, 2)]; // g(1) = 0.01
        tables.extend((1..n).map(|_| GainTable::new(&LinearUtility, 2))); // g(1) = 0.5
        let utility = UtilityModel::PerRequest(Arc::new(tables));
        // Half the mass on materialized request 1, half residual across the
        // other 39: untouched and request 1 should split the first draw
        // roughly evenly (38 · 0.5 · residual/request ≈ 0.5 · p₁ here).
        let pred = sparse_pred(n, vec![(RequestId(1), 0.5)], 0.5);
        let catalog = Arc::new(ResponseCatalog::uniform(n, 2, 1000));
        for variant in ALL_VARIANTS {
            let (watch, untouched_share) =
                first_draw_stats(&catalog, 30, variant, &pred, RequestId(1), &utility, 300);
            assert!(
                untouched_share > 0.25,
                "untouched share {untouched_share} (request-1 share {watch}) — \
                 meta group under-weighted (variant={variant:?})"
            );
        }
    }

    #[test]
    fn meta_hedge_is_exact_per_class() {
        // Two untouched utility classes of equal size under a uniform
        // residual: class A's first-block gain is 10× class B's, so the
        // first draw should land on class-A requests ~10× as often.  The
        // catalog-wide bound of PR 2 weighted both classes identically (and
        // over-weighted B 10×); per-class meta-entries restore the exact
        // ratio.
        let n = 40;
        let small = PiecewiseUtility::from_points(vec![(0.5, 0.05)], "small-first"); // g(1) = 0.05
        let tables: Vec<GainTable> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    GainTable::new(&LinearUtility, 2) // g(1) = 0.5
                } else {
                    GainTable::new(&small, 2)
                }
            })
            .collect();
        let utility = UtilityModel::PerRequest(Arc::new(tables));
        let pred = PredictionSummary::uniform(n, Time::ZERO);
        let catalog = Arc::new(ResponseCatalog::uniform(n, 2, 1000));
        for variant in ALL_VARIANTS {
            let mut class_a = 0usize;
            let seeds = 600;
            for seed in 0..seeds {
                let mut s = GreedyScheduler::new(
                    GreedySchedulerConfig {
                        cache_blocks: 20,
                        sampler: variant,
                        seed,
                        ..Default::default()
                    },
                    utility.clone(),
                    catalog.clone(),
                );
                s.update_prediction(&pred, 0);
                if let Some(first) = s.next_batch(1).first() {
                    if first.request.index() % 2 == 0 {
                        class_a += 1;
                    }
                }
            }
            let share = class_a as f64 / seeds as f64;
            // Exact hedge: 0.5 / (0.5 + 0.05) ≈ 0.909.  The catalog-wide
            // bound gave 0.5.
            assert!(
                share > 0.85,
                "class-A share {share}, expected ~0.91 (variant={variant:?})"
            );
        }
    }

    #[test]
    fn rollback_across_eviction_restores_ring() {
        // Headline regression: rolling back a block whose delivery evicted an
        // older ring entry must restore that entry, or the simulated cache
        // diverges from the client's forever.
        let mut s = mk(2, 4, 3, true);
        let pred = PredictionSummary::point(2, RequestId(0), Time::ZERO);
        s.update_prediction(&pred, 0);
        // Fill the schedule (and the ring) with request 0's prefix 0..3.
        let b1 = s.next_batch(3);
        assert_eq!(
            b1,
            (0..3)
                .map(|j| BlockRef::new(RequestId(0), j))
                .collect::<Vec<_>>()
        );
        // The next block, block 3, evicts block 0 from the full ring.
        let b2 = s.next_batch(1);
        assert_eq!(b2, vec![BlockRef::new(RequestId(0), 3)]);
        assert_eq!(
            s.simulated_ring(),
            vec![
                BlockRef::new(RequestId(0), 1),
                BlockRef::new(RequestId(0), 2),
                BlockRef::new(RequestId(0), 3),
            ]
        );
        // The sender transmitted blocks 0..3 but never block 3; a
        // re-prediction rolls it back.  The eviction must be undone: block 0
        // returns to the ring.
        for &b in &b1 {
            s.note_sent(b);
        }
        s.update_prediction(&pred, 0);
        assert_eq!(
            s.simulated_ring(),
            vec![
                BlockRef::new(RequestId(0), 0),
                BlockRef::new(RequestId(0), 1),
                BlockRef::new(RequestId(0), 2),
            ],
            "evicted entry not restored on rollback"
        );
        assert_eq!(s.simulated_cache().get(&RequestId(0)), Some(&3));
        // And scheduling resumes from the repaired prefix: block 3 again,
        // not a spurious re-push of block 0.
        let b3 = s.next_batch(1);
        assert_eq!(b3, vec![BlockRef::new(RequestId(0), 3)]);
    }

    #[test]
    fn rollback_undoes_the_unconfirmed_blocks_and_their_slots() {
        // The set-up above: request 0's blocks one by one into a 3-block
        // ring, so block 3 evicts block 0.
        let pred = PredictionSummary::point(2, RequestId(0), Time::ZERO);
        let drawn = |emitted: usize, confirmed: usize| {
            let mut s = mk(2, 4, 3, true);
            s.update_prediction(&pred, 0);
            let blocks: Vec<BlockRef> = (0..emitted).flat_map(|_| s.next_batch(1)).collect();
            for &b in &blocks[..confirmed] {
                s.note_sent(b);
            }
            s
        };
        let block = |j: u32| BlockRef::new(RequestId(0), j);
        // Blocks 2 and 3 were never sent.  Both roll back, block 3's
        // eviction with it, and the new model is read from its first slot.
        let mut s = drawn(4, 2);
        s.update_prediction(&pred, 0);
        assert_eq!(s.simulated_ring(), vec![block(0), block(1)]);
        assert_eq!(s.since_install, 0);
        assert_eq!(s.next_batch(2), vec![block(2), block(3)]);
        // A refusal of block 2 keeps the model and gives both slots back,
        // and request 0 leaves the draw until the next update.
        let mut s = drawn(4, 2);
        s.drop_unsent(block(2));
        assert_eq!(s.simulated_ring(), vec![block(0), block(1)]);
        assert_eq!(s.since_install, 2);
        assert_eq!(s.next_batch(2), vec![]);
        s.update_prediction(&pred, 0);
        assert_eq!(s.next_batch(2), vec![block(2), block(3)]);
        // The queue drained exactly: nothing rolls back.
        let mut s = drawn(3, 3);
        s.update_prediction(&pred, 0);
        assert_eq!(s.simulated_ring(), vec![block(0), block(1), block(2)]);
        assert_eq!(s.next_batch(1), vec![block(3)]);
        assert_eq!(s.since_install, 1);
    }

    #[test]
    fn a_refused_request_leaves_both_draws_until_the_next_update() {
        // Under the uniform prior the first draw is a meta draw, so the
        // refused request would go back to its meta class if the rollback
        // untouched it.
        let prior = PredictionSummary::uniform(6, Time::ZERO);
        for variant in ALL_VARIANTS {
            for use_meta_request in [true, false] {
                let mut s = GreedyScheduler::new(
                    GreedySchedulerConfig {
                        cache_blocks: 12,
                        sampler: variant,
                        use_meta_request,
                        ..Default::default()
                    },
                    UtilityModel::homogeneous(&LinearUtility, 2),
                    Arc::new(ResponseCatalog::uniform(6, 2, 1000)),
                );
                let refused = s.next_batch(1)[0];
                s.drop_unsent(refused);
                let rest = s.next_batch(100);
                assert_eq!(
                    rest.len(),
                    10,
                    "{variant:?} meta={use_meta_request}: {rest:?}"
                );
                assert!(rest.iter().all(|b| b.request != refused.request));
                for &b in &rest {
                    s.note_sent(b);
                }
                s.update_prediction(&prior, 0);
                let retried = s.next_batch(100);
                assert_eq!(
                    retried.len(),
                    2,
                    "{variant:?} meta={use_meta_request}: {retried:?}"
                );
                assert!(retried.iter().all(|b| b.request == refused.request));
            }
        }
    }

    #[test]
    fn overlapping_predictions_take_the_diff_path() {
        let mut s = mk(50, 4, 30, true);
        let mut uplink = DirectUplink::new();
        let p1 = sparse_pred(50, vec![(RequestId(5), 0.4), (RequestId(9), 0.2)], 0.4);
        uplink.ship(&mut s, &p1);
        assert_eq!(s.diff_applied_updates(), 0, "a first summary is installed");
        let _ = s.next_batch(10);
        // Overlapping re-prediction: reweight 5, drop 9, join 11.
        let p2 = sparse_pred(50, vec![(RequestId(5), 0.3), (RequestId(11), 0.3)], 0.4);
        uplink.ship(&mut s, &p2);
        assert_eq!(s.diff_applied_updates(), 1, "the delta is diffed");
        // The same prediction as a whole summary is installed, not diffed.
        s.update_prediction(&p2, 0);
        assert_eq!(s.diff_applied_updates(), 1);
        // An incompatible slice layout cannot travel as a delta at all.
        let slices = vec![crate::distribution::HorizonSlice {
            delta: Duration::from_millis(10),
            dist: crate::distribution::SparseDistribution::point(50, RequestId(2)),
        }];
        uplink.ship(&mut s, &PredictionSummary::new(50, slices, Time::ZERO));
        assert_eq!(s.diff_applied_updates(), 1);
        assert_eq!(s.prediction_updates(), 4);
    }

    /// Asserts the scheduler's installed model equals `want` to the bit on
    /// the residual tail and on every request's tail at every slot.
    fn assert_model_bits(s: &GreedyScheduler, want: &HorizonModel) {
        let got = s.model_arc();
        assert_eq!(got.slot_duration(), want.slot_duration());
        for t in 0..=want.horizon() {
            assert_eq!(
                got.residual_tail(t).to_bits(),
                want.residual_tail(t).to_bits()
            );
            for r in (0..want.num_requests()).map(RequestId::from) {
                assert_eq!(
                    got.tail(r, t).to_bits(),
                    want.tail(r, t).to_bits(),
                    "tail({r:?}, {t})"
                );
            }
        }
    }

    #[test]
    fn rate_report_rebuilds_at_the_new_slot_duration() {
        // A rate report changes the slot duration, and a model built at
        // another slot duration cannot be diffed: the next delta installs
        // instead, lands on exactly the model a fresh build at the new
        // duration gives, and the delta after it diffs again.
        let n = 50;
        let early_late = |early: Vec<(RequestId, f64)>, late: Vec<(RequestId, f64)>| {
            let slices = PredictionSummary::default_deltas()
                .into_iter()
                .enumerate()
                .map(|(i, delta)| crate::distribution::HorizonSlice {
                    delta,
                    dist: crate::distribution::SparseDistribution::from_entries(
                        n,
                        if i < 2 { early.clone() } else { late.clone() },
                        0.4,
                    ),
                })
                .collect();
            PredictionSummary::new(n, slices, Time::ZERO)
        };
        let mut s = mk(n, 4, 64, true);
        let mut uplink = DirectUplink::new();
        s.set_slot_duration(Duration::from_millis(5));
        let p1 = early_late(
            vec![(RequestId(5), 0.4), (RequestId(9), 0.2)],
            vec![(RequestId(5), 0.1), (RequestId(9), 0.5)],
        );
        uplink.ship(&mut s, &p1);
        let _ = s.next_batch(10);
        let diffed = s.diff_applied_updates();

        s.set_slot_duration(Duration::from_millis(7));
        let p2 = early_late(
            vec![(RequestId(5), 0.3), (RequestId(11), 0.3)],
            vec![(RequestId(5), 0.1), (RequestId(11), 0.5)],
        );
        uplink.ship(&mut s, &p2);
        assert_eq!(s.prediction_updates(), 2);
        assert_eq!(s.diff_applied_updates(), diffed, "delta installed");
        let gamma = s.model_arc().gamma();
        assert_model_bits(
            &s,
            &HorizonModel::build(&p2, 64, Duration::from_millis(7), gamma),
        );

        let _ = s.next_batch(10);
        let p3 = early_late(
            vec![(RequestId(5), 0.3), (RequestId(12), 0.3)],
            vec![(RequestId(5), 0.1), (RequestId(12), 0.5)],
        );
        uplink.ship(&mut s, &p3);
        assert_eq!(s.diff_applied_updates(), diffed + 1, "same duration: diffs");
    }

    #[test]
    fn forty_slice_summary_installs_and_diffs() {
        // Wider than any fixed-width explicit mask: request 1 is explicit
        // only in slices 33.., request 2 only in slices ..4, requests 0 and
        // 3 in all of them; 64 slots of 8 ms reach past the last slice
        // (400 ms).  Requests 0 and 3 trade mass, so every slice keeps its
        // residual to the bit and the shadow can certify a delta between
        // two of these even with requests 1 and 2 explicit only in part.
        let n = 30;
        let wide = |p0_late: f64| {
            let slices = (0..40usize)
                .map(|i| {
                    let p0 = if i < 20 { 0.2 } else { p0_late } + 0.002 * i as f64;
                    let p1 = if i >= 33 { 0.2 } else { 0.0 };
                    let p2 = if i < 4 { 0.1 + 0.05 * i as f64 } else { 0.0 };
                    let mut entries = vec![
                        (RequestId(0), p0),
                        (RequestId(1), p1),
                        (RequestId(2), p2),
                        (RequestId(3), 0.7 - p0 - p1 - p2),
                    ];
                    entries.retain(|e| e.1 > 0.0);
                    crate::distribution::HorizonSlice {
                        delta: Duration::from_millis(10 * (i as u64 + 1)),
                        dist: crate::distribution::SparseDistribution::from_normalized(
                            n, entries, 0.3,
                        ),
                    }
                })
                .collect();
            PredictionSummary::new(n, slices, Time::ZERO)
        };
        let slot = Duration::from_millis(8);
        let mut s = mk(n, 4, 64, true);
        let mut uplink = DirectUplink::new();
        s.set_slot_duration(slot);
        let gamma = s.model_arc().gamma();
        let agrees_with_reference = |s: &GreedyScheduler, summary: &PredictionSummary| {
            let got = s.model_arc();
            let want = HorizonModel::build_reference(summary, 64, slot, gamma);
            assert_eq!(got.materialized_count(), 4);
            for t in 0..=64 {
                for r in (0..n).map(RequestId::from) {
                    let (a, b) = (got.tail(r, t), want.tail(r, t));
                    assert!(
                        (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                        "tail({r:?}, {t}): {a} vs {b}"
                    );
                }
            }
        };
        let p1 = wide(0.1);
        uplink.ship(&mut s, &p1);
        assert_eq!(s.diff_applied_updates(), 0);
        agrees_with_reference(&s, &p1);
        assert_eq!(s.next_batch(10).len(), 10);
        // Same 40 offsets, requests 0 and 3 reshaped: a delta, refused
        // neither by the shadow nor by the model for its width.
        let p2 = wide(0.2);
        uplink.ship(&mut s, &p2);
        assert_eq!(s.diff_applied_updates(), 1);
        agrees_with_reference(&s, &p2);
        assert_eq!(s.next_batch(10).len(), 10);
    }

    #[test]
    fn diff_updates_match_full_rebuild_state() {
        // Drive one scheduler through the uplink (deltas after the first
        // summary) and one with whole summaries (an install every time)
        // through the same overlapping update sequence and compare the
        // *semantic* sampling state: every candidate weight as the scan
        // walk derives it.  (The two may legally emit different blocks — the
        // diffed layout appends where an install re-sorts — so block-level
        // equality is checked separately against the scan variant by the
        // parity proptest.)
        let n = 40;
        let mk_one = || {
            let catalog = Arc::new(ResponseCatalog::uniform(n, 4, 1000));
            GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: 24,
                    seed: 11,
                    ..Default::default()
                },
                UtilityModel::homogeneous(&PowerUtility::new(0.5), 4),
                catalog,
            )
        };
        let updates = [
            sparse_pred(n, vec![(RequestId(3), 0.4), (RequestId(7), 0.2)], 0.4),
            sparse_pred(
                n,
                vec![
                    (RequestId(3), 0.3),
                    (RequestId(7), 0.1),
                    (RequestId(12), 0.2),
                ],
                0.4,
            ),
            sparse_pred(n, vec![(RequestId(12), 0.5), (RequestId(20), 0.1)], 0.4),
            sparse_pred(n, vec![(RequestId(12), 0.45), (RequestId(20), 0.2)], 0.35),
        ];
        let weight = |s: &GreedyScheduler, r: RequestId| {
            if s.model.is_materialized(r) {
                s.gain_for(r)
            } else {
                s.marginal_gain(r) * s.model.residual_tail(s.read_slot())
            }
        };
        let mut with_diff = mk_one();
        let mut uplink = DirectUplink::new();
        let mut rebuild = mk_one();
        for (i, pred) in updates.iter().enumerate() {
            // Updates-only (identical observable state on both sides):
            // compare every candidate weight.
            uplink.ship(&mut with_diff, pred);
            rebuild.update_prediction(pred, 0);
            assert!(
                with_diff.debug_weight_divergence().is_empty(),
                "diffed sampler inconsistent after update {i}: {:?}",
                with_diff.debug_weight_divergence()
            );
            for r in (0..n).map(RequestId::from) {
                let (wd, wr) = (weight(&with_diff, r), weight(&rebuild, r));
                assert!(
                    (wd - wr).abs() <= 1e-9 * wr.abs().max(1e-9),
                    "weight({r:?}) diverged after update {i}: diff {wd} vs rebuild {wr}"
                );
            }
        }
        assert_eq!(with_diff.diff_applied_updates(), 3, "all but the first");
        assert_eq!(rebuild.diff_applied_updates(), 0);
        // With scheduling and rollbacks interleaved, the diffed sampler must
        // stay internally consistent with its own model, and within 1e-9 of
        // an install of the same summary at the same position (checked on
        // every other update, so deltas land on diffed and on freshly built
        // models alike).
        let mut s = mk_one();
        let mut uplink = DirectUplink::new();
        for (i, pred) in updates.iter().chain(&updates).enumerate() {
            let batch = s.next_batch(10);
            for &b in &batch[..i % (batch.len() + 1)] {
                s.note_sent(b);
            }
            uplink.ship(&mut s, pred);
            assert!(
                s.debug_weight_divergence().is_empty(),
                "inconsistent after interleaved update {i}: {:?}",
                s.debug_weight_divergence()
            );
            if i % 2 == 0 {
                continue;
            }
            let diffed: Vec<f64> = (0..n).map(|r| weight(&s, RequestId::from(r))).collect();
            s.update_prediction(pred, 0);
            for (r, wd) in diffed.into_iter().enumerate() {
                let wr = weight(&s, RequestId::from(r));
                assert!(
                    (wd - wr).abs() <= 1e-9 * wr.abs().max(1e-9),
                    "weight({r}) diverged after interleaved update {i}: diff {wd} vs rebuild {wr}"
                );
            }
        }
        assert!(s.diff_applied_updates() >= 6);
    }

    #[test]
    fn a_long_silence_compacts_the_shared_segment_identically() {
        // One prediction, then a long run of draws over a catalog far
        // larger than the 8-block ring: shared-tail requests keep departing
        // as evictions take their last block.  Both variants must compact
        // the shared segment at the same draws and keep drawing the same
        // blocks, and the segment must stay within what the tombstone rule
        // allows.
        let cache = 8;
        let mk_variant = |variant| {
            let catalog = Arc::new(ResponseCatalog::uniform(400, 2, 1000));
            GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: cache,
                    sampler: variant,
                    seed: 7,
                    ..Default::default()
                },
                UtilityModel::homogeneous(&PowerUtility::new(0.5), 2),
                catalog,
            )
        };
        let pred = sparse_pred(400, vec![(RequestId(3), 0.2)], 0.8);
        let mut lazy = mk_variant(SamplerVariant::Lazy);
        let mut scan = mk_variant(SamplerVariant::Scan);
        lazy.update_prediction(&pred, 0);
        scan.update_prediction(&pred, 0);
        let bound = (cache + 32).max(2 * cache);
        let mut shrinks = 0;
        for i in 0..2_000 {
            let before = lazy.sampler.shared_ids().len();
            let drawn = lazy.next_batch(1);
            assert_eq!(
                drawn,
                scan.next_batch(1),
                "lazy diverged from scan at draw {i}"
            );
            assert!(
                lazy.debug_weight_divergence().is_empty(),
                "sampler inconsistent after draw {i}: {:?}",
                lazy.debug_weight_divergence()
            );
            assert_eq!(lazy.sampler.shared_ids(), scan.sampler.shared_ids());
            let len = lazy.sampler.shared_ids().len();
            assert!(len <= bound, "shared segment of {len} at draw {i}");
            if len < before {
                shrinks += 1;
            }
        }
        assert!(shrinks > 0, "the shared segment never compacted");
    }

    #[test]
    fn a_silent_session_keeps_drawing_past_its_horizon() {
        // No prediction for far longer than the 16-slot horizon: every draw
        // past it reads the last slot, whose slice the plan holds beyond
        // the summary's end, instead of tails of 0.
        let mut s = mk(50, 4, 16, true);
        s.update_prediction(
            &sparse_pred(50, vec![(RequestId(3), 0.4), (RequestId(9), 0.2)], 0.4),
            0,
        );
        for i in 0..64 {
            assert_eq!(s.next_batch(1).len(), 1, "draw {i} came back empty");
        }
    }

    #[test]
    fn a_limited_batch_draws_only_among_its_allowance() {
        // A catalog smaller than the ring, so resident counts are prefixes:
        // each batch names at most `k` requests and continues their
        // prefixes, and both variants draw the same blocks.
        let pred = sparse_pred(30, vec![(RequestId(3), 0.3), (RequestId(9), 0.2)], 0.5);
        let schedule_of = |variant| {
            let cfg = GreedySchedulerConfig {
                cache_blocks: 256,
                sampler: variant,
                seed: 11,
                ..Default::default()
            };
            let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), 6);
            let catalog = Arc::new(ResponseCatalog::uniform(30, 6, 1000));
            let mut s = GreedyScheduler::new(cfg, utility, catalog);
            s.update_prediction(&pred, 0);
            assert!(refill(&mut s, 4, Some(0)).is_empty());
            let mut all = Vec::new();
            for k in (1..=4).cycle().take(16) {
                let mut next = Scheduler::simulated_cache(&s);
                let batch = refill(&mut s, 7, Some(k));
                for b in &batch {
                    let want = next.entry(b.request).or_insert(0);
                    assert_eq!(b.index, *want, "{b} does not continue its prefix");
                    *want += 1;
                }
                let named: HashSet<RequestId> = batch.iter().map(|b| b.request).collect();
                assert!(named.len() <= k, "{batch:?} names more than {k} requests");
                batch.iter().for_each(|&b| s.note_sent(b));
                all.extend(batch);
            }
            all
        };
        assert_eq!(
            schedule_of(SamplerVariant::Lazy),
            schedule_of(SamplerVariant::Scan)
        );
        // One request of two blocks: the batch shrinks to them.
        let mut s = mk(4, 2, 8, true);
        let batch = refill(&mut s, 8, Some(1));
        let r = batch[0].request;
        assert_eq!(batch, vec![BlockRef::new(r, 0), BlockRef::new(r, 1)]);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        /// The sender and the client behind a driven scheduler, and the
        /// ground truth for its simulated ring.  Blocks emitted since the
        /// last update wait in the sender's queue; an update first confirms
        /// a prefix of them, oldest first, through `note_sent`, and drops
        /// the rest, which the scheduler must roll back, evictions
        /// included.  The client's FIFO ring holds the newest `cap` of
        /// the received blocks followed by the queued ones, which the
        /// scheduler counts as delivered until an update says otherwise.
        struct ClientReplay {
            cap: usize,
            received: Vec<BlockRef>,
            queued: Vec<BlockRef>,
            /// Predictions travel as they do on the wire, so one that
            /// overlaps the last is a delta and its rollback runs through
            /// the diff path.
            uplink: DirectUplink,
        }

        impl ClientReplay {
            fn new(cap: usize) -> Self {
                ClientReplay {
                    cap,
                    received: Vec::new(),
                    queued: Vec::new(),
                    uplink: DirectUplink::new(),
                }
            }

            fn on_batch(&mut self, batch: &[BlockRef]) {
                self.queued.extend_from_slice(batch);
            }

            /// Sends the oldest `sent` queued blocks (all, if fewer are
            /// queued), drops the rest and ships `pred`.
            fn ship(&mut self, s: &mut GreedyScheduler, sent: usize, pred: &PredictionSummary) {
                let sent = sent.min(self.queued.len());
                for &b in &self.queued[..sent] {
                    s.note_sent(b);
                }
                self.received.extend(self.queued.drain(..).take(sent));
                self.uplink.ship(s, pred);
            }

            /// Sends the oldest `sent` queued blocks, then the backend
            /// refuses the next one: it is dropped with the rest.
            fn refuse(&mut self, s: &mut GreedyScheduler, sent: usize) {
                let sent = sent.min(self.queued.len());
                let Some(&refused) = self.queued.get(sent) else {
                    return;
                };
                for &b in &self.queued[..sent] {
                    s.note_sent(b);
                }
                self.received.extend(self.queued.drain(..).take(sent));
                s.drop_unsent(refused);
            }

            fn ring(&self) -> Vec<BlockRef> {
                let all: Vec<BlockRef> = (self.received.iter().chain(&self.queued))
                    .copied()
                    .collect();
                let start = all.len().saturating_sub(self.cap);
                all[start..].to_vec()
            }
        }

        fn replay_ops(
            n: usize,
            blocks: u32,
            cache: usize,
            seed: u64,
            variant: SamplerVariant,
            ops: &[(u8, usize, usize)],
        ) {
            let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
            let mut s = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: cache,
                    seed,
                    sampler: variant,
                    ..Default::default()
                },
                UtilityModel::homogeneous(&LinearUtility, blocks),
                catalog,
            );
            let mut client = ClientReplay::new(cache);
            // Every sequence ends on a delta (kind 6, which the generator
            // never draws).
            let delta_tail = [(2, 0, 0), (0, 4, 0), (6, 1, 1)];
            for &(kind, a, b) in ops.iter().chain(&delta_tail) {
                match kind {
                    0 | 1 => {
                        let batch = s.next_batch(a % 5 + 1);
                        client.on_batch(&batch);
                    }
                    2 | 6 => {
                        // The sender got part of its queue out: a rollback
                        // of the rest.
                        let sent = b % (client.queued.len() + 1);
                        let pred = PredictionSummary::point(n, RequestId::from(a % n), Time::ZERO);
                        let diffed = s.diff_applied_updates();
                        client.ship(&mut s, sent, &pred);
                        prop_assert!(kind == 2 || s.diff_applied_updates() > diffed);
                    }
                    3 => {
                        let sent = b % (client.queued.len() + 1);
                        client.ship(&mut s, sent, &PredictionSummary::uniform(n, Time::ZERO));
                    }
                    _ => {
                        // The sender drained its queue: nothing rolls back.
                        let pred = PredictionSummary::point(n, RequestId::from(a % n), Time::ZERO);
                        client.ship(&mut s, usize::MAX, &pred);
                    }
                }
                prop_assert_eq!(
                    s.simulated_ring(),
                    client.ring(),
                    "ring diverged after op ({}, {}, {}) [variant={:?}]",
                    kind,
                    a,
                    b,
                    variant
                );
                // Resident counts are a view over the ring.
                let mut counts: HashMap<RequestId, u32> = HashMap::new();
                for blk in client.ring() {
                    *counts.entry(blk.request).or_insert(0) += 1;
                }
                prop_assert_eq!(s.simulated_cache(), counts);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The greedy scheduler never emits duplicate blocks while the ring
            /// still holds them, never exceeds per-request block counts, and
            /// always makes progress while capacity remains — on every sampling
            /// path.
            #[test]
            fn schedule_is_well_formed(
                n in 1usize..40,
                blocks in 1u32..8,
                cache in 1usize..64,
                seed in 0u64..1000
            ) {
                for variant in ALL_VARIANTS {
                    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
                    let cfg = GreedySchedulerConfig {
                        cache_blocks: cache,
                        seed,
                        sampler: variant,
                        ..Default::default()
                    };
                    let mut s = GreedyScheduler::new(
                        cfg,
                        UtilityModel::homogeneous(&LinearUtility, blocks),
                        catalog,
                    );
                    let batch = s.next_batch(cache);
                    let expected = cache.min(n * blocks as usize);
                    prop_assert_eq!(batch.len(), expected);
                    let mut seen = HashSet::new();
                    for b in &batch {
                        prop_assert!(b.request.index() < n);
                        prop_assert!(b.index < blocks);
                        prop_assert!(seen.insert(*b), "duplicate block {}", b);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Replaying any random schedule / confirmation / rollback /
            /// eviction sequence, the scheduler's simulated ring exactly
            /// equals a ground-truth replay of the client's FIFO ring —
            /// including rollbacks of blocks whose delivery evicted older
            /// entries and rollbacks of queues longer than the ring.
            #[test]
            fn simulated_ring_matches_client_replay(
                n in 1usize..8,
                blocks in 1u32..5,
                cache in 1usize..10,
                seed in 0u64..10_000,
                ops in collection::vec((0u8..6, 0usize..64, 0usize..64), 1..20)
            ) {
                for variant in ALL_VARIANTS {
                    replay_ops(n, blocks, cache, seed, variant, &ops);
                }
            }
        }

        /// A heterogeneous utility model mixing three distinct gain tables
        /// (three utility classes).
        fn heterogeneous_utility(n: usize, blocks: u32) -> UtilityModel {
            let concave = PowerUtility::new(0.5);
            let steep = PowerUtility::new(0.25);
            let tables: Vec<GainTable> = (0..n)
                .map(|i| match i % 3 {
                    0 => GainTable::new(&LinearUtility, blocks),
                    1 => GainTable::new(&concave, blocks),
                    _ => GainTable::new(&steep, blocks),
                })
                .collect();
            UtilityModel::PerRequest(Arc::new(tables))
        }

        /// Runs one scheduler of the given variant through the op sequence,
        /// returning every emitted block (batch boundaries preserved via
        /// sentinel separation is unnecessary — batches are deterministic in
        /// length given parity, which is exactly what the caller asserts).
        #[allow(clippy::too_many_arguments)]
        fn drive_variant(
            variant: SamplerVariant,
            n: usize,
            blocks: u32,
            cache: usize,
            seed: u64,
            meta: bool,
            utility: &UtilityModel,
            ops: &[(u8, usize, usize)],
        ) -> (Vec<BlockRef>, Vec<BlockRef>) {
            let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
            let mut s = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: cache,
                    seed,
                    sampler: variant,
                    use_meta_request: meta,
                    ..Default::default()
                },
                utility.clone(),
                catalog,
            );
            let mut emitted = Vec::new();
            // Every prediction travels as it does on the wire: whole the
            // first time and whenever the slice layout changes, as a delta
            // otherwise — which is what reaches the scheduler's diff path.
            let mut client = ClientReplay::new(cache);
            // Drifting prediction state for the overlapping-update ops
            // (kinds 6–7): successive summaries share most entries.
            let mut evolving: Vec<(usize, f64)> = vec![(0, 0.3), (1 % n, 0.2)];
            let drifting = |evolving: &[(usize, f64)]| {
                let entries: Vec<(RequestId, f64)> = evolving
                    .iter()
                    .map(|&(r, p)| (RequestId::from(r), p))
                    .collect();
                let mass: f64 = evolving.iter().map(|e| e.1).sum();
                sparse_pred(n, entries, (1.0 - mass).max(0.1))
            };
            for &(kind, a, b) in ops {
                match kind {
                    // Batches up to twice the cache wrap the ring and
                    // draw past the horizon mid-batch.
                    0..=2 => {
                        let batch = s.next_batch(a % (2 * cache) + 1);
                        client.on_batch(&batch);
                        emitted.extend(batch);
                    }
                    3 => {
                        // Sparse heterogeneous prediction: two materialized
                        // requests plus a residual.
                        let p1 = (a % 9 + 1) as f64 / 20.0;
                        let p2 = (b % 7 + 1) as f64 / 30.0;
                        let pred = sparse_pred(
                            n,
                            vec![(RequestId::from(a % n), p1), (RequestId::from(b % n), p2)],
                            1.0 - p1 - p2,
                        );
                        let sent = b % (client.queued.len() + 1);
                        client.ship(&mut s, sent, &pred);
                    }
                    4 => {
                        // Time-varying prediction: early mass on one request,
                        // late mass on another — distinct tail shapes, so
                        // the lazy variant exercises multiple buckets.
                        let slices = vec![
                            crate::distribution::HorizonSlice {
                                delta: Duration::from_millis(10),
                                dist: crate::distribution::SparseDistribution::from_entries(
                                    n,
                                    vec![(RequestId::from(a % n), 0.8)],
                                    0.2,
                                ),
                            },
                            crate::distribution::HorizonSlice {
                                delta: Duration::from_millis(400),
                                dist: crate::distribution::SparseDistribution::from_entries(
                                    n,
                                    vec![(RequestId::from(b % n), 0.7)],
                                    0.3,
                                ),
                            },
                        ];
                        let pred = PredictionSummary::new(n, slices, Time::ZERO);
                        let sent = a % (client.queued.len() + 1);
                        client.ship(&mut s, sent, &pred);
                    }
                    5 => {
                        // The sender drained its queue.
                        let pred = PredictionSummary::uniform(n, Time::ZERO);
                        client.ship(&mut s, usize::MAX, &pred);
                    }
                    8 => {
                        // The backend refuses a queued block, usually the
                        // front one: its request leaves the draw.
                        let sent = if a % 4 == 0 { b } else { 0 };
                        client.refuse(&mut s, sent);
                        assert!(s.debug_weight_divergence().is_empty());
                    }
                    6 => {
                        // Overlapping re-prediction: mutate ONE entry of the
                        // drifting prediction (add / remove / reweight) and
                        // re-send — the add/remove/reweight grammar of the
                        // diff path.
                        match a % 3 {
                            0 => {
                                let r = b % n;
                                let p = (b % 9 + 1) as f64 / 30.0;
                                match evolving.iter_mut().find(|e| e.0 == r) {
                                    Some(e) => e.1 = p,
                                    None => evolving.push((r, p)),
                                }
                            }
                            1 if evolving.len() > 1 => {
                                evolving.remove(b % evolving.len());
                            }
                            _ => {
                                let i = b % evolving.len();
                                evolving[i].1 *= (a % 5 + 1) as f64 / 3.0;
                            }
                        }
                        let sent = a % (client.queued.len() + 1);
                        client.ship(&mut s, sent, &drifting(&evolving));
                    }
                    _ => {
                        // Overlapping *shape-changing* re-prediction over
                        // the same slice offsets: early mass follows `a`,
                        // late mass follows the drifting entries, so
                        // successive updates move requests between shape
                        // buckets — through the diff path when the shadow
                        // can certify the delta.
                        let early = crate::distribution::SparseDistribution::from_entries(
                            n,
                            vec![(RequestId::from(a % n), 0.6)],
                            0.4,
                        );
                        let entries: Vec<(RequestId, f64)> = evolving
                            .iter()
                            .map(|&(r, p)| (RequestId::from(r), p))
                            .collect();
                        let mass: f64 = evolving.iter().map(|e| e.1).sum();
                        let late = crate::distribution::SparseDistribution::from_entries(
                            n,
                            entries,
                            (1.0 - mass).max(0.1),
                        );
                        let slices = PredictionSummary::default_deltas()
                            .into_iter()
                            .enumerate()
                            .map(|(i, delta)| crate::distribution::HorizonSlice {
                                delta,
                                dist: if i < 2 { early.clone() } else { late.clone() },
                            })
                            .collect();
                        let pred = PredictionSummary::new(n, slices, Time::ZERO);
                        let sent = b % (client.queued.len() + 1);
                        client.ship(&mut s, sent, &pred);
                    }
                }
            }
            // Every case ends on the delta path, whatever state the ops
            // above left behind: the drifting summary, then one reweighted
            // entry of it under a rollback, then a batch drawn from the
            // diffed sampler.
            client.ship(&mut s, usize::MAX, &drifting(&evolving));
            let batch = s.next_batch(cache);
            client.on_batch(&batch);
            emitted.extend(batch);
            evolving[0].1 *= 0.5;
            let (diffed, sent) = (s.diff_applied_updates(), client.queued.len() / 2);
            client.ship(&mut s, sent, &drifting(&evolving));
            assert!(s.diff_applied_updates() > diffed, "delta not diffed");
            emitted.extend(s.next_batch(cache));
            // The incremental weight structure must agree with a
            // from-scratch recomputation of every candidate weight after any
            // op sequence — the diff path may never leave stale state.
            assert!(
                s.debug_weight_divergence().is_empty(),
                "sampler diverged from model ({:?}): {:?}",
                variant,
                s.debug_weight_divergence()
            );
            (emitted, s.simulated_ring())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Block-for-block parity between the two sampler variants:
            /// randomized heterogeneous-utility catalogs, forced ring
            /// evictions (cache far smaller than the block universe), sparse
            /// and time-varying predictions (multiple tail-shape buckets),
            /// rollbacks across evictions, drained queues, refused blocks
            /// (whose requests leave the draw), and *sequences of overlapping
            /// prediction updates* (add / remove / reweight / shape-change,
            /// shipped as deltas through the diff path, which every case
            /// is asserted to reach) — under a fixed seed the legacy
            /// scan and the lazy-bucket sampler must emit identical schedules
            /// and identical simulated rings.
            #[test]
            fn sampler_variants_emit_identical_schedules(
                n in 2usize..14,
                blocks in 1u32..6,
                cache in 2usize..20,
                seed in 0u64..10_000,
                ops in collection::vec((0u8..9, 0usize..64, 0usize..64), 1..14)
            ) {
                let utility = heterogeneous_utility(n, blocks);
                for meta in [true, false] {
                    let (scan_blocks, scan_ring) = drive_variant(
                        SamplerVariant::Scan, n, blocks, cache, seed, meta, &utility, &ops,
                    );
                    let (lazy_blocks, lazy_ring) = drive_variant(
                        SamplerVariant::Lazy, n, blocks, cache, seed, meta, &utility, &ops,
                    );
                    prop_assert_eq!(
                        &lazy_blocks,
                        &scan_blocks,
                        "lazy diverged from scan (meta={})",
                        meta
                    );
                    prop_assert_eq!(&lazy_ring, &scan_ring, "ring diverged (meta={})", meta);
                }
            }
        }

        /// Two schedulers on one seed and one op stream: each round `ahead`
        /// draws up to `extra` blocks more than the sender confirms, `exact`
        /// only those, and the round ends in a whole update, a delta or a
        /// refusal of the first unconfirmed block.  The committed blocks and
        /// the simulated rings must agree after every round.
        #[allow(clippy::too_many_arguments)]
        fn depth_invariance(
            variant: SamplerVariant,
            meta: bool,
            n: usize,
            blocks: u32,
            cache: usize,
            seed: u64,
            utility: &UtilityModel,
            ops: &[(u8, usize, usize)],
        ) {
            let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
            let cfg = GreedySchedulerConfig {
                cache_blocks: cache,
                seed,
                sampler: variant,
                use_meta_request: meta,
                ..Default::default()
            };
            let mk = || GreedyScheduler::new(cfg.clone(), utility.clone(), catalog.clone());
            let (mut ahead, mut exact) = (mk(), mk());
            let (mut ahead_uplink, mut exact_uplink) = (DirectUplink::new(), DirectUplink::new());
            let mut evolving: Vec<(usize, f64)> = vec![(0, 0.3), (1 % n, 0.2)];
            for (round, &(kind, a, b)) in ops.iter().enumerate() {
                let (confirm, extra) = (a % (2 * cache) + 1, b % 9);
                let drawn = ahead.next_batch(confirm + extra);
                let committed = exact.next_batch(confirm);
                prop_assert_eq!(committed.len(), confirm.min(drawn.len()));
                prop_assert_eq!(&drawn[..committed.len()], &committed[..], "round {}", round);
                for &block in &committed {
                    ahead.note_sent(block);
                    exact.note_sent(block);
                }
                match kind % 5 {
                    0 => {
                        let pred = PredictionSummary::point(n, RequestId::from(a % n), Time::ZERO);
                        ahead.update_prediction(&pred, 0);
                        exact.update_prediction(&pred, 0);
                    }
                    1 => {
                        let pred = PredictionSummary::uniform(n, Time::ZERO);
                        ahead.update_prediction(&pred, 0);
                        exact.update_prediction(&pred, 0);
                    }
                    4 => {
                        // The refused block is the first unconfirmed one;
                        // `exact` draws it now, from the same slot.
                        let refused = match drawn.get(committed.len()) {
                            Some(&block) => Some(block),
                            None => ahead.next_batch(1).first().copied(),
                        };
                        let redrawn = exact.next_batch(1).first().copied();
                        prop_assert_eq!(refused, redrawn, "round {}", round);
                        if let Some(refused) = refused {
                            ahead.drop_unsent(refused);
                            exact.drop_unsent(refused);
                        }
                    }
                    _ => {
                        // An overlapping re-prediction, shipped as a delta
                        // once the first summary has installed.
                        let r = b % n;
                        match evolving.iter().position(|e| e.0 == r) {
                            Some(i) => evolving[i].1 = (a % 9 + 1) as f64 / 30.0,
                            None if evolving.len() < 6 => evolving.push((r, 0.05)),
                            None => {
                                evolving.remove(a % evolving.len());
                            }
                        }
                        let entries = evolving
                            .iter()
                            .map(|&(r, p)| (RequestId::from(r), p))
                            .collect();
                        let mass: f64 = evolving.iter().map(|e| e.1).sum();
                        let pred = sparse_pred(n, entries, (1.0 - mass).max(0.1));
                        ahead_uplink.ship(&mut ahead, &pred);
                        exact_uplink.ship(&mut exact, &pred);
                        prop_assert_eq!(ahead.diff_applied_updates(), exact.diff_applied_updates());
                    }
                }
                prop_assert_eq!(
                    ahead.simulated_ring(),
                    exact.simulated_ring(),
                    "round {}",
                    round
                );
                prop_assert!(ahead.debug_weight_divergence().is_empty());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Drawing `k` blocks ahead, confirming `j ≤ k` of them and then
            /// updating (whole or delta) or refusing the next commits what
            /// drawing `j` would have, for both sampler variants, meta on
            /// and off: a rolled-back draw leaves no trace, compactions of
            /// the shared segment among the rolled-back draws included.
            #[test]
            fn drawing_ahead_commits_what_drawing_exactly_would(
                n in 2usize..160,
                blocks in 1u32..6,
                cache in 2usize..24,
                seed in 0u64..10_000,
                ops in collection::vec((0u8..5, 0usize..64, 0usize..64), 1..16)
            ) {
                let utility = heterogeneous_utility(n, blocks);
                for variant in ALL_VARIANTS {
                    for meta in [true, false] {
                        depth_invariance(variant, meta, n, blocks, cache, seed, &utility, &ops);
                    }
                }
            }
        }

        /// The proptest above at volume: 400 000 cases from a fixed LCG, meta
        /// drawn per case.  Run it after any change to `greedy.rs`,
        /// `sampling.rs` or `cache.rs`:
        /// `cargo test --release -p khameleon-core --lib
        /// sampler_variants_parity_sweep -- --ignored`.
        #[test]
        #[ignore = "400k cases, about a minute in release"]
        fn sampler_variants_parity_sweep() {
            let mut state = 98_765u64;
            let mut next = || {
                state = (state.wrapping_mul(6_364_136_223_846_793_005))
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 33
            };
            for case in 0..400_000 {
                let n = next() as usize % 12 + 2;
                let blocks = next() as u32 % 5 + 1;
                let cache = next() as usize % 18 + 2;
                let seed = next() % 10_000;
                let meta = next().is_multiple_of(2);
                let len = next() as usize % 13 + 1;
                let ops: Vec<(u8, usize, usize)> = (0..len)
                    .map(|_| {
                        (
                            (next() % 9) as u8,
                            next() as usize % 64,
                            next() as usize % 64,
                        )
                    })
                    .collect();
                let utility = heterogeneous_utility(n, blocks);
                let [scan, lazy] = [SamplerVariant::Scan, SamplerVariant::Lazy]
                    .map(|v| drive_variant(v, n, blocks, cache, seed, meta, &utility, &ops));
                assert!(
                    lazy == scan,
                    "case {case}: n={n} blocks={blocks} cache={cache} seed={seed} \
                     meta={meta} ops={ops:?}"
                );
            }
        }
    }
}
