//! Server-side scheduling: allocating network slots to response blocks.
//!
//! The scheduler takes a utility function and a probability distribution over
//! future requests and decides the sequence of blocks to push to the client so
//! that expected user-perceived utility is maximized over a finite horizon of
//! `C` blocks (the client cache size), per §5 of the paper.
//!
//! * [`HorizonModel`] materializes the probability terms the schedulers need:
//!   for each request, the (discounted) probability mass of it being requested
//!   during the *remainder* of the current schedule — the `P_{i,t}` matrix of
//!   Listing 1, stored sparsely so that a 10,000-request space only pays for
//!   the handful of requests with non-uniform probability.
//! * [`greedy::GreedyScheduler`] is the fast single-step sampler the paper
//!   deploys (§5.3).
//! * [`optimal::OptimalScheduler`] solves the linearized finite-horizon
//!   objective exactly (the role Gurobi plays in §5.2/§A.1) via a
//!   maximum-weight assignment.
//! * A backend with limited concurrency (§5.4) bounds the distinct requests
//!   each batch may draw ([`Scheduler::next_batch`]).

pub mod dedup;
pub mod greedy;
pub mod optimal;
#[cfg(any(test, feature = "audit"))]
mod reference;

use std::collections::HashMap;
use std::sync::Arc;

use crate::distribution::PredictionSummary;
use crate::types::{BlockRef, Duration, RequestId};
use crate::utility::UtilityModel;

pub use crate::sampling::SamplerVariant;
pub use dedup::ModelCache;
pub use greedy::{GreedyContext, GreedyScheduler, GreedySchedulerConfig};
pub use optimal::{BruteForceScheduler, OptimalScheduler};

/// An ordered sequence of blocks for the sender to push, most urgent first.
pub type Schedule = Vec<BlockRef>;

/// The pluggable scheduling interface of the server (§5).
///
/// A scheduler turns a stream of prediction updates into an ordered stream of
/// blocks for the sender.  Every [`Session`](crate::session::Session) holds
/// a `Box<dyn Scheduler>`, so the greedy sampler of §5.3, the
/// assignment-based optimal solver of §5.2, the exhaustive
/// [`BruteForceScheduler`], and user-supplied strategies are interchangeable
/// without touching the server plumbing.
///
/// The contract mirrors the sender-coordination protocol of §5.3.2:
///
/// * [`next_batch`](Scheduler::next_batch) emits up to `count` more blocks of
///   the current schedule in push order, never repeating a block the
///   (simulated) client cache still holds, and naming at most
///   `max_distinct` distinct requests.
/// * [`note_sent`](Scheduler::note_sent) confirms emitted blocks, oldest
///   first, as the sender places them on the network.  The scheduler alone
///   counts positions: no caller passes one in.
/// * [`update_prediction`](Scheduler::update_prediction) receives the decoded
///   client prediction; confirmed blocks are immutable, and every emitted
///   block not yet confirmed — the sender dropped it with its queue — is
///   rolled back and may be re-planned.
/// * [`drop_unsent`](Scheduler::drop_unsent) reports a block the backend
///   refused: the unconfirmed blocks roll back, and the refused request is
///   drawn no more until the next update, so a session whose every useful
///   request is refused drains instead of drawing the same one again.
/// * [`set_slot_duration`](Scheduler::set_slot_duration) re-calibrates the
///   slot length whenever the bandwidth estimate changes (§5.4).
///
/// Scoring is not part of the contract: [`schedule_expected_utility`] prices
/// any drawn schedule under a model (Eq. 2), which is how Figure 17 compares
/// the greedy and exact schedulers.
pub trait Scheduler: Send {
    /// Applies a fresh decoded prediction, re-planning every emitted block
    /// that [`note_sent`](Scheduler::note_sent) has not confirmed.
    fn update_prediction(&mut self, summary: &PredictionSummary);

    /// Delta variant of [`update_prediction`](Scheduler::update_prediction):
    /// the caller (the prediction-delta path, see [`crate::delta`]) already
    /// knows exactly which requests' per-slice probabilities changed and
    /// carries the summary scalars a slot plan needs, so a diff-capable
    /// scheduler can patch its model in `O(Δ · slices)`.  The default
    /// ignores the hint and installs the whole summary; only schedulers
    /// with an incremental model ([`GreedyScheduler`]) override it.
    fn update_prediction_sparse(
        &mut self,
        summary: &PredictionSummary,
        changes: &crate::delta::PredictionChanges,
    ) {
        let _ = changes;
        self.update_prediction(summary);
    }

    /// Emits up to `count` blocks in push order, from at most
    /// `max_distinct` distinct requests (§5.4's `C − n`); a batch whose
    /// allowed requests run out of useful blocks ends early, and `Some(0)`
    /// emits nothing.  Otherwise an empty result means no block currently
    /// has positive expected gain (everything useful is sent or resident).
    fn next_batch(&mut self, count: usize, max_distinct: Option<usize>) -> Schedule;

    /// Confirms that `block` (previously emitted by
    /// [`next_batch`](Scheduler::next_batch)) was actually placed on the
    /// wire.  Blocks are confirmed in emission order, so a confirmation
    /// always covers the oldest unconfirmed block; emitted blocks never
    /// confirmed were dropped by the sender and are re-planned on the next
    /// prediction update.  A
    /// [`Session`](crate::session::Session) confirms every block it commits.
    /// The default ignores confirmations, for schedulers that re-plan
    /// nothing.
    fn note_sent(&mut self, block: BlockRef) {
        let _ = block;
    }

    /// The backend refused to resolve `refused`: rolls back every emitted
    /// block not yet confirmed, which the sender dropped with it, and keeps
    /// `refused.request` out of every draw until the next prediction
    /// update.  The whole request leaves, not just the block: quality is
    /// the contiguous prefix, so nothing after a refused block renders.
    fn drop_unsent(&mut self, refused: BlockRef);

    /// Updates the bandwidth-derived duration of one network slot.
    fn set_slot_duration(&mut self, slot: Duration);

    /// The scheduler's belief about the client's per-request resident block
    /// counts (empty when the scheduler does not track the client cache).
    fn simulated_cache(&self) -> HashMap<RequestId, u32>;

    /// The scheduling horizon `C` in blocks (the client cache size).
    fn horizon(&self) -> usize;

    /// Number of prediction updates applied so far.
    fn prediction_updates(&self) -> u64;

    /// Prediction deltas applied as a model *diff*
    /// ([`HorizonModel::apply_update_sparse`]) rather than an install; the
    /// default covers schedulers with no diff path.  Aggregated across
    /// sessions by [`ShardStats`](crate::shard::ShardStats).
    fn diff_applied_updates(&self) -> u64 {
        0
    }

    /// Live weight entries resident in the scheduler's sampler (zero for
    /// schedulers without an incremental sampler).  Aggregated across
    /// sessions by [`ShardStats`](crate::shard::ShardStats) as the
    /// session layer's per-session memory observable.
    fn sampler_entries(&self) -> usize {
        0
    }

    /// Short name used in logs and experiment reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }

    /// Attaches a runtime invariant auditor (see [`crate::audit`]).  The
    /// default is a no-op for schedulers without audit support;
    /// [`GreedyScheduler`] overrides it.
    #[cfg(feature = "audit")]
    fn audit_attach(&mut self, cfg: crate::audit::AuditConfig) {
        let _ = cfg;
    }

    /// The accumulated audit report, when an auditor is attached (`None`
    /// otherwise, and for schedulers without audit support).
    #[cfg(feature = "audit")]
    fn audit_report(&self) -> Option<crate::audit::AuditReport> {
        None
    }
}

/// Materialized probability model over a scheduling horizon of `horizon`
/// network slots, each lasting `slot_duration`.
///
/// `tail(i, t)` is the probability-mass term the schedulers multiply against
/// marginal utility gains: the (γ-discounted) probability that request `i`
/// is what the user wants during slots `t..horizon`.  Requests without an
/// explicit (materialized) entry all share the same tail, which is what makes
/// the greedy scheduler's meta-request optimization possible (§5.3.1).
///
/// Bucketed requests store only a scalar coefficient against their bucket's
/// shared shape vector (`tail_i(t) = coef_i · shape_b(t)`), so the model's
/// memory is `O((b + irregular) · horizon + m · slices)` instead of
/// `O(m · horizon)` — while it is being built as well as afterwards, since
/// [`HorizonModel::build`] classifies by per-slice signature and materializes
/// one tail vector per distinct shape — and a magnitude-only prediction
/// change is a single scalar update (see [`HorizonModel::apply_update_sparse`]).
/// Only irregular requests keep a full per-slot vector.
///
/// The model also keeps the *skeleton* of the slot plan it was built under —
/// per slot, the discount `γ^t` and the bracketing slice pair with its blend
/// fraction.  Those depend on the slice offsets, the horizon, the slot
/// duration and `γ` and on nothing a prediction carries, and a delta is only
/// ever diffed against a model whose four still hold, so
/// [`HorizonModel::apply_update_sparse`] lays each delta's plan over the kept
/// skeleton instead of deriving `horizon` discounts and brackets again
/// (`8 · horizon` bytes plus `24 · horizon`, shared between clones).
#[derive(Debug, Clone)]
pub struct HorizonModel {
    n: usize,
    horizon: usize,
    slot_duration: Duration,
    gamma: f64,
    /// Materialized per-request tails (scalar-vs-shape for bucket members,
    /// full vectors of length `horizon + 1` for irregular requests; index
    /// `horizon` is 0, simplifying loops).
    explicit: HashMap<RequestId, ExplicitTail>,
    /// Tail vector shared by every non-materialized request.
    residual: Vec<f64>,
    /// Materialized requests grouped by tail *shape* (see
    /// [`TailShapePartition`]), computed at build time and maintained under
    /// diff updates.
    partition: TailShapePartition,
    /// Materialized requests in ascending order (the diff walks old vs. new
    /// sorted sets in one merge pass).
    materialized_ids: Vec<RequestId>,
    /// Per-request prediction signature: equal signatures imply identical
    /// per-slot probabilities, hence identical tails.
    signatures: HashMap<RequestId, TailSignature>,
    /// The slice offsets of the summary this model was built from; a summary
    /// with different offsets cannot be diffed against this model.
    slice_deltas: Vec<Duration>,
    /// The slot plan's skeleton under `(slice_deltas, horizon,
    /// slot_duration, gamma)`, kept from the build for every delta's plan.
    skeleton: SlotSkeleton,
}

/// Tail storage of one materialized request.
#[derive(Debug, Clone)]
enum ExplicitTail {
    /// Member of shape bucket `bucket`: `tail(t) = coef · shape[t]`.
    Scaled { bucket: u32, coef: f64 },
    /// Irregular request with an exact per-slot tail vector.
    Full(Vec<f64>),
}

/// A materialized request's identity under prediction diffing: its
/// probability at every slice of the summary (falling back to the slice's
/// residual-per-request, exactly like interpolation does) plus which slices
/// carry an explicit entry for it.  Two summaries assigning a request equal
/// signatures assign it identical per-slot probabilities (up to the global
/// renormalization noise of the interpolation, which is `O(ε)` for
/// normalized inputs).
#[derive(Debug, Clone, PartialEq)]
struct TailSignature(Vec<SliceProb>);

/// One slice's entry of a [`TailSignature`].  The explicit flag rides next
/// to the probability (not in a fixed-width mask), so a signature is as wide
/// as the summary has slices.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SliceProb {
    /// `prob(r)` at this slice.
    p: f64,
    /// Whether the slice has an explicit entry for the request.
    explicit: bool,
}

impl TailSignature {
    fn is_materialized(&self) -> bool {
        self.0.iter().any(|s| s.explicit)
    }
}

/// Where a materialized request sits in the explicit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplicitPlacement {
    /// Member of shape bucket `b`.
    Bucket(usize),
    /// Member of the irregular exact-refresh set.
    Irregular,
}

/// The result of one incremental prediction update
/// ([`HorizonModel::apply_update_sparse`]): exactly which requests entered, left,
/// moved within, or rescaled inside the explicit layout, so a sampler
/// mirroring the layout can apply point updates instead of rebuilding.
///
/// All request lists are ascending; `removed` covers every structural
/// removal (departures plus moves) and `placed` every structural insertion
/// (joins plus moves), in the order they were applied to the partition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelDiff {
    /// Requests that left the materialized set entirely.
    pub departed: Vec<RequestId>,
    /// Requests that entered the materialized set.
    pub joined: Vec<RequestId>,
    /// Requests removed from their explicit spot (departures + moves).
    pub removed: Vec<RequestId>,
    /// Requests placed into an explicit spot (joins + moves).
    pub placed: Vec<(RequestId, ExplicitPlacement)>,
    /// Requests whose tail changed magnitude (or, for irregular members,
    /// values) without changing their spot in the layout.
    pub rescaled: Vec<RequestId>,
    /// Shape buckets appended to the partition by this update.
    pub buckets_added: usize,
}

impl ModelDiff {
    /// Number of structurally changed requests (everything except in-place
    /// rescales), each counted once: `departed` holds the removed-only
    /// requests and `placed` the joins plus moves.
    pub fn structural_changes(&self) -> usize {
        self.departed.len() + self.placed.len()
    }
}

/// Maximum number of distinct shape buckets materialized per model; requests
/// beyond this many distinct shapes fall back to the exact-refresh irregular
/// set.  Real predictors emit a handful of horizon slices, so distinct shapes
/// are rare; the cap only bounds adversarial inputs.
const MAX_SHAPE_BUCKETS: usize = 16;

/// Relative tolerance for declaring two normalized tails equal.  Genuinely
/// proportional tails agree to a few ulps; anything farther apart than this
/// is a real shape difference.
const SHAPE_EPS: f64 = 1e-9;

/// The materialized requests of a [`HorizonModel`], grouped by how their tail
/// `tail_i(t)` evolves as the slot index advances.
///
/// Requests in one [`ShapeBucket`] have elementwise-proportional tail
/// vectors: `tail_i(t) = tail_i(0) · s(t)` for a bucket-wide shape `s` with
/// `s(0) = 1`.  A sampler can therefore represent the whole bucket's
/// per-slot evolution with **one scalar factor** — advancing `t` multiplies
/// the bucket, it never rewrites members.  Requests whose tails are
/// proportional to no bucket shape (or that overflow the bucket cap) land in
/// `irregular` and must be refreshed exactly each slot.
///
/// At build time membership lists are ascending by request id (the
/// partition is built from the id-sorted materialized set); under diff
/// updates ([`HorizonModel::apply_update_sparse`]) joiners are appended, so lists
/// stay deterministic — a function of the update sequence — but not sorted.
/// Determinism of the layout, not sortedness, is what seed-reproducible
/// sampling requires.
#[derive(Debug, Clone, Default)]
pub struct TailShapePartition {
    /// Shape buckets, in order of first appearance.
    pub buckets: Vec<ShapeBucket>,
    /// Materialized requests needing exact per-slot refresh.
    pub irregular: Vec<RequestId>,
}

/// One group of materialized requests with elementwise-proportional tails.
#[derive(Debug, Clone)]
pub struct ShapeBucket {
    /// The bucket's representative: its first member at creation time.  The
    /// shape is *stored* (see [`ShapeBucket::shape`]), so the representative
    /// departing under a diff update does not invalidate the bucket.
    pub rep: RequestId,
    /// Members in insertion order (ascending at build time).
    pub members: Vec<RequestId>,
    /// The bucket's normalized tail shape `s(t) = tail(rep, t) /
    /// tail(rep, 0)` at creation (length `horizon + 1`, `s[0] = 1`; all
    /// zeros for the zero-tail bucket).
    pub shape: Vec<f64>,
}

impl TailShapePartition {
    /// Total number of bucketed members plus irregular requests.
    pub fn materialized_count(&self) -> usize {
        self.buckets.iter().map(|b| b.members.len()).sum::<usize>() + self.irregular.len()
    }
}

/// Normalizes a tail vector into a shape (`shape[0] = 1`, or all zeros for a
/// zero tail).
fn normalized_shape(tail: &[f64]) -> Vec<f64> {
    let t0 = tail[0];
    if t0 <= 0.0 {
        vec![0.0; tail.len()]
    } else {
        tail.iter().map(|&v| v / t0).collect()
    }
}

/// Whether a tail vector matches a stored normalized bucket shape.
///
/// Tails are non-increasing and non-negative, so `tail[0]` is the maximum;
/// comparing the `tail[t] / tail[0]` ratios (in `[0, 1]`) against an absolute
/// epsilon is a relative comparison in disguise.  All-zero tails match only
/// the all-zero shape (their weight is identically zero).
fn tail_matches_shape(tail: &[f64], shape: &[f64], horizon: usize) -> bool {
    let t0 = tail[0];
    if t0 <= 0.0 || shape[0] <= 0.0 {
        return t0 <= 0.0 && shape[0] <= 0.0;
    }
    (1..horizon).all(|t| (tail[t] / t0 - shape[t]).abs() <= SHAPE_EPS)
}

/// Cap on the signatures a [`ShapeMemo`] remembers, so a summary of many
/// distinct shapes pays a bounded scan per request, not one over every
/// earlier request.
const MEMO_CAP: usize = 4 * MAX_SHAPE_BUCKETS;

/// Signatures already classified under one [`SlotPlan`], each with the shape
/// bucket its tail landed in.  Where the plan is linear in a signature
/// ([`SlotPlan::linear_in`]), a [`sig_scale`]-proportional signature has a
/// proportional tail, so it joins the same bucket without its tail ever
/// being materialized.
struct ShapeMemo<'a> {
    plan: &'a SlotPlan,
    exemplars: Vec<(usize, &'a TailSignature)>,
}

/// What [`ShapeMemo::classify`] found for one signature.
enum Classified {
    /// The tail has the shape of this bucket.
    Bucket(usize),
    /// The (materialized) tail matches no known shape.
    Unmatched(Vec<f64>),
}

impl<'a> ShapeMemo<'a> {
    fn new(plan: &'a SlotPlan) -> Self {
        ShapeMemo {
            plan,
            exemplars: Vec::new(),
        }
    }

    /// Classifies `sig` against `shapes` (bucket shapes in bucket order): by
    /// signature if a remembered one is proportional to it, else by
    /// materializing its tail and matching that.  (Proportional signatures
    /// have equal explicit sets, so `sig` is linear under the plan because
    /// the remembered one is.)
    fn classify<'s>(
        &mut self,
        sig: &'a TailSignature,
        mut shapes: impl Iterator<Item = &'s [f64]>,
    ) -> Classified {
        let known = self
            .exemplars
            .iter()
            .find(|(_, exemplar)| sig_scale(exemplar, sig).is_some());
        if let Some(&(bucket, _)) = known {
            return Classified::Bucket(bucket);
        }
        let tail = self.plan.tail_for(sig);
        let horizon = self.plan.slots.len();
        match shapes.position(|shape| tail_matches_shape(&tail, shape, horizon)) {
            Some(bucket) => {
                self.record(bucket, sig);
                Classified::Bucket(bucket)
            }
            None => Classified::Unmatched(tail),
        }
    }

    /// Remembers that `sig`'s materialized tail has the shape of `bucket`.
    fn record(&mut self, bucket: usize, sig: &'a TailSignature) {
        if self.exemplars.len() < MEMO_CAP && self.plan.linear_in(sig) {
            self.exemplars.push((bucket, sig));
        }
    }
}

impl HorizonModel {
    /// Builds the model from a prediction summary.
    ///
    /// `horizon` is the number of slots in a full schedule (the client cache
    /// size in blocks), `slot_duration` the time to place one block on the
    /// network at the current bandwidth estimate, and `gamma` the future
    /// discount from Eq. 1 (`1.0` = all timesteps matter equally).
    pub fn build(
        summary: &PredictionSummary,
        horizon: usize,
        slot_duration: Duration,
        gamma: f64,
    ) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        let slices = summary.slices();
        let materialized = summary.materialized_requests(); // sorted ascending
        let plan = SlotPlan::new(summary, horizon, slot_duration, gamma);
        let sigs: Vec<TailSignature> = materialized
            .iter()
            .map(|&r| signature_of(slices, r))
            .collect();

        // Classify by signature first: a request proportional to an already
        // classified one joins its bucket with a scalar coefficient.  Only
        // the first request of each shape, and whatever the memo cannot
        // prove, materializes a tail and is matched against the bucket
        // shapes.  Requests are visited in ascending id order, so a bucket's
        // representative is its lowest member and member lists are sorted.
        let mut partition = TailShapePartition::default();
        let mut explicit = HashMap::with_capacity(materialized.len());
        let mut memo = ShapeMemo::new(&plan);
        for (&r, sig) in materialized.iter().zip(&sigs) {
            let shapes = partition.buckets.iter().map(|b| b.shape.as_slice());
            let bucket = match memo.classify(sig, shapes) {
                Classified::Bucket(b) => b,
                Classified::Unmatched(tail) if partition.buckets.len() < MAX_SHAPE_BUCKETS => {
                    let b = partition.buckets.len();
                    partition.buckets.push(ShapeBucket {
                        rep: r,
                        members: Vec::new(),
                        shape: normalized_shape(&tail),
                    });
                    memo.record(b, sig);
                    b
                }
                Classified::Unmatched(tail) => {
                    partition.irregular.push(r);
                    explicit.insert(r, ExplicitTail::Full(tail));
                    continue;
                }
            };
            partition.buckets[bucket].members.push(r);
            explicit.insert(
                r,
                ExplicitTail::Scaled {
                    bucket: bucket as u32,
                    coef: plan.tail0_for(sig),
                },
            );
        }

        HorizonModel {
            n: summary.num_requests(),
            horizon,
            slot_duration,
            gamma,
            explicit,
            residual: plan.residual_tail(),
            partition,
            skeleton: plan.skeleton(),
            signatures: materialized.iter().copied().zip(sigs).collect(),
            materialized_ids: materialized,
            slice_deltas: slices.iter().map(|s| s.delta).collect(),
        }
    }

    /// A model where every request is uniformly likely at every slot.
    pub fn uniform(n: usize, horizon: usize, slot_duration: Duration, gamma: f64) -> Self {
        let summary = PredictionSummary::uniform(n, crate::types::Time::ZERO);
        Self::build(&summary, horizon, slot_duration, gamma)
    }

    /// Number of requests in the space.
    pub fn num_requests(&self) -> usize {
        self.n
    }

    /// Number of slots in the horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Duration of one slot.
    pub fn slot_duration(&self) -> Duration {
        self.slot_duration
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The requests with materialized (non-residual) tails, in unspecified
    /// order — callers that feed parity-sensitive state must sort.
    pub fn materialized(&self) -> impl Iterator<Item = RequestId> + '_ {
        // lint:allow(hash-iter) -- documented unordered; the one hot-path caller sorts (rebuild_touched)
        self.explicit.keys().copied()
    }

    /// Number of materialized requests.
    pub fn materialized_count(&self) -> usize {
        self.explicit.len()
    }

    /// Whether `request` has a materialized tail.
    pub fn is_materialized(&self, request: RequestId) -> bool {
        self.explicit.contains_key(&request)
    }

    /// The materialized requests grouped by tail shape (see
    /// [`TailShapePartition`]).
    pub fn shape_partition(&self) -> &TailShapePartition {
        &self.partition
    }

    /// The shape factor `s(t)` of shape bucket `b` at slot `t` (`0` for
    /// all-zero buckets).
    pub fn shape_factor(&self, b: usize, t: usize) -> f64 {
        self.partition.buckets[b].shape[t.min(self.horizon)]
    }

    /// Tail mass of `request` from slot `t` (clamped to the horizon) onward.
    pub fn tail(&self, request: RequestId, t: usize) -> f64 {
        let t = t.min(self.horizon);
        match self.explicit.get(&request) {
            Some(&ExplicitTail::Scaled { bucket, coef }) => {
                coef * self.partition.buckets[bucket as usize].shape[t]
            }
            Some(ExplicitTail::Full(v)) => v[t],
            None => self.residual[t],
        }
    }

    /// Where `request` sits in the explicit layout, if materialized.
    pub fn placement(&self, request: RequestId) -> Option<ExplicitPlacement> {
        self.explicit.get(&request).map(|e| match e {
            ExplicitTail::Scaled { bucket, .. } => ExplicitPlacement::Bucket(*bucket as usize),
            ExplicitTail::Full(_) => ExplicitPlacement::Irregular,
        })
    }

    /// Tail mass of a single non-materialized (residual) request.
    pub fn residual_tail(&self, t: usize) -> f64 {
        self.residual[t.min(self.horizon)]
    }

    /// Applies a whole summary as if it were a delta: the changed set is
    /// every request materialized before or after it, the scalars are
    /// [`SummaryScalars::of`](crate::delta::SummaryScalars::of) the summary,
    /// and [`apply_update_sparse`](HorizonModel::apply_update_sparse) does
    /// the rest.  Deriving both by a full scan is the reference: the
    /// `sparse_planner` tests hold what a
    /// [`ShadowSummary`](crate::delta::ShadowSummary) maintains to it (same
    /// [`ModelDiff`], bit-identical model).  No scheduler calls it — a whole
    /// summary installs [`HorizonModel::build`], which costs the same scan —
    /// but the repo benchmark's shadow model times it.
    pub fn apply_update(&mut self, summary: &PredictionSummary) -> Option<ModelDiff> {
        let (old, new) = (&self.materialized_ids, summary.materialized_requests());
        let mut changed = Vec::with_capacity(old.len() + new.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            let (o, nw) = (old[i], new[j]);
            changed.push(o.min(nw));
            i += usize::from(o <= nw);
            j += usize::from(nw <= o);
        }
        changed.extend_from_slice(&old[i..]);
        changed.extend_from_slice(&new[j..]);
        let scalars = crate::delta::SummaryScalars::of(summary);
        let changes = crate::delta::PredictionChanges { changed, scalars };
        self.apply_update_sparse(summary, &changes)
    }

    /// Applies a prediction delta *incrementally*: keeps tails and bucket
    /// membership for requests whose signature is unchanged, rescales
    /// shape-preserving changes in `O(1)`, and recomputes + reclassifies only
    /// the structurally changed set.  `changes.changed` lists (a provably
    /// complete superset of) the requests whose per-slice probabilities
    /// differ from the summary this model was built from, and
    /// `changes.scalars` carries the per-slice masses and adjacent-union
    /// counts the slot plan needs — both produced by the per-session
    /// [`ShadowSummary`](crate::delta::ShadowSummary) while patching the
    /// client's delta in — so planning is `O(Δ · slices)`, plus one pass of
    /// scalar arithmetic per slot over the skeleton kept from the build.
    /// Returns the [`ModelDiff`] a sampler mirroring the layout needs to
    /// apply matching point updates.
    ///
    /// Returns `None` — leaving the model untouched — when the update cannot
    /// be applied as a small diff and the caller must fall back to
    /// [`HorizonModel::build`]: a changed slice-offset set, a structurally
    /// changed set larger than `max(64, m/4)`, or a new tail shape arriving
    /// while the bucket cap is reached with stale (empty) buckets worth
    /// reclaiming.
    pub fn apply_update_sparse(
        &mut self,
        summary: &PredictionSummary,
        changes: &crate::delta::PredictionChanges,
    ) -> Option<ModelDiff> {
        let slices = summary.slices();
        if self.n != summary.num_requests()
            || slices.len() != self.slice_deltas.len()
            || slices
                .iter()
                .zip(&self.slice_deltas)
                .any(|(s, &d)| s.delta != d)
        {
            return None;
        }
        let scalars = &changes.scalars;
        if scalars.masses.len() != slices.len()
            || scalars.pair_unions.len() != slices.len().saturating_sub(1)
        {
            return None;
        }
        // --- phase 1: plan, visiting only the changed requests ---
        let mut new_sigs: HashMap<RequestId, TailSignature> =
            HashMap::with_capacity(changes.changed.len());
        let mut departed = Vec::new();
        let mut joined = Vec::new();
        let mut pending = Vec::new();
        let mut fast_rescale: Vec<(RequestId, f64)> = Vec::new();
        let mut prev: Option<RequestId> = None;
        for &r in &changes.changed {
            if prev.is_some_and(|p| p >= r) {
                // Malformed changed-set (unsorted/duplicated): refuse the
                // sparse path rather than risk a corrupt merge below.
                return None;
            }
            prev = Some(r);
            let sig = signature_of(slices, r);
            let now_materialized = sig.is_materialized();
            match (self.signatures.get(&r), now_materialized) {
                (Some(old_sig), true) => {
                    if *old_sig != sig {
                        match sig_scale(old_sig, &sig) {
                            Some(c) => fast_rescale.push((r, c)),
                            None => pending.push(r),
                        }
                    }
                    new_sigs.insert(r, sig);
                }
                (Some(_), false) => departed.push(r),
                (None, true) => {
                    joined.push(r);
                    pending.push(r);
                    new_sigs.insert(r, sig);
                }
                (None, false) => {}
            }
        }
        let new_len = self.materialized_ids.len() - departed.len() + joined.len();
        let max_changed = (new_len / 4).max(64);
        if departed.len() + joined.len() + pending.len() > max_changed {
            return None;
        }
        // Splice departures/joins into the sorted id list: a flat merge with
        // no per-id signature work.  It is the one O(m) term left here (a
        // straight memcpy), and only an update that changes the materialized
        // set pays it; a rescale-only delta keeps the list it has.
        let new_ids = (!departed.is_empty() || !joined.is_empty())
            .then(|| splice_sorted(&self.materialized_ids, &departed, &joined));

        let plan = SlotPlan::from_scalars(summary, &self.skeleton, scalars);
        self.apply_planned(
            &plan,
            departed,
            joined,
            pending,
            fast_rescale,
            &new_sigs,
            new_ids,
        )
    }

    /// Back half of [`apply_update_sparse`](HorizonModel::apply_update_sparse):
    /// classifies the pending tails against bucket shapes (read-only; may
    /// still bail to a full rebuild) and then applies removals, placements,
    /// and rescales.
    /// `new_sigs` must cover `pending` and `fast_rescale`; `new_ids` is the
    /// new materialized set, `None` when it is the old one.
    #[allow(clippy::too_many_arguments)]
    fn apply_planned(
        &mut self,
        plan: &SlotPlan,
        departed: Vec<RequestId>,
        joined: Vec<RequestId>,
        pending: Vec<RequestId>,
        fast_rescale: Vec<(RequestId, f64)>,
        new_sigs: &HashMap<RequestId, TailSignature>,
        new_ids: Option<Vec<RequestId>>,
    ) -> Option<ModelDiff> {
        // Classify the pending requests against existing bucket shapes (and
        // shapes created earlier in this same update) — by signature where
        // the memo can prove the shape, by materialized tail otherwise.
        let mut new_buckets: Vec<(RequestId, Vec<f64>)> = Vec::new(); // (rep, shape)
        let mut placed: Vec<(RequestId, ExplicitPlacement)> = Vec::new();
        let mut removed_moves: Vec<RequestId> = Vec::new();
        let mut rescaled: Vec<RequestId> = Vec::new();
        // Tails of the requests that end up irregular (keyed lookup only,
        // never iterated, so hash ordering cannot leak into the model).
        let mut full_tails: HashMap<RequestId, Vec<f64>> = HashMap::new();
        let mut memo = ShapeMemo::new(plan);
        let any_empty_bucket = self.partition.buckets.iter().any(|b| b.members.is_empty());
        for &r in &pending {
            let sig = &new_sigs[&r];
            let old = self.placement(r);
            let known = self.partition.buckets.len() + new_buckets.len();
            let shapes = self
                .partition
                .buckets
                .iter()
                .map(|b| b.shape.as_slice())
                .chain(new_buckets.iter().map(|(_, s)| s.as_slice()));
            let bucket = match memo.classify(sig, shapes) {
                Classified::Bucket(tb) => tb,
                Classified::Unmatched(tail) if known < MAX_SHAPE_BUCKETS => {
                    new_buckets.push((r, normalized_shape(&tail)));
                    memo.record(known, sig);
                    known
                }
                // The cap is hit but stale shapes are hogging it: a full
                // rebuild reclaims them.
                Classified::Unmatched(_) if any_empty_bucket => return None,
                Classified::Unmatched(tail) => {
                    match old {
                        Some(ExplicitPlacement::Irregular) => rescaled.push(r),
                        Some(ExplicitPlacement::Bucket(_)) => {
                            removed_moves.push(r);
                            placed.push((r, ExplicitPlacement::Irregular));
                        }
                        None => placed.push((r, ExplicitPlacement::Irregular)),
                    }
                    full_tails.insert(r, tail);
                    continue;
                }
            };
            if old == Some(ExplicitPlacement::Bucket(bucket)) {
                rescaled.push(r);
            } else {
                if old.is_some() {
                    removed_moves.push(r);
                }
                placed.push((r, ExplicitPlacement::Bucket(bucket)));
            }
        }

        // --- phase 2: apply ---
        // Structural removals (departures + moves), grouped by spot.
        let mut removed: Vec<RequestId> = Vec::with_capacity(departed.len() + removed_moves.len());
        removed.extend(departed.iter().copied());
        removed.extend(removed_moves.iter().copied());
        if !removed.is_empty() {
            let mut from_bucket: Vec<Vec<RequestId>> =
                vec![Vec::new(); self.partition.buckets.len()];
            let mut from_irregular: Vec<RequestId> = Vec::new();
            for &r in &removed {
                // lint:allow(unwrap) -- diff-plan invariant: departures are drawn from the materialized set
                match self.placement(r).expect("removed request is materialized") {
                    ExplicitPlacement::Bucket(b) => from_bucket[b].push(r),
                    ExplicitPlacement::Irregular => from_irregular.push(r),
                }
            }
            // Sorted so membership is a binary search: one pass over each
            // affected member list, whatever the number of removals.
            for (b, mut dead) in from_bucket.into_iter().enumerate() {
                if !dead.is_empty() {
                    dead.sort_unstable();
                    self.partition.buckets[b]
                        .members
                        .retain(|r| dead.binary_search(r).is_err());
                }
            }
            if !from_irregular.is_empty() {
                from_irregular.sort_unstable();
                self.partition
                    .irregular
                    .retain(|r| from_irregular.binary_search(r).is_err());
            }
        }
        for &r in &departed {
            self.explicit.remove(&r);
            self.signatures.remove(&r);
        }
        for (rep, shape) in new_buckets.iter().cloned() {
            self.partition.buckets.push(ShapeBucket {
                rep,
                members: Vec::new(),
                shape,
            });
        }
        // Placements (joins + moves): append membership, install tails.
        for &(r, p) in &placed {
            let sig = &new_sigs[&r];
            let tail = match p {
                ExplicitPlacement::Bucket(b) => {
                    self.partition.buckets[b].members.push(r);
                    ExplicitTail::Scaled {
                        bucket: b as u32,
                        coef: plan.tail0_for(sig),
                    }
                }
                ExplicitPlacement::Irregular => {
                    self.partition.irregular.push(r);
                    // lint:allow(unwrap) -- diff-plan invariant: the plan phase kept the tail of every request it sent to the irregular set; silent skip would corrupt the model
                    ExplicitTail::Full(full_tails.remove(&r).expect("irregular request has a tail"))
                }
            };
            self.explicit.insert(r, tail);
            self.signatures.insert(r, sig.clone());
        }
        // In-place recomputes (same spot, new exact coefficient or tail).
        for &r in &rescaled {
            let sig = &new_sigs[&r];
            match self
                .explicit
                .get_mut(&r)
                // lint:allow(unwrap) -- diff-plan invariant: rescaled requests stay materialized; loud failure beats silent model corruption
                .expect("rescaled request is materialized")
            {
                ExplicitTail::Scaled { coef, .. } => *coef = plan.tail0_for(sig),
                ExplicitTail::Full(v) => {
                    // lint:allow(unwrap) -- diff-plan invariant: the plan phase kept the tail of every request it left in the irregular set
                    *v = full_tails.remove(&r).expect("irregular request has a tail");
                }
            }
            self.signatures.insert(r, sig.clone());
        }
        // O(1) shape-preserving rescales.
        for &(r, c) in &fast_rescale {
            match self
                .explicit
                .get_mut(&r)
                // lint:allow(unwrap) -- diff-plan invariant: rescaled requests stay materialized; loud failure beats silent model corruption
                .expect("rescaled request is materialized")
            {
                ExplicitTail::Scaled { coef, .. } => *coef *= c,
                ExplicitTail::Full(v) => v.iter_mut().for_each(|x| *x *= c),
            }
            self.signatures.insert(r, new_sigs[&r].clone());
            rescaled.push(r);
        }
        rescaled.sort_unstable();
        self.residual = plan.residual_tail();
        if let Some(new_ids) = new_ids {
            self.materialized_ids = new_ids;
        }

        Some(ModelDiff {
            departed,
            joined,
            removed,
            placed,
            rescaled,
            buckets_added: new_buckets.len(),
        })
    }
}

/// `(base \ departed) ∪ joined`, all three inputs sorted ascending;
/// `departed ⊆ base` and `joined ∩ base = ∅`.
fn splice_sorted(
    base: &[RequestId],
    departed: &[RequestId],
    joined: &[RequestId],
) -> Vec<RequestId> {
    let mut out = Vec::with_capacity(base.len() + joined.len() - departed.len());
    let (mut d, mut j) = (0usize, 0usize);
    for &r in base {
        while j < joined.len() && joined[j] < r {
            out.push(joined[j]);
            j += 1;
        }
        if d < departed.len() && departed[d] == r {
            d += 1;
            continue;
        }
        out.push(r);
    }
    out.extend_from_slice(&joined[j..]);
    out
}

/// Builds the per-slice signature of `r` under `slices`.
fn signature_of(slices: &[crate::distribution::HorizonSlice], r: RequestId) -> TailSignature {
    TailSignature(
        slices
            .iter()
            .map(|s| {
                let entries = s.dist.explicit_entries();
                match entries.binary_search_by_key(&r, |&(x, _)| x) {
                    Ok(i) => SliceProb {
                        p: entries[i].1,
                        explicit: true,
                    },
                    Err(_) => SliceProb {
                        p: s.dist.residual_per_request(),
                        explicit: false,
                    },
                }
            })
            .collect(),
    )
}

/// Detects a shape-preserving signature change: `new ≈ c · old` elementwise
/// for a single scalar `c > 0`, within a tight tolerance (so repeated `O(1)`
/// coefficient rescales cannot drift).  Returns the scale on success.
fn sig_scale(old: &TailSignature, new: &TailSignature) -> Option<f64> {
    let (old, new) = (&old.0, &new.0);
    if old.iter().zip(new).any(|(o, q)| o.explicit != q.explicit) {
        return None;
    }
    let (anchor, p_anchor) = old
        .iter()
        .map(|s| s.p)
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))?;
    if p_anchor <= 0.0 {
        // All-zero old signature: proportional only to an all-zero new one.
        // lint:allow(float-eq) -- exact all-zero signature detection; zeros are stored, not computed
        return new.iter().all(|q| q.p == 0.0).then_some(1.0);
    }
    let c = new[anchor].p / p_anchor;
    if !(c.is_finite() && c > 0.0) {
        return None;
    }
    let tol = 1e-12 * c * p_anchor;
    old.iter()
        .zip(new)
        .all(|(o, q)| (q.p - c * o.p).abs() <= tol)
        .then_some(c)
}

/// Scalar per-slot interpolation plan over a prediction summary: recovers
/// per-slot probabilities, renormalization totals, and residuals without
/// materializing an interpolated distribution per slot — the
/// `O(m · slices + horizon)` replacement for calling
/// [`PredictionSummary::at`] on every slot, shared by
/// [`HorizonModel::build`] and the diff path.
struct SlotPlan {
    n: usize,
    /// `(a, b, frac)` per slot: bracketing slice indices and blend fraction;
    /// `a == b` means the slot clamps to slice `a` (no renormalization).
    /// Part of the [`SlotSkeleton`].
    slots: Arc<[(u32, u32, f64)]>,
    /// Per-slot renormalization total (what `from_entries` divides by).
    totals: Vec<f64>,
    /// Per-slot residual-per-request after renormalization.
    resid_pp: Vec<f64>,
    /// Slots whose interpolated mass degenerated to zero (uniform fallback).
    uniform: Vec<bool>,
    /// The discount `γ^t` of each slot.  Part of the [`SlotSkeleton`].
    discount: Arc<[f64]>,
    /// Per slice, the discounted count of slots clamped to it: what one unit
    /// of probability at that slice adds to a tail's slot-0 value.
    clamp_weight: Vec<f64>,
    /// Per adjacent slice pair, the same for the slots blended between them.
    blend_weight: Vec<BlendWeight>,
    /// Slot-0 tail value every request collects from uniform-fallback slots.
    uniform_weight: f64,
}

/// The part of a [`SlotPlan`] that `(slice offsets, horizon, slot_duration,
/// γ)` fix by themselves: no prediction over the same slices moves it, so a
/// [`HorizonModel`] keeps the one its build derived and every delta's plan
/// shares it — same bits, without a `powi` and a bracket search per slot per
/// update.
#[derive(Debug, Clone)]
struct SlotSkeleton {
    /// See [`SlotPlan::slots`].
    slots: Arc<[(u32, u32, f64)]>,
    /// See [`SlotPlan::discount`].
    discount: Arc<[f64]>,
}

impl SlotSkeleton {
    fn new(
        slices: &[crate::distribution::HorizonSlice],
        horizon: usize,
        slot_duration: Duration,
        gamma: f64,
    ) -> Self {
        let slots = (0..horizon as u64)
            .map(|k| {
                // Slots are evaluated at their midpoint.
                let delta = Duration::from_micros(
                    slot_duration.as_micros() * k + slot_duration.as_micros() / 2,
                );
                // The pair of slices bracketing the slot, or the end slice
                // the slot clamps to.
                let bracket = if delta <= slices[0].delta {
                    Err(0)
                } else {
                    slices
                        .windows(2)
                        .position(|w| delta <= w[1].delta)
                        .ok_or(slices.len() - 1)
                };
                match bracket {
                    Err(s) => (s as u32, s as u32, 0.0),
                    Ok(pi) => {
                        let (lo, hi) = (
                            slices[pi].delta.as_micros(),
                            slices[pi + 1].delta.as_micros(),
                        );
                        let span = (hi - lo) as f64;
                        let frac = if span <= 0.0 {
                            1.0
                        } else {
                            (delta.as_micros() - lo) as f64 / span
                        };
                        (pi as u32, (pi + 1) as u32, frac)
                    }
                }
            })
            .collect();
        SlotSkeleton {
            slots,
            discount: (0..horizon).map(|t| gamma.powi(t as i32)).collect(),
        }
    }
}

/// Adjacent-pair scalars: |A ∪ B| and each side's probability mass over the
/// union (explicit mass plus residual coverage of the other side's extra
/// entries).
struct Pair {
    union: usize,
    sum_a: f64,
    sum_b: f64,
}

/// What the slots blended between slices `a` and `a + 1` contribute to a
/// tail's slot-0 value: `on_a · p_a + on_b · p_b` for a request explicit on
/// either side, the constant `residual` for one explicit on neither.
#[derive(Clone, Default)]
struct BlendWeight {
    /// Whether any slot of the horizon falls between the two slices.
    reached: bool,
    on_a: f64,
    on_b: f64,
    residual: f64,
}

impl SlotPlan {
    fn new(
        summary: &PredictionSummary,
        horizon: usize,
        slot_duration: Duration,
        gamma: f64,
    ) -> Self {
        let skeleton = SlotSkeleton::new(summary.slices(), horizon, slot_duration, gamma);
        let scalars = crate::delta::SummaryScalars::of(summary);
        Self::from_scalars(summary, &skeleton, &scalars)
    }

    /// The skeleton this plan was laid over, for the model to keep.
    fn skeleton(&self) -> SlotSkeleton {
        SlotSkeleton {
            slots: self.slots.clone(),
            discount: self.discount.clone(),
        }
    }

    /// Builds the plan over a kept skeleton from the summary's per-slice
    /// masses and adjacent-union counts, whether derived by a scan or
    /// maintained by the shadow (same bits either way, see
    /// [`crate::delta::SummaryScalars`]).
    fn from_scalars(
        summary: &PredictionSummary,
        skeleton: &SlotSkeleton,
        scalars: &crate::delta::SummaryScalars,
    ) -> Self {
        let (mass, unions) = (&scalars.masses, &scalars.pair_unions);
        let slices = summary.slices();
        let n = summary.num_requests();
        let count: Vec<usize> = slices
            .iter()
            .map(|s| s.dist.explicit_entries().len())
            .collect();
        let rpp: Vec<f64> = slices
            .iter()
            .map(|s| s.dist.residual_per_request())
            .collect();
        let pairs: Vec<Pair> = unions
            .iter()
            .enumerate()
            .map(|(i, &union)| Pair {
                union,
                sum_a: mass[i] + (union - count[i]) as f64 * rpp[i],
                sum_b: mass[i + 1] + (union - count[i + 1]) as f64 * rpp[i + 1],
            })
            .collect();

        let SlotSkeleton { slots, discount } = skeleton.clone();
        let horizon = slots.len();
        let mut totals = Vec::with_capacity(horizon);
        let mut resid_pp = Vec::with_capacity(horizon);
        let mut uniform = vec![false; horizon];
        let mut clamp_weight = vec![0.0; slices.len()];
        let mut blend_weight = vec![BlendWeight::default(); pairs.len()];
        let mut uniform_weight = 0.0;
        for (k, (&d, &(a, b, frac))) in discount.iter().zip(slots.iter()).enumerate() {
            if a == b {
                totals.push(1.0);
                resid_pp.push(rpp[a as usize]);
                clamp_weight[a as usize] += d;
                continue;
            }
            let pi = a as usize;
            let p = &pairs[pi];
            let e = (1.0 - frac) * p.sum_a + frac * p.sum_b;
            let resid_raw = if p.union >= n {
                0.0
            } else {
                (1.0 - e).max(0.0)
            };
            let total = e + resid_raw;
            let weight = &mut blend_weight[pi];
            weight.reached = true;
            if total <= 0.0 {
                uniform[k] = true;
                totals.push(1.0);
                resid_pp.push(1.0 / n as f64);
                uniform_weight += d / n as f64;
            } else {
                let resid = if p.union >= n {
                    0.0
                } else {
                    (resid_raw / total) / (n - p.union) as f64
                };
                totals.push(total);
                resid_pp.push(resid);
                weight.on_a += d * (1.0 - frac) / total;
                weight.on_b += d * frac / total;
                weight.residual += d * resid;
            }
        }
        SlotPlan {
            n,
            slots,
            totals,
            resid_pp,
            uniform,
            discount,
            clamp_weight,
            blend_weight,
            uniform_weight,
        }
    }

    /// Whether the tail of a request with signature `sig` is linear in the
    /// signature's probabilities, so that proportional signatures (which
    /// share `sig`'s explicit set) have proportional tails.  It is unless
    /// some slot feeds it a probability that does not scale with them: the
    /// residual of a blended slot whose two slices both lack an explicit
    /// entry, or a uniform-fallback slot's `1 / n`.
    fn linear_in(&self, sig: &TailSignature) -> bool {
        self.uniform_weight <= 0.0
            && self
                .blend_weight
                .iter()
                .zip(sig.0.windows(2))
                .all(|(w, s)| !w.reached || s[0].explicit || s[1].explicit)
    }

    /// `tail_for(sig)[0]` — the coefficient of a bucketed request — in
    /// `O(slices)`, from the per-slice weights.  (Equal to the materialized
    /// vector's head up to summation order; the model stores this one for
    /// every bucket member, whichever path classified it.)
    fn tail0_for(&self, sig: &TailSignature) -> f64 {
        let clamped: f64 = self
            .clamp_weight
            .iter()
            .zip(&sig.0)
            .map(|(w, s)| w * s.p)
            .sum();
        let blended: f64 = self
            .blend_weight
            .iter()
            .zip(sig.0.windows(2))
            .map(|(w, s)| {
                if s[0].explicit || s[1].explicit {
                    w.on_a * s[0].p + w.on_b * s[1].p
                } else {
                    w.residual
                }
            })
            .sum();
        self.uniform_weight + clamped + blended
    }

    /// The discounted suffix sums of per-slot probabilities `p(t)`:
    /// `tail[t] = Σ_{k ≥ t} γ^k · p(k)`, with `tail[horizon] = 0`.
    fn suffix(&self, p: impl Fn(usize) -> f64) -> Vec<f64> {
        let horizon = self.slots.len();
        let mut tail = vec![0.0; horizon + 1];
        for t in (0..horizon).rev() {
            tail[t] = tail[t + 1] + self.discount[t] * p(t);
        }
        tail
    }

    /// The discounted residual tail (`suffix` of the per-slot residuals).
    fn residual_tail(&self) -> Vec<f64> {
        self.suffix(|t| self.resid_pp[t])
    }

    /// The discounted tail of a request with signature `sig`.
    fn tail_for(&self, sig: &TailSignature) -> Vec<f64> {
        self.suffix(|t| {
            if self.uniform[t] {
                return 1.0 / self.n as f64;
            }
            let (a, b, frac) = self.slots[t];
            let (on_a, on_b) = (sig.0[a as usize], sig.0[b as usize]);
            if a == b {
                on_a.p
            } else if on_a.explicit || on_b.explicit {
                ((1.0 - frac) * on_a.p + frac * on_b.p) / self.totals[t]
            } else {
                self.resid_pp[t]
            }
        })
    }
}

/// Evaluates the expected utility of a schedule under a horizon model — the
/// objective of Eq. 2 — assuming the client cache starts from the allocation
/// `initial` (blocks already cached per request).
///
/// This is the yardstick used to compare the greedy and optimal schedulers
/// (Figure 17).
pub fn schedule_expected_utility(
    schedule: &[BlockRef],
    model: &HorizonModel,
    utility: &UtilityModel,
    initial: &HashMap<RequestId, u32>,
) -> f64 {
    let mut held: HashMap<RequestId, u32> = initial.clone();
    let mut total = 0.0;
    for (k, b) in schedule.iter().enumerate().take(model.horizon()) {
        let have = held.entry(b.request).or_insert(0);
        *have += 1;
        let blocks_now = *have;
        // The newly delivered block contributes its marginal gain for every
        // remaining slot in the horizon, weighted by the probability the user
        // asks for this request then — identical to the U^t_{i,j} coefficient
        // of Eq. 3.
        let gain = utility.table(b.request.index()).gain(blocks_now);
        total += gain * model.tail(b.request, k);
    }
    // Blocks already cached at the start contribute over the whole horizon.
    // Summed in request order: float addition is not associative, and this
    // score is compared bit-for-bit across scheduler variants.
    // lint:allow(hash-iter) -- snapshot is sorted on the next line
    let mut cached: Vec<(RequestId, u32)> = initial.iter().map(|(&r, &b)| (r, b)).collect();
    cached.sort_unstable();
    for (r, b) in cached {
        total += utility.table(r.index()).step(b) * model.tail(r, 0);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{HorizonSlice, SparseDistribution};
    use crate::types::Time;
    use crate::utility::LinearUtility;

    fn summary_point(n: usize, r: RequestId) -> PredictionSummary {
        PredictionSummary::point(n, r, Time::ZERO)
    }

    /// Per-slot probability of `request` at slot `k` (recovered from the
    /// discounted suffix sums).
    fn slot_prob(m: &HorizonModel, request: RequestId, k: usize) -> f64 {
        if k >= m.horizon {
            return 0.0;
        }
        let d = m.gamma.powi(k as i32);
        if d <= 0.0 {
            return 0.0;
        }
        (m.tail(request, k) - m.tail(request, k + 1)) / d
    }

    #[test]
    fn uniform_model_tails_decrease() {
        let m = HorizonModel::uniform(10, 8, Duration::from_millis(10), 1.0);
        assert_eq!(m.horizon(), 8);
        assert_eq!(m.materialized_count(), 0);
        let t0 = m.tail(RequestId(3), 0);
        let t4 = m.tail(RequestId(3), 4);
        assert!(t0 > t4);
        assert_eq!(m.tail(RequestId(3), 8), 0.0);
        // Uniform: every request has the same tail.
        assert!((m.tail(RequestId(0), 2) - m.tail(RequestId(9), 2)).abs() < 1e-12);
        // Tail at 0 is horizon * (1/n).
        assert!((t0 - 8.0 * 0.1).abs() < 1e-9);
    }

    #[test]
    fn point_model_concentrates_mass() {
        let m = HorizonModel::build(
            &summary_point(10, RequestId(2)),
            5,
            Duration::from_millis(20),
            1.0,
        );
        assert!(m.is_materialized(RequestId(2)));
        assert!(!m.is_materialized(RequestId(3)));
        assert!((m.tail(RequestId(2), 0) - 5.0).abs() < 1e-9);
        assert_eq!(m.tail(RequestId(3), 0), 0.0);
        assert_eq!(m.materialized_count(), 1);
    }

    #[test]
    fn gamma_discounts_future() {
        let m = HorizonModel::build(
            &summary_point(4, RequestId(0)),
            4,
            Duration::from_millis(10),
            0.5,
        );
        // tail(0) = 1 + 0.5 + 0.25 + 0.125 = 1.875
        assert!((m.tail(RequestId(0), 0) - 1.875).abs() < 1e-9);
        // slot probabilities recover the undiscounted per-slot values.
        assert!((slot_prob(&m, RequestId(0), 3) - 1.0).abs() < 1e-9);
        assert_eq!(slot_prob(&m, RequestId(0), 4), 0.0);
    }

    #[test]
    fn time_varying_prediction_shifts_mass() {
        // Request 0 likely soon, request 1 likely later.
        let slices = vec![
            HorizonSlice {
                delta: Duration::from_millis(10),
                dist: SparseDistribution::point(4, RequestId(0)),
            },
            HorizonSlice {
                delta: Duration::from_millis(400),
                dist: SparseDistribution::point(4, RequestId(1)),
            },
        ];
        let s = PredictionSummary::new(4, slices, Time::ZERO);
        let m = HorizonModel::build(&s, 40, Duration::from_millis(10), 1.0);
        // Early slots favor request 0; late slots favor request 1.
        assert!(slot_prob(&m, RequestId(0), 0) > slot_prob(&m, RequestId(1), 0));
        assert!(slot_prob(&m, RequestId(1), 39) > slot_prob(&m, RequestId(0), 39));
    }

    #[test]
    fn expected_utility_prefers_probable_requests() {
        let n = 4;
        let m = HorizonModel::build(
            &summary_point(n, RequestId(1)),
            4,
            Duration::from_millis(10),
            1.0,
        );
        let u = UtilityModel::homogeneous(&LinearUtility, 4);
        let empty = HashMap::new();
        let good: Schedule = (0..4).map(|j| BlockRef::new(RequestId(1), j)).collect();
        let bad: Schedule = (0..4).map(|j| BlockRef::new(RequestId(0), j)).collect();
        let vg = schedule_expected_utility(&good, &m, &u, &empty);
        let vb = schedule_expected_utility(&bad, &m, &u, &empty);
        assert!(vg > vb);
        assert!(vg > 0.0);
        assert_eq!(vb, 0.0);
    }

    #[test]
    fn expected_utility_counts_initial_cache() {
        let n = 2;
        let m = HorizonModel::uniform(n, 4, Duration::from_millis(10), 1.0);
        let u = UtilityModel::homogeneous(&LinearUtility, 4);
        let mut initial = HashMap::new();
        initial.insert(RequestId(0), 2u32);
        let v_empty_schedule = schedule_expected_utility(&[], &m, &u, &initial);
        assert!(v_empty_schedule > 0.0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        HorizonModel::uniform(4, 0, Duration::from_millis(1), 1.0);
    }

    /// A summary whose slices all share one distribution: every materialized
    /// tail is proportional (per-slot probability is constant over slots).
    fn flat_summary(n: usize, entries: Vec<(RequestId, f64)>, residual: f64) -> PredictionSummary {
        let dist = SparseDistribution::from_entries(n, entries, residual);
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .map(|delta| HorizonSlice {
                delta,
                dist: dist.clone(),
            })
            .collect();
        PredictionSummary::new(n, slices, Time::ZERO)
    }

    #[test]
    fn homogeneous_tails_share_one_bucket() {
        let s = flat_summary(
            100,
            vec![
                (RequestId(3), 0.4),
                (RequestId(11), 0.2),
                (RequestId(40), 0.1),
            ],
            0.3,
        );
        let m = HorizonModel::build(&s, 64, Duration::from_millis(5), 0.9);
        let p = m.shape_partition();
        assert_eq!(p.buckets.len(), 1, "{:?}", p);
        assert!(p.irregular.is_empty());
        assert_eq!(p.buckets[0].rep, RequestId(3));
        assert_eq!(
            p.buckets[0].members,
            vec![RequestId(3), RequestId(11), RequestId(40)]
        );
        assert_eq!(p.materialized_count(), m.materialized_count());
        // Factors recover the tails of every member, not just the rep.
        for t in 0..64 {
            for &r in &p.buckets[0].members {
                let lazy = m.tail(r, 0) * m.shape_factor(0, t);
                assert!((lazy - m.tail(r, t)).abs() <= 1e-12 * m.tail(r, 0).max(1.0));
            }
        }
        assert!((m.shape_factor(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_varying_tails_split_buckets() {
        // Request 0's mass decays over the horizon while request 1's grows:
        // their tails cannot be proportional, so they land in two buckets.
        let slices = vec![
            HorizonSlice {
                delta: Duration::from_millis(10),
                dist: SparseDistribution::point(4, RequestId(0)),
            },
            HorizonSlice {
                delta: Duration::from_millis(400),
                dist: SparseDistribution::point(4, RequestId(1)),
            },
        ];
        let s = PredictionSummary::new(4, slices, Time::ZERO);
        let m = HorizonModel::build(&s, 40, Duration::from_millis(10), 1.0);
        let p = m.shape_partition();
        assert_eq!(p.buckets.len(), 2);
        assert!(p.irregular.is_empty());
    }

    #[test]
    fn bucket_cap_overflows_to_irregular() {
        // Each request's per-slot probability interpolates between a
        // distinct pair of (early, late) weights, so all shapes differ and
        // the bucket cap forces the overflow into the irregular set.
        let n = 24;
        let early = SparseDistribution::from_weights(
            n,
            (0..n)
                .map(|i| (RequestId::from(i), (i + 1) as f64))
                .collect(),
        );
        let late = SparseDistribution::from_weights(
            n,
            (0..n)
                .map(|i| (RequestId::from(i), (n - i) as f64 * ((i % 7) + 1) as f64))
                .collect(),
        );
        let slices = vec![
            HorizonSlice {
                delta: Duration::from_millis(10),
                dist: early,
            },
            HorizonSlice {
                delta: Duration::from_millis(500),
                dist: late,
            },
        ];
        let s = PredictionSummary::new(n, slices, Time::ZERO);
        let m = HorizonModel::build(&s, 50, Duration::from_millis(10), 1.0);
        let p = m.shape_partition();
        assert_eq!(p.buckets.len(), super::MAX_SHAPE_BUCKETS);
        assert!(!p.irregular.is_empty());
        assert_eq!(p.materialized_count(), n);
        // Irregular ids stay ascending (deterministic layout).
        let mut sorted = p.irregular.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, p.irregular);
    }

    /// A summary over the default four deltas whose first two slices are
    /// `early` and last two `late`.
    fn early_late_summary(
        n: usize,
        early: SparseDistribution,
        late: SparseDistribution,
    ) -> PredictionSummary {
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .enumerate()
            .map(|(i, delta)| HorizonSlice {
                delta,
                dist: if i < 2 { early.clone() } else { late.clone() },
            })
            .collect();
        PredictionSummary::new(n, slices, Time::ZERO)
    }

    /// An [`early_late_summary`] — time-varying, so requests whose
    /// early/late balance changes change tail *shape*, not just magnitude.
    fn varying_summary(
        n: usize,
        early: Vec<(RequestId, f64)>,
        late: Vec<(RequestId, f64)>,
    ) -> PredictionSummary {
        early_late_summary(
            n,
            SparseDistribution::from_entries(n, early, 0.3),
            SparseDistribution::from_entries(n, late, 0.3),
        )
    }

    /// Asserts `diffed` (a model evolved via `apply_update`) agrees with a
    /// fresh build of the same summary on every tail, the residual, and the
    /// materialized set.
    fn assert_model_equiv(diffed: &HorizonModel, fresh: &HorizonModel) {
        assert_eq!(diffed.num_requests(), fresh.num_requests());
        let mut dm: Vec<RequestId> = diffed.materialized().collect();
        let mut fm: Vec<RequestId> = fresh.materialized().collect();
        dm.sort_unstable();
        fm.sort_unstable();
        assert_eq!(dm, fm, "materialized sets diverged");
        for t in 0..=diffed.horizon() {
            let (a, b) = (diffed.residual_tail(t), fresh.residual_tail(t));
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                "residual tail diverged at t={t}: {a} vs {b}"
            );
            for r in 0..diffed.num_requests() {
                let r = RequestId::from(r);
                let (a, b) = (diffed.tail(r, t), fresh.tail(r, t));
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                    "tail({r:?}, {t}) diverged: {a} vs {b}"
                );
            }
        }
    }

    /// Like [`varying_summary`], but the given probabilities are stored as
    /// they are (no renormalization), so changing one request's entry leaves
    /// every other request's signature bit-identical.
    fn exact_varying_summary(
        n: usize,
        early: Vec<(RequestId, f64)>,
        late: Vec<(RequestId, f64)>,
    ) -> PredictionSummary {
        early_late_summary(
            n,
            SparseDistribution::from_normalized(n, early, 0.5),
            SparseDistribution::from_normalized(n, late, 0.5),
        )
    }

    /// The strict half of the diff ≡ rebuild contract.  The diff path and
    /// [`HorizonModel::build`] evaluate one tail formula over bit-identical
    /// slot plans, so whatever an update *recomputes* equals a fresh build
    /// to the bit: the residual tail at every slot, a recomputed bucket
    /// member's coefficient (its tail at slot 0; later slots go through the
    /// bucket's stored shape, which may date from an older summary), and a
    /// recomputed irregular request's whole vector.  Returns how many
    /// requests were compared as (bucket members, irregular).
    fn assert_recomputed_bit_identical(
        diffed: &HorizonModel,
        fresh: &HorizonModel,
        recomputed: &[RequestId],
    ) -> (usize, usize) {
        use super::ExplicitPlacement::{Bucket, Irregular};
        for t in 0..=diffed.horizon() {
            assert_eq!(
                diffed.residual_tail(t).to_bits(),
                fresh.residual_tail(t).to_bits(),
                "residual tail bits diverged at t={t}"
            );
        }
        let (mut bucketed, mut irregular) = (0, 0);
        for &r in recomputed {
            match (diffed.placement(r), fresh.placement(r)) {
                (Some(Bucket(_)), Some(Bucket(_))) => {
                    bucketed += 1;
                    assert_eq!(
                        diffed.tail(r, 0).to_bits(),
                        fresh.tail(r, 0).to_bits(),
                        "coefficient bits of {r:?} diverged"
                    );
                }
                (Some(Irregular), Some(Irregular)) => {
                    irregular += 1;
                    for t in 0..=diffed.horizon() {
                        assert_eq!(
                            diffed.tail(r, t).to_bits(),
                            fresh.tail(r, t).to_bits(),
                            "tail({r:?}, {t}) bits diverged"
                        );
                    }
                }
                // Stored as a vector on one side and a coefficient on the
                // other: the tolerance of `assert_model_equiv` applies.
                _ => {}
            }
        }
        (bucketed, irregular)
    }

    #[test]
    fn apply_update_matches_fresh_build_across_overlapping_updates() {
        let n = 30;
        let horizon = 48;
        let slot = Duration::from_millis(5);
        // Twenty requests of twenty distinct early/late balances: more tail
        // shapes than the bucket cap.
        let twenty_shapes = |i: usize| {
            (
                (RequestId::from(i), 0.002 * (1 + i) as f64),
                (RequestId::from(i), 0.002 * (21 - i) as f64),
            )
        };
        let (mut early, mut late): (Vec<_>, Vec<_>) = (0..20).map(twenty_shapes).unzip();
        let overflow = exact_varying_summary(n, early.clone(), late.clone());
        // On top of it: 4 changes magnitude only, 9 takes 2's shape, 17 (an
        // irregular request) takes a shape of its own, 18 departs, and 25
        // joins with one more new shape.
        early[4].1 *= 1.5;
        late[4].1 *= 1.5;
        (early[9].1, late[9].1) = (2.0 * early[2].1, 2.0 * late[2].1);
        late[17].1 = 0.011;
        early.remove(18);
        late.remove(18);
        early.push((RequestId(25), 0.004));
        late.push((RequestId(25), 0.031));
        let churned = exact_varying_summary(n, early, late);
        // A drifting sequence: reweights (shape-preserving), joins,
        // departures, and a shape change (early/late balance flip).
        let summaries = [
            flat_summary(n, vec![(RequestId(3), 0.4), (RequestId(7), 0.2)], 0.4),
            // Reweight 3, join 12, keep 7.
            flat_summary(
                n,
                vec![
                    (RequestId(3), 0.3),
                    (RequestId(7), 0.2),
                    (RequestId(12), 0.1),
                ],
                0.4,
            ),
            // Depart 7; 3 and 12 change magnitude only.
            flat_summary(n, vec![(RequestId(3), 0.5), (RequestId(12), 0.2)], 0.3),
            // Shape change: 3 becomes late-heavy, 12 early-heavy; 5 joins
            // with its own shape.
            varying_summary(
                n,
                vec![(RequestId(12), 0.5), (RequestId(5), 0.1)],
                vec![(RequestId(3), 0.6)],
            ),
            // Back to a flat overlap.
            flat_summary(n, vec![(RequestId(3), 0.4), (RequestId(5), 0.3)], 0.3),
            // Bucket-cap pressure while the shape change above left empty
            // buckets behind: refused, so this one is a rebuild.
            overflow,
            // Moves, an in-place irregular recompute and an irregular join.
            churned,
        ];
        let mut model = HorizonModel::build(&summaries[0], horizon, slot, 0.9);
        let mut diff_applied = 0;
        let (mut bucketed, mut irregular) = (0, 0);
        for s in &summaries[1..] {
            let fresh = HorizonModel::build(s, horizon, slot, 0.9);
            let old_sigs = model.signatures.clone();
            match model.apply_update(s) {
                Some(diff) => {
                    diff_applied += 1;
                    // Placements and in-place recomputes; a rescaled request
                    // whose signature merely scaled took the `O(1)` path and
                    // stays on the tolerance below.
                    let recomputed: Vec<RequestId> = diff
                        .placed
                        .iter()
                        .map(|&(r, _)| r)
                        .chain(diff.rescaled.iter().copied().filter(|r| {
                            super::sig_scale(&old_sigs[r], &model.signatures[r]).is_none()
                        }))
                        .collect();
                    let (b, i) = assert_recomputed_bit_identical(&model, &fresh, &recomputed);
                    bucketed += b;
                    irregular += i;
                }
                None => model = fresh.clone(),
            }
            assert_model_equiv(&model, &fresh);
            // The partition's member lists and the per-request placements
            // stay mutually consistent under diffing.
            let p = model.shape_partition();
            assert_eq!(p.materialized_count(), model.materialized_count());
            for (bi, b) in p.buckets.iter().enumerate() {
                for &r in &b.members {
                    assert_eq!(
                        model.placement(r),
                        Some(super::ExplicitPlacement::Bucket(bi))
                    );
                }
            }
            for &r in &p.irregular {
                assert_eq!(
                    model.placement(r),
                    Some(super::ExplicitPlacement::Irregular)
                );
            }
        }
        assert_eq!(diff_applied, 5, "only the overflow update is refused");
        assert!(
            bucketed >= 4 && irregular >= 2,
            "bit-compared {bucketed} bucket members and {irregular} irregular requests"
        );
    }

    #[test]
    fn apply_update_reports_structural_diff() {
        let n = 20;
        // Horizon spans all four slice offsets (640 ms > 500 ms), so the
        // early/late balance actually shapes the tails.
        let horizon = 64;
        let slot = Duration::from_millis(10);
        let s1 = flat_summary(n, vec![(RequestId(2), 0.3), (RequestId(9), 0.2)], 0.5);
        let mut model = HorizonModel::build(&s1, horizon, slot, 0.9);
        // Join 4, depart 9, reweight 2 — all same (flat) shape.
        let s2 = flat_summary(n, vec![(RequestId(2), 0.4), (RequestId(4), 0.2)], 0.4);
        let diff = model.apply_update(&s2).expect("small diff");
        assert_eq!(diff.joined, vec![RequestId(4)]);
        assert_eq!(diff.departed, vec![RequestId(9)]);
        assert!(diff.rescaled.contains(&RequestId(2)));
        assert_eq!(diff.buckets_added, 0, "flat shapes share the one bucket");
        // A time-varying update moves 2 into a new shape bucket.
        let s3 = varying_summary(n, vec![(RequestId(4), 0.4)], vec![(RequestId(2), 0.5)]);
        let diff = model.apply_update(&s3).expect("small diff");
        assert!(diff.buckets_added > 0, "new shapes need new buckets");
        assert!(
            diff.removed.contains(&RequestId(2)) || diff.rescaled.contains(&RequestId(2)),
            "request 2 must be re-placed or rescaled: {diff:?}"
        );
        assert_model_equiv(&model, &HorizonModel::build(&s3, horizon, slot, 0.9));
    }

    #[test]
    fn apply_update_falls_back_on_incompatible_or_large_diffs() {
        let n = 400;
        let horizon = 16;
        let slot = Duration::from_millis(5);
        let s1 = flat_summary(n, vec![(RequestId(1), 0.5)], 0.5);
        let mut model = HorizonModel::build(&s1, horizon, slot, 0.9);
        // Different slice offsets: no diff.
        let two_slice = PredictionSummary::new(
            n,
            vec![
                HorizonSlice {
                    delta: Duration::from_millis(10),
                    dist: SparseDistribution::point(n, RequestId(1)),
                },
                HorizonSlice {
                    delta: Duration::from_millis(300),
                    dist: SparseDistribution::point(n, RequestId(2)),
                },
            ],
            Time::ZERO,
        );
        assert!(model.apply_update(&two_slice).is_none());
        // A different request-space size: no diff.
        let smaller = flat_summary(n - 1, vec![(RequestId(1), 0.5)], 0.5);
        assert!(model.apply_update(&smaller).is_none());
        // More structural changes than max(64, m/4): no diff.
        let big = flat_summary(
            n,
            (0..100usize).map(|i| (RequestId::from(i), 0.005)).collect(),
            0.5,
        );
        assert!(model.apply_update(&big).is_none());
        // The refusals left the model untouched.
        assert_model_equiv(&model, &HorizonModel::build(&s1, horizon, slot, 0.9));
    }

    /// [`HorizonModel::build`] pinned to the per-slot reference evaluator
    /// ([`HorizonModel::build_reference`]).
    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// One generated input of the oracle comparison.
        struct Case {
            summary: PredictionSummary,
            horizon: usize,
            slot: Duration,
            gamma: f64,
        }

        /// The regimes the generator must reach; [`check`] reports which of
        /// them one case exercised, in this order.
        const REGIMES: [&str; 9] = [
            // A signature classified without its tail: proportional to an
            // earlier one and linear under the plan.
            "memo hit",
            // A signature the memo must *not* take although an earlier one
            // is proportional to it (by a scale well off 1): some blended
            // pair the horizon reaches has neither side explicit.
            "memo refusal",
            "more shapes than buckets",
            "zero-tail bucket",
            "one-slice summary",
            "every slot clamps to the first slice",
            "every slot clamps to the last slice",
            // A blended slot whose slices' union covers the request space.
            "no residual",
            // A slot whose interpolated mass degenerated to zero.
            "uniform slot",
        ];

        /// Per-slice multiplier of palette shape `s`: macroscopically
        /// different balances across slices, so two tails are either
        /// proportional to rounding or far outside `SHAPE_EPS` (the
        /// comparison is only defined off ε-borderline inputs).
        fn shape(s: usize, slice: usize) -> f64 {
            1.0 + ((s * 7 + slice * (s + 3)) % 13) as f64 * 0.25
        }

        fn case(seed: u64) -> Case {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..48);
            let num_slices = rng.gen_range(1usize..=5);
            let mut delta_ms = 0u64;
            let deltas: Vec<Duration> = (0..num_slices)
                .map(|_| {
                    delta_ms += rng.gen_range(20u64..200);
                    Duration::from_millis(delta_ms)
                })
                .collect();
            // Slot midpoints all before the first slice (< 4 ms), all after
            // the last (1 s), or spread across the slices.
            let (slot, horizon) = match rng.gen_range(0..4) {
                0 => (Duration::from_micros(100), rng.gen_range(1usize..40)),
                1 => (Duration::from_millis(2000), rng.gen_range(1usize..12)),
                2 => (Duration::from_millis(5), rng.gen_range(8usize..96)),
                _ => (Duration::from_millis(20), rng.gen_range(8usize..64)),
            };
            let gamma = [0.0, 0.8, 1.0][rng.gen_range(0..3)];

            let shapes = rng.gen_range(1usize..=24);
            let magnitudes = rng.gen_range(1usize..=4);
            let explicit_share = [0.3, 0.7, 1.0][rng.gen_range(0..3)];
            // A few partial explicit sets per case, so that requests
            // sharing one (and a shape) are common.
            let partial_masks: Vec<Vec<bool>> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    let mut mask: Vec<bool> = (0..num_slices).map(|_| rng.gen_bool(0.4)).collect();
                    mask[rng.gen_range(0..num_slices)] = true;
                    mask
                })
                .collect();
            // (shape, magnitude, per-slice explicit flags) of each request.
            let requests: Vec<Option<(usize, f64, Vec<bool>)>> = (0..n)
                .map(|_| {
                    if !rng.gen_bool(explicit_share) {
                        return None;
                    }
                    let magnitude = if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        (1 + rng.gen_range(0..magnitudes)) as f64
                    };
                    let mask = if explicit_share < 1.0 && rng.gen_bool(0.4) {
                        partial_masks[rng.gen_range(0..partial_masks.len())].clone()
                    } else {
                        vec![true; num_slices]
                    };
                    Some((rng.gen_range(0..shapes), magnitude, mask))
                })
                .collect();
            // Mostly slices that sum to one.  Otherwise entries stored as
            // given and summing to less (what `from_normalized` lets a peer
            // send): the mass a blended slot is missing then goes to its
            // residual, which no signature shows — two requests explicit on
            // neither side of such a slot can have proportional signatures
            // and tails that are not.
            let normalized = rng.gen_bool(0.7);
            let unit = if normalized { 1.0 } else { 1.0 / 1024.0 };
            let no_residual = rng.gen_bool(0.3);
            // From this slice on (if any), every request is explicit with
            // probability zero: interpolated mass degenerates to nothing.
            let zero_from = if rng.gen_bool(0.15) {
                rng.gen_range(0..num_slices)
            } else {
                num_slices
            };
            let slices = deltas
                .into_iter()
                .enumerate()
                .map(|(i, delta)| {
                    let dist = if i >= zero_from {
                        let zeros = (0..n).map(|r| (RequestId::from(r), 0.0)).collect();
                        SparseDistribution::from_normalized(n, zeros, 0.0)
                    } else {
                        let entries = requests
                            .iter()
                            .enumerate()
                            .filter_map(|(r, req)| {
                                let (s, magnitude, mask) = req.as_ref()?;
                                mask[i]
                                    .then(|| (RequestId::from(r), unit * magnitude * shape(*s, i)))
                            })
                            .collect();
                        let residual = if no_residual {
                            0.0
                        } else {
                            [0.5, 4.0][rng.gen_range(0..2)]
                        };
                        if normalized {
                            SparseDistribution::from_entries(n, entries, residual)
                        } else {
                            SparseDistribution::from_normalized(n, entries, residual / 8.0)
                        }
                    };
                    HorizonSlice { delta, dist }
                })
                .collect();
            Case {
                summary: PredictionSummary::new(n, slices, Time::ZERO),
                horizon,
                slot,
                gamma,
            }
        }

        /// 1e-12 relative, plus a floor of 1e-14 of `unit`, the tail a
        /// request of probability one would have at that slot.  The floor is
        /// for residuals that are pure cancellation noise: a slice whose
        /// explicit entries sum to `1 ± ulp` leaves `(1 - e).max(0)` at
        /// 1e-16 or at zero depending on summation order, and the two
        /// evaluators sum in different orders.
        fn close(a: f64, b: f64, unit: f64) -> bool {
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) + 1e-14 * unit
        }

        /// Builds `case` both ways and requires the same materialized set,
        /// the same bucket / irregular placement, and every tail (and the
        /// residual tail) within 1e-12 relative at every slot.
        fn check(seed: u64) -> [bool; REGIMES.len()] {
            let Case {
                summary,
                horizon,
                slot,
                gamma,
            } = case(seed);
            let built = HorizonModel::build(&summary, horizon, slot, gamma);
            let oracle = HorizonModel::build_reference(&summary, horizon, slot, gamma);
            assert_eq!(
                built.materialized_ids, oracle.materialized_ids,
                "seed {seed}"
            );
            // Placement is compared off ε-borderline inputs: a request whose
            // whole tail is cancellation noise (zero under one summation
            // order, 1e-17 under the other) sits in the zero-tail bucket on
            // one side and in a real one on the other, so such requests are
            // left out of the member lists.
            let floor = 1e-13 * (0..horizon).map(|t| gamma.powi(t as i32)).sum::<f64>();
            let noise = |r: &RequestId| {
                let (a, b) = (built.tail(*r, 0), oracle.tail(*r, 0));
                a.max(b) <= floor && a.max(b) > 0.0
            };
            let placement = |m: &HorizonModel| {
                let part = m.shape_partition();
                let mut groups: Vec<Vec<RequestId>> = part
                    .buckets
                    .iter()
                    .map(|b| b.members.iter().copied().filter(|r| !noise(r)).collect())
                    .filter(|members: &Vec<RequestId>| !members.is_empty())
                    .collect();
                groups.sort_unstable();
                let irregular: Vec<RequestId> = part
                    .irregular
                    .iter()
                    .copied()
                    .filter(|r| !noise(r))
                    .collect();
                (groups, irregular)
            };
            assert_eq!(placement(&built), placement(&oracle), "seed {seed}");
            let p = built.shape_partition();
            let mut unit = 0.0;
            for t in (0..=horizon).rev() {
                if t < horizon {
                    unit += gamma.powi(t as i32);
                }
                let (a, b) = (built.residual_tail(t), oracle.residual_tail(t));
                assert!(
                    close(a, b, unit),
                    "seed {seed}: residual tail at {t}: {a} vs {b}"
                );
                for r in (0..summary.num_requests()).map(RequestId::from) {
                    let (a, b) = (built.tail(r, t), oracle.tail(r, t));
                    assert!(
                        close(a, b, unit),
                        "seed {seed}: tail({r:?}, {t}): {a} vs {b}"
                    );
                }
            }

            let plan = SlotPlan::new(&summary, horizon, slot, gamma);
            let sigs: Vec<&TailSignature> = built
                .materialized_ids
                .iter()
                .map(|r| &built.signatures[r])
                .collect();
            let last = (summary.slices().len() - 1) as u32;
            [
                sigs.iter().enumerate().any(|(i, s)| {
                    plan.linear_in(s) && sigs[..i].iter().any(|e| sig_scale(e, s).is_some())
                }),
                plan.uniform_weight <= 0.0
                    && sigs.iter().enumerate().any(|(i, s)| {
                        !plan.linear_in(s)
                            && sigs[..i]
                                .iter()
                                .any(|e| sig_scale(e, s).is_some_and(|c| (c - 1.0).abs() > 0.1))
                    }),
                !p.irregular.is_empty(),
                p.buckets
                    .iter()
                    .any(|b| b.shape[0] <= 0.0 && !b.members.is_empty()),
                last == 0,
                last > 0 && plan.slots.iter().all(|&(a, b, _)| a == 0 && b == 0),
                last > 0 && plan.slots.iter().all(|&(a, b, _)| a == last && b == last),
                plan.slots
                    .iter()
                    .zip(&plan.resid_pp)
                    .any(|(&(a, b, _), &rpp)| a != b && rpp <= 0.0),
                plan.uniform.iter().any(|&u| u),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn build_matches_per_slot_reference(seed in any::<u64>()) {
                check(seed);
            }
        }

        /// The generator reaches every regime the comparison is meant to
        /// cover (a generator that stopped producing, say, irregular
        /// overflow would leave the property above vacuously green there).
        #[test]
        fn generator_reaches_every_regime() {
            let mut reached = [false; REGIMES.len()];
            for seed in 0..400 {
                for (seen, now) in reached.iter_mut().zip(check(seed)) {
                    *seen |= now;
                }
            }
            let missed: Vec<&str> = REGIMES
                .iter()
                .zip(reached)
                .filter_map(|(name, seen)| (!seen).then_some(*name))
                .collect();
            assert!(missed.is_empty(), "never generated: {missed:?}");
        }
    }

    /// [`HorizonModel::apply_update_sparse`], fed the way a session feeds it
    /// ([`DeltaTracker`] → [`ShadowSummary`]), pinned to the changed set and
    /// scalars [`HorizonModel::apply_update`] derives by a full scan: same
    /// [`ModelDiff`] (or the same refusal), and a model identical to the bit.
    ///
    /// [`DeltaTracker`]: crate::delta::DeltaTracker
    /// [`ShadowSummary`]: crate::delta::ShadowSummary
    mod sparse_planner {
        use super::*;
        use crate::delta::{DeltaTracker, ShadowApply, ShadowSummary};
        use crate::protocol::ClientMessage;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// What one case must be able to exercise; [`check`] reports which of
        /// them it did, in this order.
        const REGIMES: [&str; 11] = [
            "rescale in place",
            "join",
            "departure",
            "move between spots",
            "new bucket",
            "irregular placement",
            "more than 32 slices",
            "refused: too many changes",
            "refused: bucket cap hit with stale buckets to reclaim",
            // The shadow could not certify the delta (a residual shifted
            // under requests explicit in only some slices); `apply_update`
            // then feeds the sparse planner every materialized id, old and
            // new.
            "uncertified delta",
            "delta on a diffed model",
        ];

        /// Per-slice multiplier of palette shape `s` (29 distinct vectors,
        /// none proportional to another).
        fn shape(s: usize, slice: usize) -> f64 {
            1.0 + ((s * 7 + slice * (s + 3)) % 29) as f64 * 0.125
        }

        /// One request of a generated prediction: palette shape, magnitude,
        /// and the slices that carry an explicit entry for it.
        #[derive(Clone)]
        struct Entry {
            shape: usize,
            magnitude: f64,
            explicit: Vec<bool>,
        }

        /// A prediction as the generator evolves it: entries are stored as
        /// given (`from_normalized`), so a request the perturbation leaves
        /// alone keeps its bits and stays out of the delta.
        #[derive(Clone)]
        struct Prediction {
            deltas: Vec<Duration>,
            requests: Vec<Option<Entry>>,
            /// Residual mass per slice.
            residual: Vec<f64>,
        }

        impl Prediction {
            fn summary(&self) -> PredictionSummary {
                let n = self.requests.len();
                let unit = 0.9 / (8.0 * 4.625 * n as f64);
                let slices = (self.deltas.iter().enumerate())
                    .map(|(i, &delta)| {
                        let entries = (self.requests.iter().enumerate())
                            .filter_map(|(r, e)| {
                                let e = e.as_ref()?;
                                let p = unit * e.magnitude * shape(e.shape, i);
                                e.explicit[i].then_some((RequestId::from(r), p))
                            })
                            .collect();
                        let dist =
                            SparseDistribution::from_normalized(n, entries, self.residual[i]);
                        HorizonSlice { delta, dist }
                    })
                    .collect();
                PredictionSummary::new(n, slices, Time::ZERO)
            }

            fn random_entry(&self, rng: &mut StdRng, shapes: usize) -> Entry {
                let slices = self.deltas.len();
                let explicit = if rng.gen_bool(0.25) {
                    let mut some: Vec<bool> = (0..slices).map(|_| rng.gen_bool(0.5)).collect();
                    some[rng.gen_range(0..slices)] = true;
                    some
                } else {
                    vec![true; slices]
                };
                Entry {
                    shape: rng.gen_range(0..shapes),
                    magnitude: [0.0, 1.0, 2.0, 4.0, 8.0][rng.gen_range(0..5)],
                    explicit,
                }
            }

            /// One step of drift: a handful of rescales, reshapes, joins and
            /// departures; now and then a residual shift, a vacated shape
            /// (which leaves a stale bucket behind) or a wholesale reshape.
            fn perturb(&mut self, rng: &mut StdRng, shapes: usize) {
                let n = self.requests.len();
                for _ in 0..rng.gen_range(1..=6) {
                    let r = rng.gen_range(0..n);
                    let fresh = self.random_entry(rng, shapes);
                    match (rng.gen_range(0..4), self.requests[r].as_mut()) {
                        (0, Some(e)) => e.magnitude = if e.magnitude > 0.0 { 1.0 } else { 2.0 },
                        (1, Some(e)) => e.shape = fresh.shape,
                        (2, Some(_)) => self.requests[r] = None,
                        _ => self.requests[r] = Some(fresh),
                    }
                }
                match rng.gen_range(0..10) {
                    0 => {
                        let i = rng.gen_range(0..self.residual.len());
                        self.residual[i] = [0.0, 0.02, 0.05][rng.gen_range(0..3)];
                    }
                    1 => {
                        let vacated = rng.gen_range(0..shapes);
                        for e in &mut self.requests {
                            if e.as_ref().is_some_and(|e| e.shape == vacated) {
                                *e = None;
                            }
                        }
                    }
                    2 => {
                        for e in self.requests.iter_mut().flatten() {
                            e.shape = (e.shape + 1) % shapes;
                        }
                    }
                    _ => {}
                }
            }
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        fn assert_identical(a: &HorizonModel, b: &HorizonModel, seed: u64) {
            assert_eq!(a.materialized_ids, b.materialized_ids, "seed {seed}");
            assert_eq!(a.signatures, b.signatures, "seed {seed}");
            assert_eq!(bits(&a.residual), bits(&b.residual), "seed {seed}");
            assert_eq!(a.partition.irregular, b.partition.irregular, "seed {seed}");
            assert_eq!(a.partition.buckets.len(), b.partition.buckets.len());
            for (x, y) in a.partition.buckets.iter().zip(&b.partition.buckets) {
                assert_eq!((x.rep, &x.members), (y.rep, &y.members), "seed {seed}");
                assert_eq!(bits(&x.shape), bits(&y.shape), "seed {seed}");
            }
            assert_eq!(a.explicit.len(), b.explicit.len(), "seed {seed}");
            for &r in &a.materialized_ids {
                match (&a.explicit[&r], &b.explicit[&r]) {
                    (
                        ExplicitTail::Scaled { bucket, coef },
                        ExplicitTail::Scaled {
                            bucket: other,
                            coef: other_coef,
                        },
                    ) => assert_eq!(
                        (bucket, coef.to_bits()),
                        (other, other_coef.to_bits()),
                        "seed {seed}: {r:?}"
                    ),
                    (ExplicitTail::Full(x), ExplicitTail::Full(y)) => {
                        assert_eq!(bits(x), bits(y), "seed {seed}: {r:?}")
                    }
                    _ => panic!("seed {seed}: {r:?} is stored two ways"),
                }
            }
        }

        fn check(seed: u64) -> [bool; REGIMES.len()] {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(8usize..140);
            let num_slices = if rng.gen_bool(0.15) {
                rng.gen_range(33usize..=40)
            } else {
                rng.gen_range(1usize..=5)
            };
            let mut delta_ms = 0u64;
            let deltas: Vec<Duration> = (0..num_slices)
                .map(|_| {
                    delta_ms += rng.gen_range(10u64..60);
                    Duration::from_millis(delta_ms)
                })
                .collect();
            let (slot, horizon) = match rng.gen_range(0..2) {
                0 => (Duration::from_millis(5), rng.gen_range(8usize..96)),
                _ => (Duration::from_millis(20), rng.gen_range(8usize..64)),
            };
            let gamma = [0.8, 1.0][rng.gen_range(0..2)];
            // Few shapes: every request finds a bucket.  Many: the cap is
            // reached and the rest go irregular.
            let shapes = [2, 6, 29][rng.gen_range(0..3)];

            let mut prediction = Prediction {
                deltas,
                requests: vec![None; n],
                residual: vec![0.05; num_slices],
            };
            let share = [0.3, 0.9][rng.gen_range(0..2)];
            for r in 0..n {
                if rng.gen_bool(share) {
                    prediction.requests[r] = Some(prediction.random_entry(&mut rng, shapes));
                }
            }

            // Deltas whenever the slice layout allows, whatever their size.
            let mut tracker = DeltaTracker::new().with_max_delta_ratio(f64::INFINITY);
            let mut shadow = ShadowSummary::new();
            let base = prediction.summary();
            let ClientMessage::PredictorFull {
                generation,
                summary,
            } = tracker.encode(&base)
            else {
                panic!("a tracker's first message is a whole summary");
            };
            shadow.install(generation, summary);
            let mut model = HorizonModel::build(&base, horizon, slot, gamma);
            let mut diffed = false;
            let mut reached = [false; REGIMES.len()];
            reached[6] = num_slices > 32;

            for _ in 0..rng.gen_range(1..=4) {
                prediction.perturb(&mut rng, shapes);
                let next = prediction.summary();
                let ClientMessage::PredictorDelta(delta) = tracker.encode(&next) else {
                    panic!("seed {seed}: same slice layout, yet not a delta");
                };
                let mut oracle = model.clone();
                let want = oracle.apply_update(&next);
                let got = match shadow.apply(&delta).expect("tracker and shadow agree") {
                    ShadowApply::Sparse { summary, changes } => {
                        assert_eq!(summary, &next, "seed {seed}: shadow drifted");
                        model.apply_update_sparse(summary, &changes)
                    }
                    ShadowApply::Full { summary } => {
                        reached[9] = true;
                        assert_eq!(summary, &next, "seed {seed}: shadow drifted");
                        model.apply_update(summary)
                    }
                };
                assert_eq!(got, want, "seed {seed}");
                let stale = model.partition.buckets.len() == MAX_SHAPE_BUCKETS
                    && model.partition.buckets.iter().any(|b| b.members.is_empty());
                match &want {
                    Some(diff) => {
                        use ExplicitPlacement::Irregular;
                        reached[0] |= !diff.rescaled.is_empty();
                        reached[1] |= !diff.joined.is_empty();
                        reached[2] |= !diff.departed.is_empty();
                        reached[3] |= diff.removed.len() > diff.departed.len();
                        reached[4] |= diff.buckets_added > 0;
                        reached[5] |= diff.placed.iter().any(|&(_, p)| p == Irregular);
                        reached[10] |= diffed;
                        diffed = true;
                    }
                    // A refusal leaves both models as they were; the caller
                    // installs the build.
                    None => {
                        reached[if stale { 8 } else { 7 }] = true;
                        assert_identical(&model, &oracle, seed);
                        model = HorizonModel::build(&next, horizon, slot, gamma);
                        oracle = model.clone();
                        diffed = false;
                    }
                }
                assert_identical(&model, &oracle, seed);
            }
            reached
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn sparse_update_matches_whole_summary_oracle(seed in any::<u64>()) {
                check(seed);
            }
        }

        /// See `oracle::generator_reaches_every_regime`.
        #[test]
        fn generator_reaches_every_regime() {
            let mut reached = [false; REGIMES.len()];
            for seed in 0..400 {
                for (seen, now) in reached.iter_mut().zip(check(seed)) {
                    *seen |= now;
                }
            }
            let missed: Vec<&str> = REGIMES
                .iter()
                .zip(reached)
                .filter_map(|(name, seen)| (!seen).then_some(*name))
                .collect();
            assert!(missed.is_empty(), "never generated: {missed:?}");
        }
    }
}
