//! Incremental proportional sampling over per-request gain weights.
//!
//! The greedy scheduler (§5.3, Listing 1) allocates every network slot by
//! drawing one request proportionally to its expected utility gain
//! `P_{i,t} · g(B_i + 1)`.  Two implementations of that draw exist,
//! selected by [`SamplerVariant`]: the incremental sampler production runs,
//! and the per-draw scan kept as the Figure 16 baseline and as the parity
//! oracle the incremental sampler is tested against:
//!
//! | variant | per-block cost | per-update cost (full rebuild / diff) | structure |
//! |---------|----------------|---------------------------------------|-----------|
//! | [`Scan`](SamplerVariant::Scan)   | `O(T log T)` (`O(n)` with meta off) | `O(m·s + u·b·C)` / `O(m·s + u_Δ·b·C)` | rebuild + prefix-scan the candidate weights every draw |
//! | [`Lazy`](SamplerVariant::Lazy)   | `O(b log m + log T)` | `O(m·s + u·b·C + T log T)` / `O(m·s + u_Δ·b·C + Δ log m)` | Fenwick trees; per-slot advance touches `b` bucket scalars |
//!
//! with `T` touched requests (up to the schedule length `C`), `m`
//! materialized requests, `b` distinct tail *shapes* (`b ≤ m`, and `b = 1`
//! for the homogeneous-tail workloads real predictors emit), `s` prediction
//! slices (4 by default), `Δ` the number of requests whose prediction
//! actually changed between successive updates, and `u` (`u_Δ` among the
//! changed ones) the requests whose tail vector has to be materialized to
//! classify it: one per shape plus the irregular ones, everything else is
//! classified from its per-slice signature.  Every client interaction
//! re-predicts, so the prediction update — not block sampling — is the hot
//! path once per-block cost is flat.  A whole summary installs the
//! canonical build and rebuilds the sampler, `O(m·s + u·b·C + T log T)`;
//! a prediction *delta* is diffed
//! ([`apply_update_sparse`](crate::scheduler::HorizonModel::apply_update_sparse)):
//! bucket membership and Fenwick state are kept for requests whose
//! prediction is unchanged, shape-preserving changes are `O(1)`
//! coefficient rescales, and a structural diff beyond `max(64, m/4)` falls
//! back to the install — `O(Δ·s + u_Δ·b·C + Δ log m)` for the lazy default
//! (the `update-delta` / `update-rebuild` rows of the `sampler_json` bin
//! measure the two).
//!
//! The structure behind the incremental sampler:
//!
//! * [`FenwickTree`] — a flat `f64` sum tree supporting `O(log n)` point
//!   assignment, append, prefix sums, and proportional *locate* (find the
//!   entry containing a cumulative offset).
//! * [`GainSampler`] — the scheduler-facing composite.  Requests fall into
//!   four segment groups, concatenated in a deterministic draw order:
//!
//!   1. **Shape buckets**: materialized requests whose tails evolve by the
//!      same per-slot multiplier (see [`TailShapePartition`]) share one
//!      tree holding the slot-invariant part of each weight
//!      (`g_i(B_i) · tail_i(0)`) plus a single scalar factor
//!      `s(t) = tail(rep, t) / tail(rep, 0)`.  Advancing the slot index
//!      updates the factor — `O(1)` for the whole bucket.
//!   2. **Irregular** materialized requests (no shared shape, or bucket-cap
//!      overflow) keep exact weights `g_i(B_i) · tail_i(t)` in a
//!      binary-indexed tree over the per-slot tail deltas, re-derived each
//!      slot — the small exact-refresh fallback.
//!   3. **Shared-tail** requests (touched but unmaterialized) store only the
//!      gain part `g_i(B_i)`; their common factor `residual(t)` is a single
//!      scalar applied at draw time.  The group lives in a *compact* tree —
//!      each request is assigned a dense slot when first touched.
//!   4. **Untouched** requests are one meta-entry *per utility class* (one
//!      per distinct gain table) with weight
//!      `count_c · g_c(1) · residual(t)`: the heterogeneous hedge is exact,
//!      not bounded by a catalog-wide first-block gain.  A member of the
//!      winning class is drawn uniformly (§5.3.1).
//!
//! Determinism under a fixed seed: a draw maps a cumulative offset to an
//! entry through the segment layout, so the layout must be reproducible.
//! Bucket membership comes from the id-sorted materialized set, shared-group
//! slots are assigned in insertion order (the scheduler inserts in a
//! deterministic order), and meta classes are ordered by class index.  Both
//! variants walk the *same* segment layout, which is what makes
//! block-for-block parity between them testable (and tested, 256-case
//! proptest in the greedy scheduler).
//!
//! Per-block cost drops from `O(T log T)` (scan) to `O(b log m)` (lazy) —
//! for homogeneous-tail catalogs the lazy sampler's per-block cost is flat
//! in `m`, the same "cost must not grow with catalog size" argument §5.3.1
//! makes for its 13× meta-request speedup, now applied to the materialized
//! set too.

use std::collections::HashMap;

use crate::scheduler::TailShapePartition;
use crate::types::RequestId;

/// Which sampling implementation the greedy scheduler uses for its
/// per-block proportional draw.  Both variants draw from the same weight
/// decomposition and consume the RNG identically — they differ only in
/// per-block cost (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerVariant {
    /// Rebuild, sort, and prefix-scan the candidate weights on every draw —
    /// the seed implementation, retained as the Figure 16 baseline and the
    /// oracle of the parity tests.
    Scan,
    /// Incremental Fenwick weights with lazily-rescaled shape buckets: a
    /// slot advance touches one scalar per bucket instead of `m` weights.
    #[default]
    Lazy,
}

impl SamplerVariant {
    /// Short label used in benches and experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            SamplerVariant::Scan => "scan",
            SamplerVariant::Lazy => "lazy",
        }
    }
}

/// A Fenwick (binary-indexed) tree over non-negative `f64` weights with
/// `O(log n)` point assignment, append, prefix sums, and proportional
/// search.
#[derive(Debug, Clone)]
pub struct FenwickTree {
    /// 1-based partial sums (`tree[0]` unused).
    tree: Vec<f64>,
    /// Current value of each entry, for exact point assignment.
    values: Vec<f64>,
    /// Number of entries with a strictly positive value.  Repeated
    /// add/subtract cycles leave `O(ε)` residue in the partial sums, so an
    /// all-zero tree could otherwise report a positive total — and a caller
    /// drawing proportionally against that phantom mass would consume
    /// randomness a truthfully-zero structure would not (breaking draw
    /// parity with an exact recomputation).
    positive: usize,
}

impl FenwickTree {
    /// Creates a tree of `len` zero-weight entries.
    pub fn new(len: usize) -> Self {
        FenwickTree {
            tree: vec![0.0; len + 1],
            values: vec![0.0; len],
            positive: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Current weight of entry `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Assigns weight `w` to entry `i`.  `w` must be finite and
    /// non-negative (weights are sampling masses).
    pub fn set(&mut self, i: usize, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "weight must be finite and >= 0");
        let delta = w - self.values[i];
        // lint:allow(float-eq) -- exact no-op short-circuit: any nonzero delta must propagate to the sums
        if delta == 0.0 {
            return;
        }
        if self.values[i] > 0.0 {
            self.positive -= 1;
        }
        if w > 0.0 {
            self.positive += 1;
        }
        self.values[i] = w;
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Appends a new entry with weight `w` in `O(log n)`.
    pub fn push(&mut self, w: f64) {
        assert!(w.is_finite() && w >= 0.0, "weight must be finite and >= 0");
        if w > 0.0 {
            self.positive += 1;
        }
        self.values.push(w);
        // Node `j` covers values[(j - lowbit(j))..j]; derive the new node
        // from existing prefix sums instead of rebuilding.
        let j = self.values.len();
        let lb = j & j.wrapping_neg();
        let covered_before = self.prefix_sum(j - 1) - self.prefix_sum(j - lb);
        self.tree.push(covered_before + w);
    }

    /// Sum of the weights of entries `0..i`.
    pub fn prefix_sum(&self, i: usize) -> f64 {
        let mut j = i.min(self.values.len());
        let mut s = 0.0;
        while j > 0 {
            s += self.tree[j];
            j -= j & j.wrapping_neg();
        }
        s
    }

    /// Total weight.  Exactly `0` when no entry is positive, even if
    /// floating-point residue survives in the partial sums (see the
    /// `positive` field).
    pub fn total(&self) -> f64 {
        if self.positive == 0 {
            return 0.0;
        }
        self.prefix_sum(self.values.len())
    }

    /// Finds the entry containing cumulative offset `x`: the smallest `i`
    /// with `prefix_sum(i + 1) > x`, skipping zero-weight entries.  Returns
    /// `None` when `x` is negative or at/after the total weight.
    pub fn locate(&self, x: f64) -> Option<usize> {
        if self.values.is_empty() || x < 0.0 {
            return None;
        }
        let n = self.values.len();
        let mut idx = 0usize; // 1-based position walked so far
        let mut rem = x;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = idx + step;
            if next <= n && self.tree[next] <= rem {
                idx = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        // `idx` entries have cumulative weight <= x; entry `idx` (0-based) is
        // the candidate.  Floating-point boundary hits can land on a
        // zero-weight entry; skip forward to the next positive one.
        let mut i = idx;
        while i < n && self.values[i] <= 0.0 {
            i += 1;
        }
        if i < n && rem < self.values[i] {
            Some(i)
        } else {
            None
        }
    }

    /// Index of the last entry with positive weight, if any — the
    /// deterministic fallback for draws that land exactly on the total due
    /// to floating-point rounding.
    pub fn last_positive(&self) -> Option<usize> {
        self.values.iter().rposition(|&w| w > 0.0)
    }

    /// Audit: indices of sum nodes whose stored partial sum disagrees with a
    /// brute-force recomputation over the covered values (node `j` covers
    /// `values[j - lowbit(j)..j]`), beyond the accumulated-residue tolerance.
    /// Returns `(node, stored, expected)` triples.
    #[cfg(feature = "audit")]
    pub fn audit_bad_nodes(&self) -> Vec<(usize, f64, f64)> {
        let mut bad = Vec::new();
        for j in 1..self.tree.len() {
            let lb = j & j.wrapping_neg();
            let expected: f64 = self.values[j - lb..j].iter().sum();
            let tol = 1e-9 * expected.abs().max(1.0);
            if (self.tree[j] - expected).abs() > tol {
                bad.push((j, self.tree[j], expected));
            }
        }
        bad
    }

    /// Audit: the positive-entry counter vs. an exact recount, when they
    /// drift (`(stored, actual)`); `None` when consistent.
    #[cfg(feature = "audit")]
    pub fn audit_positive_count_drift(&self) -> Option<(usize, usize)> {
        let actual = self.values.iter().filter(|&&v| v > 0.0).count();
        if actual == self.positive {
            None
        } else {
            Some((self.positive, actual))
        }
    }
}

/// Which weight group a proportional draw landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampledGroup {
    /// A specific request (shape-bucket, irregular, or shared-tail group).
    Request(RequestId),
    /// The untouched meta-entry of utility class `c`; the caller draws an
    /// untouched member of that class uniformly.
    Meta(usize),
}

/// Where a materialized request lives inside the explicit layout, packed as
/// `bucket << 32 | position` (bucket `u32::MAX` = the irregular tree) so the
/// whole index is one flat array — the per-block hot path does a single
/// bounds-checked load instead of hashing into a map whose buckets spill
/// out of cache at large `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExplicitSlot(u64);

const NO_SLOT: ExplicitSlot = ExplicitSlot(u64::MAX);
const IRREGULAR_BUCKET: u32 = u32::MAX;

impl ExplicitSlot {
    fn bucket(b: u32, pos: u32) -> Self {
        ExplicitSlot(((b as u64) << 32) | pos as u64)
    }

    fn irregular(pos: u32) -> Self {
        Self::bucket(IRREGULAR_BUCKET, pos)
    }

    fn decode(self) -> Option<(u32, u32)> {
        if self == NO_SLOT {
            None
        } else {
            Some(((self.0 >> 32) as u32, self.0 as u32))
        }
    }
}

/// One shape bucket: a tree of slot-invariant member values scaled by a
/// single per-slot factor.
#[derive(Debug, Clone)]
struct BucketTree {
    /// Members in insertion order (mirrors the partition's member list, plus
    /// zero-weight tombstones left by diff-update removals).
    ids: Vec<RequestId>,
    /// Per-member slot-invariant values `g_i(B_i) · tail_i(0)`.
    tree: FenwickTree,
    /// Per-member slot-invariant coefficients `tail_i(0)`, cached here so
    /// the lazy hot path multiplies a local 8-byte load instead of chasing
    /// the horizon model's tails on every gain change.
    coefs: Vec<f64>,
    /// The bucket-wide scale applied at draw time.
    factor: f64,
    /// Tombstoned (removed) slots; zero-weight, so they never affect draws.
    /// Compacted away once they outnumber the live members.
    dead: usize,
}

impl BucketTree {
    fn empty() -> Self {
        BucketTree {
            ids: Vec::new(),
            tree: FenwickTree::new(0),
            coefs: Vec::new(),
            factor: 0.0,
            dead: 0,
        }
    }
}

/// One per-utility-class meta-entry for the untouched remainder.
#[derive(Debug, Clone)]
struct MetaEntry {
    /// Untouched members of the class.
    untouched: usize,
    /// The class's exact first-block gain `g_c(1)`.
    gain: f64,
}

/// Incremental gain-weight sampler for the greedy scheduler.
///
/// See the [module docs](self) for the four-group decomposition.  The
/// scheduler owns the bookkeeping of *which* requests belong to which group;
/// this type owns the weights and the draw.
#[derive(Debug, Clone)]
pub struct GainSampler {
    /// Shape buckets in partition order.
    buckets: Vec<BucketTree>,
    /// Irregular (exact-refresh) request ids in insertion order (plus
    /// zero-weight tombstones); position `i` owns entry `i` of `irregular`.
    irregular_ids: Vec<RequestId>,
    /// Rescaled weights `g_i(B_i) · tail_i(t) · γ^{-t}` of the irregular
    /// requests (stored magnitudes stay O(1) across the schedule).
    irregular: FenwickTree,
    /// Tombstoned irregular slots (compacted once they dominate).
    irregular_dead: usize,
    /// The irregular group's draw-time scale `γ^t`.
    irregular_scale: f64,
    /// Where each materialized request lives, indexed by request id and
    /// read through [`slot`](Self::slot): `NO_SLOT` for unmaterialized
    /// requests and for every id past the end.  It grows only to store a
    /// real slot, so it is empty until the session's first prediction and
    /// then as long as its largest explicit id ever placed (8 bytes an
    /// entry), never as long as the catalog for its own sake.
    /// Rebuilds reset only the previous layout's entries, in `O(m)`.
    explicit_slots: Vec<ExplicitSlot>,
    /// Dense slot of each shared-group request, assigned on first insertion.
    shared_slots: HashMap<RequestId, usize>,
    /// Slot → request id (the inverse of `shared_slots`).
    shared_ids: Vec<RequestId>,
    /// Gain parts `g_i(B_i)` of touched-but-unmaterialized requests, by slot.
    shared: FenwickTree,
    /// The shared group's (and the meta-entries') common tail factor
    /// `residual(t)`.
    shared_scale: f64,
    /// Per-utility-class meta-entries, in class-index order.
    meta: Vec<MetaEntry>,
    /// Lifetime count of tombstone compactions (bucket + irregular).
    compactions: u64,
    /// Lifetime count of entries moved by those compactions — the measurable
    /// amortized cost of the `dead > 32 && dead·2 > len` heuristic.
    compaction_moved: u64,
}

impl GainSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        GainSampler {
            buckets: Vec::new(),
            irregular_ids: Vec::new(),
            irregular: FenwickTree::new(0),
            irregular_dead: 0,
            irregular_scale: 1.0,
            explicit_slots: Vec::new(),
            shared_slots: HashMap::new(),
            shared_ids: Vec::new(),
            shared: FenwickTree::new(0),
            shared_scale: 0.0,
            meta: Vec::new(),
            compactions: 0,
            compaction_moved: 0,
        }
    }

    /// Where `r` sits in the explicit layout; `NO_SLOT` for an
    /// unmaterialized request, including every id past the index's end.
    fn slot(&self, r: RequestId) -> ExplicitSlot {
        self.explicit_slots
            .get(r.index())
            .copied()
            .unwrap_or(NO_SLOT)
    }

    /// Records `r`'s slot, growing the index only to store a real one:
    /// storing `NO_SLOT` past the end is a no-op, since it already reads so.
    fn set_slot(&mut self, r: RequestId, slot: ExplicitSlot) {
        let i = r.index();
        if i >= self.explicit_slots.len() {
            if slot == NO_SLOT {
                return;
            }
            self.explicit_slots.resize(i + 1, NO_SLOT);
        }
        self.explicit_slots[i] = slot;
    }

    /// Resets all weights and installs a new explicit layout (`partition`)
    /// and meta-class gain catalog (`meta_gains`, one exact first-block gain
    /// per utility class), in `O(m)`; weights, factors, coefficients, and
    /// untouched counts start at zero.
    ///
    /// Shared-group slots are re-assigned in subsequent insertion order;
    /// callers that need seed-determinism must re-insert in a deterministic
    /// order (the scheduler inserts its canonical shared order).
    pub fn rebuild(&mut self, partition: &TailShapePartition, meta_gains: &[f64]) {
        // Un-index the previous layout (O(m_prev)).  Every indexed request
        // holds a live or tombstoned slot of that layout, so this leaves the
        // whole index `NO_SLOT`.
        for b in std::mem::take(&mut self.buckets) {
            for r in b.ids {
                self.set_slot(r, NO_SLOT);
            }
        }
        for r in std::mem::take(&mut self.irregular_ids) {
            self.set_slot(r, NO_SLOT);
        }
        // One exact allocation for the new layout instead of amortized
        // doubling: the index of a session that predicts once then stays
        // as long as its largest explicit id, never twice that.
        let needed = (partition.buckets.iter())
            .flat_map(|b| &b.members)
            .chain(&partition.irregular)
            .map(|r| r.index() + 1)
            .max()
            .unwrap_or(0);
        self.explicit_slots
            .reserve_exact(needed.saturating_sub(self.explicit_slots.len()));
        for (bi, b) in partition.buckets.iter().enumerate() {
            for (pos, &r) in b.members.iter().enumerate() {
                self.set_slot(r, ExplicitSlot::bucket(bi as u32, pos as u32));
            }
            self.buckets.push(BucketTree {
                ids: b.members.clone(),
                tree: FenwickTree::new(b.members.len()),
                coefs: vec![0.0; b.members.len()],
                factor: 0.0,
                dead: 0,
            });
        }
        for (pos, &r) in partition.irregular.iter().enumerate() {
            self.set_slot(r, ExplicitSlot::irregular(pos as u32));
        }
        self.irregular_ids = partition.irregular.clone();
        self.irregular = FenwickTree::new(self.irregular_ids.len());
        self.irregular_dead = 0;
        self.irregular_scale = 1.0;
        self.shared_slots.clear();
        self.shared_ids.clear();
        self.shared = FenwickTree::new(0);
        self.shared_scale = 0.0;
        self.meta = meta_gains
            .iter()
            .map(|&gain| MetaEntry { untouched: 0, gain })
            .collect();
    }

    /// Appends an empty shape bucket, mirroring a bucket the model's diff
    /// update added to the partition.
    pub fn push_bucket(&mut self) {
        self.buckets.push(BucketTree::empty());
    }

    /// Removes materialized request `r` from the explicit layout: its slot
    /// becomes a zero-weight tombstone (skipped by draws, compacted away
    /// once tombstones outnumber live members), so removal is an `O(log m)`
    /// point update instead of a layout rebuild.
    pub fn remove_explicit(&mut self, r: RequestId) {
        match self.slot(r).decode() {
            Some((IRREGULAR_BUCKET, pos)) => {
                self.irregular.set(pos as usize, 0.0);
                self.irregular_dead += 1;
            }
            Some((b, pos)) => {
                let bucket = &mut self.buckets[b as usize];
                bucket.tree.set(pos as usize, 0.0);
                bucket.coefs[pos as usize] = 0.0;
                bucket.dead += 1;
            }
            None => panic!("request not in the explicit layout"),
        }
        self.set_slot(r, NO_SLOT);
        self.maybe_compact();
    }

    /// Appends `r` to shape bucket `b` with zero weight (the caller sets the
    /// coefficient and value next).  `r` must not already be explicit.
    pub fn append_bucket_member(&mut self, b: usize, r: RequestId) {
        debug_assert_eq!(self.slot(r), NO_SLOT);
        let pos = self.buckets[b].ids.len() as u32;
        self.set_slot(r, ExplicitSlot::bucket(b as u32, pos));
        let bucket = &mut self.buckets[b];
        bucket.ids.push(r);
        bucket.coefs.push(0.0);
        bucket.tree.push(0.0);
    }

    /// Appends `r` to the irregular set with zero weight.  `r` must not
    /// already be explicit.
    pub fn append_irregular(&mut self, r: RequestId) {
        debug_assert_eq!(self.slot(r), NO_SLOT);
        self.set_slot(r, ExplicitSlot::irregular(self.irregular_ids.len() as u32));
        self.irregular_ids.push(r);
        self.irregular.push(0.0);
    }

    /// Rebuilds any tombstone-dominated structure compactly.  Live order is
    /// preserved, so the draw layout (the sequence of positive-weight
    /// entries) is unchanged and seed determinism survives compaction.
    fn maybe_compact(&mut self) {
        for b in 0..self.buckets.len() {
            let bucket = &self.buckets[b];
            if bucket.dead > 32 && bucket.dead * 2 > bucket.ids.len() {
                self.compact_bucket(b);
            }
        }
        if self.irregular_dead > 32 && self.irregular_dead * 2 > self.irregular_ids.len() {
            self.compact_irregular();
        }
    }

    fn compact_bucket(&mut self, b: usize) {
        let bucket = &mut self.buckets[b];
        let old_ids = std::mem::take(&mut bucket.ids);
        let old_coefs = std::mem::take(&mut bucket.coefs);
        let old_tree = std::mem::replace(&mut bucket.tree, FenwickTree::new(0));
        bucket.dead = 0;
        self.compactions += 1;
        self.compaction_moved += old_ids.len() as u64;
        for (pos, &r) in old_ids.iter().enumerate() {
            if self.slot(r) == ExplicitSlot::bucket(b as u32, pos as u32) {
                let new_pos = self.buckets[b].ids.len() as u32;
                self.set_slot(r, ExplicitSlot::bucket(b as u32, new_pos));
                let bucket = &mut self.buckets[b];
                bucket.ids.push(r);
                bucket.coefs.push(old_coefs[pos]);
                bucket.tree.push(old_tree.get(pos));
            }
        }
    }

    fn compact_irregular(&mut self) {
        let old_ids = std::mem::take(&mut self.irregular_ids);
        let old_tree = std::mem::replace(&mut self.irregular, FenwickTree::new(0));
        self.irregular_dead = 0;
        self.compactions += 1;
        self.compaction_moved += old_ids.len() as u64;
        for (pos, &r) in old_ids.iter().enumerate() {
            if self.slot(r) == ExplicitSlot::irregular(pos as u32) {
                self.set_slot(r, ExplicitSlot::irregular(self.irregular_ids.len() as u32));
                self.irregular_ids.push(r);
                self.irregular.push(old_tree.get(pos));
            }
        }
    }

    /// Number of shape buckets in the installed layout.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Lifetime `(compactions, entries moved)` of the tombstone-compaction
    /// heuristic — the observable its amortized-O(1) bound is asserted on.
    // lint:allow(unreferenced-pub) -- ROADMAP 10(d): the audit soak bounds tombstone compaction with it
    pub fn compaction_stats(&self) -> (u64, u64) {
        (self.compactions, self.compaction_moved)
    }

    /// Live (non-tombstoned) weight entries across every group — buckets,
    /// irregular, shared, and meta-class hedges.  The sampler's resident
    /// footprint, aggregated fleet-wide into
    /// [`ShardSnapshot::sampler_entries`](crate::shard::ShardSnapshot) to
    /// make the session layer's memory-in-session-count story measurable
    /// next to its model-dedup counters.
    pub fn live_entries(&self) -> usize {
        let bucket_live: usize = self.buckets.iter().map(|b| b.ids.len() - b.dead).sum();
        bucket_live
            + (self.irregular_ids.len() - self.irregular_dead)
            + self.shared_ids.len()
            + self.meta.len()
    }

    /// Audit: every Fenwick tree in the layout, labeled — bucket trees in
    /// partition order, then irregular, then shared.
    #[cfg(feature = "audit")]
    pub fn audit_fenwick_trees(&self) -> Vec<(String, &FenwickTree)> {
        let mut trees: Vec<(String, &FenwickTree)> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(b, bt)| (format!("bucket[{b}]"), &bt.tree))
            .collect();
        trees.push(("irregular".to_string(), &self.irregular));
        trees.push(("shared".to_string(), &self.shared));
        trees
    }

    /// Audit: bucket `b`'s draw-time scale factor.
    #[cfg(feature = "audit")]
    pub fn audit_bucket_factor(&self, b: usize) -> f64 {
        self.buckets[b].factor
    }

    /// Audit: the cached slot-invariant coefficient of bucket member `r`
    /// (`None` when `r` is irregular or not explicit).
    #[cfg(feature = "audit")]
    pub fn audit_bucket_coef(&self, r: RequestId) -> Option<f64> {
        match self.slot(r).decode() {
            Some((b, pos)) if b != IRREGULAR_BUCKET => {
                Some(self.buckets[b as usize].coefs[pos as usize])
            }
            _ => None,
        }
    }

    /// Whether request `r` is in the explicit (materialized) layout — a
    /// slot-index mirror of the model's materialized set, cheap enough for
    /// the per-block path.
    pub fn is_explicit(&self, r: RequestId) -> bool {
        self.slot(r) != NO_SLOT
    }

    /// Whether materialized request `r` sits in the irregular
    /// (exact-refresh) set rather than a shape bucket.
    pub fn is_irregular(&self, r: RequestId) -> bool {
        matches!(self.slot(r).decode(), Some((IRREGULAR_BUCKET, _)))
    }

    /// Sets shape bucket `b`'s scale factor `s(t)`.
    pub fn set_bucket_factor(&mut self, b: usize, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be >= 0");
        self.buckets[b].factor = factor;
    }

    /// Sets the slot-invariant coefficient (`tail_r(0)`) of bucket member
    /// `r`, cached for [`GainSampler::set_explicit_gain`].  No-op for
    /// irregular members (their weights are always set in full).
    pub fn set_explicit_coef(&mut self, r: RequestId, coef: f64) {
        if let Some((b, pos)) = self.slot(r).decode() {
            if b != IRREGULAR_BUCKET {
                self.buckets[b as usize].coefs[pos as usize] = coef;
            }
        }
    }

    /// Updates bucket member `r`'s stored value to `g · coef` from its
    /// cached coefficient — the lazy variant's `O(log m)` per-block gain
    /// update, touching no model state.  `r` must be a bucket member.
    pub fn set_explicit_gain(&mut self, r: RequestId, g: f64) {
        match self.slot(r).decode() {
            Some((b, pos)) if b != IRREGULAR_BUCKET => {
                let bucket = &mut self.buckets[b as usize];
                let v = g * bucket.coefs[pos as usize];
                bucket.tree.set(pos as usize, v);
            }
            _ => panic!("request not in a shape bucket"),
        }
    }

    /// Assigns the stored value of materialized request `r`: the
    /// slot-invariant part `g · tail(0)` for bucket members, or the rescaled
    /// current weight `g · tail(t) · γ^{-t}` for irregular members.  `r`
    /// must be in the installed layout.
    pub fn set_explicit_value(&mut self, r: RequestId, v: f64) {
        match self.slot(r).decode() {
            Some((IRREGULAR_BUCKET, pos)) => self.irregular.set(pos as usize, v),
            Some((b, pos)) => self.buckets[b as usize].tree.set(pos as usize, v),
            None => panic!("request not in the explicit layout"),
        }
    }

    /// Assigns the gain part of shared-tail request `r` (its tail factor is
    /// the group scale), assigning it the next dense slot on first insertion.
    pub fn set_shared_gain(&mut self, r: RequestId, g: f64) {
        match self.shared_slots.entry(r) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.shared.set(*e.get(), g);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.shared_ids.len());
                self.shared_ids.push(r);
                self.shared.push(g);
            }
        }
    }

    /// The shared-group request ids in slot (insertion) order.
    pub fn shared_ids(&self) -> &[RequestId] {
        &self.shared_ids
    }

    /// The effective draw weight currently stored for `r` (explicit slot ×
    /// factor, or shared gain × scale), if `r` is indexed anywhere.
    /// Diagnostic only — used by consistency checks and tests.
    #[doc(hidden)]
    pub fn debug_weight(&self, r: RequestId) -> Option<f64> {
        match self.slot(r).decode() {
            Some((IRREGULAR_BUCKET, pos)) => {
                Some(self.irregular.get(pos as usize) * self.irregular_scale)
            }
            Some((b, pos)) => {
                let bucket = &self.buckets[b as usize];
                Some(bucket.tree.get(pos as usize) * bucket.factor)
            }
            None => self
                .shared_slots
                .get(&r)
                .map(|&slot| self.shared.get(slot) * self.shared_scale),
        }
    }

    /// Drops every shared-group member for which `keep` returns `false`,
    /// preserving the relative order (and gains) of the survivors.  `O(s)`
    /// when nothing is dropped, `O(s log s)` otherwise.  Used when the
    /// greedy scheduler returns departed shared-tail requests, whose last
    /// resident block was evicted, to their meta class.
    pub fn compact_shared(&mut self, mut keep: impl FnMut(RequestId) -> bool) {
        if self.shared_ids.iter().all(|&r| keep(r)) {
            return;
        }
        let old_ids = std::mem::take(&mut self.shared_ids);
        let old_tree = std::mem::replace(&mut self.shared, FenwickTree::new(0));
        self.shared_slots.clear();
        for (slot, &r) in old_ids.iter().enumerate() {
            if keep(r) {
                self.shared_slots.insert(r, self.shared_ids.len());
                self.shared_ids.push(r);
                self.shared.push(old_tree.get(slot));
            }
        }
    }

    /// Sets the shared-tail group's common factor `residual(t)`.
    pub fn set_shared_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale >= 0.0, "scale must be >= 0");
        self.shared_scale = scale;
    }

    /// Sets the irregular group's draw-time scale (`γ^t`).  Storing
    /// irregular weights pre-divided by `γ^t` keeps their magnitudes O(1)
    /// across the schedule, so the Fenwick delta-update residue can never
    /// dwarf the live values.
    pub fn set_irregular_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale > 0.0, "scale must be > 0");
        self.irregular_scale = scale;
    }

    /// Sets the number of untouched requests behind utility class `c`'s
    /// meta-entry.
    pub fn set_meta_untouched(&mut self, c: usize, count: usize) {
        self.meta[c].untouched = count;
    }

    /// Total sampling mass across all groups.
    pub fn total(&self) -> f64 {
        let explicit: f64 = self
            .buckets
            .iter()
            .map(|b| b.tree.total() * b.factor)
            .sum::<f64>()
            + self.irregular.total() * self.irregular_scale;
        let meta: f64 = self.meta.iter().map(|m| m.untouched as f64 * m.gain).sum();
        explicit + self.shared_scale * (self.shared.total() + meta)
    }

    /// Resolves a cumulative offset `x ∈ [0, total)` to the group it lands
    /// in.  Segment order is shape buckets (partition order, members
    /// ascending) → irregular (ascending) → shared (slot order) → meta
    /// classes (class-index order).
    ///
    /// Offsets at or past the total (floating-point boundary cases) fall
    /// back to the last non-empty group, mirroring the legacy scan's
    /// `weights.last()` fallback.
    pub fn locate(&self, x: f64) -> Option<SampledGroup> {
        let mut rem = x.max(0.0);
        let mut any = false;
        for b in &self.buckets {
            let seg = b.tree.total() * b.factor;
            if seg > 0.0 {
                any = true;
                if rem < seg {
                    if let Some(i) = b.tree.locate(rem / b.factor) {
                        return Some(SampledGroup::Request(b.ids[i]));
                    }
                }
                rem = (rem - seg).max(0.0);
            }
        }
        let iw = self.irregular.total() * self.irregular_scale;
        if iw > 0.0 {
            any = true;
            if rem < iw {
                if let Some(i) = self.irregular.locate(rem / self.irregular_scale) {
                    return Some(SampledGroup::Request(self.irregular_ids[i]));
                }
            }
            rem = (rem - iw).max(0.0);
        }
        let sw = self.shared_scale * self.shared.total();
        if sw > 0.0 {
            any = true;
            if rem < sw {
                if let Some(i) = self.shared.locate(rem / self.shared_scale) {
                    return Some(SampledGroup::Request(self.shared_ids[i]));
                }
            }
            rem = (rem - sw).max(0.0);
        }
        let mut last_meta = None;
        for (c, m) in self.meta.iter().enumerate() {
            let seg = self.shared_scale * m.untouched as f64 * m.gain;
            if seg > 0.0 {
                any = true;
                last_meta = Some(c);
                if rem < seg {
                    return Some(SampledGroup::Meta(c));
                }
                rem = (rem - seg).max(0.0);
            }
        }
        if !any {
            return None;
        }
        // Fallback for x >= total (or rounding at the boundary of an empty
        // trailing segment): the last positive segment, walked in reverse
        // group order.
        if let Some(c) = last_meta {
            return Some(SampledGroup::Meta(c));
        }
        if sw > 0.0 {
            if let Some(i) = self.shared.last_positive() {
                return Some(SampledGroup::Request(self.shared_ids[i]));
            }
        }
        if iw > 0.0 {
            if let Some(i) = self.irregular.last_positive() {
                return Some(SampledGroup::Request(self.irregular_ids[i]));
            }
        }
        for b in self.buckets.iter().rev() {
            if b.factor > 0.0 {
                if let Some(i) = b.tree.last_positive() {
                    return Some(SampledGroup::Request(b.ids[i]));
                }
            }
        }
        None
    }
}

impl Default for GainSampler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total explicit-layout slot capacity currently allocated (live +
    /// tombstoned, buckets + irregular).
    fn explicit_capacity(s: &GainSampler) -> usize {
        s.buckets.iter().map(|b| b.ids.len()).sum::<usize>() + s.irregular_ids.len()
    }

    fn naive_locate(weights: &[f64], x: f64) -> Option<usize> {
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            if w > 0.0 && x < acc {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn fenwick_prefix_sums_match_naive() {
        let mut t = FenwickTree::new(10);
        let weights = [0.5, 0.0, 2.0, 1.25, 0.0, 0.0, 3.5, 0.75, 0.0, 1.0];
        for (i, &w) in weights.iter().enumerate() {
            t.set(i, w);
        }
        for i in 0..=10 {
            let naive: f64 = weights[..i].iter().sum();
            assert!((t.prefix_sum(i) - naive).abs() < 1e-12, "prefix {i}");
        }
        assert!((t.total() - 9.0).abs() < 1e-12);
        // Overwrite and re-check.
        t.set(2, 0.0);
        t.set(0, 4.0);
        assert!((t.total() - 10.5).abs() < 1e-12);
        assert_eq!(t.get(2), 0.0);
        assert_eq!(t.get(0), 4.0);
    }

    #[test]
    fn fenwick_push_matches_preallocated() {
        let weights = [1.5, 0.0, 2.0, 0.25, 3.0, 0.0, 0.5];
        let mut grown = FenwickTree::new(0);
        let mut fixed = FenwickTree::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            grown.push(w);
            fixed.set(i, w);
        }
        assert_eq!(grown.len(), fixed.len());
        for i in 0..=weights.len() {
            assert!(
                (grown.prefix_sum(i) - fixed.prefix_sum(i)).abs() < 1e-12,
                "prefix {i}"
            );
        }
        // Point updates keep working after growth.
        grown.set(1, 4.0);
        assert!((grown.total() - (weights.iter().sum::<f64>() + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn fenwick_locate_matches_linear_scan() {
        let mut t = FenwickTree::new(7);
        let weights = [0.0, 1.0, 0.0, 2.5, 0.5, 0.0, 3.0];
        for (i, &w) in weights.iter().enumerate() {
            t.set(i, w);
        }
        let total: f64 = weights.iter().sum();
        let mut x = 0.0;
        while x < total {
            assert_eq!(t.locate(x), naive_locate(&weights, x), "x={x}");
            x += 0.125;
        }
        assert_eq!(t.locate(total), None);
        assert_eq!(t.locate(-1.0), None);
        assert_eq!(t.last_positive(), Some(6));
    }

    #[test]
    fn fenwick_boundaries_land_on_positive_entries() {
        let mut t = FenwickTree::new(4);
        t.set(1, 1.0);
        t.set(3, 2.0);
        // Offsets exactly at a cumulative boundary must select the *next*
        // positive entry, never a zero-weight one.
        assert_eq!(t.locate(0.0), Some(1));
        assert_eq!(t.locate(1.0), Some(3));
        assert_eq!(t.locate(2.999), Some(3));
        assert_eq!(t.locate(3.0), None);
    }

    #[test]
    fn empty_and_zero_trees() {
        let t = FenwickTree::new(0);
        assert!(t.is_empty());
        assert_eq!(t.locate(0.0), None);
        assert_eq!(t.total(), 0.0);
        let t = FenwickTree::new(5);
        assert_eq!(t.locate(0.0), None);
        assert_eq!(t.last_positive(), None);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn negative_weights_rejected() {
        FenwickTree::new(3).set(0, -1.0);
    }

    use crate::scheduler::ShapeBucket;

    fn partition(buckets: Vec<Vec<usize>>, irregular: Vec<usize>) -> TailShapePartition {
        TailShapePartition {
            buckets: buckets
                .into_iter()
                .map(|m| ShapeBucket {
                    rep: RequestId::from(m[0]),
                    members: m.into_iter().map(RequestId::from).collect(),
                    shape: vec![1.0],
                })
                .collect(),
            irregular: irregular.into_iter().map(RequestId::from).collect(),
        }
    }

    #[test]
    fn sampler_segment_order_and_totals() {
        let mut s = GainSampler::new();
        // Two shape buckets, one irregular request, two meta classes.
        s.rebuild(
            &partition(vec![vec![3, 7], vec![2]], vec![11]),
            &[0.25, 0.5],
        );
        assert_eq!(s.num_buckets(), 2);
        assert!(s.is_irregular(RequestId(11)));
        assert!(!s.is_irregular(RequestId(3)));
        s.set_explicit_value(RequestId(3), 2.0);
        s.set_explicit_value(RequestId(7), 1.0);
        s.set_bucket_factor(0, 0.5); // bucket 0 mass = 1.5
        s.set_explicit_value(RequestId(2), 4.0);
        s.set_bucket_factor(1, 1.0); // bucket 1 mass = 4
        s.set_explicit_value(RequestId(11), 0.5); // irregular mass = 0.5
        s.set_shared_gain(RequestId(10), 0.5);
        s.set_shared_scale(2.0); // shared mass = 1
        s.set_meta_untouched(0, 4); // class 0 mass = 2*4*0.25 = 2
        s.set_meta_untouched(1, 1); // class 1 mass = 2*1*0.5  = 1
        assert!((s.total() - 10.0).abs() < 1e-12);
        // Segment order: bucket 0 (ids 3, 7), bucket 1 (id 2), irregular
        // (id 11), shared (id 10), meta class 0, meta class 1.
        assert_eq!(s.locate(0.5), Some(SampledGroup::Request(RequestId(3))));
        assert_eq!(s.locate(1.2), Some(SampledGroup::Request(RequestId(7))));
        assert_eq!(s.locate(3.5), Some(SampledGroup::Request(RequestId(2))));
        assert_eq!(s.locate(5.7), Some(SampledGroup::Request(RequestId(11))));
        assert_eq!(s.locate(6.5), Some(SampledGroup::Request(RequestId(10))));
        assert_eq!(s.locate(7.5), Some(SampledGroup::Meta(0)));
        assert_eq!(s.locate(9.5), Some(SampledGroup::Meta(1)));
        // Past-total fallback resolves to the last positive segment.
        assert_eq!(s.locate(10.0), Some(SampledGroup::Meta(1)));
    }

    #[test]
    fn sampler_lazy_factor_rescales_bucket() {
        let mut s = GainSampler::new();
        s.rebuild(&partition(vec![vec![0, 1]], vec![]), &[]);
        s.set_explicit_value(RequestId(0), 3.0);
        s.set_explicit_value(RequestId(1), 1.0);
        s.set_bucket_factor(0, 1.0);
        assert!((s.total() - 4.0).abs() < 1e-12);
        // Advancing the slot touches one scalar, not the member weights.
        s.set_bucket_factor(0, 0.25);
        assert!((s.total() - 1.0).abs() < 1e-12);
        assert_eq!(s.locate(0.5), Some(SampledGroup::Request(RequestId(0))));
        assert_eq!(s.locate(0.8), Some(SampledGroup::Request(RequestId(1))));
        // Zero factor silences the bucket entirely.
        s.set_bucket_factor(0, 0.0);
        assert_eq!(s.total(), 0.0);
        assert_eq!(s.locate(0.0), None);
    }

    #[test]
    fn sampler_shared_slots_reuse_and_update() {
        let mut s = GainSampler::new();
        s.rebuild(&TailShapePartition::default(), &[]);
        s.set_shared_scale(1.0);
        s.set_shared_gain(RequestId(5), 1.0);
        s.set_shared_gain(RequestId(9), 2.0);
        // Updating an existing member must not allocate a second slot.
        s.set_shared_gain(RequestId(5), 3.0);
        assert_eq!(s.shared_ids(), &[RequestId(5), RequestId(9)]);
        assert!((s.total() - 5.0).abs() < 1e-12);
        assert_eq!(s.locate(0.5), Some(SampledGroup::Request(RequestId(5))));
        assert_eq!(s.locate(3.5), Some(SampledGroup::Request(RequestId(9))));
    }

    #[test]
    fn sampler_compact_shared_preserves_survivor_order() {
        let mut s = GainSampler::new();
        s.rebuild(&TailShapePartition::default(), &[]);
        s.set_shared_scale(1.0);
        for (r, g) in [(4, 1.0), (2, 2.0), (9, 3.0), (7, 4.0)] {
            s.set_shared_gain(RequestId(r), g);
        }
        s.compact_shared(|r| r != RequestId(2) && r != RequestId(7));
        assert_eq!(s.shared_ids(), &[RequestId(4), RequestId(9)]);
        assert!((s.total() - 4.0).abs() < 1e-12);
        assert_eq!(s.locate(0.5), Some(SampledGroup::Request(RequestId(4))));
        assert_eq!(s.locate(2.5), Some(SampledGroup::Request(RequestId(9))));
        // Survivors keep working as update targets, and re-inserting a
        // dropped id appends it after the survivors.
        s.set_shared_gain(RequestId(9), 1.0);
        s.set_shared_gain(RequestId(2), 5.0);
        assert_eq!(s.shared_ids(), &[RequestId(4), RequestId(9), RequestId(2)]);
        assert!((s.total() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_rebuild_clears_previous_weights() {
        let mut s = GainSampler::new();
        s.rebuild(&TailShapePartition::default(), &[0.1]);
        s.set_shared_gain(RequestId(5), 1.0);
        s.set_shared_gain(RequestId(9), 2.0);
        s.set_shared_scale(1.0);
        s.set_meta_untouched(0, 3);
        assert!((s.total() - 3.3).abs() < 1e-12);
        s.rebuild(&TailShapePartition::default(), &[0.1]);
        assert_eq!(s.total(), 0.0);
        s.set_shared_scale(1.0);
        assert_eq!(s.total(), 0.0, "old shared weights must be cleared");
    }

    #[test]
    fn compaction_cost_is_amortized_constant_under_adversarial_churn() {
        // The tombstone heuristic (`dead > 32 && dead·2 > len`) fires only
        // once tombstones dominate, so each compaction's O(len) scan is paid
        // for by the >= len/2 removals that preceded it.  Churn a bucket and
        // the irregular set through remove/re-append cycles at several sizes
        // and assert (a) the total entries moved stays within a constant
        // factor of the operation count, (b) slot capacity stays
        // proportional to live membership, (c) weights survive intact.
        for &m in &[64usize, 256, 1024] {
            let mut s = GainSampler::new();
            let bucket_members: Vec<usize> = (0..m).collect();
            let irregular_members: Vec<usize> = (m..2 * m).collect();
            s.rebuild(&partition(vec![bucket_members], irregular_members), &[]);
            s.set_bucket_factor(0, 1.0);
            for i in 0..2 * m {
                s.set_explicit_value(RequestId::from(i), 1.0);
            }
            let mut ops: u64 = 0;
            for round in 0..6 {
                for i in 0..m {
                    // Stride-7 order so removals are scattered, not FIFO.
                    let b = RequestId::from((i * 7 + round) % m);
                    s.remove_explicit(b);
                    s.append_bucket_member(0, b);
                    s.set_explicit_value(b, 1.0);
                    let ir = RequestId::from(m + (i * 7 + round) % m);
                    s.remove_explicit(ir);
                    s.append_irregular(ir);
                    s.set_explicit_value(ir, 1.0);
                    ops += 4;
                }
            }
            let (compactions, moved) = s.compaction_stats();
            assert!(compactions > 0, "churn at m={m} must trigger compactions");
            assert!(
                moved <= 4 * ops,
                "amortized bound violated at m={m}: {moved} entries moved over {ops} ops"
            );
            assert!(
                explicit_capacity(&s) <= 4 * m + 96,
                "slot capacity {} not bounded by live membership at m={m}",
                explicit_capacity(&s)
            );
            // Compaction preserved every live weight and the total mass.
            assert!((s.total() - 2.0 * m as f64).abs() < 1e-9 * m as f64);
            for i in 0..2 * m {
                let w = s.debug_weight(RequestId::from(i));
                assert!(
                    w.is_some_and(|w| (w - 1.0).abs() < 1e-12),
                    "weight of {i} corrupted at m={m}: {w:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_index_grows_on_demand() {
        let far = RequestId(1_000_000);
        // A session that never predicted has no index at all.
        let mut s = GainSampler::new();
        s.rebuild(&TailShapePartition::default(), &[0.5]);
        assert_eq!(s.explicit_slots.capacity(), 0);
        assert!(!s.is_explicit(far));
        assert_eq!(s.debug_weight(far), None);
        // Appending id k grows it to k + 1, bucket member or irregular.
        s.push_bucket();
        s.append_bucket_member(0, RequestId(40));
        assert_eq!(s.explicit_slots.len(), 41);
        s.append_irregular(RequestId(90));
        assert_eq!(s.explicit_slots.len(), 91);
        assert!(s.is_explicit(RequestId(40)) && !s.is_irregular(RequestId(40)));
        assert!(s.is_irregular(RequestId(90)));
        assert!(!s.is_explicit(RequestId(89)) && !s.is_explicit(far));

        // Remove past the tombstone threshold in both groups: compaction
        // re-indexes the survivors, the removed ids read as unmaterialized,
        // and ids past the end stay so.
        s.rebuild(
            &partition(vec![(0..48).collect()], (100..148).collect()),
            &[],
        );
        assert_eq!(s.explicit_slots.len(), 148);
        s.set_bucket_factor(0, 1.0);
        for i in (0..48).chain(100..148) {
            s.set_explicit_value(RequestId(i), i as f64 + 1.0);
        }
        for i in (0..40).chain(100..140) {
            s.remove_explicit(RequestId(i));
        }
        assert_eq!(s.compaction_stats().0, 2, "both groups compacted");
        for i in (0..40).chain(100..140) {
            let r = RequestId(i);
            assert!(!s.is_explicit(r) && !s.is_irregular(r), "{i} removed");
            assert_eq!(s.debug_weight(r), None);
        }
        for i in (40..48).chain(140..148) {
            let r = RequestId(i);
            assert!(s.is_explicit(r));
            assert_eq!(s.is_irregular(r), i >= 100);
            assert_eq!(s.debug_weight(r), Some(i as f64 + 1.0));
        }
        assert!(!s.is_explicit(far) && !s.is_irregular(far));
        assert_eq!(s.debug_weight(far), None);
        assert!((s.total() - (41..49).chain(141..149).sum::<usize>() as f64).abs() < 1e-9);
    }

    #[test]
    fn sampler_zero_scale_disables_shared_and_meta() {
        let mut s = GainSampler::new();
        s.rebuild(&partition(vec![], vec![0]), &[0.5]);
        s.set_explicit_value(RequestId(0), 1.5);
        s.set_shared_gain(RequestId(4), 9.0);
        s.set_meta_untouched(0, 9);
        // scale defaults to 0 after rebuild.
        assert!((s.total() - 1.5).abs() < 1e-12);
        assert_eq!(s.locate(1.0), Some(SampledGroup::Request(RequestId(0))));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `locate` agrees with a naive linear scan for arbitrary weight
            /// vectors and offsets, whether the tree was preallocated or
            /// grown by pushes.
            #[test]
            fn locate_matches_naive(
                raw in collection::vec(0.0f64..4.0, 1..40),
                frac in 0.0f64..1.0,
                grow in any::<bool>()
            ) {
                // Zero out a third of the entries to exercise gaps.
                let weights: Vec<f64> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| if i % 3 == 0 { 0.0 } else { w })
                    .collect();
                let mut t = if grow {
                    FenwickTree::new(0)
                } else {
                    FenwickTree::new(weights.len())
                };
                for (i, &w) in weights.iter().enumerate() {
                    if grow {
                        t.push(w);
                    } else {
                        t.set(i, w);
                    }
                }
                let total: f64 = weights.iter().sum();
                prop_assert!((t.total() - total).abs() < 1e-9);
                let x = frac * total;
                if x < total {
                    let got = t.locate(x);
                    let want = naive_locate(&weights, x);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
