//! Probability distributions over the request space.
//!
//! The client's predictor produces, for a small set of future offsets
//! Δ ∈ {50, 150, 250, 500} ms, a probability distribution over all possible
//! requests (§4).  Because the request space can be huge (10,000 images) while
//! only a handful of requests have non-negligible probability, distributions
//! are stored *sparsely*: explicit `(request, probability)` entries plus a
//! residual mass spread uniformly over every other request.  This is exactly
//! the representation that enables the greedy scheduler's "meta-request"
//! optimization (§5.3.1).

use crate::types::{Duration, RequestId};

/// Sparse probability distribution over a request space of size `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDistribution {
    n: usize,
    /// Explicit entries, sorted by request id, probabilities >= 0.
    explicit: Vec<(RequestId, f64)>,
    /// Total probability mass spread uniformly over the `n - explicit.len()`
    /// requests without an explicit entry.
    residual: f64,
}

impl SparseDistribution {
    /// The uniform distribution over `n` requests.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "request space must be non-empty");
        SparseDistribution {
            n,
            explicit: Vec::new(),
            residual: 1.0,
        }
    }

    /// A point distribution: all mass on `request`.
    pub fn point(n: usize, request: RequestId) -> Self {
        Self::from_entries(n, vec![(request, 1.0)], 0.0)
    }

    /// Builds a distribution from explicit entries and a residual mass.
    ///
    /// Entries are sorted and de-duplicated (probabilities of duplicates are
    /// summed); negative probabilities are clamped to zero; the result is
    /// normalized so the total mass is 1 (a distribution with zero total mass
    /// falls back to uniform).
    pub fn from_entries(n: usize, mut entries: Vec<(RequestId, f64)>, residual: f64) -> Self {
        assert!(n > 0, "request space must be non-empty");
        entries.retain(|&(r, _)| r.index() < n);
        entries.sort_by_key(|&(r, _)| r);
        let mut merged: Vec<(RequestId, f64)> = Vec::with_capacity(entries.len());
        for (r, p) in entries {
            let p = p.max(0.0);
            match merged.last_mut() {
                Some((lr, lp)) if *lr == r => *lp += p,
                _ => merged.push((r, p)),
            }
        }
        let residual = residual.max(0.0);
        let explicit_mass: f64 = merged.iter().map(|&(_, p)| p).sum();
        let total = explicit_mass + if merged.len() < n { residual } else { 0.0 };
        if total <= 0.0 {
            return Self::uniform(n);
        }
        for (_, p) in &mut merged {
            *p /= total;
        }
        let residual = if merged.len() < n {
            residual / total
        } else {
            0.0
        };
        SparseDistribution {
            n,
            explicit: merged,
            residual,
        }
    }

    /// Builds a normalized distribution from unnormalized per-request weights,
    /// treating requests absent from `weights` as zero-probability.
    pub fn from_weights(n: usize, weights: Vec<(RequestId, f64)>) -> Self {
        Self::from_entries(n, weights, 0.0)
    }

    /// Builds a distribution from entries that are *already* normalized
    /// (together with `residual` they sum to ≈ 1), without renormalizing:
    /// the stored bits equal the input bits exactly.
    ///
    /// This is the constructor the prediction-delta path relies on.  The
    /// server reconstructs the client's summary bit-for-bit from sparse
    /// changes; [`from_entries`](SparseDistribution::from_entries) would
    /// divide every probability by the total (≈ 1 but rarely exactly 1),
    /// perturbing the unchanged entries and destroying delta sparsity.
    ///
    /// `entries` must be sorted by ascending id with unique, in-range ids
    /// and finite non-negative probabilities; `residual` must be finite and
    /// non-negative.  These are debug-asserted — callers decoding untrusted
    /// input (the wire codec) validate before constructing.
    pub fn from_normalized(n: usize, entries: Vec<(RequestId, f64)>, residual: f64) -> Self {
        assert!(n > 0, "request space must be non-empty");
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be sorted by ascending unique id"
        );
        debug_assert!(
            entries
                .iter()
                .all(|&(r, p)| r.index() < n && p.is_finite() && p >= 0.0),
            "entries must be in range with finite non-negative probabilities"
        );
        debug_assert!(
            residual.is_finite() && residual >= 0.0,
            "residual must be finite and non-negative"
        );
        let residual = if entries.len() >= n { 0.0 } else { residual };
        SparseDistribution {
            n,
            explicit: entries,
            residual,
        }
    }

    /// Size of the request space.
    pub fn num_requests(&self) -> usize {
        self.n
    }

    /// The explicit (materialized) entries, sorted by request id.
    pub fn explicit_entries(&self) -> &[(RequestId, f64)] {
        &self.explicit
    }

    /// Total probability mass on requests without an explicit entry.
    pub fn residual_mass(&self) -> f64 {
        self.residual
    }

    /// Number of requests covered only by the residual mass.
    pub fn residual_count(&self) -> usize {
        self.n - self.explicit.len()
    }

    /// Per-request probability of a request covered by the residual mass.
    pub fn residual_per_request(&self) -> f64 {
        let cnt = self.residual_count();
        if cnt == 0 {
            0.0
        } else {
            self.residual / cnt as f64
        }
    }

    /// Where each of `ids` (strictly ascending) sits in the explicit list —
    /// `Ok(index)`, or `Err(index it would be inserted at)` — by one forward
    /// galloping walk: `Δ` ids cost `O(Δ · log(m / Δ))` probes that only ever
    /// move forward, not `Δ` cold binary searches over the whole list.
    fn sites_of<'a>(
        &'a self,
        ids: impl Iterator<Item = RequestId> + 'a,
    ) -> impl Iterator<Item = Result<usize, usize>> + 'a {
        let mut from = 0;
        ids.map(move |r| {
            let site = gallop(&self.explicit, from, r);
            from = site.unwrap_or_else(|i| i);
            site
        })
    }

    /// Finds where a sorted patch lands in the explicit list, read-only, so
    /// a caller can validate every slice of a delta before mutating any.
    /// Both id lists must be strictly ascending and disjoint.  `None` if a
    /// remove names an id with no explicit entry.
    pub(crate) fn locate_patch(
        &self,
        upserts: &[(RequestId, f64)],
        removes: &[RequestId],
    ) -> Option<PatchSites> {
        Some(PatchSites {
            upserts: self.sites_of(upserts.iter().map(|&(r, _)| r)).collect(),
            removes: (self.sites_of(removes.iter().copied()))
                .map(Result::ok)
                .collect::<Option<_>>()?,
        })
    }

    /// Applies a located patch inside the entry vector: hits are overwritten
    /// where they sit, removed entries are compacted out forward, and joins
    /// are opened from the back, so nothing is rebuilt and only the stretch
    /// between the first structural change and the end moves.  `residual`
    /// replaces the residual mass when given; as in
    /// [`from_normalized`](SparseDistribution::from_normalized), a list that
    /// covers the whole request space stores a residual of 0.
    ///
    /// This is the only way a prediction mirror (the client's
    /// [`DeltaTracker`](crate::delta::DeltaTracker), the server's
    /// [`ShadowSummary`](crate::delta::ShadowSummary)) moves between whole
    /// summaries.  `sites` must come from
    /// [`locate_patch`](SparseDistribution::locate_patch) (or an equivalent
    /// walk) over this distribution and these `upserts`.
    pub(crate) fn apply_patch(
        &mut self,
        sites: &PatchSites,
        upserts: &[(RequestId, f64)],
        residual: Option<f64>,
    ) {
        debug_assert_eq!(sites.upserts.len(), upserts.len());
        let entries = &mut self.explicit;
        for (site, &entry) in sites.upserts.iter().zip(upserts) {
            if let Ok(i) = *site {
                debug_assert_eq!(entries[i].0, entry.0);
                entries[i] = entry;
            }
        }
        if let Some(&first) = sites.removes.first() {
            let mut kept = first;
            for (k, &gone) in sites.removes.iter().enumerate() {
                let next = sites.removes.get(k + 1).map_or(entries.len(), |&i| i);
                entries.copy_within(gone + 1..next, kept);
                kept += next - (gone + 1);
            }
            entries.truncate(kept);
        }
        let mut joins = sites.upserts.iter().filter(|s| s.is_err()).count();
        if joins > 0 {
            // `end` is where the not yet shifted prefix stops; a join's site
            // indexes the list as located, so removes before it pull it left.
            let mut end = entries.len();
            let mut removed_before = sites.removes.len();
            entries.resize(end + joins, (RequestId(0), 0.0));
            for (site, &entry) in sites.upserts.iter().zip(upserts).rev() {
                let Err(site) = *site else { continue };
                while removed_before > 0 && sites.removes[removed_before - 1] >= site {
                    removed_before -= 1;
                }
                let at = site - removed_before;
                entries.copy_within(at..end, at + joins);
                joins -= 1;
                entries[at + joins] = entry;
                end = at;
            }
        }
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "a patch keeps entries sorted by ascending unique id"
        );
        let residual = residual.unwrap_or(self.residual);
        self.residual = if entries.len() >= self.n {
            0.0
        } else {
            residual
        };
    }

    /// Overwrites this distribution with `src` (same request space), keeping
    /// the entry vector's allocation when it is large enough: how a mirror
    /// takes a whole summary without a second clone of it.
    pub(crate) fn copy_from(&mut self, src: &SparseDistribution) {
        debug_assert_eq!(self.n, src.n, "slice request-space mismatch");
        self.explicit.clone_from(&src.explicit);
        self.residual = src.residual;
    }

    /// How many of `ids` (strictly ascending) have an explicit entry.
    pub(crate) fn count_explicit(&self, ids: &[RequestId]) -> usize {
        self.sites_of(ids.iter().copied())
            .filter(Result::is_ok)
            .count()
    }

    /// Probability of `request`.
    pub fn prob(&self, request: RequestId) -> f64 {
        match self.explicit.binary_search_by_key(&request, |&(r, _)| r) {
            Ok(i) => self.explicit[i].1,
            Err(_) => self.residual_per_request(),
        }
    }

    /// Linear interpolation between two distributions over the same request
    /// space: `(1 - w) * self + w * other`.
    pub fn lerp(&self, other: &SparseDistribution, w: f64) -> SparseDistribution {
        assert_eq!(self.n, other.n, "request spaces must match");
        let w = w.clamp(0.0, 1.0);
        let mut entries: Vec<(RequestId, f64)> = Vec::new();
        for &(r, p) in &self.explicit {
            entries.push((r, (1.0 - w) * p + w * other.prob(r)));
        }
        for &(r, p) in &other.explicit {
            if self.explicit.binary_search_by_key(&r, |&(x, _)| x).is_err() {
                entries.push((r, (1.0 - w) * self.prob(r) + w * p));
            }
        }
        // Residual mass interpolates linearly too; from_entries renormalizes,
        // but the inputs are already normalized so this is exact up to fp
        // error.  Two distributions without residual mass blend to none,
        // whatever `1 - explicit_mass` rounds to.
        let explicit_mass: f64 = entries.iter().map(|&(_, p)| p).sum();
        let residual = if self.residual <= 0.0 && other.residual <= 0.0 {
            0.0
        } else {
            (1.0 - explicit_mass).max(0.0)
        };
        SparseDistribution::from_entries(self.n, entries, residual)
    }
}

/// A prediction for one future offset: the distribution of requests Δ
/// milliseconds from now.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonSlice {
    /// Offset into the future this slice predicts for.
    pub delta: Duration,
    /// Distribution over requests at that offset.
    pub dist: SparseDistribution,
}

/// The prediction state a client sends to the server: distributions for a
/// fixed set of future offsets (§4, §6.1 uses Δ ∈ {50, 150, 250, 500} ms).
///
/// The scheduler linearly interpolates between offsets and holds the last
/// distribution constant beyond the final offset (the paper's 500 ms slice is
/// itself uniform, so in practice long horizons decay toward uniform).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionSummary {
    n: usize,
    slices: Vec<HorizonSlice>,
    /// Time at which the prediction was generated (client clock).
    pub generated_at: crate::types::Time,
}

impl PredictionSummary {
    /// The default future offsets used by the paper's experiments.
    pub fn default_deltas() -> Vec<Duration> {
        vec![
            Duration::from_millis(50),
            Duration::from_millis(150),
            Duration::from_millis(250),
            Duration::from_millis(500),
        ]
    }

    /// Builds a summary from per-offset slices (sorted by offset).
    pub fn new(n: usize, mut slices: Vec<HorizonSlice>, generated_at: crate::types::Time) -> Self {
        assert!(!slices.is_empty(), "a prediction needs at least one slice");
        for s in &slices {
            assert_eq!(s.dist.num_requests(), n, "slice request-space mismatch");
        }
        slices.sort_by_key(|s| s.delta);
        PredictionSummary {
            n,
            slices,
            generated_at,
        }
    }

    /// A summary that is uniform at every offset — the scheduler's default
    /// when the application registers no predictor (§3.2).
    pub fn uniform(n: usize, generated_at: crate::types::Time) -> Self {
        let slices = Self::default_deltas()
            .into_iter()
            .map(|delta| HorizonSlice {
                delta,
                dist: SparseDistribution::uniform(n),
            })
            .collect();
        Self::new(n, slices, generated_at)
    }

    /// A summary that predicts `request` with probability 1 at every offset —
    /// the "generic default" point predictor of §3.4.
    pub fn point(n: usize, request: RequestId, generated_at: crate::types::Time) -> Self {
        let slices = Self::default_deltas()
            .into_iter()
            .map(|delta| HorizonSlice {
                delta,
                dist: SparseDistribution::point(n, request),
            })
            .collect();
        Self::new(n, slices, generated_at)
    }

    /// Size of the request space.
    pub fn num_requests(&self) -> usize {
        self.n
    }

    /// The per-offset slices, sorted by offset.
    pub fn slices(&self) -> &[HorizonSlice] {
        &self.slices
    }

    /// Approximate number of floating-point values needed to transmit this
    /// summary (used to account for uplink overhead in the simulator).
    pub fn wire_size_bytes(&self) -> u64 {
        let values: usize = self
            .slices
            .iter()
            .map(|s| 2 * s.dist.explicit_entries().len() + 2)
            .sum();
        (values * 8) as u64
    }

    /// Distribution at an arbitrary offset, linearly interpolating between the
    /// available slices and clamping beyond the ends.
    pub fn at(&self, delta: Duration) -> SparseDistribution {
        let first = &self.slices[0];
        if delta <= first.delta {
            return first.dist.clone();
        }
        for w in self.slices.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if delta <= b.delta {
                let span = (b.delta.as_micros() - a.delta.as_micros()) as f64;
                let frac = if span <= 0.0 {
                    1.0
                } else {
                    (delta.as_micros() - a.delta.as_micros()) as f64 / span
                };
                return a.dist.lerp(&b.dist, frac);
            }
        }
        // lint:allow(unwrap) -- Prediction slices are non-empty by construction (checked in the constructor)
        self.slices.last().expect("non-empty").dist.clone()
    }

    /// The distribution of slice `idx`, for the prediction-delta mirrors to
    /// patch in place ([`SparseDistribution::apply_patch`]); the request
    /// space of a slice never changes, so no summary invariant can break.
    pub(crate) fn dist_mut(&mut self, idx: usize) -> &mut SparseDistribution {
        &mut self.slices[idx].dist
    }

    /// The set of requests with an explicit entry in *any* slice — the
    /// requests the scheduler must materialize (everything else is covered by
    /// the uniform meta-request).
    pub fn materialized_requests(&self) -> Vec<RequestId> {
        let mut ids: Vec<RequestId> = self
            .slices
            .iter()
            .flat_map(|s| s.dist.explicit_entries().iter().map(|&(r, _)| r))
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

/// Where a sorted patch lands in a [`SparseDistribution`]'s explicit list,
/// as indices into the list *before* the patch.
#[derive(Debug, Default)]
pub(crate) struct PatchSites {
    /// Per upsert: `Ok(i)` overwrites entry `i`, `Err(i)` joins before it.
    pub(crate) upserts: Vec<Result<usize, usize>>,
    /// Per remove: the index of the entry that goes.
    pub(crate) removes: Vec<usize>,
}

/// `binary_search` for `id` over `entries[from..]`, galloping: doubling
/// strides from `from` bracket the id, then a binary search inside the last
/// stride — `O(log distance)`, and the cache lines touched lie forward of
/// `from`.  Every entry before `from` must be below `id`.
fn gallop(entries: &[(RequestId, f64)], from: usize, id: RequestId) -> Result<usize, usize> {
    let (mut lo, mut stride) = (from, 1);
    while lo + stride <= entries.len() && entries[lo + stride - 1].0 < id {
        lo += stride;
        stride *= 2;
    }
    let hi = (lo + stride).min(entries.len());
    match entries[lo..hi].binary_search_by_key(&id, |&(r, _)| r) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

/// `|A ∪ B|` for two sorted explicit-entry lists — the adjacent-pair union
/// count both the scheduler's slot plan and the prediction-delta shadow
/// maintain (one merge walk, so both sides compute the identical integer).
pub(crate) fn union_count(a: &[(RequestId, f64)], b: &[(RequestId, f64)]) -> usize {
    let mut union = 0usize;
    let (mut x, mut y) = (0usize, 0usize);
    while x < a.len() || y < b.len() {
        union += 1;
        match (a.get(x), b.get(y)) {
            (Some(&(ra, _)), Some(&(rb, _))) => {
                if ra == rb {
                    x += 1;
                    y += 1;
                } else if ra < rb {
                    x += 1;
                } else {
                    y += 1;
                }
            }
            (Some(_), None) => x += 1,
            (None, _) => y += 1,
        }
    }
    union
}

/// Observers the predictor modules' tests read.
#[cfg(test)]
impl SparseDistribution {
    /// Total probability mass (should be ≈ 1).
    pub(crate) fn total_mass(&self) -> f64 {
        self.explicit.iter().map(|&(_, p)| p).sum::<f64>() + self.residual
    }

    /// The most probable request, breaking ties toward lower ids.  Returns
    /// `None` only when the distribution is fully uniform (no explicit entry
    /// beats the residual).
    pub(crate) fn argmax(&self) -> Option<RequestId> {
        let per_resid = self.residual_per_request();
        self.explicit
            .iter()
            .copied()
            .filter(|&(_, p)| p > per_resid)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Time;

    #[test]
    fn uniform_distribution() {
        let d = SparseDistribution::uniform(4);
        assert!((d.prob(RequestId(0)) - 0.25).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(d.argmax(), None);
        assert_eq!(d.residual_count(), 4);
    }

    #[test]
    fn point_distribution() {
        let d = SparseDistribution::point(10, RequestId(3));
        assert!((d.prob(RequestId(3)) - 1.0).abs() < 1e-12);
        assert_eq!(d.prob(RequestId(0)), 0.0);
        assert_eq!(d.argmax(), Some(RequestId(3)));
    }

    #[test]
    fn from_entries_normalizes_and_merges() {
        let d = SparseDistribution::from_entries(
            8,
            vec![
                (RequestId(1), 2.0),
                (RequestId(1), 2.0),
                (RequestId(5), 4.0),
            ],
            2.0,
        );
        assert!((d.prob(RequestId(1)) - 0.4).abs() < 1e-12);
        assert!((d.prob(RequestId(5)) - 0.4).abs() < 1e-12);
        assert!((d.residual_mass() - 0.2).abs() < 1e-12);
        assert!((d.prob(RequestId(0)) - 0.2 / 6.0).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_entries_handles_degenerate_input() {
        // All-zero weights fall back to uniform.
        let d = SparseDistribution::from_entries(5, vec![(RequestId(1), 0.0)], 0.0);
        assert!((d.prob(RequestId(4)) - 0.2).abs() < 1e-12);
        // Out-of-range requests are dropped.
        let d = SparseDistribution::from_entries(3, vec![(RequestId(7), 1.0)], 1.0);
        assert!((d.prob(RequestId(0)) - 1.0 / 3.0).abs() < 1e-12);
        // Negative probabilities are clamped.
        let d = SparseDistribution::from_entries(
            3,
            vec![(RequestId(0), -5.0), (RequestId(1), 1.0)],
            0.0,
        );
        assert_eq!(d.prob(RequestId(0)), 0.0);
        assert!((d.prob(RequestId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_blends_probabilities() {
        let a = SparseDistribution::point(4, RequestId(0));
        let b = SparseDistribution::point(4, RequestId(1));
        let mid = a.lerp(&b, 0.5);
        assert!((mid.prob(RequestId(0)) - 0.5).abs() < 1e-9);
        assert!((mid.prob(RequestId(1)) - 0.5).abs() < 1e-9);
        assert!((mid.total_mass() - 1.0).abs() < 1e-9);
        // Endpoints.
        assert!((a.lerp(&b, 0.0).prob(RequestId(0)) - 1.0).abs() < 1e-9);
        assert!((a.lerp(&b, 1.0).prob(RequestId(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_interpolates_over_time() {
        let n = 4;
        let slices = vec![
            HorizonSlice {
                delta: Duration::from_millis(50),
                dist: SparseDistribution::point(n, RequestId(0)),
            },
            HorizonSlice {
                delta: Duration::from_millis(150),
                dist: SparseDistribution::point(n, RequestId(1)),
            },
        ];
        let s = PredictionSummary::new(n, slices, Time::ZERO);
        // Before the first slice: first distribution.
        assert!((s.at(Duration::from_millis(10)).prob(RequestId(0)) - 1.0).abs() < 1e-9);
        // Midway: blend.
        let p = s.at(Duration::from_millis(100)).prob(RequestId(0));
        assert!((p - 0.5).abs() < 1e-9);
        // Past the last slice: last distribution.
        assert!((s.at(Duration::from_millis(400)).prob(RequestId(1)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_defaults() {
        let u = PredictionSummary::uniform(100, Time::ZERO);
        assert_eq!(u.slices().len(), 4);
        assert!((u.at(Duration::from_millis(75)).prob(RequestId(42)) - 0.01).abs() < 1e-9);
        assert!(u.materialized_requests().is_empty());

        let p = PredictionSummary::point(100, RequestId(3), Time::ZERO);
        assert_eq!(p.materialized_requests(), vec![RequestId(3)]);
        assert!(p.wire_size_bytes() > 0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any distribution built from arbitrary weights is a valid
            /// probability distribution (mass 1, all probabilities in [0,1]).
            #[test]
            fn normalized(
                n in 1usize..64,
                entries in proptest::collection::vec((0u32..64, 0.0f64..10.0), 0..20),
                residual in 0.0f64..10.0
            ) {
                let d = SparseDistribution::from_entries(
                    n,
                    entries.into_iter().map(|(r, p)| (RequestId(r), p)).collect(),
                    residual,
                );
                prop_assert!((d.total_mass() - 1.0).abs() < 1e-6);
                for i in 0..n {
                    let p = d.prob(RequestId::from(i));
                    prop_assert!((-1e-9..=1.0 + 1e-9).contains(&p));
                }
            }

            /// The in-place patch is the rebuild it replaced: same entries,
            /// same bits, same residual rule; a remove of an absent id is
            /// caught while locating, before anything moves.
            #[test]
            fn patch_matches_rebuild(
                n in 1usize..48,
                old in proptest::collection::vec((0u32..48, 0.0f64..1.0), 0..48),
                ops in proptest::collection::vec((0u32..48, 0.0f64..1.0, 0u32..3), 0..48),
                residual in (0u32..2, 0.0f64..1.0)
            ) {
                use std::collections::BTreeMap;
                let in_range = |r: u32| (r as usize) < n;
                let old: BTreeMap<RequestId, f64> = (old.into_iter())
                    .filter(|&(r, _)| in_range(r))
                    .map(|(r, p)| (RequestId(r), p))
                    .collect();
                // Last op per id wins; one in three is a remove.
                let ops: BTreeMap<RequestId, Option<f64>> = (ops.into_iter())
                    .filter(|&(r, _, _)| in_range(r))
                    .map(|(r, p, kind)| (RequestId(r), (kind > 0).then_some(p)))
                    .collect();
                let upserts: Vec<(RequestId, f64)> =
                    ops.iter().filter_map(|(&r, p)| p.map(|p| (r, p))).collect();
                let removes: Vec<RequestId> =
                    ops.iter().filter(|(_, p)| p.is_none()).map(|(&r, _)| r).collect();
                let residual = (residual.0 > 0).then_some(residual.1);

                let mut dist =
                    SparseDistribution::from_normalized(n, old.clone().into_iter().collect(), 0.25);
                let present = removes.iter().filter(|r| old.contains_key(r)).count();
                prop_assert_eq!(dist.count_explicit(&removes), present);
                match dist.locate_patch(&upserts, &removes) {
                    None => prop_assert!(present < removes.len(), "every remove was present"),
                    Some(sites) => {
                        prop_assert_eq!(present, removes.len());
                        let mut want = old;
                        want.extend(upserts.iter().copied());
                        want.retain(|r, _| !removes.contains(r));
                        let want = SparseDistribution::from_normalized(
                            n,
                            want.into_iter().collect(),
                            residual.unwrap_or(dist.residual_mass()),
                        );
                        dist.apply_patch(&sites, &upserts, residual);
                        let bits = |d: &SparseDistribution| {
                            let entries: Vec<(u32, u64)> = (d.explicit_entries().iter())
                                .map(|&(r, p)| (r.0, p.to_bits()))
                                .collect();
                            (entries, d.residual_mass().to_bits())
                        };
                        prop_assert_eq!(bits(&dist), bits(&want));
                    }
                }
            }

            /// Interpolation between two valid distributions stays valid.
            #[test]
            fn lerp_valid(
                n in 1usize..32,
                a_req in 0u32..32,
                b_req in 0u32..32,
                w in 0.0f64..1.0
            ) {
                let a = SparseDistribution::point(n, RequestId(a_req % n as u32));
                let b = SparseDistribution::point(n, RequestId(b_req % n as u32));
                let m = a.lerp(&b, w);
                prop_assert!((m.total_mass() - 1.0).abs() < 1e-6);
            }
        }
    }
}
