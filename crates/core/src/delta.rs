//! Prediction deltas: `O(Δ)` uplink encoding and the server-side shadow.
//!
//! A scheduler can absorb a prediction in time proportional to the number
//! of changed requests, but not when it is fed whole
//! [`PredictionSummary`]s: the client ships `O(m · slices)` floats per
//! update and the server has to look at all of them to discover that most
//! are unchanged — at which point installing the summary afresh costs the
//! same.  This module closes both gaps:
//!
//! * [`DeltaTracker`] (client side) diffs consecutive summaries bit-exactly
//!   and emits either a [`ClientMessage::PredictorFull`] or a
//!   [`ClientMessage::PredictorDelta`] carrying only the entries whose
//!   stored `f64` bits changed, tagged with a generation chain.
//! * [`ShadowSummary`] (server side, one per session) reconstructs the
//!   client's summary bit-for-bit from the delta and hands the scheduler a
//!   precomputed changed-set plus the per-slice scalars a
//!   [`SlotPlan`](crate::scheduler) needs — so
//!   [`HorizonModel::apply_update_sparse`] plans in `O(Δ · slices)` with no
//!   signature scan.
//!
//! Bit-exactness is load-bearing: the shadow must reproduce the *exact*
//! bits the client's summary holds, or unchanged requests would grow
//! spurious signature diffs and the sparse changed-set would be dishonest.
//! That is why both mirrors move by overwriting stored entries
//! ([`SparseDistribution::apply_patch`], no renormalization) and why
//! [`DeltaTracker`] compares probabilities by bit pattern, not by value.
//!
//! # What a delta costs
//!
//! Between whole summaries each mirror — the tracker's copy of what it last
//! shipped, the shadow's copy of what it last received — moves only by that
//! one in-place patch; nothing is cloned or rebuilt.  Per delta of `Δ`
//! changed entries over an `m`-entry prediction:
//!
//! * `O(Δ)`, with `O(log)` factors: locating the patch (a forward galloping
//!   walk per slice, which is also what proves every remove present),
//!   overwriting the hits, the explicit-slice tallies behind the
//!   changed-set's completeness proof, the adjacent-pair unions `|A ∪ B|`
//!   (kept as exact integers under single-element updates: each id that
//!   joined or left a slice is probed against the two neighbouring slices,
//!   nothing is re-merged), and the changed-set itself.
//! * One memmove per structurally changed slice, from the first join or
//!   remove to the end of the entry vector: the price of keeping entries
//!   sorted in one allocation.  A rescale-only delta moves nothing.
//! * One read-only pass per *touched* slice to re-sum its explicit mass in
//!   entry order.  It stays because the sum has to carry the bits
//!   [`SummaryScalars::of`] gets from a full scan, and floating addition
//!   is not associative: an order-free accumulator is `O(Δ)` but rounds
//!   differently from the entry-order sum (a 2⁻⁸⁰ fixed-point one was
//!   tried, and tripped `scheduler::tests::oracle` on an ε-borderline
//!   seed).
//! * The tracker's diff is one read-only walk of both summaries — it has no
//!   changed-set to start from; finding one is its job — that passes runs of
//!   unchanged entries in a tight comparison, notes the sites of the changes
//!   on the way (so its own mirror is patched without being searched), and
//!   stops the moment the delta outgrows the size at which a whole summary
//!   ships instead.
//!
//! A delta that names a base generation the shadow does not hold is refused
//! with [`DeltaError::GenerationMismatch`]; servers surface this as
//! [`ServerEvent::Resync`](crate::protocol::ServerEvent::Resync) and the
//! client answers with a fresh full summary.
//!
//! [`HorizonModel::apply_update_sparse`]: crate::scheduler::HorizonModel::apply_update_sparse
//! [`ClientMessage::PredictorFull`]: crate::protocol::ClientMessage::PredictorFull
//! [`ClientMessage::PredictorDelta`]: crate::protocol::ClientMessage::PredictorDelta
//! [`SparseDistribution::apply_patch`]: crate::distribution::SparseDistribution

use std::collections::HashMap;

use crate::distribution::{union_count, PatchSites, PredictionSummary};
use crate::protocol::ClientMessage;
use crate::types::{RequestId, Time};

/// Changes to one horizon slice: entries whose probability changed or that
/// joined the explicit set (`upserts`), entries that left it (`removes`),
/// and the slice's residual mass when it changed.  Both id lists are sorted
/// ascending and disjoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SliceDelta {
    /// New or changed explicit entries, ascending by id.
    pub upserts: Vec<(RequestId, f64)>,
    /// Entries dropped from the explicit set, ascending by id.
    pub removes: Vec<RequestId>,
    /// The slice's new residual mass, when it changed (`None` = unchanged).
    pub residual: Option<f64>,
}

impl SliceDelta {
    /// Whether this slice delta changes anything.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removes.is_empty() && self.residual.is_none()
    }

    /// This slice's share of [`PredictionDelta::wire_size_bytes`].
    fn wire_bytes(&self) -> u64 {
        let counts = 4;
        let residual = if self.residual.is_some() { 8 } else { 0 };
        counts + 12 * self.upserts.len() as u64 + 4 * self.removes.len() as u64 + residual
    }
}

/// Generations and timestamp of a [`PredictionDelta`] on the wire.
const DELTA_HEADER_BYTES: u64 = 24;

/// A prediction update expressed as the difference against a previous
/// summary, identified by a generation chain: applying this delta to the
/// summary at `base_generation` yields the summary at `generation`,
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionDelta {
    /// Generation of the summary this delta applies on top of.
    pub base_generation: u64,
    /// Generation of the summary this delta produces.
    pub generation: u64,
    /// Client clock at which the new prediction was generated.
    pub generated_at: Time,
    /// Per-slice changes, in slice order (same length as the summary's
    /// slice list; untouched slices carry an empty [`SliceDelta`]).
    pub slices: Vec<SliceDelta>,
}

impl PredictionDelta {
    /// Total number of changed entries (upserts plus removes) across all
    /// slices — the `Δ` in `O(Δ)`.
    pub fn changed_entries(&self) -> usize {
        self.slices
            .iter()
            .map(|s| s.upserts.len() + s.removes.len())
            .sum()
    }

    /// Approximate encoded size in bytes, on the same coarse scale as
    /// [`PredictionSummary::wire_size_bytes`]: an upsert costs an id plus a
    /// probability, a remove costs an id, plus small per-slice and
    /// per-message headers.
    pub fn wire_size_bytes(&self) -> u64 {
        DELTA_HEADER_BYTES + self.slices.iter().map(SliceDelta::wire_bytes).sum::<u64>()
    }
}

/// Per-slice scalars of a summary that a slot plan would otherwise derive
/// by scanning every explicit entry: explicit probability mass per slice
/// and `|A ∪ B|` per adjacent slice pair.  The shadow re-sums the mass of
/// each slice a delta touched in entry order — the summation order of
/// [`SummaryScalars::of`] — and keeps the unions as exact counts, so both
/// produce identical plans.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryScalars {
    /// Explicit probability mass per slice, in slice order.
    pub masses: Vec<f64>,
    /// `|A ∪ B|` for each adjacent slice pair (`len == slices - 1`).
    pub pair_unions: Vec<usize>,
}

impl SummaryScalars {
    /// Derives the scalars of `summary` by a full scan: each slice's mass
    /// summed in entry order, each adjacent pair's union by a merge.
    pub fn of(summary: &PredictionSummary) -> Self {
        let slices = summary.slices();
        SummaryScalars {
            masses: (slices.iter())
                .map(|s| s.dist.explicit_entries().iter().map(|&(_, p)| p).sum())
                .collect(),
            pair_unions: (slices.windows(2))
                .map(|w| union_count(w[0].dist.explicit_entries(), w[1].dist.explicit_entries()))
                .collect(),
        }
    }
}

/// The changed-set a [`ShadowSummary`] hands the scheduler alongside the
/// patched summary: every request whose per-slice probabilities (hence
/// signature) may differ from the previous summary, plus the slot-plan
/// scalars.  Drives
/// [`Scheduler::update_prediction_sparse`](crate::scheduler::Scheduler::update_prediction_sparse).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionChanges {
    /// Requests whose probabilities changed, ascending and unique.  A
    /// superset is allowed (unchanged entries diff to no-ops); an omission
    /// would corrupt the model, so the shadow only takes the sparse path
    /// when it can prove the set complete.
    pub changed: Vec<RequestId>,
    /// Slot-plan scalars of the *new* summary.
    pub scalars: SummaryScalars,
}

/// Why a delta could not be applied to a [`ShadowSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta's base generation does not match the shadow's current
    /// generation (or the shadow holds no summary at all).  The client must
    /// resend a full summary.
    GenerationMismatch {
        /// The generation the shadow holds, if any.
        have: Option<u64>,
        /// The base generation the delta named.
        want: u64,
    },
    /// The delta is structurally invalid (unsorted ids, out-of-range
    /// entries, removes of absent entries, non-finite probabilities, slice
    /// count mismatch).  The shadow is left untouched.
    Malformed(&'static str),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::GenerationMismatch { have, want } => match have {
                Some(g) => write!(f, "delta base generation {want} does not match shadow {g}"),
                None => write!(
                    f,
                    "delta base generation {want} but no shadow summary installed"
                ),
            },
            DeltaError::Malformed(why) => write!(f, "malformed prediction delta: {why}"),
        }
    }
}

/// Result of applying a delta to a [`ShadowSummary`].
#[derive(Debug)]
pub enum ShadowApply<'a> {
    /// The delta was applied and the changed-set is provably complete:
    /// drive the sparse scheduler path.
    Sparse {
        /// The patched summary (bit-identical to the client's).
        summary: &'a PredictionSummary,
        /// The changed-set and slot-plan scalars.
        changes: PredictionChanges,
    },
    /// The delta was applied, but a slice's residual-per-request changed
    /// while some materialized request lacks an explicit entry in every
    /// slice — such requests' signatures shifted without appearing in the
    /// delta, so the sparse path would be unsound.  Install the summary
    /// whole (still `O(Δ)` on the wire).
    Full {
        /// The patched summary (bit-identical to the client's).
        summary: &'a PredictionSummary,
    },
}

/// Server-side mirror of one client's prediction summary, patched in place
/// by [`PredictionDelta`]s.  One per session/connection.
///
/// Alongside the summary the shadow maintains, incrementally, everything
/// the sparse scheduler path needs:
///
/// * per-slice explicit mass ([`SummaryScalars`]), re-summed only for
///   touched slices, and adjacent-pair union counts, moved by the ids that
///   joined or left a slice;
/// * per-request explicit-slice counts and a tally of *partial* requests
///   (explicit in some slices but not all), which is what lets it certify
///   the changed-set as complete (a request explicit in every slice never
///   reads a slice's residual-per-request, so residual shifts cannot
///   silently change its signature).
#[derive(Debug, Default)]
pub struct ShadowSummary {
    state: Option<ShadowState>,
}

#[derive(Debug)]
struct ShadowState {
    generation: u64,
    summary: PredictionSummary,
    scalars: SummaryScalars,
    /// How many slices carry an explicit entry for each materialized
    /// request.
    explicit_in: HashMap<RequestId, usize>,
    /// Materialized requests not explicit in every slice.
    partial: usize,
}

impl ShadowSummary {
    /// An empty shadow (no summary installed; every delta is refused).
    pub fn new() -> Self {
        ShadowSummary::default()
    }

    /// Drops the installed summary; subsequent deltas are refused until the
    /// next [`install`](ShadowSummary::install).
    pub fn clear(&mut self) {
        self.state = None;
    }

    /// The installed summary, if any.
    pub fn summary(&self) -> Option<&PredictionSummary> {
        self.state.as_ref().map(|s| &s.summary)
    }

    /// Installs a full summary at `generation`, deriving all incremental
    /// state from scratch (`O(m · slices)` — the price of a full update,
    /// paid only on install/resync).
    pub fn install(&mut self, generation: u64, summary: PredictionSummary) {
        let slices = summary.slices();
        let scalars = SummaryScalars::of(&summary);
        let mut explicit_in: HashMap<RequestId, usize> = HashMap::new();
        for s in slices {
            for &(r, _) in s.dist.explicit_entries() {
                *explicit_in.entry(r).or_insert(0) += 1;
            }
        }
        let partial = (explicit_in.values())
            .filter(|&&c| c != slices.len())
            .count();
        self.state = Some(ShadowState {
            generation,
            summary,
            scalars,
            explicit_in,
            partial,
        });
    }

    /// Applies `delta`, patching the summary in place and returning the
    /// changed-set (or a full-path directive).  On error the shadow is left
    /// exactly as it was: validation completes before any mutation.
    pub fn apply(&mut self, delta: &PredictionDelta) -> Result<ShadowApply<'_>, DeltaError> {
        let state = self.state.as_mut().ok_or(DeltaError::GenerationMismatch {
            have: None,
            want: delta.base_generation,
        })?;
        if state.generation != delta.base_generation {
            return Err(DeltaError::GenerationMismatch {
                have: Some(state.generation),
                want: delta.base_generation,
            });
        }
        let slices = state.summary.slices();
        if delta.slices.len() != slices.len() {
            return Err(DeltaError::Malformed("slice count mismatch"));
        }
        let n = state.summary.num_requests();

        // --- validate everything before mutating anything ---
        // Locating the patch is part of it: the forward walk that finds
        // where each entry lands is also what proves every remove present.
        let mut sites: Vec<Option<PatchSites>> = Vec::with_capacity(slices.len());
        for (sd, slice) in delta.slices.iter().zip(slices) {
            if !strictly_ascending(sd.upserts.iter().map(|&(r, _)| r)) {
                return Err(DeltaError::Malformed("upserts not sorted/unique"));
            }
            if !strictly_ascending(sd.removes.iter().copied()) {
                return Err(DeltaError::Malformed("removes not sorted/unique"));
            }
            if sd
                .upserts
                .iter()
                .any(|&(r, p)| r.index() >= n || !p.is_finite() || p < 0.0)
            {
                return Err(DeltaError::Malformed("upsert out of range or non-finite"));
            }
            if sd.removes.iter().any(|&r| r.index() >= n) {
                return Err(DeltaError::Malformed("remove out of range"));
            }
            if sorted_intersect(&sd.upserts, &sd.removes) {
                return Err(DeltaError::Malformed("id both upserted and removed"));
            }
            if let Some(res) = sd.residual {
                if !res.is_finite() || res < 0.0 {
                    return Err(DeltaError::Malformed("residual non-finite or negative"));
                }
            }
            sites.push(if sd.is_empty() {
                None
            } else {
                let located = slice.dist.locate_patch(&sd.upserts, &sd.removes);
                Some(located.ok_or(DeltaError::Malformed("remove of absent entry"))?)
            });
        }

        // --- apply (infallible from here) ---
        let nslices = slices.len();
        let mut rpp_changed = false;
        for (i, (sd, sites)) in delta.slices.iter().zip(&sites).enumerate() {
            let Some(sites) = sites else { continue };
            let dist = state.summary.dist_mut(i);
            let old_rpp = dist.residual_per_request().to_bits();
            dist.apply_patch(sites, &sd.upserts, sd.residual);
            rpp_changed |= dist.residual_per_request().to_bits() != old_rpp;
            // One read-only pass in entry order — the summation order of a
            // full entry scan, which an order-free accumulator cannot
            // reproduce — so the sparse slot plan is bit-identical to the
            // full one.
            state.scalars.masses[i] = dist.explicit_entries().iter().map(|&(_, p)| p).sum();

            // Membership moved only for joins and removes: tallies and pair
            // unions follow those ids, not the slice.
            let joined: Vec<RequestId> = (sites.upserts.iter().zip(&sd.upserts))
                .filter_map(|(site, &(r, _))| site.is_err().then_some(r))
                .collect();
            for &r in &joined {
                note_explicit(&mut state.explicit_in, &mut state.partial, nslices, r, true);
            }
            for &r in &sd.removes {
                note_explicit(
                    &mut state.explicit_in,
                    &mut state.partial,
                    nslices,
                    r,
                    false,
                );
            }
            if joined.is_empty() && sd.removes.is_empty() {
                continue;
            }
            // `|A ∪ B|` moves by one per id that joined or left this slice
            // and is absent from the neighbour as the neighbour stands now
            // (already patched below `i`, not yet above): single-element
            // updates of an exact integer, in sequence.
            let neighbours = [
                i.checked_sub(1).map(|below| (below, below)),
                (i + 1 < nslices).then_some((i, i + 1)),
            ];
            for (pair, neighbour) in neighbours.into_iter().flatten() {
                let other = &state.summary.slices()[neighbour].dist;
                let absent = |ids: &[RequestId]| ids.len() - other.count_explicit(ids);
                let union = &mut state.scalars.pair_unions[pair];
                *union = *union + absent(&joined) - absent(&sd.removes);
            }
        }
        debug_assert!(
            (state.summary.slices().windows(2))
                .zip(&state.scalars.pair_unions)
                .all(|(w, &u)| {
                    u == union_count(w[0].dist.explicit_entries(), w[1].dist.explicit_entries())
                }),
            "maintained pair unions drifted from a fresh merge"
        );
        state.summary.generated_at = delta.generated_at;
        state.generation = delta.generation;

        if rpp_changed && state.partial > 0 {
            // A residual shift changes the signature of every materialized
            // request *not* explicit in the shifted slice; those ids are not
            // in the delta, so the sparse changed-set would be incomplete.
            return Ok(ShadowApply::Full {
                summary: &state.summary,
            });
        }
        let mut changed: Vec<RequestId> = delta
            .slices
            .iter()
            .flat_map(|s| {
                s.upserts
                    .iter()
                    .map(|&(r, _)| r)
                    .chain(s.removes.iter().copied())
            })
            .collect();
        changed.sort_unstable();
        changed.dedup();
        Ok(ShadowApply::Sparse {
            summary: &state.summary,
            changes: PredictionChanges {
                changed,
                scalars: state.scalars.clone(),
            },
        })
    }
}

impl ShadowSummary {
    /// [`apply`](ShadowSummary::apply), then hands `scheduler` the result
    /// by the one update rule: a delta whose changed-set is certified is
    /// diffed, anything else installs the (patched) summary whole.  On
    /// error neither the shadow nor the scheduler is touched.
    pub fn apply_to<S: crate::scheduler::Scheduler + ?Sized>(
        &mut self,
        delta: &PredictionDelta,
        scheduler: &mut S,
    ) -> Result<(), DeltaError> {
        match self.apply(delta)? {
            ShadowApply::Sparse { summary, changes } => {
                scheduler.update_prediction_sparse(summary, &changes)
            }
            ShadowApply::Full { summary } => scheduler.update_prediction(summary),
        }
        Ok(())
    }
}

fn strictly_ascending(ids: impl Iterator<Item = RequestId>) -> bool {
    let mut prev: Option<RequestId> = None;
    for r in ids {
        if prev.is_some_and(|p| p >= r) {
            return false;
        }
        prev = Some(r);
    }
    true
}

fn sorted_intersect(upserts: &[(RequestId, f64)], removes: &[RequestId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < upserts.len() && j < removes.len() {
        match upserts[i].0.cmp(&removes[j]) {
            std::cmp::Ordering::Equal => return true,
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    false
}

/// Records that `r` gained (`joined`) or lost an explicit entry in one of
/// `nslices` slices, keeping `partial` — the number of requests explicit in
/// some slices but not all — in step.
fn note_explicit(
    explicit_in: &mut HashMap<RequestId, usize>,
    partial: &mut usize,
    nslices: usize,
    r: RequestId,
    joined: bool,
) {
    let count = explicit_in.entry(r).or_insert(0);
    let was_partial = *count != 0 && *count != nslices;
    *count = if joined { *count + 1 } else { *count - 1 };
    let is_partial = *count != 0 && *count != nslices;
    if *count == 0 {
        explicit_in.remove(&r);
    }
    *partial = *partial + usize::from(is_partial) - usize::from(was_partial);
}

/// Client-side generation tracker: turns a stream of prediction summaries
/// into [`ClientMessage::PredictorFull`] / [`PredictorDelta`] messages.
///
/// The first summary (and any summary after [`reset`](DeltaTracker::reset),
/// a slice-structure change, or a delta that would not actually be smaller)
/// ships in full; every other update ships only the entries whose stored
/// `f64` bits differ from the previous summary.
///
/// [`PredictorDelta`]: crate::protocol::ClientMessage::PredictorDelta
#[derive(Debug, Default)]
pub struct DeltaTracker {
    generation: u64,
    last: Option<PredictionSummary>,
    /// Ship a full summary when the delta's estimated wire size exceeds
    /// this fraction of the full summary's (default 0.5): past that point
    /// the delta's per-entry overhead stops paying for itself.
    max_delta_ratio: f64,
}

impl DeltaTracker {
    /// A fresh tracker; the first [`encode`](DeltaTracker::encode) ships a
    /// full summary at generation 1.
    pub fn new() -> Self {
        DeltaTracker {
            generation: 0,
            last: None,
            max_delta_ratio: 0.5,
        }
    }

    /// Overrides the delta-vs-full size cutoff (fraction of the full
    /// summary's wire size above which a full summary is sent instead).
    pub fn with_max_delta_ratio(mut self, ratio: f64) -> Self {
        self.max_delta_ratio = ratio.max(0.0);
        self
    }

    /// The generation of the last encoded summary (0 before the first).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Forgets the last summary so the next [`encode`](DeltaTracker::encode)
    /// ships in full — the client's reaction to
    /// [`ServerEvent::Resync`](crate::protocol::ServerEvent::Resync).
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Encodes `summary` as a delta against the previously encoded summary
    /// when possible (and worthwhile), or as a full summary otherwise.
    ///
    /// A delta moves the tracker's mirror by the same in-place patch the
    /// server's shadow applies to its own, at the sites the diff walk just
    /// passed; only a whole summary is copied, and the only clone made is
    /// the one the message carries.
    pub fn encode(&mut self, summary: &PredictionSummary) -> ClientMessage {
        let base = self.generation;
        self.generation += 1;
        let cutoff = (self.max_delta_ratio * summary.wire_size_bytes() as f64) as u64;
        let mirror = self.last.as_mut();
        if let Some(last) = mirror.filter(|last| same_structure(last, summary)) {
            let delta = diff_summaries(last, summary, cutoff);
            last.generated_at = summary.generated_at;
            if let Some((slices, sites)) = delta {
                for (i, (sd, sites)) in slices.iter().zip(&sites).enumerate() {
                    if !sd.is_empty() {
                        (last.dist_mut(i)).apply_patch(sites, &sd.upserts, sd.residual);
                    }
                }
                debug_assert!(same_bits(last, summary), "the patched mirror drifted");
                return ClientMessage::PredictorDelta(PredictionDelta {
                    base_generation: base,
                    generation: self.generation,
                    generated_at: summary.generated_at,
                    slices,
                });
            }
            // Too much moved for a delta: the mirror takes the summary into
            // the entry vectors it already has.
            for (i, slice) in summary.slices().iter().enumerate() {
                last.dist_mut(i).copy_from(&slice.dist);
            }
        } else {
            self.last = Some(summary.clone());
        }
        ClientMessage::PredictorFull {
            generation: self.generation,
            summary: summary.clone(),
        }
    }
}

/// The uplink with the socket taken out: a [`DeltaTracker`] feeding a
/// [`ShadowSummary`] feeding a scheduler, the route a prediction takes from
/// `TransportClient::send_prediction` to a session's scheduler.  For tests,
/// examples and benches that drive a scheduler directly (they confirm its
/// sends through [`Scheduler::note_sent`](crate::scheduler::Scheduler::note_sent))
/// but must reach its delta path the way the wire does.
#[derive(Debug)]
pub struct DirectUplink {
    tracker: DeltaTracker,
    shadow: ShadowSummary,
}

impl Default for DirectUplink {
    fn default() -> Self {
        DirectUplink::new()
    }
}

impl DirectUplink {
    /// A fresh uplink; every change that can travel as a delta does
    /// (`max_delta_ratio` 1), so toy summaries reach the delta path too.
    pub fn new() -> Self {
        DirectUplink {
            tracker: DeltaTracker::new().with_max_delta_ratio(1.0),
            shadow: ShadowSummary::new(),
        }
    }

    /// Ships `summary` to `scheduler` as a session would receive it: the
    /// first one, and any the tracker will not encode as a delta, whole; the
    /// rest as a delta through the shadow, sparse when it certifies the
    /// changed-set and whole otherwise.
    pub fn ship<S: crate::scheduler::Scheduler + ?Sized>(
        &mut self,
        scheduler: &mut S,
        summary: &PredictionSummary,
    ) {
        match self.tracker.encode(summary) {
            ClientMessage::PredictorDelta(delta) => {
                if let Err(e) = self.shadow.apply_to(&delta, scheduler) {
                    unreachable!("tracker and shadow advance together: {e}");
                }
            }
            ClientMessage::PredictorFull {
                generation,
                summary,
            } => {
                scheduler.update_prediction(&summary);
                self.shadow.install(generation, summary);
            }
            other => unreachable!("the tracker encodes predictions only: {other:?}"),
        }
    }
}

fn same_structure(a: &PredictionSummary, b: &PredictionSummary) -> bool {
    a.num_requests() == b.num_requests()
        && a.slices().len() == b.slices().len()
        && a.slices()
            .iter()
            .zip(b.slices())
            .all(|(x, y)| x.delta == y.delta)
}

/// Whether two same-structure summaries hold the same bits (`==` would call
/// `0.0` and `-0.0` equal).
fn same_bits(a: &PredictionSummary, b: &PredictionSummary) -> bool {
    a.generated_at == b.generated_at
        && a.slices().iter().zip(b.slices()).all(|(x, y)| {
            let (ex, ey) = (x.dist.explicit_entries(), y.dist.explicit_entries());
            x.dist.residual_mass().to_bits() == y.dist.residual_mass().to_bits()
                && ex.len() == ey.len()
                && (ex.iter().zip(ey)).all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
        })
}

/// The per-slice changes that turn `prev` into `next`, each with the sites
/// in `prev` where they land (the merge walk passes them anyway, so the
/// mirror is patched without being searched).  `None` the moment the delta's
/// wire size passes `cutoff` bytes: a summary that moved everywhere is not
/// diffed to the end only to be shipped whole.
fn diff_summaries(
    prev: &PredictionSummary,
    next: &PredictionSummary,
    cutoff: u64,
) -> Option<(Vec<SliceDelta>, Vec<PatchSites>)> {
    let mut budget = cutoff.checked_sub(DELTA_HEADER_BYTES)?;
    let mut deltas = Vec::with_capacity(prev.slices().len());
    let mut all_sites = Vec::with_capacity(prev.slices().len());
    for (a, b) in prev.slices().iter().zip(next.slices()) {
        let (ea, eb) = (a.dist.explicit_entries(), b.dist.explicit_entries());
        let mut sd = SliceDelta {
            residual: (a.dist.residual_mass().to_bits() != b.dist.residual_mass().to_bits())
                .then(|| b.dist.residual_mass()),
            ..SliceDelta::default()
        };
        let mut sites = PatchSites::default();
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            // Unchanged entries are the bulk of both lists: pass each run
            // of them in one tight comparison of ids and bits.
            let same = (ea[i..].iter().zip(&eb[j..]))
                .take_while(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
                .count();
            i += same;
            j += same;
            match (ea.get(i), eb.get(j)) {
                (None, None) => break,
                (Some(&(ra, _)), Some(&(rb, pb))) if ra == rb => {
                    sd.upserts.push((rb, pb));
                    sites.upserts.push(Ok(i));
                    i += 1;
                    j += 1;
                }
                (Some(&(ra, _)), rb) if rb.is_none_or(|&(rb, _)| ra < rb) => {
                    sd.removes.push(ra);
                    sites.removes.push(i);
                    i += 1;
                }
                (_, Some(&(rb, pb))) => {
                    sd.upserts.push((rb, pb));
                    sites.upserts.push(Err(i));
                    j += 1;
                }
                (Some(_), None) => unreachable!("a lone old entry is a remove"),
            }
            if sd.wire_bytes() > budget {
                return None;
            }
        }
        budget = budget.checked_sub(sd.wire_bytes())?;
        deltas.push(sd);
        all_sites.push(sites);
    }
    Some((deltas, all_sites))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{HorizonSlice, SparseDistribution};

    fn summary(n: usize, per_slice: Vec<Vec<(u32, f64)>>, residual: f64) -> PredictionSummary {
        let deltas = PredictionSummary::default_deltas();
        let slices = per_slice
            .into_iter()
            .zip(deltas)
            .map(|(entries, delta)| HorizonSlice {
                delta,
                dist: SparseDistribution::from_normalized(
                    n,
                    entries
                        .into_iter()
                        .map(|(r, p)| (RequestId(r), p))
                        .collect(),
                    residual,
                ),
            })
            .collect();
        PredictionSummary::new(n, slices, Time::from_micros(0))
    }

    fn four(entries: Vec<(u32, f64)>, residual: f64, n: usize) -> PredictionSummary {
        summary(
            n,
            vec![entries.clone(), entries.clone(), entries.clone(), entries],
            residual,
        )
    }

    /// The generation of the summary `shadow` holds, if any.
    fn generation(shadow: &ShadowSummary) -> Option<u64> {
        shadow.state.as_ref().map(|s| s.generation)
    }

    #[test]
    fn tracker_first_encode_is_full_then_delta() {
        // Toy summaries are so small the 50% economy check would refuse the
        // delta; this test is about the mechanism, not the economics.
        let mut t = DeltaTracker::new().with_max_delta_ratio(1.0);
        let s1 = four(vec![(1, 0.4), (2, 0.4)], 0.2, 100);
        let m1 = t.encode(&s1);
        assert!(matches!(
            m1,
            ClientMessage::PredictorFull { generation: 1, .. }
        ));
        let s2 = four(vec![(1, 0.5), (2, 0.3)], 0.2, 100);
        match t.encode(&s2) {
            ClientMessage::PredictorDelta(d) => {
                assert_eq!(d.base_generation, 1);
                assert_eq!(d.generation, 2);
                assert_eq!(d.changed_entries(), 8); // 2 upserts × 4 slices
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn shadow_reconstructs_bit_exactly_and_reports_changed_set() {
        let mut t = DeltaTracker::new().with_max_delta_ratio(1.0);
        let mut shadow = ShadowSummary::new();
        let s1 = four(vec![(1, 0.4), (2, 0.4), (7, 0.1)], 0.1, 100);
        match t.encode(&s1) {
            ClientMessage::PredictorFull {
                generation,
                summary,
            } => shadow.install(generation, summary),
            other => panic!("expected full, got {other:?}"),
        }
        let s2 = four(vec![(1, 0.5), (2, 0.4), (9, 0.05)], 0.05, 100);
        let msg = t.encode(&s2);
        let ClientMessage::PredictorDelta(d) = msg else {
            panic!("expected delta, got {msg:?}");
        };
        match shadow.apply(&d).expect("apply") {
            ShadowApply::Sparse { summary, changes } => {
                assert_eq!(summary, &s2);
                let ids: Vec<u32> = changes.changed.iter().map(|r| r.0).collect();
                assert_eq!(ids, vec![1, 7, 9]);
            }
            // Residual changed and every materialized request is explicit in
            // all four slices, so the sparse path must be taken.
            ShadowApply::Full { .. } => panic!("expected sparse path"),
        }
        assert_eq!(generation(&shadow), Some(2));
    }

    #[test]
    fn shadow_falls_back_to_full_path_on_partial_masks_with_residual_shift() {
        let mut shadow = ShadowSummary::new();
        // Request 5 is explicit only in slice 0: a residual shift in slice 1
        // changes its signature without it appearing in the delta.
        let s1 = summary(
            100,
            vec![
                vec![(1, 0.5), (5, 0.3)],
                vec![(1, 0.5)],
                vec![(1, 0.5)],
                vec![(1, 0.5)],
            ],
            0.2,
        );
        shadow.install(1, s1);
        let d = PredictionDelta {
            base_generation: 1,
            generation: 2,
            generated_at: Time::from_micros(1),
            slices: vec![
                SliceDelta::default(),
                SliceDelta {
                    upserts: vec![(RequestId(1), 0.6)],
                    removes: vec![],
                    residual: Some(0.4),
                },
                SliceDelta::default(),
                SliceDelta::default(),
            ],
        };
        assert!(matches!(shadow.apply(&d), Ok(ShadowApply::Full { .. })));
    }

    #[test]
    fn shadow_refuses_generation_mismatch_and_stays_intact() {
        let mut shadow = ShadowSummary::new();
        let s1 = four(vec![(1, 0.9)], 0.1, 50);
        shadow.install(3, s1.clone());
        let d = PredictionDelta {
            base_generation: 7,
            generation: 8,
            generated_at: Time::from_micros(1),
            slices: vec![SliceDelta::default(); 4],
        };
        assert!(matches!(
            shadow.apply(&d),
            Err(DeltaError::GenerationMismatch {
                have: Some(3),
                want: 7
            })
        ));
        assert_eq!(shadow.summary(), Some(&s1));
        assert_eq!(generation(&shadow), Some(3));
    }

    #[test]
    fn malformed_deltas_are_rejected_without_mutation() {
        let mut shadow = ShadowSummary::new();
        let s1 = four(vec![(1, 0.5), (2, 0.3)], 0.2, 50);
        shadow.install(1, s1.clone());
        let bad = |slices: Vec<SliceDelta>| PredictionDelta {
            base_generation: 1,
            generation: 2,
            generated_at: Time::from_micros(1),
            slices,
        };
        // Remove of an entry that is not explicit.
        let d = bad(vec![
            SliceDelta {
                upserts: vec![],
                removes: vec![RequestId(9)],
                residual: None,
            },
            SliceDelta::default(),
            SliceDelta::default(),
            SliceDelta::default(),
        ]);
        assert!(matches!(shadow.apply(&d), Err(DeltaError::Malformed(_))));
        // Unsorted upserts.
        let d = bad(vec![
            SliceDelta {
                upserts: vec![(RequestId(5), 0.1), (RequestId(3), 0.1)],
                removes: vec![],
                residual: None,
            },
            SliceDelta::default(),
            SliceDelta::default(),
            SliceDelta::default(),
        ]);
        assert!(matches!(shadow.apply(&d), Err(DeltaError::Malformed(_))));
        assert_eq!(shadow.summary(), Some(&s1));
        assert_eq!(generation(&shadow), Some(1));
    }

    #[test]
    fn tracker_resets_to_full_after_resync() {
        let mut t = DeltaTracker::new();
        let s = four(vec![(1, 0.8)], 0.2, 50);
        let _ = t.encode(&s);
        t.reset();
        let s2 = four(vec![(1, 0.7)], 0.3, 50);
        assert!(matches!(
            t.encode(&s2),
            ClientMessage::PredictorFull { generation: 2, .. }
        ));
    }

    #[test]
    fn delta_wire_size_is_proportional_to_changes() {
        let n = 10_000;
        let m = 10_000;
        let entries: Vec<(u32, f64)> = (0..m).map(|i| (i, 1.0 / m as f64)).collect();
        let s1 = four(entries.clone(), 0.0, n as usize);
        let mut changed = entries;
        // ~1% churn: move mass among 100 entries.
        for e in changed.iter_mut().take(100) {
            e.1 *= 1.5;
        }
        let s2 = four(changed, 0.0, n as usize);
        let mut t = DeltaTracker::new();
        let _ = t.encode(&s1);
        match t.encode(&s2) {
            ClientMessage::PredictorDelta(d) => {
                assert!(
                    d.wire_size_bytes() * 50 <= s2.wire_size_bytes(),
                    "delta ({} B) not ≥50× smaller than full ({} B)",
                    d.wire_size_bytes(),
                    s2.wire_size_bytes()
                );
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    /// The patched mirrors against a from-scratch reference, op by op: after
    /// every update the [`ShadowSummary`] must be indistinguishable from one
    /// freshly [`install`](ShadowSummary::install)ed from the client's
    /// summary, the [`DeltaTracker`]'s mirror must hold the shipped summary
    /// bit for bit, and the message itself must be the naive diff.  Only
    /// public calls drive the mirrors, so the test holds for any
    /// implementation of them — it is what says a cheaper patch is the same
    /// function.
    mod differential {
        use super::*;
        use crate::block::ResponseCatalog;
        use crate::scheduler::{GreedyScheduler, GreedySchedulerConfig, Scheduler};
        use crate::types::Duration;
        use crate::utility::{LinearUtility, UtilityModel};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        use std::sync::Arc;

        /// What the op mix must be able to exercise; [`check`] reports which
        /// of them it did, in this order.
        const REGIMES: [&str; 8] = [
            "delta certified (sparse)",
            "delta uncertified (full verdict)",
            "whole summary shipped",
            "empty delta",
            "slice with every id explicit",
            "join and leave in one delta",
            "residual-only slice delta",
            "malformed delta refused",
        ];

        /// The client's prediction as the generator evolves it: per slice,
        /// explicit id → probability, stored as given.
        struct Prediction {
            n: usize,
            deltas: Vec<Duration>,
            slices: Vec<BTreeMap<u32, f64>>,
            residual: Vec<f64>,
            unit: f64,
            tick: u64,
        }

        impl Prediction {
            fn summary(&self) -> PredictionSummary {
                let slices = (self.deltas.iter().zip(&self.slices).zip(&self.residual))
                    .map(|((&delta, entries), &residual)| HorizonSlice {
                        delta,
                        dist: SparseDistribution::from_normalized(
                            self.n,
                            entries.iter().map(|(&r, &p)| (RequestId(r), p)).collect(),
                            residual,
                        ),
                    })
                    .collect();
                PredictionSummary::new(self.n, slices, Time::from_micros(self.tick))
            }

            fn materialized(&self) -> Vec<u32> {
                let mut ids: Vec<u32> =
                    self.slices.iter().flat_map(|s| s.keys().copied()).collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }

            fn magnitude(&self, rng: &mut StdRng) -> f64 {
                self.unit * [0.0, 1.0, 1.0, 2.0, 4.0][rng.gen_range(0..5)]
            }

            /// One op of the mix.  `batch` bounds how many entries it moves.
            fn perturb(&mut self, rng: &mut StdRng, batch: usize) {
                self.tick += 1;
                let nslices = self.slices.len();
                let live = self.materialized();
                let some_live = |rng: &mut StdRng| -> Vec<u32> {
                    if live.is_empty() {
                        return Vec::new();
                    }
                    (0..rng.gen_range(1..=batch))
                        .map(|_| live[rng.gen_range(0..live.len())])
                        .collect()
                };
                match rng.gen_range(0..12) {
                    // Rescale: the same factor in every slice.
                    0..=2 => {
                        for r in some_live(rng) {
                            let c = [0.8, 1.25][rng.gen_range(0..2)];
                            for s in &mut self.slices {
                                if let Some(p) = s.get_mut(&r) {
                                    *p *= c;
                                }
                            }
                        }
                    }
                    // Joins and leaves together, in every slice or in some.
                    3..=5 => {
                        for r in some_live(rng) {
                            if rng.gen_bool(0.8) {
                                for s in &mut self.slices {
                                    s.remove(&r);
                                }
                            } else {
                                self.slices[rng.gen_range(0..nslices)].remove(&r);
                            }
                        }
                        for _ in 0..rng.gen_range(1..=batch) {
                            let r = rng.gen_range(0..self.n) as u32;
                            let p = self.magnitude(rng);
                            if rng.gen_bool(0.8) {
                                for s in &mut self.slices {
                                    s.insert(r, p);
                                }
                            } else {
                                self.slices[rng.gen_range(0..nslices)].insert(r, p);
                            }
                        }
                    }
                    // Per-slice shape change.
                    6 | 7 => {
                        let i = rng.gen_range(0..nslices);
                        for r in some_live(rng) {
                            if let Some(p) = self.slices[i].get_mut(&r) {
                                *p = *p * 1.5 + self.unit;
                            }
                        }
                    }
                    // Residual change alone.
                    8 => {
                        let i = rng.gen_range(0..nslices);
                        self.residual[i] = [0.0, 0.02, 0.05, 0.1][rng.gen_range(0..4)];
                    }
                    // Nothing changes.
                    9 => {}
                    // Whole refresh: every entry moves.
                    10 => {
                        let c = 1.0 + rng.gen_range(1..=5) as f64 * 0.01;
                        (self.slices.iter_mut().flat_map(|s| s.values_mut())).for_each(|p| *p *= c);
                    }
                    // One slice gains an explicit entry for every id (its
                    // stored residual becomes 0), or loses every entry.
                    _ => {
                        let i = rng.gen_range(0..nslices);
                        if self.n <= 4_096 && self.slices[i].len() < self.n {
                            for r in 0..self.n as u32 {
                                let p = self.magnitude(rng);
                                self.slices[i].entry(r).or_insert(p);
                            }
                        } else {
                            self.slices[i].clear();
                        }
                    }
                }
            }
        }

        type SliceBits = (Duration, Vec<(u32, u64)>, u64);
        type SummaryBits = (usize, Time, Vec<SliceBits>);
        type SliceDeltaBits = (Vec<(u32, u64)>, Vec<u32>, Option<u64>);

        /// Every stored bit of a summary.
        fn summary_bits(s: &PredictionSummary) -> SummaryBits {
            let slices = (s.slices().iter())
                .map(|sl| {
                    let entries = (sl.dist.explicit_entries().iter())
                        .map(|&(r, p)| (r.0, p.to_bits()))
                        .collect();
                    (sl.delta, entries, sl.dist.residual_mass().to_bits())
                })
                .collect();
            (s.num_requests(), s.generated_at, slices)
        }

        /// Everything a shadow holds, in comparable form.
        #[derive(Debug, PartialEq)]
        struct ShadowBits {
            generation: u64,
            summary: SummaryBits,
            masses: Vec<u64>,
            pair_unions: Vec<usize>,
            explicit_in: BTreeMap<RequestId, usize>,
            partial: usize,
        }

        fn shadow_bits(shadow: &ShadowSummary) -> ShadowBits {
            let state = shadow.state.as_ref().expect("a summary is installed");
            ShadowBits {
                generation: state.generation,
                summary: summary_bits(&state.summary),
                masses: state.scalars.masses.iter().map(|m| m.to_bits()).collect(),
                pair_unions: state.scalars.pair_unions.clone(),
                explicit_in: state.explicit_in.iter().map(|(&r, &c)| (r, c)).collect(),
                partial: state.partial,
            }
        }

        /// The delta between two same-structure summaries, by lookup.
        fn naive_delta(prev: &PredictionSummary, next: &PredictionSummary) -> Vec<SliceDelta> {
            (prev.slices().iter().zip(next.slices()))
                .map(|(a, b)| {
                    let old: BTreeMap<RequestId, f64> =
                        a.dist.explicit_entries().iter().copied().collect();
                    let new: BTreeMap<RequestId, f64> =
                        b.dist.explicit_entries().iter().copied().collect();
                    let (ra, rb) = (a.dist.residual_mass(), b.dist.residual_mass());
                    SliceDelta {
                        upserts: (new.iter())
                            .filter(|&(r, p)| old.get(r).map(|q| q.to_bits()) != Some(p.to_bits()))
                            .map(|(&r, &p)| (r, p))
                            .collect(),
                        removes: old
                            .keys()
                            .filter(|r| !new.contains_key(r))
                            .copied()
                            .collect(),
                        residual: (ra.to_bits() != rb.to_bits()).then_some(rb),
                    }
                })
                .collect()
        }

        fn delta_bits(slices: &[SliceDelta]) -> Vec<SliceDeltaBits> {
            (slices.iter())
                .map(|s| {
                    (
                        s.upserts.iter().map(|&(r, p)| (r.0, p.to_bits())).collect(),
                        s.removes.iter().map(|r| r.0).collect(),
                        s.residual.map(f64::to_bits),
                    )
                })
                .collect()
        }

        /// A copy of `good` broken in one way [`ShadowSummary::apply`] must
        /// refuse; `current` is the summary the shadow holds.
        fn malformed(
            rng: &mut StdRng,
            good: &PredictionDelta,
            current: &PredictionSummary,
        ) -> PredictionDelta {
            let mut bad = good.clone();
            let n = current.num_requests();
            let i = rng.gen_range(0..bad.slices.len());
            let explicit: Vec<RequestId> = (current.slices()[i].dist.explicit_entries().iter())
                .map(|&(r, _)| r)
                .collect();
            let sd = &mut bad.slices[i];
            let kind = rng.gen_range(0..10);
            match kind {
                0 if sd.upserts.len() >= 2 => sd.upserts.swap(0, 1),
                0 | 1 if !sd.upserts.is_empty() => sd.upserts.push(sd.upserts[0]),
                2 if sd.removes.len() >= 2 => sd.removes.swap(0, 1),
                2 | 3 if !sd.removes.is_empty() => sd.removes.push(sd.removes[0]),
                4 => sd
                    .upserts
                    .push((RequestId::from(n + rng.gen_range(0..3)), 0.1)),
                5 => sd.removes.push(RequestId::from(n + rng.gen_range(0..3))),
                // An id both upserted and removed.
                6 if !sd.upserts.is_empty() => {
                    sd.removes
                        .push(sd.upserts[rng.gen_range(0..sd.upserts.len())].0);
                    sd.removes.sort_unstable();
                    sd.removes.dedup();
                }
                // Remove of an id the slice does not hold.
                7 if explicit.len() < n => {
                    let absent = (0..n)
                        .map(RequestId::from)
                        .find(|r| explicit.binary_search(r).is_err())
                        .expect("fewer explicit entries than ids");
                    sd.upserts.retain(|&(r, _)| r != absent);
                    sd.removes.push(absent);
                    sd.removes.sort_unstable();
                    sd.removes.dedup();
                }
                8 => {
                    let p = [f64::NAN, f64::INFINITY, -0.25][rng.gen_range(0..3)];
                    match sd.upserts.first_mut() {
                        Some(first) if rng.gen_bool(0.5) => first.1 = p,
                        _ => sd.residual = Some(p),
                    }
                }
                9 if rng.gen_bool(0.5) => bad.slices.push(SliceDelta::default()),
                _ => bad.base_generation += 1 + rng.gen_range(0..2),
            }
            bad
        }

        fn check(seed: u64) -> [bool; REGIMES.len()] {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = [0usize, 1, 50, 50, 50, 2_000][rng.gen_range(0..6)];
            // Ids dense in the space (a slice can hold every one) or sparse.
            let n = if rng.gen_bool(0.5) {
                m.max(1) + rng.gen_range(0..3)
            } else {
                8 * m + 64
            };
            let nslices = rng.gen_range(1usize..=5);
            let mut offset_ms = 0u64;
            let deltas: Vec<Duration> = (0..nslices)
                .map(|_| {
                    offset_ms += rng.gen_range(10u64..60);
                    Duration::from_millis(offset_ms)
                })
                .collect();
            let mut prediction = Prediction {
                n,
                deltas,
                slices: vec![BTreeMap::new(); nslices],
                residual: vec![0.05; nslices],
                unit: 0.5 / m.max(1) as f64,
                tick: 0,
            };
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for k in 0..m {
                ids.swap(k, rng.gen_range(k..n));
                let p = prediction.magnitude(&mut rng);
                for s in &mut prediction.slices {
                    s.insert(ids[k], p);
                }
            }
            let batch = (m / 20).clamp(1, 40);

            let ratio = [0.5, 1.0, f64::INFINITY][rng.gen_range(0..3)];
            let mut tracker = DeltaTracker::new().with_max_delta_ratio(ratio);
            let mut shadow = ShadowSummary::new();
            let mut scheduler = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: 16,
                    ..Default::default()
                },
                UtilityModel::homogeneous(&LinearUtility, 2),
                Arc::new(ResponseCatalog::uniform(n, 2, 1_000)),
            );
            let mut reached = [false; REGIMES.len()];
            let mut prev: Option<PredictionSummary> = None;

            for _ in 0..rng.gen_range(4..=14) {
                if prev.is_some() {
                    prediction.perturb(&mut rng, batch);
                }
                if rng.gen_range(0..16) == 0 {
                    tracker.reset();
                    prev = None;
                }
                let next = prediction.summary();
                reached[4] |= next
                    .slices()
                    .iter()
                    .any(|s| s.dist.explicit_entries().len() == n);
                let base = tracker.generation();
                let message = tracker.encode(&next);
                assert_eq!(tracker.generation(), base + 1, "seed {seed}");
                assert_eq!(
                    tracker.last.as_ref().map(summary_bits),
                    Some(summary_bits(&next)),
                    "seed {seed}: the tracker's mirror is not what it shipped"
                );
                // Same slice layout throughout, so only size decides.
                let want = prev
                    .as_ref()
                    .map(|p| naive_delta(p, &next))
                    .filter(|slices| {
                        let wire = PredictionDelta {
                            base_generation: 0,
                            generation: 0,
                            generated_at: Time::ZERO,
                            slices: slices.clone(),
                        }
                        .wire_size_bytes();
                        wire <= (ratio * next.wire_size_bytes() as f64) as u64
                    });
                match message {
                    ClientMessage::PredictorFull {
                        generation,
                        summary,
                    } => {
                        assert!(
                            want.is_none(),
                            "seed {seed}: a worthwhile delta shipped whole"
                        );
                        assert_eq!(generation, base + 1, "seed {seed}");
                        assert_eq!(summary_bits(&summary), summary_bits(&next), "seed {seed}");
                        reached[2] |= prev.is_some();
                        scheduler.update_prediction(&summary, 0);
                        shadow.install(generation, summary);
                    }
                    ClientMessage::PredictorDelta(delta) => {
                        let want = want.unwrap_or_else(|| panic!("seed {seed}: unexpected delta"));
                        assert_eq!(delta_bits(&delta.slices), delta_bits(&want), "seed {seed}");
                        assert_eq!(
                            (delta.base_generation, delta.generation, delta.generated_at),
                            (base, base + 1, next.generated_at),
                            "seed {seed}"
                        );
                        reached[3] |= delta.slices.iter().all(SliceDelta::is_empty);
                        reached[5] |= (delta.slices.iter())
                            .any(|s| !s.removes.is_empty() && s.upserts.len() > 1);
                        reached[6] |= (delta.slices.iter()).any(|s| {
                            s.residual.is_some() && s.upserts.is_empty() && s.removes.is_empty()
                        });

                        // A broken copy first: refused, nothing moves.
                        if rng.gen_bool(0.5) {
                            let held = prev.as_ref().expect("a delta has a base");
                            let bad = malformed(&mut rng, &delta, held);
                            let before = shadow_bits(&shadow);
                            let updates = scheduler.prediction_updates();
                            let refused = shadow.apply_to(&bad, &mut scheduler);
                            assert!(refused.is_err(), "seed {seed}: accepted {bad:?}");
                            assert_eq!(shadow_bits(&shadow), before, "seed {seed}: {refused:?}");
                            assert_eq!(scheduler.prediction_updates(), updates, "seed {seed}");
                            reached[7] = true;
                        }

                        let mut fresh = ShadowSummary::new();
                        fresh.install(delta.generation, next.clone());
                        let fresh = shadow_bits(&fresh);
                        let rpp_moved = (prev.iter().flat_map(|p| p.slices()).zip(next.slices()))
                            .any(|(a, b)| {
                                a.dist.residual_per_request().to_bits()
                                    != b.dist.residual_per_request().to_bits()
                            });
                        let mut ids: Vec<RequestId> = (delta.slices.iter())
                            .flat_map(|s| {
                                (s.upserts.iter().map(|&(r, _)| r)).chain(s.removes.iter().copied())
                            })
                            .collect();
                        ids.sort_unstable();
                        ids.dedup();
                        match shadow.apply(&delta).expect("tracker and shadow agree") {
                            ShadowApply::Sparse { summary, changes } => {
                                assert!(!(rpp_moved && fresh.partial > 0), "seed {seed}: unsound");
                                assert_eq!(
                                    summary_bits(summary),
                                    summary_bits(&next),
                                    "seed {seed}"
                                );
                                assert_eq!(changes.changed, ids, "seed {seed}");
                                let masses: Vec<u64> =
                                    changes.scalars.masses.iter().map(|m| m.to_bits()).collect();
                                assert_eq!(masses, fresh.masses, "seed {seed}");
                                assert_eq!(changes.scalars.pair_unions, fresh.pair_unions);
                                scheduler.update_prediction_sparse(summary, &changes, 0);
                                reached[0] = true;
                            }
                            ShadowApply::Full { summary } => {
                                assert!(rpp_moved && fresh.partial > 0, "seed {seed}: needless");
                                assert_eq!(
                                    summary_bits(summary),
                                    summary_bits(&next),
                                    "seed {seed}"
                                );
                                scheduler.update_prediction(summary, 0);
                                reached[1] = true;
                            }
                        }
                        assert_eq!(shadow_bits(&shadow), fresh, "seed {seed}: shadow drifted");
                    }
                    other => panic!("seed {seed}: the tracker encodes predictions only: {other:?}"),
                }
                prev = Some(next);
            }
            reached
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            #[test]
            fn patched_mirrors_match_fresh_installs(seed in any::<u64>()) {
                check(seed);
            }
        }

        /// See `scheduler::tests::oracle::generator_reaches_every_regime`.
        #[test]
        fn generator_reaches_every_regime() {
            let mut reached = [false; REGIMES.len()];
            for seed in 0..200 {
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
