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
//! That is why the shadow patches slices through
//! [`SparseDistribution::from_normalized`] (no renormalization) and why
//! [`DeltaTracker`] compares probabilities by bit pattern, not by value.
//!
//! A delta that names a base generation the shadow does not hold is refused
//! with [`DeltaError::GenerationMismatch`]; servers surface this as
//! [`ServerEvent::Resync`](crate::protocol::ServerEvent::Resync) and the
//! client answers with a fresh full summary.
//!
//! [`HorizonModel::apply_update_sparse`]: crate::scheduler::HorizonModel::apply_update_sparse
//! [`ClientMessage::PredictorFull`]: crate::protocol::ClientMessage::PredictorFull
//! [`ClientMessage::PredictorDelta`]: crate::protocol::ClientMessage::PredictorDelta

use std::collections::HashMap;

use crate::distribution::{union_count, PredictionSummary, SparseDistribution};
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
}

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
        let mut bytes = 24u64; // generations + timestamp
        for s in &self.slices {
            bytes += 4; // per-slice counts
            bytes += 12 * s.upserts.len() as u64;
            bytes += 4 * s.removes.len() as u64;
            if s.residual.is_some() {
                bytes += 8;
            }
        }
        bytes
    }
}

/// Per-slice scalars of a summary that a slot plan would otherwise derive
/// by scanning every explicit entry: explicit probability mass per slice
/// and `|A ∪ B|` per adjacent slice pair.  The shadow recomputes them
/// during the flat merge it already performs per patched slice, in the same
/// summation order as the full-scan path, so the two paths produce
/// identical plans.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryScalars {
    /// Explicit probability mass per slice, in slice order.
    pub masses: Vec<f64>,
    /// `|A ∪ B|` for each adjacent slice pair (`len == slices - 1`).
    pub pair_unions: Vec<usize>,
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
/// * per-slice explicit mass and adjacent-pair union counts
///   ([`SummaryScalars`]), recomputed only for patched slices;
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
    masses: Vec<f64>,
    pair_unions: Vec<usize>,
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

    /// The generation of the installed summary, if any.
    pub fn generation(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.generation)
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
        let masses: Vec<f64> = slices
            .iter()
            .map(|s| s.dist.explicit_entries().iter().map(|&(_, p)| p).sum())
            .collect();
        let pair_unions: Vec<usize> = slices
            .windows(2)
            .map(|w| union_count(w[0].dist.explicit_entries(), w[1].dist.explicit_entries()))
            .collect();
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
            masses,
            pair_unions,
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
            let entries = slice.dist.explicit_entries();
            if sd
                .removes
                .iter()
                .any(|&r| entries.binary_search_by_key(&r, |&(x, _)| x).is_err())
            {
                return Err(DeltaError::Malformed("remove of absent entry"));
            }
            if let Some(res) = sd.residual {
                if !res.is_finite() || res < 0.0 {
                    return Err(DeltaError::Malformed("residual non-finite or negative"));
                }
            }
        }

        // --- apply (infallible from here) ---
        let nslices = slices.len();
        let mut rpp_changed = false;
        let mut modified = vec![false; nslices];
        let (explicit_in, partial) = (&mut state.explicit_in, &mut state.partial);
        for (i, sd) in delta.slices.iter().enumerate() {
            if sd.is_empty() {
                continue;
            }
            modified[i] = true;
            let dist = &state.summary.slices()[i].dist;
            let old_rpp = dist.residual_per_request().to_bits();
            let old_entries = dist.explicit_entries();
            let mut merged: Vec<(RequestId, f64)> =
                Vec::with_capacity(old_entries.len() + sd.upserts.len());
            let (mut ui, mut ri) = (0usize, 0usize);
            for &(r, p) in old_entries {
                while ui < sd.upserts.len() && sd.upserts[ui].0 < r {
                    merged.push(sd.upserts[ui]);
                    note_explicit(explicit_in, partial, nslices, sd.upserts[ui].0, true);
                    ui += 1;
                }
                if ui < sd.upserts.len() && sd.upserts[ui].0 == r {
                    merged.push(sd.upserts[ui]);
                    ui += 1;
                } else if ri < sd.removes.len() && sd.removes[ri] == r {
                    note_explicit(explicit_in, partial, nslices, r, false);
                    ri += 1;
                } else {
                    merged.push((r, p));
                }
                while ri < sd.removes.len() && sd.removes[ri] < r {
                    // Validated above: every remove hits an existing entry.
                    ri += 1;
                }
            }
            while ui < sd.upserts.len() {
                merged.push(sd.upserts[ui]);
                note_explicit(explicit_in, partial, nslices, sd.upserts[ui].0, true);
                ui += 1;
            }
            // Same summation order as a full entry scan, so the sparse slot
            // plan is bit-identical to the full one.
            state.masses[i] = merged.iter().map(|&(_, p)| p).sum();
            let residual = sd.residual.unwrap_or(dist.residual_mass());
            let patched = SparseDistribution::from_normalized(n, merged, residual);
            if patched.residual_per_request().to_bits() != old_rpp {
                rpp_changed = true;
            }
            state.summary.set_slice_dist(i, patched);
        }
        for pi in 0..nslices.saturating_sub(1) {
            if modified[pi] || modified[pi + 1] {
                let s = state.summary.slices();
                state.pair_unions[pi] = union_count(
                    s[pi].dist.explicit_entries(),
                    s[pi + 1].dist.explicit_entries(),
                );
            }
        }
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
                scalars: SummaryScalars {
                    masses: state.masses.clone(),
                    pair_unions: state.pair_unions.clone(),
                },
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
        sender_position: usize,
    ) -> Result<(), DeltaError> {
        match self.apply(delta)? {
            ShadowApply::Sparse { summary, changes } => {
                scheduler.update_prediction_sparse(summary, &changes, sender_position)
            }
            ShadowApply::Full { summary } => scheduler.update_prediction(summary, sender_position),
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
    pub fn encode(&mut self, summary: &PredictionSummary) -> ClientMessage {
        let delta = match &self.last {
            Some(prev) if same_structure(prev, summary) => Some(diff_summaries(prev, summary)),
            _ => None,
        };
        let base = self.generation;
        self.generation += 1;
        self.last = Some(summary.clone());
        match delta {
            Some(slices)
                if estimated_delta_bytes(&slices)
                    <= (self.max_delta_ratio * summary.wire_size_bytes() as f64) as u64 =>
            {
                ClientMessage::PredictorDelta(PredictionDelta {
                    base_generation: base,
                    generation: self.generation,
                    generated_at: summary.generated_at,
                    slices,
                })
            }
            _ => ClientMessage::PredictorFull {
                generation: self.generation,
                summary: summary.clone(),
            },
        }
    }
}

/// The uplink with the socket taken out: a [`DeltaTracker`] feeding a
/// [`ShadowSummary`] feeding a scheduler, the route a prediction takes from
/// `TransportClient::send_prediction` to a session's scheduler.  For tests,
/// examples and benches that drive a scheduler directly (they choose the
/// sender position) but must reach its delta path the way the wire does.
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
        sender_position: usize,
    ) {
        match self.tracker.encode(summary) {
            ClientMessage::PredictorDelta(delta) => {
                if let Err(e) = self.shadow.apply_to(&delta, scheduler, sender_position) {
                    unreachable!("tracker and shadow advance together: {e}");
                }
            }
            ClientMessage::PredictorFull {
                generation,
                summary,
            } => {
                scheduler.update_prediction(&summary, sender_position);
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

fn estimated_delta_bytes(slices: &[SliceDelta]) -> u64 {
    let mut bytes = 24u64;
    for s in slices {
        bytes += 4 + 12 * s.upserts.len() as u64 + 4 * s.removes.len() as u64;
        if s.residual.is_some() {
            bytes += 8;
        }
    }
    bytes
}

fn diff_summaries(prev: &PredictionSummary, next: &PredictionSummary) -> Vec<SliceDelta> {
    prev.slices()
        .iter()
        .zip(next.slices())
        .map(|(a, b)| {
            let (ea, eb) = (a.dist.explicit_entries(), b.dist.explicit_entries());
            let mut upserts = Vec::new();
            let mut removes = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < ea.len() || j < eb.len() {
                match (ea.get(i), eb.get(j)) {
                    (Some(&(ra, pa)), Some(&(rb, pb))) if ra == rb => {
                        if pa.to_bits() != pb.to_bits() {
                            upserts.push((rb, pb));
                        }
                        i += 1;
                        j += 1;
                    }
                    (Some(&(ra, _)), Some(&(rb, _))) if ra < rb => {
                        removes.push(ra);
                        i += 1;
                    }
                    (Some(_), None) => {
                        removes.push(ea[i].0);
                        i += 1;
                    }
                    (_, Some(&(rb, pb))) => {
                        upserts.push((rb, pb));
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            let residual = (a.dist.residual_mass().to_bits() != b.dist.residual_mass().to_bits())
                .then(|| b.dist.residual_mass());
            SliceDelta {
                upserts,
                removes,
                residual,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::HorizonSlice;

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
        assert_eq!(shadow.generation(), Some(2));
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
        assert_eq!(shadow.generation(), Some(3));
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
        assert_eq!(shadow.generation(), Some(1));
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
}
