//! The per-slot reference evaluator: [`HorizonModel::build`] as it was
//! before it shared [`SlotPlan`](super::SlotPlan)'s scalar arithmetic.
//!
//! It interpolates a full distribution per slot
//! ([`PredictionSummary::at`]), reads every materialized request out of it,
//! suffix-sums a tail vector per request and groups the vectors pairwise —
//! `O(horizon × m)` time and memory, and no code in common with the plan
//! beyond the stored-shape normalization.  Compiled for tests and the
//! `audit` feature only: the oracle the production build is pinned to, and
//! the shadow the runtime auditor compares the diff path against.

use std::collections::HashMap;

use super::{
    normalized_shape, signature_of, ExplicitTail, HorizonModel, ShapeBucket, SlotSkeleton,
    TailShapePartition, MAX_SHAPE_BUCKETS, SHAPE_EPS,
};
use crate::distribution::PredictionSummary;
use crate::types::{Duration, RequestId};

impl HorizonModel {
    /// [`HorizonModel::build`] by per-slot evaluation.
    pub(crate) fn build_reference(
        summary: &PredictionSummary,
        horizon: usize,
        slot_duration: Duration,
        gamma: f64,
    ) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        let materialized = summary.materialized_requests(); // sorted ascending

        // Per-slot probabilities for each materialized request and for the
        // residual tail, evaluated at the midpoint of each slot.
        let mut per_slot: Vec<Vec<f64>> = vec![Vec::with_capacity(horizon); materialized.len()];
        let mut residual_slot: Vec<f64> = Vec::with_capacity(horizon);
        for k in 0..horizon {
            let delta = Duration::from_micros(
                slot_duration.as_micros() * (k as u64) + slot_duration.as_micros() / 2,
            );
            let dist = summary.at(delta);
            for (mi, &r) in materialized.iter().enumerate() {
                per_slot[mi].push(dist.prob(r));
            }
            residual_slot.push(dist.residual_per_request());
        }

        // Suffix sums with discounting: tail[t] = sum_{k=t}^{horizon-1} gamma^k p[k].
        let suffix = |p: &[f64]| -> Vec<f64> {
            let mut tail = vec![0.0; horizon + 1];
            for t in (0..horizon).rev() {
                tail[t] = tail[t + 1] + gamma.powi(t as i32) * p[t];
            }
            tail
        };
        let mut tails: HashMap<RequestId, Vec<f64>> = materialized
            .iter()
            .zip(&per_slot)
            .map(|(&r, p)| (r, suffix(p)))
            .collect();
        let residual = suffix(&residual_slot);
        let partition = partition_by_tail(&materialized, &tails, horizon);

        // Compress bucketed tails to scalar coefficients against the shared
        // shape; only irregular requests keep their full vector.
        let mut explicit = crate::request_map::RequestMap::with_capacity(materialized.len());
        for (bi, b) in partition.buckets.iter().enumerate() {
            for &r in &b.members {
                explicit.insert(
                    r,
                    ExplicitTail::Scaled {
                        bucket: bi as u32,
                        coef: tails[&r][0],
                    },
                );
            }
        }
        for &r in &partition.irregular {
            // lint:allow(unwrap) -- build invariant: the partition only lists requests whose tails were just computed
            let full = tails.remove(&r).expect("irregular request has a tail");
            explicit.insert(r, ExplicitTail::Full(full));
        }

        let slices = summary.slices();
        HorizonModel {
            n: summary.num_requests(),
            horizon,
            slot_duration,
            gamma,
            explicit,
            residual,
            partition,
            signatures: materialized
                .iter()
                .map(|&r| (r, signature_of(slices, r)))
                .collect(),
            materialized_ids: materialized,
            slice_deltas: slices.iter().map(|s| s.delta).collect(),
            skeleton: SlotSkeleton::new(slices, horizon, slot_duration, gamma),
        }
    }
}

/// Groups `ids` (ascending) by pairwise tail proportionality: each request
/// joins the first bucket whose representative's tail is proportional to
/// its own, opens a bucket while the cap allows, and is irregular otherwise.
fn partition_by_tail(
    ids: &[RequestId],
    tails: &HashMap<RequestId, Vec<f64>>,
    horizon: usize,
) -> TailShapePartition {
    let mut buckets: Vec<ShapeBucket> = Vec::new();
    let mut irregular = Vec::new();
    'next: for &r in ids {
        let tail = &tails[&r];
        for b in &mut buckets {
            if tails_proportional(&tails[&b.rep], tail, horizon) {
                b.members.push(r);
                continue 'next;
            }
        }
        if buckets.len() < MAX_SHAPE_BUCKETS {
            buckets.push(ShapeBucket {
                rep: r,
                members: vec![r],
                shape: normalized_shape(tail),
            });
        } else {
            irregular.push(r);
        }
    }
    TailShapePartition { buckets, irregular }
}

/// Whether two tail vectors are elementwise proportional (share a shape).
///
/// Tails are non-increasing and non-negative, so `tail[0]` is the maximum;
/// comparing the `tail[t] / tail[0]` ratios (both in `[0, 1]`) against an
/// absolute epsilon is a relative comparison in disguise.  All-zero tails
/// are proportional to everything (their weight is identically zero).
fn tails_proportional(a: &[f64], b: &[f64], horizon: usize) -> bool {
    let (a0, b0) = (a[0], b[0]);
    if a0 <= 0.0 || b0 <= 0.0 {
        return a0 <= 0.0 && b0 <= 0.0;
    }
    for t in 1..horizon {
        if (a[t] / a0 - b[t] / b0).abs() > SHAPE_EPS {
            return false;
        }
    }
    true
}
