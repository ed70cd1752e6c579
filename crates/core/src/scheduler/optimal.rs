//! Optimal finite-horizon scheduler (the paper's ILP, §5.2).
//!
//! The linearized objective of Eq. 3 assigns binary variables `f^k_{i,j}`
//! (block `j` of request `i` is sent during slot `k`) with coefficient
//! `U^k_{i,j} = g_i(j) · Σ_{t=k}^{C} γ^{t-1} P(q_i | t)`, subject to one block
//! per slot and each block sent at most once.  With unit per-slot bandwidth
//! this is exactly a **maximum-weight bipartite assignment** between blocks
//! and slots, which we solve optimally with the Jonker–Volgenant / Hungarian
//! algorithm instead of handing a 0.5-billion-variable program to Gurobi
//! (the paper's §A.1 micro-benchmarks use ≤ 15 requests, ≤ 30 cache slots,
//! ≤ 15 blocks, which this solver handles exactly).
//!
//! The paper deploys only the greedy scheduler (§5.3) and runs the exact
//! program offline, to size greedy against it (Figs. 15 and 17, §A.1); so
//! does this crate.  [`OptimalScheduler`] is a planner, not a session
//! scheduler: it maps one [`HorizonModel`] to one schedule.  The tests bound
//! greedy's gap against it, and an exhaustive search certifies it on tiny
//! instances.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::block::ResponseCatalog;
use crate::scheduler::{schedule_expected_utility, HorizonModel, Schedule};
use crate::types::{BlockRef, RequestId};
use crate::utility::UtilityModel;

/// Exact solver for the linearized finite-horizon scheduling objective.
pub struct OptimalScheduler {
    utility: UtilityModel,
    catalog: Arc<ResponseCatalog>,
}

impl OptimalScheduler {
    /// Creates an optimal scheduler for the given utility model and catalog.
    pub fn new(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> Self {
        OptimalScheduler { utility, catalog }
    }

    /// Computes the optimal schedule of exactly `min(C, total blocks)` blocks
    /// for the given horizon model, starting from an empty client cache.
    ///
    /// The returned schedule lists one block per slot in push order.
    pub fn schedule(&self, model: &HorizonModel) -> Schedule {
        let horizon = model.horizon();
        let n = self.catalog.num_requests().min(model.num_requests());

        // Enumerate candidate blocks.  The objective coefficient of block
        // (i, j) at slot k is g_i(j+1) * tail_i(k), and `tail` is
        // non-increasing in k, so blocks prefer early slots.
        let mut blocks: Vec<BlockRef> = Vec::new();
        for i in 0..n {
            let r = RequestId::from(i);
            for j in 0..self.catalog.num_blocks(r) {
                blocks.push(BlockRef::new(r, j));
            }
        }
        let slots = horizon.min(blocks.len());
        if slots == 0 {
            return Vec::new();
        }

        // Build the (slots × blocks) weight matrix.
        let mut weights = vec![vec![0.0f64; blocks.len()]; slots];
        for (k, row) in weights.iter_mut().enumerate() {
            for (bi, b) in blocks.iter().enumerate() {
                let gain = self.utility.table(b.request.index()).gain(b.index + 1);
                row[bi] = gain * model.tail(b.request, k);
            }
        }

        let assignment = max_weight_assignment(&weights);

        let mut schedule: Vec<BlockRef> = Vec::with_capacity(slots);
        for (k, &bi) in assignment.iter().enumerate() {
            match bi {
                Some(bi) => schedule.push(blocks[bi]),
                None => {
                    // Should not happen when blocks >= slots, but keep the
                    // schedule well-formed if it does.
                    debug_assert!(false, "slot {k} left unassigned");
                }
            }
        }

        // The assignment fixes *which* blocks go in *which* slots but, because
        // the objective ignores prefix ordering (exactly as the paper's ILP
        // does), the chosen blocks of one request may appear out of order.
        // Reordering blocks of the same request ascending by index within the
        // slots they occupy never decreases the objective (the earlier slot
        // has the larger tail and the lower index has the larger gain for
        // concave utilities) and makes the schedule renderable.
        reorder_prefixes(&mut schedule);
        schedule
    }

    /// Convenience: the expected utility (Eq. 2) of `schedule` under `model`,
    /// starting from an empty cache.
    pub fn evaluate(&self, schedule: &[BlockRef], model: &HorizonModel) -> f64 {
        schedule_expected_utility(schedule, model, &self.utility, &HashMap::new())
    }
}

/// Stable-reorders blocks so that, per request, block indices appear in
/// ascending order across the slots that request occupies.
fn reorder_prefixes(schedule: &mut [BlockRef]) {
    let mut by_request: BTreeMap<RequestId, Vec<usize>> = BTreeMap::new();
    for (pos, b) in schedule.iter().enumerate() {
        by_request.entry(b.request).or_default().push(pos);
    }
    for (req, positions) in by_request {
        let mut indices: Vec<u32> = positions.iter().map(|&p| schedule[p].index).collect();
        indices.sort_unstable();
        for (slot, idx) in positions.into_iter().zip(indices) {
            schedule[slot] = BlockRef::new(req, idx);
        }
    }
}

/// Maximum-weight assignment of `slots` rows to `blocks` columns.
///
/// Returns, for each row (slot), the chosen column (block) or `None`.
/// Implemented as the classic shortest-augmenting-path Hungarian algorithm on
/// the cost matrix `max_weight - w`, padded to allow unassigned columns when
/// there are more columns than rows.
fn max_weight_assignment(weights: &[Vec<f64>]) -> Vec<Option<usize>> {
    let rows = weights.len();
    if rows == 0 {
        return Vec::new();
    }
    let cols = weights[0].len();
    assert!(
        cols >= rows,
        "assignment requires at least as many blocks as slots ({cols} < {rows})"
    );

    // Convert to a minimization problem.
    let max_w = weights
        .iter()
        .flat_map(|r| r.iter().copied())
        .fold(0.0f64, f64::max);
    let cost = |r: usize, c: usize| max_w - weights[r][c];

    // Hungarian algorithm (Jonker-Volgenant style, 1-indexed internally).
    let inf = f64::INFINITY;
    let mut u = vec![0.0; rows + 1];
    let mut v = vec![0.0; cols + 1];
    let mut p = vec![0usize; cols + 1]; // p[j] = row assigned to column j
    let mut way = vec![0usize; cols + 1];

    for i in 1..=rows {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; cols + 1];
        let mut used = vec![false; cols + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=cols {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut result = vec![None; rows];
    for j in 1..=cols {
        if p[j] != 0 {
            result[p[j] - 1] = Some(j - 1);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::PredictionSummary;
    use crate::types::{Duration, Time};
    use crate::utility::{LinearUtility, PowerUtility, UtilityModel};

    fn model_point(n: usize, r: u32, horizon: usize) -> HorizonModel {
        let s = PredictionSummary::point(n, RequestId(r), Time::ZERO);
        HorizonModel::build(&s, horizon, Duration::from_millis(10), 1.0)
    }

    /// Exhaustive scheduler for tiny instances: enumerates every feasible
    /// schedule (each slot gets a distinct block) and returns the one with
    /// the highest expected utility.  Exponential, so only for a handful of
    /// slots and blocks, where it certifies [`OptimalScheduler`].
    struct BruteForceScheduler {
        utility: UtilityModel,
        catalog: Arc<ResponseCatalog>,
    }

    impl BruteForceScheduler {
        fn new(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> Self {
            BruteForceScheduler { utility, catalog }
        }

        /// Finds the utility-maximizing schedule by exhaustive search.
        fn schedule(&self, model: &HorizonModel) -> Schedule {
            let mut blocks: Vec<BlockRef> = Vec::new();
            for i in 0..self.catalog.num_requests().min(model.num_requests()) {
                let r = RequestId::from(i);
                for j in 0..self.catalog.num_blocks(r) {
                    blocks.push(BlockRef::new(r, j));
                }
            }
            let slots = model.horizon().min(blocks.len());
            assert!(
                blocks.len() <= 10 && slots <= 6,
                "brute force limited to tiny instances"
            );
            let mut best: (f64, Schedule) = (f64::NEG_INFINITY, Vec::new());
            let mut current = Vec::with_capacity(slots);
            let mut used = vec![false; blocks.len()];
            self.recurse(&blocks, slots, model, &mut current, &mut used, &mut best);
            best.1
        }

        fn recurse(
            &self,
            blocks: &[BlockRef],
            slots: usize,
            model: &HorizonModel,
            current: &mut Vec<BlockRef>,
            used: &mut Vec<bool>,
            best: &mut (f64, Schedule),
        ) {
            if current.len() == slots {
                let v = schedule_expected_utility(current, model, &self.utility, &HashMap::new());
                if v > best.0 {
                    *best = (v, current.clone());
                }
                return;
            }
            for (i, b) in blocks.iter().enumerate() {
                if used[i] {
                    continue;
                }
                used[i] = true;
                current.push(*b);
                self.recurse(blocks, slots, model, current, used, best);
                current.pop();
                used[i] = false;
            }
        }
    }

    #[test]
    fn assignment_simple_matrix() {
        // Two slots, three blocks; best total is 5 + 4 = 9 via (0->2, 1->0).
        let w = vec![vec![1.0, 2.0, 5.0], vec![4.0, 1.0, 5.0]];
        let a = max_weight_assignment(&w);
        let total: f64 = a.iter().enumerate().map(|(r, c)| w[r][c.unwrap()]).sum();
        assert!((total - 9.0).abs() < 1e-9);
        // Distinct columns.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn assignment_empty_and_square() {
        assert!(max_weight_assignment(&[]).is_empty());
        let w = vec![vec![3.0, 1.0], vec![1.0, 3.0]];
        let a = max_weight_assignment(&w);
        assert_eq!(a, vec![Some(0), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "at least as many blocks")]
    fn assignment_rejects_too_few_columns() {
        max_weight_assignment(&[vec![1.0], vec![2.0]]);
    }

    #[test]
    fn optimal_prefers_probable_request() {
        let n = 4;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 3, 100));
        let sched = OptimalScheduler::new(
            UtilityModel::homogeneous(&PowerUtility::new(0.5), 3),
            catalog,
        );
        let model = model_point(n, 2, 4);
        let s = sched.schedule(&model);
        assert_eq!(s.len(), 4);
        // All three blocks of the certain request must be scheduled, and its
        // first block must come first.
        let for2: Vec<_> = s.iter().filter(|b| b.request == RequestId(2)).collect();
        assert_eq!(for2.len(), 3);
        assert_eq!(s[0], BlockRef::new(RequestId(2), 0));
    }

    #[test]
    fn optimal_matches_brute_force_on_tiny_instances() {
        for (n, blocks, horizon, target) in
            [(3usize, 2u32, 3usize, 0u32), (2, 3, 4, 1), (3, 3, 3, 2)]
        {
            let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
            let utility = UtilityModel::homogeneous(&PowerUtility::new(0.4), blocks);
            let opt = OptimalScheduler::new(utility.clone(), catalog.clone());
            let bf = BruteForceScheduler::new(utility, catalog);
            let model = model_point(n, target, horizon);
            let so = opt.schedule(&model);
            let sb = bf.schedule(&model);
            let vo = opt.evaluate(&so, &model);
            let vb = opt.evaluate(&sb, &model);
            assert!(
                vo >= vb - 1e-9,
                "assignment solver ({vo}) below brute force ({vb}) for n={n} blocks={blocks}"
            );
        }
    }

    /// One instance of the gap generator: a uniform `n` × `blocks` catalog
    /// under `g(k) = (k / blocks)^exponent`, a horizon of `horizon` 10 ms
    /// slots at γ 1.0, and one prediction slice per entry of `slices`, the
    /// `s`-th at `30 (s + 1)` ms, each a list of `(request, weight)`.
    struct GapCase {
        n: usize,
        blocks: u32,
        horizon: usize,
        exponent: f64,
        slices: Vec<Vec<(u32, f64)>>,
    }

    /// Greedy's mean utility over [`GAP_SEEDS`], as a share of the
    /// assignment solver's, never falls below this on the generator of
    /// [`optimal_beats_or_ties_greedy`].  Its first 10 000 cases (release,
    /// the fixed case first) read a worst share of 0.7181, a 1st percentile
    /// of 0.775 and a median of 0.928 (see CHANGES.md); the bound is the
    /// worst less 0.02.
    const GAP_FLOOR: f64 = 0.698;
    const GAP_SEEDS: u64 = 16;

    impl GapCase {
        fn summary(&self) -> PredictionSummary {
            let slices = self.slices.iter().enumerate().map(|(s, weights)| {
                let weights = weights
                    .iter()
                    .map(|&(r, w)| (RequestId(r % self.n as u32), w));
                crate::distribution::HorizonSlice {
                    delta: Duration::from_millis(30 * (s as u64 + 1)),
                    dist: crate::distribution::SparseDistribution::from_weights(
                        self.n,
                        weights.collect(),
                    ),
                }
            });
            PredictionSummary::new(self.n, slices.collect(), Time::ZERO)
        }

        /// Greedy's mean share of the solver's utility; panics if a seed of
        /// greedy beats the solver or, on a case small enough to enumerate,
        /// the exhaustive search does.
        fn greedy_share(&self) -> f64 {
            use crate::scheduler::greedy::{GreedyScheduler, GreedySchedulerConfig};
            let (slot, gamma) = (Duration::from_millis(10), 1.0);
            let catalog = Arc::new(ResponseCatalog::uniform(self.n, self.blocks, 100));
            let utility = UtilityModel::homogeneous(&PowerUtility::new(self.exponent), self.blocks);
            let summary = self.summary();
            let model = HorizonModel::build(&summary, self.horizon, slot, gamma);
            let opt = OptimalScheduler::new(utility.clone(), catalog.clone());
            let vo = opt.evaluate(&opt.schedule(&model), &model);
            assert!(vo > 0.0, "the solver scored nothing");
            let total = self.n * self.blocks as usize;
            if total <= 10 && self.horizon.min(total) <= 6 {
                let bf = BruteForceScheduler::new(utility.clone(), catalog.clone());
                let vb = opt.evaluate(&bf.schedule(&model), &model);
                assert!(vo >= vb - 1e-9, "solver {vo} < brute force {vb}");
            }
            let mut sum = 0.0;
            for seed in 0..GAP_SEEDS {
                let mut greedy = GreedyScheduler::new(
                    GreedySchedulerConfig {
                        cache_blocks: self.horizon,
                        gamma,
                        slot_duration: slot,
                        seed,
                        ..Default::default()
                    },
                    utility.clone(),
                    catalog.clone(),
                );
                greedy.update_prediction(&summary, 0);
                let vg = opt.evaluate(&greedy.next_batch(self.horizon), &model);
                assert!(vg > 0.0, "seed {seed}: greedy scored nothing");
                assert!(vo + 1e-9 >= vg, "seed {seed}: optimal {vo} < greedy {vg}");
                sum += vg;
            }
            sum / GAP_SEEDS as f64 / vo
        }
    }

    /// Optimal ≥ greedy on one objective, and greedy's mean within
    /// [`GAP_FLOOR`] of it, on 120 cases of a seeded generator: 3–7 requests,
    /// 2–4 blocks, a horizon of 4–11 slots, 1–3 slices of 1–4 weighted
    /// entries, and `g(k) = (k / blocks)^e` with `e` in {¼, ½, ¾}.  Greedy
    /// plans from the summary, horizon, slot and γ the scoring model was
    /// built from.  The first case is the fixed instance this test began as.
    #[test]
    fn optimal_beats_or_ties_greedy() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let fixed = GapCase {
            n: 6,
            blocks: 4,
            horizon: 8,
            exponent: 0.5,
            slices: vec![vec![(0, 0.6), (1, 0.3), (2, 0.1)]],
        };
        let mut rng = StdRng::seed_from_u64(17);
        let entry = |rng: &mut StdRng| (rng.gen_range(0..7), f64::from(rng.gen_range(1..11)));
        let generated = (0..120).map(|_| GapCase {
            n: rng.gen_range(3..8),
            blocks: rng.gen_range(2..5),
            horizon: rng.gen_range(4..12),
            exponent: f64::from(rng.gen_range(1..4u32)) / 4.0,
            slices: (0..rng.gen_range(1..4))
                .map(|_| (0..rng.gen_range(1..5)).map(|_| entry(&mut rng)).collect())
                .collect(),
        });
        for case in std::iter::once(fixed).chain(generated) {
            let share = case.greedy_share();
            assert!(
                share >= GAP_FLOOR,
                "greedy reached {share:.4} of optimal, below {GAP_FLOOR}: n={} blocks={} \
                 horizon={} exponent={} slices={:?}",
                case.n,
                case.blocks,
                case.horizon,
                case.exponent,
                case.slices
            );
        }
    }

    #[test]
    fn uniform_model_schedules_mostly_first_blocks() {
        let n = 10;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 5, 100));
        let sched = OptimalScheduler::new(
            UtilityModel::homogeneous(&PowerUtility::new(0.3), 5),
            catalog,
        );
        let model = HorizonModel::uniform(n, 10, Duration::from_millis(10), 1.0);
        let s = sched.schedule(&model);
        assert_eq!(s.len(), 10);
        // Concave utility + uniform probability: the optimum is breadth-first,
        // i.e. every request's first block.
        let first_blocks = s.iter().filter(|b| b.index == 0).count();
        assert_eq!(first_blocks, 10);
    }

    #[test]
    fn evaluate_is_monotone_in_schedule_length() {
        let n = 4;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 4, 100));
        let sched = OptimalScheduler::new(UtilityModel::homogeneous(&LinearUtility, 4), catalog);
        let model = model_point(n, 1, 8);
        let full = sched.schedule(&model);
        let prefix = full[..4.min(full.len())].to_vec();
        assert!(sched.evaluate(&full, &model) >= sched.evaluate(&prefix, &model));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The assignment-based schedule is always well-formed: one block per
            /// slot, no duplicates, and never worse than a trivial prefix
            /// schedule of the most likely request.
            #[test]
            fn optimal_schedule_well_formed(
                n in 1usize..6,
                blocks in 1u32..5,
                horizon in 1usize..8,
                target in 0u32..6
            ) {
                let target = target % n as u32;
                let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
                let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
                let sched = OptimalScheduler::new(utility.clone(), catalog.clone());
                let model = model_point(n, target, horizon);
                let s = sched.schedule(&model);
                prop_assert_eq!(s.len(), horizon.min(n * blocks as usize));
                let mut seen = std::collections::HashSet::new();
                for b in &s {
                    prop_assert!(seen.insert(*b));
                }
                // Not worse than pushing the target's prefix.
                let trivial: Vec<BlockRef> = (0..blocks.min(horizon as u32))
                    .map(|j| BlockRef::new(RequestId(target), j))
                    .collect();
                prop_assert!(sched.evaluate(&s, &model) + 1e-9 >= sched.evaluate(&trivial, &model));
            }
        }
    }
}
