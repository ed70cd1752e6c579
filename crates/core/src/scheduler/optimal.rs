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
//! A [`BruteForceScheduler`] enumerates all schedules for tiny instances and
//! is used by the tests to certify the assignment solver's optimality.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crate::block::ResponseCatalog;
use crate::distribution::PredictionSummary;
use crate::scheduler::{schedule_expected_utility, HorizonModel, Schedule, Scheduler};
use crate::types::{BlockRef, Duration, RequestId};
use crate::utility::UtilityModel;

/// Default horizon used when an exact scheduler is driven through the
/// [`Scheduler`] trait without an explicit [`with_horizon`] call.  Exact
/// solvers are only practical on small instances (§A.1 caps at 30 slots), so
/// the default is deliberately modest.
///
/// [`with_horizon`]: OptimalScheduler::with_horizon
const DEFAULT_EXACT_HORIZON: usize = 32;

/// Re-planning state shared by the exact schedulers when they are driven
/// incrementally through the [`Scheduler`] trait: the current probability
/// model, the planned-but-unconsumed tail of the schedule, and the blocks
/// already handed out (the simulated client cache).
struct ReplanState {
    horizon: usize,
    slot_duration: Duration,
    gamma: f64,
    model: HorizonModel,
    pending: VecDeque<BlockRef>,
    planned: bool,
    delivered: HashMap<RequestId, u32>,
    /// Blocks handed to the sender since the last prediction update, in pop
    /// order.  On the next update, the tail the sender did *not* actually
    /// send is rolled back out of `delivered` so it can be re-planned
    /// (§5.3.2 — the sender's queued-but-unsent blocks are discarded by the
    /// session when a prediction arrives).
    issued: Vec<BlockRef>,
    /// How many of `issued` the sender has confirmed via
    /// [`Scheduler::note_sent`], oldest first.
    confirmed: usize,
    /// Requests the backend refused since the last prediction update
    /// ([`Scheduler::drop_unsent`]), left out of every adopted plan.
    refused: Vec<RequestId>,
    updates: u64,
}

impl ReplanState {
    fn new(n: usize, horizon: usize) -> Self {
        let slot_duration = Duration::from_millis(1);
        let gamma = 1.0;
        ReplanState {
            horizon,
            slot_duration,
            gamma,
            model: HorizonModel::uniform(n.max(1), horizon, slot_duration, gamma),
            pending: VecDeque::new(),
            planned: false,
            delivered: HashMap::new(),
            issued: Vec::new(),
            confirmed: 0,
            refused: Vec::new(),
            updates: 0,
        }
    }

    /// Replaces the model with the build for `summary` at the current slot
    /// duration.
    fn refresh_model(&mut self, summary: &PredictionSummary) {
        self.model = HorizonModel::build(summary, self.horizon, self.slot_duration, self.gamma);
        self.refused.clear();
        self.updates += 1;
    }

    /// Records a sender confirmation (see [`Scheduler::note_sent`]).
    fn note_sent(&mut self) {
        self.confirmed = (self.confirmed + 1).min(self.issued.len());
    }

    /// Rolls `delivered` back to what the sender actually placed on the
    /// wire: blocks issued since the last update but never confirmed were
    /// dropped by the session's queue and must become eligible for
    /// re-planning again.
    fn rollback_unsent(&mut self) {
        while self.issued.len() > self.confirmed {
            let Some(b) = self.issued.pop() else { break };
            if let Some(d) = self.delivered.get_mut(&b.request) {
                if *d == b.index + 1 {
                    *d = b.index;
                    if *d == 0 {
                        self.delivered.remove(&b.request);
                    }
                }
            }
        }
        // The confirmed prefix is committed for good; start a fresh window.
        self.issued.clear();
        self.confirmed = 0;
    }

    /// Replaces the pending tail with `plan`, dropping blocks the client
    /// already holds (their prefix continues where delivery stopped) and
    /// blocks of refused requests.
    fn adopt(&mut self, plan: Schedule) {
        self.pending = plan
            .into_iter()
            .filter(|b| b.index >= self.delivered.get(&b.request).copied().unwrap_or(0))
            .filter(|b| !self.refused.contains(&b.request))
            .collect();
        self.planned = true;
    }

    /// Pops up to `count` planned blocks, stopping before a request beyond
    /// the first `max_distinct`; the rest waits for the next batch.
    fn pop_batch(&mut self, count: usize, max_distinct: Option<usize>) -> Schedule {
        let mut out: Schedule = Vec::with_capacity(count.min(self.pending.len()));
        let mut distinct = 0;
        while out.len() < count {
            let Some(&b) = self.pending.front() else {
                break;
            };
            if !out.iter().any(|o| o.request == b.request) {
                if max_distinct.is_some_and(|limit| distinct >= limit) {
                    break;
                }
                distinct += 1;
            }
            self.pending.pop_front();
            let have = self.delivered.entry(b.request).or_insert(0);
            *have = (*have).max(b.index + 1);
            self.issued.push(b);
            out.push(b);
        }
        out
    }
}

/// Exact solver for the linearized finite-horizon scheduling objective.
pub struct OptimalScheduler {
    utility: UtilityModel,
    catalog: Arc<ResponseCatalog>,
    state: ReplanState,
}

impl OptimalScheduler {
    /// Creates an optimal scheduler for the given utility model and catalog.
    pub fn new(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> Self {
        let state = ReplanState::new(catalog.num_requests(), DEFAULT_EXACT_HORIZON);
        OptimalScheduler {
            utility,
            catalog,
            state,
        }
    }

    /// Sets the horizon used when this scheduler is driven through the
    /// [`Scheduler`] trait (one-shot [`schedule`](Self::schedule) calls take
    /// the horizon from the model instead).
    // lint:allow(unreferenced-pub) -- tests/session_api.rs serves sessions from a 12-slot exact scheduler
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        self.state = ReplanState::new(self.catalog.num_requests(), horizon);
        self
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

/// Implements [`Scheduler`] for an exact planner carrying a `ReplanState` in
/// `self.state` and exposing `fn schedule(&self, &HorizonModel) -> Schedule`.
///
/// Exact solvers re-plan from scratch on every update: the sent prefix is
/// frozen (its blocks stay in `delivered` and never re-enter the plan),
/// while blocks that were queued but dropped by the session are rolled back
/// and become eligible again (§5.3.2).
macro_rules! impl_replan_scheduler {
    ($ty:ty, $name:literal) => {
        impl Scheduler for $ty {
            fn update_prediction(&mut self, summary: &PredictionSummary) {
                // The `note_sent` contract: what was emitted and not
                // confirmed is re-planned.
                self.state.rollback_unsent();
                self.state.refresh_model(summary);
                let plan = self.schedule(&self.state.model);
                self.state.adopt(plan);
            }

            fn next_batch(&mut self, count: usize, max_distinct: Option<usize>) -> Schedule {
                if !self.state.planned {
                    let plan = self.schedule(&self.state.model);
                    self.state.adopt(plan);
                }
                self.state.pop_batch(count, max_distinct)
            }

            fn note_sent(&mut self, _block: BlockRef) {
                self.state.note_sent();
            }

            /// Rolls the dropped blocks back and re-plans on the next batch,
            /// without the refused request.
            fn drop_unsent(&mut self, refused: BlockRef) {
                self.state.rollback_unsent();
                self.state.refused.push(refused.request);
                self.state.planned = false;
            }

            fn set_slot_duration(&mut self, slot: Duration) {
                self.state.slot_duration = slot;
            }

            fn simulated_cache(&self) -> HashMap<RequestId, u32> {
                self.state.delivered.clone()
            }

            fn horizon(&self) -> usize {
                self.state.horizon
            }

            fn prediction_updates(&self) -> u64 {
                self.state.updates
            }

            fn name(&self) -> &'static str {
                $name
            }
        }
    };
}

impl_replan_scheduler!(OptimalScheduler, "optimal");

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
pub fn max_weight_assignment(weights: &[Vec<f64>]) -> Vec<Option<usize>> {
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

/// Exhaustive scheduler for tiny instances: enumerates every feasible
/// schedule (each slot gets a distinct block) and returns the one with the
/// highest expected utility.  Exponential; only usable for a handful of slots
/// and blocks, and only used to certify [`OptimalScheduler`] in tests.
pub struct BruteForceScheduler {
    utility: UtilityModel,
    catalog: Arc<ResponseCatalog>,
    state: ReplanState,
}

impl BruteForceScheduler {
    /// Creates a brute-force scheduler.
    pub fn new(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> Self {
        // Exhaustive search is exponential; keep the incremental-driving
        // horizon tiny (the one-shot `schedule` call takes the horizon from
        // the model it is given instead).
        let state = ReplanState::new(catalog.num_requests(), 4);
        BruteForceScheduler {
            utility,
            catalog,
            state,
        }
    }

    /// Finds the utility-maximizing schedule by exhaustive search.
    pub fn schedule(&self, model: &HorizonModel) -> Schedule {
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

impl_replan_scheduler!(BruteForceScheduler, "brute-force");

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
    fn replan_after_a_second_update_matches_a_fresh_scheduler() {
        fn spread(n: usize, weights: &[(u32, f64)]) -> PredictionSummary {
            PredictionSummary::new(
                n,
                vec![crate::distribution::HorizonSlice {
                    delta: Duration::from_millis(50),
                    dist: crate::distribution::SparseDistribution::from_weights(
                        n,
                        weights
                            .iter()
                            .map(|&(r, w)| (RequestId(r), w))
                            .collect::<Vec<_>>(),
                    ),
                }],
                Time::ZERO,
            )
        }
        let n = 6;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 3, 100));
        let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), 3);
        let mut twice = OptimalScheduler::new(utility.clone(), catalog.clone());
        let mut fresh = OptimalScheduler::new(utility, catalog);

        let s1 = spread(n, &[(0, 0.55), (1, 0.3), (2, 0.15)]);
        let s2 = spread(n, &[(3, 0.55), (1, 0.3), (0, 0.15)]);
        Scheduler::update_prediction(&mut twice, &s1);
        Scheduler::update_prediction(&mut twice, &s2);
        Scheduler::update_prediction(&mut fresh, &s2);
        // A whole summary replaces the model: nothing of `s1` may survive
        // into the plan (no blocks issued in between, so both plans start
        // from an empty cache).
        assert_eq!(
            Scheduler::next_batch(&mut twice, 2 * n, None),
            Scheduler::next_batch(&mut fresh, 2 * n, None),
            "replan after a second update diverged from a fresh scheduler"
        );
    }

    #[test]
    fn a_limited_batch_stops_at_the_first_excess_request_and_keeps_the_rest() {
        let n = 6;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 3, 100));
        let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), 3);
        let pred = PredictionSummary::point(n, RequestId(2), Time::ZERO);
        let mut full = OptimalScheduler::new(utility.clone(), catalog.clone()).with_horizon(12);
        let mut limited = OptimalScheduler::new(utility, catalog).with_horizon(12);
        Scheduler::update_prediction(&mut full, &pred);
        Scheduler::update_prediction(&mut limited, &pred);
        let plan = Scheduler::next_batch(&mut full, 12, None);
        // Where each request first appears: the batch stops at the third.
        let firsts: Vec<usize> = (0..plan.len())
            .filter(|&i| plan[..i].iter().all(|b| b.request != plan[i].request))
            .collect();
        let cut = firsts[2];
        assert_eq!(
            Scheduler::next_batch(&mut limited, 12, Some(2)),
            plan[..cut]
        );
        assert_eq!(Scheduler::next_batch(&mut limited, 12, None), plan[cut..]);
    }

    #[test]
    fn a_refused_request_leaves_the_plan_until_the_next_update() {
        let n = 6;
        let catalog = Arc::new(ResponseCatalog::uniform(n, 3, 100));
        let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), 3);
        let pred = PredictionSummary::point(n, RequestId(2), Time::ZERO);
        let mut s = OptimalScheduler::new(utility, catalog).with_horizon(12);
        Scheduler::update_prediction(&mut s, &pred);
        let first = Scheduler::next_batch(&mut s, 1, None)[0];
        assert_eq!(first, BlockRef::new(RequestId(2), 0));
        Scheduler::drop_unsent(&mut s, first);
        let rest = Scheduler::next_batch(&mut s, 12, None);
        assert!(!rest.is_empty());
        assert!(rest.iter().all(|b| b.request != first.request), "{rest:?}");
        Scheduler::update_prediction(&mut s, &pred);
        let replanned = Scheduler::next_batch(&mut s, 12, None);
        assert!(replanned.contains(&first), "{replanned:?}");
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

    /// Optimal ≥ greedy on one objective: greedy plans from the summary,
    /// horizon, slot duration and γ the scoring model was built from, over
    /// several seeds of its draw.
    #[test]
    fn optimal_beats_or_ties_greedy() {
        use crate::scheduler::greedy::{GreedyScheduler, GreedySchedulerConfig};
        let n = 6;
        let blocks = 4;
        let horizon = 8;
        let (slot, gamma) = (Duration::from_millis(10), 1.0);
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
        let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
        let summary = PredictionSummary::new(
            n,
            vec![crate::distribution::HorizonSlice {
                delta: Duration::from_millis(50),
                dist: crate::distribution::SparseDistribution::from_weights(
                    n,
                    vec![
                        (RequestId(0), 0.6),
                        (RequestId(1), 0.3),
                        (RequestId(2), 0.1),
                    ],
                ),
            }],
            Time::ZERO,
        );
        let model = HorizonModel::build(&summary, horizon, slot, gamma);
        let opt = OptimalScheduler::new(utility.clone(), catalog.clone());
        let so = opt.schedule(&model);
        let vo = opt.evaluate(&so, &model);

        for seed in 0..16 {
            let mut greedy = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: horizon,
                    gamma,
                    slot_duration: slot,
                    seed,
                    ..Default::default()
                },
                utility.clone(),
                catalog.clone(),
            );
            greedy.update_prediction(&summary, 0);
            let sg = greedy.next_batch(horizon);
            assert_eq!(sg.len(), horizon);
            let vg = opt.evaluate(&sg, &model);
            assert!(vg > 0.0, "seed {seed}: greedy scored nothing");
            assert!(vo + 1e-9 >= vg, "seed {seed}: optimal {vo} < greedy {vg}");
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
