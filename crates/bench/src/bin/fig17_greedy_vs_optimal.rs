//! Figure 17 (§A.1): expected utility of schedules produced by the greedy
//! scheduler vs the optimal scheduler (and their runtime gap), on instances
//! small enough for the optimal solver.
//!
//! Greedy samples, so one draw says little: its columns are the mean
//! utility over seeds 0..16 with the min and max, and the median runtime.

use std::sync::Arc;
use std::time::Instant;

use khameleon_bench::{print_csv, print_preamble, Scale};
use khameleon_core::block::ResponseCatalog;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::scheduler::{
    schedule_expected_utility, GreedyScheduler, GreedySchedulerConfig, HorizonModel,
    OptimalScheduler,
};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{PowerUtility, UtilityModel};

fn prediction(n: usize, seedish: usize) -> PredictionSummary {
    // A skewed distribution over the first few requests.
    let entries: Vec<(RequestId, f64)> = (0..n.min(4))
        .map(|i| (RequestId::from((i + seedish) % n), 1.0 / (i + 1) as f64))
        .collect();
    let dist = SparseDistribution::from_entries(n, entries, 0.3);
    PredictionSummary::new(
        n,
        vec![HorizonSlice {
            delta: Duration::from_millis(50),
            dist,
        }],
        Time::ZERO,
    )
}

/// Greedy draws per instance, one per seed.
const SEEDS: u64 = 16;

fn main() {
    let scale = Scale::from_args();
    print_preamble(
        "Figure 17 (A.1)",
        scale,
        "greedy vs optimal schedule utility",
    );

    let configs = [(5usize, 10usize, 5u32), (10, 20, 10), (15, 30, 15)];
    let mut rows = Vec::new();
    for (idx, &(n, cache, blocks)) in configs.iter().enumerate() {
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
        let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
        let summary = prediction(n, idx);
        let model = HorizonModel::build(&summary, cache, Duration::from_millis(5), 1.0);

        let optimal = OptimalScheduler::new(utility.clone(), catalog.clone());
        let t0 = Instant::now();
        let opt_schedule = optimal.schedule(&model);
        let opt_runtime_us = t0.elapsed().as_micros() as f64;
        let opt_utility = optimal.evaluate(&opt_schedule, &model);

        let mut utilities = Vec::new();
        let mut runtimes_us = Vec::new();
        for seed in 0..SEEDS {
            let mut greedy = GreedyScheduler::new(
                GreedySchedulerConfig {
                    cache_blocks: cache,
                    slot_duration: Duration::from_millis(5),
                    seed,
                    ..Default::default()
                },
                utility.clone(),
                catalog.clone(),
            );
            let t1 = Instant::now();
            greedy.update_prediction(&summary, 0);
            let greedy_schedule = greedy.next_batch(cache);
            runtimes_us.push(t1.elapsed().as_secs_f64() * 1e6);
            utilities.push(schedule_expected_utility(
                &greedy_schedule,
                &model,
                &utility,
                &std::collections::HashMap::new(),
            ));
        }
        let greedy_utility = utilities.iter().sum::<f64>() / SEEDS as f64;
        let greedy_min = utilities.iter().copied().fold(f64::INFINITY, f64::min);
        let greedy_max = utilities.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        runtimes_us.sort_by(f64::total_cmp);
        let greedy_runtime_us = runtimes_us[runtimes_us.len() / 2];

        rows.push(format!(
            "{n},{cache},{blocks},{opt_utility:.4},{greedy_utility:.4},{greedy_min:.4},{greedy_max:.4},{:.3},{opt_runtime_us:.1},{greedy_runtime_us:.1},{:.1}",
            opt_utility / greedy_utility.max(1e-9),
            opt_runtime_us / greedy_runtime_us.max(1e-9)
        ));
    }
    print_csv(
        "num_requests,cache_blocks,blocks_per_request,optimal_utility,greedy_utility,greedy_utility_min,greedy_utility_max,utility_ratio,optimal_runtime_us,greedy_runtime_us,runtime_ratio",
        &rows,
    );
}
