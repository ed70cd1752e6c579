//! Criterion micro-benchmarks for the schedulers (Figures 15/16 companions):
//! greedy schedule generation across request-space sizes, the meta-request
//! ablation, the incremental (Fenwick) vs. legacy-scan sampling comparison
//! at 1k/10k/100k requests, prediction updates, the delta path at fixed Δ
//! across prediction sizes, and the optimal scheduler on small instances.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::DirectUplink;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::scheduler::{
    GreedyScheduler, GreedySchedulerConfig, HorizonModel, OptimalScheduler, SamplerVariant,
    Schedule, Scheduler,
};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{PowerUtility, UtilityModel};

fn prediction(n: usize, materialized: usize) -> PredictionSummary {
    let entries: Vec<(RequestId, f64)> = (0..materialized.min(n))
        .map(|i| (RequestId::from(i), 1.0 / (i + 1) as f64))
        .collect();
    let dist = SparseDistribution::from_entries(n, entries, 0.5);
    let slices = PredictionSummary::default_deltas()
        .into_iter()
        .map(|delta| HorizonSlice {
            delta,
            dist: dist.clone(),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

fn greedy(n: usize, cache: usize, blocks: u32, meta: bool) -> GreedyScheduler {
    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
    greedy_over(&catalog, cache, blocks, meta, SamplerVariant::Lazy)
}

/// Schedules `count` blocks and confirms them, as a sender that keeps up
/// does, so the next update rolls none of them back.
fn send(s: &mut GreedyScheduler, count: usize) -> Schedule {
    let batch = s.next_batch(count);
    for &b in &batch {
        s.note_sent(b);
    }
    batch
}

fn greedy_over(
    catalog: &Arc<ResponseCatalog>,
    cache: usize,
    blocks: u32,
    meta: bool,
    sampler: SamplerVariant,
) -> GreedyScheduler {
    GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: cache,
            slot_duration: Duration::from_millis(1),
            use_meta_request: meta,
            sampler,
            ..Default::default()
        },
        UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks),
        catalog.clone(),
    )
}

fn bench_greedy_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_full_schedule");
    group.sample_size(10);
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut s = greedy(n, 500, 50, true);
                    s.update_prediction(&prediction(n, n / 100 + 1), 0);
                    s
                },
                |mut s| s.next_batch(500),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_meta_request_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_meta_request");
    group.sample_size(10);
    // Pinned to the legacy scan path: the §5.3.1 meta-request comparison is
    // about the per-block scan's O(n) vs O(T) candidate set (Figure 16's
    // 13×).  The incremental sampler amortizes the meta-off materialization
    // at rebuild time, which would mask the effect; its own ablation is the
    // `greedy_sampling` group below.
    let catalog = Arc::new(ResponseCatalog::uniform(2_000, 50, 10_000));
    for (label, meta) in [("with_meta", true), ("without_meta", false)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut s = greedy_over(&catalog, 500, 50, meta, SamplerVariant::Scan);
                    s.update_prediction(&prediction(2_000, 20), 0);
                    s
                },
                |mut s| s.next_batch(500),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The sampling ablation behind the ≥5× acceptance bar: one full schedule of
/// 1000 blocks under a uniform prior (no materialized requests — the pure
/// hedging regime where the touched set grows toward the horizon), lazy
/// sampler vs the per-draw scan.
fn bench_sampling_scan_vs_fenwick(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_sampling");
    group.sample_size(10);
    for &n in &[1_000usize, 10_000, 100_000] {
        // Shared across setups so catalog deallocation is not measured.
        let catalog = Arc::new(ResponseCatalog::uniform(n, 50, 10_000));
        for variant in [SamplerVariant::Lazy, SamplerVariant::Scan] {
            group.bench_with_input(BenchmarkId::new(variant.label(), n), &n, |b, _| {
                b.iter_batched(
                    || greedy_over(&catalog, 1_000, 50, true, variant),
                    |mut s| s.next_batch(1_000),
                    criterion::BatchSize::SmallInput,
                );
            });
        }
    }
    group.finish();
}

/// The tentpole measurement of the lazy-bucket sampler: per-block advance
/// cost as the materialized-set size `m` grows from 100 to 10,000 on a
/// homogeneous-tail catalog (one shape bucket).  The cost stays flat in `m`
/// (one factor update per slot, never a rewrite of the `m` member weights).
/// One scheduler is reused across iterations (batches run on past the
/// horizon), so the measurement is steady-state per-block cost — not allocator churn
/// or the `O(m)` drop of the horizon model, which the vendored criterion
/// would otherwise time inside the routine.  The past-horizon case (64-slot
/// horizon, 256-block batches) additionally measures draws that read the
/// model's clamped last slot.
fn bench_sampler_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler_refresh");
    group.sample_size(10);
    for &m in &[100usize, 1_000, 10_000] {
        let n = 2 * m;
        let mut s = greedy(n, 512, 50, true);
        s.update_prediction(&prediction(n, m), 0);
        group.bench_with_input(BenchmarkId::new("lazy", m), &m, |b, _| {
            b.iter(|| send(&mut s, 256));
        });
    }
    // Past the horizon: each 256-block batch is four times the 64-slot
    // horizon, so most of its draws read the clamped last slot.
    let m = 1_000usize;
    let n = 2 * m;
    let mut s = greedy(n, 64, 50, true);
    s.update_prediction(&prediction(n, m), 0);
    group.bench_function("past_horizon/lazy", |b| {
        b.iter(|| send(&mut s, 256));
    });
    group.finish();
}

fn bench_prediction_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("prediction_update");
    group.sample_size(20);
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut s = greedy(n, 1_000, 50, true);
            let p = prediction(n, 50);
            b.iter(|| s.update_prediction(&p, 0));
        });
    }
    group.finish();
}

/// A prediction of `m` explicit entries (of `2m` ids) over four slices whose
/// entries can be rescaled or swapped for free ids, 100 ids an op: the
/// `update_heavy` churn with the prediction size as the only variable.
struct ChurningPrediction {
    raised: Vec<bool>,
    shape: Vec<u8>,
    is_explicit: Vec<bool>,
    explicit_ids: Vec<u32>,
    free_ids: Vec<u32>,
    rng: u64,
}

impl ChurningPrediction {
    const CHANGED_IDS: usize = 100;
    const SHAPES: [[f64; 4]; 3] = [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 0.9, 0.8, 0.7],
        [0.7, 0.8, 0.9, 1.0],
    ];

    fn new(m: usize) -> Self {
        ChurningPrediction {
            raised: vec![false; 2 * m],
            shape: (0..2 * m).map(|r| (r % 3) as u8).collect(),
            is_explicit: (0..2 * m).map(|r| r % 2 == 0).collect(),
            explicit_ids: (0..2 * m as u32).step_by(2).collect(),
            free_ids: (1..2 * m as u32).step_by(2).collect(),
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        // xorshift64: the draws only have to be spread, not good.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng % n as u64) as usize
    }

    fn rescale(&mut self) {
        for _ in 0..Self::CHANGED_IDS {
            let at = self.below(self.explicit_ids.len());
            let r = self.explicit_ids[at] as usize;
            self.raised[r] = !self.raised[r];
        }
    }

    fn swap_members(&mut self) {
        for _ in 0..Self::CHANGED_IDS / 2 {
            let (leave_at, join_at) = (
                self.below(self.explicit_ids.len()),
                self.below(self.free_ids.len()),
            );
            let (leaver, joiner) = (self.explicit_ids[leave_at], self.free_ids[join_at]);
            self.explicit_ids[leave_at] = joiner;
            self.free_ids[join_at] = leaver;
            self.is_explicit[joiner as usize] = true;
            self.is_explicit[leaver as usize] = false;
        }
    }

    fn summary(&self) -> PredictionSummary {
        let n = self.raised.len();
        let unit = 0.5 / self.explicit_ids.len() as f64;
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .enumerate()
            .map(|(s, delta)| {
                let mut mass = 0.0;
                let mut entries = Vec::with_capacity(self.explicit_ids.len());
                for r in (0..n).filter(|&r| self.is_explicit[r]) {
                    let lift = if self.raised[r] { 1.25 } else { 1.0 };
                    let p = unit * lift * Self::SHAPES[self.shape[r] as usize][s];
                    mass += p;
                    entries.push((RequestId::from(r), p));
                }
                HorizonSlice {
                    delta,
                    dist: SparseDistribution::from_normalized(n, entries, 1.0 - mass),
                }
            })
            .collect();
        PredictionSummary::new(n, slices, Time::ZERO)
    }
}

/// The delta path end to end — `DeltaTracker::encode` → `ShadowSummary::apply`
/// → `update_prediction_sparse`, i.e. one [`DirectUplink::ship`] — at a fixed
/// Δ of 100 changed ids while the prediction grows 40×.  Building the next
/// summary is the client's predictor, not the path, and stays out of the
/// timing.  What is `O(Δ)` should read flat across `m`; what still passes
/// over the prediction (the tracker's diff, one mass re-sum per touched
/// slice, the memmove behind a join) grows with it.
fn bench_delta_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_path");
    group.sample_size(60);
    for &m in &[1_000usize, 10_000, 40_000] {
        for (kind, op) in [
            (
                "rescale",
                ChurningPrediction::rescale as fn(&mut ChurningPrediction),
            ),
            ("structural", ChurningPrediction::swap_members),
        ] {
            let mut prediction = ChurningPrediction::new(m);
            let mut s = greedy(2 * m, 1_024, 8, true);
            let mut uplink = DirectUplink::new();
            uplink.ship(&mut s, &prediction.summary());
            group.bench_with_input(BenchmarkId::new(kind, m), &m, |b, _| {
                b.iter_batched(
                    || {
                        op(&mut prediction);
                        prediction.summary()
                    },
                    |summary| {
                        uplink.ship(&mut s, &summary);
                        send(&mut s, 4)
                    },
                    BatchSize::SmallInput,
                );
            });
            assert_eq!(s.diff_applied_updates(), s.prediction_updates() - 1);
        }
    }
    group.finish();
}

fn bench_optimal(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_schedule");
    group.sample_size(10);
    for &(n, cache, blocks) in &[(5usize, 10usize, 5u32), (15, 30, 15)] {
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
        let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
        let sched = OptimalScheduler::new(utility, catalog);
        let model = HorizonModel::build(&prediction(n, 2), cache, Duration::from_millis(5), 1.0);
        group.bench_function(format!("n{n}_c{cache}_b{blocks}"), |b| {
            b.iter(|| sched.schedule(&model));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_delta_path,
    bench_greedy_schedule,
    bench_meta_request_ablation,
    bench_sampling_scan_vs_fenwick,
    bench_sampler_refresh,
    bench_prediction_update,
    bench_optimal
);
criterion_main!(benches);
