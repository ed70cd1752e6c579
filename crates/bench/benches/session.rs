//! Multi-client scheduler benchmarks: throughput of
//! [`SessionManager::next_event`] as the number of concurrent sessions
//! grows, under both arbitration policies — including the per-block cost at
//! 1 000 and 10 000 sessions, which the manager's ready index keeps from
//! growing with the fleet — plus the cost of routing prediction updates to
//! one session among many.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::ClientMessage;
use khameleon_core::scheduler::{GreedySchedulerConfig, SamplerVariant};
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{RoundRobin, Session, SessionManager, SharePolicy, WeightedFair};
use khameleon_core::types::{RequestId, Time};
use khameleon_core::utility::{PowerUtility, UtilityModel};

fn manager(sessions: usize, policy: Box<dyn SharePolicy>) -> SessionManager {
    manager_over(sessions, policy, 500, SamplerVariant::Lazy)
}

fn policy(weighted: bool) -> Box<dyn SharePolicy> {
    if weighted {
        Box::new(WeightedFair::new())
    } else {
        Box::new(RoundRobin::new())
    }
}

fn manager_over(
    sessions: usize,
    policy: Box<dyn SharePolicy>,
    n: usize,
    sampler: SamplerVariant,
) -> SessionManager {
    let blocks = 10u32;
    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
    let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
    let mut mgr = SessionManager::new(Box::new(CatalogBackend::new(catalog.clone())), policy);
    for i in 0..sessions {
        mgr.add_session(
            Session::builder(utility.clone(), catalog.clone())
                .config(ServerConfig {
                    scheduler: GreedySchedulerConfig {
                        cache_blocks: 512,
                        sampler,
                        seed: i as u64,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .weight(1.0 + (i % 3) as f64),
        );
    }
    mgr
}

fn bench_next_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_next_event");
    group.sample_size(10);
    for &sessions in &[1usize, 4, 16] {
        for (label, weighted) in [("round_robin", false), ("weighted_fair", true)] {
            group.bench_with_input(
                BenchmarkId::new(label, sessions),
                &sessions,
                |b, &sessions| {
                    b.iter_batched(
                        || manager(sessions, policy(weighted)),
                        |mut mgr| {
                            for _ in 0..256 {
                                let _ = mgr.next_event(Time::ZERO);
                            }
                            mgr
                        },
                        criterion::BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    group.finish();
}

/// Per-block arbitration cost at fleet scale: one long-lived manager per
/// row (building 10 000 sessions per sample would swamp the measurement),
/// 4 096 blocks per iteration after one warm-up block per session.  The
/// catalog is small and every block is its own scheduler draw (sender queue
/// of one), so the rows read a draw plus the manager's pick; the client
/// cache is smaller still, so no session ever drains.
fn bench_fleet_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_block_at_fleet_scale");
    group.sample_size(10);
    let catalog = Arc::new(ResponseCatalog::uniform(64, 2, 1_000));
    let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), 2);
    for &sessions in &[1_000usize, 10_000] {
        for (label, weighted) in [("round_robin", false), ("weighted_fair", true)] {
            let mut mgr = SessionManager::new(
                Box::new(CatalogBackend::new(catalog.clone())),
                policy(weighted),
            );
            for i in 0..sessions {
                mgr.add_session(
                    Session::builder(utility.clone(), catalog.clone())
                        .config(ServerConfig {
                            scheduler: GreedySchedulerConfig {
                                cache_blocks: 16,
                                seed: i as u64,
                                ..Default::default()
                            },
                            sender_queue_target: 1,
                            ..Default::default()
                        })
                        .weight(1.0 + (i % 3) as f64),
                );
            }
            let mut serve = |blocks: usize| {
                for _ in 0..blocks {
                    assert!(!mgr.next_event(Time::ZERO).is_idle());
                }
            };
            serve(sessions);
            group.bench_function(BenchmarkId::new(label, sessions), |b| {
                b.iter(|| serve(4_096));
            });
        }
    }
    group.finish();
}

/// One session over a 100k-request catalog: the regime where per-block
/// sampling cost dominates `next_event`, comparing the two sampler
/// variants.
fn bench_large_catalog(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_large_catalog_100k");
    group.sample_size(10);
    for variant in [SamplerVariant::Lazy, SamplerVariant::Scan] {
        group.bench_function(variant.label(), |b| {
            b.iter_batched(
                || manager_over(1, Box::new(RoundRobin::new()), 100_000, variant),
                |mut mgr| {
                    for _ in 0..256 {
                        let _ = mgr.next_event(Time::ZERO);
                    }
                    mgr
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_prediction_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_prediction_routing");
    group.sample_size(10);
    for &sessions in &[4usize, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sessions),
            &sessions,
            |b, &sessions| {
                let mut mgr = manager(sessions, Box::new(RoundRobin::new()));
                let ids = mgr.session_ids();
                let msg = ClientMessage::Predictor(PredictorState::LastRequest(RequestId(7)));
                let mut i = 0usize;
                b.iter(|| {
                    let id = ids[i % ids.len()];
                    i += 1;
                    mgr.on_message(id, &msg, Time::ZERO)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_next_event,
    bench_fleet_block,
    bench_large_catalog,
    bench_prediction_routing
);
criterion_main!(benches);
