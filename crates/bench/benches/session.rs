//! Multi-client scheduler benchmarks: throughput of
//! [`SessionManager::next_event`] as the number of concurrent sessions
//! grows — including the per-block cost at 1 000 and 10 000 sessions, which the manager's ready index keeps from
//! growing with the fleet — plus the cost of routing prediction updates to
//! one session among many, and one benchmark-shaped round (re-predictions,
//! rate reports, a pump) through a two-shard [`ShardedSessionManager`] with
//! and without its rate reports.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use khameleon_core::block::ResponseCatalog;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::scheduler::{GreedySchedulerConfig, SamplerVariant};
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{Session, SessionManager};
use khameleon_core::types::{Bandwidth, Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, PowerUtility, UtilityModel};
use khameleon_core::ShardedSessionManager;

fn manager(sessions: usize) -> SessionManager {
    manager_over(sessions, 500, SamplerVariant::Lazy)
}

fn manager_over(sessions: usize, n: usize, sampler: SamplerVariant) -> SessionManager {
    let blocks = 10u32;
    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
    let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
    let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())));
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
        group.bench_with_input(
            BenchmarkId::from_parameter(sessions),
            &sessions,
            |b, &sessions| {
                b.iter_batched(
                    || manager(sessions),
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
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())));
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
        group.bench_function(BenchmarkId::from_parameter(sessions), |b| {
            b.iter(|| serve(4_096));
        });
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
                || manager_over(1, 100_000, variant),
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
                let mut mgr = manager(sessions);
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

/// Requests in the sharded round's catalog (four 1 000-byte blocks each).
const ROUND_REQUESTS: usize = 256;

/// Variant `variant` of predictor profile `profile`: a top-3 over 0.9 of
/// the mass and 0.1 of residual, so a session always has a next block and
/// the pump budget decides how many a round moves.
fn round_prediction(profile: usize, variant: usize) -> ClientMessage {
    let hot = (profile * 16 + variant * 3) % ROUND_REQUESTS;
    let mut entries: Vec<(RequestId, f64)> = [(0, 0.54), (5, 0.27), (11, 0.09)]
        .iter()
        .map(|&(step, p)| (RequestId(((hot + step) % ROUND_REQUESTS) as u32), p))
        .collect();
    entries.sort_by_key(|&(request, _)| request);
    let slices = [50, 150, 250, 500]
        .iter()
        .map(|&ms| HorizonSlice {
            delta: Duration::from_millis(ms),
            dist: SparseDistribution::from_normalized(ROUND_REQUESTS, entries.clone(), 0.1),
        })
        .collect();
    let summary = PredictionSummary::new(ROUND_REQUESTS, slices, Time::ZERO);
    ClientMessage::Predictor(PredictorState::Summary(summary))
}

/// `sessions` sessions on two shards — 16 predictor profiles, five weight
/// classes, a 64-block horizon — each holding its profile's first
/// prediction, after a first pump.
fn sharded_fleet(sessions: usize) -> (ShardedSessionManager, Vec<SessionId>) {
    let catalog = Arc::new(ResponseCatalog::uniform(ROUND_REQUESTS, 4, 1_000));
    let utility = UtilityModel::homogeneous(&LinearUtility, 4);
    let factory_catalog = catalog.clone();
    let mut fleet = ShardedSessionManager::spawn(2, move |_| {
        SessionManager::weighted_fair(Box::new(CatalogBackend::new(factory_catalog.clone())))
    });
    let ids: Vec<SessionId> = (0..sessions)
        .map(|i| {
            fleet.add_session(
                Session::builder(utility.clone(), catalog.clone())
                    .config(ServerConfig {
                        scheduler: GreedySchedulerConfig {
                            cache_blocks: 64,
                            seed: i as u64,
                            ..Default::default()
                        },
                        ..Default::default()
                    })
                    .weight(1.0 + (i % 16 % 5) as f64 * 0.25),
            )
        })
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        fleet.on_message(id, &round_prediction(i % 16, 0), Time::ZERO);
    }
    assert!(!fleet.pump(Time::ZERO, 1_024).is_empty());
    (fleet, ids)
}

/// What a rate report costs the sharded runtime: one round of the repo
/// benchmark's `fleet_inproc` workload — 5 % of the sessions re-predict,
/// 1 % report a receive rate, each shard is pumped for 1 024 blocks — on a
/// two-shard fleet of 200, 2 000 and 10 000 sessions, and the same round
/// with the reports left out.  The gap between a pair of rows, divided by
/// `sessions / 100`, is one report.
fn bench_sharded_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_round");
    group.sample_size(100);
    for &sessions in &[200usize, 2_000, 10_000] {
        for (label, reports) in [("with_reports", true), ("without_reports", false)] {
            let (mut fleet, ids) = sharded_fleet(sessions);
            // A fixed stride walks the fleet; the variant moves with the
            // round so a re-prediction is never the one already held.
            let mut round = 0usize;
            let mut play = || {
                round += 1;
                for k in 0..sessions / 20 {
                    let i = (round * 7 + k * 19) % sessions;
                    let message = round_prediction(i % 16, (round + k) % 8);
                    fleet.on_message(ids[i], &message, Time::ZERO);
                }
                for k in 0..if reports { sessions / 100 } else { 0 } {
                    let i = (round * 13 + k * 97) % sessions;
                    let rate = Bandwidth::from_mbps(5.0 + ((round + k) % 7) as f64);
                    fleet.on_message(ids[i], &ClientMessage::RateReport(rate), Time::ZERO);
                }
                let events = fleet.pump(Time::ZERO, 1_024);
                assert!(matches!(events.last(), Some(ServerEvent::Block { .. })));
                events.len()
            };
            // Past the first rounds' model builds.
            for _ in 0..20 {
                play();
            }
            group.bench_function(BenchmarkId::new(label, sessions), |b| b.iter(&mut play));
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_next_event,
    bench_fleet_block,
    bench_large_catalog,
    bench_prediction_routing,
    bench_sharded_round
);
criterion_main!(benches);
