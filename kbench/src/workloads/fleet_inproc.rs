//! `fleet_inproc`: the session layer at fleet scale, with no sockets.
//!
//! A two-shard `ShardedSessionManager` holding 2 000 sessions (16 predictor
//! profiles, five weight classes, as `session_scale`) over a catalog of
//! 256 requests × 4 blocks with `cache_blocks = 64`.  Per round the calling
//! thread re-predicts a seeded 5 % of the sessions, sends rate reports for
//! 1 %, and pumps up to 1 024 blocks per shard.  Closed loop on the calling
//! thread; an op is one round.  This isolates per-block arbitration,
//! `find`-based session lookup, the coordinator's budget broadcast and model
//! dedup from every syscall.

use std::sync::Arc;
use std::time::Instant;

use crate::gen::{self, FleetInput};
use crate::ledger::{Ledger, Measured, Value};
use crate::replay::{Replay, ReplayParts};
use crate::sut::{
    self, Bandwidth, CacheManager, CatalogBackend, ClientMessage, Duration, GreedySchedulerConfig,
    LinearUtility, ResponseCatalog, ServerConfig, ServerEvent, Session, SessionBuilder, SessionId,
    SessionManager, ShardedSessionManager, SimpleServerPredictor, Time, UtilityModel,
};

use super::{mean, mean_call_us, repeat_setup, Clock, Interval, WARMUP_S};

const SHARDS: usize = 2;
const BLOCK_BYTES: u64 = 1_000;
/// The scheduler's horizon, in blocks.
const CACHE_BLOCKS: usize = 64;
/// Blocks one round may draw from each shard, and in total.
const PUMP_PER_SHARD: usize = 1_024;
const ROUND_BLOCKS: usize = SHARDS * PUMP_PER_SHARD;
/// Rounds the channel-overhead comparison runs on each runtime.
const OVERHEAD_ROUNDS: usize = 150;

fn catalog() -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(
        gen::FLEET_REQUESTS,
        gen::FLEET_BLOCKS,
        BLOCK_BYTES,
    ))
}

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, gen::FLEET_BLOCKS)
}

fn scheduler_config(seed: u64, session: usize) -> GreedySchedulerConfig {
    GreedySchedulerConfig {
        cache_blocks: CACHE_BLOCKS,
        seed: seed.wrapping_add(session as u64),
        slot_duration: Duration::from_millis(1),
        ..Default::default()
    }
}

fn session_builder(catalog: &Arc<ResponseCatalog>, seed: u64, session: usize) -> SessionBuilder {
    Session::builder(utility(), catalog.clone())
        .config(ServerConfig {
            scheduler: scheduler_config(seed, session),
            ..Default::default()
        })
        .weight(gen::fleet_weight(session))
}

fn manager(catalog: &Arc<ResponseCatalog>) -> SessionManager {
    SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())))
}

fn initial_message(session: usize) -> ClientMessage {
    ClientMessage::Predictor(gen::fleet_state(gen::fleet_profile(session), 0))
}

/// Spawns `shards` workers, adds the fleet, and gives every session its
/// profile's first prediction.  Rate reports go first, as in
/// `session_scale`: a budget change re-derives slot geometry, and sending
/// them before any prediction keeps the fleet in one budget epoch.
fn spawn_fleet(
    catalog: &Arc<ResponseCatalog>,
    seed: u64,
    shards: usize,
) -> (ShardedSessionManager, Vec<SessionId>) {
    let factory_catalog = catalog.clone();
    let mut fleet = ShardedSessionManager::spawn(shards, move |_| manager(&factory_catalog));
    let ids: Vec<SessionId> = (0..gen::FLEET_SESSIONS)
        .map(|s| fleet.add_session(session_builder(catalog, seed, s)))
        .collect();
    for (s, &id) in ids.iter().enumerate().step_by(64) {
        let rate = Bandwidth::from_mbps(5.0 + (s % 7) as f64);
        fleet.on_message(id, &ClientMessage::RateReport(rate), Time::ZERO);
    }
    for (s, &id) in ids.iter().enumerate() {
        fleet.on_message(id, &initial_message(s), Time::ZERO);
    }
    (fleet, ids)
}

struct Live {
    catalog: Arc<ResponseCatalog>,
    fleet: ShardedSessionManager,
    ids: Vec<SessionId>,
}

/// Catalog, shard threads, 2 000 sessions with their first predictions, and
/// a first pump that serves blocks.
fn setup(seed: u64) -> Live {
    let catalog = catalog();
    let (mut fleet, ids) = spawn_fleet(&catalog, seed, SHARDS);
    let served = fleet
        .pump(Time::ZERO, PUMP_PER_SHARD)
        .iter()
        .filter(|e| matches!(e, ServerEvent::Block { .. }))
        .count();
    assert!(served > 0, "the first pump served no block");
    Live {
        catalog,
        fleet,
        ids,
    }
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    let (live, setups) = repeat_setup(|| setup(seed));
    let Live {
        catalog,
        mut fleet,
        ids,
    } = live;
    let mut input = FleetInput::new(seed);

    let clock = Clock::start();
    let start_ns = (WARMUP_S * 1e9) as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let mut ledger = Ledger::new(start_ns, end_ns, None);
    let mut interval = Interval::new();
    let mut send_us: Vec<f64> = Vec::new();
    let (mut pump_ns, mut pumped, mut rounds) = (0u64, 0u64, 0u64);

    loop {
        let round_start = clock.ns();
        interval.tick(round_start, &ledger);
        if round_start >= end_ns {
            break;
        }
        let round = input.next_round();
        // The closed loop's own work between two rounds.
        ledger.late(round_start, clock.ns() - round_start);
        ledger.issue(round_start, 0);
        rounds += 1;
        let now_t = Time::from_micros(round_start / 1_000);
        for &(s, variant) in &round.repredict {
            let state = gen::fleet_state(gen::fleet_profile(s), variant);
            let started = Instant::now();
            fleet.on_message(ids[s], &ClientMessage::Predictor(state), now_t);
            send_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        for &(s, mbps) in &round.rates {
            fleet.on_message(
                ids[s],
                &ClientMessage::RateReport(Bandwidth::from_mbps(mbps)),
                now_t,
            );
        }
        let started = Instant::now();
        let events = fleet.pump(now_t, PUMP_PER_SHARD);
        pump_ns += started.elapsed().as_nanos() as u64;
        // Every block of a pump becomes visible when the pump returns.
        let now = clock.ns();
        for event in events {
            match event {
                ServerEvent::Block { block, .. } => {
                    if !sut::block_is_valid(&catalog, &block, false) {
                        ledger.check_failed(now, format!("invalid block {}", block.meta.block));
                    }
                    ledger.block(now);
                    pumped += 1;
                }
                ServerEvent::Resync { .. } => ledger.check_failed(now, "unforced resync"),
                ServerEvent::Closed { .. } | ServerEvent::Busy => {
                    ledger.check_failed(now, "a session closed or was refused")
                }
                ServerEvent::Idle => {}
            }
        }
    }

    let stats_read_us = mean_call_us(20, || {
        std::hint::black_box(fleet.stats());
    });
    let stats = fleet.stats();
    let own = vec![
        ledger.lateness_ms_p99(),
        Value::new("shard.stats_read_us", stats_read_us, "us", 20),
        Value::new(
            "shard.on_message_us",
            mean(&send_us),
            "us",
            send_us.len() as u64,
        ),
        Value::new(
            "shard.pump_us_per_block",
            pump_ns as f64 / 1e3 / pumped.max(1) as f64,
            "us",
            pumped,
        ),
        Value::new("shard.live_models", stats.live_models as f64, "count", 1),
        Value::new(
            "shard.dedup_ratio",
            ids.len() as f64 / stats.live_models.max(1) as f64,
            "ratio",
            ids.len() as u64,
        ),
        Value::new(
            "shard.diff_applied_share",
            stats.totals.diff_applied_updates as f64
                / stats.totals.prediction_updates.max(1) as f64,
            "ratio",
            stats.totals.prediction_updates,
        ),
        Value::new(
            "shard.resync_requests",
            stats.totals.resync_requests as f64,
            "count",
            1,
        ),
    ];
    interval.finish(ledger, setups, own, Vec::new(), rounds, input.op_hash())
}

/// The same rounds against one plain `SessionManager` holding all 2 000
/// sessions, session layer only (this workload has no wire and no client
/// cache); session 0 is the probe whose scheduler is shadowed.
pub fn replay(seed: u64, spans: bool, budget_s: f64, max_ops: u64) -> Replay {
    let catalog = catalog();
    let mut manager = manager(&catalog);
    let ids: Vec<SessionId> = (0..gen::FLEET_SESSIONS)
        .map(|s| manager.add_session(session_builder(&catalog, seed, s)))
        .collect();
    let mut replay = Replay::new(
        ReplayParts {
            catalog: catalog.clone(),
            utility: utility(),
            manager,
            probe: ids[0],
            cache: CacheManager::new(CACHE_BLOCKS, catalog.clone(), utility()),
            scheduler: scheduler_config(seed, 0),
            server_predictor: Box::new(SimpleServerPredictor::new(gen::FLEET_REQUESTS)),
            expect_payload: false,
            transport: false,
        },
        spans,
    );
    for (s, &id) in ids.iter().enumerate().step_by(64) {
        let rate = ClientMessage::RateReport(Bandwidth::from_mbps(5.0 + (s % 7) as f64));
        replay.uplink_message(u32::MAX - 1, id, rate, "rate", Time::ZERO);
    }
    for (s, &id) in ids.iter().enumerate() {
        replay.uplink_message(u32::MAX - 1, id, initial_message(s), "install", Time::ZERO);
    }
    replay.start_clock();
    let mut input = FleetInput::new(seed);
    while replay.ops_done < max_ops && replay.elapsed_s() < budget_s {
        let round = input.next_round();
        let op = replay.ops_done as u32;
        let now = Time::from_micros((replay.ops_done + 1) * 1_000);
        for &(s, variant) in &round.repredict {
            let state = gen::fleet_state(gen::fleet_profile(s), variant);
            replay.uplink_message(op, ids[s], ClientMessage::Predictor(state), "topk", now);
        }
        for &(s, mbps) in &round.rates {
            let message = ClientMessage::RateReport(Bandwidth::from_mbps(mbps));
            replay.uplink_message(op, ids[s], message, "rate", now);
        }
        replay.pull(op, ROUND_BLOCKS, now);
        replay.ops_done += 1;
    }
    replay
}

/// What the shard channel costs: the same rounds on a one-shard
/// `ShardedSessionManager` and on a plain `SessionManager`, as the share of
/// the sharded time that the plain runtime does not need.
pub fn channel_overhead(seed: u64) -> Value {
    let catalog = catalog();
    let rounds = |on_message: &mut dyn FnMut(usize, &ClientMessage, Time),
                  pump: &mut dyn FnMut(Time) -> usize| {
        let mut input = FleetInput::new(seed);
        let started = Instant::now();
        let mut blocks = 0;
        for round_no in 0..OVERHEAD_ROUNDS {
            let round = input.next_round();
            let now = Time::from_micros(round_no as u64 * 1_000);
            for &(s, variant) in &round.repredict {
                let state = gen::fleet_state(gen::fleet_profile(s), variant);
                on_message(s, &ClientMessage::Predictor(state), now);
            }
            for &(s, mbps) in &round.rates {
                on_message(
                    s,
                    &ClientMessage::RateReport(Bandwidth::from_mbps(mbps)),
                    now,
                );
            }
            blocks += pump(now);
        }
        (started.elapsed().as_secs_f64(), blocks)
    };

    let (mut fleet, ids) = spawn_fleet(&catalog, seed, 1);
    let fleet_cell = std::cell::RefCell::new(&mut fleet);
    let (sharded_s, sharded_blocks) = rounds(
        &mut |s, message, now| {
            fleet_cell.borrow_mut().on_message(ids[s], message, now);
        },
        &mut |now| {
            fleet_cell
                .borrow_mut()
                .pump(now, ROUND_BLOCKS)
                .iter()
                .filter(|e| matches!(e, ServerEvent::Block { .. }))
                .count()
        },
    );
    drop(fleet);

    let mut plain = manager(&catalog);
    let plain_ids: Vec<SessionId> = (0..gen::FLEET_SESSIONS)
        .map(|s| plain.add_session(session_builder(&catalog, seed, s)))
        .collect();
    for (s, &id) in plain_ids.iter().enumerate().step_by(64) {
        let rate = Bandwidth::from_mbps(5.0 + (s % 7) as f64);
        plain.on_message(id, &ClientMessage::RateReport(rate), Time::ZERO);
    }
    for (s, &id) in plain_ids.iter().enumerate() {
        plain.on_message(id, &initial_message(s), Time::ZERO);
    }
    let plain_cell = std::cell::RefCell::new(&mut plain);
    let (plain_s, plain_blocks) = rounds(
        &mut |s, message, now| {
            plain_cell
                .borrow_mut()
                .on_message(plain_ids[s], message, now);
        },
        &mut |now| {
            let mut manager = plain_cell.borrow_mut();
            (0..ROUND_BLOCKS)
                .take_while(|_| matches!(manager.next_event(now), ServerEvent::Block { .. }))
                .count()
        },
    );
    // Per block, so a difference in blocks drawn does not read as overhead.
    let sharded = sharded_s / sharded_blocks.max(1) as f64;
    let plain = plain_s / plain_blocks.max(1) as f64;
    Value::new(
        "shard.channel_overhead_share",
        (sharded - plain) / sharded,
        "ratio",
        OVERHEAD_ROUNDS as u64,
    )
}
