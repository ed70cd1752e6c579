//! `reaction_burst`: how fast the event loop reacts to a new prediction.
//!
//! A one-shard `ShardedTransportServer`, paced, capped at 16 MB/s over a
//! catalog of 4 096 requests × 8 blocks × 4 KiB (3 906 blocks/s target).
//! One active connection (weight 1) re-predicts every 40 ms (± 4 ms seeded
//! jitter) onto a fresh request with `p = 0.7 / 0.2`, residual 0.05; 128
//! standing connections (weight 1e-6) connect and never send.  Open loop.
//! Models are tiny and frames small, so what is measured is the loop:
//! `idle_wait`, per-frame queueing, `O(connections)` polling, pacing.
//!
//! An op is one probe, timed from when it was due: to the first block of
//! its fresh request decoded (a probe without one after 250 ms has timed
//! out), and to all 8 blocks held.  A probe the next one replaces before
//! that is pre-empted.  Both are counted, not sampled.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crate::gen::{self, Probe};
use crate::ledger::{latency_values, Ledger, Measured, Value};
use crate::procfs;
use crate::rawclient::RawClient;
use crate::replay::{Replay, ReplayParts};
use crate::sut::{
    self, Bandwidth, CacheManager, GreedySchedulerConfig, LinearUtility, PatternBackend, RequestId,
    ResponseCatalog, ServerConfig, ServerEvent, Session, SessionBuilder, SessionManager,
    ShardedTransportServer, SimpleServerPredictor, Time, TransportConfig, UtilityModel,
};

use super::{mean, mean_call_us, repeat_setup, server_stats, Clock, Interval, WARMUP_S};

const CAP_MBPS: f64 = 16.0;
const STANDING: usize = 128;
const STANDING_WEIGHT: f64 = 1e-6;
/// Client cache, in blocks (the scheduler's default horizon).
const CACHE_BLOCKS: usize = 1_024;
/// A probe with no block of its target this long after it was due has timed
/// out.  The loop keeps receiving this long past the interval, so the last
/// probes get the same chance as the others.
const FIRST_BLOCK_TIMEOUT_NS: u64 = 250_000_000;
/// Probes the replay pushes through (virtual time).
const REPLAY_PROBES: usize = 3_000;

fn catalog() -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(
        gen::BURST_REQUESTS,
        gen::BURST_BLOCKS,
        gen::BURST_BLOCK_BYTES,
    ))
}

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, gen::BURST_BLOCKS)
}

fn scheduler_config(seed: u64) -> GreedySchedulerConfig {
    GreedySchedulerConfig {
        cache_blocks: CACHE_BLOCKS,
        seed,
        slot_duration: Bandwidth::from_mbps(CAP_MBPS).transmit_time(gen::BURST_BLOCK_BYTES),
        ..Default::default()
    }
}

fn session_builder(catalog: &Arc<ResponseCatalog>, seed: u64, weight: f64) -> SessionBuilder {
    Session::builder(utility(), catalog.clone())
        .config(ServerConfig {
            scheduler: scheduler_config(seed),
            ..Default::default()
        })
        .weight(weight)
}

fn manager(catalog: &Arc<ResponseCatalog>) -> SessionManager {
    SessionManager::weighted_fair(Box::new(PatternBackend::new(catalog.clone())))
        .with_bandwidth_cap(Bandwidth::from_mbps(CAP_MBPS))
}

/// The set-up's first install: two decoy ids, which no probe targets (they
/// may recur as a secondary entry, which is harmless).
fn install_probe() -> Probe {
    Probe {
        due_us: 0,
        target: gen::BURST_REQUESTS as u32 - 1,
        second: gen::BURST_REQUESTS as u32 - 2,
    }
}

struct Live {
    catalog: Arc<ResponseCatalog>,
    server: ShardedTransportServer,
    client: RawClient,
    cache: CacheManager,
    /// Held open, never read or written.
    _standing: Vec<TcpStream>,
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed().as_secs() < 10,
            "timed out waiting for {what}"
        );
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

/// Catalog, server, the active connection (accepted first, so it gets the
/// interactive weight), 128 standing connections, and the first full
/// install answered by a first block.
fn setup(seed: u64) -> Live {
    let catalog = catalog();
    let manager_catalog = catalog.clone();
    let session_catalog = catalog.clone();
    let accepted = AtomicUsize::new(0);
    let server = ShardedTransportServer::spawn(
        "127.0.0.1:0",
        1,
        move |_| manager(&manager_catalog),
        move || {
            let weight = if accepted.fetch_add(1, Ordering::Relaxed) == 0 {
                1.0
            } else {
                STANDING_WEIGHT
            };
            session_builder(&session_catalog, seed, weight)
        },
        TransportConfig {
            paced: true,
            ..Default::default()
        },
    )
    .expect("bind loopback listener");
    let addr = server.local_addr();
    let mut client = RawClient::connect(addr).expect("connect the active client");
    wait_for("the active connection to be accepted", || {
        server.stats().accepted >= 1
    });
    let standing: Vec<TcpStream> = (0..STANDING)
        .map(|_| TcpStream::connect(addr).expect("connect a standing client"))
        .collect();
    wait_for("the standing connections to be accepted", || {
        server.stats().accepted as usize > STANDING
    });
    let mut cache = CacheManager::new(CACHE_BLOCKS, catalog.clone(), utility());
    client
        .send_prediction(&gen::burst_summary(&install_probe()))
        .expect("send the first full install");
    let mut got_block = false;
    wait_for("the first block", || {
        client.wait_readable(Instant::now() + StdDuration::from_millis(5));
        let cache = &mut cache;
        client
            .drain(|event| {
                if let ServerEvent::Block { block, .. } = event {
                    cache.on_block(block.meta, Time::ZERO);
                    got_block = true;
                }
            })
            .expect("read the first block");
        got_block
    });
    Live {
        catalog,
        server,
        client,
        cache,
        _standing: standing,
    }
}

/// A probe still waiting for the first block of its target.
struct Awaiting {
    op: usize,
    target: RequestId,
    due_ns: u64,
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    let (live, setups) = repeat_setup(|| setup(seed));
    let Live {
        catalog,
        mut server,
        mut client,
        mut cache,
        _standing,
    } = live;
    let total_s = WARMUP_S + seconds;
    let probes = gen::burst_probes(
        seed,
        (total_s * 1e6 / gen::BURST_PERIOD_US as f64) as usize + 2,
    );

    procfs::separate_server_and_generator();
    let clock = Clock::start();
    let start_ns = (WARMUP_S * 1e9) as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let stop_ns = end_ns + FIRST_BLOCK_TIMEOUT_NS;
    let mut ledger = Ledger::new(start_ns, end_ns, Some(FIRST_BLOCK_TIMEOUT_NS));
    let mut interval = Interval::new();
    let mut events: Vec<ServerEvent> = Vec::with_capacity(256);
    let mut next_probe = 0usize;
    // Probes without a first block yet, oldest first, and the newest probe
    // with the blocks received since it was issued.
    let mut awaiting: VecDeque<Awaiting> = VecDeque::new();
    let mut newest: Option<(usize, RequestId, u32)> = None;
    let mut send_us: Vec<f64> = Vec::new();

    loop {
        let now = clock.ns();
        interval.tick(now, &ledger);
        if now >= stop_ns {
            break;
        }
        let next_due_ns = probes
            .get(next_probe)
            .map(|p| p.due_us * 1_000)
            .filter(|&due| due < end_ns)
            .unwrap_or(stop_ns);
        if now >= next_due_ns {
            let probe = probes[next_probe];
            next_probe += 1;
            if let Some((prev, _, _)) = newest.take() {
                ledger.supersede(prev);
            }
            let target = RequestId(probe.target);
            let op = ledger.issue(next_due_ns, gen::BURST_BLOCKS);
            ledger.late(next_due_ns, now - next_due_ns);
            cache.register(target, Time::from_micros(now / 1_000));
            let started = Instant::now();
            client
                .send_prediction(&gen::burst_summary(&probe))
                .expect("send a re-prediction");
            send_us.push(started.elapsed().as_secs_f64() * 1e6);
            awaiting.push_back(Awaiting {
                op,
                target,
                due_ns: next_due_ns,
            });
            newest = Some((op, target, 0));
            continue;
        }
        client.wait_readable(clock.at(next_due_ns));
        let open = client
            .drain(|event| events.push(event))
            .expect("read from loopback server");
        assert!(open, "server closed the connection mid-run");
        let now = clock.ns();
        let now_t = Time::from_micros(now / 1_000);
        while awaiting
            .front()
            .is_some_and(|w| now - w.due_ns > FIRST_BLOCK_TIMEOUT_NS)
        {
            awaiting.pop_front();
        }
        for event in events.drain(..) {
            match event {
                ServerEvent::Block { block, .. } => {
                    if !sut::block_is_valid(&catalog, &block, true) {
                        ledger.check_failed(now, format!("invalid block {}", block.meta.block));
                    }
                    ledger.block(now);
                    let request = block.meta.block.request;
                    cache.on_block(block.meta, now_t);
                    if let Some(at) = awaiting.iter().position(|w| w.target == request) {
                        ledger.first_block(awaiting[at].op, now);
                        awaiting.remove(at);
                    }
                    if let Some((op, target, blocks_since)) = newest.as_mut() {
                        *blocks_since += 1;
                        if request == *target && cache.current_blocks(request) == gen::BURST_BLOCKS
                        {
                            ledger.complete(*op, now, *blocks_since);
                        }
                    }
                }
                ServerEvent::Resync { .. } => ledger.check_failed(now, "unforced resync"),
                ServerEvent::Closed { .. } | ServerEvent::Busy => {
                    ledger.check_failed(now, "server closed or refused the session")
                }
                ServerEvent::Idle => {}
            }
        }
    }

    let stats_read_us = mean_call_us(50, || {
        std::hint::black_box(server.stats());
    });
    let stats = server.stats();
    let shard = server.shard_stats();
    server.shutdown();
    if stats.decode_errors + client.decode_errors > 0 {
        ledger.check_failed(end_ns, "decode errors on the wire");
    }
    let target_rate = CAP_MBPS * 1e6 / gen::BURST_BLOCK_BYTES as f64;
    let updates = client.delta_updates + client.full_updates;
    let mut own = latency_values("first_block", 95.0, &ledger.first_block_ms());
    own.extend(latency_values(
        "full_quality",
        95.0,
        &ledger.full_quality_ms(),
    ));
    own.extend(server_stats(&stats, stats_read_us));
    own.extend([
        ledger.timed_out_share(),
        ledger.preempted_share(),
        ledger.useful_block_share(),
        ledger.lateness_ms_p99(),
        Value::new(
            "tclient.send_prediction_us",
            mean(&send_us),
            "us",
            send_us.len() as u64,
        ),
        Value::new(
            "tclient.delta_share",
            client.delta_updates as f64 / updates.max(1) as f64,
            "ratio",
            updates,
        ),
        Value::new("tclient.resyncs", client.resyncs as f64, "count", 1),
        Value::new(
            "server_loop.pacing_shortfall",
            1.0 - ledger.blocks_measured() as f64 / seconds / target_rate,
            "ratio",
            ledger.blocks_measured(),
        ),
        Value::new("shard.live_models", shard.live_models as f64, "count", 1),
    ]);
    interval.finish(
        ledger,
        setups,
        own,
        Vec::new(),
        next_probe as u64,
        gen::burst_hash(&probes[..next_probe]),
    )
}

/// The same probes in virtual time against a plain `SessionManager` holding
/// the active session and the 128 standing ones; between probes the pacing
/// interval of the cap decides how many blocks go out.
pub fn replay(seed: u64, spans: bool, budget_s: f64, max_ops: u64) -> Replay {
    let catalog = catalog();
    let mut manager = manager(&catalog);
    let probe_session = manager.add_session(session_builder(&catalog, seed, 1.0));
    for _ in 0..STANDING {
        manager.add_session(session_builder(&catalog, seed, STANDING_WEIGHT));
    }
    let pace_us = manager.pacing_interval().as_micros().max(1);
    let mut replay = Replay::new(
        ReplayParts {
            catalog: catalog.clone(),
            utility: utility(),
            manager,
            probe: probe_session,
            cache: CacheManager::new(CACHE_BLOCKS, catalog.clone(), utility()),
            scheduler: scheduler_config(seed),
            server_predictor: Box::new(SimpleServerPredictor::new(gen::BURST_REQUESTS)),
            expect_payload: true,
            transport: true,
        },
        spans,
    );
    replay.uplink_summary(
        u32::MAX - 1,
        &gen::burst_summary(&install_probe()),
        "install",
        Time::ZERO,
    );
    replay.start_clock();
    let probes = gen::burst_probes(seed, REPLAY_PROBES.min(max_ops as usize));
    let mut next_block_us = 0u64;
    for (op, probe) in probes.iter().enumerate() {
        if replay.elapsed_s() > budget_s {
            break;
        }
        while next_block_us <= probe.due_us {
            replay.pull(
                op.saturating_sub(1) as u32,
                1,
                Time::from_micros(next_block_us),
            );
            next_block_us += pace_us;
        }
        let now = Time::from_micros(probe.due_us);
        replay.register(op as u32, RequestId(probe.target), now);
        replay.uplink_summary(op as u32, &gen::burst_summary(probe), "probe", now);
        replay.ops_done = op as u64 + 1;
    }
    replay
}
