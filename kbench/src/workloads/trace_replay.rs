//! `trace_replay`: the paper's own scenario on a real socket.
//!
//! One connection replays a seeded image-exploration trace (≈35
//! interactions/s over a 100 × 100 gallery of 1.3–2 MB images in 20 blocks)
//! in real time against a paced `TransportServer` capped at 5.625 MB/s, with
//! the Kalman predictor shipping state every 150 ms and a 50 MB client
//! cache.  Open loop: interactions are timed from when they were due.
//! Server CPU is almost idle, so this guards response *quality* and miss
//! latency, not compute.
//!
//! Receive-rate reports are deliberately **off**.  With them on, a paced
//! server over loopback ratchets its own estimate down: the client can only
//! report what the pacer let through, each report reads a few percent under
//! the pacing rate (sleep quantisation), and the harmonic mean of reports
//! becomes the next pacing rate — 5.6 MB/s fell to ≈1 MB/s within 11 s in a
//! scratch run, and every metric then depends on how long the run has been
//! going.  `bench/README.md` records this as a hypothesis for a later issue.
//!
//! An op is one interaction (the cursor enters a thumbnail), timed from
//! that instant to the cache manager's upcall (≥ 1 block of the image
//! cached): at once on a hit, later — or never — on a miss.  An interaction
//! nobody answers is counted in `cache.answered_share`, not timed and not
//! failed: moving on before the image arrives is what this user does.

use std::sync::Arc;

use crate::gen;
use crate::ledger::{latency_values, Ledger, Measured, Value};
use crate::procfs;
use crate::rawclient::RawClient;
use crate::replay::{Replay, ReplayParts};
use crate::sut::{
    self, Bandwidth, CacheManager, ClientMessage, Duration, GreedySchedulerConfig,
    ImageExplorationApp, InteractionEvent, InteractionTrace, PatternBackend, PredictorKind,
    PredictorManager, PredictorManagerConfig, ResponseCatalog, ServerConfig, ServerEvent, Session,
    SessionBuilder, SessionManager, Time, TransportConfig, TransportServer,
};

use super::{mean, mean_call_us, repeat_setup, server_stats, Clock, Interval, WARMUP_S};

const CAP_MBPS: f64 = 5.625;
const CACHE_BYTES: u64 = 50_000_000;
const PREDICT_EVERY_MS: u64 = 150;
/// Trace seconds the replay covers (it runs in virtual time).
const REPLAY_TRACE_S: u64 = 120;

#[derive(Clone)]
struct World {
    app: Arc<ImageExplorationApp>,
    catalog: Arc<ResponseCatalog>,
    cache_blocks: usize,
}

fn world(seed: u64) -> World {
    let app = Arc::new(ImageExplorationApp::reduced(gen::TRACE_GRID_SIDE, seed));
    let catalog = app.catalog();
    let cache_blocks = (CACHE_BYTES / catalog.max_block_size().max(1)) as usize;
    World {
        app,
        catalog,
        cache_blocks,
    }
}

fn scheduler_config(w: &World, seed: u64) -> GreedySchedulerConfig {
    GreedySchedulerConfig {
        cache_blocks: w.cache_blocks,
        seed,
        slot_duration: Bandwidth::from_mbps(CAP_MBPS).transmit_time(w.catalog.max_block_size()),
        ..Default::default()
    }
}

fn session_builder(w: &World, seed: u64) -> SessionBuilder {
    Session::builder(w.app.utility(), w.catalog.clone())
        .config(ServerConfig {
            scheduler: scheduler_config(w, seed),
            ..Default::default()
        })
        .predictor(w.app.server_predictor())
}

fn manager(w: &World) -> SessionManager {
    SessionManager::weighted_fair(Box::new(PatternBackend::new(w.catalog.clone())))
        .with_bandwidth_cap(Bandwidth::from_mbps(CAP_MBPS))
}

fn client_predictor(w: &World) -> PredictorManager {
    PredictorManager::new(
        w.app.client_predictor(PredictorKind::Kalman, None),
        PredictorManagerConfig {
            send_interval: Duration::from_millis(PREDICT_EVERY_MS),
            send_on_request: false,
        },
    )
}

fn client_cache(w: &World) -> CacheManager {
    CacheManager::with_byte_capacity(CACHE_BYTES, w.catalog.clone(), w.app.utility())
}

struct Live {
    world: World,
    trace: InteractionTrace,
    server: TransportServer,
    client: RawClient,
    cache: CacheManager,
    predictor: PredictorManager,
}

/// Corpus, catalog, trace, server, connection, and the first predictor
/// state answered by a first block.
fn setup(seed: u64, trace_s: u64) -> Live {
    let world = world(seed);
    let trace = gen::image_trace(&world.app, seed, trace_s);
    let factory_world = world.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager(&world),
        move || session_builder(&factory_world, seed),
        TransportConfig {
            paced: true,
            ..Default::default()
        },
    )
    .expect("bind loopback listener");
    let mut client = RawClient::connect(server.local_addr()).expect("connect to loopback server");
    let mut predictor = client_predictor(&world);
    let mut cache = client_cache(&world);
    if let Some(first) = trace.samples.first() {
        predictor.observe(&InteractionEvent::MouseMove {
            x: first.x,
            y: first.y,
            at: Time::ZERO,
        });
    }
    let state = predictor.force(Time::ZERO);
    client
        .send_message(ClientMessage::Predictor(state))
        .expect("send first predictor state");
    let started = std::time::Instant::now();
    let mut got_block = false;
    while !got_block && started.elapsed().as_secs() < 5 {
        client.wait_readable(std::time::Instant::now() + std::time::Duration::from_millis(5));
        let cache = &mut cache;
        client
            .drain(|event| {
                if let ServerEvent::Block { block, .. } = event {
                    cache.on_block(block.meta, Time::ZERO);
                    got_block = true;
                }
            })
            .expect("read first block");
    }
    assert!(got_block, "no block within 5 s of connecting");
    Live {
        world,
        trace,
        server,
        client,
        cache,
        predictor,
    }
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    let trace_s = (WARMUP_S + seconds).ceil() as u64 + 2;
    let (live, setups) = repeat_setup(|| setup(seed, trace_s));
    let Live {
        world,
        trace,
        mut server,
        mut client,
        mut cache,
        mut predictor,
    } = live;
    procfs::separate_server_and_generator();
    let clock = Clock::start();
    let start_ns = (WARMUP_S * 1e9) as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let mut ledger = Ledger::new(start_ns, end_ns, None);
    let mut interval = Interval::new();
    let mut events: Vec<ServerEvent> = Vec::with_capacity(64);
    let crossings = gen::crossing_times_us(&world.app, &trace);
    let (mut next_sample, mut next_request) = (0usize, 0usize);
    let mut poll_us: Vec<f64> = Vec::new();
    let mut send_us: Vec<f64> = Vec::new();
    let mut state_bytes: Vec<f64> = Vec::new();

    loop {
        let now = clock.ns();
        interval.tick(now, &ledger);
        if now >= end_ns {
            break;
        }
        let now_t = Time::from_micros(now / 1_000);

        // Whatever is due: mouse samples (and the interactions they imply),
        // then the predictor's send cadence.
        let mut acted = false;
        while let Some(sample) = trace.samples.get(next_sample) {
            if sample.at.as_micros() * 1_000 > now {
                break;
            }
            predictor.observe(&InteractionEvent::MouseMove {
                x: sample.x,
                y: sample.y,
                at: sample.at,
            });
            next_sample += 1;
            acted = true;
            while let Some(&(at, request)) = trace.requests.get(next_request) {
                if at > sample.at {
                    break;
                }
                predictor.observe(&InteractionEvent::Request { request, at });
                // Due when the cursor entered the thumbnail; the generator
                // is late against the sample that reports it.
                let op = ledger.issue(
                    crossings[next_request] * 1_000,
                    world.catalog.num_blocks(request),
                );
                ledger.late(
                    at.as_micros() * 1_000,
                    now.saturating_sub(at.as_micros() * 1_000),
                );
                if let Some(upcall) = cache.register(request, now_t) {
                    ledger.answer(op, now, true, upcall.utility);
                }
                next_request += 1;
            }
        }
        if predictor.due(now_t) {
            let started = std::time::Instant::now();
            let state = predictor.poll(now_t).expect("due implies a state");
            poll_us.push(started.elapsed().as_secs_f64() * 1e6);
            let before = client.uplink_bytes;
            let started = std::time::Instant::now();
            client
                .send_message(ClientMessage::Predictor(state))
                .expect("send predictor state");
            send_us.push(started.elapsed().as_secs_f64() * 1e6);
            state_bytes.push((client.uplink_bytes - before) as f64);
            acted = true;
        }
        if acted {
            continue;
        }

        let next_due_ns = trace
            .samples
            .get(next_sample)
            .map_or(end_ns, |s| s.at.as_micros() * 1_000)
            .min(predictor.next_due(now_t).as_micros() * 1_000)
            .min(end_ns);
        client.wait_readable(clock.at(next_due_ns));
        let open = client
            .drain(|event| events.push(event))
            .expect("read from loopback server");
        assert!(open, "server closed the connection mid-run");
        for event in events.drain(..) {
            let now = clock.ns();
            let now_t = Time::from_micros(now / 1_000);
            match event {
                ServerEvent::Block { block, .. } => {
                    if !sut::block_is_valid(&world.catalog, &block, true) {
                        ledger.check_failed(now, format!("invalid block {}", block.meta.block));
                    }
                    ledger.block(now);
                    for upcall in cache.on_block(block.meta, now_t) {
                        // One `register` per op, in order: the logical
                        // timestamp is the op index.
                        ledger.answer(upcall.logical_ts as usize, now, false, upcall.utility);
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
    server.shutdown();
    if stats.decode_errors + client.decode_errors > 0 {
        ledger.check_failed(end_ns, "decode errors on the wire");
    }
    let delivered_mbps =
        ledger.blocks_measured() as f64 * world.catalog.max_block_size() as f64 / seconds / 1e6;
    let summary = cache.metrics().summary();
    let mut own = ledger.quality();
    own.extend(latency_values("miss_wait", 90.0, &ledger.miss_wait_ms()));
    own.extend(server_stats(&stats, stats_read_us));
    own.extend([
        ledger.lateness_ms_p99(),
        Value::new(
            "tclient.send_prediction_us",
            mean(&send_us),
            "us",
            send_us.len() as u64,
        ),
        Value::new("tclient.resyncs", client.resyncs as f64, "count", 1),
        Value::new(
            "predictor.client_poll_us",
            mean(&poll_us),
            "us",
            poll_us.len() as u64,
        ),
        Value::new(
            "predictor.state_bytes",
            mean(&state_bytes),
            "bytes",
            state_bytes.len() as u64,
        ),
        Value::new(
            "server_loop.pacing_shortfall",
            1.0 - delivered_mbps / CAP_MBPS,
            "ratio",
            ledger.blocks_measured(),
        ),
        Value::new(
            "cache.preempted_share",
            summary.preempted_rate,
            "ratio",
            summary.requests,
        ),
        Value::new(
            "session.overpush_share",
            summary.overpush_rate,
            "ratio",
            summary.blocks_pushed,
        ),
    ]);
    let ops_total = next_request as u64;
    interval.finish(
        ledger,
        setups,
        own,
        Vec::new(),
        ops_total,
        gen::trace_hash(&trace),
    )
}

/// The same trace in virtual time: samples, interactions and predictor
/// polls at their trace times, blocks at the pacing interval the cap
/// implies.
pub fn replay(seed: u64, spans: bool, budget_s: f64, max_ops: u64) -> Replay {
    let w = world(seed);
    let trace = gen::image_trace(&w.app, seed, REPLAY_TRACE_S);
    let mut manager = manager(&w);
    let probe = manager.add_session(session_builder(&w, seed));
    let mut predictor = client_predictor(&w);
    let pace_us = manager.pacing_interval().as_micros().max(1);
    let mut replay = Replay::new(
        ReplayParts {
            catalog: w.catalog.clone(),
            utility: w.app.utility(),
            manager,
            probe,
            cache: client_cache(&w),
            scheduler: scheduler_config(&w, seed),
            server_predictor: w.app.server_predictor(),
            expect_payload: true,
            transport: true,
        },
        spans,
    );
    let mut next_request = 0usize;
    // Op ids are interaction indices, as in the socket run's ledger.
    let mut op = 0u32;
    let mut next_block_us = 0u64;
    for sample in &trace.samples {
        if replay.elapsed_s() > budget_s || next_request as u64 >= max_ops {
            break;
        }
        let at_us = sample.at.as_micros();
        // Blocks the pacing gate lets out before this sample.
        while next_block_us <= at_us {
            replay.pull(op, 1, Time::from_micros(next_block_us));
            next_block_us += pace_us;
        }
        predictor.observe(&InteractionEvent::MouseMove {
            x: sample.x,
            y: sample.y,
            at: sample.at,
        });
        while let Some(&(at, request)) = trace.requests.get(next_request) {
            if at > sample.at {
                break;
            }
            op = next_request as u32;
            next_request += 1;
            predictor.observe(&InteractionEvent::Request { request, at });
            replay.register(op, request, sample.at);
        }
        if predictor.due(sample.at) {
            let state = {
                let predictor = &mut predictor;
                replay
                    .spans
                    .time(op, "predictor.client_poll", || predictor.poll(sample.at))
                    .expect("due implies a state")
            };
            replay.uplink_message(
                op,
                probe,
                ClientMessage::Predictor(state),
                "state",
                sample.at,
            );
        }
    }
    replay.ops_done = next_request as u64;
    replay
}
