//! Loopback stress harness for the real network transport: drives many
//! concurrent connections through the framed wire protocol, the event-loop
//! server, and the shared `SessionManager`, then writes the results as JSON
//! (`BENCH_transport.json`) so the transport's behaviour can be tracked
//! across PRs and uploaded as a CI artifact.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p khameleon-bench --bin transport_stress -- \
//!     [--quick] [--conns N] [--out BENCH_transport.json]
//! ```
//!
//! The default (full) scale sustains 1,000 concurrent connections; `--quick`
//! runs the reduced sweep CI uses (64 connections).  Three phases:
//!
//! 1. **Concurrency** — every client connects, uploads a prediction, pulls
//!    blocks in lockstep, re-predicts (exercising the O(Δ) delta frames),
//!    and closes cleanly.  The harness asserts zero decode errors, zero
//!    client-side IO errors, and that every client saw its blocks.
//! 2. **Backpressure** — a deliberately slow consumer with a tiny outbound
//!    queue cap; the harness asserts the queue never exceeded the cap and
//!    that the scheduler actually skipped the stalled session.
//! 3. **Delta economy** — full-vs-delta wire sizes at m = 10⁴ explicit
//!    entries under ~1% churn, the regime the delta frame is designed for.
//!
//! Like `sampler_json`, the binary fails on *correctness* violations
//! (panics) and never on timing, so CI stays robust to noisy runners.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use khameleon_core::block::{Block, ResponseCatalog};
use khameleon_core::delta::DeltaTracker;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::ServerEvent;
use khameleon_core::server::{Backend, CatalogBackend};
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{BlockRef, Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::wire::encode_client_frame;
use khameleon_transport::{ClientFrame, TransportClient, TransportConfig, TransportServer};

fn builder(catalog: &Arc<ResponseCatalog>, blocks: u32) -> SessionBuilder {
    let utility = UtilityModel::homogeneous(&LinearUtility, blocks);
    Session::builder(utility, catalog.clone())
}

/// A summary with `hot` explicit entries over `n` requests (sorted ids).
fn summary(n: usize, hot: &[(u32, f64)], residual: f64) -> PredictionSummary {
    let mut entries: Vec<(RequestId, f64)> = hot.iter().map(|&(r, p)| (RequestId(r), p)).collect();
    entries.sort_by_key(|&(r, _)| r);
    let slices = (1..=4)
        .map(|i| HorizonSlice {
            delta: Duration::from_millis(50 * i),
            dist: SparseDistribution::from_normalized(n, entries.clone(), residual),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

struct ConcurrencyResult {
    conns: usize,
    peak_active: u64,
    blocks_received: u64,
    delta_updates: u64,
    full_updates: u64,
    client_errors: u64,
    elapsed_ms: f64,
    server_decode_errors: u64,
    server_blocks_sent: u64,
}

/// Phase 1: `conns` concurrent lockstep clients, each pulling `rounds`
/// blocks, re-predicting between pulls so delta frames cross the wire.
fn run_concurrency(conns: usize, rounds: usize) -> ConcurrencyResult {
    let n_requests = 64usize;
    let cat = Arc::new(ResponseCatalog::uniform(n_requests, 4, 1_200));
    let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig {
            lockstep: true,
            ..TransportConfig::default()
        },
    )
    .expect("bind stress server");
    let addr = server.local_addr();

    // Everyone connects, then everyone proceeds: the `conns` connections are
    // genuinely concurrent, not a rolling window.
    let connected = Arc::new(Barrier::new(conns + 1));
    let done_pulling = Arc::new(Barrier::new(conns + 1));
    let blocks_received = Arc::new(AtomicU64::new(0));
    let delta_updates = Arc::new(AtomicU64::new(0));
    let full_updates = Arc::new(AtomicU64::new(0));
    let client_errors = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(conns);
    for id in 0..conns {
        let connected = Arc::clone(&connected);
        let done_pulling = Arc::clone(&done_pulling);
        let blocks_received = Arc::clone(&blocks_received);
        let delta_updates = Arc::clone(&delta_updates);
        let full_updates = Arc::clone(&full_updates);
        let client_errors = Arc::clone(&client_errors);
        let handle = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .name(format!("stress-client-{id}"))
            .spawn(move || {
                // The accept backlog is finite; retry the connect burst.
                let mut client = loop {
                    match TransportClient::connect(addr) {
                        Ok(c) => break c.with_max_delta_ratio(1.0),
                        Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
                    }
                };
                client
                    .set_read_timeout(Some(std::time::Duration::from_secs(120)))
                    .ok();
                connected.wait();
                let mut run = || -> std::io::Result<u64> {
                    let mut got = 0u64;
                    for round in 0..rounds {
                        // Rotate the hot set so re-predictions carry real
                        // changes (the O(Δ) regime).
                        let hot = ((id + round) % 60) as u32;
                        client.send_prediction(&summary(
                            64,
                            &[(hot, 0.7), (hot + 2, 0.2)],
                            0.05,
                        ))?;
                        client.send_credit(1)?;
                        loop {
                            match client.recv_event()? {
                                ServerEvent::Block { .. } => {
                                    got += 1;
                                    break;
                                }
                                ServerEvent::Resync { .. } | ServerEvent::Idle => continue,
                                ServerEvent::Closed { .. } | ServerEvent::Busy => {
                                    return Err(std::io::Error::other("unexpected close"))
                                }
                            }
                        }
                    }
                    Ok(got)
                };
                match run() {
                    Ok(got) => {
                        blocks_received.fetch_add(got, Ordering::Relaxed);
                        delta_updates.fetch_add(client.delta_updates(), Ordering::Relaxed);
                        full_updates.fetch_add(client.full_updates(), Ordering::Relaxed);
                    }
                    Err(_) => {
                        client_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                done_pulling.wait();
                let _ = client.send_close();
            })
            .expect("spawn client thread");
        handles.push(handle);
    }

    connected.wait();
    // Every client is connected and none has closed: sample true concurrency.
    let mut peak_active = 0u64;
    for _ in 0..2_000 {
        let active = server.stats().active;
        peak_active = peak_active.max(active);
        if active as usize >= conns {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    done_pulling.wait();
    for handle in handles {
        let _ = handle.join();
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    // Let the Close frames drain before snapshotting.
    for _ in 0..2_000 {
        if server.stats().active == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let stats = server.stats();
    ConcurrencyResult {
        conns,
        peak_active,
        blocks_received: blocks_received.load(Ordering::Relaxed),
        delta_updates: delta_updates.load(Ordering::Relaxed),
        full_updates: full_updates.load(Ordering::Relaxed),
        client_errors: client_errors.load(Ordering::Relaxed),
        elapsed_ms,
        server_decode_errors: stats.decode_errors,
        server_blocks_sent: stats.blocks_sent,
    }
}

/// A backend whose blocks carry real payload, so outbound frames are big
/// enough to wedge in OS socket buffers and exercise the bounded queues.
struct PayloadBackend {
    catalog: Arc<ResponseCatalog>,
    payload: usize,
}

impl Backend for PayloadBackend {
    fn fetch(&mut self, block: BlockRef) -> Option<Block> {
        let layout = self.catalog.get(block.request)?;
        if block.index >= layout.num_blocks() {
            return None;
        }
        Some(Block::with_payload(
            block,
            layout.num_blocks(),
            self.payload as u64,
            vec![0x5a; self.payload],
        ))
    }

    fn concurrency_limit(&self) -> Option<usize> {
        None
    }

    fn name(&self) -> &'static str {
        "stress-payload"
    }
}

struct BackpressureResult {
    queue_cap: usize,
    peak_queue_frames: usize,
    backpressure_skips: u64,
    live_blocks: u64,
}

/// Phase 2: one stalled consumer with a tiny queue cap next to one live
/// consumer; bounded queues and scheduler skips are the assertion targets.
fn run_backpressure() -> BackpressureResult {
    let queue_cap = 4usize;
    let payload = 256 * 1024usize;
    let cat = Arc::new(ResponseCatalog::uniform(16, 8, payload as u64));
    let manager = SessionManager::weighted_fair(Box::new(PayloadBackend {
        catalog: cat.clone(),
        payload,
    }));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 8),
        TransportConfig {
            max_queued_frames: queue_cap,
            ..TransportConfig::default()
        },
    )
    .expect("bind backpressure server");

    // The slow client uploads a prediction and then never reads.
    let mut slow = TransportClient::connect(server.local_addr()).expect("connect slow");
    slow.send_prediction(&summary(16, &[(1, 0.9)], 0.05))
        .expect("slow prediction");

    let mut live = TransportClient::connect(server.local_addr()).expect("connect live");
    live.set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .ok();
    live.send_prediction(&summary(16, &[(2, 0.9)], 0.05))
        .expect("live prediction");

    let mut live_blocks = 0u64;
    while live_blocks < 24 {
        if let ServerEvent::Block { .. } = live.recv_event().expect("live event") {
            live_blocks += 1;
        }
    }
    let stats = server.stats();
    drop(slow);
    drop(live);
    BackpressureResult {
        queue_cap,
        peak_queue_frames: stats.peak_queue_frames,
        backpressure_skips: stats.backpressure_skips,
        live_blocks,
    }
}

struct DeltaEconomyResult {
    m: usize,
    churn: usize,
    full_frame_bytes: u64,
    mean_delta_frame_bytes: f64,
    ratio: f64,
    rounds: usize,
}

/// Phase 3: delta-vs-full wire sizes at m explicit entries with ~1% churn
/// per re-prediction — measured on the actual encoded frames.
fn run_delta_economy(m: usize, rounds: usize) -> DeltaEconomyResult {
    let n = 2 * m;
    // Explicit mass ≈ 0.5 spread over m entries; each round rescales one
    // rotating ~1% segment, leaving the other 99% bit-identical.
    let mut weights: Vec<f64> = (0..m)
        .map(|i| 0.5 / m as f64 * (1.0 + (i % 7) as f64 * 0.05))
        .collect();
    let build = |weights: &[f64]| {
        let entries: Vec<(RequestId, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (RequestId::from(i), w))
            .collect();
        let mass: f64 = weights.iter().sum();
        let slices = (1..=4)
            .map(|i| HorizonSlice {
                delta: Duration::from_millis(50 * i),
                dist: SparseDistribution::from_normalized(n, entries.clone(), 1.0 - mass),
            })
            .collect();
        PredictionSummary::new(n, slices, Time::ZERO)
    };

    let mut tracker = DeltaTracker::new();
    let frame_len = |summary: &PredictionSummary, tracker: &mut DeltaTracker| {
        let message = tracker.encode(summary);
        let delta = matches!(
            message,
            khameleon_core::protocol::ClientMessage::PredictorDelta(_)
        );
        (
            encode_client_frame(&ClientFrame::Message(message)).len() as u64,
            delta,
        )
    };

    let (full_frame_bytes, was_delta) = frame_len(&build(&weights), &mut tracker);
    assert!(!was_delta, "first encode must be a full install");

    let seg = (m / 100).max(1);
    let mut delta_bytes = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let start = (round * seg) % m;
        let factor = if round % 2 == 0 { 1.25 } else { 0.8 };
        for w in weights[start..(start + seg).min(m)].iter_mut() {
            *w *= factor;
        }
        let (bytes, was_delta) = frame_len(&build(&weights), &mut tracker);
        assert!(
            was_delta,
            "round {round}: ~1% churn at m={m} must ship as a delta"
        );
        delta_bytes.push(bytes);
    }
    let mean_delta_frame_bytes = delta_bytes.iter().sum::<u64>() as f64 / delta_bytes.len() as f64;
    DeltaEconomyResult {
        m,
        churn: seg,
        full_frame_bytes,
        mean_delta_frame_bytes,
        ratio: full_frame_bytes as f64 / mean_delta_frame_bytes,
        rounds,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_transport.json".to_string());
    let conns = args
        .iter()
        .position(|a| a == "--conns")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 64 } else { 1_000 });
    let rounds = 4;

    eprintln!("# phase 1: {conns} concurrent lockstep connections ...");
    let conc = run_concurrency(conns, rounds);
    assert_eq!(conc.client_errors, 0, "client-side IO errors under load");
    assert_eq!(conc.server_decode_errors, 0, "server decode errors");
    assert_eq!(
        conc.peak_active as usize, conc.conns,
        "never reached full concurrency"
    );
    assert_eq!(
        conc.blocks_received,
        (conc.conns * rounds) as u64,
        "lost blocks under load"
    );
    assert!(conc.delta_updates > 0, "no delta frames crossed the wire");

    eprintln!("# phase 2: backpressure on a stalled consumer ...");
    let bp = run_backpressure();
    assert!(
        bp.peak_queue_frames <= bp.queue_cap,
        "outbound queue exceeded its cap: {} > {}",
        bp.peak_queue_frames,
        bp.queue_cap
    );
    assert!(
        bp.backpressure_skips > 0,
        "stalled session was never skipped"
    );

    eprintln!("# phase 3: delta economy at m = 10^4, ~1% churn ...");
    let econ = run_delta_economy(10_000, if quick { 8 } else { 24 });
    assert!(
        econ.ratio >= 50.0,
        "delta frames only {:.1}x smaller than full summaries",
        econ.ratio
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"transport_stress\",\n");
    let _ = writeln!(
        json,
        "  \"concurrency\": {{\"conns\": {}, \"peak_active\": {}, \"blocks_received\": {}, \"blocks_sent\": {}, \"delta_updates\": {}, \"full_updates\": {}, \"client_errors\": {}, \"decode_errors\": {}, \"elapsed_ms\": {:.1}}},",
        conc.conns,
        conc.peak_active,
        conc.blocks_received,
        conc.server_blocks_sent,
        conc.delta_updates,
        conc.full_updates,
        conc.client_errors,
        conc.server_decode_errors,
        conc.elapsed_ms
    );
    let _ = writeln!(
        json,
        "  \"backpressure\": {{\"queue_cap\": {}, \"peak_queue_frames\": {}, \"backpressure_skips\": {}, \"live_blocks\": {}}},",
        bp.queue_cap, bp.peak_queue_frames, bp.backpressure_skips, bp.live_blocks
    );
    let _ = writeln!(
        json,
        "  \"delta_economy\": {{\"m\": {}, \"churn_entries\": {}, \"rounds\": {}, \"full_frame_bytes\": {}, \"mean_delta_frame_bytes\": {:.1}, \"ratio\": {:.1}}}",
        econ.m, econ.churn, econ.rounds, econ.full_frame_bytes, econ.mean_delta_frame_bytes, econ.ratio
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench JSON");

    println!("wrote {out_path}");
    println!(
        "concurrency : {} conns, {} blocks, {} deltas, {:.0} ms",
        conc.conns, conc.blocks_received, conc.delta_updates, conc.elapsed_ms
    );
    println!(
        "backpressure: peak queue {}/{} frames, {} skips",
        bp.peak_queue_frames, bp.queue_cap, bp.backpressure_skips
    );
    println!(
        "delta econ  : full {} B vs delta {:.0} B -> {:.1}x smaller",
        econ.full_frame_bytes, econ.mean_delta_frame_bytes, econ.ratio
    );
}
