//! `update_heavy`: the write side of the scheduler and the uplink.
//!
//! A lockstep `TransportServer` over 20 000 requests × 8 metadata-only
//! blocks; one real `TransportClient` whose prediction holds 10⁴ explicit
//! entries over 4 slices.  Each op mutates ~1 % of the entries (70 %
//! rescale-only, 30 % structural, every 64th a refresh of every entry that
//! ships as a ≈ 640 KB full frame), then `send_prediction` + `send_credit(4)`
//! and waits for the 4 blocks.  Closed loop, one op outstanding.  Block
//! draws are 4 per op, so this isolates `DeltaTracker::encode`, frame
//! decode, `ShadowSummary::apply`, `HorizonModel::apply_update[_sparse]` and
//! the sampler's point updates.  Lockstep makes the block sequence exactly
//! repeatable: the traced run checks it against the in-process replay.
//!
//! An op is one update, timed from its send to the first block after it (no
//! block within 1 s: a failed check, and the run stops); it completes with
//! its fourth block.

use std::sync::Arc;
use std::time::Instant;

use crate::gen::{self, Fnv, UpdateInput, UpdateKind};
use crate::ledger::{latency_values, Ledger, Measured, Value};
use crate::procfs;
use crate::replay::{Replay, ReplayParts};
use crate::sut::{
    self, CacheManager, CatalogBackend, Duration, GreedySchedulerConfig, PowerUtility,
    ResponseCatalog, ServerConfig, ServerEvent, Session, SessionBuilder, SessionManager,
    SimpleServerPredictor, Time, TransportClient, TransportConfig, TransportServer, UtilityModel,
};

use super::{mean, mean_call_us, repeat_setup, server_stats, Clock, Interval, WARMUP_S};

const BLOCK_BYTES: u64 = 4_096;
const CREDITS_PER_OP: u32 = 4;
const CACHE_BLOCKS: usize = 1_024;
/// An op with no block this long after its send fails the run: the lockstep
/// server stopped answering.
const FIRST_BLOCK_TIMEOUT_NS: u64 = 1_000_000_000;
/// The same for the set-up's first install, which builds the 10⁴-entry
/// model from nothing (≈ 0.9 s here).
const INSTALL_TIMEOUT_S: u64 = 10;

fn catalog() -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(
        gen::UPDATE_REQUESTS,
        gen::UPDATE_BLOCKS,
        BLOCK_BYTES,
    ))
}

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&PowerUtility::new(0.5), gen::UPDATE_BLOCKS)
}

fn scheduler_config(seed: u64) -> GreedySchedulerConfig {
    GreedySchedulerConfig {
        cache_blocks: CACHE_BLOCKS,
        seed,
        slot_duration: Duration::from_millis(1),
        ..Default::default()
    }
}

fn session_builder(catalog: &Arc<ResponseCatalog>, seed: u64) -> SessionBuilder {
    Session::builder(utility(), catalog.clone()).config(ServerConfig {
        scheduler: scheduler_config(seed),
        ..Default::default()
    })
}

fn manager(catalog: &Arc<ResponseCatalog>) -> SessionManager {
    SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())))
}

fn kind_label(kind: UpdateKind) -> &'static str {
    match kind {
        UpdateKind::Rescale => "rescale",
        UpdateKind::Structural => "structural",
        UpdateKind::Full => "full",
    }
}

/// The client side of one connection: transport client, cache model, and
/// the running hash of every block received.
struct Client {
    transport: TransportClient,
    cache: CacheManager,
    hash: Fnv,
}

impl Client {
    /// Receives the `CREDITS_PER_OP` blocks of one op, calling `on_block`
    /// with each block's position.  `false` if the server stopped answering
    /// (recorded as a failed check at `sent_ns`).
    fn receive_op(
        &mut self,
        catalog: &ResponseCatalog,
        ledger: &mut Ledger,
        sent_ns: u64,
        mut on_block: impl FnMut(&mut Ledger, u32),
    ) -> bool {
        let mut got = 0;
        while got < CREDITS_PER_OP {
            match self.transport.recv_event() {
                Ok(ServerEvent::Block { block, .. }) => {
                    if !sut::block_is_valid(catalog, &block, false) {
                        ledger.check_failed(sent_ns, format!("invalid block {}", block.meta.block));
                    }
                    let request = block.meta.block.request;
                    self.hash
                        .word(u64::from(request.0) << 32 | u64::from(block.meta.block.index));
                    self.cache.on_block(block.meta, Time::ZERO);
                    got += 1;
                    on_block(ledger, got);
                }
                Ok(ServerEvent::Resync { .. }) => ledger.check_failed(sent_ns, "unforced resync"),
                Ok(ServerEvent::Idle) => {}
                Ok(ServerEvent::Closed { .. } | ServerEvent::Busy) => {
                    ledger.check_failed(sent_ns, "server closed or refused the session");
                    return false;
                }
                Err(e) => {
                    ledger.check_failed(sent_ns, format!("lockstep server stopped answering: {e}"));
                    return false;
                }
            }
        }
        true
    }
}

struct Live {
    catalog: Arc<ResponseCatalog>,
    server: TransportServer,
    client: Client,
    input: UpdateInput,
}

/// Catalog, input state, server, connection, and the first full install
/// (10⁴ entries) answered by its four blocks.
fn setup(seed: u64) -> Live {
    let catalog = catalog();
    let input = UpdateInput::new(seed);
    let factory_catalog = catalog.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager(&catalog),
        move || session_builder(&factory_catalog, seed),
        TransportConfig {
            lockstep: true,
            ..Default::default()
        },
    )
    .expect("bind loopback listener");
    let transport =
        TransportClient::connect(server.local_addr()).expect("connect to loopback server");
    transport
        .set_read_timeout(Some(std::time::Duration::from_secs(INSTALL_TIMEOUT_S)))
        .expect("set read timeout");
    let mut client = Client {
        transport,
        cache: CacheManager::new(CACHE_BLOCKS, catalog.clone(), utility()),
        hash: Fnv::new(),
    };
    client
        .transport
        .send_prediction(&input.summary())
        .expect("send the first full install");
    client
        .transport
        .send_credit(CREDITS_PER_OP)
        .expect("grant credit");
    let mut scratch = Ledger::new(0, 1, None);
    client.receive_op(&catalog, &mut scratch, 0, |_, _| {});
    assert_eq!(
        scratch.checks_failed(),
        0,
        "first install: {:?}",
        scratch.check_messages().collect::<Vec<_>>()
    );
    client
        .transport
        .set_read_timeout(Some(std::time::Duration::from_nanos(
            FIRST_BLOCK_TIMEOUT_NS,
        )))
        .expect("set read timeout");
    Live {
        catalog,
        server,
        client,
        input,
    }
}

pub fn run(seed: u64, seconds: f64) -> Measured {
    let (live, setups) = repeat_setup(|| setup(seed));
    let Live {
        catalog,
        mut server,
        mut client,
        mut input,
    } = live;

    procfs::separate_server_and_generator();
    let clock = Clock::start();
    let start_ns = (WARMUP_S * 1e9) as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let mut ledger = Ledger::new(start_ns, end_ns, Some(FIRST_BLOCK_TIMEOUT_NS));
    let mut interval = Interval::new();
    let mut hashes: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut send_us: Vec<f64> = Vec::new();
    let mut full_send_us: Vec<f64> = Vec::new();
    let mut uplink_bytes = 0u64;

    loop {
        let loop_start = clock.ns();
        interval.tick(loop_start, &ledger);
        if loop_start >= end_ns {
            break;
        }
        let kind = input.next_op();
        let summary = input.summary();
        let sent_at = clock.ns();
        // The closed loop's own work between two ops: generating the input.
        ledger.late(sent_at, sent_at - loop_start);
        let op = ledger.issue(sent_at, CREDITS_PER_OP);
        let started = Instant::now();
        let report = client
            .transport
            .send_prediction(&summary)
            .expect("send a prediction update");
        let spent = started.elapsed().as_secs_f64() * 1e6;
        if report.delta {
            send_us.push(spent);
        } else {
            full_send_us.push(spent);
        }
        if kind == UpdateKind::Full && report.delta {
            ledger.check_failed(sent_at, "a full refresh shipped as a delta");
        }
        uplink_bytes += report.bytes;
        client
            .transport
            .send_credit(CREDITS_PER_OP)
            .expect("grant credit");
        let answered = client.receive_op(&catalog, &mut ledger, sent_at, |ledger, nth| {
            let now = clock.ns();
            ledger.block(now);
            if nth == 1 {
                ledger.first_block(op, now);
            }
            if nth == CREDITS_PER_OP {
                ledger.complete(op, now, nth);
                ledger.update(now);
            }
        });
        if !answered {
            // Close the interval here so the result can still be assembled.
            interval.tick(end_ns, &ledger);
            break;
        }
        hashes.push(client.hash.0);
    }

    let stats_read_us = mean_call_us(50, || {
        std::hint::black_box(server.stats());
    });
    let stats = server.stats();
    server.shutdown();
    if stats.decode_errors > 0 {
        ledger.check_failed(end_ns, "decode errors on the wire");
    }
    let transport = &client.transport;
    let updates = transport.delta_updates() + transport.full_updates();
    let ops = hashes.len() as u64;
    let mut own = latency_values("first_block", 95.0, &ledger.first_block_ms());
    own.push(ledger.updates_per_s());
    own.extend(server_stats(&stats, stats_read_us));
    own.extend([
        ledger.timed_out_share(),
        ledger.lateness_ms_p99(),
        Value::new(
            "tclient.send_prediction_us",
            mean(&send_us),
            "us",
            send_us.len() as u64,
        ),
        Value::new(
            "tclient.send_prediction_full_us",
            mean(&full_send_us),
            "us",
            full_send_us.len() as u64,
        ),
        Value::new(
            "tclient.delta_share",
            transport.delta_updates() as f64 / updates.max(1) as f64,
            "ratio",
            updates,
        ),
        Value::new(
            "tclient.resyncs",
            transport.resyncs_seen() as f64,
            "count",
            1,
        ),
        Value::new(
            "wire.uplink_bytes_per_update_socket",
            uplink_bytes as f64 / ops.max(1) as f64,
            "bytes",
            ops,
        ),
    ]);
    interval.finish(ledger, setups, own, hashes, ops, input.op_hash())
}

/// The same op sequence against a plain `SessionManager` at the frozen
/// lockstep clock: install, then per op one uplink and four pulls.  Covers
/// at most `max_ops` ops (the socket run's count, so the hashes can be
/// compared at the replay's length).
pub fn replay(seed: u64, spans: bool, budget_s: f64, max_ops: u64) -> Replay {
    let catalog = catalog();
    let mut manager = manager(&catalog);
    let probe = manager.add_session(session_builder(&catalog, seed));
    let mut replay = Replay::new(
        ReplayParts {
            catalog: catalog.clone(),
            utility: utility(),
            manager,
            probe,
            cache: CacheManager::new(CACHE_BLOCKS, catalog.clone(), utility()),
            scheduler: scheduler_config(seed),
            server_predictor: Box::new(SimpleServerPredictor::new(gen::UPDATE_REQUESTS)),
            expect_payload: false,
            transport: true,
        },
        spans,
    )
    .with_default_delta_ratio();
    let mut input = UpdateInput::new(seed);
    replay.uplink_summary(u32::MAX - 1, &input.summary(), "install", Time::ZERO);
    replay.pull(u32::MAX - 1, CREDITS_PER_OP as usize, Time::ZERO);
    replay.start_clock();
    while replay.ops_done < max_ops && replay.elapsed_s() < budget_s {
        let op = replay.ops_done as u32;
        let kind = input.next_op();
        replay.uplink_summary(op, &input.summary(), kind_label(kind), Time::ZERO);
        let pulled = replay.pull(op, CREDITS_PER_OP as usize, Time::ZERO);
        if pulled != CREDITS_PER_OP as usize {
            replay
                .check_failures
                .push(format!("op {op} drew {pulled} of {CREDITS_PER_OP} blocks"));
        }
        replay.ops_done += 1;
    }
    replay
}
