//! Chaos harness for the fault-tolerance layer: a seeded fault matrix —
//! {drop, corrupt, stall} × {resume, expire} — driven over the real
//! loopback transport, with the results written as JSON (`BENCH_chaos.json`)
//! so recovery behaviour can be tracked across PRs and uploaded as a CI
//! artifact.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p khameleon-bench --bin chaos -- \
//!     [--quick] [--seed N] [--out BENCH_chaos.json]
//! ```
//!
//! The two columns of the matrix exercise the two recovery paths documented
//! in `docs/RESILIENCE.md`:
//!
//! - **resume** — parking enabled (default config), lockstep pulls.  The
//!   injected fault severs or starves the connection mid-run; the resilient
//!   client reconnects with `Resume`, the server replays its ring, and the
//!   harness asserts the delivered schedule is block-for-block identical to
//!   an uninterrupted reference run (exactly one reconnect, zero fresh
//!   sessions).
//! - **expire** — parking disabled (`max_parked_sessions: 0`), streaming
//!   pulls.  Every reconnect must degrade to a fresh session with a rotated
//!   token (never a resume), and blocks must keep flowing afterwards.
//!
//! The faulted frame index is derived from `--seed` via `splitmix64`, so a
//! sweep is reproducible from its seed alone.  Like the other bench bins,
//! the harness panics on *correctness* violations and never on timing.

use std::fmt::Write as _;
use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::fault::{splitmix64, FaultKind, FaultPlan};
use khameleon_core::protocol::ServerEvent;
use khameleon_core::server::CatalogBackend;
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::{ReconnectPolicy, TransportClient, TransportConfig, TransportServer};

fn builder(catalog: &Arc<ResponseCatalog>, blocks: u32) -> SessionBuilder {
    let utility = UtilityModel::homogeneous(&LinearUtility, blocks);
    Session::builder(utility, catalog.clone())
}

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

fn spawn_server(cat: &Arc<ResponseCatalog>, config: TransportConfig) -> TransportServer {
    let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        config,
    )
    .expect("bind chaos server")
}

/// Fast, deterministic reconnect policy: short backoff, and a read timeout
/// so starvation faults (drop, stall) trigger the reconnect path instead of
/// hanging the puller.
fn policy() -> ReconnectPolicy {
    ReconnectPolicy {
        base_backoff: std::time::Duration::from_millis(2),
        max_backoff: std::time::Duration::from_millis(50),
        read_timeout: Some(std::time::Duration::from_millis(400)),
        ..ReconnectPolicy::default()
    }
}

/// Drives one resumable lockstep client through `phases` of `pulls`
/// credited blocks each, returning the delivered schedule tuples.
fn lockstep_pull(
    server: &TransportServer,
    phases: &[&PredictionSummary],
    pulls: usize,
) -> (Vec<(u64, u32, u32)>, TransportClient) {
    let mut client = TransportClient::connect_resumable(server.local_addr(), policy())
        .expect("resumable connect")
        .with_max_delta_ratio(1.0);
    let mut got: Vec<(u64, u32, u32)> = Vec::new();
    for s in phases {
        client.send_prediction(s).expect("prediction");
        for _ in 0..pulls {
            client.send_credit(1).expect("credit");
            loop {
                match client.recv_event_resilient().expect("resilient event") {
                    ServerEvent::Block { block, .. } => {
                        got.push((
                            block.meta.block.request.0 as u64,
                            block.meta.block.index,
                            block.meta.total_blocks,
                        ));
                        break;
                    }
                    ServerEvent::Idle | ServerEvent::Resync { .. } => continue,
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }
    (got, client)
}

struct Cell {
    fault: &'static str,
    mode: &'static str,
    frame: u64,
    blocks: u64,
    matched_reference: Option<bool>,
    reconnects: u64,
    fresh_sessions: u64,
    parked: u64,
    resumed: u64,
    replayed_events: u64,
    shed_blocks: u64,
    faults_injected: u64,
}

/// One resume-column cell: parking enabled, lockstep, fault at `frame` of
/// the first connection.  The delivered schedule must match `reference`
/// exactly — the whole point of park + replay.
fn run_resume_cell(
    fault: &'static str,
    kind: FaultKind,
    frame: u64,
    reference: &[(u64, u32, u32)],
    phases: &[&PredictionSummary],
    pulls: usize,
    cat: &Arc<ResponseCatalog>,
) -> Cell {
    let plan = FaultPlan::new().with(0, frame, kind);
    let server = spawn_server(
        cat,
        TransportConfig {
            lockstep: true,
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    );
    let (got, client) = lockstep_pull(&server, phases, pulls);
    let stats = server.stats();

    let matched = got == reference;
    assert!(
        matched,
        "{fault}/resume: replayed schedule diverged from the uninterrupted run"
    );
    assert_eq!(
        client.reconnects(),
        1,
        "{fault}/resume: expected one reconnect"
    );
    assert_eq!(
        client.epoch(),
        1,
        "{fault}/resume: resume must bump the epoch"
    );
    assert_eq!(
        client.fresh_sessions(),
        0,
        "{fault}/resume: must not restart fresh"
    );
    assert_eq!(
        stats.faults_injected, 1,
        "{fault}/resume: fault did not fire"
    );
    assert_eq!(stats.parked, 1, "{fault}/resume: disconnect must park");
    assert_eq!(stats.resumed, 1, "{fault}/resume: park must resume");

    Cell {
        fault,
        mode: "resume",
        frame,
        blocks: got.len() as u64,
        matched_reference: Some(matched),
        reconnects: client.reconnects(),
        fresh_sessions: client.fresh_sessions(),
        parked: stats.parked,
        resumed: stats.resumed,
        replayed_events: stats.replayed_events,
        shed_blocks: stats.shed_blocks,
        faults_injected: stats.faults_injected,
    }
}

/// One expire-column cell: parking disabled, streaming.  The client pulls
/// through the fault, then (if the fault alone didn't force one) a
/// reconnect is forced; either way every reconnect must land on a fresh
/// session with a rotated token, and blocks must keep flowing.
fn run_expire_cell(fault: &'static str, kind: FaultKind, frame: u64) -> Cell {
    let cat = Arc::new(ResponseCatalog::uniform(40, 4, 1_200));
    let plan = FaultPlan::new().with(0, frame, kind);
    let server = spawn_server(
        &cat,
        TransportConfig {
            max_parked_sessions: 0,
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    );

    let mut client = TransportClient::connect_resumable(server.local_addr(), policy())
        .expect("resumable connect");
    let original_token = client.token().expect("welcomed");
    client
        .send_prediction(&summary(40, &[(3, 0.7), (9, 0.25)], 0.05))
        .expect("prediction");

    let pull = |client: &mut TransportClient, want: u64| {
        let mut got = 0;
        while got < want {
            match client.recv_event_resilient().expect("resilient event") {
                ServerEvent::Block { .. } => got += 1,
                ServerEvent::Idle | ServerEvent::Resync { .. } => continue,
                other => panic!("{fault}/expire: unexpected event {other:?}"),
            }
        }
        got
    };

    // Phase 1 rides through the fault (corrupt and stall force a reconnect
    // here; a dropped streamed frame is simply absorbed).
    let mut blocks = pull(&mut client, 4);
    if client.reconnects() == 0 {
        // The fault alone left the connection standing (drop): force the
        // crash-loop reconnect the column is about.
        client.reconnect().expect("forced reconnect");
    }
    blocks += pull(&mut client, 4);
    let stats = server.stats();

    assert!(
        client.reconnects() >= 1,
        "{fault}/expire: no reconnect happened"
    );
    assert_eq!(
        client.fresh_sessions(),
        client.reconnects(),
        "{fault}/expire: every reconnect must degrade to a fresh session"
    );
    assert_ne!(
        client.token(),
        Some(original_token),
        "{fault}/expire: token must rotate on expiry"
    );
    assert_eq!(
        client.epoch(),
        0,
        "{fault}/expire: fresh sessions restart at epoch 0"
    );
    assert_eq!(stats.parked, 0, "{fault}/expire: parking is disabled");
    assert_eq!(stats.resumed, 0, "{fault}/expire: nothing may resume");
    assert_eq!(
        stats.faults_injected, 1,
        "{fault}/expire: fault did not fire"
    );
    assert_eq!(blocks, 8, "{fault}/expire: blocks stopped flowing");

    Cell {
        fault,
        mode: "expire",
        frame,
        blocks,
        matched_reference: None,
        reconnects: client.reconnects(),
        fresh_sessions: client.fresh_sessions(),
        parked: stats.parked,
        resumed: stats.resumed,
        replayed_events: stats.replayed_events,
        shed_blocks: stats.shed_blocks,
        faults_injected: stats.faults_injected,
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
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let pulls = if quick { 6 } else { 8 };
    // A stall must outlast the client's read timeout in event-loop passes;
    // the remaining freeze dies with the abandoned connection.
    let stall_ticks = if quick { 50_000 } else { 200_000 };
    // Seed-derived fault position: always a block frame inside phase 1
    // (frame 0 is the Welcome).
    let resume_frame = 2 + splitmix64(seed ^ 0xC0FF_EE00) % 3;
    let expire_frame = 2;

    let kinds: [(&'static str, FaultKind); 3] = [
        ("drop", FaultKind::Drop),
        (
            "corrupt",
            FaultKind::Corrupt {
                offset: 0,
                xor: 0xFF,
            },
        ),
        ("stall", FaultKind::Stall { ticks: stall_ticks }),
    ];

    // Uninterrupted lockstep reference for the resume column.
    let cat = Arc::new(ResponseCatalog::uniform(50, 4, 1_500));
    let s1 = summary(50, &[(7, 0.6), (11, 0.3)], 0.02);
    let s2 = summary(50, &[(7, 0.55), (11, 0.3), (13, 0.1)], 0.01);
    let s3 = summary(50, &[(13, 0.8), (11, 0.1)], 0.02);
    let phases = [&s1, &s2, &s3];
    eprintln!(
        "# reference: uninterrupted lockstep run ({} pulls x 3 phases) ...",
        pulls
    );
    let clean_server = spawn_server(
        &cat,
        TransportConfig {
            lockstep: true,
            ..TransportConfig::default()
        },
    );
    let (reference, clean_client) = lockstep_pull(&clean_server, &phases, pulls);
    assert_eq!(reference.len(), 3 * pulls, "reference run lost blocks");
    assert_eq!(clean_client.reconnects(), 0, "reference run reconnected");
    drop(clean_server);

    let mut cells: Vec<Cell> = Vec::with_capacity(kinds.len() * 2);
    for (name, kind) in kinds {
        eprintln!("# cell {name}/resume (fault at frame {resume_frame}) ...");
        cells.push(run_resume_cell(
            name,
            kind,
            resume_frame,
            &reference,
            &phases,
            pulls,
            &cat,
        ));
        eprintln!("# cell {name}/expire (fault at frame {expire_frame}) ...");
        cells.push(run_expire_cell(name, kind, expire_frame));
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"chaos\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"resume_frame\": {resume_frame},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let matched = match c.matched_reference {
            Some(m) => m.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"fault\": \"{}\", \"mode\": \"{}\", \"frame\": {}, \"blocks\": {}, \"matched_reference\": {}, \"reconnects\": {}, \"fresh_sessions\": {}, \"parked\": {}, \"resumed\": {}, \"replayed_events\": {}, \"shed_blocks\": {}, \"faults_injected\": {}}}{}",
            c.fault,
            c.mode,
            c.frame,
            c.blocks,
            matched,
            c.reconnects,
            c.fresh_sessions,
            c.parked,
            c.resumed,
            c.replayed_events,
            c.shed_blocks,
            c.faults_injected,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench JSON");

    println!("wrote {out_path}");
    for c in &cells {
        println!(
            "{:>7}/{:<6}: {} blocks, {} reconnect(s), {} fresh, parked {}, resumed {}, replayed {}",
            c.fault,
            c.mode,
            c.blocks,
            c.reconnects,
            c.fresh_sessions,
            c.parked,
            c.resumed,
            c.replayed_events
        );
    }
}
