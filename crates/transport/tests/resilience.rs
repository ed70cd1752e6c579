//! Fault-tolerance integration tests: resumable sessions over real sockets.
//!
//! Covers the resilience layer end to end (`docs/RESILIENCE.md`): a
//! mid-stream disconnect injected by a seeded [`FaultPlan`] is survived by
//! the resilient client — park, reconnect with backoff, `Resume`, replay —
//! and the delivered schedule is block-for-block identical to an
//! uninterrupted run; park-disabled servers fall back to a fresh session;
//! capacity limits refuse new sessions with a typed `Busy`; replayed
//! sequence overlap is deduplicated client-side; and on the sharded server
//! a session parked on shard *k* resumes on shard *k* (through the
//! cross-shard handoff) with its model refcount intact.

use std::io::{Read as _, Write as _};
use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::fault::{FaultKind, FaultPlan};
use khameleon_core::protocol::{ServerEvent, SessionId};
use khameleon_core::server::CatalogBackend;
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::wire::{
    decode_server_frame, encode_client_frame, encode_server_event_frame, encode_welcome,
    ClientFrame, FrameBuffer, ServerFrame,
};
use khameleon_transport::{
    ReconnectPolicy, ShardedTransportServer, TransportClient, TransportConfig, TransportError,
    TransportServer,
};

fn catalog(requests: usize, blocks: u32, block_size: u64) -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(requests, blocks, block_size))
}

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

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..2_000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

fn spawn_lockstep(cat: &Arc<ResponseCatalog>, config: TransportConfig) -> TransportServer {
    let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig {
            lockstep: true,
            ..config
        },
    )
    .expect("bind lockstep server")
}

fn fast_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        base_backoff: std::time::Duration::from_millis(2),
        max_backoff: std::time::Duration::from_millis(50),
        read_timeout: Some(std::time::Duration::from_millis(500)),
        ..ReconnectPolicy::default()
    }
}

/// Drives one resumable lockstep client through three prediction phases of
/// `pulls` credited blocks each, returning the delivered schedule tuples
/// and the client for counter inspection.
fn lockstep_pull(
    server: &TransportServer,
    phases: &[&PredictionSummary],
    pulls: usize,
) -> (Vec<(u64, u32, u32)>, TransportClient) {
    let mut client = TransportClient::connect_resumable(server.local_addr(), fast_policy())
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
                    ServerEvent::Idle => continue,
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }
    (got, client)
}

/// The acceptance test for the resilience layer: a fixed-seed lockstep run
/// with a fault-injected mid-stream disconnect delivers, after reconnect and
/// replay, exactly the blocks an uninterrupted run delivers — exactly once.
#[test]
fn injected_disconnect_resumes_and_matches_uninterrupted_run() {
    let cat = catalog(50, 4, 1_500);
    let s1 = summary(50, &[(7, 0.6), (11, 0.3)], 0.02);
    let s2 = summary(50, &[(7, 0.55), (11, 0.3), (13, 0.1)], 0.01);
    let s3 = summary(50, &[(13, 0.8), (11, 0.1)], 0.02);
    let phases = [&s1, &s2, &s3];
    let pulls = 8;

    // Uninterrupted reference over the same transport.
    let clean_server = spawn_lockstep(&cat, TransportConfig::default());
    let (reference, clean_client) = lockstep_pull(&clean_server, &phases, pulls);
    assert_eq!(reference.len(), 3 * pulls);
    assert_eq!(clean_client.reconnects(), 0);

    // Same workload, but downlink frame 3 of the first connection (frame 0
    // is the Welcome) is truncated mid-frame: the server sees a dead socket
    // and parks the session.
    let plan = FaultPlan::new().with(0, 3, FaultKind::Truncate { keep: 5 });
    let server = spawn_lockstep(
        &cat,
        TransportConfig {
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    );
    let (faulted, client) = lockstep_pull(&server, &phases, pulls);

    assert_eq!(
        faulted, reference,
        "replayed run diverged from the uninterrupted schedule"
    );
    assert_eq!(client.reconnects(), 1, "expected exactly one reconnect");
    assert_eq!(client.epoch(), 1, "resume must bump the epoch");
    assert_eq!(client.fresh_sessions(), 0, "resume must not restart fresh");
    let stats = server.stats();
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.parked, 1);
    assert_eq!(stats.resumed, 1);
    assert!(stats.replayed_events >= 1, "nothing was replayed");
    assert_eq!(stats.refused_sessions, 0);
}

/// The mid-delta disconnect regression (satellite): a fault injected between
/// O(Δ) delta uploads must leave the client's `DeltaTracker` and the
/// server's shadow summary consistent after resume — later deltas apply
/// cleanly (no `Resync`, no fresh session) and the schedule still matches
/// the uninterrupted run bit-exactly.
#[test]
fn mid_delta_disconnect_keeps_tracker_and_shadow_in_sync() {
    let cat = catalog(50, 4, 1_500);
    let s1 = summary(50, &[(7, 0.6), (11, 0.3)], 0.02);
    let s2 = summary(50, &[(7, 0.55), (11, 0.3), (13, 0.1)], 0.01);
    let s3 = summary(50, &[(13, 0.8), (11, 0.1)], 0.02);
    let phases = [&s1, &s2, &s3];
    let pulls = 8;

    let clean_server = spawn_lockstep(&cat, TransportConfig::default());
    let (reference, _) = lockstep_pull(&clean_server, &phases, pulls);

    // Phase 2's upload is a delta (max_delta_ratio 1.0 forces the path);
    // frame 12 is a block scheduled *after* that delta was applied, so the
    // disconnect lands between delta frames 2 and 3.
    let plan = FaultPlan::new().with(0, 12, FaultKind::Truncate { keep: 3 });
    let server = spawn_lockstep(
        &cat,
        TransportConfig {
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    );
    let (faulted, client) = lockstep_pull(&server, &phases, pulls);

    assert_eq!(
        faulted, reference,
        "post-resume deltas diverged from the uninterrupted schedule"
    );
    assert_eq!(client.reconnects(), 1);
    assert_eq!(
        client.resyncs_seen(),
        0,
        "a clean resume must not fall back to Resync"
    );
    assert_eq!(client.fresh_sessions(), 0);
    assert!(
        client.delta_updates() >= 2,
        "deltas did not cross the resume: {} delta updates",
        client.delta_updates()
    );
    assert_eq!(server.stats().resyncs, 0);
    assert_eq!(server.stats().resumed, 1);
}

/// With parking disabled the same injected disconnect tears the session
/// down; the client's `Resume` finds nothing and degrades cleanly to a
/// fresh session with a new token and a reset delta tracker.
#[test]
fn park_disabled_reconnect_falls_back_to_fresh_session() {
    let cat = catalog(40, 4, 1_200);
    let plan = FaultPlan::new().with(0, 2, FaultKind::Truncate { keep: 4 });
    // Streaming (non-lockstep) mode: a fresh-fallback session streams
    // against its default prediction immediately, so the client needs no
    // credits to observe the recovery.
    let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig {
            fault_plan: Some(plan),
            max_parked_sessions: 0,
            ..TransportConfig::default()
        },
    )
    .expect("bind");

    let mut client = TransportClient::connect_resumable(server.local_addr(), fast_policy())
        .expect("resumable connect")
        .with_max_delta_ratio(1.0);
    let original_token = client.token().expect("welcomed");
    client
        .send_prediction(&summary(40, &[(3, 0.7), (9, 0.25)], 0.05))
        .expect("prediction");

    // Pull through the fault; the resilient loop absorbs the reconnect.
    let mut got = 0;
    while got < 6 {
        if let ServerEvent::Block { .. } = client.recv_event_resilient().expect("event") {
            got += 1;
        }
    }

    assert_eq!(client.reconnects(), 1);
    assert_eq!(
        client.fresh_sessions(),
        1,
        "expected a fresh-session fallback"
    );
    assert_ne!(client.token(), Some(original_token), "token must rotate");
    assert_eq!(client.epoch(), 0, "fresh sessions restart at epoch 0");
    let stats = server.stats();
    assert_eq!(stats.parked, 0);
    assert_eq!(stats.resumed, 0);
    assert!(stats.disconnected >= 1);
    assert!(stats.shed_blocks >= 1, "torn-down ring frames must be shed");

    // The reset tracker recovers: the next upload is a full summary and
    // blocks keep flowing on the fresh session.
    let report = client
        .send_prediction(&summary(40, &[(5, 0.9)], 0.05))
        .expect("post-fallback prediction");
    assert!(!report.delta, "post-fallback upload must be a full summary");
    client.send_credit(1).expect("credit");
    match client.recv_event_resilient().expect("post-fallback event") {
        ServerEvent::Block { .. } => {}
        other => panic!("expected block, got {other:?}"),
    }
}

/// A streaming session emits blocks from the moment its connection is
/// accepted, `Hello` or no `Hello`.  The fault plan counts a connection's
/// frames from the peer's first frame, so however late that `Hello` arrives
/// its `Welcome` is frame 0 and gets through whole: the fault on frame 2
/// used to cut the connection among the unanswered blocks, and
/// `connect_resumable` read EOF where it expected `Welcome`.
#[test]
fn fault_plan_counts_frames_from_the_first_client_frame() {
    // More blocks than a session's ring holds: the stream never runs dry.
    let cat = catalog(600, 4, 1_200);
    let plan = FaultPlan::new().with(0, 2, FaultKind::Truncate { keep: 4 });
    let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig {
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    )
    .expect("bind");

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    // Long enough for the server to stream far past frame 2 unanswered.
    std::thread::sleep(std::time::Duration::from_millis(50));
    raw.write_all(&encode_client_frame(&ClientFrame::Hello))
        .expect("hello");
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes)
        .expect("the truncation closes the socket");

    let mut stream = FrameBuffer::new();
    stream.extend(&bytes);
    let (mut before, mut after, mut welcomed) = (0, 0, false);
    while let Some(body) = stream.next_frame().expect("well-framed") {
        match decode_server_frame(&body).expect("intact frame") {
            ServerFrame::Welcome { .. } => welcomed = true,
            ServerFrame::Event { .. } if welcomed => after += 1,
            ServerFrame::Event { .. } => before += 1,
        }
    }
    assert!(welcomed, "cut after {before} frames, before any `Welcome`");
    assert!(before > 2, "only {before} frames streamed ahead of `Hello`");
    assert_eq!(after, 1, "frames 0 and 1 are `Welcome` and one block");
    assert_eq!(
        stream.take_remaining().len(),
        4,
        "frame 2 is the truncated one"
    );
    // Counted in the pass after the one that cut the socket.
    wait_until(|| server.stats().faults_injected == 1, "the fault's count");
}

/// At `max_sessions` the server sheds load by refusing new sessions with a
/// typed `Busy` — and parked sessions still hold their slot, so a crash
/// loop cannot amplify past the cap.  A socket that connects at the cap and
/// then stays silent is refused too, once its first-frame deadline passes.
/// The slot stays the parked holder's: its own `Resume` is not refused.
#[test]
fn capacity_limit_refuses_sessions_with_typed_busy() {
    let cat = catalog(30, 4, 1_000);
    // Downlink frame 2 of the first connection (the holder's second block)
    // is truncated: the holder's socket dies and its session is parked.
    let plan = FaultPlan::new().with(0, 2, FaultKind::Truncate { keep: 4 });
    let server = spawn_lockstep(
        &cat,
        TransportConfig {
            max_sessions: 1,
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    );
    let refused =
        |why: &str| match TransportClient::connect_resumable(server.local_addr(), fast_policy()) {
            Err(TransportError::Busy) => {}
            Ok(_) => panic!("{why}"),
            Err(other) => panic!("expected Busy, got {other}"),
        };

    let mut holder = TransportClient::connect_resumable(server.local_addr(), fast_policy())
        .expect("first session");
    refused("second session admitted past the cap");
    wait_until(|| server.stats().refused_sessions == 1, "first refusal");

    // Park the holder: the slot is still occupied, so admission still fails.
    holder.send_credit(2).expect("credit");
    wait_until(|| server.stats().parked == 1, "holder parked");
    refused("parked session did not count against the cap");
    assert_eq!(server.stats().refused_sessions, 2);

    // A peer that connects at the cap and never sends a frame does not get
    // to sit on its socket: the server answers `Busy` on its own and closes.
    let mut silent = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut answer = Vec::new();
    silent
        .read_to_end(&mut answer)
        .expect("the silent socket is closed by the server");
    assert_eq!(answer, encode_server_event_frame(0, &ServerEvent::Busy));
    assert_eq!(server.stats().refused_sessions, 3);
    assert_eq!(server.stats().active, 0, "the silent connection was reaped");

    // The holder itself reconnects into the slot it never gave up, and the
    // truncated block is replayed.
    let mut blocks = 0;
    while blocks < 2 {
        if let ServerEvent::Block { .. } = holder.recv_event_resilient().expect("holder resumes") {
            blocks += 1;
        }
    }
    assert_eq!(holder.epoch(), 1, "the parked holder must resume");
    assert_eq!(holder.fresh_sessions(), 0);
    assert_eq!(server.stats().resumed, 1);
    refused("a third party got in while the holder was live again");
    assert_eq!(server.stats().refused_sessions, 4);

    // A forged `Resume` at the cap is one refusal, however many frames the
    // peer pipelined behind it.
    let mut forger = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut bytes = encode_client_frame(&ClientFrame::Resume {
        token: 0x5eed,
        last_seq: 0,
    });
    bytes.extend(encode_client_frame(&ClientFrame::Credit(3)));
    bytes.extend(encode_client_frame(&ClientFrame::Hello));
    forger.write_all(&bytes).expect("forged frames");
    wait_until(|| server.stats().frames_in >= 9, "forged frames decoded");
    assert_eq!(server.stats().refused_sessions, 5);
}

/// Session ids come from the server's one counter, which starts past the
/// sessions the manager arrived with: the first connection of a manager
/// already holding session 0 is welcomed as session 1.
#[test]
fn accepted_sessions_get_ids_past_the_managers_own() {
    let cat = catalog(30, 4, 1_000);
    let mut manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    assert_eq!(manager.add_session(builder(&cat, 4)), SessionId(0));
    let factory_cat = cat.clone();
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig::default(),
    )
    .expect("bind");
    let client = TransportClient::connect_resumable(server.local_addr(), fast_policy())
        .expect("the handshake completes");
    assert_eq!(client.session_id(), Some(SessionId(1)));
}

/// Client-side sequence dedup against a hand-rolled server that replays
/// overlapping frames: each event is delivered exactly once, in order.
#[test]
fn client_dedups_replayed_frames_by_sequence_number() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind raw listener");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .write_all(&encode_welcome(0xfeed, 0, SessionId(1)))
            .expect("welcome");
        // Replay overlap: seq 2 and 1 arrive again after being processed.
        for seq in [1u64, 2, 1, 2, 3] {
            stream
                .write_all(&encode_server_event_frame(seq, &ServerEvent::Idle))
                .expect("event frame");
        }
        // Hold the socket open until the client is done, then let EOF end us.
        let mut sink = [0u8; 64];
        use std::io::Read as _;
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });

    let mut client = TransportClient::connect_resumable(addr, ReconnectPolicy::default())
        .expect("handshake against raw server");
    assert_eq!(client.token(), Some(0xfeed));
    for expected_seq in [1u64, 2, 3] {
        match client.recv_event_resilient().expect("event") {
            ServerEvent::Idle => assert_eq!(client.last_seq(), expected_seq),
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(client.deduped_events(), 2, "overlap was not deduplicated");
    drop(client);
    handle.join().expect("raw server thread");
}

/// Sharded satellite: sessions parked on shard *k* resume on shard *k* even
/// when the reconnect socket is accepted by a different shard (the
/// cross-shard handoff), with the deduplicated model refcount intact.
#[test]
fn sharded_park_resumes_on_owning_shard_with_model_intact() {
    let cat = catalog(40, 4, 1_500);
    let manager_cat = cat.clone();
    let factory_cat = cat.clone();
    // Each shard truncates downlink frame 2 of its first (lane 0)
    // connection: both initial clients lose their socket after one block.
    let plan = FaultPlan::new().with(0, 2, FaultKind::Truncate { keep: 4 });
    let server = ShardedTransportServer::spawn(
        "127.0.0.1:0",
        2,
        move |_shard| {
            SessionManager::weighted_fair(Box::new(CatalogBackend::new(manager_cat.clone())))
        },
        move || builder(&factory_cat, 4),
        TransportConfig {
            lockstep: true,
            fault_plan: Some(plan),
            ..TransportConfig::default()
        },
    )
    .expect("bind sharded");

    let shared = summary(40, &[(3, 0.7), (9, 0.25)], 0.05);
    let pull = |client: &mut TransportClient| {
        client.send_credit(1).expect("credit");
        loop {
            match client.recv_event_resilient().expect("event") {
                ServerEvent::Block { .. } => return,
                ServerEvent::Idle => continue,
                other => panic!("unexpected event {other:?}"),
            }
        }
    };

    // Accepts 0 and 1: round-robin puts a on shard 0, b on shard 1.
    let mut a = TransportClient::connect_resumable(server.local_addr(), fast_policy())
        .expect("connect a")
        .with_max_delta_ratio(1.0);
    let mut b = TransportClient::connect_resumable(server.local_addr(), fast_policy())
        .expect("connect b")
        .with_max_delta_ratio(1.0);
    wait_until(|| server.stats().accepted == 2, "both sessions");
    let token_a = a.token().expect("a token");
    let token_b = b.token().expect("b token");
    a.send_prediction(&shared).expect("a prediction");
    b.send_prediction(&shared).expect("b prediction");
    pull(&mut a);
    pull(&mut b);

    // Accept 2 goes to shard 0, so a's reconnect (accept 3) lands on shard
    // 1 — the wrong shard — and must be handed off to shard 0, which owns
    // a's parked session.  Likewise b's reconnect (accept 4) lands on shard
    // 0 and is handed off to shard 1.
    let mut c =
        TransportClient::connect_resumable(server.local_addr(), fast_policy()).expect("connect c");
    wait_until(|| server.stats().accepted == 3, "third session");
    c.send_prediction(&shared).expect("c prediction");

    // Pre-fault baseline: three live sessions, identical predictors deduped
    // onto shared models.  Park + resume must leave this count untouched.
    wait_until(
        || {
            let s = server.shard_stats();
            s.totals.sessions == 3 && s.live_models < 3
        },
        "pre-fault model dedup across three sessions",
    );
    let models_before = server.shard_stats().live_models;

    // The next pull on each faulted client crosses the injected disconnect:
    // reconnect, cross-shard handoff, resume, replay.
    pull(&mut a);
    pull(&mut b);
    pull(&mut a);
    pull(&mut b);

    assert_eq!(a.reconnects(), 1);
    assert_eq!(b.reconnects(), 1);
    assert_eq!(a.epoch(), 1, "a must resume, not restart");
    assert_eq!(b.epoch(), 1, "b must resume, not restart");
    assert_eq!(
        a.token(),
        Some(token_a),
        "a's token must survive the resume"
    );
    assert_eq!(
        b.token(),
        Some(token_b),
        "b's token must survive the resume"
    );
    assert_eq!(a.fresh_sessions() + b.fresh_sessions(), 0);

    let stats = server.stats();
    assert_eq!(stats.parked, 2);
    assert_eq!(stats.resumed, 2);
    assert_eq!(stats.faults_injected, 2);

    // Model refcounts survived park + cross-shard resume: still three live
    // sessions, still owned by their original shards, and exactly as many
    // distinct models as before the faults — parking held the refcounts, and
    // no duplicate per-session model was built on resume.
    wait_until(
        || {
            let s = server.shard_stats();
            s.totals.sessions == 3 && s.live_models == models_before
        },
        "post-resume sessions and model refcounts",
    );
    let shard_stats = server.shard_stats();
    assert_eq!(shard_stats.per_shard.len(), 2);
    assert_eq!(shard_stats.per_shard[0].sessions, 2, "shard 0 owns a and c");
    assert_eq!(shard_stats.per_shard[1].sessions, 1, "shard 1 owns b");
    assert!(
        shard_stats.live_models < shard_stats.totals.sessions,
        "identical predictors no longer share models after park/resume: {} models for {} sessions",
        shard_stats.live_models,
        shard_stats.totals.sessions
    );
    drop(c);
}
