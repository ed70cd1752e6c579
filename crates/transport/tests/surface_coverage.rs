//! Coverage for the transport public surface flagged by the
//! `untested-pub-fn` dataflow rule (analysis v2): reconnect backoff shape,
//! explicit client reconnects, uplink accounting, frame-buffer handoff
//! draining, server shutdown/model-cache observability, and the one
//! `ServerStats::merge`.

use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::ServerEvent;
use khameleon_core::server::CatalogBackend;
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::wire::FrameBuffer;
use khameleon_transport::{
    ReconnectPolicy, ServerStats, ShardedTransportServer, TransportClient, TransportConfig,
    TransportServer,
};

fn catalog(requests: usize, blocks: u32) -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(requests, blocks, 1_500))
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

fn spawn_lockstep(cat: &Arc<ResponseCatalog>) -> TransportServer {
    let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let factory_cat = cat.clone();
    TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || builder(&factory_cat, 4),
        TransportConfig {
            lockstep: true,
            ..TransportConfig::default()
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

#[test]
fn backoff_schedule_is_exponential_jittered_and_capped() {
    let policy = ReconnectPolicy::default();
    let base = policy.base_backoff.as_micros() as u64;
    let max = policy.max_backoff.as_micros() as u64;
    let mut prev_floor = 0u64;
    for attempt in 0..12 {
        let d = policy.backoff(attempt).as_micros() as u64;
        // Floor doubles per attempt until the cap; jitter adds at most 50%.
        let floor = base.saturating_mul(1 << attempt.min(20)).min(max);
        assert!(d >= floor, "attempt {attempt}: {d} below floor {floor}");
        assert!(d <= max + max / 2, "attempt {attempt}: {d} above cap");
        assert!(floor >= prev_floor, "backoff floor must be monotone");
        prev_floor = floor;
    }
    // Deterministic: same seed, same schedule.
    assert_eq!(policy.backoff(3), policy.backoff(3));
}

#[test]
fn frame_buffer_take_remaining_hands_off_partial_frames_losslessly() {
    // One complete frame followed by a partial one, as a mid-read handoff
    // would leave the buffer.
    let mut buf = FrameBuffer::new();
    let frame = [3u8, 0, 0, 0, 0xAA, 0xBB, 0xCC];
    let partial = [9u8, 0, 0, 0, 0x01, 0x02];
    buf.extend(&frame);
    buf.extend(&partial);
    assert_eq!(
        buf.next_frame().expect("wire ok"),
        Some(vec![0xAA, 0xBB, 0xCC])
    );
    // The drained remainder is exactly the unconsumed bytes; the buffer is
    // left empty, ready to be dropped with its connection.
    let rest = buf.take_remaining();
    assert_eq!(rest, partial);
    assert!(buf.take_remaining().is_empty());
    assert_eq!(buf.next_frame().expect("wire ok"), None);

    // Seeding a fresh buffer with the remainder resumes the stream.
    let mut handed = FrameBuffer::new();
    handed.extend(&rest);
    handed.extend(&[0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
    assert_eq!(
        handed.next_frame().expect("wire ok"),
        Some(vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09])
    );
}

#[test]
fn client_accounting_explicit_reconnect_and_server_shutdown() {
    let cat = catalog(40, 4);
    let mut server = spawn_lockstep(&cat);
    let mut client = TransportClient::connect_resumable(server.local_addr(), fast_policy())
        .expect("resumable connect")
        .with_rate_reports(Duration::from_millis(10))
        .with_max_delta_ratio(1.0);

    // The welcome grants an identity before any traffic flows.
    let first_session = client.session_id().expect("welcomed session id");
    assert!(client.uplink_bytes() > 0, "the Hello is uplink traffic");

    let s = summary(40, &[(3, 0.7), (9, 0.25)], 0.05);
    client.send_prediction(&s).expect("prediction");
    assert_eq!(client.full_updates(), 1);
    let bytes_after_full = client.uplink_bytes();
    assert!(bytes_after_full > 0);

    client.send_credit(1).expect("credit");
    loop {
        match client.recv_event_resilient().expect("event") {
            ServerEvent::Block { .. } => break,
            ServerEvent::Idle => continue,
            other => panic!("unexpected event {other:?}"),
        }
    }

    // An explicit reconnect (the path the resilient receive loop takes on a
    // dead socket) resumes the same session under a bumped epoch.
    client.reconnect().expect("explicit reconnect");
    assert_eq!(client.session_id(), Some(first_session));
    assert_eq!(client.epoch(), 1);
    assert!(
        client.uplink_bytes() > bytes_after_full,
        "the resume handshake is accounted"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn sharded_server_exposes_model_cache_and_shuts_down() {
    let cat = catalog(40, 4);
    let manager_cat = cat.clone();
    let factory_cat = cat.clone();
    let mut server = ShardedTransportServer::spawn(
        "127.0.0.1:0",
        2,
        move |_shard| {
            SessionManager::weighted_fair(Box::new(CatalogBackend::new(manager_cat.clone())))
        },
        move || builder(&factory_cat, 4),
        TransportConfig {
            lockstep: true,
            ..TransportConfig::default()
        },
    )
    .expect("bind sharded");

    let s = summary(40, &[(3, 0.7), (9, 0.25)], 0.05);
    let mut clients: Vec<TransportClient> = (0..2)
        .map(|_| {
            let mut c = TransportClient::connect(server.local_addr()).expect("connect");
            c.send_prediction(&s).expect("prediction");
            c.send_credit(1).expect("credit");
            loop {
                match c.recv_event().expect("event") {
                    ServerEvent::Block { .. } => break,
                    ServerEvent::Idle => continue,
                    other => panic!("unexpected event {other:?}"),
                }
            }
            c
        })
        .collect();

    // Identical predictors dedup to one live model across both shards, and
    // the coordinator's cache is directly observable.
    assert_eq!(server.model_cache().live_models(), 1);

    clients.clear();
    server.shutdown();
}

/// `ServerStats::merge`, field by field: every counter is summed and the
/// queue high-water mark is the larger of the two.
#[test]
fn server_stats_merge_covers_every_counter() {
    let a = ServerStats {
        accepted: 1,
        disconnected: 2,
        active: 3,
        frames_in: 4,
        frames_out: 5,
        blocks_sent: 6,
        resyncs: 7,
        backpressure_skips: 8,
        peak_queue_frames: 9,
        decode_errors: 10,
        parked: 11,
        resumed: 12,
        replayed_events: 13,
        shed_blocks: 14,
        refused_sessions: 15,
        faults_injected: 16,
        loop_passes: 17,
        timer_wakeups: 18,
    };
    let mut total = ServerStats {
        peak_queue_frames: 40,
        ..a.clone()
    };
    total.merge(&a);
    assert_eq!(total.accepted, 2);
    assert_eq!(total.disconnected, 4);
    assert_eq!(total.active, 6);
    assert_eq!(total.frames_in, 8);
    assert_eq!(total.frames_out, 10);
    assert_eq!(total.blocks_sent, 12);
    assert_eq!(total.resyncs, 14);
    assert_eq!(total.backpressure_skips, 16);
    assert_eq!(
        total.peak_queue_frames, 40,
        "a high-water mark: max, not sum"
    );
    assert_eq!(total.decode_errors, 20);
    assert_eq!(total.parked, 22);
    assert_eq!(total.resumed, 24);
    assert_eq!(total.replayed_events, 26);
    assert_eq!(total.shed_blocks, 28);
    assert_eq!(total.refused_sessions, 30);
    assert_eq!(total.faults_injected, 32);
    assert_eq!(total.loop_passes, 34);
    assert_eq!(total.timer_wakeups, 36);

    let mut fresh = ServerStats::default();
    fresh.merge(&a);
    assert_eq!(fresh.peak_queue_frames, 9);
    assert_eq!(fresh.timer_wakeups, 18);
}
