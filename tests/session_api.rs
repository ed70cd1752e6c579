//! Integration tests for the session-oriented server API: scheduler-trait
//! parity, the sender queue under re-predictions, and multi-session
//! fairness.

use std::sync::Arc;

use khameleon::core::block::{Block, ResponseCatalog};
use khameleon::core::distribution::PredictionSummary;
use khameleon::core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon::core::scheduler::{GreedyScheduler, GreedySchedulerConfig, Scheduler};
use khameleon::core::server::{CatalogBackend, ServerBuilder, ServerConfig};
use khameleon::core::session::{Session, SessionManager};
use khameleon::core::types::{Bandwidth, RequestId, Time};
use khameleon::core::utility::{LinearUtility, UtilityModel};

fn catalog(n: usize, blocks: u32) -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(n, blocks, 10_000))
}

/// The id `ServerBuilder::build` gives its one session.
const CLIENT: SessionId = SessionId(0);

/// The next block a `ServerBuilder`-built server puts on the wire, if any.
fn next_block(server: &mut SessionManager, now: Time) -> Option<Block> {
    match server.next_event(now) {
        ServerEvent::Block { block, .. } => Some(block),
        _ => None,
    }
}

fn greedy(n: usize, blocks: u32, cache: usize, seed: u64) -> GreedyScheduler {
    GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: cache,
            seed,
            ..Default::default()
        },
        UtilityModel::homogeneous(&LinearUtility, blocks),
        catalog(n, blocks),
    )
}

/// The tentpole parity guarantee: driving a `GreedyScheduler` through
/// `Box<dyn Scheduler>` produces byte-identical schedules to calling the
/// concrete type directly (the seed's direct-field path), across prediction
/// updates, partial batches, and draws past the horizon: a batch of the
/// trait's is one refill of `count` blocks, handed out one by one.
#[test]
fn boxed_greedy_schedules_identically_to_direct_calls() {
    let mut direct = greedy(200, 6, 64, 42);
    let mut boxed: Box<dyn Scheduler> = Box::new(greedy(200, 6, 64, 42));
    let batch_of = |s: &mut Box<dyn Scheduler>, count| {
        (0..count)
            .map_while(|_| s.next_block(count, None))
            .collect::<Vec<_>>()
    };

    // Phase 1: uniform prior, a full batch.
    let batch = direct.next_batch(32);
    assert_eq!(batch, batch_of(&mut boxed, 32));

    // Phase 2: a concentrated prediction arrives mid-schedule, after the
    // sender put 20 of the 32 blocks on the wire.
    for &b in &batch[..20] {
        direct.note_sent(b);
        boxed.note_sent(b);
    }
    let pred = PredictionSummary::point(200, RequestId(17), Time::ZERO);
    direct.update_prediction(&pred, 0);
    boxed.update_prediction(&pred);
    assert_eq!(direct.next_batch(50), batch_of(&mut boxed, 50));

    // Phase 3: slot duration changes and draws run past the horizon.
    use khameleon::core::types::Duration;
    direct.set_slot_duration(Duration::from_millis(4));
    boxed.set_slot_duration(Duration::from_millis(4));
    let uniform = PredictionSummary::uniform(200, Time::from_millis(100));
    direct.update_prediction(&uniform, 0);
    boxed.update_prediction(&uniform);
    assert_eq!(direct.next_batch(100), batch_of(&mut boxed, 100));

    // The simulated caches agree exactly as well.
    assert_eq!(direct.simulated_cache(), boxed.simulated_cache());
}

fn predict(server: &mut SessionManager, request: u32, now: Time) {
    let state = khameleon::core::predictor::PredictorState::LastRequest(RequestId(request));
    server.on_message(CLIENT, &ClientMessage::Predictor(state), now);
}

/// Regression: a re-prediction must not lose the blocks that were queued in
/// the sender but never sent.  The scheduler's log is the sender queue; an
/// update must roll its unsent blocks back and re-plan them rather than
/// treat them as delivered.
#[test]
fn a_re_prediction_replans_queued_but_unsent_blocks() {
    let mut server =
        ServerBuilder::new(UtilityModel::homogeneous(&LinearUtility, 3), catalog(4, 3)).build();

    // Prime the schedule and let exactly one block of request 0 go out;
    // the rest of the refill sits in the sender queue.
    predict(&mut server, 0, Time::ZERO);
    let first = next_block(&mut server, Time::ZERO).expect("first block");
    assert_eq!(first.meta.block.request, RequestId(0));

    // A new prediction arrives: the queued-but-unsent blocks roll back, and
    // the scheduler's view of the client holds the one block sent.
    predict(&mut server, 3, Time::from_millis(10));
    let simulated = server.session(CLIENT).unwrap().simulated_cache();
    assert_eq!(
        simulated,
        [(RequestId(0), 1)].into_iter().collect(),
        "unsent blocks counted as delivered"
    );
    let mut delivered = std::collections::HashSet::from([first.meta.block]);
    while let Some(b) = next_block(&mut server, Time::from_millis(10)) {
        assert!(delivered.insert(b.meta.block), "duplicate {b:?}");
        assert!(delivered.len() <= 64, "runaway stream");
    }
    // Request 0's rolled-back blocks are sent once it is predicted again.
    predict(&mut server, 0, Time::from_millis(20));
    let next = next_block(&mut server, Time::from_millis(20)).expect("a block");
    assert_eq!(
        next.meta.block,
        khameleon::core::types::BlockRef::new(RequestId(0), 1)
    );
}

/// Regression: draining exactly one refill of the sender queue between
/// prediction updates must not make the scheduler re-send anything: the
/// scheduler counts confirmations, not the sender's position.
#[test]
fn a_full_drain_between_updates_resends_nothing() {
    let depth = ServerConfig::default().sender_queue_target;
    let mut server =
        ServerBuilder::new(UtilityModel::homogeneous(&LinearUtility, 8), catalog(4, 8)).build();

    predict(&mut server, 1, Time::ZERO);
    // Drain exactly one refill (all of request 1).
    let mut sent = std::collections::HashSet::new();
    for _ in 0..depth {
        let b = next_block(&mut server, Time::ZERO).expect("schedule block");
        sent.insert(b.meta.block);
    }
    assert_eq!(sent.len(), depth);

    // Same prediction again after the drain: the already-sent blocks must
    // NOT be re-sent.
    predict(&mut server, 1, Time::from_millis(10));
    let mut extra = 0;
    while let Some(b) = next_block(&mut server, Time::from_millis(10)) {
        assert!(
            sent.insert(b.meta.block),
            "already-sent block {b:?} re-sent after the drain"
        );
        extra += 1;
        assert!(extra <= 64, "runaway stream");
    }
}

/// Which session (by index into `weights`) each of the first `steps` blocks
/// went to, from sessions that never run out of work.
fn fairness_run(weights: &[f64], steps: usize) -> Vec<usize> {
    let n = 100;
    let blocks = 10u32;
    let cat = catalog(n, blocks);
    let utility = UtilityModel::homogeneous(&LinearUtility, blocks);
    let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
    let ids: Vec<_> = weights
        .iter()
        .map(|&w| {
            mgr.add_session(
                Session::builder(utility.clone(), cat.clone())
                    .config(ServerConfig {
                        scheduler: GreedySchedulerConfig {
                            cache_blocks: n * blocks as usize,
                            ..Default::default()
                        },
                        ..Default::default()
                    })
                    .weight(w),
            )
        })
        .collect();
    (0..steps)
        .map(|step| match mgr.next_event(Time::ZERO) {
            ServerEvent::Block { session, .. } => ids.iter().position(|&id| id == session).unwrap(),
            other => panic!("block {step}: every session had work, got {other:?}"),
        })
        .collect()
}

/// Uniform-demand sessions of equal weight are served in ascending-id
/// rotation, 0, 1, 2, 0, 1, 2, …: an exact even split of the wire.
#[test]
fn round_robin_fairness_end_to_end() {
    let order = fairness_run(&[1.0, 1.0, 1.0], 600);
    for (step, &served) in order.iter().enumerate() {
        assert_eq!(served, step % 3, "block {step} left the rotation");
    }
}

/// Weighted-fair with a 2:1 weight ratio yields a 2:1 block split.
#[test]
fn weighted_fair_two_to_one_split() {
    let mut counts = [0usize; 2];
    for served in fairness_run(&[2.0, 1.0], 600) {
        counts[served] += 1;
    }
    let ratio = counts[0] as f64 / counts[1] as f64;
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "expected a 2:1 split, got {}:{} (ratio {ratio:.3})",
        counts[0],
        counts[1]
    );
}

/// Sessions come and go dynamically; the shared budget is re-divided and
/// low rate reports from every session slow the shared pacing for everyone.
#[test]
fn sessions_join_leave_and_share_bandwidth() {
    let cat = catalog(40, 4);
    let utility = UtilityModel::homogeneous(&LinearUtility, 4);
    let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())))
        .with_bandwidth_cap(Bandwidth::from_mbps(8.0));
    let a = mgr.add_session(Session::builder(utility.clone(), cat.clone()));
    assert_eq!(mgr.num_sessions(), 1);
    let pacing_one = mgr.pacing_interval();

    let b = mgr.add_session(Session::builder(utility, cat));
    assert_eq!(mgr.num_sessions(), 2);

    // Both sessions get served.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..6 {
        if let ServerEvent::Block { session, .. } = mgr.next_event(Time::ZERO) {
            seen.insert(session);
        }
    }
    assert!(seen.contains(&a) && seen.contains(&b));

    // Slow rate reports from both clients throttle the shared estimate (the
    // total is the sum of per-session observed rates, so one client's low
    // share alone says little about the wire).
    for &id in &[a, b] {
        mgr.on_message(
            id,
            &ClientMessage::RateReport(Bandwidth::from_mbps(0.25)),
            Time::ZERO,
        );
    }
    assert!(mgr.pacing_interval() > pacing_one);

    // Closing a session stops its stream but not the other's.
    let closed = mgr.on_message(b, &ClientMessage::Close, Time::ZERO);
    assert_eq!(closed, Some(ServerEvent::Closed { session: b }));
    assert_eq!(mgr.num_sessions(), 1);
    match mgr.next_event(Time::ZERO) {
        ServerEvent::Block { session, .. } => assert_eq!(session, a),
        other => panic!("surviving session should still stream, got {other:?}"),
    }
}
