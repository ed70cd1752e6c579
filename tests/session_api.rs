//! Integration tests for the session-oriented server API: scheduler-trait
//! parity, `ServerBuilder` defaults, and multi-session fairness.

use std::collections::HashMap;
use std::sync::Arc;

use khameleon::core::block::{Block, ResponseCatalog};
use khameleon::core::distribution::PredictionSummary;
use khameleon::core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon::core::scheduler::{
    GreedyScheduler, GreedySchedulerConfig, OptimalScheduler, Scheduler,
};
use khameleon::core::server::{CatalogBackend, ServerBuilder, ServerConfig};
use khameleon::core::session::{Session, SessionManager};
use khameleon::core::types::{Bandwidth, RequestId, Time};
use khameleon::core::utility::{LinearUtility, PowerUtility, UtilityModel};

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
/// updates, partial batches, and schedule wraps.
#[test]
fn boxed_greedy_schedules_identically_to_direct_calls() {
    let mut direct = greedy(200, 6, 64, 42);
    let mut boxed: Box<dyn Scheduler> = Box::new(greedy(200, 6, 64, 42));

    // Phase 1: uniform prior, a full batch.
    let batch = direct.next_batch(32);
    assert_eq!(batch, boxed.next_batch(32));

    // Phase 2: a concentrated prediction arrives mid-schedule, after the
    // sender put 20 of the 32 blocks on the wire.
    for &b in &batch[..20] {
        direct.note_sent(b);
        boxed.note_sent(b);
    }
    let pred = PredictionSummary::point(200, RequestId(17), Time::ZERO);
    direct.update_prediction(&pred, 0);
    boxed.update_prediction(&pred);
    assert_eq!(direct.next_batch(50), boxed.next_batch(50));

    // Phase 3: slot duration changes and the schedule wraps.
    use khameleon::core::types::Duration;
    direct.set_slot_duration(Duration::from_millis(4));
    boxed.set_slot_duration(Duration::from_millis(4));
    let uniform = PredictionSummary::uniform(200, Time::from_millis(100));
    direct.update_prediction(&uniform, 0);
    boxed.update_prediction(&uniform);
    assert_eq!(direct.next_batch(100), boxed.next_batch(100));

    // The simulated caches agree exactly as well.
    assert_eq!(direct.simulated_cache(), boxed.simulated_cache());
    let empty = HashMap::new();
    let du = direct.expected_utility(&empty);
    let bu = boxed.expected_utility(&empty);
    assert!(
        (du - bu).abs() < 1e-12,
        "expected utility diverged: {du} vs {bu}"
    );
}

/// A server assembled by `ServerBuilder` with an explicit boxed greedy
/// scheduler streams the same blocks as one using the builder's default.
#[test]
fn builder_with_boxed_scheduler_matches_default_server() {
    let n = 80;
    let blocks = 5u32;
    let cat = catalog(n, blocks);
    let utility = UtilityModel::homogeneous(&LinearUtility, blocks);
    let cfg = ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks: 48,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut default_server = ServerBuilder::new(utility.clone(), cat.clone())
        .config(cfg.clone())
        .build();
    // The explicit scheduler mirrors what the builder would construct,
    // including the bandwidth-derived slot duration (applied by the builder).
    let explicit = GreedyScheduler::new(cfg.scheduler.clone(), utility.clone(), cat.clone());
    let mut explicit_server = ServerBuilder::new(utility, cat)
        .config(cfg)
        .scheduler(Box::new(explicit))
        .build();

    let msg = ClientMessage::Predictor(khameleon::core::predictor::PredictorState::LastRequest(
        RequestId(5),
    ));
    default_server.on_message(CLIENT, &msg, Time::ZERO);
    explicit_server.on_message(CLIENT, &msg, Time::ZERO);

    for _ in 0..40 {
        let a = next_block(&mut default_server, Time::ZERO).map(|b| b.meta.block);
        let b = next_block(&mut explicit_server, Time::ZERO).map(|b| b.meta.block);
        assert_eq!(a, b, "streams diverged");
    }
}

/// The optimal scheduler slots into the same server plumbing.
#[test]
fn optimal_scheduler_drives_a_server() {
    let n = 6;
    let blocks = 3u32;
    let cat = catalog(n, blocks);
    let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
    let mut server = ServerBuilder::new(utility.clone(), cat.clone())
        .scheduler(Box::new(
            OptimalScheduler::new(utility, cat).with_horizon(12),
        ))
        .build();
    assert_eq!(server.session(CLIENT).unwrap().scheduler_name(), "optimal");
    server.on_message(
        CLIENT,
        &ClientMessage::Predictor(khameleon::core::predictor::PredictorState::LastRequest(
            RequestId(2),
        )),
        Time::ZERO,
    );
    let first = next_block(&mut server, Time::ZERO).expect("a block");
    assert_eq!(first.meta.block.request, RequestId(2));
    assert_eq!(first.meta.block.index, 0);
    // The exact solver schedules the certain request's full prefix first.
    let second = next_block(&mut server, Time::ZERO).expect("a second block");
    assert_eq!(
        second.meta.block,
        khameleon::core::types::BlockRef::new(RequestId(2), 1)
    );
}

/// Regression: a re-prediction must not lose the blocks that were queued in
/// the sender but never sent.  The session discards its queue when a
/// prediction arrives; the exact schedulers must roll those blocks back and
/// re-plan them rather than treating them as delivered.
#[test]
fn optimal_scheduler_replans_queued_but_unsent_blocks() {
    let n = 4;
    let blocks = 3u32;
    let cat = catalog(n, blocks);
    let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
    let mut server = ServerBuilder::new(utility.clone(), cat.clone())
        .scheduler(Box::new(
            OptimalScheduler::new(utility, cat).with_horizon(12),
        ))
        .build();

    // Prime the schedule and let exactly one block (of request 0's plan) go
    // out; the rest of the 12-block plan sits in the sender queue.
    server.on_message(
        CLIENT,
        &ClientMessage::Predictor(khameleon::core::predictor::PredictorState::LastRequest(
            RequestId(0),
        )),
        Time::ZERO,
    );
    let first = next_block(&mut server, Time::ZERO).expect("first block");
    assert_eq!(first.meta.block.request, RequestId(0));

    // A new prediction arrives: the queued-but-unsent blocks are discarded
    // by the session and must be re-planned, not considered delivered.
    server.on_message(
        CLIENT,
        &ClientMessage::Predictor(khameleon::core::predictor::PredictorState::LastRequest(
            RequestId(3),
        )),
        Time::from_millis(10),
    );
    let mut delivered = std::collections::HashSet::new();
    delivered.insert(first.meta.block);
    while let Some(b) = next_block(&mut server, Time::from_millis(10)) {
        assert!(delivered.insert(b.meta.block), "duplicate {b:?}");
        if delivered.len() > 64 {
            panic!("runaway stream");
        }
    }
    // Every block of the tiny catalog is deliverable: nothing was lost to
    // the discarded queue (12 = n * blocks).
    assert_eq!(
        delivered.len(),
        n * blocks as usize,
        "blocks lost after re-prediction: got {delivered:?}"
    );
}

/// Regression: draining exactly one full schedule between prediction updates
/// must not make the exact scheduler re-send everything.  The sender's
/// schedule position wraps to 0 after `horizon` sends, which is
/// indistinguishable from "nothing sent"; the scheduler must rely on
/// `note_sent` confirmations instead.
#[test]
fn optimal_scheduler_survives_full_schedule_drain_between_updates() {
    let n = 4;
    let blocks = 8u32;
    let horizon = 8;
    let cat = catalog(n, blocks);
    let utility = UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks);
    let mut server = ServerBuilder::new(utility.clone(), cat.clone())
        .scheduler(Box::new(
            OptimalScheduler::new(utility, cat).with_horizon(horizon),
        ))
        .build();

    server.on_message(
        CLIENT,
        &ClientMessage::Predictor(khameleon::core::predictor::PredictorState::LastRequest(
            RequestId(1),
        )),
        Time::ZERO,
    );
    // Drain exactly one full schedule (8 blocks, all of request 1).
    let mut sent = std::collections::HashSet::new();
    for _ in 0..horizon {
        let b = next_block(&mut server, Time::ZERO).expect("schedule block");
        sent.insert(b.meta.block);
    }
    assert_eq!(sent.len(), horizon);

    // Same prediction again after the wrap: nothing new to say, so the
    // already-sent blocks must NOT be re-sent.
    server.on_message(
        CLIENT,
        &ClientMessage::Predictor(khameleon::core::predictor::PredictorState::LastRequest(
            RequestId(1),
        )),
        Time::from_millis(10),
    );
    let mut extra = 0;
    while let Some(b) = next_block(&mut server, Time::from_millis(10)) {
        assert!(
            sent.insert(b.meta.block),
            "already-sent block {b:?} re-sent after schedule drain"
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
