//! Coverage for the session/shard public surface flagged by the
//! `untested-pub-fn` dataflow rule (analysis v2): the prediction delta and
//! resync paths, the builder/budget knobs, stats absorption and merging,
//! and the sharded-manager configuration surface.

use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::{PredictionDelta, SliceDelta};
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::scheduler::{GreedySchedulerConfig, ModelCache};
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{MessageOutcome, Session, SessionBuilder, SessionManager};
use khameleon_core::shard::{ShardSnapshot, ShardStats, ShardedSessionManager};
use khameleon_core::types::{Bandwidth, Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};

fn catalog(n: usize, blocks: u32) -> Arc<ResponseCatalog> {
    Arc::new(ResponseCatalog::uniform(n, blocks, 10_000))
}

fn utility(blocks: u32) -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, blocks)
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

fn builder(n: usize, blocks: u32) -> SessionBuilder {
    Session::builder(utility(blocks), catalog(n, blocks)).config(ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks: (n * blocks as usize).max(64),
            ..Default::default()
        },
        ..Default::default()
    })
}

/// A delta whose every slice is untouched: generation bookkeeping only.
fn empty_delta(base: u64, next: u64, slices: usize) -> PredictionDelta {
    PredictionDelta {
        base_generation: base,
        generation: next,
        generated_at: Time::ZERO,
        slices: vec![SliceDelta::default(); slices],
    }
}

#[test]
fn predictor_full_delta_and_resync_paths() {
    let n = 40;
    let mut sess = builder(n, 4).build();
    let s = summary(n, &[(3, 0.6), (9, 0.3)], 0.05);

    sess.on_predictor_full(1, &s);
    assert!(
        sess.sampler_entries() > 0,
        "an installed prediction must populate the sampler"
    );

    // A delta off the installed generation applies and advances the shadow.
    let outcome = sess.on_predictor_delta(&empty_delta(1, 2, s.slices().len()));
    assert!(matches!(outcome, MessageOutcome::Handled));
    assert_eq!(sess.resync_requests(), 0);

    // A delta off an unknown base must be refused and counted.
    let outcome = sess.on_predictor_delta(&empty_delta(99, 100, s.slices().len()));
    assert!(matches!(outcome, MessageOutcome::NeedsResync));
    assert_eq!(sess.resync_requests(), 1);
    let outcome = sess.on_predictor_delta(&empty_delta(2, 3, s.slices().len()));
    assert!(
        matches!(outcome, MessageOutcome::Handled),
        "a refused delta must not move the shadow"
    );

    // Slot recalibration clears exhaustion and the session keeps serving.
    sess.set_slot_duration(Duration::from_millis(7));
    assert!(sess.next_block_ref(None).is_some());
    sess.on_message(&ClientMessage::Close, Time::ZERO);
    assert!(
        sess.next_block_ref(None).is_none(),
        "a closed session serves nothing"
    );
}

#[test]
fn session_builder_knobs_feed_the_built_session() {
    let n = 30;
    let cat = catalog(n, 4);
    let util = utility(4);
    let sess = Session::builder(util, cat)
        .config(ServerConfig {
            bandwidth_cap: Some(Bandwidth::from_mbps(4.0)),
            initial_bandwidth: Bandwidth::from_mbps(2.0),
            ..Default::default()
        })
        .build();
    // The cap binds the estimate from below the seed.
    assert!(sess.bandwidth_estimate().0 <= Bandwidth::from_mbps(4.0).0);
    assert!(sess.bandwidth_estimate().0 > 0.0);
}

#[test]
fn manager_budget_routing_and_identity_surface() {
    let n = 30;
    let cat = catalog(n, 4);
    let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat)))
        .with_bandwidth_cap(Bandwidth::from_mbps(16.0));

    // Explicit-id admission is what the transport resume path uses.
    let id = mgr.add_session_with_id(SessionId(42), builder(n, 4));
    assert_eq!(id, SessionId(42));
    assert_eq!(mgr.session_ids(), vec![SessionId(42)]);

    // The shared model cache can be swapped in after construction.
    let cache = ModelCache::new();
    mgr.set_model_cache(cache.clone());
    assert!(Arc::ptr_eq(mgr.model_cache(), &cache));

    // A pushed shared budget (the sharded coordinator's protocol).
    mgr.set_shared_budget(Bandwidth::from_mbps(8.0), 1.0);

    let s = summary(n, &[(5, 0.7)], 0.1);
    mgr.on_message(
        SessionId(42),
        &ClientMessage::PredictorFull {
            generation: 1,
            summary: s,
        },
        Time::ZERO,
    );
    // Eligibility-restricted arbitration: only the named session may serve.
    match mgr.next_event_among(Time::ZERO, &[SessionId(42)]) {
        ServerEvent::Block { session, .. } => assert_eq!(session, SessionId(42)),
        other => panic!("expected a block, got {other:?}"),
    }
    assert!(matches!(
        mgr.next_event_among(Time::ZERO, &[]),
        ServerEvent::Idle
    ));

    assert!(mgr.session(SessionId(42)).expect("live").blocks_sent() >= 1);
    assert_eq!(mgr.check(), Ok(()));
}

#[test]
fn shard_snapshot_absorb_and_stats_merge_cover_every_counter() {
    let mut a = ShardSnapshot {
        sessions: 1,
        blocks_sent: 10,
        bytes_sent: 1_000,
        prediction_updates: 3,
        diff_applied_updates: 2,
        sampler_entries: 5,
        resync_requests: 1,
        delta_updates: 2,
        shared_context_count: 1,
        audit_violations: 7,
    };
    let b = a.clone();
    a.absorb(&b);
    assert_eq!(a.sessions, 2);
    assert_eq!(a.blocks_sent, 20);
    assert_eq!(a.bytes_sent, 2_000);
    assert_eq!(a.prediction_updates, 6);
    assert_eq!(a.diff_applied_updates, 4);
    assert_eq!(a.sampler_entries, 10);
    assert_eq!(a.resync_requests, 2);
    assert_eq!(a.delta_updates, 4);
    assert_eq!(a.shared_context_count, 2);
    assert_eq!(a.audit_violations, 14);

    let merged = ShardStats::merge(vec![b.clone(), b.clone(), ShardSnapshot::default()], 3);
    assert_eq!(merged.shards, 3);
    assert_eq!(merged.live_models, 3);
    assert_eq!(merged.totals.blocks_sent, 20);
    assert_eq!(merged.per_shard.len(), 3);
    assert_eq!(merged.per_shard[2], ShardSnapshot::default());
}

#[test]
fn sharded_manager_builder_knobs_apply_before_serving() {
    let n = 30;
    let cat = catalog(n, 4);
    let factory_cat = cat.clone();
    // The factory's cap is the fleet's: the coordinator adopts it.
    let mut mgr = ShardedSessionManager::spawn(2, move |_shard| {
        SessionManager::weighted_fair(Box::new(CatalogBackend::new(factory_cat.clone())))
            .with_bandwidth_cap(Bandwidth::from_mbps(12.0))
    });

    let ids: Vec<SessionId> = (0..2).map(|_| mgr.add_session(builder(n, 4))).collect();
    let s = summary(n, &[(5, 0.7)], 0.1);
    for &id in &ids {
        mgr.on_message(
            id,
            &ClientMessage::PredictorFull {
                generation: 1,
                summary: s.clone(),
            },
            Time::ZERO,
        );
    }
    let events = mgr.pump_until_idle(Time::ZERO, 8);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ServerEvent::Block { .. })),
        "capped sharded manager still serves"
    );

    // The coordinator's shared dedup cache is observable and in use: two
    // identical predictors collapse to one live model.
    assert_eq!(mgr.model_cache().live_models(), mgr.live_models());
    assert_eq!(mgr.live_models(), 1);

    let stats = mgr.stats();
    assert_eq!(stats.shards, 2);
    assert!(stats.totals.blocks_sent > 0);
}
