//! Multi-session fleet runs: the session-scale experiment path.
//!
//! The single-client simulators ([`crate::khameleon_sim`],
//! [`crate::baseline_sim`]) reproduce the paper's per-user quality/latency
//! claims; this module drives the *server* at fleet scale instead.  A fleet
//! run stands up [`ExperimentConfig::shards`] session-layer worker threads
//! (a [`ShardedSessionManager`]), partitions `sessions` identically
//! configured sessions across them, replays one prediction per session
//! drawn from a small set of predictor profiles, and drains every shard to
//! idle, collecting per-session block schedules plus the merged
//! [`ShardStats`].
//!
//! Two properties make this a useful experiment harness:
//!
//! * **Shard-count invariance.**  Under a fixed seed the per-session
//!   schedules are block-identical at any shard count, so a sweep over
//!   `shards` isolates the *cost* of the session layer — the policy never
//!   moves (see `docs/SHARDING.md`).
//! * **Model dedup is observable.**  Sessions sharing a predictor profile
//!   hold bit-identical predictions and resolve to one shared
//!   `HorizonModel`; `ShardStats::live_models` reports the fleet-wide
//!   distinct-model count.

use std::collections::BTreeMap;
use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::scheduler::GreedySchedulerConfig;
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{Session, SessionManager};
use khameleon_core::shard::{ShardStats, ShardedSessionManager};
use khameleon_core::types::{BlockRef, RequestId, Time};
use khameleon_core::utility::UtilityModel;

use crate::config::ExperimentConfig;
use crate::khameleon_sim::UplinkFaults;

/// Fleet-shape knobs beyond the shared [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Sessions in the fleet.
    pub sessions: usize,
    /// Distinct predictor profiles; session `i` replays profile
    /// `i % predictor_profiles`, so values well below `sessions` exercise
    /// cross-session model dedup.
    pub predictor_profiles: usize,
    /// Per-session schedule depth (the scheduler's `cache_blocks`); bounds
    /// how many blocks one session is sent before it idles.
    pub cache_blocks: usize,
    /// Events drained per shard per pump round.
    pub pump_chunk: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            sessions: 64,
            predictor_profiles: 4,
            cache_blocks: 16,
            pump_chunk: 64,
        }
    }
}

/// What one fleet run produced.
#[derive(Debug)]
pub struct FleetRunResult {
    /// Cross-shard merged counters (sessions, blocks, dedup'd model count,
    /// per-shard breakdown).
    pub stats: ShardStats,
    /// Every block scheduled for every session, in per-session wire order.
    pub schedules: BTreeMap<SessionId, Vec<BlockRef>>,
    /// Uplink faults injected from the run's configured
    /// [`FaultPlan`](khameleon_core::fault::FaultPlan), keyed by fleet
    /// session index (shard-count invariant; zero when no plan was
    /// installed).
    pub faults_injected: u64,
}

impl FleetRunResult {
    /// Total blocks scheduled across the fleet.
    pub fn total_blocks(&self) -> u64 {
        self.stats.totals.blocks_sent
    }
}

/// The spread (top-3) prediction for one predictor profile.
fn profile_prediction(profile: u32, num_requests: usize) -> PredictorState {
    let n = num_requests as u32;
    PredictorState::TopK(vec![
        (RequestId(profile % n), 0.6),
        (RequestId((profile + 3) % n), 0.3),
        (RequestId((profile + 7) % n), 0.1),
    ])
}

/// Runs one session fleet to idle and returns its schedules and counters.
pub fn run_session_fleet(
    catalog: Arc<ResponseCatalog>,
    utility: UtilityModel,
    cfg: &ExperimentConfig,
    options: &FleetOptions,
) -> FleetRunResult {
    let shards = cfg.shards.max(1);
    let factory_catalog = catalog.clone();
    let mut fleet = ShardedSessionManager::spawn(shards, move |_| {
        SessionManager::weighted_fair(Box::new(CatalogBackend::new(factory_catalog.clone())))
    });

    let num_requests = catalog.num_requests();
    let mut ids = Vec::with_capacity(options.sessions);
    for i in 0..options.sessions {
        // Per-session sampler seeds keyed by fleet index: deterministic for
        // any shard count, distinct across sessions.
        let server_cfg = ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks: options.cache_blocks,
                gamma: cfg.gamma,
                seed: cfg.seed.wrapping_add(i as u64),
                ..Default::default()
            },
            initial_bandwidth: cfg.bandwidth.nominal(),
            ..Default::default()
        };
        let builder = Session::builder(utility.clone(), catalog.clone()).config(server_cfg);
        ids.push(fleet.add_session(builder));
    }

    let profiles = options.predictor_profiles.max(1);
    let mut faults_injected = 0;
    for (i, &id) in ids.iter().enumerate() {
        let state = profile_prediction((i % profiles) as u32, num_requests);
        // Route each session's single prediction upload through the fault
        // plan, keyed by fleet index (not shard) so a fixed plan hits the
        // same sessions at any shard count.  The pump model is timing-free,
        // so Delay/Stall deliver normally; lossy kinds lose the upload and
        // the session schedules nothing.
        let mut faults = UplinkFaults::new(cfg.faults.clone(), i);
        if let Some((_, message)) =
            faults.offer(Time::ZERO, Time::ZERO, ClientMessage::Predictor(state))
        {
            let _ = fleet.on_message(id, &message, Time::ZERO);
        }
        faults_injected += faults.injected();
    }

    let mut schedules: BTreeMap<SessionId, Vec<BlockRef>> = BTreeMap::new();
    for event in fleet.pump_until_idle(Time::ZERO, options.pump_chunk) {
        if let ServerEvent::Block { session, block } = event {
            schedules.entry(session).or_default().push(block.meta.block);
        }
    }
    let stats = fleet.stats();
    FleetRunResult {
        stats,
        schedules,
        faults_injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_core::utility::LinearUtility;

    fn setup() -> (Arc<ResponseCatalog>, UtilityModel) {
        let catalog = Arc::new(ResponseCatalog::uniform(12, 2, 10_000));
        let utility = UtilityModel::homogeneous(&LinearUtility, 2);
        (catalog, utility)
    }

    #[test]
    fn shards_knob_is_wired_end_to_end_and_policy_invariant() {
        let (catalog, utility) = setup();
        let options = FleetOptions {
            sessions: 24,
            predictor_profiles: 3,
            ..FleetOptions::default()
        };
        let one = run_session_fleet(
            catalog.clone(),
            utility.clone(),
            &ExperimentConfig::paper_default(),
            &options,
        );
        let four = run_session_fleet(
            catalog,
            utility,
            &ExperimentConfig::paper_default().with_shards(4),
            &options,
        );
        assert_eq!(one.stats.shards, 1);
        assert_eq!(four.stats.shards, 4);
        assert_eq!(four.stats.per_shard.len(), 4);
        assert_eq!(one.stats.totals.sessions, 24);
        assert_eq!(four.stats.totals.sessions, 24);
        assert!(one.total_blocks() > 0);
        // The tentpole guarantee: the shard count changes who does the work,
        // never what is scheduled.
        assert_eq!(
            one.schedules, four.schedules,
            "per-session schedules diverged across shard counts"
        );
    }

    #[test]
    fn shared_profiles_dedup_models_across_the_fleet() {
        let (catalog, utility) = setup();
        let options = FleetOptions {
            sessions: 30,
            predictor_profiles: 3,
            ..FleetOptions::default()
        };
        let run = run_session_fleet(
            catalog,
            utility,
            &ExperimentConfig::paper_default().with_shards(2),
            &options,
        );
        assert_eq!(run.stats.totals.sessions, 30);
        assert!(
            run.stats.live_models * 10 <= run.stats.totals.sessions,
            "expected >=10x dedup: {} models for {} sessions",
            run.stats.live_models,
            run.stats.totals.sessions
        );
        assert!(run.stats.totals.prediction_updates >= 30);
    }

    #[test]
    fn fleet_faults_silence_targeted_sessions_at_any_shard_count() {
        use khameleon_core::fault::{FaultKind, FaultPlan};
        let (catalog, utility) = setup();
        let options = FleetOptions {
            sessions: 16,
            predictor_profiles: 2,
            // The whole catalog (12 requests x 2 blocks) must fit one
            // session's schedule depth: a session whose prediction upload is
            // lost keeps hedging on the uniform prior, and a hedge that
            // cannot cache the full catalog cycles evictions forever instead
            // of draining to idle.
            cache_blocks: 24,
            ..FleetOptions::default()
        };
        // Lose the (single) prediction upload of sessions 2 and 9; each
        // fleet session has exactly one uplink message (index 0).
        let plan = FaultPlan::new().with(2, 0, FaultKind::Drop).with(
            9,
            0,
            FaultKind::Corrupt {
                offset: 5,
                xor: 0xff,
            },
        );
        let cfg = ExperimentConfig::paper_default().with_faults(plan);
        let one = run_session_fleet(catalog.clone(), utility.clone(), &cfg, &options);
        assert_eq!(one.faults_injected, 2);
        assert_eq!(one.stats.totals.sessions, 16);
        // Only 14 uploads arrive; the silenced sessions never update.
        assert_eq!(one.stats.totals.prediction_updates, 14);
        // A lost upload degrades, it does not kill: the silenced sessions
        // hedge the whole catalog from the uniform prior, while predicted
        // sessions fetch only their concentrated top-3 sets.
        assert_eq!(one.schedules.len(), 16);
        let ids: Vec<SessionId> = one.schedules.keys().copied().collect();
        let predicted_len = one.schedules[&ids[0]].len();
        for silenced in [ids[2], ids[9]] {
            assert!(
                one.schedules[&silenced].len() > predicted_len,
                "silenced session {silenced:?} did not hedge wider ({} vs {predicted_len})",
                one.schedules[&silenced].len(),
            );
        }
        // Faults are keyed by fleet index, not shard: the run is invariant
        // to the shard count like every other fleet experiment.
        let four = run_session_fleet(catalog, utility, &cfg.clone().with_shards(4), &options);
        assert_eq!(four.faults_injected, 2);
        assert_eq!(one.schedules, four.schedules);
    }
}
