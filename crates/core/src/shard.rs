//! Sharded session runtime: N worker threads, one shared bandwidth budget.
//!
//! The single-threaded [`SessionManager`] does `O(sessions)` work *per
//! block* — every [`next_event`](SessionManager::next_event) rebuilds the
//! candidate list, snapshots a [`SessionShare`](crate::session::SessionShare)
//! per live session, and runs the share policy over all of them.  At ten
//! thousand sessions that scan, not the scheduler, dominates.  The
//! [`ShardedSessionManager`] partitions sessions round-robin across `N`
//! worker threads, each running its own [`SessionManager`] over a shard-local
//! policy instance, so per-block arbitration touches `sessions / N` entries
//! (and on multi-core hosts the shards also *run* concurrently).
//!
//! ## Budget ownership
//!
//! The coordinator owns the real [`BandwidthEstimator`].  Shard-local
//! managers run with an *external budget*
//! ([`SessionManager::set_external_budget`]): their rate reports update only
//! the per-session estimate, and the coordinator — which alone sees every
//! shard's sessions — feeds its estimator the **sum of per-session estimates
//! in global session-insertion order**, exactly the expression the
//! single-threaded manager evaluates.  It then broadcasts
//! `SetBudget { total, weight_denominator }` to every shard, where
//! `weight_denominator` is the global weight sum (again summed in insertion
//! order), so each shard's division
//! `slot_i = total · w_i / Σ_global w` is **bit-identical** to the
//! single-threaded division — f64 arithmetic included.  That is the
//! foundation of the sharded-vs-single parity guarantee (see the tests).
//!
//! ## Parity scope
//!
//! A fixed-seed N-shard run produces per-session block sequences identical
//! to the single-threaded manager's, under two documented conditions:
//! the backend reports `concurrency_limit() == None` (a finite limit is
//! divided among *local* candidates, and `local ≠ global`), and comparison
//! happens at drain-to-idle points (the coordinator surfaces async events at
//! pumps, so mid-burst interleavings differ while per-session end states do
//! not).  Cross-session *ordering* onto the wire is shard-local by design —
//! the guarantee is per-session content, not global interleaving.
//!
//! ## Model deduplication
//!
//! Every shard resolves prediction models through one shared
//! [`ModelCache`], so sessions with bit-identical predictor summaries over
//! the same catalog share one `HorizonModel` *across threads*; see
//! [`crate::scheduler::dedup`] for the canonical-build-only rule that makes
//! this deterministic.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::bandwidth::BandwidthEstimator;
use crate::protocol::{ClientMessage, ServerEvent, SessionId};
use crate::scheduler::ModelCache;
use crate::server::ServerConfig;
use crate::session::{SessionBuilder, SessionManager};
use crate::types::{Bandwidth, Time};

/// Per-shard (or per-manager) counter snapshot, merged across shards into
/// [`ShardStats`].  Session-layer counters only: what a transport does to
/// connections (parks, resumes, refusals, backpressure) is counted by the
/// transport's own `ServerStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Live sessions.
    pub sessions: usize,
    /// Blocks put on the wire.
    pub blocks_sent: u64,
    /// Bytes put on the wire.
    pub bytes_sent: u64,
    /// Prediction summaries applied across sessions.
    pub prediction_updates: u64,
    /// Prediction updates applied as model diffs instead of full rebuilds.
    pub diff_applied_updates: u64,
    /// Scheduled slots rejected by the gap heuristic.
    pub rejected_gap_slots: u64,
    /// Live weight entries resident across the shard's samplers — the
    /// session layer's per-session memory observable (see
    /// [`Scheduler::sampler_entries`](crate::scheduler::Scheduler::sampler_entries)).
    pub sampler_entries: usize,
    /// Delta messages refused, forcing a client resync.
    pub resync_requests: u64,
    /// Delta messages applied in place.
    pub delta_updates: u64,
    /// Distinct shared `GreedyContext`s derived (one per distinct
    /// `(utility, catalog)` pair).
    pub shared_context_count: usize,
    /// Runtime invariant-auditor violations (zero unless the `audit`
    /// feature is enabled and an auditor is attached).
    pub audit_violations: u64,
}

impl ShardSnapshot {
    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &ShardSnapshot) {
        self.sessions += other.sessions;
        self.blocks_sent += other.blocks_sent;
        self.bytes_sent += other.bytes_sent;
        self.prediction_updates += other.prediction_updates;
        self.diff_applied_updates += other.diff_applied_updates;
        self.rejected_gap_slots += other.rejected_gap_slots;
        self.sampler_entries += other.sampler_entries;
        self.resync_requests += other.resync_requests;
        self.delta_updates += other.delta_updates;
        self.shared_context_count += other.shared_context_count;
        self.audit_violations += other.audit_violations;
    }
}

/// Cross-shard aggregate returned by [`ShardedSessionManager::stats`].
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Number of worker shards.
    pub shards: usize,
    /// Distinct live `HorizonModel`s across *all* shards — under dedup,
    /// sublinear in session count.
    pub live_models: usize,
    /// Counters summed across shards.
    pub totals: ShardSnapshot,
    /// Per-shard snapshots, indexed by shard.
    pub per_shard: Vec<ShardSnapshot>,
}

impl ShardStats {
    /// Merges per-shard snapshots (plus the shared-model count) into one
    /// aggregate.  The transport server reuses this over the snapshots its
    /// loops answer with.
    pub fn merge(per_shard: Vec<ShardSnapshot>, live_models: usize) -> Self {
        let mut totals = ShardSnapshot::default();
        for snap in &per_shard {
            totals.absorb(snap);
        }
        ShardStats {
            shards: per_shard.len(),
            live_models,
            totals,
            per_shard,
        }
    }
}

/// Commands the coordinator sends to a shard worker.  Per-shard channels are
/// FIFO, so a `SetBudget` is always applied before any message enqueued
/// after it.
enum Command {
    Add {
        id: SessionId,
        builder: SessionBuilder,
    },
    Message {
        id: SessionId,
        message: ClientMessage,
        now: Time,
    },
    Pump {
        now: Time,
        max: usize,
    },
    SetBudget {
        total: Bandwidth,
        weight_denominator: f64,
    },
    Remove {
        id: SessionId,
    },
    Stats,
    Shutdown,
}

/// Replies flowing back on a shard's (FIFO) reply channel.  Every command
/// except `SetBudget` and `Shutdown` produces exactly one reply; the
/// coordinator counts deferred (async-message) replies per shard and drains
/// them before reading any synchronous reply.
enum Reply {
    Added {
        estimate: f64,
        weight: f64,
    },
    MessageDone {
        event: Option<ServerEvent>,
        /// The session's updated bandwidth estimate, filled for rate
        /// reports so the coordinator can maintain the global sum.
        estimate: Option<f64>,
    },
    Pumped {
        events: Vec<ServerEvent>,
    },
    Removed {
        existed: bool,
    },
    Stats(Box<ShardSnapshot>),
}

struct ShardHandle {
    cmd: Sender<Command>,
    reply: Receiver<Reply>,
    join: Option<thread::JoinHandle<()>>,
}

/// Shard worker loop: owns one [`SessionManager`] and serves coordinator
/// commands until `Shutdown` (or a dropped command channel).
fn worker(mut manager: SessionManager, commands: Receiver<Command>, replies: Sender<Reply>) {
    loop {
        let command = match commands.recv() {
            Ok(c) => c,
            Err(_) => return,
        };
        match command {
            Command::Add { id, builder } => {
                manager.add_session_with_id(id, builder);
                let (estimate, weight) = match manager.session(id) {
                    Some(s) => (s.bandwidth_estimate().bytes_per_sec(), s.weight()),
                    None => (0.0, 1.0),
                };
                let _ = replies.send(Reply::Added { estimate, weight });
            }
            Command::Message { id, message, now } => {
                let event = manager.on_message(id, &message, now);
                let estimate = match &message {
                    ClientMessage::RateReport(_) => manager
                        .session(id)
                        .map(|s| s.bandwidth_estimate().bytes_per_sec()),
                    _ => None,
                };
                let _ = replies.send(Reply::MessageDone { event, estimate });
            }
            Command::Pump { now, max } => {
                let mut events = Vec::new();
                for _ in 0..max {
                    match manager.next_event(now) {
                        ServerEvent::Idle => break,
                        event => events.push(event),
                    }
                }
                let _ = replies.send(Reply::Pumped { events });
            }
            Command::SetBudget {
                total,
                weight_denominator,
            } => {
                manager.set_shared_budget(total, weight_denominator);
            }
            Command::Remove { id } => {
                let existed = manager.remove_session(id);
                let _ = replies.send(Reply::Removed { existed });
            }
            Command::Stats => {
                let _ = replies.send(Reply::Stats(Box::new(manager.stats_snapshot())));
            }
            Command::Shutdown => return,
        }
    }
}

/// Drop-in sharded replacement for [`SessionManager`]: same message-routing
/// surface, sessions partitioned round-robin across `N` worker threads, one
/// globally consistent bandwidth budget, one shared model-dedup registry.
///
/// Predictor messages are forwarded asynchronously (shards absorb prediction
/// churn in parallel); membership changes and rate reports round-trip so the
/// coordinator's bookkeeping — and the budget broadcast derived from it —
/// stays exact.  Events produced asynchronously (e.g.
/// [`ServerEvent::Resync`]) surface at the next [`pump`](Self::pump).
pub struct ShardedSessionManager {
    shards: Vec<ShardHandle>,
    /// Deferred `MessageDone` replies owed by each shard, drained before
    /// any synchronous reply is read from that shard.
    outstanding: Vec<usize>,
    route: HashMap<SessionId, usize>,
    /// `(session, weight)` in global insertion order — ids are allocated
    /// monotonically, so this is the ascending-id order the single-threaded
    /// manager's `sessions` vector holds, and f64 weight/estimate sums
    /// reproduce its results bit-for-bit.
    members: Vec<(SessionId, f64)>,
    estimates: HashMap<SessionId, f64>,
    next_id: u64,
    next_shard: usize,
    shared_bandwidth: BandwidthEstimator,
    model_cache: Arc<ModelCache>,
    /// Events produced by deferred replies, surfaced at the next pump.
    pending_events: VecDeque<ServerEvent>,
}

impl ShardedSessionManager {
    /// Spawns `num_shards` worker threads, each owning the
    /// [`SessionManager`] produced by `factory(shard_index)`.  Every
    /// shard-local manager is switched to external-budget mode and onto one
    /// shared [`ModelCache`] before it starts serving.
    pub fn spawn<F>(num_shards: usize, mut factory: F) -> Self
    where
        F: FnMut(usize) -> SessionManager,
    {
        assert!(num_shards > 0, "need at least one shard");
        let model_cache = ModelCache::new();
        let mut shards = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let mut manager = factory(i);
            manager.set_external_budget(true);
            manager.set_model_cache(model_cache.clone());
            let (cmd_tx, cmd_rx) = unbounded();
            let (reply_tx, reply_rx) = unbounded();
            let spawned = thread::Builder::new()
                .name(format!("khameleon-shard-{i}"))
                .spawn(move || worker(manager, cmd_rx, reply_tx));
            let join = match spawned {
                Ok(handle) => handle,
                Err(err) => panic!("failed to spawn shard thread {i}: {err}"),
            };
            shards.push(ShardHandle {
                cmd: cmd_tx,
                reply: reply_rx,
                join: Some(join),
            });
        }
        ShardedSessionManager {
            outstanding: vec![0; num_shards],
            shards,
            route: HashMap::new(),
            members: Vec::new(),
            estimates: HashMap::new(),
            next_id: 0,
            next_shard: 0,
            shared_bandwidth: BandwidthEstimator::new(ServerConfig::default().initial_bandwidth),
            model_cache,
            pending_events: VecDeque::new(),
        }
    }

    /// Caps the shared outgoing budget (mirrors
    /// [`SessionManager::with_bandwidth_cap`]).
    pub fn with_bandwidth_cap(mut self, cap: Bandwidth) -> Self {
        self.shared_bandwidth.set_cap(Some(cap));
        self.broadcast_budget();
        self
    }

    fn send(&self, shard: usize, command: Command) {
        if self.shards[shard].cmd.send(command).is_err() {
            panic!("shard {shard} thread terminated unexpectedly");
        }
    }

    fn recv_reply(&self, shard: usize) -> Reply {
        match self.shards[shard].reply.recv() {
            Ok(reply) => reply,
            Err(_) => panic!("shard {shard} thread terminated unexpectedly"),
        }
    }

    /// Drains the deferred (async-message) replies a shard owes, queueing
    /// any events they carry.  Must run before reading a synchronous reply
    /// from that shard: reply channels are FIFO, so afterwards the next
    /// reply is the synchronous one.
    fn drain_outstanding(&mut self, shard: usize) {
        while self.outstanding[shard] > 0 {
            match self.recv_reply(shard) {
                Reply::MessageDone { event, .. } => {
                    if let Some(event) = event {
                        self.pending_events.push_back(event);
                    }
                }
                _ => panic!("shard {shard} reply protocol violated"),
            }
            self.outstanding[shard] -= 1;
        }
    }

    /// Pushes the current budget to every shard: the global total and the
    /// global weight denominator, so every shard divides exactly as the
    /// single-threaded manager would.
    fn broadcast_budget(&mut self) {
        let total = self.shared_bandwidth.estimate();
        // Insertion-order sum: bit-identical to the single-threaded
        // manager's local weight sum over its sessions vector.
        let weight_denominator: f64 = self.members.iter().map(|(_, w)| *w).sum();
        if weight_denominator <= 0.0 {
            return;
        }
        for shard in 0..self.shards.len() {
            self.send(
                shard,
                Command::SetBudget {
                    total,
                    weight_denominator,
                },
            );
        }
    }

    /// Adds a session under a fresh globally unique id, assigning it to the
    /// next shard round-robin, and rebroadcasts the budget.
    pub fn add_session(&mut self, builder: SessionBuilder) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let shard = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.shards.len();
        self.drain_outstanding(shard);
        self.send(shard, Command::Add { id, builder });
        let (estimate, weight) = match self.recv_reply(shard) {
            Reply::Added { estimate, weight } => (estimate, weight),
            _ => panic!("shard {shard} reply protocol violated"),
        };
        self.route.insert(id, shard);
        self.members.push((id, weight));
        self.estimates.insert(id, estimate);
        self.broadcast_budget();
        id
    }

    /// Removes a session from its owning shard.  Returns `true` if it
    /// existed.  Used by transports on disconnect so a departed connection
    /// frees its session (and its model refcounts) without touching any
    /// other shard.
    pub fn remove_session(&mut self, id: SessionId) -> bool {
        let Some(&shard) = self.route.get(&id) else {
            return false;
        };
        self.drain_outstanding(shard);
        self.send(shard, Command::Remove { id });
        let existed = match self.recv_reply(shard) {
            Reply::Removed { existed } => existed,
            _ => panic!("shard {shard} reply protocol violated"),
        };
        self.forget(id);
        self.broadcast_budget();
        existed
    }

    fn forget(&mut self, id: SessionId) {
        self.route.remove(&id);
        self.members.retain(|(sid, _)| *sid != id);
        self.estimates.remove(&id);
    }

    /// Routes one protocol message to the owning shard.
    ///
    /// `Close` and `RateReport` round-trip (membership and the shared
    /// budget must stay exact); predictor messages are forwarded
    /// asynchronously and their events — e.g. a refused delta's
    /// [`ServerEvent::Resync`] — surface at the next [`pump`](Self::pump).
    /// Returns `None` for unknown sessions.
    pub fn on_message(
        &mut self,
        id: SessionId,
        message: &ClientMessage,
        now: Time,
    ) -> Option<ServerEvent> {
        let shard = *self.route.get(&id)?;
        match message {
            ClientMessage::Close => {
                self.drain_outstanding(shard);
                self.send(
                    shard,
                    Command::Message {
                        id,
                        message: message.clone(),
                        now,
                    },
                );
                let event = match self.recv_reply(shard) {
                    Reply::MessageDone { event, .. } => event,
                    _ => panic!("shard {shard} reply protocol violated"),
                };
                self.forget(id);
                self.broadcast_budget();
                event
            }
            ClientMessage::RateReport(_) => {
                self.drain_outstanding(shard);
                self.send(
                    shard,
                    Command::Message {
                        id,
                        message: message.clone(),
                        now,
                    },
                );
                let estimate = match self.recv_reply(shard) {
                    Reply::MessageDone { estimate, .. } => estimate,
                    _ => panic!("shard {shard} reply protocol violated"),
                };
                if let Some(estimate) = estimate {
                    self.estimates.insert(id, estimate);
                }
                // The single-threaded manager sums per-session estimates in
                // its sessions vector's insertion order; `members` holds
                // that same global order, so this f64 sum is bit-identical.
                let total: f64 = self
                    .members
                    .iter()
                    .map(|(sid, _)| self.estimates.get(sid).copied().unwrap_or(0.0))
                    .sum();
                self.shared_bandwidth.report_rate(Bandwidth(total));
                self.broadcast_budget();
                None
            }
            ClientMessage::Predictor(_)
            | ClientMessage::PredictorFull { .. }
            | ClientMessage::PredictorDelta(_) => {
                self.send(
                    shard,
                    Command::Message {
                        id,
                        message: message.clone(),
                        now,
                    },
                );
                self.outstanding[shard] += 1;
                None
            }
        }
    }

    /// Asks every shard for up to `max_per_shard` blocks *concurrently* and
    /// returns the merged events.  Pump commands go out to all shards
    /// before any reply is read, so shard scheduler loops overlap; results
    /// are merged in shard-index order (deterministic).  Deferred events
    /// (resyncs from async predictor messages) are included.
    pub fn pump(&mut self, now: Time, max_per_shard: usize) -> Vec<ServerEvent> {
        let mut events: Vec<ServerEvent> = self.pending_events.drain(..).collect();
        for shard in 0..self.shards.len() {
            self.send(
                shard,
                Command::Pump {
                    now,
                    max: max_per_shard,
                },
            );
        }
        for shard in 0..self.shards.len() {
            // FIFO per shard: deferred MessageDone replies first, then the
            // Pumped reply for the command above.
            self.drain_outstanding(shard);
            match self.recv_reply(shard) {
                Reply::Pumped {
                    events: shard_events,
                } => events.extend(shard_events),
                _ => panic!("shard {shard} reply protocol violated"),
            }
        }
        events.extend(self.pending_events.drain(..));
        events
    }

    /// Pumps until every shard reports idle in the same round, collecting
    /// all events.  `max_per_shard` bounds each round's burst per shard.
    pub fn pump_until_idle(&mut self, now: Time, max_per_shard: usize) -> Vec<ServerEvent> {
        let mut all = Vec::new();
        loop {
            let events = self.pump(now, max_per_shard.max(1));
            let progressed = events
                .iter()
                .any(|e| matches!(e, ServerEvent::Block { .. }));
            let drained = events.is_empty();
            all.extend(events);
            if !progressed && drained {
                break;
            }
            if !progressed {
                // Only bookkeeping events arrived; one more round confirms
                // the shards are idle.
                continue;
            }
        }
        all
    }

    /// Aggregates per-shard counters into one [`ShardStats`] snapshot.
    pub fn stats(&mut self) -> ShardStats {
        for shard in 0..self.shards.len() {
            self.drain_outstanding(shard);
            self.send(shard, Command::Stats);
        }
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            match self.recv_reply(shard) {
                Reply::Stats(snapshot) => per_shard.push(*snapshot),
                _ => panic!("shard {shard} reply protocol violated"),
            }
        }
        ShardStats::merge(per_shard, self.model_cache.live_models())
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live sessions across all shards.
    pub fn num_sessions(&self) -> usize {
        self.members.len()
    }

    /// Live session ids in global insertion order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.members.iter().map(|(id, _)| *id).collect()
    }

    /// The shard owning `id`, if the session is live.
    pub fn shard_of(&self, id: SessionId) -> Option<usize> {
        self.route.get(&id).copied()
    }

    /// Distinct live `HorizonModel`s across all shards.
    pub fn live_models(&self) -> usize {
        self.model_cache.live_models()
    }

    /// The shared model-dedup registry.
    pub fn model_cache(&self) -> &Arc<ModelCache> {
        &self.model_cache
    }

    /// The coordinator's current shared-bandwidth estimate.
    pub fn bandwidth_estimate(&self) -> Bandwidth {
        self.shared_bandwidth.estimate()
    }
}

impl Drop for ShardedSessionManager {
    fn drop(&mut self) {
        for shard in &self.shards {
            let _ = shard.cmd.send(Command::Shutdown);
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.join.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::ResponseCatalog;
    use crate::predictor::PredictorState;
    use crate::scheduler::GreedySchedulerConfig;
    use crate::server::CatalogBackend;
    use crate::session::Session;
    use crate::types::{BlockRef, RequestId};
    use crate::utility::{LinearUtility, UtilityModel};

    const N: usize = 12;
    const BLOCKS: u32 = 2;

    fn catalog() -> Arc<ResponseCatalog> {
        Arc::new(ResponseCatalog::uniform(N, BLOCKS, 10_000))
    }

    fn builder(cat: &Arc<ResponseCatalog>, weight: f64, seed: u64) -> SessionBuilder {
        Session::builder(
            UtilityModel::homogeneous(&LinearUtility, BLOCKS),
            cat.clone(),
        )
        .config(ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks: N * BLOCKS as usize,
                seed,
                ..Default::default()
            },
            ..Default::default()
        })
        .weight(weight)
    }

    fn single_manager(cat: &Arc<ResponseCatalog>) -> SessionManager {
        SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())))
    }

    fn sharded_manager(cat: &Arc<ResponseCatalog>, shards: usize) -> ShardedSessionManager {
        let cat = cat.clone();
        ShardedSessionManager::spawn(shards, move |_| single_manager(&cat))
    }

    /// A spread (top-3) prediction anchored at request `base`, so a session
    /// keeps several requests worth of useful blocks in its schedule.
    fn spread_prediction(base: u32) -> PredictorState {
        PredictorState::TopK(vec![
            (RequestId(base % N as u32), 0.6),
            (RequestId((base + 3) % N as u32), 0.3),
            (RequestId((base + 7) % N as u32), 0.1),
        ])
    }

    type PerSession = HashMap<SessionId, Vec<BlockRef>>;

    fn drain_single(mgr: &mut SessionManager) -> PerSession {
        let mut got: PerSession = HashMap::new();
        for _ in 0..100_000 {
            match mgr.next_event(Time::ZERO) {
                ServerEvent::Block { session, block } => {
                    got.entry(session).or_default().push(block.meta.block);
                }
                ServerEvent::Idle => return got,
                ServerEvent::Closed { .. } | ServerEvent::Resync { .. } | ServerEvent::Busy => {}
            }
        }
        panic!("single-threaded drain did not reach idle");
    }

    fn drain_sharded(mgr: &mut ShardedSessionManager) -> PerSession {
        let mut got: PerSession = HashMap::new();
        for event in mgr.pump_until_idle(Time::ZERO, 64) {
            if let ServerEvent::Block { session, block } = event {
                got.entry(session).or_default().push(block.meta.block);
            }
        }
        got
    }

    /// Applies one message to both managers and both drains; panics on any
    /// per-session divergence.
    struct ParityRig {
        cat: Arc<ResponseCatalog>,
        single: SessionManager,
        sharded: ShardedSessionManager,
        live: Vec<SessionId>,
        added: u64,
    }

    impl ParityRig {
        fn new(shards: usize) -> Self {
            let cat = catalog();
            let single = single_manager(&cat);
            let sharded = sharded_manager(&cat, shards);
            ParityRig {
                cat,
                single,
                sharded,
                live: Vec::new(),
                added: 0,
            }
        }

        fn add(&mut self, weight: f64) {
            let seed = self.added;
            self.added += 1;
            let a = self.single.add_session(builder(&self.cat, weight, seed));
            let b = self.sharded.add_session(builder(&self.cat, weight, seed));
            assert_eq!(a, b, "id allocation diverged");
            self.live.push(a);
        }

        fn message(&mut self, id: SessionId, message: &ClientMessage) {
            self.single.on_message(id, message, Time::ZERO);
            self.sharded.on_message(id, message, Time::ZERO);
            if matches!(message, ClientMessage::Close) {
                self.live.retain(|sid| *sid != id);
            }
        }

        /// Drains both runtimes to idle, asserts per-session parity, and
        /// returns the number of blocks the single-threaded side produced.
        fn drain_and_compare(&mut self) -> usize {
            let single = drain_single(&mut self.single);
            let sharded = drain_sharded(&mut self.sharded);
            let mut ids: Vec<SessionId> = single.keys().chain(sharded.keys()).copied().collect();
            ids.sort_unstable();
            ids.dedup();
            for id in ids {
                assert_eq!(
                    single.get(&id),
                    sharded.get(&id),
                    "per-session block sequence diverged for {id}"
                );
            }
            single.values().map(Vec::len).sum()
        }
    }

    #[test]
    fn sessions_land_round_robin_across_shards() {
        let cat = catalog();
        let mut mgr = sharded_manager(&cat, 3);
        let ids: Vec<SessionId> = (0..7)
            .map(|i| mgr.add_session(builder(&cat, 1.0, i)))
            .collect();
        assert_eq!(mgr.num_shards(), 3);
        assert_eq!(mgr.num_sessions(), 7);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(mgr.shard_of(*id), Some(i % 3));
        }
        assert!(mgr.remove_session(ids[2]));
        assert!(!mgr.remove_session(ids[2]));
        assert_eq!(mgr.num_sessions(), 6);
        let stats = mgr.stats();
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.totals.sessions, 6);
    }

    #[test]
    fn identical_predictors_share_models_across_shards() {
        let cat = catalog();
        let mut mgr = sharded_manager(&cat, 2);
        let ids: Vec<SessionId> = (0..20)
            .map(|i| mgr.add_session(builder(&cat, 1.0, i)))
            .collect();
        for id in &ids {
            mgr.on_message(
                *id,
                &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(3))),
                Time::ZERO,
            );
        }
        let _ = mgr.pump(Time::ZERO, 4);
        let stats = mgr.stats();
        assert_eq!(stats.totals.sessions, 20);
        assert!(
            stats.live_models * 10 <= stats.totals.sessions,
            "expected >=10x dedup, got {} models for {} sessions",
            stats.live_models,
            stats.totals.sessions
        );
        assert!(stats.totals.prediction_updates >= 20);
        assert!(stats.totals.blocks_sent > 0);
    }

    #[test]
    fn disconnect_frees_the_session_and_its_models() {
        let cat = catalog();
        let mut mgr = sharded_manager(&cat, 2);
        let ids: Vec<SessionId> = (0..4)
            .map(|i| mgr.add_session(builder(&cat, 1.0, i)))
            .collect();
        for id in &ids {
            mgr.on_message(
                *id,
                &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(1))),
                Time::ZERO,
            );
        }
        let _ = mgr.pump(Time::ZERO, 2);
        assert!(mgr.live_models() >= 1);
        for id in &ids {
            assert!(mgr.remove_session(*id));
        }
        assert_eq!(mgr.num_sessions(), 0);
        assert_eq!(
            mgr.live_models(),
            0,
            "departed sessions must release their model refcounts"
        );
    }

    #[test]
    fn sharded_matches_single_threaded_fixed_scenario() {
        let mut rig = ParityRig::new(3);
        for weight in [1.0, 2.0, 1.0, 3.0, 1.0] {
            rig.add(weight);
        }
        let ids = rig.live.clone();
        for (i, id) in ids.iter().enumerate() {
            rig.message(*id, &ClientMessage::Predictor(spread_prediction(i as u32)));
        }
        rig.message(
            ids[1],
            &ClientMessage::RateReport(Bandwidth::from_mbps(3.0)),
        );
        let blocks = rig.drain_and_compare();
        assert!(
            blocks >= 5 * 4,
            "first drain produced too few blocks ({blocks}) to be meaningful"
        );
        rig.message(ids[2], &ClientMessage::Close);
        rig.add(2.0);
        let joined = *rig.live.last().expect("just added");
        rig.message(joined, &ClientMessage::Predictor(spread_prediction(7)));
        rig.message(
            ids[0],
            &ClientMessage::RateReport(Bandwidth::from_mbps(9.0)),
        );
        rig.drain_and_compare();
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        /// Decodes one raw `(kind, a, b)` tuple into a workload step applied
        /// to both managers.  Returns `true` if the step was a drain point.
        fn apply(rig: &mut ParityRig, kind: u8, a: u32, b: u32) -> bool {
            match kind {
                // Add a session with a small mixed weight.
                0 => rig.add((5 + a % 35) as f64 / 10.0),
                // Close a live session.
                1 => {
                    if !rig.live.is_empty() {
                        let id = rig.live[a as usize % rig.live.len()];
                        rig.message(id, &ClientMessage::Close);
                    }
                }
                // Prediction churn.
                2 => {
                    if !rig.live.is_empty() {
                        let id = rig.live[a as usize % rig.live.len()];
                        rig.message(id, &ClientMessage::Predictor(spread_prediction(b)));
                    }
                }
                // Rate report (re-divides the shared budget).
                3 => {
                    if !rig.live.is_empty() {
                        let id = rig.live[a as usize % rig.live.len()];
                        let rate = Bandwidth::from_mbps((5 + b % 195) as f64 / 10.0);
                        rig.message(id, &ClientMessage::RateReport(rate));
                    }
                }
                // Drain both runtimes to idle and compare.
                _ => {
                    rig.drain_and_compare();
                    return true;
                }
            }
            false
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12 })]

            /// The tentpole determinism guarantee: a fixed-seed sharded run
            /// produces per-session block sequences identical to the
            /// single-threaded manager's, across adds, closes, prediction
            /// churn, rate reports, and drain points.
            #[test]
            fn sharded_matches_single_threaded(
                shards in 2usize..5,
                ops in proptest::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 1..24),
            ) {
                let mut rig = ParityRig::new(shards);
                for weight in [1.0, 2.0, 1.0] {
                    rig.add(weight);
                }
                for (kind, a, b) in ops {
                    apply(&mut rig, kind, a, b);
                }
                rig.drain_and_compare();
            }
        }
    }
}
