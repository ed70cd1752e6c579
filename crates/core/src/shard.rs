//! Sharded session runtime: N worker threads, one shared bandwidth budget.
//!
//! A [`SessionManager`] serves a block in `O(log sessions)` — it reads the
//! next session off a maintained ready index instead of scanning the fleet —
//! so one thread's per-block cost barely moves with fleet size; what one
//! thread cannot do is use a second core.  The [`ShardedSessionManager`]
//! partitions sessions round-robin across `N` worker threads, each running
//! its own [`SessionManager`] with a shard-local ready index, so the
//! shards' scheduler loops, prediction updates and session builds *run*
//! concurrently.  Shards buy parallelism, not a smaller scan: on a host
//! with fewer cores than shards they buy nothing.
//!
//! ## Budget ownership
//!
//! The coordinator owns the budget and everything it is computed from: the
//! real [`BandwidthEstimator`], the members' weights with their sum, and —
//! per member — the session's *own* estimator, started from the same
//! [`SessionBuilder`] the shard builds the session from and fed every rate
//! report the coordinator forwards.  Mirror and session are one estimator
//! given one input stream, so the coordinator never asks a shard what a
//! session's estimate is.  A shard-local manager that has been pushed a
//! budget ([`SessionManager::set_shared_budget`]) updates only the
//! per-session estimate on a rate report; the coordinator — which alone sees
//! every shard's sessions — folds the report in with
//! [`BandwidthEstimator::fold_report`] over its members in global
//! session-insertion order, the routine the single-threaded manager calls
//! over its own sessions.  The budget a shard needs is
//! `SetBudget { total, weight_denominator }`, where `weight_denominator` is
//! the global weight sum (again summed in insertion order, when a member
//! joins or leaves), so each shard's division
//! ([`weighted_share`](crate::bandwidth::weighted_share)) `slot_i =
//! total · w_i / Σ_global w` is **bit-identical** to the single-threaded
//! division — f64 arithmetic included.  That is the foundation of the
//! sharded-vs-single parity guarantee (see the tests).
//!
//! ### Budget epochs
//!
//! Every join, departure and rate report changes that budget, and starts a
//! new budget *epoch* in the coordinator; none of them tells any shard.  A
//! shard is sent `SetBudget` — carrying the `(total, Σw)` current at that
//! moment — immediately before the first command through which it could
//! *observe* the budget (`Add`, a predictor `Message`, `Pump`, `Remove`,
//! `Stats`), and at most once per epoch.  The coordinator's own bookkeeping
//! moves first, so the `SetBudget` in front of an `Add` already counts the
//! joiner and the one in front of a `Remove` no longer counts the leaver.
//!
//! A rate report is the one command that cannot observe the budget: under a
//! pushed budget [`SessionManager::on_message`] touches only the reporting
//! session — re-opens it, feeds its estimator, writes its slot duration
//! from its *own* estimate.  So a report is forwarded with no `SetBudget` in
//! front and leaves its shard's epoch stale; the `SetBudget` before that
//! shard's next observing command overwrites the reporter's self-written
//! slot with its share.  A report the estimators ignore (`≤ 0`) writes that
//! slot all the same, which is why it starts an epoch too.  A burst of `k`
//! reports therefore costs its shard no re-division at all, and the next
//! pump one.
//!
//! What is dropped is exactly the broadcasts nobody could have observed: a
//! shard that is sent nothing but reports for `k` epochs is sent one
//! `SetBudget`, not `k`.  Parity still holds because applying a budget is a
//! *calibration* — [`SessionManager::set_shared_budget`] overwrites the
//! estimate and the denominator, gives every session its slot duration
//! (last write wins; see [`Scheduler::set_slot_duration`]) and re-opens
//! drained sessions — so a shard that applies only the latest budget before
//! a command is in the state it would have reached by applying every
//! intermediate one, and each command still sees bit-identical slot
//! durations and `exhausted` flags.
//!
//! [`Scheduler::set_slot_duration`]: crate::scheduler::Scheduler::set_slot_duration
//!
//! ## Parity scope
//!
//! A fixed-seed N-shard run produces per-session block sequences identical
//! to the single-threaded manager's when compared at drain-to-idle points
//! (events of unanswered messages surface at pumps, so mid-burst
//! interleavings differ while per-session end states do not), whatever
//! `concurrency_limit()` the backend reports: the limit is each session's
//! own refill allowance, the same on every shard, so no session's draw
//! depends on which sessions share its shard.  Cross-session *ordering*
//! onto the wire is shard-local by design — the guarantee is per-session
//! content, not global interleaving.
//!
//! ## Model deduplication
//!
//! Every shard resolves prediction models through one shared
//! [`ModelCache`], so sessions with bit-identical predictor summaries over
//! the same catalog share one `HorizonModel` *across threads*; see
//! [`crate::scheduler::dedup`] for the canonical-build-only rule that makes
//! this deterministic.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::bandwidth::BandwidthEstimator;
use crate::protocol::{ClientMessage, ServerEvent, SessionId};
use crate::scheduler::ModelCache;
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
    /// Prediction deltas applied as model diffs instead of installs.
    pub diff_applied_updates: u64,
    /// Live weight entries resident across the shard's samplers — the
    /// session layer's per-session memory observable (see
    /// [`Scheduler::sampler_entries`](crate::scheduler::Scheduler::sampler_entries)).
    pub sampler_entries: usize,
    /// Delta messages refused, forcing a client resync.
    pub resync_requests: u64,
    /// Delta messages applied in place.
    pub delta_updates: u64,
    /// Distinct shared `GreedyContext`s held (one per distinct
    /// `(utility value, catalog)` pair per shard).
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
/// FIFO, so a `SetBudget` is always applied before the command enqueued
/// right after it — the one that could observe it.  `Pump`, `Remove` (which
/// is also how a `Close` travels) and `Stats` are answered; the rest are
/// not.
enum Command {
    Add {
        id: SessionId,
        builder: SessionBuilder,
    },
    /// A predictor message or a rate report.  The event it produces, if
    /// any, rides at the head of the next `Reply::Pumped`.
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

/// Replies flowing back on a shard's (FIFO) reply channel, one per `Pump`,
/// `Remove` or `Stats`.  The coordinator reads each as soon as it has sent
/// the command, so the channel never holds a reply to anything else.
enum Reply {
    Pumped { events: Vec<ServerEvent> },
    Removed { existed: bool },
    Stats(Box<ShardSnapshot>),
}

struct ShardHandle {
    cmd: Sender<Command>,
    reply: Receiver<Reply>,
    join: Option<thread::JoinHandle<()>>,
    /// The budget epoch of the last `SetBudget` this shard was sent.
    budget_epoch: u64,
}

/// Shard worker loop: owns one [`SessionManager`] and serves coordinator
/// commands until `Shutdown` (or a dropped command channel).
fn worker(mut manager: SessionManager, commands: Receiver<Command>, replies: Sender<Reply>) {
    // Events of messages served since the last pump (a refused delta's
    // `Resync`; rare).
    let mut unsurfaced: Vec<ServerEvent> = Vec::new();
    loop {
        let command = match commands.recv() {
            Ok(c) => c,
            Err(_) => return,
        };
        match command {
            Command::Add { id, builder } => {
                manager.add_session_with_id(id, builder);
            }
            Command::Message { id, message, now } => {
                unsurfaced.extend(manager.on_message(id, &message, now));
            }
            Command::Pump { now, max } => {
                let mut events = std::mem::take(&mut unsurfaced);
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
                #[cfg(test)]
                tests::note_budget_applied();
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
        #[cfg(test)]
        if let Err(violation) = manager.check() {
            panic!("shard manager invariant broken: {violation}");
        }
    }
}

/// Drop-in sharded replacement for [`SessionManager`]: same message-routing
/// surface, sessions partitioned round-robin across `N` worker threads, one
/// globally consistent bandwidth budget, one shared model-dedup registry.
///
/// Joins, predictor messages and rate reports are forwarded without waiting
/// (shards build sessions and absorb prediction churn in parallel:
/// everything the coordinator's bookkeeping needs from a join it reads off
/// the [`SessionBuilder`], and everything it needs from a report it
/// computes on its own copy of the session's estimator); only a departure,
/// a pump and a stats read wait for their shard.  Budget changes reach a
/// shard lazily, once per epoch (module docs).  Events produced by
/// forwarded messages (e.g. [`ServerEvent::Resync`]) surface at the next
/// [`pump`](Self::pump).
pub struct ShardedSessionManager {
    shards: Vec<ShardHandle>,
    route: HashMap<SessionId, usize>,
    /// The live sessions in global insertion order — ids are allocated
    /// monotonically, so this is the ascending-id order the single-threaded
    /// manager's `sessions` vector holds, and f64 weight/estimate sums
    /// reproduce its results bit-for-bit.
    members: Vec<Member>,
    /// `Σ weight` over `members`, summed in that order whenever a member
    /// joins or leaves: the `weight_denominator` of every `SetBudget`.
    weight_sum: f64,
    next_id: u64,
    next_shard: usize,
    shared_bandwidth: BandwidthEstimator,
    /// The current budget epoch: bumped by everything that can change the
    /// estimate or the weight sum.  A shard whose
    /// [`budget_epoch`](ShardHandle::budget_epoch) differs is sent
    /// `SetBudget` before its next command that can observe the budget.
    budget_epoch: u64,
    model_cache: Arc<ModelCache>,
}

/// What the budget needs to know of one live session.
struct Member {
    id: SessionId,
    weight: f64,
    /// The session's own estimator: its builder's, then fed every rate
    /// report forwarded to the session.
    estimator: BandwidthEstimator,
    /// `estimator.estimate()` in bytes/s, so a fold reads one number per
    /// member instead of taking 2 000 harmonic means.
    estimate: f64,
}

impl ShardedSessionManager {
    /// Spawns `num_shards` worker threads, each owning the
    /// [`SessionManager`] produced by `factory(shard_index)`.  Every
    /// shard-local manager is moved onto one shared [`ModelCache`] before it
    /// starts serving.  The coordinator's estimator starts as shard 0's —
    /// initial estimate and cap — so the factory should configure every
    /// shard alike.
    pub fn spawn<F>(num_shards: usize, mut factory: F) -> Self
    where
        F: FnMut(usize) -> SessionManager,
    {
        assert!(num_shards > 0, "need at least one shard");
        let model_cache = ModelCache::new();
        let mut shards = Vec::with_capacity(num_shards);
        let managers: Vec<SessionManager> = (0..num_shards).map(&mut factory).collect();
        let shared_bandwidth = managers[0].shared_bandwidth.clone();
        for (i, mut manager) in managers.into_iter().enumerate() {
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
                budget_epoch: 0,
            });
        }
        ShardedSessionManager {
            shards,
            route: HashMap::new(),
            members: Vec::new(),
            weight_sum: 0.0,
            next_id: 0,
            next_shard: 0,
            shared_bandwidth,
            budget_epoch: 0,
            model_cache,
        }
    }

    /// Sends `shard` a command that can observe the budget, first bringing
    /// the shard into the current budget epoch: this is the one place
    /// `SetBudget` is sent.
    fn send(&mut self, shard: usize, command: Command) {
        if self.shards[shard].budget_epoch != self.budget_epoch {
            self.shards[shard].budget_epoch = self.budget_epoch;
            if self.weight_sum > 0.0 {
                self.send_raw(
                    shard,
                    Command::SetBudget {
                        total: self.shared_bandwidth.estimate(),
                        weight_denominator: self.weight_sum,
                    },
                );
            }
        }
        self.send_raw(shard, command);
    }

    fn send_raw(&self, shard: usize, command: Command) {
        if self.shards[shard].cmd.send(command).is_err() {
            panic!("shard {shard} thread terminated unexpectedly");
        }
    }

    /// Waits for `shard`'s reply to the answered command just sent to it.
    fn recv_reply(&self, shard: usize) -> Reply {
        match self.shards[shard].reply.recv() {
            Ok(reply) => reply,
            Err(_) => panic!("shard {shard} thread terminated unexpectedly"),
        }
    }

    /// The membership changed: re-sums the weights in insertion order —
    /// bit-identical to the single-threaded manager's sum over its sessions
    /// vector — and starts a budget epoch.
    fn members_changed(&mut self) {
        self.weight_sum = self.members.iter().map(|m| m.weight).sum();
        self.budget_epoch += 1;
    }

    /// Takes member `id`'s rate report into the budget without asking its
    /// shard for anything: the coordinator's copy of the session's estimator
    /// takes the report as the session's will, the shared estimator folds
    /// it in, and a budget epoch starts — also for a report both estimators
    /// ignore (module docs).
    fn fold_report(&mut self, id: SessionId, rate: Bandwidth) {
        let Ok(at) = self.members.binary_search_by_key(&id, |member| member.id) else {
            unreachable!("routed session {id} is not a member");
        };
        let member = &mut self.members[at];
        member.estimator.report_rate(rate);
        member.estimate = member.estimator.estimate().bytes_per_sec();
        // `members` holds the order of the single-threaded manager's
        // sessions vector, so the fold's f64 sum is bit-identical.
        let estimates = self.members.iter().map(|m| (m.id, m.estimate));
        self.shared_bandwidth.fold_report(estimates, id, rate);
        self.budget_epoch += 1;
    }

    /// Adds a session under a fresh globally unique id, assigning it to the
    /// next shard round-robin.  Does not wait for the shard: the weight and
    /// the estimator the budget needs come from the builder, and the shard
    /// builds the session while the caller goes on (to the next join,
    /// typically on another shard).
    pub fn add_session(&mut self, builder: SessionBuilder) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let shard = self.next_shard;
        self.next_shard = (self.next_shard + 1) % self.shards.len();
        let estimator = builder.bandwidth_estimator();
        self.route.insert(id, shard);
        self.members.push(Member {
            id,
            weight: builder.weight,
            estimate: estimator.estimate().bytes_per_sec(),
            estimator,
        });
        self.members_changed();
        self.send(shard, Command::Add { id, builder });
        id
    }

    /// Removes a session from its owning shard.  Returns `true` if it
    /// existed.  Used by transports on disconnect so a departed connection
    /// frees its session (and its model refcounts) without touching any
    /// other shard.
    pub fn remove_session(&mut self, id: SessionId) -> bool {
        let Some(shard) = self.route.remove(&id) else {
            return false;
        };
        self.members.retain(|member| member.id != id);
        self.members_changed();
        self.send(shard, Command::Remove { id });
        match self.recv_reply(shard) {
            Reply::Removed { existed } => existed,
            _ => panic!("shard {shard} reply protocol violated"),
        }
    }

    /// Routes one protocol message to the owning shard.
    ///
    /// `Close` is a departure: it waits for the shard and returns the
    /// `Closed` event.  Predictor messages and rate reports are forwarded
    /// without waiting — the coordinator folds a report into the budget
    /// from its own copy of the session's estimator — and the events of
    /// forwarded messages (a refused delta's [`ServerEvent::Resync`])
    /// surface at the next [`pump`](Self::pump).  Returns `None` for
    /// unknown sessions.
    pub fn on_message(
        &mut self,
        id: SessionId,
        message: &ClientMessage,
        now: Time,
    ) -> Option<ServerEvent> {
        let shard = *self.route.get(&id)?;
        let observes_budget = match message {
            ClientMessage::Predictor(_)
            | ClientMessage::PredictorFull { .. }
            | ClientMessage::PredictorDelta(_) => true,
            ClientMessage::RateReport(rate) => {
                self.fold_report(id, *rate);
                false
            }
            ClientMessage::Close => {
                // On a shard, `Close` is `remove_session` plus this event.
                return self
                    .remove_session(id)
                    .then_some(ServerEvent::Closed { session: id });
            }
        };
        let command = Command::Message {
            id,
            message: message.clone(),
            now,
        };
        match observes_budget {
            true => self.send(shard, command),
            // A rate report (module docs): no `SetBudget` in front, and the
            // shard stays in its stale epoch.
            false => self.send_raw(shard, command),
        }
        None
    }

    /// Asks every shard for up to `max_per_shard` blocks *concurrently* and
    /// returns the merged events.  Pump commands go out to all shards
    /// before any reply is read, so shard scheduler loops overlap; results
    /// are merged in shard-index order (deterministic).  Each shard's part
    /// starts with the events of the messages forwarded to it since its
    /// last pump, so a session's `Resync` precedes its later blocks.
    pub fn pump(&mut self, now: Time, max_per_shard: usize) -> Vec<ServerEvent> {
        for shard in 0..self.shards.len() {
            self.send(
                shard,
                Command::Pump {
                    now,
                    max: max_per_shard,
                },
            );
        }
        let mut events = Vec::new();
        for shard in 0..self.shards.len() {
            match self.recv_reply(shard) {
                Reply::Pumped {
                    events: shard_events,
                } => events.extend(shard_events),
                _ => panic!("shard {shard} reply protocol violated"),
            }
        }
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

    /// Live sessions across all shards.
    pub fn num_sessions(&self) -> usize {
        self.members.len()
    }

    /// Live session ids in global insertion order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.members.iter().map(|member| member.id).collect()
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
    use crate::server::{Backend, CatalogBackend, ServerConfig};
    use crate::session::Session;
    use crate::types::{BlockRef, RequestId};
    use crate::utility::{LinearUtility, UtilityModel};

    const N: usize = 12;
    const BLOCKS: u32 = 2;

    /// `SetBudget` commands applied so far, by shard worker thread.
    static BUDGETS_APPLIED: std::sync::Mutex<Vec<(thread::ThreadId, usize)>> =
        std::sync::Mutex::new(Vec::new());

    /// Called by a shard worker each time it applies a `SetBudget`.
    pub(super) fn note_budget_applied() {
        let me = thread::current().id();
        let mut applied = BUDGETS_APPLIED.lock().expect("counter lock");
        match applied.iter_mut().find(|(worker, _)| *worker == me) {
            Some((_, count)) => *count += 1,
            None => applied.push((me, 1)),
        }
    }

    /// `SetBudget` commands each of `mgr`'s shards has applied.  Settled
    /// only for a shard that has replied to everything it was sent.
    fn budgets_applied(mgr: &ShardedSessionManager) -> Vec<usize> {
        let applied = BUDGETS_APPLIED.lock().expect("counter lock");
        let of = |shard: &ShardHandle| {
            let worker = shard.join.as_ref().expect("running").thread().id();
            let entry = applied.iter().find(|(thread, _)| *thread == worker);
            entry.map_or(0, |(_, count)| *count)
        };
        mgr.shards.iter().map(of).collect()
    }

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
        limited_manager(cat, None)
    }

    /// A manager whose backend reports `limit` as its concurrency limit.
    fn limited_manager(cat: &Arc<ResponseCatalog>, limit: Option<usize>) -> SessionManager {
        let inner = CatalogBackend::new(cat.clone());
        match limit {
            Some(limit) => SessionManager::weighted_fair(Box::new(Limited { inner, limit })),
            None => SessionManager::weighted_fair(Box::new(inner)),
        }
    }

    /// The catalog, behind a backend concurrency limit of `limit`.
    struct Limited {
        inner: CatalogBackend,
        limit: usize,
    }

    impl Backend for Limited {
        fn fetch(&mut self, block: BlockRef) -> Option<crate::block::Block> {
            self.inner.fetch(block)
        }
        fn concurrency_limit(&self) -> Option<usize> {
            Some(self.limit)
        }
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

    /// A scheduler that schedules nothing and records every slot duration
    /// it is given.
    struct SlotProbe {
        slots: SlotLog,
    }

    type SlotLog = Arc<std::sync::Mutex<Vec<crate::types::Duration>>>;

    /// A session of weight `weight` driven by a [`SlotProbe`] logging to
    /// `slots`.
    fn probed(cat: &Arc<ResponseCatalog>, weight: f64, slots: &SlotLog) -> SessionBuilder {
        builder(cat, weight, 0).scheduler(Box::new(SlotProbe {
            slots: slots.clone(),
        }))
    }

    fn last_slot(slots: &SlotLog) -> Option<crate::types::Duration> {
        slots.lock().expect("probe lock").last().copied()
    }

    impl crate::scheduler::Scheduler for SlotProbe {
        fn update_prediction(&mut self, _: &crate::distribution::PredictionSummary) {}
        fn next_block(&mut self, _: usize, _: Option<usize>) -> Option<crate::types::BlockRef> {
            None
        }
        /// Never called: the probe emits no block to refuse.
        fn drop_unsent(&mut self, _: crate::types::BlockRef) {}
        fn set_slot_duration(&mut self, slot: crate::types::Duration) {
            self.slots.lock().expect("probe lock").push(slot);
        }
        fn simulated_cache(&self) -> HashMap<RequestId, u32> {
            HashMap::new()
        }
        fn prediction_updates(&self) -> u64 {
            0
        }
    }

    /// Applies one message to both managers and both drains; panics on any
    /// per-session divergence.
    struct ParityRig {
        cat: Arc<ResponseCatalog>,
        single: SessionManager,
        sharded: ShardedSessionManager,
        live: Vec<SessionId>,
        added: u64,
        /// One [`SlotProbe`] session per shard (and its twin in `single`),
        /// never closed or removed: block sequences barely depend on slot
        /// durations, so these are what notices a shard left on a stale
        /// budget.
        probes: Vec<(SlotLog, SlotLog)>,
        /// What fixes the model each live session holds, for those that
        /// have predicted: the prediction, and — standing in for the slot
        /// duration it was installed at — the session's weight and the
        /// first probe's slot at that moment.
        held: HashMap<SessionId, (u32, u64, Option<crate::types::Duration>)>,
        weights: HashMap<SessionId, f64>,
    }

    impl ParityRig {
        /// Both runtimes over `shards` shards, every manager's backend
        /// reporting the concurrency limit `limit`.
        fn new(shards: usize, limit: Option<usize>) -> Self {
            let cat = catalog();
            let mut single = limited_manager(&cat, limit);
            let shard_cat = cat.clone();
            let mut sharded =
                ShardedSessionManager::spawn(shards, move |_| limited_manager(&shard_cat, limit));
            let probes: Vec<(SlotLog, SlotLog)> = (0..shards).map(|_| Default::default()).collect();
            for (shard, (in_single, in_sharded)) in probes.iter().enumerate() {
                let weight = 1.0 + shard as f64 / 2.0;
                let id = single.add_session(probed(&cat, weight, in_single));
                assert_eq!(sharded.add_session(probed(&cat, weight, in_sharded)), id);
                assert_eq!(sharded.route.get(&id).copied(), Some(shard));
            }
            ParityRig {
                cat,
                single,
                sharded,
                live: Vec::new(),
                added: 0,
                probes,
                held: HashMap::new(),
                weights: HashMap::new(),
            }
        }

        fn add(&mut self, weight: f64) {
            let seed = self.added;
            self.added += 1;
            let a = self.single.add_session(builder(&self.cat, weight, seed));
            let b = self.sharded.add_session(builder(&self.cat, weight, seed));
            assert_eq!(a, b, "id allocation diverged");
            self.live.push(a);
            self.weights.insert(a, weight);
            self.check();
        }

        /// Moves session `id` to `spread_prediction(base)`.
        fn predict(&mut self, id: SessionId, base: u32) {
            self.message(id, &ClientMessage::Predictor(spread_prediction(base)));
            let slot = last_slot(&self.probes[0].0);
            self.held
                .insert(id, (base % N as u32, self.weights[&id].to_bits(), slot));
        }

        fn message(&mut self, id: SessionId, message: &ClientMessage) {
            self.single.on_message(id, message, Time::ZERO);
            self.sharded.on_message(id, message, Time::ZERO);
            if matches!(message, ClientMessage::Close) {
                self.live.retain(|sid| *sid != id);
                self.held.remove(&id);
            }
            self.check();
        }

        fn remove(&mut self, id: SessionId) {
            assert!(self.single.remove_session(id));
            assert!(self.sharded.remove_session(id));
            self.live.retain(|sid| *sid != id);
            self.held.remove(&id);
            self.check();
        }

        /// The single manager's invariants; every shard worker checks its
        /// own manager after each command it serves.
        fn check(&self) {
            assert_eq!(self.single.check(), Ok(()));
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
            for (shard, (in_single, in_sharded)) in self.probes.iter().enumerate() {
                assert_eq!(
                    last_slot(in_single),
                    last_slot(in_sharded),
                    "shard {shard} drained on a stale budget"
                );
            }
            self.check();
            // Dedup does not depend on when a session re-predicted or on
            // what it held before: one model per distinct (prediction, slot
            // duration) held — at most distinct predictions × distinct slot
            // durations — plus the uniform prior of those yet to predict.
            let mut distinct: Vec<_> = self.held.values().collect();
            distinct.sort_unstable();
            distinct.dedup();
            let bound = distinct.len() + usize::from(self.held.len() < self.live.len());
            let (in_single, in_sharded) = (self.single.live_models(), self.sharded.live_models());
            assert!(in_single <= bound, "{in_single} models, {bound} distinct");
            assert!(in_sharded <= bound, "{in_sharded} models, {bound} distinct");
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
        assert_eq!(mgr.num_sessions(), 7);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(mgr.route.get(id).copied(), Some(i % 3));
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
        for limit in [None, Some(2)] {
            fixed_scenario(limit);
        }
    }

    fn fixed_scenario(limit: Option<usize>) {
        let mut rig = ParityRig::new(3, limit);
        for weight in [1.0, 2.0, 1.0, 3.0, 1.0] {
            rig.add(weight);
        }
        let ids = rig.live.clone();
        for (i, id) in ids.iter().enumerate() {
            rig.predict(*id, i as u32);
        }
        // The three weight-1 sessions meet on one prediction, coming from
        // three different ones, one of them by way of a fourth.
        rig.predict(ids[2], 9);
        for id in [ids[0], ids[2], ids[4]] {
            rig.predict(id, 5);
        }
        assert_eq!(rig.single.live_models(), 3, "1, 3, and 0/2/4 together");
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
        rig.predict(joined, 7);
        rig.message(
            ids[0],
            &ClientMessage::RateReport(Bandwidth::from_mbps(9.0)),
        );
        rig.drain_and_compare();
    }

    #[test]
    fn coordinator_budget_starts_as_the_factorys() {
        let cat = catalog();
        let factory_cat = cat.clone();
        let mut mgr = ShardedSessionManager::spawn(2, move |_| {
            single_manager(&factory_cat)
                .with_initial_bandwidth(Bandwidth::from_mbps(2.0))
                .with_bandwidth_cap(Bandwidth::from_mbps(3.0))
        });
        assert_eq!(mgr.bandwidth_estimate(), Bandwidth::from_mbps(2.0));
        let id = mgr.add_session(builder(&cat, 1.0, 0));
        let report = ClientMessage::RateReport(Bandwidth::from_mbps(100.0));
        mgr.on_message(id, &report, Time::ZERO);
        assert_eq!(mgr.bandwidth_estimate(), Bandwidth::from_mbps(3.0));
    }

    #[test]
    fn ignored_rate_report_moves_nothing_through_the_coordinator() {
        // `RateReport(0.0)`: the session's estimator ignores it on its
        // shard, and the coordinator's fold must add no sample either.
        let cat = catalog();
        let mut single = single_manager(&cat);
        let mut sharded = sharded_manager(&cat, 2);
        let probes: Vec<(SlotLog, SlotLog)> = (0..3).map(|_| Default::default()).collect();
        let mut ids = Vec::new();
        for (i, (in_single, in_sharded)) in probes.iter().enumerate() {
            let weight = 1.0 + i as f64;
            ids.push(single.add_session(probed(&cat, weight, in_single)));
            sharded.add_session(probed(&cat, weight, in_sharded));
        }
        let report = |mbps: f64| ClientMessage::RateReport(Bandwidth::from_mbps(mbps));
        for (k, &id) in ids.iter().cycle().take(7).enumerate() {
            single.on_message(id, &report(2.0 + k as f64), Time::ZERO);
            sharded.on_message(id, &report(2.0 + k as f64), Time::ZERO);
        }
        let before = sharded.bandwidth_estimate().0.to_bits();
        assert_eq!(before, single.bandwidth_estimate().0.to_bits());
        for &id in &ids {
            assert_eq!(sharded.on_message(id, &report(0.0), Time::ZERO), None);
            assert_eq!(sharded.bandwidth_estimate().0.to_bits(), before);
        }
        // Neither the shared window nor any session's slid: the next real
        // report lands where it does in a manager that never saw the zeros.
        single.on_message(ids[1], &report(4.5), Time::ZERO);
        sharded.on_message(ids[1], &report(4.5), Time::ZERO);
        assert_eq!(
            sharded.bandwidth_estimate().0.to_bits(),
            single.bandwidth_estimate().0.to_bits()
        );
        assert!(sharded.pump(Time::ZERO, 4).is_empty());
        assert!(single.next_event(Time::ZERO).is_idle());
        for (id, (in_single, in_sharded)) in ids.iter().zip(&probes) {
            assert_eq!(last_slot(in_single), last_slot(in_sharded), "slot of {id}");
        }
    }

    #[test]
    fn a_budget_epoch_reaches_a_shard_once_and_only_before_it_is_sent_a_command() {
        const SHARDS: usize = 3;
        const REPORTS: usize = 5;
        let cat = catalog();
        let mut single = single_manager(&cat);
        let mut sharded = sharded_manager(&cat, SHARDS);
        // Six sessions, two per shard; each records the slot durations its
        // scheduler is given, on both runtimes.
        let probes: Vec<(SlotLog, SlotLog)> = (0..6).map(|_| Default::default()).collect();
        let mut ids = Vec::new();
        for (i, (in_single, in_sharded)) in probes.iter().enumerate() {
            let weight = 1.0 + (i % 3) as f64;
            ids.push(single.add_session(probed(&cat, weight, in_single)));
            assert_eq!(
                sharded.add_session(probed(&cat, weight, in_sharded)),
                ids[i]
            );
        }
        // The pump's reply follows everything sent before it, so after it
        // the counters are settled.
        assert!(sharded.pump(Time::ZERO, 4).is_empty());
        let settled = budgets_applied(&sharded);

        // `REPORTS` rate reports to sessions of shard 0, each starting an
        // epoch and none of them able to observe one: no shard is sent a
        // `SetBudget`, shard 0 included.  A report is not answered, so the
        // counters are read after the pump below.
        let report = |mbps: f64| ClientMessage::RateReport(Bandwidth::from_mbps(mbps));
        for k in 0..REPORTS {
            let id = ids[[0, 3][k % 2]];
            assert_eq!(sharded.route.get(&id).copied(), Some(0));
            single.on_message(id, &report(2.0 + k as f64), Time::ZERO);
            sharded.on_message(id, &report(2.0 + k as f64), Time::ZERO);
        }
        // One observing command to shard 1, a predictor message: the
        // `SetBudget` for the `REPORTS` epochs it sat out goes in front.
        assert_eq!(sharded.route.get(&ids[1]).copied(), Some(1));
        let predict = ClientMessage::Predictor(spread_prediction(1));
        single.on_message(ids[1], &predict, Time::ZERO);
        sharded.on_message(ids[1], &predict, Time::ZERO);

        // A pump is an observing command to every shard.  Shards 0 and 2
        // are brought into the current epoch in front of it, shard 1 is
        // there already: one `SetBudget` each since the reports began, where
        // a report that brought its own shard up to date would have cost
        // shard 0 `REPORTS - 1` more.
        assert!(sharded.pump(Time::ZERO, 4).is_empty());
        let after_pump = budgets_applied(&sharded);
        for shard in 0..SHARDS {
            assert_eq!(after_pump[shard], settled[shard] + 1, "shard {shard}");
        }
        // A second pump, and a stats read, in the same epoch send none.
        assert!(sharded.pump(Time::ZERO, 4).is_empty());
        assert_eq!(sharded.stats().totals.sessions, 6);
        assert_eq!(budgets_applied(&sharded), after_pump);

        // What every session's scheduler ends up with is what the single
        // manager, which re-divided at every report, gave it.
        assert!(single.next_event(Time::ZERO).is_idle());
        for (id, (in_single, in_sharded)) in ids.iter().zip(&probes) {
            assert_eq!(last_slot(in_single), last_slot(in_sharded), "slot of {id}");
            assert!(last_slot(in_single).is_some());
        }
    }

    #[test]
    fn a_burst_of_reports_costs_each_shard_one_budget_at_its_next_observing_command() {
        // One benchmark round in small: 2 shards × 100 sessions, 20 rate
        // reports, 10 re-predictions, then pumps.
        let mut rig = ParityRig::new(2, None);
        for i in 0..200 {
            rig.add(1.0 + (i % 5) as f64 / 2.0);
        }
        let ids = rig.live.clone();
        for (i, id) in ids.iter().enumerate() {
            rig.predict(*id, i as u32 % 16);
        }
        assert!(rig.drain_and_compare() > 0);
        let settled = budgets_applied(&rig.sharded);

        for k in 0..20 {
            let rate = Bandwidth::from_mbps(2.0 + (k % 7) as f64);
            rig.message(ids[k * 9 % 200], &ClientMessage::RateReport(rate));
        }
        for k in 0..10 {
            rig.predict(ids[k * 19 % 200], 3 + k as u32);
        }
        // The first pump of the drain settles the counters; the later ones
        // are in its epoch.  Each shard was brought up to date once — in
        // front of its first re-prediction — not once per report.
        assert!(rig.drain_and_compare() > 0);
        let after = budgets_applied(&rig.sharded);
        for shard in 0..2 {
            assert_eq!(after[shard], settled[shard] + 1, "shard {shard}");
        }
    }

    #[test]
    fn one_sessions_reports_slide_its_window_alike_on_both_runtimes() {
        let mut rig = ParityRig::new(2, None);
        for weight in [1.0, 2.5, 1.0, 3.0] {
            rig.add(weight);
        }
        let ids = rig.live.clone();
        for (i, id) in ids.iter().enumerate() {
            rig.predict(*id, i as u32);
        }
        rig.drain_and_compare();
        // Six reports in a row from one session: the sixth evicts the first
        // from its window of five, in the session and in the coordinator's
        // copy of its estimator alike.
        for mbps in [3.0, 11.0, 0.5, 7.25, 2.0, 19.0] {
            let report = ClientMessage::RateReport(Bandwidth::from_mbps(mbps));
            rig.message(ids[1], &report);
            assert_eq!(
                rig.sharded.bandwidth_estimate().0.to_bits(),
                rig.single.bandwidth_estimate().0.to_bits()
            );
        }
        // Another member's report counts the six-time reporter at its
        // estimate, which now depends on the window having slid.
        let report = ClientMessage::RateReport(Bandwidth::from_mbps(4.0));
        rig.message(ids[2], &report);
        assert_eq!(
            rig.sharded.bandwidth_estimate().0.to_bits(),
            rig.single.bandwidth_estimate().0.to_bits()
        );
        rig.predict(ids[0], 9);
        rig.drain_and_compare();
    }

    /// A delta off a generation no session ever installed.
    fn refused_delta() -> ClientMessage {
        ClientMessage::PredictorDelta(crate::delta::PredictionDelta {
            base_generation: 7,
            generation: 8,
            generated_at: Time::ZERO,
            slices: Vec::new(),
        })
    }

    #[test]
    fn a_refused_deltas_resync_surfaces_once_at_the_next_pump_ahead_of_its_sessions_blocks() {
        let cat = catalog();
        let mut mgr = sharded_manager(&cat, 2);
        let ids: Vec<SessionId> = (0..4)
            .map(|i| mgr.add_session(builder(&cat, 1.0, i)))
            .collect();
        assert_eq!(mgr.on_message(ids[1], &refused_delta(), Time::ZERO), None);
        let predict = ClientMessage::Predictor(spread_prediction(2));
        assert_eq!(mgr.on_message(ids[1], &predict, Time::ZERO), None);
        // The shard has served the delta by the time it answers a stats
        // read, and a stats read carries no event.
        assert_eq!(mgr.stats().totals.resync_requests, 1);

        let events = mgr.pump(Time::ZERO, 8);
        let resync = ServerEvent::Resync { session: ids[1] };
        let resyncs = events.iter().filter(|e| **e == resync).count();
        assert_eq!(resyncs, 1);
        let at = events.iter().position(|e| *e == resync);
        let first_block = events
            .iter()
            .position(|e| matches!(e, ServerEvent::Block { session, .. } if *session == ids[1]));
        assert!(first_block.is_some(), "session {} was served", ids[1]);
        assert!(
            at < first_block,
            "resync at {at:?}, block at {first_block:?}"
        );
        let later = mgr.pump_until_idle(Time::ZERO, 64);
        assert!(!later.contains(&resync));
    }

    /// Forty messages nobody answers, to sessions of shard 0.
    fn unanswered_burst(mgr: &mut ShardedSessionManager, to: &[SessionId]) {
        for k in 0..40 {
            let id = to[k % to.len()];
            assert_eq!(mgr.route.get(&id).copied(), Some(0));
            let message = match k % 3 {
                0 => ClientMessage::Predictor(spread_prediction(k as u32)),
                1 => ClientMessage::RateReport(Bandwidth::from_mbps(1.0 + k as f64)),
                _ => refused_delta(),
            };
            assert_eq!(mgr.on_message(id, &message, Time::ZERO), None);
        }
    }

    #[test]
    fn a_departure_straight_after_unanswered_messages_reads_its_own_reply() {
        let cat = catalog();
        let mut mgr = sharded_manager(&cat, 2);
        let ids: Vec<SessionId> = (0..6)
            .map(|i| mgr.add_session(builder(&cat, 1.0, i)))
            .collect();
        let on_shard_0 = [ids[0], ids[2], ids[4]];
        unanswered_burst(&mut mgr, &on_shard_0);
        assert!(mgr.remove_session(ids[0]));
        assert!(!mgr.remove_session(ids[0]));
        unanswered_burst(&mut mgr, &on_shard_0[1..]);
        let closed = ServerEvent::Closed { session: ids[2] };
        assert_eq!(
            mgr.on_message(ids[2], &ClientMessage::Close, Time::ZERO),
            Some(closed)
        );
        assert_eq!(
            mgr.on_message(ids[2], &ClientMessage::Close, Time::ZERO),
            None
        );
        unanswered_burst(&mut mgr, &on_shard_0[2..]);
        assert_eq!(mgr.num_sessions(), 4);
        assert_eq!(mgr.stats().totals.sessions, 4);
    }

    #[test]
    fn dropping_the_manager_with_unanswered_messages_in_flight_joins_its_shards() {
        let cat = catalog();
        let mut mgr = sharded_manager(&cat, 2);
        let ids: Vec<SessionId> = (0..6)
            .map(|i| mgr.add_session(builder(&cat, 1.0, i)))
            .collect();
        let models = mgr.model_cache().clone();
        for _ in 0..5 {
            unanswered_burst(&mut mgr, &[ids[0], ids[2], ids[4]]);
        }
        drop(mgr);
        // Joined, not detached: every shard has served its queue, dropped
        // its manager and with it the sessions' models.
        assert_eq!(models.live_models(), 0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// What the coordinator keeps of a session instead of asking its
            /// shard — the builder's estimator, fed the reports it forwards,
            /// and the builder's weight — is what the built session holds,
            /// after the build and after every report, ignored ones
            /// (`≤ 0`) and repeats included.
            #[test]
            fn builder_share_is_the_built_sessions(
                initial in 1u32..400,
                weight in 1u32..10_000,
                reports in proptest::collection::vec(-40i32..400, 0..13),
            ) {
                let mut builder = builder(&catalog(), f64::from(weight) / 64.0, 0);
                builder.cfg.initial_bandwidth = Bandwidth::from_mbps(f64::from(initial) / 8.0);
                let mut mirror = builder.bandwidth_estimator();
                let share_weight = builder.weight;
                let mut session = builder.build();
                prop_assert_eq!(share_weight.to_bits(), session.weight().to_bits());
                prop_assert_eq!(
                    mirror.estimate().bytes_per_sec().to_bits(),
                    session.bandwidth_estimate().bytes_per_sec().to_bits()
                );
                for report in reports {
                    // Eighths rounded toward zero: zeros, negatives, repeats.
                    let rate = Bandwidth::from_mbps(f64::from(report / 8) / 4.0);
                    mirror.report_rate(rate);
                    session.on_rate_report(rate);
                    prop_assert_eq!(
                        mirror.estimate().bytes_per_sec().to_bits(),
                        session.bandwidth_estimate().bytes_per_sec().to_bits()
                    );
                }
            }
        }

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
                        rig.predict(rig.live[a as usize % rig.live.len()], b);
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
                // Remove a live session through the coordinator.
                4 => {
                    if !rig.live.is_empty() {
                        rig.remove(rig.live[a as usize % rig.live.len()]);
                    }
                }
                // A run of budget changes with no pump in between — the
                // window in which the coordinator tells no shard anything:
                // joins, removals and rate reports, `1..=8` of them.
                5 => {
                    let mut bits = b;
                    for _ in 0..=a % 8 {
                        apply(rig, [0, 3, 4, 3][bits as usize % 4], bits >> 2, bits >> 5);
                        bits = bits.rotate_right(7) ^ a;
                    }
                }
                // Re-predictions out of step: `1..=8` sessions move to one
                // prediction, each by way of a detour of its own, so they
                // meet on it at different rounds, coming from different ones.
                6 => {
                    let mut bits = b;
                    for _ in 0..=a % 8 {
                        if !rig.live.is_empty() {
                            let id = rig.live[bits as usize % rig.live.len()];
                            rig.predict(id, 3 + (bits >> 8) % 5);
                            rig.predict(id, a % 3);
                        }
                        bits = bits.rotate_right(7) ^ a;
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

        /// Replays `ops` on `shards` shards under the backend concurrency
        /// limit `limit` (none when it is 0), draining and comparing at the
        /// end.
        fn run(shards: usize, limit: usize, ops: &[(u8, u32, u32)]) {
            let mut rig = ParityRig::new(shards, (limit > 0).then_some(limit));
            for weight in [1.0, 2.0, 1.0] {
                rig.add(weight);
            }
            for &(kind, a, b) in ops {
                apply(&mut rig, kind, a, b);
            }
            rig.drain_and_compare();
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 12 })]

            /// The tentpole determinism guarantee: a fixed-seed sharded run
            /// produces per-session block sequences identical to the
            /// single-threaded manager's, across adds, closes, removals,
            /// prediction churn (in step and out of it), rate reports, runs
            /// of budget changes that reach no shard until the next pump,
            /// and drain points, with no backend concurrency limit or one
            /// of 1–4 — and neither side holds more models than there are
            /// distinct predictions held.
            #[test]
            fn sharded_matches_single_threaded(
                shards in 2usize..5,
                limit in 0usize..=4,
                ops in proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..24),
            ) {
                run(shards, limit, &ops);
            }
        }

        /// The proptest's harness over a fixed case stream (CI's "Parity
        /// sweep" step): `cargo test --release -p khameleon-core --lib
        /// sharded_parity_sweep -- --ignored`.  Cases run one after
        /// another, so at most four shard threads are alive at once.
        #[test]
        #[ignore = "a fixed stream of 2k cases"]
        fn sharded_parity_sweep() {
            let mut state = 13_579u64;
            let mut next = || {
                state = (state.wrapping_mul(6_364_136_223_846_793_005))
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as u32
            };
            for _ in 0..2_000 {
                let shards = next() as usize % 3 + 2;
                let limit = next() as usize % 5;
                let len = next() as usize % 23 + 1;
                let ops: Vec<(u8, u32, u32)> = (0..len)
                    .map(|_| ((next() % 8) as u8, next(), next()))
                    .collect();
                run(shards, limit, &ops);
            }
        }
    }
}
