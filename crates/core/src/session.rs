//! Multi-client sessions: per-client scheduling state multiplexed over one
//! shared backend and one shared bandwidth budget.
//!
//! The paper's server is a multiplexer: every connected client gets its own
//! scheduler, server-side predictor, and simulated cache, while the backend
//! and the outgoing link are shared: the link is divided between clients,
//! and the backend's concurrency limit shapes each client's schedule on its
//! own (§3.2, §5.4).  This module provides that layer:
//!
//! * [`Session`] — everything private to one client: a boxed
//!   [`Scheduler`], a [`ServerPredictor`], the bandwidth/rate state and the
//!   sender queue.
//! * [`SessionManager`] — owns N sessions plus the shared [`Backend`], and
//!   divides the link between them by weighted-fair queueing: the sessions
//!   that may still have work sit in an index ordered by weighted service,
//!   so every call to [`next_event`](SessionManager::next_event) reads
//!   whose block goes on the wire next off the front of that order instead
//!   of re-deriving it from a scan of the fleet.  A session can be taken
//!   out of scheduling whole and put back later
//!   ([`detach_session`](SessionManager::detach_session) /
//!   [`attach_session`](SessionManager::attach_session)); what happens to it
//!   in between — the transport parks it behind a resume token with a TTL —
//!   is the caller's business, not the manager's.
//!
//! A single-client deployment is a `SessionManager` holding one session
//! ([`ServerBuilder::build`](crate::server::ServerBuilder::build)), so one
//! client and many run the same code; the tests pin it, bit for bit, to the
//! paper's single-client server — a bare [`Session`] and a backend driven
//! by hand.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

use crate::bandwidth::{weighted_share, BandwidthEstimator};
use crate::block::{BlockMeta, ResponseCatalog};
use crate::delta::{PredictionDelta, ShadowSummary};
use crate::distribution::PredictionSummary;
use crate::predictor::simple::SimpleServerPredictor;
use crate::predictor::{PredictorState, ServerPredictor};
use crate::protocol::{ClientMessage, ServerEvent, SessionId};
use crate::scheduler::{GreedyContext, GreedyScheduler, ModelCache, Scheduler};
use crate::server::{Backend, ServerConfig};
use crate::types::{Bandwidth, BlockRef, Duration, RequestId, Time};
use crate::utility::UtilityModel;

/// Per-client server state: scheduler, predictor, bandwidth, sender queue.
///
/// A `Session` never touches the backend or the wire itself — it yields
/// [`BlockRef`]s through [`next_block_ref`](Session::next_block_ref) and is
/// told what actually went out via [`commit`](Session::commit).  That split
/// is what lets the [`SessionManager`] arbitrate a shared link between many
/// sessions.
pub struct Session {
    scheduler: Box<dyn Scheduler>,
    predictor: Box<dyn ServerPredictor>,
    catalog: Arc<ResponseCatalog>,
    bandwidth: BandwidthEstimator,
    queue: VecDeque<BlockRef>,
    queue_target: usize,
    blocks_sent: u64,
    bytes_sent: u64,
    weight: f64,
    /// Virtual-time anchor set by the [`SessionManager`] when this session
    /// joins: weighted-fair arbitration sees `blocks_sent + service_base`,
    /// so a late joiner starts at the wire's current service level.
    service_base: u64,
    /// Server-side mirror of the client's last full prediction summary,
    /// patched in place by [`ClientMessage::PredictorDelta`]s (see
    /// [`crate::delta`]).  Empty until the client sends a
    /// [`ClientMessage::PredictorFull`].
    shadow: ShadowSummary,
    /// Prediction updates that arrived as deltas and were applied.
    delta_updates: u64,
    /// Deltas refused (generation mismatch / malformed), each answered with
    /// a resync request.
    resync_requests: u64,
    closed: bool,
    /// Memo that the last [`next_block_ref`] returned `None` and nothing has
    /// since arrived that could create work.  The manager mirrors this flag
    /// in its ready index — a session is in the index exactly while the
    /// flag is clear — so a drained session costs nothing per block until
    /// something re-opens it.  Cleared by every protocol message and every
    /// slot-duration change (the only inputs that can re-open a drained
    /// scheduler).
    ///
    /// [`next_block_ref`]: Session::next_block_ref
    exhausted: bool,
}

/// What a protocol message did to the session, as far as the caller's event
/// stream is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageOutcome {
    /// The message was absorbed; no client-visible event is needed.
    Handled,
    /// A prediction delta could not be applied (generation mismatch or
    /// malformed): the client must resend a full summary.  Transports
    /// surface this as [`ServerEvent::Resync`].
    NeedsResync,
}

impl Session {
    /// Starts building a session for the given utility model and catalog.
    pub fn builder(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> SessionBuilder {
        SessionBuilder::new(utility, catalog)
    }

    /// Handles one protocol message from this session's client.
    pub fn on_message(&mut self, message: &ClientMessage, now: Time) -> MessageOutcome {
        self.exhausted = false;
        match message {
            ClientMessage::Predictor(state) => {
                self.on_predictor_state(state, now);
                MessageOutcome::Handled
            }
            ClientMessage::PredictorFull {
                generation,
                summary,
            } => {
                self.on_predictor_full(*generation, summary);
                MessageOutcome::Handled
            }
            ClientMessage::PredictorDelta(delta) => self.on_predictor_delta(delta),
            ClientMessage::RateReport(rate) => {
                self.on_rate_report(*rate);
                MessageOutcome::Handled
            }
            ClientMessage::Close => {
                self.closed = true;
                MessageOutcome::Handled
            }
        }
    }

    /// Decodes a predictor-state message and re-plans the unsent tail of the
    /// schedule (§5.3.2).
    pub fn on_predictor_state(&mut self, state: &PredictorState, now: Time) {
        let summary = self.predictor.decode(state, now);
        // Opaque predictor states and deltas must not interleave: the shadow
        // no longer matches any client-side generation, so force a resync if
        // the client switches back to the delta path.
        self.shadow.clear();
        // Queued (scheduled but unsent) blocks are rolled back and re-planned.
        self.queue.clear();
        self.scheduler.update_prediction(&summary);
    }

    /// Installs a full prediction summary at `generation` as the delta base
    /// and re-plans the unsent tail of the schedule.
    pub fn on_predictor_full(&mut self, generation: u64, summary: &PredictionSummary) {
        self.shadow.install(generation, summary.clone());
        self.queue.clear();
        self.scheduler.update_prediction(summary);
    }

    /// Applies a prediction delta against the shadow summary and re-plans
    /// through the scheduler's diff path (`O(Δ)`) — or, when the shadow
    /// cannot certify the changed-set, by installing the patched summary.
    /// Returns [`MessageOutcome::NeedsResync`] if the delta's base
    /// generation does not match the shadow, leaving the schedule running
    /// on the last applied prediction.
    pub fn on_predictor_delta(&mut self, delta: &PredictionDelta) -> MessageOutcome {
        match self.shadow.apply_to(delta, &mut *self.scheduler) {
            Ok(()) => {
                self.queue.clear();
                self.delta_updates += 1;
                MessageOutcome::Handled
            }
            Err(_) => {
                self.resync_requests += 1;
                MessageOutcome::NeedsResync
            }
        }
    }

    /// Applies a receive-rate report to this session's bandwidth estimate
    /// (§5.4) and re-calibrates the scheduler's slot duration.
    pub fn on_rate_report(&mut self, rate: Bandwidth) {
        self.bandwidth.report_rate(rate);
        self.scheduler
            .set_slot_duration(self.bandwidth.slot_duration(self.max_block_size()));
    }

    /// The next block reference the sender should push for this session, or
    /// `None` when nothing useful remains.  `concurrency_limit` is the
    /// backend's limit: a refill of the sender queue draws from at most that
    /// many distinct requests (§5.4).
    pub fn next_block_ref(&mut self, concurrency_limit: Option<usize>) -> Option<BlockRef> {
        if self.closed {
            self.exhausted = true;
            return None;
        }
        if self.queue.is_empty() {
            self.refill_queue(concurrency_limit);
        }
        let block = self.queue.pop_front();
        if block.is_none() {
            self.exhausted = true;
        }
        block
    }

    /// Records that `meta` was placed on the wire and confirms it to the
    /// scheduler.
    pub fn commit(&mut self, meta: &BlockMeta) {
        self.scheduler.note_sent(meta.block);
        self.blocks_sent += 1;
        self.bytes_sent += meta.size;
    }

    /// The backend could not resolve `refused`, a block this session
    /// returned: drops it with every other block drawn but not committed
    /// (the sender queue), rolls them back in the scheduler and keeps
    /// `refused`'s request out of the draw until the next prediction
    /// ([`Scheduler::drop_unsent`]).
    pub fn drop_unsent(&mut self, refused: BlockRef) {
        self.queue.clear();
        self.scheduler.drop_unsent(refused);
    }

    fn refill_queue(&mut self, concurrency_limit: Option<usize>) {
        if self.queue.len() >= self.queue_target {
            return;
        }
        let want = self.queue_target - self.queue.len();
        let batch = self.scheduler.next_batch(want, concurrency_limit);
        self.queue.extend(batch);
    }

    fn max_block_size(&self) -> u64 {
        self.catalog.max_block_size().max(1)
    }

    /// The current bandwidth estimate for this session's downlink.
    pub fn bandwidth_estimate(&self) -> Bandwidth {
        self.bandwidth.estimate()
    }

    /// Time the sender should wait between blocks to pace this session at
    /// its estimated bandwidth.
    pub fn pacing_interval(&self) -> Duration {
        self.bandwidth.slot_duration(self.max_block_size())
    }

    /// Directly re-calibrates the scheduler's slot duration (used by the
    /// manager when dividing shared bandwidth between sessions).
    pub fn set_slot_duration(&mut self, slot: Duration) {
        self.exhausted = false;
        self.scheduler.set_slot_duration(slot);
    }

    /// The scheduler's view of this client's cache.
    pub fn simulated_cache(&self) -> HashMap<RequestId, u32> {
        self.scheduler.simulated_cache()
    }

    /// Total blocks sent on behalf of this session.
    pub fn blocks_sent(&self) -> u64 {
        self.blocks_sent
    }

    /// Total bytes sent on behalf of this session.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Prediction updates that arrived as deltas and were applied (sparse
    /// or full path; see [`crate::delta`]).
    pub fn delta_updates(&self) -> u64 {
        self.delta_updates
    }

    /// Deltas refused with a resync request (generation mismatch or
    /// malformed payload).
    pub fn resync_requests(&self) -> u64 {
        self.resync_requests
    }

    /// Number of prediction updates the scheduler has applied.
    pub fn prediction_updates(&self) -> u64 {
        self.scheduler.prediction_updates()
    }

    /// Prediction deltas the scheduler absorbed as a model diff instead of
    /// an install (see [`Scheduler::diff_applied_updates`]).
    pub fn diff_applied_updates(&self) -> u64 {
        self.scheduler.diff_applied_updates()
    }

    /// Live weight entries resident in the scheduler's sampler (see
    /// [`Scheduler::sampler_entries`]).
    pub fn sampler_entries(&self) -> usize {
        self.scheduler.sampler_entries()
    }

    /// The scheduler driving this session.
    // lint:allow(unreferenced-pub) -- tests/session_api.rs checks which scheduler a session runs
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Attaches a runtime invariant auditor to the scheduler (no-op for
    /// schedulers without audit support; see [`crate::audit`]).
    #[cfg(feature = "audit")]
    pub fn audit_attach(&mut self, cfg: crate::audit::AuditConfig) {
        self.scheduler.audit_attach(cfg);
    }

    /// The scheduler's accumulated audit report, when an auditor is
    /// attached.
    #[cfg(feature = "audit")]
    pub fn audit_report(&self) -> Option<crate::audit::AuditReport> {
        self.scheduler.audit_report()
    }

    /// The share weight: both the bandwidth division and weighted-fair
    /// arbitration give this session a slice proportional to it.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The fair-queueing service counter: blocks sent plus the virtual-time
    /// anchor assigned when this session joined its manager.
    pub fn service(&self) -> u64 {
        self.blocks_sent + self.service_base
    }

    /// The catalog this session serves from.
    pub fn catalog(&self) -> &Arc<ResponseCatalog> {
        &self.catalog
    }
}

/// Fluent constructor for [`Session`]s (and, via
/// [`ServerBuilder`](crate::server::ServerBuilder), single-client servers).
pub struct SessionBuilder {
    pub(crate) cfg: ServerConfig,
    utility: UtilityModel,
    pub(crate) catalog: Arc<ResponseCatalog>,
    scheduler: Option<Box<dyn Scheduler>>,
    predictor: Option<Box<dyn ServerPredictor>>,
    /// Shared catalog/utility-derived scheduler context; when absent the
    /// default greedy scheduler derives its own.  [`SessionManager`] fills
    /// this from its per-`(utility value, catalog)` cache so N sessions
    /// share one `O(n)` context.
    greedy_context: Option<Arc<GreedyContext>>,
    /// Shared prediction-model dedup registry; when present, the default
    /// greedy scheduler resolves full model builds through it so sessions
    /// with bit-identical predictions share one `HorizonModel`.
    /// [`SessionManager`] fills this from its own cache.
    model_cache: Option<Arc<ModelCache>>,
    pub(crate) weight: f64,
}

impl SessionBuilder {
    /// Starts a builder with default configuration: greedy scheduler, simple
    /// server predictor, unit share weight.
    pub fn new(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> Self {
        SessionBuilder {
            cfg: ServerConfig::default(),
            utility,
            catalog,
            scheduler: None,
            predictor: None,
            greedy_context: None,
            model_cache: None,
            weight: 1.0,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: ServerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Uses a custom scheduler instead of the default [`GreedyScheduler`].
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Uses a custom server-side predictor component instead of the default
    /// [`SimpleServerPredictor`].
    pub fn predictor(mut self, predictor: Box<dyn ServerPredictor>) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Reuses a shared [`GreedyContext`] for the default greedy scheduler
    /// instead of deriving a per-session copy.  The scheduler prices blocks
    /// with the context's utility model, so [`build`](Self::build) panics
    /// unless it is equal by value to this builder's
    /// ([`UtilityModel::same_tables`]).
    #[cfg(test)]
    pub(crate) fn greedy_context(mut self, ctx: Arc<GreedyContext>) -> Self {
        self.greedy_context = Some(ctx);
        self
    }

    /// Resolves the default greedy scheduler's full model rebuilds through a
    /// shared [`ModelCache`], deduplicating `HorizonModel`s across sessions
    /// with bit-identical predictions (see [`crate::scheduler::dedup`]).
    #[cfg(test)]
    pub(crate) fn model_cache(mut self, cache: Arc<ModelCache>) -> Self {
        self.model_cache = Some(cache);
        self
    }

    /// Sets the share weight (default 1.0): the session's slice of the
    /// shared bandwidth and of the wire's blocks is proportional to it.
    pub fn weight(mut self, weight: f64) -> Self {
        // One infinite weight would turn every other session's share into
        // `w / ∞ = 0` and its own into `∞ / ∞ = NaN`.
        assert!(
            weight > 0.0 && weight.is_finite(),
            "session weight must be positive and finite"
        );
        self.weight = weight;
        self
    }

    /// The bandwidth estimator the built session starts from.  The shard
    /// coordinator keeps its own copy per session and feeds it the reports
    /// it forwards, so neither a join nor a report waits for the owning
    /// shard to say what the session's estimate is.
    pub(crate) fn bandwidth_estimator(&self) -> BandwidthEstimator {
        BandwidthEstimator::new(self.cfg.initial_bandwidth)
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        let bandwidth = self.bandwidth_estimator();
        let SessionBuilder {
            cfg,
            utility,
            catalog,
            scheduler,
            predictor,
            greedy_context,
            model_cache,
            weight,
        } = self;
        let slot = bandwidth.slot_duration(catalog.max_block_size().max(1));
        let scheduler = match scheduler {
            Some(mut s) => {
                s.set_slot_duration(slot);
                s
            }
            None => {
                let mut scheduler_cfg = cfg.scheduler.clone();
                scheduler_cfg.slot_duration = slot;
                let ctx = greedy_context
                    .unwrap_or_else(|| Arc::new(GreedyContext::new(&utility, &catalog)));
                assert!(
                    ctx.utility().same_tables(&utility),
                    "shared context derived for a different utility model"
                );
                Box::new(GreedyScheduler::with_context_and_cache(
                    scheduler_cfg,
                    catalog.clone(),
                    ctx,
                    model_cache,
                ))
            }
        };
        let predictor = predictor
            .unwrap_or_else(|| Box::new(SimpleServerPredictor::new(catalog.num_requests())));
        Session {
            scheduler,
            predictor,
            catalog,
            bandwidth,
            queue: VecDeque::new(),
            queue_target: cfg.sender_queue_target.max(1),
            blocks_sent: 0,
            bytes_sent: 0,
            weight,
            service_base: 0,
            shadow: ShadowSummary::new(),
            delta_updates: 0,
            resync_requests: 0,
            closed: false,
            exhausted: false,
        }
    }
}

/// A ready-index entry: a session's [`fair_key`] and its id.  The derived
/// tuple order — key first, id as the tiebreak — is the order in which a
/// [`SessionManager`] offers sessions the wire.
type ReadyEntry = (u64, SessionId);

/// Multiplexes N client sessions over one shared backend and one shared
/// bandwidth budget.
///
/// Each call to [`next_event`](SessionManager::next_event) produces at most
/// one block — the manager is the single point where the shared link is
/// allocated, so whose block it picks *is* the bandwidth split.  The pick is
/// virtual-time weighted-fair queueing at block granularity: the block goes
/// to the session with the lowest weighted service `(service + 1) / weight`
/// (`service` anchored at the wire's virtual time when the session joins),
/// ties to the lower id — so always-ready sessions of equal weight are
/// served in ascending-id rotation.  The order is read off a persistent
/// *ready index* (the live sessions that may still have work, in that
/// order) which is updated where the order can change — a join, a
/// departure, a block served, a session draining or being re-opened — so
/// the cost of a block does not grow with the fleet.  Incoming
/// protocol messages are routed to their session with
/// [`on_message`](SessionManager::on_message); rate reports additionally
/// update the shared estimate and re-divide per-session slot durations by
/// weight.
pub struct SessionManager {
    /// Live sessions, ascending by id: the id lookups
    /// ([`position`](Self::position)) rely on it.
    sessions: Vec<(SessionId, Session)>,
    /// The ready index: one [`ReadyEntry`] per live session whose
    /// `exhausted` flag is clear, under the key its current service gives
    /// it.  Everything that adds or removes a session, serves it a block
    /// or flips its flag updates the index in the same call
    /// ([`check`](Self::check) compares it against a rebuild).
    ready: BTreeSet<ReadyEntry>,
    next_id: u64,
    backend: Box<dyn Backend>,
    pub(crate) shared_bandwidth: BandwidthEstimator,
    /// One shared [`GreedyContext`] per distinct `(utility value, catalog)`
    /// pair: the utility model, utility-class catalog and per-request block
    /// counts are session-independent, so N sessions over the same catalog
    /// share one `O(n)` derivation instead of each computing its own, even
    /// when each brings its own equal `UtilityModel`.  The catalog is
    /// matched by `Arc` identity, not value: comparing catalogs is `O(n)`,
    /// and a caller that builds one catalog per session already pays
    /// `O(n)` per session.
    context_cache: Vec<(Arc<ResponseCatalog>, Arc<GreedyContext>)>,
    /// Shared prediction-model dedup registry handed to every
    /// default-scheduler session (see [`crate::scheduler::dedup`]).  Owned
    /// per manager by default; [`set_model_cache`](Self::set_model_cache)
    /// replaces it so shards of a
    /// [`ShardedSessionManager`](crate::shard::ShardedSessionManager) share
    /// one registry across threads.
    model_cache: Arc<ModelCache>,
    /// Set once a budget was pushed
    /// ([`set_shared_budget`](Self::set_shared_budget)): from then on rate
    /// reports update only their session's estimate here, and
    /// [`redivide_bandwidth`](Self::redivide_bandwidth) divides by this
    /// denominator instead of the local weight sum — under sharding the
    /// *global* one, so slot durations come out bit-identical to the
    /// single-threaded division.
    weight_denominator: Option<f64>,
    /// Largest `max_block_size` over the live sessions' catalogs (at least
    /// 1), refreshed by [`redivide_bandwidth`](Self::redivide_bandwidth) at
    /// every membership change so
    /// [`pacing_interval`](Self::pacing_interval) is a field read.
    max_block_size: u64,
    blocks_sent: u64,
    bytes_sent: u64,
}

impl SessionManager {
    /// Creates a manager over `backend`, dividing the wire between its
    /// sessions by weighted-fair queueing.
    pub fn weighted_fair(backend: Box<dyn Backend>) -> Self {
        SessionManager {
            sessions: Vec::new(),
            ready: BTreeSet::new(),
            next_id: 0,
            backend,
            shared_bandwidth: BandwidthEstimator::new(ServerConfig::default().initial_bandwidth),
            context_cache: Vec::new(),
            model_cache: ModelCache::new(),
            weight_denominator: None,
            max_block_size: 1,
            blocks_sent: 0,
            bytes_sent: 0,
        }
    }

    /// Caps the shared outgoing bandwidth budget.
    pub fn with_bandwidth_cap(mut self, cap: Bandwidth) -> Self {
        self.shared_bandwidth.set_cap(Some(cap));
        self.redivide_bandwidth();
        self
    }

    /// Sets the shared estimate used before any rate report arrives (the
    /// default is [`ServerConfig::default`]'s `initial_bandwidth`).
    pub fn with_initial_bandwidth(mut self, initial: Bandwidth) -> Self {
        self.reseed_shared_bandwidth(initial);
        self.redivide_bandwidth();
        self
    }

    /// Restarts the shared estimator from `estimate`, keeping its cap.
    fn reseed_shared_bandwidth(&mut self, estimate: Bandwidth) {
        let cap = self.shared_bandwidth.cap();
        self.shared_bandwidth = BandwidthEstimator::new(estimate);
        self.shared_bandwidth.set_cap(cap);
    }

    /// Adds a session and returns its id.
    ///
    /// The new session is anchored at the current virtual service time: its
    /// fair-queueing counter starts from the service frontier (the
    /// *most*-served live session's weighted service), so it shares the wire
    /// from the join point onward instead of monopolizing it until its
    /// lifetime count catches up.  The maximum — not the minimum — is used
    /// because an exhausted or idle session's counter freezes below the
    /// frontier and would otherwise drag every later joiner's anchor down
    /// with it; active sessions under fair arbitration all sit within one
    /// block of the frontier anyway.
    pub fn add_session(&mut self, builder: SessionBuilder) -> SessionId {
        let id = SessionId(self.next_id);
        self.add_session_with_id(id, builder)
    }

    /// Adds a session under a caller-chosen id (the sharded coordinator
    /// allocates globally unique ids across shard-local managers).  Panics
    /// if the id is already live; bumps the internal id allocator past `id`
    /// so a later [`add_session`](Self::add_session) cannot collide.
    pub fn add_session_with_id(&mut self, id: SessionId, mut builder: SessionBuilder) -> SessionId {
        if builder.scheduler.is_none() && builder.greedy_context.is_none() {
            builder.greedy_context = Some(self.context_for(&builder.utility, &builder.catalog));
        }
        if builder.scheduler.is_none() && builder.model_cache.is_none() {
            builder.model_cache = Some(self.model_cache.clone());
        }
        // A fresh session has no service: attaching anchors it at the frontier.
        self.attach_session(id, builder.build());
        id
    }

    /// The live service frontier — the most-served session's weighted
    /// service — or `None` with no live session.
    fn service_frontier(&self) -> Option<f64> {
        let frontier = self
            .sessions
            .iter()
            .map(|(_, s)| s.service() as f64 / s.weight().max(f64::EPSILON))
            .fold(f64::NEG_INFINITY, f64::max);
        frontier.is_finite().then_some(frontier)
    }

    /// Binary search of the live table: `Ok(index)` of session `id`, or
    /// `Err(index)` where it would be inserted to keep the table ascending.
    fn position(&self, id: SessionId) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&id, |(sid, _)| *sid)
    }

    /// The ready-index entry of the session at `pos`, from its service as
    /// it stands now.
    fn ready_entry(&self, pos: usize) -> ReadyEntry {
        let (id, session) = &self.sessions[pos];
        (fair_key(session), *id)
    }

    /// The shared scheduler context for `(utility, catalog)`, derived once
    /// and cached by utility value ([`UtilityModel::same_tables`]) and
    /// catalog identity (`Arc` pointer equality).
    fn context_for(
        &mut self,
        utility: &UtilityModel,
        catalog: &Arc<ResponseCatalog>,
    ) -> Arc<GreedyContext> {
        // Drop entries no scheduler holds any more (only the cache's own
        // Arc left): without this, a server whose clients each bring a
        // fresh catalog Arc would pin every dead context — and its catalog
        // — forever.
        self.context_cache
            .retain(|(_, ctx)| Arc::strong_count(ctx) > 1);
        for (c, ctx) in &self.context_cache {
            if Arc::ptr_eq(c, catalog) && ctx.utility().same_tables(utility) {
                return ctx.clone();
            }
        }
        let ctx = Arc::new(GreedyContext::new(utility, catalog));
        self.context_cache.push((catalog.clone(), ctx.clone()));
        ctx
    }

    /// Number of shared scheduler contexts the manager holds (diagnostic;
    /// one per distinct `(utility value, catalog)` pair, dead ones pruned
    /// at the next derivation).
    pub fn shared_context_count(&self) -> usize {
        self.context_cache.len()
    }

    /// Replaces the prediction-model dedup registry.  Sharded deployments
    /// call this at spawn time so every shard resolves models through one
    /// shared registry; must be called before sessions are added (models
    /// already resolved through the old registry are left untouched).
    pub fn set_model_cache(&mut self, cache: Arc<ModelCache>) {
        self.model_cache = cache;
    }

    /// The prediction-model dedup registry serving this manager's sessions.
    pub fn model_cache(&self) -> &Arc<ModelCache> {
        &self.model_cache
    }

    /// Number of distinct live `HorizonModel`s across this manager's
    /// sessions — under dedup, sublinear in session count.
    pub fn live_models(&self) -> usize {
        self.model_cache.live_models()
    }

    /// Installs an externally computed bandwidth budget, whose owner (a
    /// shard coordinator, which sees every shard's sessions) folds the rate
    /// reports from now on: `total` becomes the shared estimate and
    /// per-session shares divide by `weight_denominator` instead of the
    /// local weight sum.  With the global weight sum as
    /// denominator, a shard's division is bit-identical to the
    /// single-threaded manager's (`slot_i = total · w_i / Σ_global w`) —
    /// the foundation of the sharded-vs-single parity guarantee.
    pub fn set_shared_budget(&mut self, total: Bandwidth, weight_denominator: f64) {
        self.reseed_shared_bandwidth(total);
        self.weight_denominator = Some(weight_denominator);
        self.redivide_bandwidth();
    }

    /// Snapshot of this manager's counters in the cross-shard
    /// [`ShardSnapshot`](crate::shard::ShardSnapshot) shape — the shard
    /// worker's reply to a stats request, and equally usable on a
    /// standalone manager.  `blocks_sent` and `bytes_sent` are the
    /// manager's lifetime totals, removed sessions' sends included; the
    /// per-session counters sum over live sessions only (identically on
    /// both paths).
    pub fn stats_snapshot(&self) -> crate::shard::ShardSnapshot {
        let mut snap = crate::shard::ShardSnapshot {
            sessions: self.sessions.len(),
            blocks_sent: self.blocks_sent,
            bytes_sent: self.bytes_sent,
            shared_context_count: self.context_cache.len(),
            ..Default::default()
        };
        for (_, session) in &self.sessions {
            snap.prediction_updates += session.prediction_updates();
            snap.diff_applied_updates += session.diff_applied_updates();
            snap.sampler_entries += session.sampler_entries();
            snap.resync_requests += session.resync_requests();
            snap.delta_updates += session.delta_updates();
            #[cfg(feature = "audit")]
            if let Some(report) = session.audit_report() {
                snap.audit_violations += report.total_violations();
            }
        }
        snap
    }

    /// Removes a session.  Returns `true` if it existed.
    pub fn remove_session(&mut self, id: SessionId) -> bool {
        self.detach_session(id).is_some()
    }

    /// Detaches session `id` from scheduling without destroying it and
    /// hands it to the caller: the [`Session`] keeps its scheduler state,
    /// prediction history, shadow summary and model-cache refcounts, but
    /// gets no wire slots or bandwidth share until it is given back through
    /// [`attach_session`](Self::attach_session).  Dropping it instead is a
    /// full teardown.  `None` if `id` is not live.  (The transport's resume
    /// table parks sessions this way; see `docs/RESILIENCE.md`.)
    pub fn detach_session(&mut self, id: SessionId) -> Option<Session> {
        let pos = self.position(id).ok()?;
        if !self.sessions[pos].1.exhausted {
            self.ready.remove(&self.ready_entry(pos));
        }
        let (_, session) = self.sessions.remove(pos);
        self.redivide_bandwidth();
        Some(session)
    }

    /// Attaches a built session under `id`: one just built (every join ends
    /// here) or one taken out by [`detach_session`](Self::detach_session),
    /// under its old id.  Panics if `id` is live.
    ///
    /// The session's fair-queueing anchor is re-based *upward only*: if the
    /// live service frontier moved past it while detached, its counter
    /// jumps to the frontier so it cannot monopolize the wire replaying its
    /// deficit; if it is alone (or already at the frontier) the anchor is
    /// untouched, so a single-session detach/attach cycle is bit-exact with
    /// an uninterrupted run.
    pub fn attach_session(&mut self, id: SessionId, mut session: Session) {
        let Err(at) = self.position(id) else {
            panic!("session id {id} is already live");
        };
        self.next_id = self.next_id.max(id.0 + 1);
        if let Some(frontier) = self.service_frontier() {
            let target = (frontier * session.weight()).floor() as u64;
            let current = session.service();
            if current < target {
                session.service_base += target - current;
            }
        }
        // Keyed from the re-based service.  A session detached while drained
        // joins the index when the re-division below re-opens it.
        let drained = session.exhausted;
        self.sessions.insert(at, (id, session));
        if !drained {
            self.ready.insert(self.ready_entry(at));
        }
        self.redivide_bandwidth();
    }

    /// Routes one protocol message to its session.  Returns the resulting
    /// event, if the message produced one (`Close` yields
    /// [`ServerEvent::Closed`], a refused delta yields
    /// [`ServerEvent::Resync`]); `None` for unknown sessions.
    pub fn on_message(
        &mut self,
        id: SessionId,
        message: &ClientMessage,
        now: Time,
    ) -> Option<ServerEvent> {
        let pos = self.position(id).ok()?;
        // Every message clears the session's `exhausted` flag, so a drained
        // session is back in the ready index before anything else happens.
        let was_drained = self.sessions[pos].1.exhausted;
        let outcome = self.sessions[pos].1.on_message(message, now);
        if was_drained {
            self.ready.insert(self.ready_entry(pos));
        }
        match message {
            ClientMessage::Close => {
                self.remove_session(id);
                Some(ServerEvent::Closed { session: id })
            }
            ClientMessage::RateReport(rate) => {
                // Rate reports also feed the shared budget, unless one was
                // pushed: its owner runs the same fold over every shard's
                // sessions and pushes the corrected division.
                if self.weight_denominator.is_none() {
                    let estimates = self
                        .sessions
                        .iter()
                        .map(|(sid, s)| (*sid, s.bandwidth_estimate().bytes_per_sec()));
                    self.shared_bandwidth.fold_report(estimates, id, *rate);
                    self.redivide_bandwidth();
                }
                None
            }
            ClientMessage::Predictor(_)
            | ClientMessage::PredictorFull { .. }
            | ClientMessage::PredictorDelta(_) => match outcome {
                MessageOutcome::NeedsResync => Some(ServerEvent::Resync { session: id }),
                MessageOutcome::Handled => None,
            },
        }
    }

    /// Produces the next block to put on the shared wire, or
    /// [`ServerEvent::Idle`] when no session has useful work.
    ///
    /// The ready index is walked in weighted-fair order from its lowest
    /// entry and the first session that yields a block is served, in
    /// `O(log sessions)` without allocating.  A session that turns out to
    /// be drained leaves the index on the way, so it is not asked again
    /// until a message or a slot-duration change re-opens it.  A block the
    /// backend refuses takes its request out of the session's draw
    /// ([`Session::drop_unsent`]) and the same session is asked again, so
    /// `Idle` is final: every eligible session has drained, and only new
    /// input can yield a block.
    ///
    /// The backend's concurrency limit is each session's own allowance: a
    /// refill of one session's sender queue names at most `limit` distinct
    /// requests (the §5.4 single-client rule).  It is not divided between
    /// sessions, so N sessions may name up to N × `limit` distinct requests
    /// in one refill round.
    pub fn next_event(&mut self, _now: Time) -> ServerEvent {
        self.pick(None)
    }

    /// [`next_event`](SessionManager::next_event) restricted to the sessions
    /// in `eligible` (ascending by id).  Transport servers use this to keep
    /// backpressured connections — whose bounded outbound queues are full —
    /// out of arbitration entirely: the walk passes over everything else
    /// without offering it the wire (one step per ready session passed
    /// over), so a slow consumer's share flows to live connections instead
    /// of accumulating in memory, and no scheduler state is mutated for
    /// blocks that could not be queued.
    pub fn next_event_among(&mut self, _now: Time, eligible: &[SessionId]) -> ServerEvent {
        debug_assert!(
            eligible.windows(2).all(|w| w[0] < w[1]),
            "eligible session list must be ascending"
        );
        self.pick(Some(eligible))
    }

    /// The first ready entry strictly after `after` (the lowest with `None`).
    fn next_ready(&self, after: Option<ReadyEntry>) -> Option<ReadyEntry> {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        self.ready.range((from, Bound::Unbounded)).next().copied()
    }

    /// The one arbitration routine: walks the ready index in weighted-fair
    /// order, passing over sessions `eligible` excludes, and serves the
    /// first session that yields a block.
    fn pick(&mut self, eligible: Option<&[SessionId]>) -> ServerEvent {
        let limit = self.backend.concurrency_limit();
        let mut after = None;
        while let Some(entry) = self.next_ready(after) {
            after = Some(entry);
            let id = entry.1;
            if eligible.is_some_and(|eligible| eligible.binary_search(&id).is_err()) {
                continue;
            }
            let Ok(pos) = self.position(id) else {
                unreachable!("ready index names session {id}, which is not live");
            };
            let session = &mut self.sessions[pos].1;
            let mut refusals = 0;
            while let Some(block_ref) = session.next_block_ref(limit) {
                if let Some(block) = self.backend.fetch(block_ref) {
                    session.commit(&block.meta);
                    // The one key a block moves is its recipient's.
                    let served = self.ready_entry(pos);
                    if served != entry {
                        self.ready.remove(&entry);
                        self.ready.insert(served);
                    }
                    self.blocks_sent += 1;
                    self.bytes_sent += block.meta.size;
                    return ServerEvent::Block { session: id, block };
                }
                // The refused request leaves the session's draw, so the
                // next ask makes progress.  A scheduler that ignores that
                // contract is cut off after one refusal per request.
                session.drop_unsent(block_ref);
                refusals += 1;
                if refusals >= session.catalog.num_requests() {
                    session.exhausted = true;
                    break;
                }
            }
            debug_assert!(session.exhausted);
            self.ready.remove(&entry);
        }
        ServerEvent::Idle
    }

    /// Re-divides the shared bandwidth estimate between sessions by weight,
    /// updating each scheduler's slot duration.  The weight denominator is
    /// the local weight sum, unless a pushed budget supplied the global one
    /// (see [`set_shared_budget`](Self::set_shared_budget)).
    /// Every change to the live table ends here, so this is also where the
    /// cached [`max_block_size`](Self::max_block_size) is refreshed.
    fn redivide_bandwidth(&mut self) {
        self.max_block_size = self
            .sessions
            .iter()
            .map(|(_, s)| s.max_block_size())
            .max()
            .unwrap_or(1);
        let total_weight: f64 = self
            .weight_denominator
            .unwrap_or_else(|| self.sessions.iter().map(|(_, s)| s.weight()).sum());
        if total_weight <= 0.0 {
            return;
        }
        let total = self.shared_bandwidth.estimate();
        for (id, session) in &mut self.sessions {
            let share = weighted_share(total, session.weight(), total_weight);
            let slot = share.transmit_time(session.max_block_size());
            // A new slot duration re-opens a drained session.
            let was_drained = session.exhausted;
            session.set_slot_duration(slot);
            if was_drained {
                self.ready.insert((fair_key(session), *id));
            }
        }
    }

    /// Time the sender should wait between consecutive blocks to pace the
    /// shared wire at the estimated total bandwidth.
    pub fn pacing_interval(&self) -> Duration {
        self.shared_bandwidth.slot_duration(self.max_block_size)
    }

    /// The shared bandwidth estimate.
    pub fn bandwidth_estimate(&self) -> Bandwidth {
        self.shared_bandwidth.estimate()
    }

    /// Number of live sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Ids of the live sessions, ascending.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.iter().map(|(id, _)| *id).collect()
    }

    /// A live session by id.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.position(id).ok().map(|pos| &self.sessions[pos].1)
    }

    /// Total blocks sent across all sessions.
    pub fn blocks_sent(&self) -> u64 {
        self.blocks_sent
    }

    /// Total bytes sent across all sessions.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// The ready index rebuilt from the live table: an entry, under the key
    /// recomputed from its service, for every session not marked exhausted.
    fn rebuilt_ready(&self) -> BTreeSet<ReadyEntry> {
        (0..self.sessions.len())
            .filter(|&pos| !self.sessions[pos].1.exhausted)
            .map(|pos| self.ready_entry(pos))
            .collect()
    }

    /// Checks the manager's structural invariants: the live table ascends
    /// by id, and the ready index holds exactly the live sessions not
    /// marked exhausted, each under the key its service gives it now.  The
    /// differential test, the shard-parity property test and the
    /// interleaving explorer call this after every operation.
    pub fn check(&self) -> Result<(), String> {
        if !self.sessions.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("live table is not strictly ascending by id".to_string());
        }
        let rebuilt = self.rebuilt_ready();
        if rebuilt != self.ready {
            let stale: Vec<_> = self.ready.difference(&rebuilt).collect();
            let missing: Vec<_> = rebuilt.difference(&self.ready).collect();
            return Err(format!(
                "ready index drift: holds {stale:?} that a rebuild does not, lacks {missing:?}"
            ));
        }
        Ok(())
    }
}

/// The session's place in the weighted-fair order: the bit pattern of the
/// weighted service it would reach with one more block, `(service + 1) /
/// weight`.  Finite and non-negative (weights are positive and finite), so
/// the bits order exactly as the float does.
fn fair_key(session: &Session) -> u64 {
    let virtual_finish = (session.service() + 1) as f64 / session.weight().max(f64::EPSILON);
    virtual_finish.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::GreedySchedulerConfig;
    use crate::server::CatalogBackend;
    use crate::utility::{GainTable, LinearUtility, PowerUtility, UtilityFunction};

    fn catalog(n: usize, blocks: u32) -> Arc<ResponseCatalog> {
        Arc::new(ResponseCatalog::uniform(n, blocks, 10_000))
    }

    fn utility(blocks: u32) -> UtilityModel {
        UtilityModel::homogeneous(&LinearUtility, blocks)
    }

    fn manager_with(weights: &[f64], n: usize, blocks: u32) -> (SessionManager, Vec<SessionId>) {
        let cat = catalog(n, blocks);
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
        let ids = weights
            .iter()
            .map(|&w| {
                mgr.add_session(
                    Session::builder(utility(blocks), cat.clone())
                        .config(ServerConfig {
                            scheduler: GreedySchedulerConfig {
                                cache_blocks: (n * blocks as usize).max(64),
                                ..Default::default()
                            },
                            ..Default::default()
                        })
                        .weight(w),
                )
            })
            .collect();
        (mgr, ids)
    }

    fn drive(mgr: &mut SessionManager, steps: usize) -> HashMap<SessionId, usize> {
        let mut counts = HashMap::new();
        for _ in 0..steps {
            match mgr.next_event(Time::ZERO) {
                ServerEvent::Block { session, .. } => *counts.entry(session).or_insert(0) += 1,
                ServerEvent::Idle => break,
                ServerEvent::Closed { .. } | ServerEvent::Resync { .. } | ServerEvent::Busy => {}
            }
        }
        counts
    }

    #[test]
    fn round_robin_splits_evenly() {
        // Always-ready sessions of equal weight tie on weighted service
        // whenever each has had as many blocks as the others, and ties go to
        // the lower id: the pick order is the rotation 0, 1, 2, 0, 1, 2, ….
        let (mut mgr, ids) = manager_with(&[1.0, 1.0, 1.0], 100, 10);
        for step in 0..300 {
            match mgr.next_event(Time::ZERO) {
                ServerEvent::Block { session, .. } => {
                    assert_eq!(session, ids[step % 3], "pick {step} left the rotation")
                }
                other => panic!("pick {step}: every session had work, got {other:?}"),
            }
        }
    }

    #[test]
    fn round_robin_serves_sessions_added_out_of_id_order() {
        // Explicit ids may arrive in any order (the transport's resume path
        // re-admits old ids next to fresh ones); equal-weight sessions still
        // split the wire evenly, whichever joined first.
        let cat = catalog(100, 10);
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
        for id in [5, 3] {
            mgr.add_session_with_id(SessionId(id), Session::builder(utility(10), cat.clone()));
        }
        assert_eq!(mgr.session_ids(), vec![SessionId(3), SessionId(5)]);
        let counts = drive(&mut mgr, 40);
        assert_eq!(counts.get(&SessionId(3)), Some(&20), "counts {counts:?}");
        assert_eq!(counts.get(&SessionId(5)), Some(&20), "counts {counts:?}");
    }

    #[test]
    fn weighted_fair_honours_weights() {
        let (mut mgr, ids) = manager_with(&[2.0, 1.0], 100, 10);
        let counts = drive(&mut mgr, 300);
        let heavy = counts[&ids[0]] as f64;
        let light = counts[&ids[1]] as f64;
        assert_eq!(heavy + light, 300.0);
        let ratio = heavy / light;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "expected a 2:1 split, got {heavy}:{light} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn sessions_track_independent_predictions() {
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 50, 4);
        mgr.on_message(
            ids[0],
            &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(7))),
            Time::ZERO,
        );
        mgr.on_message(
            ids[1],
            &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(33))),
            Time::ZERO,
        );
        // First few blocks for each session go to its own predicted request.
        let mut firsts: HashMap<SessionId, Vec<RequestId>> = HashMap::new();
        for _ in 0..8 {
            if let ServerEvent::Block { session, block } = mgr.next_event(Time::ZERO) {
                firsts
                    .entry(session)
                    .or_default()
                    .push(block.meta.block.request);
            }
        }
        assert!(firsts[&ids[0]].contains(&RequestId(7)));
        assert!(firsts[&ids[1]].contains(&RequestId(33)));
        assert!(!firsts[&ids[0]].contains(&RequestId(33)));
        assert_eq!(mgr.session(ids[0]).unwrap().prediction_updates(), 1);
    }

    #[test]
    fn close_message_removes_session() {
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 20, 2);
        assert_eq!(mgr.num_sessions(), 2);
        let ev = mgr.on_message(ids[0], &ClientMessage::Close, Time::ZERO);
        assert_eq!(ev, Some(ServerEvent::Closed { session: ids[0] }));
        assert_eq!(mgr.num_sessions(), 1);
        assert!(mgr.session(ids[0]).is_none());
        // Remaining session still streams.
        assert!(matches!(
            mgr.next_event(Time::ZERO),
            ServerEvent::Block { session, .. } if session == ids[1]
        ));
        // Messages to the removed session are rejected.
        assert_eq!(
            mgr.on_message(
                ids[0],
                &ClientMessage::RateReport(Bandwidth::from_mbps(1.0)),
                Time::ZERO
            ),
            None
        );
    }

    #[test]
    fn rate_reports_redivide_shared_bandwidth() {
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 20, 2);
        let before = mgr.pacing_interval();
        // Each client observes only its own share of the wire; once both
        // report a low rate, the shared estimate (their sum) drops and the
        // shared pacing slows down.
        for &id in &ids {
            mgr.on_message(
                id,
                &ClientMessage::RateReport(Bandwidth::from_mbps(0.5)),
                Time::ZERO,
            );
        }
        let after = mgr.pacing_interval();
        assert!(after > before, "shared pacing should slow down");
        let estimate = mgr.bandwidth_estimate().as_mbps();
        // The total reflects the *sum* of per-session rates (≥ 1.0 Mbps
        // before smoothing), not a single client's 0.5 Mbps share.
        assert!(
            estimate > 0.9 && estimate < 5.625,
            "shared estimate {estimate} should sit between one client's share and the initial estimate"
        );
    }

    #[test]
    fn exhausted_session_does_not_drag_down_the_join_anchor() {
        // Session A exhausts a tiny catalog early and stalls; session B keeps
        // streaming a large one.  A later joiner must be anchored at the
        // service frontier (B), not at A's frozen counter, or it would
        // monopolize the wire until it catches B up.
        let small = catalog(2, 2);
        let big = catalog(100, 10);
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(big.clone())));
        let full_cache = |n: usize| ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks: n,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = mgr.add_session(Session::builder(utility(2), small).config(full_cache(16)));
        let b =
            mgr.add_session(Session::builder(utility(10), big.clone()).config(full_cache(1000)));
        // Drain: A exhausts its 4 blocks quickly, B absorbs the rest.
        for _ in 0..104 {
            let _ = mgr.next_event(Time::ZERO);
        }
        assert!(mgr.session(a).unwrap().blocks_sent() <= 4);
        assert!(mgr.session(b).unwrap().blocks_sent() >= 90);
        // C joins: it must share with B immediately, not receive ~100
        // consecutive catch-up blocks.
        let c = mgr.add_session(Session::builder(utility(10), big).config(full_cache(1000)));
        let counts = drive(&mut mgr, 60);
        let c_share = counts.get(&c).copied().unwrap_or(0);
        assert!(
            (20..=40).contains(&c_share),
            "joiner took {c_share}/60 blocks next to an exhausted session (counts {counts:?})"
        );
    }

    #[test]
    fn late_joining_session_does_not_monopolize_weighted_fair() {
        let cat = catalog(100, 10);
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
        let full_cache = ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks: 1000,
                ..Default::default()
            },
            ..Default::default()
        };
        let a =
            mgr.add_session(Session::builder(utility(10), cat.clone()).config(full_cache.clone()));
        // A alone receives 100 blocks of service.
        for _ in 0..100 {
            assert!(matches!(
                mgr.next_event(Time::ZERO),
                ServerEvent::Block { session, .. } if session == a
            ));
        }
        // B joins with equal weight: it must be anchored at the current
        // virtual time and *share* the wire, not receive 100 consecutive
        // catch-up blocks.
        let b = mgr.add_session(Session::builder(utility(10), cat).config(full_cache));
        let counts = drive(&mut mgr, 100);
        let b_share = counts.get(&b).copied().unwrap_or(0);
        assert!(
            (40..=60).contains(&b_share),
            "late joiner took {b_share}/100 blocks (expected ~50)"
        );
        assert!(counts.get(&a).copied().unwrap_or(0) >= 40);
    }

    struct LimitedCatalog {
        inner: CatalogBackend,
        limit: usize,
    }

    impl Backend for LimitedCatalog {
        fn fetch(&mut self, block: BlockRef) -> Option<crate::block::Block> {
            self.inner.fetch(block)
        }
        fn concurrency_limit(&self) -> Option<usize> {
            Some(self.limit)
        }
    }

    #[test]
    fn sessions_share_one_scheduler_context_per_catalog() {
        // The utility-class catalog / block-count context is derived from
        // `(utility, catalog)` only; sessions with equal utility models (by
        // value, however each was built) over one catalog `Arc` must share
        // one Arc'd context instead of re-deriving O(n) state each.
        let n = 50;
        let cat = catalog(n, 4);
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
        for _ in 0..3 {
            mgr.add_session(Session::builder(utility(4), cat.clone()));
        }
        assert_eq!(mgr.shared_context_count(), 1);
        // One Arc held by the cache plus one per session's scheduler.
        assert_eq!(Arc::strong_count(&mgr.context_cache[0].1), 4);

        // Per-request models compare table by table: two built separately
        // from the same curves share one context.
        let per_request = |last: &dyn UtilityFunction| {
            let mut tables = vec![GainTable::new(&LinearUtility, 4); n - 1];
            tables.push(GainTable::new(last, 4));
            UtilityModel::PerRequest(Arc::new(tables))
        };
        mgr.add_session(Session::builder(per_request(&LinearUtility), cat.clone()));
        mgr.add_session(Session::builder(per_request(&LinearUtility), cat.clone()));
        assert_eq!(mgr.shared_context_count(), 2);

        // A different curve, a different block count, or one request's
        // table differing in its last gain alone each get their own.
        struct ShortLastBlock;
        impl UtilityFunction for ShortLastBlock {
            fn utility(&self, fraction: f64) -> f64 {
                fraction.min(0.999)
            }
        }
        let concave = UtilityModel::homogeneous(&PowerUtility::new(0.5), 4);
        mgr.add_session(Session::builder(concave, cat.clone()));
        assert_eq!(mgr.shared_context_count(), 3);
        mgr.add_session(Session::builder(utility(2), cat.clone()));
        assert_eq!(mgr.shared_context_count(), 4);
        mgr.add_session(Session::builder(per_request(&ShortLastBlock), cat.clone()));
        assert_eq!(mgr.shared_context_count(), 5);

        // A distinct catalog Arc gets its own, even with equal contents.
        mgr.add_session(Session::builder(utility(4), catalog(n, 4)));
        assert_eq!(mgr.shared_context_count(), 6);

        // Sessions with an explicit custom scheduler never touch the cache.
        let custom =
            GreedyScheduler::new(GreedySchedulerConfig::default(), utility(4), cat.clone());
        mgr.add_session(Session::builder(utility(4), cat).scheduler(Box::new(custom)));
        assert_eq!(mgr.shared_context_count(), 6);
        // Removing every session releases the contexts; the next derivation
        // prunes the dead entries instead of pinning them forever.
        for id in mgr.session_ids() {
            mgr.remove_session(id);
        }
        mgr.add_session(Session::builder(utility(4), catalog(n, 4)));
        assert_eq!(mgr.shared_context_count(), 1);
    }

    #[test]
    fn sessions_with_equal_utilities_schedule_as_with_one_shared_model() {
        // Sharing a context by value must not be visible in a schedule: a
        // manager whose sessions each bring their own equal `UtilityModel`
        // serves, block for block, what one whose sessions all clone a
        // single model serves, given the same seeds, messages and pumps.
        let n = 60u32;
        let cat = catalog(n as usize, 4);
        let curve = || UtilityModel::homogeneous(&PowerUtility::new(0.5), 4);
        let shared = curve();
        let run = |own_models: bool| {
            let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
            let ids: Vec<SessionId> = (0..4)
                .map(|i| {
                    let utility = if own_models { curve() } else { shared.clone() };
                    let cfg = ServerConfig {
                        scheduler: GreedySchedulerConfig {
                            cache_blocks: 64,
                            seed: 7 + i,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    mgr.add_session(Session::builder(utility, cat.clone()).config(cfg))
                })
                .collect();
            assert_eq!(mgr.shared_context_count(), 1);
            let mut blocks = Vec::new();
            for round in 0..6 {
                for (k, &id) in (0u32..).zip(&ids) {
                    let last = RequestId((round * 7 + k * 13) % n);
                    let msg = ClientMessage::Predictor(PredictorState::LastRequest(last));
                    mgr.on_message(id, &msg, Time::ZERO);
                }
                for _ in 0..40 {
                    if let ServerEvent::Block { session, block } = mgr.next_event(Time::ZERO) {
                        blocks.push((session, block.meta.block));
                    }
                }
            }
            blocks
        };
        let (cloned, own) = (run(false), run(true));
        let served: BTreeSet<SessionId> = cloned.iter().map(|(s, _)| *s).collect();
        assert_eq!(served.len(), 4, "every session is served");
        assert_eq!(cloned, own);
    }

    #[test]
    #[should_panic(expected = "shared context derived for a different utility model")]
    fn builder_refuses_a_context_derived_for_another_utility() {
        let cat = catalog(20, 4);
        let ctx = Arc::new(GreedyContext::new(&utility(4), &cat));
        let concave = UtilityModel::homogeneous(&PowerUtility::new(0.5), 4);
        Session::builder(concave, cat).greedy_context(ctx).build();
    }

    #[test]
    fn weighted_fair_requires_positive_weight() {
        // Zero and negative weights starve the session; NaN poisons every
        // comparison; one infinite weight zeroes every other session's
        // bandwidth share and makes its own `∞ / ∞`.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cat = catalog(4, 2);
            let result = std::panic::catch_unwind(|| Session::builder(utility(2), cat).weight(bad));
            assert!(result.is_err(), "weight {bad} must be refused");
        }
    }

    #[test]
    fn builder_adopts_the_cached_uniform_model_without_building_its_own() {
        // The builder resolves the uniform prior through the model cache,
        // building it once; the state must be the one a scheduler handed
        // the same cache directly reaches.
        let cat = catalog(40, 4);
        let shared = utility(4);
        let ctx = Arc::new(GreedyContext::new(&shared, &cat));
        let cache = ModelCache::new();
        let cfg = GreedySchedulerConfig {
            cache_blocks: 32,
            seed: 9,
            ..Default::default()
        };
        let mut built = Session::builder(shared.clone(), cat.clone())
            .config(ServerConfig {
                scheduler: cfg.clone(),
                ..Default::default()
            })
            .greedy_context(ctx.clone())
            .model_cache(cache.clone())
            .build();
        assert_eq!((cache.misses(), cache.hits()), (1, 0), "one model built");

        // The same scheduler configuration the builder derives: the slot
        // duration comes from the session's own initial estimate.
        let by_hand_cfg = GreedySchedulerConfig {
            slot_duration: built.pacing_interval(),
            ..cfg
        };
        let direct = GreedyScheduler::with_context_and_cache(
            by_hand_cfg,
            cat.clone(),
            ctx,
            Some(cache.clone()),
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 1), "adopted, not built");
        let mut by_hand = Session::builder(shared.clone(), cat)
            .scheduler(Box::new(direct))
            .build();
        assert_eq!(cache.live_models(), 1);

        for step in 0..64 {
            let (a, b) = (built.next_block_ref(None), by_hand.next_block_ref(None));
            assert_eq!(a, b, "draw {step} diverged");
            let Some(block) = a else {
                panic!("stalled at draw {step}");
            };
            let meta = built
                .catalog()
                .layout(block.request)
                .block_meta(block.index);
            let meta = meta.expect("scheduled blocks exist");
            built.commit(&meta);
            by_hand.commit(&meta);
        }
        drop(by_hand);
        assert_eq!(cache.live_models(), 1, "the built session shares it");
    }

    #[test]
    fn parked_session_is_invisible_until_resumed() {
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 50, 4);
        mgr.on_message(
            ids[0],
            &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(7))),
            Time::ZERO,
        );
        let parked = mgr.detach_session(ids[0]).expect("session was live");
        assert!(mgr.session(ids[0]).is_none());
        assert!(mgr.detach_session(ids[0]).is_none());
        assert_eq!(mgr.num_sessions(), 1);
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.sessions, 1, "a parked session is not counted live");
        assert_eq!(snap.prediction_updates, 0, "nor summed into the snapshot");
        // While parked, the session gets no wire slots.
        for _ in 0..10 {
            if let ServerEvent::Block { session, .. } = mgr.next_event(Time::ZERO) {
                assert_ne!(session, ids[0], "parked session must not be scheduled");
            }
        }
        // Resume re-attaches with prediction state intact: its first blocks
        // still target the request it predicted before parking.
        mgr.attach_session(ids[0], parked);
        assert_eq!(mgr.session_ids(), ids, "live table stays ascending by id");
        let mut served = Vec::new();
        for _ in 0..8 {
            if let ServerEvent::Block { session, block } = mgr.next_event(Time::ZERO) {
                if session == ids[0] {
                    served.push(block.meta.block.request);
                }
            }
        }
        assert!(
            served.contains(&RequestId(7)),
            "resumed session lost its prediction state: {served:?}"
        );
    }

    #[test]
    fn park_holds_model_cache_refcounts() {
        // Two sessions holding the same prediction share one model.
        // Parking one must keep the shared model alive; dropping the park
        // releases it.
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 50, 4);
        for &id in &ids {
            mgr.on_message(
                id,
                &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(3))),
                Time::ZERO,
            );
        }
        let live_before = mgr.live_models();
        assert!(live_before >= 1);
        let parked = mgr.detach_session(ids[0]).expect("session was live");
        assert_eq!(
            mgr.live_models(),
            live_before,
            "parking must hold model refcounts"
        );
        drop(parked);
        assert!(mgr.live_models() <= live_before);
        assert_eq!(mgr.num_sessions(), 1);
    }

    #[test]
    fn resume_reanchors_service_upward_only() {
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 100, 10);
        // Let both run, then park A and let B pull far ahead.
        drive(&mut mgr, 40);
        let service_at_park = mgr.session(ids[0]).unwrap().service();
        let parked = mgr.detach_session(ids[0]).expect("session was live");
        drive(&mut mgr, 60);
        mgr.attach_session(ids[0], parked);
        let resumed = mgr.session(ids[0]).unwrap().service();
        let frontier = mgr.session(ids[1]).unwrap().service();
        assert!(
            resumed >= service_at_park,
            "anchor must never move backwards"
        );
        assert!(
            resumed + 1 >= frontier,
            "resumed session must be re-anchored at the frontier ({resumed} vs {frontier})"
        );
        // A lone session resumes bit-exactly: no frontier, no re-anchor.
        let (mut solo, solo_ids) = manager_with(&[1.0], 20, 2);
        drive(&mut solo, 5);
        let before = solo.session(solo_ids[0]).unwrap().service();
        let parked = solo.detach_session(solo_ids[0]).expect("session was live");
        solo.attach_session(solo_ids[0], parked);
        assert_eq!(solo.session(solo_ids[0]).unwrap().service(), before);
    }
    /// Whether any session in `ids` is still in the ready index, i.e. may
    /// yield a block without new input.
    fn holds_work(mgr: &SessionManager, ids: &[SessionId]) -> bool {
        mgr.ready.iter().any(|(_, id)| ids.contains(id))
    }

    #[test]
    fn idle_is_final_only_when_every_eligible_session_is_exhausted() {
        let (mut mgr, ids) = manager_with(&[1.0, 1.0], 4, 2);
        assert!(holds_work(&mgr, &ids), "fresh sessions hold work");
        drive(&mut mgr, 1_000);
        assert!(mgr.next_event_among(Time::ZERO, &ids).is_idle());
        assert!(!holds_work(&mgr, &ids));
        // A message re-opens its own session and no other.
        mgr.on_message(
            ids[0],
            &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(1))),
            Time::ZERO,
        );
        assert!(holds_work(&mgr, &ids));
        assert!(!holds_work(&mgr, &ids[1..]));

        // Under a backend concurrency limit `Idle` is just as final.  Two
        // sessions drain after one request; the third takes one request per
        // refill (each session's allowance is the whole limit, 1) and drains
        // after ten.  Request 5 does not resolve: a refusal takes it out of
        // its session's draw, so `Idle` stays final over the hole too.
        struct LimitedWithHole {
            inner: CatalogBackend,
            fetched: Arc<std::sync::Mutex<Vec<BlockRef>>>,
        }
        impl Backend for LimitedWithHole {
            fn fetch(&mut self, block: BlockRef) -> Option<crate::block::Block> {
                self.fetched.lock().expect("fetch log").push(block);
                if block.request == RequestId(5) {
                    return None;
                }
                self.inner.fetch(block)
            }
            fn concurrency_limit(&self) -> Option<usize> {
                Some(1)
            }
        }
        let cat = catalog(20, 2);
        let fetched = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut limited = SessionManager::weighted_fair(Box::new(LimitedWithHole {
            inner: CatalogBackend::new(cat.clone()),
            fetched: fetched.clone(),
        }));
        let fetches = || {
            let log = fetched.lock().expect("fetch log");
            let refused = log.iter().filter(|b| b.request == RequestId(5)).count();
            (log.len(), refused)
        };
        // One block per refill, so every block needs an allowance of its own.
        let one_at_a_time = ServerConfig {
            sender_queue_target: 1,
            ..Default::default()
        };
        let ids: Vec<SessionId> = (0..3)
            .map(|_| {
                limited.add_session(
                    Session::builder(utility(2), cat.clone()).config(one_at_a_time.clone()),
                )
            })
            .collect();
        let certain = |requests: std::ops::Range<u32>| {
            let p = 1.0 / requests.len() as f64;
            let dist = crate::distribution::SparseDistribution::from_normalized(
                20,
                requests.map(|r| (RequestId(r), p)).collect(),
                0.0,
            );
            ClientMessage::Predictor(PredictorState::Summary(PredictionSummary::new(
                20,
                vec![crate::distribution::HorizonSlice {
                    delta: Duration::from_millis(50),
                    dist,
                }],
                Time::ZERO,
            )))
        };
        let drain = |limited: &mut SessionManager| {
            let mut counts: HashMap<SessionId, usize> = HashMap::new();
            while let ServerEvent::Block { session, .. } =
                limited.next_event_among(Time::ZERO, &ids)
            {
                *counts.entry(session).or_insert(0) += 1;
            }
            ids.iter()
                .map(|id| counts.get(id).copied().unwrap_or(0))
                .collect::<Vec<_>>()
        };
        limited.on_message(ids[0], &certain(0..1), Time::ZERO);
        limited.on_message(ids[1], &certain(1..2), Time::ZERO);
        limited.on_message(ids[2], &certain(10..20), Time::ZERO);
        assert_eq!(
            drain(&mut limited),
            [2, 2, 20],
            "every session drains its whole prediction"
        );
        assert!(!holds_work(&limited, &ids), "`Idle` under a limit is final");
        assert_eq!(fetches(), (24, 0));
        // A prediction over the hole: request 5 is refused once and leaves
        // the draw, its neighbours are served in full, and the `Idle` that
        // follows is final.
        limited.on_message(ids[0], &certain(4..7), Time::ZERO);
        assert_eq!(drain(&mut limited), [4, 0, 0]);
        assert_eq!(fetches(), (29, 1));
        assert!(!holds_work(&limited, &ids));
        for _ in 0..3 {
            assert!(limited.next_event_among(Time::ZERO, &ids).is_idle());
            assert_eq!(fetches(), (29, 1), "an ask after a final `Idle` fetched");
        }
        // Only a message re-opens the session, and the hole is tried again
        // under the new prediction.
        limited.on_message(ids[0], &certain(5..6), Time::ZERO);
        assert!(holds_work(&limited, &ids[..1]));
        assert!(limited.next_event_among(Time::ZERO, &ids).is_idle());
        assert_eq!(fetches(), (30, 2));
        assert!(!holds_work(&limited, &ids));
    }

    #[test]
    fn a_scheduler_that_ignores_refusals_cannot_spin_pick() {
        /// Emits block 0 of request 0 forever, whatever the backend says.
        struct Stubborn;
        impl Scheduler for Stubborn {
            fn update_prediction(&mut self, _: &PredictionSummary) {}
            fn next_batch(&mut self, count: usize, _: Option<usize>) -> crate::scheduler::Schedule {
                vec![BlockRef::new(RequestId(0), 0); count]
            }
            fn drop_unsent(&mut self, _: BlockRef) {}
            fn set_slot_duration(&mut self, _: Duration) {}
            fn simulated_cache(&self) -> HashMap<RequestId, u32> {
                HashMap::new()
            }
            fn horizon(&self) -> usize {
                1
            }
            fn prediction_updates(&self) -> u64 {
                0
            }
        }
        struct RefuseAll(Arc<std::sync::atomic::AtomicUsize>);
        impl Backend for RefuseAll {
            fn fetch(&mut self, _: BlockRef) -> Option<crate::block::Block> {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                None
            }
        }
        let fetches = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut mgr = SessionManager::weighted_fair(Box::new(RefuseAll(fetches.clone())));
        let cat = catalog(7, 2);
        let id = mgr.add_session(Session::builder(utility(2), cat).scheduler(Box::new(Stubborn)));
        // One refusal per catalog request, then the session counts as
        // drained: `Idle` is final here too.
        assert!(mgr.next_event(Time::ZERO).is_idle());
        assert_eq!(fetches.load(std::sync::atomic::Ordering::Relaxed), 7);
        assert!(!holds_work(&mgr, &[id]));
        assert!(mgr.next_event(Time::ZERO).is_idle());
        assert_eq!(fetches.load(std::sync::atomic::Ordering::Relaxed), 7);
    }

    /// The arbitration this module had before the ready index, kept as the
    /// oracle: weighted-fair queueing as a scan over a snapshot of the
    /// candidates, and every pick rebuilds the candidate and snapshot
    /// vectors from the live table and the sessions' `exhausted` flags.  It never reads the manager's ready index.
    mod differential {
        use super::*;
        use crate::block::Block;
        use proptest::prelude::*;

        /// What the scan compares a candidate by.
        struct Share {
            session: SessionId,
            weight: f64,
            service: u64,
        }

        /// The candidate with the lowest weighted service after one more
        /// block, ties to the lower id.
        fn scan_pick(ready: &[Share]) -> Option<usize> {
            ready
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let va = (a.service + 1) as f64 / a.weight.max(f64::EPSILON);
                    let vb = (b.service + 1) as f64 / b.weight.max(f64::EPSILON);
                    va.partial_cmp(&vb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.session.cmp(&b.session))
                })
                .map(|(i, _)| i)
        }

        /// Membership, messages and bandwidth division are `inner`'s own
        /// (they are not what changed); arbitration is the old code over
        /// `inner`'s live table.
        struct ScanManager {
            inner: SessionManager,
        }

        impl ScanManager {
            fn next_event(&mut self) -> ServerEvent {
                let all: Vec<usize> = self
                    .inner
                    .sessions
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, s))| !s.exhausted)
                    .map(|(i, _)| i)
                    .collect();
                self.next_event_inner(all)
            }

            fn next_event_among(&mut self, eligible: &[SessionId]) -> ServerEvent {
                let picked: Vec<usize> = self
                    .inner
                    .sessions
                    .iter()
                    .enumerate()
                    .filter(|(_, (id, s))| !s.exhausted && eligible.binary_search(id).is_ok())
                    .map(|(i, _)| i)
                    .collect();
                self.next_event_inner(picked)
            }

            fn next_event_inner(&mut self, indices: Vec<usize>) -> ServerEvent {
                let event = self.scan(indices);
                // `inner`'s own membership code maintains its index
                // incrementally and must find it coherent.
                self.inner.ready = self.inner.rebuilt_ready();
                event
            }

            fn scan(&mut self, mut candidates: Vec<usize>) -> ServerEvent {
                let mgr = &mut self.inner;
                let limit = mgr.backend.concurrency_limit();
                while !candidates.is_empty() {
                    let ready: Vec<Share> = candidates
                        .iter()
                        .map(|&i| {
                            let (session, s) = &mgr.sessions[i];
                            Share {
                                session: *session,
                                weight: s.weight(),
                                service: s.service(),
                            }
                        })
                        .collect();
                    let Some(pick) = scan_pick(&ready) else {
                        break;
                    };
                    let (id, session) = &mut mgr.sessions[candidates[pick]];
                    let id = *id;
                    // A refusal leaves the session's draw: ask it again,
                    // one refusal per request at most.
                    let mut refusals = 0;
                    while let Some(block_ref) = session.next_block_ref(limit) {
                        if let Some(block) = mgr.backend.fetch(block_ref) {
                            session.commit(&block.meta);
                            mgr.blocks_sent += 1;
                            mgr.bytes_sent += block.meta.size;
                            return ServerEvent::Block { session: id, block };
                        }
                        session.drop_unsent(block_ref);
                        refusals += 1;
                        if refusals >= session.catalog.num_requests() {
                            session.exhausted = true;
                            break;
                        }
                    }
                    candidates.remove(pick);
                }
                ServerEvent::Idle
            }
        }

        /// Serves the catalog except for every fifth block reference, which
        /// does not resolve (the refusal branch).
        struct HoleyBackend {
            inner: CatalogBackend,
            limit: Option<usize>,
        }

        impl Backend for HoleyBackend {
            fn fetch(&mut self, block: BlockRef) -> Option<Block> {
                if (block.request.0 + block.index) % 5 == 4 {
                    return None;
                }
                self.inner.fetch(block)
            }
            fn concurrency_limit(&self) -> Option<usize> {
                self.limit
            }
        }

        const REQUESTS: usize = 6;
        const BLOCKS: u32 = 2;

        /// Both managers under test and everything the op stream needs to
        /// keep them in step.
        struct Pair {
            cat: Arc<ResponseCatalog>,
            indexed: SessionManager,
            scanned: ScanManager,
            live: Vec<SessionId>,
            detached: Vec<(SessionId, Session, Session)>,
            built: u64,
        }

        impl Pair {
            fn new(limit: Option<usize>) -> Self {
                let cat = catalog(REQUESTS, BLOCKS);
                let manager = || {
                    SessionManager::weighted_fair(Box::new(HoleyBackend {
                        inner: CatalogBackend::new(cat.clone()),
                        limit,
                    }))
                };
                Pair {
                    indexed: manager(),
                    scanned: ScanManager { inner: manager() },
                    cat,
                    live: Vec::new(),
                    detached: Vec::new(),
                    built: 0,
                }
            }

            /// A session small enough to drain within a few blocks, so the
            /// `exhausted` transitions are exercised constantly.
            fn builder(&self, weight: f64) -> SessionBuilder {
                Session::builder(utility(BLOCKS), self.cat.clone())
                    .config(ServerConfig {
                        scheduler: GreedySchedulerConfig {
                            cache_blocks: REQUESTS * BLOCKS as usize,
                            seed: self.built,
                            ..Default::default()
                        },
                        sender_queue_target: 2,
                        ..Default::default()
                    })
                    .weight(weight)
            }

            fn pick_live(&self, a: u32) -> Option<SessionId> {
                (!self.live.is_empty()).then(|| self.live[a as usize % self.live.len()])
            }

            /// An ascending id list drawn from `mask`: live ids, ids that
            /// were never added, possibly nothing at all.
            fn subset(&self, mask: u32) -> Vec<SessionId> {
                (0..24)
                    .filter(|bit| mask & (1 << bit) != 0)
                    .map(SessionId)
                    .collect()
            }

            fn message(&mut self, id: SessionId, message: &ClientMessage) {
                let a = self.indexed.on_message(id, message, Time::ZERO);
                let b = self.scanned.inner.on_message(id, message, Time::ZERO);
                assert_eq!(a, b);
            }

            fn apply(&mut self, kind: u8, a: u32, b: u32) {
                let weight = [0.5, 1.0, 2.0, 3.5][b as usize % 4];
                match kind {
                    // Join under the next id.
                    0 => {
                        let id = self.indexed.add_session(self.builder(weight));
                        let same = self.scanned.inner.add_session(self.builder(weight));
                        assert_eq!(id, same);
                        self.built += 1;
                        self.live.push(id);
                    }
                    // Join under an explicit id, usually below the highest.
                    1 => {
                        let id = SessionId(u64::from(a % 24));
                        let taken = self.live.contains(&id)
                            || self.detached.iter().any(|(other, ..)| *other == id);
                        if !taken {
                            self.indexed.add_session_with_id(id, self.builder(weight));
                            self.scanned
                                .inner
                                .add_session_with_id(id, self.builder(weight));
                            self.built += 1;
                            self.live.push(id);
                        }
                    }
                    2 => {
                        if let Some(id) = self.pick_live(a) {
                            self.live.retain(|other| *other != id);
                            let x = self.indexed.detach_session(id).expect("live");
                            let y = self.scanned.inner.detach_session(id).expect("live");
                            self.detached.push((id, x, y));
                        }
                    }
                    3 => {
                        if !self.detached.is_empty() {
                            let (id, x, y) = self.detached.remove(a as usize % self.detached.len());
                            self.indexed.attach_session(id, x);
                            self.scanned.inner.attach_session(id, y);
                            self.live.push(id);
                        }
                    }
                    4 => {
                        if let Some(id) = self.pick_live(a) {
                            self.live.retain(|other| *other != id);
                            self.message(id, &ClientMessage::Close);
                        }
                    }
                    5 | 6 => {
                        if let Some(id) = self.pick_live(a) {
                            let request = RequestId(b % REQUESTS as u32);
                            let state = PredictorState::LastRequest(request);
                            self.message(id, &ClientMessage::Predictor(state));
                        }
                    }
                    7 => {
                        if let Some(id) = self.pick_live(a) {
                            let rate = Bandwidth::from_mbps((5 + b % 195) as f64 / 10.0);
                            self.message(id, &ClientMessage::RateReport(rate));
                        }
                    }
                    8 => {
                        let total = Bandwidth::from_mbps((10 + a % 90) as f64 / 10.0);
                        let denominator = 1.0 + (b % 16) as f64;
                        self.indexed.set_shared_budget(total, denominator);
                        self.scanned.inner.set_shared_budget(total, denominator);
                    }
                    9 | 10 => {
                        let eligible = self.subset(a);
                        for _ in 0..=b % 4 {
                            let event = self.indexed.next_event_among(Time::ZERO, &eligible);
                            assert_eq!(
                                event,
                                self.scanned.next_event_among(&eligible),
                                "next_event_among({eligible:?}) diverged"
                            );
                            self.assert_final(&event, &eligible);
                        }
                    }
                    _ => {
                        for _ in 0..=b % 8 {
                            let event = self.indexed.next_event(Time::ZERO);
                            assert_eq!(event, self.scanned.next_event(), "next_event diverged");
                            self.assert_final(&event, &self.live);
                        }
                    }
                }
                assert_eq!(self.indexed.check(), Ok(()));
                assert_eq!(self.scanned.inner.check(), Ok(()));
            }

            /// An `Idle` leaves no session of `eligible` in the ready index:
            /// nothing is asked again before new input arrives.
            fn assert_final(&self, event: &ServerEvent, eligible: &[SessionId]) {
                if event.is_idle() {
                    assert!(
                        !holds_work(&self.indexed, eligible),
                        "`Idle` over {eligible:?} left a session ready"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48 })]

            /// The ready-index walk serves exactly the `(session, block)`
            /// sequence the snapshot-and-scan arbitration served, and every
            /// `Idle` it answers is final, with and without a backend
            /// concurrency limit (tight, and looser), across joins in and
            /// out of id order, detach / attach, closes, messages, budget
            /// changes and unresolvable block references.
            #[test]
            fn index_walk_matches_the_scan_it_replaced(
                ops in proptest::collection::vec((0u8..16, any::<u32>(), any::<u32>()), 1..96),
            ) {
                for limit in [None, Some(1), Some(3)] {
                    let mut pair = Pair::new(limit);
                    for weight_class in [1, 2, 1, 0, 3] {
                        pair.apply(0, 0, weight_class);
                    }
                    for &(kind, a, b) in &ops {
                        pair.apply(kind, a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn ignored_rate_report_leaves_both_estimates_where_they_were() {
        // The wire admits `RateReport(0.0)`; the session's estimator ignores
        // it, and so must the fold — a sample of any size would slide the
        // shared window.
        let (mut mgr, ids) = manager_with(&[1.0, 2.0], 20, 2);
        let report = |mbps: f64| ClientMessage::RateReport(Bandwidth::from_mbps(mbps));
        for (k, &id) in ids.iter().cycle().take(7).enumerate() {
            mgr.on_message(id, &report(1.5 + k as f64), Time::ZERO);
        }
        let bits = |mgr: &SessionManager| {
            let of = |id| mgr.session(id).unwrap().bandwidth_estimate().0.to_bits();
            (mgr.bandwidth_estimate().0.to_bits(), of(ids[0]), of(ids[1]))
        };
        let (before, pacing) = (bits(&mgr), mgr.pacing_interval());
        for &id in &ids {
            assert_eq!(mgr.on_message(id, &report(0.0), Time::ZERO), None);
            assert_eq!(bits(&mgr), before);
            assert_eq!(mgr.pacing_interval(), pacing);
        }
        // The window did not slide either: the next real report lands on the
        // same five samples in a manager that never saw the zeros.
        let (mut twin, twin_ids) = manager_with(&[1.0, 2.0], 20, 2);
        for (k, &id) in twin_ids.iter().cycle().take(7).enumerate() {
            twin.on_message(id, &report(1.5 + k as f64), Time::ZERO);
        }
        mgr.on_message(ids[0], &report(4.0), Time::ZERO);
        twin.on_message(twin_ids[0], &report(4.0), Time::ZERO);
        assert_eq!(bits(&mgr), bits(&twin));
    }

    #[test]
    fn initial_bandwidth_seeds_the_shared_estimate_under_the_cap() {
        let cat = catalog(4, 2);
        let backend = || Box::new(CatalogBackend::new(cat.clone()));
        let seeded = SessionManager::weighted_fair(backend())
            .with_initial_bandwidth(Bandwidth::from_mbps(2.0));
        assert_eq!(seeded.bandwidth_estimate(), Bandwidth::from_mbps(2.0));
        // Either order: the cap outlives a re-seed.
        let capped = SessionManager::weighted_fair(backend())
            .with_bandwidth_cap(Bandwidth::from_mbps(3.0))
            .with_initial_bandwidth(Bandwidth::from_mbps(40.0));
        assert_eq!(capped.bandwidth_estimate(), Bandwidth::from_mbps(3.0));
    }

    /// A `ServerBuilder`-built one-session manager against the paper's
    /// single-client server: a bare [`Session`] plus a backend, driven by
    /// hand.
    mod single_client {
        use super::*;
        use crate::delta::DeltaTracker;
        use crate::distribution::{HorizonSlice, SparseDistribution};
        use crate::server::ServerBuilder;
        use proptest::prelude::*;

        const REQUESTS: usize = 12;
        const BLOCKS: u32 = 3;
        const CLIENT: SessionId = SessionId(0);

        struct HandDriven {
            session: Session,
            backend: Box<dyn Backend>,
        }

        impl HandDriven {
            fn next_block(&mut self) -> Option<BlockRef> {
                let limit = self.backend.concurrency_limit();
                let block = self.backend.fetch(self.session.next_block_ref(limit)?)?;
                self.session.commit(&block.meta);
                Some(block.meta.block)
            }
        }

        fn next_block(manager: &mut SessionManager) -> Option<BlockRef> {
            match manager.next_event(Time::ZERO) {
                ServerEvent::Block { session, block } => {
                    assert_eq!(session, CLIENT);
                    Some(block.meta.block)
                }
                _ => None,
            }
        }

        /// A two-slice summary whose explicit entries follow `a` and `b`.
        fn summary(a: u32, b: u32) -> PredictionSummary {
            let n = REQUESTS as u32;
            let slice = |shift: u32, millis: u64| HorizonSlice {
                delta: Duration::from_millis(millis),
                dist: SparseDistribution::from_weights(
                    REQUESTS,
                    vec![
                        (RequestId((a + shift) % n), 1.0 + f64::from(b % 5)),
                        (RequestId((a + shift + 1 + b % 3) % n), 1.0),
                    ],
                ),
            };
            PredictionSummary::new(REQUESTS, vec![slice(0, 50), slice(2, 250)], Time::ZERO)
        }

        /// The two servers, and the one client-side tracker feeding both.
        struct Pair {
            manager: SessionManager,
            by_hand: HandDriven,
            tracker: DeltaTracker,
        }

        impl Pair {
            fn new(initial: Bandwidth, limit: Option<usize>, sender_queue_target: usize) -> Self {
                let cat = catalog(REQUESTS, BLOCKS);
                let cfg = ServerConfig {
                    scheduler: GreedySchedulerConfig {
                        cache_blocks: 16,
                        seed: 11,
                        ..Default::default()
                    },
                    initial_bandwidth: initial,
                    sender_queue_target,
                };
                let backend = || -> Box<dyn Backend> {
                    let inner = CatalogBackend::new(cat.clone());
                    match limit {
                        Some(limit) => Box::new(LimitedCatalog { inner, limit }),
                        None => Box::new(inner),
                    }
                };
                let pair = Pair {
                    manager: ServerBuilder::new(utility(BLOCKS), cat.clone())
                        .config(cfg.clone())
                        .backend(backend())
                        .build(),
                    by_hand: HandDriven {
                        session: Session::builder(utility(BLOCKS), cat.clone())
                            .config(cfg)
                            .build(),
                        backend: backend(),
                    },
                    tracker: DeltaTracker::new().with_max_delta_ratio(1.0),
                };
                pair.compare("the join");
                pair
            }

            fn message(&mut self, message: &ClientMessage) {
                let event = self.manager.on_message(CLIENT, message, Time::ZERO);
                // By hand: the typed entry points the protocol dispatches to.
                let session = &mut self.by_hand.session;
                let outcome = match message {
                    ClientMessage::Predictor(state) => {
                        session.on_predictor_state(state, Time::ZERO);
                        MessageOutcome::Handled
                    }
                    ClientMessage::RateReport(rate) => {
                        session.on_rate_report(*rate);
                        MessageOutcome::Handled
                    }
                    other => session.on_message(other, Time::ZERO),
                };
                let resync = outcome == MessageOutcome::NeedsResync;
                assert_eq!(
                    event,
                    resync.then_some(ServerEvent::Resync { session: CLIENT })
                );
                if resync {
                    self.tracker.reset();
                }
            }

            fn apply(&mut self, kind: u8, a: u32, b: u32) {
                match kind {
                    0 => {
                        let request = RequestId(a % REQUESTS as u32);
                        let state = match b % 3 {
                            0 => PredictorState::LastRequest(request),
                            1 => PredictorState::TopK(vec![(request, 0.7), (RequestId(0), 0.2)]),
                            _ => PredictorState::Summary(summary(a, b)),
                        };
                        self.message(&ClientMessage::Predictor(state));
                    }
                    // Full or delta, as the tracker decides.
                    1 | 2 => {
                        let message = self.tracker.encode(&summary(a, b));
                        self.message(&message);
                    }
                    // Ignored, tiny, typical and huge receive rates.
                    3 | 4 => {
                        let rate = match a % 4 {
                            0 => Bandwidth(0.0),
                            1 => Bandwidth(1.0 + f64::from(b % 7)),
                            2 => Bandwidth::from_mbps(f64::from(1 + b % 200) / 8.0),
                            _ => Bandwidth(1e12 + f64::from(b)),
                        };
                        self.message(&ClientMessage::RateReport(rate));
                    }
                    _ => {
                        for poll in 0..=a % 40 {
                            assert_eq!(
                                next_block(&mut self.manager),
                                self.by_hand.next_block(),
                                "poll {poll} diverged"
                            );
                        }
                    }
                }
                self.compare(&format!("op ({kind}, {a}, {b})"));
                assert_eq!(self.manager.check(), Ok(()));
            }

            fn compare(&self, at: &str) {
                let (manager, session) = (&self.manager, &self.by_hand.session);
                assert_eq!(
                    manager.bandwidth_estimate().0.to_bits(),
                    session.bandwidth_estimate().0.to_bits(),
                    "estimates differ after {at}"
                );
                assert_eq!(
                    manager.pacing_interval(),
                    session.pacing_interval(),
                    "pacing differs after {at}"
                );
                let joined = manager.session(CLIENT).expect("one session");
                assert_eq!(joined.prediction_updates(), session.prediction_updates());
                assert_eq!(
                    joined.bandwidth_estimate().0.to_bits(),
                    session.bandwidth_estimate().0.to_bits()
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48 })]

            /// One client through the shared runtime is the paper's
            /// single-client server, bit for bit: every block reference,
            /// the bandwidth estimate, the pacing interval and the
            /// prediction-update count agree after every operation, for
            /// any initial estimate, under every backend concurrency limit
            /// and sender queue depth.
            #[test]
            fn one_session_manager_is_the_single_client_server(
                initial in 1u32..400,
                limit in 0usize..3,
                queue in 0usize..3,
                ops in proptest::collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..48),
            ) {
                let mut pair = Pair::new(
                    Bandwidth::from_mbps(f64::from(initial) / 8.0),
                    [None, Some(1), Some(3)][limit],
                    [1, 4, 32][queue],
                );
                for (kind, a, b) in ops {
                    pair.apply(kind, a, b);
                }
            }
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The cached pacing block size follows the live table through
            /// any sequence of add / detach / attach over catalogs of
            /// different block sizes: `pacing_interval` equals the value
            /// recomputed from a scan of every live session's catalog.
            #[test]
            fn pacing_interval_matches_a_rescan(
                ops in proptest::collection::vec((0u8..3, 0usize..6), 1..40),
            ) {
                let sizes = [1u64, 500, 1_000, 4_096, 10_000, 65_536];
                let cats: Vec<Arc<ResponseCatalog>> = sizes
                    .iter()
                    .map(|&size| Arc::new(ResponseCatalog::uniform(8, 2, size)))
                    .collect();
                let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(
                    cats[0].clone(),
                )));
                let mut live: Vec<SessionId> = Vec::new();
                let mut detached: Vec<(SessionId, Session)> = Vec::new();
                for (op, pick) in ops {
                    match op {
                        0 => live.push(
                            mgr.add_session(Session::builder(utility(2), cats[pick].clone())),
                        ),
                        1 if !live.is_empty() => {
                            let id = live.remove(pick % live.len());
                            let session = mgr.detach_session(id).expect("session is live");
                            detached.push((id, session));
                        }
                        2 if !detached.is_empty() => {
                            let (id, session) = detached.remove(pick % detached.len());
                            mgr.attach_session(id, session);
                            live.push(id);
                        }
                        _ => {}
                    }
                    let scanned = live
                        .iter()
                        .flat_map(|id| mgr.session(*id).expect("live").catalog().iter())
                        .map(|layout| layout.padded_block_size())
                        .max()
                        .unwrap_or(1);
                    prop_assert_eq!(
                        mgr.pacing_interval(),
                        mgr.bandwidth_estimate().transmit_time(scanned)
                    );
                }
            }
        }
    }

    /// The scheduler's simulated ring against the client's own, with a real
    /// sender queue, with and without a backend concurrency allowance:
    /// whole summaries and deltas land between sends — while the queue
    /// straddles a multiple of the horizon in blocks sent, and right after
    /// it drained exactly at one (ops 1 and 2; the scheduler keeps no
    /// schedule, so these are two fixed stress positions of the case
    /// stream) — and drawn blocks are dropped unsent; after every update
    /// and every drop the session's `simulated_cache()` must equal a client
    /// `RingCache` fed only the committed blocks.
    mod ring_parity {
        use super::*;
        use crate::cache::RingCache;
        use crate::delta::DeltaTracker;
        use crate::distribution::{HorizonSlice, SparseDistribution};
        use crate::predictor::PredictorState;
        use proptest::prelude::*;

        const REQUESTS: usize = 64;
        const BLOCKS: u32 = 4;

        /// A two-slice summary of three explicit entries that follow `a`
        /// and `b`, so consecutive predictions cross as small deltas.
        fn summary(a: u32, b: u32) -> PredictionSummary {
            let n = REQUESTS as u32;
            let slice = |shift: u32, millis: u64| HorizonSlice {
                delta: Duration::from_millis(millis),
                dist: SparseDistribution::from_weights(
                    REQUESTS,
                    vec![
                        (RequestId((a + shift) % n), 1.0 + f64::from(b % 7)),
                        (RequestId((a + shift + 1 + b % 5) % n), 1.0),
                        (RequestId((b / 7) % n), 0.5),
                    ],
                ),
            };
            PredictionSummary::new(REQUESTS, vec![slice(0, 50), slice(3, 250)], Time::ZERO)
        }

        /// A greedy session over a `REQUESTS` × `BLOCKS` catalog under the
        /// allowance `limit`, the tracker feeding it, and the client's ring.
        struct Replay {
            session: Session,
            limit: Option<usize>,
            tracker: DeltaTracker,
            client: RingCache,
        }

        impl Replay {
            fn new(cache_blocks: usize, queue: usize, seed: u64, limit: Option<usize>) -> Self {
                let cfg = ServerConfig {
                    scheduler: GreedySchedulerConfig {
                        cache_blocks,
                        seed,
                        ..Default::default()
                    },
                    sender_queue_target: queue,
                    ..Default::default()
                };
                Replay {
                    session: Session::builder(utility(BLOCKS), catalog(REQUESTS, BLOCKS))
                        .config(cfg)
                        .build(),
                    limit,
                    tracker: DeltaTracker::new().with_max_delta_ratio(1.0),
                    client: RingCache::new(cache_blocks),
                }
            }

            /// Sends one block; `false` when the session has nothing to send.
            fn send(&mut self) -> bool {
                let Some(block) = self.session.next_block_ref(self.limit) else {
                    return false;
                };
                let meta = self
                    .session
                    .catalog()
                    .layout(block.request)
                    .block_meta(block.index)
                    .expect("scheduled blocks exist");
                self.session.commit(&meta);
                self.client.insert(block);
                true
            }

            /// Sends until `done` holds, at most `limit` blocks.
            fn send_until(&mut self, limit: usize, done: impl Fn(&Session) -> bool) {
                for _ in 0..limit {
                    if done(&self.session) || !self.send() {
                        return;
                    }
                }
            }

            fn apply(&mut self, kind: u8, a: u32, b: u32) -> Result<(), String> {
                let horizon = self.session.scheduler.horizon();
                let wrap_offset = |s: &Session| s.blocks_sent() as usize % horizon;
                let message = match kind % 7 {
                    0 => {
                        for _ in 0..a as usize % (2 * horizon + 1) {
                            self.send();
                        }
                        return Ok(());
                    }
                    // The queue straddles a wrap: some of its blocks are the
                    // old schedule's tail, the rest the new schedule's head.
                    1 => {
                        self.send_until(2 * horizon, |s| {
                            !s.queue.is_empty() && wrap_offset(s) + s.queue.len() > horizon
                        });
                        return Ok(());
                    }
                    // The queue drained exactly at a wrap.
                    2 => {
                        let limit = horizon * self.session.queue_target.max(1) + horizon;
                        self.send_until(limit, |s| {
                            s.blocks_sent() > 0 && s.queue.is_empty() && wrap_offset(s) == 0
                        });
                        return Ok(());
                    }
                    3 => {
                        self.tracker.reset();
                        self.tracker.encode(&summary(a, b))
                    }
                    4 => self.tracker.encode(&summary(a, b)),
                    5 => ClientMessage::Predictor(PredictorState::Summary(summary(a, b))),
                    // The backend cannot resolve the next block: the sender
                    // drops it with the rest of its queue, and its request
                    // leaves the draw until the next prediction.
                    _ => {
                        if let Some(refused) = self.session.next_block_ref(self.limit) {
                            self.session.drop_unsent(refused);
                        }
                        return self.compare(kind, a, b);
                    }
                };
                if matches!(message, ClientMessage::Predictor(_)) {
                    // An opaque state clears the session's shadow: the
                    // tracker's next encode must ship whole.
                    self.tracker.reset();
                }
                let outcome = self.session.on_message(&message, Time::ZERO);
                if outcome != MessageOutcome::Handled {
                    return Err(format!("op ({kind}, {a}, {b}) was refused"));
                }
                self.compare(kind, a, b)
            }

            /// The simulated cache against the client's ring.
            fn compare(&self, kind: u8, a: u32, b: u32) -> Result<(), String> {
                let client: HashMap<RequestId, u32> = self.client.resident_counts().collect();
                let simulated = self.session.simulated_cache();
                if simulated != client {
                    return Err(format!(
                        "after op ({kind}, {a}, {b}) with {} blocks sent: the scheduler \
                         simulates {simulated:?}, the client holds {client:?}",
                        self.session.blocks_sent()
                    ));
                }
                Ok(())
            }
        }

        /// Replays `ops` under the allowance `limit`, none when it is 0.
        fn run(cache_blocks: usize, queue: usize, seed: u64, limit: usize, ops: &[(u8, u32, u32)]) {
            let limit = (limit > 0).then_some(limit);
            let mut replay = Replay::new(cache_blocks, queue, seed, limit);
            for &(kind, a, b) in ops {
                if let Err(e) = replay.apply(kind, a, b) {
                    panic!(
                        "cache_blocks={cache_blocks} queue={queue} seed={seed} limit={limit:?}: {e}"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64 })]

            #[test]
            fn simulated_ring_matches_the_clients_across_wraps(
                cache_blocks in 8usize..=64,
                queue in 1usize..=40,
                seed in 0u64..1_000,
                limit in 0usize..=4,
                ops in proptest::collection::vec((0u8..7, any::<u32>(), any::<u32>()), 1..48),
            ) {
                run(cache_blocks, queue, seed, limit, &ops);
            }
        }

        /// The proptest's harness over a fixed case stream (CI's "Parity
        /// sweep" step): `cargo test --release -p khameleon-core --lib
        /// session_ring_parity_sweep -- --ignored`.
        #[test]
        #[ignore = "a fixed stream of 16k cases, about 12 s in release"]
        fn session_ring_parity_sweep() {
            let mut state = 24_680u64;
            let mut next = || {
                state = (state.wrapping_mul(6_364_136_223_846_793_005))
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as u32
            };
            for _ in 0..16_000 {
                let cache_blocks = next() as usize % 57 + 8;
                let queue = next() as usize % 40 + 1;
                let seed = u64::from(next() % 1_000);
                let limit = next() as usize % 5;
                let len = next() as usize % 64 + 1;
                let ops: Vec<(u8, u32, u32)> = (0..len)
                    .map(|_| ((next() % 7) as u8, next(), next()))
                    .collect();
                run(cache_blocks, queue, seed, limit, &ops);
            }
        }
    }
}
