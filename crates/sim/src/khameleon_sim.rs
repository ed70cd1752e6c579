//! End-to-end simulation of a Khameleon deployment.
//!
//! Wires the real library components — the one-session
//! [`SessionManager`](khameleon_core::session::SessionManager) that
//! [`ServerBuilder`] assembles (pluggable scheduler, bandwidth estimator,
//! backend), [`CacheManager`] (ring cache, upcalls, preemption),
//! [`PredictorManager`] — to a simulated duplex network path and an
//! interaction-trace replay, all driven by the deterministic event queue.
//! Client-to-server traffic crosses the simulated uplink as typed
//! [`ClientMessage`]s and the downlink carries the server's [`ServerEvent`]
//! blocks, so the simulator exercises exactly the protocol a live
//! deployment speaks.

use std::collections::HashMap;
use std::sync::Arc;

use khameleon_apps::traces::InteractionTrace;
use khameleon_backend::blockstore::BlockStore;
use khameleon_backend::executor::CostModel;
use khameleon_core::block::{BlockMeta, ResponseCatalog};
use khameleon_core::client::CacheManager;
use khameleon_core::delta::DeltaTracker;
use khameleon_core::predictor::{
    ClientPredictor, InteractionEvent, PredictorManager, PredictorManagerConfig, ServerPredictor,
};
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::scheduler::GreedySchedulerConfig;
use khameleon_core::server::{ServerBuilder, ServerConfig};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::UtilityModel;
use khameleon_net::estimator::ReceiveRateMeter;
use khameleon_net::link::{BandwidthModel, ConstantRate, Link};

use crate::config::{BandwidthSpec, ExperimentConfig};
use crate::engine::EventQueue;
use crate::result::RunResult;

/// How long the backend takes to materialize a request's response the first
/// time any of its blocks is pushed.
pub enum BackendLatency {
    /// Fixed per-request processing cost (the image app's simulated backend,
    /// §6.1).
    PerRequest(Duration),
    /// Cost-model-driven latency with concurrency effects (the Falcon
    /// backends of §6.4); `rows` is the table size and `queries_per_request`
    /// how many concurrent queries one request fans out into.
    CostModel {
        /// The latency/concurrency model.
        model: CostModel,
        /// Rows scanned per query.
        rows: usize,
        /// Queries issued per request.
        queries_per_request: usize,
    },
}

/// Options beyond the shared [`ExperimentConfig`].
pub struct KhameleonOptions {
    /// Backend latency model.
    pub backend: BackendLatency,
    /// Optional backend concurrency limit: each batch the scheduler draws
    /// names at most this many distinct requests (§5.4), the session's
    /// whole allowance.
    pub backend_concurrency_limit: Option<usize>,
    /// Extra simulated time after the last trace event (lets in-flight blocks
    /// land).
    pub drain: Duration,
    /// If set, record the utility of this request over time after the final
    /// trace request (the convergence probe of Figure 10).
    pub convergence_probe: Option<RequestId>,
}

impl Default for KhameleonOptions {
    fn default() -> Self {
        KhameleonOptions {
            backend: BackendLatency::PerRequest(Duration::from_millis(75)),
            backend_concurrency_limit: None,
            drain: Duration::from_millis(500),
            convergence_probe: None,
        }
    }
}

enum Event {
    UserRequest(usize),
    PredictionPoll,
    /// A typed client message crossed the uplink and reaches the server.
    Uplink(ClientMessage),
    SenderWake,
    BlockArrive(BlockMeta),
}

/// Applies an [`ExperimentConfig::faults`] plan to the simulated uplink.
///
/// Messages are keyed by `(lane, index)` where the lane is the session index
/// (always 0 for the single-client simulators) and the index counts every
/// uplink message the client emits — predictions and rate reports alike —
/// in emission order, so a fixed seed pins faults to the same messages on
/// every run.  Lossy kinds (`Drop`, `Truncate`, `Corrupt`) lose the message
/// outright: a truncated or corrupt frame never clears a strict decoder.
/// `Delay` adds propagation; `Stall` freezes the *sender* (block pushes)
/// while the message itself still crosses.
pub(crate) struct UplinkFaults {
    plan: Option<khameleon_core::fault::FaultPlan>,
    lane: usize,
    next_index: u64,
    stall_until: Time,
    injected: u64,
}

impl UplinkFaults {
    pub(crate) fn new(plan: Option<khameleon_core::fault::FaultPlan>, lane: usize) -> Self {
        UplinkFaults {
            plan,
            lane,
            next_index: 0,
            stall_until: Time::ZERO,
            injected: 0,
        }
    }

    /// Consumes the next uplink message slot.  Returns `Some((deliver_at,
    /// message))` when the message survives (possibly delayed), `None` when
    /// the fault lost it.
    pub(crate) fn offer(
        &mut self,
        at: Time,
        now: Time,
        message: ClientMessage,
    ) -> Option<(Time, ClientMessage)> {
        use khameleon_core::fault::FaultKind;
        let index = self.next_index;
        self.next_index += 1;
        let Some(kind) = self.plan.as_ref().and_then(|p| p.lookup(self.lane, index)) else {
            return Some((at, message));
        };
        self.injected += 1;
        match kind {
            FaultKind::Delay { ticks } => Some((at + Duration::from_micros(ticks), message)),
            FaultKind::Stall { ticks } => {
                let resume = now + Duration::from_micros(ticks);
                if resume > self.stall_until {
                    self.stall_until = resume;
                }
                Some((at, message))
            }
            FaultKind::Drop | FaultKind::Truncate { .. } | FaultKind::Corrupt { .. } => None,
        }
    }

    /// When the sender is frozen by an injected stall, the time it thaws.
    pub(crate) fn stalled_until(&self, now: Time) -> Option<Time> {
        (now < self.stall_until).then_some(self.stall_until)
    }

    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }
}

/// Runs one Khameleon simulation over `trace` and returns the collected
/// metrics.
#[allow(clippy::too_many_arguments)]
pub fn run_khameleon(
    catalog: Arc<ResponseCatalog>,
    utility: UtilityModel,
    client_predictor: Box<dyn ClientPredictor>,
    server_predictor: Box<dyn ServerPredictor>,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
    options: KhameleonOptions,
) -> RunResult {
    let slot_bytes = catalog.max_block_size().max(1);
    let cache_blocks = ((cfg.cache_bytes / slot_bytes).max(1)) as usize;

    // --- server ---
    let backend_store = match options.backend_concurrency_limit {
        Some(limit) => BlockStore::new(catalog.clone()).with_concurrency_limit(limit),
        None => BlockStore::new(catalog.clone()),
    };
    let server_cfg = ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks,
            gamma: cfg.gamma,
            seed: cfg.seed,
            ..Default::default()
        },
        initial_bandwidth: cfg.bandwidth.nominal(),
        sender_queue_target: 32,
    };
    let mut server = ServerBuilder::new(utility.clone(), catalog.clone())
        .config(server_cfg)
        .predictor(server_predictor)
        .backend(Box::new(backend_store))
        .build();
    // The id the builder gives its one session.
    let session = SessionId(0);
    #[cfg(feature = "audit")]
    if cfg.audit {
        // The manager lends no `&mut Session`: take the session out, attach,
        // put it back (bit-exact for a lone session that has sent nothing).
        if let Some(mut detached) = server.detach_session(session) {
            detached.audit_attach(khameleon_core::audit::AuditConfig::default());
            server.attach_session(session, detached);
        }
    }

    // --- client ---
    let mut client = CacheManager::new(cache_blocks, catalog.clone(), utility);
    let mut predictor = PredictorManager::new(
        client_predictor,
        PredictorManagerConfig {
            send_interval: cfg.prediction_interval,
            send_on_request: false,
        },
    );

    // --- network ---
    let propagation = cfg.network_propagation();
    let downlink_model: Box<dyn BandwidthModel> = match &cfg.bandwidth {
        BandwidthSpec::Fixed(b) => Box::new(ConstantRate(*b)),
        BandwidthSpec::Cellular(t) => Box::new(t.clone()),
    };
    let mut downlink = Link::new(downlink_model, propagation);

    // --- backend computation state ---
    let mut computed: HashMap<RequestId, Time> = HashMap::new();
    let mut inflight_queries: Vec<(Time, usize)> = Vec::new(); // (done_at, queries)

    // --- bookkeeping ---
    // Receive-rate reporting goes through the shared client-side meter; the
    // simulated client's connection opens at `Time::ZERO`, so the window is
    // explicitly anchored there (a hand-rolled `Time::ZERO`-anchored window
    // used to live here, pre-dating the meter's late-joiner fix).
    let mut rate_meter = ReceiveRateMeter::with_start(cfg.prediction_interval, Time::ZERO);
    let mut delta_tracker = DeltaTracker::new();
    let mut faults = UplinkFaults::new(cfg.faults.clone(), 0);
    let mut uplink_full_updates = 0u64;
    let mut uplink_delta_updates = 0u64;
    let mut sample_idx = 0usize;
    let mut convergence: Vec<(Duration, f64)> = Vec::new();
    let pause_at = trace.requests.last().map(|r| r.0).unwrap_or(Time::ZERO);

    let mut queue: EventQueue<Event> = EventQueue::new();
    for (i, &(at, _)) in trace.requests.iter().enumerate() {
        queue.schedule(at, Event::UserRequest(i));
    }
    queue.schedule(Time::ZERO, Event::PredictionPoll);
    queue.schedule(Time::ZERO, Event::SenderWake);

    let end_of_run = Time::ZERO + trace.duration() + options.drain;
    let idle_poll = Duration::from_millis(5);

    while let Some((now, event)) = queue.pop() {
        if now > end_of_run {
            break;
        }
        match event {
            Event::UserRequest(i) => {
                let (at, request) = trace.requests[i];
                predictor.observe(&InteractionEvent::Request { request, at });
                let _ = client.register(request, now);
            }
            Event::PredictionPoll => {
                // Feed mouse motion observed since the last poll.
                while sample_idx < trace.samples.len() && trace.samples[sample_idx].at <= now {
                    let s = trace.samples[sample_idx];
                    predictor.observe(&InteractionEvent::MouseMove {
                        x: s.x,
                        y: s.y,
                        at: s.at,
                    });
                    sample_idx += 1;
                }
                if let Some(state) = predictor.poll(now) {
                    // Summary-shaped predictions optionally cross the uplink
                    // as O(Δ) deltas, exactly like the real transport client;
                    // everything else ships verbatim.
                    let message = match state {
                        khameleon_core::predictor::PredictorState::Summary(summary)
                            if cfg.prediction_delta =>
                        {
                            delta_tracker.encode(&summary)
                        }
                        state => ClientMessage::Predictor(state),
                    };
                    let bytes = match &message {
                        ClientMessage::PredictorDelta(delta) => {
                            uplink_delta_updates += 1;
                            delta.wire_size_bytes()
                        }
                        ClientMessage::PredictorFull { summary, .. } => {
                            uplink_full_updates += 1;
                            summary.wire_size_bytes()
                        }
                        ClientMessage::Predictor(state) => {
                            uplink_full_updates += 1;
                            state.wire_size_bytes()
                        }
                        _ => 0,
                    };
                    client.note_prediction_sent(bytes);
                    if let Some((at, message)) = faults.offer(now + propagation, now, message) {
                        queue.schedule(at, Event::Uplink(message));
                    }
                }
                queue.schedule(now + cfg.prediction_interval, Event::PredictionPoll);
            }
            Event::Uplink(message) => {
                if let Some(ServerEvent::Resync { .. }) = server.on_message(session, &message, now)
                {
                    // The simulated downlink has no Resync frame to carry:
                    // resetting the tracker makes the next poll ship in full,
                    // which is exactly what a client reacting to Resync does.
                    delta_tracker.reset();
                }
            }
            Event::SenderWake => {
                // An injected stall freezes the sender until it thaws.
                if let Some(thaw) = faults.stalled_until(now) {
                    queue.schedule(thaw, Event::SenderWake);
                    continue;
                }
                // Pace the sender by the link: only hand the link a new block
                // once it has drained the previous one.
                if !downlink.is_idle(now) {
                    queue.schedule(downlink.busy_until(), Event::SenderWake);
                    continue;
                }
                match server.next_event(now) {
                    ServerEvent::Block { block, .. } => {
                        let request = block.meta.block.request;
                        // First touch of a request triggers backend
                        // computation; later blocks reuse the materialized
                        // response (§3.3's precomputed / scalable backends).
                        let ready_at = *computed.entry(request).or_insert_with(|| {
                            inflight_queries.retain(|&(done, _)| done > now);
                            let concurrent: usize =
                                inflight_queries.iter().map(|&(_, q)| q).sum::<usize>();
                            let (latency, queries) = match &options.backend {
                                BackendLatency::PerRequest(d) => (*d, 1),
                                BackendLatency::CostModel {
                                    model,
                                    rows,
                                    queries_per_request,
                                } => (
                                    model.latency(*rows, concurrent + queries_per_request),
                                    *queries_per_request,
                                ),
                            };
                            let done = now + latency;
                            inflight_queries.push((done, queries));
                            done
                        });
                        let link_arrival = downlink.send(block.meta.size, now);
                        // The block cannot arrive before the backend finished
                        // computing it and the result crossed the network.
                        let arrival = link_arrival.max(ready_at + propagation);
                        queue.schedule(arrival, Event::BlockArrive(block.meta));
                        queue.schedule(downlink.busy_until(), Event::SenderWake);
                    }
                    _ => {
                        queue.schedule(now + idle_poll, Event::SenderWake);
                    }
                }
            }
            Event::BlockArrive(meta) => {
                // One receive-rate report per elapsed meter interval, sent
                // over the same uplink path as the predictions (§5.4).
                if let Some(rate) = rate_meter.on_receive(meta.size, now) {
                    if let Some((at, message)) =
                        faults.offer(now + propagation, now, ClientMessage::RateReport(rate))
                    {
                        queue.schedule(at, Event::Uplink(message));
                    }
                }
                let request = meta.block.request;
                let _ = client.on_block(meta, now);
                if let Some(probe) = options.convergence_probe {
                    if request == probe && now >= pause_at {
                        convergence
                            .push((now.saturating_sub(pause_at), client.current_utility(probe)));
                    }
                }
            }
        }
    }

    client.finalize();
    RunResult {
        label: format!("khameleon({})", predictor.predictor_name()),
        summary: client.metrics().summary(),
        convergence,
        blocks_sent: server.blocks_sent(),
        bytes_sent: server.bytes_sent(),
        uplink_full_updates,
        uplink_delta_updates,
        faults_injected: faults.injected(),
        #[cfg(feature = "audit")]
        audit: server.session(session).and_then(|s| s.audit_report()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
    use khameleon_apps::traces::{generate_image_trace, ImageTraceConfig};
    use khameleon_core::types::Bandwidth;

    fn small_setup() -> (ImageExplorationApp, InteractionTrace) {
        let app = ImageExplorationApp::reduced(10, 1);
        let trace = generate_image_trace(
            &app.layout(),
            &ImageTraceConfig {
                duration: Duration::from_secs(8),
                seed: 3,
                ..Default::default()
            },
        );
        (app, trace)
    }

    fn run(
        app: &ImageExplorationApp,
        trace: &InteractionTrace,
        cfg: &ExperimentConfig,
        kind: PredictorKind,
    ) -> RunResult {
        run_khameleon(
            app.catalog(),
            app.utility(),
            app.client_predictor(kind, Some(trace)),
            app.server_predictor(),
            trace,
            cfg,
            KhameleonOptions {
                backend: BackendLatency::PerRequest(cfg.backend_processing()),
                ..Default::default()
            },
        )
    }

    #[test]
    fn khameleon_answers_most_requests_quickly() {
        let (app, trace) = small_setup();
        // Generous resources for a tiny corpus: everything should be cached
        // ahead of time.
        let cfg = ExperimentConfig::paper_default()
            .with_bandwidth(Bandwidth::from_mbps(15.0))
            .with_cache_bytes(100_000_000);
        let r = run(&app, &trace, &cfg, PredictorKind::Kalman);
        assert!(r.summary.requests > 20);
        assert!(
            r.summary.cache_hit_rate > 0.5,
            "cache hit rate {}",
            r.summary.cache_hit_rate
        );
        assert!(
            r.summary.mean_latency_ms < 100.0,
            "mean latency {}",
            r.summary.mean_latency_ms
        );
        assert!(r.summary.mean_utility > 0.2);
        assert!(r.blocks_sent > 0);
        assert!(r.bytes_sent > 0);
    }

    #[test]
    fn lower_bandwidth_lowers_coverage_not_latency() {
        let (app, trace) = small_setup();
        let high = run(
            &app,
            &trace,
            &ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(15.0)),
            PredictorKind::Kalman,
        );
        let low = run(
            &app,
            &trace,
            &ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(0.5)),
            PredictorKind::Kalman,
        );
        // Khameleon degrades how much it can push (hedging coverage) under
        // scarcity rather than letting median latency explode (the central
        // claim of §6.2).
        assert!(low.bytes_sent < high.bytes_sent);
        assert!(low.summary.p50_latency_ms < 1_000.0);
        assert!(high.summary.cache_hit_rate > 0.0);
    }

    #[test]
    fn oracle_predictor_at_least_matches_uniform() {
        let (app, trace) = small_setup();
        let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(2.0));
        let uniform = run(&app, &trace, &cfg, PredictorKind::Uniform);
        let oracle = run(&app, &trace, &cfg, PredictorKind::Oracle);
        assert!(
            oracle.summary.cache_hit_rate >= uniform.summary.cache_hit_rate - 0.1,
            "oracle {} vs uniform {}",
            oracle.summary.cache_hit_rate,
            uniform.summary.cache_hit_rate
        );
    }

    #[test]
    fn convergence_probe_reaches_full_utility() {
        let (app, trace) = small_setup();
        let probe = trace.requests.last().unwrap().1;
        // Cache large enough to hold the whole (reduced) corpus so the probe's
        // prefix is never evicted while we watch it converge.
        let cfg = ExperimentConfig::paper_default()
            .with_bandwidth(Bandwidth::from_mbps(15.0))
            .with_cache_bytes(250_000_000);
        let r = run_khameleon(
            app.catalog(),
            app.utility(),
            app.client_predictor(PredictorKind::Kalman, Some(&trace)),
            app.server_predictor(),
            &trace,
            &cfg,
            KhameleonOptions {
                backend: BackendLatency::PerRequest(cfg.backend_processing()),
                drain: Duration::from_secs(20),
                convergence_probe: Some(probe),
                ..Default::default()
            },
        );
        assert!(!r.convergence.is_empty(), "no convergence samples recorded");
        let final_utility = r.convergence.last().unwrap().1;
        assert!(final_utility > 0.9, "final utility {final_utility}");
        // Utility is non-decreasing over the probe.
        for w in r.convergence.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }

    #[test]
    fn overpush_is_reported() {
        let (app, trace) = small_setup();
        let cfg = ExperimentConfig::paper_default();
        let r = run(&app, &trace, &cfg, PredictorKind::Kalman);
        assert!(r.summary.overpush_rate >= 0.0 && r.summary.overpush_rate <= 1.0);
        assert!(r.summary.predictions_sent > 10);
    }

    #[test]
    fn prediction_delta_knob_shrinks_uplink_accounting() {
        let (app, trace) = small_setup();
        // The oracle predictor ships summary-shaped states, the only shape
        // the delta encoder applies to.
        let full_cfg = ExperimentConfig::paper_default();
        let delta_cfg = ExperimentConfig::paper_default().with_prediction_delta(true);
        let full = run(&app, &trace, &full_cfg, PredictorKind::Oracle);
        let delta = run(&app, &trace, &delta_cfg, PredictorKind::Oracle);

        assert_eq!(full.uplink_delta_updates, 0);
        assert!(full.uplink_full_updates > 10);
        // Identical trace and cadence, so both runs ship the same number of
        // updates; some of the delta run's cross as O(Δ) frames.
        assert_eq!(
            delta.uplink_full_updates + delta.uplink_delta_updates,
            full.uplink_full_updates
        );
        assert!(delta.uplink_delta_updates > 0, "delta path never engaged");
        assert!(
            delta.summary.prediction_bytes < full.summary.prediction_bytes,
            "delta uplink {} not smaller than full uplink {}",
            delta.summary.prediction_bytes,
            full.summary.prediction_bytes
        );
        let per_update =
            |r: &RunResult| r.summary.prediction_bytes as f64 / r.summary.predictions_sent as f64;
        assert!(per_update(&delta) < per_update(&full));
    }

    #[test]
    fn fault_plan_drops_uplink_messages_deterministically() {
        use khameleon_core::fault::{FaultKind, FaultPlan};
        let (app, trace) = small_setup();
        let base = ExperimentConfig::paper_default();
        // Drop the first 20 uplink messages: the server schedules off stale
        // (initial) predictions for the first three seconds of the trace.
        let mut plan = FaultPlan::new();
        for frame in 0..20 {
            plan = plan.with(0, frame, FaultKind::Drop);
        }
        let clean = run(&app, &trace, &base, PredictorKind::Kalman);
        let faulty = run(
            &app,
            &trace,
            &ExperimentConfig {
                faults: Some(plan.clone()),
                ..base.clone()
            },
            PredictorKind::Kalman,
        );
        assert_eq!(clean.faults_injected, 0);
        assert_eq!(faulty.faults_injected, 20);
        // The client still sent every update; the plan lost them in flight.
        assert_eq!(
            clean.summary.predictions_sent,
            faulty.summary.predictions_sent
        );
        // Deterministic: the same plan reproduces the same run bit-for-bit.
        let again = run(
            &app,
            &trace,
            &ExperimentConfig {
                faults: Some(plan),
                ..base.clone()
            },
            PredictorKind::Kalman,
        );
        assert_eq!(faulty.summary.to_csv_row(), again.summary.to_csv_row());
        assert_eq!(faulty.blocks_sent, again.blocks_sent);
        assert_eq!(faulty.faults_injected, again.faults_injected);
    }

    #[test]
    fn delay_and_stall_faults_keep_the_run_alive() {
        use khameleon_core::fault::{FaultKind, FaultPlan};
        let (app, trace) = small_setup();
        let plan = FaultPlan::new()
            .with(0, 1, FaultKind::Delay { ticks: 250_000 })
            .with(0, 3, FaultKind::Stall { ticks: 400_000 });
        let cfg = ExperimentConfig {
            faults: Some(plan),
            ..ExperimentConfig::paper_default()
        };
        let r = run(&app, &trace, &cfg, PredictorKind::Kalman);
        // Timing faults disturb the run without losing messages.
        assert_eq!(r.faults_injected, 2);
        assert!(r.summary.requests > 20);
        assert!(r.blocks_sent > 0);
    }
}
