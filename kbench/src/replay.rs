//! The traced replay: the harness plays the transport event loop's role and
//! pushes a workload's generated inputs through each layer's public
//! functions in-process, in `EventLoop`'s order —
//!
//! ```text
//! uplink:   DeltaTracker::encode → encode_client_frame → FrameBuffer +
//!           decode_client_frame → SessionManager::on_message
//! downlink: SessionManager::next_event[_among] → encode_server_event_frame
//!           → FrameBuffer + decode_server_frame → CacheManager::on_block
//! ```
//!
//! — recording a span around every call.  What a session span hides
//! (`apply_update`, one block draw) is measured on shadows fed the same
//! summaries: a `ShadowSummary` + `GreedyScheduler` pair and a bare
//! `HorizonModel`.  Shadow spans carry [`SHADOW_OP`] so they are never
//! mistaken for time on an op's path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::Fnv;
use crate::ledger::Value;
use crate::spans::SpanBuf;
use crate::stats::percentile;
use crate::sut::{
    self, decode_client_frame, decode_server_frame, encode_client_frame, encode_server_event_frame,
    CacheManager, ClientFrame, ClientMessage, DeltaTracker, FenwickTree, FrameBuffer,
    GreedyScheduler, GreedySchedulerConfig, HorizonModel, PredictionSummary, RequestId,
    ResponseCatalog, Scheduler, ServerEvent, ServerFrame, ServerPredictor, SessionId,
    SessionManager, ShadowApply, ShadowSummary, Time, UtilityModel,
};

/// Op id of spans taken on shadows rather than on the real path.
pub const SHADOW_OP: u32 = u32::MAX;

/// Spans kept per replay; the buffer is preallocated and never grows.
const SPAN_CAPACITY: usize = 400_000;

pub struct ReplayParts {
    pub catalog: Arc<ResponseCatalog>,
    pub utility: UtilityModel,
    pub manager: SessionManager,
    /// The session whose client side (tracker, cache, shadows) is modelled.
    pub probe: SessionId,
    pub cache: CacheManager,
    /// Scheduler configuration of the probe session, for its shadow.
    pub scheduler: GreedySchedulerConfig,
    pub server_predictor: Box<dyn ServerPredictor>,
    pub expect_payload: bool,
    /// `true`: the workload runs behind a transport server, so messages and
    /// blocks cross the wire codec, arbitration is restricted to an explicit
    /// eligible list as the event loop does, and blocks end in the client
    /// cache.  `false`: session layer only, as a shard's pump drives it.
    pub transport: bool,
}

pub struct Replay {
    pub spans: SpanBuf,
    manager: SessionManager,
    ids: Vec<SessionId>,
    probe: SessionId,
    catalog: Arc<ResponseCatalog>,
    expect_payload: bool,
    transport: bool,
    tracker: DeltaTracker,
    pub cache: CacheManager,
    uplink: FrameBuffer,
    downlink: FrameBuffer,
    shadow: GreedyScheduler,
    shadow_sent: usize,
    shadow_summary: ShadowSummary,
    shadow_predictor: Box<dyn ServerPredictor>,
    model: Option<HorizonModel>,
    model_cfg: GreedySchedulerConfig,
    update_bytes: u64,
    updates: u64,
    downlink_bytes: u64,
    pub blocks: u64,
    rate_reports: u64,
    changed_entries: Vec<f64>,
    structural_changes: Vec<f64>,
    /// `apply_update` on the shadow scheduler in ns, keyed by op kind.
    apply_by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// In-process time on each op's first-block path: its uplink plus the
    /// first block pulled after it.
    path_ns: BTreeMap<u32, u64>,
    /// The op whose uplink is still waiting for that first block, with the
    /// uplink's time so far.
    awaiting_block: Option<(u32, u64)>,
    pub block_hash: Fnv,
    pub check_failures: Vec<String>,
    /// Ops the workload's driver pushed through, so a second replay can
    /// repeat exactly this much work.
    pub ops_done: u64,
    started: Instant,
}

impl Replay {
    pub fn new(parts: ReplayParts, spans_enabled: bool) -> Replay {
        let shadow = GreedyScheduler::new(
            parts.scheduler.clone(),
            parts.utility.clone(),
            parts.catalog.clone(),
        );
        let mut ids = parts.manager.session_ids();
        ids.sort_unstable();
        Replay {
            spans: SpanBuf::new(SPAN_CAPACITY, spans_enabled),
            manager: parts.manager,
            ids,
            probe: parts.probe,
            catalog: parts.catalog,
            expect_payload: parts.expect_payload,
            transport: parts.transport,
            tracker: DeltaTracker::new().with_max_delta_ratio(1.0),
            cache: parts.cache,
            uplink: FrameBuffer::new(),
            downlink: FrameBuffer::new(),
            shadow,
            shadow_sent: 0,
            shadow_summary: ShadowSummary::new(),
            shadow_predictor: parts.server_predictor,
            model: None,
            model_cfg: parts.scheduler,
            update_bytes: 0,
            updates: 0,
            downlink_bytes: 0,
            blocks: 0,
            rate_reports: 0,
            changed_entries: Vec::new(),
            structural_changes: Vec::new(),
            apply_by_kind: BTreeMap::new(),
            path_ns: BTreeMap::new(),
            awaiting_block: None,
            block_hash: Fnv::new(),
            check_failures: Vec::new(),
            ops_done: 0,
            started: Instant::now(),
        }
    }

    /// Uses the default delta economy threshold instead of "always delta"
    /// (the `update_heavy` client is a plain `TransportClient`).
    pub fn with_default_delta_ratio(mut self) -> Self {
        self.tracker = DeltaTracker::new();
        self
    }

    /// The probe client ships `summary` through its delta tracker.
    pub fn uplink_summary(
        &mut self,
        op: u32,
        summary: &PredictionSummary,
        kind: &'static str,
        now: Time,
    ) {
        let started = Instant::now();
        let message = {
            let tracker = &mut self.tracker;
            self.spans
                .time(op, "delta.encode", || tracker.encode(summary))
        };
        self.awaiting_block = Some((op, started.elapsed().as_nanos() as u64));
        self.uplink_message(op, self.probe, message, kind, now);
    }

    /// Any session's client ships `message`: frame it, decode it as the
    /// server would, hand it to the session layer.
    pub fn uplink_message(
        &mut self,
        op: u32,
        session: SessionId,
        message: ClientMessage,
        kind: &'static str,
        now: Time,
    ) {
        let is_update = !matches!(message, ClientMessage::RateReport(_));
        let started = Instant::now();
        let mut wire_bytes = 0;
        let message = if self.transport {
            let frame = ClientFrame::Message(message);
            let bytes = self
                .spans
                .time(op, "wire.encode_client", || encode_client_frame(&frame));
            wire_bytes = bytes.len() as u64;
            let body = {
                let fb = &mut self.uplink;
                self.spans.time(op, "wire.frame_in", || {
                    fb.extend(&bytes);
                    fb.next_frame()
                })
            };
            let Ok(Some(body)) = body else {
                self.check_failures
                    .push("uplink frame did not reassemble".into());
                return;
            };
            let decoded = self
                .spans
                .time(op, "wire.decode_client", || decode_client_frame(&body));
            let Ok(ClientFrame::Message(message)) = decoded else {
                self.check_failures
                    .push("uplink frame did not decode".into());
                return;
            };
            message
        } else {
            message
        };
        let event = {
            let manager = &mut self.manager;
            self.spans.time(op, "session.on_message", || {
                manager.on_message(session, &message, now)
            })
        };
        if is_update {
            // `uplink_summary` may have left this op's tracker time behind.
            let before = match self.awaiting_block {
                Some((waiting, ns)) if waiting == op => ns,
                _ => 0,
            };
            self.awaiting_block = Some((op, before + started.elapsed().as_nanos() as u64));
            self.update_bytes += wire_bytes;
            self.updates += 1;
        } else {
            self.rate_reports += 1;
        }
        if matches!(event, Some(ServerEvent::Resync { .. })) {
            self.check_failures.push("unforced resync in replay".into());
        }
        if session == self.probe && is_update {
            self.shadow_update(&message, kind, now);
        }
    }

    /// Applies the probe's prediction update to the shadows, timing what
    /// `session.on_message` hides: the shadow summary's patch, the shadow
    /// scheduler's `update_prediction[_sparse]`, and the bare model update
    /// (for its diff's structural-change count).
    fn shadow_update(&mut self, message: &ClientMessage, kind: &'static str, now: Time) {
        let Replay {
            spans,
            shadow,
            shadow_summary,
            shadow_predictor,
            shadow_sent,
            changed_entries,
            structural_changes,
            apply_by_kind,
            model,
            model_cfg,
            check_failures,
            ..
        } = self;
        // What the session would hand its scheduler: the summary, and the
        // changed-set when the delta path could certify one.
        let decoded;
        let (summary, changes) = match message {
            ClientMessage::PredictorFull {
                generation,
                summary,
            } => {
                shadow_summary.install(*generation, summary.clone());
                (summary, None)
            }
            ClientMessage::PredictorDelta(delta) => {
                changed_entries.push(delta.changed_entries() as f64);
                let open = spans.enter(SHADOW_OP, "delta.shadow_apply");
                let applied = shadow_summary.apply(delta);
                spans.exit(open);
                match applied {
                    Ok(ShadowApply::Sparse { summary, changes }) => (summary, Some(changes)),
                    Ok(ShadowApply::Full { summary }) => (summary, None),
                    Err(e) => {
                        check_failures.push(format!("shadow refused a delta: {e}"));
                        return;
                    }
                }
            }
            ClientMessage::Predictor(state) => {
                decoded = spans.time(SHADOW_OP, "predictor.decode", || {
                    shadow_predictor.decode(state, now)
                });
                (&decoded, None)
            }
            ClientMessage::RateReport(_) | ClientMessage::Close => return,
        };
        let started = Instant::now();
        spans.time(SHADOW_OP, "scheduler.apply_update", || match &changes {
            Some(changes) => shadow.update_prediction_sparse(summary, changes, *shadow_sent),
            None => shadow.update_prediction(summary, *shadow_sent),
        });
        apply_by_kind
            .entry(kind)
            .or_default()
            .push(started.elapsed().as_nanos() as f64);

        let open = spans.enter(SHADOW_OP, "model.apply_update");
        match model.as_mut().and_then(|m| m.apply_update(summary)) {
            Some(diff) => structural_changes.push(diff.structural_changes() as f64),
            None => {
                *model = Some(HorizonModel::build(
                    summary,
                    model_cfg.cache_blocks,
                    model_cfg.slot_duration,
                    model_cfg.gamma,
                ));
            }
        }
        spans.exit(open);
    }

    /// The probe's user turns to `request`; `true` on a cache hit.
    pub fn register(&mut self, op: u32, request: RequestId, now: Time) -> bool {
        let cache = &mut self.cache;
        self.spans
            .time(op, "cache.register", || cache.register(request, now))
            .is_some()
    }

    /// Pulls up to `count` blocks through the downlink path; returns how
    /// many were delivered before the session layer went idle.
    pub fn pull(&mut self, op: u32, count: usize, now: Time) -> usize {
        for delivered in 0..count {
            let started = Instant::now();
            let event = {
                let (manager, ids, among) = (&mut self.manager, &self.ids, self.transport);
                self.spans.time(op, "session.next_event", || {
                    if among {
                        manager.next_event_among(now, ids)
                    } else {
                        manager.next_event(now)
                    }
                })
            };
            if !matches!(event, ServerEvent::Block { .. }) {
                return delivered;
            }
            let event = if self.transport {
                match self.downlink(op, &event) {
                    Some(decoded) => decoded,
                    None => return delivered,
                }
            } else {
                event
            };
            let ServerEvent::Block { session, block } = event else {
                self.check_failures
                    .push("downlink frame changed the event".into());
                return delivered;
            };
            if !sut::block_is_valid(&self.catalog, &block, self.expect_payload) {
                self.check_failures
                    .push(format!("invalid block {}", block.meta.block));
            }
            self.blocks += 1;
            if session == self.probe {
                self.block_hash.word(
                    u64::from(block.meta.block.request.0) << 32 | u64::from(block.meta.block.index),
                );
                if self.transport {
                    let cache = &mut self.cache;
                    let meta = block.meta;
                    self.spans
                        .time(op, "cache.on_block", || cache.on_block(meta, now));
                }
            }
            if let Some((waiting, uplink_ns)) = self.awaiting_block.take() {
                // First block after an op's uplink: the end of its path.
                self.path_ns
                    .insert(waiting, uplink_ns + started.elapsed().as_nanos() as u64);
            }
            if session == self.probe {
                self.shadow_draw();
            }
        }
        count
    }

    /// Frames `event`, reassembles and decodes it as the client would.
    fn downlink(&mut self, op: u32, event: &ServerEvent) -> Option<ServerEvent> {
        let frame = self.spans.time(op, "wire.encode_event", || {
            encode_server_event_frame(0, event)
        });
        self.downlink_bytes += frame.len() as u64;
        let body = {
            let fb = &mut self.downlink;
            self.spans.time(op, "wire.frame_out", || {
                fb.extend(&frame);
                fb.next_frame()
            })
        };
        let Ok(Some(body)) = body else {
            self.check_failures
                .push("downlink frame did not reassemble".into());
            return None;
        };
        let decoded = self
            .spans
            .time(op, "wire.decode_event", || decode_server_frame(&body));
        match decoded {
            Ok(ServerFrame::Event { event, .. }) => Some(event),
            _ => {
                self.check_failures
                    .push("downlink frame did not decode".into());
                None
            }
        }
    }

    /// One block draw on the shadow scheduler, kept in step with the probe
    /// session's sender position.
    fn shadow_draw(&mut self) {
        let shadow = &mut self.shadow;
        let batch = self
            .spans
            .time(SHADOW_OP, "scheduler.next_block", || shadow.next_batch(1));
        for block in batch {
            Scheduler::note_sent(&mut self.shadow, block);
        }
        self.shadow_sent += 1;
        if self.shadow_sent >= self.model_cfg.cache_blocks {
            self.shadow_sent = 0;
        }
    }

    /// Restarts the replay's clock: drivers call it once the first install
    /// is in, so the time budget and the overhead comparison cover steady
    /// state only.
    pub fn start_clock(&mut self) {
        self.started = Instant::now();
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// In-process first-block path per op, in ns.
    pub fn path_ns(&self) -> &BTreeMap<u32, u64> {
        &self.path_ns
    }

    /// What the replay measured: a percentile of each span name's self
    /// times (only of spans that occurred), exact byte counts, and the probe
    /// session's own counters.
    pub fn metrics(&self) -> Vec<Value> {
        // (span, metric, percentile, ns per unit, unit)
        const SPANS: [(&str, &str, f64, f64, &str); 17] = [
            ("wire.encode_event", "wire.encode_event_ns", 50.0, 1.0, "ns"),
            ("wire.decode_event", "wire.decode_event_ns", 50.0, 1.0, "ns"),
            (
                "wire.encode_client",
                "wire.encode_client_ns",
                50.0,
                1.0,
                "ns",
            ),
            (
                "wire.decode_client",
                "wire.decode_client_ns",
                50.0,
                1.0,
                "ns",
            ),
            ("delta.encode", "delta.encode_us", 50.0, 1e3, "us"),
            (
                "delta.shadow_apply",
                "delta.shadow_apply_us",
                50.0,
                1e3,
                "us",
            ),
            (
                "session.on_message",
                "session.on_message_us_p50",
                50.0,
                1e3,
                "us",
            ),
            (
                "session.on_message",
                "session.on_message_us_p99",
                99.0,
                1e3,
                "us",
            ),
            (
                "session.next_event",
                "session.next_event_ns",
                50.0,
                1.0,
                "ns",
            ),
            (
                "scheduler.apply_update",
                "scheduler.apply_update_us_p50",
                50.0,
                1e3,
                "us",
            ),
            (
                "scheduler.apply_update",
                "scheduler.apply_update_us_p99",
                99.0,
                1e3,
                "us",
            ),
            (
                "scheduler.next_block",
                "scheduler.next_block_ns",
                50.0,
                1.0,
                "ns",
            ),
            (
                "model.apply_update",
                "model.apply_update_us",
                50.0,
                1e3,
                "us",
            ),
            ("predictor.decode", "predictor.decode_us", 50.0, 1e3, "us"),
            (
                "predictor.client_poll",
                "predictor.client_poll_us",
                50.0,
                1e3,
                "us",
            ),
            ("cache.on_block", "cache.on_block_ns", 50.0, 1.0, "ns"),
            ("cache.register", "cache.register_ns", 50.0, 1.0, "ns"),
        ];
        let by_name = self.spans.self_times_by_name();
        let mut out = Vec::new();
        for (span, name, p, scale, unit) in SPANS {
            if let Some(samples) = by_name.get(span) {
                let mut v = samples.clone();
                let n = v.len() as u64;
                out.push(Value::new(name, percentile(&mut v, p) / scale, unit, n));
            }
        }
        for (kind, samples) in &self.apply_by_kind {
            let mut v = samples.clone();
            for (tag, p) in [("p50", 50.0), ("p99", 99.0)] {
                out.push(Value::new(
                    format!("scheduler.apply_update_{kind}_us_{tag}"),
                    percentile(&mut v, p) / 1e3,
                    "us",
                    v.len() as u64,
                ));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        for (name, samples) in [
            ("delta.changed_entries_mean", &self.changed_entries),
            (
                "scheduler.structural_changes_mean",
                &self.structural_changes,
            ),
        ] {
            if !samples.is_empty() {
                out.push(Value::new(
                    name,
                    mean(samples),
                    "count",
                    samples.len() as u64,
                ));
            }
        }
        if self.transport {
            out.push(Value::new(
                "wire.uplink_bytes_per_update",
                self.update_bytes as f64 / self.updates.max(1) as f64,
                "bytes",
                self.updates,
            ));
            out.push(Value::new(
                "wire.downlink_bytes_per_block",
                self.downlink_bytes as f64 / self.blocks.max(1) as f64,
                "bytes",
                self.blocks,
            ));
        }
        if let Some(session) = self.manager.session(self.probe) {
            let updates = session.prediction_updates();
            out.push(Value::new(
                "scheduler.diff_applied_share",
                session.diff_applied_updates() as f64 / updates.max(1) as f64,
                "ratio",
                updates,
            ));
            let live = session.sampler_entries();
            out.push(Value::new("sampling.live_entries", live as f64, "count", 1));
            out.push(locate_ns(live));
        }
        out.push(Value::new(
            "bandwidth.estimate_mbps_final",
            self.manager.bandwidth_estimate().as_mbps(),
            "MB/s",
            1,
        ));
        out.push(Value::new(
            "bandwidth.rate_reports",
            self.rate_reports as f64,
            "count",
            self.rate_reports,
        ));
        out
    }
}

/// Times `FenwickTree::locate` on a tree of `entries` weights: the
/// sampler's proportional draw at the probe session's live size.
fn locate_ns(entries: usize) -> Value {
    let n = entries.max(1);
    let mut tree = FenwickTree::new(0);
    for i in 0..n {
        tree.push(1.0 + (i % 7) as f64);
    }
    let total = tree.total();
    const DRAWS: usize = 20_000;
    let started = Instant::now();
    let mut x = 0.37;
    for _ in 0..DRAWS {
        x = (x * 1.618_033_988_75 + 0.1) % 1.0;
        std::hint::black_box(tree.locate(std::hint::black_box(x * total)));
    }
    Value::new(
        "sampling.locate_ns",
        started.elapsed().as_nanos() as f64 / DRAWS as f64,
        "ns",
        DRAWS as u64,
    )
}
