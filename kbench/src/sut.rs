//! The one door into the system under test.
//!
//! Every other file of the benchmark names system items through this module
//! only, so the list below is exactly what a later change to the system
//! (e.g. collapsing the three session runtimes, ROADMAP 3a) must keep
//! compiling for the benchmark to build unedited.
//!
//! Public items used, by crate and module (fields in braces):
//!
//! * `khameleon_core::types` — `RequestId(u32)`,
//!   `BlockRef { request, index }`, `BlockRef::new`, `Time::{ZERO,
//!   from_micros, as_micros}`, `Duration::from_millis`, `Bandwidth::
//!   {from_mbps, as_mbps, transmit_time}`
//! * `khameleon_core::block` — `Block { meta, payload }`, `Block::
//!   {meta_only, with_payload}`, `BlockMeta { block, total_blocks, size }`,
//!   `ResponseCatalog::{uniform, get, num_blocks, max_block_size}`,
//!   `ResponseLayout::block_meta`
//! * `khameleon_core::distribution` — `SparseDistribution::
//!   {from_normalized, explicit_entries, residual_mass}`, `HorizonSlice
//!   { delta, dist }`, `PredictionSummary::{new, slices}`
//! * `khameleon_core::utility` — `UtilityModel::homogeneous`,
//!   `LinearUtility`, `PowerUtility::new`
//! * `khameleon_core::protocol` — `ClientMessage::{Predictor,
//!   PredictorFull { generation, summary }, PredictorDelta, RateReport,
//!   Close}`, `ServerEvent::{Block { session, block }, Idle, Resync, Closed,
//!   Busy}`, `SessionId(u64)`
//! * `khameleon_core::predictor` — `PredictorState::Summary`,
//!   `InteractionEvent::{MouseMove, Request}`, `PredictorManager::{new,
//!   observe, due, poll, force, next_due}`, `PredictorManagerConfig
//!   { send_interval, send_on_request }`, `ServerPredictor::decode`,
//!   `RequestLayout::bounds`, `simple::SimpleServerPredictor::new`
//! * `khameleon_core::delta` — `DeltaTracker::{new, with_max_delta_ratio,
//!   encode, reset}`, `ShadowSummary::{new, install, apply}`, `ShadowApply::
//!   {Sparse { summary, changes }, Full { summary }}`, `PredictionDelta::
//!   changed_entries`, `DeltaError: Display`
//! * `khameleon_core::scheduler` — `GreedyScheduler::{new,
//!   update_prediction, update_prediction_sparse, next_batch}`,
//!   `GreedySchedulerConfig { cache_blocks, seed, slot_duration, gamma, .. }:
//!   Default`, `Scheduler::note_sent`, `HorizonModel::{build, apply_update}`,
//!   `ModelDiff::structural_changes`
//! * `khameleon_core::sampling` — `FenwickTree::{new, push, total, locate}`
//! * `khameleon_core::server` — `Backend::{fetch, name}` (implemented
//!   here), `CatalogBackend::new`, `ServerConfig { scheduler, .. }: Default`
//! * `khameleon_core::session` — `Session::{builder, sampler_entries,
//!   prediction_updates, diff_applied_updates}`, `SessionBuilder::{config,
//!   predictor, weight}`, `SessionManager::{weighted_fair,
//!   with_bandwidth_cap, add_session, on_message, next_event,
//!   next_event_among, session, session_ids, bandwidth_estimate,
//!   pacing_interval}`
//! * `khameleon_core::shard` — `ShardedSessionManager::{spawn, add_session,
//!   on_message, pump, stats}`, `ShardStats { live_models, totals }`,
//!   `ShardSnapshot { prediction_updates, diff_applied_updates,
//!   resync_requests, .. }`
//! * `khameleon_core::client` — `CacheManager::{new, with_byte_capacity,
//!   register, on_block, current_blocks, metrics}`, `Upcall { logical_ts,
//!   utility, .. }`
//! * `khameleon_core::metrics` — `MetricsCollector::summary`,
//!   `MetricsSummary { requests, blocks_pushed, preempted_rate,
//!   overpush_rate, .. }`
//! * `khameleon_transport` — `TransportServer::{spawn, local_addr, stats,
//!   shutdown}`, `ShardedTransportServer::{spawn, local_addr, stats,
//!   shard_stats, shutdown}`, `TransportConfig { paced, lockstep, .. }:
//!   Default`, `ServerStats { accepted, frames_out, decode_errors,
//!   peak_queue_frames, backpressure_skips, .. }`, `TransportClient::
//!   {connect, set_read_timeout, send_prediction, send_credit, recv_event,
//!   full_updates, delta_updates, resyncs_seen}`, `UplinkReport { bytes,
//!   delta }`
//! * `khameleon_transport::wire` — `ClientFrame::Message`, `ServerFrame::
//!   {Event { event, .. }, Welcome}`, `FrameBuffer::{new, extend,
//!   next_frame}`, `encode_client_frame`, `decode_client_frame`,
//!   `encode_server_event_frame`, `decode_server_frame`
//! * `khameleon_apps` — `image_app::{ImageExplorationApp::{reduced, layout,
//!   catalog, utility, client_predictor, server_predictor}, PredictorKind::
//!   Kalman}`, `traces::{generate_image_trace, ImageTraceConfig { duration,
//!   seed, .. }: Default, InteractionTrace { samples, requests, .. },
//!   MouseSample { at, x, y }}`, `layout::GridLayout: RequestLayout`
//!
//! Thread names the harness looks up in `/proc`: every server thread's name
//! starts with `khameleon-`.
//!
//! `khameleon_backend` and `khameleon_sim` are not on the measured path: the
//! payload backend is the bench-local [`PatternBackend`] below.

use std::sync::Arc;

pub use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
pub use khameleon_apps::traces::{generate_image_trace, ImageTraceConfig, InteractionTrace};
pub use khameleon_core::block::{Block, ResponseCatalog};
pub use khameleon_core::client::CacheManager;
pub use khameleon_core::delta::{DeltaTracker, ShadowApply, ShadowSummary};
pub use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
pub use khameleon_core::predictor::simple::SimpleServerPredictor;
pub use khameleon_core::predictor::{
    InteractionEvent, PredictorManager, PredictorManagerConfig, PredictorState, RequestLayout,
    ServerPredictor,
};
pub use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
pub use khameleon_core::sampling::FenwickTree;
pub use khameleon_core::scheduler::{
    GreedyScheduler, GreedySchedulerConfig, HorizonModel, Scheduler,
};
pub use khameleon_core::server::{Backend, CatalogBackend, ServerConfig};
pub use khameleon_core::session::{Session, SessionBuilder, SessionManager};
pub use khameleon_core::shard::ShardedSessionManager;
pub use khameleon_core::types::{Bandwidth, BlockRef, Duration, RequestId, Time};
pub use khameleon_core::utility::{LinearUtility, PowerUtility, UtilityModel};
pub use khameleon_transport::wire::{
    decode_client_frame, decode_server_frame, encode_client_frame, encode_server_event_frame,
    ClientFrame, FrameBuffer, ServerFrame,
};
pub use khameleon_transport::{
    ServerStats, ShardedTransportServer, TransportClient, TransportConfig, TransportServer,
};

/// First byte of the payload of block `index` of `request`; byte `j` is this
/// plus `j`, wrapping.  Lets the client check every payload byte without
/// holding a copy of the corpus.
fn pattern_start(block: BlockRef) -> u8 {
    (block
        .request
        .0
        .wrapping_mul(31)
        .wrapping_add(block.index.wrapping_mul(7))
        & 0xff) as u8
}

/// Bench-local payload backend: serves every catalog block with a payload
/// of the block's padded size filled with a checkable pattern.
pub struct PatternBackend {
    catalog: Arc<ResponseCatalog>,
}

impl PatternBackend {
    pub fn new(catalog: Arc<ResponseCatalog>) -> Self {
        PatternBackend { catalog }
    }
}

impl Backend for PatternBackend {
    fn fetch(&mut self, block: BlockRef) -> Option<Block> {
        let meta = self.catalog.get(block.request)?.block_meta(block.index)?;
        let start = pattern_start(block);
        let payload = (0..meta.size as usize)
            .map(|j| start.wrapping_add(j as u8))
            .collect();
        Some(Block::with_payload(
            block,
            meta.total_blocks,
            meta.size,
            payload,
        ))
    }

    fn name(&self) -> &'static str {
        "kbench-pattern"
    }
}

/// Checks one received block against the catalog: index inside its
/// response, block count and size as catalogued, and — when the workload
/// ships payloads — the payload's length and every byte of its pattern.
pub fn block_is_valid(catalog: &ResponseCatalog, block: &Block, expect_payload: bool) -> bool {
    let Some(meta) = catalog
        .get(block.meta.block.request)
        .and_then(|layout| layout.block_meta(block.meta.block.index))
    else {
        return false;
    };
    if meta != block.meta {
        return false;
    }
    match (&block.payload, expect_payload) {
        (None, false) => true,
        (Some(payload), true) => {
            let start = pattern_start(block.meta.block);
            payload.len() as u64 == meta.size
                && payload
                    .iter()
                    .enumerate()
                    .all(|(j, &b)| b == start.wrapping_add(j as u8))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_backend_blocks_validate_and_corruption_is_caught() {
        let catalog = Arc::new(ResponseCatalog::uniform(8, 4, 64));
        let mut backend = PatternBackend::new(catalog.clone());
        let mut block = backend
            .fetch(BlockRef::new(RequestId(5), 3))
            .expect("in range");
        assert!(block_is_valid(&catalog, &block, true));
        assert!(!block_is_valid(&catalog, &block, false));
        block.payload.as_mut().expect("payload")[10] ^= 1;
        assert!(!block_is_valid(&catalog, &block, true));
        assert!(backend.fetch(BlockRef::new(RequestId(5), 4)).is_none());
        let meta_only = Block::meta_only(BlockRef::new(RequestId(1), 0), 4, 64);
        assert!(block_is_valid(&catalog, &meta_only, false));
        let wrong_total = Block::meta_only(BlockRef::new(RequestId(1), 0), 5, 64);
        assert!(!block_is_valid(&catalog, &wrong_total, false));
    }
}
