//! Server-side library: scheduler + sender orchestration (§3.2, §5.3.2).
//!
//! What a deployment plugs in — the [`Backend`] that resolves block
//! references into actual blocks, the [`ServerConfig`] — and
//! [`ServerBuilder`], which assembles the single-client deployment: a
//! [`SessionManager`] holding one [`Session`](crate::session::Session)
//! (greedy scheduler, server-side predictor, bandwidth estimator; the
//! scheduler's log of drawn-but-unconfirmed blocks is the sender queue).
//! There is no single-client server type: one client is the one-session
//! case of the runtime many clients share.
//!
//! ```
//! use std::sync::Arc;
//! use khameleon_core::block::ResponseCatalog;
//! use khameleon_core::server::ServerBuilder;
//! use khameleon_core::utility::{LinearUtility, UtilityModel};
//!
//! let catalog = Arc::new(ResponseCatalog::uniform(100, 10, 10_000));
//! let utility = UtilityModel::homogeneous(&LinearUtility, 10);
//! let server = ServerBuilder::new(utility, catalog).build();
//! assert_eq!(server.num_sessions(), 1);
//! ```
//!
//! Sender coordination follows §5.3.2: when a fresh prediction arrives, the
//! blocks already handed to the network are immutable, the not-yet-sent tail
//! of the current schedule is rolled back and re-planned, and the sender
//! simply continues from its position.

use std::sync::Arc;

use crate::block::{Block, ResponseCatalog};
use crate::predictor::ServerPredictor;
use crate::scheduler::GreedySchedulerConfig;
use crate::session::{SessionBuilder, SessionManager};
use crate::types::{Bandwidth, BlockRef};
use crate::utility::UtilityModel;

/// A data backend that can resolve block references (§3.3: file system,
/// database engine, connection pool, ...).
pub trait Backend: Send {
    /// Fetches `block`.  Returns `None` if the backend cannot produce it
    /// (out-of-range request or block index).
    fn fetch(&mut self, block: BlockRef) -> Option<Block>;

    /// The number of concurrent in-flight requests the backend can serve
    /// without degradation, or `None` if it scales arbitrarily (§5.4).
    ///
    /// A session counts the limit within one refill of its sender queue
    /// ([`ServerConfig::sender_queue_target`] blocks), as the distinct
    /// requests that refill may name.  A refill of `d` blocks names at most
    /// `d` requests, so a limit of `d` or more never binds: under the
    /// default depth of 8, a limit of 8 or more changes nothing.
    fn concurrency_limit(&self) -> Option<usize> {
        None
    }

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "backend"
    }
}

/// Configuration of a [`Session`](crate::session::Session), and of the
/// single-client server [`ServerBuilder`] assembles around one.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration of the session's greedy scheduler (cache size, γ,
    /// seed, ...).
    pub scheduler: GreedySchedulerConfig,
    /// Initial bandwidth estimate used before the client reports rates.
    pub initial_bandwidth: Bandwidth,
    /// How many blocks the scheduler draws ahead of the sender: when its
    /// queue runs dry a refill draws this many, and every prediction update
    /// rolls back what the queue still holds.  Each draw's randomness is keyed by
    /// the seed, the update and the slot, so without a backend concurrency
    /// limit the depth changes the cost, not the schedule: the blocks
    /// committed are those a refill of one block at a time would commit.
    /// Under a limit it is the window in which the limit counts distinct
    /// requests, so it moves the schedule too, and a
    /// [`Backend::concurrency_limit`] at or above it never binds: the
    /// default of 8 leaves a limit of 8 or more idle, where the simulator's
    /// depth of 32 lets Fig. 14's limit of 15 bind.
    pub sender_queue_target: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            scheduler: GreedySchedulerConfig::default(),
            initial_bandwidth: Bandwidth::from_mbps(5.625),
            sender_queue_target: 8,
        }
    }
}

/// Fluent constructor for the single-client server: a [`SessionManager`]
/// holding one session.
///
/// Every component is optional: by default the server gets a greedy
/// scheduler built from [`ServerConfig::scheduler`], a
/// [`SimpleServerPredictor`](crate::predictor::simple::SimpleServerPredictor)
/// sized to the catalog, and a [`CatalogBackend`].
pub struct ServerBuilder {
    session: SessionBuilder,
    backend: Option<Box<dyn Backend>>,
}

impl ServerBuilder {
    /// Starts a builder for the given utility model and catalog.
    pub fn new(utility: UtilityModel, catalog: Arc<ResponseCatalog>) -> Self {
        ServerBuilder {
            session: SessionBuilder::new(utility, catalog),
            backend: None,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: ServerConfig) -> Self {
        self.session = self.session.config(cfg);
        self
    }

    /// Uses a custom server-side predictor component.
    pub fn predictor(mut self, predictor: Box<dyn ServerPredictor>) -> Self {
        self.session = self.session.predictor(predictor);
        self
    }

    /// Uses a custom backend instead of the default [`CatalogBackend`].
    pub fn backend(mut self, backend: Box<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds the server: a [`SessionManager`] over the backend, seeded with
    /// the configuration's `initial_bandwidth`, holding the one session under
    /// [`SessionId`](crate::protocol::SessionId) 0.  With one session the
    /// shared estimate *is* the client's (§5.4); a data-plan cap goes on the
    /// returned manager ([`SessionManager::with_bandwidth_cap`]).
    pub fn build(self) -> SessionManager {
        let backend = self
            .backend
            .unwrap_or_else(|| Box::new(CatalogBackend::new(self.session.catalog.clone())));
        let mut manager = SessionManager::weighted_fair(backend)
            .with_initial_bandwidth(self.session.cfg.initial_bandwidth);
        manager.add_session(self.session);
        manager
    }
}

/// A trivial backend that serves metadata-only blocks straight from the
/// catalog — the equivalent of a file system pre-loaded with progressively
/// encoded responses (§3.2).  Useful for tests and as a default.
pub struct CatalogBackend {
    catalog: Arc<ResponseCatalog>,
}

impl CatalogBackend {
    /// Creates a backend over `catalog`.
    pub fn new(catalog: Arc<ResponseCatalog>) -> Self {
        CatalogBackend { catalog }
    }
}

impl Backend for CatalogBackend {
    fn fetch(&mut self, block: BlockRef) -> Option<Block> {
        let layout = self.catalog.get(block.request)?;
        let meta = layout.block_meta(block.index)?;
        Some(Block {
            meta,
            payload: None,
        })
    }

    fn name(&self) -> &'static str {
        "catalog"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::simple::SimpleServerPredictor;
    use crate::predictor::PredictorState;
    use crate::protocol::{ClientMessage, ServerEvent, SessionId};
    use crate::types::{RequestId, Time};
    use crate::utility::LinearUtility;

    /// The id [`ServerBuilder::build`] gives its one session.
    const CLIENT: SessionId = SessionId(0);

    fn predict(s: &mut SessionManager, request: u32, now: Time) {
        let state = PredictorState::LastRequest(RequestId(request));
        s.on_message(CLIENT, &ClientMessage::Predictor(state), now);
    }

    fn next_block(s: &mut SessionManager, now: Time) -> Option<Block> {
        match s.next_event(now) {
            ServerEvent::Block { session, block } => {
                assert_eq!(session, CLIENT);
                Some(block)
            }
            _ => None,
        }
    }

    fn server(n: usize, blocks: u32, cache_blocks: usize) -> SessionManager {
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
        let cfg = ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks,
                ..Default::default()
            },
            ..Default::default()
        };
        ServerBuilder::new(UtilityModel::homogeneous(&LinearUtility, blocks), catalog)
            .config(cfg)
            .predictor(Box::new(SimpleServerPredictor::new(n)))
            .build()
    }

    #[test]
    fn streams_blocks_without_any_prediction() {
        let mut s = server(10, 4, 20);
        let mut got = 0;
        while let Some(b) = next_block(&mut s, Time::ZERO) {
            assert!(b.meta.block.request.index() < 10);
            got += 1;
            if got > 100 {
                break;
            }
        }
        // 10 requests * 4 blocks = 40 distinct blocks; with cache tracking the
        // server stops once everything fits conceptually in flight.
        assert!(got >= 20, "server pushed only {got} blocks");
        assert_eq!(s.blocks_sent(), got as u64);
        assert!(s.bytes_sent() > 0);
    }

    #[test]
    fn a_prediction_without_residual_drains_after_its_requests() {
        // Four slices of the same ten requests at 0.1 each and no residual:
        // a blended slot's explicit mass rounds to just under one, and the
        // slot must still give the 54 unpredicted requests no probability.
        use crate::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
        let (n, blocks) = (64, 4);
        let mut s = server(n, blocks, 1024);
        let entries = (0..10).map(|i| (RequestId(i), 0.1)).collect();
        let dist = SparseDistribution::from_normalized(n, entries, 0.0);
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .map(|delta| HorizonSlice {
                delta,
                dist: dist.clone(),
            })
            .collect();
        let summary = PredictionSummary::new(n, slices, Time::ZERO);
        let full = ClientMessage::PredictorFull {
            generation: 1,
            summary,
        };
        s.on_message(CLIENT, &full, Time::ZERO);
        let (mut served, mut outside) = (0, 0);
        while let Some(b) = next_block(&mut s, Time::ZERO) {
            served += 1;
            outside += usize::from(b.meta.block.request.index() >= 10);
            assert!(served <= 256, "the session never drains");
        }
        assert_eq!(
            (served, outside),
            (40, 0),
            "(served, outside the prediction)"
        );
    }

    #[test]
    fn prediction_steers_the_stream() {
        let mut s = server(100, 5, 50);
        predict(&mut s, 42, Time::ZERO);
        assert_eq!(s.session(CLIENT).unwrap().prediction_updates(), 1);
        let mut first_blocks = Vec::new();
        for _ in 0..5 {
            if let Some(b) = next_block(&mut s, Time::ZERO) {
                first_blocks.push(b.meta.block);
            }
        }
        let for_42 = first_blocks
            .iter()
            .filter(|b| b.request == RequestId(42))
            .count();
        assert!(
            for_42 >= 4,
            "only {for_42} of the first 5 blocks target the predicted request"
        );
    }

    #[test]
    fn new_prediction_replans_unsent_blocks() {
        let mut s = server(50, 5, 40);
        predict(&mut s, 1, Time::ZERO);
        // Send a couple of blocks for request 1.
        let _ = next_block(&mut s, Time::ZERO);
        let _ = next_block(&mut s, Time::ZERO);
        // Prediction changes to request 2: subsequent blocks switch over.
        predict(&mut s, 2, Time::from_millis(10));
        let b = next_block(&mut s, Time::from_millis(10)).unwrap();
        assert_eq!(b.meta.block.request, RequestId(2));
        assert_eq!(b.meta.block.index, 0);
    }

    #[test]
    fn rate_reports_update_pacing() {
        let mut s = server(10, 2, 10);
        let before = s.pacing_interval();
        s.on_message(
            CLIENT,
            &ClientMessage::RateReport(Bandwidth::from_mbps(1.0)),
            Time::ZERO,
        );
        let after = s.pacing_interval();
        assert!(after > before, "pacing should slow down at lower bandwidth");
        assert!((s.bandwidth_estimate().as_mbps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn typed_protocol_drives_the_server() {
        let mut s = server(50, 4, 30);
        s.on_message(
            CLIENT,
            &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(9))),
            Time::ZERO,
        );
        s.on_message(
            CLIENT,
            &ClientMessage::RateReport(Bandwidth::from_mbps(2.0)),
            Time::ZERO,
        );
        match s.next_event(Time::ZERO) {
            ServerEvent::Block { session, block } => {
                assert_eq!(session, SessionId(0));
                assert_eq!(block.meta.block.request, RequestId(9));
            }
            other => panic!("expected a block, got {other:?}"),
        }
    }

    #[test]
    fn catalog_backend_bounds() {
        let catalog = Arc::new(ResponseCatalog::uniform(2, 2, 100));
        let mut b = CatalogBackend::new(catalog);
        assert!(b.fetch(BlockRef::new(RequestId(1), 1)).is_some());
        assert!(b.fetch(BlockRef::new(RequestId(1), 2)).is_none());
        assert!(b.fetch(BlockRef::new(RequestId(9), 0)).is_none());
        assert_eq!(b.concurrency_limit(), None);
        assert_eq!(b.name(), "catalog");
    }

    #[test]
    fn configs_are_cloneable_and_debuggable() {
        let cfg = ServerConfig::default();
        let copy = cfg.clone();
        let text = format!("{copy:?}");
        assert!(text.contains("ServerConfig"));
        assert!(text.contains("scheduler"));
    }

    struct LimitedBackend {
        inner: CatalogBackend,
        limit: usize,
    }

    impl Backend for LimitedBackend {
        fn fetch(&mut self, block: BlockRef) -> Option<Block> {
            self.inner.fetch(block)
        }
        fn concurrency_limit(&self) -> Option<usize> {
            Some(self.limit)
        }
    }

    #[test]
    fn backend_limit_restricts_distinct_requests() {
        let n = 50;
        let blocks = 10u32;
        let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
        let cfg = ServerConfig {
            scheduler: GreedySchedulerConfig {
                cache_blocks: 30,
                ..Default::default()
            },
            sender_queue_target: 30,
            ..Default::default()
        };
        let mut s = ServerBuilder::new(
            UtilityModel::homogeneous(&LinearUtility, blocks),
            catalog.clone(),
        )
        .config(cfg)
        .predictor(Box::new(SimpleServerPredictor::new(n)))
        .backend(Box::new(LimitedBackend {
            inner: CatalogBackend::new(catalog),
            limit: 3,
        }))
        .build();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..30 {
            if let Some(b) = next_block(&mut s, Time::ZERO) {
                seen.insert(b.meta.block.request);
            }
        }
        assert!(
            seen.len() <= 3,
            "backend limit violated: {} distinct requests in one queue refill",
            seen.len()
        );
    }
}
