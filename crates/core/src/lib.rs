//! # khameleon-core
//!
//! Core library of the Khameleon reproduction: *Continuous Prefetch for
//! Interactive Data Applications* (SIGMOD 2020).
//!
//! Khameleon is a prefetching framework for interactive data visualization
//! and exploration (DVE) applications that are bottlenecked by request
//! latency and network transfer.  Instead of predicting a handful of future
//! requests and fetching their full responses, it:
//!
//! 1. **progressively encodes** every response into an ordered list of blocks
//!    where any prefix renders a lower-quality result ([`block`],
//!    [`utility`]);
//! 2. replaces client pull-requests with a **push** model: the client
//!    registers requests locally ([`client::CacheManager`]) and periodically
//!    ships a probability distribution over future requests
//!    ([`predictor`], [`distribution`]);
//! 3. runs a server-side **scheduler**, the greedy sampler of §5.3
//!    ([`scheduler::GreedyScheduler`]), that allocates network slots to
//!    blocks so as to maximize expected user-perceived utility over the
//!    client cache's horizon, paced by a bandwidth estimator ([`bandwidth`])
//!    and served from a pluggable [`server::Backend`]; the exact planner of
//!    §5.2 ([`scheduler::OptimalScheduler`]) prices its schedules offline,
//!    as in §A.1;
//! 4. **multiplexes** many concurrent clients over one shared backend and
//!    bandwidth budget ([`session::SessionManager`]), dividing the wire
//!    between sessions by weighted-fair queueing, all speaking the typed
//!    [`protocol`].
//!
//! The sibling crates build substrates on top of this core: network link
//! models (`khameleon-net`), data backends and progressive encoders
//! (`khameleon-backend`), application + trace models (`khameleon-apps`), a
//! discrete-event simulator (`khameleon-sim`), and the benchmark harness that
//! regenerates every figure of the paper (`khameleon-bench`).
//!
//! ## Quick start: one client
//!
//! Servers are assembled with [`server::ServerBuilder`]; the predictor and
//! the backend are swappable, and the defaults give the paper's deployment:
//! greedy scheduler over a catalog-backed store.  It
//! builds a [`session::SessionManager`] holding one session, id 0 — one
//! client is the one-session case of the runtime the next section shares.
//!
//! ```
//! use std::sync::Arc;
//! use khameleon_core::block::ResponseCatalog;
//! use khameleon_core::client::CacheManager;
//! use khameleon_core::predictor::PredictorState;
//! use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
//! use khameleon_core::server::ServerBuilder;
//! use khameleon_core::types::{RequestId, Time};
//! use khameleon_core::utility::{LinearUtility, UtilityModel};
//!
//! // 100 requests, each progressively encoded into 10 blocks of 10 KB.
//! let catalog = Arc::new(ResponseCatalog::uniform(100, 10, 10_000));
//! let utility = UtilityModel::homogeneous(&LinearUtility, 10);
//!
//! let mut server = ServerBuilder::new(utility.clone(), catalog.clone()).build();
//! let mut client = CacheManager::new(64, catalog, utility);
//!
//! // The client registers a request locally; the server learns about it
//! // through the typed protocol and streams blocks; the first block
//! // triggers an upcall.
//! let now = Time::ZERO;
//! assert!(client.register(RequestId(7), now).is_none());
//! server.on_message(
//!     SessionId(0),
//!     &ClientMessage::Predictor(PredictorState::LastRequest(RequestId(7))),
//!     now,
//! );
//! let ServerEvent::Block { block, .. } = server.next_event(now) else {
//!     panic!("server has blocks to push");
//! };
//! let upcalls = client.on_block(block.meta, Time::from_millis(5));
//! assert_eq!(upcalls[0].request, RequestId(7));
//! ```
//!
//! ## Quick start: many clients
//!
//! A [`session::SessionManager`] serves N sessions from one backend, and
//! weighted-fair queueing decides whose block goes on the wire next:
//!
//! ```
//! use std::sync::Arc;
//! use khameleon_core::block::ResponseCatalog;
//! use khameleon_core::protocol::ServerEvent;
//! use khameleon_core::server::CatalogBackend;
//! use khameleon_core::session::{Session, SessionManager};
//! use khameleon_core::types::Time;
//! use khameleon_core::utility::{LinearUtility, UtilityModel};
//!
//! let catalog = Arc::new(ResponseCatalog::uniform(50, 4, 10_000));
//! let utility = UtilityModel::homogeneous(&LinearUtility, 4);
//!
//! let mut manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())));
//! let a = manager.add_session(Session::builder(utility.clone(), catalog.clone()));
//! let b = manager.add_session(Session::builder(utility, catalog).weight(2.0));
//!
//! // Both sessions are served; over a long run `b`, at twice the weight,
//! // gets twice the blocks.
//! let mut served = std::collections::HashSet::new();
//! for _ in 0..4 {
//!     if let ServerEvent::Block { session, .. } = manager.next_event(Time::ZERO) {
//!         served.insert(session);
//!     }
//! }
//! assert!(served.contains(&a) && served.contains(&b));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod bandwidth;
pub mod block;
pub mod cache;
pub mod client;
pub mod delta;
pub mod distribution;
pub mod fault;
pub mod metrics;
pub mod predictor;
pub mod protocol;
pub(crate) mod request_map;
pub mod sampling;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod shard;
pub mod types;
pub mod utility;

pub use bandwidth::BandwidthEstimator;
pub use block::{Block, BlockMeta, ResponseCatalog, ResponseLayout};
pub use cache::{LruCache, RingCache};
pub use client::{CacheManager, Upcall};
pub use distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{MetricsCollector, MetricsSummary};
pub use predictor::{
    ClientPredictor, InteractionEvent, PredictorManager, PredictorState, RequestLayout,
    ServerPredictor,
};
pub use protocol::{ClientMessage, ServerEvent, SessionId};
pub use sampling::{FenwickTree, GainSampler, SampledGroup, SamplerVariant};
pub use scheduler::{
    ExplicitPlacement, GreedyContext, GreedyScheduler, GreedySchedulerConfig, HorizonModel,
    ModelCache, ModelDiff, OptimalScheduler, Scheduler, ShapeBucket, TailShapePartition,
};
pub use server::{Backend, CatalogBackend, ServerBuilder, ServerConfig};
pub use session::{Session, SessionBuilder, SessionManager};
pub use shard::{ShardSnapshot, ShardStats, ShardedSessionManager};
pub use types::{Bandwidth, BlockRef, Duration, RequestId, Time};
pub use utility::{
    GainTable, LinearUtility, PiecewiseUtility, PowerUtility, UtilityFunction, UtilityModel,
};
