//! # Khameleon
//!
//! A reproduction of *Continuous Prefetch for Interactive Data Applications*
//! (SIGMOD 2020): a framework that combines **progressive response encoding**,
//! **push-based streaming**, and a **server-side scheduler** that jointly
//! optimizes prefetching and response quality for interactive data
//! visualization and exploration (DVE) applications.  Clients are served by
//! a [`core::session::SessionManager`], which multiplexes sessions over a
//! shared backend; [`core::server::ServerBuilder`] assembles the one-session
//! case.
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `khameleon-core` | blocks, utility, ring cache, predictors, greedy + optimal schedulers, client/server libraries |
//! | [`net`] | `khameleon-net` | link models (fixed, cellular LTE), receive-rate metering |
//! | [`backend`] | `khameleon-backend` | columnar engine, data-cube queries, flights dataset, progressive encoders, block store |
//! | [`apps`] | `khameleon-apps` | image-exploration and Falcon application models, interaction traces, baselines |
//! | [`sim`] | `khameleon-sim` | discrete-event simulations of Khameleon and the baselines, experiment harness |
//!
//! See the `examples/` directory for runnable walkthroughs (`quickstart`,
//! `image_exploration`, `falcon_dashboard`, `custom_predictor`,
//! `live_pipeline`) and `crates/bench` for the binaries that regenerate every
//! figure of the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use khameleon_apps as apps;
pub use khameleon_backend as backend;
pub use khameleon_core as core;
pub use khameleon_net as net;
pub use khameleon_sim as sim;
pub use khameleon_transport as transport;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
    pub use khameleon_apps::traces::{generate_image_trace, ImageTraceConfig, InteractionTrace};
    pub use khameleon_core::block::{ResponseCatalog, ResponseLayout};
    pub use khameleon_core::client::CacheManager;
    pub use khameleon_core::predictor::{
        ClientPredictor, InteractionEvent, PredictorState, ServerPredictor,
    };
    pub use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
    pub use khameleon_core::scheduler::{GreedyScheduler, GreedySchedulerConfig, Scheduler};
    pub use khameleon_core::server::{CatalogBackend, ServerBuilder, ServerConfig};
    pub use khameleon_core::session::{Session, SessionManager};
    pub use khameleon_core::types::{Bandwidth, BlockRef, Duration, RequestId, Time};
    pub use khameleon_core::utility::{LinearUtility, PiecewiseUtility, UtilityModel};
    pub use khameleon_sim::config::ExperimentConfig;
    pub use khameleon_sim::harness::{run_image_comparison, run_image_system, SystemKind};
}
