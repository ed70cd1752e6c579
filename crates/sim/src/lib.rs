//! # khameleon-sim
//!
//! Deterministic discrete-event simulations of complete Khameleon and
//! baseline deployments, plus the experiment harness that the benchmark
//! binaries use to regenerate every figure of the paper.
//!
//! * [`engine`] — the event queue / logical clock;
//! * [`config`] — experiment conditions (bandwidth, cache, request latency);
//! * [`khameleon_sim`] — end-to-end Khameleon: real scheduler, cache manager,
//!   predictor manager and bandwidth estimator wired to a simulated network;
//! * [`baseline_sim`] — the request/response baselines (Baseline,
//!   Progressive, ACC-\<acc\>-\<hor\>) with an LRU cache;
//! * [`harness`] — one function per experiment cell (image app, Falcon,
//!   convergence probes);
//! * [`result`] — run results and CSV formatting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline_sim;
pub mod config;
pub mod engine;
pub mod harness;
pub mod khameleon_sim;
pub mod result;

pub use baseline_sim::{run_baseline, BaselineOptions};
pub use config::{BandwidthSpec, ExperimentConfig};
pub use engine::EventQueue;
pub use harness::{
    run_convergence, run_falcon, run_image_comparison, run_image_system, SystemKind,
};
pub use khameleon_sim::{run_khameleon, BackendLatency, KhameleonOptions};
pub use result::RunResult;
