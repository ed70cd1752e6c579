//! # khameleon-net
//!
//! Network substrates for the Khameleon reproduction: link models with
//! serialization and propagation delay ([`link`]), fixed-rate (netem-style)
//! and time-varying cellular LTE profiles ([`cellular`]), and client-side
//! receive-rate measurement ([`estimator`]).
//!
//! These models stand in for the netem/Mahimahi network emulation used in the
//! paper's evaluation (§6.1); see `DESIGN.md` for the substitution rationale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cellular;
pub mod estimator;
pub mod link;

pub use cellular::RateTrace;
pub use estimator::ReceiveRateMeter;
pub use link::{BandwidthModel, ConstantRate, Link};
