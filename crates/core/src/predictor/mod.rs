//! Predictor framework.
//!
//! Applications register a predictor decomposed into a client component and a
//! server component (§4):
//!
//! ```text
//! P_t(q | Δ, e_t) = P_s(q | Δ, s_t) · P_c(s_t | Δ, e_t)
//! ```
//!
//! The **client** component ([`ClientPredictor`]) consumes raw interaction
//! events and produces a compact *predictor state* `s_t` at any time
//! (the *Anytime* property).  The **server** component ([`ServerPredictor`])
//! turns that state into a [`PredictionSummary`] — a probability distribution
//! over requests for each future offset Δ — which drives the scheduler.
//!
//! This module provides the traits, the event and state types, the generic
//! default predictors (uniform, point), the Kalman-filter mouse predictor
//! used in the paper's experiments, an oracle predictor for upper-bound
//! comparisons, and the [`manager::PredictorManager`] that decides *when* to
//! ship state to the server.

pub mod gaussian;
pub mod kalman;
pub mod manager;
pub mod oracle;
pub mod simple;

use crate::distribution::PredictionSummary;
use crate::types::{RequestId, Time};

pub use gaussian::{Gaussian2d, Point2d};
pub use kalman::{KalmanConfig, KalmanMousePredictor};
pub use manager::{PredictorManager, PredictorManagerConfig};
pub use oracle::OraclePredictor;
pub use simple::{PointPredictor, UniformPredictor};

/// A raw client-side interaction event fed to the predictor (§4: mouse
/// movements, requests, and other UI events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InteractionEvent {
    /// The pointer moved to `(x, y)` in interface coordinates.
    MouseMove {
        /// Horizontal pointer coordinate.
        x: f64,
        /// Vertical pointer coordinate.
        y: f64,
        /// When the movement occurred.
        at: Time,
    },
    /// The application issued (registered) a request.
    Request {
        /// The request that was issued.
        request: RequestId,
        /// When it was issued.
        at: Time,
    },
    /// The pointer entered the widget that maps to `request` (Falcon's
    /// "on hover" signal, §6.4).
    Hover {
        /// The request whose widget is hovered.
        request: RequestId,
        /// When the hover began.
        at: Time,
    },
}

impl InteractionEvent {
    /// The time the event occurred.
    pub fn at(&self) -> Time {
        match *self {
            InteractionEvent::MouseMove { at, .. }
            | InteractionEvent::Request { at, .. }
            | InteractionEvent::Hover { at, .. } => at,
        }
    }
}

/// Compact predictor state `s_t` shipped from the client to the server.
///
/// The decomposition is intentionally flexible (§4): the state may be raw
/// events, model parameters, or the predicted probabilities themselves.  The
/// variants below cover the configurations used in the paper; applications
/// with bespoke predictors can use [`PredictorState::Opaque`].
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorState {
    /// No information: the server falls back to a uniform distribution.
    Empty,
    /// The most recent explicit request (the generic default of §3.4).
    LastRequest(RequestId),
    /// Per-offset Gaussian estimates of the future pointer position — six
    /// floats per offset (§4: centroid + 2×2 covariance).
    MouseGaussians(Vec<(crate::types::Duration, Gaussian2d)>),
    /// Top-k most likely requests with probabilities; all other requests are
    /// treated as (near-)zero probability.
    TopK(Vec<(RequestId, f64)>),
    /// A fully materialized prediction computed on the client.
    Summary(PredictionSummary),
    /// Application-defined opaque bytes.
    Opaque(Vec<u8>),
}

impl PredictorState {
    /// Approximate serialized size in bytes, used by the simulator to charge
    /// the uplink for prediction traffic.
    pub fn wire_size_bytes(&self) -> u64 {
        match self {
            PredictorState::Empty => 1,
            PredictorState::LastRequest(_) => 5,
            PredictorState::MouseGaussians(v) => 1 + (v.len() * 7 * 8) as u64,
            PredictorState::TopK(v) => 1 + (v.len() * 12) as u64,
            PredictorState::Summary(s) => 1 + s.wire_size_bytes(),
            PredictorState::Opaque(b) => 1 + b.len() as u64,
        }
    }
}

/// Client-side predictor component `P_c`: folds interaction events into
/// internal state and can emit a compact [`PredictorState`] *at any time*.
pub trait ClientPredictor: Send {
    /// Incorporates a new interaction event.
    fn observe(&mut self, event: &InteractionEvent);

    /// Produces the compact state to ship to the server, as of `now`.
    ///
    /// This must be callable at arbitrary times (the Anytime property, §3.3):
    /// the [`PredictorManager`] decides the cadence.
    fn state(&mut self, now: Time) -> PredictorState;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &str {
        "client-predictor"
    }
}

/// Server-side predictor component `P_s`: decodes client state into a
/// probability distribution over requests for each future offset.
pub trait ServerPredictor: Send {
    /// Decodes `state` (received at server time `now`) into a prediction.
    fn decode(&mut self, state: &PredictorState, now: Time) -> PredictionSummary;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &str {
        "server-predictor"
    }
}

/// Maps interface coordinates to requests: the `P_l(q | x, y, l)` term for
/// static layouts (§4).
///
/// Implemented by the application crates (e.g. a thumbnail grid or a set of
/// chart bounding boxes); the core crate only needs the ability to integrate
/// a spatial distribution over widget bounding boxes.
pub trait RequestLayout: Send + Sync {
    /// Total number of requests in the layout.
    fn num_requests(&self) -> usize;

    /// The request whose widget contains `(x, y)`, if any.
    fn request_at(&self, x: f64, y: f64) -> Option<RequestId>;

    /// Axis-aligned bounding box `(x0, y0, x1, y1)` of the widget for
    /// `request`.
    fn bounds(&self, request: RequestId) -> (f64, f64, f64, f64);

    /// Overall interface bounds `(x0, y0, x1, y1)`.
    fn interface_bounds(&self) -> (f64, f64, f64, f64);

    /// Requests whose bounding boxes intersect the axis-aligned query
    /// rectangle.  The default implementation scans all requests; grid
    /// layouts override this with an O(area) lookup.
    fn requests_in_rect(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<RequestId> {
        (0..self.num_requests())
            .map(RequestId::from)
            .filter(|&r| {
                let (bx0, by0, bx1, by1) = self.bounds(r);
                bx0 < x1 && bx1 > x0 && by0 < y1 && by1 > y0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Duration;

    #[test]
    fn event_time_accessor() {
        let t = Time::from_millis(7);
        assert_eq!(
            InteractionEvent::MouseMove {
                x: 0.0,
                y: 0.0,
                at: t
            }
            .at(),
            t
        );
        assert_eq!(
            InteractionEvent::Request {
                request: RequestId(1),
                at: t
            }
            .at(),
            t
        );
        assert_eq!(
            InteractionEvent::Hover {
                request: RequestId(1),
                at: t
            }
            .at(),
            t
        );
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        assert_eq!(PredictorState::Empty.wire_size_bytes(), 1);
        assert!(PredictorState::LastRequest(RequestId(3)).wire_size_bytes() > 1);
        let g = PredictorState::MouseGaussians(vec![(
            Duration::from_millis(50),
            Gaussian2d::new(Point2d { x: 0.0, y: 0.0 }, 1.0, 1.0, 0.0),
        )]);
        assert_eq!(g.wire_size_bytes(), 1 + 56);
        let k = PredictorState::TopK(vec![(RequestId(0), 0.5), (RequestId(1), 0.5)]);
        assert_eq!(k.wire_size_bytes(), 25);
        assert_eq!(PredictorState::Opaque(vec![0u8; 10]).wire_size_bytes(), 11);
    }
}
