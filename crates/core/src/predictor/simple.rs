//! Generic default predictors: uniform and point.
//!
//! These are the "generic defaults" of §3.4: a predictor that treats each
//! explicit request as a point distribution (so the scheduler behaves like a
//! traditional request/response system plus background hedging), and a
//! predictor that assumes every request is equally likely (the framework
//! default when no predictor is registered, §3.2).

use crate::distribution::PredictionSummary;
use crate::predictor::{ClientPredictor, InteractionEvent, PredictorState, ServerPredictor};
use crate::types::{RequestId, Time};

/// Client predictor that carries no information; the server falls back to a
/// uniform distribution over all requests.
#[derive(Debug, Clone, Default)]
pub struct UniformPredictor;

impl ClientPredictor for UniformPredictor {
    fn observe(&mut self, _event: &InteractionEvent) {}

    fn state(&mut self, _now: Time) -> PredictorState {
        PredictorState::Empty
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Client predictor that reports the most recently requested (or hovered)
/// item as a point distribution.
#[derive(Debug, Clone, Default)]
pub struct PointPredictor {
    last: Option<RequestId>,
}

impl PointPredictor {
    /// Creates a point predictor with no initial request.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClientPredictor for PointPredictor {
    fn observe(&mut self, event: &InteractionEvent) {
        match *event {
            InteractionEvent::Request { request, .. } | InteractionEvent::Hover { request, .. } => {
                self.last = Some(request);
            }
            InteractionEvent::MouseMove { .. } => {}
        }
    }

    fn state(&mut self, _now: Time) -> PredictorState {
        match self.last {
            Some(r) => PredictorState::LastRequest(r),
            None => PredictorState::Empty,
        }
    }

    fn name(&self) -> &str {
        "point"
    }
}

/// Server predictor for a request space of known size that understands the
/// simple state variants (`Empty`, `LastRequest`, `TopK`, `Summary`) without
/// needing a spatial layout.
#[derive(Debug, Clone)]
pub struct SimpleServerPredictor {
    n: usize,
}

impl SimpleServerPredictor {
    /// Creates a server predictor for a request space of `n` requests.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "request space must be non-empty");
        SimpleServerPredictor { n }
    }
}

impl ServerPredictor for SimpleServerPredictor {
    fn decode(&mut self, state: &PredictorState, now: Time) -> PredictionSummary {
        match state {
            PredictorState::LastRequest(r) => PredictionSummary::point(self.n, *r, now),
            PredictorState::TopK(entries) => {
                let dist =
                    crate::distribution::SparseDistribution::from_weights(self.n, entries.clone());
                let slices = PredictionSummary::default_deltas()
                    .into_iter()
                    .map(|delta| crate::distribution::HorizonSlice {
                        delta,
                        dist: dist.clone(),
                    })
                    .collect();
                PredictionSummary::new(self.n, slices, now)
            }
            PredictorState::Summary(s) => s.clone(),
            _ => PredictionSummary::uniform(self.n, now),
        }
    }

    fn name(&self) -> &str {
        "simple"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Duration;

    #[test]
    fn uniform_predictor_is_stateless() {
        let mut p = UniformPredictor;
        p.observe(&InteractionEvent::Request {
            request: RequestId(5),
            at: Time::ZERO,
        });
        assert_eq!(p.state(Time::ZERO), PredictorState::Empty);
        assert_eq!(p.name(), "uniform");
    }

    #[test]
    fn point_predictor_tracks_latest() {
        let mut p = PointPredictor::new();
        assert_eq!(p.state(Time::ZERO), PredictorState::Empty);
        p.observe(&InteractionEvent::Request {
            request: RequestId(1),
            at: Time::ZERO,
        });
        p.observe(&InteractionEvent::MouseMove {
            x: 1.0,
            y: 2.0,
            at: Time::from_millis(1),
        });
        p.observe(&InteractionEvent::Hover {
            request: RequestId(7),
            at: Time::from_millis(2),
        });
        assert_eq!(p.last, Some(RequestId(7)));
        assert_eq!(
            p.state(Time::ZERO),
            PredictorState::LastRequest(RequestId(7))
        );
    }

    #[test]
    fn simple_server_decodes_each_variant() {
        let mut s = SimpleServerPredictor::new(20);
        let d50 = Duration::from_millis(50);

        let uni = s.decode(&PredictorState::Empty, Time::ZERO);
        assert!((uni.at(d50).prob(RequestId(3)) - 0.05).abs() < 1e-9);

        let pt = s.decode(&PredictorState::LastRequest(RequestId(4)), Time::ZERO);
        assert!((pt.at(d50).prob(RequestId(4)) - 1.0).abs() < 1e-9);

        let topk = s.decode(
            &PredictorState::TopK(vec![(RequestId(0), 1.0), (RequestId(1), 1.0)]),
            Time::ZERO,
        );
        assert!((topk.at(d50).prob(RequestId(0)) - 0.5).abs() < 1e-9);

        let inner = PredictionSummary::point(20, RequestId(9), Time::ZERO);
        assert_eq!(
            s.decode(&PredictorState::Summary(inner.clone()), Time::ZERO),
            inner
        );

        let opaque = s.decode(&PredictorState::Opaque(vec![1, 2, 3]), Time::ZERO);
        assert!((opaque.at(d50).prob(RequestId(0)) - 0.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn simple_server_rejects_empty_space() {
        SimpleServerPredictor::new(0);
    }
}
