//! Oracle predictor: perfect knowledge of the upcoming trace.
//!
//! The paper evaluates an "Oracle version of Khameleon where the predictor
//! knows the exact position of the mouse after Δ milliseconds (by examining
//! the trace)" (§6.1) as an upper bound on prediction quality (Figures 9 and
//! 12).  The oracle is constructed from the interaction trace being replayed
//! and, for each future offset Δ, emits a point distribution on the request
//! that the trace will actually issue at (or before) that time.

use crate::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use crate::predictor::{ClientPredictor, InteractionEvent, PredictorState};
use crate::types::{RequestId, Time};

/// A predictor with perfect knowledge of the future request sequence.
#[derive(Debug, Clone)]
pub struct OraclePredictor {
    n: usize,
    /// `(time, request)` pairs sorted by time — the full future trace.
    schedule: Vec<(Time, RequestId)>,
}

impl OraclePredictor {
    /// Creates an oracle over a request space of `n` requests from the full
    /// `(time, request)` trace that will be replayed.
    pub fn new(n: usize, mut schedule: Vec<(Time, RequestId)>) -> Self {
        assert!(n > 0, "request space must be non-empty");
        schedule.sort_by_key(|&(t, _)| t);
        OraclePredictor { n, schedule }
    }

    /// The request the trace will be interacting with at time `at`: the most
    /// recent request issued at or before `at`, or the first upcoming request
    /// if the trace has not started yet.
    pub fn request_at(&self, at: Time) -> Option<RequestId> {
        if self.schedule.is_empty() {
            return None;
        }
        match self.schedule.binary_search_by_key(&at, |&(t, _)| t) {
            Ok(i) => Some(self.schedule[i].1),
            Err(0) => Some(self.schedule[0].1),
            Err(i) => Some(self.schedule[i - 1].1),
        }
    }
}

impl ClientPredictor for OraclePredictor {
    fn observe(&mut self, _event: &InteractionEvent) {
        // The oracle already knows the full trace; live events carry no new
        // information.
    }

    fn state(&mut self, now: Time) -> PredictorState {
        let slices: Vec<HorizonSlice> = PredictionSummary::default_deltas()
            .into_iter()
            .map(|delta| {
                let dist = match self.request_at(now + delta) {
                    Some(r) => SparseDistribution::point(self.n, r),
                    None => SparseDistribution::uniform(self.n),
                };
                HorizonSlice { delta, dist }
            })
            .collect();
        PredictorState::Summary(PredictionSummary::new(self.n, slices, now))
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Duration;

    fn oracle() -> OraclePredictor {
        OraclePredictor::new(
            16,
            vec![
                (Time::from_millis(100), RequestId(1)),
                (Time::from_millis(200), RequestId(2)),
                (Time::from_millis(400), RequestId(3)),
            ],
        )
    }

    #[test]
    fn request_at_picks_latest_issued() {
        let o = oracle();
        assert_eq!(o.request_at(Time::from_millis(50)), Some(RequestId(1)));
        assert_eq!(o.request_at(Time::from_millis(100)), Some(RequestId(1)));
        assert_eq!(o.request_at(Time::from_millis(250)), Some(RequestId(2)));
        assert_eq!(o.request_at(Time::from_millis(999)), Some(RequestId(3)));
    }

    #[test]
    fn empty_trace_returns_none() {
        let o = OraclePredictor::new(4, vec![]);
        assert_eq!(o.request_at(Time::ZERO), None);
    }

    #[test]
    fn state_predicts_the_future_exactly() {
        let mut o = oracle();
        // At t = 60 ms, the 50 ms offset points at t = 110 ms, where the trace
        // is interacting with request 1; at larger offsets it sees request 2.
        let state = o.state(Time::from_millis(60));
        let PredictorState::Summary(s) = state else {
            panic!("oracle emits summaries");
        };
        assert!((s.at(Duration::from_millis(50)).prob(RequestId(1)) - 1.0).abs() < 1e-9);
        assert!((s.at(Duration::from_millis(250)).prob(RequestId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observe_is_a_noop() {
        let mut o = oracle();
        let before = o.schedule.clone();
        o.observe(&InteractionEvent::Request {
            request: RequestId(9),
            at: Time::ZERO,
        });
        assert_eq!(o.schedule, before);
    }
}
