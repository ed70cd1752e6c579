//! First-order Markov predictor over request transitions.
//!
//! Button- and click-based interfaces benefit from Markov-style models that
//! learn `P(next request | current request)` from observed transitions (§4).
//! This implementation keeps per-request transition counts with add-one
//! smoothing and emits its prediction as a top-k state, matching the paper's
//! example configuration where "the client may simply send ... a list of the
//! top k most likely requests" while "the server component assum\[es\] that all
//! non-top-k requests have probability ≈ 0%".

use std::collections::HashMap;

use crate::predictor::{ClientPredictor, InteractionEvent, PredictorState};
use crate::types::{RequestId, Time};

/// First-order Markov chain over requests, trained online from the request
/// stream.
#[derive(Debug, Clone)]
pub struct MarkovPredictor {
    n: usize,
    k: usize,
    /// transition counts: current request -> (next request -> count)
    transitions: HashMap<RequestId, HashMap<RequestId, u64>>,
    last: Option<RequestId>,
    observed_transitions: u64,
}

impl MarkovPredictor {
    /// Creates a Markov predictor over a request space of `n` requests that
    /// reports its `k` most likely successors.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n > 0, "request space must be non-empty");
        assert!(k > 0, "top-k must be positive");
        MarkovPredictor {
            n,
            k,
            transitions: HashMap::new(),
            last: None,
            observed_transitions: 0,
        }
    }

    fn record(&mut self, from: RequestId, to: RequestId) {
        *self
            .transitions
            .entry(from)
            .or_default()
            .entry(to)
            .or_insert(0) += 1;
        self.observed_transitions += 1;
    }

    /// Number of transitions observed so far.
    pub fn observed_transitions(&self) -> u64 {
        self.observed_transitions
    }

    /// The `k` most likely successors of `from` with smoothed probabilities.
    pub fn top_successors(&self, from: RequestId) -> Vec<(RequestId, f64)> {
        let Some(counts) = self.transitions.get(&from) else {
            return Vec::new();
        };
        let total: u64 = counts.values().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut v: Vec<(RequestId, f64)> = counts
            .iter()
            .map(|(&r, &c)| (r, c as f64 / total as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(self.k);
        v
    }
}

impl ClientPredictor for MarkovPredictor {
    fn observe(&mut self, event: &InteractionEvent) {
        if let InteractionEvent::Request { request, .. } = *event {
            if request.index() >= self.n {
                return;
            }
            if let Some(prev) = self.last {
                self.record(prev, request);
            }
            self.last = Some(request);
        }
    }

    fn state(&mut self, _now: Time) -> PredictorState {
        match self.last {
            None => PredictorState::Empty,
            Some(cur) => {
                let top = self.top_successors(cur);
                if top.is_empty() {
                    PredictorState::LastRequest(cur)
                } else {
                    PredictorState::TopK(top)
                }
            }
        }
    }

    fn name(&self) -> &str {
        "markov"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(event_req: u32, at_ms: u64) -> InteractionEvent {
        InteractionEvent::Request {
            request: RequestId(event_req),
            at: Time::from_millis(at_ms),
        }
    }

    /// Observes a historical request sequence, 10 ms apart.
    fn replay(m: &mut MarkovPredictor, history: &[u32]) {
        for (i, &r) in history.iter().enumerate() {
            m.observe(&req(r, i as u64 * 10));
        }
    }

    #[test]
    fn learns_dominant_transition() {
        let mut m = MarkovPredictor::new(10, 3);
        // 1 -> 2 happens three times, 1 -> 3 once.
        for (i, seq) in [[1u32, 2], [1, 2], [1, 3], [1, 2]].iter().enumerate() {
            m.observe(&req(seq[0], i as u64 * 10));
            m.observe(&req(seq[1], i as u64 * 10 + 5));
        }
        let top = m.top_successors(RequestId(1));
        assert_eq!(top[0].0, RequestId(2));
        assert!((top[0].1 - 0.75).abs() < 1e-12);
        assert_eq!(top[1].0, RequestId(3));
    }

    #[test]
    fn state_reflects_last_request() {
        let mut m = MarkovPredictor::new(10, 2);
        assert_eq!(m.state(Time::ZERO), PredictorState::Empty);
        m.observe(&req(4, 0));
        // No transitions recorded from 4 yet: falls back to last-request.
        assert_eq!(
            m.state(Time::ZERO),
            PredictorState::LastRequest(RequestId(4))
        );
        m.observe(&req(5, 10));
        m.observe(&req(4, 20));
        match m.state(Time::ZERO) {
            PredictorState::TopK(v) => {
                assert_eq!(v[0].0, RequestId(5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn train_from_history() {
        let mut m = MarkovPredictor::new(6, 1);
        replay(&mut m, &[0, 1, 2, 1, 2]);
        assert_eq!(m.observed_transitions(), 4);
        let top = m.top_successors(RequestId(1));
        assert_eq!(top, vec![(RequestId(2), 1.0)]);
        // Last request from training drives the next state.
        match m.state(Time::ZERO) {
            PredictorState::TopK(v) => assert_eq!(v[0].0, RequestId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ignores_out_of_range_and_mouse_events() {
        let mut m = MarkovPredictor::new(4, 2);
        m.observe(&InteractionEvent::MouseMove {
            x: 0.0,
            y: 0.0,
            at: Time::ZERO,
        });
        m.observe(&req(99, 0));
        assert_eq!(m.state(Time::ZERO), PredictorState::Empty);
        assert_eq!(m.observed_transitions(), 0);
    }

    #[test]
    fn top_k_truncates() {
        let mut m = MarkovPredictor::new(10, 2);
        replay(&mut m, &[0, 1, 0, 2, 0, 3]);
        assert_eq!(m.top_successors(RequestId(0)).len(), 2);
    }
}
