//! Baseline prefetching policies (§6.1).
//!
//! The paper compares Khameleon against idealized versions of traditional
//! prefetching:
//!
//! * **Baseline** — plain request/response, no prefetching;
//! * **Progressive** — request/response but only the first block of each
//!   response (less data, no prefetching);
//! * **ACC-\<acc\>-\<hor\>** — after each user request, prefetch the next
//!   `hor` requests, each of which matches the user's actual next request
//!   with probability `acc` (a *perfect* predictor when `acc = 1`), with an
//!   outstanding-request cap to avoid self-inflicted congestion.
//!
//! These are *policies*: they decide which requests to fetch.  The
//! `khameleon-sim` crate turns them into full client/server simulations with
//! an LRU cache and a shared network link.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use khameleon_core::types::RequestId;

use crate::traces::InteractionTrace;

/// How much of each response a baseline fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchGranularity {
    /// The entire response (Baseline and ACC-* configurations).
    FullResponse,
    /// Only the first progressive block (the Progressive baseline).
    FirstBlockOnly,
}

/// A prefetching policy: which requests to speculatively fetch after each
/// explicit user request.
pub trait PrefetchPolicy: Send {
    /// Called when the user issues the request at position `index` of
    /// `trace`; returns the requests to prefetch, in priority order.
    fn prefetch_after(&mut self, trace: &InteractionTrace, index: usize) -> Vec<RequestId>;

    /// Maximum number of outstanding prefetch requests this policy wants in
    /// flight (congestion guard); `None` = unlimited.
    fn max_outstanding(&self) -> Option<usize> {
        None
    }

    /// Policy name for reports (e.g. `ACC-1-5`).
    fn name(&self) -> String;
}

/// No prefetching at all.
#[derive(Debug, Clone, Default)]
pub struct NoPrefetch;

impl PrefetchPolicy for NoPrefetch {
    fn prefetch_after(&mut self, _trace: &InteractionTrace, _index: usize) -> Vec<RequestId> {
        Vec::new()
    }

    fn name(&self) -> String {
        "baseline".to_string()
    }
}

/// The idealized `ACC-<accuracy>-<horizon>` prefetcher: it knows the actual
/// next `horizon` requests in the trace and predicts each one correctly with
/// probability `accuracy`, otherwise it prefetches a uniformly random wrong
/// request.
#[derive(Debug, Clone)]
pub struct AccPrefetcher {
    accuracy: f64,
    horizon: usize,
    /// Size of the request space (for sampling wrong guesses).
    num_requests: usize,
    /// Cap on outstanding prefetches (bandwidth-determined in the paper; the
    /// simulator passes its own cap too).
    max_outstanding: usize,
    rng: StdRng,
}

impl AccPrefetcher {
    /// Creates an `ACC-accuracy-horizon` prefetcher over a request space of
    /// `num_requests`.
    pub fn new(accuracy: f64, horizon: usize, num_requests: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&accuracy), "accuracy must be in [0,1]");
        assert!(horizon > 0, "horizon must be positive");
        assert!(num_requests > 0, "request space must be non-empty");
        AccPrefetcher {
            accuracy,
            horizon,
            num_requests,
            max_outstanding: horizon.max(4),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured accuracy.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// The configured horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

impl PrefetchPolicy for AccPrefetcher {
    fn prefetch_after(&mut self, trace: &InteractionTrace, index: usize) -> Vec<RequestId> {
        let mut out = Vec::with_capacity(self.horizon);
        for k in 1..=self.horizon {
            let Some(&(_, actual)) = trace.requests.get(index + k) else {
                break;
            };
            let correct = self.rng.gen::<f64>() < self.accuracy;
            if correct {
                out.push(actual);
            } else {
                // A wrong guess: any request other than the actual one.
                let mut wrong = RequestId::from(self.rng.gen_range(0..self.num_requests));
                if wrong == actual && self.num_requests > 1 {
                    wrong = RequestId::from((wrong.index() + 1) % self.num_requests);
                }
                out.push(wrong);
            }
        }
        out
    }

    fn max_outstanding(&self) -> Option<usize> {
        Some(self.max_outstanding)
    }

    fn name(&self) -> String {
        format!("ACC-{}-{}", self.accuracy, self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_core::types::Time;

    fn trace(n: usize) -> InteractionTrace {
        InteractionTrace {
            samples: vec![],
            requests: (0..n)
                .map(|i| (Time::from_millis(i as u64 * 20), RequestId::from(i % 50)))
                .collect(),
            name: "t".into(),
        }
    }

    #[test]
    fn no_prefetch_never_prefetches() {
        let mut p = NoPrefetch;
        assert!(p.prefetch_after(&trace(10), 3).is_empty());
        assert_eq!(p.name(), "baseline");
        assert_eq!(p.max_outstanding(), None);
    }

    #[test]
    fn perfect_prefetcher_predicts_exactly() {
        let t = trace(20);
        let mut p = AccPrefetcher::new(1.0, 5, 50, 1);
        let got = p.prefetch_after(&t, 2);
        let expected: Vec<RequestId> = (3..8).map(|i| t.requests[i].1).collect();
        assert_eq!(got, expected);
        assert_eq!(p.name(), "ACC-1-5");
        assert_eq!(p.max_outstanding(), Some(5));
        assert_eq!(p.accuracy(), 1.0);
        assert_eq!(p.horizon(), 5);
    }

    #[test]
    fn horizon_truncated_at_trace_end() {
        let t = trace(5);
        let mut p = AccPrefetcher::new(1.0, 5, 50, 1);
        let got = p.prefetch_after(&t, 3);
        assert_eq!(got.len(), 1);
        assert!(p.prefetch_after(&t, 4).is_empty());
    }

    #[test]
    fn imperfect_prefetcher_misses_sometimes() {
        let t = trace(1_000);
        let mut p = AccPrefetcher::new(0.8, 1, 50, 42);
        let mut correct = 0;
        for i in 0..900 {
            let got = p.prefetch_after(&t, i);
            if got[0] == t.requests[i + 1].1 {
                correct += 1;
            }
        }
        let rate = correct as f64 / 900.0;
        assert!((rate - 0.8).abs() < 0.05, "accuracy rate {rate}");
    }

    #[test]
    fn zero_accuracy_never_matches() {
        let t = trace(100);
        let mut p = AccPrefetcher::new(0.0, 1, 50, 3);
        for i in 0..90 {
            let got = p.prefetch_after(&t, i);
            assert_ne!(got[0], t.requests[i + 1].1);
        }
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn invalid_accuracy_rejected() {
        AccPrefetcher::new(1.5, 1, 10, 1);
    }
}
