//! Bandwidth estimation (§5.4).
//!
//! The sender and scheduler need to know how fast they can push blocks
//! without congesting the network.  Khameleon is agnostic to the estimation
//! technique; the paper's implementation has the client periodically report
//! its receive rate and the server uses the **harmonic mean of the past five
//! rates** as the estimate for the next timestep.  A user-specified cap
//! (e.g. to respect a data plan) can bound the estimate.
//!
//! With N clients on one link the same estimator holds the link's shared
//! estimate, and the budget rule is written here once:
//! [`BandwidthEstimator::fold_report`] takes a client's report into it and
//! [`weighted_share`] divides it.  A client sees only its own share of the
//! wire, so a sample is a *sum* over the clients; with one client it is the
//! client's own report and the rule is the paper's.

use std::collections::VecDeque;

use crate::types::{Bandwidth, Bytes, Duration};

/// Harmonic-mean bandwidth estimator over a sliding window of receive-rate
/// reports.
#[derive(Debug, Clone)]
pub struct BandwidthEstimator {
    window: usize,
    samples: VecDeque<f64>,
    cap: Option<Bandwidth>,
    fallback: Bandwidth,
}

impl BandwidthEstimator {
    /// Default window size used in the paper (five reports).
    pub const DEFAULT_WINDOW: usize = 5;

    /// Creates an estimator with the paper's default window and a `fallback`
    /// estimate used until the first report arrives.
    pub fn new(fallback: Bandwidth) -> Self {
        Self::with_window(fallback, Self::DEFAULT_WINDOW)
    }

    /// Creates an estimator with an explicit window size.
    pub fn with_window(fallback: Bandwidth, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        BandwidthEstimator {
            window,
            samples: VecDeque::with_capacity(window),
            cap: None,
            fallback,
        }
    }

    /// Applies a user-configured bandwidth cap (§5.4: e.g. limited data
    /// plans).  Pass `None` to remove the cap.
    pub fn set_cap(&mut self, cap: Option<Bandwidth>) {
        self.cap = cap;
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<Bandwidth> {
        self.cap
    }

    /// Records a receive-rate report from the client.
    /// Non-positive rates are ignored (they carry no information and would
    /// break the harmonic mean).
    pub fn report_rate(&mut self, rate: Bandwidth) {
        if rate.bytes_per_sec() <= 0.0 {
            return;
        }
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(rate.bytes_per_sec());
    }

    /// The budget rule's fold: records a member's `raw` rate report in the
    /// estimator of the link all `estimates`' members share, as the sum over
    /// the members (in the order given — callers pass ascending ids, so the
    /// `f64` sum is reproducible) of the reporter at `raw` and the others at
    /// their own estimates; the reporter is smoothed once, here.  A report
    /// [`report_rate`](Self::report_rate) ignores adds no sample.
    pub fn fold_report<K: PartialEq>(
        &mut self,
        estimates: impl IntoIterator<Item = (K, f64)>,
        reporter: K,
        raw: Bandwidth,
    ) {
        if raw.bytes_per_sec() <= 0.0 {
            return;
        }
        let counted = |(member, estimate)| match member == reporter {
            true => raw.bytes_per_sec(),
            false => estimate,
        };
        let total: f64 = estimates.into_iter().map(counted).sum();
        self.report_rate(Bandwidth(total));
    }

    /// Current bandwidth estimate: the harmonic mean of the window, bounded
    /// by the cap; the fallback (also capped) before any report arrives.
    pub fn estimate(&self) -> Bandwidth {
        let raw = if self.samples.is_empty() {
            self.fallback
        } else {
            let sum_inv: f64 = self.samples.iter().map(|r| 1.0 / r).sum();
            Bandwidth(self.samples.len() as f64 / sum_inv)
        };
        match self.cap {
            Some(cap) if cap.bytes_per_sec() < raw.bytes_per_sec() => cap,
            _ => raw,
        }
    }

    /// Time to transmit one block of `block_size` bytes at the current
    /// estimate — the scheduler's slot duration.
    pub fn slot_duration(&self, block_size: Bytes) -> Duration {
        let bw = self.estimate();
        if bw.bytes_per_sec() <= 0.0 {
            return Duration::from_millis(1);
        }
        bw.transmit_time(block_size)
    }
}

/// The budget rule's share: `total · w / Σw`, the slice of a shared estimate
/// that goes to a member of weight `weight` among members weighing `weight_sum`.
pub fn weighted_share(total: Bandwidth, weight: f64, weight_sum: f64) -> Bandwidth {
    Bandwidth(total.bytes_per_sec() * (weight / weight_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of samples currently in the window.
    fn sample_count(e: &BandwidthEstimator) -> usize {
        e.samples.len()
    }

    #[test]
    fn fallback_before_reports() {
        let e = BandwidthEstimator::new(Bandwidth::from_mbps(5.0));
        assert!((e.estimate().as_mbps() - 5.0).abs() < 1e-9);
        assert_eq!(sample_count(&e), 0);
    }

    #[test]
    fn harmonic_mean_of_window() {
        let mut e = BandwidthEstimator::new(Bandwidth::from_mbps(1.0));
        e.report_rate(Bandwidth::from_mbps(10.0));
        e.report_rate(Bandwidth::from_mbps(10.0));
        e.report_rate(Bandwidth::from_mbps(2.5));
        // Harmonic mean of 10, 10, 2.5 = 3 / (0.1 + 0.1 + 0.4) = 5.
        assert!((e.estimate().as_mbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn window_slides() {
        let mut e = BandwidthEstimator::with_window(Bandwidth::from_mbps(1.0), 2);
        e.report_rate(Bandwidth::from_mbps(100.0));
        e.report_rate(Bandwidth::from_mbps(4.0));
        e.report_rate(Bandwidth::from_mbps(4.0));
        // The 100 MB/s sample has been evicted.
        assert!((e.estimate().as_mbps() - 4.0).abs() < 1e-9);
        assert_eq!(sample_count(&e), 2);
    }

    #[test]
    fn cap_bounds_estimate() {
        let mut e = BandwidthEstimator::new(Bandwidth::from_mbps(50.0));
        e.set_cap(Some(Bandwidth::from_mbps(2.0)));
        assert!((e.estimate().as_mbps() - 2.0).abs() < 1e-9);
        e.report_rate(Bandwidth::from_mbps(30.0));
        assert!((e.estimate().as_mbps() - 2.0).abs() < 1e-9);
        assert_eq!(e.cap().unwrap().as_mbps(), 2.0);
        e.set_cap(None);
        assert!((e.estimate().as_mbps() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn ignores_degenerate_reports() {
        let mut e = BandwidthEstimator::new(Bandwidth::from_mbps(5.0));
        e.report_rate(Bandwidth(0.0));
        e.report_rate(Bandwidth(-3.0));
        assert_eq!(sample_count(&e), 0);
    }

    #[test]
    fn fold_counts_the_reporter_raw_and_the_others_at_their_estimates() {
        let estimates = [(1u8, 100.0), (2, 250.0), (3, 50.0)];
        let mut shared = BandwidthEstimator::new(Bandwidth(1.0));
        shared.fold_report(estimates, 2, Bandwidth(700.0));
        assert!((shared.estimate().bytes_per_sec() - (100.0 + 700.0 + 50.0)).abs() < 1e-9);
        assert_eq!(sample_count(&shared), 1);
        // One member: the shared estimator sees the raw report stream, so it
        // is the per-client estimator.
        let mut alone = BandwidthEstimator::new(Bandwidth(1.0));
        let mut client = alone.clone();
        for raw in [300.0, 0.0, 120.0, 90.0, -4.0, 500.0, 75.0, 310.0] {
            alone.fold_report(
                [((), client.estimate().bytes_per_sec())],
                (),
                Bandwidth(raw),
            );
            client.report_rate(Bandwidth(raw));
            assert_eq!(alone.estimate().0.to_bits(), client.estimate().0.to_bits());
            assert_eq!(sample_count(&alone), sample_count(&client));
        }
        // A report the estimator ignores adds no sample for anyone.
        shared.fold_report(estimates, 1, Bandwidth(0.0));
        assert_eq!(sample_count(&shared), 1);
    }

    #[test]
    fn weighted_share_is_the_weights_fraction_of_the_total() {
        let total = Bandwidth::from_mbps(12.0);
        assert_eq!(weighted_share(total, 1.0, 4.0), Bandwidth::from_mbps(3.0));
        assert_eq!(weighted_share(total, 2.5, 2.5), total);
    }

    #[test]
    fn slot_duration_from_estimate() {
        let mut e = BandwidthEstimator::new(Bandwidth::from_mbps(10.0));
        // 40 KB block at 10 MB/s = 4 ms.
        assert_eq!(e.slot_duration(40_000), Duration::from_millis(4));
        e.set_cap(Some(Bandwidth::from_mbps(1.0)));
        assert_eq!(e.slot_duration(40_000), Duration::from_millis(40));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The harmonic-mean estimate always lies between the minimum and
            /// maximum sample in the window.
            #[test]
            fn estimate_bounded_by_samples(rates in proptest::collection::vec(0.1f64..100.0, 1..20)) {
                let mut e = BandwidthEstimator::new(Bandwidth::from_mbps(1.0));
                for &r in &rates {
                    e.report_rate(Bandwidth::from_mbps(r));
                }
                let window: Vec<f64> = rates.iter().rev().take(5).copied().collect();
                let lo = window.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = window.iter().cloned().fold(0.0, f64::max);
                let est = e.estimate().as_mbps();
                prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
            }
        }
    }
}
