//! Performance metrics (§6.1).
//!
//! The paper reports, per experiment condition:
//!
//! * **% cache hits** — requests with ≥ 1 block cached at registration time,
//!   over all registered requests ([`MetricsSummary::hit_share`], the
//!   denominator of the repository benchmark's `hit_share`);
//!   [`MetricsSummary::cache_hit_rate`] divides the same hits by completed
//!   requests only,
//! * **% preempted** — requests dropped because a later request was answered
//!   first,
//! * **response latency** — registration → first upcall, for non-preempted
//!   requests,
//! * **response utility** — utility of the blocks available at upcall time,
//! * **overpush rate** — fraction of pushed blocks never used by an upcall
//!   (§B.2),
//! * **convergence** — utility as a function of time after the user pauses.
//!
//! [`MetricsCollector`] accumulates raw samples; [`MetricsSummary`] condenses
//! them into the row format the figures report.  [`Histogram`]/[`cdf`] back
//! the CDF plots (Figure 5).

use crate::types::{Duration, RequestId, Time};

/// One completed (non-preempted) request observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseSample {
    /// The request.
    pub request: RequestId,
    /// When the request was registered with the cache manager.
    pub registered_at: Time,
    /// When the first upcall for it fired.
    pub answered_at: Time,
    /// Whether at least one block was cached at registration time.
    pub cache_hit: bool,
    /// Number of blocks available at upcall time.
    pub blocks: u32,
    /// Utility of those blocks.
    pub utility: f64,
}

impl ResponseSample {
    /// Registration-to-upcall latency.
    pub fn latency(&self) -> Duration {
        self.answered_at.saturating_sub(self.registered_at)
    }
}

/// Accumulates raw metric samples during a run.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    /// Completed requests.
    pub responses: Vec<ResponseSample>,
    /// Number of preempted (dropped) requests.
    pub preempted: u64,
    /// Total requests registered.
    pub requests: u64,
    /// Blocks pushed to the client.
    pub blocks_pushed: u64,
    /// Bytes pushed to the client.
    pub bytes_pushed: u64,
    /// Blocks that were used by at least one upcall.
    pub blocks_used: u64,
    /// Prediction messages sent client → server.
    pub predictions_sent: u64,
    /// Prediction bytes sent client → server.
    pub prediction_bytes: u64,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a registered request.
    pub fn record_request(&mut self) {
        self.requests += 1;
    }

    /// Records a completed response.
    pub fn record_response(&mut self, sample: ResponseSample) {
        self.responses.push(sample);
    }

    /// Records a preempted request.
    pub fn record_preempted(&mut self) {
        self.preempted += 1;
    }

    /// Records a block pushed to the client.
    pub fn record_pushed(&mut self, bytes: u64) {
        self.blocks_pushed += 1;
        self.bytes_pushed += bytes;
    }

    /// Records that `count` previously pushed blocks were used by an upcall.
    pub fn record_used(&mut self, count: u64) {
        self.blocks_used += count;
    }

    /// Records a prediction message.
    pub fn record_prediction(&mut self, bytes: u64) {
        self.predictions_sent += 1;
        self.prediction_bytes += bytes;
    }

    /// Summarizes the collected samples.
    pub fn summary(&self) -> MetricsSummary {
        let completed = self.responses.len() as f64;
        let hits = self.responses.iter().filter(|r| r.cache_hit).count() as f64;
        let latencies: Vec<f64> = self
            .responses
            .iter()
            .map(|r| r.latency().as_millis_f64())
            .collect();
        let utilities: Vec<f64> = self.responses.iter().map(|r| r.utility).collect();
        let requests = self.requests.max(1) as f64;
        MetricsSummary {
            requests: self.requests,
            completed: self.responses.len() as u64,
            preempted: self.preempted,
            cache_hit_rate: if completed > 0.0 {
                hits / completed
            } else {
                0.0
            },
            hit_share: hits / requests,
            preempted_rate: self.preempted as f64 / requests,
            mean_latency_ms: mean(&latencies),
            p50_latency_ms: percentile(&latencies, 50.0),
            p95_latency_ms: percentile(&latencies, 95.0),
            p99_latency_ms: percentile(&latencies, 99.0),
            max_latency_ms: latencies.iter().copied().fold(0.0, f64::max),
            mean_utility: mean(&utilities),
            blocks_pushed: self.blocks_pushed,
            bytes_pushed: self.bytes_pushed,
            overpush_rate: if self.blocks_pushed > 0 {
                1.0 - (self.blocks_used.min(self.blocks_pushed) as f64 / self.blocks_pushed as f64)
            } else {
                0.0
            },
            predictions_sent: self.predictions_sent,
            prediction_bytes: self.prediction_bytes,
        }
    }
}

/// Condensed metrics for one experiment condition — one row of a results
/// table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Total requests registered.
    pub requests: u64,
    /// Requests that received an upcall.
    pub completed: u64,
    /// Requests preempted before an upcall.
    pub preempted: u64,
    /// Cache hits ÷ completed requests: preempted requests are in neither
    /// count.
    pub cache_hit_rate: f64,
    /// Cache hits ÷ all registered requests, preempted ones included.
    pub hit_share: f64,
    /// Fraction of all requests that were preempted.
    pub preempted_rate: f64,
    /// Mean response latency (ms) of completed requests.
    pub mean_latency_ms: f64,
    /// Median response latency (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile response latency (ms).
    pub p95_latency_ms: f64,
    /// 99th-percentile response latency (ms).
    pub p99_latency_ms: f64,
    /// Maximum response latency (ms).
    pub max_latency_ms: f64,
    /// Mean response utility at upcall time.
    pub mean_utility: f64,
    /// Blocks pushed server → client.
    pub blocks_pushed: u64,
    /// Bytes pushed server → client.
    pub bytes_pushed: u64,
    /// Fraction of pushed blocks never used by an upcall (§B.2).
    pub overpush_rate: f64,
    /// Prediction messages sent client → server.
    pub predictions_sent: u64,
    /// Prediction bytes sent client → server.
    pub prediction_bytes: u64,
}

impl MetricsSummary {
    /// CSV header matching [`MetricsSummary::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "requests,completed,preempted,cache_hit_rate,preempted_rate,mean_latency_ms,\
         p50_latency_ms,p95_latency_ms,p99_latency_ms,max_latency_ms,mean_utility,\
         blocks_pushed,bytes_pushed,overpush_rate,predictions_sent,prediction_bytes,hit_share"
    }

    /// Serializes the summary as one CSV row.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{:.4},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{},{},{:.4},{},{},{:.4}",
            self.requests,
            self.completed,
            self.preempted,
            self.cache_hit_rate,
            self.preempted_rate,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.p99_latency_ms,
            self.max_latency_ms,
            self.mean_utility,
            self.blocks_pushed,
            self.bytes_pushed,
            self.overpush_rate,
            self.predictions_sent,
            self.prediction_bytes,
            self.hit_share
        )
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Linear-interpolated percentile (`p` in `[0, 100]`); 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Empirical CDF: returns `(value, cumulative fraction)` points for plotting
/// (Figure 5).
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Fixed-bucket histogram over `[min, max)` with uniform bucket widths.
#[derive(Debug, Clone)]
pub struct Histogram {
    min: f64,
    max: f64,
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` uniform buckets over `[min, max)`.
    pub fn new(min: f64, max: f64, buckets: usize) -> Self {
        assert!(max > min, "max must exceed min");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            min,
            max,
            buckets: vec![0; buckets],
            count: 0,
        }
    }

    /// Records a value; one outside the range is counted but not bucketed.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        if v < self.min || v >= self.max {
            return;
        }
        let width = (self.max - self.min) / self.buckets.len() as f64;
        let idx = (((v - self.min) / width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `(bucket_start, count)` pairs.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let width = (self.max - self.min) / self.buckets.len() as f64;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.min + i as f64 * width, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(req: u32, reg_ms: u64, ans_ms: u64, hit: bool, utility: f64) -> ResponseSample {
        ResponseSample {
            request: RequestId(req),
            registered_at: Time::from_millis(reg_ms),
            answered_at: Time::from_millis(ans_ms),
            cache_hit: hit,
            blocks: 1,
            utility,
        }
    }

    #[test]
    fn latency_from_sample() {
        let s = sample(0, 10, 35, true, 0.5);
        assert_eq!(s.latency(), Duration::from_millis(25));
    }

    #[test]
    fn collector_summary() {
        let mut c = MetricsCollector::new();
        for _ in 0..4 {
            c.record_request();
        }
        c.record_response(sample(0, 0, 10, true, 1.0));
        c.record_response(sample(1, 0, 30, false, 0.5));
        c.record_preempted();
        c.record_pushed(1000);
        c.record_pushed(1000);
        c.record_pushed(1000);
        c.record_used(2);
        c.record_prediction(48);

        let s = c.summary();
        assert_eq!(s.requests, 4);
        assert_eq!(s.completed, 2);
        assert_eq!(s.preempted, 1);
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!(
            (s.hit_share - 0.25).abs() < 1e-12,
            "one hit in four requests"
        );
        assert!((s.preempted_rate - 0.25).abs() < 1e-12);
        assert!((s.mean_latency_ms - 20.0).abs() < 1e-12);
        assert!((s.mean_utility - 0.75).abs() < 1e-12);
        assert!((s.overpush_rate - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        assert_eq!(s.predictions_sent, 1);
        assert_eq!(s.bytes_pushed, 3000);
        // CSV row has the same number of fields as the header.
        assert_eq!(
            s.to_csv_row().split(',').count(),
            MetricsSummary::csv_header().split(',').count()
        );
    }

    #[test]
    fn empty_collector_is_safe() {
        let s = MetricsCollector::new().summary();
        assert_eq!(s.requests, 0);
        assert_eq!(s.mean_latency_ms, 0.0);
        assert_eq!(s.overpush_rate, 0.0);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.hit_share, 0.0);
    }

    #[test]
    fn mean_and_percentile() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn cdf_monotone() {
        let points = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].0, 1.0);
        assert!((points[2].1 - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for &(_, f) in &points {
            assert!(f >= prev);
            prev = f;
        }
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.5, 1.5, 2.5, 9.9, -1.0, 10.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0].1, 2); // 0.5, 1.5
        assert_eq!(buckets[4].1, 1); // 9.9
        let bucketed: u64 = buckets.iter().map(|b| b.1).sum();
        assert_eq!(bucketed, 4, "-1.0, 10.0 and 100.0 are out of range");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Percentiles are monotone in p and bounded by the data range.
            #[test]
            fn percentile_monotone(mut v in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let p25 = percentile(&v, 25.0);
                let p75 = percentile(&v, 75.0);
                prop_assert!(p25 <= p75 + 1e-9);
                prop_assert!(p25 >= v[0] - 1e-9);
                prop_assert!(p75 <= v[v.len() - 1] + 1e-9);
            }
        }
    }
}
