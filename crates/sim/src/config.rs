//! Experiment configuration: the environment parameters of §6.1.
//!
//! Each experiment condition fixes a downlink bandwidth (constant or a
//! cellular trace), a client cache size, and a *request latency* that bundles
//! network propagation with simulated backend processing cost — exactly the
//! knobs the paper sweeps (bandwidth 1.5–15 MB/s, cache 10–100 MB, request
//! latency 20–400 ms, think time 10–200 ms).
//!
//! The simulated server always runs the production scheduler (lazy sampler,
//! diffed prediction updates): only the cache size, γ and the seed flow from
//! an [`ExperimentConfig`] into its `GreedySchedulerConfig`.  Scheduler
//! ablations (Figure 16) drive the scheduler directly, in
//! `khameleon-bench`'s `fig16_greedy_runtime` and `sampler_json`.

use khameleon_core::fault::FaultPlan;
use khameleon_core::types::{Bandwidth, Bytes, Duration};
use khameleon_net::cellular::RateTrace;

/// Downlink bandwidth specification.
#[derive(Debug, Clone)]
pub enum BandwidthSpec {
    /// A fixed rate (netem-style shaping).
    Fixed(Bandwidth),
    /// A time-varying cellular trace.
    Cellular(RateTrace),
}

impl BandwidthSpec {
    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            BandwidthSpec::Fixed(b) => format!("{:.1}MB/s", b.as_mbps()),
            BandwidthSpec::Cellular(t) => t.name().to_string(),
        }
    }

    /// Nominal (mean) rate, used to seed the server's initial estimate.
    pub fn nominal(&self) -> Bandwidth {
        match self {
            BandwidthSpec::Fixed(b) => *b,
            BandwidthSpec::Cellular(t) => t.mean_rate(),
        }
    }
}

/// One experiment condition.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Downlink bandwidth.
    pub bandwidth: BandwidthSpec,
    /// Client cache size in bytes.
    pub cache_bytes: Bytes,
    /// End-to-end request latency: one-way network propagation plus backend
    /// processing (§6.1 default 100 ms).
    pub request_latency: Duration,
    /// How often the client ships predictions to the server (§6.1: 150 ms).
    pub prediction_interval: Duration,
    /// Discount factor γ for the scheduler.
    pub gamma: f64,
    /// Ship client re-predictions over the simulated uplink as O(Δ)
    /// prediction deltas (through a
    /// [`DeltaTracker`](khameleon_core::delta::DeltaTracker)) instead of
    /// full summaries, mirroring the real transport's delta frames.  Only
    /// affects summary-shaped predictor states; uplink accounting in the
    /// run result then reflects the delta wire sizes.
    pub prediction_delta: bool,
    /// Attach the runtime invariant auditor to the Khameleon scheduler and
    /// carry its violation report in the run result.  Only effective when
    /// the crate is built with the `audit` feature; ignored (and free)
    /// otherwise.
    pub audit: bool,
    /// Session-layer worker shards for fleet runs
    /// ([`run_session_fleet`](crate::fleet::run_session_fleet)): sessions
    /// are partitioned round-robin across this many scheduler threads
    /// sharing one global bandwidth budget and one model-dedup cache.  `1`
    /// (the default) serves the whole fleet from a single shard; the
    /// single-client simulators ignore this knob.  Fixed-seed fleet runs
    /// produce per-session block-identical schedules at any shard count
    /// (see `docs/SHARDING.md`).
    pub shards: usize,
    /// Deterministic uplink fault schedule, keyed by
    /// `(session index, uplink message index)`: `Drop`/`Truncate`/`Corrupt`
    /// lose the prediction update, `Delay` adds propagation, `Stall`
    /// freezes the sender.  `None` (the default) injects nothing.
    pub faults: Option<FaultPlan>,
    /// RNG seed for the scheduler / baselines.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's default condition: 5.625 MB/s, 50 MB cache, 100 ms request
    /// latency.
    pub fn paper_default() -> Self {
        ExperimentConfig {
            bandwidth: BandwidthSpec::Fixed(Bandwidth::from_mbps(5.625)),
            cache_bytes: 50_000_000,
            request_latency: Duration::from_millis(100),
            prediction_interval: Duration::from_millis(150),
            gamma: 1.0,
            prediction_delta: false,
            audit: false,
            shards: 1,
            faults: None,
            seed: 0x5eed,
        }
    }

    /// The "low resource" setting of §6.2 (1.5 MB/s, 10 MB cache).
    pub fn low_resource() -> Self {
        ExperimentConfig {
            bandwidth: BandwidthSpec::Fixed(Bandwidth::from_mbps(1.5)),
            cache_bytes: 10_000_000,
            ..Self::paper_default()
        }
    }

    /// The "medium resource" setting (5.625 MB/s, 50 MB cache).
    pub fn medium_resource() -> Self {
        Self::paper_default()
    }

    /// The "high resource" setting (15 MB/s, 100 MB cache).
    pub fn high_resource() -> Self {
        ExperimentConfig {
            bandwidth: BandwidthSpec::Fixed(Bandwidth::from_mbps(15.0)),
            cache_bytes: 100_000_000,
            ..Self::paper_default()
        }
    }

    /// One-way network propagation delay: the network share of the request
    /// latency.  The paper's request latency bundles 5–100 ms of network
    /// latency with 15–300 ms of backend processing (a 1:3 split).
    pub fn network_propagation(&self) -> Duration {
        Duration::from_micros(self.request_latency.as_micros() / 4)
    }

    /// Backend processing share of the request latency.
    pub fn backend_processing(&self) -> Duration {
        Duration::from_micros(3 * self.request_latency.as_micros() / 4)
    }

    /// Label for reports, e.g. `bw=5.6MB/s cache=50MB lat=100ms`.
    pub fn label(&self) -> String {
        format!(
            "bw={} cache={}MB lat={}ms",
            self.bandwidth.label(),
            self.cache_bytes / 1_000_000,
            self.request_latency.as_millis_f64()
        )
    }

    /// Overrides the bandwidth.
    pub fn with_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.bandwidth = BandwidthSpec::Fixed(bw);
        self
    }

    /// Overrides the cache size (bytes).
    pub fn with_cache_bytes(mut self, bytes: Bytes) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Overrides the request latency.
    pub fn with_request_latency(mut self, latency: Duration) -> Self {
        self.request_latency = latency;
        self
    }

    /// Overrides the prediction interval (§B.1 sensitivity sweep).
    pub fn with_prediction_interval(mut self, interval: Duration) -> Self {
        self.prediction_interval = interval;
        self
    }

    /// Toggles delta-encoded prediction uploads (off by default; see
    /// [`ExperimentConfig::prediction_delta`]).
    pub fn with_prediction_delta(mut self, delta: bool) -> Self {
        self.prediction_delta = delta;
        self
    }

    /// Toggles the scheduler's runtime invariant auditor (off by default;
    /// see [`ExperimentConfig::audit`]).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Sets the session-layer shard count for fleet runs (default 1; see
    /// [`ExperimentConfig::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a fleet needs at least one shard");
        self.shards = shards;
        self
    }

    /// Installs a deterministic uplink fault schedule (none by default; see
    /// [`ExperimentConfig::faults`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ExperimentConfig::paper_default();
        assert!((c.bandwidth.nominal().as_mbps() - 5.625).abs() < 1e-9);
        assert_eq!(c.cache_bytes, 50_000_000);
        assert_eq!(c.request_latency, Duration::from_millis(100));
        assert_eq!(c.prediction_interval, Duration::from_millis(150));
        assert_eq!(c.network_propagation(), Duration::from_millis(25));
        assert_eq!(c.backend_processing(), Duration::from_millis(75));
        assert!(c.label().contains("cache=50MB"));
    }

    #[test]
    fn resource_levels_ordered() {
        let low = ExperimentConfig::low_resource();
        let med = ExperimentConfig::medium_resource();
        let high = ExperimentConfig::high_resource();
        assert!(low.bandwidth.nominal().as_mbps() < med.bandwidth.nominal().as_mbps());
        assert!(med.bandwidth.nominal().as_mbps() < high.bandwidth.nominal().as_mbps());
        assert!(low.cache_bytes < high.cache_bytes);
    }

    #[test]
    fn builders_override_fields() {
        let c = ExperimentConfig::paper_default()
            .with_bandwidth(Bandwidth::from_mbps(2.0))
            .with_cache_bytes(1_000_000)
            .with_request_latency(Duration::from_millis(400))
            .with_prediction_interval(Duration::from_millis(50))
            .with_shards(4);
        assert_eq!(c.bandwidth.nominal().as_mbps(), 2.0);
        assert_eq!(c.cache_bytes, 1_000_000);
        assert_eq!(c.request_latency, Duration::from_millis(400));
        assert_eq!(c.prediction_interval, Duration::from_millis(50));
        assert_eq!(c.shards, 4);
        assert_eq!(ExperimentConfig::paper_default().shards, 1);
    }

    #[test]
    fn with_faults_installs_a_plan() {
        use khameleon_core::fault::FaultKind;
        let plan = FaultPlan::new().with(0, 2, FaultKind::Drop);
        let c = ExperimentConfig::paper_default().with_faults(plan.clone());
        assert_eq!(c.faults, Some(plan));
        assert!(ExperimentConfig::paper_default().faults.is_none());
    }

    #[test]
    fn cellular_spec_labels() {
        let spec = BandwidthSpec::Cellular(RateTrace::verizon_lte(1));
        assert_eq!(spec.label(), "verizon-lte");
        assert!(spec.nominal().as_mbps() > 1.0);
        let fixed = BandwidthSpec::Fixed(Bandwidth::from_mbps(1.5));
        assert_eq!(fixed.label(), "1.5MB/s");
    }
}
