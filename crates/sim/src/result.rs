//! Results of a simulated run.

use khameleon_core::metrics::MetricsSummary;
use khameleon_core::types::Duration;

/// Outcome of one simulated system run over one trace and condition.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Human-readable system label (e.g. `khameleon(kalman)`, `ACC-1-5`).
    pub label: String,
    /// Aggregated client-side metrics (§6.1's reporting set).
    pub summary: MetricsSummary,
    /// Utility-over-time samples for the convergence probe (Figure 10):
    /// for Khameleon, empty unless a probe was configured; for a baseline,
    /// the step from 0 to the utility of the trace's final request when its
    /// response landed, empty if it never did.
    pub convergence: Vec<(Duration, f64)>,
    /// Blocks the server pushed.
    pub blocks_sent: u64,
    /// Bytes the server pushed.
    pub bytes_sent: u64,
    /// Prediction updates that crossed the uplink as full summaries.
    pub uplink_full_updates: u64,
    /// Prediction updates that crossed the uplink as O(Δ) deltas (non-zero
    /// only when the run was configured with
    /// [`ExperimentConfig::prediction_delta`](crate::config::ExperimentConfig::prediction_delta)).
    pub uplink_delta_updates: u64,
    /// Uplink faults injected from the run's configured
    /// [`FaultPlan`](khameleon_core::fault::FaultPlan) (zero when no plan
    /// was installed).
    pub faults_injected: u64,
    /// The scheduler's audit report, when the run was configured with
    /// [`ExperimentConfig::audit`](crate::config::ExperimentConfig::audit)
    /// (Khameleon runs only; `None` for baselines).
    #[cfg(feature = "audit")]
    pub audit: Option<khameleon_core::audit::AuditReport>,
}

impl RunResult {
    /// One CSV row: `label,<metrics row>`.
    pub fn to_csv_row(&self) -> String {
        format!("{},{}", self.label, self.summary.to_csv_row())
    }

    /// CSV header matching [`RunResult::to_csv_row`].
    pub fn csv_header() -> String {
        format!("system,{}", MetricsSummary::csv_header())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_core::metrics::MetricsCollector;

    #[test]
    fn csv_row_field_count_matches_header() {
        let r = RunResult {
            label: "toy".into(),
            summary: MetricsCollector::new().summary(),
            convergence: vec![],
            blocks_sent: 0,
            bytes_sent: 0,
            uplink_full_updates: 0,
            uplink_delta_updates: 0,
            faults_injected: 0,
            #[cfg(feature = "audit")]
            audit: None,
        };
        assert_eq!(
            r.to_csv_row().split(',').count(),
            RunResult::csv_header().split(',').count()
        );
        assert!(r.to_csv_row().starts_with("toy,"));
    }
}
