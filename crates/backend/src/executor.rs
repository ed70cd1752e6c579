//! Backend execution cost models and the concurrency-limited executor.
//!
//! The paper distinguishes two backend regimes (§5.4, §6.4):
//!
//! * **scalable backends** (file systems, key-value stores, pre-computed
//!   caches) whose per-request latency does not grow with speculative load —
//!   modeled by [`CostModel::scalable`];
//! * **limited backends** (PostgreSQL) that serve up to ~15 concurrent queries
//!   before per-query latency degrades sharply — modeled by
//!   [`CostModel::postgres_like`].
//!
//! [`QueryExecutor`] ties a cost model to a real [`Table`] so experiments both
//! compute correct results and account for realistic latency under the
//! current concurrency level.

use khameleon_core::types::Duration;

use crate::columnar::Table;
use crate::cube::{CubeSlice, CubeSliceQuery};

/// Latency model for a backend.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed per-query latency (parse/plan/roundtrip).
    pub base_latency: Duration,
    /// Additional latency per million rows scanned.
    pub latency_per_mrow: Duration,
    /// Number of queries the backend serves concurrently without degradation
    /// (`None` = scales arbitrarily).
    pub concurrency_limit: Option<usize>,
    /// Multiplicative latency penalty applied per excess concurrent query
    /// beyond the limit.
    pub overload_penalty: f64,
    /// Human-readable name used in experiment reports.
    pub name: String,
}

impl CostModel {
    /// A PostgreSQL-like model calibrated to the paper's measurements: the
    /// Small (1 M row) dataset answers in ≈ 800 ms and the Big (7 M row)
    /// dataset in 1.5–2.5 s, with a concurrency limit of 15 (§6.4).
    pub fn postgres_like() -> Self {
        CostModel {
            base_latency: Duration::from_millis(550),
            latency_per_mrow: Duration::from_millis(250),
            concurrency_limit: Some(15),
            overload_penalty: 0.25,
            name: "postgresql".to_string(),
        }
    }

    /// A scalable backend that answers from a pre-computed cache while
    /// simulating the logged isolated-execution latency (§6.4 "ScalableSQL").
    pub fn scalable(base_latency: Duration) -> Self {
        CostModel {
            base_latency,
            latency_per_mrow: Duration::ZERO,
            concurrency_limit: None,
            overload_penalty: 0.0,
            name: "scalable-sql".to_string(),
        }
    }

    /// Latency of one query that scans `rows` rows while `concurrent` queries
    /// (including this one) are in flight.
    pub fn latency(&self, rows: usize, concurrent: usize) -> Duration {
        let scan = Duration::from_secs_f64(self.latency_per_mrow.as_secs_f64() * rows as f64 / 1e6);
        let base = self.base_latency + scan;
        match self.concurrency_limit {
            Some(limit) if concurrent > limit => {
                let excess = (concurrent - limit) as f64;
                Duration::from_secs_f64(base.as_secs_f64() * (1.0 + self.overload_penalty * excess))
            }
            _ => base,
        }
    }
}

/// Executes cube-slice queries against a table under a cost model.
pub struct QueryExecutor {
    table: Table,
    cost: CostModel,
    executed: u64,
}

impl QueryExecutor {
    /// Creates an executor.
    pub fn new(table: Table, cost: CostModel) -> Self {
        QueryExecutor {
            table,
            cost,
            executed: 0,
        }
    }

    /// The table being queried.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Number of queries executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Executes `query` with `concurrent` queries in flight, returning the
    /// result and the modeled latency.
    pub fn execute(&mut self, query: &CubeSliceQuery, concurrent: usize) -> (CubeSlice, Duration) {
        let slice = query.execute(&self.table);
        let latency = self.cost.latency(self.table.num_rows(), concurrent.max(1));
        self.executed += 1;
        (slice, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{Column, RangeFilter};

    #[test]
    fn postgres_model_matches_paper_calibration() {
        let m = CostModel::postgres_like();
        // Small dataset (1M rows), uncontended: ~800 ms.
        let small = m.latency(1_000_000, 1);
        assert!((small.as_millis_f64() - 800.0).abs() < 100.0, "{small}");
        // Big dataset (7M rows), uncontended: 1.5–2.5 s.
        let big = m.latency(7_000_000, 1);
        assert!(
            big.as_millis_f64() > 1_500.0 && big.as_millis_f64() < 2_500.0,
            "{big}"
        );
        // Within the limit there is no penalty; beyond it latency grows.
        assert_eq!(m.latency(1_000_000, 15), small);
        assert!(m.latency(1_000_000, 30) > small + small);
    }

    #[test]
    fn scalable_model_is_flat_in_concurrency() {
        let m = CostModel::scalable(Duration::from_millis(120));
        assert_eq!(m.latency(7_000_000, 1), Duration::from_millis(120));
        assert_eq!(m.latency(7_000_000, 500), Duration::from_millis(120));
    }

    #[test]
    fn executor_runs_real_queries() {
        let mut t = Table::new();
        t.add_column("a", Column::Float(vec![0.1, 0.6, 0.3, 0.9]));
        t.add_column("b", Column::Float(vec![0.2, 0.8, 0.4, 0.1]));
        let mut ex = QueryExecutor::new(t, CostModel::scalable(Duration::from_micros(200)));
        let q = CubeSliceQuery {
            active_dim: "a".into(),
            target_dim: "b".into(),
            active_bins: 2,
            target_bins: 2,
            active_range: (0.0, 1.0),
            target_range: (0.0, 1.0),
            filters: vec![("b".to_string(), RangeFilter::new(0.0, 0.5))],
        };
        let (slice, latency) = ex.execute(&q, 1);
        assert_eq!(slice.total(), 3);
        assert!(latency.as_micros() > 0);
        assert_eq!(ex.executed(), 1);
        assert_eq!(ex.table().num_rows(), 4);
    }
}
