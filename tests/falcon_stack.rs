//! Integration tests for the Falcon visualization stack: columnar engine,
//! data-cube slices, progressive result encoding, and the cost models, used
//! together the way the Figure 14 harness uses them.

use khameleon::apps::falcon_app::{FalconApp, FalconAppConfig, FalconBackendKind, FalconDataset};
use khameleon::backend::columnar::RangeFilter;
use khameleon::backend::encoder::RoundRobinEncoder;
use khameleon::backend::executor::{CostModel, QueryExecutor};
use khameleon::core::types::{Duration, RequestId};

fn app() -> FalconApp {
    FalconApp::new(FalconAppConfig {
        bins: 20,
        blocks_per_response: 4,
        table_rows: 30_000,
        seed: 13,
    })
}

/// A chart activation's slice queries, executed against the generated flights
/// table, partition the (in-range) rows consistently across target charts.
#[test]
fn slice_queries_are_consistent_across_targets() {
    let app = app();
    let table = app.table();
    let group = app.query_group(RequestId(0), &[]);
    assert_eq!(group.len(), 5);
    let totals: Vec<u64> = group.iter().map(|q| q.execute(&table).total()).collect();
    // Every slice counts the same underlying rows (minus those outside each
    // chart's plotted range), so totals are close to the table size.
    for &t in &totals {
        assert!(
            t > table.num_rows() as u64 / 2,
            "slice lost too many rows: {t}"
        );
        assert!(t <= table.num_rows() as u64);
    }
}

/// Selections narrow the slices: filtering on one chart reduces every other
/// chart's counts.
#[test]
fn selections_restrict_counts() {
    let app = app();
    let table = app.table();
    let unfiltered: u64 = app
        .query_group(RequestId(2), &[])
        .iter()
        .map(|q| q.execute(&table).total())
        .sum();
    let filtered: u64 = app
        .query_group(
            RequestId(2),
            &[("distance".to_string(), RangeFilter::new(0.0, 500.0))],
        )
        .iter()
        .map(|q| q.execute(&table).total())
        .sum();
    assert!(filtered < unfiltered);
    assert!(filtered > 0);
}

/// Progressive round-robin encoding of a slice reconstructs the exact counts
/// once all blocks are decoded, and a strict prefix reconstructs a subset.
#[test]
fn slice_round_trips_through_progressive_encoding() {
    let app = app();
    let table = app.table();
    let slice = app.query_group(RequestId(1), &[])[0].execute(&table);
    let encoder = RoundRobinEncoder::new(app.config().blocks_per_response);
    let blocks = encoder.encode(slice.values());
    assert_eq!(blocks.len(), 4);
    // Half the blocks: roughly half the cells known.
    let partial = encoder.decode_prefix(&blocks[..2]);
    let known = partial.iter().filter(|v| v.is_some()).count();
    assert!(known * 2 >= slice.values().len() - 4);
    // All blocks: exact reconstruction.
    let full = encoder.decode_prefix(&blocks);
    let reconstructed: Vec<u64> = full.into_iter().map(Option::unwrap).collect();
    assert_eq!(reconstructed, slice.values());
}

/// The PostgreSQL-like cost model degrades under concurrency while the
/// scalable model does not — the mechanism behind Figure 14's backend
/// comparison.
#[test]
fn cost_models_capture_backend_scalability() {
    let app = app();
    let pg = app.cost_model(FalconBackendKind::PostgresLike, FalconDataset::Small);
    let sc = app.cost_model(FalconBackendKind::Scalable, FalconDataset::Small);
    let pg_isolated = pg.latency(FalconDataset::Small.rows(), 1);
    let pg_contended = pg.latency(FalconDataset::Small.rows(), 40);
    assert!(pg_contended.as_millis_f64() > pg_isolated.as_millis_f64() * 2.0);
    assert_eq!(
        sc.latency(FalconDataset::Small.rows(), 1),
        sc.latency(FalconDataset::Small.rows(), 40)
    );
    // And the executor actually runs queries under those models.
    let mut ex = QueryExecutor::new(app.table(), CostModel::scalable(Duration::from_micros(200)));
    let q = &app.query_group(RequestId(3), &[])[0];
    let (slice, latency) = ex.execute(q, 1);
    assert!(slice.total() > 0);
    assert!(latency.as_millis_f64() < 5.0);
}
