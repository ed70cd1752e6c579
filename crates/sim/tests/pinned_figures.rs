//! Pinned `run_khameleon` rows: four fixed-seed quick-scale configurations
//! whose [`RunResult::to_csv_row`] was recorded from the single-session
//! server the simulator used to drive directly, before it moved onto the
//! one-session `SessionManager`.  A refactor of the session runtime that
//! is meant to leave the figures alone has to leave these strings alone.
//!
//! The rows depend on the vendored RNG and on the trace generators as well
//! as on the server; re-record them only with a change that says why the
//! figures should move.  The last field, `hit_share`, is a column added to
//! the CSV after the rows were recorded.  `FIXED_15_MBPS` and `CELLULAR`
//! were re-recorded when the scheduler began counting its own confirmed
//! sends: a prediction update rolls back exactly the unsent blocks.  They
//! and `PREDICTION_DELTA` were re-recorded when the scheduler began reading
//! its model from the last prediction instead of from the schedule's
//! start: every draw reads the forecast at its own distance from now.
//! `FIXED_15_MBPS` and `CELLULAR` moved once more when the schedule reset
//! went: departed shared-tail requests now return to their meta class at a
//! compaction instead of at a wrap, which changes the draw layout, not the
//! distribution.  All four were re-recorded when the draw's randomness
//! became a function of (seed, update, slot): a new realization of the same
//! distribution.

use khameleon_apps::falcon_app::{
    FalconApp, FalconAppConfig, FalconBackendKind, FalconDataset, FalconPredictorKind,
};
use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
use khameleon_apps::layout::ChartRowLayout;
use khameleon_apps::traces::{
    generate_falcon_trace, generate_image_trace, FalconTraceConfig, ImageTraceConfig,
    InteractionTrace,
};
use khameleon_core::types::{Bandwidth, Duration};
use khameleon_net::cellular::RateTrace;
use khameleon_sim::config::{BandwidthSpec, ExperimentConfig};
use khameleon_sim::harness::{run_falcon, run_image_system, SystemKind};

/// The figure binaries' quick-scale image application and trace.
fn quick_image() -> (ImageExplorationApp, InteractionTrace) {
    let app = ImageExplorationApp::reduced(30, 17);
    let trace = generate_image_trace(
        &app.layout(),
        &ImageTraceConfig {
            duration: Duration::from_secs(20),
            seed: 99,
            ..Default::default()
        },
    );
    (app, trace)
}

fn image_row(kind: PredictorKind, cfg: &ExperimentConfig) -> String {
    let (app, trace) = quick_image();
    run_image_system(&app, SystemKind::Khameleon(kind), &trace, cfg).to_csv_row()
}

#[test]
fn fixed_15_mbps_row_is_pinned() {
    let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(15.0));
    assert_eq!(image_row(PredictorKind::Kalman, &cfg), FIXED_15_MBPS);
}

#[test]
fn cellular_trace_row_is_pinned() {
    // Figure 13's Verizon cell: rate reports that move every interval.
    let mut cfg = ExperimentConfig::paper_default().with_cache_bytes(50_000_000);
    cfg.bandwidth = BandwidthSpec::Cellular(RateTrace::verizon_lte(11));
    assert_eq!(image_row(PredictorKind::Kalman, &cfg), CELLULAR);
}

#[test]
fn backend_concurrency_limit_row_is_pinned() {
    // Figure 14's PostgreSQL-like cell: `backend_concurrency_limit` is
    // `Some(_)`, so every queue refill goes through the §5.4 rewrite.
    let app = FalconApp::new(FalconAppConfig {
        bins: 25,
        blocks_per_response: 4,
        table_rows: 20_000,
        seed: 7,
    });
    let backend = FalconBackendKind::PostgresLike;
    let dataset = FalconDataset::Small;
    assert!(app.cost_model(backend, dataset).concurrency_limit.is_some());
    let trace = generate_falcon_trace(
        &ChartRowLayout::falcon(),
        &FalconTraceConfig {
            duration: Duration::from_secs(90),
            dwell_range_ms: (150.0, 20_000.0),
            seed: 21,
            ..Default::default()
        },
    );
    let cfg = ExperimentConfig::paper_default().with_request_latency(Duration::from_millis(50));
    let row = run_falcon(
        &app,
        FalconPredictorKind::Kalman,
        backend,
        dataset,
        &trace,
        &cfg,
    )
    .to_csv_row();
    assert_eq!(row, BACKEND_LIMIT);
}

#[test]
fn prediction_delta_row_is_pinned() {
    // The oracle ships summary-shaped states, which cross as deltas.
    let cfg = ExperimentConfig::paper_default().with_prediction_delta(true);
    assert_eq!(image_row(PredictorKind::Oracle, &cfg), PREDICTION_DELTA);
}

const FIXED_15_MBPS: &str = "Khameleon-kalman,396,172,224,0.9709,0.5657,12.202,0.000,0.000,445.014,813.817,0.3672,3727,306773287,0.9525,137,30825,0.4217";
const CELLULAR: &str = "Khameleon-kalman,396,172,224,0.9535,0.5657,14.594,0.000,0.000,487.643,808.632,0.3688,2363,194269768,0.9336,137,30825,0.4141";
const BACKEND_LIMIT: &str = "falcon-kalman-postgresql-small-b4,24,24,0,0.9167,0.0000,129.541,0.000,1099.188,1695.619,1815.833,0.9375,24,150000,0.0000,604,135900,0.9167";
const PREDICTION_DELTA: &str = "Khameleon-oracle,396,157,239,0.9108,0.6035,2.158,0.000,18.155,39.650,47.467,0.7227,948,77831726,0.0538,137,13280,0.3611";
