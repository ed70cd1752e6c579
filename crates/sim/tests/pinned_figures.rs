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
//! sends: a prediction landing while the sender queue straddles a schedule
//! wrap now rolls back exactly the unsent blocks, and one landing right
//! after the queue drained at a wrap rolls back nothing.

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

const FIXED_15_MBPS: &str = "Khameleon-kalman,396,162,234,0.9568,0.5909,13.513,0.000,0.000,321.823,938.003,0.3593,3730,306737673,0.9582,137,30825,0.3914";
const CELLULAR: &str = "Khameleon-kalman,396,160,236,0.9625,0.5960,16.413,0.000,0.000,467.460,1161.078,0.3664,2366,194280067,0.9370,137,30825,0.3889";
const BACKEND_LIMIT: &str = "falcon-kalman-postgresql-small-b4,24,24,0,0.9583,0.0000,33.947,0.000,0.000,627.336,814.722,0.9688,24,150000,0.0000,604,135900,0.9583";
const PREDICTION_DELTA: &str = "Khameleon-oracle,396,85,311,1.0000,0.7854,0.000,0.000,0.000,0.000,0.000,0.9317,840,69029141,0.0048,137,13280,0.2146";
