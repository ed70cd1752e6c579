//! The quality table, pinned: what the paper's image-exploration scenario
//! delivers through the simulator, per predictor.
//!
//! Each row runs [`run_image_system`] on a 100 × 100 gallery
//! (`ImageExplorationApp::reduced(100, 1)`) at the paper's default network
//! and cache (5.625 MB/s, 50 MB) with γ 0.8, over a 10 s image trace of
//! seed 1.  The dwell rows retime that trace to 100 ms of think time per
//! request, the long-dwell rows to 200 ms (Figure 9's sweep); the fly-over
//! row keeps the generator's own timing, where the cursor crosses ≈ 35
//! thumbnails a second.
//!
//! A row is `requests,completed share,preempted share,hit share,mean
//! utility`, every share over all registered requests.  Like
//! `pinned_figures.rs`, the strings are exact: a change that moves a row
//! re-records it and says why in its description.  Every row was
//! re-recorded when the draw's randomness became a function of (seed,
//! update, slot): a new realization of the same scheduler, whose means
//! over 8 trace seeds × 4 scheduler seeds stayed within the spread of the
//! old draw's own seeds.

use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
use khameleon_apps::traces::{generate_image_trace, ImageTraceConfig, InteractionTrace};
use khameleon_core::metrics::MetricsSummary;
use khameleon_core::types::Duration;
use khameleon_sim::config::ExperimentConfig;
use khameleon_sim::harness::{run_image_system, SystemKind};

fn app_and_trace() -> (ImageExplorationApp, InteractionTrace) {
    let app = ImageExplorationApp::reduced(100, 1);
    let trace = generate_image_trace(
        &app.layout(),
        &ImageTraceConfig {
            duration: Duration::from_secs(10),
            seed: 1,
            ..Default::default()
        },
    );
    (app, trace)
}

fn quality_row(kind: PredictorKind, think_time: Option<Duration>) -> String {
    let (app, trace) = app_and_trace();
    let trace = match think_time {
        Some(think) => trace.with_think_time(think),
        None => trace,
    };
    let mut cfg = ExperimentConfig::paper_default();
    cfg.gamma = 0.8;
    let summary = run_image_system(&app, SystemKind::Khameleon(kind), &trace, &cfg).summary;
    format_row(&summary)
}

fn format_row(s: &MetricsSummary) -> String {
    let share = |n: u64| n as f64 / s.requests.max(1) as f64;
    format!(
        "{},{:.4},{:.4},{:.4},{:.4}",
        s.requests,
        share(s.completed),
        share(s.preempted),
        s.hit_share,
        s.mean_utility
    )
}

/// The dwell rows' think time per request.
fn dwell() -> Option<Duration> {
    Some(Duration::from_millis(100))
}

#[test]
fn uniform_dwell_row_is_pinned() {
    assert_eq!(quality_row(PredictorKind::Uniform, dwell()), UNIFORM_DWELL);
}

#[test]
fn kalman_dwell_row_is_pinned() {
    assert_eq!(quality_row(PredictorKind::Kalman, dwell()), KALMAN_DWELL);
}

#[test]
fn oracle_dwell_row_is_pinned() {
    assert_eq!(quality_row(PredictorKind::Oracle, dwell()), ORACLE_DWELL);
}

/// The long-dwell rows' think time per request.
fn long_dwell() -> Option<Duration> {
    Some(Duration::from_millis(200))
}

#[test]
fn uniform_long_dwell_row_is_pinned() {
    assert_eq!(
        quality_row(PredictorKind::Uniform, long_dwell()),
        UNIFORM_LONG_DWELL
    );
}

#[test]
fn kalman_long_dwell_row_is_pinned() {
    assert_eq!(
        quality_row(PredictorKind::Kalman, long_dwell()),
        KALMAN_LONG_DWELL
    );
}

#[test]
fn oracle_long_dwell_row_is_pinned() {
    assert_eq!(
        quality_row(PredictorKind::Oracle, long_dwell()),
        ORACLE_LONG_DWELL
    );
}

#[test]
fn kalman_fly_over_row_is_pinned() {
    assert_eq!(quality_row(PredictorKind::Kalman, None), KALMAN_FLY_OVER);
}

const UNIFORM_DWELL: &str = "432,0.0486,0.9514,0.0301,0.3800";
const KALMAN_DWELL: &str = "432,0.8056,0.1944,0.5208,0.4669";
const ORACLE_DWELL: &str = "432,1.0000,0.0000,0.9815,0.7264";
const UNIFORM_LONG_DWELL: &str = "432,0.0602,0.9398,0.0324,0.3800";
const KALMAN_LONG_DWELL: &str = "432,0.9583,0.0417,0.7986,0.5450";
const ORACLE_LONG_DWELL: &str = "432,1.0000,0.0000,0.9977,0.8698";
const KALMAN_FLY_OVER: &str = "432,0.0833,0.9167,0.0417,0.4060";
