//! The quality table, pinned: what the paper's image-exploration scenario
//! delivers through the simulator, per predictor.
//!
//! Each row runs [`run_image_system`] on a 100 × 100 gallery
//! (`ImageExplorationApp::reduced(100, 1)`) at the paper's default network
//! and cache (5.625 MB/s, 50 MB) with γ 0.8, over a 10 s image trace of
//! seed 1.  The dwell rows retime that trace to 100 ms of think time per
//! request (Figure 9's sweep); the fly-over row keeps the generator's own
//! timing, where the cursor crosses ≈ 35 thumbnails a second.
//!
//! A row is `requests,completed share,preempted share,hit share,mean
//! utility`, every share over all registered requests.  Like
//! `pinned_figures.rs`, the strings are exact: a change that moves a row
//! re-records it and says why in its description.

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

#[test]
fn kalman_fly_over_row_is_pinned() {
    assert_eq!(quality_row(PredictorKind::Kalman, None), KALMAN_FLY_OVER);
}

const UNIFORM_DWELL: &str = "432,0.0440,0.9560,0.0255,0.3800";
const KALMAN_DWELL: &str = "432,0.0810,0.9190,0.0556,0.3946";
const ORACLE_DWELL: &str = "432,0.6944,0.3056,0.6852,0.8999";
const KALMAN_FLY_OVER: &str = "432,0.0394,0.9606,0.0278,0.3800";
