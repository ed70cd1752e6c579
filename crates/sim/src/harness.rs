//! Experiment harness: one call per (system, application, condition) cell.
//!
//! The benchmark binaries in `khameleon-bench` are thin loops over these
//! helpers; keeping the wiring here means the integration tests exercise the
//! exact code paths that regenerate the paper's figures.

use khameleon_apps::baselines::{AccPrefetcher, FetchGranularity, NoPrefetch};
use khameleon_apps::falcon_app::{
    FalconApp, FalconBackendKind, FalconDataset, FalconPredictorKind,
};
use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
use khameleon_apps::traces::InteractionTrace;
use khameleon_core::types::Duration;

use crate::baseline_sim::{run_baseline, BaselineOptions};
use crate::config::ExperimentConfig;
use crate::khameleon_sim::{run_khameleon, BackendLatency, KhameleonOptions};
use crate::result::RunResult;

/// The systems compared throughout §6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemKind {
    /// Khameleon with the given predictor.
    Khameleon(PredictorKind),
    /// Khameleon with prediction + scheduling but responses encoded as a
    /// single block (the "Predictor" ablation arm of Figure 11).
    KhameleonNoProgressive(PredictorKind),
    /// Plain request/response, no prefetching.
    Baseline,
    /// Request/response fetching only the first block (the "Progressive"
    /// baseline / ablation arm).
    Progressive,
    /// Idealized prefetcher with the given accuracy and horizon.
    Acc {
        /// Per-request prediction accuracy in `[0, 1]`.
        accuracy: f64,
        /// Number of future requests prefetched after each user request.
        horizon: usize,
    },
}

impl SystemKind {
    /// Label used in reports (matches the paper's legend names).
    pub fn label(&self) -> String {
        match self {
            SystemKind::Khameleon(p) => format!("Khameleon-{}", p.name()),
            SystemKind::KhameleonNoProgressive(p) => format!("Predictor-{}", p.name()),
            SystemKind::Baseline => "Baseline".to_string(),
            SystemKind::Progressive => "Progressive".to_string(),
            SystemKind::Acc { accuracy, horizon } => format!("ACC-{accuracy}-{horizon}"),
        }
    }

    /// The standard comparison set of Figure 6: Khameleon-Kalman, ACC-1-1,
    /// ACC-1-5, ACC-0.8-5, Baseline.
    pub fn figure6_set() -> Vec<SystemKind> {
        vec![
            SystemKind::Khameleon(PredictorKind::Kalman),
            SystemKind::Acc {
                accuracy: 1.0,
                horizon: 1,
            },
            SystemKind::Acc {
                accuracy: 1.0,
                horizon: 5,
            },
            SystemKind::Acc {
                accuracy: 0.8,
                horizon: 5,
            },
            SystemKind::Baseline,
        ]
    }
}

/// Runs one system over the image-exploration application.
pub fn run_image_system(
    app: &ImageExplorationApp,
    system: SystemKind,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
) -> RunResult {
    run_image_system_draining(app, system, trace, cfg, BaselineOptions::default().drain)
}

/// [`run_image_system`], with a baseline system simulating `baseline_drain`
/// past the end of the trace.
fn run_image_system_draining(
    app: &ImageExplorationApp,
    system: SystemKind,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
    baseline_drain: Duration,
) -> RunResult {
    let baseline = |granularity| BaselineOptions {
        granularity,
        drain: baseline_drain,
    };
    let mut result = match system {
        SystemKind::Khameleon(kind) => run_khameleon(
            app.catalog(),
            app.utility(),
            app.client_predictor(kind, Some(trace)),
            app.server_predictor(),
            trace,
            cfg,
            KhameleonOptions {
                backend: BackendLatency::PerRequest(cfg.backend_processing()),
                ..Default::default()
            },
        ),
        SystemKind::KhameleonNoProgressive(kind) => {
            // Re-encode every image as a single block: same bytes, no
            // progressive refinement.
            let side = (app.num_requests() as f64).sqrt().round() as usize;
            let single = ImageExplorationApp::reduced_with_blocks(side, 1, 0xB10C);
            run_khameleon(
                single.catalog(),
                single.utility(),
                single.client_predictor(kind, Some(trace)),
                single.server_predictor(),
                trace,
                cfg,
                KhameleonOptions {
                    backend: BackendLatency::PerRequest(cfg.backend_processing()),
                    ..Default::default()
                },
            )
        }
        SystemKind::Baseline => run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            trace,
            cfg,
            baseline(FetchGranularity::FullResponse),
        ),
        SystemKind::Progressive => run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(NoPrefetch),
            trace,
            cfg,
            baseline(FetchGranularity::FirstBlockOnly),
        ),
        SystemKind::Acc { accuracy, horizon } => run_baseline(
            app.catalog(),
            app.utility(),
            Box::new(AccPrefetcher::new(
                accuracy,
                horizon,
                app.num_requests(),
                cfg.seed,
            )),
            trace,
            cfg,
            baseline(FetchGranularity::FullResponse),
        ),
    };
    result.label = system.label();
    result
}

/// Runs the whole Figure 6 comparison set over one trace and condition.
pub fn run_image_comparison(
    app: &ImageExplorationApp,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
) -> Vec<RunResult> {
    SystemKind::figure6_set()
        .into_iter()
        .map(|s| run_image_system(app, s, trace, cfg))
        .collect()
}

/// Runs the convergence probe of Figure 10: replay `trace`, stop at its last
/// request, keep streaming, and record the utility of that request over time.
pub fn run_convergence(
    app: &ImageExplorationApp,
    kind: PredictorKind,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
    observe_for: Duration,
) -> Vec<(Duration, f64)> {
    let Some(&(_, probe)) = trace.requests.last() else {
        return Vec::new();
    };
    let result = run_khameleon(
        app.catalog(),
        app.utility(),
        app.client_predictor(kind, Some(trace)),
        app.server_predictor(),
        trace,
        cfg,
        KhameleonOptions {
            backend: BackendLatency::PerRequest(cfg.backend_processing()),
            drain: observe_for,
            convergence_probe: Some(probe),
            ..Default::default()
        },
    );
    result.convergence
}

/// Convergence of a baseline system over the probe of [`run_convergence`],
/// the trace's final request, watched for `observe_for` after the trace ends:
/// utility 0 until the probe's response lands, then that response's utility
/// (baselines are all-or-nothing, §6.2 footnote 5).  Empty if it never lands.
pub fn run_baseline_convergence(
    app: &ImageExplorationApp,
    system: SystemKind,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
    observe_for: Duration,
) -> Vec<(Duration, f64)> {
    run_image_system_draining(app, system, trace, cfg, observe_for).convergence
}

/// Runs one Falcon configuration cell of Figure 14.
pub fn run_falcon(
    app: &FalconApp,
    predictor: FalconPredictorKind,
    backend: FalconBackendKind,
    dataset: FalconDataset,
    trace: &InteractionTrace,
    cfg: &ExperimentConfig,
) -> RunResult {
    let cost = app.cost_model(backend, dataset);
    let concurrency_limit = cost.concurrency_limit;
    let mut result = run_khameleon(
        app.catalog(),
        app.utility(),
        app.client_predictor(predictor),
        app.server_predictor(),
        trace,
        cfg,
        KhameleonOptions {
            backend: BackendLatency::CostModel {
                model: cost,
                rows: dataset.rows(),
                queries_per_request: app.queries_per_request(),
            },
            backend_concurrency_limit: concurrency_limit,
            ..Default::default()
        },
    );
    result.label = format!(
        "falcon-{}-{}-{}-b{}",
        predictor.name(),
        backend.name(),
        dataset.name(),
        app.config().blocks_per_response
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_apps::falcon_app::FalconAppConfig;
    use khameleon_apps::layout::ChartRowLayout;
    use khameleon_apps::traces::{
        generate_falcon_trace, generate_image_trace, FalconTraceConfig, ImageTraceConfig,
    };
    use khameleon_core::types::Bandwidth;

    fn image_setup() -> (ImageExplorationApp, InteractionTrace) {
        let app = ImageExplorationApp::reduced(8, 1);
        let trace = generate_image_trace(
            &app.layout(),
            &ImageTraceConfig {
                duration: Duration::from_secs(6),
                seed: 2,
                ..Default::default()
            },
        );
        (app, trace)
    }

    #[test]
    fn comparison_set_produces_all_systems() {
        let (app, trace) = image_setup();
        let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(5.0));
        let results = run_image_comparison(&app, &trace, &cfg);
        assert_eq!(results.len(), 5);
        let labels: Vec<String> = results.iter().map(|r| r.label.clone()).collect();
        assert!(labels.contains(&"Khameleon-kalman".to_string()));
        assert!(labels.contains(&"Baseline".to_string()));
        assert!(labels.contains(&"ACC-1-5".to_string()));
        for r in &results {
            assert!(r.summary.requests > 10, "{} saw no requests", r.label);
        }
    }

    #[test]
    fn khameleon_beats_baseline_on_latency_shape() {
        // The paper's headline: Khameleon keeps response latency orders of
        // magnitude lower than request/response baselines under constrained
        // bandwidth, at the cost of response quality (§6.2).
        let (app, trace) = image_setup();
        let cfg = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(1.5));
        let kham = run_image_system(
            &app,
            SystemKind::Khameleon(PredictorKind::Kalman),
            &trace,
            &cfg,
        );
        let base = run_image_system(&app, SystemKind::Baseline, &trace, &cfg);
        assert!(
            kham.summary.p50_latency_ms * 5.0 < base.summary.p50_latency_ms,
            "khameleon p50 {} vs baseline p50 {}",
            kham.summary.p50_latency_ms,
            base.summary.p50_latency_ms
        );
        assert!(kham.summary.cache_hit_rate > base.summary.cache_hit_rate);
        assert!(kham.summary.mean_utility <= 1.0);
    }

    #[test]
    fn ablation_arms_run() {
        let (app, trace) = image_setup();
        let cfg = ExperimentConfig::paper_default();
        let pred_only = run_image_system(
            &app,
            SystemKind::KhameleonNoProgressive(PredictorKind::Kalman),
            &trace,
            &cfg,
        );
        let progressive = run_image_system(&app, SystemKind::Progressive, &trace, &cfg);
        assert!(pred_only.label.starts_with("Predictor"));
        assert_eq!(progressive.label, "Progressive");
        assert!(pred_only.summary.requests > 0);
        // The progressive baseline's utility is the first-block utility, well
        // below 1.
        assert!(progressive.summary.mean_utility < 0.9);
    }

    #[test]
    fn convergence_runs_and_improves() {
        let (app, trace) = image_setup();
        // Cache large enough to hold the reduced corpus so the probe's prefix
        // is not evicted while we watch it converge.
        let cfg = ExperimentConfig::high_resource().with_cache_bytes(250_000_000);
        let samples = run_convergence(
            &app,
            PredictorKind::Kalman,
            &trace,
            &cfg,
            Duration::from_secs(15),
        );
        assert!(!samples.is_empty());
        let first = samples[0].1;
        let best = samples.iter().map(|s| s.1).fold(0.0, f64::max);
        assert!(best >= first);
        assert!(best > 0.5, "probe never converged past {best}");
        let b = run_baseline_convergence(
            &app,
            SystemKind::Baseline,
            &trace,
            &cfg,
            Duration::from_secs(15),
        );
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn falcon_cell_runs_and_prefers_scalable_backend() {
        let app = FalconApp::new(FalconAppConfig {
            bins: 8,
            blocks_per_response: 2,
            table_rows: 2_000,
            seed: 1,
        });
        let trace = generate_falcon_trace(
            &ChartRowLayout::falcon(),
            &FalconTraceConfig {
                duration: Duration::from_secs(60),
                dwell_range_ms: (200.0, 3_000.0),
                seed: 4,
                ..Default::default()
            },
        );
        let cfg = ExperimentConfig::paper_default().with_request_latency(Duration::from_millis(50));
        let pg = run_falcon(
            &app,
            FalconPredictorKind::Kalman,
            FalconBackendKind::PostgresLike,
            FalconDataset::Small,
            &trace,
            &cfg,
        );
        let sc = run_falcon(
            &app,
            FalconPredictorKind::Kalman,
            FalconBackendKind::Scalable,
            FalconDataset::Small,
            &trace,
            &cfg,
        );
        assert!(pg.label.contains("postgresql"));
        assert!(sc.label.contains("scalable"));
        assert!(pg.summary.requests >= 3);
        // The scalable backend should not be slower than the contended
        // PostgreSQL backend.
        assert!(sc.summary.mean_latency_ms <= pg.summary.mean_latency_ms + 1e-6);
    }
}
