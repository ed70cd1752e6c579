//! Audit-feature smoke test: a full end-to-end Khameleon simulation under a
//! mixed-churn workload (pan/zoom trace, tight cache, modest bandwidth) must
//! complete with the runtime invariant auditor attached, every check
//! exercised, and **zero** violations.  The machine-readable report is also
//! written to `target/audit-report.json` so CI can archive it as an artifact.
#![cfg(feature = "audit")]

use khameleon_apps::image_app::{ImageExplorationApp, PredictorKind};
use khameleon_apps::traces::{generate_image_trace, ImageTraceConfig};
use khameleon_core::audit::AuditCheck;
use khameleon_core::types::{Bandwidth, Duration};
use khameleon_sim::{run_khameleon, BackendLatency, ExperimentConfig, KhameleonOptions};

#[test]
fn mixed_churn_simulation_audits_to_zero_violations() {
    let app = ImageExplorationApp::reduced(12, 1);
    let trace = generate_image_trace(
        &app.layout(),
        &ImageTraceConfig {
            duration: Duration::from_secs(10),
            seed: 17,
            ..Default::default()
        },
    );
    // Tight resources force evictions, schedule wraps, and rollbacks — the
    // states the auditor's slot-alignment and diff-signature checks guard.
    let base = ExperimentConfig {
        audit: true,
        ..ExperimentConfig::paper_default()
            .with_bandwidth(Bandwidth::from_mbps(2.0))
            .with_cache_bytes(2_000_000)
    };
    // The paper's configuration ships opaque Kalman states, which the
    // server decodes into whole summaries and installs; only a prediction
    // that travels as a *delta* is diffed, so the diff-signature check needs
    // a run whose predictor ships summaries (the oracle's) as deltas.
    let kalman = (PredictorKind::Kalman, base.clone());
    let deltas = (PredictorKind::Oracle, base.with_prediction_delta(true));
    let mut json = String::new();
    for (kind, cfg) in [kalman, deltas] {
        let result = run_khameleon(
            app.catalog(),
            app.utility(),
            app.client_predictor(kind, Some(&trace)),
            app.server_predictor(),
            &trace,
            &cfg,
            KhameleonOptions {
                backend: BackendLatency::PerRequest(cfg.backend_processing()),
                ..Default::default()
            },
        );
        // The run itself must look like a real mixed workload, not a no-op.
        assert!(result.summary.requests > 10, "trace replay was degenerate");
        assert!(result.blocks_sent > 0);

        let report = result.audit.expect("audit enabled but no report captured");
        assert!(report.events > 0, "auditor never observed an event");
        for check in AuditCheck::ALL {
            assert!(
                report.runs(check) > 0
                    || (check == AuditCheck::DiffSignature && !cfg.prediction_delta),
                "check {} never ran during the {} simulation",
                check.name(),
                kind.name()
            );
            assert_eq!(
                report.violations_of(check),
                0,
                "check {} flagged violations:\n{}",
                check.name(),
                report.to_json()
            );
        }
        assert_eq!(report.total_violations(), 0);
        json = report.to_json();
        assert!(json.contains("\"total_violations\":0"), "{json}");
    }

    // Persist the machine-readable report (the delta run's, where every
    // check ran) for the CI artifact upload.
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target");
    std::fs::create_dir_all(&target).expect("create target dir");
    std::fs::write(target.join("audit-report.json"), &json).expect("write audit report");
}

#[test]
fn audit_flag_is_deterministically_inert_on_traffic() {
    // `with_audit(true)` must not disturb determinism: the same run with the
    // flag off produces identical traffic counters.
    let app = ImageExplorationApp::reduced(8, 1);
    let trace = generate_image_trace(
        &app.layout(),
        &ImageTraceConfig {
            duration: Duration::from_secs(4),
            seed: 5,
            ..Default::default()
        },
    );
    let base = ExperimentConfig::paper_default().with_bandwidth(Bandwidth::from_mbps(3.0));
    let run = |cfg: &ExperimentConfig| {
        run_khameleon(
            app.catalog(),
            app.utility(),
            app.client_predictor(PredictorKind::Kalman, Some(&trace)),
            app.server_predictor(),
            &trace,
            cfg,
            KhameleonOptions {
                backend: BackendLatency::PerRequest(cfg.backend_processing()),
                ..Default::default()
            },
        )
    };
    let audited = run(&ExperimentConfig {
        audit: true,
        ..base.clone()
    });
    let plain = run(&base);
    assert_eq!(audited.blocks_sent, plain.blocks_sent);
    assert_eq!(audited.bytes_sent, plain.bytes_sent);
    assert!(audited.audit.is_some());
    assert!(plain.audit.is_none());
}
