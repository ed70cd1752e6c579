//! Figure 10: convergence of response utility after the user pauses on a
//! request, for the low / medium / high resource settings.
//!
//! Khameleon's utility rises progressively as blocks stream in; the
//! baselines are all-or-nothing (utility 0 until the full response lands).

use khameleon_apps::image_app::PredictorKind;
use khameleon_bench::{image_app, image_trace, print_csv, print_preamble, resource_levels, Scale};
use khameleon_core::types::Duration;
use khameleon_sim::harness::{run_baseline_convergence, run_convergence, SystemKind};

fn main() {
    let scale = Scale::from_args();
    print_preamble("Figure 10", scale, "utility convergence after pausing");
    let app = image_app(scale);
    let full_trace = image_trace(&app, scale);
    // Pause partway through the trace (the paper pauses at a random time; we
    // use the midpoint so the run is deterministic).
    let pause = Duration::from_secs_f64(full_trace.duration().as_secs_f64() / 2.0);
    let trace = full_trace.truncate(pause);
    let observe = Duration::from_secs(10);

    let mut rows = Vec::new();
    for (level, cfg) in resource_levels() {
        for (elapsed, utility) in
            run_convergence(&app, PredictorKind::Kalman, &trace, &cfg, observe)
        {
            rows.push(format!(
                "{level},Khameleon,{:.1},{:.4}",
                elapsed.as_millis_f64(),
                utility
            ));
        }
        for system in [
            SystemKind::Acc {
                accuracy: 1.0,
                horizon: 1,
            },
            SystemKind::Acc {
                accuracy: 1.0,
                horizon: 5,
            },
            SystemKind::Baseline,
        ] {
            for (elapsed, utility) in run_baseline_convergence(&app, system, &trace, &cfg, observe)
            {
                rows.push(format!(
                    "{level},{},{:.1},{:.4}",
                    system.label(),
                    elapsed.as_millis_f64(),
                    utility
                ));
            }
        }
    }
    print_csv("resource,system,elapsed_ms,utility", &rows);
}
