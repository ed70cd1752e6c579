//! Machine-readable sampler/scheduler benchmark: sweeps the greedy
//! scheduler's per-block sampling cost over the materialized-set size `m`
//! and the two [`SamplerVariant`]s, plus a case whose draws run far past the
//! horizon, and writes the results as JSON so the perf trajectory can be
//! tracked across PRs (and uploaded as a CI artifact).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p khameleon-bench --bin sampler_json -- \
//!     [--quick] [--out BENCH_sampler.json]
//! ```
//!
//! `--quick` runs the reduced sweep CI uses (m ∈ {100, 1000}, fewer blocks);
//! the default sweep covers m ∈ {100, 1000, 10000}.  The binary asserts the
//! *correctness* of every run (full batches, exact block counts) and panics
//! on violation — it never fails on timing, so CI stays robust to noisy
//! runners while still catching functional regressions.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::DirectUplink;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::scheduler::{
    GreedyScheduler, GreedySchedulerConfig, SamplerVariant, Scheduler,
};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{PowerUtility, UtilityModel};

/// One measured configuration.
struct Case {
    /// `"steady"` (batch within the horizon), `"past_horizon"` (horizon ≪
    /// batch), or
    /// `"update-delta"` / `"update-rebuild"` (prediction-update throughput
    /// with each update shipped as a delta and diffed / as a whole summary
    /// and installed).
    case: &'static str,
    variant: SamplerVariant,
    /// Materialized-set size.
    m: usize,
    /// Catalog size.
    n: usize,
    /// Blocks scheduled (or prediction updates applied) per measured
    /// iteration.
    blocks_per_iter: usize,
    iters: usize,
    elapsed_ms: f64,
    /// Work units per second of the fastest iteration; see `metric`.
    blocks_per_sec: f64,
    /// What `blocks_per_sec` counts: `"blocks_per_sec"` or
    /// `"updates_per_sec"`.
    metric: &'static str,
}

fn prediction(n: usize, materialized: usize) -> PredictionSummary {
    let entries: Vec<(RequestId, f64)> = (0..materialized.min(n))
        .map(|i| (RequestId::from(i), 1.0 / (i + 1) as f64))
        .collect();
    let dist = SparseDistribution::from_entries(n, entries, 0.5);
    let slices = PredictionSummary::default_deltas()
        .into_iter()
        .map(|delta| HorizonSlice {
            delta,
            dist: dist.clone(),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

fn scheduler(n: usize, cache: usize, variant: SamplerVariant) -> GreedyScheduler {
    let blocks = 50u32;
    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
    GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: cache,
            slot_duration: Duration::from_millis(1),
            sampler: variant,
            ..Default::default()
        },
        UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks),
        catalog,
    )
}

/// Measures `iters` steady-state batches of `batch` blocks on one scheduler
/// whose prediction materializes `m` requests.  Between iterations the
/// (untimed) prediction update rolls the schedule back to slot 0, so every
/// timed batch starts from the same state with warm caches — the sweep
/// measures the per-block advance cost, not rebuilds or allocator churn.
/// `blocks_per_sec` uses the fastest iteration (the standard
/// noise-resistant estimator); `elapsed_ms` reports the full timed total.
fn measure(
    case: &'static str,
    variant: SamplerVariant,
    m: usize,
    cache: usize,
    batch: usize,
    iters: usize,
) -> Case {
    let n = 2 * m;
    let pred = prediction(n, m);
    let mut s = scheduler(n, cache, variant);
    // Warm-up + correctness check outside the timed region.
    for _ in 0..2 {
        s.update_prediction(&pred, 0);
        let got = s.next_batch(batch);
        assert_eq!(
            got.len(),
            batch,
            "scheduler under-filled a batch ({case}/{} m={m})",
            variant.label()
        );
    }
    let mut elapsed = std::time::Duration::ZERO;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        s.update_prediction(&pred, 0);
        let start = Instant::now();
        let got = s.next_batch(batch);
        let dt = start.elapsed();
        elapsed += dt;
        best = best.min(dt.as_secs_f64());
        assert_eq!(got.len(), batch, "under-filled timed batch");
    }
    Case {
        case,
        variant,
        m,
        n,
        blocks_per_iter: batch,
        iters,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        blocks_per_sec: batch as f64 / best.max(1e-12),
        metric: "blocks_per_sec",
    }
}

/// A drifting normalized prediction over `m` explicit entries whose
/// *unchanged* entries keep bit-identical probabilities across rounds (the
/// explicit weights plus the compensating residual sum to exactly 1.0, so
/// `from_entries` divides by 1.0) — each round rescales one rotating ~1%
/// segment, the small-diff regime the diff path is built for.
struct DriftingPrediction {
    n: usize,
    weights: Vec<f64>,
    round: usize,
}

impl DriftingPrediction {
    fn new(n: usize, m: usize) -> Self {
        // Explicit mass ≈ 0.5 (kept within [0.25, 0.75] so `1.0 - mass` is
        // exact by Sterbenz and the distribution total is exactly 1.0).
        let weights = (0..m)
            .map(|i| 0.5 / m as f64 * (1.0 + (i % 7) as f64 * 0.05))
            .collect();
        DriftingPrediction {
            n,
            weights,
            round: 0,
        }
    }

    fn summary(&self) -> PredictionSummary {
        let entries: Vec<(RequestId, f64)> = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (RequestId::from(i), w))
            .collect();
        let mass: f64 = self.weights.iter().sum();
        assert!((0.25..=0.75).contains(&mass), "mass drifted: {mass}");
        let dist = SparseDistribution::from_entries(self.n, entries, 1.0 - mass);
        let slices = PredictionSummary::default_deltas()
            .into_iter()
            .map(|delta| HorizonSlice {
                delta,
                dist: dist.clone(),
            })
            .collect();
        PredictionSummary::new(self.n, slices, Time::ZERO)
    }

    /// Rescales the next ~1% segment (alternating up/down so the explicit
    /// mass stays bounded) and returns the new summary.
    fn advance(&mut self) -> PredictionSummary {
        let m = self.weights.len();
        let seg = (m / 100).max(1);
        let start = (self.round * seg) % m;
        let factor = if (self.round / (m / seg).max(1)).is_multiple_of(2) {
            1.25
        } else {
            0.75
        };
        for i in start..(start + seg).min(m) {
            self.weights[i] *= factor;
        }
        self.round += 1;
        self.summary()
    }
}

/// Measures prediction-update throughput: many re-predictions, few blocks
/// each (the push-based client's hot path).  Each timed iteration applies
/// `updates` drifting summaries (~1% of entries changed per update),
/// scheduling a tiny batch after each.  With an `uplink` they travel as the
/// wire carries them — deltas, diffed into the model; without, each is a
/// whole summary, installed.
fn measure_updates(
    m: usize,
    cache: usize,
    mut uplink: Option<DirectUplink>,
    updates: usize,
    iters: usize,
) -> Case {
    let n = 2 * m;
    let blocks = 50u32;
    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 10_000));
    let mut s = GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: cache,
            slot_duration: Duration::from_millis(1),
            sampler: SamplerVariant::Lazy,
            ..Default::default()
        },
        UtilityModel::homogeneous(&PowerUtility::new(0.5), blocks),
        catalog,
    );
    let mut ship = |s: &mut GreedyScheduler, pred: &PredictionSummary| match &mut uplink {
        Some(uplink) => uplink.ship(s, pred),
        None => s.update_prediction(pred, 0),
    };
    // Every scheduled block goes on the wire, so no update rolls one back.
    let send = |s: &mut GreedyScheduler| {
        let got = s.next_batch(4);
        for &b in &got {
            s.note_sent(b);
        }
        got
    };
    let mut drift = DriftingPrediction::new(n, m);
    // Warm up: the first update joins all `m` requests (an install either
    // way); steady state is the ~1%-changed regime.
    ship(&mut s, &drift.summary());
    send(&mut s);
    let mut elapsed = std::time::Duration::ZERO;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        for _ in 0..updates {
            let pred = drift.advance();
            ship(&mut s, &pred);
            let got = send(&mut s);
            assert!(!got.is_empty(), "scheduler stalled mid-update-sweep");
        }
        let dt = start.elapsed();
        elapsed += dt;
        best = best.min(dt.as_secs_f64());
    }
    let delta = uplink.is_some();
    if delta {
        assert_eq!(
            s.diff_applied_updates(),
            (updates * iters) as u64,
            "a ~1% drift must travel as a delta and be diffed"
        );
    } else {
        assert_eq!(s.diff_applied_updates(), 0, "a whole summary is installed");
    }
    Case {
        case: if delta {
            "update-delta"
        } else {
            "update-rebuild"
        },
        variant: SamplerVariant::Lazy,
        m,
        n,
        blocks_per_iter: updates,
        iters,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        blocks_per_sec: updates as f64 / best.max(1e-12),
        metric: "updates_per_sec",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sampler.json".to_string());

    let ms: &[usize] = if quick {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let iters = if quick { 5 } else { 20 };
    let batch = 256;
    let cache = 512;

    let mut cases = Vec::new();
    for &m in ms {
        for variant in [SamplerVariant::Lazy, SamplerVariant::Scan] {
            cases.push(measure("steady", variant, m, cache, batch, iters));
        }
    }
    // Past the horizon: all but the first 64 draws of each batch read the
    // model's clamped last slot and evict the ring's oldest blocks.
    let past_horizon_m = 1_000;
    cases.push(measure(
        "past_horizon",
        SamplerVariant::Lazy,
        past_horizon_m,
        64,
        if quick { 256 } else { 512 },
        iters,
    ));
    // Update-heavy: many re-predictions (~1% of entries changed each), few
    // blocks per update — the push-based client's hot path.  Deltas diffed
    // into the model vs. whole summaries installed.
    let update_m = if quick { 2_000 } else { 10_000 };
    let update_rounds = if quick { 16 } else { 32 };
    for uplink in [Some(DirectUplink::new()), None] {
        cases.push(measure_updates(update_m, 512, uplink, update_rounds, iters));
    }

    let mut json = String::new();
    json.push_str(
        "{\n  \"bench\": \"sampler_refresh\",\n  \"unit\": \"blocks_per_sec\",\n  \"results\": [\n",
    );
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"variant\": \"{}\", \"m\": {}, \"n\": {}, \"blocks_per_iter\": {}, \"iters\": {}, \"elapsed_ms\": {:.3}, \"blocks_per_sec\": {:.1}, \"metric\": \"{}\"}}{}",
            c.case,
            c.variant.label(),
            c.m,
            c.n,
            c.blocks_per_iter,
            c.iters,
            c.elapsed_ms,
            c.blocks_per_sec,
            c.metric,
            if i + 1 == cases.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench JSON");

    println!("wrote {out_path}");
    println!(
        "{:<14} {:<8} {:>8} {:>14} {:>12}",
        "case", "variant", "m", "units/sec", "elapsed_ms"
    );
    for c in &cases {
        println!(
            "{:<14} {:<8} {:>8} {:>14.0} {:>12.2}",
            c.case,
            c.variant.label(),
            c.m,
            c.blocks_per_sec,
            c.elapsed_ms
        );
    }
    let rate = |case: &str| {
        cases
            .iter()
            .find(|c| c.case == case)
            .map(|c| c.blocks_per_sec)
    };
    if let (Some(delta), Some(rebuild)) = (rate("update-delta"), rate("update-rebuild")) {
        println!(
            "prediction-update speedup (delta vs rebuild, m={update_m}): {:.1}x",
            delta / rebuild.max(1e-12)
        );
    }
}
