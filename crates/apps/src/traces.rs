//! Interaction traces: the user behaviour that drives every experiment.
//!
//! The paper replays real mouse-level traces (14 users × 3 minutes for the
//! image app, 70 Falcon sessions from the benchmark of Battle et al.) whose
//! defining statistics are their think-time distributions (Figure 5): the
//! image app has ~20 ms average think time with a tail to a few seconds,
//! while Falcon sessions mix sub-second brushing with minute-long pauses.
//! We do not have the recorded traces, so this module synthesizes traces with
//! matching statistics (see `DESIGN.md` §2): waypoint-driven mouse motion
//! over the layout, bursty widget crossings, and log-normal dwell times.
//!
//! A trace is a sequence of mouse samples plus the requests those samples
//! imply; Figure 9's think-time sweep uses [`InteractionTrace::with_think_time`]
//! to retime the same request sequence at a chosen pace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use khameleon_core::predictor::RequestLayout;
use khameleon_core::types::{Duration, RequestId, Time};

use crate::layout::{ChartRowLayout, GridLayout};

/// One sampled mouse position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MouseSample {
    /// Sample time.
    pub at: Time,
    /// Horizontal position (pixels).
    pub x: f64,
    /// Vertical position (pixels).
    pub y: f64,
}

/// A recorded (or synthesized) interaction session.
#[derive(Debug, Clone)]
pub struct InteractionTrace {
    /// Mouse samples in time order (typically every 20 ms).
    pub samples: Vec<MouseSample>,
    /// Requests issued, in time order.
    pub requests: Vec<(Time, RequestId)>,
    /// Trace name for reports.
    pub name: String,
}

impl InteractionTrace {
    /// Total trace duration.
    pub fn duration(&self) -> Duration {
        let last_sample = self.samples.last().map(|s| s.at).unwrap_or(Time::ZERO);
        let last_req = self.requests.last().map(|r| r.0).unwrap_or(Time::ZERO);
        last_sample.max(last_req).saturating_sub(Time::ZERO)
    }

    /// Number of requests.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Think times (gaps between consecutive requests) in milliseconds.
    pub fn think_times_ms(&self) -> Vec<f64> {
        self.requests
            .windows(2)
            .map(|w| (w[1].0.saturating_sub(w[0].0)).as_millis_f64())
            .collect()
    }

    /// Mean think time.
    pub fn mean_think_time(&self) -> Duration {
        let tt = self.think_times_ms();
        if tt.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_millis_f64(tt.iter().sum::<f64>() / tt.len() as f64)
        }
    }

    /// Retimes the trace so every inter-request gap equals `think_time`
    /// (Figure 9's synthetic think-time sweep).  Mouse samples within each
    /// original gap are linearly re-timed into the new gap so predictors
    /// still see continuous motion.
    pub fn with_think_time(&self, think_time: Duration) -> InteractionTrace {
        if self.requests.len() < 2 {
            return self.clone();
        }
        let mut new_requests = Vec::with_capacity(self.requests.len());
        let mut new_samples = Vec::with_capacity(self.samples.len());

        // New request times: first request keeps its offset from zero, then
        // fixed spacing.
        let first = self.requests[0].0;
        for (i, &(_, r)) in self.requests.iter().enumerate() {
            new_requests.push((
                first + Duration::from_micros(think_time.as_micros() * i as u64),
                r,
            ));
        }

        // Map each sample's time through the piecewise-linear retiming defined
        // by old request times -> new request times.
        let old_times: Vec<Time> = self.requests.iter().map(|r| r.0).collect();
        let new_times: Vec<Time> = new_requests.iter().map(|r| r.0).collect();
        for s in &self.samples {
            let t = remap_time(s.at, &old_times, &new_times);
            new_samples.push(MouseSample {
                at: t,
                x: s.x,
                y: s.y,
            });
        }
        new_samples.sort_by_key(|s| s.at);

        InteractionTrace {
            samples: new_samples,
            requests: new_requests,
            name: format!("{}@tt{}ms", self.name, think_time.as_millis_f64()),
        }
    }

    /// Truncates the trace to its first `duration` of activity.
    pub fn truncate(&self, duration: Duration) -> InteractionTrace {
        let cutoff = Time::ZERO + duration;
        InteractionTrace {
            samples: self
                .samples
                .iter()
                .copied()
                .filter(|s| s.at <= cutoff)
                .collect(),
            requests: self
                .requests
                .iter()
                .copied()
                .filter(|r| r.0 <= cutoff)
                .collect(),
            name: self.name.clone(),
        }
    }
}

/// Piecewise-linear time remapping through anchor points.
fn remap_time(t: Time, old: &[Time], new: &[Time]) -> Time {
    if old.is_empty() {
        return t;
    }
    if t <= old[0] {
        // Keep the offset before the first anchor.
        let offset = old[0].saturating_sub(t);
        return Time::from_micros(new[0].as_micros().saturating_sub(offset.as_micros()));
    }
    for i in 1..old.len() {
        if t <= old[i] {
            let span_old = old[i].saturating_sub(old[i - 1]).as_micros().max(1);
            let span_new = new[i].saturating_sub(new[i - 1]).as_micros();
            let frac = t.saturating_sub(old[i - 1]).as_micros() as f64 / span_old as f64;
            return new[i - 1] + Duration::from_micros((frac * span_new as f64) as u64);
        }
    }
    // Past the last anchor: keep the trailing offset.
    match (old.last(), new.last()) {
        (Some(&last_old), Some(&last_new)) => last_new + t.saturating_sub(last_old),
        _ => t,
    }
}

/// Configuration for synthetic image-exploration traces.
#[derive(Debug, Clone)]
pub struct ImageTraceConfig {
    /// Session length.
    pub duration: Duration,
    /// Mouse sampling interval (the 20 ms of §6.1).
    pub sample_interval: Duration,
    /// Cursor speed range in pixels per second.
    pub speed_range: (f64, f64),
    /// Probability of pausing when a waypoint is reached.
    pub pause_prob: f64,
    /// Dwell time range when paused (log-uniform).
    pub pause_range_ms: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImageTraceConfig {
    fn default() -> Self {
        ImageTraceConfig {
            duration: Duration::from_secs(180),
            sample_interval: Duration::from_millis(20),
            speed_range: (400.0, 2_500.0),
            pause_prob: 0.35,
            pause_range_ms: (80.0, 3_000.0),
            seed: 1,
        }
    }
}

/// Generates a synthetic image-exploration trace: the cursor sweeps between
/// random waypoints on the thumbnail grid, issuing a request every time it
/// crosses into a new thumbnail, with occasional pauses.
pub fn generate_image_trace(layout: &GridLayout, cfg: &ImageTraceConfig) -> InteractionTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (w, h) = (layout.width(), layout.height());
    let mut pos = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
    let mut waypoint = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
    let mut speed = rng.gen_range(cfg.speed_range.0..cfg.speed_range.1);
    let mut pause_until = Time::ZERO;

    let mut samples = Vec::new();
    let mut requests = Vec::new();
    let mut last_widget: Option<RequestId> = None;

    let steps = (cfg.duration.as_micros() / cfg.sample_interval.as_micros()) as usize;
    for i in 0..steps {
        let now = Time::from_micros(cfg.sample_interval.as_micros() * i as u64);
        if now >= pause_until {
            // Move toward the waypoint.
            let dx = waypoint.0 - pos.0;
            let dy = waypoint.1 - pos.1;
            let dist = (dx * dx + dy * dy).sqrt();
            let step = speed * cfg.sample_interval.as_secs_f64();
            if dist <= step {
                pos = waypoint;
                // Pick the next waypoint; possibly dwell here first.
                waypoint = (rng.gen_range(0.0..w), rng.gen_range(0.0..h));
                speed = rng.gen_range(cfg.speed_range.0..cfg.speed_range.1);
                if rng.gen::<f64>() < cfg.pause_prob {
                    let (lo, hi) = cfg.pause_range_ms;
                    let pause = lo * (hi / lo).powf(rng.gen::<f64>());
                    pause_until = now + Duration::from_millis_f64(pause);
                }
            } else {
                pos.0 += dx / dist * step;
                pos.1 += dy / dist * step;
            }
        }
        samples.push(MouseSample {
            at: now,
            x: pos.0,
            y: pos.1,
        });
        if let Some(widget) = layout.request_at(pos.0, pos.1) {
            if last_widget != Some(widget) {
                requests.push((now, widget));
                last_widget = Some(widget);
            }
        }
    }

    InteractionTrace {
        samples,
        requests,
        name: format!("image-trace-{}", cfg.seed),
    }
}

/// Configuration for synthetic Falcon traces.
#[derive(Debug, Clone)]
pub struct FalconTraceConfig {
    /// Session length.
    pub duration: Duration,
    /// Mouse sampling interval.
    pub sample_interval: Duration,
    /// Dwell-time range on a chart before moving to another (log-uniform).
    pub dwell_range_ms: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for FalconTraceConfig {
    fn default() -> Self {
        FalconTraceConfig {
            duration: Duration::from_secs(300),
            sample_interval: Duration::from_millis(20),
            dwell_range_ms: (150.0, 60_000.0),
            seed: 1,
        }
    }
}

/// Generates a synthetic Falcon session: the cursor dwells on one chart
/// (brushing within it), then moves to another chart; each chart activation
/// is one request.
pub fn generate_falcon_trace(layout: &ChartRowLayout, cfg: &FalconTraceConfig) -> InteractionTrace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let charts = layout.charts();
    let mut current = rng.gen_range(0..charts);
    let mut samples = Vec::new();
    let mut requests = Vec::new();
    let mut now = Time::ZERO;
    let end = Time::ZERO + cfg.duration;

    while now < end {
        // Activate the current chart.
        requests.push((now, RequestId::from(current)));
        let (lo, hi) = cfg.dwell_range_ms;
        let dwell = Duration::from_millis_f64(lo * (hi / lo).powf(rng.gen::<f64>()));
        let dwell_end = (now + dwell).min(end);
        // Brush within the chart while dwelling.
        let (x0, y0, x1, y1) = layout.bounds(RequestId::from(current));
        let mut t = now;
        while t < dwell_end {
            samples.push(MouseSample {
                at: t,
                x: rng.gen_range(x0..x1),
                y: rng.gen_range(y0..y1),
            });
            t += cfg.sample_interval;
        }
        now = dwell_end;
        // Move to a different chart (brief travel).
        let next = (current + rng.gen_range(1..charts)) % charts;
        current = next;
        now += Duration::from_millis(rng.gen_range(30..200));
    }

    InteractionTrace {
        samples,
        requests,
        name: format!("falcon-trace-{}", cfg.seed),
    }
}

/// Generates a set of image traces with distinct seeds (the paper uses 14).
pub fn image_trace_set(
    layout: &GridLayout,
    count: usize,
    base_cfg: &ImageTraceConfig,
) -> Vec<InteractionTrace> {
    (0..count)
        .map(|i| {
            let cfg = ImageTraceConfig {
                seed: base_cfg.seed.wrapping_add(i as u64),
                ..base_cfg.clone()
            };
            generate_image_trace(layout, &cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_image_cfg(seed: u64) -> ImageTraceConfig {
        ImageTraceConfig {
            duration: Duration::from_secs(10),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn image_trace_statistics_match_paper() {
        let layout = GridLayout::image_gallery();
        let t = generate_image_trace(&layout, &short_image_cfg(3));
        assert!(t.num_requests() > 50, "only {} requests", t.num_requests());
        // Mean think time is tens of milliseconds (paper: ~20 ms average, with
        // pauses pulling the mean up).
        let mean = t.mean_think_time().as_millis_f64();
        assert!((15.0..=250.0).contains(&mean), "mean think time {mean} ms");
        // Burstiness: a majority of gaps are at the 20 ms sampling floor.
        let tts = t.think_times_ms();
        let fast = tts.iter().filter(|&&x| x <= 25.0).count();
        assert!(fast * 2 > tts.len(), "trace is not bursty enough");
        // Requests stay within the grid.
        assert!(t.requests.iter().all(|&(_, r)| r.index() < 10_000));
        // Samples cover the full duration.
        assert!(t.duration().as_secs_f64() >= 9.5);
    }

    #[test]
    fn image_trace_deterministic_per_seed() {
        let layout = GridLayout::image_gallery();
        let a = generate_image_trace(&layout, &short_image_cfg(5));
        let b = generate_image_trace(&layout, &short_image_cfg(5));
        let c = generate_image_trace(&layout, &short_image_cfg(6));
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn falcon_trace_has_long_dwells() {
        let layout = ChartRowLayout::falcon();
        let t = generate_falcon_trace(
            &layout,
            &FalconTraceConfig {
                duration: Duration::from_secs(120),
                seed: 2,
                ..Default::default()
            },
        );
        assert!(t.num_requests() >= 3);
        assert!(t.requests.iter().all(|&(_, r)| r.index() < 6));
        // Falcon think times are much longer than the image app's.
        assert!(t.mean_think_time().as_millis_f64() > 200.0);
        // Consecutive activations always switch charts.
        for w in t.requests.windows(2) {
            assert_ne!(w[0].1, w[1].1);
        }
    }

    #[test]
    fn think_time_retiming() {
        let layout = GridLayout::image_gallery();
        let t = generate_image_trace(&layout, &short_image_cfg(7));
        let retimed = t.with_think_time(Duration::from_millis(100));
        assert_eq!(retimed.num_requests(), t.num_requests());
        // Same request sequence.
        let seq_a: Vec<RequestId> = t.requests.iter().map(|r| r.1).collect();
        let seq_b: Vec<RequestId> = retimed.requests.iter().map(|r| r.1).collect();
        assert_eq!(seq_a, seq_b);
        // Every gap is exactly 100 ms.
        for gap in retimed.think_times_ms() {
            assert!((gap - 100.0).abs() < 1e-6);
        }
        // Samples remain sorted.
        for w in retimed.samples.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn truncate_limits_duration() {
        let layout = GridLayout::image_gallery();
        let t = generate_image_trace(&layout, &short_image_cfg(8));
        let cut = t.truncate(Duration::from_secs(2));
        assert!(cut.duration() <= Duration::from_secs(2));
        assert!(cut.num_requests() < t.num_requests());
        assert!(cut.num_requests() > 0);
    }

    #[test]
    fn trace_set_uses_distinct_seeds() {
        let layout = GridLayout::image_gallery();
        let set = image_trace_set(&layout, 3, &short_image_cfg(10));
        assert_eq!(set.len(), 3);
        assert_ne!(set[0].requests, set[1].requests);
        assert_ne!(set[1].requests, set[2].requests);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = InteractionTrace {
            samples: vec![],
            requests: vec![],
            name: "empty".into(),
        };
        assert_eq!(t.duration(), Duration::ZERO);
        assert_eq!(t.mean_think_time(), Duration::ZERO);
        assert!(t.think_times_ms().is_empty());
        let r = t.with_think_time(Duration::from_millis(50));
        assert_eq!(r.num_requests(), 0);
    }
}
