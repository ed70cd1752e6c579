//! Kalman-filter mouse predictor.
//!
//! The paper's experiments use a "naive Kalman Filter \[77\]" on the client to
//! estimate the cursor's future position (§4, §6.1): a constant-velocity
//! model whose state is `[x, y, vx, vy]`, updated from mouse-move events, and
//! propagated forward by Δ ∈ {50, 150, 250, 500} ms to produce one Gaussian
//! (centroid + 2×2 covariance — six floats) per offset.  Those Gaussians are
//! the predictor state shipped to the server; the server-side component
//! integrates them over the widget layout (see
//! [`gaussian::Gaussian2d::to_request_distribution`](super::gaussian::Gaussian2d)).

use crate::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use crate::predictor::gaussian::{Gaussian2d, Point2d};
use crate::predictor::{
    ClientPredictor, InteractionEvent, PredictorState, RequestLayout, ServerPredictor,
};
use crate::types::{Duration, Time};
use std::sync::Arc;

/// Configuration of the constant-velocity Kalman filter.
#[derive(Debug, Clone)]
pub struct KalmanConfig {
    /// Process noise intensity (pixels/s^2); larger values let the filter
    /// react faster to direction changes at the cost of wider predictions.
    pub process_noise: f64,
    /// Measurement noise standard deviation (pixels).
    pub measurement_noise: f64,
    /// Future offsets to predict for.
    pub deltas: Vec<Duration>,
}

#[allow(clippy::derivable_impls)]
impl Default for KalmanConfig {
    fn default() -> Self {
        KalmanConfig {
            process_noise: 4_000.0,
            measurement_noise: 4.0,
            deltas: PredictionSummary::default_deltas(),
        }
    }
}

/// Client-side constant-velocity Kalman filter over the mouse position.
///
/// State vector `[x, y, vx, vy]`; x/y and vx/vy pairs are tracked with two
/// independent 2×2 filters (position, velocity per axis), which is exact for
/// the constant-velocity model with axis-independent noise and keeps the
/// arithmetic transparent.
#[derive(Debug, Clone)]
pub struct KalmanMousePredictor {
    cfg: KalmanConfig,
    /// Per-axis state: (position, velocity) and 2×2 covariance
    /// [[p_pp, p_pv], [p_pv, p_vv]].
    axis: [AxisFilter; 2],
    last_update: Option<Time>,
    initialized: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct AxisFilter {
    pos: f64,
    vel: f64,
    p_pp: f64,
    p_pv: f64,
    p_vv: f64,
}

impl AxisFilter {
    fn init(&mut self, pos: f64, measurement_var: f64) {
        self.pos = pos;
        self.vel = 0.0;
        self.p_pp = measurement_var;
        self.p_pv = 0.0;
        self.p_vv = 1_000.0;
    }

    /// Time update (prediction step) over `dt` seconds with process noise `q`.
    fn predict(&mut self, dt: f64, q: f64) {
        // x' = x + v*dt ; v' = v
        self.pos += self.vel * dt;
        // Covariance propagation for F = [[1, dt], [0, 1]] plus white-noise
        // acceleration process noise (discrete Wiener model).
        let p_pp = self.p_pp + 2.0 * dt * self.p_pv + dt * dt * self.p_vv;
        let p_pv = self.p_pv + dt * self.p_vv;
        let p_vv = self.p_vv;
        let dt2 = dt * dt;
        self.p_pp = p_pp + q * dt2 * dt2 / 4.0;
        self.p_pv = p_pv + q * dt2 * dt / 2.0;
        self.p_vv = p_vv + q * dt2;
    }

    /// Measurement update with observed position `z` and measurement variance
    /// `r`.
    fn update(&mut self, z: f64, r: f64) {
        let innovation = z - self.pos;
        let s = self.p_pp + r;
        let k_pos = self.p_pp / s;
        let k_vel = self.p_pv / s;
        self.pos += k_pos * innovation;
        self.vel += k_vel * innovation;
        let p_pp = (1.0 - k_pos) * self.p_pp;
        let p_pv = (1.0 - k_pos) * self.p_pv;
        let p_vv = self.p_vv - k_vel * self.p_pv;
        self.p_pp = p_pp;
        self.p_pv = p_pv;
        self.p_vv = p_vv;
    }

    /// Position mean and variance after looking `dt` seconds ahead without
    /// further measurements.
    fn forecast(&self, dt: f64, q: f64) -> (f64, f64) {
        let mut f = *self;
        f.predict(dt, q);
        (f.pos, f.p_pp.max(1e-6))
    }
}

impl KalmanMousePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(cfg: KalmanConfig) -> Self {
        KalmanMousePredictor {
            cfg,
            axis: [AxisFilter::default(), AxisFilter::default()],
            last_update: None,
            initialized: false,
        }
    }

    /// Creates a predictor with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(KalmanConfig::default())
    }

    /// The filter's current position estimate.
    pub fn position(&self) -> Point2d {
        Point2d::new(self.axis[0].pos, self.axis[1].pos)
    }

    fn ingest_position(&mut self, x: f64, y: f64, at: Time) {
        let r = self.cfg.measurement_noise * self.cfg.measurement_noise;
        if !self.initialized {
            self.axis[0].init(x, r);
            self.axis[1].init(y, r);
            self.initialized = true;
            self.last_update = Some(at);
            return;
        }
        let dt = self
            .last_update
            .map(|t| at.saturating_sub(t).as_secs_f64())
            .unwrap_or(0.0)
            .max(1e-4);
        let q = self.cfg.process_noise;
        self.axis[0].predict(dt, q);
        self.axis[1].predict(dt, q);
        self.axis[0].update(x, r);
        self.axis[1].update(y, r);
        self.last_update = Some(at);
    }

    /// Gaussian forecast of the pointer position `delta` into the future from
    /// `now`.
    pub fn forecast(&self, now: Time, delta: Duration) -> Gaussian2d {
        let staleness = self
            .last_update
            .map(|t| now.saturating_sub(t).as_secs_f64())
            .unwrap_or(0.0);
        let dt = staleness + delta.as_secs_f64();
        let q = self.cfg.process_noise;
        let (mx, vx) = self.axis[0].forecast(dt, q);
        let (my, vy) = self.axis[1].forecast(dt, q);
        Gaussian2d::new(Point2d::new(mx, my), vx, vy, 0.0)
    }
}

impl ClientPredictor for KalmanMousePredictor {
    fn observe(&mut self, event: &InteractionEvent) {
        if let InteractionEvent::MouseMove { x, y, at } = *event {
            self.ingest_position(x, y, at);
        }
    }

    fn state(&mut self, now: Time) -> PredictorState {
        if !self.initialized {
            return PredictorState::Empty;
        }
        let gaussians = self
            .cfg
            .deltas
            .clone()
            .into_iter()
            .map(|d| (d, self.forecast(now, d)))
            .collect();
        PredictorState::MouseGaussians(gaussians)
    }

    fn name(&self) -> &str {
        "kalman"
    }
}

/// Server-side component that decodes Gaussian mouse forecasts into request
/// distributions by integrating over a static widget layout.
pub struct GaussianLayoutDecoder {
    layout: Arc<dyn RequestLayout>,
}

/// How many standard deviations around the mean the decoder materializes
/// explicitly.
const RADIUS_SIGMAS: f64 = 3.0;

/// The offset (500 ms) at and beyond which the decoder predicts uniform: the
/// velocity uncertainty grows with the horizon, and the paper uses a uniform
/// distribution for the 500 ms slice (§6.1).
const UNIFORM_BEYOND: Duration = Duration(500_000);

impl GaussianLayoutDecoder {
    /// Creates a decoder for `layout`.
    pub fn new(layout: Arc<dyn RequestLayout>) -> Self {
        GaussianLayoutDecoder { layout }
    }
}

impl ServerPredictor for GaussianLayoutDecoder {
    fn decode(&mut self, state: &PredictorState, now: Time) -> PredictionSummary {
        let n = self.layout.num_requests();
        match state {
            PredictorState::MouseGaussians(gs) if !gs.is_empty() => {
                let slices = gs
                    .iter()
                    .map(|&(delta, g)| {
                        let dist = if delta >= UNIFORM_BEYOND {
                            SparseDistribution::uniform(n)
                        } else {
                            g.to_request_distribution(self.layout.as_ref(), RADIUS_SIGMAS)
                        };
                        HorizonSlice { delta, dist }
                    })
                    .collect();
                PredictionSummary::new(n, slices, now)
            }
            PredictorState::LastRequest(r) => PredictionSummary::point(n, *r, now),
            PredictorState::TopK(entries) => {
                let dist = SparseDistribution::from_weights(n, entries.clone());
                let slices = PredictionSummary::default_deltas()
                    .into_iter()
                    .map(|delta| HorizonSlice {
                        delta,
                        dist: dist.clone(),
                    })
                    .collect();
                PredictionSummary::new(n, slices, now)
            }
            PredictorState::Summary(s) => s.clone(),
            _ => PredictionSummary::uniform(n, now),
        }
    }

    fn name(&self) -> &str {
        "gaussian-layout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RequestId;

    struct StripLayout;

    impl RequestLayout for StripLayout {
        fn num_requests(&self) -> usize {
            10
        }
        fn request_at(&self, x: f64, _y: f64) -> Option<RequestId> {
            let i = (x / 10.0) as usize;
            (i < 10).then(|| RequestId::from(i))
        }
        fn bounds(&self, request: RequestId) -> (f64, f64, f64, f64) {
            let i = request.index() as f64;
            (i * 10.0, 0.0, (i + 1.0) * 10.0, 10.0)
        }
        fn interface_bounds(&self) -> (f64, f64, f64, f64) {
            (0.0, 0.0, 100.0, 10.0)
        }
    }

    fn feed_linear_motion(p: &mut KalmanMousePredictor, n: usize, speed: f64) {
        for i in 0..n {
            let t = Time::from_millis(i as u64 * 20);
            p.observe(&InteractionEvent::MouseMove {
                x: speed * t.as_secs_f64(),
                y: 5.0,
                at: t,
            });
        }
    }

    #[test]
    fn filter_tracks_constant_velocity() {
        let mut p = KalmanMousePredictor::with_defaults();
        assert!(!p.initialized);
        feed_linear_motion(&mut p, 50, 200.0); // 200 px/s to the right
        assert!(p.initialized);
        let (vx, vy) = (p.axis[0].vel, p.axis[1].vel);
        assert!((vx - 200.0).abs() < 40.0, "vx = {vx}");
        assert!(vy.abs() < 20.0, "vy = {vy}");
    }

    #[test]
    fn forecast_moves_with_velocity_and_widens() {
        let mut p = KalmanMousePredictor::with_defaults();
        feed_linear_motion(&mut p, 50, 200.0);
        let now = Time::from_millis(49 * 20);
        let g50 = p.forecast(now, Duration::from_millis(50));
        let g250 = p.forecast(now, Duration::from_millis(250));
        // Farther horizon: farther along the motion direction and wider.
        assert!(g250.mean.x > g50.mean.x);
        assert!(g250.var_x > g50.var_x);
        // Forecast direction matches the motion.
        assert!(g50.mean.x > p.position().x);
    }

    #[test]
    fn state_is_anytime_and_has_all_deltas() {
        let mut p = KalmanMousePredictor::with_defaults();
        assert_eq!(p.state(Time::ZERO), PredictorState::Empty);
        feed_linear_motion(&mut p, 10, 100.0);
        match p.state(Time::from_millis(300)) {
            PredictorState::MouseGaussians(gs) => {
                assert_eq!(gs.len(), 4);
                assert_eq!(gs[0].0, Duration::from_millis(50));
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn ignores_non_mouse_events() {
        let mut p = KalmanMousePredictor::with_defaults();
        p.observe(&InteractionEvent::Request {
            request: RequestId(1),
            at: Time::ZERO,
        });
        assert!(!p.initialized);
    }

    #[test]
    fn decoder_produces_layout_distribution() {
        let mut p = KalmanMousePredictor::with_defaults();
        // Cursor sits still in the middle of widget 5.
        for i in 0..20 {
            p.observe(&InteractionEvent::MouseMove {
                x: 55.0,
                y: 5.0,
                at: Time::from_millis(i * 20),
            });
        }
        let state = p.state(Time::from_millis(400));
        let mut dec = GaussianLayoutDecoder::new(Arc::new(StripLayout));
        let summary = dec.decode(&state, Time::from_millis(400));
        assert_eq!(summary.num_requests(), 10);
        // The 50 ms slice should prefer widget 5.
        let d = summary.at(Duration::from_millis(50));
        assert_eq!(d.argmax(), Some(RequestId(5)));
        // The 500 ms slice is uniform per the paper's configuration.
        let far = summary.at(Duration::from_millis(500));
        assert!((far.prob(RequestId(0)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn decoder_handles_all_state_variants() {
        let mut dec = GaussianLayoutDecoder::new(Arc::new(StripLayout));
        let s = dec.decode(&PredictorState::Empty, Time::ZERO);
        assert!((s.at(Duration::from_millis(50)).prob(RequestId(3)) - 0.1).abs() < 1e-9);

        let s = dec.decode(&PredictorState::LastRequest(RequestId(2)), Time::ZERO);
        assert!((s.at(Duration::from_millis(50)).prob(RequestId(2)) - 1.0).abs() < 1e-9);

        let s = dec.decode(
            &PredictorState::TopK(vec![(RequestId(1), 3.0), (RequestId(2), 1.0)]),
            Time::ZERO,
        );
        assert!((s.at(Duration::from_millis(50)).prob(RequestId(1)) - 0.75).abs() < 1e-9);

        let inner = PredictionSummary::point(10, RequestId(9), Time::ZERO);
        let s = dec.decode(&PredictorState::Summary(inner.clone()), Time::ZERO);
        assert_eq!(s, inner);
    }
}
