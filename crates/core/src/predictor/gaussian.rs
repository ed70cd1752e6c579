//! 2-D Gaussian distributions over interface coordinates.
//!
//! The paper's custom predictor models the future mouse position as a
//! Gaussian represented by its centroid and a 2×2 covariance matrix (§4); the
//! server converts that spatial distribution into a distribution over
//! requests by integrating the density over each widget's bounding box.  This
//! module provides the Gaussian type, the numerics (error function, rectangle
//! mass), and the layout integration.

use crate::distribution::SparseDistribution;
use crate::predictor::RequestLayout;
use crate::types::RequestId;

/// A point in interface coordinates (pixels).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2d {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2d {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2d { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2d) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A 2-D Gaussian given by its mean and covariance matrix
/// `[[var_x, cov_xy], [cov_xy, var_y]]`.
///
/// Rectangle probabilities are computed from the axis marginals (the
/// cross-covariance is carried for completeness but ignored during
/// integration); for the nearly axis-aligned uncertainty produced by the
/// Kalman mouse model this approximation is well within the noise of the
/// prediction itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian2d {
    /// Mean (centroid).
    pub mean: Point2d,
    /// Variance along x.
    pub var_x: f64,
    /// Variance along y.
    pub var_y: f64,
    /// Cross covariance between x and y.
    pub cov_xy: f64,
}

impl Gaussian2d {
    /// Creates a Gaussian from mean and full covariance entries; variances are
    /// floored at a small positive value so the density stays proper.
    pub fn new(mean: Point2d, var_x: f64, var_y: f64, cov_xy: f64) -> Self {
        Gaussian2d {
            mean,
            var_x: var_x.max(MIN_VARIANCE),
            var_y: var_y.max(MIN_VARIANCE),
            cov_xy,
        }
    }

    /// Standard deviation along x.
    pub fn sigma_x(&self) -> f64 {
        self.var_x.sqrt()
    }

    /// Standard deviation along y.
    pub fn sigma_y(&self) -> f64 {
        self.var_y.sqrt()
    }

    /// Probability mass inside the axis-aligned rectangle
    /// `[x0, x1] × [y0, y1]` under the axis-marginal approximation.
    pub fn rect_mass(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
        let px = interval_mass(self.mean.x, self.sigma_x(), x0, x1);
        let py = interval_mass(self.mean.y, self.sigma_y(), y0, y1);
        (px * py).clamp(0.0, 1.0)
    }

    /// Converts the spatial distribution into a distribution over requests by
    /// integrating the density over every widget bounding box that lies within
    /// `radius_sigmas` standard deviations of the mean (requests farther away
    /// receive the residual mass uniformly).
    ///
    /// This is the `P_l(q | Δ, x, y, l) · P_s(x, y | Δ, s_t)` composition from
    /// §4, computed sparsely so that a 10,000-widget layout only materializes
    /// the handful of widgets near the cursor.
    pub fn to_request_distribution(
        &self,
        layout: &dyn RequestLayout,
        radius_sigmas: f64,
    ) -> SparseDistribution {
        let n = layout.num_requests();
        let rx = radius_sigmas * self.sigma_x();
        let ry = radius_sigmas * self.sigma_y();
        let candidates = layout.requests_in_rect(
            self.mean.x - rx,
            self.mean.y - ry,
            self.mean.x + rx,
            self.mean.y + ry,
        );
        let mut entries: Vec<(RequestId, f64)> = Vec::with_capacity(candidates.len());
        let mut covered = 0.0;
        for r in candidates {
            let (x0, y0, x1, y1) = layout.bounds(r);
            let mass = self.rect_mass(x0, y0, x1, y1);
            if mass > 0.0 {
                covered += mass;
                entries.push((r, mass));
            }
        }
        // Mass that fell outside the interface or outside the candidate
        // window hedges uniformly over everything else.
        let residual = (1.0 - covered).max(0.0);
        SparseDistribution::from_entries(n, entries, residual)
    }
}

/// Variance floor to keep densities proper when the filter is very confident.
const MIN_VARIANCE: f64 = 1e-6;

/// Probability that a normal variable with the given mean/std falls in
/// `[lo, hi]`.
fn interval_mass(mean: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let s = sigma.max(MIN_VARIANCE.sqrt());
    (normal_cdf((hi - mean) / s) - normal_cdf((lo - mean) / s)).max(0.0)
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (absolute error < 1.5e-7, plenty for probability hedging).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple 1×n horizontal strip layout for tests.
    struct StripLayout {
        n: usize,
        width: f64,
        height: f64,
    }

    impl RequestLayout for StripLayout {
        fn num_requests(&self) -> usize {
            self.n
        }
        fn request_at(&self, x: f64, y: f64) -> Option<RequestId> {
            if y < 0.0 || y > self.height || x < 0.0 {
                return None;
            }
            let i = (x / self.width) as usize;
            (i < self.n).then(|| RequestId::from(i))
        }
        fn bounds(&self, request: RequestId) -> (f64, f64, f64, f64) {
            let i = request.index() as f64;
            (i * self.width, 0.0, (i + 1.0) * self.width, self.height)
        }
        fn interface_bounds(&self) -> (f64, f64, f64, f64) {
            (0.0, 0.0, self.n as f64 * self.width, self.height)
        }
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn rect_mass_centered() {
        let g = Gaussian2d::new(Point2d::new(0.0, 0.0), 1.0, 1.0, 0.0);
        // ±3 sigma box captures essentially all the mass.
        let m = g.rect_mass(-3.0, -3.0, 3.0, 3.0);
        assert!(m > 0.99);
        // Empty and degenerate rectangles have no mass.
        assert_eq!(g.rect_mass(1.0, 0.0, 1.0, 1.0), 0.0);
        assert_eq!(g.rect_mass(2.0, 2.0, 1.0, 1.0), 0.0);
        // A half-plane box holds half the mass.
        let m = g.rect_mass(-100.0, -100.0, 0.0, 100.0);
        assert!((m - 0.5).abs() < 1e-3);
    }

    #[test]
    fn distance_and_constructors() {
        let p = Point2d::new(3.0, 4.0);
        assert!((p.distance(&Point2d::default()) - 5.0).abs() < 1e-12);
        let g = Gaussian2d::new(p, 0.0, -1.0, 0.0);
        assert!(g.var_x >= MIN_VARIANCE);
        assert!(g.var_y >= MIN_VARIANCE);
        assert!(Gaussian2d::new(p, 4.0, 4.0, 0.0).sigma_x() > 1.99);
    }

    #[test]
    fn request_distribution_concentrates_near_mean() {
        let layout = StripLayout {
            n: 10,
            width: 10.0,
            height: 10.0,
        };
        // Cursor in the middle of widget 5 with small uncertainty.
        let g = Gaussian2d::new(Point2d::new(55.0, 5.0), 4.0, 4.0, 0.0);
        let d = g.to_request_distribution(&layout, 3.0);
        let p5 = d.prob(RequestId(5));
        assert!(p5 > d.prob(RequestId(4)));
        assert!(p5 > d.prob(RequestId(0)));
        assert!(p5 > 0.3);
        assert!((d.total_mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn request_distribution_wide_uncertainty_hedges() {
        let layout = StripLayout {
            n: 10,
            width: 10.0,
            height: 10.0,
        };
        let g = Gaussian2d::new(Point2d::new(50.0, 5.0), 40_000.0, 40_000.0, 0.0);
        let d = g.to_request_distribution(&layout, 3.0);
        // With huge uncertainty every widget gets little mass and the residual
        // (off-interface) mass dominates, spread uniformly.
        let pmax = (0..10).map(|i| d.prob(RequestId(i))).fold(0.0, f64::max);
        let pmin = (0..10)
            .map(|i| d.prob(RequestId(i)))
            .fold(f64::INFINITY, f64::min);
        assert!(pmax / pmin < 3.0, "wide gaussian should be nearly uniform");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// erf is odd, bounded, and monotone.
            #[test]
            fn erf_properties(x in -5.0f64..5.0, y in -5.0f64..5.0) {
                prop_assert!((erf(x) + erf(-x)).abs() < 1e-9);
                prop_assert!(erf(x).abs() <= 1.0);
                if x < y {
                    prop_assert!(erf(x) <= erf(y) + 1e-12);
                }
            }

            /// Layout integration always yields a valid distribution.
            #[test]
            fn layout_integration_valid(
                mx in -50.0f64..150.0,
                my in -20.0f64..30.0,
                sigma in 0.5f64..100.0
            ) {
                let layout = StripLayout { n: 10, width: 10.0, height: 10.0 };
                let g = Gaussian2d::new(Point2d::new(mx, my), sigma * sigma, sigma * sigma, 0.0);
                let d = g.to_request_distribution(&layout, 3.0);
                prop_assert!((d.total_mass() - 1.0).abs() < 1e-6);
            }
        }
    }
}
