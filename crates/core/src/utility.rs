//! Utility functions: mapping a response prefix to user-perceived quality.
//!
//! The application may provide a monotonically increasing utility function
//! `U : [0,1] -> [0,1]` mapping the fraction of available blocks to a quality
//! score (§3.3, Figure 3).  Khameleon defaults to the conservative linear
//! function.  For scheduling, `U` is discretized per request into a *step
//! approximation* `~U` with marginal gains
//! `g(i) = U(i / Nb) - U((i-1) / Nb)` (§5.2); the [`GainTable`] type
//! precomputes these gains.

use std::sync::Arc;

use crate::types::RequestId;

/// A monotonically increasing utility function over the fraction of blocks
/// received.
///
/// Implementations must satisfy `utility(0) == 0`, `utility(1) == 1` (up to
/// floating point error) and be non-decreasing; [`GainTable::new`] checks the
/// monotonicity it relies on in debug builds.
pub trait UtilityFunction: Send + Sync {
    /// Utility of receiving `fraction` of the response's blocks,
    /// `fraction ∈ [0, 1]`.
    fn utility(&self, fraction: f64) -> f64;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &str {
        "utility"
    }
}

/// The system-default linear utility: every block contributes equally.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearUtility;

impl UtilityFunction for LinearUtility {
    fn utility(&self, fraction: f64) -> f64 {
        fraction.clamp(0.0, 1.0)
    }

    fn name(&self) -> &str {
        "linear"
    }
}

/// A concave power-law utility `U(x) = x^alpha` with `alpha < 1`: early blocks
/// contribute more than later ones.
///
/// This is the analytic stand-in for perceptual curves such as the structural
/// similarity (SSIM) curve of progressive JPEG (Figure 3, red line), where
/// ~25% of the blocks already yield ~70% of the full-quality utility.
#[derive(Debug, Clone, Copy)]
pub struct PowerUtility {
    alpha: f64,
}

impl PowerUtility {
    /// Creates a power-law utility.  `alpha` must be in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        PowerUtility { alpha }
    }
}

impl UtilityFunction for PowerUtility {
    fn utility(&self, fraction: f64) -> f64 {
        fraction.clamp(0.0, 1.0).powf(self.alpha)
    }

    fn name(&self) -> &str {
        "power"
    }
}

/// A piecewise-linear utility interpolated from measured `(fraction, utility)`
/// sample points — e.g. SSIM measured over a sample of progressively encoded
/// images (§3.4, "Improve the Utility Function").
#[derive(Debug, Clone)]
pub struct PiecewiseUtility {
    /// Sample points sorted by fraction; always starts at (0,0) and ends at
    /// (1,1).
    points: Vec<(f64, f64)>,
    name: String,
}

impl PiecewiseUtility {
    /// Builds a piecewise-linear utility from sample points.
    ///
    /// Points are sorted by fraction; `(0,0)` and `(1,1)` anchors are added if
    /// missing.  Panics if any utility value is outside `[0,1]` or if the
    /// resulting curve is not monotonically non-decreasing.
    pub fn from_points(mut points: Vec<(f64, f64)>, name: impl Into<String>) -> Self {
        points.retain(|&(x, _)| (0.0..=1.0).contains(&x));
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        if points.first().map(|p| p.0 > 0.0).unwrap_or(true) {
            points.insert(0, (0.0, 0.0));
        }
        if points.last().map(|p| p.0 < 1.0).unwrap_or(true) {
            points.push((1.0, 1.0));
        }
        let mut prev = -1.0_f64;
        for &(_, u) in &points {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "utility values must lie in [0,1]"
            );
            assert!(u >= prev - 1e-9, "utility must be non-decreasing");
            prev = u;
        }
        PiecewiseUtility {
            points,
            name: name.into(),
        }
    }

    /// The utility curve used for the image-exploration application in the
    /// paper (Figure 3, red): a steep concave SSIM-like curve where the first
    /// 25% of the blocks already provide most of the perceived quality.
    pub fn image_ssim() -> Self {
        Self::from_points(
            vec![
                (0.0, 0.0),
                (0.05, 0.38),
                (0.10, 0.55),
                (0.20, 0.72),
                (0.30, 0.82),
                (0.40, 0.88),
                (0.50, 0.92),
                (0.60, 0.95),
                (0.75, 0.975),
                (0.90, 0.99),
                (1.0, 1.0),
            ],
            "image-ssim",
        )
    }
}

impl UtilityFunction for PiecewiseUtility {
    fn utility(&self, fraction: f64) -> f64 {
        let x = fraction.clamp(0.0, 1.0);
        // Find the segment containing x and interpolate linearly.
        let mut prev = self.points[0];
        for &p in &self.points[1..] {
            if x <= p.0 {
                let (x0, y0) = prev;
                let (x1, y1) = p;
                if (x1 - x0).abs() < 1e-12 {
                    return y1;
                }
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            }
            prev = p;
        }
        self.points.last().map(|p| p.1).unwrap_or(1.0)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Precomputed per-request discretization of a utility function: the step
/// approximation `~U` and its marginal gains `g(i)` from §5.2.
///
/// `gain(i)` (1-based `i`) is the additional utility from receiving the `i`-th
/// block given the first `i-1` blocks; `step(b)` is the utility of holding the
/// first `b` blocks.  Because `U` is evaluated only at block boundaries, the
/// approximation is exact for scheduling purposes (§5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct GainTable {
    gains: Vec<f64>,
    cumulative: Vec<f64>,
}

impl GainTable {
    /// Discretizes `u` for a response with `num_blocks` blocks.
    pub fn new(u: &dyn UtilityFunction, num_blocks: u32) -> Self {
        assert!(num_blocks > 0, "a response must have at least one block");
        let nb = num_blocks as usize;
        let mut gains = Vec::with_capacity(nb);
        let mut cumulative = Vec::with_capacity(nb + 1);
        cumulative.push(0.0);
        let mut prev = 0.0;
        for i in 1..=nb {
            let cur = u.utility(i as f64 / nb as f64);
            debug_assert!(
                cur + 1e-9 >= prev,
                "utility function must be non-decreasing (U({}/{nb}) < U({}/{nb}))",
                i,
                i - 1
            );
            let g = (cur - prev).max(0.0);
            gains.push(g);
            cumulative.push(cumulative[i - 1] + g);
            prev = cur;
        }
        GainTable { gains, cumulative }
    }

    /// Number of blocks the table was built for.
    pub fn num_blocks(&self) -> u32 {
        self.gains.len() as u32
    }

    /// Marginal gain `g(i)` of the `i`-th block (1-based).  Returns `0` when
    /// `i` is zero or exceeds the number of blocks (no more quality to gain).
    pub fn gain(&self, i: u32) -> f64 {
        if i == 0 {
            return 0.0;
        }
        self.gains.get((i - 1) as usize).copied().unwrap_or(0.0)
    }

    /// Step utility `~U(b)`: utility of holding the first `b` blocks.
    pub fn step(&self, b: u32) -> f64 {
        let idx = (b as usize).min(self.gains.len());
        self.cumulative[idx]
    }

    /// The marginal gain of the *next* block given `held` blocks are already
    /// available, i.e. `g(held + 1)`.
    pub fn next_gain(&self, held: u32) -> f64 {
        self.gain(held + 1)
    }

    /// The raw gains slice (`g(1)..g(Nb)`).
    pub fn gains(&self) -> &[f64] {
        &self.gains
    }

    /// Bit-for-bit equality of gains and cumulative steps (unlike
    /// `PartialEq`, `-0.0` and `0.0` differ and a `NaN` equals itself).
    fn same_bits(&self, other: &GainTable) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        same(&self.gains, &other.gains) && same(&self.cumulative, &other.cumulative)
    }
}

/// Per-request gain tables for a whole request space.
///
/// Most applications use a single utility curve and block count for all
/// requests, which [`UtilityModel::homogeneous`] captures with a single shared
/// table; heterogeneous spaces can supply one table per request.
#[derive(Debug, Clone)]
pub enum UtilityModel {
    /// All requests share the same gain table.
    Homogeneous(Arc<GainTable>),
    /// Request `i` uses table `i`.
    PerRequest(Arc<Vec<GainTable>>),
}

impl UtilityModel {
    /// A model where every request uses the same utility curve discretized at
    /// `num_blocks` blocks.
    pub fn homogeneous(u: &dyn UtilityFunction, num_blocks: u32) -> Self {
        UtilityModel::Homogeneous(Arc::new(GainTable::new(u, num_blocks)))
    }

    /// A model with an explicit table per request.
    pub fn per_request(tables: Vec<GainTable>) -> Self {
        UtilityModel::PerRequest(Arc::new(tables))
    }

    /// Whether two models have bit-for-bit equal gain tables: the same
    /// variant, the same number of tables, and every gain and cumulative
    /// step equal by [`f64::to_bits`].  Sessions whose models pass this test
    /// can share one catalog-derived scheduler context, which is then
    /// exactly the one each would have derived.  Shared storage (`Arc`
    /// identity) answers in `O(1)`; otherwise a per-request model compares
    /// in `O(n)`, no more than deriving the context it would share.
    pub fn same_tables(&self, other: &UtilityModel) -> bool {
        match (self, other) {
            (UtilityModel::Homogeneous(a), UtilityModel::Homogeneous(b)) => {
                Arc::ptr_eq(a, b) || a.same_bits(b)
            }
            (UtilityModel::PerRequest(a), UtilityModel::PerRequest(b)) => {
                Arc::ptr_eq(a, b)
                    || (a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same_bits(y)))
            }
            _ => false,
        }
    }

    /// The gain table for `request` (by dense index).
    pub fn table(&self, request: usize) -> &GainTable {
        match self {
            UtilityModel::Homogeneous(t) => t,
            UtilityModel::PerRequest(ts) => &ts[request],
        }
    }

    /// Step utility for `request` holding `blocks` blocks.
    pub fn step(&self, request: usize, blocks: u32) -> f64 {
        self.table(request).step(blocks)
    }

    /// Marginal gain of the next block for `request` holding `held` blocks.
    pub fn next_gain(&self, request: usize, held: u32) -> f64 {
        self.table(request).next_gain(held)
    }

    /// Groups the `n` requests of the catalog into utility classes — one per
    /// *distinct* gain table — and records each class's exact first-block
    /// gain `g(1)`.
    ///
    /// This is the per-class gain-bound catalog behind the greedy scheduler's
    /// heterogeneous meta-request hedge: untouched requests of class `c` all
    /// hold zero blocks, so their joint sampling weight is exactly
    /// `|untouched_c| · g_c(1) · residual(t)` — no catalog-wide upper bound
    /// involved.  Homogeneous models produce a single implicit class in
    /// `O(1)` space; per-request models dedup tables by value (the number of
    /// distinct tables is assumed small — one per media type, not one per
    /// request).
    pub fn class_catalog(&self, n: usize) -> UtilityClassCatalog {
        match self {
            UtilityModel::Homogeneous(t) => UtilityClassCatalog {
                class_of: None,
                classes: vec![UtilityClass {
                    first_gain: t.next_gain(0),
                    members: ClassMembers::All(n),
                }],
            },
            UtilityModel::PerRequest(ts) => {
                assert!(
                    ts.len() >= n,
                    "per-request model has {} tables for {} requests",
                    ts.len(),
                    n
                );
                let mut reps: Vec<&GainTable> = Vec::new();
                let mut class_of = Vec::with_capacity(n);
                let mut members: Vec<IntervalSet> = Vec::new();
                for (i, table) in ts.iter().take(n).enumerate() {
                    let c = match reps.iter().position(|r| *r == table) {
                        Some(c) => c,
                        None => {
                            reps.push(table);
                            members.push(IntervalSet::default());
                            reps.len() - 1
                        }
                    };
                    class_of.push(c as u32);
                    members[c].push(i as u32);
                }
                let classes = reps
                    .iter()
                    .zip(members)
                    .map(|(rep, m)| UtilityClass {
                        first_gain: rep.next_gain(0),
                        members: ClassMembers::Intervals(m),
                    })
                    .collect();
                UtilityClassCatalog {
                    class_of: Some(class_of),
                    classes,
                }
            }
        }
    }
}

/// An ascending set of request ids compressed into contiguous runs.
///
/// Per-request utility models usually assign tables per media type, so a
/// class's members are a handful of contiguous id ranges; storing `(start,
/// len)` runs plus a prefix-count index keeps the catalog `O(runs)` instead
/// of materializing an `O(n)` member vector per class, while `member(idx)`
/// stays a binary search over the runs.
#[derive(Debug, Clone, Default)]
struct IntervalSet {
    /// `(start, len)` runs, ascending and non-overlapping.
    runs: Vec<(u32, u32)>,
    /// `cum[i]` = number of members before run `i` (same length as `runs`).
    cum: Vec<u32>,
    /// Total member count.
    total: usize,
}

impl IntervalSet {
    /// Appends `id`, which must be strictly greater than every member so
    /// far; coalesces into the last run when contiguous.
    fn push(&mut self, id: u32) {
        match self.runs.last_mut() {
            Some((start, len)) if *start + *len == id => *len += 1,
            _ => {
                self.cum.push(self.total as u32);
                self.runs.push((id, 1));
            }
        }
        self.total += 1;
    }

    fn get(&self, idx: usize) -> u32 {
        debug_assert!(idx < self.total);
        let run = self.cum.partition_point(|&c| c as usize <= idx) - 1;
        let (start, _) = self.runs[run];
        start + (idx as u32 - self.cum[run])
    }
}

/// Requests belonging to one utility class.
#[derive(Debug, Clone)]
enum ClassMembers {
    /// Every request in a space of this size (the homogeneous fast path; no
    /// member list is materialized).
    All(usize),
    /// Interval-compressed ascending member set.
    Intervals(IntervalSet),
}

/// One utility class: the requests sharing a single gain table, plus that
/// table's exact first-block gain.
#[derive(Debug, Clone)]
pub struct UtilityClass {
    first_gain: f64,
    members: ClassMembers,
}

impl UtilityClass {
    /// The class's exact first-block marginal gain `g(1)`.
    pub fn first_gain(&self) -> f64 {
        self.first_gain
    }

    /// Number of requests in the class.
    pub fn len(&self) -> usize {
        match &self.members {
            ClassMembers::All(n) => *n,
            ClassMembers::Intervals(m) => m.total,
        }
    }

    /// Whether the class has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th member in ascending request order (`idx < len`).
    pub fn member(&self, idx: usize) -> RequestId {
        match &self.members {
            ClassMembers::All(n) => {
                debug_assert!(idx < *n);
                RequestId::from(idx)
            }
            ClassMembers::Intervals(m) => RequestId::from(m.get(idx) as usize),
        }
    }

    /// Iterates the members in ascending request order.
    pub fn members(&self) -> impl Iterator<Item = RequestId> + '_ {
        (0..self.len()).map(move |i| self.member(i))
    }
}

/// Per-utility-class view of a request space: see
/// [`UtilityModel::class_catalog`].
#[derive(Debug, Clone)]
pub struct UtilityClassCatalog {
    /// `None` means homogeneous: every request is class 0.
    class_of: Option<Vec<u32>>,
    classes: Vec<UtilityClass>,
}

impl UtilityClassCatalog {
    /// Number of distinct utility classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class `request` belongs to.
    pub fn class_of(&self, request: RequestId) -> usize {
        match &self.class_of {
            None => 0,
            Some(v) => v[request.index()] as usize,
        }
    }

    /// The class with index `c`.
    pub fn class(&self, c: usize) -> &UtilityClass {
        &self.classes[c]
    }

    /// Iterates the classes in index order.
    pub fn classes(&self) -> impl Iterator<Item = &UtilityClass> + '_ {
        self.classes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of contiguous id runs backing a class's member set (1 for the
    /// homogeneous fast path) — the catalog's actual memory footprint.
    fn span_count(class: &UtilityClass) -> usize {
        match &class.members {
            ClassMembers::All(n) => usize::from(*n > 0),
            ClassMembers::Intervals(m) => m.runs.len(),
        }
    }

    #[test]
    fn linear_utility_is_identity() {
        let u = LinearUtility;
        assert_eq!(u.utility(0.0), 0.0);
        assert_eq!(u.utility(0.25), 0.25);
        assert_eq!(u.utility(1.0), 1.0);
        assert_eq!(u.utility(2.0), 1.0);
        assert_eq!(u.utility(-1.0), 0.0);
    }

    #[test]
    fn power_utility_is_concave() {
        let u = PowerUtility::new(0.3);
        assert!(u.utility(0.25) > 0.25);
        assert!(u.utility(1.0) <= 1.0 + 1e-12);
        assert_eq!(u.utility(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn power_utility_rejects_bad_alpha() {
        PowerUtility::new(0.0);
    }

    #[test]
    fn piecewise_interpolates() {
        let u = PiecewiseUtility::from_points(vec![(0.5, 0.9)], "half");
        assert_eq!(u.utility(0.0), 0.0);
        assert!((u.utility(0.25) - 0.45).abs() < 1e-12);
        assert!((u.utility(0.5) - 0.9).abs() < 1e-12);
        assert!((u.utility(0.75) - 0.95).abs() < 1e-12);
        assert_eq!(u.utility(1.0), 1.0);
    }

    #[test]
    fn image_ssim_curve_shape() {
        let u = PiecewiseUtility::image_ssim();
        // Steep start: a quarter of the blocks already gives most of the
        // quality (Figure 3).
        assert!(u.utility(0.25) > 0.7);
        assert!(u.utility(0.5) > 0.9);
        assert!((u.utility(1.0) - 1.0).abs() < 1e-12);
        // Monotone.
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = u.utility(i as f64 / 100.0);
            assert!(v + 1e-12 >= prev);
            prev = v;
        }
    }

    #[test]
    fn gain_table_matches_utility_differences() {
        let u = PowerUtility::new(0.5);
        let t = GainTable::new(&u, 4);
        assert_eq!(t.num_blocks(), 4);
        // Sum of gains equals U(1) = 1.
        let total: f64 = t.gains().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // step(b) equals U(b/Nb).
        for b in 0..=4 {
            assert!((t.step(b) - u.utility(b as f64 / 4.0)).abs() < 1e-12);
        }
        // Gains are decreasing for a concave utility.
        for w in t.gains().windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Out-of-range queries are graceful.
        assert_eq!(t.gain(0), 0.0);
        assert_eq!(t.gain(10), 0.0);
        assert_eq!(t.next_gain(4), 0.0);
        assert_eq!(t.step(100), t.step(4));
    }

    #[test]
    fn utility_model_homogeneous_and_per_request() {
        let m = UtilityModel::homogeneous(&LinearUtility, 10);
        assert!((m.step(3, 5) - 0.5).abs() < 1e-12);
        assert!((m.next_gain(0, 0) - 0.1).abs() < 1e-12);

        let tables = vec![
            GainTable::new(&LinearUtility, 2),
            GainTable::new(&PowerUtility::new(0.5), 4),
        ];
        let m = UtilityModel::per_request(tables);
        assert!((m.step(0, 1) - 0.5).abs() < 1e-12);
        assert!((m.step(1, 1) - 0.5).abs() < 1e-12); // sqrt(1/4) = 0.5
    }

    #[test]
    fn class_catalog_homogeneous_single_class() {
        let m = UtilityModel::homogeneous(&LinearUtility, 4);
        let cat = m.class_catalog(1000);
        assert_eq!(cat.num_classes(), 1);
        assert_eq!(cat.class_of(RequestId(999)), 0);
        let c = cat.class(0);
        assert_eq!(c.len(), 1000);
        assert!((c.first_gain() - 0.25).abs() < 1e-12);
        assert_eq!(c.member(7), RequestId(7));
    }

    #[test]
    fn class_catalog_dedups_identical_tables() {
        // Tables 0 and 2 are identical by value; 1 and 3 each get their own
        // class.  Classes are numbered in first-appearance order.
        let tables = vec![
            GainTable::new(&LinearUtility, 4),
            GainTable::new(&PowerUtility::new(0.5), 4),
            GainTable::new(&LinearUtility, 4),
            GainTable::new(&PowerUtility::new(0.25), 4),
        ];
        let m = UtilityModel::per_request(tables);
        let cat = m.class_catalog(4);
        assert_eq!(cat.num_classes(), 3);
        assert_eq!(cat.class_of(RequestId(0)), 0);
        assert_eq!(cat.class_of(RequestId(1)), 1);
        assert_eq!(cat.class_of(RequestId(2)), 0);
        assert_eq!(cat.class_of(RequestId(3)), 2);
        let c0 = cat.class(0);
        assert_eq!(c0.len(), 2);
        assert_eq!(
            c0.members().collect::<Vec<_>>(),
            vec![RequestId(0), RequestId(2)]
        );
        assert!((c0.first_gain() - 0.25).abs() < 1e-12);
        // Per-class first gains are exact, not a shared bound.
        assert!((cat.class(1).first_gain() - 0.5).abs() < 1e-12);
        let total: usize = cat.classes().map(|c| c.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn class_catalog_interval_compresses_contiguous_ranges() {
        // Two contiguous halves: one run per class instead of an O(n)
        // member vector.
        let n = 100usize;
        let tables: Vec<GainTable> = (0..n)
            .map(|i| {
                if i < 50 {
                    GainTable::new(&LinearUtility, 4)
                } else {
                    GainTable::new(&PowerUtility::new(0.5), 4)
                }
            })
            .collect();
        let cat = UtilityModel::per_request(tables).class_catalog(n);
        assert_eq!(cat.num_classes(), 2);
        for c in 0..2 {
            assert_eq!(span_count(cat.class(c)), 1);
            assert_eq!(cat.class(c).len(), 50);
        }
        for i in 0..50 {
            assert_eq!(cat.class(0).member(i), RequestId::from(i));
            assert_eq!(cat.class(1).member(i), RequestId::from(50 + i));
        }
    }

    #[test]
    fn class_catalog_interval_lookup_across_scattered_runs() {
        // Runs of irregular lengths: member(idx) must binary-search the run
        // boundaries correctly.  Class A owns [0,3), [5,6), [9,12); class B
        // the rest of [0,12).
        let a = [0, 1, 2, 5, 9, 10, 11];
        let tables: Vec<GainTable> = (0..12)
            .map(|i| {
                if a.contains(&i) {
                    GainTable::new(&LinearUtility, 2)
                } else {
                    GainTable::new(&PowerUtility::new(0.5), 2)
                }
            })
            .collect();
        let cat = UtilityModel::per_request(tables).class_catalog(12);
        assert_eq!(cat.num_classes(), 2);
        let ca = cat.class(0);
        assert_eq!(span_count(ca), 3);
        assert_eq!(ca.len(), a.len());
        let got: Vec<usize> = ca.members().map(|r| r.index()).collect();
        assert_eq!(got, a.to_vec());
        for (idx, &id) in a.iter().enumerate() {
            assert_eq!(ca.member(idx), RequestId::from(id));
        }
        let cb = cat.class(1);
        assert_eq!(
            cb.members().map(|r| r.index()).collect::<Vec<_>>(),
            vec![3, 4, 6, 7, 8]
        );
        // class_of stays the exact inverse of the member sets.
        for i in 0..12 {
            let expect = usize::from(!a.contains(&i));
            assert_eq!(cat.class_of(RequestId::from(i)), expect);
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For any sampled concave utility and block count, the gain table's
            /// cumulative steps reproduce the utility at block boundaries and the
            /// gains are non-negative.
            #[test]
            fn gain_table_consistency(alpha in 0.05f64..1.0, nb in 1u32..64) {
                let u = PowerUtility::new(alpha);
                let t = GainTable::new(&u, nb);
                for b in 0..=nb {
                    let expected = u.utility(b as f64 / nb as f64);
                    prop_assert!((t.step(b) - expected).abs() < 1e-9);
                }
                for i in 1..=nb {
                    prop_assert!(t.gain(i) >= 0.0);
                }
            }

            /// Piecewise utilities built from arbitrary monotone points stay in
            /// [0,1] and remain monotone.
            #[test]
            fn piecewise_monotone(raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..8)) {
                // Force monotonicity of the inputs by sorting both coordinates.
                let mut xs: Vec<f64> = raw.iter().map(|p| p.0).collect();
                let mut ys: Vec<f64> = raw.iter().map(|p| p.1).collect();
                xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let pts: Vec<(f64, f64)> = xs.into_iter().zip(ys).collect();
                let u = PiecewiseUtility::from_points(pts, "prop");
                let mut prev = -1e-12;
                for i in 0..=50 {
                    let v = u.utility(i as f64 / 50.0);
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
                    prop_assert!(v >= prev - 1e-9);
                    prev = v;
                }
            }
        }
    }
}
