//! Order statistics the benchmark reports: percentiles with a sample-count
//! rule, window medians for throughput, and the quartile spread the
//! repeatability criterion is stated in.

/// Percentile of an ascending-sorted slice (nearest rank, `p` in 0..=100).
/// 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns the requested percentile.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, p)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, for `n` samples; `None` below 20 samples (where even
/// the median has fewer than ten on each side).
pub fn top_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand): integers, so that 100
    // samples have exactly ten beyond p90.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500)]
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= 10_000)
        .map(|(p, _)| p)
}

/// Median of a slice (mean of the middle pair for even lengths); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// returns them — the driver computes spreads with that function.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the repeatability measure.
pub fn rel_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Counts events into equal windows of a measured interval, so a rate can be
/// reported as the median window instead of one division over the whole run
/// (a stall in one window then moves the rate by one rank, not by its size).
pub struct WindowCounter {
    start_ns: u64,
    window_ns: u64,
    counts: Vec<u64>,
}

impl WindowCounter {
    pub fn new(start_ns: u64, end_ns: u64, windows: usize) -> Self {
        let windows = windows.max(1);
        WindowCounter {
            start_ns,
            window_ns: ((end_ns.saturating_sub(start_ns)) / windows as u64).max(1),
            counts: vec![0; windows],
        }
    }

    /// Adds `n` events at `at_ns`; events outside the interval are ignored.
    pub fn add(&mut self, at_ns: u64, n: u64) {
        if at_ns < self.start_ns {
            return;
        }
        let idx = ((at_ns - self.start_ns) / self.window_ns) as usize;
        if let Some(count) = self.counts.get_mut(idx) {
            *count += n;
        }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Median window, as events per second: a window's rate is its count
    /// over the window's length, so a stall anywhere inside a window lowers
    /// that window's rate.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .counts
            .iter()
            .map(|&count| count as f64 * 1e9 / self.window_ns as f64)
            .collect();
        median(&rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(99), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(rel_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // Five 1 s windows: four carry an event every 10 ms; the third has
        // events in its first 100 ms only and is silent for the rest.
        let mut w = WindowCounter::new(1_000, 5_000_001_000, 5);
        for i in 0..5u64 {
            let base = 1_000 + i * 1_000_000_000;
            let events = if i == 2 { 10 } else { 100 };
            for k in 0..events {
                w.add(base + k * 10_000_000, 1);
            }
        }
        w.add(0, 999); // before the interval
        w.add(6_000_000_000, 999); // after it
        assert_eq!(w.total(), 410);
        assert_eq!(w.median_rate(), 100.0);
        // A stall at a window's edge lowers that window's rate: with the
        // stalled window the only one, its rate is its count per second.
        let mut stalled = WindowCounter::new(0, 1_000_000_000, 1);
        for k in 0..10 {
            stalled.add(k * 10_000_000, 1);
        }
        assert_eq!(stalled.median_rate(), 10.0);
    }
}
