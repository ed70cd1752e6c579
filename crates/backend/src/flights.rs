//! Synthetic flights dataset (the Falcon workload's data).
//!
//! The paper's Falcon experiments use subsets of the flights dataset:
//! *Small* with 1 M records (≈ 800 ms query latency on PostgreSQL) and *Big*
//! with 7 M records (1.5–2.5 s latency) (§6.4).  We do not ship the original
//! CSVs; this module generates a statistically similar dataset — the same
//! six dimensions Falcon visualizes, with realistic marginal distributions
//! and correlations (longer flights fly farther and longer; delays are
//! heavy-tailed and correlated between departure and arrival).  Every figure
//! only depends on query *cost* and result *shape*, both of which the
//! synthetic data preserves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::columnar::{Column, Table};

/// The six dimensions the Falcon interface charts.
pub const FLIGHT_DIMENSIONS: [&str; 6] = [
    "dep_hour",
    "arr_delay",
    "dep_delay",
    "air_time",
    "distance",
    "day_of_week",
];

/// Value range `[lo, hi)` each dimension's chart covers (used for binning).
pub fn dimension_range(dim: &str) -> (f64, f64) {
    match dim {
        "dep_hour" => (0.0, 24.0),
        "arr_delay" => (-60.0, 180.0),
        "dep_delay" => (-30.0, 180.0),
        "air_time" => (0.0, 500.0),
        "distance" => (0.0, 3000.0),
        "day_of_week" => (0.0, 7.0),
        other => panic!("unknown flight dimension `{other}`"),
    }
}

/// Generates a synthetic flights table with `rows` rows.
///
/// Deterministic for a given `(rows, seed)` pair.
pub fn generate_flights(rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dep_hour = Vec::with_capacity(rows);
    let mut arr_delay = Vec::with_capacity(rows);
    let mut dep_delay = Vec::with_capacity(rows);
    let mut air_time = Vec::with_capacity(rows);
    let mut distance = Vec::with_capacity(rows);
    let mut day_of_week = Vec::with_capacity(rows);

    for _ in 0..rows {
        // Departure hour: bimodal (morning and evening banks).
        let hour = if rng.gen::<f64>() < 0.55 {
            sample_normal(&mut rng, 9.0, 2.5)
        } else {
            sample_normal(&mut rng, 17.5, 2.5)
        }
        .clamp(0.0, 23.99);

        // Distance: log-normal-ish mixture of short hops and long hauls.
        let dist = if rng.gen::<f64>() < 0.7 {
            sample_normal(&mut rng, 600.0, 250.0).abs()
        } else {
            sample_normal(&mut rng, 1800.0, 500.0).abs()
        }
        .clamp(50.0, 2999.0);

        // Air time correlates with distance (≈ 480 mph plus taxi overhead).
        let at = (dist / 8.0 + sample_normal(&mut rng, 25.0, 10.0)).clamp(20.0, 499.0);

        // Departure delay: mostly near zero, heavy right tail; worse later in
        // the day (delay propagation).
        let base_delay = if rng.gen::<f64>() < 0.75 {
            sample_normal(&mut rng, -2.0, 6.0)
        } else {
            // Exponential-ish tail.
            -30.0 * (1.0 - rng.gen::<f64>()).ln()
        };
        let dd = (base_delay + (hour - 8.0).max(0.0) * 0.8).clamp(-29.0, 179.0);

        // Arrival delay tracks departure delay with some recovery in the air.
        let ad = (dd + sample_normal(&mut rng, -3.0, 12.0)).clamp(-59.0, 179.0);

        let dow = rng.gen_range(0..7) as f64;

        dep_hour.push(hour);
        arr_delay.push(ad);
        dep_delay.push(dd);
        air_time.push(at);
        distance.push(dist);
        day_of_week.push(dow);
    }

    let mut t = Table::new();
    t.add_column("dep_hour", Column::Float(dep_hour));
    t.add_column("arr_delay", Column::Float(arr_delay));
    t.add_column("dep_delay", Column::Float(dep_delay));
    t.add_column("air_time", Column::Float(air_time));
    t.add_column("distance", Column::Float(distance));
    t.add_column("day_of_week", Column::Float(day_of_week));
    t
}

/// Samples a normal variable via the Box–Muller transform (keeps the crate's
/// dependency surface to plain `rand`).
fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::RangeFilter;

    #[test]
    fn generates_requested_rows_and_columns() {
        let t = generate_flights(10_000, 1);
        assert_eq!(t.num_rows(), 10_000);
        for d in FLIGHT_DIMENSIONS {
            assert!(t.column(d).is_some(), "missing dimension {d}");
            let (lo, hi) = dimension_range(d);
            let col = t.column(d).unwrap();
            assert!(col.min().unwrap() >= lo - 1e-9, "{d} below range");
            assert!(col.max().unwrap() < hi + 1e-9, "{d} above range");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_flights(1_000, 7);
        let b = generate_flights(1_000, 7);
        let c = generate_flights(1_000, 8);
        assert_eq!(
            a.column("distance").unwrap().value(500),
            b.column("distance").unwrap().value(500)
        );
        assert_ne!(
            a.column("distance").unwrap().value(500),
            c.column("distance").unwrap().value(500)
        );
    }

    #[test]
    fn distance_and_air_time_correlate() {
        let t = generate_flights(20_000, 3);
        // Mean air time of long flights should exceed that of short flights.
        let long = vec![("distance".to_string(), RangeFilter::new(1500.0, 3000.0))];
        let short = vec![("distance".to_string(), RangeFilter::new(0.0, 500.0))];
        let mean_air = |filters: &[(String, RangeFilter)]| {
            let mask = t.filter_mask(filters);
            let col = t.column("air_time").unwrap();
            let mut sum = 0.0;
            let mut n = 0usize;
            for (row, &m) in mask.iter().enumerate() {
                if m {
                    sum += col.value(row);
                    n += 1;
                }
            }
            sum / n.max(1) as f64
        };
        assert!(mean_air(&long) > mean_air(&short) + 50.0);
    }

    #[test]
    fn delays_are_right_skewed() {
        let t = generate_flights(20_000, 4);
        let h = t.histogram("dep_delay", -30.0, 180.0, 7, &[]);
        // The first bins (early / on-time) dominate; the far tail is small but
        // non-empty.
        assert!(h[0] + h[1] > h[5] + h[6]);
        assert!(h.iter().skip(4).sum::<u64>() > 0);
    }

    #[test]
    fn dep_hour_is_bimodal_ish() {
        let t = generate_flights(30_000, 5);
        let h = t.histogram("dep_hour", 0.0, 24.0, 24, &[]);
        // Morning (8-10) and evening (16-19) buckets beat the 3am bucket by a
        // wide margin.
        let night = h[3];
        assert!(h[9] > night * 3);
        assert!(h[17] > night * 3);
    }

    #[test]
    #[should_panic(expected = "unknown flight dimension")]
    fn unknown_dimension_range_panics() {
        dimension_range("altitude");
    }
}
