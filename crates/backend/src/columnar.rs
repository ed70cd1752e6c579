//! Minimal in-memory columnar engine.
//!
//! The Falcon experiments (§6.4) issue filtered aggregation queries ("data
//! cube slices") against a PostgreSQL database holding the flights dataset.
//! This module provides the columnar substrate those queries run on in this
//! reproduction: typed columns, a table abstraction and range predicates;
//! [`crate::cube`] evaluates the filtered group-by-bin counts over them.  It
//! is deliberately small — enough to execute every query shape Falcon
//! generates — but it is a real scan-based engine, not a mock: filters and
//! aggregations touch every row.

use std::collections::HashMap;

/// A typed column of values.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `row` as a float (integers are widened).
    pub fn value(&self, row: usize) -> f64 {
        match self {
            Column::Int(v) => v[row] as f64,
            Column::Float(v) => v[row],
        }
    }

    /// Minimum value (None for an empty column).
    pub fn min(&self) -> Option<f64> {
        (0..self.len()).map(|i| self.value(i)).reduce(f64::min)
    }

    /// Maximum value (None for an empty column).
    pub fn max(&self) -> Option<f64> {
        (0..self.len()).map(|i| self.value(i)).reduce(f64::max)
    }
}

/// A half-open range predicate `[lo, hi)` on one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeFilter {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl RangeFilter {
    /// Creates a range filter; `lo` must not exceed `hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "range filter bounds out of order");
        RangeFilter { lo, hi }
    }

    /// Whether `v` satisfies the predicate.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v < self.hi
    }

    /// An unbounded filter (accepts everything).
    pub fn all() -> Self {
        RangeFilter {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Width of the range.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// A named collection of equal-length columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: HashMap<String, Column>,
    rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Adds a column.  All columns must have the same number of rows.
    pub fn add_column(&mut self, name: impl Into<String>, column: Column) -> &mut Self {
        if self.columns.is_empty() {
            self.rows = column.len();
        } else {
            assert_eq!(
                column.len(),
                self.rows,
                "column length mismatch: table has {} rows",
                self.rows
            );
        }
        self.columns.insert(name.into(), column);
        self
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.get(name)
    }

    /// Evaluates a conjunction of range filters, returning a row-selection
    /// bitmap.
    pub fn filter_mask(&self, filters: &[(String, RangeFilter)]) -> Vec<bool> {
        let mut mask = vec![true; self.rows];
        for (name, f) in filters {
            let col = self
                .column(name)
                .unwrap_or_else(|| panic!("unknown filter column `{name}`"));
            for (row, m) in mask.iter_mut().enumerate() {
                if *m && !f.contains(col.value(row)) {
                    *m = false;
                }
            }
        }
        mask
    }

    /// Counts rows matching the filters.
    pub fn count(&self, filters: &[(String, RangeFilter)]) -> u64 {
        self.filter_mask(filters).iter().filter(|&&m| m).count() as u64
    }
}

/// The one-dimensional filtered histogram the engine's and the flights
/// generator's tests read distributions through.
#[cfg(test)]
impl Table {
    /// Computes a filtered histogram of `dim`: `bins` equal-width buckets over
    /// `[lo, hi)`, counting rows that satisfy `filters`.
    pub(crate) fn histogram(
        &self,
        dim: &str,
        lo: f64,
        hi: f64,
        bins: usize,
        filters: &[(String, RangeFilter)],
    ) -> Vec<u64> {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        let col = self
            .column(dim)
            .unwrap_or_else(|| panic!("unknown histogram column `{dim}`"));
        let mask = self.filter_mask(filters);
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0u64; bins];
        for (row, &keep) in mask.iter().enumerate() {
            if !keep {
                continue;
            }
            let v = col.value(row);
            if v < lo || v >= hi {
                continue;
            }
            let b = (((v - lo) / width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("x", Column::Int(vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]));
        t.add_column(
            "y",
            Column::Float(vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]),
        );
        t
    }

    #[test]
    fn column_accessors() {
        let c = Column::Int(vec![3, 1, 2]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.value(0), 3.0);
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(3.0));
        assert_eq!(Column::Float(vec![]).min(), None);
    }

    #[test]
    fn range_filter_semantics() {
        let f = RangeFilter::new(1.0, 3.0);
        assert!(f.contains(1.0));
        assert!(f.contains(2.9));
        assert!(!f.contains(3.0));
        assert!(!f.contains(0.9));
        assert_eq!(f.width(), 2.0);
        assert!(RangeFilter::all().contains(1e12));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn bad_range_rejected() {
        RangeFilter::new(2.0, 1.0);
    }

    #[test]
    fn table_basic_metadata() {
        let t = table();
        assert_eq!(t.num_rows(), 10);
        assert!(t.column("x").is_some());
        assert!(t.column("z").is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_column_rejected() {
        let mut t = table();
        t.add_column("bad", Column::Int(vec![1]));
    }

    #[test]
    fn count_with_filters() {
        let t = table();
        assert_eq!(t.count(&[]), 10);
        let f = vec![("x".to_string(), RangeFilter::new(2.0, 6.0))];
        assert_eq!(t.count(&f), 4);
        let f2 = vec![
            ("x".to_string(), RangeFilter::new(2.0, 6.0)),
            ("y".to_string(), RangeFilter::new(0.0, 1.6)),
        ];
        assert_eq!(t.count(&f2), 2); // rows 2 and 3
    }

    #[test]
    fn histogram_counts() {
        let t = table();
        let h = t.histogram("x", 0.0, 10.0, 5, &[]);
        assert_eq!(h, vec![2, 2, 2, 2, 2]);
        // With a filter on y < 2.0 only rows 0..4 remain (y of row 3 = 1.5).
        let h = t.histogram(
            "x",
            0.0,
            10.0,
            5,
            &[("y".to_string(), RangeFilter::new(0.0, 2.0))],
        );
        assert_eq!(h, vec![2, 2, 0, 0, 0]);
        // Values outside the histogram range are dropped.
        let h = t.histogram("x", 0.0, 5.0, 5, &[]);
        assert_eq!(h.iter().sum::<u64>(), 5);
    }

    #[test]
    #[should_panic(expected = "unknown filter column")]
    fn unknown_filter_column_panics() {
        table().count(&[("nope".to_string(), RangeFilter::all())]);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Histogram counts add up to the row count.
            #[test]
            fn histogram_invariants(values in proptest::collection::vec(0.0f64..100.0, 1..200), bins in 1usize..20) {
                let mut t = Table::new();
                t.add_column("v", Column::Float(values.clone()));
                let h = t.histogram("v", 0.0, 100.0, bins, &[]);
                prop_assert_eq!(h.iter().sum::<u64>() as usize, values.len());
            }
        }
    }
}
