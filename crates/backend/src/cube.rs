//! Data-cube slice queries (the Falcon workload, §2 and §6.4).
//!
//! When the user's mouse moves onto chart *A*, Falcon issues one SQL query per
//! other chart *B*: a low-dimensional data-cube slice binned by (A, B) and
//! filtered by the selections currently active on the remaining charts.  Once
//! the slice is on the client, any brush on chart A updates chart B without
//! further queries.  In Khameleon's port, one *request* corresponds to the
//! group of slice queries for one active chart (§6.4).

use crate::columnar::{RangeFilter, Table};

/// One data-cube slice query: a 2-D filtered histogram binned by the active
/// and target dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeSliceQuery {
    /// Dimension the user is interacting with (defines slice rows).
    pub active_dim: String,
    /// Dimension of the chart being updated (defines slice columns).
    pub target_dim: String,
    /// Number of bins along the active dimension.
    pub active_bins: usize,
    /// Number of bins along the target dimension.
    pub target_bins: usize,
    /// Range of the active dimension.
    pub active_range: (f64, f64),
    /// Range of the target dimension.
    pub target_range: (f64, f64),
    /// Fixed selections on the remaining charts.
    pub filters: Vec<(String, RangeFilter)>,
}

impl CubeSliceQuery {
    /// Total number of result cells.
    pub fn result_cells(&self) -> usize {
        self.active_bins * self.target_bins
    }

    /// Executes the slice against `table` with a single scan.
    pub fn execute(&self, table: &Table) -> CubeSlice {
        let active = table
            .column(&self.active_dim)
            .unwrap_or_else(|| panic!("unknown active dimension `{}`", self.active_dim));
        let target = table
            .column(&self.target_dim)
            .unwrap_or_else(|| panic!("unknown target dimension `{}`", self.target_dim));
        let mask = table.filter_mask(&self.filters);

        let (alo, ahi) = self.active_range;
        let (tlo, thi) = self.target_range;
        assert!(ahi > alo && thi > tlo, "degenerate bin ranges");
        let aw = (ahi - alo) / self.active_bins as f64;
        let tw = (thi - tlo) / self.target_bins as f64;

        let mut counts = vec![0u64; self.result_cells()];
        for (row, &keep) in mask.iter().enumerate() {
            if !keep {
                continue;
            }
            let av = active.value(row);
            let tv = target.value(row);
            if av < alo || av >= ahi || tv < tlo || tv >= thi {
                continue;
            }
            let ab = (((av - alo) / aw) as usize).min(self.active_bins - 1);
            let tb = (((tv - tlo) / tw) as usize).min(self.target_bins - 1);
            counts[ab * self.target_bins + tb] += 1;
        }
        CubeSlice {
            active_bins: self.active_bins,
            target_bins: self.target_bins,
            counts,
        }
    }
}

/// The result of a [`CubeSliceQuery`]: a row-major (active × target) count
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeSlice {
    /// Number of bins along the active dimension.
    pub active_bins: usize,
    /// Number of bins along the target dimension.
    pub target_bins: usize,
    /// Row-major counts.
    pub counts: Vec<u64>,
}

impl CubeSlice {
    /// The count at (active bin, target bin).
    pub fn at(&self, active: usize, target: usize) -> u64 {
        self.counts[active * self.target_bins + target]
    }

    /// Total rows captured by the slice.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Marginal histogram over the target dimension for an active-bin
    /// selection `[from, to)` — what the client computes when the user
    /// brushes the active chart.
    pub fn target_histogram(&self, from: usize, to: usize) -> Vec<u64> {
        let to = to.min(self.active_bins);
        let mut out = vec![0u64; self.target_bins];
        for a in from..to {
            for (t, cell) in out.iter_mut().enumerate() {
                *cell += self.at(a, t);
            }
        }
        out
    }

    /// Flattens the slice to a value vector for progressive encoding.
    pub fn values(&self) -> &[u64] {
        &self.counts
    }
}

/// Builds the group of slice queries Falcon issues when the user activates
/// `active_chart` among `dims` (one query per other chart), all filtered by
/// `selections` on the non-active charts.
pub fn falcon_query_group(
    dims: &[(&str, (f64, f64))],
    active_chart: usize,
    bins: usize,
    selections: &[(String, RangeFilter)],
) -> Vec<CubeSliceQuery> {
    assert!(active_chart < dims.len(), "active chart out of range");
    let (active_dim, active_range) = dims[active_chart];
    dims.iter()
        .enumerate()
        .filter(|&(i, _)| i != active_chart)
        .map(|(_, &(target_dim, target_range))| CubeSliceQuery {
            active_dim: active_dim.to_string(),
            target_dim: target_dim.to_string(),
            active_bins: bins,
            target_bins: bins,
            active_range,
            target_range,
            filters: selections
                .iter()
                .filter(|(d, _)| d != active_dim && d != target_dim)
                .cloned()
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::Column;

    fn table() -> Table {
        let mut t = Table::new();
        // 8 rows on a 2x2 grid of (x, y) quadrants.
        t.add_column(
            "x",
            Column::Float(vec![0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]),
        );
        t.add_column(
            "y",
            Column::Float(vec![0.1, 0.6, 0.2, 0.7, 0.1, 0.6, 0.2, 0.7]),
        );
        t.add_column(
            "z",
            Column::Float(vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]),
        );
        t
    }

    fn query(filters: Vec<(String, RangeFilter)>) -> CubeSliceQuery {
        CubeSliceQuery {
            active_dim: "x".into(),
            target_dim: "y".into(),
            active_bins: 2,
            target_bins: 2,
            active_range: (0.0, 1.0),
            target_range: (0.0, 1.0),
            filters,
        }
    }

    #[test]
    fn slice_counts_partition_rows() {
        let t = table();
        let s = query(vec![]).execute(&t);
        assert_eq!(s.total(), 8);
        assert_eq!(s.at(0, 0), 2); // x<0.5, y<0.5
        assert_eq!(s.at(0, 1), 2);
        assert_eq!(s.at(1, 0), 2);
        assert_eq!(s.at(1, 1), 2);
        assert_eq!(s.values().len(), 4);
    }

    #[test]
    fn filters_restrict_slice() {
        let t = table();
        let s = query(vec![("z".to_string(), RangeFilter::new(0.5, 2.0))]).execute(&t);
        assert_eq!(s.total(), 4);
        // Only z=1 rows: x in {0.3, 0.4, 0.8, 0.9}, y in {0.2, 0.7}.
        assert_eq!(s.at(0, 0), 1);
        assert_eq!(s.at(0, 1), 1);
    }

    #[test]
    fn target_histogram_brush() {
        let t = table();
        let s = query(vec![]).execute(&t);
        // Brush covering only the first active bin.
        assert_eq!(s.target_histogram(0, 1), vec![2, 2]);
        // Full brush equals the unfiltered target histogram.
        assert_eq!(s.target_histogram(0, 2), vec![4, 4]);
        // Clamped end.
        assert_eq!(s.target_histogram(0, 99), vec![4, 4]);
    }

    #[test]
    fn falcon_group_covers_other_charts() {
        let dims = [("x", (0.0, 1.0)), ("y", (0.0, 1.0)), ("z", (0.0, 2.0))];
        let sels = vec![("z".to_string(), RangeFilter::new(0.0, 1.0))];
        let group = falcon_query_group(&dims, 0, 4, &sels);
        assert_eq!(group.len(), 2);
        assert!(group.iter().all(|q| q.active_dim == "x"));
        let targets: Vec<&str> = group.iter().map(|q| q.target_dim.as_str()).collect();
        assert_eq!(targets, vec!["y", "z"]);
        // The selection on z is dropped for the slice targeting z itself.
        assert!(group[1].filters.is_empty());
        assert_eq!(group[0].filters.len(), 1);
        assert_eq!(group[0].result_cells(), 16);
    }

    #[test]
    #[should_panic(expected = "active chart out of range")]
    fn bad_active_chart_panics() {
        falcon_query_group(&[("x", (0.0, 1.0))], 3, 4, &[]);
    }
}
