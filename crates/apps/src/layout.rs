//! Static interface layouts.
//!
//! Both evaluation applications use a fixed set of static layouts (§4): the
//! image-exploration app is a dense grid of thumbnails, and Falcon is a small
//! set of fixed-size charts.  A layout maps interface coordinates to request
//! ids (`P_l(q | x, y, l)`), which is what the Gaussian mouse predictor needs
//! to turn positional forecasts into request distributions.

use khameleon_core::predictor::RequestLayout;
use khameleon_core::types::RequestId;

/// A dense `rows × cols` grid of equally sized widgets; widget `(r, c)` maps
/// to request `r * cols + c`.
#[derive(Debug, Clone)]
pub struct GridLayout {
    rows: usize,
    cols: usize,
    cell_width: f64,
    cell_height: f64,
}

impl GridLayout {
    /// Creates a grid layout.
    pub fn new(rows: usize, cols: usize, cell_width: f64, cell_height: f64) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have at least one cell");
        assert!(
            cell_width > 0.0 && cell_height > 0.0,
            "cells must have positive size"
        );
        GridLayout {
            rows,
            cols,
            cell_width,
            cell_height,
        }
    }

    /// The paper's image-gallery grid: 100×100 thumbnails of 10×10 px
    /// (10,000 requests over a 1000×1000 px mosaic).
    pub fn image_gallery() -> Self {
        Self::new(100, 100, 10.0, 10.0)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total interface width in pixels.
    pub fn width(&self) -> f64 {
        self.cols as f64 * self.cell_width
    }

    /// Total interface height in pixels.
    pub fn height(&self) -> f64 {
        self.rows as f64 * self.cell_height
    }

    /// The `(row, col)` of `request`.
    pub fn cell(&self, request: RequestId) -> (usize, usize) {
        let i = request.index();
        (i / self.cols, i % self.cols)
    }
}

impl RequestLayout for GridLayout {
    fn num_requests(&self) -> usize {
        self.rows * self.cols
    }

    fn request_at(&self, x: f64, y: f64) -> Option<RequestId> {
        if x < 0.0 || y < 0.0 {
            return None;
        }
        let c = (x / self.cell_width) as usize;
        let r = (y / self.cell_height) as usize;
        if c >= self.cols || r >= self.rows {
            return None;
        }
        Some(RequestId::from(r * self.cols + c))
    }

    fn bounds(&self, request: RequestId) -> (f64, f64, f64, f64) {
        let (r, c) = self.cell(request);
        (
            c as f64 * self.cell_width,
            r as f64 * self.cell_height,
            (c + 1) as f64 * self.cell_width,
            (r + 1) as f64 * self.cell_height,
        )
    }

    fn interface_bounds(&self) -> (f64, f64, f64, f64) {
        (0.0, 0.0, self.width(), self.height())
    }

    fn requests_in_rect(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<RequestId> {
        if x1 <= 0.0 || y1 <= 0.0 || x0 >= self.width() || y0 >= self.height() {
            return Vec::new();
        }
        let c0 = (x0.max(0.0) / self.cell_width) as usize;
        let r0 = (y0.max(0.0) / self.cell_height) as usize;
        let c1 = ((x1 / self.cell_width).ceil() as usize).min(self.cols);
        let r1 = ((y1 / self.cell_height).ceil() as usize).min(self.rows);
        let mut out = Vec::with_capacity((r1 - r0) * (c1 - c0));
        for r in r0..r1 {
            for c in c0..c1 {
                out.push(RequestId::from(r * self.cols + c));
            }
        }
        out
    }
}

/// A row of fixed-size charts (the Falcon interface): chart `i` maps to
/// request `i`.
#[derive(Debug, Clone)]
pub struct ChartRowLayout {
    charts: usize,
    chart_width: f64,
    chart_height: f64,
    gap: f64,
}

impl ChartRowLayout {
    /// Creates a chart-row layout.
    pub fn new(charts: usize, chart_width: f64, chart_height: f64, gap: f64) -> Self {
        assert!(charts > 0, "need at least one chart");
        ChartRowLayout {
            charts,
            chart_width,
            chart_height,
            gap,
        }
    }

    /// The Falcon interface used in the paper: six 300×200 px charts.
    pub fn falcon() -> Self {
        Self::new(6, 300.0, 200.0, 20.0)
    }

    /// Number of charts.
    pub fn charts(&self) -> usize {
        self.charts
    }
}

impl RequestLayout for ChartRowLayout {
    fn num_requests(&self) -> usize {
        self.charts
    }

    fn request_at(&self, x: f64, y: f64) -> Option<RequestId> {
        if y < 0.0 || y > self.chart_height || x < 0.0 {
            return None;
        }
        let stride = self.chart_width + self.gap;
        let i = (x / stride) as usize;
        let within = x - i as f64 * stride;
        (i < self.charts && within <= self.chart_width).then(|| RequestId::from(i))
    }

    fn bounds(&self, request: RequestId) -> (f64, f64, f64, f64) {
        let i = request.index() as f64;
        let x0 = i * (self.chart_width + self.gap);
        (x0, 0.0, x0 + self.chart_width, self.chart_height)
    }

    fn interface_bounds(&self) -> (f64, f64, f64, f64) {
        (
            0.0,
            0.0,
            self.charts as f64 * (self.chart_width + self.gap) - self.gap,
            self.chart_height,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_mapping_roundtrip() {
        let g = GridLayout::new(4, 5, 10.0, 20.0);
        assert_eq!(g.num_requests(), 20);
        assert_eq!(g.width(), 50.0);
        assert_eq!(g.height(), 80.0);
        // Widget (2, 3) is request 13.
        let r = g.request_at(35.0, 45.0).unwrap();
        assert_eq!(r, RequestId(13));
        assert_eq!(g.cell(r), (2, 3));
        let (x0, y0, x1, y1) = g.bounds(r);
        assert_eq!((x0, y0, x1, y1), (30.0, 40.0, 40.0, 60.0));
        // Out of bounds.
        assert!(g.request_at(-1.0, 5.0).is_none());
        assert!(g.request_at(51.0, 5.0).is_none());
        assert!(g.request_at(5.0, 81.0).is_none());
    }

    #[test]
    fn grid_rect_query_matches_scan() {
        let g = GridLayout::new(10, 10, 10.0, 10.0);
        let fast = g.requests_in_rect(15.0, 25.0, 44.0, 36.0);
        // Compare with the trait's default full-scan implementation.
        let slow: Vec<RequestId> = (0..g.num_requests())
            .map(RequestId::from)
            .filter(|&r| {
                let (bx0, by0, bx1, by1) = g.bounds(r);
                bx0 < 44.0 && bx1 > 15.0 && by0 < 36.0 && by1 > 25.0
            })
            .collect();
        let mut fast_sorted = fast.clone();
        fast_sorted.sort();
        assert_eq!(fast_sorted, slow);
        // Fully outside the interface.
        assert!(g.requests_in_rect(-50.0, -50.0, -10.0, -10.0).is_empty());
        assert!(g.requests_in_rect(200.0, 0.0, 300.0, 10.0).is_empty());
    }

    #[test]
    fn image_gallery_scale() {
        let g = GridLayout::image_gallery();
        assert_eq!(g.num_requests(), 10_000);
        assert_eq!(g.rows(), 100);
        assert_eq!(g.cols(), 100);
        assert_eq!(g.interface_bounds(), (0.0, 0.0, 1000.0, 1000.0));
    }

    #[test]
    fn chart_row_mapping() {
        let l = ChartRowLayout::falcon();
        assert_eq!(l.num_requests(), 6);
        assert_eq!(l.charts(), 6);
        // Center of chart 2.
        assert_eq!(l.request_at(790.0, 100.0), Some(RequestId(2)));
        // In the gap between charts 0 and 1: no request.
        assert_eq!(l.request_at(310.0, 100.0), None);
        // Outside vertically.
        assert_eq!(l.request_at(10.0, 300.0), None);
        let (x0, _, x1, _) = l.bounds(RequestId(1));
        assert_eq!(x0, 320.0);
        assert_eq!(x1, 620.0);
        let (_, _, w, h) = l.interface_bounds();
        assert_eq!(h, 200.0);
        assert!((w - (6.0 * 320.0 - 20.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_grid_rejected() {
        GridLayout::new(0, 5, 1.0, 1.0);
    }
}
