//! The image-exploration application (§2, Figure 1a).
//!
//! A dense 100×100 mosaic of thumbnails; hovering over a thumbnail loads the
//! corresponding 1.3–2 MB full-resolution image.  This module bundles the
//! pieces Khameleon needs to serve it: the widget layout, the progressive
//! image corpus (catalog + SSIM utility), and the predictors used in the
//! evaluation (Kalman, point, uniform, oracle).

use std::sync::Arc;

use khameleon_backend::image::{ImageCorpus, ImageCorpusConfig};
use khameleon_core::block::ResponseCatalog;
use khameleon_core::predictor::kalman::{GaussianLayoutDecoder, KalmanMousePredictor};
use khameleon_core::predictor::oracle::OraclePredictor;
use khameleon_core::predictor::simple::{PointPredictor, UniformPredictor};
use khameleon_core::predictor::{ClientPredictor, RequestLayout, ServerPredictor};
use khameleon_core::utility::UtilityModel;

use crate::layout::GridLayout;
use crate::traces::InteractionTrace;

/// Which client-side predictor an experiment uses (§6.3, Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// No information — uniform hedging.
    Uniform,
    /// Point distribution on the last explicit request (the §3.4 default).
    Point,
    /// Kalman-filter mouse prediction (the paper's main configuration).
    Kalman,
    /// Perfect knowledge of the trace (upper bound).
    Oracle,
}

impl PredictorKind {
    /// Name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Uniform => "uniform",
            PredictorKind::Point => "point",
            PredictorKind::Kalman => "kalman",
            PredictorKind::Oracle => "oracle",
        }
    }
}

/// The image-exploration application bundle.
pub struct ImageExplorationApp {
    layout: Arc<GridLayout>,
    corpus: ImageCorpus,
}

impl ImageExplorationApp {
    /// The paper-scale application: a 100×100 grid over a 10,000-image
    /// corpus.
    pub fn paper_scale(seed: u64) -> Self {
        ImageExplorationApp {
            layout: Arc::new(GridLayout::image_gallery()),
            corpus: ImageCorpus::paper_scale(seed),
        }
    }

    /// A reduced application (grid of `side × side` thumbnails) for tests,
    /// examples, and fast simulations; per-image statistics are unchanged.
    pub fn reduced(side: usize, seed: u64) -> Self {
        ImageExplorationApp {
            layout: Arc::new(GridLayout::new(side, side, 10.0, 10.0)),
            corpus: ImageCorpus::small(side * side, seed),
        }
    }

    /// A reduced application with a custom block count per image.
    pub fn reduced_with_blocks(side: usize, blocks_per_image: u32, seed: u64) -> Self {
        ImageExplorationApp {
            layout: Arc::new(GridLayout::new(side, side, 10.0, 10.0)),
            corpus: ImageCorpus::new(ImageCorpusConfig {
                num_images: side * side,
                blocks_per_image,
                seed,
                ..Default::default()
            }),
        }
    }

    /// The widget layout.
    pub fn layout(&self) -> Arc<GridLayout> {
        self.layout.clone()
    }

    /// Number of possible requests.
    pub fn num_requests(&self) -> usize {
        self.layout.num_requests()
    }

    /// The progressive response catalog.
    pub fn catalog(&self) -> Arc<ResponseCatalog> {
        self.corpus.catalog()
    }

    /// The SSIM utility model (Figure 3, red curve).
    pub fn utility(&self) -> UtilityModel {
        self.corpus.utility()
    }

    /// The image corpus.
    pub fn corpus(&self) -> &ImageCorpus {
        &self.corpus
    }

    /// Builds the client-side predictor of the requested kind.  The oracle
    /// needs the trace that will be replayed.
    pub fn client_predictor(
        &self,
        kind: PredictorKind,
        trace: Option<&InteractionTrace>,
    ) -> Box<dyn ClientPredictor> {
        match kind {
            PredictorKind::Uniform => Box::new(UniformPredictor),
            PredictorKind::Point => Box::new(PointPredictor::new()),
            PredictorKind::Kalman => Box::new(KalmanMousePredictor::with_defaults()),
            PredictorKind::Oracle => {
                let schedule = trace.map(|t| t.requests.clone()).unwrap_or_default();
                Box::new(OraclePredictor::new(self.num_requests(), schedule))
            }
        }
    }

    /// Builds the server-side predictor component (decodes Gaussian mouse
    /// state over this layout; falls back gracefully for the other state
    /// kinds).
    pub fn server_predictor(&self) -> Box<dyn ServerPredictor> {
        Box::new(GaussianLayoutDecoder::new(
            self.layout.clone() as Arc<dyn RequestLayout>
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_core::predictor::{InteractionEvent, PredictorState};
    use khameleon_core::types::{RequestId, Time};

    #[test]
    fn reduced_app_is_consistent() {
        let app = ImageExplorationApp::reduced(10, 1);
        assert_eq!(app.num_requests(), 100);
        assert_eq!(app.catalog().num_requests(), 100);
        assert_eq!(app.corpus().num_images(), 100);
        // Utility is concave (SSIM-like).
        let u = app.utility();
        assert!(u.step(0, 5) > 0.5);
    }

    #[test]
    fn paper_scale_dimensions() {
        let app = ImageExplorationApp::paper_scale(1);
        assert_eq!(app.num_requests(), 10_000);
        let blocks = app.catalog().num_blocks(RequestId(0));
        assert_eq!(blocks, 20);
    }

    #[test]
    fn custom_block_count() {
        let app = ImageExplorationApp::reduced_with_blocks(4, 5, 2);
        assert_eq!(app.catalog().num_blocks(RequestId(3)), 5);
    }

    #[test]
    fn predictor_kinds_construct_and_report_names() {
        let app = ImageExplorationApp::reduced(4, 1);
        for kind in [
            PredictorKind::Uniform,
            PredictorKind::Point,
            PredictorKind::Kalman,
            PredictorKind::Oracle,
        ] {
            let mut p = app.client_predictor(kind, None);
            // Anytime property: state can be requested immediately.
            let _ = p.state(Time::ZERO);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn kalman_end_to_end_over_grid() {
        let app = ImageExplorationApp::reduced(10, 1);
        let mut client = app.client_predictor(PredictorKind::Kalman, None);
        let mut server = app.server_predictor();
        // Cursor rests in the middle of widget (5, 5) = request 55.
        for i in 0..20 {
            client.observe(&InteractionEvent::MouseMove {
                x: 55.0,
                y: 55.0,
                at: Time::from_millis(i * 20),
            });
        }
        let state = client.state(Time::from_millis(400));
        let summary = server.decode(&state, Time::from_millis(400));
        let d = summary.at(khameleon_core::types::Duration::from_millis(50));
        let top = d
            .explicit_entries()
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(top.map(|e| e.0), Some(RequestId(55)));
    }

    #[test]
    fn oracle_uses_the_trace() {
        let app = ImageExplorationApp::reduced(4, 1);
        let trace = InteractionTrace {
            samples: vec![],
            requests: vec![(Time::from_millis(100), RequestId(9))],
            name: "t".into(),
        };
        let mut p = app.client_predictor(PredictorKind::Oracle, Some(&trace));
        match p.state(Time::from_millis(90)) {
            PredictorState::Summary(s) => {
                assert!(
                    s.at(khameleon_core::types::Duration::from_millis(50))
                        .prob(RequestId(9))
                        > 0.99
                );
            }
            other => panic!("unexpected state {other:?}"),
        }
    }
}
