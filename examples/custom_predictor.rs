//! Writing a custom predictor (the §3.4 "developer Jude" walkthrough).
//!
//! Khameleon decomposes predictors into a client component (events → compact
//! state) and a server component (state → request distribution).  This
//! example implements a momentum predictor — "the user keeps scrolling in the
//! same direction" — registers it in place of the default, and shows the
//! scheduler reacting to its forecasts.
//!
//! Run with: `cargo run --example custom_predictor`

use std::sync::Arc;

use khameleon::apps::layout::GridLayout;
use khameleon::core::block::ResponseCatalog;
use khameleon::core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon::core::predictor::{
    ClientPredictor, InteractionEvent, PredictorState, RequestLayout, ServerPredictor,
};
use khameleon::core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon::core::server::{CatalogBackend, ServerBuilder};
use khameleon::core::types::{Duration, RequestId, Time};
use khameleon::core::utility::{PiecewiseUtility, UtilityModel};

/// Client component: remembers the last two distinct requests to estimate a
/// direction of travel across the grid.
struct MomentumClient {
    history: Vec<RequestId>,
}

impl ClientPredictor for MomentumClient {
    fn observe(&mut self, event: &InteractionEvent) {
        if let InteractionEvent::Request { request, .. } = *event {
            if self.history.last() != Some(&request) {
                self.history.push(request);
                if self.history.len() > 2 {
                    self.history.remove(0);
                }
            }
        }
    }

    fn state(&mut self, _now: Time) -> PredictorState {
        // Ship the raw history; the server-side component interprets it.
        PredictorState::TopK(self.history.iter().map(|&r| (r, 1.0)).collect())
    }

    fn name(&self) -> &str {
        "momentum-client"
    }
}

/// Server component: extrapolates the last movement vector over the grid and
/// spreads probability over the next few requests along that direction.
struct MomentumServer {
    layout: Arc<GridLayout>,
}

impl ServerPredictor for MomentumServer {
    fn decode(&mut self, state: &PredictorState, now: Time) -> PredictionSummary {
        let n = self.layout.num_requests();
        let PredictorState::TopK(history) = state else {
            return PredictionSummary::uniform(n, now);
        };
        match history.as_slice() {
            [] => PredictionSummary::uniform(n, now),
            [(only, _)] => PredictionSummary::point(n, *only, now),
            [(prev, _), (cur, _), ..] => {
                let (pr, pc) = self.layout.cell(*prev);
                let (cr, cc) = self.layout.cell(*cur);
                let (dr, dc) = (cr as i64 - pr as i64, cc as i64 - pc as i64);
                // Weight the next few cells along the movement direction,
                // decaying with distance.
                let mut entries = vec![(*cur, 0.4)];
                for step in 1..=3i64 {
                    let r = cr as i64 + dr * step;
                    let c = cc as i64 + dc * step;
                    if r >= 0
                        && c >= 0
                        && (r as usize) < self.layout.rows()
                        && (c as usize) < self.layout.cols()
                    {
                        let id = RequestId::from(r as usize * self.layout.cols() + c as usize);
                        entries.push((id, 0.4 / step as f64));
                    }
                }
                let dist = SparseDistribution::from_entries(n, entries, 0.1);
                let slices = PredictionSummary::default_deltas()
                    .into_iter()
                    .map(|delta| HorizonSlice {
                        delta,
                        dist: dist.clone(),
                    })
                    .collect();
                PredictionSummary::new(n, slices, now)
            }
        }
    }

    fn name(&self) -> &str {
        "momentum-server"
    }
}

fn main() {
    let layout = Arc::new(GridLayout::new(10, 10, 10.0, 10.0));
    let catalog = Arc::new(ResponseCatalog::uniform(layout.num_requests(), 8, 50_000));
    let utility = UtilityModel::homogeneous(&PiecewiseUtility::image_ssim(), 8);

    let mut client_pred = MomentumClient { history: vec![] };
    let mut server = ServerBuilder::new(utility, catalog.clone())
        .predictor(Box::new(MomentumServer {
            layout: layout.clone(),
        }))
        .backend(Box::new(CatalogBackend::new(catalog)))
        .build();

    // The user moves right along row 4: requests 42 then 43.
    for (i, req) in [42u32, 43].into_iter().enumerate() {
        client_pred.observe(&InteractionEvent::Request {
            request: RequestId(req),
            at: Time::from_millis(i as u64 * 100),
        });
    }
    let state = client_pred.state(Time::from_millis(200));
    server.on_message(
        SessionId(0),
        &ClientMessage::Predictor(state),
        Time::from_millis(200),
    );

    // The scheduler should now hedge along the direction of travel: 43 (the
    // current widget) plus 44, 45, 46 ahead of it.
    println!("first 12 blocks pushed after the momentum prediction:");
    let mut ahead = 0;
    for _ in 0..12 {
        if let ServerEvent::Block { block, .. } = server.next_event(Time::from_millis(200)) {
            let (row, col) = layout.cell(block.meta.block.request);
            println!("  {} -> grid cell ({row},{col})", block.meta.block);
            ahead += usize::from(row == 4 && (3..=6).contains(&col));
        }
    }
    assert!(
        ahead >= 8,
        "only {ahead} of 12 blocks lie along the direction of travel"
    );
    let _ = Duration::from_millis(0); // keep the prelude import exercised
}
