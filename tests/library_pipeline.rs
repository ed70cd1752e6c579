//! Integration tests that drive the public library API directly (no
//! simulator): client + server + predictor + backend wired by hand, the way
//! an application developer would embed Khameleon.

use std::sync::Arc;

use khameleon::apps::layout::GridLayout;
use khameleon::backend::blockstore::BlockStore;
use khameleon::backend::image::ImageCorpus;
use khameleon::core::predictor::kalman::{GaussianLayoutDecoder, KalmanMousePredictor};
use khameleon::core::predictor::{ClientPredictor, InteractionEvent, RequestLayout};
use khameleon::prelude::*;

/// A full hand-wired pipeline: mouse motion drives the Kalman predictor, the
/// server pushes blocks for the predicted widget, and the client answers the
/// eventual request from cache.
#[test]
fn hand_wired_pipeline_prefetches_the_predicted_widget() {
    let layout = Arc::new(GridLayout::new(20, 20, 10.0, 10.0));
    let corpus = ImageCorpus::small(400, 3);
    let catalog = corpus.catalog();
    let utility = corpus.utility();

    let mut server = ServerBuilder::new(utility.clone(), catalog.clone())
        .predictor(Box::new(GaussianLayoutDecoder::new(
            layout.clone() as Arc<dyn RequestLayout>
        )))
        .backend(Box::new(BlockStore::new(catalog.clone())))
        .build();
    let mut client = CacheManager::new(256, catalog, utility);
    let mut predictor = KalmanMousePredictor::with_defaults();

    // The cursor drifts toward widget (10, 15) = request 10*20+15 = 215.
    for i in 0..30u64 {
        predictor.observe(&InteractionEvent::MouseMove {
            x: 100.0 + i as f64 * 2.0,
            y: 105.0,
            at: Time::from_millis(i * 20),
        });
    }
    let now = Time::from_millis(600);
    let state = predictor.state(now);
    server.on_message(SessionId(0), &ClientMessage::Predictor(state), now);

    // Stream for a while.
    let mut t = now;
    for _ in 0..64 {
        let ServerEvent::Block { block, .. } = server.next_event(t) else {
            break;
        };
        t += Duration::from_millis(2);
        let _ = client.on_block(block.meta, t);
    }

    // The widget under the (predicted) cursor position should be cached.
    let hovered = layout.request_at(160.0, 105.0).unwrap();
    assert!(
        client.has_data(hovered),
        "predicted widget {hovered} was not prefetched"
    );
    // Registering the request is answered instantly from cache.
    let upcall = client.register(hovered, t).expect("expected a cache hit");
    assert!(upcall.cache_hit);
    assert_eq!(upcall.latency(), Duration::from_micros(0));
    assert!(upcall.utility > 0.0);
}

/// The backend-concurrency heuristic (§5.4) keeps the number of distinct
/// requests per sender refill within the backend's limit even when the
/// prediction is uniform.
#[test]
fn backend_limit_is_respected_end_to_end() {
    let corpus = ImageCorpus::small(100, 5);
    let catalog = corpus.catalog();
    let utility = corpus.utility();
    let mut server = ServerBuilder::new(utility, catalog.clone())
        .config(ServerConfig {
            sender_queue_target: 24,
            ..Default::default()
        })
        .predictor(Box::new(
            khameleon::core::predictor::simple::SimpleServerPredictor::new(100),
        ))
        .backend(Box::new(BlockStore::new(catalog).with_concurrency_limit(4)))
        .build();
    let mut distinct = std::collections::HashSet::new();
    for _ in 0..24 {
        if let ServerEvent::Block { block, .. } = server.next_event(Time::ZERO) {
            distinct.insert(block.meta.block.request);
        }
    }
    assert!(
        distinct.len() <= 4,
        "scheduler sent blocks for {} distinct requests despite a limit of 4",
        distinct.len()
    );
}

/// Progressive quality: utility rises monotonically as more blocks of a
/// response arrive, following the SSIM curve.
#[test]
fn utility_improves_monotonically_with_blocks() {
    let corpus = ImageCorpus::small(16, 11);
    let catalog = corpus.catalog();
    let utility = corpus.utility();
    let mut client = CacheManager::new(64, catalog.clone(), utility);
    let req = RequestId(5);
    let layout = catalog.layout(req);
    let mut last = 0.0;
    for i in 0..layout.num_blocks() {
        let meta = layout.block_meta(i).unwrap();
        let _ = client.on_block(meta, Time::from_millis(i as u64));
        let u = client.current_utility(req);
        assert!(u >= last - 1e-12, "utility regressed at block {i}");
        last = u;
    }
    assert!(
        (last - 1.0).abs() < 1e-9,
        "full response should reach utility 1"
    );
}
