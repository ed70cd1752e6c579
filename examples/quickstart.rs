//! Quickstart: wire a Khameleon client and server together by hand and watch
//! a request get answered from proactively pushed blocks.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use khameleon::core::predictor::simple::SimpleServerPredictor;
use khameleon::prelude::*;

fn main() {
    // 1. Describe the content: 100 requests, each progressively encoded into
    //    10 blocks of 10 KB, under the conservative linear utility.
    let catalog = Arc::new(ResponseCatalog::uniform(100, 10, 10_000));
    let utility = UtilityModel::homogeneous(&LinearUtility, 10);

    // 2. Build the server: greedy scheduler + bandwidth estimator + a backend
    //    that serves blocks straight from the catalog (a pre-loaded "file
    //    system").  Every component has a sensible default; the builder makes
    //    the predictor explicit just to show where it plugs in.  What comes
    //    back is a `SessionManager` holding this one client as session 0 —
    //    the same runtime that serves many (see `live_pipeline`).
    let mut server = ServerBuilder::new(utility.clone(), catalog.clone())
        .predictor(Box::new(SimpleServerPredictor::new(100)))
        .backend(Box::new(CatalogBackend::new(catalog.clone())))
        .build();

    let session = SessionId(0);

    // 3. Build the client: a 64-block ring cache plus upcall bookkeeping.
    let mut client = CacheManager::new(64, catalog, utility);

    // 4. The user interacts: request 7 is registered locally (no network
    //    request is sent!), and the predictor state tells the server what to
    //    prioritize.
    let now = Time::ZERO;
    assert!(client.register(RequestId(7), now).is_none());
    let prediction = ClientMessage::Predictor(PredictorState::LastRequest(RequestId(7)));
    server.on_message(session, &prediction, now);

    // 5. The server streams blocks; the first block for request 7 triggers an
    //    application upcall with a renderable (low quality) response, and
    //    later blocks keep improving it.
    let mut t = now;
    for _ in 0..20 {
        let ServerEvent::Block { block, .. } = server.next_event(t) else {
            break;
        };
        t += server.pacing_interval();
        for upcall in client.on_block(block.meta, t) {
            println!(
                "upcall at {t}: request {} answered with {} block(s), utility {:.2}, latency {}",
                upcall.request,
                upcall.blocks,
                upcall.utility,
                upcall.latency()
            );
        }
    }

    println!(
        "request 7 now has {} blocks cached (utility {:.2})",
        client.current_blocks(RequestId(7)),
        client.current_utility(RequestId(7))
    );
    assert_eq!(client.current_blocks(RequestId(7)), 10);
    println!(
        "server pushed {} blocks ({} bytes) without ever receiving an explicit request",
        server.blocks_sent(),
        server.bytes_sent()
    );
}
