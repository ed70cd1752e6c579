//! Live (threaded) multi-client pipeline: a [`SessionManager`] multiplexes
//! two client sessions over one shared backend and one shared (paced) wire,
//! while each client thread registers its own requests and ships typed
//! [`ClientMessage`]s back — the same library code and the same protocol the
//! discrete-event simulator drives, exercised with real threads and real
//! payload bytes.
//!
//! Run with: `cargo run --release --example live_pipeline`

use std::thread;
use std::time::Duration as StdDuration;

use crossbeam::channel;

use khameleon::backend::blockstore::BlockStore;
use khameleon::backend::image::ImageCorpus;
use khameleon::core::client::CacheManager;
use khameleon::core::predictor::PredictorState;
use khameleon::core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon::core::session::{Session, SessionManager};
use khameleon::core::types::{RequestId, Time};

fn main() {
    // A small corpus with real synthetic payloads so bytes actually flow.
    let corpus = ImageCorpus::small(64, 9);
    let catalog = corpus.catalog();
    let utility = corpus.utility();

    // Two clients share the server: an interactive one (weight 2) and a
    // background one (weight 1).  Weighted-fair arbitration gives the
    // interactive session two blocks for every background block.
    let mut manager = SessionManager::weighted_fair(Box::new(BlockStore::with_synthetic_payloads(
        catalog.clone(),
    )));
    let interactive =
        manager.add_session(Session::builder(utility.clone(), catalog.clone()).weight(2.0));
    let background =
        manager.add_session(Session::builder(utility.clone(), catalog.clone()).weight(1.0));

    // Uplink: every client shares one message channel (tagged by session).
    // Downlink: one block channel per client.
    let (msg_tx, msg_rx) = channel::unbounded::<(SessionId, ClientMessage)>();
    let (tx_a, rx_a) = channel::bounded(8);
    let (tx_b, rx_b) = channel::bounded(8);

    // Server thread: apply client messages as they arrive and keep the wire
    // busy, letting weighted-fair arbitration pick whose block goes out next.
    let server = thread::spawn(move || {
        let start = std::time::Instant::now();
        let mut pushed = 0u64;
        while start.elapsed() < StdDuration::from_millis(500) {
            let now = Time::from_millis(start.elapsed().as_millis() as u64);
            while let Ok((session, message)) = msg_rx.try_recv() {
                manager.on_message(session, &message, now);
            }
            match manager.next_event(now) {
                ServerEvent::Block { session, block } => {
                    let tx = if session == interactive { &tx_a } else { &tx_b };
                    // Non-blocking send: one slow client must not stall the
                    // shared wire, and a departed client must not take the
                    // other session down with it — its session is closed and
                    // the loop keeps serving the rest.
                    match tx.try_send(block) {
                        Ok(()) => pushed += 1,
                        Err(channel::TrySendError::Full(_)) => {
                            // Drop the block; the receiver is backlogged.
                        }
                        Err(channel::TrySendError::Disconnected(_)) => {
                            manager.on_message(session, &ClientMessage::Close, now);
                        }
                    }
                    // Pace roughly like a constrained shared link.
                    thread::sleep(StdDuration::from_millis(2));
                }
                _ => thread::sleep(StdDuration::from_millis(5)),
            }
        }
        (pushed, manager.session_ids().len())
    });

    // Client threads: each registers its own requests and consumes its own
    // downlink, shipping predictor state through the shared uplink.
    let spawn_client = |session: SessionId,
                        rx: channel::Receiver<khameleon::core::block::Block>,
                        tx: channel::Sender<(SessionId, ClientMessage)>,
                        first: u32,
                        second: u32,
                        label: &'static str| {
        let catalog = catalog.clone();
        let utility = utility.clone();
        thread::spawn(move || {
            let mut client = CacheManager::new(128, catalog, utility);
            let start = std::time::Instant::now();
            let mut upcalls = 0usize;
            let mut payload_bytes = 0usize;

            let _ = client.register(RequestId(first), Time::ZERO);
            let state = PredictorState::LastRequest(RequestId(first));
            client.note_prediction_sent(state.wire_size_bytes());
            let _ = tx.send((session, ClientMessage::Predictor(state)));
            let mut switched = false;

            while let Ok(block) = rx.recv_timeout(StdDuration::from_millis(200)) {
                let now = Time::from_millis(start.elapsed().as_millis() as u64);
                payload_bytes += block.payload.as_ref().map(Vec::len).unwrap_or(0);
                for up in client.on_block(block.meta, now) {
                    upcalls += 1;
                    println!(
                        "[{label}] upcall: {} with {} block(s), utility {:.2}",
                        up.request, up.blocks, up.utility
                    );
                }
                if !switched && start.elapsed() > StdDuration::from_millis(100) {
                    switched = true;
                    let _ = client.register(RequestId(second), now);
                    let state = PredictorState::LastRequest(RequestId(second));
                    client.note_prediction_sent(state.wire_size_bytes());
                    let _ = tx.send((session, ClientMessage::Predictor(state)));
                }
                if start.elapsed() > StdDuration::from_millis(450) {
                    break;
                }
            }
            let _ = tx.send((session, ClientMessage::Close));
            client.finalize();
            (upcalls, payload_bytes, client.metrics().summary())
        })
    };

    let client_a = spawn_client(interactive, rx_a, msg_tx.clone(), 3, 11, "interactive");
    let client_b = spawn_client(background, rx_b, msg_tx, 40, 52, "background");

    let (pushed, live_sessions) = server.join().expect("server thread panicked");
    let (up_a, bytes_a, sum_a) = client_a.join().expect("client A panicked");
    let (up_b, bytes_b, sum_b) = client_b.join().expect("client B panicked");

    println!("\nserver pushed {pushed} blocks across 2 sessions ({live_sessions} still open at shutdown)");
    let per_update = |predictions: u64, bytes: u64| bytes as f64 / predictions.max(1) as f64;
    println!(
        "interactive: {up_a} upcalls, {bytes_a} payload bytes, {} requests, cache-hit rate {:.2}, \
         uplink {:.0} B/prediction ({} updates)",
        sum_a.requests,
        sum_a.cache_hit_rate,
        per_update(sum_a.predictions_sent, sum_a.prediction_bytes),
        sum_a.predictions_sent
    );
    println!(
        "background:  {up_b} upcalls, {bytes_b} payload bytes, {} requests, cache-hit rate {:.2}, \
         uplink {:.0} B/prediction ({} updates)",
        sum_b.requests,
        sum_b.cache_hit_rate,
        per_update(sum_b.predictions_sent, sum_b.prediction_bytes),
        sum_b.predictions_sent
    );
    assert!(up_a >= 1, "expected at least one interactive upcall");
    assert!(up_b >= 1, "expected at least one background upcall");
}
