//! `live_pipeline` over real sockets: a [`TransportServer`] multiplexes two
//! remote client sessions over one shared backend and one loopback TCP
//! listener, while each client speaks the framed wire protocol through a
//! blocking [`TransportClient`] — length-prefixed binary frames, O(Δ)
//! prediction deltas, credit-free streaming, and clean close, exactly what a
//! WAN deployment would run (see `docs/TRANSPORT.md` for the wire format).
//!
//! Run with: `cargo run --release --example tcp_pipeline`

use std::thread;
use std::time::Duration as StdDuration;

use khameleon::backend::blockstore::BlockStore;
use khameleon::backend::image::ImageCorpus;
use khameleon::core::client::CacheManager;
use khameleon::core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon::core::protocol::ServerEvent;
use khameleon::core::session::{Session, SessionManager};
use khameleon::core::types::{Duration, RequestId, Time};
use khameleon::transport::{TransportClient, TransportConfig, TransportServer};

/// A prediction concentrated on `hot` with a little hedging mass.
fn prediction(n: usize, hot: u32) -> PredictionSummary {
    let entries = vec![(RequestId(hot), 0.75), (RequestId(hot + 1), 0.15)];
    let slices = (1..=3)
        .map(|i| HorizonSlice {
            delta: Duration::from_millis(50 * i),
            dist: SparseDistribution::from_normalized(n, entries.clone(), 0.10),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

fn main() {
    // A small corpus with real synthetic payloads so bytes actually flow.
    let corpus = ImageCorpus::small(64, 9);
    let catalog = corpus.catalog();
    let utility = corpus.utility();
    let n = catalog.num_requests();

    // Weighted-fair arbitration across the accepted connections: the first
    // peer to connect is the interactive one (weight 2), the second the
    // background one (weight 1).
    let manager = SessionManager::weighted_fair(Box::new(BlockStore::with_synthetic_payloads(
        catalog.clone(),
    )));
    let factory_catalog = catalog.clone();
    let factory_utility = utility.clone();
    let mut accepted = 0u32;
    let server = TransportServer::spawn(
        "127.0.0.1:0",
        manager,
        move || {
            accepted += 1;
            let weight = if accepted == 1 { 2.0 } else { 1.0 };
            Session::builder(factory_utility.clone(), factory_catalog.clone()).weight(weight)
        },
        TransportConfig {
            paced: true,
            ..TransportConfig::default()
        },
    )
    .expect("bind loopback listener");
    let addr = server.local_addr();

    // Client threads: each opens its own TCP connection, ships predictions
    // (full first, O(Δ) deltas after), and consumes its downlink into a
    // local cache, surfacing upcalls just like the in-process pipeline.
    let spawn_client = |first: u32, second: u32, label: &'static str| {
        let catalog = catalog.clone();
        let utility = utility.clone();
        thread::spawn(move || {
            let mut client = TransportClient::connect(addr)
                .expect("connect")
                // The example's toy summaries are small; always prefer the
                // delta frame so the saving is visible in the report.
                .with_max_delta_ratio(1.0);
            client
                .set_read_timeout(Some(StdDuration::from_millis(200)))
                .expect("read timeout");
            let mut cache = CacheManager::new(128, catalog, utility);
            let start = std::time::Instant::now();
            let mut upcalls = 0usize;
            let mut payload_bytes = 0usize;

            let _ = cache.register(RequestId(first), Time::ZERO);
            let report = client.send_prediction(&prediction(n, first)).expect("send");
            cache.note_prediction_sent(report.bytes);
            let mut switched = false;

            loop {
                let now = Time::from_millis(start.elapsed().as_millis() as u64);
                match client.recv_event() {
                    Ok(ServerEvent::Block { block, .. }) => {
                        payload_bytes += block.payload.as_ref().map(Vec::len).unwrap_or(0);
                        for up in cache.on_block(block.meta, now) {
                            upcalls += 1;
                            println!(
                                "[{label}] upcall: {} with {} block(s), utility {:.2}",
                                up.request, up.blocks, up.utility
                            );
                        }
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
                if !switched && start.elapsed() > StdDuration::from_millis(100) {
                    // Re-predict: only the changed entries cross the wire.
                    switched = true;
                    let _ = cache.register(RequestId(second), now);
                    let report = client
                        .send_prediction(&prediction(n, second))
                        .expect("re-predict");
                    cache.note_prediction_sent(report.bytes);
                }
                if start.elapsed() > StdDuration::from_millis(450) {
                    break;
                }
            }
            let _ = client.send_close();
            cache.finalize();
            let updates = client.full_updates() + client.delta_updates();
            let per_update = client.uplink_bytes() as f64 / updates.max(1) as f64;
            (
                upcalls,
                payload_bytes,
                cache.metrics().summary(),
                client.full_updates(),
                client.delta_updates(),
                per_update,
            )
        })
    };

    let client_a = spawn_client(3, 11, "interactive");
    // Stagger so the interactive client reliably lands the weight-2 slot.
    thread::sleep(StdDuration::from_millis(20));
    let client_b = spawn_client(40, 52, "background");

    let (up_a, bytes_a, sum_a, full_a, delta_a, per_a) =
        client_a.join().expect("client A panicked");
    let (up_b, bytes_b, sum_b, full_b, delta_b, per_b) =
        client_b.join().expect("client B panicked");
    let stats = server.stats();

    println!(
        "\nserver pushed {} blocks / {} frames across {} accepted connections",
        stats.blocks_sent, stats.frames_out, stats.accepted
    );
    println!(
        "interactive: {up_a} upcalls, {bytes_a} payload bytes, {} requests, \
         uplink {full_a} full + {delta_a} delta updates ({per_a:.0} B/update)",
        sum_a.requests
    );
    println!(
        "background:  {up_b} upcalls, {bytes_b} payload bytes, {} requests, \
         uplink {full_b} full + {delta_b} delta updates ({per_b:.0} B/update)",
        sum_b.requests
    );
    assert!(up_a >= 1, "expected at least one interactive upcall");
    assert!(up_b >= 1, "expected at least one background upcall");
    assert!(
        delta_a + delta_b >= 1,
        "expected at least one O(Δ) delta frame on the uplink"
    );
}
