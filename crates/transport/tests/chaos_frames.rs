//! Chaos property tests: randomly corrupted, truncated, and garbage frames
//! thrown at a *live* event loop.  The server must never panic — every
//! attack ends in a clean disconnect (or is ignored as an incomplete frame
//! until the attacker hangs up), `decode_errors` accounts for rejected
//! garbage, and a healthy connection sharing the loop keeps receiving
//! blocks throughout.

use std::io::{Read as _, Write as _};
use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::protocol::{ClientMessage, ServerEvent};
use khameleon_core::server::CatalogBackend;
use khameleon_core::session::{Session, SessionBuilder, SessionManager};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::wire::{encode_client_frame, ClientFrame};
use khameleon_transport::{TransportClient, TransportConfig, TransportServer};
use proptest::prelude::*;

fn builder(catalog: &Arc<ResponseCatalog>, blocks: u32) -> SessionBuilder {
    let utility = UtilityModel::homogeneous(&LinearUtility, blocks);
    Session::builder(utility, catalog.clone())
}

fn summary(n: usize, hot: &[(u32, f64)], residual: f64) -> PredictionSummary {
    let mut entries: Vec<(RequestId, f64)> = hot.iter().map(|&(r, p)| (RequestId(r), p)).collect();
    entries.sort_by_key(|&(r, _)| r);
    let slices = (1..=4)
        .map(|i| HorizonSlice {
            delta: Duration::from_millis(50 * i),
            dist: SparseDistribution::from_normalized(n, entries.clone(), residual),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    for _ in 0..2_000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// A structurally valid uplink frame to use as corruption raw material.
fn valid_frame() -> Vec<u8> {
    encode_client_frame(&ClientFrame::Message(ClientMessage::Predictor(
        khameleon_core::predictor::PredictorState::TopK(vec![
            (RequestId(1), 0.6),
            (RequestId(4), 0.3),
        ]),
    )))
}

/// One attack: open a raw socket to the live server, optionally complete
/// the `Hello` handshake first (so the poisoned connection holds a session
/// and a resume token — exercising the park-vs-teardown arm of the decode
/// failure path), write `payload`, give the server a beat, and hang up.
fn attack(addr: std::net::SocketAddr, hello_first: bool, payload: &[u8]) {
    let mut raw = std::net::TcpStream::connect(addr).expect("attacker connect");
    raw.set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .expect("attacker timeout");
    if hello_first {
        raw.write_all(&encode_client_frame(&ClientFrame::Hello))
            .expect("attacker hello");
        // Drain the Welcome (and anything racing ahead of it).
        let mut sink = [0u8; 4096];
        let _ = raw.read(&mut sink);
    }
    if raw.write_all(payload).is_err() {
        return; // server already closed on us: a valid outcome
    }
    // Either the server disconnects us (EOF / reset) or the bytes parse as
    // an incomplete frame and the server keeps waiting — both are clean;
    // a panic in the event loop is the only failure mode.
    let mut sink = [0u8; 4096];
    loop {
        match raw.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupted real frames, truncated prefixes of real frames, and pure
    /// garbage — fed to a live event loop, with and without a completed
    /// handshake — never panic the server and never disturb the healthy
    /// connection sharing it.
    #[test]
    fn corrupt_frames_never_panic_the_event_loop(
        mode in 0u8..3,
        hello_first in any::<bool>(),
        corrupt_at in 0usize..64,
        xor in 1u8..=255,
        garbage in collection::vec(any::<u8>(), 1..96),
    ) {
        let cat = Arc::new(ResponseCatalog::uniform(24, 4, 1_000));
        let manager = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
        let factory_cat = cat.clone();
        let server = TransportServer::spawn(
            "127.0.0.1:0",
            manager,
            move || builder(&factory_cat, 4),
            TransportConfig::default(),
        )
        .expect("bind");
        let addr = server.local_addr();

        // The healthy bystander connects first and proves blocks flow.
        let mut healthy = TransportClient::connect(addr).expect("healthy connect");
        healthy
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("healthy timeout");
        healthy
            .send_prediction(&summary(24, &[(2, 0.7), (5, 0.2)], 0.05))
            .expect("healthy prediction");
        wait_until(|| server.stats().blocks_sent >= 1, "first healthy block");

        let payload = match mode {
            0 => {
                // Flip one byte somewhere in a valid frame (length prefix
                // included: a poisoned prefix must also be survivable).
                let mut frame = valid_frame();
                let at = corrupt_at % frame.len();
                frame[at] ^= xor;
                frame
            }
            1 => {
                // A strict prefix of a valid frame, then EOF.
                let frame = valid_frame();
                let keep = 1 + corrupt_at % (frame.len() - 1);
                frame[..keep].to_vec()
            }
            _ => garbage,
        };
        attack(addr, hello_first, &payload);

        // The healthy connection never noticed: blocks still arrive.
        let mut got = 0;
        while got < 3 {
            match healthy.recv_event().expect("healthy event after attack") {
                ServerEvent::Block { .. } => got += 1,
                ServerEvent::Idle | ServerEvent::Resync { .. } => continue,
                other => panic!("healthy connection broken: {other:?}"),
            }
        }
        // The attacker is gone; only the healthy session remains live (a
        // poisoned-but-welcomed attacker may be parked, never active).
        wait_until(|| server.stats().active == 1, "attacker cleaned up");
        prop_assert_eq!(server.stats().active, 1);
    }
}
