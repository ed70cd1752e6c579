//! Property tests for the wire codec: arbitrary messages round-trip
//! bit-exactly, and corrupted or truncated frames are rejected without
//! panicking or over-allocating.

use khameleon_core::block::Block;
use khameleon_core::delta::{PredictionDelta, SliceDelta};
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::predictor::gaussian::{Gaussian2d, Point2d};
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::types::{Bandwidth, BlockRef, Duration, RequestId, Time};
use khameleon_transport::wire::{
    decode_client_frame, decode_server_event, encode_client_frame, encode_server_event_frame,
    ClientFrame,
};
use proptest::prelude::*;

/// Builds sorted unique `(RequestId, prob)` entries from raw material.
fn entries_from(raw: &[(u32, f64)], n: usize) -> Vec<(RequestId, f64)> {
    let mut ids: Vec<u32> = raw.iter().map(|&(id, _)| id % n as u32).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.iter()
        .zip(raw)
        .map(|(&id, &(_, p))| (RequestId(id), p.abs()))
        .collect()
}

/// Builds a structurally valid summary from raw per-slice material.
fn summary_from(raw: &[(u32, f64)], n: usize, slices: usize, residual: f64) -> PredictionSummary {
    let entries = entries_from(raw, n);
    let slices = (0..slices.max(1))
        .map(|i| HorizonSlice {
            delta: Duration::from_millis(50 * (i as u64 + 1)),
            dist: SparseDistribution::from_normalized(n, entries.clone(), residual.abs()),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::from_micros(77))
}

fn roundtrip_client(frame: ClientFrame) {
    let encoded = encode_client_frame(&frame);
    let decoded = decode_client_frame(&encoded[4..]).expect("well-formed frame decodes");
    prop_assert_eq!(decoded, frame);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn predictor_states_round_trip(
        raw in proptest::collection::vec((0u32..10_000, 0.0f64..1.0), 0..40),
        n in 1usize..10_000,
        kind in 0u8..4,
    ) {
        let state = match kind {
            0 => PredictorState::Empty,
            1 => PredictorState::LastRequest(RequestId(n as u32)),
            2 => PredictorState::TopK(entries_from(&raw, n.max(raw.len() + 1))),
            _ => PredictorState::Opaque(raw.iter().map(|&(id, _)| id as u8).collect()),
        };
        roundtrip_client(ClientFrame::Message(ClientMessage::Predictor(state)));
    }

    #[test]
    fn gaussians_round_trip_bit_exactly(
        raw in proptest::collection::vec((0u64..1_000_000, -1.0e6f64..1.0e6, 0.0f64..1.0e4), 0..12),
    ) {
        let gaussians: Vec<(Duration, Gaussian2d)> = raw
            .iter()
            .map(|&(us, center, var)| {
                (
                    Duration::from_micros(us),
                    Gaussian2d {
                        mean: Point2d { x: center, y: -center / 3.0 },
                        var_x: var + 1e-6,
                        var_y: var * 2.0 + 1e-6,
                        cov_xy: var / 7.0,
                    },
                )
            })
            .collect();
        roundtrip_client(ClientFrame::Message(ClientMessage::Predictor(
            PredictorState::MouseGaussians(gaussians),
        )));
    }

    #[test]
    fn summaries_and_fulls_round_trip(
        raw in proptest::collection::vec((0u32..5_000, 0.0f64..1.0), 1..30),
        n in 2usize..5_000,
        slices in 1usize..5,
    ) {
        let summary = summary_from(&raw, n, slices, 0.01);
        roundtrip_client(ClientFrame::Message(ClientMessage::Predictor(
            PredictorState::Summary(summary.clone()),
        )));
        roundtrip_client(ClientFrame::Message(ClientMessage::PredictorFull {
            generation: raw.len() as u64 * 7919,
            summary,
        }));
    }

    #[test]
    fn deltas_round_trip(
        ups in proptest::collection::vec((0u32..5_000, 0.0f64..1.0), 0..25),
        rms in proptest::collection::vec(0u32..5_000, 0..25),
        gens in (0u64..1 << 40, 0u64..1 << 40),
    ) {
        let upserts = entries_from(&ups, 5_000);
        let mut removes: Vec<RequestId> = rms
            .iter()
            .map(|&r| RequestId(r))
            .filter(|r| !upserts.iter().any(|&(u, _)| u == *r))
            .collect();
        removes.sort_unstable();
        removes.dedup();
        let delta = PredictionDelta {
            base_generation: gens.0,
            generation: gens.1,
            generated_at: Time::from_micros(gens.0 ^ gens.1),
            slices: vec![
                SliceDelta { upserts: upserts.clone(), removes: removes.clone(), residual: None },
                SliceDelta { upserts, removes, residual: Some(0.125) },
                SliceDelta { upserts: vec![], removes: vec![], residual: None },
            ],
        };
        roundtrip_client(ClientFrame::Message(ClientMessage::PredictorDelta(delta)));
    }

    #[test]
    fn rate_reports_and_credits_round_trip(
        rate in 0.0f64..1.0e12,
        credit in 0u32..u32::MAX,
    ) {
        roundtrip_client(ClientFrame::Message(ClientMessage::RateReport(Bandwidth(rate))));
        roundtrip_client(ClientFrame::Credit(credit));
    }

    #[test]
    fn server_events_round_trip(
        session in 0u64..1 << 50,
        request in 0u32..1 << 30,
        shape in (1u32..64, 0usize..2_000),
        with_payload in any::<bool>(),
    ) {
        let (total, payload_len) = shape;
        let index = request % total;
        let block_ref = BlockRef { request: RequestId(request), index };
        let block = if with_payload {
            Block::with_payload(block_ref, total, payload_len as u64, vec![0xa5; payload_len])
        } else {
            Block::meta_only(block_ref, total, payload_len as u64)
        };
        for event in [
            ServerEvent::Idle,
            ServerEvent::Block { session: SessionId(session), block },
            ServerEvent::Closed { session: SessionId(session) },
            ServerEvent::Resync { session: SessionId(session) },
        ] {
            let encoded = encode_server_event_frame(0, &event);
            let decoded = decode_server_event(&encoded[4..]).expect("well-formed event decodes");
            prop_assert_eq!(decoded, event);
        }
    }

    #[test]
    fn truncated_frames_are_rejected_not_parsed(
        raw in proptest::collection::vec((0u32..500, 0.0f64..1.0), 1..12),
        cut_seed in any::<u64>(),
    ) {
        // Every strict prefix of a valid body must fail: all lengths are
        // announced up front, so a cut always lands inside a structure.
        let summary = summary_from(&raw, 600, 3, 0.05);
        let frame = encode_client_frame(&ClientFrame::Message(ClientMessage::PredictorFull {
            generation: 3,
            summary,
        }));
        let body = &frame[4..];
        let cut = 1 + (cut_seed as usize % (body.len() - 1));
        prop_assert!(decode_client_frame(&body[..cut]).is_err());
    }

    #[test]
    fn corrupt_bytes_never_panic(
        raw in proptest::collection::vec((0u32..500, 0.0f64..1.0), 1..12),
        flips in proptest::collection::vec((0u64..1 << 32, 0u8..=255), 1..6),
    ) {
        let summary = summary_from(&raw, 600, 2, 0.05);
        let frame = encode_client_frame(&ClientFrame::Message(ClientMessage::Predictor(
            PredictorState::Summary(summary),
        )));
        let mut body = frame[4..].to_vec();
        for &(pos, val) in &flips {
            let idx = pos as usize % body.len();
            body[idx] = val;
        }
        // Corruption may still decode (a flipped probability bit is a valid
        // other probability) — the property is that decoding never panics
        // and never fabricates structurally invalid values.
        if let Ok(ClientFrame::Message(ClientMessage::Predictor(PredictorState::Summary(s)))) =
            decode_client_frame(&body)
        {
            for slice in s.slices() {
                prop_assert!(slice.dist.residual_mass() >= 0.0);
                let e = slice.dist.explicit_entries();
                prop_assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(e.iter().all(|&(id, p)| id.index() < s.num_requests() && p >= 0.0));
            }
        }
    }
}
