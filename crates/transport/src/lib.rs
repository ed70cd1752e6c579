//! # khameleon-transport
//!
//! Real network transport for the Khameleon reproduction: a dependency-free
//! binary wire protocol plus an event-loop TCP server and a blocking client,
//! connecting remote clients to the in-process
//! [`SessionManager`](khameleon_core::session::SessionManager) scheduling
//! machinery.
//!
//! The paper's deployment model (§3.2) is two one-way streams: compact
//! predictor state flows *up*, response blocks flow *down*.  This crate puts
//! those streams on real sockets:
//!
//! * [`wire`] — length-prefixed binary frames for every
//!   [`ClientMessage`](khameleon_core::protocol::ClientMessage) and
//!   [`ServerEvent`](khameleon_core::protocol::ServerEvent), including the
//!   O(Δ) prediction-delta frame.  Floats travel as IEEE-754 bit patterns,
//!   so the server's shadow summary reconstructs the client's prediction
//!   bit-exactly — the property the sparse scheduler path depends on.
//! * [`server`] — one server over `std::net` (no async runtime): an
//!   acceptor thread hands sockets to N nonblocking readiness loops
//!   (`TransportServer` is the one-loop case), each of which sleeps in one
//!   `ppoll` until a socket is ready or a deadline is due: decode, dispatch
//!   to its `SessionManager`, and flush bounded per-connection outbound
//!   queues.  Full queues exclude their session from scheduling
//!   (backpressure); EOF tears the session down (no slots are planned for
//!   departed clients).
//! * [`resume`] — the socket-free park → TTL-evict → resume state machine
//!   ([`resume::ResumeTable`]): per token, the sequence counter, the replay
//!   ring and, while the client is away, the parked session itself.
//! * [`client`] — a blocking client whose prediction uploads go through a
//!   [`DeltaTracker`](khameleon_core::delta::DeltaTracker): after the first
//!   full summary, re-predictions ship as deltas and a server `Resync`
//!   transparently falls back to a full resend.
//!
//! Sessions are **fault tolerant**: a client that completes the
//! `Hello`/`Welcome` handshake holds a resume token, the server parks (not
//! tears down) its session when the socket dies, and
//! [`TransportClient::recv_event_resilient`] reconnects with exponential
//! backoff and replays exactly the frames the client missed.  A seeded
//! [`FaultPlan`](khameleon_core::fault::FaultPlan) can be injected into the
//! server's flush path to exercise all of this deterministically.  See
//! `docs/RESILIENCE.md`.
//!
//! The loopback stress harness (`transport_stress` in `khameleon-bench`)
//! drives thousands of concurrent connections through this stack and emits
//! `BENCH_transport.json`; see `docs/TRANSPORT.md` for the wire format
//! specification.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
mod pacing;
pub mod resume;
pub mod server;
pub mod wire;

pub use client::{ReconnectPolicy, TransportClient, TransportError, UplinkReport};
pub use server::{ServerStats, ShardedTransportServer, TransportConfig, TransportServer};
pub use wire::{ClientFrame, FrameBuffer, ServerFrame, WireError, MAX_FRAME_LEN, WIRE_VERSION};
