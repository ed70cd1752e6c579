//! Nonblocking event-loop server over `std::net`.
//!
//! One thread owns a [`TcpListener`] plus every accepted connection and runs
//! a readiness loop: accept new peers, drain readable sockets into the frame
//! decoder, feed decoded [`ClientMessage`]s to the shared
//! [`SessionManager`], pull the next scheduled blocks out of the manager,
//! and flush per-connection outbound queues through nonblocking writes.
//! There is no async runtime — sockets are polled in `O(connections)` per
//! tick, which is exactly the regime the loopback stress harness measures.
//!
//! Two properties the tests lean on:
//!
//! * **Bounded queues / backpressure.**  Every connection has a bounded
//!   outbound frame queue.  A connection whose queue is full is excluded
//!   from scheduling via
//!   [`SessionManager::next_event_among`], so a slow consumer stalls *its
//!   own* session — no scheduler state is mutated for blocks that cannot be
//!   queued, and other sessions keep the wire busy.
//! * **Clean disconnects, resumable sessions.**  EOF or a socket error on a
//!   connection that never performed the `Hello` handshake tears the
//!   session down through [`SessionManager::remove_session`], which
//!   tombstones the session's sampler state; no further blocks are planned
//!   for it.  A connection that *did* handshake instead has its session
//!   **parked**: detached from scheduling but kept alive (prediction
//!   history, delta-tracker shadow state, model-cache refcounts) for
//!   [`TransportConfig::park_ttl`], so a reconnecting client can `Resume`
//!   and have missed frames replayed from a bounded ring instead of
//!   resyncing from scratch.  See `docs/RESILIENCE.md`.
//!
//! For deployments with more connections than one readiness loop should
//! own, [`ShardedTransportServer`] runs one acceptor thread plus N of these
//! event loops: accepted sockets are fanned round-robin across per-shard
//! loops over an unbounded handoff queue (a busy shard can never stall the
//! accept path), every shard's `SessionManager` shares one
//! [`ModelCache`] so identical predictors resolve to one `HorizonModel`
//! across shards, and a disconnect is torn down entirely on the owning
//! shard — its session *and* its model refcounts are released there, with
//! no cross-shard coordination.  See `docs/SHARDING.md`.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};
use khameleon_core::fault::{splitmix64, FaultKind, FaultPlan};
use khameleon_core::protocol::{ServerEvent, SessionId};
use khameleon_core::scheduler::ModelCache;
use khameleon_core::session::{SessionBuilder, SessionManager};
use khameleon_core::shard::{ShardSnapshot, ShardStats};
use khameleon_core::types::{Duration, Time};

use crate::wire::{encode_server_event_frame, encode_welcome, ClientFrame, FrameBuffer};

/// Salt mixed into session ids to derive resume tokens.  `splitmix64` is a
/// bijection on `u64`, so globally unique session ids yield globally unique
/// tokens with no coordination between shards.
const TOKEN_SALT: u64 = 0x6b68_616d_656c_656f;

/// Transport-level server knobs.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Per-connection outbound queue capacity, in frames.  A connection at
    /// capacity is skipped by the scheduler until its queue drains.
    pub max_queued_frames: usize,
    /// Only emit blocks against [`ClientFrame::Credit`] grants.  Lockstep
    /// mode makes a TCP run block-for-block reproducible: the server's
    /// logical clock stays at zero and each credit pulls exactly one event.
    pub lockstep: bool,
    /// Pace block emission against the session manager's shared bandwidth
    /// estimate instead of draining as fast as sockets accept writes.
    pub paced: bool,
    /// How long the loop sleeps when a full pass made no progress.
    pub idle_wait: std::time::Duration,
    /// How long a disconnected-but-resumable session stays parked (on the
    /// loop's logical clock) before its state is reclaimed.  In lockstep
    /// mode the clock is frozen at zero, so parks never expire — the lever
    /// deterministic replay tests rely on.
    pub park_ttl: Duration,
    /// Upper bound on concurrently parked sessions.  `0` disables parking
    /// entirely: every disconnect is a full teardown.
    pub max_parked_sessions: usize,
    /// Admission cap on live plus parked sessions.  At capacity, new
    /// connections are refused with a [`ServerEvent::Busy`] and closed.
    pub max_sessions: usize,
    /// Per-resumable-session replay ring capacity, in frames.  A resume
    /// whose `last_seq` has already scrolled out of the ring falls back to
    /// a fresh session (the client resets and resyncs).
    pub replay_frames: usize,
    /// Deterministic outbound fault schedule, keyed by
    /// `(connection lane, outbound frame index)`.  Tests and the chaos
    /// bench only; `None` in production.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            max_queued_frames: 64,
            lockstep: false,
            paced: false,
            idle_wait: std::time::Duration::from_micros(500),
            park_ttl: Duration::from_secs(30),
            max_parked_sessions: 64,
            max_sessions: usize::MAX,
            replay_frames: 256,
            fault_plan: None,
        }
    }
}

/// Counters the event loop maintains; snapshot via
/// [`TransportServer::stats`].
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections torn down (EOF, error, or protocol close).
    pub disconnected: u64,
    /// Sessions currently live.
    pub active: u64,
    /// Complete frames decoded off client sockets.
    pub frames_in: u64,
    /// Frames queued toward clients (blocks, closes, resyncs).
    pub frames_out: u64,
    /// Blocks handed to connections by the scheduler.
    pub blocks_sent: u64,
    /// Resync events pushed (delta generation mismatches).
    pub resyncs: u64,
    /// Times a session was excluded from scheduling because its outbound
    /// queue was full — the backpressure path.
    pub backpressure_skips: u64,
    /// High-water mark of any connection's outbound queue, in frames.
    pub peak_queue_frames: usize,
    /// Frames dropped because they were decoded as protocol garbage.
    pub decode_errors: u64,
    /// Disconnects that parked the session for later resume instead of
    /// tearing it down.
    pub parked: u64,
    /// Parked sessions successfully re-attached by a `Resume` handshake.
    pub resumed: u64,
    /// Frames replayed from replay rings during resumes (the client
    /// deduplicates any overlap by sequence number).
    pub replayed_events: u64,
    /// Frames shed under pressure: replay-ring overflow, parked state
    /// reclaimed at TTL expiry or by the park-table victim policy, and
    /// rings discarded on failed (gapped) resumes.
    pub shed_blocks: u64,
    /// Connections refused with [`ServerEvent::Busy`] at the admission cap.
    pub refused_sessions: u64,
    /// Faults injected from the configured [`FaultPlan`].
    pub faults_injected: u64,
}

struct Conn {
    stream: TcpStream,
    /// The session this socket drives.  `None` only for connections refused
    /// with `Busy` and for cross-shard resume arrivals before re-attach.
    session: Option<SessionId>,
    /// Resume token, once the client has performed the `Hello` handshake.
    token: Option<u64>,
    /// Accept-order index within this loop; the fault plan's lane key.
    lane: usize,
    inbuf: FrameBuffer,
    /// Encoded frames waiting for the socket; bounded by
    /// [`TransportConfig::max_queued_frames`].
    outbuf: VecDeque<Vec<u8>>,
    /// Byte offset already written of `outbuf.front()`.
    front_written: usize,
    /// Blocks this connection may still be sent (lockstep mode only).
    credits: u64,
    /// The peer half-closed or errored; flush what is queued, then drop.
    dying: bool,
    /// Cross-shard resume in flight: `(token, last_seq, target shard)`.
    pending_handoff: Option<(u64, u64, usize)>,
    /// Frames fully written to the socket; the fault plan's frame key.
    flushed_frames: u64,
    /// Frame index the fault plan has been consulted up to (fire-once).
    fault_checked: u64,
    /// Flush passes this connection remains frozen for (injected stall).
    stall_ticks: u64,
}

impl Conn {
    fn new(stream: TcpStream, lane: usize) -> Conn {
        Conn {
            stream,
            session: None,
            token: None,
            lane,
            inbuf: FrameBuffer::new(),
            outbuf: VecDeque::new(),
            front_written: 0,
            credits: 0,
            dying: false,
            pending_handoff: None,
            flushed_frames: 0,
            fault_checked: 0,
            stall_ticks: 0,
        }
    }

    fn queue_frame(&mut self, frame: Vec<u8>) {
        self.outbuf.push_back(frame);
    }
}

/// Per-token server-side resume state: the sequence counter and the bounded
/// ring of already-encoded frames available for replay after a reconnect.
struct Resumable {
    token: u64,
    session: SessionId,
    /// Incremented on every successful resume; echoed in `Welcome` so the
    /// client can tell a re-attach from a fresh session.
    epoch: u64,
    /// Next sequence number to stamp (starts at 1; seq 0 is the legacy
    /// unsequenced path).
    next_seq: u64,
    ring: VecDeque<(u64, Vec<u8>)>,
}

/// What travels over a shard's connection channel: a freshly accepted
/// socket, or a connection mid-`Resume` forwarded by a sibling shard that
/// discovered (via the shared token directory) it does not own the token.
enum Handoff {
    Fresh(TcpStream),
    Resume {
        stream: TcpStream,
        token: u64,
        last_seq: u64,
        /// Bytes the donor shard had buffered but not yet decoded.
        leftover: Vec<u8>,
        credits: u64,
        /// Forwarding hops so far; a connection is forwarded at most once.
        hops: u32,
    },
}

/// A running event-loop server bound to a local address.
///
/// Dropping the handle (or calling [`shutdown`](TransportServer::shutdown))
/// stops the loop and closes every connection.
pub struct TransportServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Mutex<ServerStats>>,
    handle: Option<JoinHandle<()>>,
}

impl TransportServer {
    /// Binds `addr` and spawns the event loop.  `manager` supplies the
    /// scheduling machinery; `factory` builds one session per accepted
    /// connection.
    pub fn spawn<F>(
        addr: impl ToSocketAddrs,
        manager: SessionManager,
        factory: F,
        config: TransportConfig,
    ) -> std::io::Result<TransportServer>
    where
        F: FnMut() -> SessionBuilder + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(ServerStats::default()));
        let loop_shutdown = Arc::clone(&shutdown);
        let loop_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("khameleon-transport".into())
            .spawn(move || {
                EventLoop {
                    source: ConnSource::Listen(listener),
                    manager,
                    factory: Box::new(factory),
                    config,
                    conns: Vec::new(),
                    shutdown: loop_shutdown,
                    stats: loop_stats,
                    scratch: vec![0u8; 64 * 1024],
                    clock: ClockSource::new(),
                    next_send: Time::ZERO,
                    snapshot_out: None,
                    resume_index: Vec::new(),
                    next_lane: 0,
                }
                .run();
            })?;
        Ok(TransportServer {
            local_addr,
            shutdown,
            stats,
            handle: Some(handle),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the loop's counters.
    pub fn stats(&self) -> ServerStats {
        match self.stats.lock() {
            Ok(s) => s.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Stops the event loop and joins its thread.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TransportServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A sharded transport server: one acceptor thread fanning connections
/// round-robin across `N` independent event loops, each owning its own
/// [`SessionManager`] and the subset of sockets routed to it.
///
/// All shard managers share one [`ModelCache`], so sessions with
/// bit-identical predictor histories resolve to a single `HorizonModel`
/// regardless of which shard they landed on.  Session ids are drawn from a
/// server-global counter, so an id names one session across the whole
/// deployment.
///
/// Teardown is shard-local by construction: a disconnect (EOF, socket
/// error, or protocol `Close`) is observed by the owning shard's loop,
/// which removes the session from *its* manager — releasing the session's
/// sampler slot and its model refcounts in the shared cache — while the
/// acceptor thread keeps accepting, never touching any shard's session
/// state.
pub struct ShardedTransportServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shard_stats: Vec<Arc<Mutex<ServerStats>>>,
    snapshots: Vec<Arc<Mutex<ShardSnapshot>>>,
    model_cache: Arc<ModelCache>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardedTransportServer {
    /// Binds `addr` and spawns the acceptor plus `num_shards` event loops.
    ///
    /// `manager_factory` builds one manager per shard (called with the
    /// shard index); each is attached to the server's shared model cache
    /// before its loop starts.  `session_factory` builds one session per
    /// accepted connection, on whichever shard the connection lands.
    pub fn spawn<M, F>(
        addr: impl ToSocketAddrs,
        num_shards: usize,
        mut manager_factory: M,
        session_factory: F,
        config: TransportConfig,
    ) -> std::io::Result<ShardedTransportServer>
    where
        M: FnMut(usize) -> SessionManager,
        F: Fn() -> SessionBuilder + Send + Sync + 'static,
    {
        assert!(num_shards >= 1, "a sharded server needs at least one shard");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let model_cache = ModelCache::new();
        let ids = Arc::new(AtomicU64::new(0));
        let session_factory = Arc::new(session_factory);
        let mut handles = Vec::with_capacity(num_shards + 1);
        let mut shard_stats = Vec::with_capacity(num_shards);
        let mut snapshots = Vec::with_capacity(num_shards);
        // All handoff channels exist before any loop starts, so every shard
        // can hold every peer's sender for cross-shard resume forwarding.
        let mut senders = Vec::with_capacity(num_shards);
        let mut receivers = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (tx, rx) = channel::unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let directory: Arc<Mutex<HashMap<u64, usize>>> = Arc::new(Mutex::new(HashMap::new()));
        for (i, rx) in receivers.into_iter().enumerate() {
            let mut manager = manager_factory(i);
            manager.set_model_cache(Arc::clone(&model_cache));
            let stats = Arc::new(Mutex::new(ServerStats::default()));
            let snapshot = Arc::new(Mutex::new(ShardSnapshot::default()));
            shard_stats.push(Arc::clone(&stats));
            snapshots.push(Arc::clone(&snapshot));
            let factory = Arc::clone(&session_factory);
            let loop_shutdown = Arc::clone(&shutdown);
            let loop_ids = Arc::clone(&ids);
            let loop_config = config.clone();
            let loop_peers = senders.clone();
            let loop_directory = Arc::clone(&directory);
            let handle = std::thread::Builder::new()
                .name(format!("khameleon-shard-io-{i}"))
                .spawn(move || {
                    EventLoop {
                        source: ConnSource::Shard {
                            index: i,
                            streams: rx,
                            peers: loop_peers,
                            directory: loop_directory,
                            ids: loop_ids,
                        },
                        manager,
                        factory: Box::new(move || factory()),
                        config: loop_config,
                        conns: Vec::new(),
                        shutdown: loop_shutdown,
                        stats,
                        scratch: vec![0u8; 64 * 1024],
                        clock: ClockSource::new(),
                        next_send: Time::ZERO,
                        snapshot_out: Some(snapshot),
                        resume_index: Vec::new(),
                        next_lane: 0,
                    }
                    .run();
                })?;
            handles.push(handle);
        }
        let accept_shutdown = Arc::clone(&shutdown);
        let idle_wait = config.idle_wait;
        let acceptor = std::thread::Builder::new()
            .name("khameleon-shard-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                while !accept_shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Round-robin fan-out over an unbounded handoff
                            // queue: a shard busy tearing sessions down (or
                            // wedged on slow peers) can never stall accepts.
                            let _ = senders[next % senders.len()].send(Handoff::Fresh(stream));
                            next = next.wrapping_add(1);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(idle_wait);
                        }
                        Err(_) => std::thread::sleep(idle_wait),
                    }
                }
            })?;
        handles.push(acceptor);
        Ok(ShardedTransportServer {
            local_addr,
            shutdown,
            shard_stats,
            snapshots,
            model_cache,
            handles,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of shard event loops.
    pub fn num_shards(&self) -> usize {
        self.snapshots.len()
    }

    /// Transport counters summed across every shard loop.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for stats in &self.shard_stats {
            let s = stats.lock().unwrap_or_else(PoisonError::into_inner).clone();
            total.accepted += s.accepted;
            total.disconnected += s.disconnected;
            total.active += s.active;
            total.frames_in += s.frames_in;
            total.frames_out += s.frames_out;
            total.blocks_sent += s.blocks_sent;
            total.resyncs += s.resyncs;
            total.backpressure_skips += s.backpressure_skips;
            total.peak_queue_frames = total.peak_queue_frames.max(s.peak_queue_frames);
            total.decode_errors += s.decode_errors;
            total.parked += s.parked;
            total.resumed += s.resumed;
            total.replayed_events += s.replayed_events;
            total.shed_blocks += s.shed_blocks;
            total.refused_sessions += s.refused_sessions;
            total.faults_injected += s.faults_injected;
        }
        total
    }

    /// Session-layer counters merged across shards, with the shared model
    /// cache's live-model count — the same shape the in-process
    /// [`ShardedSessionManager`](khameleon_core::ShardedSessionManager)
    /// reports.
    pub fn shard_stats(&self) -> ShardStats {
        let per_shard: Vec<ShardSnapshot> = self
            .snapshots
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        ShardStats::merge(per_shard, self.model_cache.live_models())
    }

    /// The model cache shared by every shard's manager.
    pub fn model_cache(&self) -> &Arc<ModelCache> {
        &self.model_cache
    }

    /// Stops the acceptor and every shard loop, joining their threads.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardedTransportServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Wall-clock microseconds since loop start, used as the session layer's
/// logical `now` outside lockstep mode.
struct ClockSource {
    // lint:allow(wall-clock) -- the transport is the real-time boundary; sim
    // code never runs through this path.
    start: std::time::Instant,
}

impl ClockSource {
    fn new() -> Self {
        ClockSource {
            // lint:allow(wall-clock) -- real transport needs a real clock
            start: std::time::Instant::now(),
        }
    }

    fn now(&self, lockstep: bool) -> Time {
        if lockstep {
            // Lockstep runs must be reproducible: freeze the logical clock so
            // a TCP run and an in-process run see identical timestamps.
            return Time::ZERO;
        }
        Time::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

/// Where an event loop gets its connections from: its own listener
/// (standalone mode), or a handoff queue fed by a shared acceptor thread
/// (one shard of a [`ShardedTransportServer`]).
enum ConnSource {
    Listen(TcpListener),
    Shard {
        /// This shard's index, matched against the token directory.
        index: usize,
        streams: Receiver<Handoff>,
        /// Every shard's handoff sender (self included), for forwarding
        /// cross-shard resumes.
        peers: Vec<Sender<Handoff>>,
        /// Server-global map from resume token to owning shard index.
        directory: Arc<Mutex<HashMap<u64, usize>>>,
        /// Globally unique session ids, shared by every shard so a session
        /// id names one session across the whole server.
        ids: Arc<AtomicU64>,
    },
}

impl ConnSource {
    /// Nonblocking poll for the next incoming connection, if any.
    fn poll(&mut self) -> Option<Handoff> {
        match self {
            ConnSource::Listen(listener) => listener
                .accept()
                .ok()
                .map(|(stream, _peer)| Handoff::Fresh(stream)),
            ConnSource::Shard { streams, .. } => streams.try_recv().ok(),
        }
    }

    /// In sharded mode, draws the next globally unique session id.
    fn forced_id(&self) -> Option<SessionId> {
        match self {
            ConnSource::Listen(_) => None,
            ConnSource::Shard { ids, .. } => Some(SessionId(ids.fetch_add(1, Ordering::Relaxed))),
        }
    }
}

struct EventLoop {
    source: ConnSource,
    manager: SessionManager,
    factory: Box<dyn FnMut() -> SessionBuilder + Send>,
    config: TransportConfig,
    conns: Vec<Conn>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Mutex<ServerStats>>,
    scratch: Vec<u8>,
    clock: ClockSource,
    /// Earliest loop time (µs since start) the pacing gate opens again.
    next_send: Time,
    /// In sharded mode, where this shard publishes its session-layer
    /// counters each tick (merged by `ShardedTransportServer::shard_stats`).
    snapshot_out: Option<Arc<Mutex<ShardSnapshot>>>,
    /// Resume state for every token this loop owns (live or parked).
    resume_index: Vec<Resumable>,
    /// Accept-order lane counter feeding [`Conn::lane`].
    next_lane: usize,
}

impl EventLoop {
    fn run(mut self) {
        self.manager.set_park_ttl(self.config.park_ttl);
        while !self.shutdown.load(Ordering::SeqCst) {
            let now = self.clock.now(self.config.lockstep);
            self.evict_expired(now);
            let mut progressed = false;
            progressed |= self.accept_new(now);
            progressed |= self.read_sockets();
            progressed |= self.dispatch_handoffs();
            progressed |= self.schedule_blocks();
            progressed |= self.flush_sockets();
            self.reap_dead();
            self.publish_stats();
            if !progressed {
                std::thread::sleep(self.config.idle_wait);
            }
        }
        // Final flush attempt so Closed frames reach clients that are still
        // reading, then let the sockets drop.
        self.flush_sockets();
        self.publish_stats();
    }

    /// Live plus parked sessions have reached the admission cap.
    fn at_capacity(&self) -> bool {
        self.manager.num_sessions() + self.manager.num_parked() >= self.config.max_sessions
    }

    fn accept_new(&mut self, now: Time) -> bool {
        let mut progressed = false;
        while let Some(handoff) = self.source.poll() {
            match handoff {
                Handoff::Fresh(stream) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    progressed = true;
                    self.with_stats(|s| s.accepted += 1);
                    let lane = self.next_lane;
                    self.next_lane += 1;
                    let mut conn = Conn::new(stream, lane);
                    if self.at_capacity() {
                        // Graceful refusal: no session is created, the peer
                        // learns why, and the socket closes after the flush.
                        conn.queue_frame(encode_server_event_frame(0, &ServerEvent::Busy));
                        conn.dying = true;
                        self.conns.push(conn);
                        self.with_stats(|s| {
                            s.refused_sessions += 1;
                            s.frames_out += 1;
                        });
                        continue;
                    }
                    conn.session = Some(match self.source.forced_id() {
                        Some(id) => self.manager.add_session_with_id(id, (self.factory)()),
                        None => self.manager.add_session((self.factory)()),
                    });
                    self.conns.push(conn);
                }
                Handoff::Resume {
                    stream,
                    token,
                    last_seq,
                    leftover,
                    credits,
                    hops,
                } => {
                    // A sibling shard forwarded a mid-resume connection; the
                    // socket is already nonblocking.  No session exists yet:
                    // handle_resume either re-attaches the parked one or
                    // falls back to a fresh session here.
                    progressed = true;
                    let lane = self.next_lane;
                    self.next_lane += 1;
                    let mut conn = Conn::new(stream, lane);
                    conn.credits = credits;
                    conn.inbuf.extend(&leftover);
                    self.conns.push(conn);
                    let i = self.conns.len() - 1;
                    self.handle_resume(i, token, last_seq, hops, now);
                    if !self.conns[i].dying && self.conns[i].pending_handoff.is_none() {
                        // Frames buffered behind the Resume travel with the
                        // connection; decode them now.
                        self.drain_frames(i, now);
                    }
                }
            }
        }
        progressed
    }

    fn read_sockets(&mut self) -> bool {
        let now = self.clock.now(self.config.lockstep);
        let mut progressed = false;
        for i in 0..self.conns.len() {
            if self.conns[i].dying || self.conns[i].pending_handoff.is_some() {
                continue;
            }
            loop {
                let n = match self.conns[i].stream.read(&mut self.scratch) {
                    Ok(0) => {
                        // EOF: the client is gone.  Tear the session down so
                        // the scheduler stops planning slots for it.
                        self.disconnect(i);
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.disconnect(i);
                        break;
                    }
                };
                progressed = true;
                self.conns[i].inbuf.extend(&self.scratch[..n]);
                if !self.drain_frames(i, now) {
                    break;
                }
            }
        }
        progressed
    }

    /// Decodes and dispatches every complete frame buffered on `conns[i]`.
    /// Returns `false` if the connection was torn down.
    fn drain_frames(&mut self, i: usize, now: Time) -> bool {
        loop {
            let body = match self.conns[i].inbuf.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => return true,
                Err(_) => {
                    // A corrupt length prefix poisons the whole stream: there
                    // is no resynchronization point, so drop the peer.
                    self.with_stats(|s| s.decode_errors += 1);
                    self.disconnect(i);
                    return false;
                }
            };
            let frame = match crate::wire::decode_client_frame(&body) {
                Ok(frame) => frame,
                Err(_) => {
                    self.with_stats(|s| s.decode_errors += 1);
                    self.disconnect(i);
                    return false;
                }
            };
            self.with_stats(|s| s.frames_in += 1);
            match frame {
                ClientFrame::Credit(n) => {
                    self.conns[i].credits = self.conns[i].credits.saturating_add(u64::from(n));
                }
                ClientFrame::Hello => {
                    self.ensure_welcomed(i);
                }
                ClientFrame::Resume { token, last_seq } => {
                    self.handle_resume(i, token, last_seq, 0, now);
                    if self.conns[i].pending_handoff.is_some() {
                        // Undecoded bytes stay buffered and travel with the
                        // connection to the owning shard.
                        return false;
                    }
                }
                ClientFrame::Message(message) => {
                    let Some(session) = self.conns[i].session else {
                        continue;
                    };
                    match self.manager.on_message(session, &message, now) {
                        Some(event @ ServerEvent::Resync { .. }) => {
                            self.with_stats(|s| {
                                s.resyncs += 1;
                                s.frames_out += 1;
                            });
                            self.queue_event(i, &event);
                        }
                        Some(event @ ServerEvent::Closed { .. }) => {
                            // The manager already removed the session; tell
                            // the peer, flush, then drop the socket.  A clean
                            // close is final — nothing left to resume.
                            self.with_stats(|s| {
                                s.frames_out += 1;
                                s.disconnected += 1;
                            });
                            self.queue_event(i, &event);
                            self.conns[i].dying = true;
                            self.conns[i].session = None;
                            self.drop_resume_for_conn(i, false);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Answers `Hello` (and failed resumes): hands the connection a resume
    /// token via `Welcome`, creating the resume entry on first contact.
    fn ensure_welcomed(&mut self, i: usize) {
        let Some(session) = self.conns[i].session else {
            return;
        };
        match self.conns[i].token {
            None => self.make_resumable(i, session),
            Some(token) => {
                // Idempotent re-Hello: repeat the current Welcome.
                let epoch = self
                    .resume_index
                    .iter()
                    .find(|r| r.token == token)
                    .map(|r| r.epoch)
                    .unwrap_or(0);
                self.conns[i].queue_frame(encode_welcome(token, epoch, session));
                self.with_stats(|s| s.frames_out += 1);
            }
        }
    }

    /// Mints a resume token for `session`, registers it in the shard
    /// directory, and queues the `Welcome` handshake reply.
    fn make_resumable(&mut self, i: usize, session: SessionId) {
        let token = splitmix64(session.0 ^ TOKEN_SALT);
        self.conns[i].token = Some(token);
        self.resume_index.push(Resumable {
            token,
            session,
            epoch: 0,
            next_seq: 1,
            ring: VecDeque::new(),
        });
        if let ConnSource::Shard {
            index, directory, ..
        } = &self.source
        {
            directory
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(token, *index);
        }
        self.conns[i].queue_frame(encode_welcome(token, 0, session));
        self.with_stats(|s| s.frames_out += 1);
    }

    /// Resolves a `Resume { token, last_seq }` for `conns[i]`:
    ///
    /// 1. Token owned here and the session is parked with no replay gap →
    ///    re-attach: prune the ring through `last_seq`, bump the epoch,
    ///    queue `Welcome` plus the remaining ring frames.
    /// 2. Token owned here but expired / gapped / still live on another
    ///    socket → reclaim what is safe and fall back to a fresh session
    ///    under a new token (the client resets its tracker on token change).
    /// 3. Token owned by a sibling shard (first hop only) → mark the
    ///    connection for handoff; `dispatch_handoffs` forwards it.
    fn handle_resume(&mut self, i: usize, token: u64, last_seq: u64, hops: u32, now: Time) {
        if let Some(pos) = self.resume_index.iter().position(|r| r.token == token) {
            let session = self.resume_index[pos].session;
            if self.manager.is_parked(session) {
                let gap = {
                    let entry = &self.resume_index[pos];
                    let ring_start = entry
                        .ring
                        .front()
                        .map(|(s, _)| *s)
                        .unwrap_or(entry.next_seq);
                    last_seq.wrapping_add(1) < ring_start || last_seq >= entry.next_seq
                };
                if !gap && self.manager.resume_session(session, now) {
                    self.attach_resumed(i, token, last_seq);
                    return;
                }
                // Expired under us or the ring no longer covers the
                // client's position: reclaim the park entirely.
                self.manager.drop_parked(session);
                self.remove_resume_entry(pos, true);
            } else if self.manager.session(session).is_some() {
                // The session is live on another socket.  Never hijack it —
                // a duplicate (or forged) Resume gets a fresh session.
            } else {
                // Stale entry: the session is long gone.
                self.remove_resume_entry(pos, false);
            }
        } else if hops == 0 {
            if let ConnSource::Shard {
                index, directory, ..
            } = &self.source
            {
                let owner = directory
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&token)
                    .copied();
                if let Some(owner) = owner.filter(|o| o != index) {
                    // A sibling shard owns this token: ship the whole
                    // connection there instead of duplicating the session.
                    self.release_accept_session(i);
                    self.conns[i].pending_handoff = Some((token, last_seq, owner));
                    return;
                }
            }
        }
        self.fresh_fallback(i);
    }

    /// Re-attaches `conns[i]` to the parked session behind `token`,
    /// replaying every ring frame past `last_seq`.
    fn attach_resumed(&mut self, i: usize, token: u64, last_seq: u64) {
        // Drop the throwaway session created when this socket was accepted.
        // Its token (if any) differs from `token` — splitmix64 is injective
        // — so the entry we are resuming is untouched.
        self.release_accept_session(i);
        let Some(entry) = self.resume_index.iter_mut().find(|r| r.token == token) else {
            return;
        };
        entry.epoch += 1;
        while entry.ring.front().is_some_and(|(s, _)| *s <= last_seq) {
            entry.ring.pop_front();
        }
        let session = entry.session;
        let epoch = entry.epoch;
        let replay: Vec<Vec<u8>> = entry.ring.iter().map(|(_, f)| f.clone()).collect();
        self.conns[i].session = Some(session);
        self.conns[i].token = Some(token);
        self.conns[i].queue_frame(encode_welcome(token, epoch, session));
        let replayed = replay.len() as u64;
        for frame in replay {
            self.conns[i].queue_frame(frame);
        }
        self.with_stats(|s| {
            s.frames_out += 1 + replayed;
            s.replayed_events += replayed;
            s.resumed += 1;
        });
    }

    /// A resume could not re-attach: keep serving this socket with a fresh
    /// session (created here if the connection arrived without one) under a
    /// new token, unless the admission cap says `Busy`.
    fn fresh_fallback(&mut self, i: usize) {
        if self.conns[i].session.is_none() {
            if self.at_capacity() {
                self.conns[i].queue_frame(encode_server_event_frame(0, &ServerEvent::Busy));
                self.conns[i].dying = true;
                self.with_stats(|s| {
                    s.refused_sessions += 1;
                    s.frames_out += 1;
                });
                return;
            }
            self.conns[i].session = Some(match self.source.forced_id() {
                Some(id) => self.manager.add_session_with_id(id, (self.factory)()),
                None => self.manager.add_session((self.factory)()),
            });
        }
        self.ensure_welcomed(i);
    }

    /// Tears down the accept-time session (and its resume entry) of
    /// `conns[i]`, leaving the connection session-less.
    fn release_accept_session(&mut self, i: usize) {
        self.drop_resume_for_conn(i, false);
        if let Some(old) = self.conns[i].session.take() {
            self.manager.remove_session(old);
        }
    }

    /// Removes the resume entry tied to `conns[i]`'s token, if any.
    fn drop_resume_for_conn(&mut self, i: usize, shed: bool) {
        if let Some(token) = self.conns[i].token.take() {
            if let Some(pos) = self.resume_index.iter().position(|r| r.token == token) {
                self.remove_resume_entry(pos, shed);
            }
        }
    }

    /// Drops resume entry `pos`, unregistering its token from the shard
    /// directory.  With `shed`, undelivered ring frames count as shed load.
    fn remove_resume_entry(&mut self, pos: usize, shed: bool) {
        let entry = self.resume_index.swap_remove(pos);
        if let ConnSource::Shard { directory, .. } = &self.source {
            directory
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&entry.token);
        }
        if shed && !entry.ring.is_empty() {
            let n = entry.ring.len() as u64;
            self.with_stats(|s| s.shed_blocks += n);
        }
    }

    /// Reclaims parks whose TTL elapsed on the logical clock, shedding
    /// their undelivered ring frames.
    fn evict_expired(&mut self, now: Time) {
        if self.manager.num_parked() == 0 {
            return;
        }
        for session in self.manager.evict_expired_parks(now) {
            if let Some(pos) = self.resume_index.iter().position(|r| r.session == session) {
                self.remove_resume_entry(pos, true);
            }
        }
    }

    /// Forwards every connection marked for cross-shard resume to the shard
    /// that owns its token, carrying undecoded bytes and unspent credits.
    fn dispatch_handoffs(&mut self) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < self.conns.len() {
            let Some((token, last_seq, target)) = self.conns[i].pending_handoff else {
                i += 1;
                continue;
            };
            let mut conn = self.conns.swap_remove(i);
            let leftover = conn.inbuf.take_remaining();
            if let ConnSource::Shard { peers, .. } = &self.source {
                let _ = peers[target].send(Handoff::Resume {
                    stream: conn.stream,
                    token,
                    last_seq,
                    leftover,
                    credits: conn.credits,
                    hops: 1,
                });
            }
            progressed = true;
        }
        progressed
    }

    /// Encodes `event` with the connection's next sequence number and
    /// queues it, recording a copy in the replay ring.  Connections that
    /// never said `Hello` use the legacy unsequenced (seq 0) encoding.
    fn queue_event(&mut self, i: usize, event: &ServerEvent) {
        let token = self.conns[i].token;
        let mut shed = false;
        let frame = match token.and_then(|t| self.resume_index.iter_mut().find(|r| r.token == t)) {
            Some(entry) => {
                let seq = entry.next_seq;
                entry.next_seq += 1;
                let frame = encode_server_event_frame(seq, event);
                entry.ring.push_back((seq, frame.clone()));
                if entry.ring.len() > self.config.replay_frames {
                    entry.ring.pop_front();
                    shed = true;
                }
                frame
            }
            None => encode_server_event_frame(0, event),
        };
        if shed {
            self.with_stats(|s| s.shed_blocks += 1);
        }
        self.conns[i].queue_frame(frame);
    }

    fn schedule_blocks(&mut self) -> bool {
        let now = self.clock.now(self.config.lockstep);
        let mut progressed = false;
        loop {
            if self.config.paced && self.manager.pacing_interval().as_micros() > 0 {
                // Respect the shared budget: at most one block per pacing
                // interval across all sessions.  The pacing interval tracks
                // the manager's bandwidth estimate, so rate reports from
                // clients speed this up or slow it down.
                if !self.pacing_gate_open() {
                    break;
                }
            }
            // Sessions eligible for the next block: connection alive, queue
            // below capacity, and (lockstep) holding credit.
            let mut skipped = 0u64;
            let mut eligible: Vec<SessionId> = Vec::with_capacity(self.conns.len());
            for c in &self.conns {
                let Some(session) = c.session else {
                    continue;
                };
                if c.dying || c.pending_handoff.is_some() {
                    continue;
                }
                if c.outbuf.len() >= self.config.max_queued_frames {
                    skipped += 1;
                    continue;
                }
                if self.config.lockstep && c.credits == 0 {
                    continue;
                }
                eligible.push(session);
            }
            if skipped > 0 {
                self.with_stats(|s| s.backpressure_skips += skipped);
            }
            if eligible.is_empty() {
                break;
            }
            eligible.sort_unstable();
            match self.manager.next_event_among(now, &eligible) {
                ServerEvent::Idle | ServerEvent::Busy => break,
                event @ ServerEvent::Block { session, .. } => {
                    if let Some(i) = self.conns.iter().position(|c| c.session == Some(session)) {
                        self.queue_event(i, &event);
                        let conn = &mut self.conns[i];
                        conn.credits = conn.credits.saturating_sub(1);
                        let depth = conn.outbuf.len();
                        self.with_stats(|s| {
                            s.blocks_sent += 1;
                            s.frames_out += 1;
                            s.peak_queue_frames = s.peak_queue_frames.max(depth);
                        });
                        self.note_block_paced();
                    }
                    progressed = true;
                }
                event @ (ServerEvent::Closed { .. } | ServerEvent::Resync { .. }) => {
                    let session = match event.session() {
                        Some(id) => id,
                        None => break,
                    };
                    if let Some(i) = self.conns.iter().position(|c| c.session == Some(session)) {
                        self.queue_event(i, &event);
                        if matches!(event, ServerEvent::Closed { .. }) {
                            // The manager closed the session itself; resume
                            // state dies with it.
                            self.conns[i].dying = true;
                            self.conns[i].session = None;
                            self.drop_resume_for_conn(i, false);
                        }
                        self.with_stats(|s| s.frames_out += 1);
                    }
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Whether the pacing budget allows another block right now.
    fn pacing_gate_open(&mut self) -> bool {
        let elapsed = Time::from_micros(self.clock.start.elapsed().as_micros() as u64);
        elapsed >= self.next_send
    }

    fn note_block_paced(&mut self) {
        if !self.config.paced {
            return;
        }
        let elapsed = Time::from_micros(self.clock.start.elapsed().as_micros() as u64);
        let interval = self.manager.pacing_interval();
        self.next_send = elapsed.max(self.next_send) + interval;
    }

    /// Looks up the fault plan at a new-frame boundary of `conns[i]` and
    /// applies the scheduled fault, if any.  `None`: no fault, write the
    /// frame normally (a `Corrupt` fault lands here after mutating the
    /// frame in place).  `Some(true)`: fault consumed the frame, keep
    /// flushing.  `Some(false)`: stop flushing this connection.
    fn apply_flush_fault(&mut self, i: usize) -> Option<bool> {
        let lane = self.conns[i].lane;
        let frame_idx = self.conns[i].flushed_frames;
        let kind = self
            .config
            .fault_plan
            .as_ref()
            .and_then(|p| p.lookup(lane, frame_idx))?;
        self.with_stats(|s| s.faults_injected += 1);
        match kind {
            FaultKind::Drop => {
                // The frame vanishes on the wire; the connection lives on.
                self.conns[i].outbuf.pop_front();
                self.conns[i].flushed_frames += 1;
                Some(true)
            }
            FaultKind::Delay { ticks } | FaultKind::Stall { ticks } => {
                // The transport models both as a frozen flush path.
                self.conns[i].stall_ticks = ticks;
                Some(false)
            }
            FaultKind::Truncate { keep } => {
                // The link died mid-frame: deliver a prefix, then drop the
                // peer.  Park-vs-teardown decides what survives server-side;
                // the client's strict decoder sees a short stream and
                // reconnects.
                let front = self.conns[i].outbuf.front().cloned().unwrap_or_default();
                let keep = keep.min(front.len());
                let _ = self.conns[i].stream.write_all(&front[..keep]);
                let _ = self.conns[i].stream.flush();
                self.disconnect(i);
                Some(false)
            }
            FaultKind::Corrupt { offset, xor } => {
                // Flip one payload byte past the length prefix: the frame
                // stays well-framed but the strict decoder must reject it.
                if let Some(front) = self.conns[i].outbuf.front_mut() {
                    if front.len() > 4 {
                        let pos = 4 + offset % (front.len() - 4);
                        front[pos] ^= xor;
                    }
                }
                None
            }
        }
    }

    fn flush_sockets(&mut self) -> bool {
        let mut progressed = false;
        for i in 0..self.conns.len() {
            if self.conns[i].stall_ticks > 0 {
                self.conns[i].stall_ticks -= 1;
                continue;
            }
            loop {
                if self.conns[i].front_written == 0
                    && self.conns[i].fault_checked == self.conns[i].flushed_frames
                    && !self.conns[i].outbuf.is_empty()
                {
                    // Consult the fault plan exactly once per frame.
                    self.conns[i].fault_checked += 1;
                    match self.apply_flush_fault(i) {
                        None => {}
                        Some(true) => {
                            progressed = true;
                            continue;
                        }
                        Some(false) => {
                            progressed = true;
                            break;
                        }
                    }
                }
                let conn = &mut self.conns[i];
                let Some(front) = conn.outbuf.front() else {
                    break;
                };
                let remaining = &front[conn.front_written..];
                match conn.stream.write(remaining) {
                    Ok(0) => {
                        self.disconnect(i);
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        conn.front_written += n;
                        if conn.front_written == front.len() {
                            conn.outbuf.pop_front();
                            conn.front_written = 0;
                            conn.flushed_frames += 1;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.disconnect(i);
                        break;
                    }
                }
            }
        }
        progressed
    }

    /// Handles the death of `conns[i]`'s socket: park the session for later
    /// resume when the connection completed the `Hello` handshake (making
    /// room in the park table by shedding the entry closest to expiry if
    /// necessary), otherwise tear it down as before.
    fn disconnect(&mut self, i: usize) {
        self.conns[i].dying = true;
        let session = self.conns[i].session.take();
        let token = self.conns[i].token.take();
        self.conns[i].outbuf.clear();
        self.conns[i].front_written = 0;
        let Some(session) = session else {
            return;
        };
        if let Some(token) = token {
            if self.manager.session(session).is_some() && self.config.max_parked_sessions > 0 {
                let now = self.clock.now(self.config.lockstep);
                self.evict_expired(now);
                if self.manager.num_parked() >= self.config.max_parked_sessions {
                    // Park table full: shed the park closest to expiry.
                    if let Some(victim) = self.manager.earliest_expiring_park() {
                        self.manager.drop_parked(victim);
                        if let Some(pos) =
                            self.resume_index.iter().position(|r| r.session == victim)
                        {
                            self.remove_resume_entry(pos, true);
                        }
                    }
                }
                if self.manager.num_parked() < self.config.max_parked_sessions
                    && self.manager.park_session(session, now)
                {
                    // The resume entry (ring, seq counter, directory slot)
                    // stays alive alongside the parked session state.
                    self.with_stats(|s| {
                        s.disconnected += 1;
                        s.parked += 1;
                    });
                    return;
                }
            }
            // Parking disabled, refused, or the session is already gone:
            // the resume entry dies with the connection.
            if let Some(pos) = self.resume_index.iter().position(|r| r.token == token) {
                self.remove_resume_entry(pos, true);
            }
        }
        if self.manager.remove_session(session) {
            self.with_stats(|s| s.disconnected += 1);
        }
    }

    fn reap_dead(&mut self) {
        self.conns.retain(|c| !(c.dying && c.outbuf.is_empty()));
    }

    fn publish_stats(&mut self) {
        let active = self.conns.iter().filter(|c| !c.dying).count() as u64;
        let mut backpressure_skips = 0;
        let mut replayed_events = 0;
        let mut shed_blocks = 0;
        let mut refused_sessions = 0;
        self.with_stats(|s| {
            s.active = active;
            backpressure_skips = s.backpressure_skips;
            replayed_events = s.replayed_events;
            shed_blocks = s.shed_blocks;
            refused_sessions = s.refused_sessions;
        });
        if let Some(out) = &self.snapshot_out {
            // parked/resumed counters ride in via the manager's snapshot;
            // the transport-only counters are grafted on here.
            let mut snap = self.manager.stats_snapshot();
            snap.backpressure_skips = backpressure_skips;
            snap.replayed_events = replayed_events;
            snap.shed_blocks = shed_blocks;
            snap.refused_sessions = refused_sessions;
            *out.lock().unwrap_or_else(PoisonError::into_inner) = snap;
        }
    }

    /// Counter updates are single-field increments, valid at every step, so
    /// a poisoned mutex is recovered like every reader does.
    fn with_stats(&self, f: impl FnOnce(&mut ServerStats)) {
        f(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner));
    }
}
