//! Nonblocking event-loop server over `std::net`.
//!
//! There is one way to run it: [`ShardedTransportServer::spawn`] binds a
//! [`TcpListener`], starts N event loops and one acceptor thread.  The
//! acceptor is the listener's only reader; it fans accepted sockets
//! round-robin over per-shard unbounded handoff queues and wakes the
//! receiving loop (a busy shard can never stall the accept path).
//! [`TransportServer`] is the one-shard case of the same thing, under the
//! `spawn(addr, manager, factory, config)` signature its callers use.
//!
//! Each loop owns the connections handed to it and runs a readiness loop:
//! take queued handoffs, drain readable sockets into the frame decoder, feed
//! decoded `ClientMessage`s to its [`SessionManager`], pull the next
//! scheduled blocks out of the manager, and flush per-connection outbound
//! queues through nonblocking writes.  There is no async runtime.  Between
//! passes the loop sleeps in one `ppoll` over its wake socket and every
//! connection it is waiting on, with the earliest real deadline as the
//! timeout — the pacing gate, the next park expiry, a silent connection's
//! first-frame deadline, or a fault-injection tick — so a pass runs when
//! there is work and reads only the sockets the wait reported.  See
//! `docs/TRANSPORT.md`, "Server event loop".
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
//!   **parked**: detached from scheduling
//!   ([`SessionManager::detach_session`]) and kept alive (prediction
//!   history, delta-tracker shadow state, model-cache refcounts) in the
//!   loop's [`ResumeTable`] for [`TransportConfig::park_ttl`], so a
//!   reconnecting client can `Resume` and have missed frames replayed from
//!   a bounded ring instead of resyncing from scratch.  The park → evict →
//!   resume state machine itself lives in [`crate::resume`]; this file
//!   moves its results onto sockets and into counters.  See
//!   `docs/RESILIENCE.md`.
//!
//! Counters have one home.  A loop counts into a [`ServerStats`] of its own
//! and copies it out once per pass, ahead of the pass's socket writes (so a
//! frame a peer has read is already counted); a handle's `stats()` merges
//! those copies ([`ServerStats::merge`]) without involving any loop.
//! The session-layer sweep behind
//! [`ShardedTransportServer::shard_stats`] is computed only when asked for:
//! the request travels the handoff queue and each loop answers it in its
//! next pass.
//!
//! Across shards, every `SessionManager` shares one [`ModelCache`] so
//! identical predictors resolve to one `HorizonModel`, session ids come from
//! one server-wide counter, and a disconnect is torn down entirely on the
//! owning shard — its session *and* its model refcounts are released there,
//! with no cross-shard coordination.  See `docs/SHARDING.md`.

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender};
use khameleon_core::fault::{FaultKind, FaultPlan};
use khameleon_core::protocol::{ServerEvent, SessionId};
use khameleon_core::scheduler::ModelCache;
use khameleon_core::session::{SessionBuilder, SessionManager};
use khameleon_core::shard::{ShardSnapshot, ShardStats};
use khameleon_core::types::{Duration, Time};
use nix::poll::{ppoll, PollFd, PollFlags};

use crate::pacing::PacingGate;
use crate::resume::{ResumeTable, Resumed, TokenDirectory};
use crate::wire::{encode_server_event_frame, encode_welcome, ClientFrame, FrameBuffer};

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
    /// How long a disconnected-but-resumable session stays parked (on the
    /// loop's logical clock) before its state is reclaimed.  In lockstep
    /// mode the clock is frozen at zero, so parks never expire — the lever
    /// deterministic replay tests rely on.
    pub park_ttl: Duration,
    /// Upper bound on concurrently parked sessions.  `0` disables parking
    /// entirely: every disconnect is a full teardown.
    pub max_parked_sessions: usize,
    /// Admission cap on live plus parked sessions.  At capacity a new
    /// connection gets no session; its first frame decides: a `Resume` of
    /// a parked token re-attaches (the holder reclaims its own slot),
    /// anything else is refused with a [`ServerEvent::Busy`] and closed.
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
            park_ttl: Duration::from_secs(30),
            max_parked_sessions: 64,
            max_sessions: usize::MAX,
            replay_frames: 256,
            fault_plan: None,
        }
    }
}

/// Counters the event loops maintain; snapshot via
/// [`TransportServer::stats`] or [`ShardedTransportServer::stats`].
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
    /// Passes of the event loop.  A loop with nothing to do makes none, so
    /// a count that climbs on an idle server is a loop that is spinning.
    pub loop_passes: u64,
    /// Waits that ended because a deadline came due (the pacing gate, a
    /// park expiry, a fault-injection tick) rather than because a socket
    /// became ready.
    pub timer_wakeups: u64,
}

impl ServerStats {
    /// Adds `other`'s counters into `self`.  `peak_queue_frames` is a
    /// high-water mark, so it merges by maximum.
    pub fn merge(&mut self, other: &ServerStats) {
        self.accepted += other.accepted;
        self.disconnected += other.disconnected;
        self.active += other.active;
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.blocks_sent += other.blocks_sent;
        self.resyncs += other.resyncs;
        self.backpressure_skips += other.backpressure_skips;
        self.peak_queue_frames = self.peak_queue_frames.max(other.peak_queue_frames);
        self.decode_errors += other.decode_errors;
        self.parked += other.parked;
        self.resumed += other.resumed;
        self.replayed_events += other.replayed_events;
        self.shed_blocks += other.shed_blocks;
        self.refused_sessions += other.refused_sessions;
        self.faults_injected += other.faults_injected;
        self.loop_passes += other.loop_passes;
        self.timer_wakeups += other.timer_wakeups;
    }
}

struct Conn {
    stream: TcpStream,
    /// The session this socket drives.  `None` for connections accepted at
    /// the admission cap (until their first frame), for those refused with
    /// `Busy`, and for cross-shard resume arrivals before re-attach.
    session: Option<SessionId>,
    /// Resume token, once the client has performed the `Hello` handshake.
    token: Option<u64>,
    /// Accept-order index within this loop; the fault plan's lane key.
    lane: usize,
    /// Wall-clock time the loop took the socket on; a connection still
    /// session-less [`EventLoop::FIRST_FRAME`] later is refused.
    opened: Time,
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
    /// Frames that have left the queue (written out, or swallowed by a
    /// `Drop` fault).
    flushed_frames: u64,
    /// How many frames were queued before the peer's first frame was
    /// handled (`None` until it is).  The fault plan counts a connection's
    /// frames from there and leaves the earlier ones alone: a streaming
    /// session emits blocks from the moment it is accepted, and a fault
    /// landing among those could cut the connection before its `Hello` is
    /// read, let alone answered.
    fault_base: Option<u64>,
    /// Frame index the fault plan has been consulted up to (fire-once).
    fault_checked: u64,
    /// Flush passes this connection remains frozen for (injected stall).
    stall_ticks: u64,
    /// The socket is new, or the last wait reported it readable (or hung
    /// up): read it this pass.
    readable: bool,
    /// The last write hit `WouldBlock`: skip the socket until a wait
    /// reports it writable.
    blocked: bool,
}

impl Conn {
    fn new(stream: TcpStream, lane: usize, opened: Time) -> Conn {
        Conn {
            stream,
            session: None,
            token: None,
            lane,
            opened,
            inbuf: FrameBuffer::new(),
            outbuf: VecDeque::new(),
            front_written: 0,
            credits: 0,
            dying: false,
            pending_handoff: None,
            flushed_frames: 0,
            fault_base: None,
            fault_checked: 0,
            stall_ticks: 0,
            // A client sends its first frame right behind `connect`: reading
            // in the accept pass lets a `Hello` be answered before the first
            // block is planned for the new session.
            readable: true,
            blocked: false,
        }
    }

    /// Whether the loop reads this socket at all: not once the peer is gone
    /// or the connection is on its way to another shard.
    fn wants_read(&self) -> bool {
        !self.dying && self.pending_handoff.is_none()
    }

    /// Whether the peer has closed or reset the socket with nothing left to
    /// read on it, found without consuming input.
    fn peer_gone(&self) -> bool {
        let mut probe = [0u8; 1];
        loop {
            match self.stream.peek(&mut probe) {
                Ok(n) => return n == 0,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return e.kind() != ErrorKind::WouldBlock,
            }
        }
    }
}

/// What travels over a shard's handoff queue: a freshly accepted socket, a
/// connection mid-`Resume` forwarded by a sibling shard that discovered
/// (via the shared token directory) it does not own the token, or a
/// handle's request for the shard's session-layer counters.
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
    /// Answered with [`SessionManager::stats_snapshot`] in the loop's next
    /// pass.  A loop that is gone drops its queue and the sender with it.
    Stats(Sender<ShardSnapshot>),
}

/// The write end of a thread's wake socket.  A thread asleep in [`ppoll`]
/// with no deadline is woken by one byte on the read end it polls: whoever
/// queues a [`Handoff`] wakes the shard it queued it for, and `shutdown()`
/// wakes every thread once.
struct Waker(UnixStream);

impl Waker {
    /// A waker and the nonblocking read end its thread polls.
    fn pair() -> std::io::Result<(Waker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker(tx), rx))
    }

    fn wake(&self) {
        // A full socket buffer means a wake-up is already pending, and a
        // closed read end that the thread is gone: nothing to do either way.
        let _ = (&self.0).write(&[1]);
    }
}

/// Empties a wake socket so the next wait blocks again.
fn drain_wakes(mut wake_rx: &UnixStream, scratch: &mut [u8]) {
    while matches!(wake_rx.read(scratch), Ok(n) if n > 0) {}
}

/// The way to hand something to a shard: queue it, then wake the shard's
/// loop out of its wait.
#[derive(Clone)]
struct ShardLink {
    handoffs: Sender<Handoff>,
    waker: Arc<Waker>,
}

impl ShardLink {
    fn send(&self, handoff: Handoff) {
        let _ = self.handoffs.send(handoff);
        self.waker.wake();
    }
}

/// Builds the sessions of one shard's accepted connections.
type SessionFactory = Box<dyn FnMut() -> SessionBuilder + Send>;

/// A running one-loop server bound to a local address: the one-shard case
/// of [`ShardedTransportServer`], spawned around a manager the caller
/// built (which keeps the [`ModelCache`] it arrived with).
///
/// Dropping the handle (or calling [`shutdown`](TransportServer::shutdown))
/// stops the server and closes every connection.
pub struct TransportServer(ShardedTransportServer);

impl TransportServer {
    /// Binds `addr` and spawns the acceptor and the event loop.  `manager`
    /// supplies the scheduling machinery; `factory` builds one session per
    /// accepted connection.
    pub fn spawn<F>(
        addr: impl ToSocketAddrs,
        manager: SessionManager,
        factory: F,
        config: TransportConfig,
    ) -> std::io::Result<TransportServer>
    where
        F: FnMut() -> SessionBuilder + Send + 'static,
    {
        let model_cache = Arc::clone(manager.model_cache());
        let shards = vec![(manager, Box::new(factory) as SessionFactory)];
        ShardedTransportServer::spawn_shards(addr, shards, model_cache, config).map(TransportServer)
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// A snapshot of the loop's counters.
    pub fn stats(&self) -> ServerStats {
        self.0.stats()
    }

    /// Stops the server and joins its threads.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }
}

/// A transport server: one acceptor thread fanning connections round-robin
/// across `N` independent event loops, each owning its own
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
    /// Every shard loop's handoff queue and waker.
    links: Vec<ShardLink>,
    accept_waker: Waker,
    /// Where each loop copies its counters once per pass.
    shard_stats: Vec<Arc<Mutex<ServerStats>>>,
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
        let model_cache = ModelCache::new();
        let session_factory = Arc::new(session_factory);
        let shards = (0..num_shards)
            .map(|i| {
                let mut manager = manager_factory(i);
                manager.set_model_cache(Arc::clone(&model_cache));
                let factory = Arc::clone(&session_factory);
                (manager, Box::new(move || factory()) as SessionFactory)
            })
            .collect();
        Self::spawn_shards(addr, shards, model_cache, config)
    }

    /// The one spawn path: bind, one event loop per `(manager, factory)`
    /// fed by its handoff queue, one acceptor thread.
    fn spawn_shards(
        addr: impl ToSocketAddrs,
        shards: Vec<(SessionManager, SessionFactory)>,
        model_cache: Arc<ModelCache>,
        config: TransportConfig,
    ) -> std::io::Result<ShardedTransportServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // One id counter for the whole server, so a session id names one
        // session across every shard; it starts past whatever sessions the
        // managers arrived with.
        let first_id = shards
            .iter()
            .flat_map(|(manager, _)| manager.session_ids())
            .map(|id| id.0 + 1)
            .max()
            .unwrap_or(0);
        let ids = Arc::new(AtomicU64::new(first_id));
        // All handoff channels exist before any loop starts, so every shard
        // can hold every peer's link for cross-shard resume forwarding.
        let mut links = Vec::with_capacity(shards.len());
        let mut receivers = Vec::with_capacity(shards.len());
        for _ in 0..shards.len() {
            let (handoffs, rx) = channel::unbounded();
            let (waker, wake_rx) = Waker::pair()?;
            links.push(ShardLink {
                handoffs,
                waker: Arc::new(waker),
            });
            receivers.push((rx, wake_rx));
        }
        // One token directory and one token key for the whole server: any
        // shard can tell which sibling owns a token, and no two shards can
        // mint the same one.
        let directory = TokenDirectory::default();
        let token_keys = RandomState::new();
        let mut handles = Vec::with_capacity(shards.len() + 1);
        let mut shard_stats = Vec::with_capacity(shards.len());
        for (i, ((manager, factory), (handoffs, wake_rx))) in
            shards.into_iter().zip(receivers).enumerate()
        {
            let stats = Arc::new(Mutex::new(ServerStats::default()));
            shard_stats.push(Arc::clone(&stats));
            let event_loop = EventLoop::new(
                manager,
                factory,
                config.clone(),
                LoopShared {
                    shutdown: Arc::clone(&shutdown),
                    wake_rx,
                    handoffs,
                    peers: links.clone(),
                    ids: Arc::clone(&ids),
                    stats,
                },
                ResumeTable::new(i, directory.clone(), token_keys.clone(), &config),
            );
            let handle = std::thread::Builder::new()
                .name(format!("khameleon-shard-io-{i}"))
                .spawn(move || event_loop.run())?;
            handles.push(handle);
        }
        let (accept_waker, accept_wake_rx) = Waker::pair()?;
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_links = links.clone();
        let acceptor = std::thread::Builder::new()
            .name("khameleon-shard-accept".into())
            .spawn(move || {
                let mut fds = [
                    PollFd::new(accept_wake_rx.as_raw_fd(), PollFlags::POLLIN),
                    PollFd::new(listener.as_raw_fd(), PollFlags::POLLIN),
                ];
                let mut next = 0usize;
                while !accept_shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Round-robin fan-out over an unbounded handoff
                            // queue: a shard busy tearing sessions down (or
                            // wedged on slow peers) can never stall accepts.
                            accept_links[next % accept_links.len()].send(Handoff::Fresh(stream));
                            next = next.wrapping_add(1);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            // Nothing pending: sleep until a peer connects
                            // or `shutdown()` wakes us.
                            let _ = ppoll(&mut fds, None);
                        }
                        Err(_) => {
                            // A failing accept (out of descriptors, say)
                            // leaves the listener readable; back off one
                            // tick, listening only for the wake-up.
                            let tick =
                                std::time::Duration::from_micros(EventLoop::TICK.as_micros());
                            let _ = ppoll(&mut fds[..1], Some(tick));
                        }
                    }
                }
            })?;
        handles.push(acceptor);
        Ok(ShardedTransportServer {
            local_addr,
            shutdown,
            links,
            accept_waker,
            shard_stats,
            model_cache,
            handles,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Transport counters merged across every shard loop, as each last
    /// published them.  Reads the published copies only: no loop is woken.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for stats in &self.shard_stats {
            total.merge(&stats.lock().unwrap_or_else(PoisonError::into_inner));
        }
        total
    }

    /// Session-layer counters merged across shards, with the shared model
    /// cache's live-model count — the same shape the in-process
    /// [`ShardedSessionManager`](khameleon_core::ShardedSessionManager)
    /// reports.  Computed on request: every loop is asked over its handoff
    /// queue and sweeps its sessions in its next pass, so this costs each
    /// shard one pass and blocks the caller until the slowest has answered.
    /// After `shutdown()` every shard reads as default.
    pub fn shard_stats(&self) -> ShardStats {
        // Ask every shard before waiting on any, so the sweeps overlap.
        let replies: Vec<Receiver<ShardSnapshot>> = self
            .links
            .iter()
            .map(|link| {
                let (reply, answer) = channel::bounded(1);
                link.send(Handoff::Stats(reply));
                answer
            })
            .collect();
        let per_shard = replies
            .iter()
            // lint:allow(blocking-recv) -- blocks the caller of shard_stats(),
            // never a loop; a loop that has exited dropped its queue and the
            // reply sender in it, which ends the wait with an error.
            .map(|answer| answer.recv().unwrap_or_default())
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
        self.accept_waker.wake();
        for link in &self.links {
            link.waker.wake();
        }
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

/// What an event loop shares with the handle that spawned it, the acceptor
/// and its sibling loops.
struct LoopShared {
    shutdown: Arc<AtomicBool>,
    /// Read end of this loop's [`Waker`].
    wake_rx: UnixStream,
    /// This loop's handoff queue: its only source of connections.
    handoffs: Receiver<Handoff>,
    /// Every shard's handoff link (self included), for forwarding
    /// cross-shard resumes.
    peers: Vec<ShardLink>,
    /// The server's one session-id counter.
    ids: Arc<AtomicU64>,
    /// Where the loop copies `EventLoop::stats` once per pass.
    stats: Arc<Mutex<ServerStats>>,
}

struct EventLoop {
    manager: SessionManager,
    factory: SessionFactory,
    config: TransportConfig,
    conns: Vec<Conn>,
    shared: LoopShared,
    /// This loop's counters; copied to `shared.stats` once per pass.
    stats: ServerStats,
    scratch: Vec<u8>,
    /// When the loop started; both its clocks count from here.
    // lint:allow(wall-clock) -- the transport is the real-time boundary; sim
    // code never runs through this path.
    started: std::time::Instant,
    /// Paced mode: when the next block may go.
    gate: PacingGate,
    /// Resume state — and, while parked, the session itself — for every
    /// token this loop owns.
    resume: ResumeTable,
    /// Accept-order lane counter feeding [`Conn::lane`].
    next_lane: usize,
    /// The wait's descriptor set, rebuilt from `conns` at every wait: the
    /// wake socket, then one slot per connection in order.
    pollfds: Vec<PollFd>,
    /// The pass in progress left work only another pass can pick up (a full
    /// queue gained room, a disconnect re-divided the bandwidth): do not
    /// sleep before it.
    rerun: bool,
    /// Earliest wall-clock deadline the pass in progress found; the wait's
    /// timeout.  `None` sleeps until a socket is ready.
    wake_at: Option<Time>,
}

impl EventLoop {
    fn new(
        manager: SessionManager,
        factory: SessionFactory,
        config: TransportConfig,
        shared: LoopShared,
        resume: ResumeTable,
    ) -> EventLoop {
        EventLoop {
            manager,
            factory,
            config,
            conns: Vec::new(),
            shared,
            stats: ServerStats::default(),
            scratch: vec![0u8; 64 * 1024],
            // lint:allow(wall-clock) -- real transport needs a real clock
            started: std::time::Instant::now(),
            gate: PacingGate::default(),
            resume,
            next_lane: 0,
            pollfds: Vec::new(),
            rerun: false,
            wake_at: None,
        }
    }

    fn run(mut self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            self.rerun = false;
            self.wake_at = None;
            let now = self.now();
            // Reclaim parks whose TTL elapsed on the logical clock.
            self.stats.shed_blocks += self.resume.evict(now);
            self.accept_new(now);
            self.read_sockets();
            self.dispatch_handoffs();
            self.refuse_silent();
            self.schedule_blocks();
            self.publish_stats();
            self.flush_sockets();
            self.reap_dead();
            self.wait();
        }
        // Final flush attempt so Closed frames reach clients that are still
        // reading, then let the sockets drop.
        self.flush_sockets();
        self.publish_stats();
    }

    /// Wall-clock time since loop start; what the pacing gate and the
    /// wait's deadlines run on, lockstep or not.
    fn wall(&self) -> Time {
        Time::from_micros(self.started.elapsed().as_micros() as u64)
    }

    /// The session layer's logical `now`: the wall clock, except that
    /// lockstep runs must be reproducible and freeze it at zero, so a TCP
    /// run and an in-process run see identical timestamps.
    fn now(&self) -> Time {
        if self.config.lockstep {
            Time::ZERO
        } else {
            self.wall()
        }
    }

    /// Asks for the next pass no later than `at` on the wall clock.
    fn wake_by(&mut self, at: Time) {
        self.wake_at = Some(self.wake_at.map_or(at, |earlier| earlier.min(at)));
    }

    /// Sleeps until there is something for a pass to do: a socket the loop
    /// is waiting on turns ready, a wake-up arrives (a queued [`Handoff`],
    /// `shutdown()`), or the earliest deadline the pass recorded comes due —
    /// then marks what the next pass should touch.  The interest set is
    /// derived from `conns` as they are now: every connection still being
    /// read, for input; only those whose last write blocked, for output.
    fn wait(&mut self) {
        // Parks expire on the logical clock, which only moves outside
        // lockstep mode (where it is the wall clock).
        if !self.config.lockstep {
            if let Some(expiry) = self.resume.next_expiry() {
                self.wake_by(expiry);
            }
        }
        self.pollfds.clear();
        self.pollfds.push(PollFd::new(
            self.shared.wake_rx.as_raw_fd(),
            PollFlags::POLLIN,
        ));
        for conn in &self.conns {
            let mut events = PollFlags::empty();
            if conn.wants_read() {
                events |= PollFlags::POLLIN;
            }
            if conn.blocked {
                events |= PollFlags::POLLOUT;
            }
            // A slot without interest keeps its place (so slots and `conns`
            // stay aligned) but is skipped by the kernel: a hung-up peer
            // must not wake a loop that is not going to touch the socket.
            let fd = if events.is_empty() {
                -1
            } else {
                conn.stream.as_raw_fd()
            };
            self.pollfds.push(PollFd::new(fd, events));
        }
        let timeout = if self.rerun {
            Some(std::time::Duration::ZERO)
        } else {
            let wall = self.wall();
            self.wake_at
                .map(|at| std::time::Duration::from_micros(at.saturating_sub(wall).as_micros()))
        };
        let ready = ppoll(&mut self.pollfds, timeout);
        if matches!(ready, Ok(0)) {
            self.stats.timer_wakeups += u64::from(!self.rerun);
            return;
        }
        // An error (a signal, most likely) reported nothing, so look at
        // everything: a wasted read beats a missed one.
        let all = ready.is_err();
        let hung_up = PollFlags::POLLERR | PollFlags::POLLHUP | PollFlags::POLLNVAL;
        let everything = PollFlags::POLLIN | PollFlags::POLLOUT | hung_up;
        // (Bits this build does not name count as a report: better one
        // wasted read than a missed one.)
        if all || self.pollfds[0].revents() != Some(PollFlags::empty()) {
            drain_wakes(&self.shared.wake_rx, &mut self.scratch);
        }
        for (conn, slot) in self.conns.iter_mut().zip(&self.pollfds[1..]) {
            let got = if all {
                everything
            } else {
                slot.revents().unwrap_or(everything)
            };
            if got.intersects(PollFlags::POLLIN | hung_up) {
                conn.readable = conn.wants_read();
            }
            if got.intersects(PollFlags::POLLOUT | hung_up) {
                conn.blocked = false;
            }
        }
    }

    /// Live plus parked sessions have reached the admission cap.
    fn at_capacity(&self) -> bool {
        self.manager.num_sessions() + self.resume.num_parked() >= self.config.max_sessions
    }

    /// Gives session-less `conns[i]` a fresh session — or, at the admission
    /// cap, refuses it: no session is created, the peer learns why through
    /// `Busy`, and the socket closes after the flush.  Returns whether the
    /// connection now has a session.
    fn admit(&mut self, i: usize) -> bool {
        if self.at_capacity() {
            self.refuse(i);
            return false;
        }
        let id = SessionId(self.shared.ids.fetch_add(1, Ordering::Relaxed));
        self.manager.add_session_with_id(id, (self.factory)());
        self.conns[i].session = Some(id);
        true
    }

    /// Tells `conns[i]` the server is `Busy` and closes it after the flush.
    fn refuse(&mut self, i: usize) {
        self.queue_frame(i, encode_server_event_frame(0, &ServerEvent::Busy));
        self.conns[i].dying = true;
        self.stats.refused_sessions += 1;
    }

    /// Queues an encoded frame toward `conns[i]`'s peer: the one place
    /// `frames_out` counts.
    fn queue_frame(&mut self, i: usize, frame: Vec<u8>) {
        self.conns[i].outbuf.push_back(frame);
        self.stats.frames_out += 1;
    }

    /// A connection taken on at the admission cap waits session-less for
    /// its first frame.  One that has not sent a whole frame
    /// [`FIRST_FRAME`](Self::FIRST_FRAME) later is refused like any other,
    /// so a silent peer cannot hold a socket and a poll slot forever.
    fn refuse_silent(&mut self) {
        let wall = self.wall();
        for i in 0..self.conns.len() {
            let conn = &self.conns[i];
            if conn.session.is_some() || conn.dying || conn.pending_handoff.is_some() {
                continue;
            }
            let due = conn.opened + Self::FIRST_FRAME;
            if wall >= due {
                self.refuse(i);
            } else {
                self.wake_by(due);
            }
        }
    }

    /// Starts tracking `stream` on the next accept-order lane; returns its
    /// index in `conns`.
    fn push_conn(&mut self, stream: TcpStream) -> usize {
        let conn = Conn::new(stream, self.next_lane, self.wall());
        self.conns.push(conn);
        self.next_lane += 1;
        self.conns.len() - 1
    }

    fn accept_new(&mut self, now: Time) {
        while let Ok(handoff) = self.shared.handoffs.try_recv() {
            match handoff {
                Handoff::Fresh(stream) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.stats.accepted += 1;
                    let i = self.push_conn(stream);
                    // At the cap the socket stays session-less until its
                    // first frame: the holder of a parked session must be
                    // able to `Resume` into the slot it already occupies.
                    if !self.at_capacity() {
                        self.admit(i);
                    }
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
                    let i = self.push_conn(stream);
                    // Its first frame, the `Resume`, was read by the sibling.
                    self.conns[i].fault_base = Some(0);
                    self.conns[i].credits = credits;
                    self.conns[i].inbuf.extend(&leftover);
                    self.handle_resume(i, token, last_seq, hops, now);
                    if !self.conns[i].dying && self.conns[i].pending_handoff.is_none() {
                        // Frames buffered behind the Resume travel with the
                        // connection; decode them now.
                        self.drain_frames(i, now);
                    }
                }
                Handoff::Stats(reply) => {
                    // The `O(sessions)` sweep, run because someone asked.
                    let _ = reply.try_send(self.manager.stats_snapshot());
                }
            }
        }
    }

    /// Reads the sockets the last wait reported, and only those.
    fn read_sockets(&mut self) {
        let now = self.now();
        for i in 0..self.conns.len() {
            if !std::mem::take(&mut self.conns[i].readable) || !self.conns[i].wants_read() {
                continue;
            }
            loop {
                let n = match self.conns[i].stream.read(&mut self.scratch) {
                    Ok(n) if n > 0 => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Ok(_) | Err(_) => {
                        // EOF or a dead socket: the client is gone.  Tear the
                        // session down so the scheduler stops planning slots
                        // for it.
                        self.disconnect(i);
                        break;
                    }
                };
                self.conns[i].inbuf.extend(&self.scratch[..n]);
                // A short read emptied the socket; the wait reports it
                // again when more (or EOF) arrives.
                if !self.drain_frames(i, now) || n < self.scratch.len() {
                    break;
                }
            }
        }
    }

    /// Decodes and dispatches every complete frame buffered on `conns[i]`.
    /// Returns `false` if the connection was torn down.
    fn drain_frames(&mut self, i: usize, now: Time) -> bool {
        loop {
            let decoded = match self.conns[i].inbuf.next_frame() {
                Ok(Some(body)) => crate::wire::decode_client_frame(&body),
                Ok(None) => return true,
                Err(e) => Err(e),
            };
            let Ok(frame) = decoded else {
                // Protocol garbage — and a corrupt length prefix poisons the
                // whole stream, there is no resynchronization point: drop
                // the peer.
                self.stats.decode_errors += 1;
                self.disconnect(i);
                return false;
            };
            self.stats.frames_in += 1;
            let conn = &mut self.conns[i];
            let queued = conn.flushed_frames + conn.outbuf.len() as u64;
            conn.fault_base.get_or_insert(queued);
            // A connection accepted at the cap learns its fate here: only a
            // `Resume` may proceed without a session.
            let conn = &self.conns[i];
            if conn.session.is_none()
                && !conn.dying
                && !matches!(frame, ClientFrame::Resume { .. })
                && !self.admit(i)
            {
                return false;
            }
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
                            self.stats.resyncs += 1;
                            self.queue_event(i, &event);
                        }
                        Some(event @ ServerEvent::Closed { .. }) => {
                            // The manager already removed the session; tell
                            // the peer, flush, then drop the socket.  A clean
                            // close is final — nothing left to resume.
                            self.stats.disconnected += 1;
                            self.queue_event(i, &event);
                            self.conns[i].dying = true;
                            self.conns[i].session = None;
                            self.forget_token(i);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Answers `Hello` (and failed resumes) with `Welcome`, minting the
    /// connection's resume token on first contact; a repeated `Hello` gets
    /// the current `Welcome` again.
    fn ensure_welcomed(&mut self, i: usize) {
        let Some(session) = self.conns[i].session else {
            return;
        };
        let (token, epoch) = match self.conns[i].token {
            Some(token) => (token, self.resume.epoch(token).unwrap_or(0)),
            None => {
                let token = self.resume.mint(session);
                self.conns[i].token = Some(token);
                (token, 0)
            }
        };
        self.queue_frame(i, encode_welcome(token, epoch, session));
    }

    /// Resolves a `Resume { token, last_seq }` for `conns[i]`:
    ///
    /// 1. Token owned here and the session is parked with no replay gap →
    ///    re-attach it and queue `Welcome` plus the ring frames past
    ///    `last_seq`.
    /// 2. Token owned here but expired / gapped / still live on a socket →
    ///    fall back to a fresh session under a new token (the client resets
    ///    its tracker on token change).
    /// 3. Token owned by a sibling shard (first hop only) → mark the
    ///    connection for handoff; `dispatch_handoffs` forwards it.
    fn handle_resume(&mut self, i: usize, token: u64, last_seq: u64, hops: u32, now: Time) {
        // A client that reconnects drops its old socket and sends `Resume`
        // on the new one back to back, and the wait may report the new
        // socket first.  Park a holder whose peer is gone before asking the
        // table, or the token would still read as live and be refused.
        let holder = self
            .conns
            .iter()
            .position(|c| c.token == Some(token) && !c.dying);
        if let Some(j) = holder.filter(|&j| j != i && self.conns[j].peer_gone()) {
            self.disconnect(j);
        }
        match self.resume.resume(token, last_seq, now) {
            Resumed::Attached {
                id,
                session,
                epoch,
                replay,
            } => {
                self.manager.attach_session(id, *session);
                // Drop the throwaway session created when this socket was
                // accepted.  Its token (if any) differs from `token` — a
                // registered token is never minted twice — so the entry
                // being resumed is untouched.
                self.release_accept_session(i);
                self.conns[i].session = Some(id);
                self.conns[i].token = Some(token);
                self.queue_frame(i, encode_welcome(token, epoch, id));
                self.stats.replayed_events += replay.len() as u64;
                for frame in replay {
                    self.queue_frame(i, frame);
                }
                self.stats.resumed += 1;
                return;
            }
            Resumed::Refused { shed } => self.stats.shed_blocks += shed,
            Resumed::Unknown { owner: Some(owner) } if hops == 0 => {
                // A sibling shard owns this token: ship the whole
                // connection there instead of duplicating the session.
                self.release_accept_session(i);
                self.conns[i].pending_handoff = Some((token, last_seq, owner));
                return;
            }
            Resumed::Unknown { .. } => {}
        }
        // The resume could not re-attach: keep serving this socket with a
        // fresh session (created here if the connection arrived without
        // one) under a new token, unless the admission cap says `Busy`.
        if self.conns[i].session.is_some() || self.admit(i) {
            self.ensure_welcomed(i);
        }
    }

    /// Tears down the accept-time session (and its resume entry) of
    /// `conns[i]`, leaving the connection session-less.
    fn release_accept_session(&mut self, i: usize) {
        self.forget_token(i);
        if let Some(old) = self.conns[i].session.take() {
            self.manager.remove_session(old);
        }
    }

    /// Drops the resume entry behind `conns[i]`'s token, if it has one: the
    /// session ended for good, so there is nothing to replay.
    fn forget_token(&mut self, i: usize) {
        if let Some(token) = self.conns[i].token.take() {
            self.resume.forget(token);
        }
    }

    /// Forwards every connection marked for cross-shard resume to the shard
    /// that owns its token, carrying undecoded bytes and unspent credits.
    fn dispatch_handoffs(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            let Some((token, last_seq, target)) = self.conns[i].pending_handoff else {
                i += 1;
                continue;
            };
            let mut conn = self.conns.swap_remove(i);
            let leftover = conn.inbuf.take_remaining();
            self.shared.peers[target].send(Handoff::Resume {
                stream: conn.stream,
                token,
                last_seq,
                leftover,
                credits: conn.credits,
                hops: 1,
            });
        }
    }

    /// Encodes `event` with the connection's next sequence number and
    /// queues it, recording a copy in the replay ring.  Connections that
    /// never said `Hello` use the legacy unsequenced (seq 0) encoding.
    fn queue_event(&mut self, i: usize, event: &ServerEvent) {
        let token = self.conns[i].token;
        let frame = match token.and_then(|t| self.resume.stamp(t, event)) {
            Some((frame, shed)) => {
                self.stats.shed_blocks += shed;
                frame
            }
            None => encode_server_event_frame(0, event),
        };
        self.queue_frame(i, frame);
    }

    fn schedule_blocks(&mut self) {
        let now = self.now();
        loop {
            // Respect the shared budget: at most one block per pacing
            // interval across all sessions.  The pacing interval tracks
            // the manager's bandwidth estimate, so rate reports from
            // clients speed this up or slow it down.
            let interval = if self.config.paced {
                self.manager.pacing_interval()
            } else {
                Duration::ZERO
            };
            let wall = self.wall();
            if interval > Duration::ZERO && !self.gate.is_open(wall) {
                self.wake_by(self.gate.next_send());
                break;
            }
            // Sessions eligible for the next block: connection alive (one
            // that is dying or on its way to another shard has given its
            // session up), queue below capacity, and (lockstep) holding
            // credit.
            let mut skipped = 0u64;
            let mut eligible: Vec<SessionId> = Vec::with_capacity(self.conns.len());
            for c in &self.conns {
                let Some(session) = c.session else {
                    continue;
                };
                if c.outbuf.len() >= self.config.max_queued_frames {
                    skipped += 1;
                    continue;
                }
                if self.config.lockstep && c.credits == 0 {
                    continue;
                }
                eligible.push(session);
            }
            self.stats.backpressure_skips += skipped;
            if eligible.is_empty() {
                // Input (a credit, a first frame) or a drained queue makes a
                // session eligible, and the wait reports both.
                break;
            }
            eligible.sort_unstable();
            match self.manager.next_event_among(now, &eligible) {
                // Every eligible session has drained, and stays drained
                // until input arrives, which wakes the loop by itself.
                ServerEvent::Idle | ServerEvent::Busy => break,
                event @ ServerEvent::Block { session, .. } => {
                    if let Some(i) = self.conns.iter().position(|c| c.session == Some(session)) {
                        self.queue_event(i, &event);
                        let conn = &mut self.conns[i];
                        conn.credits = conn.credits.saturating_sub(1);
                        let depth = conn.outbuf.len();
                        self.stats.blocks_sent += 1;
                        self.stats.peak_queue_frames = self.stats.peak_queue_frames.max(depth);
                        if self.config.paced {
                            self.gate.note_sent(wall, interval);
                        }
                    }
                }
                event @ (ServerEvent::Closed { .. } | ServerEvent::Resync { .. }) => {
                    let Some(session) = event.session() else {
                        break;
                    };
                    if let Some(i) = self.conns.iter().position(|c| c.session == Some(session)) {
                        self.queue_event(i, &event);
                        if matches!(event, ServerEvent::Closed { .. }) {
                            // The manager closed the session itself; resume
                            // state dies with it.
                            self.conns[i].dying = true;
                            self.conns[i].session = None;
                            self.forget_token(i);
                        }
                    }
                }
            }
        }
    }

    /// One step of an injected `Stall`/`Delay` (`stall_ticks`), so a fault
    /// plan's stalls last 500 µs per tick whatever else wakes the loop; also
    /// the retry period after a failed `accept`.
    const TICK: Duration = Duration(500);

    /// How long a connection taken on at the admission cap may stay silent
    /// before it is refused.  A client sends its first frame right behind
    /// `connect`, so a second is generous.
    const FIRST_FRAME: Duration = Duration(1_000_000);

    /// Looks up the fault plan at a new-frame boundary of `conns[i]` and
    /// applies the scheduled fault, if any.  `None`: no fault, write the
    /// frame normally (a `Corrupt` fault lands here after mutating the
    /// frame in place; a frame queued before the peer's first is never
    /// faulted).  `Some(true)`: fault consumed the frame, keep flushing.
    /// `Some(false)`: stop flushing this connection.
    fn apply_flush_fault(&mut self, i: usize) -> Option<bool> {
        let lane = self.conns[i].lane;
        let frame_idx = (self.conns[i].flushed_frames).checked_sub(self.conns[i].fault_base?)?;
        let kind = self
            .config
            .fault_plan
            .as_ref()
            .and_then(|p| p.lookup(lane, frame_idx))?;
        self.stats.faults_injected += 1;
        // Counted after this pass's books closed: have the next one follow.
        self.rerun = true;
        match kind {
            FaultKind::Drop => {
                // The frame vanishes on the wire; the connection lives on.
                self.pop_flushed(i);
                Some(true)
            }
            FaultKind::Delay { ticks } | FaultKind::Stall { ticks } => {
                // The transport models both as a frozen flush path, thawed
                // by the passes that follow.
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

    fn flush_sockets(&mut self) {
        for i in 0..self.conns.len() {
            if self.conns[i].stall_ticks > 0 {
                self.conns[i].stall_ticks -= 1;
                self.wake_by(self.wall() + Self::TICK);
                continue;
            }
            if self.conns[i].blocked {
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
                        Some(true) => continue,
                        Some(false) => break,
                    }
                }
                let conn = &mut self.conns[i];
                let Some(front) = conn.outbuf.front() else {
                    break;
                };
                let remaining = &front[conn.front_written..];
                match conn.stream.write(remaining) {
                    Ok(n) if n > 0 => {
                        conn.front_written += n;
                        if conn.front_written == front.len() {
                            self.pop_flushed(i);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        conn.blocked = true;
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Ok(_) | Err(_) => {
                        self.disconnect(i);
                        break;
                    }
                }
            }
        }
    }

    /// The front frame of `conns[i]` left the queue (written out, or
    /// swallowed by a `Drop` fault).
    fn pop_flushed(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        // A full queue kept this session out of scheduling; with room
        // again, the next pass can plan for it.
        self.rerun |= conn.outbuf.len() >= self.config.max_queued_frames;
        conn.outbuf.pop_front();
        conn.front_written = 0;
        conn.flushed_frames += 1;
    }

    /// Handles the death of `conns[i]`'s socket: the session leaves
    /// scheduling either way; one that completed the `Hello` handshake is
    /// parked in the resume table for a later `Resume` (room and
    /// [`TransportConfig::max_parked_sessions`] permitting), any other is
    /// torn down.
    fn disconnect(&mut self, i: usize) {
        // Losing a session re-divides the bandwidth, which re-opens drained
        // schedulers, and a zero-TTL park is already due: both want a pass.
        self.rerun = true;
        let conn = &mut self.conns[i];
        conn.dying = true;
        conn.outbuf.clear();
        conn.front_written = 0;
        let token = conn.token.take();
        let detached = conn
            .session
            .take()
            .and_then(|id| self.manager.detach_session(id));
        let gone = detached.is_some();
        let (parked, shed) = match (token, detached) {
            (Some(token), Some(session)) => {
                let now = self.now();
                self.resume.park(token, session, now)
            }
            // The session is already gone: its resume entry dies with the
            // connection.
            (Some(token), None) => (false, self.resume.forget(token)),
            // Never said `Hello`: dropping the session is the teardown.
            (None, _) => (false, 0),
        };
        self.stats.disconnected += u64::from(gone);
        self.stats.parked += u64::from(parked);
        self.stats.shed_blocks += shed;
    }

    fn reap_dead(&mut self) {
        self.conns.retain(|c| !(c.dying && c.outbuf.is_empty()));
    }

    /// Closes the pass's books: the one write to the copy the handles read.
    /// It comes before the pass's socket writes, so whatever a peer has read
    /// is already counted; the little that is counted while flushing (an
    /// injected fault, a socket that died under a write) sets `rerun`, so a
    /// sleeping loop's published counters are always current.
    fn publish_stats(&mut self) {
        self.stats.active = self.conns.iter().filter(|c| !c.dying).count() as u64;
        self.stats.loop_passes += 1;
        let mut published = self
            .shared
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *published = self.stats.clone();
    }
}
