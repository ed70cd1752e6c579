//! Nonblocking event-loop server over `std::net`.
//!
//! One thread owns a [`TcpListener`] plus every accepted connection and runs
//! a readiness loop: accept new peers, drain readable sockets into the frame
//! decoder, feed decoded [`ClientMessage`]s to the shared
//! [`SessionManager`], pull the next scheduled blocks out of the manager,
//! and flush per-connection outbound queues through nonblocking writes.
//! There is no async runtime.  Between passes the loop sleeps in one
//! `ppoll` over its wake socket, its listener and every connection it is
//! waiting on, with the earliest real deadline as the timeout — the pacing
//! gate, the next park expiry, or a fault-injection tick — so a pass runs
//! when there is work and reads only the sockets the wait reported.  See
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
//! For deployments with more connections than one readiness loop should
//! own, [`ShardedTransportServer`] runs one acceptor thread plus N of these
//! event loops: accepted sockets are fanned round-robin across per-shard
//! loops over an unbounded handoff queue (a busy shard can never stall the
//! accept path), every shard's `SessionManager` shares one
//! [`ModelCache`] so identical predictors resolve to one `HorizonModel`
//! across shards, and a disconnect is torn down entirely on the owning
//! shard — its session *and* its model refcounts are released there, with
//! no cross-shard coordination.  See `docs/SHARDING.md`.

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
    /// Passes of the event loop.  A loop with nothing to do makes none, so
    /// a count that climbs on an idle server is a loop that is spinning.
    pub loop_passes: u64,
    /// Waits that ended because a deadline came due (the pacing gate, a
    /// park expiry, a fault-injection tick) rather than because a socket
    /// became ready.
    pub timer_wakeups: u64,
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
    /// The socket is new, or the last wait reported it readable (or hung
    /// up): read it this pass.
    readable: bool,
    /// The last write hit `WouldBlock`: skip the socket until a wait
    /// reports it writable.
    blocked: bool,
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

    fn queue_frame(&mut self, frame: Vec<u8>) {
        self.outbuf.push_back(frame);
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

/// The write end of a thread's wake socket.  A thread asleep in [`ppoll`]
/// with no deadline is woken by one byte on the read end it polls: the
/// acceptor (and a forwarding sibling shard) wakes a shard after queueing a
/// [`Handoff`], and `shutdown()` wakes every thread once.
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

/// Whether the last [`ppoll`] reported anything for `slot` (bits this
/// build does not name count: better one wasted read than a missed one).
fn reported(slot: &PollFd) -> bool {
    slot.revents() != Some(PollFlags::empty())
}

/// A running event-loop server bound to a local address.
///
/// Dropping the handle (or calling [`shutdown`](TransportServer::shutdown))
/// stops the loop and closes every connection.
pub struct TransportServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
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
        let resume = ResumeTable::new(0, TokenDirectory::default(), RandomState::new(), &config);
        let (waker, wake_rx) = Waker::pair()?;
        let event_loop = EventLoop::new(
            ConnSource::Listen {
                listener,
                accept: Accept::Ready,
            },
            manager,
            Box::new(factory),
            config,
            LoopShared {
                shutdown: Arc::clone(&shutdown),
                wake_rx,
                stats: Arc::clone(&stats),
                snapshot_out: None,
            },
            resume,
        );
        let handle = std::thread::Builder::new()
            .name("khameleon-transport".into())
            .spawn(move || event_loop.run())?;
        Ok(TransportServer {
            local_addr,
            shutdown,
            waker,
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
        let stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        stats.clone()
    }

    /// Stops the event loop and joins its thread.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
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
    /// One per shard loop, then the acceptor's.
    wakers: Vec<Arc<Waker>>,
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
        // can hold every peer's link for cross-shard resume forwarding.
        let mut links = Vec::with_capacity(num_shards);
        let mut receivers = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
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
        for (i, (rx, wake_rx)) in receivers.into_iter().enumerate() {
            let mut manager = manager_factory(i);
            manager.set_model_cache(Arc::clone(&model_cache));
            let stats = Arc::new(Mutex::new(ServerStats::default()));
            let snapshot = Arc::new(Mutex::new(ShardSnapshot::default()));
            shard_stats.push(Arc::clone(&stats));
            snapshots.push(Arc::clone(&snapshot));
            let factory = Arc::clone(&session_factory);
            let event_loop = EventLoop::new(
                ConnSource::Shard {
                    streams: rx,
                    peers: links.clone(),
                    ids: Arc::clone(&ids),
                },
                manager,
                Box::new(move || factory()),
                config.clone(),
                LoopShared {
                    shutdown: Arc::clone(&shutdown),
                    wake_rx,
                    stats,
                    snapshot_out: Some(snapshot),
                },
                ResumeTable::new(i, directory.clone(), token_keys.clone(), &config),
            );
            let handle = std::thread::Builder::new()
                .name(format!("khameleon-shard-io-{i}"))
                .spawn(move || event_loop.run())?;
            handles.push(handle);
        }
        let mut wakers: Vec<Arc<Waker>> = links.iter().map(|l| Arc::clone(&l.waker)).collect();
        let (accept_waker, accept_wake_rx) = Waker::pair()?;
        wakers.push(Arc::new(accept_waker));
        let accept_shutdown = Arc::clone(&shutdown);
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
                            links[next % links.len()].send(Handoff::Fresh(stream));
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
            wakers,
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
            total.loop_passes += s.loop_passes;
            total.timer_wakeups += s.timer_wakeups;
        }
        total
    }

    /// Session-layer counters merged across shards, with the shared model
    /// cache's live-model count — the same shape the in-process
    /// [`ShardedSessionManager`](khameleon_core::ShardedSessionManager)
    /// reports.  The transport-only counters of each [`ShardSnapshot`] are
    /// read here from that shard's [`ServerStats`], their one writer.
    pub fn shard_stats(&self) -> ShardStats {
        let per_shard: Vec<ShardSnapshot> = self
            .snapshots
            .iter()
            .zip(&self.shard_stats)
            .map(|(snapshot, stats)| {
                let mut snap = snapshot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                let s = stats.lock().unwrap_or_else(PoisonError::into_inner);
                snap.parked_sessions = s.parked;
                snap.resumed_sessions = s.resumed;
                snap.backpressure_skips = s.backpressure_skips;
                snap.replayed_events = s.replayed_events;
                snap.shed_blocks = s.shed_blocks;
                snap.refused_sessions = s.refused_sessions;
                snap
            })
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
        for waker in &self.wakers {
            waker.wake();
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

    /// Wall-clock time since loop start; what the pacing gate and the
    /// wait's deadlines run on, lockstep or not.
    fn wall(&self) -> Time {
        Time::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn now(&self, lockstep: bool) -> Time {
        if lockstep {
            // Lockstep runs must be reproducible: freeze the logical clock so
            // a TCP run and an in-process run see identical timestamps.
            return Time::ZERO;
        }
        self.wall()
    }
}

/// Where an event loop gets its connections from: its own listener
/// (standalone mode), or a handoff queue fed by a shared acceptor thread
/// (one shard of a [`ShardedTransportServer`]).
enum ConnSource {
    Listen {
        listener: TcpListener,
        accept: Accept,
    },
    Shard {
        streams: Receiver<Handoff>,
        /// Every shard's handoff link (self included), for forwarding
        /// cross-shard resumes.
        peers: Vec<ShardLink>,
        /// Globally unique session ids, shared by every shard so a session
        /// id names one session across the whole server.
        ids: Arc<AtomicU64>,
    },
}

/// What a standalone loop knows about its listener.
enum Accept {
    /// A wait reported the listener readable (or nothing was tried yet):
    /// accept this pass.
    Ready,
    /// `accept` said `WouldBlock`: wait for the listener to turn readable.
    Drained,
    /// `accept` failed (out of descriptors, say) while the listener stays
    /// readable: leave it out of the next wait and retry one tick later.
    Failed,
}

/// The way to hand a connection to a shard: queue it, then wake the shard's
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

impl ConnSource {
    /// Nonblocking poll for the next incoming connection, if any.
    fn poll(&mut self) -> Option<Handoff> {
        match self {
            ConnSource::Listen { listener, accept } => {
                if !matches!(accept, Accept::Ready) {
                    return None;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => Some(Handoff::Fresh(stream)),
                    Err(e) => {
                        *accept = if e.kind() == ErrorKind::WouldBlock {
                            Accept::Drained
                        } else {
                            Accept::Failed
                        };
                        None
                    }
                }
            }
            ConnSource::Shard { streams, .. } => streams.try_recv().ok(),
        }
    }

    /// In sharded mode, draws the next globally unique session id.
    fn forced_id(&self) -> Option<SessionId> {
        match self {
            ConnSource::Listen { .. } => None,
            ConnSource::Shard { ids, .. } => Some(SessionId(ids.fetch_add(1, Ordering::Relaxed))),
        }
    }
}

/// What an event loop shares with the handle that spawned it.
struct LoopShared {
    shutdown: Arc<AtomicBool>,
    /// Read end of this loop's [`Waker`].
    wake_rx: UnixStream,
    stats: Arc<Mutex<ServerStats>>,
    /// In sharded mode, where this shard publishes its session-layer
    /// counters each pass (merged by `ShardedTransportServer::shard_stats`).
    snapshot_out: Option<Arc<Mutex<ShardSnapshot>>>,
}

struct EventLoop {
    source: ConnSource,
    manager: SessionManager,
    factory: Box<dyn FnMut() -> SessionBuilder + Send>,
    config: TransportConfig,
    conns: Vec<Conn>,
    shared: LoopShared,
    scratch: Vec<u8>,
    clock: ClockSource,
    /// Paced mode: when the next block may go.
    gate: PacingGate,
    /// Resume state — and, while parked, the session itself — for every
    /// token this loop owns.
    resume: ResumeTable,
    /// Accept-order lane counter feeding [`Conn::lane`].
    next_lane: usize,
    /// The wait's descriptor set, rebuilt from `conns` at every wait: the
    /// wake socket, the listener, then one slot per connection in order.
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
        source: ConnSource,
        manager: SessionManager,
        factory: Box<dyn FnMut() -> SessionBuilder + Send>,
        config: TransportConfig,
        shared: LoopShared,
        resume: ResumeTable,
    ) -> EventLoop {
        EventLoop {
            source,
            manager,
            factory,
            config,
            conns: Vec::new(),
            shared,
            scratch: vec![0u8; 64 * 1024],
            clock: ClockSource::new(),
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
            let now = self.clock.now(self.config.lockstep);
            // Reclaim parks whose TTL elapsed on the logical clock.
            let shed = self.resume.evict(now);
            if shed > 0 {
                self.with_stats(|s| s.shed_blocks += shed);
            }
            self.accept_new(now);
            self.read_sockets();
            self.dispatch_handoffs();
            self.schedule_blocks();
            self.flush_sockets();
            self.reap_dead();
            self.publish_stats();
            self.wait();
        }
        // Final flush attempt so Closed frames reach clients that are still
        // reading, then let the sockets drop.
        self.flush_sockets();
        self.publish_stats();
    }

    /// Asks for the next pass no later than `at` on the wall clock.
    fn wake_by(&mut self, at: Time) {
        self.wake_at = Some(self.wake_at.map_or(at, |earlier| earlier.min(at)));
    }

    /// Asks for another pass one [`TICK`](Self::TICK) from now.
    fn tick(&mut self) {
        self.wake_by(self.clock.wall() + Self::TICK);
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
        let mut listener_fd = -1;
        let mut accept_failed = false;
        if let ConnSource::Listen { listener, accept } = &mut self.source {
            if matches!(accept, Accept::Failed) {
                *accept = Accept::Ready;
                accept_failed = true;
            } else {
                listener_fd = listener.as_raw_fd();
            }
        }
        if accept_failed {
            self.tick();
        }
        self.pollfds.clear();
        self.pollfds.push(PollFd::new(
            self.shared.wake_rx.as_raw_fd(),
            PollFlags::POLLIN,
        ));
        self.pollfds
            .push(PollFd::new(listener_fd, PollFlags::POLLIN));
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
            let wall = self.clock.wall();
            self.wake_at
                .map(|at| std::time::Duration::from_micros(at.saturating_sub(wall).as_micros()))
        };
        let ready = ppoll(&mut self.pollfds, timeout);
        if matches!(ready, Ok(0)) {
            if !self.rerun {
                self.with_stats(|s| s.timer_wakeups += 1);
            }
            return;
        }
        // An error (a signal, most likely) reported nothing, so look at
        // everything: a wasted read beats a missed one.
        let all = ready.is_err();
        let hung_up = PollFlags::POLLERR | PollFlags::POLLHUP | PollFlags::POLLNVAL;
        let everything = PollFlags::POLLIN | PollFlags::POLLOUT | hung_up;
        if all || reported(&self.pollfds[0]) {
            drain_wakes(&self.shared.wake_rx, &mut self.scratch);
        }
        if all || reported(&self.pollfds[1]) {
            if let ConnSource::Listen { accept, .. } = &mut self.source {
                *accept = Accept::Ready;
            }
        }
        for (conn, slot) in self.conns.iter_mut().zip(&self.pollfds[2..]) {
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
            self.conns[i].queue_frame(encode_server_event_frame(0, &ServerEvent::Busy));
            self.conns[i].dying = true;
            self.with_stats(|s| {
                s.refused_sessions += 1;
                s.frames_out += 1;
            });
            return false;
        }
        self.conns[i].session = Some(match self.source.forced_id() {
            Some(id) => self.manager.add_session_with_id(id, (self.factory)()),
            None => self.manager.add_session((self.factory)()),
        });
        true
    }

    /// Starts tracking `stream` on the next accept-order lane; returns its
    /// index in `conns`.
    fn push_conn(&mut self, stream: TcpStream) -> usize {
        self.conns.push(Conn::new(stream, self.next_lane));
        self.next_lane += 1;
        self.conns.len() - 1
    }

    fn accept_new(&mut self, now: Time) {
        while let Some(handoff) = self.source.poll() {
            match handoff {
                Handoff::Fresh(stream) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.with_stats(|s| s.accepted += 1);
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
                    self.conns[i].credits = credits;
                    self.conns[i].inbuf.extend(&leftover);
                    self.handle_resume(i, token, last_seq, hops, now);
                    if !self.conns[i].dying && self.conns[i].pending_handoff.is_none() {
                        // Frames buffered behind the Resume travel with the
                        // connection; decode them now.
                        self.drain_frames(i, now);
                    }
                }
            }
        }
    }

    /// Reads the sockets the last wait reported, and only those.
    fn read_sockets(&mut self) {
        let now = self.clock.now(self.config.lockstep);
        for i in 0..self.conns.len() {
            if !std::mem::take(&mut self.conns[i].readable) || !self.conns[i].wants_read() {
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
        self.conns[i].queue_frame(encode_welcome(token, epoch, session));
        self.with_stats(|s| s.frames_out += 1);
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
                let conn = &mut self.conns[i];
                conn.session = Some(id);
                conn.token = Some(token);
                conn.queue_frame(encode_welcome(token, epoch, id));
                let replayed = replay.len() as u64;
                for frame in replay {
                    conn.queue_frame(frame);
                }
                self.with_stats(|s| {
                    s.frames_out += 1 + replayed;
                    s.replayed_events += replayed;
                    s.resumed += 1;
                });
                return;
            }
            Resumed::Refused { shed } => self.with_stats(|s| s.shed_blocks += shed),
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
            if let ConnSource::Shard { peers, .. } = &self.source {
                peers[target].send(Handoff::Resume {
                    stream: conn.stream,
                    token,
                    last_seq,
                    leftover,
                    credits: conn.credits,
                    hops: 1,
                });
            }
        }
    }

    /// Encodes `event` with the connection's next sequence number and
    /// queues it, recording a copy in the replay ring.  Connections that
    /// never said `Hello` use the legacy unsequenced (seq 0) encoding.
    fn queue_event(&mut self, i: usize, event: &ServerEvent) {
        let token = self.conns[i].token;
        let frame = match token.and_then(|t| self.resume.stamp(t, event)) {
            Some((frame, shed)) => {
                if shed > 0 {
                    self.with_stats(|s| s.shed_blocks += shed);
                }
                frame
            }
            None => encode_server_event_frame(0, event),
        };
        self.conns[i].queue_frame(frame);
    }

    fn schedule_blocks(&mut self) {
        let now = self.clock.now(self.config.lockstep);
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
            let wall = self.clock.wall();
            if interval > Duration::ZERO && !self.gate.is_open(wall) {
                self.wake_by(self.gate.next_send());
                break;
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
                // Input (a credit, a first frame) or a drained queue makes a
                // session eligible, and the wait reports both.
                break;
            }
            eligible.sort_unstable();
            match self.manager.next_event_among(now, &eligible) {
                ServerEvent::Idle | ServerEvent::Busy => {
                    // Drained schedulers stay drained until a message
                    // arrives.  Anything else (a backend concurrency limit
                    // that gave the session with work no allowance this
                    // round) may yield a block on the next ask.
                    if !self.manager.all_exhausted(&eligible) {
                        self.tick();
                    }
                    break;
                }
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
                        if self.config.paced {
                            self.gate.note_sent(wall, interval);
                        }
                    }
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
                            self.forget_token(i);
                        }
                        self.with_stats(|s| s.frames_out += 1);
                    }
                }
            }
        }
    }

    /// One step of an injected `Stall`/`Delay` (`stall_ticks`), so a fault
    /// plan's stalls last 500 µs per tick whatever else wakes the loop; also
    /// the retry period after a failed `accept` or a non-final `Idle`.
    const TICK: Duration = Duration(500);

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
                self.pop_flushed(i);
                Some(true)
            }
            FaultKind::Delay { ticks } | FaultKind::Stall { ticks } => {
                // The transport models both as a frozen flush path, thawed
                // by the passes that follow.
                self.conns[i].stall_ticks = ticks;
                self.rerun = true;
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
                self.tick();
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
                    Ok(0) => {
                        self.disconnect(i);
                        break;
                    }
                    Ok(n) => {
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
                    Err(_) => {
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
                let now = self.clock.now(self.config.lockstep);
                self.resume.park(token, session, now)
            }
            // The session is already gone: its resume entry dies with the
            // connection.
            (Some(token), None) => (false, self.resume.forget(token)),
            // Never said `Hello`: dropping the session is the teardown.
            (None, _) => (false, 0),
        };
        self.with_stats(|s| {
            s.disconnected += u64::from(gone);
            s.parked += u64::from(parked);
            s.shed_blocks += shed;
        });
    }

    fn reap_dead(&mut self) {
        self.conns.retain(|c| !(c.dying && c.outbuf.is_empty()));
    }

    fn publish_stats(&mut self) {
        let active = self.conns.iter().filter(|c| !c.dying).count() as u64;
        self.with_stats(|s| {
            s.active = active;
            s.loop_passes += 1;
        });
        if let Some(out) = &self.shared.snapshot_out {
            *out.lock().unwrap_or_else(PoisonError::into_inner) = self.manager.stats_snapshot();
        }
    }

    /// Counter updates are single-field increments, valid at every step, so
    /// a poisoned mutex is recovered like every reader does.
    fn with_stats(&self, f: impl FnOnce(&mut ServerStats)) {
        f(&mut self
            .shared
            .stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner));
    }
}
