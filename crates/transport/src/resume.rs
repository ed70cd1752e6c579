//! The park → TTL-evict → resume state machine, socket-free.
//!
//! One [`ResumeTable`] per event loop holds everything a resume token
//! stands for: the session id it names, the resume epoch, the sequence
//! counter and bounded replay ring of already-encoded frames, and — while
//! the client is away — the parked [`Session`] itself together with its
//! expiry on the loop's logical clock.  The session and its ring live in the
//! same entry, so "parked but no resume entry" (or the converse) is not a
//! representable state, and TTL eviction and victim shedding are one pass
//! over one table.
//!
//! The table never touches a socket or a `SessionManager`: the caller
//! detaches the session (`SessionManager::detach_session`) before
//! [`park`](ResumeTable::park) and re-attaches what
//! [`resume`](ResumeTable::resume) hands back
//! (`SessionManager::attach_session`).  Every operation returns what it did
//! (frames shed, whether it parked) and counts nothing itself; the event
//! loop is the one writer of the transport counters.  `khameleon-analysis
//! --explore` drives these same operations through every bounded
//! interleaving of a two-shard configuration.  See `docs/RESILIENCE.md`.

use std::collections::hash_map::{self, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use khameleon_core::protocol::{ServerEvent, SessionId};
use khameleon_core::session::Session;
use khameleon_core::types::{Duration, Time};

use crate::server::TransportConfig;
use crate::wire::encode_server_event_frame;

/// Server-global map from resume token to the index of the shard whose
/// table owns it, shared by every shard's [`ResumeTable`].  A table only
/// ever inserts and removes its own tokens, so shards need no other
/// coordination.
pub type TokenDirectory = Arc<Mutex<HashMap<u64, usize>>>;

enum State {
    /// The session is attached to scheduling and driven by a socket.
    Live,
    /// The socket died: the detached session, and when its park expires.
    Parked(Box<Session>, Time),
}

struct Entry {
    token: u64,
    session: SessionId,
    /// Incremented on every successful resume; echoed in `Welcome` so the
    /// client can tell a re-attach from a fresh session.
    epoch: u64,
    /// Next sequence number to stamp (starts at 1; seq 0 is the legacy
    /// unsequenced path).
    next_seq: u64,
    ring: VecDeque<(u64, Vec<u8>)>,
    state: State,
}

/// A read-only view of one table entry, for stats and invariant checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView {
    /// The resume token.
    pub token: u64,
    /// The session the token names.
    pub session: SessionId,
    /// Successful resumes so far.
    pub epoch: u64,
    /// The next sequence number [`ResumeTable::stamp`] will assign.
    pub next_seq: u64,
    /// Whether the session is parked (held by the table) or live.
    pub parked: bool,
}

/// What [`ResumeTable::resume`] decided.
pub enum Resumed {
    /// The token named a parked session whose ring still covers the
    /// client's position.  The caller re-attaches `session` under `id`,
    /// then sends `Welcome { token, epoch, id }` followed by `replay`.
    Attached {
        /// The session's id.
        id: SessionId,
        /// The parked session, detached from scheduling.
        session: Box<Session>,
        /// The entry's epoch after this resume.
        epoch: u64,
        /// Every ring frame past the client's `last_seq`, oldest first.
        replay: Vec<Vec<u8>>,
    },
    /// The token is owned here but cannot be resumed: its session is live
    /// on a socket (never hijacked), or its park had expired or its ring no
    /// longer covered `last_seq` and was reclaimed, shedding `shed` frames.
    Refused {
        /// Undelivered ring frames dropped with a reclaimed park.
        shed: u64,
    },
    /// The token is not in this table; `owner` is the sibling shard the
    /// directory names for it, if any.
    Unknown {
        /// The owning shard's index.
        owner: Option<usize>,
    },
}

/// Resume state for every token one event loop owns, live or parked.  See
/// the module docs.
///
/// `K` keys the token derivation: production tables share one
/// [`RandomState`] per server; the interleaving explorer passes a fixed
/// hasher so its runs are reproducible.
pub struct ResumeTable<K = RandomState> {
    entries: Vec<Entry>,
    /// Entries in [`State::Parked`]; keeps the every-tick
    /// [`evict`](Self::evict) constant-time while nothing is parked.
    parked: usize,
    keys: K,
    shard: usize,
    directory: TokenDirectory,
    park_ttl: Duration,
    max_parked: usize,
    replay_frames: usize,
}

fn lock(directory: &TokenDirectory) -> MutexGuard<'_, HashMap<u64, usize>> {
    directory.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: BuildHasher> ResumeTable<K> {
    /// An empty table for shard `shard` of a server whose shards share
    /// `directory` and `keys`, under `config`'s `park_ttl`,
    /// `max_parked_sessions` and `replay_frames`.
    pub fn new(shard: usize, directory: TokenDirectory, keys: K, config: &TransportConfig) -> Self {
        ResumeTable {
            entries: Vec::new(),
            parked: 0,
            keys,
            shard,
            directory,
            park_ttl: config.park_ttl,
            max_parked: config.max_parked_sessions,
            replay_frames: config.replay_frames,
        }
    }

    fn position(&self, token: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.token == token)
    }

    /// Makes live session `session` resumable: draws a token from the
    /// server's key (re-drawing on the 2⁻⁶⁴ collision with a registered
    /// token), registers it in the directory and returns it.  Unlike the
    /// session id, the token is not computable by another client.
    pub fn mint(&mut self, session: SessionId) -> u64 {
        let mut directory = lock(&self.directory);
        let mut attempt = 0u64;
        let token = loop {
            let token = self.keys.hash_one((session.0, attempt));
            if let hash_map::Entry::Vacant(slot) = directory.entry(token) {
                slot.insert(self.shard);
                break token;
            }
            attempt += 1;
        };
        drop(directory);
        self.entries.push(Entry {
            token,
            session,
            epoch: 0,
            next_seq: 1,
            ring: VecDeque::new(),
            state: State::Live,
        });
        token
    }

    /// The resume epoch of `token`, if this table owns it.
    pub fn epoch(&self, token: u64) -> Option<u64> {
        self.position(token).map(|pos| self.entries[pos].epoch)
    }

    /// Encodes `event` under `token`'s next sequence number and records the
    /// frame in the replay ring.  Returns the frame and how many old frames
    /// the bounded ring shed to make room; `None` if `token` does not name
    /// a live entry (the caller falls back to the unsequenced encoding).
    pub fn stamp(&mut self, token: u64, event: &ServerEvent) -> Option<(Vec<u8>, u64)> {
        let pos = self.position(token)?;
        let entry = &mut self.entries[pos];
        if matches!(entry.state, State::Parked(..)) {
            return None;
        }
        let seq = entry.next_seq;
        entry.next_seq += 1;
        let frame = encode_server_event_frame(seq, event);
        entry.ring.push_back((seq, frame.clone()));
        let mut shed = 0;
        while entry.ring.len() > self.replay_frames {
            entry.ring.pop_front();
            shed += 1;
        }
        Some((frame, shed))
    }

    /// The socket behind `token` died: parks `session` (already detached
    /// from scheduling) until `now + park_ttl`, after reclaiming expired
    /// parks and — if the park table is still full — the park closest to
    /// expiry.  Returns whether the session was parked and how many ring
    /// frames were shed on the way.  With parking disabled (or an unknown
    /// token) the session is dropped and the entry forgotten: a full
    /// teardown.
    pub fn park(&mut self, token: u64, session: Session, now: Time) -> (bool, u64) {
        let mut shed = self.evict(now);
        if self.parked >= self.max_parked {
            if let Some((_, _, victim)) = self.parks().min() {
                shed += self.forget(victim);
            }
        }
        match self.position(token) {
            Some(pos) if self.parked < self.max_parked => {
                let expires = now.saturating_add(self.park_ttl);
                self.entries[pos].state = State::Parked(Box::new(session), expires);
                self.parked += 1;
                (true, shed)
            }
            _ => (false, shed + self.forget(token)),
        }
    }

    /// Resolves a `Resume { token, last_seq }` at logical time `now`; see
    /// [`Resumed`].  On [`Resumed::Attached`] the entry is live again, its
    /// epoch bumped and its ring pruned through `last_seq`.
    pub fn resume(&mut self, token: u64, last_seq: u64, now: Time) -> Resumed {
        let Some(pos) = self.position(token) else {
            let owner = lock(&self.directory).get(&token).copied();
            return Resumed::Unknown {
                owner: owner.filter(|o| *o != self.shard),
            };
        };
        let entry = &mut self.entries[pos];
        let State::Parked(_, expires) = entry.state else {
            return Resumed::Refused { shed: 0 };
        };
        let ring_start = entry.ring.front().map_or(entry.next_seq, |(seq, _)| *seq);
        let gap = last_seq.wrapping_add(1) < ring_start || last_seq >= entry.next_seq;
        if gap || expires <= now {
            return Resumed::Refused {
                shed: self.forget(token),
            };
        }
        let State::Parked(session, _) = std::mem::replace(&mut entry.state, State::Live) else {
            unreachable!("matched as parked above");
        };
        self.parked -= 1;
        entry.epoch += 1;
        while entry.ring.front().is_some_and(|(seq, _)| *seq <= last_seq) {
            entry.ring.pop_front();
        }
        Resumed::Attached {
            id: entry.session,
            session,
            epoch: entry.epoch,
            replay: entry.ring.iter().map(|(_, frame)| frame.clone()).collect(),
        }
    }

    /// Drops `token`'s entry — its directory slot, its ring and, if parked,
    /// the session (releasing its model-cache refcounts).  Returns the
    /// number of undelivered ring frames that went with it; `0` for an
    /// unknown token.
    pub fn forget(&mut self, token: u64) -> u64 {
        let Some(pos) = self.position(token) else {
            return 0;
        };
        let entry = self.entries.swap_remove(pos);
        lock(&self.directory).remove(&token);
        if matches!(entry.state, State::Parked(..)) {
            self.parked -= 1;
        }
        entry.ring.len() as u64
    }

    /// Reclaims every park whose TTL has passed at `now`, returning the
    /// number of undelivered ring frames shed.  Constant-time while nothing
    /// is parked.
    pub fn evict(&mut self, now: Time) -> u64 {
        if self.parked == 0 {
            return 0;
        }
        let expired: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| matches!(e.state, State::Parked(_, expires) if expires <= now))
            .map(|e| e.token)
            .collect();
        expired.into_iter().map(|token| self.forget(token)).sum()
    }

    /// When the next park expires — the earliest `now` at which
    /// [`evict`](Self::evict) reclaims something — or `None` while nothing
    /// is parked.  An event loop that sleeps between passes wakes for it.
    pub fn next_expiry(&self) -> Option<Time> {
        if self.parked == 0 {
            return None;
        }
        self.parks().map(|(expires, _, _)| expires).min()
    }

    /// `(expiry, session, token)` of every parked entry; the minimum is the
    /// park closest to expiry, ties broken by session id.
    fn parks(&self) -> impl Iterator<Item = (Time, SessionId, u64)> + '_ {
        self.entries.iter().filter_map(|e| match e.state {
            State::Parked(_, expires) => Some((expires, e.session, e.token)),
            State::Live => None,
        })
    }

    /// Number of currently parked sessions.
    pub fn num_parked(&self) -> usize {
        self.parked
    }

    /// Every entry, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = EntryView> + '_ {
        self.entries.iter().map(|e| EntryView {
            token: e.token,
            session: e.session,
            epoch: e.epoch,
            next_seq: e.next_seq,
            parked: matches!(e.state, State::Parked(..)),
        })
    }

    /// Checks the table's structural invariants: the parked count matches
    /// the entries, tokens are unique and registered to this shard, and
    /// every ring is strictly increasing, within `replay_frames` and behind
    /// its `next_seq`.  The property test and the interleaving explorer
    /// call this after every operation.
    pub fn check(&self) -> Result<(), String> {
        let parked = self.entries().filter(|e| e.parked).count();
        if parked != self.parked {
            return Err(format!(
                "parked count {} but {parked} parked entries",
                self.parked
            ));
        }
        let directory = lock(&self.directory);
        for (i, entry) in self.entries.iter().enumerate() {
            let token = entry.token;
            if self.entries[..i].iter().any(|e| e.token == token) {
                return Err(format!("token {token:#x} held by two entries"));
            }
            if directory.get(&token) != Some(&self.shard) {
                return Err(format!(
                    "token {token:#x} not registered to shard {}",
                    self.shard
                ));
            }
            let seqs: Vec<u64> = entry.ring.iter().map(|(seq, _)| *seq).collect();
            let increasing = seqs.first() != Some(&0) && seqs.windows(2).all(|w| w[0] < w[1]);
            let behind = seqs.last().is_none_or(|last| *last < entry.next_seq);
            if !increasing || !behind || seqs.len() > self.replay_frames {
                return Err(format!(
                    "replay ring {seqs:?} of token {token:#x} must be strictly increasing, at most {} frames and behind next_seq {}",
                    self.replay_frames, entry.next_seq
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use khameleon_core::block::ResponseCatalog;
    use khameleon_core::server::CatalogBackend;
    use khameleon_core::session::SessionManager;
    use khameleon_core::utility::{LinearUtility, UtilityModel};
    use proptest::prelude::*;

    use crate::wire::{decode_server_frame, FrameBuffer, ServerFrame};

    /// A manager with `n` live sessions over a small catalog, and their ids.
    fn manager(n: usize) -> (SessionManager, Vec<SessionId>) {
        let cat = Arc::new(ResponseCatalog::uniform(20, 2, 1_000));
        let mut mgr = SessionManager::weighted_fair(Box::new(CatalogBackend::new(cat.clone())));
        let ids = (0..n)
            .map(|_| {
                mgr.add_session(Session::builder(
                    UtilityModel::homogeneous(&LinearUtility, 2),
                    cat.clone(),
                ))
            })
            .collect();
        (mgr, ids)
    }

    fn table(ttl: Duration, max_parked: usize, replay_frames: usize) -> ResumeTable {
        ResumeTable::new(
            0,
            TokenDirectory::default(),
            RandomState::new(),
            &TransportConfig {
                park_ttl: ttl,
                max_parked_sessions: max_parked,
                replay_frames,
                ..TransportConfig::default()
            },
        )
    }

    /// Mints a token for `id`, detaches it from `mgr` and parks it at `now`.
    fn park(table: &mut ResumeTable, mgr: &mut SessionManager, id: SessionId, now: Time) -> u64 {
        let token = table.mint(id);
        let session = mgr.detach_session(id).expect("session was live");
        assert_eq!(table.park(token, session, now), (true, 0));
        token
    }

    fn is_parked(table: &ResumeTable, token: u64) -> bool {
        table.entries().any(|e| e.token == token && e.parked)
    }

    fn seq_of(frame: &[u8]) -> u64 {
        let mut buf = FrameBuffer::new();
        buf.extend(frame);
        let body = buf.next_frame().expect("framed").expect("complete");
        match decode_server_frame(&body).expect("decodes") {
            ServerFrame::Event { seq, .. } => seq,
            ServerFrame::Welcome { .. } => panic!("not an event frame"),
        }
    }

    #[test]
    fn park_ttl_evicts_on_the_logical_clock() {
        let (mut mgr, ids) = manager(2);
        let mut table = table(Duration::from_millis(5), 64, 256);
        let token = park(&mut table, &mut mgr, ids[0], Time::ZERO);
        // Before the TTL nothing is evicted and the park is still held.
        assert_eq!(table.evict(Time::from_millis(4)), 0);
        assert!(is_parked(&table, token));
        assert_eq!(table.next_expiry(), Some(Time::from_millis(5)));
        // At/after the TTL the park is reclaimed.
        table.evict(Time::from_millis(5));
        assert!(!is_parked(&table, token));
        assert_eq!(table.num_parked(), 0);
        assert_eq!(table.next_expiry(), None);
        assert!(matches!(
            table.resume(token, 0, Time::from_millis(5)),
            Resumed::Unknown { owner: None }
        ));
        // A resume attempt past the TTL on a still-parked entry fails and
        // reclaims the entry on the spot.
        let token = park(&mut table, &mut mgr, ids[1], Time::ZERO);
        assert!(matches!(
            table.resume(token, 0, Time::from_millis(9)),
            Resumed::Refused { shed: 0 }
        ));
        assert!(!is_parked(&table, token));
        assert_eq!(table.entries().count(), 0);
        assert_eq!(mgr.num_sessions(), 0);
        table.check().expect("invariants");
    }

    #[test]
    fn zero_ttl_parks_expire_immediately() {
        let (mut mgr, ids) = manager(1);
        let mut table = table(Duration::ZERO, 64, 256);
        let token = park(&mut table, &mut mgr, ids[0], Time::ZERO);
        assert!(matches!(
            table.resume(token, 0, Time::ZERO),
            Resumed::Refused { .. }
        ));
        assert!(!is_parked(&table, token));
    }

    #[test]
    fn earliest_expiring_park_is_the_shed_victim() {
        let (mut mgr, ids) = manager(3);
        let mut table = table(Duration::from_millis(10), 2, 256);
        let first = park(&mut table, &mut mgr, ids[1], Time::ZERO);
        let second = park(&mut table, &mut mgr, ids[0], Time::from_millis(3));
        // The table is full: the next park sheds the one closest to expiry.
        let third = park(&mut table, &mut mgr, ids[2], Time::from_millis(4));
        assert!(!is_parked(&table, first));
        assert!(is_parked(&table, second) && is_parked(&table, third));
        assert_eq!(table.num_parked(), 2);
        assert_eq!(table.next_expiry(), Some(Time::from_millis(13)));
        table.check().expect("invariants");
    }

    #[test]
    fn disabled_parking_is_a_full_teardown_that_sheds_the_ring() {
        let (mut mgr, ids) = manager(1);
        let mut table = table(Duration::from_secs(30), 0, 256);
        let token = table.mint(ids[0]);
        table.stamp(token, &ServerEvent::Idle).expect("live entry");
        let session = mgr.detach_session(ids[0]).expect("session was live");
        assert_eq!(table.park(token, session, Time::ZERO), (false, 1));
        assert_eq!(table.entries().count(), 0);
        assert!(lock(&table.directory).is_empty());
    }

    #[test]
    fn stamp_numbers_frames_and_bounds_the_ring() {
        let (_mgr, ids) = manager(1);
        let mut table = table(Duration::from_secs(30), 64, 2);
        assert!(table.stamp(7, &ServerEvent::Idle).is_none());
        let token = table.mint(ids[0]);
        assert_eq!(table.epoch(token), Some(0));
        for expected in 1..=3u64 {
            let (frame, shed) = table.stamp(token, &ServerEvent::Idle).expect("live entry");
            assert_eq!(seq_of(&frame), expected);
            assert_eq!(shed, u64::from(expected > 2), "ring holds two frames");
        }
        let view = table.entries().next().expect("one entry");
        assert_eq!(
            (view.session, view.next_seq, view.parked),
            (ids[0], 4, false)
        );
        assert_eq!(table.forget(token), 2, "the ring went with the entry");
        assert_eq!(table.forget(token), 0);
        assert_eq!(table.epoch(token), None);
    }

    #[test]
    fn resume_replays_past_last_seq_and_refuses_gaps_and_live_tokens() {
        let (mut mgr, ids) = manager(2);
        let mut table = table(Duration::from_secs(30), 64, 2);
        let token = table.mint(ids[0]);
        for _ in 0..3 {
            table.stamp(token, &ServerEvent::Idle);
        }
        // Live on a socket: never hijacked, nothing reclaimed.
        assert!(matches!(
            table.resume(token, 3, Time::ZERO),
            Resumed::Refused { shed: 0 }
        ));
        let session = mgr.detach_session(ids[0]).expect("session was live");
        assert_eq!(table.park(token, session, Time::ZERO), (true, 0));
        assert!(table.stamp(token, &ServerEvent::Idle).is_none(), "parked");
        // The ring holds seqs 2 and 3; a client at seq 2 gets 3 replayed.
        match table.resume(token, 2, Time::ZERO) {
            Resumed::Attached {
                id,
                session,
                epoch,
                replay,
            } => {
                assert_eq!((id, epoch), (ids[0], 1));
                assert_eq!(replay.iter().map(|f| seq_of(f)).collect::<Vec<_>>(), [3]);
                mgr.attach_session(id, *session);
            }
            _ => panic!("expected a re-attach"),
        }
        assert_eq!(table.epoch(token), Some(1));
        assert_eq!(table.num_parked(), 0);
        // A client that missed seq 1 (scrolled out of the ring) cannot be
        // caught up: the park is reclaimed and its ring shed.
        let gapped = table.mint(ids[1]);
        for _ in 0..3 {
            table.stamp(gapped, &ServerEvent::Idle);
        }
        let session = mgr.detach_session(ids[1]).expect("session was live");
        assert_eq!(table.park(gapped, session, Time::ZERO), (true, 0));
        assert!(matches!(
            table.resume(gapped, 0, Time::ZERO),
            Resumed::Refused { shed: 2 }
        ));
        assert_eq!(table.epoch(gapped), None);
        table.check().expect("invariants");
    }

    #[test]
    fn tokens_are_keyed_and_resolve_across_shards_through_the_directory() {
        let directory = TokenDirectory::default();
        let keys = RandomState::new();
        let config = TransportConfig::default();
        let mut shard0 = ResumeTable::new(0, directory.clone(), keys.clone(), &config);
        let mut shard1 = ResumeTable::new(1, directory.clone(), keys, &config);
        let a = shard0.mint(SessionId(0));
        let b = shard1.mint(SessionId(1));
        assert_ne!(a, b);
        // Same session id under another server's key: a different token.
        let mut other = ResumeTable::new(0, TokenDirectory::default(), RandomState::new(), &config);
        assert_ne!(other.mint(SessionId(0)), a);
        assert!(matches!(
            shard1.resume(a, 0, Time::ZERO),
            Resumed::Unknown { owner: Some(0) }
        ));
        assert!(matches!(
            shard0.resume(0xdead, 0, Time::ZERO),
            Resumed::Unknown { owner: None }
        ));
        // A token already in the directory is never handed out twice.
        lock(&directory).insert(shard0.keys.hash_one((7u64, 0u64)), 1);
        assert_eq!(
            shard0.mint(SessionId(7)),
            shard0.keys.hash_one((7u64, 1u64))
        );
        shard0.check().expect("shard 0 invariants");
        shard1.check().expect("shard 1 invariants");
        shard0.forget(a);
        assert_eq!(lock(&directory).get(&a), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `mint`/`stamp`/`park`/`resume`/`evict`/`forget` sequences
        /// keep the table's invariants, the directory equal to the table's
        /// tokens, and every session either live in the manager or parked
        /// in the table — never both, never lost while its entry exists.
        #[test]
        fn random_operation_sequences_keep_the_invariants(
            ops in collection::vec((0u8..6, 0usize..6, 0u64..6), 1..48),
            max_parked in 0usize..4,
        ) {
            let (mut mgr, ids) = manager(6);
            let mut table = table(Duration::from_micros(3), max_parked, 3);
            let mut tokens: Vec<Option<u64>> = vec![None; ids.len()];
            let mut now = Time::ZERO;
            for (op, k, arg) in ops {
                let id = ids[k];
                match (op, tokens[k]) {
                    (0, None) if mgr.session(id).is_some() => tokens[k] = Some(table.mint(id)),
                    (1, Some(token)) => {
                        table.stamp(token, &ServerEvent::Idle);
                    }
                    (2, Some(token)) => {
                        if let Some(session) = mgr.detach_session(id) {
                            table.park(token, session, now);
                        }
                    }
                    (3, Some(token)) => {
                        if let Resumed::Attached { id, session, .. } = table.resume(token, arg, now) {
                            mgr.attach_session(id, *session);
                        }
                    }
                    (4, _) => {
                        now = now.saturating_add(Duration::from_micros(arg));
                        table.evict(now);
                    }
                    (5, Some(token)) => {
                        table.forget(token);
                    }
                    _ => {}
                }
                prop_assert_eq!(table.check(), Ok(()));
                let held: BTreeSet<u64> = table.entries().map(|e| e.token).collect();
                let registered: BTreeSet<u64> = lock(&table.directory).keys().copied().collect();
                prop_assert_eq!(&held, &registered);
                prop_assert!(table.num_parked() <= max_parked);
                for (k, token) in tokens.iter_mut().enumerate() {
                    let entry = token.and_then(|t| table.entries().find(|e| e.token == t));
                    match entry {
                        Some(e) => prop_assert_eq!(e.parked, mgr.session(ids[k]).is_none()),
                        // Evicted, shed or forgotten: the token is dead.
                        None => *token = None,
                    }
                }
            }
        }
    }
}
