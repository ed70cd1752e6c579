//! The system the explorer model-checks: the *production* park → TTL-evict →
//! resume code, driven by abstract actions.
//!
//! "Model" here is the model checker's word (as in `loom::model`), not a
//! re-implementation: [`ResumeHarness`] owns N × (`SessionManager`,
//! [`ResumeTable`]) sharing one token directory and one `ModelCache` — one
//! pair per transport shard — and its actions call exactly what the
//! transport's event loop calls: `detach_session` + `ResumeTable::park` when
//! a socket dies, `ResumeTable::resume` + `attach_session` on a `Resume`
//! frame, `stamp` per downlink event, `evict` per tick.  It defines no
//! session, park-table or ring type of its own.  What it adds is the
//! scripting (per-client programs, a clock process) and the invariants,
//! stated against the real state on every explored path:
//!
//! 1. **session state / model refcounts** — every entry's session is live
//!    in its shard's manager XOR parked in its table, and
//!    `ModelCache::live_models()` equals the number of live + parked
//!    sessions (each is given a prediction no other session shares);
//! 2. **token-directory consistency** — the shared directory is exactly the
//!    set of (token → owning shard) pairs of all table entries;
//! 3. **replay-ring seq monotonicity** — [`ResumeTable::check`] (rings
//!    strictly increasing, within `replay_frames`, behind `next_seq`) and no
//!    session's `next_seq` ever decreasing.
//!
//! A [`Fault`] breaks one class at a time *from the harness side* — by
//! misusing the production API the way a buggy event loop could — so the
//! explorer's self-check proves each class is enforced without a single
//! fault branch in production code.  Not modelled (ROADMAP 5a): the
//! cross-shard handoff hop (every client reconnects to its own shard) and
//! 3–4-shard configurations, which need state hashing.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::predictor::PredictorState;
use khameleon_core::protocol::{ClientMessage, ServerEvent, SessionId};
use khameleon_core::scheduler::ModelCache;
use khameleon_core::server::{CatalogBackend, ServerConfig};
use khameleon_core::session::{Session, SessionManager};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};
use khameleon_transport::resume::{EntryView, ResumeTable, Resumed, TokenDirectory};
use khameleon_transport::TransportConfig;

use crate::explore::Explore;

/// The fixed token key: explorations are reproducible down to the token
/// values in a violation report.
type FixedKey = BuildHasherDefault<DefaultHasher>;

/// The per-client operation a client process performs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// Deliver one scheduled event (stamps the next sequence number).
    Emit,
    /// The socket dies after the handshake: park the session.
    Park,
    /// Reconnect and attempt a token resume (fresh fallback on failure).
    Resume,
}

/// One schedulable transition of the park/evict/resume machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Action {
    /// Client process `proc`, whose session lives on `shard`, performs `op`.
    Session {
        /// Index of the client process.
        proc: usize,
        /// The shard owning the process's session.
        shard: usize,
        /// The operation.
        op: Op,
    },
    /// Advance the logical clock one tick.
    Tick,
    /// Run the TTL sweep on one shard.
    Evict {
        /// The swept shard.
        shard: usize,
    },
}

/// A deliberate misuse of the production API by the harness, used by the
/// explorer's self-check to prove each invariant class is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// After a TTL sweep, the evicted tokens are put back in the directory
    /// (class 2).
    LeakDirectoryOnEvict,
    /// A successful resume is treated as a failed one: the client gets a
    /// fresh session while the re-attached one is kept alive, so its model
    /// references are never released (class 1).
    DoubleRefOnResume,
    /// A resume mints a second entry for the parked session, restarting
    /// its sequence numbers at 1 (class 3).
    ResetSeqOnResume,
}

impl Fault {
    /// Every seeded fault, one per invariant class.
    pub const ALL: [Fault; 3] = [
        Fault::LeakDirectoryOnEvict,
        Fault::DoubleRefOnResume,
        Fault::ResetSeqOnResume,
    ];
}

/// One client process: its script position and the session it drives.
#[derive(Clone, Copy)]
struct Client {
    pc: usize,
    shard: usize,
    session: SessionId,
    token: u64,
    /// The last sequence number the client saw before its socket died (it
    /// loses everything sent after its last handshake).
    last_seq: u64,
}

/// The harness is single-threaded: nothing can panic holding the directory.
const POISONED: &str = "the token directory lock is never poisoned";
/// What every client runs, in order.
const SCRIPT: [Op; 4] = [Op::Emit, Op::Park, Op::Resume, Op::Emit];
/// Requests in the catalog: an upper bound on the session ids one
/// exploration hands out, so every session can predict "its own" request.
const CATALOG_REQUESTS: usize = 16;

/// The explorable system.  See the module docs.
pub struct ResumeHarness {
    managers: Vec<SessionManager>,
    tables: Vec<ResumeTable<FixedKey>>,
    directory: TokenDirectory,
    cache: Arc<ModelCache>,
    catalog: Arc<ResponseCatalog>,
    /// Logical time in ticks (one tick = one microsecond; the TTL is one).
    clock: u64,
    clients: Vec<Client>,
    /// The clock process runs `rounds` × `[Tick, Evict(0), .., Evict(N-1)]`.
    rounds: usize,
    clock_pc: usize,
    next_id: u64,
    /// The highest `next_seq` each session has reached (invariant 3).
    seq_floor: BTreeMap<SessionId, u64>,
    fault: Option<Fault>,
    /// Sessions a seeded fault keeps alive behind the system's back.
    leaked: Vec<Session>,
}

impl ResumeHarness {
    /// The acceptance configuration: two shards, one client per shard
    /// running `[Emit, Park, Resume, Emit]`, a clock process running two
    /// rounds of `[Tick, Evict(0), Evict(1)]`, a TTL of one tick and a
    /// two-frame replay ring.  Every park/evict/resume race is reachable.
    pub fn two_shard() -> Self {
        Self::configured(2, 1, 2)
    }

    /// A harness with `shards` shards, `clients_per_shard` client processes
    /// per shard, and `rounds` tick+sweep rounds.
    pub fn configured(shards: usize, clients_per_shard: usize, rounds: usize) -> Self {
        let config = TransportConfig {
            park_ttl: Duration::from_micros(1),
            replay_frames: 2,
            ..TransportConfig::default()
        };
        let mut harness = ResumeHarness {
            managers: Vec::new(),
            tables: Vec::new(),
            directory: TokenDirectory::default(),
            cache: ModelCache::new(),
            catalog: Arc::new(ResponseCatalog::uniform(CATALOG_REQUESTS, 2, 1_000)),
            clock: 0,
            clients: Vec::new(),
            rounds,
            clock_pc: 0,
            next_id: 0,
            seq_floor: BTreeMap::new(),
            fault: None,
            leaked: Vec::new(),
        };
        for shard in 0..shards {
            let backend = CatalogBackend::new(harness.catalog.clone());
            let mut manager = SessionManager::weighted_fair(Box::new(backend));
            manager.set_model_cache(harness.cache.clone());
            harness.managers.push(manager);
            let directory = harness.directory.clone();
            let table = ResumeTable::new(shard, directory, FixedKey::default(), &config);
            harness.tables.push(table);
        }
        for p in 0..shards * clients_per_shard {
            let shard = p % shards;
            let (session, token) = harness.admit(shard);
            harness.clients.push(Client {
                pc: 0,
                shard,
                session,
                token,
                last_seq: 0,
            });
        }
        harness
    }

    /// Seed one deliberate fault (explorer self-check).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    fn now(&self) -> Time {
        Time::from_micros(self.clock)
    }

    fn entries(&self) -> impl Iterator<Item = (usize, EntryView)> + '_ {
        let per_shard = self.tables.iter().enumerate();
        per_shard.flat_map(|(shard, table)| table.entries().map(move |e| (shard, e)))
    }

    /// Admits a brand-new session on `shard` the way the event loop does
    /// for a `Hello`: a globally unique id, a session, a minted token — plus
    /// a prediction no other session shares, so it holds a model of its own.
    fn admit(&mut self, shard: usize) -> (SessionId, u64) {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        // A short horizon keeps the ~10^5 session builds of one sweep cheap;
        // nothing explored here depends on what gets scheduled.
        let mut config = ServerConfig::default();
        config.scheduler.cache_blocks = 8;
        let utility = UtilityModel::homogeneous(&LinearUtility, 2);
        let builder = Session::builder(utility, self.catalog.clone()).config(config);
        self.managers[shard].add_session_with_id(id, builder);
        let own = ClientMessage::Predictor(PredictorState::LastRequest(RequestId(id.0 as u32)));
        let now = self.now();
        self.managers[shard].on_message(id, &own, now);
        (id, self.tables[shard].mint(id))
    }

    /// A resume found nothing to re-attach: the client restarts fresh.
    fn fresh(&mut self, p: usize) {
        let (session, token) = self.admit(self.clients[p].shard);
        let client = &mut self.clients[p];
        *client = Client {
            session,
            token,
            last_seq: 0,
            ..*client
        };
    }

    fn resume(&mut self, p: usize) {
        let client = self.clients[p];
        let now = self.now();
        let table = &mut self.tables[client.shard];
        if self.fault == Some(Fault::ResetSeqOnResume) {
            table.mint(client.session);
        }
        match table.resume(client.token, client.last_seq, now) {
            Resumed::Attached { session, .. } if self.fault == Some(Fault::DoubleRefOnResume) => {
                self.leaked.push(*session);
                self.fresh(p);
            }
            Resumed::Attached {
                id,
                session,
                replay,
                ..
            } => {
                self.managers[client.shard].attach_session(id, *session);
                self.clients[p].last_seq += replay.len() as u64;
            }
            Resumed::Refused { .. } | Resumed::Unknown { .. } => self.fresh(p),
        }
    }

    fn evict(&mut self, shard: usize) {
        let before: Vec<u64> = self.tables[shard].entries().map(|e| e.token).collect();
        let now = self.now();
        self.tables[shard].evict(now);
        if self.fault == Some(Fault::LeakDirectoryOnEvict) {
            // Tokens the sweep kept are still registered; only the evicted
            // ones come back.
            let mut directory = self.directory.lock().expect(POISONED);
            for token in before {
                directory.entry(token).or_insert(shard);
            }
        }
    }
}

impl Explore for ResumeHarness {
    type Action = Action;

    fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (proc, client) in self.clients.iter().enumerate() {
            let Some(&op) = SCRIPT.get(client.pc) else {
                continue;
            };
            let shard = client.shard;
            let live = self.managers[shard].session(client.session).is_some();
            // Emit/Park need the session live; Resume needs it gone
            // (parked or already evicted).
            if live != (op == Op::Resume) {
                out.push(Action::Session { proc, shard, op });
            }
        }
        let round = self.tables.len() + 1;
        if self.clock_pc < self.rounds * round {
            out.push(match self.clock_pc % round {
                0 => Action::Tick,
                k => Action::Evict { shard: k - 1 },
            });
        }
        out
    }

    fn apply(&mut self, action: Action) {
        // Record how far every session's numbering got *before* this step,
        // so the invariant can tell a counter that went backwards.
        let reached: Vec<EntryView> = self.entries().map(|(_, e)| e).collect();
        for entry in reached {
            let floor = self.seq_floor.entry(entry.session).or_insert(0);
            *floor = (*floor).max(entry.next_seq);
        }
        let now = self.now();
        match action {
            Action::Session { proc, op, .. } => {
                self.clients[proc].pc += 1;
                let client = self.clients[proc];
                let table = &mut self.tables[client.shard];
                match op {
                    Op::Emit => {
                        table.stamp(client.token, &ServerEvent::Idle);
                    }
                    Op::Park => {
                        let manager = &mut self.managers[client.shard];
                        if let Some(detached) = manager.detach_session(client.session) {
                            table.park(client.token, detached, now);
                        }
                    }
                    Op::Resume => self.resume(proc),
                }
            }
            Action::Tick => {
                self.clock_pc += 1;
                self.clock += 1;
            }
            Action::Evict { shard } => {
                self.clock_pc += 1;
                self.evict(shard);
            }
        }
    }

    fn invariant(&self) -> Result<(), String> {
        // 1. Session state and model refcounts.
        let live: usize = self.managers.iter().map(|m| m.num_sessions()).sum();
        let parked: usize = self.tables.iter().map(|t| t.num_parked()).sum();
        let models = self.cache.live_models();
        if models != live + parked {
            return Err(format!(
                "model refcount imbalance: the cache holds {models} live models, {live} sessions are live and {parked} parked"
            ));
        }
        for (shard, entry) in self.entries() {
            let live = self.managers[shard].session(entry.session).is_some();
            if live == entry.parked {
                let which = if live { "both" } else { "neither" };
                return Err(format!(
                    "session {} is {which} live and parked",
                    entry.session
                ));
            }
        }
        // 2. Token-directory consistency.
        let expected: BTreeMap<u64, usize> = self.entries().map(|(s, e)| (e.token, s)).collect();
        if expected.len() != self.entries().count() {
            return Err("one token held by two entries".to_string());
        }
        let directory: BTreeMap<u64, usize> = self
            .directory
            .lock()
            .expect(POISONED)
            .clone()
            .into_iter()
            .collect();
        if expected != directory {
            return Err(format!(
                "token directory drift: directory has {} entries, tables imply {}",
                directory.len(),
                expected.len()
            ));
        }
        // 3. Replay-ring seq monotonicity.
        for table in &self.tables {
            table.check()?;
        }
        // 4. Each manager's ready index agrees with its live table.
        for manager in &self.managers {
            manager.check()?;
        }
        for (_, entry) in self.entries() {
            let floor = self.seq_floor.get(&entry.session).copied().unwrap_or(0);
            if entry.next_seq < floor {
                return Err(format!(
                    "next_seq of session {} went backwards ({} after {floor})",
                    entry.session, entry.next_seq
                ));
            }
        }
        Ok(())
    }

    fn dependent(a: Action, b: Action) -> bool {
        use Action::{Evict, Session, Tick};
        match (a, b) {
            // The clock process's own actions are program-ordered.
            (Tick, Tick) | (Tick, Evict { .. }) | (Evict { .. }, Tick) => true,
            // Sweeps share the directory and the model cache.
            (Evict { .. }, Evict { .. }) => true,
            // Park reads the clock (deadline); Resume compares against it.
            (Tick, Session { op, .. }) | (Session { op, .. }, Tick) => {
                matches!(op, Op::Park | Op::Resume)
            }
            // A sweep touches a shard's table and the shared
            // directory/cache; Park feeds the table, Resume races the
            // reclaim.
            (Evict { shard }, Session { op, shard: s, .. })
            | (Session { op, shard: s, .. }, Evict { shard }) => match op {
                Op::Park => shard == s,
                Op::Resume => true,
                Op::Emit => false,
            },
            (Session { proc: p, .. }, Session { proc: q, .. }) if p == q => true,
            (
                Session {
                    op: o1, shard: s1, ..
                },
                Session {
                    op: o2, shard: s2, ..
                },
            ) => {
                match (o1, o2) {
                    // Resumes share the directory and the model cache.
                    (Op::Resume, Op::Resume) => true,
                    // A resume's fresh fallback inserts into its shard's
                    // live table; a same-shard park mutates it too.
                    (Op::Resume, Op::Park) | (Op::Park, Op::Resume) => s1 == s2,
                    _ => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one fixed schedule to completion, checking invariants.
    fn run_schedule(mut m: ResumeHarness, prefer_clock: bool) -> ResumeHarness {
        loop {
            let enabled = m.enabled();
            if enabled.is_empty() {
                break;
            }
            let pick = if prefer_clock {
                *enabled
                    .iter()
                    .find(|a| !matches!(a, Action::Session { .. }))
                    .unwrap_or(&enabled[0])
            } else {
                enabled[0]
            };
            m.apply(pick);
            m.invariant().expect("invariant holds on legal schedules");
        }
        m
    }

    /// Client `p` performs `want`, which must be enabled.
    fn step(m: &mut ResumeHarness, p: usize, want: Op) {
        let a = m
            .enabled()
            .into_iter()
            .find(|a| matches!(a, Action::Session { proc, op, .. } if *proc == p && *op == want))
            .expect("action enabled");
        m.apply(a);
    }

    /// Successful resumes so far: every one bumped its entry's epoch.
    fn resumed(m: &ResumeHarness) -> u64 {
        m.entries().map(|(_, e)| e.epoch).sum()
    }

    /// Sessions admitted after the initial ones: each is a fresh fallback.
    fn fresh_fallbacks(m: &ResumeHarness) -> u64 {
        m.next_id - m.clients.len() as u64
    }

    #[test]
    fn session_first_schedule_resumes_everyone() {
        let m = run_schedule(ResumeHarness::two_shard(), false);
        assert_eq!(resumed(&m), 2);
        assert_eq!(fresh_fallbacks(&m), 0);
        // Each client lost the frame sent before its socket died and got it
        // back from the real replay ring; its session kept its numbering.
        assert!(m.clients.iter().all(|c| c.last_seq == 1));
        assert!(m.entries().all(|(_, e)| e.next_seq == 3 && !e.parked));
    }

    #[test]
    fn clock_first_schedule_evicts_and_falls_back_fresh() {
        // Once both clients are parked, clock-greedy scheduling runs the
        // ticks and sweeps before any resume, so the parks expire and the
        // resumes fall back fresh.
        let mut m = ResumeHarness::two_shard();
        for p in 0..2 {
            step(&mut m, p, Op::Emit);
            step(&mut m, p, Op::Park);
        }
        let m = run_schedule(m, true);
        assert_eq!((resumed(&m), fresh_fallbacks(&m)), (0, 2));
        assert_eq!(m.entries().count(), 2, "evicted entries are gone");
        assert!(m
            .entries()
            .all(|(_, e)| e.session.0 >= 2 && e.next_seq == 2));
    }

    #[test]
    fn configured_scales_processes_and_counters_accumulate() {
        let m = run_schedule(ResumeHarness::configured(2, 2, 2), false);
        assert_eq!(m.clients.len(), 4);
        assert_eq!(resumed(&m) + fresh_fallbacks(&m), 4);
        assert_eq!(m.cache.live_models(), 4, "one model per session");
    }

    #[test]
    fn seeded_bugs_break_exactly_one_invariant() {
        // Park both, expire via ticks, sweep: the leak fault leaves a stale
        // directory entry behind.
        let mut m = ResumeHarness::two_shard().with_fault(Fault::LeakDirectoryOnEvict);
        for p in 0..2 {
            step(&mut m, p, Op::Emit);
            step(&mut m, p, Op::Park);
        }
        m.apply(Action::Tick);
        m.invariant().expect("nothing evicted yet");
        m.apply(Action::Evict { shard: 0 });
        let err = m.invariant().expect_err("leaked directory entry");
        assert!(err.contains("token directory drift"), "{err}");
        assert_eq!(m.tables[0].entries().count(), 0, "the park was evicted");
    }

    #[test]
    fn reset_seq_bug_breaks_ring_monotonicity() {
        let mut m = ResumeHarness::two_shard().with_fault(Fault::ResetSeqOnResume);
        // Emit, park, resume session 0 without letting the TTL lapse.
        step(&mut m, 0, Op::Emit);
        step(&mut m, 0, Op::Park);
        m.invariant().expect("parked cleanly");
        step(&mut m, 0, Op::Resume);
        let err = m.invariant().expect_err("seq counter restarted");
        assert!(err.contains("next_seq"), "{err}");
    }

    #[test]
    fn double_ref_bug_breaks_refcount_balance() {
        // A failed resume is harmless under this fault: park, expire,
        // sweep, then resume falls back fresh and releases everything.
        let mut m = ResumeHarness::two_shard().with_fault(Fault::DoubleRefOnResume);
        step(&mut m, 0, Op::Emit);
        step(&mut m, 0, Op::Park);
        m.apply(Action::Tick);
        m.apply(Action::Evict { shard: 0 });
        step(&mut m, 0, Op::Resume);
        m.invariant()
            .expect("fresh fallback after eviction is balanced");
        // A successful one keeps the re-attached session alive next to the
        // fresh one.
        step(&mut m, 1, Op::Emit);
        step(&mut m, 1, Op::Park);
        m.apply(Action::Evict { shard: 1 });
        m.invariant().expect("parked at tick 1, not yet expired");
        step(&mut m, 1, Op::Resume);
        let err = m.invariant().expect_err("session kept alive");
        assert!(err.contains("refcount imbalance"), "{err}");
    }
}
