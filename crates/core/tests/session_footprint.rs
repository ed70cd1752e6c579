//! What a session costs in heap, silent and busy.
//!
//! The server multiplexes many clients, and most of a large fleet's
//! connections sit idle.  A session's request-indexed state must therefore
//! grow with what it has touched, not with the catalog: the sampler's slot
//! index stays empty until the first prediction and the touched set is one
//! bit a request.  A counting global allocator tracks live heap bytes and
//! objects of the measuring thread inside the measured windows only, so the
//! test harness's own threads never show up in them, and the session layer's shared state — the catalog's `GreedyContext`, the
//! uniform prior and the deduplicated prediction models — is paid once by a
//! warm-up session before measuring.  The manager shares a context between
//! sessions whose gain tables are equal by value, so a session costs the
//! same whether it clones one `UtilityModel` or, like a connection factory,
//! builds its own.
//!
//! A busy session has predicted and been served past a full ring, so its
//! simulated client cache holds a block of every request it pushed.  That
//! residency index is one mask word a request, not a heap object each, and
//! it and the sampler's shared-slot index are open-addressing tables of
//! `u32` ids with parallel value arrays, at most seven eighths full, rather
//! than `HashMap`s of 16-byte buckets.  The scheduler keeps its install
//! buffers between predictions, so what a busy session holds is its
//! high-water mark: about 7.5 KB in 23 objects with a sender queue of 8,
//! which is the scheduler's log of unconfirmed sends (7.6 KB in 24 when
//! the session kept its own copy of the queue in a deque; 8.2 KB in 23
//! with a queue of 32, whose queue and log held 32 entries, and no buffer
//! for the compactions a rollback undoes; 8.7 KB in 24 when the scheduler
//! kept a copy of the sampler's shared-segment order, 10.4 KB in 22 with
//! the `HashMap`s).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use khameleon_core::{
    Bandwidth, CatalogBackend, ClientMessage, Duration, GreedySchedulerConfig, HorizonSlice,
    LinearUtility, PredictionSummary, PredictorState, RequestId, ResponseCatalog, ServerConfig,
    ServerEvent, Session, SessionBuilder, SessionId, SessionManager, SparseDistribution, Time,
    UtilityModel,
};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static OBJECTS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `LIVE` and `OBJECTS` are plain
// statistics.  The
// default `realloc` goes through these two, so it is counted too.
// lint:allow(unsafe-block) -- a counting allocator has to implement the unsafe `GlobalAlloc`
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe-block) -- `GlobalAlloc::alloc` is an unsafe fn; it forwards to `System`
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if measuring() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            OBJECTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // lint:allow(unsafe-block) -- `GlobalAlloc::dealloc` is an unsafe fn; it forwards to `System`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if measuring() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            OBJECTS.fetch_sub(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

thread_local! {
    /// Whether this thread's allocations count: set only around a measured
    /// window, so allocations of the test harness's other threads never
    /// land in one.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn measuring() -> bool {
    MEASURING.try_with(Cell::get).unwrap_or(false)
}

/// Runs `window` with this thread's allocations counted.
fn measured<T>(window: impl FnOnce() -> T) -> T {
    MEASURING.set(true);
    let out = window();
    MEASURING.set(false);
    out
}

const CAP_MBPS: f64 = 16.0;
const BLOCKS: u32 = 8;
const BLOCK_BYTES: u64 = 4_096;
const CACHE_BLOCKS: usize = 1_024;

fn manager(catalog: &Arc<ResponseCatalog>) -> SessionManager {
    SessionManager::weighted_fair(Box::new(CatalogBackend::new(catalog.clone())))
        .with_bandwidth_cap(Bandwidth::from_mbps(CAP_MBPS))
}

fn silent_session(catalog: &Arc<ResponseCatalog>, utility: UtilityModel) -> SessionBuilder {
    Session::builder(utility, catalog.clone()).config(ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks: CACHE_BLOCKS,
            slot_duration: Bandwidth::from_mbps(CAP_MBPS).transmit_time(BLOCK_BYTES),
            ..Default::default()
        },
        ..Default::default()
    })
}

fn utility() -> UtilityModel {
    UtilityModel::homogeneous(&LinearUtility, BLOCKS)
}

/// Live heap bytes each of `count` silent sessions adds to a manager over
/// `requests` requests, after a warm-up session paid for the shared state,
/// and the number of scheduler contexts the manager then holds.  Each
/// session's `UtilityModel` comes from `utility`.
fn bytes_per_silent_session(
    requests: usize,
    count: usize,
    utility: impl Fn() -> UtilityModel,
) -> (usize, usize) {
    let catalog = Arc::new(ResponseCatalog::uniform(requests, BLOCKS, BLOCK_BYTES));
    let mut manager = manager(&catalog);
    manager.add_session(silent_session(&catalog, utility()));
    let before = LIVE.load(Ordering::Relaxed);
    measured(|| {
        for _ in 0..count {
            manager.add_session(silent_session(&catalog, utility()));
        }
    });
    let after = LIVE.load(Ordering::Relaxed);
    let contexts = manager.shared_context_count();
    drop(manager);
    (after.saturating_sub(before) / count, contexts)
}

// The busy case has the shape of kbench's `fleet_inproc` sessions.
const BUSY_REQUESTS: usize = 256;
const BUSY_BLOCKS: u32 = 4;
const BUSY_CACHE_BLOCKS: usize = 64;
const BUSY_BLOCK_BYTES: u64 = 1_000;

fn busy_session(catalog: &Arc<ResponseCatalog>, seed: u64) -> SessionBuilder {
    Session::builder(
        UtilityModel::homogeneous(&LinearUtility, BUSY_BLOCKS),
        catalog.clone(),
    )
    .config(ServerConfig {
        scheduler: GreedySchedulerConfig {
            cache_blocks: BUSY_CACHE_BLOCKS,
            seed,
            slot_duration: Duration::from_millis(1),
            ..Default::default()
        },
        ..Default::default()
    })
}

/// A top-3 prediction around `hot` scaled to 0.9, plus 0.1 of residual mass
/// over the other requests, over four horizon slices.
fn busy_prediction(hot: usize) -> ClientMessage {
    let n = BUSY_REQUESTS;
    let mut entries = vec![
        (RequestId(hot as u32), 0.6 * 0.9),
        (RequestId(((hot + 5) % n) as u32), 0.3 * 0.9),
        (RequestId(((hot + 11) % n) as u32), 0.1 * 0.9),
    ];
    entries.sort_by_key(|&(r, _)| r);
    let slices = [50, 150, 250, 500]
        .iter()
        .map(|&ms| HorizonSlice {
            delta: Duration::from_millis(ms),
            dist: SparseDistribution::from_normalized(n, entries.clone(), 0.1),
        })
        .collect();
    ClientMessage::Predictor(PredictorState::Summary(PredictionSummary::new(
        n,
        slices,
        Time::ZERO,
    )))
}

/// Serves `manager` until every session in `ids` has sent `blocks` blocks.
fn drain_until_sent(manager: &mut SessionManager, ids: &[SessionId], blocks: u64) {
    while ids.iter().any(|&id| {
        manager
            .session(id)
            .is_some_and(|s| s.blocks_sent() < blocks)
    }) {
        let event = manager.next_event(Time::ZERO);
        assert!(
            matches!(event, ServerEvent::Block { .. }),
            "a session with residual mass stopped serving: {event:?}"
        );
    }
}

/// Live heap `(bytes, objects)` each of `count` busy sessions adds to a
/// manager.  Every session predicts, is served until its ring has wrapped,
/// re-predicts and is served a second ring's worth; a warm-up session does
/// the same first, so the deduplicated models are already paid for.
fn heap_per_busy_session(count: usize) -> (usize, usize) {
    let catalog = Arc::new(ResponseCatalog::uniform(
        BUSY_REQUESTS,
        BUSY_BLOCKS,
        BUSY_BLOCK_BYTES,
    ));
    let mut manager = manager(&catalog);
    let run = |manager: &mut SessionManager, ids: &[SessionId]| {
        let ring = BUSY_CACHE_BLOCKS as u64;
        for (hot, sent) in [(0, ring + 1), (48, 2 * ring + 1)] {
            for &id in ids {
                manager.on_message(id, &busy_prediction(hot), Time::ZERO);
            }
            drain_until_sent(manager, ids, sent);
        }
    };
    let warm_up = manager.add_session(busy_session(&catalog, 0));
    run(&mut manager, &[warm_up]);
    let (bytes, objects) = (
        LIVE.load(Ordering::Relaxed),
        OBJECTS.load(Ordering::Relaxed),
    );
    measured(|| {
        let ids: Vec<SessionId> = (1..=count as u64)
            .map(|seed| manager.add_session(busy_session(&catalog, seed)))
            .collect();
        run(&mut manager, &ids);
    });
    let per_session = (
        LIVE.load(Ordering::Relaxed).saturating_sub(bytes) / count,
        OBJECTS.load(Ordering::Relaxed).saturating_sub(objects) / count,
    );
    drop(manager);
    per_session
}

// One test, which measures the busy session too, after the silent ones.
#[test]
fn a_silent_session_costs_what_it_touched_not_the_catalog() {
    let shared = utility();
    let (each, _) = bytes_per_silent_session(4_096, 128, || shared.clone());
    println!("silent session over 4 096 requests: {each} B");
    assert!(
        each <= 4_096,
        "a silent session holds {each} B over 4 096 requests"
    );

    // A connection factory builds a `UtilityModel` per connection; equal
    // models must still share one context rather than each derive its own.
    let (own, contexts) = bytes_per_silent_session(4_096, 128, utility);
    println!("silent session over 4 096 requests, own utility model: {own} B");
    assert_eq!(contexts, 1, "equal utility models share one context");
    assert!(
        own <= 4_096,
        "a silent session with its own utility model holds {own} B over 4 096 requests"
    );

    let n = 65_536;
    let (one, _) = bytes_per_silent_session(n, 1, || shared.clone());
    println!("silent session over {n} requests: {one} B");
    assert!(
        one <= n / 8 + 4_096,
        "a silent session holds {one} B over {n} requests (bound {})",
        n / 8 + 4_096
    );

    let (busy, objects) = heap_per_busy_session(128);
    println!(
        "busy session (256 x 4 blocks, cache 64, ring wrapped): {busy} B in {objects} objects"
    );
    assert!(
        objects <= 32,
        "a busy session holds {objects} live heap objects: is there a heap object per cached request again?"
    );
    assert!(busy <= 7_700, "a busy session holds {busy} B (bound 7 700)");
}
