//! What a session that never predicts costs in heap.
//!
//! The server multiplexes many clients, and most of a large fleet's
//! connections sit idle.  A session's request-indexed state must therefore
//! grow with what it has touched, not with the catalog: the sampler's slot
//! index stays empty until the first prediction and the touched set is one
//! bit a request.  A counting global allocator tracks live heap bytes (this
//! file is its own test binary, so it counts only this test), and the
//! session layer's shared state — the catalog's `GreedyContext` and the
//! uniform prior — is paid once by a warm-up session before measuring.  The
//! manager shares a context between sessions whose gain tables are equal by
//! value, so a session costs the same whether it clones one `UtilityModel`
//! or, like a connection factory, builds its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use khameleon_core::{
    Bandwidth, CatalogBackend, GreedySchedulerConfig, LinearUtility, ResponseCatalog, ServerConfig,
    Session, SessionBuilder, SessionManager, UtilityModel,
};

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `LIVE` is a plain statistic.  The
// default `realloc` goes through these two, so it is counted too.
// lint:allow(unsafe-block) -- a counting allocator has to implement the unsafe `GlobalAlloc`
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe-block) -- `GlobalAlloc::alloc` is an unsafe fn; it forwards to `System`
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // lint:allow(unsafe-block) -- `GlobalAlloc::dealloc` is an unsafe fn; it forwards to `System`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    for _ in 0..count {
        manager.add_session(silent_session(&catalog, utility()));
    }
    let after = LIVE.load(Ordering::Relaxed);
    let contexts = manager.shared_context_count();
    drop(manager);
    (after.saturating_sub(before) / count, contexts)
}

// One test, so nothing else in this binary allocates while it measures.
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
}
