//! What a response catalog costs in heap.
//!
//! Every server, simulator and benchmark run holds one catalog over the whole
//! request space, so its cost per request is paid 10 000 times at the paper's
//! gallery scale.  A layout is two runs of equal-sized blocks in a `Copy`
//! value, so a catalog is one `Vec` of them: 32 B a request in one allocation.
//! When each layout kept a `Vec` of per-block sizes, the 20-block catalog
//! below cost 200 B and one allocation per request (2 000 000 B in 10 001
//! allocations), and the 8-block uniform one 104 B per request.  A counting
//! global allocator tracks live heap bytes and allocation calls of the
//! measuring thread inside the measured window only, so the test harness's
//! own threads never show up in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use khameleon_core::{RequestId, ResponseCatalog, ResponseLayout};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `LIVE` and `ALLOCS` are plain
// statistics.  The default `realloc` goes through these two, so it is
// counted too.
// lint:allow(unsafe-block) -- a counting allocator has to implement the unsafe `GlobalAlloc`
unsafe impl GlobalAlloc for Counting {
    // lint:allow(unsafe-block) -- `GlobalAlloc::alloc` is an unsafe fn; it forwards to `System`
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if measuring() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // lint:allow(unsafe-block) -- `GlobalAlloc::dealloc` is an unsafe fn; it forwards to `System`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if measuring() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
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

/// Heap bytes a layout may cost on top of its own size.
const PER_REQUEST: usize = 32;
/// Heap bytes a catalog may hold whatever its size.
const CONSTANT: usize = 1_024;

/// Live heap bytes and allocation calls of the catalog `build` returns.
fn footprint(build: impl FnOnce() -> ResponseCatalog) -> (usize, usize) {
    let (bytes, allocs) = (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    let catalog = measured(build);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(bytes);
    let calls = ALLOCS.load(Ordering::Relaxed) - allocs;
    drop(catalog);
    (held, calls)
}

fn assert_within(what: &str, requests: usize, (bytes, allocs): (usize, usize)) {
    println!("{what}: {bytes} B in {allocs} allocation(s) over {requests} requests");
    let bound = PER_REQUEST * requests + CONSTANT;
    assert!(bytes <= bound, "{what} holds {bytes} B (bound {bound})");
    assert!(allocs <= 2, "{what} took {allocs} allocations");
}

#[test]
fn a_catalog_is_one_allocation_of_small_layouts() {
    assert!(std::mem::size_of::<ResponseLayout>() <= PER_REQUEST);

    // The paper's gallery shape: 10 000 images of 1.3–2 MB in 20 blocks.
    let n = 10_000;
    let gallery = footprint(|| {
        ResponseCatalog::new(
            (0..n)
                .map(|i| {
                    let bytes = 1_300_000 + (i as u64 * 7_919) % 700_001;
                    ResponseLayout::split_evenly(RequestId::from(i), bytes, 20)
                })
                .collect(),
        )
    });
    assert_within("split_evenly catalog", n, gallery);

    let n = 4_096;
    assert_within(
        "uniform catalog",
        n,
        footprint(|| ResponseCatalog::uniform(n, 8, 4_096)),
    );
}
