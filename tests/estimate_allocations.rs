//! Pins the heap allocations a server makes to answer `POST /v1/estimate`.
//!
//! This binary installs its own counting global allocator, so it holds one
//! test only. Every thread is counted except the client's: the figures are
//! what the event loop and the handler pool spend per request, whatever
//! the client library does to build and read them.

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use eco_chip::serve::{client, ServeConfig, Server};
use eco_chip::techdb::TechDb;
use eco_chip::testcases::catalog;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the client thread, whose allocations are not the server's.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting every allocation and reallocation made
/// outside the client thread.
struct Counting;

fn count() {
    // `try_with` never fails for a `const` cell without a destructor; a
    // thread past its TLS teardown simply counts.
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Server allocations so far.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each upholds that allocator's contract; counting touches
// only an atomic and a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` guarantees are passed on as is.
        unsafe { SystemAllocator.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { SystemAllocator.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is the system
        // allocator, with `layout`; the caller guarantees `new_size`.
        unsafe { SystemAllocator.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from the system allocator with `layout`.
        unsafe { SystemAllocator.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Server allocations per single request: 13.0 measured, all of them the
/// body's decode and the estimate; the HTTP head, the response, the trace
/// ID, the request span and the access log make none. (50.1 before the
/// estimate path was cut down to decode and estimate.)
const PINNED_PER_REQUEST: f64 = 16.0;

/// Server allocations per item of an 8-item batch: 13.4 measured, the
/// items' decode and estimate plus the batch's two arrays. (20.4 before,
/// most of the difference the round trip through the handler pool.)
const PINNED_PER_BATCH_ITEM: f64 = 16.0;

/// Requests of each shape in the measured window: enough that the event
/// loop's 100 ms idle scan, which allocates, averages out.
const REQUESTS: u64 = 1_000;

/// Items per batch body, as in the `estimate_mix` benchmark.
const BATCH_ITEMS: u64 = 8;

/// Server allocations per unit of `units` while `send` runs `REQUESTS`
/// times, after `send` has warmed the memo and every buffer.
fn per_unit(units: u64, mut send: impl FnMut()) -> f64 {
    for _ in 0..10 {
        send();
    }
    let before = allocations();
    for _ in 0..REQUESTS {
        send();
    }
    (allocations() - before) as f64 / (REQUESTS * units) as f64
}

#[test]
fn an_estimate_allocates_only_in_decode_and_estimate() {
    UNCOUNTED.with(|uncounted| uncounted.set(true));
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(1),
        threads: 1,
        max_requests_per_connection: usize::MAX,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let db = TechDb::default();
    let system = catalog::build(&db, "a15-3chiplet").unwrap();
    let single = format!(
        r#"{{"system":{}}}"#,
        serde_json::to_string(&system).unwrap()
    );
    let batch = format!(
        "[{}]",
        vec![single.as_str(); BATCH_ITEMS as usize].join(",")
    );
    let mut connection = client::Connection::open(&addr).unwrap();
    let mut post = |body: &str| {
        let response = connection.post_json("/v1/estimate", body).unwrap();
        assert_eq!(response.status, 200, "{:?}", response.text());
    };

    let per_request = per_unit(1, || post(&single));
    let per_item = per_unit(BATCH_ITEMS, || post(&batch));
    drop(connection);
    handle.shutdown().unwrap();

    assert!(
        per_request <= PINNED_PER_REQUEST,
        "{per_request:.2} allocations per single request, pinned at {PINNED_PER_REQUEST}"
    );
    assert!(
        per_item <= PINNED_PER_BATCH_ITEM,
        "{per_item:.2} allocations per batch item, pinned at {PINNED_PER_BATCH_ITEM}"
    );
}
