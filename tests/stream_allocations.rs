//! Pins the heap allocations of a streamed sweep.
//!
//! This binary installs its own counting global allocator, so it holds one
//! test only: the count is kept per thread, and the serial engine evaluates
//! and emits on the calling thread, so the figures below are exact and
//! repeat run after run.

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;

use eco_chip::core::sweep::{LineEncoder, Shard, SweepAxis, SweepContext, SweepEngine, SweepSink};
use eco_chip::core::sweep::{SweepPoint, SweepSpec};
use eco_chip::core::{EcoChip, EcoChipError};
use eco_chip::design::VolumeScenario;
use eco_chip::techdb::TechDb;
use eco_chip::testcases::catalog;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// on the current thread.
struct Counting;

fn count() {
    // `try_with` never fails for a `const` cell without a destructor; a
    // thread past its TLS teardown simply goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each upholds that allocator's contract; counting touches
// only a thread-local `Cell` and never allocates.
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

/// Allocations per point of the whole stream below (engine, encoder and
/// wire buffer): 446 allocations over the 1,024 points, in debug and
/// release builds alike (11,407 while the engine built every point as a
/// fresh owned value). The engine fills one batch of reused point slots,
/// so nearly all that remain are the first chunk's 32 slots growing to
/// the system's size (11 each: the label, the system's name, chiplet list
/// and three chiplet names, the report's name, chiplet list and three
/// names); the rest are the first point's full estimate and the stream's
/// set-up (cursor, walker, slot lists, encoder and wire buffers). No point
/// after the first chunk allocates. A change that adds per-point
/// allocations fails here; one that removes some should lower the pin.
const PINNED_PER_POINT: f64 = 0.436;

/// The NDJSON sink of the HTTP sweep stream in miniature: each batch is
/// encoded line by line into one reused wire buffer. It records the
/// allocations each re-priced (marked) line cost.
#[derive(Default)]
struct WireSink {
    encoder: LineEncoder,
    wire: Vec<u8>,
    marked: usize,
    marked_allocations: u64,
}

impl SweepSink for WireSink {
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        repriced: &[bool],
    ) -> Result<(), EcoChipError> {
        self.wire.clear();
        for (point, &marked) in points.iter().zip(repriced) {
            let before = allocations();
            let line = self
                .encoder
                .encode(point, marked)
                .map_err(|e| EcoChipError::Io(e.to_string()))?;
            if marked {
                self.marked += 1;
                self.marked_allocations += allocations() - before;
            }
            self.wire.extend_from_slice(line.as_bytes());
            self.wire.push(b'\n');
        }
        Ok(())
    }
}

#[test]
fn a_scalar_sweep_stream_allocates_nothing_per_re_priced_line() {
    // The `sweep_stream` benchmark's shape at 32 × 32: `ga102-3chiplet`
    // over lifetimes on a 0.05-year grid × reuse ratios on a 0.25 grid.
    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").unwrap();
    let years: Vec<f64> = (0..32).map(|j| 0.5 + 0.05 * f64::from(j)).collect();
    let ratios: Vec<f64> = (0..32).map(|j| 0.25 * f64::from(j + 1)).collect();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::lifetimes_years(&years))
        .axis(SweepAxis::reuse_ratios(
            VolumeScenario::default().system_volume,
            &ratios,
        ));
    let (estimator, context) = (EcoChip::default(), SweepContext::new());
    let mut sink = WireSink::default();
    let before = allocations();
    let emitted = SweepEngine::serial()
        .stream(&estimator, &spec, Shard::FULL, &context, None, &mut sink)
        .unwrap();
    let per_point = (allocations() - before) as f64 / emitted as f64;
    println!("{per_point:.3} allocations per point");
    assert_eq!(emitted, 1024);
    // Every step is a scalar step; only the first of each 32-point claim
    // is unmarked.
    assert_eq!(sink.marked, 1024 - 32);
    assert_eq!(sink.marked_allocations, 0);
    assert!(
        per_point <= PINNED_PER_POINT,
        "{per_point:.3} allocations per point, pinned at {PINNED_PER_POINT}"
    );
}
