//! The shared-stream emission path: a handle held across its entry's
//! eviction, and an allocation audit of the steady state. (The property
//! test of handles against the frozen emitter through random hits,
//! misses and evictions lives with the writer's unit tests.)
//!
//! A warm hit is a refcount bump, so it must not touch the heap. A miss
//! that renders into an evicted, unshared buffer of the right size must
//! not either. A counting `#[global_allocator]` checks both; it counts
//! per thread, so the harness's other test threads do not disturb it.

use bitstream::writer::{reference, STREAM_CAP};
use bitstream::{emit_shared, BitstreamSpec, EmitScratch};
use fabric::database::xc5vlx110t;
use prcost::search::plan_prr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use synth::PaperPrm;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Words of the frozen reference emitter.
fn reference_words(spec: &BitstreamSpec) -> Vec<u32> {
    let mut words = Vec::new();
    reference::emit_into(spec, &mut words).unwrap();
    words
}

/// FIR on xc5vlx110t at `n` placements two columns apart: distinct specs
/// whose streams all have the same length.
fn fir_placements(n: u32) -> Vec<Arc<BitstreamSpec>> {
    let device = xc5vlx110t();
    let plan = plan_prr(&PaperPrm::Fir.synth_report(device.family()), &device).unwrap();
    let spec = BitstreamSpec::from_plan(device.name(), "fir32", plan.organization, &plan.window);
    (0..n)
        .map(|i| {
            Arc::new(BitstreamSpec {
                start_col: spec.start_col + 2 * i,
                ..spec.clone()
            })
        })
        .collect()
}

/// A handle held across its entry's eviction keeps its words, and the
/// cache lets go of it: a held stream is never rendered over.
#[test]
fn held_handle_survives_eviction() {
    let specs = fir_placements(2 * STREAM_CAP as u32);
    let mut scratch = EmitScratch::new();
    let held = emit_shared(&mut scratch, &specs[0]).unwrap();
    // Cycling through the other placements misses every time, so each
    // miss recycles an evicted buffer, except the held one.
    for _ in 0..3 {
        for spec in &specs[1..] {
            assert_eq!(
                *emit_shared(&mut scratch, spec).unwrap(),
                reference_words(spec)
            );
        }
    }
    assert_eq!(
        Arc::strong_count(&held),
        1,
        "the cache still holds the stream"
    );
    assert_eq!(*held, reference_words(&specs[0]));
    // Re-emitting the evicted spec renders a fresh, equal stream.
    let again = emit_shared(&mut scratch, &specs[0]).unwrap();
    assert!(!Arc::ptr_eq(&again, &held));
    assert_eq!(again, held);
}

#[test]
fn warm_hit_allocates_nothing() {
    let spec = &fir_placements(1)[0];
    let mut scratch = EmitScratch::new();
    let cold = emit_shared(&mut scratch, spec).unwrap();
    let mut warm = None;
    let n = allocations(|| warm = Some(emit_shared(&mut scratch, spec).unwrap()));
    assert_eq!(n, 0, "a warm hit allocated {n} times");
    assert!(Arc::ptr_eq(&cold, &warm.unwrap()));
}

#[test]
fn recycled_miss_allocates_nothing() {
    // More equal-length placements than the cache holds: cycling through
    // them misses every time, and each miss renders into the evicted
    // entry's buffer because no handle to it is alive.
    let specs = fir_placements(2 * STREAM_CAP as u32);
    let mut scratch = EmitScratch::new();
    for spec in &specs {
        emit_shared(&mut scratch, spec).unwrap();
    }
    let n = allocations(|| {
        for spec in &specs {
            let words = emit_shared(&mut scratch, spec).unwrap();
            assert!(!words.is_empty());
        }
    });
    assert_eq!(n, 0, "{} recycled misses allocated {n} times", specs.len());
}
