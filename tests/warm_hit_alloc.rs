//! The engine's zero-allocation warm hit: once a point is memoized,
//! planning it again must not touch the heap, whether through a resolved
//! device handle ([`Engine::plan_on`]) or through a `&Device`
//! ([`Engine::plan_arc`], which first resolves the device through the
//! interner). A counting `#[global_allocator]` checks both on every
//! database device; it counts per thread, so the harness's other test
//! threads do not disturb it.

use prfpga::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// Replays of every point per device and entry point.
const ROUNDS: usize = 50;

/// The points planned on `device`: the paper's PRMs, a BRAM/DSP mix with
/// no exact window (padded fallback), and one report no window fits, so
/// the hits replay `Ok` and `Err` plans alike.
fn reports(device: &Device) -> Vec<SynthReport> {
    let family = device.family();
    let mut reports: Vec<SynthReport> = PaperPrm::ALL
        .iter()
        .map(|prm| prm.synth_report(family))
        .collect();
    reports.push(SynthReport::new("padded", family, 96, 72, 72, 16, 16));
    reports.push(SynthReport::new(
        "oversize", family, 500_000, 400_000, 400_000, 5_000, 5_000,
    ));
    reports
}

#[test]
fn warm_hits_do_not_allocate_on_any_database_device() {
    let engine = Engine::new();
    let mut scratch = PlanScratch::default();
    let mut points = 0u64;
    for device in fabric::all_devices() {
        let handle = engine.intern_device(&device);
        let reports = reports(&device);
        let reqs: Vec<PrrRequirements> = reports.iter().map(PrrRequirements::from_report).collect();
        for req in &reqs {
            engine.plan_on(req, &handle, &mut scratch);
        }
        points += reqs.len() as u64;

        let via_handle = allocations(|| {
            for _ in 0..ROUNDS {
                for req in &reqs {
                    black_box(engine.plan_on(req, &handle, &mut scratch));
                }
            }
        });
        let via_device = allocations(|| {
            for _ in 0..ROUNDS {
                for report in &reports {
                    black_box(engine.plan_arc(report, &device, &mut scratch));
                }
            }
        });
        assert_eq!(via_handle, 0, "plan_on hits allocated on {}", device.name());
        assert_eq!(
            via_device,
            0,
            "plan_arc hits allocated on {}",
            device.name()
        );
    }
    // Every measured call was a memo hit, and both outcomes were replayed.
    let c = engine.snapshot().counters;
    assert_eq!(c.plan_builds, points);
    assert_eq!(c.plan_cache_hits, 2 * ROUNDS as u64 * points);
    assert!(c.plans_feasible > 0 && c.plans_infeasible > 0);
}
