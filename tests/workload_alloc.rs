//! Building a workload allocates per workload, not per task: module names
//! are interned once per module where they enter, and every task copies
//! the id. A counting `#[global_allocator]` checks that each generator
//! and each derived workload makes as many heap allocations at 10n tasks
//! as at n; it counts per thread, so the harness's other test threads do
//! not disturb it. Simulating them is pinned the same way.

use multitask::{
    simulate_preemptive, simulate_with_scratch, FirstFit, ReuseAware, Scheduler, SimScratch,
};
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

/// Heap allocations made by `f` on this thread; `f`'s result is dropped
/// after counting stops.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = black_box(f());
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    n
}

/// Tasks at the small size; the large size is ten times as many. Large
/// enough that every pool module is drawn at both sizes.
const N: u32 = 2_000;

fn assert_flat(what: &str, build: impl Fn(u32) -> u64) {
    let (small, large) = (build(N), build(10 * N));
    assert_eq!(
        small,
        large,
        "{what}: {small} allocations at {N} tasks, {large} at {}",
        10 * N
    );
}

#[test]
fn generators_allocate_per_workload_not_per_task() {
    let family = Family::Virtex5;
    assert_flat("generate", |n| {
        allocations(|| Workload::generate(3, family, n, 6, 300, 5_000, 50_000))
    });
    assert_flat("generate_heavy_tailed", |n| {
        allocations(|| Workload::generate_heavy_tailed(3, family, n, 6, 300, 5_000, 50_000))
    });
    assert_flat("generate_bursty", |n| {
        allocations(|| Workload::generate_bursty(3, family, n, 6, 300, 5_000, 50_000, 8))
    });
}

#[test]
fn derived_workloads_allocate_per_workload_not_per_task() {
    let device = fabric::device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let system = PrSystem::homogeneous(&device, org, 4, IcapModel::V5_DMA).unwrap();
    let base = |n| Workload::generate(7, device.family(), n, 8, 250, 5_000, 50_000);
    assert_flat("with_deadlines", |n| {
        let w = base(n);
        allocations(|| w.with_deadlines(2.0))
    });
    assert_flat("filter_workload", |n| {
        let w = base(n);
        let kept = allocations(|| system.filter_workload(&w));
        assert!(system.filter_workload(&w).tasks.len() < w.tasks.len());
        kept
    });
}

#[test]
fn released_jobs_allocate_per_task_set_not_per_job() {
    let set = TaskSet::uunifast(11, Family::Virtex5, &TaskSetConfig::default());
    // The horizon sets the job count: 10x the horizon, ~10x the jobs.
    let jobs = |horizon_ms: u64| set.release_jobs(5, horizon_ms * 1_000_000).tasks.len();
    assert!(jobs(1_000) > 9 * jobs(100));
    assert_flat("release_jobs", |n| {
        allocations(|| set.release_jobs(5, u64::from(n) * 50_000))
    });
}

/// Four PRRs on the xc5vsx95t and the `n`-task workload they serve, with
/// priorities 0–3 by task id.
fn pool_workload(n: u32) -> (PrSystem, Workload) {
    let device = fabric::device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let system = PrSystem::homogeneous(&device, org, 4, IcapModel::V5_DMA).unwrap();
    let mut workload = system.filter_workload(&Workload::generate(
        7,
        device.family(),
        n,
        8,
        250,
        5_000,
        50_000,
    ));
    for task in &mut workload.tasks {
        task.priority = (task.id % 4) as u8;
    }
    (system, workload)
}

#[test]
fn a_fixed_pool_run_on_a_warm_scratch_allocates_nothing() {
    for n in [N, 10 * N] {
        let (system, workload) = pool_workload(n);
        let mut scratch = SimScratch::new();
        for scheduler in [&FirstFit as &dyn Scheduler, &ReuseAware] {
            simulate_with_scratch(&system, &workload, scheduler, &mut scratch);
            let run = || simulate_with_scratch(&system, &workload, scheduler, &mut scratch);
            assert_eq!(allocations(run), 0, "{} at {n} tasks", scheduler.name());
        }
    }
}

#[test]
fn a_preemptive_run_allocates_per_run_not_per_task() {
    assert_flat("simulate_preemptive", |n| {
        let (system, workload) = pool_workload(n);
        assert!(simulate_preemptive(&system, &workload).preemptions > 0);
        allocations(|| simulate_preemptive(&system, &workload))
    });
}

/// A feasible cached search builds only its answer: on a warm scratch,
/// its one heap allocation is the winning window's column list. FIR fits
/// exactly at five heights; the BRAM-heavy requirement pads its first two
/// heights and fits exactly above.
#[test]
fn a_feasible_cached_plan_allocates_only_its_window() {
    let device = fabric::device_by_name("xc5vlx110t").unwrap();
    let geometry = DeviceGeometry::new(&device);
    let mut scratch = PlanScratch::default();
    let fir = PrrRequirements::from_report(&PaperPrm::Fir.synth_report(device.family()));
    let bram_heavy = PrrRequirements::new(device.family(), 8, 8, 8, 0, 12);
    for req in [fir, bram_heavy] {
        let mut plan = || prcost::plan_requirements_cached(&req, &device, &geometry, &mut scratch);
        assert!(plan().is_ok(), "{req:?} is feasible");
        assert_eq!(allocations(plan), 1, "{req:?}");
    }
}
