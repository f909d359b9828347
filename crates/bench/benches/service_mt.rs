//! Criterion bench: warm-memo plan throughput and latency for the
//! sharded concurrent engine.
//!
//! Two measurements:
//!
//! * *Warm hit* (criterion): a single thread replaying memoized points
//!   through one scratch. The engine plans against devices resolved once
//!   to [`prcost::DeviceHandle`]s, the way the pipeline, the sweep and
//!   `prfpga serve` do, and serves each hit from the scratch's own slots:
//!   the key, one slot compare and the scratch's counter tally, with no
//!   lock or refcount on a shared line.
//! * *Worker scaling* (artifact): 1/4/8/16 `std::thread::scope` workers,
//!   each planning on its own scratch, replaying a mixed
//!   feasible/infeasible warm workload, per-op latency sampled with
//!   `Instant`; throughput plus p50/p99 per worker count. Each row
//!   replays [`REPLAY_OPS`] hits (about 0.3–0.5 s on a 2-vCPU host) and
//!   records the median of [`REPEATS`] replays, so one preemption cannot
//!   halve it.
//!
//! The bench binary installs a counting `#[global_allocator]` and asserts
//! the engine's documented contract that a warm [`Engine::plan_on`] hit
//! performs **zero heap allocation** (a served slot, or the shared memo's
//! shard probe and `Arc` clone where two points share a slot). The
//! artifact lands in `results/BENCH_service.json`; `host_cpus` records the
//! CPUs the scaling rows ran on (rows beyond it time-share).

use criterion::{criterion_group, Criterion};
use fabric::Device;
use prcost::{DeviceHandle, Engine, PlanScratch, PrrRequirements};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};
use synth::{PrmGenerator, SynthReport};

/// Counts every heap allocation made through the global allocator so the
/// warm-hit path can be asserted allocation-free.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The mixed warm workload: the six PRM generators plus synthetic
/// feasible and infeasible reports, on both paper devices. Every point
/// is planned once to warm the memo, then replayed as pure hits.
fn workload() -> Vec<(SynthReport, Device)> {
    let devices = [
        fabric::database::xc5vlx110t(),
        fabric::database::xc6vlx75t(),
    ];
    let generators: Vec<Box<dyn PrmGenerator>> = vec![
        Box::new(FirFilter::paper()),
        Box::new(MipsCore::paper()),
        Box::new(SdramController::paper()),
        Box::new(Uart::standard()),
        Box::new(AesEngine::standard()),
        Box::new(FftCore::standard()),
    ];
    let mut points = Vec::new();
    for device in &devices {
        for generator in &generators {
            points.push((generator.synthesize(device.family()), device.clone()));
        }
        // Padded-fallback points: BRAM/DSP mixes with no exact window.
        for (dsps, brams) in [(0u64, 24u64), (16, 16), (24, 48)] {
            points.push((
                SynthReport {
                    module: format!("padded_d{dsps}_b{brams}"),
                    family: device.family(),
                    lut_ff_pairs: 96,
                    luts: 72,
                    ffs: 72,
                    dsps,
                    brams,
                },
                device.clone(),
            ));
        }
        // Infeasible points: requirements no window on the part satisfies,
        // memoized as `Err` and replayed as hits like any other plan.
        for scale in [1u64, 2] {
            points.push((
                SynthReport {
                    module: format!("oversize_x{scale}"),
                    family: device.family(),
                    lut_ff_pairs: 400_000 * scale,
                    luts: 300_000 * scale,
                    ffs: 300_000 * scale,
                    dsps: 4_000 * scale,
                    brams: 4_000 * scale,
                },
                device.clone(),
            ));
        }
    }
    points
}

fn warm_sharded(points: &[(SynthReport, Device)]) -> Engine {
    let engine = Engine::new();
    let mut scratch = PlanScratch::default();
    for (report, device) in points {
        black_box(engine.plan_arc(report, device, &mut scratch));
    }
    engine
}

/// Each point's requirements and its device resolved on `engine`.
fn resolve(
    engine: &Engine,
    points: &[(SynthReport, Device)],
) -> Vec<(PrrRequirements, DeviceHandle)> {
    points
        .iter()
        .map(|(report, device)| {
            (
                PrrRequirements::from_report(report),
                engine.intern_device(device),
            )
        })
        .collect()
}

fn bench_warm_hits(c: &mut Criterion) {
    let points = workload();
    let sharded = warm_sharded(&points);
    let resolved = resolve(&sharded, &points);

    let mut g = c.benchmark_group("service");
    g.bench_function("warm_hit_sharded", |b| {
        let mut scratch = PlanScratch::default();
        b.iter(|| {
            for (req, device) in &resolved {
                black_box(sharded.plan_on(req, device, &mut scratch));
            }
        })
    });
    g.finish();
}

/// Throughput and latency of one worker count: the median of
/// [`REPEATS`] replays by throughput.
#[derive(Serialize)]
struct ReplayRow {
    workers: usize,
    ops: usize,
    /// Wall time of the median replay.
    seconds: f64,
    plans_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    /// Every replay's throughput, in run order.
    repeat_plans_per_sec: Vec<f64>,
}

#[derive(Serialize)]
struct ServiceBenchArtifact {
    host_cpus: usize,
    devices: Vec<String>,
    distinct_points: usize,
    /// Warm `plan_on` hits replayed under the counting allocator.
    alloc_check_hits: u64,
    /// Heap allocations observed during those hits — asserted zero.
    alloc_check_allocations: u64,
    scaling: Vec<ReplayRow>,
}

fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Warm hits replayed per scaling row.
const REPLAY_OPS: usize = 8_000_000;
/// Replays per scaling row; the row records the median.
const REPEATS: usize = 3;
/// At most this many ops per replay (plus one per worker) are
/// individually timed for the percentiles, evenly spaced; the rest run
/// back to back so the throughput number is not dominated by clock
/// reads (`Instant::now` costs a measurable fraction of a warm hit).
const LATENCY_SAMPLES: usize = 1 << 16;

/// Replay [`REPLAY_OPS`] warm points, in order and round robin over
/// `points`, across `workers` threads; `plan_one` plans the point at an
/// index. Returns throughput and sampled latency percentiles.
fn replay(
    points: usize,
    workers: usize,
    plan_one: &(dyn Fn(usize, &mut PlanScratch) + Sync),
) -> ReplayRow {
    let ops = REPLAY_OPS;
    let per_worker = ops.div_ceil(workers);
    let stride = ops.div_ceil(LATENCY_SAMPLES);
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ops)
            .step_by(per_worker)
            .map(|first| {
                let len = per_worker.min(ops - first);
                scope.spawn(move || {
                    let mut scratch = PlanScratch::default();
                    let mut lat = Vec::with_capacity(len.div_ceil(stride));
                    let mut point = first % points;
                    for n in 0..len {
                        if n % stride == 0 {
                            let t = Instant::now();
                            plan_one(point, &mut scratch);
                            lat.push(t.elapsed().as_secs_f64() * 1e6);
                        } else {
                            plan_one(point, &mut scratch);
                        }
                        point += 1;
                        if point == points {
                            point = 0;
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    ReplayRow {
        workers,
        ops,
        seconds,
        plans_per_sec: ops as f64 / seconds,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        repeat_plans_per_sec: Vec::new(),
    }
}

/// [`REPEATS`] replays at one worker count; the median one, with every
/// replay's throughput.
fn median_replay(
    points: usize,
    workers: usize,
    plan_one: &(dyn Fn(usize, &mut PlanScratch) + Sync),
) -> ReplayRow {
    let mut runs: Vec<ReplayRow> = (0..REPEATS)
        .map(|_| replay(points, workers, plan_one))
        .collect();
    let throughputs = runs.iter().map(|r| r.plans_per_sec).collect();
    runs.sort_by(|a, b| a.plans_per_sec.total_cmp(&b.plans_per_sec));
    let mut median = runs.swap_remove(REPEATS / 2);
    median.repeat_plans_per_sec = throughputs;
    median
}

fn emit_artifact() {
    let points = workload();
    let sharded = warm_sharded(&points);
    let resolved = resolve(&sharded, &points);

    // Zero-allocation warm-hit check: every point is memoized and the
    // scratch is bound by the warm-up round, so each `plan_on` is a served
    // slot, or a shard probe and `Arc` clone where two points share one.
    let mut scratch = PlanScratch::default();
    let check_rounds = 2_000u64;
    for (req, device) in &resolved {
        black_box(sharded.plan_on(req, device, &mut scratch));
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..check_rounds {
        for (req, device) in &resolved {
            black_box(sharded.plan_on(req, device, &mut scratch));
        }
    }
    let alloc_check_allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let alloc_check_hits = check_rounds * points.len() as u64;
    assert_eq!(
        alloc_check_allocations, 0,
        "warm plan_on hits must not allocate ({alloc_check_allocations} allocations \
         over {alloc_check_hits} hits)"
    );

    let plan_sharded = |i: usize, scratch: &mut PlanScratch| {
        let (req, device) = &resolved[i];
        black_box(sharded.plan_on(req, device, scratch));
    };
    let scaling: Vec<ReplayRow> = [1usize, 4, 8, 16]
        .iter()
        .map(|&workers| median_replay(points.len(), workers, &plan_sharded))
        .collect();

    let artifact = ServiceBenchArtifact {
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        devices: vec![
            fabric::database::xc5vlx110t().name().to_string(),
            fabric::database::xc6vlx75t().name().to_string(),
        ],
        distinct_points: points.len(),
        alloc_check_hits,
        alloc_check_allocations,
        scaling,
    };

    println!(
        "warm-hit zero-alloc check: {} hits, {} allocations",
        artifact.alloc_check_hits, artifact.alloc_check_allocations
    );
    for row in &artifact.scaling {
        println!(
            "replay x{:2}: {:9.0} pps (median of {REPEATS}, {:.2} s), p50 {:7.2} us, p99 {:7.2} us",
            row.workers, row.plans_per_sec, row.seconds, row.p50_us, row.p99_us
        );
    }
    bench::write_json("BENCH_service", &artifact);
}

criterion_group!(benches, bench_warm_hits);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
