//! Criterion bench: cold-plan latency and sweep thread-scaling for the
//! composition index vs the frozen seed window memo.
//!
//! *Cold plan*: plan each paper PRM on the paper's Virtex-5 part
//! (XC5VLX110T, 63 columns) with per-plan-fresh search state — a fresh
//! `fabric::reference::MemoGeometry` (the seed's mutex-guarded memo,
//! every miss an O(width²) column scan) against a fresh
//! `fabric::DeviceGeometry` (the composition index; the build cost is
//! charged to the indexed side). The BRAM-heavy PRMs have no exact
//! window for their composition on this part, so the seed path pays the
//! full padded-fallback enumeration through cold memo misses, while the
//! index path scans one `(extra DSP, extra BRAM)` row per probe.
//!
//! *Sweep scaling*: a replicated (PRM × device) grid planned by explicit
//! `std::thread::scope` worker teams (the vendored rayon shim cannot vary
//! its pool size), all workers sharing one prebuilt search structure per
//! device: the seed memo serializes on its internal mutex, the index is
//! lock-free. Throughput is reported per worker count for both.
//!
//! Besides the criterion numbers, a `BENCH_window.json` artifact with the
//! cold-plan speedup and the scaling table is written to `results/`.

use criterion::{criterion_group, Criterion};
use fabric::reference::MemoGeometry;
use fabric::{Device, DeviceGeometry, Window, WindowRequest};
use prcost::search::plan_prr_via_finder;
use prcost::{plan_prr_cached, PlanScratch};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};
use synth::{PrmGenerator, SynthReport};

fn generators() -> Vec<Box<dyn PrmGenerator + Sync>> {
    vec![
        Box::new(FirFilter::paper()),
        Box::new(MipsCore::paper()),
        Box::new(SdramController::paper()),
        Box::new(Uart::standard()),
        Box::new(AesEngine::standard()),
        Box::new(FftCore::standard()),
    ]
}

/// BRAM/DSP-heavy synthetic reports for `family`. Their compositions
/// have no exact window on the paper devices (BRAM columns sit isolated
/// between CLB runs), so every plan goes through the padded fallback. The
/// seed path prices and sorts every padding option at every height; the
/// index path scans each distinct composition once, one index probe per
/// `(extra DSP, extra BRAM)` row.
fn padded_reports(family: fabric::Family) -> Vec<SynthReport> {
    let mut reports = Vec::new();
    for (dsps, brams) in [
        (0u64, 20u64),
        (0, 40),
        (0, 60),
        (16, 24),
        (32, 16),
        (24, 48),
    ] {
        reports.push(SynthReport {
            module: format!("padded_d{dsps}_b{brams}"),
            family,
            lut_ff_pairs: 64,
            luts: 48,
            ffs: 48,
            dsps,
            brams,
        });
    }
    reports
}

/// Small DSP+BRAM reports for `family`: on the LX110T the single DSP
/// column has CLBs on both sides and no adjacent BRAM, so the base
/// composition (1 CLB, 1 DSP, 1 BRAM) has **no exact window at any
/// height** — the paper's isolated-column motivation. The requirements
/// are small enough that the composition is the same at every height, so
/// the seed path regenerates and re-sorts the full padded-option
/// enumeration once per height (8× on the LX110T, each probe through the
/// mutexed memo, cold scans on the first height) while the
/// height-factored index path resolves the composition exactly once per
/// plan with one index probe per `(extra DSP, extra BRAM)` row.
fn isolated_reports(family: fabric::Family) -> Vec<SynthReport> {
    [
        (1u64, 1u64, 8u64),
        (2, 1, 16),
        (3, 2, 24),
        (4, 2, 40),
        (5, 3, 56),
        (6, 3, 72),
        (7, 4, 88),
        (8, 4, 100),
    ]
    .iter()
    .map(|&(dsps, brams, pairs)| SynthReport {
        module: format!("isolated_d{dsps}_b{brams}"),
        family,
        lut_ff_pairs: pairs,
        luts: pairs * 3 / 4,
        ffs: pairs * 3 / 4,
        dsps,
        brams,
    })
    .collect()
}

/// CLB-heavy synthetic reports for `family`: wide exact windows whose
/// composition differs at every height, so a cold seed memo pays a full
/// O(width²) column scan per height while the index answers each from
/// the same O(1) table. This is the search-bound cold-plan workload the
/// composition index targets.
fn scan_reports(family: fabric::Family) -> Vec<SynthReport> {
    [600u64, 1000, 1400, 1800, 2200, 2600, 3000, 3400]
        .iter()
        .map(|&pairs| SynthReport {
            module: format!("scan_{pairs}"),
            family,
            lut_ff_pairs: pairs,
            luts: pairs * 3 / 4,
            ffs: pairs * 3 / 4,
            dsps: 0,
            brams: 0,
        })
        .collect()
}

/// One cold plan per report through the seed memo: fresh `MemoGeometry`
/// per plan (a cold plan starts with an empty memo — the memo is only
/// populated by planning), every miss answered by the mutex-guarded
/// O(width²) scan.
fn cold_plans_memo(reports: &[SynthReport], device: &Device) {
    let mut scratch = PlanScratch::default();
    for report in reports {
        let memo = MemoGeometry::new(device);
        let finder = |req: &WindowRequest| -> Option<Window> { memo.find_window(device, req) };
        black_box(plan_prr_via_finder(report, device, &finder, &mut scratch).ok());
    }
}

/// One cold plan per report through the composition index. The index is
/// a per-device artifact built at engine interning time (there is no
/// warm/cold distinction — construction enumerates every composition),
/// so the one-time build is measured and reported separately.
fn cold_plans_index(reports: &[SynthReport], device: &Device, geometry: &DeviceGeometry) {
    let mut scratch = PlanScratch::default();
    for report in reports {
        black_box(plan_prr_cached(report, device, geometry, &mut scratch).ok());
    }
}

fn bench_cold_plans(c: &mut Criterion) {
    let device = fabric::database::xc5vlx110t();
    let geometry = DeviceGeometry::new(&device);
    let exact = scan_reports(device.family());
    let padded = padded_reports(device.family());

    let isolated = isolated_reports(device.family());

    let mut g = c.benchmark_group("window");
    g.bench_function("cold_isolated_memo_lx110t", |b| {
        b.iter(|| cold_plans_memo(black_box(&isolated), &device))
    });
    g.bench_function("cold_isolated_index_lx110t", |b| {
        b.iter(|| cold_plans_index(black_box(&isolated), &device, &geometry))
    });
    g.bench_function("cold_exact_memo_lx110t", |b| {
        b.iter(|| cold_plans_memo(black_box(&exact), &device))
    });
    g.bench_function("cold_exact_index_lx110t", |b| {
        b.iter(|| cold_plans_index(black_box(&exact), &device, &geometry))
    });
    g.bench_function("cold_padded_memo_lx110t", |b| {
        b.iter(|| cold_plans_memo(black_box(&padded), &device))
    });
    g.bench_function("cold_padded_index_lx110t", |b| {
        b.iter(|| cold_plans_index(black_box(&padded), &device, &geometry))
    });
    g.finish();
}

/// Plan every (report, device) point in `points` with `workers` threads,
/// static block partitioning, sharing the prebuilt per-device search
/// structures in `shared`. Returns points per second.
fn sweep_pps<S: Sync>(
    points: &[(usize, usize)],
    reports: &[Vec<SynthReport>],
    devices: &[Device],
    shared: &[S],
    workers: usize,
    plan: &(dyn Fn(&SynthReport, &Device, &S, &mut PlanScratch) + Sync),
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for chunk in points.chunks(points.len().div_ceil(workers)) {
            scope.spawn(move || {
                let mut scratch = PlanScratch::default();
                for &(g, d) in chunk {
                    plan(&reports[g][d], &devices[d], &shared[d], &mut scratch);
                }
            });
        }
    });
    points.len() as f64 / start.elapsed().as_secs_f64()
}

#[derive(Serialize)]
struct ScalingRow {
    workers: usize,
    memo_points_per_sec: f64,
    index_points_per_sec: f64,
    index_over_memo: f64,
}

#[derive(Serialize)]
struct ColdSuite {
    plans: usize,
    memo_mean_ms: f64,
    index_mean_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct WindowBenchArtifact {
    device: String,
    distinct_compositions: u64,
    index_build_us: f64,
    index_bytes: usize,
    samples: u32,
    /// Isolated-column suite: no exact window at any height and a
    /// height-constant composition, so the seed regenerates the padded
    /// enumeration per height while the index resolves it once per plan.
    cold_plan_isolated: ColdSuite,
    /// Search-bound suite: wide exact windows, one cold scan per height
    /// on the seed memo vs one lock-free probe on the index.
    cold_plan_exact: ColdSuite,
    /// Padded-fallback suite: no exact window; the seed prices every
    /// padding option, the index scans one row per (DSP, BRAM) mix, once
    /// per composition.
    cold_plan_padded: ColdSuite,
    /// Headline figure: the isolated-column cold-plan speedup.
    cold_plan_speedup: f64,
    sweep_grid_points: usize,
    sweep_scaling: Vec<ScalingRow>,
}

/// Measure both paths directly (criterion's printed numbers are not
/// machine-readable in the shim) and emit the JSON artifact.
fn emit_artifact() {
    let device = fabric::database::xc5vlx110t();
    let samples = 30u32;

    let time = |f: &dyn Fn()| -> f64 {
        f();
        let start = Instant::now();
        for _ in 0..samples {
            f();
        }
        start.elapsed().as_secs_f64() / f64::from(samples)
    };

    let build_start = Instant::now();
    let geometry = DeviceGeometry::new(&device);
    let index_build_us = build_start.elapsed().as_secs_f64() * 1e6;

    let suite = |reports: &[SynthReport]| -> ColdSuite {
        let memo = time(&|| cold_plans_memo(reports, &device));
        let index = time(&|| cold_plans_index(reports, &device, &geometry));
        ColdSuite {
            plans: reports.len(),
            memo_mean_ms: memo * 1e3,
            index_mean_ms: index * 1e3,
            speedup: memo / index,
        }
    };
    let cold_plan_isolated = suite(&isolated_reports(device.family()));
    let cold_plan_exact = suite(&scan_reports(device.family()));
    let cold_plan_padded = suite(&padded_reports(device.family()));

    // Thread-scaling sweep: the (PRM + padded suite) × device grid,
    // replicated so each worker team has real work, shared search state
    // per device.
    let devices = fabric::all_devices();
    let gens = generators();
    let mut grid_reports: Vec<Vec<SynthReport>> = gens
        .iter()
        .map(|g| devices.iter().map(|d| g.synthesize(d.family())).collect())
        .collect();
    let padded_rows = padded_reports(fabric::Family::Virtex5).len();
    for i in 0..padded_rows {
        grid_reports.push(
            devices
                .iter()
                .map(|d| padded_reports(d.family())[i].clone())
                .collect(),
        );
    }
    const REPLICAS: usize = 24;
    let points: Vec<(usize, usize)> = (0..REPLICAS)
        .flat_map(|_| (0..grid_reports.len()).flat_map(|g| (0..devices.len()).map(move |d| (g, d))))
        .collect();
    let memos: Vec<MemoGeometry> = devices.iter().map(MemoGeometry::new).collect();
    let indexes: Vec<DeviceGeometry> = devices.iter().map(DeviceGeometry::new).collect();

    let plan_memo =
        |report: &SynthReport, device: &Device, memo: &MemoGeometry, scratch: &mut PlanScratch| {
            let finder = |req: &WindowRequest| -> Option<Window> { memo.find_window(device, req) };
            black_box(plan_prr_via_finder(report, device, &finder, scratch).ok());
        };
    let plan_index = |report: &SynthReport,
                      device: &Device,
                      geometry: &DeviceGeometry,
                      scratch: &mut PlanScratch| {
        black_box(plan_prr_cached(report, device, geometry, scratch).ok());
    };

    let mut sweep_scaling = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let memo_pps = sweep_pps(
            &points,
            &grid_reports,
            &devices,
            &memos,
            workers,
            &plan_memo,
        );
        let index_pps = sweep_pps(
            &points,
            &grid_reports,
            &devices,
            &indexes,
            workers,
            &plan_index,
        );
        sweep_scaling.push(ScalingRow {
            workers,
            memo_points_per_sec: memo_pps,
            index_points_per_sec: index_pps,
            index_over_memo: index_pps / memo_pps,
        });
    }

    let artifact = WindowBenchArtifact {
        device: device.name().to_string(),
        distinct_compositions: geometry.distinct_compositions(),
        index_build_us,
        index_bytes: geometry.index_bytes(),
        samples,
        cold_plan_speedup: cold_plan_isolated.speedup,
        cold_plan_isolated,
        cold_plan_exact,
        cold_plan_padded,
        sweep_grid_points: points.len(),
        sweep_scaling,
    };
    println!(
        "cold isolated-column plans on {}: memo {:.3} ms, index {:.3} ms ({:.1}x; {} compositions, build {:.0} us)",
        artifact.device,
        artifact.cold_plan_isolated.memo_mean_ms,
        artifact.cold_plan_isolated.index_mean_ms,
        artifact.cold_plan_isolated.speedup,
        artifact.distinct_compositions,
        artifact.index_build_us,
    );
    println!(
        "cold exact plans: memo {:.3} ms, index {:.3} ms ({:.1}x)",
        artifact.cold_plan_exact.memo_mean_ms,
        artifact.cold_plan_exact.index_mean_ms,
        artifact.cold_plan_exact.speedup,
    );
    println!(
        "cold padded plans: memo {:.3} ms, index {:.3} ms ({:.1}x)",
        artifact.cold_plan_padded.memo_mean_ms,
        artifact.cold_plan_padded.index_mean_ms,
        artifact.cold_plan_padded.speedup,
    );
    for row in &artifact.sweep_scaling {
        println!(
            "sweep x{}: memo {:.0} pts/s, index {:.0} pts/s ({:.1}x)",
            row.workers, row.memo_points_per_sec, row.index_points_per_sec, row.index_over_memo
        );
    }
    bench::write_json("BENCH_window", &artifact);
}

criterion_group!(benches, bench_cold_plans);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
