//! Criterion bench: cold-plan latency and sweep thread-scaling for the
//! composition-indexed window search (`fabric::DeviceGeometry`).
//!
//! *Cold plan*: plan three synthetic suites on the paper's Virtex-5 part
//! (XC5VLX110T, 63 columns) with fresh planning scratch per suite
//! against a prebuilt index (the one-time build is measured and reported
//! separately). The isolated-column and padded suites have no exact
//! window for their composition on this part, so every plan goes
//! through the padded fallback, which scans one `(extra DSP, extra
//! BRAM)` row per probe.
//!
//! *Sweep scaling*: a replicated (PRM × device) grid planned by explicit
//! `std::thread::scope` worker teams (the vendored rayon shim cannot vary
//! its pool size), all workers sharing one prebuilt, lock-free index per
//! device. Throughput is reported per worker count.
//!
//! Besides the criterion numbers, a `BENCH_window.json` artifact with the
//! cold-plan latencies and the scaling table is written to `results/`.

use criterion::{criterion_group, Criterion};
use fabric::{Device, DeviceGeometry};
use prcost::{plan_requirements_cached, PlanScratch, PrrRequirements};
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
/// between CLB runs), so every plan goes through the padded fallback,
/// which scans each distinct composition once, one index probe per
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
/// the height-factored planner resolves the composition exactly once per
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
/// composition differs at every height, each answered from the same O(1)
/// index table. This is the search-bound cold-plan workload the
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

/// One cold plan per report through the composition index. The index is
/// a per-device artifact built at engine interning time (there is no
/// warm/cold distinction — construction enumerates every composition),
/// so the one-time build is measured and reported separately.
fn cold_plans_index(reports: &[SynthReport], device: &Device, geometry: &DeviceGeometry) {
    let mut scratch = PlanScratch::default();
    for report in reports {
        let req = PrrRequirements::from_report(report);
        black_box(plan_requirements_cached(&req, device, geometry, &mut scratch).ok());
    }
}

fn bench_cold_plans(c: &mut Criterion) {
    let device = fabric::database::xc5vlx110t();
    let geometry = DeviceGeometry::new(&device);
    let exact = scan_reports(device.family());
    let padded = padded_reports(device.family());

    let isolated = isolated_reports(device.family());

    let mut g = c.benchmark_group("window");
    g.bench_function("cold_isolated_index_lx110t", |b| {
        b.iter(|| cold_plans_index(black_box(&isolated), &device, &geometry))
    });
    g.bench_function("cold_exact_index_lx110t", |b| {
        b.iter(|| cold_plans_index(black_box(&exact), &device, &geometry))
    });
    g.bench_function("cold_padded_index_lx110t", |b| {
        b.iter(|| cold_plans_index(black_box(&padded), &device, &geometry))
    });
    g.finish();
}

/// Plan every (report, device) point in `points` with `workers` threads,
/// static block partitioning, sharing the prebuilt per-device indexes in
/// `indexes`. Returns points per second.
fn sweep_pps(
    points: &[(usize, usize)],
    reports: &[Vec<SynthReport>],
    devices: &[Device],
    indexes: &[DeviceGeometry],
    workers: usize,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for chunk in points.chunks(points.len().div_ceil(workers)) {
            scope.spawn(move || {
                let mut scratch = PlanScratch::default();
                for &(g, d) in chunk {
                    let req = PrrRequirements::from_report(&reports[g][d]);
                    let plan =
                        plan_requirements_cached(&req, &devices[d], &indexes[d], &mut scratch);
                    black_box(plan.ok());
                }
            });
        }
    });
    points.len() as f64 / start.elapsed().as_secs_f64()
}

#[derive(Serialize)]
struct ScalingRow {
    workers: usize,
    index_points_per_sec: f64,
}

#[derive(Serialize)]
struct ColdSuite {
    plans: usize,
    index_mean_ms: f64,
}

#[derive(Serialize)]
struct WindowBenchArtifact {
    device: String,
    distinct_compositions: u64,
    index_build_us: f64,
    index_bytes: usize,
    samples: u32,
    /// Isolated-column suite: no exact window at any height and a
    /// height-constant composition, resolved once per plan.
    cold_plan_isolated: ColdSuite,
    /// Search-bound suite: wide exact windows, one lock-free index probe
    /// per height.
    cold_plan_exact: ColdSuite,
    /// Padded-fallback suite: no exact window; the fallback scans one
    /// row per (DSP, BRAM) mix, once per composition.
    cold_plan_padded: ColdSuite,
    sweep_grid_points: usize,
    sweep_scaling: Vec<ScalingRow>,
}

/// Measure the index path directly (criterion's printed numbers are not
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
        let index = time(&|| cold_plans_index(reports, &device, &geometry));
        ColdSuite {
            plans: reports.len(),
            index_mean_ms: index * 1e3,
        }
    };
    let cold_plan_isolated = suite(&isolated_reports(device.family()));
    let cold_plan_exact = suite(&scan_reports(device.family()));
    let cold_plan_padded = suite(&padded_reports(device.family()));

    // Thread-scaling sweep: the (PRM + padded suite) × device grid,
    // replicated so each worker team has real work, one shared index per
    // device.
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
    let indexes: Vec<DeviceGeometry> = devices.iter().map(DeviceGeometry::new).collect();
    let sweep_scaling: Vec<ScalingRow> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| ScalingRow {
            workers,
            index_points_per_sec: sweep_pps(&points, &grid_reports, &devices, &indexes, workers),
        })
        .collect();

    let artifact = WindowBenchArtifact {
        device: device.name().to_string(),
        distinct_compositions: geometry.distinct_compositions(),
        index_build_us,
        index_bytes: geometry.index_bytes(),
        samples,
        cold_plan_isolated,
        cold_plan_exact,
        cold_plan_padded,
        sweep_grid_points: points.len(),
        sweep_scaling,
    };
    println!(
        "cold isolated-column plans on {}: {:.3} ms ({} compositions, build {:.0} us)",
        artifact.device,
        artifact.cold_plan_isolated.index_mean_ms,
        artifact.distinct_compositions,
        artifact.index_build_us,
    );
    println!(
        "cold exact plans: {:.3} ms",
        artifact.cold_plan_exact.index_mean_ms
    );
    println!(
        "cold padded plans: {:.3} ms",
        artifact.cold_plan_padded.index_mean_ms
    );
    for row in &artifact.sweep_scaling {
        println!(
            "sweep x{}: {:.0} pts/s",
            row.workers, row.index_points_per_sec
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
