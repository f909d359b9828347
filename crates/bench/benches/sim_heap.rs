//! Criterion bench: event-heap simulator vs the frozen seed simulator.
//!
//! The target: ≥5× simulator tasks/sec on a 10⁵-task
//! workload. The seed implementation (per-dispatch `Vec` allocations,
//! `Option<String>` module identity, O(slots) fits rescans and clock
//! scans) is frozen in `multitask::sim::reference`; the live simulator
//! interns modules, carries fits bitmasks in queue entries, advances the
//! clock off a binary heap of slot-free events and reuses a
//! `SimScratch`. Besides the criterion numbers, a `BENCH_sim.json`
//! artifact with both throughputs per system width and the speedups is
//! written to `results/`. The artifact uses
//! min-of-samples timing: on a noisy shared box the minimum is the
//! least-biased estimator of the true cost of either simulator.

use bitstream::IcapModel;
use criterion::{criterion_group, Criterion, Throughput};
use fabric::{device_by_name, Family};
use multitask::sim::reference::{simulate_seed, SeedPolicy};
use multitask::{
    simulate_with_scratch, FirstFit, PrSystem, ReuseAware, Scheduler, SimScratch, Workload,
};
use prcost::PrrOrganization;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const N_TASKS: u32 = 100_000;

fn system(prrs: u32) -> PrSystem {
    let device = device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: Family::Virtex5,
        height: 1,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    PrSystem::homogeneous(&device, org, prrs, IcapModel::V5_DMA).unwrap()
}

fn workload(sys: &PrSystem, n: u32) -> Workload {
    sys.filter_workload(&Workload::generate(
        7,
        Family::Virtex5,
        n,
        12,
        300,
        5_000,
        100_000,
    ))
}

fn bench_sim(c: &mut Criterion) {
    let sys = system(4);
    // Criterion side: a smaller workload keeps iteration counts sane.
    let wl = workload(&sys, 10_000);
    let n = wl.tasks.len() as u64;

    let mut g = c.benchmark_group("sim");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n));
    let pairs: [(&dyn Scheduler, SeedPolicy); 2] = [
        (&FirstFit, SeedPolicy::FirstFit),
        (&ReuseAware, SeedPolicy::ReuseAware),
    ];
    for (sched, policy) in pairs {
        g.bench_function(format!("seed/{}", policy.name()), |b| {
            b.iter(|| simulate_seed(black_box(&sys), black_box(&wl), policy))
        });
        let mut scratch = SimScratch::new();
        g.bench_function(format!("heap/{}", sched.name()), |b| {
            b.iter(|| simulate_with_scratch(black_box(&sys), black_box(&wl), sched, &mut scratch))
        });
    }
    g.finish();
}

#[derive(Serialize)]
struct SimConfigResult {
    prrs: usize,
    tasks: usize,
    seed_min_ms: f64,
    heap_min_ms: f64,
    speedup: f64,
    seed_tasks_per_sec: f64,
    heap_tasks_per_sec: f64,
}

#[derive(Serialize)]
struct SimBenchArtifact {
    samples: u32,
    scheduler: &'static str,
    /// Best seed-vs-heap ratio across the measured system widths.
    speedup: f64,
    configs: Vec<SimConfigResult>,
}

/// Minimum wall time of `f` over `samples` runs (after one warm-up).
fn min_time(samples: u32, f: &mut dyn FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Measure both simulators on the full 10⁵-task workload across several
/// system widths and emit the JSON artifact (the criterion shim's
/// printed numbers are not machine-readable). The seed's per-dispatch
/// costs (string clones, fits rescans, clock scans) grow with the slot
/// count, so the speedup is reported per width.
fn emit_artifact() {
    let samples = 20u32;
    let mut scratch = SimScratch::new();
    let mut configs = Vec::new();
    for prrs in [4u32, 12, 16] {
        let sys = system(prrs);
        let wl = workload(&sys, N_TASKS);
        let n = wl.tasks.len();
        let seed = min_time(samples, &mut || {
            black_box(simulate_seed(&sys, &wl, SeedPolicy::ReuseAware));
        });
        let heap = min_time(samples, &mut || {
            black_box(simulate_with_scratch(&sys, &wl, &ReuseAware, &mut scratch));
        });
        println!(
            "sim {} tasks, {} PRRs: seed {:.2} ms, heap {:.2} ms ({:.2}x, {:.2} Mtasks/s)",
            n,
            prrs,
            seed * 1e3,
            heap * 1e3,
            seed / heap,
            n as f64 / heap / 1e6,
        );
        configs.push(SimConfigResult {
            prrs: sys.prrs.len(),
            tasks: n,
            seed_min_ms: seed * 1e3,
            heap_min_ms: heap * 1e3,
            speedup: seed / heap,
            seed_tasks_per_sec: n as f64 / seed,
            heap_tasks_per_sec: n as f64 / heap,
        });
    }

    let artifact = SimBenchArtifact {
        samples,
        scheduler: "reuse-aware",
        speedup: configs.iter().map(|c| c.speedup).fold(0.0, f64::max),
        configs,
    };
    bench::write_json("BENCH_sim", &artifact);
}

criterion_group!(benches, bench_sim);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
