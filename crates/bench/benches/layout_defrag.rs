//! Criterion bench: free-space churn throughput and defragmentation
//! policy comparison for the online layout manager.
//!
//! *Churn*: a fixed, seeded allocate/release sequence (place a random
//! CLB/DSP/BRAM window request, or free a random live window) driven
//! against [`layout::FreeSpace`] (per-row column bitsets +
//! composition-indexed candidate starts; a free test is one masked
//! compare per row word) and against the brute-force occupancy grid
//! [`layout::NaiveFreeSpace`] (the test oracle: O(width × rows) scans
//! per query). Both structures see the byte-identical op sequence, so
//! the placements coincide and only the data-structure cost differs.
//! Neither side samples a fragmentation metric; both compute them on
//! demand only.
//!
//! *Defrag policies*: the pinned heavy-tailed workload from the
//! acceptance suite (seed 24, scale 1500, xc5vlx110t) simulated under
//! Never / Threshold(1.0) / Always, reporting admissions, relocations,
//! ICAP relocation time, and simulator wall time per policy.
//!
//! Besides the criterion numbers, a `BENCH_layout.json` artifact with
//! the churn speedup and the policy table is written to `results/`.

use criterion::{criterion_group, Criterion};
use fabric::{Device, Window, WindowRequest};
use layout::{simulate_layout, DefragPolicy, FreeSpace, LayoutConfig, NaiveFreeSpace};
use multitask::Workload;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic stream for the churn op sequence: the shared
/// [`prcost::rng::Rng`], continued from the raw seed so the pinned op
/// sequence is bit-identical to the private splitmix copy it replaced.
use prcost::rng::Rng;

/// One step of churn: place a window request or free the n-th live
/// window. Pre-generated so the benched loop does no RNG work.
enum Op {
    Place(WindowRequest),
    Free(usize),
}

fn churn_ops(device: &Device, n: usize, seed: u64) -> Vec<Op> {
    let rows = u64::from(device.rows());
    let mut rng = Rng::from_raw(seed);
    (0..n)
        .map(|_| {
            if rng.below(4) == 0 {
                Op::Free(rng.below(64) as usize)
            } else {
                Op::Place(WindowRequest::new(
                    rng.below(6) as u32,
                    rng.below(3) as u32,
                    rng.below(3) as u32,
                    1 + rng.below(rows) as u32,
                ))
            }
        })
        .collect()
}

/// Drive `ops` against the bitset tracker. Returns placements made (a
/// checksum that also keeps the work from being optimized out).
fn churn_fast(device: &Device, ops: &[Op]) -> usize {
    let mut fs = FreeSpace::new(device);
    let mut live: Vec<Window> = Vec::new();
    let mut placed = 0usize;
    for op in ops {
        match op {
            Op::Place(req) => {
                if let Some(w) = fs.find_window(req) {
                    fs.allocate(&w);
                    live.push(w);
                    placed += 1;
                }
            }
            Op::Free(slot) => {
                if !live.is_empty() {
                    let w = live.swap_remove(slot % live.len());
                    fs.release(&w);
                }
            }
        }
    }
    placed
}

fn churn_naive(device: &Device, ops: &[Op]) -> usize {
    let mut fs = NaiveFreeSpace::new(device);
    let mut live: Vec<Window> = Vec::new();
    let mut placed = 0usize;
    for op in ops {
        match op {
            Op::Place(req) => {
                if let Some(w) = fs.find_window(req) {
                    fs.allocate(&w);
                    live.push(w);
                    placed += 1;
                }
            }
            Op::Free(slot) => {
                if !live.is_empty() {
                    let w = live.swap_remove(slot % live.len());
                    fs.release(&w);
                }
            }
        }
    }
    placed
}

/// The acceptance suite's pinned fragmentation-inducing workload
/// (seed re-pinned 12 → 24 with the `Rng::from_seed` mixing change).
fn pinned_workload(device: &Device) -> Workload {
    Workload::generate_heavy_tailed(24, device.family(), 200, 16, 1500, 40_000, 400_000)
}

fn bench_layout(c: &mut Criterion) {
    let device = fabric::database::xc5vlx110t();
    let ops = churn_ops(&device, 2_000, 42);
    // The sequences must agree for the comparison to be honest.
    assert_eq!(churn_fast(&device, &ops), churn_naive(&device, &ops));

    let mut g = c.benchmark_group("layout");
    g.bench_function("churn_bitset_lx110t", |b| {
        b.iter(|| churn_fast(&device, black_box(&ops)))
    });
    g.bench_function("churn_naive_lx110t", |b| {
        b.iter(|| churn_naive(&device, black_box(&ops)))
    });
    let workload = pinned_workload(&device);
    g.bench_function("sim_defrag_always_lx110t", |b| {
        b.iter(|| {
            simulate_layout(
                &device,
                black_box(&workload),
                &LayoutConfig {
                    policy: DefragPolicy::Always,
                    ..LayoutConfig::default()
                },
            )
        })
    });
    g.finish();
}

#[derive(Serialize)]
struct PolicyRow {
    policy: String,
    admitted: u32,
    rejected_fragmentation: u32,
    rejected_capacity: u32,
    defrag_admissions: u32,
    relocations: u32,
    relocation_ms: f64,
    relocated_bytes: u64,
    makespan_ms: f64,
    peak_fragmentation: f64,
    sim_wall_ms: f64,
}

#[derive(Serialize)]
struct LayoutBenchArtifact {
    device: String,
    churn_ops: usize,
    churn_placements: usize,
    samples: u32,
    bitset_mean_ms: f64,
    naive_mean_ms: f64,
    /// Headline figure: the bitset tracker over the occupancy-grid oracle
    /// on the churn workload.
    churn_speedup: f64,
    workload_tasks: usize,
    policy_table: Vec<PolicyRow>,
}

/// Measure both structures and the policy sweep directly (criterion's
/// printed numbers are not machine-readable in the shim) and emit the
/// JSON artifact.
fn emit_artifact() {
    let device = fabric::database::xc5vlx110t();
    let ops = churn_ops(&device, 2_000, 42);
    let placements = churn_fast(&device, &ops);
    let samples = 30u32;

    let time = |f: &dyn Fn() -> usize| -> f64 {
        f();
        let start = Instant::now();
        for _ in 0..samples {
            black_box(f());
        }
        start.elapsed().as_secs_f64() / f64::from(samples)
    };
    let bitset_mean = time(&|| churn_fast(&device, &ops));
    let naive_mean = time(&|| churn_naive(&device, &ops));

    let workload = pinned_workload(&device);
    let policy_table: Vec<PolicyRow> = [
        ("never".to_string(), DefragPolicy::Never),
        ("threshold_1.0".to_string(), DefragPolicy::Threshold(1.0)),
        ("always".to_string(), DefragPolicy::Always),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let config = LayoutConfig {
            policy,
            ..LayoutConfig::default()
        };
        let start = Instant::now();
        let r = simulate_layout(&device, &workload, &config);
        let sim_wall_ms = start.elapsed().as_secs_f64() * 1e3;
        PolicyRow {
            policy: name,
            admitted: r.admitted,
            rejected_fragmentation: r.rejected_fragmentation,
            rejected_capacity: r.rejected_capacity,
            defrag_admissions: r.defrag_admissions,
            relocations: r.relocations,
            relocation_ms: r.relocation_ns as f64 / 1e6,
            relocated_bytes: r.relocated_bytes,
            makespan_ms: r.makespan_ns as f64 / 1e6,
            peak_fragmentation: r.peak_fragmentation,
            sim_wall_ms,
        }
    })
    .collect();

    let artifact = LayoutBenchArtifact {
        device: device.name().to_string(),
        churn_ops: ops.len(),
        churn_placements: placements,
        samples,
        bitset_mean_ms: bitset_mean * 1e3,
        naive_mean_ms: naive_mean * 1e3,
        churn_speedup: naive_mean / bitset_mean,
        workload_tasks: workload.tasks.len(),
        policy_table,
    };
    println!(
        "churn on {}: bitset {:.3} ms, naive {:.3} ms ({:.1}x; {} ops, {} placements)",
        artifact.device,
        artifact.bitset_mean_ms,
        artifact.naive_mean_ms,
        artifact.churn_speedup,
        artifact.churn_ops,
        artifact.churn_placements,
    );
    for row in &artifact.policy_table {
        println!(
            "{:<14} admitted {:>3}, {} relocations ({:.3} ms ICAP), makespan {:.3} ms, sim {:.1} ms",
            row.policy, row.admitted, row.relocations, row.relocation_ms, row.makespan_ms,
            row.sim_wall_ms,
        );
    }
    bench::write_json("BENCH_layout", &artifact);
}

criterion_group!(benches, bench_layout);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
