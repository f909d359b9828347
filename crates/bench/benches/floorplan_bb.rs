//! Criterion bench: optimized branch-and-bound auto-floorplanner vs the
//! frozen seed tree.
//!
//! The ISSUE-3 tentpole target: ≥4× floorplanner wall-clock on an 8-PRR
//! synthetic instance. The seed implementation (raw `Device::find_window`
//! rescans per candidate, no dominance pruning, per-node O(depth)
//! lower-bound recomputation and a `Window` clone per tried row) is
//! frozen in `parflow::autofloorplan::reference`; the live floorplanner
//! probes windows through a `DeviceGeometry` index, prunes span-dominated
//! candidate organizations before building the tree, precomputes suffix
//! lower bounds and descends on column spans. Both searches return the
//! same floorplan (the equal total is asserted here; full identity is
//! property-tested in `parflow/tests/floorplan_props.rs`).

use criterion::{criterion_group, Criterion};
use fabric::device_by_name;
use parflow::autofloorplan::reference::auto_floorplan_seed;
use parflow::autofloorplan::{auto_floorplan, PrrSpec};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use synth::SynthReport;

/// Node budget generous enough for every measured instance to complete
/// (both searches return the proven optimum, not a budget-truncated
/// incumbent — which is what makes the equal-total assertion valid).
const BUDGET: u64 = 50_000_000;

/// `n` DSP/BRAM-hungry synthetic PRRs on the SX95T (10 DSP and 8 BRAM
/// columns over 8 rows). Their combined demand fits, but barely enough
/// row/column freedom remains that the tree must backtrack through the
/// 2-D packing — the regime both floorplanning baselines in PAPERS.md
/// identify as the hard one.
fn specs(n: usize) -> Vec<PrrSpec> {
    (0..n)
        .map(|i| {
            let dsps = 30 + (i as u64 % 4) * 8;
            let brams = (i as u64 % 3) * 4;
            let pairs = 400 + (i as u64) * 60;
            PrrSpec::single(
                format!("p{i}"),
                SynthReport::new(
                    format!("m{i}"),
                    fabric::Family::Virtex5,
                    pairs,
                    pairs * 7 / 10,
                    pairs * 6 / 10,
                    dsps,
                    brams,
                ),
            )
        })
        .collect()
}

fn bench_floorplan(c: &mut Criterion) {
    let device = device_by_name("xc5vsx95t").unwrap();
    let inst = specs(8);

    let mut g = c.benchmark_group("floorplan");
    g.sample_size(10);
    g.bench_function("seed/8prr", |b| {
        b.iter(|| auto_floorplan_seed(black_box(&inst), &device, BUDGET).unwrap())
    });
    g.bench_function("bb/8prr", |b| {
        b.iter(|| auto_floorplan(black_box(&inst), &device, BUDGET).unwrap())
    });
    g.finish();
}

#[derive(Serialize)]
struct FloorplanConfigResult {
    prrs: usize,
    total_bitstream_bytes: u64,
    seed_nodes: u64,
    bb_nodes: u64,
    seed_min_ms: f64,
    bb_min_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct FloorplanBenchArtifact {
    samples: u32,
    node_budget: u64,
    /// Speedup on the marquee 8-PRR instance.
    speedup: f64,
    configs: Vec<FloorplanConfigResult>,
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

/// Measure both floorplanners at increasing PRR counts and emit the JSON
/// artifact (min-of-samples, like `BENCH_sim.json`). Equal optimal totals
/// are asserted on every instance.
fn emit_artifact() {
    let samples = 5u32;
    let device = device_by_name("xc5vsx95t").unwrap();
    let mut configs = Vec::new();
    for n in [4usize, 6, 8] {
        let inst = specs(n);
        let seed_plan = auto_floorplan_seed(&inst, &device, BUDGET).unwrap();
        let bb_plan = auto_floorplan(&inst, &device, BUDGET).unwrap();
        assert_eq!(
            seed_plan.total_bitstream_bytes, bb_plan.total_bitstream_bytes,
            "dominance pruning must be cost-preserving ({n} PRRs)"
        );
        let seed_t = min_time(samples, &mut || {
            black_box(auto_floorplan_seed(&inst, &device, BUDGET).unwrap());
        });
        let bb_t = min_time(samples, &mut || {
            black_box(auto_floorplan(&inst, &device, BUDGET).unwrap());
        });
        println!(
            "floorplan {n} PRRs: seed {:.2} ms ({} nodes), bb {:.2} ms ({} nodes) ({:.2}x)",
            seed_t * 1e3,
            seed_plan.nodes_explored,
            bb_t * 1e3,
            bb_plan.nodes_explored,
            seed_t / bb_t,
        );
        configs.push(FloorplanConfigResult {
            prrs: n,
            total_bitstream_bytes: bb_plan.total_bitstream_bytes,
            seed_nodes: seed_plan.nodes_explored,
            bb_nodes: bb_plan.nodes_explored,
            seed_min_ms: seed_t * 1e3,
            bb_min_ms: bb_t * 1e3,
            speedup: seed_t / bb_t,
        });
    }

    let artifact = FloorplanBenchArtifact {
        samples,
        node_budget: BUDGET,
        speedup: configs.last().map_or(0.0, |c| c.speedup),
        configs,
    };
    bench::write_json("BENCH_floorplan", &artifact);
}

criterion_group!(benches, bench_floorplan);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
