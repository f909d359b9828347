//! Criterion bench: move throughput of the incremental annealing placer.
//!
//! The live placer maintains per-net bounding boxes with per-extreme pin
//! counts in x16 fixed point and evaluates each move as an
//! O(pins-of-moved-cells) incremental delta with zero allocations.
//! Chains are pinned to 1 so the numbers measure the inner loop, not
//! rayon.
//!
//! Two netlist shapes are measured. `flow` netlists come straight from
//! `Netlist::from_report` (2-pin carry chains plus one 16-pin fanout net
//! per 16 cells). `fanout` netlists add a handful of global control nets
//! (reset/enable-style, fanout = cells/3) — the shape that motivates
//! VPR-style incremental bounding boxes, where a full recompute would
//! walk every global pin on every move and the cached box answers in
//! O(1). Cost accounting against the full-recompute oracle is proven in
//! the equivalence suite (`parflow/tests/place_props.rs`).

use criterion::{criterion_group, Criterion, Throughput};
use fabric::grid::SiteGrid;
use fabric::{device_by_name, Device};
use parflow::place::{place_with_scratch, PlaceScratch, PlacerConfig};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use synth::{Net, Netlist, PrmGenerator, SynthReport};

/// A synthetic PRM planned onto its model-optimal window.
fn instance(device: &Device, seed: u64, scale: u32) -> (SynthReport, prcost::PrrPlan, Netlist) {
    let report = synth::prm::GenericPrm::random(seed, scale).synthesize(device.family());
    let plan = prcost::plan_prr(&report, device).expect("bench instance is feasible");
    let netlist = Netlist::from_report(&report, seed).expect("bench report is consistent");
    (report, plan, netlist)
}

/// Add `globals` high-fanout control nets (each touching a random third
/// of the cells) to `netlist` — the reset/enable-net shape real designs
/// have and `Netlist::from_report`'s chain-plus-small-fanout connectivity
/// does not model.
fn add_global_nets(netlist: &mut Netlist, globals: u32, seed: u64) {
    let n = netlist.cells.len() as u64;
    let fanout = (n / 3).max(2);
    let mut state = seed | 1;
    for _ in 0..globals {
        let mut pins: Vec<u32> = (0..fanout)
            .map(|_| {
                // splitmix64, as synth's own synthetic connectivity uses.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % n) as u32
            })
            .collect();
        pins.sort_unstable();
        pins.dedup();
        netlist.nets.push(Net { pins });
    }
}

fn config() -> PlacerConfig {
    PlacerConfig {
        seed: 11,
        chains: 1,
        moves_per_cell: 24,
        ..PlacerConfig::default()
    }
}

fn bench_place(c: &mut Criterion) {
    let device = device_by_name("xc5vsx95t").unwrap();
    let (_, plan, mut netlist) = instance(&device, 11, 900);
    add_global_nets(&mut netlist, 6, 23);
    let grid = SiteGrid::new(&device);
    let cfg = config();
    let moves = netlist.cells.len() as u64 * u64::from(cfg.moves_per_cell);

    let mut g = c.benchmark_group("place");
    g.sample_size(10);
    g.throughput(Throughput::Elements(moves));
    let mut scratch = PlaceScratch::new();
    g.bench_function("incremental/fanout", |b| {
        b.iter(|| {
            place_with_scratch(black_box(&netlist), &grid, &plan.window, &cfg, &mut scratch)
                .unwrap()
        })
    });
    g.finish();
}

#[derive(Serialize)]
struct PlaceConfigResult {
    /// `flow` = raw `Netlist::from_report` connectivity; `fanout` = flow
    /// plus 6 global control nets.
    netlist: &'static str,
    cells: usize,
    nets: usize,
    moves: u64,
    incr_min_ms: f64,
    incr_moves_per_sec: f64,
}

#[derive(Serialize)]
struct PlaceBenchArtifact {
    samples: u32,
    chains: u32,
    moves_per_cell: u32,
    configs: Vec<PlaceConfigResult>,
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

/// Measure the placer across instance sizes and netlist shapes, then
/// emit the JSON artifact (min-of-samples: on a noisy shared box the
/// minimum is the least-biased estimator).
fn emit_artifact() {
    let samples = 10u32;
    let device = device_by_name("xc5vsx95t").unwrap();
    let grid = SiteGrid::new(&device);
    let cfg = config();
    let mut scratch = PlaceScratch::new();
    let mut configs = Vec::new();
    for (scale, globals, label) in [
        (300u32, 0u32, "flow"),
        (900, 0, "flow"),
        (3000, 0, "flow"),
        (300, 6, "fanout"),
        (900, 6, "fanout"),
        (3000, 6, "fanout"),
    ] {
        let (_, plan, mut netlist) = instance(&device, 11, scale);
        if globals > 0 {
            add_global_nets(&mut netlist, globals, 23);
        }
        let moves = netlist.cells.len() as u64 * u64::from(cfg.moves_per_cell);
        let incr_t = min_time(samples, &mut || {
            black_box(
                place_with_scratch(&netlist, &grid, &plan.window, &cfg, &mut scratch).unwrap(),
            );
        });
        println!(
            "place {label} {} cells ({} nets): incremental {:.2} ms ({:.2} Mmoves/s)",
            netlist.cells.len(),
            netlist.nets.len(),
            incr_t * 1e3,
            moves as f64 / incr_t / 1e6,
        );
        configs.push(PlaceConfigResult {
            netlist: label,
            cells: netlist.cells.len(),
            nets: netlist.nets.len(),
            moves,
            incr_min_ms: incr_t * 1e3,
            incr_moves_per_sec: moves as f64 / incr_t,
        });
    }

    let artifact = PlaceBenchArtifact {
        samples,
        chains: cfg.chains,
        moves_per_cell: cfg.moves_per_cell,
        configs,
    };
    bench::write_json("BENCH_place", &artifact);
}

criterion_group!(benches, bench_place);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
