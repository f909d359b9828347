//! Criterion bench: bounded-depth multi-move defrag search throughput
//! and the admissions-vs-policy table for `BENCH_defrag.json`.
//!
//! *Search throughput*: a seeded allocate/release churn drives a
//! [`layout::LayoutManager`] on a small synthetic strip; every few ops
//! the state is snapshotted when the probe organization has no free
//! window (i.e. the fabric is fragmented against it). The depth-3
//! branch-and-bound ([`layout::defrag2::plan`]) and the frozen
//! exhaustive oracle ([`layout::defrag2::reference`]) then plan the
//! identical probe set; the headline figure is the
//! searched-states-per-second ratio. The plans themselves are asserted
//! identical first — the speedup is only meaningful if the answers
//! agree. `host_cpus` in the artifact records the host the times were
//! measured on.
//!
//! *Policy table*: the acceptance workload (seed 384, moderate load,
//! xc5vlx110t) simulated under Never / single-step / depth 1–4 /
//! Threshold(2.0) / proactive, plus the PR-5 pinned saturated workload
//! for contrast. On the saturated pin, repairs cost more ICAP time than
//! they buy (never admits the most); on the moderate-load acceptance
//! workload the depth-3 sequences admit strictly more than single-step.
//! Both rows are emitted — the honest result is the point.

use bitstream::IcapModel;
use criterion::{criterion_group, Criterion};
use fabric::{Device, Family, ResourceKind};
use layout::defrag2::{plan, reference};
use layout::{simulate_layout, Defrag2Config, DefragPolicy, LayoutConfig, LayoutManager};
use multitask::{ModuleId, Workload};
use prcost::PrrOrganization;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic stream for the churn op sequence: the shared
/// [`prcost::rng::Rng`], continued from the raw seed so the pinned op
/// sequence is bit-identical to the private splitmix copy it replaced.
use prcost::rng::Rng;

/// The synthetic strip the search probes run on: CLB-heavy with two DSP
/// columns, two rows — small enough that the exhaustive oracle finishes,
/// wide enough that blockers have many candidate targets.
fn probe_device() -> Device {
    use ResourceKind::*;
    let mut cols = vec![Clb; 28];
    cols[5] = Dsp;
    cols[13] = Dsp;
    cols[21] = Dsp;
    Device::new("bench-strip", Family::Virtex5, 2, cols).expect("device")
}

fn probe_org() -> PrrOrganization {
    PrrOrganization {
        family: Family::Virtex5,
        height: 2,
        clb_cols: 4,
        dsp_cols: 0,
        bram_cols: 0,
    }
}

/// Replay `n_ops` of the seeded churn against a fresh manager: many
/// small modules, moderate release pressure, so the strip ends up
/// peppered with movable blockers rather than a few immovable slabs.
fn churned(device: &Device, seed: u64, n_ops: usize) -> LayoutManager {
    let mut rng = Rng::from_raw(seed);
    let mut mgr = LayoutManager::new(device, IcapModel::V5_DMA);
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..n_ops {
        if rng.below(3) == 0 && !live.is_empty() {
            let id = live.remove(rng.below(live.len() as u64) as usize);
            mgr.release(id);
        } else {
            let org = PrrOrganization {
                family: Family::Virtex5,
                height: 1,
                clb_cols: 1 + rng.below(2) as u32,
                dsp_cols: u32::from(rng.below(8) == 0),
                bram_cols: 0,
            };
            if let Ok(id) = mgr.allocate(ModuleId(0), &org) {
                live.push(id);
            }
        }
    }
    mgr
}

/// Snapshot churn states that are fragmented against the probe
/// organization — the states the DES would actually search on. Only
/// states where the bounded search expands a non-trivial tree are kept,
/// so the comparison measures search, not snapshot bookkeeping.
fn probe_states(device: &Device, want: usize) -> Vec<LayoutManager> {
    let org = probe_org();
    let cfg = search_cfg();
    let req = fabric::WindowRequest::new(org.clb_cols, org.dsp_cols, org.bram_cols, org.height);
    let mut states = Vec::new();
    // Hard states are rare: bound the scan and require a floor instead of
    // spinning on an exact count.
    for seed in 1u64..6_000 {
        for n_ops in (32..128).step_by(4) {
            let mgr = churned(device, seed, n_ops);
            if mgr.free_space().find_window(&req).is_some() {
                continue;
            }
            let hard = plan(&mgr, &org, &cfg).is_some_and(|p| p.nodes >= 96);
            if hard {
                states.push(mgr);
            }
        }
        if states.len() >= want {
            break;
        }
    }
    assert!(states.len() >= 8, "churn must yield hard probe states");
    states
}

fn search_cfg() -> Defrag2Config {
    Defrag2Config {
        depth: 3,
        node_budget: u64::MAX,
    }
}

fn bench_defrag_search(c: &mut Criterion) {
    let device = probe_device();
    let org = probe_org();
    let cfg = search_cfg();
    let states = probe_states(&device, 16);

    // The comparison is only honest if the answers agree (`nodes` is a
    // per-search diagnostic, not part of the plan).
    for mgr in &states {
        let fast = plan(mgr, &org, &cfg);
        let oracle = reference::plan_exhaustive(mgr, &org, &cfg);
        assert_eq!(
            fast.as_ref().map(|p| (&p.moves, &p.admit, p.total_move_ns)),
            oracle
                .as_ref()
                .map(|p| (&p.moves, &p.admit, p.total_move_ns)),
        );
    }

    let mut g = c.benchmark_group("defrag_search");
    g.bench_function("bb_serial_d3", |b| {
        b.iter(|| {
            states
                .iter()
                .filter_map(|m| plan(black_box(m), &org, &cfg))
                .count()
        })
    });
    g.bench_function("oracle_exhaustive_d3", |b| {
        b.iter(|| {
            states
                .iter()
                .filter_map(|m| reference::plan_exhaustive(black_box(m), &org, &cfg))
                .count()
        })
    });
    g.finish();
}

#[derive(Serialize)]
struct PolicyRow {
    workload: String,
    policy: String,
    depth: u32,
    proactive: bool,
    admitted: u32,
    rejected_fragmentation: u32,
    defrag_admissions: u32,
    proactive_defrags: u32,
    relocations: u32,
    relocation_ms: f64,
    relocated_bytes: u64,
    context_bytes: u64,
    sim_wall_ms: f64,
}

#[derive(Serialize)]
struct DefragBenchArtifact {
    search_device: String,
    search_states: usize,
    search_depth: u32,
    samples: u32,
    host_cpus: usize,
    bb_serial_mean_ms: f64,
    oracle_mean_ms: f64,
    /// Headline figure: searched-states-per-second of the
    /// branch-and-bound over the exhaustive oracle, same probe set,
    /// plan-identical answers.
    search_speedup: f64,
    sim_device: String,
    policy_table: Vec<PolicyRow>,
}

fn run_policy(
    device: &Device,
    workload: &Workload,
    tag: &str,
    name: &str,
    policy: DefragPolicy,
    depth: u32,
    proactive: bool,
) -> PolicyRow {
    let config = LayoutConfig {
        policy,
        depth,
        proactive,
        ..LayoutConfig::default()
    };
    let start = Instant::now();
    let r = simulate_layout(device, workload, &config);
    PolicyRow {
        workload: tag.to_string(),
        policy: name.to_string(),
        depth,
        proactive,
        admitted: r.admitted,
        rejected_fragmentation: r.rejected_fragmentation,
        defrag_admissions: r.defrag_admissions,
        proactive_defrags: r.proactive_defrags,
        relocations: r.relocations,
        relocation_ms: r.relocation_ns as f64 / 1e6,
        relocated_bytes: r.relocated_bytes,
        context_bytes: r.context_bytes,
        sim_wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn emit_artifact() {
    let device = probe_device();
    let org = probe_org();
    let cfg = search_cfg();
    let states = probe_states(&device, 16);
    let samples = 20u32;

    let time = |f: &dyn Fn() -> usize| -> f64 {
        f();
        let start = Instant::now();
        for _ in 0..samples {
            black_box(f());
        }
        start.elapsed().as_secs_f64() / f64::from(samples)
    };
    let bb_serial = time(&|| states.iter().filter_map(|m| plan(m, &org, &cfg)).count());
    let oracle = time(&|| {
        states
            .iter()
            .filter_map(|m| reference::plan_exhaustive(m, &org, &cfg))
            .count()
    });

    let sim_device = fabric::database::xc5vlx110t();
    // Seeds re-pinned (5 → 384, 12 → 24) with the `Rng::from_seed`
    // mixing change; the workloads match the acceptance-test pins.
    let acceptance =
        Workload::generate_heavy_tailed(384, Family::Virtex5, 400, 24, 400, 100_000, 400_000);
    let pinned =
        Workload::generate_heavy_tailed(24, Family::Virtex5, 200, 16, 1500, 40_000, 400_000);

    let mut policy_table = Vec::new();
    for (name, policy, depth, proactive) in [
        ("never", DefragPolicy::Never, 0u32, false),
        ("single_step", DefragPolicy::Always, 0, false),
        ("depth_1", DefragPolicy::Always, 1, false),
        ("depth_2", DefragPolicy::Always, 2, false),
        ("depth_3", DefragPolicy::Always, 3, false),
        ("depth_4", DefragPolicy::Always, 4, false),
        (
            "depth_3_threshold_2.0",
            DefragPolicy::Threshold(2.0),
            3,
            false,
        ),
        ("depth_3_proactive", DefragPolicy::Always, 3, true),
    ] {
        policy_table.push(run_policy(
            &sim_device,
            &acceptance,
            "acceptance_seed384",
            name,
            policy,
            depth,
            proactive,
        ));
    }
    for (name, policy, depth) in [
        ("never", DefragPolicy::Never, 0u32),
        ("single_step", DefragPolicy::Always, 0),
        ("depth_3", DefragPolicy::Always, 3),
    ] {
        policy_table.push(run_policy(
            &sim_device,
            &pinned,
            "pr5_pinned_seed24",
            name,
            policy,
            depth,
            false,
        ));
    }

    let artifact = DefragBenchArtifact {
        search_device: device.name().to_string(),
        search_states: states.len(),
        search_depth: cfg.depth,
        samples,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        bb_serial_mean_ms: bb_serial * 1e3,
        oracle_mean_ms: oracle * 1e3,
        search_speedup: oracle / bb_serial,
        sim_device: sim_device.name().to_string(),
        policy_table,
    };
    println!(
        "search over {} fragmented states at depth {} ({} host CPUs): b&b {:.3} ms, oracle {:.3} ms — {:.1}x",
        artifact.search_states,
        artifact.search_depth,
        artifact.host_cpus,
        artifact.bb_serial_mean_ms,
        artifact.oracle_mean_ms,
        artifact.search_speedup,
    );
    for row in &artifact.policy_table {
        println!(
            "{:<18} {:<22} admitted {:>3}, defrag_adm {:>2}, proactive {:>2}, relocs {:>2} ({:.3} ms ICAP, ctx {} B)",
            row.workload,
            row.policy,
            row.admitted,
            row.defrag_admissions,
            row.proactive_defrags,
            row.relocations,
            row.relocation_ms,
            row.context_bytes,
        );
    }
    let d3 = artifact
        .policy_table
        .iter()
        .find(|r| r.workload == "acceptance_seed384" && r.policy == "depth_3")
        .unwrap();
    let single = artifact
        .policy_table
        .iter()
        .find(|r| r.workload == "acceptance_seed384" && r.policy == "single_step")
        .unwrap();
    assert!(
        d3.admitted > single.admitted,
        "acceptance: depth-3 must out-admit single-step"
    );
    assert!(
        artifact.search_speedup >= 5.0,
        "branch-and-bound must be at least 5x the oracle (got {:.1}x)",
        artifact.search_speedup
    );
    bench::write_json("BENCH_defrag", &artifact);
}

criterion_group!(benches, bench_defrag_search);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
