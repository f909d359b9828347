//! A task carries its module as an id resolved against its workload's
//! table, so what a simulator reads is exactly what the task list holds:
//! a workload edited in place through `tasks` simulates like a workload
//! rebuilt from the same tasks, under every simulator.

use multitask::{
    simulate_full_reconfig, simulate_preemptive, simulate_static, HwTask, ModuleTable, ReuseAware,
};
use prfpga::prelude::*;

const MS: u64 = 1_000_000;

fn task(id: u32, module: multitask::ModuleId, arrival_ns: u64) -> HwTask {
    HwTask {
        id,
        module,
        priority: 0,
        needs: Resources::new(40, 0, 0),
        arrival_ns,
        exec_ns: 1_000,
        deadline_ns: None,
    }
}

#[test]
fn workload_edited_in_place_simulates_like_its_rebuild() {
    let device = fabric::device_by_name("xc5vlx110t").unwrap();
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 4,
        dsp_cols: 0,
        bram_cols: 0,
    };
    let system = PrSystem::homogeneous(&device, org, 1, IcapModel::V5_DMA).unwrap();

    // a@0, b@10 ms, a@20 ms; then the middle task becomes an `a` too.
    let mut modules = ModuleTable::new();
    let (a, b) = (modules.intern("a"), modules.intern("b"));
    let mut edited = Workload::new(
        vec![task(0, a, 0), task(1, b, 10 * MS), task(2, a, 20 * MS)],
        modules,
    );
    edited.tasks[1].module = a;
    let rebuilt = edited.with_tasks(edited.tasks.clone());
    assert_eq!(edited, rebuilt);

    // One PRR that only ever holds `a`: one write, then two reuse hits.
    let r = simulate(&system, &edited, &ReuseAware);
    assert_eq!((r.reconfigurations, r.reuse_hits), (1, 2));
    assert_eq!(r.makespan_ns, 20 * MS + 1_000);
    assert_eq!(r, simulate(&system, &rebuilt, &ReuseAware));
    assert_eq!(
        simulate_preemptive(&system, &edited),
        simulate_preemptive(&system, &rebuilt)
    );
    assert_eq!(simulate_preemptive(&system, &edited).reconfigurations, 1);
    let full = simulate_full_reconfig(&device, &edited, &IcapModel::V5_DMA);
    assert_eq!(full.reconfigurations, 1);
    assert_eq!(
        full,
        simulate_full_reconfig(&device, &rebuilt, &IcapModel::V5_DMA)
    );
    assert_eq!(
        simulate_static(&device, &edited),
        simulate_static(&device, &rebuilt)
    );
    assert_eq!(edited.module_count(), 1);
}

/// Equal names mean equal modules wherever a workload came from: a trace
/// written from a generated workload parses back to an equal workload,
/// and both simulate alike.
#[test]
fn trace_round_trip_keeps_module_identity() {
    let device = fabric::device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 8,
        dsp_cols: 2,
        bram_cols: 1,
    };
    let system = PrSystem::homogeneous(&device, org, 3, IcapModel::V5_DMA).unwrap();
    let generated = Workload::generate(5, device.family(), 400, 12, 120, 30_000, 60_000);
    let parsed = multitask::parse_trace(&multitask::write_trace(&generated)).unwrap();
    assert_eq!(parsed, generated);
    let r = simulate(&system, &generated, &ReuseAware);
    assert!(r.reuse_hits > 0);
    assert_eq!(r, simulate(&system, &parsed, &ReuseAware));
}
