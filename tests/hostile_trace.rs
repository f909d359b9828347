//! A trace whose execution time is `u64::MAX` must not overflow any
//! simulator: clocks and report sums saturate, so the makespan reads
//! `u64::MAX` instead of panicking (debug builds) or wrapping to a small
//! number (release builds), and every servable task still completes.
//! The system is the one `prfpga simulate xc5vlx110t --trace FILE --clb 3
//! --height 1` builds.

use multitask::{
    simulate_full_reconfig, simulate_preemptive, simulate_static, FirstFit, HwTask, ModuleTable,
    ReuseAware, Scheduler,
};
use prfpga::prelude::*;

const TRACE: &str = "0 m 1 0 0 0 18446744073709551615\n1 m 1 0 0 5 100\n";

#[test]
fn saturated_execution_time_reads_as_unbounded_makespan() {
    let device = fabric::device_by_name("xc5vlx110t").unwrap();
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 3,
        dsp_cols: 0,
        bram_cols: 0,
    };
    let system = |prrs| PrSystem::homogeneous(&device, org, prrs, IcapModel::V5_DMA).unwrap();
    let workload = multitask::parse_trace(TRACE).unwrap();
    let servable = 2;

    // Two PRRs (the CLI default) run both tasks side by side; with one,
    // the second task waits until the saturated clock reads `u64::MAX`.
    for prrs in [2, 1] {
        let system = system(prrs);
        for scheduler in [&FirstFit as &dyn Scheduler, &ReuseAware] {
            let r = simulate(&system, &workload, scheduler);
            assert_eq!(
                (r.makespan_ns, r.completed),
                (u64::MAX, servable),
                "{} on {prrs} PRRs",
                scheduler.name()
            );
            assert_eq!(r.total_exec_ns, u64::MAX);
        }
        let r = simulate_preemptive(&system, &workload);
        assert_eq!(
            (r.makespan_ns, r.completed),
            (u64::MAX, servable),
            "preemptive on {prrs} PRRs"
        );
    }
    let r = simulate_full_reconfig(&device, &workload, &IcapModel::V5_DMA);
    assert_eq!((r.makespan_ns, r.completed), (u64::MAX, servable));
    let r = simulate_static(&device, &workload).expect("one small module fits");
    assert_eq!((r.makespan_ns, r.completed), (u64::MAX, servable));
    let r = simulate_layout(&device, &workload, &LayoutConfig::default());
    assert_eq!((r.makespan_ns, r.admitted), (u64::MAX, servable));
    assert_eq!(r.total_exec_ns, u64::MAX);

    // Deadlines derived from the trace saturate too: the first task meets
    // its `u64::MAX` deadline; the second misses its 205 ns one (a
    // reconfiguration alone takes tens of microseconds).
    let deadlines = workload.with_deadlines(2.0);
    assert_eq!(deadlines.tasks[0].deadline_ns, Some(u64::MAX));
    let r = simulate(&system(2), &deadlines, &ReuseAware);
    assert_eq!((r.completed, r.deadline_misses), (servable, 1));
}

/// Needs near `u64::MAX` saturate the static baseline's capacity sum: two
/// modules of `u64::MAX / 2 + 1` CLBs do not fit the device together. An
/// unsaturated sum panics with an overflow (debug) or wraps to zero and
/// fits (release).
#[test]
fn static_capacity_sum_saturates() {
    let device = fabric::device_by_name("xc5vlx110t").unwrap();
    let mut modules = ModuleTable::new();
    let tasks = (0..2)
        .map(|id| HwTask {
            id,
            module: modules.intern(&format!("m{id}")),
            priority: 0,
            needs: Resources::new(u64::MAX / 2 + 1, 0, 0),
            arrival_ns: 0,
            exec_ns: 10,
            deadline_ns: None,
        })
        .collect();
    assert!(simulate_static(&device, &Workload::new(tasks, modules)).is_none());
}

/// The proactive repair's benefit, the live tasks' remaining execution
/// time, saturates: two live tasks of `u64::MAX` execution time once
/// overflowed the sum (a debug-build panic; a release build wrapped).
/// On an 8-column CLB strip the 4-column task's fragmentation rejection
/// arms the repair goal, and the next arrival sums both saturated
/// completions before repairing the layout for it.
#[test]
fn proactive_defrag_benefit_saturates() {
    let device = Device::new("strip", Family::Virtex5, 1, vec![ResourceKind::Clb; 8]).unwrap();
    let clb_col = u64::from(Family::Virtex5.params().clb_col);
    let mut modules = ModuleTable::new();
    let tasks = [
        (3, 0, 1_000_000),
        (2, 1_000, u64::MAX),
        (2, 2_000, 1_000_000),
        (1, 3_000, u64::MAX),
        (4, 500_000_000, 1),
        (1, 600_000_000, 1_000_000),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, (cols, arrival_ns, exec_ns))| HwTask {
        id: id as u32,
        module: modules.intern(&format!("m{id}")),
        priority: 0,
        needs: Resources::new(cols * clb_col, 0, 0),
        arrival_ns,
        exec_ns,
        deadline_ns: None,
    })
    .collect();
    let config = LayoutConfig {
        policy: DefragPolicy::Threshold(2.0),
        depth: 3,
        proactive: true,
        ..LayoutConfig::default()
    };
    let r = simulate_layout(&device, &Workload::new(tasks, modules), &config);
    assert_eq!(
        (r.admitted, r.rejected_fragmentation, r.proactive_defrags),
        (5, 1, 1)
    );
    assert_eq!(r.makespan_ns, u64::MAX);
}
