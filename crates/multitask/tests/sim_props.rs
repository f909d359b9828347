//! Property tests for the multitasking simulators: conservation laws that
//! must hold for any workload and any scheduler.

use bitstream::IcapModel;
use fabric::{device_by_name, Family, Resources};
use multitask::sim::reference::{simulate_seed, SeedPolicy};
use multitask::{
    simulate, simulate_batch, simulate_full_reconfig, simulate_preemptive, simulate_static,
    simulate_with_scratch, BestFit, FirstFit, HwTask, ModuleId, ModuleTable, PrSystem, ReuseAware,
    Scenario, Scheduler, SimScratch, Workload,
};
use prcost::PrrOrganization;
use proptest::prelude::*;

fn system(prrs: u32, h: u32) -> PrSystem {
    let device = device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: Family::Virtex5,
        height: h,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    PrSystem::homogeneous(&device, org, prrs, IcapModel::V5_DMA).unwrap()
}

fn arb_tasks() -> impl Strategy<Value = Vec<HwTask>> {
    proptest::collection::vec(
        (
            0u64..1_000_000,
            1u64..500_000,
            0u64..130,
            0u64..10,
            0u64..5,
            0u8..4,
        ),
        1..60,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (arrival, exec, clb, dsp, bram, module))| HwTask {
                id: i as u32,
                module: ModuleId(u32::from(module)),
                priority: (i % 4) as u8,
                needs: Resources::new(clb, dsp, bram),
                arrival_ns: arrival,
                exec_ns: exec,
                deadline_ns: None,
            })
            .collect()
    })
}

/// A workload over `tasks`, whose module ids name `m0`..`m3`.
fn workload(tasks: Vec<HwTask>) -> Workload {
    let mut modules = ModuleTable::new();
    for m in 0..4 {
        modules.intern(&format!("m{m}"));
    }
    Workload::new(tasks, modules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: completed counts and executed time equal the servable
    /// subset, independent of scheduler; makespan bounds hold.
    #[test]
    fn conservation_laws(tasks in arb_tasks(), prrs in 1u32..5) {
        let sys = system(prrs, 1);
        let wl = workload(tasks);
        let servable: Vec<&HwTask> = wl
            .tasks
            .iter()
            .filter(|t| sys.prrs.iter().any(|p| p.fits(&t.needs)))
            .collect();
        let servable_exec: u64 = servable.iter().map(|t| t.exec_ns).sum();

        let schedulers: [&dyn Scheduler; 3] = [&FirstFit, &BestFit, &ReuseAware];
        for sched in schedulers {
            let r = simulate(&sys, &wl, sched);
            prop_assert_eq!(r.completed as usize, servable.len(), "{}", sched.name());
            prop_assert_eq!(r.total_exec_ns, servable_exec);
            // Makespan is at least the longest servable execution and at
            // least the reconfiguration of anything that ran.
            if let Some(max_exec) = servable.iter().map(|t| t.exec_ns).max() {
                prop_assert!(r.makespan_ns >= max_exec);
            }
            prop_assert!(r.reconfigurations + r.reuse_hits == r.completed);
        }
    }

    /// Equivalence oracle: the event-heap, interned, bitmask simulator
    /// produces a report *identical* to the frozen seed implementation for
    /// random workloads, system shapes and schedulers — including
    /// workloads with unservable tasks.
    #[test]
    fn heap_simulator_equals_seed(tasks in arb_tasks(), prrs in 1u32..5, h in 1u32..3) {
        let sys = system(prrs, h);
        let wl = workload(tasks);
        let pairs: [(&dyn Scheduler, SeedPolicy); 3] = [
            (&FirstFit, SeedPolicy::FirstFit),
            (&BestFit, SeedPolicy::BestFit),
            (&ReuseAware, SeedPolicy::ReuseAware),
        ];
        let mut scratch = SimScratch::new();
        for (sched, policy) in pairs {
            let new = simulate(&sys, &wl, sched);
            let seed = simulate_seed(&sys, &wl, policy);
            prop_assert_eq!(&new, &seed, "{}", sched.name());
            // Scratch reuse across schedulers must not leak state.
            let reused = simulate_with_scratch(&sys, &wl, sched, &mut scratch);
            prop_assert_eq!(&reused, &seed);
        }
    }

    /// `simulate_batch` is scenario-wise identical to sequential
    /// `simulate`, regardless of how scenarios share systems/workloads.
    #[test]
    fn batch_equals_sequential(tasks in arb_tasks(), prrs_a in 1u32..4, prrs_b in 1u32..4) {
        let sys_a = system(prrs_a, 1);
        let sys_b = system(prrs_b, 2);
        let wl = workload(tasks);
        let scheds: [&dyn Scheduler; 3] = [&FirstFit, &BestFit, &ReuseAware];
        let wl_ref = &wl;
        let scenarios: Vec<Scenario> = [&sys_a, &sys_b]
            .into_iter()
            .flat_map(|sys| {
                scheds.iter().map(move |&scheduler| Scenario {
                    system: sys,
                    workload: wl_ref,
                    scheduler,
                })
            })
            .collect();
        let batch = simulate_batch(&scenarios);
        prop_assert_eq!(batch.len(), scenarios.len());
        for (got, sc) in batch.iter().zip(&scenarios) {
            prop_assert_eq!(got, &simulate(sc.system, sc.workload, sc.scheduler));
        }
    }

    /// The full-reconfiguration baseline completes everything (the whole
    /// device hosts any module) and never beats a single-PRR PR system's
    /// reconfiguration bill per switch.
    #[test]
    fn full_reconfig_baseline_invariants(tasks in arb_tasks()) {
        let device = device_by_name("xc5vsx95t").unwrap();
        let wl = workload(tasks);
        let r = simulate_full_reconfig(&device, &wl, &IcapModel::V5_DMA);
        prop_assert_eq!(r.completed as usize, wl.tasks.len());
        prop_assert_eq!(r.reconfigurations + r.reuse_hits, r.completed);
        let full = prcost::full_bitstream_size_bytes(&device);
        let per_switch = IcapModel::V5_DMA.transfer_time(full).as_nanos() as u64;
        prop_assert_eq!(r.icap_busy_ns, u64::from(r.reconfigurations) * per_switch);
    }

    /// The static baseline, when it exists, completes everything with zero
    /// configuration traffic and a makespan no smaller than the busiest
    /// module's total work.
    #[test]
    fn static_baseline_invariants(tasks in arb_tasks()) {
        let device = device_by_name("xc5vsx95t").unwrap();
        let wl = workload(tasks);
        if let Some(r) = simulate_static(&device, &wl) {
            prop_assert_eq!(r.completed as usize, wl.tasks.len());
            prop_assert_eq!(r.icap_busy_ns, 0);
            let mut per_module: std::collections::BTreeMap<ModuleId, u64> = Default::default();
            for t in &wl.tasks {
                *per_module.entry(t.module).or_default() += t.exec_ns;
            }
            let busiest = per_module.values().copied().max().unwrap_or(0);
            prop_assert!(r.makespan_ns >= busiest);
        }
    }

    /// Preemptive simulation completes every servable task exactly once,
    /// and context transfers come in save/restore pairs bounded by
    /// preemption count.
    #[test]
    fn preemptive_invariants(tasks in arb_tasks(), prrs in 1u32..4) {
        let sys = system(prrs, 1);
        let wl = workload(tasks);
        let servable = wl
            .tasks
            .iter()
            .filter(|t| sys.prrs.iter().any(|p| p.fits(&t.needs)))
            .count();
        let r = simulate_preemptive(&sys, &wl);
        prop_assert_eq!(r.completed as usize, servable);
        prop_assert_eq!(r.context_transfers, 2 * r.preemptions);
        prop_assert!(r.icap_busy_ns >= r.context_switch_ns);
    }
}
