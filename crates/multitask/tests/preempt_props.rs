//! `simulate_preemptive` against the loop it replaced.
//!
//! The preemptive simulator is the priority line of the fixed-pool loop.
//! The loop it replaced is frozen below as the oracle: on a homogeneous
//! pool, where every servable task fits every PRR, the two must report
//! the same. They part in two places, each pinned by a hand-built test:
//! on a heterogeneous pool the oracle appends a preempted task behind
//! lower-priority waiters until the next event, and it leaves a PRR
//! whose run ends at its dispatch instant busy until the next event.

use bitstream::IcapModel;
use fabric::{device_by_name, Device, Family, Resources};
use multitask::{
    simulate, simulate_preemptive, FirstFit, HwTask, ModuleId, ModuleTable, PrSystem,
    PreemptReport, PrrSlot, Workload,
};
use prcost::{context_breakdown, PrrOrganization};
use proptest::prelude::*;

/// The preemptive loop as it stood before it moved onto the event core:
/// it re-sorts its waiting list at every event and scans every slot for
/// the next one.
fn oracle(system: &PrSystem, workload: &Workload) -> PreemptReport {
    #[derive(Debug, Clone)]
    struct Pending {
        task: HwTask,
        remaining_ns: u64,
        saved: bool,
        responded: bool,
    }
    #[derive(Debug, Clone)]
    struct Running {
        pending_idx: usize,
        exec_start: u64,
        done_at: u64,
        priority: u8,
    }

    let n_slots = system.prrs.len();
    let mut slot_free_at = vec![0u64; n_slots];
    let mut slot_running: Vec<Option<Running>> = vec![None; n_slots];
    let mut slot_module: Vec<Option<ModuleId>> = vec![None; n_slots];
    let mut icap_free_at = 0u64;
    let mut pending: Vec<Pending> = workload
        .tasks
        .iter()
        .map(|&task| Pending {
            remaining_ns: task.exec_ns,
            task,
            saved: false,
            responded: false,
        })
        .collect();
    let fits_slot = |p: &Pending, s: usize| system.prrs[s].fits(&p.task.needs);
    let fits_any = |p: &Pending| (0..n_slots).any(|s| fits_slot(p, s));

    let mut waiting: Vec<usize> = Vec::new();
    let mut next_arrival = 0usize;
    let mut report = PreemptReport {
        completed: 0,
        makespan_ns: 0,
        preemptions: 0,
        reconfigurations: 0,
        context_transfers: 0,
        context_switch_ns: 0,
        icap_busy_ns: 0,
        urgent_mean_response_ns: 0,
    };
    let mut urgent_responses: Vec<u64> = Vec::new();
    let mut now = 0u64;
    loop {
        while next_arrival < pending.len() && pending[next_arrival].task.arrival_ns <= now {
            waiting.push(next_arrival);
            next_arrival += 1;
        }
        for slot in slot_running.iter_mut() {
            if let Some(run) = slot {
                if run.done_at <= now {
                    report.completed += 1;
                    report.makespan_ns = report.makespan_ns.max(run.done_at);
                    *slot = None;
                }
            }
        }
        waiting.sort_by_key(|&i| {
            (
                std::cmp::Reverse(pending[i].task.priority),
                pending[i].task.arrival_ns,
                pending[i].task.id,
            )
        });
        loop {
            let Some(pos) = waiting.iter().position(|&i| fits_any(&pending[i])) else {
                if !waiting.is_empty() && waiting.iter().all(|&i| !fits_any(&pending[i])) {
                    waiting.clear();
                }
                break;
            };
            let pi = waiting[pos];
            let prio = pending[pi].task.priority;
            let free = (0..n_slots).find(|&s| {
                slot_free_at[s] <= now && slot_running[s].is_none() && fits_slot(&pending[pi], s)
            });
            let slot = match free {
                Some(s) => Some(s),
                None => (0..n_slots)
                    .filter(|&s| {
                        fits_slot(&pending[pi], s)
                            && slot_running[s]
                                .as_ref()
                                .is_some_and(|r| r.priority < prio && r.done_at > now)
                    })
                    .min_by_key(|&s| slot_running[s].as_ref().map(|r| r.priority)),
            };
            let Some(s) = slot else { break };

            let victim = slot_running[s].take();
            let module = pending[pi].task.module;
            let write = slot_module[s] != Some(module);
            let mut t = now;
            if victim.is_some() || write || pending[pi].saved {
                t = now.max(icap_free_at);
                if let Some(victim) = victim {
                    let ctx = context_breakdown(&system.prrs[s].organization);
                    let save_ns = system.icap.transfer_time(ctx.save_bytes()).as_nanos() as u64;
                    let ran = t.saturating_sub(victim.exec_start);
                    let vi = victim.pending_idx;
                    pending[vi].remaining_ns = pending[vi].remaining_ns.saturating_sub(ran);
                    pending[vi].saved = true;
                    waiting.push(vi);
                    t = t.saturating_add(save_ns);
                    report.preemptions += 1;
                    report.context_transfers += 1;
                    report.context_switch_ns = report.context_switch_ns.saturating_add(save_ns);
                    report.icap_busy_ns = report.icap_busy_ns.saturating_add(save_ns);
                }
                if write {
                    let w = system.reconfig_ns(&system.prrs[s]);
                    t = t.saturating_add(w);
                    report.reconfigurations += 1;
                    report.icap_busy_ns = report.icap_busy_ns.saturating_add(w);
                    slot_module[s] = Some(module);
                }
                if pending[pi].saved {
                    let ctx = context_breakdown(&system.prrs[s].organization);
                    let r = system.icap.transfer_time(ctx.restore_bytes()).as_nanos() as u64;
                    t = t.saturating_add(r);
                    report.context_transfers += 1;
                    report.context_switch_ns = report.context_switch_ns.saturating_add(r);
                    report.icap_busy_ns = report.icap_busy_ns.saturating_add(r);
                }
                icap_free_at = t;
            }
            if !pending[pi].responded {
                pending[pi].responded = true;
                if pending[pi].task.priority >= 2 {
                    urgent_responses.push(t - pending[pi].task.arrival_ns);
                }
            }
            let done = t.saturating_add(pending[pi].remaining_ns);
            slot_running[s] = Some(Running {
                pending_idx: pi,
                exec_start: t,
                done_at: done,
                priority: prio,
            });
            slot_free_at[s] = done;
            waiting.remove(waiting.iter().position(|&i| i == pi).unwrap());
        }

        let mut next: Option<u64> = None;
        let mut wake = |at: u64| next = Some(next.map_or(at, |n| n.min(at)));
        if next_arrival < pending.len() {
            wake(pending[next_arrival].task.arrival_ns);
        }
        for run in slot_running.iter().flatten() {
            if run.done_at > now {
                wake(run.done_at);
            }
        }
        if !waiting.is_empty() && icap_free_at > now {
            wake(icap_free_at);
        }
        let Some(next) = next else { break };
        now = next;
    }
    for run in slot_running.iter().flatten() {
        report.completed += 1;
        report.makespan_ns = report.makespan_ns.max(run.done_at);
    }
    if !urgent_responses.is_empty() {
        let total = urgent_responses
            .iter()
            .fold(0u64, |sum, &r| sum.saturating_add(r));
        report.urgent_mean_response_ns = total / urgent_responses.len() as u64;
    }
    report
}

/// `prrs` identical PRRs of height `h` on the xc5vsx95t, as `sim_props`
/// builds them.
fn homogeneous(prrs: u32, h: u32) -> PrSystem {
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

/// Random tasks over four modules: `(arrival, exec, clb, dsp, bram,
/// module, priority)`, execution times from `min_exec`.
fn arb_tasks(min_exec: u64, priorities: u8) -> impl Strategy<Value = Workload> {
    proptest::collection::vec(
        (
            0u64..1_000_000,
            min_exec..500_000,
            0u64..130,
            0u64..10,
            0u64..5,
            0u32..4,
            0u8..priorities,
        ),
        1..60,
    )
    .prop_map(|raw| {
        let mut modules = ModuleTable::new();
        for m in 0..4 {
            modules.intern(&format!("m{m}"));
        }
        let tasks = raw
            .into_iter()
            .zip(0..)
            .map(
                |((arrival_ns, exec_ns, clb, dsp, bram, module, priority), id)| HwTask {
                    id,
                    module: ModuleId(module),
                    priority,
                    needs: Resources::new(clb, dsp, bram),
                    arrival_ns,
                    exec_ns,
                    deadline_ns: None,
                },
            )
            .collect();
        Workload::new(tasks, modules)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On every homogeneous pool the priority line reports exactly what
    /// the replaced loop did, preemptions, context transfers and urgent
    /// response included.
    #[test]
    fn preemptive_equals_the_replaced_loop_on_homogeneous_pools(
        workload in arb_tasks(1, 4),
        prrs in 1u32..5,
        h in 1u32..3,
    ) {
        let system = homogeneous(prrs, h);
        prop_assert_eq!(simulate_preemptive(&system, &workload), oracle(&system, &workload));
    }

    /// With one priority nothing preempts, and the priority line is FIFO
    /// with first fit: the fixed-pool loop's other line, zero-length runs
    /// included.
    #[test]
    fn one_priority_is_first_fit(workload in arb_tasks(0, 1), prrs in 1u32..5, h in 1u32..3) {
        let system = homogeneous(prrs, h);
        let preemptive = simulate_preemptive(&system, &workload);
        let fifo = simulate(&system, &workload, &FirstFit);
        prop_assert_eq!(preemptive.preemptions, 0);
        prop_assert_eq!(
            (preemptive.completed, preemptive.makespan_ns),
            (fifo.completed, fifo.makespan_ns)
        );
        prop_assert_eq!(
            (preemptive.reconfigurations, preemptive.icap_busy_ns),
            (fifo.reconfigurations, fifo.icap_busy_ns)
        );
    }
}

/// A small task: `(module, priority, needs, arrival, exec)`, ids in list
/// order.
fn workload(tasks: &[(&str, u8, Resources, u64, u64)]) -> Workload {
    let mut modules = ModuleTable::new();
    let tasks = tasks
        .iter()
        .zip(0..)
        .map(
            |(&(module, priority, needs, arrival_ns, exec_ns), id)| HwTask {
                id,
                module: modules.intern(module),
                priority,
                needs,
                arrival_ns,
                exec_ns,
                deadline_ns: None,
            },
        )
        .collect();
    Workload::new(tasks, modules)
}

/// A 1-row PRR of `clb_cols` CLB columns placed clear of `taken`.
fn clb_slot(device: &Device, id: u32, clb_cols: u32, taken: &[PrrSlot]) -> PrrSlot {
    let org = PrrOrganization {
        family: Family::Virtex5,
        height: 1,
        clb_cols,
        dsp_cols: 0,
        bram_cols: 0,
    };
    let window = device
        .windows(&org.window_request())
        .find(|w| taken.iter().all(|t| !t.window.overlaps(w)))
        .unwrap();
    PrrSlot::new(id, org, window)
}

/// The one behaviour change: a preempted task goes back in line at its
/// priority. X (priority 2) runs on the small PRR and V (priority 1) on
/// the big one. When X completes, H (priority 3, too big for the small
/// PRR) and L (priority 0) arrive. H preempts V, and V, ranked above L,
/// takes the small PRR. The replaced loop appended V behind L: L took
/// the small PRR, then V preempted it, for a second preemption and a
/// sixth write.
#[test]
fn a_preempted_task_keeps_its_rank_on_a_heterogeneous_pool() {
    let device = device_by_name("xc5vlx110t").unwrap();
    let small = clb_slot(&device, 0, 2, &[]);
    let big = clb_slot(&device, 1, 4, std::slice::from_ref(&small));
    let fits_small = small.available();
    let system = PrSystem::new(&device, vec![small.clone(), big], IcapModel::V5_DMA).unwrap();
    let x_done = system.reconfig_ns(&small) + 100_000;
    let only_big = fits_small.saturating_add(&Resources::new(1, 0, 0));
    let wl = workload(&[
        ("x", 2, fits_small, 0, 100_000),
        ("v", 1, fits_small, 1, 10_000_000),
        ("h", 3, only_big, x_done, 1_000_000),
        ("l", 0, fits_small, x_done, 1_000_000),
    ]);

    let r = simulate_preemptive(&system, &wl);
    assert_eq!((r.completed, r.preemptions, r.reconfigurations), (4, 1, 5));
    assert_eq!(r.context_transfers, 2, "V's save and restore");
    let old = oracle(&system, &wl);
    assert_eq!(
        (old.completed, old.preemptions, old.reconfigurations),
        (4, 2, 6)
    );
}

/// A run that ends at its dispatch instant frees its PRR at once. Here a
/// zero-length reuse hit (B) is followed by C on the one PRR: the
/// replaced loop held the PRR until a next event that never came, and
/// lost C.
#[test]
fn a_zero_length_run_frees_its_prr_at_once() {
    let system = homogeneous(1, 1);
    let needs = Resources::new(40, 0, 0);
    let a_done = system.reconfig_ns(&system.prrs[0]) + 100;
    let wl = workload(&[
        ("m", 0, needs, 0, 100),
        ("m", 0, needs, a_done, 0),
        ("m", 0, needs, a_done, 50),
    ]);
    let r = simulate_preemptive(&system, &wl);
    assert_eq!((r.completed, r.makespan_ns), (3, a_done + 50));
    assert_eq!(r.completed, simulate(&system, &wl, &FirstFit).completed);
    assert_eq!(oracle(&system, &wl).completed, 2);
}
