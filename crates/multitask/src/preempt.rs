//! Preemptive hardware multitasking with context save/restore.
//!
//! The authors' companion work (\[5\] FCCM'13, \[6\] ARC'13) makes hardware
//! tasks preemptible: a running PRM's state is read back through the
//! configuration plane, the PRR is given to a more urgent task, and the
//! victim later resumes (bitstream write + context restore) on a
//! compatible PRR. This module simulates that discipline on top of the
//! cost models: every configuration-plane operation — context save,
//! bitstream write, context restore — serializes through the single ICAP
//! and is costed from the PRR organization via `prcost` Eq. 18 and
//! `bitstream::context_cost`.

use crate::intern::ModuleId;
use crate::system::PrSystem;
use crate::task::{HwTask, Workload};
use bitstream::readback::context_cost;
use serde::Serialize;

/// Outcome metrics of a preemptive simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PreemptReport {
    /// Tasks completed.
    pub completed: u32,
    /// Completion time of the last task.
    pub makespan_ns: u64,
    /// Preemptions performed.
    pub preemptions: u32,
    /// Plain reconfigurations (bitstream writes).
    pub reconfigurations: u32,
    /// Context saves + restores.
    pub context_transfers: u32,
    /// Total ICAP time spent on context save/restore.
    pub context_switch_ns: u64,
    /// Total ICAP busy time (writes + saves + restores).
    pub icap_busy_ns: u64,
    /// Mean response time (first dispatch - arrival) of priority >= 2
    /// tasks ("urgent"), ns.
    pub urgent_mean_response_ns: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    task: HwTask,
    remaining_ns: u64,
    /// True if the task ran before and must restore its context.
    saved: bool,
    /// First-dispatch response recorded?
    responded: bool,
}

#[derive(Debug, Clone)]
struct Running {
    pending_idx: usize,
    exec_start: u64,
    done_at: u64,
    priority: u8,
}

/// Simulate `workload` on `system` under preemptive priority scheduling
/// (each task's [`HwTask::priority`]; higher preempts lower).
///
/// Configuration-plane costs: a dispatch onto a PRR holding a different
/// module pays the PRR's bitstream write; resuming a preempted task
/// additionally pays its context restore; preempting pays the victim's
/// context save. All serialize on the ICAP. Clock and report sums
/// saturate at `u64::MAX`.
pub fn simulate_preemptive(system: &PrSystem, workload: &Workload) -> PreemptReport {
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

    // Hot-path precomputation (mirrors `sim`): freeze each task's
    // per-slot fits bitmask so dispatch never rescans `fits` per slot.
    let avail: Vec<_> = system.prrs.iter().map(|p| p.available()).collect();
    let words_per_task = n_slots.div_ceil(64).max(1);
    let mut fits_bits = vec![0u64; pending.len() * words_per_task];
    for (ti, p) in pending.iter().enumerate() {
        for (si, a) in avail.iter().enumerate() {
            if a.covers(&p.task.needs) {
                fits_bits[ti * words_per_task + si / 64] |= 1u64 << (si % 64);
            }
        }
    }
    let fits_any = |ti: usize| {
        fits_bits[ti * words_per_task..(ti + 1) * words_per_task]
            .iter()
            .any(|&w| w != 0)
    };
    let fits_slot =
        |ti: usize, si: usize| fits_bits[ti * words_per_task + si / 64] >> (si % 64) & 1 == 1;

    let mut waiting: Vec<usize> = Vec::new(); // indices into pending
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
        // Admit arrivals.
        while next_arrival < pending.len() && pending[next_arrival].task.arrival_ns <= now {
            waiting.push(next_arrival);
            next_arrival += 1;
        }
        // Retire completed tasks.
        for slot in slot_running.iter_mut() {
            if let Some(run) = slot {
                if run.done_at <= now {
                    report.completed += 1;
                    report.makespan_ns = report.makespan_ns.max(run.done_at);
                    *slot = None;
                }
            }
        }

        // Dispatch: highest priority first, FIFO within priority.
        waiting.sort_by_key(|&i| {
            (
                std::cmp::Reverse(pending[i].task.priority),
                pending[i].task.arrival_ns,
                pending[i].task.id,
            )
        });
        loop {
            let Some(pos) = waiting.iter().position(|&i| fits_any(i)) else {
                // Drop unservable tasks.
                if !waiting.is_empty() && waiting.iter().all(|&i| !fits_any(i)) {
                    waiting.clear();
                }
                break;
            };
            let pi = waiting[pos];
            let prio = pending[pi].task.priority;

            // Free fitting PRR?
            let free = (0..n_slots)
                .find(|&s| slot_free_at[s] <= now && slot_running[s].is_none() && fits_slot(pi, s));
            let slot = match free {
                Some(s) => Some(s),
                None => {
                    // Preempt the lowest-priority strictly-lower victim.
                    (0..n_slots)
                        .filter(|&s| {
                            fits_slot(pi, s)
                                && slot_running[s]
                                    .as_ref()
                                    .is_some_and(|r| r.priority < prio && r.done_at > now)
                        })
                        .min_by_key(|&s| slot_running[s].as_ref().map(|r| r.priority))
                }
            };
            let Some(s) = slot else { break };

            // Only configuration-plane work waits for the ICAP: a reuse
            // hit that saves, writes and restores nothing starts now.
            let victim = slot_running[s].take();
            let module = pending[pi].task.module;
            let write = slot_module[s] != Some(module);
            let mut t = now;
            if victim.is_some() || write || pending[pi].saved {
                t = now.max(icap_free_at);
                // If preempting, save the victim's context first.
                if let Some(victim) = victim {
                    let ctx = context_cost(&system.prrs[s].organization);
                    let save_ns = ctx.save_time(&system.icap).as_nanos() as u64;
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
                // Bitstream write if the module differs, restore if resuming.
                if write {
                    let w = system.reconfig_ns(&system.prrs[s]);
                    t = t.saturating_add(w);
                    report.reconfigurations += 1;
                    report.icap_busy_ns = report.icap_busy_ns.saturating_add(w);
                    slot_module[s] = Some(module);
                }
                if pending[pi].saved {
                    let ctx = context_cost(&system.prrs[s].organization);
                    let r = ctx.restore_time(&system.icap).as_nanos() as u64;
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
            waiting.remove(
                waiting
                    .iter()
                    .position(|&i| i == pi)
                    .expect("pi is waiting"),
            );
        }

        // Advance the clock to the earliest pending event. `None`, not a
        // `u64::MAX` sentinel: a saturated run still ends at `u64::MAX`.
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
    // A run still live when no event is left ends at the current instant
    // (a clock saturated at `u64::MAX`, or no work left).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ModuleTable;
    use bitstream::IcapModel;
    use fabric::{database::xc5vlx110t, Family, Resources};
    use prcost::PrrOrganization;

    fn system(prrs: u32) -> PrSystem {
        let org = PrrOrganization {
            family: Family::Virtex5,
            height: 1,
            clb_cols: 4,
            dsp_cols: 0,
            bram_cols: 0,
        };
        PrSystem::homogeneous(&xc5vlx110t(), org, prrs, IcapModel::V5_DMA).unwrap()
    }

    /// A workload of `(module, arrival, exec, priority)` tasks, ids in
    /// list order.
    fn workload(tasks: &[(&str, u64, u64, u8)]) -> Workload {
        let mut modules = ModuleTable::new();
        let tasks = tasks
            .iter()
            .zip(0..)
            .map(|(&(module, arrival_ns, exec_ns, priority), id)| HwTask {
                id,
                module: modules.intern(module),
                priority,
                needs: Resources::new(40, 0, 0),
                arrival_ns,
                exec_ns,
                deadline_ns: None,
            })
            .collect();
        Workload::new(tasks, modules)
    }

    #[test]
    fn no_preemption_without_priority_inversion() {
        let sys = system(1);
        let r = simulate_preemptive(&sys, &workload(&[("a", 0, 1_000, 1), ("b", 10, 1_000, 1)]));
        assert_eq!(r.completed, 2);
        assert_eq!(r.preemptions, 0, "equal priority never preempts");
        assert_eq!(r.reconfigurations, 2);
    }

    #[test]
    fn urgent_task_preempts_and_victim_resumes() {
        let sys = system(1);
        // Long low-priority task; urgent task arrives mid-flight.
        let r = simulate_preemptive(
            &sys,
            &workload(&[("bg", 0, 10_000_000, 0), ("rt", 1_000_000, 50_000, 3)]),
        );
        assert_eq!(r.completed, 2);
        assert_eq!(r.preemptions, 1);
        assert_eq!(r.context_transfers, 2, "one save + one restore");
        // The victim resumed: total work conserved, makespan covers both.
        assert!(r.makespan_ns > 10_000_000);
        // Urgent response is bounded by save + write, far below waiting
        // out the 10 ms background task.
        assert!(
            r.urgent_mean_response_ns < 1_000_000,
            "{}",
            r.urgent_mean_response_ns
        );
    }

    #[test]
    fn preemption_work_is_conserved() {
        let sys = system(1);
        let r = simulate_preemptive(
            &sys,
            &workload(&[
                ("bg", 0, 5_000_000, 0),
                ("rt1", 500_000, 100_000, 2),
                ("rt2", 2_000_000, 100_000, 3),
            ]),
        );
        assert_eq!(r.completed, 3);
        assert!(r.preemptions >= 2);
        // Makespan >= sum of exec (single PRR) — nothing vanishes.
        assert!(r.makespan_ns >= 5_200_000);
    }

    #[test]
    fn two_prrs_avoid_preemption_when_possible() {
        let sys = system(2);
        let r = simulate_preemptive(
            &sys,
            &workload(&[("bg", 0, 10_000_000, 0), ("rt", 1_000_000, 50_000, 3)]),
        );
        assert_eq!(r.preemptions, 0, "free PRR available, no need to preempt");
        assert_eq!(r.completed, 2);
    }

    /// A reuse hit saves, writes and restores nothing, so it starts at
    /// once instead of queueing behind another PRR's reconfiguration.
    #[test]
    fn reuse_hit_skips_the_icap_queue() {
        let sys = system(2);
        let reconfig = sys.reconfig_ns(&sys.prrs[0]);
        // `b`'s write occupies the ICAP until 2 × reconfig; task 2 arrives
        // before that, once `a` has finished on the PRR that still holds it.
        let arrival = reconfig + reconfig / 2;
        let r = simulate_preemptive(
            &sys,
            &workload(&[("a", 0, 10, 0), ("b", 1, 10, 0), ("a", arrival, 100_000, 0)]),
        );
        assert_eq!(r.completed, 3);
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.reconfigurations, 2, "task 2 reuses `a`");
        assert_eq!(r.makespan_ns, arrival + 100_000);
    }

    #[test]
    fn unservable_tasks_are_dropped() {
        let sys = system(1);
        let mut wl = workload(&[("huge", 0, 1_000, 3), ("a", 0, 1_000, 0)]);
        wl.tasks[0].needs = Resources::new(100_000, 0, 0);
        let r = simulate_preemptive(&sys, &wl);
        assert_eq!(r.completed, 1);
    }

    /// Context-switch overhead scales with the PRR organization — the
    /// paper's size/bitstream trade shows up in preemption latency too.
    #[test]
    fn bigger_prrs_pay_bigger_context_switches() {
        let small_sys = system(1);
        let big_org = PrrOrganization {
            family: Family::Virtex5,
            height: 4,
            clb_cols: 8,
            dsp_cols: 0,
            bram_cols: 0,
        };
        let big_sys = PrSystem::homogeneous(&xc5vlx110t(), big_org, 1, IcapModel::V5_DMA).unwrap();
        let tasks = workload(&[("bg", 0, 10_000_000, 0), ("rt", 1_000_000, 50_000, 3)]);
        let small = simulate_preemptive(&small_sys, &tasks);
        let big = simulate_preemptive(&big_sys, &tasks);
        assert!(big.context_switch_ns > small.context_switch_ns);
    }
}
