//! Preemptive hardware multitasking with context save/restore.
//!
//! The authors' companion work (\[5\] FCCM'13, \[6\] ARC'13) makes hardware
//! tasks preemptible: a running PRM's state is read back through the
//! configuration plane, the PRR is given to a more urgent task, and the
//! victim later resumes (bitstream write + context restore) on a
//! compatible PRR. Every configuration-plane operation serializes through
//! the single ICAP, costed from the PRR organization via `prcost` Eq. 18
//! and `prcost::context_breakdown`. The discipline is a line of the
//! fixed-pool loop in [`crate::sim`], with preemption as its hook.

use crate::sched::FirstFit;
use crate::sim::{run_pool, Line, QueueEntry, Slots};
use crate::system::PrSystem;
use crate::task::{HwTask, Workload};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// A place in line: higher priority first, then earlier arrival, lower
/// id, and earlier admission, which also indexes the admitted entry.
type Rank = (u8, Reverse<(u64, u32, usize)>);

/// Highest priority first: [`simulate_preemptive`]'s line.
struct ByPriority {
    /// Every entry admitted to the line, a preempted task's rest again.
    entries: Vec<QueueEntry>,
    waiting: BinaryHeap<Rank>,
    /// Each slot's run and the instant it (re)started executing.
    running: Vec<Option<(Rank, u64)>>,
    completed: u32,
    makespan_ns: u64,
    /// Sum and count of urgent tasks' first-dispatch responses.
    urgent_ns: u64,
    urgent: u64,
}

impl ByPriority {
    fn rank(&mut self, entry: QueueEntry, id: u32) {
        let admitted = self.entries.len();
        self.waiting
            .push((entry.priority, Reverse((entry.arrival_ns, id, admitted))));
        self.entries.push(entry);
    }
}

impl Line for ByPriority {
    const PREEMPTIVE: bool = true;

    fn push(&mut self, task: &HwTask, fits: u64) {
        self.rank(QueueEntry::new(task, fits), task.id);
    }

    fn head(&self) -> Option<&QueueEntry> {
        let &(_, Reverse((_, _, admitted))) = self.waiting.peek()?;
        Some(&self.entries[admitted])
    }

    fn dispatch(&mut self, slot: usize, start: u64, _done: u64) {
        let rank @ (_, Reverse((_, _, admitted))) = self.waiting.pop().expect("a head");
        let entry = &self.entries[admitted];
        if !entry.resumed && entry.priority >= 2 {
            self.urgent_ns = self.urgent_ns.saturating_add(start - entry.arrival_ns);
            self.urgent += 1;
        }
        self.running[slot] = Some((rank, start));
    }

    fn finish(&mut self, slot: usize, done: u64) {
        self.running[slot] = None;
        self.completed += 1;
        self.makespan_ns = self.makespan_ns.max(done);
    }

    /// The lowest-priority run below the head's on a PRR the head fits,
    /// the lowest slot on ties.
    fn victim(&self, head: &QueueEntry, fits: impl Fn(usize) -> bool) -> Option<usize> {
        let mut victim: Option<(u8, usize)> = None;
        for (slot, run) in self.running.iter().enumerate() {
            let Some(((p, _), _)) = *run else { continue };
            if p < head.priority && victim.is_none_or(|(best, _)| p < best) && fits(slot) {
                victim = Some((p, slot));
            }
        }
        victim.map(|(_, slot)| slot)
    }

    fn preempt(&mut self, slot: usize, at: u64) {
        let ((_, Reverse((_, id, admitted))), started) =
            self.running[slot].take().expect("a victim is running");
        let mut rest = self.entries[admitted];
        rest.exec_ns = rest.exec_ns.saturating_sub(at.saturating_sub(started));
        rest.resumed = true;
        self.rank(rest, id);
    }
}

/// Simulate `workload` on `system` under preemptive priority scheduling
/// (each task's [`HwTask::priority`]; higher preempts lower).
///
/// Waiting tasks are served highest priority first, then by arrival and
/// id; the head takes the lowest-id free PRR that fits it, or else
/// preempts the lowest-priority run below its own on a PRR it fits, and
/// while it can do neither, the tasks behind it wait too. A write onto a
/// PRR holding another module, a resumed task's context restore and a
/// victim's context save all serialize on the ICAP. Clock and report
/// sums saturate at `u64::MAX`.
pub fn simulate_preemptive(system: &PrSystem, workload: &Workload) -> PreemptReport {
    let tasks = &workload.tasks;
    // Sized to allocate per run, not per task: on a homogeneous pool a
    // task preempts at most once, at its first dispatch, so preempted
    // rests and stale completions number at most n.
    let mut line = ByPriority {
        entries: Vec::with_capacity(tasks.len()),
        waiting: BinaryHeap::with_capacity(tasks.len()),
        running: vec![None; system.prrs.len()],
        completed: 0,
        makespan_ns: 0,
        urgent_ns: 0,
        urgent: 0,
    };
    let mut slots = Slots::default();
    slots.completions.reserve(tasks.len() + system.prrs.len());
    let counts = run_pool(system, workload, &FirstFit, &mut line, &mut slots);
    PreemptReport {
        completed: line.completed,
        makespan_ns: line.makespan_ns,
        preemptions: counts.preemptions,
        reconfigurations: counts.reconfigurations,
        context_transfers: counts.context_transfers,
        context_switch_ns: counts.context_switch_ns,
        icap_busy_ns: counts.icap_busy_ns,
        urgent_mean_response_ns: line.urgent_ns.checked_div(line.urgent).unwrap_or(0),
    }
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
