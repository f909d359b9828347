//! Discrete-event simulation of hardware multitasking.
//!
//! Semantics:
//!
//! * Tasks arrive at fixed times and queue FIFO.
//! * Dispatch: when a task is at the head of the queue and a free PRR fits
//!   it, the scheduler picks one. If the PRR already holds the task's
//!   module, execution starts immediately (bitstream reuse); otherwise the
//!   PRR must be reconfigured first.
//! * Reconfigurations serialize through the single ICAP (the paper: only
//!   desynchronization "releases the ICAP, which allows other PRRs to be
//!   reconfigured"); each takes `bitstream_bytes / effective ICAP rate`.
//!   Crucially the bitstream covers the *whole PRR*, so oversized PRRs pay
//!   proportionally longer reconfiguration — the paper's core motivation.
//! * Execution inside one PRR does not block other PRRs (isolated
//!   reconfiguration).
//!
//! # Performance architecture
//!
//! The evaluation loop is allocation-free after setup:
//!
//! * Tasks carry their module as an interned [`ModuleId`] (resolved once,
//!   where the workload was built), so reuse checks are integer compares
//!   and per-slot state snapshots are `Copy` (`PrrState`), not
//!   `Option<String>` clones.
//! * Each task's "which PRRs fit me" set is computed once, at admission,
//!   into a bitmask carried in its queue entry, so dispatch feasibility
//!   is a mask-and-free test and the unservable-task check (`fits_ever`)
//!   is `mask != 0` — the seed re-scanned every PRR each time a task
//!   reached the queue head.
//! * Clock advance pops a [`BinaryHeap`] of pending slot/ICAP free times
//!   instead of scanning all slots per step.
//! * All working memory lives in a reusable [`SimScratch`];
//!   [`simulate_batch`] fans scenarios out over rayon workers with one
//!   scratch per worker and records per-scenario wall time into the
//!   `prcost::metrics` stage histograms.
//!
//! Every simulator here saturates its clock and report sums at
//! `u64::MAX`, so a hostile execution time reads as an unbounded
//! makespan instead of wrapping to a small one.
//!
//! The seed implementation is frozen in [`reference`] as the equivalence
//! oracle: property tests assert the heap simulator produces an identical
//! [`SimReport`] for random workloads, systems and schedulers.

use crate::intern::ModuleId;
use crate::sched::{PrrState, SchedContext, Scheduler};
use crate::system::PrSystem;
use crate::task::Workload;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Simulation outcome metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// Scheduler used.
    pub scheduler: &'static str,
    /// Tasks completed.
    pub completed: u32,
    /// Completion time of the last task (ns from start).
    pub makespan_ns: u64,
    /// Reconfigurations performed.
    pub reconfigurations: u32,
    /// Dispatches that reused an already-loaded module (no reconfig).
    pub reuse_hits: u32,
    /// Total time the ICAP spent transferring bitstreams (ns).
    pub icap_busy_ns: u64,
    /// Sum of task waiting times: dispatch start - arrival (ns).
    pub total_wait_ns: u64,
    /// Sum of task execution times (ns) — invariant under scheduling.
    pub total_exec_ns: u64,
    /// Completed tasks that finished after their absolute deadline.
    /// Always 0 for loss-system workloads (no [`HwTask::deadline_ns`]).
    pub deadline_misses: u32,
    /// Sum of task response times: completion - arrival (ns).
    pub total_response_ns: u64,
}

impl SimReport {
    /// Mean waiting time per completed task.
    pub fn mean_wait_ns(&self) -> u64 {
        if self.completed == 0 {
            0
        } else {
            self.total_wait_ns / u64::from(self.completed)
        }
    }

    /// Mean response time (completion - arrival) per completed task.
    pub fn mean_response_ns(&self) -> u64 {
        if self.completed == 0 {
            0
        } else {
            self.total_response_ns / u64::from(self.completed)
        }
    }

    /// Fraction of completed tasks that missed their deadline.
    pub fn deadline_miss_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            f64::from(self.deadline_misses) / f64::from(self.completed)
        }
    }

    /// Fraction of the makespan the ICAP spent busy.
    pub fn icap_utilization(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.icap_busy_ns as f64 / self.makespan_ns as f64
        }
    }

    /// Fraction of dispatches that skipped reconfiguration.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.reconfigurations + self.reuse_hits;
        if total == 0 {
            0.0
        } else {
            f64::from(self.reuse_hits) / f64::from(total)
        }
    }

    /// Count one completed task that arrived at `arrival`, started
    /// executing at `start` and finished at `done` (sums saturate).
    fn add_task(&mut self, start: u64, done: u64, arrival: u64, exec_ns: u64) {
        self.total_wait_ns = self.total_wait_ns.saturating_add(start - arrival);
        self.total_exec_ns = self.total_exec_ns.saturating_add(exec_ns);
        self.total_response_ns = self.total_response_ns.saturating_add(done - arrival);
        self.completed += 1;
        self.makespan_ns = self.makespan_ns.max(done);
    }
}

/// Per-PRR runtime bookkeeping (interned module identity).
#[derive(Debug, Clone, Copy)]
struct SlotRt {
    free_at: u64,
    loaded: Option<ModuleId>,
}

/// Task attributes copied into the FIFO at admission, while the task's
/// cache lines are warm from the sequential arrival scan. On large
/// workloads the head of a backed-up queue was admitted tens of
/// thousands of tasks earlier, so dispatching off the original task /
/// fits arrays costs cold misses per dispatch; the queue itself is read
/// sequentially and stays prefetcher-friendly.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    module: ModuleId,
    /// Fits bitmask over the first 64 slots (the whole mask for systems
    /// with ≤ 64 PRRs; wider systems re-test the tail against `avail`).
    fits: u64,
    needs: fabric::Resources,
    arrival_ns: u64,
    exec_ns: u64,
    /// Absolute deadline (`u64::MAX` = none): kept as a plain integer so
    /// the entry stays a branchless `Copy` and the miss check is a
    /// single compare at completion accounting.
    deadline_ns: u64,
}

/// Reusable working memory for [`simulate_with_scratch`].
///
/// Holds every buffer the simulator needs — hoisted per-slot data, slot
/// runtime state, the scheduler's state snapshot, the FIFO queue and the
/// event heap — so repeated simulations (sweeps,
/// batches) allocate nothing after the first run reaches steady-state
/// capacity. `Default`-construct once and pass to every call.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Hoisted per-slot available resources.
    avail: Vec<fabric::Resources>,
    /// Hoisted per-slot reconfiguration time (ns): the float ICAP
    /// transfer-time math runs once per slot, not once per dispatch.
    reconfig_ns: Vec<u64>,
    rt: Vec<SlotRt>,
    states: Vec<PrrState>,
    candidates: Vec<usize>,
    queue: VecDeque<QueueEntry>,
    /// Min-heap of pending `(free_time, slot)` events.
    events: BinaryHeap<Reverse<(u64, u32)>>,
}

impl SimScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Reset and precompute per-run state: hoisted per-slot availability
    /// and reconfiguration times.
    fn prepare(&mut self, system: &PrSystem) {
        let n_slots = system.prrs.len();
        self.avail.clear();
        self.avail.extend(system.prrs.iter().map(|p| p.available()));
        self.reconfig_ns.clear();
        self.reconfig_ns
            .extend(system.prrs.iter().map(|p| system.reconfig_ns(p)));

        self.rt.clear();
        self.rt.resize(
            n_slots,
            SlotRt {
                free_at: 0,
                loaded: None,
            },
        );
        self.states.clear();
        self.states.resize(
            n_slots,
            PrrState {
                busy: false,
                loaded_module: None,
            },
        );
        self.candidates.clear();
        self.queue.clear();
        self.events.clear();
    }
}

/// Simulate `workload` on `system` under `scheduler`.
///
/// Tasks that fit no PRR at all are dropped (counted out of `completed`).
/// Allocates a fresh [`SimScratch`] per call; use
/// [`simulate_with_scratch`] or [`simulate_batch`] to amortize buffers
/// across many runs.
///
/// ```
/// use multitask::{simulate, PrSystem, ReuseAware, Workload};
/// use bitstream::IcapModel;
/// use fabric::{device_by_name, Family};
/// use prcost::PrrOrganization;
///
/// let device = device_by_name("xc5vsx95t").unwrap();
/// let org = PrrOrganization {
///     family: Family::Virtex5, height: 1, clb_cols: 6, dsp_cols: 1, bram_cols: 1,
/// };
/// let system = PrSystem::homogeneous(&device, org, 4, IcapModel::V5_DMA).unwrap();
/// let workload = system.filter_workload(
///     &Workload::generate(7, Family::Virtex5, 100, 8, 300, 5_000, 100_000),
/// );
/// let report = simulate(&system, &workload, &ReuseAware);
/// assert_eq!(report.completed as usize, workload.tasks.len());
/// ```
pub fn simulate<S: Scheduler + ?Sized>(
    system: &PrSystem,
    workload: &Workload,
    scheduler: &S,
) -> SimReport {
    simulate_with_scratch(system, workload, scheduler, &mut SimScratch::new())
}

/// [`simulate`] with caller-provided working memory.
///
/// Behaviourally identical to [`simulate`] (and to the frozen seed
/// implementation in [`reference`]); reuses `scratch`'s buffers so
/// steady-state simulation performs no heap allocation.
pub fn simulate_with_scratch<S: Scheduler + ?Sized>(
    system: &PrSystem,
    workload: &Workload,
    scheduler: &S,
    scratch: &mut SimScratch,
) -> SimReport {
    scratch.prepare(system);
    let tasks = &workload.tasks;
    // Disjoint field borrows: the queue/heap fields stay mutable while
    // the hoisted per-slot data is read.
    let SimScratch {
        avail,
        reconfig_ns,
        rt,
        states,
        candidates,
        queue,
        events,
    } = scratch;
    let mut icap_free_at = 0u64;
    let mut next_arrival = 0usize;
    // Free-slot bitmask over the first 64 slots, kept in sync with the
    // event heap: a dispatch clears the chosen bit, popping the slot's
    // free event sets it back. Candidate discovery for a queue head is
    // then `entry.fits & free_mask` — no per-dispatch slot scan.
    let mut free_mask: u64 = if rt.len() >= 64 {
        u64::MAX
    } else {
        (1u64 << rt.len()) - 1
    };

    let mut report = SimReport {
        scheduler: scheduler.name(),
        completed: 0,
        makespan_ns: 0,
        reconfigurations: 0,
        reuse_hits: 0,
        icap_busy_ns: 0,
        total_wait_ns: 0,
        total_exec_ns: 0,
        deadline_misses: 0,
        total_response_ns: 0,
    };

    // Event-driven loop over "interesting" times: arrivals and slot/ICAP
    // frees. The clock jumps to the earliest pending event (heap pop);
    // dispatch then proceeds greedily at that instant.
    let mut now = 0u64;
    loop {
        // Admit arrivals up to `now`. The fits mask is computed here from
        // the L1-resident `avail` (strictly cheaper than a precompute
        // pass plus a re-read); unservable tasks (empty mask) are dropped
        // here, once per task — the seed re-scanned every PRR each time
        // such a task reached the queue head. Everything the dispatch
        // path needs rides in the queue entry.
        while next_arrival < tasks.len() && tasks[next_arrival].arrival_ns <= now {
            let task = &tasks[next_arrival];
            let mut mask = 0u64;
            for (si, av) in avail.iter().take(64).enumerate() {
                if av.covers(&task.needs) {
                    mask |= 1u64 << si;
                }
            }
            let servable = mask != 0
                || avail.len() > 64 && avail[64..].iter().any(|av| av.covers(&task.needs));
            if servable {
                queue.push_back(QueueEntry {
                    module: task.module,
                    fits: mask,
                    needs: task.needs,
                    arrival_ns: task.arrival_ns,
                    exec_ns: task.exec_ns,
                    deadline_ns: task.deadline_ns.unwrap_or(u64::MAX),
                });
            }
            next_arrival += 1;
        }

        // Dispatch FIFO head(s) while possible. Candidates come from the
        // fits-and-free mask (ascending slot order, matching the seed's
        // scan); `states` is maintained incrementally — `loaded_module`
        // changes only here, `busy` flips here and at event pops — so no
        // per-dispatch rebuild.
        while let Some(entry) = queue.front().copied() {
            candidates.clear();
            if rt.len() <= 64 {
                let mut m = entry.fits & free_mask;
                while m != 0 {
                    candidates.push(m.trailing_zeros() as usize);
                    m &= m - 1;
                }
            } else {
                for (si, slot) in rt.iter().enumerate() {
                    let fits = if si < 64 {
                        entry.fits >> si & 1 == 1
                    } else {
                        avail[si].covers(&entry.needs)
                    };
                    if fits && slot.free_at <= now {
                        candidates.push(si);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            let module = entry.module;
            let ctx = SchedContext {
                now,
                // Tasks waiting *behind* the one being dispatched.
                queue_len: queue.len() - 1,
                arrival_ns: entry.arrival_ns,
                exec_ns: entry.exec_ns,
                deadline_ns: (entry.deadline_ns != u64::MAX).then_some(entry.deadline_ns),
                icap_free_at,
                reconfig_ns,
            };
            let chosen = scheduler.choose(&ctx, &entry.needs, module, candidates, avail, states);
            debug_assert!(candidates.contains(&chosen));
            queue.pop_front();

            let reuse = rt[chosen].loaded == Some(module);
            let exec_start = if reuse {
                report.reuse_hits += 1;
                now
            } else {
                let reconfig = reconfig_ns[chosen];
                let start = now.max(icap_free_at);
                icap_free_at = start.saturating_add(reconfig);
                report.reconfigurations += 1;
                report.icap_busy_ns = report.icap_busy_ns.saturating_add(reconfig);
                rt[chosen].loaded = Some(module);
                states[chosen].loaded_module = Some(module);
                // Note: no event for `icap_free_at`. An ICAP free can
                // never enable a dispatch (dispatch is gated on arrivals
                // and slot frees only; reconfigurations serialize through
                // `max(now, icap_free_at)` whatever `now` is), so waking
                // then — as the seed does — is a provable no-op.
                icap_free_at
            };
            let done = exec_start.saturating_add(entry.exec_ns);
            rt[chosen].free_at = done;
            if done > now {
                if chosen < 64 {
                    free_mask &= !(1u64 << chosen);
                }
                states[chosen].busy = true;
                events.push(Reverse((done, chosen as u32)));
            }
            // done == now (zero-length execution on a reuse hit): the
            // slot is immediately free again — keep its bit, no event.
            report.add_task(exec_start, done, entry.arrival_ns, entry.exec_ns);
            report.deadline_misses += u32::from(done > entry.deadline_ns);
        }

        // Advance the clock. While the FIFO is backed up, arrivals can
        // never overtake the blocked head, so the only interesting time
        // is the next slot-free event; the intervening arrivals are
        // admitted in one batch when it fires (dispatch order and times
        // are identical — the seed woke at every arrival instead). With
        // an empty queue the next arrival is the only interesting time.
        if queue.is_empty() {
            match tasks.get(next_arrival) {
                Some(t) => now = t.arrival_ns,
                None => break,
            }
        } else {
            // A blocked head means some fitting slot is busy, hence a
            // pending event; jump straight to the earliest one.
            let Reverse((t, _)) = *events.peek().expect("blocked head implies pending event");
            now = t;
        }
        // Free every slot whose event is due at (or before) `now`.
        while let Some(&Reverse((t, si))) = events.peek() {
            if t > now {
                break;
            }
            events.pop();
            let si = si as usize;
            states[si].busy = false;
            if si < 64 {
                free_mask |= 1u64 << si;
            }
        }
    }

    report
}

/// One (system, workload, scheduler) combination for [`simulate_batch`].
#[derive(Clone, Copy)]
pub struct Scenario<'a> {
    /// PR system to simulate on.
    pub system: &'a PrSystem,
    /// Task stream.
    pub workload: &'a Workload,
    /// PRR selection policy.
    pub scheduler: &'a dyn Scheduler,
}

/// Simulate many scenarios across rayon workers.
///
/// Each worker owns one [`SimScratch`] reused across every scenario it
/// processes, so the fleet performs no per-scenario allocation beyond
/// first-touch growth. Per-scenario wall time is recorded under the
/// `"simulate"` stage of [`prcost::Metrics::global`], joining the
/// planning-engine histograms. Output order matches input order.
pub fn simulate_batch(scenarios: &[Scenario<'_>]) -> Vec<SimReport> {
    use rayon::prelude::*;
    scenarios
        .par_iter()
        .map_with(SimScratch::new(), |scratch, sc| {
            let start = Instant::now();
            let report = simulate_with_scratch(sc.system, sc.workload, sc.scheduler, scratch);
            prcost::Metrics::global().record_stage("simulate", start.elapsed());
            report
        })
        .collect()
}

/// Simulate the **full-reconfiguration** baseline the paper's introduction
/// contrasts PR against: the whole device holds one module at a time, a
/// module switch transfers the *full* bitstream, and — unlike isolated PRR
/// reconfiguration — nothing executes during the transfer.
pub fn simulate_full_reconfig(
    device: &fabric::Device,
    workload: &Workload,
    icap: &bitstream::IcapModel,
) -> SimReport {
    let full_bytes = prcost::full_bitstream_size_bytes(device);
    let reconfig = icap.transfer_time(full_bytes).as_nanos() as u64;

    let mut report = SimReport {
        scheduler: "full-reconfig",
        completed: 0,
        makespan_ns: 0,
        reconfigurations: 0,
        reuse_hits: 0,
        icap_busy_ns: 0,
        total_wait_ns: 0,
        total_exec_ns: 0,
        deadline_misses: 0,
        total_response_ns: 0,
    };
    let mut now = 0u64;
    let mut loaded: Option<ModuleId> = None;
    for task in &workload.tasks {
        now = now.max(task.arrival_ns);
        if loaded != Some(task.module) {
            now = now.saturating_add(reconfig);
            report.reconfigurations += 1;
            report.icap_busy_ns = report.icap_busy_ns.saturating_add(reconfig);
            loaded = Some(task.module);
        } else {
            report.reuse_hits += 1;
        }
        let start = now;
        now = now.saturating_add(task.exec_ns);
        report.add_task(start, now, task.arrival_ns, task.exec_ns);
        report.deadline_misses += u32::from(task.deadline_ns.is_some_and(|d| now > d));
    }
    report
}

/// Simulate the **static (non-PR)** baseline: every distinct module is
/// permanently resident side by side, so there is no reconfiguration at
/// all — but tasks of the same module serialize on its single instance,
/// and the design only exists if all modules fit the device together.
/// Each module's instance is sized for the largest needs of any of its
/// tasks. Returns `None` when the combined resources exceed the device.
pub fn simulate_static(device: &fabric::Device, workload: &Workload) -> Option<SimReport> {
    // Capacity check: the saturating sum of per-module needs against the
    // whole device.
    let mut modules: Vec<(ModuleId, fabric::Resources)> = Vec::new();
    for t in &workload.tasks {
        match modules.iter_mut().find(|(m, _)| *m == t.module) {
            Some((_, needs)) => *needs = needs.max(&t.needs),
            None => modules.push((t.module, t.needs)),
        }
    }
    let total = modules
        .iter()
        .fold(fabric::Resources::ZERO, |sum, (_, needs)| {
            sum.saturating_add(needs)
        });
    if !device.total_resources().covers(&total) {
        return None;
    }

    let mut report = SimReport {
        scheduler: "static",
        completed: 0,
        makespan_ns: 0,
        reconfigurations: 0,
        reuse_hits: 0,
        icap_busy_ns: 0,
        total_wait_ns: 0,
        total_exec_ns: 0,
        deadline_misses: 0,
        total_response_ns: 0,
    };
    let mut free_at: Vec<(ModuleId, u64)> = modules.iter().map(|&(m, _)| (m, 0u64)).collect();
    for task in &workload.tasks {
        let slot = free_at
            .iter_mut()
            .find(|(m, _)| *m == task.module)
            .expect("module registered above");
        let start = task.arrival_ns.max(slot.1);
        let done = start.saturating_add(task.exec_ns);
        slot.1 = done;
        report.add_task(start, done, task.arrival_ns, task.exec_ns);
        report.deadline_misses += u32::from(task.deadline_ns.is_some_and(|d| done > d));
    }
    Some(report)
}

pub mod reference {
    //! The seed simulator, frozen as the equivalence oracle and
    //! benchmark baseline.
    //!
    //! This is the pre-optimization implementation: per-dispatch `Vec`
    //! allocations for candidates and states, per-slot snapshots of the
    //! loaded module (compared by id, as tasks carry it), an O(slots)
    //! `fits_ever` rescan every time a task reaches the queue head, and
    //! an O(slots) clock-advance scan per step. Scheduling policies are
    //! inlined, replicating the seed's first-fit / best-fit / reuse-aware
    //! behaviour byte for byte so [`super::simulate`] can be
    //! property-tested report-identical against it.

    use super::SimReport;
    use crate::intern::ModuleId;
    use crate::system::{PrSystem, PrrSlot};
    use crate::task::{HwTask, Workload};
    use std::collections::VecDeque;

    /// Seed scheduling policy (mirrors the live unit-struct schedulers).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SeedPolicy {
        /// Lowest-id free PRR that fits.
        FirstFit,
        /// Fewest spare CLB-equivalents.
        BestFit,
        /// Prefer a PRR already holding the module; else best fit.
        ReuseAware,
    }

    impl SeedPolicy {
        /// Report name, identical to the live scheduler's.
        pub fn name(self) -> &'static str {
            match self {
                SeedPolicy::FirstFit => "first-fit",
                SeedPolicy::BestFit => "best-fit",
                SeedPolicy::ReuseAware => "reuse-aware",
            }
        }

        fn spare_cost(task: &HwTask, slot: &PrrSlot) -> u64 {
            let avail = slot.available();
            let spare = avail.saturating_sub(&task.needs);
            spare.clb() + spare.dsp() * 3 + spare.bram() * 5
        }

        fn choose(
            self,
            task: &HwTask,
            candidates: &[usize],
            slots: &[PrrSlot],
            states: &[(bool, Option<ModuleId>)],
        ) -> usize {
            match self {
                SeedPolicy::FirstFit => candidates[0],
                SeedPolicy::BestFit => *candidates
                    .iter()
                    .min_by_key(|&&i| (Self::spare_cost(task, &slots[i]), i))
                    .expect("candidates is non-empty"),
                SeedPolicy::ReuseAware => {
                    if let Some(&hit) = candidates
                        .iter()
                        .find(|&&i| states[i].1 == Some(task.module))
                    {
                        return hit;
                    }
                    SeedPolicy::BestFit.choose(task, candidates, slots, states)
                }
            }
        }
    }

    struct SlotRt {
        free_at: u64,
        loaded: Option<ModuleId>,
    }

    /// The seed `simulate`, unchanged except that policies are inlined.
    pub fn simulate_seed(system: &PrSystem, workload: &Workload, policy: SeedPolicy) -> SimReport {
        let n_slots = system.prrs.len();
        let mut rt: Vec<SlotRt> = (0..n_slots)
            .map(|_| SlotRt {
                free_at: 0,
                loaded: None,
            })
            .collect();
        let mut icap_free_at = 0u64;

        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut next_arrival = 0usize;
        let tasks = &workload.tasks;

        let mut report = SimReport {
            scheduler: policy.name(),
            completed: 0,
            makespan_ns: 0,
            reconfigurations: 0,
            reuse_hits: 0,
            icap_busy_ns: 0,
            total_wait_ns: 0,
            total_exec_ns: 0,
            deadline_misses: 0,
            total_response_ns: 0,
        };

        let mut now = 0u64;
        loop {
            while next_arrival < tasks.len() && tasks[next_arrival].arrival_ns <= now {
                queue.push_back(next_arrival);
                next_arrival += 1;
            }

            let mut dispatched_any = true;
            while dispatched_any {
                dispatched_any = false;
                if let Some(&ti) = queue.front() {
                    let task = &tasks[ti];
                    let candidates: Vec<usize> = (0..n_slots)
                        .filter(|&i| rt[i].free_at <= now && system.prrs[i].fits(&task.needs))
                        .collect();
                    let fits_ever = (0..n_slots).any(|i| system.prrs[i].fits(&task.needs));
                    if !fits_ever {
                        queue.pop_front();
                        dispatched_any = true;
                        continue;
                    }
                    if !candidates.is_empty() {
                        let states: Vec<(bool, Option<ModuleId>)> =
                            rt.iter().map(|s| (s.free_at > now, s.loaded)).collect();
                        let chosen = policy.choose(task, &candidates, &system.prrs, &states);
                        debug_assert!(candidates.contains(&chosen));
                        queue.pop_front();

                        let reuse = rt[chosen].loaded == Some(task.module);
                        let exec_start = if reuse {
                            report.reuse_hits += 1;
                            now
                        } else {
                            let reconfig = system.reconfig_ns(&system.prrs[chosen]);
                            let start = now.max(icap_free_at);
                            icap_free_at = start + reconfig;
                            report.reconfigurations += 1;
                            report.icap_busy_ns += reconfig;
                            rt[chosen].loaded = Some(task.module);
                            icap_free_at
                        };
                        let done = exec_start + task.exec_ns;
                        rt[chosen].free_at = done;
                        report.total_wait_ns += exec_start - task.arrival_ns;
                        report.total_exec_ns += task.exec_ns;
                        // Deadline/response accounting, added alongside the
                        // live simulator's so the equivalence proptests keep
                        // comparing full reports (0 misses on deadline-free
                        // loss-system workloads, like the live loop).
                        report.total_response_ns += done - task.arrival_ns;
                        report.deadline_misses +=
                            u32::from(task.deadline_ns.is_some_and(|d| done > d));
                        report.completed += 1;
                        report.makespan_ns = report.makespan_ns.max(done);
                        dispatched_any = true;
                    }
                }
            }

            let mut next = u64::MAX;
            if next_arrival < tasks.len() {
                next = next.min(tasks[next_arrival].arrival_ns);
            }
            if !queue.is_empty() {
                for s in &rt {
                    if s.free_at > now {
                        next = next.min(s.free_at);
                    }
                }
                if icap_free_at > now {
                    next = next.min(icap_free_at);
                }
            }
            if next == u64::MAX {
                break;
            }
            now = next;
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ModuleTable;
    use crate::sched::{BestFit, FirstFit, ReuseAware};
    use crate::system::PrSystem;
    use crate::task::HwTask;
    use bitstream::IcapModel;
    use fabric::database::xc5vlx110t;
    use fabric::{Family, Resources};
    use prcost::PrrOrganization;

    fn org(h: u32, clb: u32) -> PrrOrganization {
        PrrOrganization {
            family: Family::Virtex5,
            height: h,
            clb_cols: clb,
            dsp_cols: 0,
            bram_cols: 0,
        }
    }

    fn mixed_org(h: u32, clb: u32, dsp: u32, bram: u32) -> PrrOrganization {
        PrrOrganization {
            family: Family::Virtex5,
            height: h,
            clb_cols: clb,
            dsp_cols: dsp,
            bram_cols: bram,
        }
    }

    fn simple_system(prrs: u32) -> PrSystem {
        PrSystem::homogeneous(&xc5vlx110t(), org(1, 4), prrs, IcapModel::V5_DMA).unwrap()
    }

    /// PRRs with CLB+DSP+BRAM columns on the DSP-rich SX95T, so the random
    /// workload generator's mixed-resource tasks are servable.
    fn mixed_system(prrs: u32, h: u32, clb: u32, dsp: u32, bram: u32) -> PrSystem {
        let device = fabric::device_by_name("xc5vsx95t").unwrap();
        PrSystem::homogeneous(
            &device,
            mixed_org(h, clb, dsp, bram),
            prrs,
            IcapModel::V5_DMA,
        )
        .unwrap()
    }

    /// The modules the hand-built tests name, interned in this order.
    const NAMES: [&str; 5] = ["a", "b", "c", "d", "huge"];

    fn task(id: u32, module: &str, arrival: u64, exec: u64) -> HwTask {
        let module = NAMES.iter().position(|&n| n == module).unwrap();
        HwTask {
            id,
            module: ModuleId(module as u32),
            priority: 0,
            needs: Resources::new(40, 0, 0),
            arrival_ns: arrival,
            exec_ns: exec,
            deadline_ns: None,
        }
    }

    fn workload(tasks: Vec<HwTask>) -> Workload {
        let mut modules = ModuleTable::new();
        for name in NAMES {
            modules.intern(name);
        }
        Workload::new(tasks, modules)
    }

    #[test]
    fn single_task_timeline() {
        let sys = simple_system(1);
        let w = workload(vec![task(0, "a", 0, 1000)]);
        let r = simulate(&sys, &w, &FirstFit);
        let reconfig = sys.reconfig_ns(&sys.prrs[0]);
        assert_eq!(r.completed, 1);
        assert_eq!(r.reconfigurations, 1);
        assert_eq!(r.makespan_ns, reconfig + 1000);
        assert_eq!(r.total_wait_ns, reconfig);
    }

    #[test]
    fn reuse_skips_reconfiguration() {
        let sys = simple_system(1);
        let w = workload(vec![task(0, "a", 0, 100), task(1, "a", 0, 100)]);
        let r = simulate(&sys, &w, &ReuseAware);
        assert_eq!(r.completed, 2);
        assert_eq!(r.reconfigurations, 1);
        assert_eq!(r.reuse_hits, 1);
        assert!(r.reuse_rate() > 0.49);
    }

    #[test]
    fn different_modules_force_reconfiguration() {
        let sys = simple_system(1);
        let w = workload(vec![task(0, "a", 0, 100), task(1, "b", 0, 100)]);
        let r = simulate(&sys, &w, &ReuseAware);
        assert_eq!(r.reconfigurations, 2);
        assert_eq!(r.reuse_hits, 0);
    }

    #[test]
    fn icap_serializes_reconfigurations() {
        let sys = simple_system(2);
        // Two tasks, two PRRs: both need reconfig; the second must wait for
        // the ICAP even though its PRR is free.
        let w = workload(vec![task(0, "a", 0, 10), task(1, "b", 0, 10)]);
        let r = simulate(&sys, &w, &FirstFit);
        let reconfig = sys.reconfig_ns(&sys.prrs[0]);
        assert_eq!(r.reconfigurations, 2);
        assert_eq!(r.makespan_ns, 2 * reconfig + 10);
        assert_eq!(r.icap_busy_ns, 2 * reconfig);
    }

    #[test]
    fn unservable_tasks_are_dropped() {
        let sys = simple_system(1);
        let mut t = task(0, "huge", 0, 10);
        t.needs = Resources::new(10_000, 0, 0);
        let w = workload(vec![t, task(1, "a", 0, 10)]);
        let r = simulate(&sys, &w, &FirstFit);
        assert_eq!(r.completed, 1);
    }

    /// Regression for the hoisted `fits_ever` check: many unservable tasks
    /// interleaved with servable ones are each dropped exactly once —
    /// completed + dropped covers the whole workload, under every
    /// scheduler, and the report matches the seed oracle.
    #[test]
    fn unservable_tasks_are_dropped_exactly_once() {
        let sys = simple_system(2);
        let mut tasks = Vec::new();
        for i in 0..30u32 {
            let mut t = task(
                i,
                if i % 3 == 0 { "huge" } else { "a" },
                u64::from(i) * 50,
                200,
            );
            if i % 3 == 0 {
                t.needs = Resources::new(10_000, 0, 0);
            }
            tasks.push(t);
        }
        let w = workload(tasks);
        let servable = w
            .tasks
            .iter()
            .filter(|t| sys.prrs.iter().any(|p| p.fits(&t.needs)))
            .count();
        assert!(servable < w.tasks.len());
        for (sched, policy) in [
            (
                &FirstFit as &dyn crate::Scheduler,
                reference::SeedPolicy::FirstFit,
            ),
            (&BestFit, reference::SeedPolicy::BestFit),
            (&ReuseAware, reference::SeedPolicy::ReuseAware),
        ] {
            let r = simulate(&sys, &w, sched);
            assert_eq!(r.completed as usize, servable, "{}", sched.name());
            assert_eq!(r, reference::simulate_seed(&sys, &w, policy));
        }
    }

    #[test]
    fn scratch_reuse_is_report_identical() {
        let sys = mixed_system(4, 1, 6, 1, 1);
        let wl_a = sys.filter_workload(&Workload::generate(
            13,
            Family::Virtex5,
            100,
            8,
            250,
            1_000,
            10_000,
        ));
        let wl_b = sys.filter_workload(&Workload::generate(
            29,
            Family::Virtex5,
            60,
            4,
            250,
            2_000,
            20_000,
        ));
        let mut scratch = SimScratch::new();
        // Reuse the same scratch across differently-shaped runs.
        let a1 = simulate_with_scratch(&sys, &wl_a, &ReuseAware, &mut scratch);
        let b1 = simulate_with_scratch(&sys, &wl_b, &BestFit, &mut scratch);
        let a2 = simulate_with_scratch(&sys, &wl_a, &ReuseAware, &mut scratch);
        assert_eq!(a1, simulate(&sys, &wl_a, &ReuseAware));
        assert_eq!(b1, simulate(&sys, &wl_b, &BestFit));
        assert_eq!(a1, a2);
    }

    #[test]
    fn batch_matches_sequential() {
        let sys4 = mixed_system(4, 1, 6, 1, 1);
        let sys2 = mixed_system(2, 1, 6, 1, 1);
        let wl = sys4.filter_workload(&Workload::generate(
            17,
            Family::Virtex5,
            120,
            8,
            250,
            2_000,
            15_000,
        ));
        let scheds: [&dyn crate::Scheduler; 3] = [&FirstFit, &BestFit, &ReuseAware];
        let mut scenarios = Vec::new();
        for sys in [&sys4, &sys2] {
            for s in scheds {
                scenarios.push(Scenario {
                    system: sys,
                    workload: &wl,
                    scheduler: s,
                });
            }
        }
        let batch = simulate_batch(&scenarios);
        assert_eq!(batch.len(), scenarios.len());
        for (r, sc) in batch.iter().zip(&scenarios) {
            assert_eq!(*r, simulate(sc.system, sc.workload, sc.scheduler));
        }
    }

    /// For an execution-bound workload (execution time >> reconfiguration
    /// time) more PRRs increase parallelism and shrink makespan. Note this
    /// is NOT true for ICAP-bound workloads, where extra PRRs just cause
    /// extra serialized reconfigurations — exactly the paper's warning
    /// that bad PR sizing decisions can underperform.
    #[test]
    fn more_prrs_help_execution_bound_workloads() {
        let sys2 = mixed_system(2, 1, 6, 1, 1);
        let sys6 = mixed_system(6, 1, 6, 1, 1);
        let wl = sys2.filter_workload(&Workload::generate(
            5,
            Family::Virtex5,
            60,
            6,
            250,
            1_000,
            3_000_000,
        ));
        assert!(wl.tasks.len() >= 10, "servable tasks: {}", wl.tasks.len());
        let r1 = simulate(&sys2, &wl, &BestFit);
        let r2 = simulate(&sys6, &wl, &BestFit);
        assert_eq!(r1.completed as usize, wl.tasks.len());
        assert!(
            r2.makespan_ns <= r1.makespan_ns,
            "6 PRRs {} vs 2 PRRs {}",
            r2.makespan_ns,
            r1.makespan_ns
        );
    }

    /// The paper's core motivation: oversizing the PRR inflates the
    /// bitstream and reconfiguration time, degrading makespan for the same
    /// workload.
    #[test]
    fn oversized_prrs_degrade_makespan() {
        let right = mixed_system(4, 1, 6, 1, 1);
        let oversized = mixed_system(4, 2, 12, 2, 2);
        let wl = right.filter_workload(&Workload::generate(
            7,
            Family::Virtex5,
            80,
            8,
            250,
            1_000,
            5_000,
        ));
        assert!(wl.tasks.len() >= 10, "servable tasks: {}", wl.tasks.len());
        let r1 = simulate(&right, &wl, &BestFit);
        let r2 = simulate(&oversized, &wl, &BestFit);
        assert!(
            r2.makespan_ns > r1.makespan_ns,
            "oversized {} vs right-sized {}",
            r2.makespan_ns,
            r1.makespan_ns
        );
        assert!(r2.icap_busy_ns > r1.icap_busy_ns);
    }

    #[test]
    fn exec_time_is_conserved_across_schedulers() {
        let sys = mixed_system(4, 1, 6, 1, 1);
        let wl = sys.filter_workload(&Workload::generate(
            13,
            Family::Virtex5,
            100,
            8,
            250,
            1_000,
            10_000,
        ));
        assert!(wl.tasks.len() >= 10);
        let a = simulate(&sys, &wl, &FirstFit);
        let b = simulate(&sys, &wl, &BestFit);
        let c = simulate(&sys, &wl, &ReuseAware);
        assert_eq!(a.total_exec_ns, b.total_exec_ns);
        assert_eq!(b.total_exec_ns, c.total_exec_ns);
        assert_eq!(a.completed, c.completed);
    }

    #[test]
    fn reuse_aware_beats_first_fit_on_repetitive_workloads() {
        let sys = mixed_system(4, 1, 6, 1, 1);
        // Heavily repetitive: few modules, many tasks.
        let wl = sys.filter_workload(&Workload::generate(
            21,
            Family::Virtex5,
            120,
            3,
            250,
            500,
            2_000,
        ));
        assert!(wl.tasks.len() >= 10, "servable tasks: {}", wl.tasks.len());
        let ff = simulate(&sys, &wl, &FirstFit);
        let ra = simulate(&sys, &wl, &ReuseAware);
        assert!(ra.reuse_hits >= ff.reuse_hits);
        assert!(ra.makespan_ns <= ff.makespan_ns);
    }

    #[test]
    fn full_reconfig_pays_per_module_switch() {
        let device = xc5vlx110t();
        let w = workload(vec![
            task(0, "a", 0, 100),
            task(1, "a", 0, 100),
            task(2, "b", 0, 100),
        ]);
        let r = simulate_full_reconfig(&device, &w, &IcapModel::V5_DMA);
        assert_eq!(r.completed, 3);
        assert_eq!(r.reconfigurations, 2, "a then b");
        assert_eq!(r.reuse_hits, 1);
        let full = prcost::full_bitstream_size_bytes(&device);
        let t_full = IcapModel::V5_DMA.transfer_time(full).as_nanos() as u64;
        assert_eq!(r.makespan_ns, 2 * t_full + 300);
    }

    #[test]
    fn static_system_has_zero_reconfig_but_serializes_per_module() {
        let device = xc5vlx110t();
        let w = workload(vec![
            task(0, "a", 0, 100),
            task(1, "a", 0, 100),
            task(2, "b", 0, 100),
        ]);
        let r = simulate_static(&device, &w).expect("3 small modules fit");
        assert_eq!(r.reconfigurations, 0);
        assert_eq!(r.icap_busy_ns, 0);
        // Two "a" tasks serialize; "b" runs in parallel.
        assert_eq!(r.makespan_ns, 200);
    }

    /// A module's instance must host its largest task, not its first.
    #[test]
    fn static_system_sizes_each_module_by_its_largest_task() {
        let device = xc5vlx110t();
        let mut huge = task(1, "a", 10, 100);
        huge.needs = Resources::new(1_000_000, 0, 0);
        assert!(simulate_static(&device, &workload(vec![huge])).is_none());
        let w = workload(vec![task(0, "a", 0, 100), huge]);
        assert!(simulate_static(&device, &w).is_none());
    }

    #[test]
    fn static_system_rejects_oversubscribed_module_sets() {
        let device = xc5vlx110t();
        // 200 distinct modules of 100 CLBs each = 20,000 CLBs > 8640.
        let mut modules = ModuleTable::new();
        let tasks: Vec<HwTask> = (0..200)
            .map(|i| HwTask {
                id: i,
                module: modules.intern(&format!("m{i}")),
                priority: 0,
                needs: Resources::new(100, 0, 0),
                arrival_ns: 0,
                exec_ns: 10,
                deadline_ns: None,
            })
            .collect();
        assert!(simulate_static(&device, &Workload::new(tasks, modules)).is_none());
    }

    /// The paper's headline warning, inverted: with partial bitstreams the
    /// PR system beats full reconfiguration by roughly the full/partial
    /// bitstream ratio on reconfiguration-bound workloads.
    #[test]
    fn pr_beats_full_reconfiguration() {
        let device = xc5vlx110t();
        let sys = PrSystem::homogeneous(&device, org(1, 4), 4, IcapModel::V5_DMA).unwrap();
        let w = workload(
            (0..40)
                .map(|i| task(i, ["a", "b", "c", "d"][(i % 4) as usize], 0, 1_000))
                .collect(),
        );
        let pr = simulate(&sys, &w, &ReuseAware);
        let full = simulate_full_reconfig(&device, &w, &IcapModel::V5_DMA);
        assert_eq!(pr.completed, full.completed);
        assert!(
            pr.makespan_ns * 5 < full.makespan_ns,
            "PR {} vs full {}",
            pr.makespan_ns,
            full.makespan_ns
        );
    }
}
