//! `LayoutSim`: the dynamic-placement counterpart of the fixed-PRR
//! simulator in `multitask::sim`, on the same event core.
//!
//! PRRs are placed and freed at runtime through the [`LayoutManager`]
//! instead of being fixed at construction. The model is a loss system:
//! a task that cannot be admitted at its arrival instant is dropped (no
//! queueing), which makes "defrag admits strictly more tasks" a directly
//! measurable comparison between [`DefragPolicy`] settings on the same
//! workload. Every admission writes a fresh partial bitstream (dynamic
//! placement means the region content never matches), and relocations
//! flow through the core's ICAP port like configurations, each charged
//! [`IcapModel::transfer_time`] over the moved module's Eq. 18 predicted
//! bytes. A relocated module is stalled for its copy time; its new
//! completion goes to the core, whose heap skips the stale one.
//! Allocations completing at one instant are released in id order.

use crate::defrag::{DefragPolicy, RelocationMove};
use crate::defrag2::Defrag2Config;
use crate::free::FreeSpace;
use crate::manager::{counters, AllocError, LayoutManager};
use bitstream::IcapModel;
use fabric::{Device, Resources, WindowRequest};
use multitask::event::{Completions, EventCore, Wake};
use multitask::{ModuleTable, Workload};
use prcost::{bitstream_size_bytes, PrrOrganization, PrrRequirements};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayoutConfig {
    /// When to execute defragmentation plans.
    pub policy: DefragPolicy,
    /// ICAP port model pricing configurations and relocations.
    pub icap: IcapModel,
    /// Multi-move search depth. `0` (the default) keeps the single-step
    /// planner on admission failures — the pinned PR-5 behaviour; `> 0`
    /// switches repair to the bounded-depth sequence search
    /// ([`crate::defrag2`]) with preemption-aware move pricing.
    pub depth: u32,
    /// Run the multi-move search *proactively* in ICAP idle windows:
    /// after a fragmentation rejection, the simulator remembers the
    /// rejected organization and repairs the layout for it at the next
    /// arrival whose instant finds the ICAP idle — before the next
    /// admission attempt rather than after the next failure. Requires
    /// `depth > 0`.
    pub proactive: bool,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            policy: DefragPolicy::Never,
            icap: IcapModel::V5_DMA,
            depth: 0,
            proactive: false,
        }
    }
}

/// One executed relocation, logged with enough detail to regenerate the
/// moved bitstream and re-validate the move through `bitstream::relocate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelocationEvent {
    /// Task whose admission triggered the move.
    pub task: u32,
    /// Name of the module that was moved.
    pub module: String,
    /// The moved module's organization (determines its bytes).
    pub organization: PrrOrganization,
    /// Source window position.
    pub from_col: u32,
    /// Source bottom row.
    pub from_row: u32,
    /// Target window position.
    pub to_col: u32,
    /// Target bottom row.
    pub to_row: u32,
    /// Total bytes replayed through the ICAP (partial-bitstream write
    /// plus `context_bytes`).
    pub bytes: u64,
    /// Context save + restore bytes included in `bytes` (zero for
    /// single-step plans, which price the write only).
    pub context_bytes: u64,
    /// ICAP transfer time charged, nanoseconds.
    pub transfer_ns: u64,
}

/// Simulation outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayoutReport {
    /// Tasks admitted (placed and run to completion).
    pub admitted: u32,
    /// Tasks dropped because the device lacks the resources outright.
    pub rejected_capacity: u32,
    /// Tasks dropped because free space was fragmented (and no plan ran).
    pub rejected_fragmentation: u32,
    /// Admissions that required a defrag plan to succeed.
    pub defrag_admissions: u32,
    /// Proactive multi-move defrags executed in ICAP idle windows.
    pub proactive_defrags: u32,
    /// Individual module relocations executed.
    pub relocations: u32,
    /// Total ICAP time spent relocating, nanoseconds.
    pub relocation_ns: u64,
    /// Total bytes replayed by relocations (bitstream + context).
    pub relocated_bytes: u64,
    /// Context save + restore bytes included in `relocated_bytes`.
    pub context_bytes: u64,
    /// Partial-bitstream configurations written (one per admission).
    pub reconfigurations: u32,
    /// Total ICAP time spent configuring admitted tasks, nanoseconds.
    pub reconfig_ns: u64,
    /// Total ICAP busy time (configurations + relocations), nanoseconds.
    pub icap_busy_ns: u64,
    /// Completion time of the last admitted task, nanoseconds.
    pub makespan_ns: u64,
    /// Σ (execution start − arrival) over admitted tasks, nanoseconds.
    pub total_wait_ns: u64,
    /// Σ execution time over admitted tasks, nanoseconds.
    pub total_exec_ns: u64,
    /// Highest fragmentation index sampled at any admission/release.
    pub peak_fragmentation: f64,
    /// Mean fragmentation index over all samples.
    pub mean_fragmentation: f64,
    /// Every executed relocation, in ICAP order.
    pub relocation_log: Vec<RelocationEvent>,
}

/// A layout run's state beside its event core.
struct LayoutRun<'a> {
    manager: LayoutManager,
    modules: &'a ModuleTable,
    /// Authoritative completion time per live allocation; the core's heap
    /// may hold stale entries (relocation stalls push completions later).
    completion: HashMap<u64, u64>,
    report: LayoutReport,
    /// Fragmentation index sum over the placement-change samples.
    frag_sum: f64,
    frag_samples: u64,
}

impl LayoutRun<'_> {
    fn sample_fragmentation(&mut self) {
        let f = self.manager.fragmentation_index();
        self.frag_sum += f;
        self.frag_samples += 1;
        if f > self.report.peak_fragmentation {
            self.report.peak_fragmentation = f;
        }
    }

    /// Release every allocation completing by the core's clock, skipping
    /// the entries relocation stalls made stale.
    fn release_due(&mut self, core: &mut EventCore) {
        while let Some((at, id)) = core.completion(|id, at| self.completion.get(&id) == Some(&at)) {
            self.completion.remove(&id);
            self.manager.release(id);
            self.report.makespan_ns = self.report.makespan_ns.max(at);
            self.sample_fragmentation();
        }
    }

    /// Serialize already-executed relocations through the core's ICAP
    /// port: stall each moved (running) module by its copy time, and log
    /// the events under the moved modules' names. `task_id` is the arrival
    /// that triggered the plan (for proactive defrag, the task whose
    /// arrival instant found the port idle).
    fn account_moves(&mut self, core: &mut EventCore, task_id: u32, moves: &[RelocationMove]) {
        let now = core.now();
        let report = &mut self.report;
        for mv in moves {
            core.icap.transfer(now, mv.transfer_ns);
            if let Some(c) = self.completion.get_mut(&mv.id) {
                *c = c.saturating_add(mv.transfer_ns);
                core.schedule(*c, mv.id);
            }
            let moved = self.manager.allocation(mv.id).expect("moved allocation");
            report.relocation_log.push(RelocationEvent {
                task: task_id,
                module: self.modules.name(moved.module).to_string(),
                organization: moved.organization,
                from_col: mv.from.start_col as u32,
                from_row: mv.from.row,
                to_col: mv.to.start_col as u32,
                to_row: mv.to.row,
                bytes: mv.bytes,
                context_bytes: mv.context_bytes,
                transfer_ns: mv.transfer_ns,
            });
            report.relocation_ns = report.relocation_ns.saturating_add(mv.transfer_ns);
            report.relocated_bytes += mv.bytes;
            report.context_bytes += mv.context_bytes;
        }
        report.relocations += moves.len() as u32;
    }
}

/// Eq. 2–6 organizations for `needs` on `device`, cheapest bitstream
/// first (then lowest height), keeping only compositions the device can
/// host at all (one composition-index probe each).
fn candidate_orgs(device: &Device, free: &FreeSpace, needs: &Resources) -> Vec<PrrOrganization> {
    if needs.clb() == 0 && needs.dsp() == 0 && needs.bram() == 0 {
        return Vec::new();
    }
    let family = device.family();
    let lut_clb = u64::from(family.params().lut_clb);
    let req = PrrRequirements::new(
        family,
        needs.clb() * lut_clb,
        0,
        0,
        needs.dsp(),
        needs.bram(),
    );
    let single_dsp = device.dsp_column_count() == 1;
    let mut orgs: Vec<PrrOrganization> = (1..=device.rows())
        .filter_map(|h| PrrOrganization::for_height(&req, h, single_dsp).ok())
        .filter(|o| free.is_achievable(o.clb_cols, o.dsp_cols, o.bram_cols))
        .collect();
    orgs.sort_by_key(|o| (bitstream_size_bytes(o), o.height));
    orgs
}

/// Run the dynamic-placement loss-system simulation. Clock and report
/// sums saturate at `u64::MAX`.
pub fn simulate_layout(
    device: &Device,
    workload: &Workload,
    config: &LayoutConfig,
) -> LayoutReport {
    let mut run = LayoutRun {
        manager: LayoutManager::new(device, config.icap),
        modules: workload.modules(),
        completion: HashMap::new(),
        report: LayoutReport::default(),
        frag_sum: 0.0,
        frag_samples: 0,
    };
    let mut completions = Completions::new();
    let mut core = EventCore::new(&workload.tasks, &mut completions);
    // Candidate organizations per distinct needs bundle.
    let mut org_cache: HashMap<(u64, u64, u64), Vec<PrrOrganization>> = HashMap::new();
    let d2cfg = Defrag2Config {
        depth: config.depth,
        ..Defrag2Config::default()
    };
    // Organization of the most recent fragmentation rejection — the goal
    // a proactive defrag repairs the layout for.
    let mut repair_goal: Option<PrrOrganization> = None;

    while let Some(task) = core.next_task() {
        let now = core.now();
        run.release_due(&mut core);

        // Proactive defrag: at an arrival whose instant finds the ICAP
        // idle, repair the layout for the last fragmentation-rejected
        // organization *before* this task's admission attempt. The
        // Threshold benefit is the remaining (not total) execution time
        // of the live admitted tasks — only outstanding work can recoup
        // the move cost.
        if config.proactive && config.depth > 0 && config.policy != DefragPolicy::Never {
            if let Some(goal) = repair_goal {
                let req =
                    WindowRequest::new(goal.clb_cols, goal.dsp_cols, goal.bram_cols, goal.height);
                // While a window for the goal class exists there is
                // nothing to repair, but the goal stays armed: it fires
                // when the fabric re-fragments against that class. The
                // window probe is pure, so it waits for an idle port.
                let port_idle = core.icap.start(now) == now;
                if port_idle && run.manager.free_space().find_window(&req).is_none() {
                    if let Some(plan) = run.manager.plan_defrag2(&goal, &d2cfg) {
                        let benefit = run
                            .completion
                            .values()
                            .fold(0u64, |sum, &c| sum.saturating_add(c.saturating_sub(now)));
                        if config.policy.accepts(plan.total_move_ns, benefit) {
                            run.manager.execute_defrag2(&plan);
                            run.account_moves(&mut core, task.id, &plan.moves);
                            run.report.proactive_defrags += 1;
                            run.sample_fragmentation();
                            repair_goal = None;
                        }
                    }
                }
            }
        }

        let needs = (task.needs.clb(), task.needs.dsp(), task.needs.bram());
        let orgs: &[PrrOrganization] = org_cache
            .entry(needs)
            .or_insert_with(|| candidate_orgs(device, run.manager.free_space(), &task.needs));
        if orgs.is_empty() {
            run.report.rejected_capacity += 1;
            continue;
        }

        // Direct admission: cheapest-bitstream organization that fits.
        let mut admitted_org = None;
        let mut saw_fragmentation = false;
        for org in orgs {
            match run.manager.allocate(task.module, org) {
                Ok(id) => {
                    admitted_org = Some((id, *org));
                    break;
                }
                Err(AllocError::Fragmentation) => saw_fragmentation = true,
                Err(AllocError::Capacity) => {}
            }
        }

        // Fragmentation-caused failure: try a costed defrag plan —
        // multi-move sequence search when `depth > 0`, the pinned
        // single-step planner otherwise. The Threshold benefit is the
        // incoming task's execution time (none of it has run at its
        // arrival, so remaining equals total). Every executed move
        // serializes through the ICAP and stalls the moved (running)
        // module for its copy time.
        if admitted_org.is_none() && saw_fragmentation && config.policy != DefragPolicy::Never {
            for org in orgs {
                let moves = if config.depth > 0 {
                    let Some(plan) = run.manager.plan_defrag2(org, &d2cfg) else {
                        continue;
                    };
                    if !config.policy.accepts(plan.total_move_ns, task.exec_ns) {
                        counters::DEFRAG_REJECTED_COST.incr();
                        continue;
                    }
                    run.manager.execute_defrag2(&plan);
                    plan.moves
                } else {
                    let Some(plan) = run.manager.plan_defrag(org) else {
                        continue;
                    };
                    if !config.policy.accepts(plan.total_move_ns, task.exec_ns) {
                        counters::DEFRAG_REJECTED_COST.incr();
                        continue;
                    }
                    run.manager.execute_defrag(&plan);
                    plan.moves
                };
                run.account_moves(&mut core, task.id, &moves);
                let id = run
                    .manager
                    .allocate(task.module, org)
                    .expect("admit window freed by the plan");
                admitted_org = Some((id, *org));
                run.report.defrag_admissions += 1;
                // This organization class needed a repair to get in —
                // pre-free a window for its next arrival in idle time.
                repair_goal = Some(*org);
                break;
            }
        }

        match admitted_org {
            Some((id, org)) => {
                run.sample_fragmentation();
                let bytes = bitstream_size_bytes(&org);
                let reconfig = config.icap.transfer_time(bytes).as_nanos() as u64;
                let cfg_end = core.icap.transfer(now, reconfig);
                let report = &mut run.report;
                report.reconfigurations += 1;
                report.reconfig_ns = report.reconfig_ns.saturating_add(reconfig);
                report.total_wait_ns = report.total_wait_ns.saturating_add(cfg_end - now);
                report.total_exec_ns = report.total_exec_ns.saturating_add(task.exec_ns);
                report.admitted += 1;
                let done = cfg_end.saturating_add(task.exec_ns);
                run.completion.insert(id, done);
                core.schedule(done, id);
            }
            None if saw_fragmentation => {
                run.report.rejected_fragmentation += 1;
                // Remember the cheapest organization as the proactive
                // repair goal for the next ICAP idle window.
                repair_goal = Some(orgs[0]);
            }
            None => run.report.rejected_capacity += 1,
        }
    }

    while core.advance(Wake::Completion) {
        run.release_due(&mut core);
    }
    let mut report = run.report;
    report.icap_busy_ns = core.icap.busy_ns();
    if run.frag_samples > 0 {
        report.mean_fragmentation = run.frag_sum / run.frag_samples as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Family, ResourceKind::*};
    use multitask::{HwTask, ModuleId};

    fn strip(width: u32) -> Device {
        Device::new("strip", Family::Virtex5, 1, vec![Clb; width as usize]).unwrap()
    }

    /// A task needing exactly `cols` CLB columns on a 1-row Virtex-5
    /// strip (`clb_col` CLBs fill one column-row).
    fn task(id: u32, module: ModuleId, cols: u64, arrival_ns: u64, exec_ns: u64) -> HwTask {
        let clb_col = u64::from(Family::Virtex5.params().clb_col);
        HwTask {
            id,
            module,
            priority: 0,
            needs: Resources::new(cols * clb_col, 0, 0),
            arrival_ns,
            exec_ns,
            deadline_ns: None,
        }
    }

    /// The canonical checkerboard: A(3) B(2) C(3) fill an 8-column strip;
    /// A and C finish, leaving 3+3 free cells split by B; D needs 4.
    fn checkerboard() -> (Device, Workload) {
        let device = strip(8);
        let mut m = ModuleTable::new();
        let workload = Workload::new(
            vec![
                task(0, m.intern("a"), 3, 0, 1_000_000),
                task(1, m.intern("b"), 2, 1_000, 1_000_000_000),
                task(2, m.intern("c"), 3, 2_000, 1_000_000),
                task(3, m.intern("d"), 4, 500_000_000, 1_000_000_000),
            ],
            m,
        );
        (device, workload)
    }

    #[test]
    fn defrag_admits_strictly_more_than_never_on_checkerboard() {
        let (device, workload) = checkerboard();
        let never = simulate_layout(&device, &workload, &LayoutConfig::default());
        assert_eq!(never.admitted, 3);
        assert_eq!(never.rejected_fragmentation, 1);
        assert_eq!(never.relocations, 0);

        let always = simulate_layout(
            &device,
            &workload,
            &LayoutConfig {
                policy: DefragPolicy::Always,
                ..LayoutConfig::default()
            },
        );
        assert_eq!(always.admitted, 4);
        assert_eq!(always.defrag_admissions, 1);
        assert_eq!(always.relocations, 1);
        assert!(always.admitted > never.admitted);
    }

    #[test]
    fn relocation_time_equals_icap_transfer_over_predicted_bytes() {
        let (device, workload) = checkerboard();
        let config = LayoutConfig {
            policy: DefragPolicy::Always,
            ..LayoutConfig::default()
        };
        let r = simulate_layout(&device, &workload, &config);
        assert_eq!(r.relocation_log.len(), 1);
        assert_eq!(r.relocation_log[0].module, "b", "logged by name");
        let total: u64 = r
            .relocation_log
            .iter()
            .map(|ev| {
                assert_eq!(ev.bytes, bitstream_size_bytes(&ev.organization));
                config.icap.transfer_time(ev.bytes).as_nanos() as u64
            })
            .sum();
        assert_eq!(r.relocation_ns, total);
    }

    #[test]
    fn threshold_policy_rejects_unrecouped_moves() {
        let (device, mut workload) = checkerboard();
        // Make D's execution vanishingly short: a strict threshold should
        // refuse to pay the relocation for it.
        workload.tasks[3].exec_ns = 1;
        let r = simulate_layout(
            &device,
            &workload,
            &LayoutConfig {
                policy: DefragPolicy::Threshold(0.1),
                ..LayoutConfig::default()
            },
        );
        assert_eq!(r.admitted, 3);
        assert_eq!(r.rejected_fragmentation, 1);
        assert_eq!(r.relocations, 0);
    }

    #[test]
    fn relocation_stalls_the_moved_module() {
        let (device, workload) = checkerboard();
        let config = LayoutConfig {
            policy: DefragPolicy::Always,
            ..LayoutConfig::default()
        };
        let with = simulate_layout(&device, &workload, &config);
        let without = simulate_layout(&device, &workload, &LayoutConfig::default());
        // B (the moved module) completes later than in the no-defrag run
        // by exactly the relocation stall, and D's completion defines the
        // makespan in both worlds.
        assert!(with.makespan_ns > without.makespan_ns);
    }
}
