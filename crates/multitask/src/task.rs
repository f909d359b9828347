//! Hardware tasks and workload generation.

use crate::intern::{ModuleId, ModuleTable};
use fabric::{Family, Resources};
use prcost::rng::Rng;
use std::sync::Arc;
use synth::prm::GenericPrm;
use synth::{PrmGenerator, SynthReport};

/// One hardware task instance: a PRM plus its runtime behaviour.
///
/// `Copy`: the module is an interned id resolved against the
/// [`ModuleTable`] of the task's [`Workload`], so building, filtering
/// and simulating tasks never touches a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwTask {
    /// Task id (unique within a workload).
    pub id: u32,
    /// Module — tasks of one module share partial bitstreams, so a PRR
    /// already holding the module needs no reconfiguration.
    pub module: ModuleId,
    /// Priority for the preemptive simulator (higher preempts lower);
    /// the other simulators ignore it.
    pub priority: u8,
    /// Fabric resources the task needs inside its PRR.
    pub needs: Resources,
    /// Arrival time, nanoseconds from simulation start.
    pub arrival_ns: u64,
    /// Pure execution time once configured, nanoseconds.
    pub exec_ns: u64,
    /// Absolute deadline (ns from simulation start), if the task is a
    /// real-time job. `None` — the loss-system default — means the task
    /// has no deadline and can never be counted as a miss. Periodic
    /// task-set generators (`sched` crate) set this to
    /// `release + relative deadline`.
    pub deadline_ns: Option<u64>,
}

impl HwTask {
    /// Fabric resources a task synthesized as `report` needs: its
    /// LUT-FF pairs rounded up to whole CLBs, plus its DSPs and BRAMs.
    pub fn needs_of(report: &SynthReport) -> Resources {
        let lut_clb = u64::from(report.family.params().lut_clb);
        Resources::new(
            report.lut_ff_pairs.div_ceil(lut_clb),
            report.dsps,
            report.brams,
        )
    }

    /// Build a (deadline-free, priority 0) task of `module` with
    /// `report`'s footprint.
    pub fn from_report(
        id: u32,
        module: ModuleId,
        report: &SynthReport,
        arrival_ns: u64,
        exec_ns: u64,
    ) -> Self {
        HwTask {
            id,
            module,
            priority: 0,
            needs: HwTask::needs_of(report),
            arrival_ns,
            exec_ns,
            deadline_ns: None,
        }
    }
}

/// A deterministic stream of hardware tasks and the module table their
/// ids resolve against.
///
/// Workloads derived from one another ([`Workload::with_tasks`],
/// [`Workload::with_deadlines`], `PrSystem::filter_workload`) share one
/// table. Equality compares the tasks and the tables' contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// All tasks, sorted by arrival time (then id). Edits in place that
    /// keep the order need no rebuild: a task's module is an id of
    /// [`Workload::modules`], so a simulation reads exactly what the list
    /// holds.
    pub tasks: Vec<HwTask>,
    modules: Arc<ModuleTable>,
}

impl Workload {
    /// Wrap an explicit task list whose module ids resolve against
    /// `modules` (sorts by arrival, then id).
    pub fn new(mut tasks: Vec<HwTask>, modules: impl Into<Arc<ModuleTable>>) -> Self {
        // Generated streams arrive sorted: checking is one pass, while
        // the stable sort would allocate its scratch buffer regardless.
        if !tasks.is_sorted_by_key(|t| (t.arrival_ns, t.id)) {
            tasks.sort_by_key(|t| (t.arrival_ns, t.id));
        }
        Workload {
            tasks,
            modules: modules.into(),
        }
    }

    /// A workload of `tasks` sharing this workload's module table.
    pub fn with_tasks(&self, tasks: Vec<HwTask>) -> Workload {
        Workload::new(tasks, Arc::clone(&self.modules))
    }

    /// The module table the tasks' ids resolve against.
    pub fn modules(&self) -> &ModuleTable {
        &self.modules
    }

    /// Generate `n` task instances drawn from a pool of `modules` distinct
    /// synthetic PRMs (scale controls resource footprints), with Poisson-ish
    /// arrivals of mean `mean_interarrival_ns` and executions of mean
    /// `mean_exec_ns`. Fully deterministic in `seed`.
    ///
    /// Seeding note: the stream is seeded through [`Rng::from_seed`],
    /// which mixes the seed before the nonzero guard — the historical
    /// `Rng(seed | 1)` seeding made seeds `2k` and `2k + 1` produce
    /// identical workloads. Trajectories for a given seed therefore
    /// differ from pre-fix releases (seed-pinned artifacts were
    /// regenerated; see `results/README.md`).
    pub fn generate(
        seed: u64,
        family: Family,
        n: u32,
        modules: u32,
        scale: u32,
        mean_interarrival_ns: u64,
        mean_exec_ns: u64,
    ) -> Self {
        let modules = modules.max(1);
        let pool: Vec<SynthReport> = (0..modules)
            .map(|m| {
                GenericPrm::random(seed.wrapping_add(u64::from(m) * 7919), scale).synthesize(family)
            })
            .collect();

        let mut rng = Rng::from_seed(seed);
        let mut t = 0u64;
        Workload::from_pool(&pool, n, || {
            let m = rng.below(u64::from(modules)) as usize;
            t += rng.exp(mean_interarrival_ns);
            (m, t, rng.exp(mean_exec_ns).max(1))
        })
    }

    /// Generate a fragmentation-inducing dynamic workload: like
    /// [`Workload::generate`], but each pool module's scale is drawn from
    /// a Pareto(α = 1.2) distribution anchored at `base_scale` — many
    /// small modules interleaved with a few much larger ones, the mix
    /// that leaves the fabric checkerboarded once mid-sized tenants
    /// depart. Scales are capped at `32 × base_scale` so the tail stays
    /// on-device. Arrivals and lifetimes are exponential with the given
    /// means. Fully deterministic in `seed` (seeded through
    /// [`Rng::from_seed`]; see [`Workload::generate`]'s seeding note).
    pub fn generate_heavy_tailed(
        seed: u64,
        family: Family,
        n: u32,
        modules: u32,
        base_scale: u32,
        mean_interarrival_ns: u64,
        mean_exec_ns: u64,
    ) -> Self {
        let modules = modules.max(1);
        let base = base_scale.max(16);
        // Separate RNG stream for module sizes, so the arrival/lifetime
        // sequence matches `generate` semantics for a given seed count.
        let mut size_rng = Rng::from_seed(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let pool: Vec<SynthReport> = (0..modules)
            .map(|m| {
                let scale =
                    (size_rng.pareto(f64::from(base), 1.2) as u32).min(base.saturating_mul(32));
                GenericPrm::random(seed.wrapping_add(u64::from(m) * 7919), scale).synthesize(family)
            })
            .collect();

        let mut rng = Rng::from_seed(seed);
        let mut t = 0u64;
        Workload::from_pool(&pool, n, || {
            let m = rng.below(u64::from(modules)) as usize;
            t += rng.exp(mean_interarrival_ns);
            (m, t, rng.exp(mean_exec_ns).max(1))
        })
    }

    /// Generate a **bursty** workload: a two-state Markov-modulated
    /// Poisson process. Arrivals alternate between an *on* phase (mean
    /// interarrival `mean_interarrival_ns / burstiness`) and an *off*
    /// phase (mean interarrival `mean_interarrival_ns × burstiness`),
    /// switching phase with probability 1/8 after each arrival. The
    /// long-run rate roughly matches [`Workload::generate`] with the
    /// same mean, but tasks cluster into bursts that overload the PRR
    /// pool and then drain — the arrival pattern that separates
    /// queue-aware schedulers from myopic ones. `burstiness ≤ 1` or
    /// `n == 0` degenerate to the plain Poisson generator's shape.
    /// Fully deterministic in `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_bursty(
        seed: u64,
        family: Family,
        n: u32,
        modules: u32,
        scale: u32,
        mean_interarrival_ns: u64,
        mean_exec_ns: u64,
        burstiness: u32,
    ) -> Self {
        let modules = modules.max(1);
        let burst = u64::from(burstiness.max(1));
        let pool: Vec<SynthReport> = (0..modules)
            .map(|m| {
                GenericPrm::random(seed.wrapping_add(u64::from(m) * 7919), scale).synthesize(family)
            })
            .collect();

        let mut rng = Rng::from_seed(seed ^ 0x5bf0_3635_dcd1_d867);
        let mut t = 0u64;
        let mut on = true;
        Workload::from_pool(&pool, n, || {
            let m = rng.below(u64::from(modules)) as usize;
            let mean = if on {
                (mean_interarrival_ns / burst).max(1)
            } else {
                mean_interarrival_ns.saturating_mul(burst)
            };
            t += rng.exp(mean);
            let exec = rng.exp(mean_exec_ns).max(1);
            if rng.below(8) == 0 {
                on = !on;
            }
            (m, t, exec)
        })
    }

    /// `n` tasks drawn from a module pool: `draw` yields each task's pool
    /// index, arrival and execution time, in id order. A module's name is
    /// interned at its first draw, so the table holds only the modules
    /// the tasks use; every later draw copies the id.
    fn from_pool(
        pool: &[SynthReport],
        n: u32,
        mut draw: impl FnMut() -> (usize, u64, u64),
    ) -> Workload {
        let needs: Vec<Resources> = pool.iter().map(HwTask::needs_of).collect();
        let mut modules = ModuleTable::new();
        let mut ids: Vec<Option<ModuleId>> = vec![None; pool.len()];
        let mut tasks = Vec::with_capacity(n as usize);
        for id in 0..n {
            let (m, arrival_ns, exec_ns) = draw();
            let module = *ids[m].get_or_insert_with(|| modules.intern(&pool[m].module));
            tasks.push(HwTask {
                id,
                module,
                priority: 0,
                needs: needs[m],
                arrival_ns,
                exec_ns,
                deadline_ns: None,
            });
        }
        Workload::new(tasks, modules)
    }

    /// Attach soft deadlines to every task: `deadline = arrival +
    /// slack_factor × exec`. Turns any loss-system workload into one
    /// whose [`SimReport::deadline_misses`](crate::SimReport) accounting
    /// is meaningful — a task completing later than `slack_factor` times
    /// its own execution time after arrival counts as a miss. Deadlines
    /// saturate at `u64::MAX`, like the simulators' clocks.
    pub fn with_deadlines(&self, slack_factor: f64) -> Workload {
        let slack = slack_factor.max(1.0);
        self.with_tasks(
            self.tasks
                .iter()
                .map(|&t| HwTask {
                    deadline_ns: Some(
                        t.arrival_ns
                            .saturating_add((slack * t.exec_ns as f64) as u64),
                    ),
                    ..t
                })
                .collect(),
        )
    }

    /// Largest per-kind requirement over all tasks (what a single shared
    /// PRR must provide).
    pub fn max_needs(&self) -> Resources {
        self.tasks
            .iter()
            .fold(Resources::ZERO, |acc, t| acc.max(&t.needs))
    }

    /// Distinct modules among the tasks (a derived workload's shared
    /// table may hold more).
    pub fn module_count(&self) -> usize {
        let mut ids: Vec<ModuleId> = self.tasks.iter().map(|t| t.module).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let a = Workload::generate(9, Family::Virtex5, 100, 8, 800, 10_000, 50_000);
        let b = Workload::generate(9, Family::Virtex5, 100, 8, 800, 10_000, 50_000);
        assert_eq!(a, b);
        assert!(a
            .tasks
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert_eq!(a.tasks.len(), 100);
    }

    /// The old `Rng(seed | 1)` seeding produced identical workloads for
    /// seeds `2k` and `2k + 1`; `Rng::from_seed` must not.
    #[test]
    fn adjacent_seeds_produce_distinct_workloads() {
        for k in [0u64, 4, 11] {
            let even = Workload::generate(2 * k, Family::Virtex5, 50, 4, 400, 5_000, 20_000);
            let odd = Workload::generate(2 * k + 1, Family::Virtex5, 50, 4, 400, 5_000, 20_000);
            assert_ne!(even, odd, "seeds {} and {} alias", 2 * k, 2 * k + 1);
        }
    }

    #[test]
    fn module_pool_is_respected() {
        let w = Workload::generate(3, Family::Virtex5, 200, 5, 600, 1000, 1000);
        assert!(w.module_count() <= 5);
        assert!(w.module_count() >= 2, "several modules should appear");
        // Names are interned at first draw: the table holds exactly the
        // modules the tasks use, in order of first use.
        assert_eq!(w.modules().len(), w.module_count());
        assert_eq!(w.tasks[0].module, ModuleId(0));
    }

    /// A workload with fewer tasks than pool modules interns only the
    /// drawn ones.
    #[test]
    fn undrawn_pool_modules_are_not_interned() {
        let w = Workload::generate(3, Family::Virtex5, 2, 50, 300, 1000, 1000);
        assert!(w.modules().len() <= 2);
        assert_eq!(w.modules().len(), w.module_count());
    }

    #[test]
    fn heavy_tailed_generator_is_deterministic_and_sorted() {
        let a = Workload::generate_heavy_tailed(21, Family::Virtex5, 150, 12, 300, 8_000, 40_000);
        let b = Workload::generate_heavy_tailed(21, Family::Virtex5, 150, 12, 300, 8_000, 40_000);
        assert_eq!(a, b);
        assert!(a
            .tasks
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert_eq!(a.tasks.len(), 150);
    }

    #[test]
    fn heavy_tailed_sizes_spread_wider_than_uniform_pool() {
        // The Pareto pool must mix small and large tenants: the largest
        // CLB footprint dwarfs the smallest, unlike `generate`'s
        // fixed-scale pool.
        let w = Workload::generate_heavy_tailed(7, Family::Virtex5, 400, 24, 200, 5_000, 30_000);
        let mut clbs: Vec<u64> = w.tasks.iter().map(|t| t.needs.clb()).collect();
        clbs.sort_unstable();
        clbs.dedup();
        let (min, max) = (clbs[0], *clbs.last().unwrap());
        assert!(clbs.len() >= 4, "distinct footprints: {clbs:?}");
        assert!(max >= 3 * min.max(1), "tail too light: min {min} max {max}");
    }

    #[test]
    fn bursty_generator_is_deterministic_and_clusters_arrivals() {
        let a = Workload::generate_bursty(17, Family::Virtex5, 400, 8, 300, 10_000, 30_000, 8);
        let b = Workload::generate_bursty(17, Family::Virtex5, 400, 8, 300, 10_000, 30_000, 8);
        assert_eq!(a, b);
        assert_eq!(a.tasks.len(), 400);
        // Burstiness shows as dispersion: the squared coefficient of
        // variation of interarrivals is well above the exponential's 1.
        let gaps: Vec<f64> = a
            .tasks
            .windows(2)
            .map(|w| (w[1].arrival_ns - w[0].arrival_ns) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let scv = var / (mean * mean);
        assert!(scv > 2.0, "interarrival SCV {scv} — not bursty");
    }

    #[test]
    fn with_deadlines_sets_arrival_plus_slack() {
        let w = Workload::generate(5, Family::Virtex5, 30, 4, 300, 2_000, 10_000);
        assert!(w.tasks.iter().all(|t| t.deadline_ns.is_none()));
        let d = w.with_deadlines(2.0);
        for t in &d.tasks {
            assert_eq!(t.deadline_ns, Some(t.arrival_ns + 2 * t.exec_ns));
        }
        assert_eq!(
            d.modules(),
            w.modules(),
            "derived workloads share the table"
        );
    }

    #[test]
    fn from_report_derives_clb_need_with_ceiling() {
        let r = SynthReport::new("m", Family::Virtex5, 9, 9, 0, 2, 1);
        let t = HwTask::from_report(0, ModuleId(0), &r, 0, 100);
        assert_eq!(t.needs.clb(), 2); // ceil(9/8)
        assert_eq!(t.needs.dsp(), 2);
        assert_eq!(t.needs.bram(), 1);
        assert_eq!((t.deadline_ns, t.priority), (None, 0));
    }

    #[test]
    fn new_sorts_by_arrival_then_id() {
        let r = SynthReport::new("m", Family::Virtex5, 8, 8, 0, 0, 0);
        let w = Workload::new(
            vec![
                HwTask::from_report(2, ModuleId(0), &r, 5, 1),
                HwTask::from_report(1, ModuleId(0), &r, 5, 1),
                HwTask::from_report(0, ModuleId(0), &r, 9, 1),
            ],
            ModuleTable::new(),
        );
        let order: Vec<u32> = w.tasks.iter().map(|t| t.id).collect();
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    fn max_needs_is_componentwise() {
        let r1 = SynthReport::new("a", Family::Virtex5, 80, 80, 0, 4, 0);
        let r2 = SynthReport::new("b", Family::Virtex5, 16, 16, 0, 0, 3);
        let mut modules = ModuleTable::new();
        let w = Workload::new(
            vec![
                HwTask::from_report(0, modules.intern("a"), &r1, 0, 1),
                HwTask::from_report(1, modules.intern("b"), &r2, 0, 1),
            ],
            modules,
        );
        let m = w.max_needs();
        assert_eq!((m.clb(), m.dsp(), m.bram()), (10, 4, 3));
    }

    #[test]
    fn mean_interarrival_tracks_parameter() {
        let w = Workload::generate(11, Family::Virtex5, 2000, 4, 500, 10_000, 1);
        let last = w.tasks.last().unwrap().arrival_ns;
        let mean = last as f64 / 2000.0;
        assert!(
            (5_000.0..20_000.0).contains(&mean),
            "mean interarrival {mean}"
        );
    }
}
