//! Periodic real-time task sets and deterministic generators.
//!
//! A [`TaskSet`] is the design-time object — `n` periodic tasks with
//! utilizations sampled by UUniFast(-Discard) — and
//! [`TaskSet::release_jobs`] is the bridge to the runtime world: it
//! expands the set over a horizon into a deadline-carrying
//! [`Workload`] (release jitter applied per job, execution times drawn
//! from a truncated Weibull below the WCET) that the `multitask`
//! simulator runs unchanged.

use fabric::{Family, Resources};
use multitask::{HwTask, ModuleTable, Workload};
use prcost::rng::Rng;
use synth::prm::GenericPrm;
use synth::PrmGenerator;

/// One periodic hardware task: a PRM released every `period_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicTask {
    /// Module name; jobs of the same task share partial bitstreams.
    pub module: String,
    /// Fabric resources each job needs inside its PRR.
    pub needs: Resources,
    /// Release period (ns).
    pub period_ns: u64,
    /// Worst-case execution time per job (ns); actual job execution
    /// times vary below this bound.
    pub wcet_ns: u64,
    /// Relative deadline (ns from release). Constrained:
    /// `deadline_ns <= period_ns` for generated sets.
    pub deadline_ns: u64,
    /// Maximum release jitter (ns): each job is released up to this much
    /// after its nominal period boundary (deadline still counted from
    /// the nominal release, so jitter eats slack).
    pub jitter_ns: u64,
}

impl PeriodicTask {
    /// WCET utilization `wcet / period`.
    pub fn utilization(&self) -> f64 {
        self.wcet_ns as f64 / self.period_ns as f64
    }
}

/// Parameters for [`TaskSet::uunifast`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSetConfig {
    /// Number of tasks.
    pub n: u32,
    /// Target total WCET utilization (sum over tasks; may exceed 1 on
    /// multi-PRR systems). Capped at `n` — one full processor per task.
    pub total_utilization: f64,
    /// Shortest period (ns).
    pub min_period_ns: u64,
    /// Longest period (ns); periods are log-uniform in
    /// `[min_period_ns, max_period_ns]`.
    pub max_period_ns: u64,
    /// Resource-footprint scale handed to the synthetic PRM generator.
    pub scale: u32,
    /// Relative deadline as a fraction of the period, clamped to
    /// `(0, 1]` (constrained deadlines).
    pub deadline_factor: f64,
    /// Release jitter as a fraction of the period, clamped to `[0, 0.5]`.
    pub jitter_factor: f64,
    /// Weibull shape for per-job execution-time variation (larger =
    /// executions concentrate near the WCET-anchored scale).
    pub exec_shape: f64,
}

impl Default for TaskSetConfig {
    fn default() -> Self {
        TaskSetConfig {
            n: 8,
            total_utilization: 2.0,
            min_period_ns: 400_000,
            max_period_ns: 8_000_000,
            scale: 300,
            deadline_factor: 1.0,
            jitter_factor: 0.05,
            exec_shape: 3.0,
        }
    }
}

/// A set of periodic tasks (the schedulability-analysis object).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    /// The tasks, in generation order.
    pub tasks: Vec<PeriodicTask>,
}

/// UUniFast-Discard: `n` utilizations summing to `total`, uniform over
/// the valid simplex, redrawn while any single task exceeds 1.
///
/// Heavy targets (`total > n/2`) go through the complement symmetry
/// `u_i = 1 − u'_i` with `u'` drawn at total `n − total` — the discard
/// acceptance rate collapses near `total = n`, while the complement
/// stays exact. Bounded retries below the midpoint; the final clamp
/// fallback is unreachable in practice but guarantees termination.
fn uunifast_discard(rng: &mut Rng, n: u32, total: f64) -> Vec<f64> {
    let n = n.max(1);
    let total = total.clamp(1e-6, f64::from(n));
    if total > f64::from(n) / 2.0 {
        let mut us = uunifast_discard(rng, n, f64::from(n) - total);
        for u in &mut us {
            *u = 1.0 - *u;
        }
        return us;
    }
    for _ in 0..64 {
        let mut us = Vec::with_capacity(n as usize);
        let mut sum = total;
        for i in 1..n {
            let next = sum * rng.unit().powf(1.0 / f64::from(n - i));
            us.push(sum - next);
            sum = next;
        }
        us.push(sum);
        if us.iter().all(|&u| u <= 1.0) {
            return us;
        }
    }
    // Fallback: clamp (slightly lowers the realized total).
    let mut us = Vec::with_capacity(n as usize);
    let mut sum = total;
    for i in 1..n {
        let next = sum * rng.unit().powf(1.0 / f64::from(n - i));
        us.push((sum - next).min(1.0));
        sum = next;
    }
    us.push(sum.min(1.0));
    us
}

impl TaskSet {
    /// Generate a periodic task set with UUniFast(-Discard) utilizations.
    ///
    /// Per task: a synthetic PRM footprint (deterministic in
    /// `seed + index`), a log-uniform period, `wcet = utilization ×
    /// period`, a constrained relative deadline and a jitter bound.
    /// Fully deterministic in `seed`.
    pub fn uunifast(seed: u64, family: Family, cfg: &TaskSetConfig) -> TaskSet {
        let mut rng = Rng::from_seed(seed ^ 0x7c15_9e37_79b9_7f4a);
        let utils = uunifast_discard(&mut rng, cfg.n, cfg.total_utilization);
        let min_p = cfg.min_period_ns.max(1);
        let max_p = cfg.max_period_ns.max(min_p);
        let ratio = max_p as f64 / min_p as f64;
        let dl = cfg.deadline_factor.clamp(1e-3, 1.0);
        let jit = cfg.jitter_factor.clamp(0.0, 0.5);

        let tasks = utils
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let report = GenericPrm::random(seed.wrapping_add(i as u64 * 7919), cfg.scale)
                    .synthesize(family);
                let period_ns = (min_p as f64 * ratio.powf(rng.unit())) as u64;
                let wcet_ns = ((u * period_ns as f64) as u64).max(1);
                PeriodicTask {
                    module: format!("rt{i:02}_{}", report.module),
                    // The same report→needs mapping as generated tasks.
                    needs: HwTask::needs_of(&report),
                    period_ns,
                    wcet_ns,
                    deadline_ns: ((dl * period_ns as f64) as u64).max(wcet_ns),
                    jitter_ns: (jit * period_ns as f64) as u64,
                }
            })
            .collect();
        TaskSet { tasks }
    }

    /// Sum of WCET utilizations.
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(PeriodicTask::utilization).sum()
    }

    /// Expand the periodic set over `[0, horizon_ns)` into a
    /// deadline-carrying [`Workload`].
    ///
    /// Per job: release = nominal period boundary + a uniform jitter in
    /// `[0, jitter_ns]`, absolute deadline = *nominal* release +
    /// relative deadline (jitter eats slack), execution time = a
    /// truncated-Weibull draw `min(wcet, weibull(shape, 0.8 × wcet))` —
    /// most jobs run below their WCET, none above. Deterministic in
    /// `seed`; independent of the seed that built the set. Each periodic
    /// task's module name is interned once; its jobs copy the id.
    pub fn release_jobs(&self, seed: u64, horizon_ns: u64) -> Workload {
        let mut rng = Rng::from_seed(seed ^ 0x94d0_49bb_1331_11eb);
        let releases: u64 = self
            .tasks
            .iter()
            .map(|t| horizon_ns.div_ceil(t.period_ns.max(1)))
            .sum();
        let mut jobs = Vec::with_capacity(releases as usize);
        let mut modules = ModuleTable::new();
        let mut id = 0u32;
        for task in &self.tasks {
            let module = modules.intern(&task.module);
            let mut nominal = 0u64;
            while nominal < horizon_ns {
                let jitter = if task.jitter_ns == 0 {
                    0
                } else {
                    rng.below(task.jitter_ns + 1)
                };
                let exec = (rng.weibull(self.exec_shape_for(task), 0.8 * task.wcet_ns as f64)
                    as u64)
                    .clamp(1, task.wcet_ns);
                jobs.push(HwTask {
                    id,
                    module,
                    priority: 0,
                    needs: task.needs,
                    arrival_ns: nominal + jitter,
                    exec_ns: exec,
                    deadline_ns: Some(nominal + task.deadline_ns),
                });
                id += 1;
                nominal += task.period_ns;
            }
        }
        Workload::new(jobs, modules)
    }

    /// Weibull shape used for a task's execution variation. Uniform for
    /// now; a hook so heterogeneous variation models stay local.
    fn exec_shape_for(&self, _task: &PeriodicTask) -> f64 {
        3.0
    }

    /// Largest per-kind requirement over the set.
    pub fn max_needs(&self) -> Resources {
        self.tasks
            .iter()
            .fold(Resources::ZERO, |acc, t| acc.max(&t.needs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uunifast_hits_requested_total() {
        let mut rng = Rng::from_seed(1);
        for &(n, total) in &[(4u32, 1.5f64), (8, 2.0), (12, 0.8), (3, 2.9)] {
            let us = uunifast_discard(&mut rng, n, total);
            assert_eq!(us.len(), n as usize);
            let sum: f64 = us.iter().sum();
            assert!((sum - total).abs() < 1e-9, "n={n} total={total} sum={sum}");
            assert!(us.iter().all(|&u| (0.0..=1.0).contains(&u)), "{us:?}");
        }
    }

    #[test]
    fn taskset_is_deterministic_and_matches_utilization() {
        let cfg = TaskSetConfig::default();
        let a = TaskSet::uunifast(42, Family::Virtex5, &cfg);
        let b = TaskSet::uunifast(42, Family::Virtex5, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.tasks.len(), cfg.n as usize);
        // wcet = u × period is rounded per task; the realized total must
        // still track the target closely.
        assert!(
            (a.total_utilization() - cfg.total_utilization).abs() < 0.01,
            "realized {}",
            a.total_utilization()
        );
        let c = TaskSet::uunifast(43, Family::Virtex5, &cfg);
        assert_ne!(a, c, "adjacent seeds must differ");
    }

    #[test]
    fn release_jobs_carry_deadlines_and_respect_wcet() {
        let cfg = TaskSetConfig {
            n: 4,
            total_utilization: 1.2,
            ..TaskSetConfig::default()
        };
        let ts = TaskSet::uunifast(7, Family::Virtex5, &cfg);
        let w = ts.release_jobs(3, 20_000_000);
        assert!(!w.tasks.is_empty());
        let wcet: std::collections::HashMap<multitask::ModuleId, u64> = ts
            .tasks
            .iter()
            .map(|t| (w.modules().get(&t.module).unwrap(), t.wcet_ns))
            .collect();
        for job in &w.tasks {
            // Implicit deadlines (factor 1.0) dominate the 5% jitter, so
            // every job's absolute deadline lies at or after its release.
            let d = job.deadline_ns.expect("periodic jobs carry deadlines");
            assert!(d >= job.arrival_ns);
            assert!(job.exec_ns <= wcet[&job.module]);
            assert!(job.exec_ns >= 1);
        }
        // Deterministic in seed, sensitive to it.
        assert_eq!(w, ts.release_jobs(3, 20_000_000));
        assert_ne!(w, ts.release_jobs(4, 20_000_000));
    }

    #[test]
    fn job_count_scales_with_horizon() {
        let ts = TaskSet::uunifast(9, Family::Virtex5, &TaskSetConfig::default());
        let short = ts.release_jobs(1, 8_000_000).tasks.len();
        let long = ts.release_jobs(1, 32_000_000).tasks.len();
        assert!(long > 2 * short, "{short} vs {long}");
    }
}
