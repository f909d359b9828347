//! Property tests for the scheduling subsystem: the UUniFast sampler's
//! simplex invariant and generator determinism.

use fabric::Family;
use proptest::prelude::*;
use sched::{TaskSet, TaskSetConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// UUniFast invariant: for any (n, target) the sampled utilizations
    /// sum to the (capped) target with every task inside [0, 1].
    #[test]
    fn uunifast_total_utilization_invariant(
        seed in 0u64..1_000_000,
        n in 1u32..16,
        total in 0.1f64..8.0,
    ) {
        let cfg = TaskSetConfig {
            n,
            total_utilization: total,
            ..TaskSetConfig::default()
        };
        let ts = TaskSet::uunifast(seed, Family::Virtex5, &cfg);
        prop_assert_eq!(ts.tasks.len(), n as usize);
        let expected = total.min(f64::from(n));
        // wcet = u × period is rounded per task: tolerance covers the
        // worst-case rounding of n tasks with the shortest period.
        let tol = f64::from(n) / cfg.min_period_ns as f64 + 1e-9;
        prop_assert!(
            (ts.total_utilization() - expected).abs() <= tol,
            "n={} target={} realized={}",
            n,
            total,
            ts.total_utilization()
        );
        for t in &ts.tasks {
            prop_assert!(t.utilization() <= 1.0 + tol);
            prop_assert!(t.wcet_ns >= 1);
            prop_assert!(t.deadline_ns <= t.period_ns);
            prop_assert!(t.deadline_ns >= t.wcet_ns);
        }
    }

    /// Task-set and job-release generation are pure functions of their
    /// seeds.
    #[test]
    fn generators_are_deterministic_in_seed(
        seed in 0u64..1_000_000,
        release_seed in 0u64..1_000_000,
        n in 1u32..10,
    ) {
        let cfg = TaskSetConfig {
            n,
            total_utilization: 1.5,
            ..TaskSetConfig::default()
        };
        let a = TaskSet::uunifast(seed, Family::Virtex5, &cfg);
        let b = TaskSet::uunifast(seed, Family::Virtex5, &cfg);
        prop_assert_eq!(&a, &b);
        let wa = a.release_jobs(release_seed, 10_000_000);
        let wb = b.release_jobs(release_seed, 10_000_000);
        prop_assert_eq!(wa, wb);
    }
}
