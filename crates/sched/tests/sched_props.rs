//! Property tests for the scheduling subsystem: the UUniFast sampler's
//! simplex invariant, generator determinism, and frozen-policy replay
//! stability (byte-identical across runs and across threads sharing
//! one policy).

use bitstream::IcapModel;
use fabric::{device_by_name, Family};
use multitask::{simulate, PrSystem};
use prcost::PrrOrganization;
use proptest::prelude::*;
use sched::{FrozenPolicy, LinearQ, TaskSet, TaskSetConfig, TrainConfig, FEATURES};

fn system(prrs: u32) -> PrSystem {
    let device = device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: Family::Virtex5,
        height: 1,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    PrSystem::homogeneous(&device, org, prrs, IcapModel::V5_DMA).unwrap()
}

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

    /// A frozen policy is a pure function of its weights: replaying the
    /// same workload yields byte-identical reports, sequentially and
    /// from two threads sharing one policy.
    #[test]
    fn frozen_policy_replay_is_stable(
        seed in 0u64..100_000,
        weights in proptest::collection::vec(-10.0f64..10.0, FEATURES..FEATURES + 1),
        prrs in 2u32..5,
    ) {
        let system = system(prrs);
        let cfg = TaskSetConfig {
            n: 6,
            total_utilization: 2.0,
            ..TaskSetConfig::default()
        };
        let workload = system.filter_workload(
            &TaskSet::uunifast(seed, Family::Virtex5, &cfg).release_jobs(seed ^ 0xabcd, 8_000_000),
        );
        let policy = FrozenPolicy::from_weights(weights.clone().try_into().unwrap());
        let direct = simulate(&system, &workload, &policy);
        prop_assert_eq!(&direct, &policy.replay(&system, &workload));
        let reports: Vec<_> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| s.spawn(|| simulate(&system, &workload, &policy)))
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        for r in &reports {
            prop_assert_eq!(&direct, r);
        }
    }
}

/// Trained policies are deterministic end to end: same seed → same
/// weights → same frozen replays (a plain test; training is too slow
/// for a proptest case budget).
#[test]
fn training_pipeline_is_deterministic() {
    let system = system(3);
    let cfg = TaskSetConfig {
        n: 6,
        total_utilization: 2.0,
        ..TaskSetConfig::default()
    };
    let workload = system
        .filter_workload(&TaskSet::uunifast(11, Family::Virtex5, &cfg).release_jobs(13, 8_000_000));
    let train = |seed: u64| {
        let mut q = LinearQ::new();
        q.train(
            &system,
            std::slice::from_ref(&workload),
            &TrainConfig {
                episodes: 3,
                seed,
                ..TrainConfig::default()
            },
        );
        q.freeze()
    };
    let a = train(5);
    let b = train(5);
    assert_eq!(a.weights(), b.weights());
    assert_eq!(a.replay(&system, &workload), b.replay(&system, &workload));
}
