//! Multi-thread stress suite for the sharded planning engine: 16 worker
//! threads driving a mixed hit / miss / infeasible workload, with the
//! cache-accounting invariants checked exactly afterwards, a serial
//! oracle pass proving every concurrent answer equals direct planning,
//! and a concurrent snapshot reader exercising the documented
//! [`prcost::Metrics::snapshot`] ordering guarantee (parts never exceed
//! totals, and the tally-recorded `plan` stage stays self-consistent,
//! even mid-flight).

use prfpga::prcost::metrics::StageSnapshot;
use prfpga::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};
use synth::GenericPrm;

const THREADS: usize = 16;
const ROUNDS: usize = 12;

/// The stress workload: for each device, the six PRM generators
/// (feasible, heavily repeated → hits), per-thread-unique generic PRMs
/// (cold misses), and oversized reports no window satisfies (memoized
/// `Err` plans, replayed as hits like any other point).
fn stress_points(devices: &[Device]) -> Vec<(SynthReport, Device)> {
    let generators: Vec<Box<dyn PrmGenerator>> = vec![
        Box::new(FirFilter::paper()),
        Box::new(MipsCore::paper()),
        Box::new(SdramController::paper()),
        Box::new(Uart::standard()),
        Box::new(AesEngine::standard()),
        Box::new(FftCore::standard()),
    ];
    let mut points = Vec::new();
    for device in devices {
        for generator in &generators {
            points.push((generator.synthesize(device.family()), device.clone()));
        }
        for seed in 0..4u64 {
            points.push((
                GenericPrm::random(seed, 800).synthesize(device.family()),
                device.clone(),
            ));
        }
        points.push((
            SynthReport {
                module: "oversize".into(),
                family: device.family(),
                lut_ff_pairs: 500_000,
                luts: 400_000,
                ffs: 400_000,
                dsps: 5_000,
                brams: 5_000,
            },
            device.clone(),
        ));
    }
    points
}

/// 16 threads replay the mixed workload in thread-dependent order and
/// round-robin phase; when they finish, every counter pair must add up
/// *exactly* — each plan either built its memo entry or hit one, each
/// plan resolved its device exactly once, and the memo holds exactly one
/// entry per distinct point (first-writer-wins; racing losers count as
/// hits, never as double builds).
#[test]
fn sixteen_threads_mixed_workload_accounts_exactly() {
    let devices = fabric::all_devices();
    let points = stress_points(&devices);
    let engine = Engine::new();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            let points = &points;
            scope.spawn(move || {
                let mut scratch = PlanScratch::default();
                for round in 0..ROUNDS {
                    for i in 0..points.len() {
                        // Offset per thread and per round so threads race
                        // on different points at any instant.
                        let (report, device) = &points[(i + t * 7 + round * 3) % points.len()];
                        let _ = engine.plan_with_scratch(report, device, &mut scratch);
                    }
                }
            });
        }
    });

    let total = (THREADS * ROUNDS * points.len()) as u64;
    let c = engine.snapshot().counters;
    assert_eq!(c.plans, total, "every plan call counted");
    assert_eq!(
        c.plan_builds + c.plan_cache_hits,
        c.plans,
        "every plan either built its memo entry or hit one"
    );
    assert_eq!(
        c.geometry_builds + c.geometry_cache_hits,
        c.plans,
        "every plan resolved its device exactly once"
    );
    assert_eq!(c.plans_feasible + c.plans_infeasible, c.plans);
    assert_eq!(
        c.plan_builds,
        points.len() as u64,
        "each distinct point built exactly once (first-writer-wins)"
    );
    assert_eq!(engine.plan_memo_len(), points.len());
    assert_eq!(c.geometry_builds, devices.len() as u64);
    assert!(c.plans_infeasible >= (THREADS * ROUNDS * devices.len()) as u64);
}

/// Every answer produced under 16-thread contention equals the serial
/// oracle: a fresh single-threaded `plan_prr` per point, compared in full
/// (organization, window, bitstream bytes, search trace) — and `Err`
/// points agree on the error value.
#[test]
fn concurrent_plans_equal_serial_oracle() {
    let devices = fabric::all_devices();
    let points = stress_points(&devices);
    let engine = Engine::new();

    let results: Vec<Vec<Result<PrrPlan, prcost::CostError>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let points = &points;
                scope.spawn(move || {
                    let mut scratch = PlanScratch::default();
                    (0..points.len())
                        .map(|i| {
                            let (report, device) = &points[(i + t * 5) % points.len()];
                            engine.plan_with_scratch(report, device, &mut scratch)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });

    let oracle: Vec<Result<PrrPlan, prcost::CostError>> = points
        .iter()
        .map(|(report, device)| plan_prr(report, device))
        .collect();
    for (t, thread_results) in results.iter().enumerate() {
        for (i, got) in thread_results.iter().enumerate() {
            let expect = &oracle[(i + t * 5) % points.len()];
            assert_eq!(got, expect, "thread {t} point {i} diverged from oracle");
        }
    }
}

/// Bugfix regression (metrics snapshot consistency): a snapshot taken
/// *while* 16 threads plan must never show a part exceeding its total —
/// the engine bumps totals before parts and the snapshot reads every
/// part before the totals, so `feasible + infeasible <= plans`,
/// `builds + hits <= plans` and (every geometry lookup here comes from
/// a plan) `geometry builds + hits <= plans` hold in every mid-flight
/// snapshot even though the snapshot is not a point-in-time copy.
#[test]
fn snapshot_invariants_hold_under_concurrent_load() {
    let devices = fabric::all_devices();
    race_snapshots(&stress_points(&devices), false);
}

/// One race on a fresh engine: the planners and a snapshotter start
/// together behind a barrier, and the snapshotter checks every snapshot
/// until one shows all plans done. With `churn`, each planner replaces
/// its scratch every round, with a fresh one or a clone. At least one
/// snapshot must catch the planners mid-run (`0 < plans < total`; `plans`
/// is read last, so every part of such a snapshot was read before the
/// planners finished): planner 0 holds the run open after its first
/// round until one has. Otherwise a race whose planners never block
/// could end before the snapshotter first runs, and check nothing. The
/// hold gives up after five seconds, so a snapshotter that failed its
/// checks cannot hang the test.
fn race_snapshots(points: &[(SynthReport, Device)], churn: bool) {
    let engine = Engine::new();
    let total = (THREADS * ROUNDS * points.len()) as u64;
    let start = Barrier::new(THREADS + 1);
    let caught = AtomicBool::new(false);

    let mid_run = std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (engine, start, caught) = (&engine, &start, &caught);
            scope.spawn(move || {
                start.wait();
                let mut scratch = PlanScratch::default();
                for round in 0..ROUNDS {
                    if churn {
                        scratch = match round % 2 {
                            0 => PlanScratch::default(),
                            _ => scratch.clone(),
                        };
                    }
                    for i in 0..points.len() {
                        let (report, device) = &points[(i + t * 11 + round) % points.len()];
                        let _ = engine.plan_with_scratch(report, device, &mut scratch);
                    }
                    if t == 0 && round == 0 {
                        let held = Instant::now();
                        while !caught.load(Ordering::Relaxed)
                            && held.elapsed() < Duration::from_secs(5)
                        {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }

        let (engine, start, caught) = (&engine, &start, &caught);
        let snapshotter = scope.spawn(move || {
            start.wait();
            let mut mid_run = 0u64;
            loop {
                let snap = engine.snapshot();
                check_plan_stage(&snap);
                let c = snap.counters;
                assert!(
                    c.plans_feasible + c.plans_infeasible <= c.plans,
                    "outcome parts exceeded plans: {} + {} > {}",
                    c.plans_feasible,
                    c.plans_infeasible,
                    c.plans
                );
                assert!(
                    c.plan_builds + c.plan_cache_hits <= c.plans,
                    "plan-memo parts exceeded plans: {} + {} > {}",
                    c.plan_builds,
                    c.plan_cache_hits,
                    c.plans
                );
                assert!(
                    c.geometry_builds + c.geometry_cache_hits <= c.plans,
                    "geometry parts exceeded plans: {} + {} > {}",
                    c.geometry_builds,
                    c.geometry_cache_hits,
                    c.plans
                );
                assert!(c.synth_cache_hits <= c.synth_calls + c.synth_cache_hits);
                if c.plans == total {
                    break;
                }
                if c.plans > 0 {
                    mid_run += 1;
                    caught.store(true, Ordering::Relaxed);
                }
            }
            mid_run
        });
        snapshotter.join().expect("snapshotter panicked")
    });
    assert!(mid_run > 0, "no snapshot caught the planners mid-run");

    // After the race, the exact invariants hold again. Every build
    // searched once, and so did every racer that lost its insert.
    let snap = engine.snapshot();
    let plan = check_plan_stage(&snap).expect("the planners searched");
    assert_eq!(plan.buckets.iter().sum::<u64>(), plan.count);
    let c = snap.counters;
    assert!(plan.count >= c.plan_builds);
    assert_eq!(c.plans, total, "every plan counted once");
    assert_eq!(c.plans_feasible + c.plans_infeasible, c.plans);
    assert_eq!(c.plan_builds + c.plan_cache_hits, c.plans);
    assert_eq!(c.geometry_builds + c.geometry_cache_hits, c.plans);
    assert_eq!(c.plan_builds, points.len() as u64);
}

/// The `plan` stage of a snapshot, checked: the searches record it in
/// their scratches' tallies, bucket before count, and the snapshot reads
/// each tally's count first, so even mid-flight the count never exceeds
/// the bucket sum and every quantile lies within `[min_ns, max_ns]`.
fn check_plan_stage(snap: &MetricsSnapshot) -> Option<&StageSnapshot> {
    let plan = snap.stages.iter().find(|s| s.name == "plan")?;
    let buckets: u64 = plan.buckets.iter().sum();
    assert!(
        plan.count <= buckets,
        "plan stage counted {} samples in {buckets} bucket entries",
        plan.count
    );
    for q in [plan.p50_ns, plan.p90_ns, plan.p99_ns] {
        assert!(
            (plan.min_ns..=plan.max_ns).contains(&q),
            "plan stage quantile {q} outside [{}, {}]",
            plan.min_ns,
            plan.max_ns
        );
    }
    Some(plan)
}

/// The per-scratch tallies under churn: every round, each planner drops
/// its scratch and plans on a fresh one (even rounds) or on a clone of
/// the last (odd rounds), which binds afresh. Tallies are registered,
/// written, dropped and folded into the registry while the snapshotter
/// checks the mid-flight inequalities, and the totals stay exact. (The
/// engine's unit tests check that a clone shares no tally: here only one
/// thread writes at a time, so a shared tally would lose no count.)
#[test]
fn snapshot_invariants_hold_while_scratches_churn() {
    let devices = fabric::all_devices();
    race_snapshots(&stress_points(&devices), true);
}
