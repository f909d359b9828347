//! Parallel design-space sweeps — the paper's productivity use case at
//! fleet scale.
//!
//! The models exist so a designer can evaluate *many* PR partitionings
//! quickly ("the PR partitioning design space is exponentially large and
//! designers can only feasibly evaluate a subset"). This module evaluates
//! a whole grid of (PRM, device) design points in parallel and returns
//! structured results ready for export.
//!
//! Sweeps are driven through a [`prcost::Engine`]: each device is
//! resolved once to a [`prcost::DeviceHandle`] (its interned
//! window-search geometry), and then one worker per available CPU (at
//! most one per generator), the calling thread among them, claims
//! generators one at a time from a shared counter. A worker synthesizes
//! its generator once per device family through the engine's memo,
//! reuses that report for every device of the family, and plans each
//! point on its own [`prcost::PlanScratch`]. A cold plan records into the
//! scratch's tally, so planning a point writes shared memory only in the
//! plan memo.
//! The points are assembled in grid order, so they and the engine's
//! counters do not depend on the worker count (a tested property).
//! [`sweep_uncached`] keeps the original one-shot path as the
//! equivalence/throughput baseline — the two produce byte-identical
//! points.

use fabric::Family;
use prcost::{DeviceHandle, Engine, MetricsSnapshot, PlanScratch, PrrRequirements};
use rayon::prelude::*;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPoint {
    /// Module name.
    pub module: String,
    /// Device part name.
    pub device: String,
    /// Planning outcome: the PRR summary, or the failure reason.
    pub outcome: Result<SweepPlan, String>,
}

/// Summary of a successful plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPlan {
    /// PRR height.
    pub height: u32,
    /// PRR width (columns).
    pub width: u32,
    /// Predicted bitstream bytes (Eq. 18).
    pub bitstream_bytes: u64,
    /// DMA-ICAP reconfiguration time.
    pub reconfig: Duration,
    /// CLB utilization percent (Eq. 13).
    pub ru_clb: f64,
}

/// A completed sweep: the evaluated grid plus run instrumentation.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRun {
    /// One point per (generator, device) pair, in grid order.
    pub points: Vec<SweepPoint>,
    /// Wall-clock time of the grid evaluation.
    pub elapsed: Duration,
    /// Points evaluated per second of wall-clock time.
    pub points_per_sec: f64,
    /// Engine metrics accumulated during this run (counters include any
    /// earlier activity on the same engine).
    pub metrics: MetricsSnapshot,
}

/// Evaluate every (generator, device) pair in parallel.
///
/// Generators are re-synthesized per device family, so a single sweep
/// covers cross-family portability exactly the way the paper's "portable
/// across different Xilinx FPGA families" claim intends. Uses a private
/// [`Engine`]; call [`sweep_with_engine`] to share caches across sweeps
/// or to keep the run's metrics.
pub fn sweep(
    generators: &[Box<dyn synth::PrmGenerator + Sync>],
    devices: &[fabric::Device],
) -> Vec<SweepPoint> {
    sweep_with_engine(&Engine::new(), generators, devices).points
}

/// [`sweep`] on a caller-owned engine, returning the instrumented run.
/// Runs one worker per available CPU (`available_parallelism`, which
/// honours the affinity mask) but no more than there are generators, the
/// calling thread among them; a worker's panic reaches the caller.
pub fn sweep_with_engine(
    engine: &Engine,
    generators: &[Box<dyn synth::PrmGenerator + Sync>],
    devices: &[fabric::Device],
) -> SweepRun {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    sweep_on_workers(engine, generators, devices, workers)
}

/// [`sweep_with_engine`] on `workers` threads, capped at one per
/// generator: the caller and up to `workers - 1` spawned ones.
fn sweep_on_workers(
    engine: &Engine,
    generators: &[Box<dyn synth::PrmGenerator + Sync>],
    devices: &[fabric::Device],
    workers: usize,
) -> SweepRun {
    let start = Instant::now();
    // Resolve each device once: workers plan against the handles and
    // never touch the interner during the grid evaluation.
    let handles: Vec<DeviceHandle> = devices.iter().map(|d| engine.intern_device(d)).collect();
    // The families present, in first-seen order, and each device's index
    // among them: a worker synthesizes a generator once per family.
    let mut families: Vec<Family> = Vec::new();
    let family_of: Vec<usize> = devices
        .iter()
        .map(|d| {
            families
                .iter()
                .position(|&f| f == d.family())
                .unwrap_or_else(|| {
                    families.push(d.family());
                    families.len() - 1
                })
        })
        .collect();
    let next = AtomicUsize::new(0);
    // One worker: claim generators until none is left, and return each
    // one's row of points under its index.
    let work = || {
        let mut scratch = PlanScratch::default();
        let mut rows: Vec<(usize, Vec<SweepPoint>)> = Vec::new();
        loop {
            // `Relaxed` suffices: the read-modify-write hands each index
            // out once, and the counter publishes no data (the inputs are
            // shared before the workers start, and the scope's joins
            // order their rows before the assembly).
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some(generator) = generators.get(g) else {
                return rows;
            };
            let reports: Vec<(String, PrrRequirements)> = families
                .iter()
                .map(|&family| {
                    let report = engine.synthesize(generator.as_ref(), family);
                    let req = PrrRequirements::from_report(&report);
                    (report.module, req)
                })
                .collect();
            let row = devices
                .iter()
                .zip(&handles)
                .zip(&family_of)
                .map(|((device, handle), &family)| {
                    let (module, req) = &reports[family];
                    let plan = engine.plan_on(req, handle, &mut scratch);
                    SweepPoint {
                        module: module.clone(),
                        device: device.name().to_string(),
                        outcome: summarize(plan),
                    }
                })
                .collect();
            rows.push((g, row));
        }
    };
    let workers = workers.min(generators.len());
    let mut rows = std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut rows = work();
        for other in others {
            rows.extend(
                other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        rows
    });
    rows.sort_unstable_by_key(|&(g, _)| g);
    let mut points = Vec::with_capacity(generators.len() * devices.len());
    for (_, row) in rows {
        points.extend(row);
    }

    let elapsed = start.elapsed();
    let secs = elapsed.as_secs_f64();
    SweepRun {
        points_per_sec: if secs > 0.0 {
            points.len() as f64 / secs
        } else {
            0.0
        },
        metrics: engine.snapshot(),
        points,
        elapsed,
    }
}

/// A point's outcome: the plan's summary, or the failure reason.
fn summarize(plan: &Result<prcost::PrrPlan, prcost::CostError>) -> Result<SweepPlan, String> {
    match plan {
        Ok(plan) => Ok(SweepPlan {
            height: plan.organization.height,
            width: plan.organization.width(),
            bitstream_bytes: plan.bitstream_bytes,
            reconfig: bitstream::IcapModel::V5_DMA.transfer_time(plan.bitstream_bytes),
            ru_clb: plan.utilization.clb,
        }),
        Err(e) => Err(e.to_string()),
    }
}

/// The pre-engine sweep: synthesize and plan each grid point from
/// scratch. Kept as the baseline that [`sweep`] is property-tested and
/// benchmarked against.
pub fn sweep_uncached(
    generators: &[Box<dyn synth::PrmGenerator + Sync>],
    devices: &[fabric::Device],
) -> Vec<SweepPoint> {
    let grid: Vec<(usize, usize)> = (0..generators.len())
        .flat_map(|g| (0..devices.len()).map(move |d| (g, d)))
        .collect();
    grid.into_par_iter()
        .map(|(g, d)| {
            let device = &devices[d];
            let report = generators[g].synthesize(device.family());
            let outcome = summarize(&prcost::plan_prr(&report, device));
            SweepPoint {
                module: report.module,
                device: device.name().to_string(),
                outcome,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::prm::{FirFilter, SdramController, Uart};
    use synth::PrmGenerator;

    fn generators() -> Vec<Box<dyn PrmGenerator + Sync>> {
        vec![
            Box::new(FirFilter::paper()),
            Box::new(SdramController::paper()),
            Box::new(Uart::standard()),
        ]
    }

    #[test]
    fn sweep_covers_the_whole_grid() {
        let devices = fabric::all_devices();
        let points = sweep(&generators(), &devices);
        assert_eq!(points.len(), 3 * devices.len());
        let feasible = points.iter().filter(|p| p.outcome.is_ok()).count();
        assert!(
            feasible > points.len() / 2,
            "{feasible}/{} feasible",
            points.len()
        );
        // Every point carries a device from the input set.
        assert!(points
            .iter()
            .all(|p| devices.iter().any(|d| d.name() == p.device)));
    }

    #[test]
    fn sweep_is_deterministic_despite_parallelism() {
        let devices = fabric::all_devices();
        let a = sweep(&generators(), &devices);
        let b = sweep(&generators(), &devices);
        let key = |pts: &[SweepPoint]| -> Vec<(String, String, Option<u64>)> {
            pts.iter()
                .map(|p| {
                    (
                        p.module.clone(),
                        p.device.clone(),
                        p.outcome.as_ref().ok().map(|o| o.bitstream_bytes),
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    /// Workers claim generators in whatever order they race to, yet the
    /// points and the engine's counters do not depend on how many there
    /// are. Plan builds and hits may split differently when two workers
    /// race to plan one key, so only their sum is compared.
    #[test]
    fn points_and_counters_do_not_depend_on_the_worker_count() {
        let devices = fabric::all_devices();
        let gens: Vec<Box<dyn PrmGenerator + Sync>> = (0..24)
            .map(|i| Box::new(synth::GenericPrm::random(i, 300 + 700 * i as u32)) as _)
            .chain(generators())
            .collect();
        let runs = [1, 3].map(|workers| sweep_on_workers(&Engine::new(), &gens, &devices, workers));
        let counts = |run: &SweepRun| {
            let c = &run.metrics.counters;
            [
                c.synth_calls,
                c.synth_cache_hits,
                c.plans,
                c.plans_feasible,
                c.plans_infeasible,
                c.plan_builds + c.plan_cache_hits,
            ]
        };
        assert_eq!(runs[0].points, runs[1].points);
        assert_eq!(counts(&runs[0]), counts(&runs[1]));
        assert_eq!(runs[0].points.len(), gens.len() * devices.len());
        assert!(runs[0].metrics.counters.plans_infeasible > 0);
    }

    /// A generator that panics while it is fingerprinted.
    struct Broken;

    impl PrmGenerator for Broken {
        fn name(&self) -> String {
            "broken".to_string()
        }

        fn op_counts(&self, _: fabric::Family) -> synth::mapping::OpCounts {
            panic!("broken generator")
        }
    }

    /// A worker's panic reaches the caller with its own payload, whichever
    /// worker claimed the generator.
    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let devices = fabric::all_devices();
        let mut gens = generators();
        gens.insert(1, Box::new(Broken));
        for workers in [1, 3] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sweep_on_workers(&Engine::new(), &gens, &devices, workers)
            }));
            let payload = outcome.expect_err("the broken generator must panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"broken generator"));
        }
    }

    /// A generator that records the thread of every `op_counts` call,
    /// which fingerprinting and synthesis both make.
    struct Traced(std::sync::Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);

    impl PrmGenerator for Traced {
        fn name(&self) -> String {
            Uart::standard().name()
        }

        fn op_counts(&self, family: fabric::Family) -> synth::mapping::OpCounts {
            self.0.lock().unwrap().push(std::thread::current().id());
            Uart::standard().op_counts(family)
        }
    }

    /// No worker is started without a generator to claim: a one-generator
    /// sweep asked for three workers synthesizes on the calling thread.
    #[test]
    fn a_one_generator_sweep_runs_on_the_calling_thread() {
        let devices = fabric::all_devices();
        let threads = std::sync::Arc::default();
        let gens: Vec<Box<dyn PrmGenerator + Sync>> =
            vec![Box::new(Traced(std::sync::Arc::clone(&threads)))];
        let run = sweep_on_workers(&Engine::new(), &gens, &devices, 3);
        assert_eq!(run.points.len(), devices.len());
        let threads = threads.lock().unwrap();
        assert!(!threads.is_empty());
        assert!(threads.iter().all(|&t| t == std::thread::current().id()));
    }

    #[test]
    fn engine_sweep_matches_uncached_sweep() {
        let devices = fabric::all_devices();
        let gens = generators();
        let cached = sweep(&gens, &devices);
        let uncached = sweep_uncached(&gens, &devices);
        assert_eq!(cached, uncached);
    }

    #[test]
    fn sweep_run_reports_cache_effectiveness() {
        let devices = fabric::all_devices();
        let engine = Engine::new();
        let run = sweep_with_engine(&engine, &generators(), &devices);
        assert_eq!(run.points.len(), 3 * devices.len());
        let c = &run.metrics.counters;
        // One synthesis request per (generator, family), each a build on
        // the cold engine.
        let families = devices
            .iter()
            .map(|d| d.family())
            .fold(Vec::new(), |mut acc, f| {
                if !acc.contains(&f) {
                    acc.push(f);
                }
                acc
            });
        assert_eq!(c.synth_calls, 3 * families.len() as u64);
        assert_eq!(
            c.synth_calls + c.synth_cache_hits,
            3 * families.len() as u64
        );
        assert_eq!(c.geometry_builds, devices.len() as u64);
        assert_eq!(c.plans, run.points.len() as u64);
        assert!(c.window_probes > 0);
        assert!(c.distinct_compositions > 0);
        assert!(run.points_per_sec > 0.0);
    }
}
