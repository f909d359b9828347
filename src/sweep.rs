//! Parallel design-space sweeps — the paper's productivity use case at
//! fleet scale.
//!
//! The models exist so a designer can evaluate *many* PR partitionings
//! quickly ("the PR partitioning design space is exponentially large and
//! designers can only feasibly evaluate a subset"). This module evaluates
//! a whole grid of (PRM, device) design points in parallel with rayon and
//! returns structured results ready for export.
//!
//! Sweeps are driven through a [`prcost::Engine`]: synthesis reports are
//! memoized per `(generator, family)`, each device is resolved once to a
//! [`prcost::DeviceHandle`] (its interned window-search geometry), and
//! each rayon worker reuses one [`prcost::PlanScratch`] across all the
//! points in its chunk. [`sweep_uncached`] keeps the
//! original one-shot path as the equivalence/throughput baseline — the
//! two produce byte-identical points.

use prcost::{DeviceHandle, Engine, MetricsSnapshot, PlanScratch, PrrRequirements};
use rayon::prelude::*;
use serde::Serialize;
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
pub fn sweep_with_engine(
    engine: &Engine,
    generators: &[Box<dyn synth::PrmGenerator + Sync>],
    devices: &[fabric::Device],
) -> SweepRun {
    let start = Instant::now();
    // Warm the per-family synthesis memo and resolve each device once:
    // workers plan against the handles and never touch the interner
    // during the grid evaluation.
    let handles: Vec<DeviceHandle> = devices.iter().map(|d| engine.intern_device(d)).collect();
    let reports: Vec<Vec<synth::SynthReport>> = generators
        .iter()
        .map(|g| {
            devices
                .iter()
                .map(|d| engine.synthesize(g.as_ref(), d.family()))
                .collect()
        })
        .collect();

    let grid: Vec<(usize, usize)> = (0..generators.len())
        .flat_map(|g| (0..devices.len()).map(move |d| (g, d)))
        .collect();
    let points: Vec<SweepPoint> = grid
        .into_par_iter()
        .map_with(PlanScratch::default(), |scratch, (g, d)| {
            let device = &devices[d];
            let report = &reports[g][d];
            let req = PrrRequirements::from_report(report);
            let outcome = match engine.plan_on(&req, &handles[d], scratch).as_ref() {
                Ok(plan) => Ok(SweepPlan {
                    height: plan.organization.height,
                    width: plan.organization.width(),
                    bitstream_bytes: plan.bitstream_bytes,
                    reconfig: bitstream::IcapModel::V5_DMA.transfer_time(plan.bitstream_bytes),
                    ru_clb: plan.utilization.clb,
                }),
                Err(e) => Err(e.to_string()),
            };
            SweepPoint {
                module: report.module.clone(),
                device: device.name().to_string(),
                outcome,
            }
        })
        .collect();

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
            let outcome = match prcost::plan_prr(&report, device) {
                Ok(plan) => Ok(SweepPlan {
                    height: plan.organization.height,
                    width: plan.organization.width(),
                    bitstream_bytes: plan.bitstream_bytes,
                    reconfig: bitstream::IcapModel::V5_DMA.transfer_time(plan.bitstream_bytes),
                    ru_clb: plan.utilization.clb,
                }),
                Err(e) => Err(e.to_string()),
            };
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
        // One synthesis per (generator, family), the rest memo hits.
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
        assert_eq!(c.synth_calls + c.synth_cache_hits, 3 * devices.len() as u64);
        assert_eq!(c.geometry_builds, devices.len() as u64);
        assert_eq!(c.plans, run.points.len() as u64);
        assert!(c.window_probes > 0);
        assert!(c.distinct_compositions > 0);
        assert!(run.points_per_sec > 0.0);
    }
}
