//! End-to-end PR design flow driver with per-stage wall times.
//!
//! This is the "lengthy PR design flow" of the paper's Table VIII: design
//! synthesis, PRR floorplanning, implementation-time optimization, place,
//! route and bitstream generation — run for real on the simulated
//! substrate, stage times measured. The contrast with
//! `prcost::timing::time_model` is the paper's productivity argument.

use crate::floorplan::{AreaGroup, Floorplan};
use crate::optimize::{optimize, OptimizeError, OptimizeOptions, OptimizerReport};
use crate::place::{place, PlaceError, Placement, PlacerConfig};
use crate::route::{route, RouteReport};
use crate::timing::{analyze, TimingReport};
use bitstream::writer::{generate, BitstreamSpec, GenError, PartialBitstream};
use core::fmt;
use fabric::grid::SiteGrid;
use fabric::Device;
use prcost::{CostError, PrrPlan};
use serde::Serialize;
use std::time::{Duration, Instant};
use synth::{Netlist, PaperPrm, PrmGenerator, SynthReport};

/// Flow stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlowStage {
    /// Design synthesis (report + netlist materialization).
    Synthesis,
    /// PRR floorplanning (model-driven AREA_GROUP generation).
    Floorplan,
    /// Implementation-time netlist optimization.
    Optimize,
    /// Simulated-annealing placement.
    Place,
    /// Congestion routing.
    Route,
    /// Partial bitstream generation.
    Bitgen,
}

/// Flow configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// Netlist/connectivity seed.
    pub seed: u64,
    /// Placer effort.
    pub placer: PlacerConfig,
    /// Optimization policy (`None` = the default heuristic, or the paper's
    /// Table VI targets when driven through [`run_paper_flow`]).
    pub optimize: Option<OptimizeOptions>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            seed: 1,
            placer: PlacerConfig::default(),
            optimize: None,
        }
    }
}

impl FlowOptions {
    /// Low-effort options for tests.
    pub fn fast(seed: u64) -> Self {
        FlowOptions {
            seed,
            placer: PlacerConfig::fast(seed),
            optimize: None,
        }
    }
}

/// Everything the flow produced.
#[derive(Debug, Clone, Serialize)]
pub struct FlowReport {
    /// Module name.
    pub module: String,
    /// Device name.
    pub device: String,
    /// Synthesis-report inputs (the cost model's inputs).
    pub synth_report: SynthReport,
    /// Post-optimization (post-"PAR") resource counts.
    pub post_report: SynthReport,
    /// Optimizer edit summary.
    pub optimizer: OptimizerReport,
    /// The model-predicted PRR the flow floorplanned into.
    pub plan: PrrPlan,
    /// The floorplan constraint text (UCF-style).
    pub ucf: String,
    /// Final placement wirelength (x16 fixed point).
    pub placement_hpwl: u64,
    /// Routing outcome.
    pub route: RouteReport,
    /// Post-placement timing estimate.
    pub timing: TimingReport,
    /// Generated partial bitstream size in bytes.
    pub bitstream_bytes: u64,
    /// Wall time per stage.
    pub stage_times: Vec<(FlowStage, Duration)>,
}

impl FlowReport {
    /// Total implementation time (everything after synthesis).
    pub fn implementation_time(&self) -> Duration {
        self.stage_times
            .iter()
            .filter(|(s, _)| *s != FlowStage::Synthesis)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Total flow time.
    pub fn total_time(&self) -> Duration {
        self.stage_times.iter().map(|(_, d)| *d).sum()
    }
}

/// Flow failure, tagged with the failing stage.
#[derive(Debug)]
pub enum FlowError {
    /// The cost-model planning step failed (no feasible PRR).
    Plan(CostError),
    /// The netlist was internally inconsistent.
    Netlist(synth::ReportError),
    /// Optimization failed.
    Optimize(OptimizeError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing overflowed.
    RouteOverflow(RouteReport),
    /// Bitstream generation failed.
    Bitgen(GenError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Plan(e) => write!(f, "floorplanning failed: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Optimize(e) => write!(f, "optimization failed: {e}"),
            FlowError::Place(e) => write!(f, "placement failed: {e}"),
            FlowError::RouteOverflow(r) => write!(
                f,
                "routing overflowed {} boundaries (max utilization {:.2})",
                r.overflows.len(),
                r.max_utilization
            ),
            FlowError::Bitgen(e) => write!(f, "bitstream generation failed: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Run the full flow for an already-synthesized report/netlist pair.
pub fn run_flow_from_report(
    report: &SynthReport,
    device: &Device,
    opts: &FlowOptions,
    synth_time: Duration,
) -> Result<(FlowReport, PartialBitstream), FlowError> {
    let mut times = vec![(FlowStage::Synthesis, synth_time)];

    // Floorplan: the Fig. 1 plan rendered as an AREA_GROUP constraint.
    let t = Instant::now();
    let plan = prcost::plan_prr(report, device).map_err(FlowError::Plan)?;
    let mut floorplan = Floorplan::new(device);
    floorplan.push(AreaGroup::new(
        format!("pblock_{}", report.module),
        plan.window.clone(),
    ));
    floorplan
        .validate(device)
        .expect("model-planned windows are valid by construction");
    let ucf = floorplan.to_ucf();
    times.push((FlowStage::Floorplan, t.elapsed()));

    // Optimize.
    let t = Instant::now();
    let netlist = Netlist::from_report(report, opts.seed).map_err(FlowError::Netlist)?;
    let opt_options = opts
        .optimize
        .clone()
        .unwrap_or_else(OptimizeOptions::default_heuristic);
    let (optimized, optimizer) = optimize(&netlist, &opt_options).map_err(FlowError::Optimize)?;
    let post_report = optimized.to_report();
    times.push((FlowStage::Optimize, t.elapsed()));

    // Place.
    let t = Instant::now();
    let grid = SiteGrid::new(device);
    let placement: Placement =
        place(&optimized, &grid, &plan.window, &opts.placer).map_err(FlowError::Place)?;
    times.push((FlowStage::Place, t.elapsed()));

    // Route + timing.
    let t = Instant::now();
    let route_report = route(&optimized, &grid, &plan.window, &placement);
    let timing = analyze(&optimized, &grid, &plan.window, &placement);
    times.push((FlowStage::Route, t.elapsed()));
    if !route_report.routed {
        return Err(FlowError::RouteOverflow(route_report));
    }

    // Bitgen.
    let t = Instant::now();
    let spec = BitstreamSpec::from_plan(
        device.name(),
        &report.module,
        plan.organization,
        &plan.window,
    );
    let bs = generate(&spec).map_err(FlowError::Bitgen)?;
    times.push((FlowStage::Bitgen, t.elapsed()));

    Ok((
        FlowReport {
            module: report.module.clone(),
            device: device.name().to_string(),
            synth_report: report.clone(),
            post_report,
            optimizer,
            plan,
            ucf,
            placement_hpwl: placement.hpwl,
            route: route_report,
            timing,
            bitstream_bytes: bs.len_bytes(),
            stage_times: times,
        },
        bs,
    ))
}

/// Run the full flow for a parametric PRM generator.
pub fn run_flow(
    generator: &dyn PrmGenerator,
    device: &Device,
    opts: &FlowOptions,
) -> Result<(FlowReport, PartialBitstream), FlowError> {
    let t = Instant::now();
    let report = generator.synthesize(device.family());
    let synth_time = t.elapsed();
    run_flow_from_report(&report, device, opts, synth_time)
}

/// Run the full flow for a paper PRM: calibrated synthesis inputs, and the
/// optimizer driven toward the published Table VI post-PAR counts when the
/// paper evaluated this family.
pub fn run_paper_flow(
    prm: PaperPrm,
    device: &Device,
    opts: &FlowOptions,
) -> Result<(FlowReport, PartialBitstream), FlowError> {
    let t = Instant::now();
    let report = prm.synth_report(device.family());
    let synth_time = t.elapsed();
    let mut opts = opts.clone();
    if opts.optimize.is_none() {
        if let Some(target) = prm.post_par_report(device.family()) {
            opts.optimize = Some(OptimizeOptions::TowardTarget(target));
        }
    }
    run_flow_from_report(&report, device, &opts, synth_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};

    #[test]
    fn paper_flow_sdram_v5_end_to_end() {
        let device = xc5vlx110t();
        let (rep, bs) = run_paper_flow(PaperPrm::Sdram, &device, &FlowOptions::fast(3)).unwrap();
        // Post counts equal Table VI.
        assert_eq!(rep.post_report.lut_ff_pairs, 324);
        assert_eq!(rep.post_report.luts, 191);
        assert_eq!(rep.post_report.ffs, 292);
        // Bitstream matches the Eq. 18 prediction.
        assert_eq!(rep.bitstream_bytes, rep.plan.bitstream_bytes);
        assert_eq!(bs.len_bytes(), rep.bitstream_bytes);
        // All six stages timed.
        assert_eq!(rep.stage_times.len(), 6);
        assert!(rep.route.routed);
        assert!(rep.timing.max_frequency_mhz > 0.0);
        assert!(rep.ucf.contains("AREA_GROUP \"pblock_sdram_ctrl\""));
    }

    #[test]
    fn paper_flow_fir_v6_end_to_end() {
        let device = xc6vlx75t();
        let (rep, _) = run_paper_flow(PaperPrm::Fir, &device, &FlowOptions::fast(5)).unwrap();
        assert_eq!(rep.post_report.lut_ff_pairs, 999);
        assert_eq!(rep.plan.organization.height, 1);
        assert_eq!(rep.plan.organization.dsp_cols, 2);
        assert!(rep.route.routed);
    }

    #[test]
    fn generic_flow_uses_heuristic_optimizer() {
        let device = xc5vlx110t();
        let prm = synth::prm::GenericPrm::random(17, 800);
        let (rep, _) = run_flow(&prm, &device, &FlowOptions::fast(17)).unwrap();
        assert!(rep.post_report.lut_ff_pairs <= rep.synth_report.lut_ff_pairs);
        assert!(rep.optimizer.packed > 0 || rep.optimizer.total_edits() == 0);
        assert!(rep.implementation_time() <= rep.total_time());
    }

    #[test]
    fn flow_reports_infeasible_plan() {
        let device = xc5vlx110t();
        let report = SynthReport::new(
            "huge",
            fabric::Family::Virtex5,
            100_000,
            90_000,
            50_000,
            0,
            0,
        );
        match run_flow_from_report(&report, &device, &FlowOptions::fast(1), Duration::ZERO) {
            Err(FlowError::Plan(CostError::NoFeasiblePlacement { .. })) => {}
            other => panic!("expected plan failure, got {other:?}"),
        }
    }
}
