//! # `parflow` — simulated PR design flow
//!
//! The paper's cost models exist to *avoid* the "lengthy PR design flow":
//! design synthesis, manual PRR floorplanning, place and route, and
//! bitstream generation. To evaluate the models against that flow (the
//! paper's Tables VI and VIII), this crate implements a functional
//! simulation of each stage on the `fabric` substrate:
//!
//! * [`floorplan`] — AREA_GROUP-style region constraints (a UCF-like text
//!   form plus validation against the device).
//! * [`optimize`](mod@optimize) — the post-synthesis optimization the Xilinx tools apply
//!   during implementation: LUT/FF pair packing, LUT trimming, register
//!   replication and route-through LUT insertion, performed as real netlist
//!   transformations. For the paper's PRMs the optimizer is driven toward
//!   the published post-PAR resource counts (Table VI); for other PRMs a
//!   heuristic profile applies.
//! * [`place`](mod@place) — a deterministic multi-start simulated-annealing placer
//!   over the device's site grid (rayon-parallel across restarts). The
//!   move loop is allocation-free: x16 fixed-point HPWL maintained by
//!   incremental per-net bounding boxes, proven identical to the frozen
//!   [`place::reference`] full recompute (see DESIGN.md §9).
//! * [`route`](mod@route) — a boundary-congestion router: per-column-boundary channel
//!   demand from net bounding boxes against family-derived capacity.
//! * [`flow`] — the end-to-end driver with per-stage wall times (the
//!   "Implementation" column of Table VIII), plus [`run_flows`]: batch
//!   execution over rayon with per-worker placer scratch and per-stage
//!   histograms recorded into `prcost::Metrics`.
//! * [`autofloorplan`] — the paper's stated future work: using the cost
//!   models to floorplan several PRRs jointly (branch-and-bound over
//!   each PRR's Fig. 1 candidates with dominance pruning, minimizing
//!   total bitstream bytes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod autofloorplan;
pub mod crossings;
pub mod floorplan;
pub mod flow;
pub mod optimize;
pub mod place;
pub mod route;
pub mod timing;

pub use analytic::place_analytic;
pub use autofloorplan::{auto_floorplan, AutoFloorplan, PrrSpec};
pub use crossings::{assess, CrossingRisk};
pub use floorplan::{AreaGroup, Floorplan, FloorplanError};
pub use flow::{run_flow, run_flows, FlowJob, FlowOptions, FlowReport, FlowStage};
pub use optimize::{optimize, OptimizeOptions, OptimizerReport};
pub use place::{place, place_with_scratch, PlaceError, PlaceScratch, Placement, PlacerConfig};
pub use route::{route, RouteReport};
pub use timing::{analyze, TimingReport};
