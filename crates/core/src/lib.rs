//! # `prcost` — the paper's cost models
//!
//! Implementation of the two high-level cost models of Morales-Villanueva &
//! Gordon-Ross, *"Partial Region and Bitstream Cost Models for Hardware
//! Multitasking on Partially Reconfigurable FPGAs"* (IPPS 2015):
//!
//! 1. **PRR size/organization model** (§III.B, Eqs. 1–17): from a PRM's
//!    synthesis-report resource requirements, derive the partially
//!    reconfigurable region's height `H`, per-kind column counts
//!    (`W_CLB`/`W_DSP`/`W_BRAM`), available resources and per-resource
//!    utilization — see [`requirements`], [`prr`].
//! 2. **Partial bitstream size model** (§III.C, Eqs. 18–23): from a PRR
//!    organization, predict the partial bitstream's exact byte size — see
//!    [`bits`].
//!
//! [`search`] implements the paper's Fig. 1 flow tying the two together: it
//! enumerates candidate heights, checks physical placeability on a target
//! device, and selects the PRR minimizing predicted bitstream size
//! (tie-breaking on PRR size, then height — the criterion reverse-engineered
//! from the paper's Table V results; `DESIGN.md` §6). [`multi`] extends the
//! sizing to several PRMs time-multiplexing one PRR, and [`timing`] models
//! the model-evaluation cost that Table VIII contrasts with the full design
//! flow.
//!
//! ## Quick start
//!
//! ```
//! use fabric::database::xc5vlx110t;
//! use synth::PaperPrm;
//! use prcost::search::plan_prr;
//!
//! let device = xc5vlx110t();
//! let report = PaperPrm::Fir.synth_report(device.family());
//! let plan = plan_prr(&report, &device).expect("FIR fits on the LX110T");
//! assert_eq!(plan.organization.height, 5);
//! assert_eq!(plan.organization.clb_cols, 2);
//! assert_eq!(plan.organization.dsp_cols, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod engine;
pub mod error;
pub mod full;
pub mod metrics;
pub mod multi;
pub mod prr;
pub mod report;
pub mod requirements;
pub mod rng;
pub mod search;
pub mod service;
pub mod shard;
pub mod timing;

pub use bits::{bitstream_size_bytes, context_breakdown, BitstreamBreakdown, ContextBreakdown};
pub use engine::{DeviceHandle, Engine, EngineSnapshot, SnapshotError};
pub use error::CostError;
pub use full::{full_bitstream_size_bytes, FullBitstreamBreakdown};
pub use metrics::{GlobalCounter, Metrics, MetricsSnapshot};
pub use multi::plan_shared_prr;
pub use prr::{PrrOrganization, Utilization};
pub use report::datasheet;
pub use requirements::PrrRequirements;
pub use rng::Rng;
pub use search::{
    plan_prr, plan_requirements_cached, Candidate, PlanScratch, PrrPlan, SearchTrace,
};
pub use service::{PlanService, ServiceConfig};
pub use shard::{DeviceId, PlanKey, Sharded};
