//! # `prfpga` — PR cost models for hardware multitasking, end to end
//!
//! Umbrella crate for the reproduction of Morales-Villanueva &
//! Gordon-Ross, *"Partial Region and Bitstream Cost Models for Hardware
//! Multitasking on Partially Reconfigurable FPGAs"* (IPPS 2015). It
//! re-exports the workspace crates and provides a one-call convenience
//! API, [`evaluate_prm`], covering the paper's whole pipeline: synthesis
//! report → PRR size/organization (Eqs. 1–17, Fig. 1) → partial bitstream
//! size (Eqs. 18–23) → reconfiguration time.
//!
//! ```
//! use prfpga::prelude::*;
//! use prfpga::reference;
//!
//! let device = fabric::device_by_name("xc5vlx110t")?;
//! let report = synth::PaperPrm::Fir.synth_report(device.family());
//! let eval = prfpga::evaluate_prm(&report, &device)?;
//! assert_eq!(eval.plan.organization.height, reference::FIR_V5_HEIGHT);
//! assert_eq!(eval.plan.bitstream_bytes, reference::FIR_V5_BITSTREAM_BYTES);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Crate map (see `DESIGN.md` for the full inventory):
//!
//! * [`fabric`] — Virtex-style device fabric substrate.
//! * [`synth`] — synthesis reports, XST-style text I/O, netlists, PRM
//!   generators.
//! * [`prcost`] — **the paper's contribution**: both cost models and the
//!   Fig. 1 search.
//! * [`bitstream`] — partial bitstream writer/parser and the ICAP model.
//! * [`parflow`] — the simulated PR design flow the models replace.
//! * [`multitask`] — hardware-multitasking discrete-event simulation.
//! * [`layout`] — online layout manager: free-space tracking,
//!   fragmentation metrics, ICAP-costed defragmentation.
//! * [`sched`] — real-time scheduling layer: periodic task sets
//!   (UUniFast), reconfiguration-aware admission tests, and the
//!   scheduler ablation harness.
//! * [`baselines`] — prior-work cost models and naive sizing strategies.

// `deny` rather than `forbid`: `pipeline`'s off-Linux peak-RSS fallback
// carries one narrowly-scoped `#[allow(unsafe_code)]` (a getrusage(2)
// FFI call with a SAFETY comment); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use bitstream;
pub use fabric;
pub use layout;
pub use multitask;
pub use parflow;
pub use prcost;
pub use sched;
pub use synth;

pub mod pipeline;
pub mod sweep;

use std::time::Duration;

/// Convenient glob imports for downstream users.
pub mod prelude {
    pub use baselines::{ClausModel, FarmModel, NaiveStrategy, PapadimitriouModel};
    pub use bitstream::{IcapModel, PartialBitstream};
    pub use fabric::{self, Device, DeviceGeometry, Family, ResourceKind, Resources};
    pub use layout::{simulate_layout, DefragPolicy, LayoutConfig, LayoutManager};
    pub use multitask::{simulate, PrSystem, Workload};
    pub use parflow::flow::{run_flow, run_paper_flow, FlowOptions};
    pub use prcost::{
        plan_prr, plan_shared_prr, Engine, MetricsSnapshot, PlanScratch, PrrOrganization, PrrPlan,
        PrrRequirements,
    };
    pub use sched::{
        response_time_admit, run_ablation, utilization_bound_admit, AblationConfig, TaskSet,
        TaskSetConfig,
    };
    pub use synth::{self, PaperPrm, PrmGenerator, SynthReport};
}

/// Headline reference values from the paper's Table V, kept in one place
/// so the crate's doc examples and tests assert the same constants.
pub mod reference {
    /// FIR on the Virtex-5 LX110T: selected PRR height.
    pub const FIR_V5_HEIGHT: u32 = 5;
    /// FIR on the Virtex-5 LX110T: predicted partial bitstream bytes.
    pub const FIR_V5_BITSTREAM_BYTES: u64 = 83_040;
    /// SDRAM on the Virtex-6 LX75T: selected PRR height.
    pub const SDRAM_V6_HEIGHT: u32 = 1;
    /// SDRAM on the Virtex-6 LX75T: predicted partial bitstream bytes.
    pub const SDRAM_V6_BITSTREAM_BYTES: u64 = 23_792;
}

/// One PRM's full cost-model evaluation.
#[derive(Debug, Clone)]
pub struct PrmEvaluation {
    /// The Fig. 1 plan: organization, placement, bitstream size, RU.
    pub plan: prcost::PrrPlan,
    /// Reconfiguration time through a DMA-fed ICAP.
    pub reconfig_time: Duration,
    /// Generated partial bitstream (byte length equals
    /// `plan.bitstream_bytes` by construction).
    pub bitstream: bitstream::PartialBitstream,
}

/// Run the whole paper pipeline for one synthesis report on one device.
pub fn evaluate_prm(
    report: &synth::SynthReport,
    device: &fabric::Device,
) -> Result<PrmEvaluation, Box<dyn std::error::Error>> {
    let plan = prcost::plan_prr(report, device)?;
    let spec = bitstream::BitstreamSpec::from_plan(
        device.name(),
        &report.module,
        plan.organization,
        &plan.window,
    );
    let bs = bitstream::generate(&spec)?;
    debug_assert_eq!(bs.len_bytes(), plan.bitstream_bytes);
    let reconfig_time = bitstream::IcapModel::V5_DMA.transfer_time(plan.bitstream_bytes);
    Ok(PrmEvaluation {
        plan,
        reconfig_time,
        bitstream: bs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_prm_runs_the_whole_pipeline() {
        let device = fabric::device_by_name("xc6vlx75t").unwrap();
        let report = synth::PaperPrm::Mips.synth_report(device.family());
        let eval = evaluate_prm(&report, &device).unwrap();
        assert_eq!(eval.bitstream.len_bytes(), eval.plan.bitstream_bytes);
        assert!(eval.reconfig_time > Duration::ZERO);
        assert_eq!(eval.plan.organization.height, 1);
    }

    /// The doc-example constants in [`crate::reference`] must be the
    /// values the pipeline actually produces.
    #[test]
    fn reference_constants_match_the_pipeline() {
        let v5 = fabric::device_by_name("xc5vlx110t").unwrap();
        let fir = evaluate_prm(&synth::PaperPrm::Fir.synth_report(v5.family()), &v5).unwrap();
        assert_eq!(fir.plan.organization.height, reference::FIR_V5_HEIGHT);
        assert_eq!(fir.plan.bitstream_bytes, reference::FIR_V5_BITSTREAM_BYTES);

        let v6 = fabric::device_by_name("xc6vlx75t").unwrap();
        let sdram = evaluate_prm(&synth::PaperPrm::Sdram.synth_report(v6.family()), &v6).unwrap();
        assert_eq!(sdram.plan.organization.height, reference::SDRAM_V6_HEIGHT);
        assert_eq!(
            sdram.plan.bitstream_bytes,
            reference::SDRAM_V6_BITSTREAM_BYTES
        );
    }

    #[test]
    fn evaluate_prm_propagates_planning_errors() {
        let device = fabric::device_by_name("xc5vlx110t").unwrap();
        let report =
            synth::SynthReport::new("huge", fabric::Family::Virtex5, 1_000_000, 1, 1, 0, 0);
        assert!(evaluate_prm(&report, &device).is_err());
    }
}
