//! PR module (PRM) generators.
//!
//! Each generator describes a hardware-task architecture parametrically and
//! synthesizes it to a [`SynthReport`] via the [`crate::mapping`] estimator.
//! [`PaperPrm`] wraps the three PRMs evaluated in the paper with their exact
//! published parameters; on the families the paper evaluated, its reports
//! come from [`crate::calibration`] so downstream experiments consume
//! exactly the paper's inputs.

mod aes;
mod fft;
mod fir;
mod generic;
mod mips;
mod sdram;
mod uart;

pub use aes::AesEngine;
pub use fft::FftCore;
pub use fir::FirFilter;
pub use generic::GenericPrm;
pub use mips::MipsCore;
pub use sdram::SdramController;
pub use uart::Uart;

use crate::calibration;
use crate::mapping::{map, OpCounts};
use crate::netlist::Netlist;
use crate::report::{ReportError, SynthReport};
use fabric::Family;
use serde::{Deserialize, Serialize};

/// A parametric PRM architecture that can be synthesized for any family.
pub trait PrmGenerator {
    /// Module name used in reports and bitstream metadata.
    fn name(&self) -> String;

    /// Abstract operator counts for `family`.
    fn op_counts(&self, family: Family) -> OpCounts;

    /// A 64-bit identity for this generator *configuration*, used as a
    /// cache key by the memoizing planning engine.
    ///
    /// Two generators with equal fingerprints are assumed to synthesize
    /// identical reports for every family; keying on the name alone is
    /// not enough (two differently-parameterized generators can share a
    /// name — e.g. two `GenericPrm`s both called `"dsp_core"` — and would
    /// silently serve each other's cached reports). The default
    /// implementation therefore hashes the name *and* the per-family
    /// operator counts, which fully determine [`PrmGenerator::synthesize`]
    /// through the default `mapping` path. Override only for generators
    /// whose `synthesize` depends on state beyond `name`/`op_counts`.
    fn fingerprint(&self) -> u64 {
        use fabric::splitmix64;
        let mut h = splitmix64(0x7072_6d5f_6669_6e67); // "prm_fing"
        let name = self.name();
        h = splitmix64(h ^ name.len() as u64);
        for chunk in name.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = splitmix64(h ^ u64::from_le_bytes(word));
        }
        for family in Family::ALL {
            let ops = self.op_counts(family);
            for field in [
                u64::from(ops.mults),
                u64::from(ops.mult_width),
                u64::from(ops.symmetric_mults),
                u64::from(ops.adders),
                u64::from(ops.add_width),
                ops.register_bits,
                ops.mem_bits,
                u64::from(ops.fsm_states),
                u64::from(ops.muxes),
                u64::from(ops.mux_width),
                u64::from(ops.mux_inputs),
                ops.misc_luts,
            ] {
                h = splitmix64(h ^ field);
            }
        }
        h
    }

    /// Synthesize to a resource report for `family`.
    fn synthesize(&self, family: Family) -> SynthReport {
        map(&self.name(), &self.op_counts(family), family)
    }

    /// Materialize a structural netlist (for the simulated PAR flow).
    fn netlist(&self, family: Family, seed: u64) -> Result<Netlist, ReportError> {
        Netlist::from_report(&self.synthesize(family), seed)
    }
}

/// The three PRMs evaluated in the paper (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperPrm {
    /// 32-coefficient finite impulse response filter.
    Fir,
    /// 5-stage pipelined MIPS R3000 32-bit processor.
    Mips,
    /// 32-bit synchronous DRAM controller.
    Sdram,
}

impl PaperPrm {
    /// All three paper PRMs.
    pub const ALL: [PaperPrm; 3] = [PaperPrm::Fir, PaperPrm::Mips, PaperPrm::Sdram];

    /// Module name.
    pub fn module_name(self) -> &'static str {
        match self {
            PaperPrm::Fir => "fir32",
            PaperPrm::Mips => "mips_r3000",
            PaperPrm::Sdram => "sdram_ctrl",
        }
    }

    /// The parametric generator configured with the paper's parameters.
    pub fn generator(self) -> Box<dyn PrmGenerator> {
        match self {
            PaperPrm::Fir => Box::new(FirFilter::paper()),
            PaperPrm::Mips => Box::new(MipsCore::paper()),
            PaperPrm::Sdram => Box::new(SdramController::paper()),
        }
    }

    /// Synthesis report for `family`: the paper's exact numbers where the
    /// paper evaluated (Virtex-5/-6), otherwise the parametric estimate.
    pub fn synth_report(self, family: Family) -> SynthReport {
        calibration::paper_synth_report(self, family).unwrap_or_else(|| {
            let mut r = self.generator().synthesize(family);
            r.module = self.module_name().to_string();
            r
        })
    }

    /// Post-place-and-route report where the paper published one
    /// (Table VI), else `None`.
    pub fn post_par_report(self, family: Family) -> Option<SynthReport> {
        calibration::paper_post_par_report(self, family)
    }

    /// Structural netlist with the calibrated resource counts.
    pub fn netlist(self, family: Family, seed: u64) -> Netlist {
        Netlist::from_report(&self.synth_report(family), seed)
            .expect("calibrated reports are internally consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_families_use_calibration() {
        for prm in PaperPrm::ALL {
            for fam in [Family::Virtex5, Family::Virtex6] {
                let r = prm.synth_report(fam);
                assert_eq!(Some(r), calibration::paper_synth_report(prm, fam));
            }
        }
    }

    #[test]
    fn non_paper_families_fall_back_to_generator() {
        for prm in PaperPrm::ALL {
            let r = prm.synth_report(Family::Series7);
            r.validate().unwrap();
            assert_eq!(r.module, prm.module_name());
            assert!(r.lut_ff_pairs > 0, "{prm:?} estimate is non-trivial");
        }
    }

    /// The parametric estimates should land in the same ballpark as the
    /// paper's Virtex-5 synthesis numbers (within 25 %), since the
    /// architectural formulas were derived from the same designs.
    #[test]
    fn parametric_estimates_track_paper_scale() {
        for prm in PaperPrm::ALL {
            let est = prm.generator().synthesize(Family::Virtex5);
            let paper = calibration::paper_synth_report(prm, Family::Virtex5).unwrap();
            let ratio = est.lut_ff_pairs as f64 / paper.lut_ff_pairs as f64;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "{prm:?}: estimate {} vs paper {} (ratio {ratio:.2})",
                est.lut_ff_pairs,
                paper.lut_ff_pairs
            );
            assert_eq!(est.dsps, paper.dsps, "{prm:?} DSP count");
            assert_eq!(est.brams, paper.brams, "{prm:?} BRAM count");
        }
    }

    #[test]
    fn netlists_match_calibrated_counts() {
        let nl = PaperPrm::Mips.netlist(Family::Virtex5, 9);
        let r = nl.to_report();
        assert_eq!(r.lut_ff_pairs, 2618);
        assert_eq!(r.dsps, 4);
        assert_eq!(r.brams, 6);
    }
}
