//! Structured synthesis reports and the paper's slice-pair algebra.

use core::fmt;
use fabric::Family;
use serde::{Deserialize, Serialize};

/// Resource requirements of one PRM, as reported by synthesis.
///
/// These are exactly the Table I inputs of the PRR size/organization cost
/// model. The paper defines (§III.B):
///
/// * `LUT_FF_req` (here [`lut_ff_pairs`](Self::lut_ff_pairs)) — slice
///   LUT–FF pair slots used, partitioned into pairs with an unused LUT
///   (FF only), fully used pairs, and pairs with an unused FF (LUT only);
/// * `FF_req` = pairs-with-unused-LUT + fully-used pairs;
/// * `LUT_req` = fully-used pairs + pairs-with-unused-FF.
///
/// Hence the invariants `lut_ff_pairs >= max(luts, ffs)` and
/// `luts + ffs >= lut_ff_pairs`, checked by [`validate`](Self::validate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthReport {
    /// PRM (module) name.
    pub module: String,
    /// Family the synthesis targeted (resource mapping is family-specific).
    pub family: Family,
    /// `LUT_FF_req`: LUT–FF pair slots used.
    pub lut_ff_pairs: u64,
    /// `LUT_req`: slice LUTs used.
    pub luts: u64,
    /// `FF_req`: slice registers used.
    pub ffs: u64,
    /// `DSP_req`: DSP blocks used.
    pub dsps: u64,
    /// `BRAM_req`: block RAMs used.
    pub brams: u64,
}

/// The three-way decomposition of `LUT_FF_req` (paper §III.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairBreakdown {
    /// Pairs where only the FF is used (`LUT_FF_req - LUT_req`).
    pub unused_lut: u64,
    /// Fully used LUT–FF pairs (`LUT_req + FF_req - LUT_FF_req`).
    pub fully_used: u64,
    /// Pairs where only the LUT is used (`LUT_FF_req - FF_req`).
    pub unused_ff: u64,
}

impl PairBreakdown {
    /// Total pair slots (`LUT_FF_req`).
    pub fn pairs(&self) -> u64 {
        self.unused_lut + self.fully_used + self.unused_ff
    }

    /// LUTs implied by the breakdown.
    pub fn luts(&self) -> u64 {
        self.fully_used + self.unused_ff
    }

    /// FFs implied by the breakdown.
    pub fn ffs(&self) -> u64 {
        self.fully_used + self.unused_lut
    }
}

/// Report-consistency violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// `LUT_FF_req < max(LUT_req, FF_req)` — a pair slot is missing.
    PairsBelowMax {
        /// Reported pair count.
        pairs: u64,
        /// Reported LUTs.
        luts: u64,
        /// Reported FFs.
        ffs: u64,
    },
    /// `LUT_req + FF_req < LUT_FF_req` — more pair slots than members.
    PairsAboveSum {
        /// Reported pair count.
        pairs: u64,
        /// Reported LUTs.
        luts: u64,
        /// Reported FFs.
        ffs: u64,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::PairsBelowMax { pairs, luts, ffs } => write!(
                f,
                "LUT_FF_req ({pairs}) < max(LUT_req={luts}, FF_req={ffs}): impossible pairing"
            ),
            ReportError::PairsAboveSum { pairs, luts, ffs } => write!(
                f,
                "LUT_req + FF_req ({luts}+{ffs}) < LUT_FF_req ({pairs}): pair slots exceed members"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

impl SynthReport {
    /// Build a report from the five Table I quantities.
    pub fn new(
        module: impl Into<String>,
        family: Family,
        lut_ff_pairs: u64,
        luts: u64,
        ffs: u64,
        dsps: u64,
        brams: u64,
    ) -> Self {
        SynthReport {
            module: module.into(),
            family,
            lut_ff_pairs,
            luts,
            ffs,
            dsps,
            brams,
        }
    }

    /// Build from a pair breakdown (always internally consistent).
    pub fn from_breakdown(
        module: impl Into<String>,
        family: Family,
        breakdown: PairBreakdown,
        dsps: u64,
        brams: u64,
    ) -> Self {
        SynthReport::new(
            module,
            family,
            breakdown.pairs(),
            breakdown.luts(),
            breakdown.ffs(),
            dsps,
            brams,
        )
    }

    /// Check the slice-pair algebra invariants.
    pub fn validate(&self) -> Result<(), ReportError> {
        if self.lut_ff_pairs < self.luts.max(self.ffs) {
            return Err(ReportError::PairsBelowMax {
                pairs: self.lut_ff_pairs,
                luts: self.luts,
                ffs: self.ffs,
            });
        }
        // Saturating: a sum beyond `u64::MAX` exceeds every pair count.
        if self.luts.saturating_add(self.ffs) < self.lut_ff_pairs {
            return Err(ReportError::PairsAboveSum {
                pairs: self.lut_ff_pairs,
                luts: self.luts,
                ffs: self.ffs,
            });
        }
        Ok(())
    }

    /// The three-way pair decomposition (valid reports only).
    pub fn breakdown(&self) -> Result<PairBreakdown, ReportError> {
        self.validate()?;
        // Validation guarantees `pairs >= max(luts, ffs)` and
        // `luts + ffs >= pairs`, so no term below can underflow, and
        // `LUT_req + FF_req - LUT_FF_req` is taken without the sum.
        let unused_ff = self.lut_ff_pairs - self.ffs;
        Ok(PairBreakdown {
            unused_lut: self.lut_ff_pairs - self.luts,
            fully_used: self.luts - unused_ff,
            unused_ff,
        })
    }

    /// Percentage saving of `self` relative to `baseline` for a quantity
    /// selected by `f`, matching the paper's Table VI convention: positive
    /// means `self` uses fewer resources than `baseline`.
    pub fn saving_pct(&self, baseline: &SynthReport, f: impl Fn(&SynthReport) -> u64) -> f64 {
        let base = f(baseline) as f64;
        if base == 0.0 {
            return 0.0;
        }
        (base - f(self) as f64) / base * 100.0
    }
}

impl fmt::Display for SynthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} LUT-FF pairs, {} LUTs, {} FFs, {} DSPs, {} BRAMs",
            self.module, self.family, self.lut_ff_pairs, self.luts, self.ffs, self.dsps, self.brams
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir_v5() -> SynthReport {
        SynthReport::new("fir", Family::Virtex5, 1300, 1150, 394, 32, 0)
    }

    #[test]
    fn breakdown_matches_paper_definitions() {
        let b = fir_v5().breakdown().unwrap();
        assert_eq!(b.unused_ff, 906); // LUT-only pairs
        assert_eq!(b.unused_lut, 150); // FF-only pairs
        assert_eq!(b.fully_used, 244);
        assert_eq!(b.pairs(), 1300);
        assert_eq!(b.luts(), 1150);
        assert_eq!(b.ffs(), 394);
    }

    #[test]
    fn from_breakdown_round_trips() {
        let b = PairBreakdown {
            unused_lut: 10,
            fully_used: 20,
            unused_ff: 30,
        };
        let r = SynthReport::from_breakdown("m", Family::Virtex6, b, 1, 2);
        assert_eq!(r.lut_ff_pairs, 60);
        assert_eq!(r.luts, 50);
        assert_eq!(r.ffs, 30);
        assert_eq!(r.breakdown().unwrap(), b);
    }

    #[test]
    fn validate_rejects_impossible_pairings() {
        let too_few_pairs = SynthReport::new("m", Family::Virtex5, 10, 20, 5, 0, 0);
        assert!(matches!(
            too_few_pairs.validate(),
            Err(ReportError::PairsBelowMax { .. })
        ));

        let too_many_pairs = SynthReport::new("m", Family::Virtex5, 100, 30, 40, 0, 0);
        assert!(matches!(
            too_many_pairs.validate(),
            Err(ReportError::PairsAboveSum { .. })
        ));

        assert!(fir_v5().validate().is_ok());
    }

    #[test]
    fn saving_pct_matches_table6_convention() {
        let synth = fir_v5();
        let post = SynthReport::new("fir", Family::Virtex5, 1082, 1015, 410, 32, 0);
        let s = post.saving_pct(&synth, |r| r.lut_ff_pairs);
        assert!((s - 16.8).abs() < 0.05, "got {s}");
        let s_ff = post.saving_pct(&synth, |r| r.ffs);
        assert!((s_ff - (-4.1)).abs() < 0.05, "got {s_ff}");
        // Zero baseline yields 0% (paper reports 0% for unused DSP/BRAM).
        assert_eq!(post.saving_pct(&synth, |r| r.brams), 0.0);
    }

    /// Counts near `u64::MAX` (as a hostile `.syr` can carry) validate
    /// and decompose without overflow.
    #[test]
    fn extreme_counts_do_not_overflow() {
        let max = u64::MAX;
        let r = SynthReport::new("huge", Family::Virtex5, max, max, 1, 0, 0);
        let b = r.breakdown().unwrap();
        assert_eq!((b.unused_lut, b.fully_used, b.unused_ff), (0, 1, max - 1));
        let r = SynthReport::new("huge", Family::Virtex5, max, max, max, 0, 0);
        assert_eq!(r.breakdown().unwrap().fully_used, max);
        let r = SynthReport::new("huge", Family::Virtex5, max, max - 1, 0, 0, 0);
        assert!(matches!(
            r.validate(),
            Err(ReportError::PairsAboveSum { .. })
        ));
    }

    #[test]
    fn edge_case_all_zero_is_valid() {
        let r = SynthReport::new("empty", Family::Virtex4, 0, 0, 0, 0, 0);
        assert!(r.validate().is_ok());
        let b = r.breakdown().unwrap();
        assert_eq!(b.pairs(), 0);
    }
}
