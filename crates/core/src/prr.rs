//! PRR organization (Eqs. 2–12) and resource utilization (Eqs. 13–17).

use crate::requirements::PrrRequirements;
use fabric::{Family, Resources, WindowRequest};
use serde::{Deserialize, Serialize};

/// The organization of one PRR: its height and per-kind column counts.
///
/// Produced by [`PrrOrganization::for_height`], which applies the paper's
/// Eqs. (2)–(6) — including the Eq. (4) special case for devices with a
/// single DSP column, where `W_DSP` is fixed at 1 and the DSP requirement
/// constrains the height instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrrOrganization {
    /// Family the organization is computed for.
    pub family: Family,
    /// `H`: rows in the PRR (rectangular: `H_CLB = H_DSP = H_BRAM = H`).
    pub height: u32,
    /// `W_CLB`: CLB columns (Eq. 2).
    pub clb_cols: u32,
    /// `W_DSP`: DSP columns (Eq. 3, or 1 under the Eq. 4 special case).
    pub dsp_cols: u32,
    /// `W_BRAM`: BRAM columns (Eq. 5).
    pub bram_cols: u32,
}

/// Why a height is infeasible for a requirement set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrganizationError {
    /// The PRM needs no resources: a PRR of zero width is meaningless.
    EmptyRequirements,
    /// Eq. (4) case: the device has one DSP column, so `W_DSP = 1`, and
    /// `H * DSP_col` rows provide too few DSPs at this height.
    SingleDspColumnNeedsRows {
        /// Minimum height that satisfies `DSP_req` (`H_DSP` of Eq. 4).
        min_height: u32,
    },
}

impl PrrOrganization {
    /// Apply Eqs. (2)–(6) for requirements `req` at height `h`.
    ///
    /// `single_dsp_column` selects the Eq. (4) special case ("some Xilinx
    /// devices include only one DSP column in the fabric, which sets
    /// `W_DSP = 1`"). Column counts and the Eq. (4) minimum height that do
    /// not fit a `u32` saturate at `u32::MAX`, which no device can place.
    pub fn for_height(
        req: &PrrRequirements,
        h: u32,
        single_dsp_column: bool,
    ) -> Result<PrrOrganization, OrganizationError> {
        assert!(h >= 1, "PRR height is at least one row");
        if req.is_empty() {
            return Err(OrganizationError::EmptyRequirements);
        }
        let p = req.family.params();
        let hh = u64::from(h);

        // Eq. (2).
        let clb_cols = saturate(req.clb_req.div_ceil(hh * u64::from(p.clb_col)));

        // Eq. (3) or Eq. (4).
        let dsp_cols = if req.dsp_req == 0 {
            0
        } else if single_dsp_column {
            // Eq. (4): W_DSP = 1; H_DSP = ceil(DSP_req / DSP_col) rows are
            // needed, so heights below H_DSP are infeasible.
            let min_height = saturate(req.dsp_req.div_ceil(u64::from(p.dsp_col)));
            if h < min_height {
                return Err(OrganizationError::SingleDspColumnNeedsRows { min_height });
            }
            1
        } else {
            saturate(req.dsp_req.div_ceil(hh * u64::from(p.dsp_col)))
        };

        // Eq. (5).
        let bram_cols = saturate(req.bram_req.div_ceil(hh * u64::from(p.bram_col)));

        Ok(PrrOrganization {
            family: req.family,
            height: h,
            clb_cols,
            dsp_cols,
            bram_cols,
        })
    }

    /// `W = W_CLB + W_DSP + W_BRAM` (Eq. 6), saturating at `u32::MAX`
    /// like [`WindowRequest::width`].
    pub fn width(&self) -> u32 {
        self.clb_cols
            .saturating_add(self.dsp_cols)
            .saturating_add(self.bram_cols)
    }

    /// `PRR_size = H x W` (Eq. 7).
    pub fn prr_size(&self) -> u64 {
        u64::from(self.height) * u64::from(self.width())
    }

    /// Available resources (Eqs. 8, 11, 12).
    pub fn available(&self) -> Resources {
        let p = self.family.params();
        let h = u64::from(self.height);
        Resources::new(
            h * u64::from(self.clb_cols) * u64::from(p.clb_col),
            h * u64::from(self.dsp_cols) * u64::from(p.dsp_col),
            h * u64::from(self.bram_cols) * u64::from(p.bram_col),
        )
    }

    /// `FF_avail = CLB_avail * FF_CLB` (Eq. 9).
    pub fn ff_avail(&self) -> u64 {
        self.available().clb() * u64::from(self.family.params().ff_clb)
    }

    /// `LUT_avail = CLB_avail * LUT_CLB` (Eq. 10).
    pub fn lut_avail(&self) -> u64 {
        self.available().clb() * u64::from(self.family.params().lut_clb)
    }

    /// Resource utilization (Eqs. 13–17) of `req` inside this PRR.
    pub fn utilization(&self, req: &PrrRequirements) -> Utilization {
        let avail = self.available();
        Utilization {
            clb: ratio(req.clb_req, avail.clb()),
            ff: ratio(req.ff_req, self.ff_avail()),
            lut: ratio(req.lut_req, self.lut_avail()),
            dsp: ratio(req.dsp_req, avail.dsp()),
            bram: ratio(req.bram_req, avail.bram()),
        }
    }

    /// The fabric window this organization must occupy.
    pub fn window_request(&self) -> WindowRequest {
        WindowRequest::new(self.clb_cols, self.dsp_cols, self.bram_cols, self.height)
    }

    /// Whether the PRR's available resources cover `req` (sanity check:
    /// true by construction for organizations from [`Self::for_height`]).
    pub fn covers(&self, req: &PrrRequirements) -> bool {
        let avail = self.available();
        avail.clb() >= req.clb_req && avail.dsp() >= req.dsp_req && avail.bram() >= req.bram_req
    }
}

/// A column or row count as `u32`, saturating at `u32::MAX`. No device
/// has that many columns or rows, so a saturated count never places: an
/// oversized requirement yields no window rather than a wrapped, too-small
/// organization.
fn saturate(count: u64) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

fn ratio(used: u64, avail: u64) -> f64 {
    if avail == 0 {
        0.0
    } else {
        used as f64 / avail as f64 * 100.0
    }
}

/// Per-resource utilization percentages (Eqs. 13–17). High utilization
/// means low internal fragmentation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// `RU_CLB` (Eq. 13), percent.
    pub clb: f64,
    /// `RU_FF` (Eq. 14), percent.
    pub ff: f64,
    /// `RU_LUT` (Eq. 15), percent.
    pub lut: f64,
    /// `RU_DSP` (Eq. 16), percent.
    pub dsp: f64,
    /// `RU_BRAM` (Eq. 17), percent.
    pub bram: f64,
}

impl Utilization {
    /// All five percentages, for iteration/rendering.
    pub fn as_array(&self) -> [f64; 5] {
        [self.clb, self.ff, self.lut, self.dsp, self.bram]
    }

    /// Round each percentage to the nearest integer (the paper's Table V
    /// presentation).
    pub fn rounded(&self) -> [i64; 5] {
        self.as_array().map(|v| v.round() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::PaperPrm;

    fn req(prm: PaperPrm, fam: Family) -> PrrRequirements {
        PrrRequirements::from_report(&prm.synth_report(fam))
    }

    #[test]
    fn eq2_to_6_fir_v5_at_h5() {
        let r = req(PaperPrm::Fir, Family::Virtex5);
        let org = PrrOrganization::for_height(&r, 5, true).unwrap();
        assert_eq!(org.clb_cols, 2);
        assert_eq!(org.dsp_cols, 1);
        assert_eq!(org.bram_cols, 0);
        assert_eq!(org.width(), 3);
        assert_eq!(org.prr_size(), 15);
        let avail = org.available();
        assert_eq!(avail.clb(), 200);
        assert_eq!(avail.dsp(), 40);
        assert_eq!(org.ff_avail(), 1600);
        assert_eq!(org.lut_avail(), 1600);
    }

    #[test]
    fn eq4_single_dsp_column_height_constraint() {
        let r = req(PaperPrm::Fir, Family::Virtex5); // DSP_req = 32
        for h in 1..4 {
            assert_eq!(
                PrrOrganization::for_height(&r, h, true),
                Err(OrganizationError::SingleDspColumnNeedsRows { min_height: 4 }),
                "H={h} provides only {} DSPs",
                h * 8
            );
        }
        assert!(PrrOrganization::for_height(&r, 4, true).is_ok());
    }

    #[test]
    fn eq3_multi_dsp_column() {
        let r = req(PaperPrm::Fir, Family::Virtex6); // DSP_req = 27
        let org = PrrOrganization::for_height(&r, 1, false).unwrap();
        assert_eq!(org.dsp_cols, 2, "ceil(27 / (1*16)) = 2");
        let org3 = PrrOrganization::for_height(&r, 3, false).unwrap();
        assert_eq!(org3.dsp_cols, 1, "ceil(27 / (3*16)) = 1");
    }

    /// Table V utilization rows (surviving cells of the paper) for all six
    /// PRM/device pairs, at the paper's chosen heights.
    #[test]
    fn table5_utilizations_reproduce() {
        // (prm, family, H, single_dsp, [RU_CLB, RU_FF, RU_LUT, RU_DSP, RU_BRAM])
        //
        // MIPS/Virtex-5 RU_CLB: the model computes 328/340 = 96.47 %,
        // which rounds to 96; the paper prints 97 % (its own rounding of
        // the same ratio). Every other cell matches the paper exactly.
        let cases = [
            (PaperPrm::Fir, Family::Virtex5, 5, true, [82, 25, 72, 80, 0]),
            (
                PaperPrm::Mips,
                Family::Virtex5,
                1,
                true,
                [96, 59, 56, 50, 75],
            ),
            (
                PaperPrm::Sdram,
                Family::Virtex5,
                1,
                true,
                [70, 61, 33, 0, 0],
            ),
            (
                PaperPrm::Fir,
                Family::Virtex6,
                1,
                false,
                [92, 12, 82, 84, 0],
            ),
            (
                PaperPrm::Mips,
                Family::Virtex6,
                1,
                false,
                [92, 26, 60, 25, 75],
            ),
            (
                PaperPrm::Sdram,
                Family::Virtex6,
                1,
                false,
                [61, 25, 28, 0, 0],
            ),
        ];
        for (prm, fam, h, single, expected) in cases {
            let r = req(prm, fam);
            let org = PrrOrganization::for_height(&r, h, single).unwrap();
            let ru = org.utilization(&r).rounded();
            assert_eq!(ru, expected.map(i64::from), "{prm:?}/{fam}");
        }
    }

    #[test]
    fn organizations_always_cover_requirements() {
        for prm in PaperPrm::ALL {
            for fam in [Family::Virtex5, Family::Virtex6] {
                let r = req(prm, fam);
                for h in 1..=8 {
                    if let Ok(org) = PrrOrganization::for_height(&r, h, fam == Family::Virtex5) {
                        assert!(org.covers(&r), "{prm:?}/{fam} H={h}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_requirements_are_rejected() {
        let r = PrrRequirements::new(Family::Virtex5, 0, 0, 0, 0, 0);
        assert_eq!(
            PrrOrganization::for_height(&r, 1, false),
            Err(OrganizationError::EmptyRequirements)
        );
    }

    #[test]
    fn utilization_handles_zero_available() {
        let r = req(PaperPrm::Sdram, Family::Virtex5); // no DSP/BRAM
        let org = PrrOrganization::for_height(&r, 1, true).unwrap();
        let ru = org.utilization(&r);
        assert_eq!(ru.dsp, 0.0);
        assert_eq!(ru.bram, 0.0);
    }
}
