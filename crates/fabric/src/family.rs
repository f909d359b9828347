//! Device families and their fabric / configuration-plane constants.
//!
//! [`FamilyParams`] carries the Table II values (resources per column per
//! fabric row, LUTs/FFs per CLB) and [`FrameGeometry`] the Table IV values
//! (configuration frames per column kind, BRAM initialization frames, frame
//! size, bitstream framing word counts). Values for Virtex-5 are stated in
//! the paper body (§III.A); Virtex-4/-6 values come from the public Xilinx
//! configuration user guides (UG071, UG360) the paper cites; 7-series is an
//! extension using UG470. See `DESIGN.md` §5.

use crate::resource::ResourceKind;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Xilinx-style FPGA device family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Virtex-4 (ISE-era, 16-bit-word devices use a separate `bytes_word`).
    Virtex4,
    /// Virtex-5 — primary evaluation family of the paper.
    Virtex5,
    /// Virtex-6 — secondary evaluation family of the paper.
    Virtex6,
    /// 7-series (Virtex-7 / Kintex-7 / Artix-7 / Zynq-7000) — portability
    /// extension beyond the paper's evaluation.
    Series7,
    /// Spartan-6 — the paper's explicit 16-bit-configuration-word
    /// portability case ("in other devices, such as Spartan-3/6 devices,
    /// words are 16-bit, therefore Bytes_word must be adjusted").
    Spartan6,
}

impl Family {
    /// All modeled families.
    pub const ALL: [Family; 5] = [
        Family::Virtex4,
        Family::Virtex5,
        Family::Virtex6,
        Family::Series7,
        Family::Spartan6,
    ];

    /// Family constants (Table II + Table IV).
    pub fn params(self) -> &'static FamilyParams {
        match self {
            Family::Virtex4 => &VIRTEX4,
            Family::Virtex5 => &VIRTEX5,
            Family::Virtex6 => &VIRTEX6,
            Family::Series7 => &SERIES7,
            Family::Spartan6 => &SPARTAN6,
        }
    }

    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Virtex4 => "Virtex-4",
            Family::Virtex5 => "Virtex-5",
            Family::Virtex6 => "Virtex-6",
            Family::Series7 => "7-series",
            Family::Spartan6 => "Spartan-6",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration-plane geometry: the Table III/IV parameters of the
/// bitstream-size cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameGeometry {
    /// `CF_CLB`: configuration frames per CLB column (per fabric row).
    pub cf_clb: u32,
    /// `CF_DSP`: configuration frames per DSP column.
    pub cf_dsp: u32,
    /// `CF_BRAM`: configuration (interconnect) frames per BRAM column.
    pub cf_bram: u32,
    /// Configuration frames per IOB column (never inside a PRR; used by the
    /// full-bitstream model and fabric accounting).
    pub cf_iob: u32,
    /// Configuration frames per clock column.
    pub cf_clk: u32,
    /// `DF_BRAM`: BRAM content-initialization data frames per BRAM column.
    pub df_bram: u32,
    /// `FR_size`: frame size in configuration words.
    pub fr_size: u32,
    /// `IW`: initial (synchronization/header) words of a partial bitstream.
    pub iw: u32,
    /// `FW`: final (CRC/desynchronization) words of a partial bitstream.
    pub fw: u32,
    /// `FAR_FDRI`: words spent setting FAR and the FDRI write header per
    /// PRR row (and per BRAM-initialization block).
    pub far_fdri: u32,
    /// `Bytes_word`: bytes per configuration word (4 for Virtex-class parts,
    /// 2 for Spartan-3/-6).
    pub bytes_word: u32,
}

impl FrameGeometry {
    /// Configuration frames per column of `kind` (per fabric row).
    pub fn frames_per_column(&self, kind: ResourceKind) -> u32 {
        match kind {
            ResourceKind::Clb => self.cf_clb,
            ResourceKind::Dsp => self.cf_dsp,
            ResourceKind::Bram => self.cf_bram,
            ResourceKind::Iob => self.cf_iob,
            ResourceKind::Clk => self.cf_clk,
        }
    }
}

/// Fabric-architecture constants for one family: the parameters of Table I
/// that Table II instantiates, plus the configuration-plane geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FamilyParams {
    /// The family these constants belong to.
    pub family: Family,
    /// `CLB_col`: CLBs in one CLB column per fabric row.
    pub clb_col: u32,
    /// `DSP_col`: DSPs in one DSP column per fabric row.
    pub dsp_col: u32,
    /// `BRAM_col`: BRAMs in one BRAM column per fabric row.
    pub bram_col: u32,
    /// `LUT_CLB`: LUTs per CLB.
    pub lut_clb: u32,
    /// `FF_CLB`: flip-flops per CLB.
    pub ff_clb: u32,
    /// Configuration-plane geometry (Table IV).
    pub frames: FrameGeometry,
}

impl FamilyParams {
    /// Resources of `kind` contained in one column of that kind per fabric
    /// row (`*_col` in Table I). IOB/CLK columns carry no modeled resources.
    pub fn per_column(&self, kind: ResourceKind) -> u32 {
        match kind {
            ResourceKind::Clb => self.clb_col,
            ResourceKind::Dsp => self.dsp_col,
            ResourceKind::Bram => self.bram_col,
            ResourceKind::Iob | ResourceKind::Clk => 0,
        }
    }
}

/// Virtex-4 constants (UG070/UG071). A fabric row is 16 CLBs tall; CLBs hold
/// 4 slices of 2 LUT4 + 2 FFs; RAMB16 spans 4 CLB rows, DSP48 spans 2.
pub static VIRTEX4: FamilyParams = FamilyParams {
    family: Family::Virtex4,
    clb_col: 16,
    dsp_col: 8,
    bram_col: 4,
    lut_clb: 8,
    ff_clb: 8,
    frames: FrameGeometry {
        cf_clb: 22,
        cf_dsp: 21,
        cf_bram: 20,
        cf_iob: 30,
        cf_clk: 4,
        df_bram: 64,
        fr_size: 41,
        iw: 16,
        fw: 14,
        far_fdri: 5,
        bytes_word: 4,
    },
};

/// Virtex-5 constants, stated directly in the paper (§III.A): a fabric row
/// is 20 CLBs tall (8 DSPs, 4 BRAM36 per row); CLB = 2 slices × (4 LUT6 +
/// 4 FF); frame = 41 × 32-bit words; CLB/DSP/BRAM/IOB/CLK columns have
/// 36/28/30/54/4 frames; BRAM init = 128 data frames per column.
pub static VIRTEX5: FamilyParams = FamilyParams {
    family: Family::Virtex5,
    clb_col: 20,
    dsp_col: 8,
    bram_col: 4,
    lut_clb: 8,
    ff_clb: 8,
    frames: FrameGeometry {
        cf_clb: 36,
        cf_dsp: 28,
        cf_bram: 30,
        cf_iob: 54,
        cf_clk: 4,
        df_bram: 128,
        fr_size: 41,
        iw: 16,
        fw: 14,
        far_fdri: 5,
        bytes_word: 4,
    },
};

/// Virtex-6 constants (UG360/UG364): a fabric row is 40 CLBs tall (16 DSPs,
/// 8 BRAM36 per row); CLB = 2 slices × (4 LUT6 + 8 FF); frame = 81 words.
pub static VIRTEX6: FamilyParams = FamilyParams {
    family: Family::Virtex6,
    clb_col: 40,
    dsp_col: 16,
    bram_col: 8,
    lut_clb: 8,
    ff_clb: 16,
    frames: FrameGeometry {
        cf_clb: 36,
        cf_dsp: 28,
        cf_bram: 28,
        cf_iob: 44,
        cf_clk: 4,
        df_bram: 128,
        fr_size: 81,
        iw: 16,
        fw: 14,
        far_fdri: 5,
        bytes_word: 4,
    },
};

/// 7-series constants (UG470/UG474): a fabric row is 50 CLBs tall (20 DSPs,
/// 10 BRAM36 per row); CLB = 2 slices × (4 LUT6 + 8 FF); frame = 101 words.
pub static SERIES7: FamilyParams = FamilyParams {
    family: Family::Series7,
    clb_col: 50,
    dsp_col: 20,
    bram_col: 10,
    lut_clb: 8,
    ff_clb: 16,
    frames: FrameGeometry {
        cf_clb: 36,
        cf_dsp: 28,
        cf_bram: 28,
        cf_iob: 42,
        cf_clk: 30,
        df_bram: 128,
        fr_size: 101,
        iw: 16,
        fw: 14,
        far_fdri: 5,
        bytes_word: 4,
    },
};

/// Spartan-6 constants (UG380/UG384): a fabric row is 16 CLBs tall
/// (4 DSP48A1s, 2 RAMB16s per row); CLB = 2 slices × (4 LUT6 + 8 FF);
/// frame = 65 **16-bit** words — the `Bytes_word = 2` case the paper
/// calls out for portability.
pub static SPARTAN6: FamilyParams = FamilyParams {
    family: Family::Spartan6,
    clb_col: 16,
    dsp_col: 4,
    bram_col: 2,
    lut_clb: 8,
    ff_clb: 16,
    frames: FrameGeometry {
        cf_clb: 31,
        cf_dsp: 25,
        cf_bram: 24,
        cf_iob: 30,
        cf_clk: 4,
        df_bram: 64,
        fr_size: 65,
        iw: 16,
        fw: 14,
        far_fdri: 5,
        bytes_word: 2,
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Bytes_word portability note: Spartan-class parts use
    /// 16-bit configuration words.
    #[test]
    fn spartan6_uses_16_bit_words() {
        let f = &Family::Spartan6.params().frames;
        assert_eq!(f.bytes_word, 2);
        assert_eq!(f.fr_size, 65);
        for fam in [
            Family::Virtex4,
            Family::Virtex5,
            Family::Virtex6,
            Family::Series7,
        ] {
            assert_eq!(fam.params().frames.bytes_word, 4, "{fam}");
        }
    }

    /// Table II of the paper, as pinned down by the paper body and the
    /// Table V/VI utilization algebra (DESIGN.md §5).
    #[test]
    fn table2_values() {
        let v4 = Family::Virtex4.params();
        assert_eq!(
            (v4.clb_col, v4.dsp_col, v4.bram_col, v4.lut_clb, v4.ff_clb),
            (16, 8, 4, 8, 8)
        );
        let v5 = Family::Virtex5.params();
        assert_eq!(
            (v5.clb_col, v5.dsp_col, v5.bram_col, v5.lut_clb, v5.ff_clb),
            (20, 8, 4, 8, 8)
        );
        let v6 = Family::Virtex6.params();
        assert_eq!(
            (v6.clb_col, v6.dsp_col, v6.bram_col, v6.lut_clb, v6.ff_clb),
            (40, 16, 8, 8, 16)
        );
    }

    /// Virtex-5 frame facts stated verbatim in §III.A of the paper.
    #[test]
    fn virtex5_frame_facts_from_paper() {
        let f = &Family::Virtex5.params().frames;
        assert_eq!(f.fr_size, 41);
        assert_eq!(f.cf_clb, 36);
        assert_eq!(f.cf_dsp, 28);
        assert_eq!(f.cf_bram, 30);
        assert_eq!(f.cf_iob, 54);
        assert_eq!(f.cf_clk, 4);
        assert_eq!(f.df_bram, 128);
        assert_eq!(f.bytes_word, 4);
    }

    #[test]
    fn per_column_matches_named_fields() {
        for fam in Family::ALL {
            let p = fam.params();
            assert_eq!(p.per_column(ResourceKind::Clb), p.clb_col);
            assert_eq!(p.per_column(ResourceKind::Dsp), p.dsp_col);
            assert_eq!(p.per_column(ResourceKind::Bram), p.bram_col);
            assert_eq!(p.per_column(ResourceKind::Iob), 0);
            assert_eq!(p.per_column(ResourceKind::Clk), 0);
        }
    }

    #[test]
    fn frames_per_column_matches_named_fields() {
        for fam in Family::ALL {
            let f = &fam.params().frames;
            assert_eq!(f.frames_per_column(ResourceKind::Clb), f.cf_clb);
            assert_eq!(f.frames_per_column(ResourceKind::Dsp), f.cf_dsp);
            assert_eq!(f.frames_per_column(ResourceKind::Bram), f.cf_bram);
            assert_eq!(f.frames_per_column(ResourceKind::Iob), f.cf_iob);
            assert_eq!(f.frames_per_column(ResourceKind::Clk), f.cf_clk);
        }
    }
}
