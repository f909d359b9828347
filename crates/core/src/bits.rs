//! Partial bitstream size model (Eqs. 18–23).
//!
//! The paper's second model predicts the byte size of a PRR's partial
//! bitstream from its organization alone, without running bitgen:
//!
//! ```text
//! S_bitstream = (IW + H * (NCW_row + NDW_BRAM) + FW) * Bytes_word    (18)
//! NCW_row  = FAR_FDRI + (NCF_CLB + NCF_DSP + NCF_BRAM + 1) * FR_size (19)
//! NCF_CLB  = W_CLB  * CF_CLB                                         (20)
//! NCF_DSP  = W_DSP  * CF_DSP                                         (21)
//! NCF_BRAM = W_BRAM * CF_BRAM                                        (22)
//! NDW_BRAM = FAR_FDRI + (W_BRAM * DF_BRAM + 1) * FR_size             (23)
//! ```
//!
//! The `+ 1` in (19) and (23) is the pad frame that flushes the device's
//! frame-data pipeline at the end of each FDRI write. `NDW_BRAM` applies
//! only when the PRR contains BRAM columns (Fig. 2: BRAM initialization
//! words are present only for PRRs with BRAMs).
//!
//! The `bitstream` crate generates actual byte streams with this exact
//! structure; a cross-crate property test asserts the model predicts the
//! generator's output length byte-for-byte.

use crate::prr::PrrOrganization;
use serde::{Deserialize, Serialize};

/// Word-level decomposition of a predicted partial bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitstreamBreakdown {
    /// `IW`: initial (sync/header) words.
    pub initial_words: u64,
    /// `NCW_row`: configuration words per PRR row (Eq. 19).
    pub config_words_per_row: u64,
    /// `NDW_BRAM`: BRAM initialization words per PRR row (Eq. 23), zero
    /// when the PRR holds no BRAM columns.
    pub bram_words_per_row: u64,
    /// `H`: PRR rows.
    pub rows: u64,
    /// `FW`: final (CRC/desync) words.
    pub final_words: u64,
    /// `Bytes_word`.
    pub bytes_per_word: u64,
}

impl BitstreamBreakdown {
    /// Total words (Eq. 18's parenthesized term).
    pub fn total_words(&self) -> u64 {
        self.initial_words
            + self.rows * (self.config_words_per_row + self.bram_words_per_row)
            + self.final_words
    }

    /// `S_bitstream` in bytes (Eq. 18).
    pub fn total_bytes(&self) -> u64 {
        self.total_words() * self.bytes_per_word
    }
}

/// Evaluate Eqs. (19)–(23) for `org`.
pub fn breakdown(org: &PrrOrganization) -> BitstreamBreakdown {
    let g = &org.family.params().frames;
    let fr = u64::from(g.fr_size);
    let far_fdri = u64::from(g.far_fdri);

    let ncf_clb = u64::from(org.clb_cols) * u64::from(g.cf_clb); // (20)
    let ncf_dsp = u64::from(org.dsp_cols) * u64::from(g.cf_dsp); // (21)
    let ncf_bram = u64::from(org.bram_cols) * u64::from(g.cf_bram); // (22)

    let ncw_row = far_fdri + (ncf_clb + ncf_dsp + ncf_bram + 1) * fr; // (19)
    let ndw_bram = if org.bram_cols > 0 {
        far_fdri + (u64::from(org.bram_cols) * u64::from(g.df_bram) + 1) * fr // (23)
    } else {
        0
    };

    BitstreamBreakdown {
        initial_words: u64::from(g.iw),
        config_words_per_row: ncw_row,
        bram_words_per_row: ndw_bram,
        rows: u64::from(org.height),
        final_words: u64::from(g.fw),
        bytes_per_word: u64::from(g.bytes_word),
    }
}

/// `S_bitstream` in bytes (Eq. 18) for `org`.
///
/// ```
/// use prcost::{bitstream_size_bytes, PrrOrganization};
/// use fabric::Family;
///
/// // The paper's FIR PRR on the Virtex-5 LX110T: H=5, 2 CLB + 1 DSP cols.
/// let org = PrrOrganization {
///     family: Family::Virtex5,
///     height: 5,
///     clb_cols: 2,
///     dsp_cols: 1,
///     bram_cols: 0,
/// };
/// assert_eq!(bitstream_size_bytes(&org), 83_040);
/// ```
pub fn bitstream_size_bytes(org: &PrrOrganization) -> u64 {
    breakdown(org).total_bytes()
}

/// Extra command words bracketing a readback (GCAPTURE, FAR, FDRO header,
/// pipelining pad) per PRR row — mirrors `FAR_FDRI` plus the capture
/// command.
pub const READBACK_OVERHEAD_WORDS: u64 = 8;

/// Extra command words for a restore (GRESTORE sequencing) on top of the
/// ordinary partial-write framing.
pub const RESTORE_OVERHEAD_WORDS: u64 = 6;

/// Word-level decomposition of a hardware-task context switch: the
/// readback (save) and write-back (restore) of one PRR's configuration
/// state, per the authors' companion context save/restore machinery
/// (\[5\] FCCM'13, \[6\] ARC'13). Built on the same Eq. 19–23 frame
/// geometry as [`BitstreamBreakdown`]; the `bitstream` crate's
/// `readback` module wraps this with ICAP time pricing. Preemption-aware
/// relocation of a *running* module pays these bytes on top of the plain
/// Eq. 18 bitstream write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextBreakdown {
    /// Words read back on save (whole-PRR capture).
    pub save_words: u64,
    /// Words written on restore (partial write plus `GRESTORE` framing).
    pub restore_words: u64,
    /// Bytes per configuration word.
    pub bytes_per_word: u64,
}

impl ContextBreakdown {
    /// Bytes transferred by a save.
    pub fn save_bytes(&self) -> u64 {
        self.save_words * self.bytes_per_word
    }

    /// Bytes transferred by a restore.
    pub fn restore_bytes(&self) -> u64 {
        self.restore_words * self.bytes_per_word
    }

    /// Save + restore bytes: what relocating a running module pays
    /// through the configuration port on top of the Eq. 18 write.
    pub fn total_bytes(&self) -> u64 {
        self.save_bytes() + self.restore_bytes()
    }
}

/// Context save/restore word counts for a PRR organization.
///
/// Readback returns one pipelining pad frame before the payload (like the
/// write path's pad), so the frame counts match the Eq. 19/23 terms; the
/// command overhead differs (`GCAPTURE`/`FDRO` vs `FAR_FDRI`).
pub fn context_breakdown(org: &PrrOrganization) -> ContextBreakdown {
    let b = breakdown(org);
    let g = &org.family.params().frames;
    let far_fdri = u64::from(g.far_fdri);

    // Frame payload words per row, write-path framing removed.
    let config_payload = b.config_words_per_row - far_fdri;
    let bram_payload = if b.bram_words_per_row > 0 {
        b.bram_words_per_row - far_fdri
    } else {
        0
    };

    let rows = b.rows;
    let save_words = rows * (READBACK_OVERHEAD_WORDS + config_payload + bram_payload)
        + u64::from(g.iw)
        + u64::from(g.fw);
    let restore_words = b.total_words() + rows * RESTORE_OVERHEAD_WORDS;

    ContextBreakdown {
        save_words,
        restore_words,
        bytes_per_word: b.bytes_per_word,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Family;

    fn org(family: Family, h: u32, clb: u32, dsp: u32, bram: u32) -> PrrOrganization {
        PrrOrganization {
            family,
            height: h,
            clb_cols: clb,
            dsp_cols: dsp,
            bram_cols: bram,
        }
    }

    /// Hand-computed Eq. 18 for the paper's FIR/Virtex-5 PRR
    /// (H=5, W_CLB=2, W_DSP=1):
    /// NCW_row = 5 + (72 + 28 + 0 + 1)*41 = 4146;
    /// total = 16 + 5*4146 + 14 = 20760 words = 83 040 bytes.
    #[test]
    fn fir_v5_hand_computed() {
        let o = org(Family::Virtex5, 5, 2, 1, 0);
        let b = breakdown(&o);
        assert_eq!(b.config_words_per_row, 4146);
        assert_eq!(b.bram_words_per_row, 0);
        assert_eq!(b.total_words(), 20760);
        assert_eq!(bitstream_size_bytes(&o), 83_040);
    }

    /// MIPS/Virtex-5 (H=1, W_CLB=17, W_DSP=1, W_BRAM=2):
    /// NCW_row = 5 + (612 + 28 + 60 + 1)*41 = 28 746;
    /// NDW_BRAM = 5 + (2*128 + 1)*41 = 10 542;
    /// total = 16 + 39 288 + 14 = 39 318 words = 157 272 bytes.
    #[test]
    fn mips_v5_hand_computed() {
        let o = org(Family::Virtex5, 1, 17, 1, 2);
        let b = breakdown(&o);
        assert_eq!(b.config_words_per_row, 28_746);
        assert_eq!(b.bram_words_per_row, 10_542);
        assert_eq!(bitstream_size_bytes(&o), 157_272);
    }

    /// Virtex-6 frames are 81 words: SDRAM/V6 (H=1, W_CLB=2):
    /// NCW_row = 5 + (72+1)*81 = 5918; total = 16+5918+14 = 5948 words.
    #[test]
    fn sdram_v6_hand_computed() {
        let o = org(Family::Virtex6, 1, 2, 0, 0);
        assert_eq!(bitstream_size_bytes(&o), 5948 * 4);
    }

    #[test]
    fn bram_init_words_only_with_bram_columns() {
        let without = org(Family::Virtex5, 2, 4, 0, 0);
        let with = org(Family::Virtex5, 2, 4, 0, 1);
        assert_eq!(breakdown(&without).bram_words_per_row, 0);
        let expected = 5 + (128 + 1) * 41;
        assert_eq!(breakdown(&with).bram_words_per_row, expected);
        assert!(bitstream_size_bytes(&with) > bitstream_size_bytes(&without));
    }

    #[test]
    fn size_scales_linearly_in_height() {
        let h1 = bitstream_size_bytes(&org(Family::Virtex5, 1, 3, 0, 0));
        let h2 = bitstream_size_bytes(&org(Family::Virtex5, 2, 3, 0, 0));
        let h3 = bitstream_size_bytes(&org(Family::Virtex5, 3, 3, 0, 0));
        assert_eq!(h3 - h2, h2 - h1, "per-row cost is constant");
    }

    /// Context bytes are strictly positive for any non-empty PRR, so a
    /// preemption-aware move (write + save + restore) always costs more
    /// bytes than the plain Eq. 18 write.
    #[test]
    fn context_switch_always_adds_bytes() {
        for (h, clb, dsp, bram) in [(1, 1, 0, 0), (2, 4, 1, 0), (3, 6, 1, 2)] {
            let o = org(Family::Virtex5, h, clb, dsp, bram);
            let ctx = context_breakdown(&o);
            assert!(ctx.save_bytes() > 0);
            assert!(ctx.restore_bytes() > bitstream_size_bytes(&o));
            assert_eq!(ctx.total_bytes(), ctx.save_bytes() + ctx.restore_bytes());
        }
    }

    #[test]
    fn family_portability_changes_only_constants() {
        // Same organization on Virtex-5 vs Virtex-6 differs because
        // FR_size (41 vs 81) and CF_BRAM (30 vs 28) differ.
        let v5 = bitstream_size_bytes(&org(Family::Virtex5, 1, 4, 1, 1));
        let v6 = bitstream_size_bytes(&org(Family::Virtex6, 1, 4, 1, 1));
        assert!(v6 > v5, "81-word Virtex-6 frames dominate");
    }
}
