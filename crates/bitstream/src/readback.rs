//! Configuration readback and hardware-task context save/restore.
//!
//! The paper's authors' companion work (\[5\] "On-chip context save and
//! restore of hardware tasks", FCCM'13; \[6\] "HTR: on-chip hardware task
//! relocation", ARC'13) preempts running PRMs by reading their state out
//! through the configuration plane (FDRO), reconfiguring the PRR, and
//! later writing the state back (with `GCAPTURE`/`GRESTORE` bracketing).
//! This module models that machinery on top of the same frame geometry as
//! the Eq. 18 model:
//!
//! * a *context save* reads every configuration frame of the PRR (the FF
//!   capture values live in the CLB frames) plus the BRAM content frames;
//! * a *context restore* is a partial-bitstream write of the same frames
//!   plus the `GRESTORE` command sequence;
//! * task *relocation* = save from one PRR + restore into a compatible
//!   PRR (same organization).

use crate::icap::IcapModel;
use prcost::PrrOrganization;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Cost model for context save/restore of one PRR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextCost {
    /// Words read back on save (per whole-PRR capture).
    pub save_words: u64,
    /// Words written on restore.
    pub restore_words: u64,
    /// Bytes per configuration word.
    pub bytes_per_word: u64,
}

impl ContextCost {
    /// Bytes transferred by a save.
    pub fn save_bytes(&self) -> u64 {
        self.save_words * self.bytes_per_word
    }

    /// Bytes transferred by a restore.
    pub fn restore_bytes(&self) -> u64 {
        self.restore_words * self.bytes_per_word
    }

    /// Save time through `icap`.
    pub fn save_time(&self, icap: &IcapModel) -> Duration {
        icap.transfer_time(self.save_bytes())
    }

    /// Restore time through `icap`.
    pub fn restore_time(&self, icap: &IcapModel) -> Duration {
        icap.transfer_time(self.restore_bytes())
    }
}

/// Context-transfer cost for a PRR organization.
///
/// The word counts come from [`prcost::context_breakdown`] — the byte
/// model lives beside the Eq. 18–23 model in `prcost::bits`; this wrapper
/// adds ICAP time pricing (readback returns one pipelining pad frame
/// before the payload, so the frame counts match the Eq. 19/23 terms; the
/// command overhead differs: `GCAPTURE`/`FDRO` vs `FAR_FDRI`).
pub fn context_cost(org: &PrrOrganization) -> ContextCost {
    let b = prcost::context_breakdown(org);
    ContextCost {
        save_words: b.save_words,
        restore_words: b.restore_words,
        bytes_per_word: b.bytes_per_word,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Family;

    fn org(h: u32, clb: u32, dsp: u32, bram: u32) -> PrrOrganization {
        PrrOrganization {
            family: Family::Virtex5,
            height: h,
            clb_cols: clb,
            dsp_cols: dsp,
            bram_cols: bram,
        }
    }

    #[test]
    fn save_and_restore_scale_with_prr() {
        let small = context_cost(&org(1, 2, 0, 0));
        let big = context_cost(&org(4, 8, 1, 2));
        assert!(big.save_bytes() > small.save_bytes());
        assert!(big.restore_bytes() > small.restore_bytes());
    }

    #[test]
    fn restore_costs_slightly_more_than_a_plain_write() {
        let o = org(2, 4, 1, 1);
        let plain = prcost::bitstream_size_bytes(&o);
        let ctx = context_cost(&o);
        assert!(ctx.restore_bytes() > plain);
        assert!(
            ctx.restore_bytes() < plain + 100,
            "only command overhead on top"
        );
    }

    #[test]
    fn save_is_cheaper_than_restore() {
        // Readback skips the FAR_FDRI-heavy write framing per row but pays
        // its own capture overhead; for BRAM-less PRRs the two are close,
        // with restore >= save.
        let o = org(3, 6, 1, 0);
        let ctx = context_cost(&o);
        assert!(ctx.save_bytes() <= ctx.restore_bytes());
    }

    #[test]
    fn spartan6_uses_two_byte_words() {
        let o = PrrOrganization {
            family: Family::Spartan6,
            height: 1,
            clb_cols: 4,
            dsp_cols: 0,
            bram_cols: 1,
        };
        assert_eq!(context_cost(&o).bytes_per_word, 2);
    }
}
