//! Partial bitstream relocation (HTR, the authors' ARC'13 system).
//!
//! Hardware task relocation moves a PRM between *compatible* PRRs — same
//! height and the same left-to-right column-kind sequence — by rewriting
//! the frame addresses in its partial bitstream; the frame payload (and
//! therefore the CRC, which covers only payload) is reused unchanged.
//! Vertical relocation is the common case on Virtex-5-class fabrics,
//! where every fabric row has identical column structure.

use crate::far::FrameAddress;
use crate::packet::{ConfigRegister, Packet};
use crate::writer::PartialBitstream;
use core::fmt;
use fabric::{Device, Window};

/// Relocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocateError {
    /// Source and target windows have different shapes or column mixes.
    Incompatible {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The target window does not fit the device.
    OutOfBounds,
    /// The stream contains a FAR outside the source window.
    ForeignFrameAddress {
        /// The offending address.
        far: FrameAddress,
    },
}

impl fmt::Display for RelocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelocateError::Incompatible { reason } => {
                write!(f, "windows are not relocation-compatible: {reason}")
            }
            RelocateError::OutOfBounds => write!(f, "target window exceeds the device"),
            RelocateError::ForeignFrameAddress { far } => {
                write!(f, "bitstream addresses a frame outside its PRR: {far:?}")
            }
        }
    }
}

impl std::error::Error for RelocateError {}

/// Whether a PRM configured for `source` can be relocated into `target`:
/// identical height and identical column-kind sequence (HTR's
/// compatibility condition).
pub fn compatible(source: &Window, target: &Window) -> bool {
    source.height == target.height && source.columns == target.columns
}

/// Relocate `bs` from its recorded window to `target` on `device`,
/// rewriting every FAR write in place. The payload — and hence the CRC —
/// is byte-identical; only addressing changes.
///
/// ```
/// use bitstream::{generate, relocate, BitstreamSpec};
/// use fabric::database::xc5vlx110t;
/// use synth::PaperPrm;
///
/// let device = xc5vlx110t();
/// let plan = prcost::plan_prr(&PaperPrm::Sdram.synth_report(device.family()), &device).unwrap();
/// let spec = BitstreamSpec::from_plan(device.name(), "sdram", plan.organization, &plan.window);
/// let bs = generate(&spec).unwrap();
/// // Move the PRM up one fabric row (vertical relocation, HTR-style).
/// let mut target = plan.window.clone();
/// target.row += 1;
/// let moved = relocate(&bs, &device, &target).unwrap();
/// assert_eq!(moved.words.len(), bs.words.len());
/// ```
pub fn relocate(
    bs: &PartialBitstream,
    device: &Device,
    target: &Window,
) -> Result<PartialBitstream, RelocateError> {
    let source = Window {
        start_col: bs.spec.start_col as usize,
        width: bs.spec.columns.len() as u32,
        row: bs.spec.start_row,
        height: bs.spec.organization.height,
        columns: bs.spec.columns.clone(),
    };
    if !compatible(&source, target) {
        let reason = if source.height != target.height {
            "heights differ"
        } else {
            "column-kind sequences differ"
        };
        return Err(RelocateError::Incompatible { reason });
    }
    if target.end_col() > device.width()
        || device.check_row_span(target.row, target.height).is_err()
    {
        return Err(RelocateError::OutOfBounds);
    }

    let col_delta = target.start_col as i64 - source.start_col as i64;
    let row_delta = i64::from(target.row) - i64::from(source.row);

    let mut words = bs.words.clone();
    let far_header = Packet::Type1Write {
        register: ConfigRegister::Far,
        word_count: 1,
    }
    .encode();
    let mut i = 0;
    while i + 1 < words.len() {
        if words[i] == far_header {
            let Some(far) = FrameAddress::decode(words[i + 1]) else {
                i += 1;
                continue;
            };
            let in_cols = (far.column as i64) >= source.start_col as i64
                && (far.column as i64) < source.end_col() as i64 + 16; // minor spill margin
            let in_rows = far.row >= source.row && far.row <= source.top_row();
            if !(in_cols && in_rows) {
                return Err(RelocateError::ForeignFrameAddress { far });
            }
            let moved = FrameAddress {
                row: (i64::from(far.row) + row_delta) as u32,
                column: (i64::from(far.column) + col_delta) as u32,
                ..far
            };
            words[i + 1] = moved.encode();
            i += 2;
        } else {
            i += 1;
        }
    }

    let mut spec = (*bs.spec).clone();
    spec.start_col = target.start_col as u32;
    spec.start_row = target.row;
    Ok(PartialBitstream {
        spec: std::sync::Arc::new(spec),
        words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::load_bitstream;
    use crate::writer::{generate, BitstreamSpec};
    use fabric::database::xc5vlx110t;
    use fabric::Family;
    use prcost::search::plan_prr;
    use synth::PaperPrm;

    fn mips_stream() -> (fabric::Device, PartialBitstream) {
        let device = xc5vlx110t();
        let plan = plan_prr(&PaperPrm::Mips.synth_report(Family::Virtex5), &device).unwrap();
        let spec =
            BitstreamSpec::from_plan(device.name(), "mips_r3000", plan.organization, &plan.window);
        (device.clone(), generate(&spec).unwrap())
    }

    fn shifted(bs: &PartialBitstream, rows_up: u32) -> Window {
        Window {
            start_col: bs.spec.start_col as usize,
            width: bs.spec.columns.len() as u32,
            row: bs.spec.start_row + rows_up,
            height: bs.spec.organization.height,
            columns: bs.spec.columns.clone(),
        }
    }

    #[test]
    fn vertical_relocation_preserves_payload_and_crc() {
        let (device, bs) = mips_stream();
        let target = shifted(&bs, 4);
        let moved = relocate(&bs, &device, &target).unwrap();

        // Same length; only FAR words differ.
        assert_eq!(moved.words.len(), bs.words.len());
        let diffs = bs
            .words
            .iter()
            .zip(&moved.words)
            .filter(|(a, b)| a != b)
            .count();
        // One FAR value per config row + per BRAM row = 2 rows here.
        assert_eq!(diffs, 2, "exactly the FAR values change");

        // Both streams load successfully (CRC intact) and carry identical
        // frame contents at row-shifted addresses.
        let p0 = load_bitstream(device.params().frames, &bs.words).unwrap();
        let p1 = load_bitstream(device.params().frames, &moved.words).unwrap();
        assert_eq!(p0.memory().frame_count(), p1.memory().frame_count());
        for far in p0.memory().addresses() {
            let shifted_far = FrameAddress {
                row: far.row + 4,
                ..far
            };
            assert_eq!(
                p0.memory().frame(far),
                p1.memory().frame(shifted_far),
                "frame moved intact"
            );
        }
    }

    #[test]
    fn incompatible_windows_are_rejected() {
        let (device, bs) = mips_stream();
        let mut wrong_height = shifted(&bs, 1);
        wrong_height.height += 1;
        assert!(matches!(
            relocate(&bs, &device, &wrong_height),
            Err(RelocateError::Incompatible {
                reason: "heights differ"
            })
        ));

        let mut wrong_cols = shifted(&bs, 1);
        wrong_cols.columns[0] = fabric::ResourceKind::Clb;
        wrong_cols.columns[5] = fabric::ResourceKind::Bram;
        assert!(matches!(
            relocate(&bs, &device, &wrong_cols),
            Err(RelocateError::Incompatible { .. })
        ));
    }

    #[test]
    fn out_of_bounds_target_is_rejected() {
        let (device, bs) = mips_stream();
        let target = shifted(&bs, 8); // row 9 of an 8-row device
        assert_eq!(
            relocate(&bs, &device, &target),
            Err(RelocateError::OutOfBounds)
        );
    }

    #[test]
    fn relocated_stream_can_be_relocated_back() {
        let (device, bs) = mips_stream();
        let there = relocate(&bs, &device, &shifted(&bs, 3)).unwrap();
        let back_window = shifted(&bs, 0);
        let back = relocate(&there, &device, &back_window).unwrap();
        assert_eq!(back.words, bs.words, "round-trip is the identity");
    }
}
