//! Partial bitstream relocation (HTR, the authors' ARC'13 system).
//!
//! Hardware task relocation moves a PRM between *compatible* PRRs — same
//! height and the same left-to-right column-kind sequence — by rewriting
//! the frame addresses in its partial bitstream; the frame payload (and
//! therefore the CRC, which covers only payload) is reused unchanged.
//! Vertical relocation is the common case on Virtex-5-class fabrics,
//! where every fabric row has identical column structure.
//!
//! [`relocate`] walks the stream once with [`parse_words`] and rewrites
//! exactly the FAR values the parser found, so a payload word that happens
//! to look like a FAR-write header is never touched: the output differs
//! from the input in FAR values only, and its CRC still holds.

use crate::far::FrameAddress;
use crate::parser::{parse_words, ParseError};
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
    /// The stream does not parse, CRC included.
    Parse(ParseError),
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
            RelocateError::Parse(e) => write!(f, "bitstream does not parse: {e}"),
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
/// rewriting every FAR value in place. The payload — and hence the CRC —
/// is byte-identical; only addressing changes. A stream that
/// [`parse_words`] rejects with strict CRC checking is an error.
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
    // The columns list is what gets rewritten, so it bounds the target.
    let end_col = target.start_col.checked_add(target.columns.len());
    if end_col.is_none_or(|end| end > device.width())
        || device.check_row_span(target.row, target.height).is_err()
    {
        return Err(RelocateError::OutOfBounds);
    }

    let parsed = parse_words(&bs.words, true).map_err(RelocateError::Parse)?;
    let mut words = bs.words.clone();
    for write in &parsed.far_writes {
        let far = write.far;
        // Offsets into the source window; the target has its shape, and
        // the device bounds every address in it to the FAR fields.
        let row = far
            .row
            .checked_sub(source.row)
            .filter(|&r| r < source.height);
        let column = (far.column as usize)
            .checked_sub(source.start_col)
            .filter(|&c| c < source.columns.len());
        let (Some(row), Some(column)) = (row, column) else {
            return Err(RelocateError::ForeignFrameAddress { far });
        };
        let moved = FrameAddress {
            row: target.row + row,
            column: (target.start_col + column) as u32,
            ..far
        };
        words[write.offset as usize] = moved.encode();
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
    use crate::writer::{generate, BitstreamSpec};
    use fabric::database::xc5vlx110t;
    use fabric::Family;
    use prcost::search::plan_prr;
    use std::collections::BTreeMap;
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

    /// Every configured frame's payload, keyed by its FAR moved up
    /// `rows_up` rows and its index within the write, read through the
    /// parser's payload offsets.
    fn frames_at(words: &[u32], fr_size: u32, rows_up: u32) -> BTreeMap<(u32, usize), &[u32]> {
        let parsed = parse_words(words, true).unwrap();
        let mut frames = BTreeMap::new();
        for w in &parsed.frame_writes {
            let far = FrameAddress {
                row: w.far.row + rows_up,
                ..w.far
            };
            let payload = &words[w.offset as usize..][..w.words as usize];
            for (k, frame) in payload.chunks(fr_size as usize).enumerate() {
                frames.insert((far.encode(), k), frame);
            }
        }
        frames
    }

    #[test]
    fn vertical_relocation_preserves_payload_and_crc() {
        let (device, bs) = mips_stream();
        let target = shifted(&bs, 4);
        let moved = relocate(&bs, &device, &target).unwrap();

        // Same length; exactly the FAR values change.
        assert_eq!(moved.words.len(), bs.words.len());
        let diffs: Vec<u32> = (0..bs.words.len() as u32)
            .filter(|&i| bs.words[i as usize] != moved.words[i as usize])
            .collect();
        let fars: Vec<u32> = parse_words(&bs.words, true)
            .unwrap()
            .far_writes
            .iter()
            .map(|w| w.offset)
            .collect();
        // One FAR value per config row + per BRAM row = 2 rows here.
        assert_eq!(fars.len(), 2);
        assert_eq!(diffs, fars, "exactly the FAR values change");

        // Both streams parse with their CRC intact and carry identical
        // frame contents at row-shifted addresses.
        let fr_size = device.params().frames.fr_size;
        let before = frames_at(&bs.words, fr_size, 4);
        let after = frames_at(&moved.words, fr_size, 0);
        let org = &bs.spec.organization;
        let g = &org.family.params().frames;
        // Per row: every column's config frames and the BRAM content
        // frames (MIPS has BRAM), each write with its pipelining pad frame.
        let config = org.clb_cols * g.cf_clb + org.dsp_cols * g.cf_dsp + org.bram_cols * g.cf_bram;
        let per_row = config + 1 + org.bram_cols * g.df_bram + 1;
        assert_eq!(before.len(), (org.height * per_row) as usize);
        assert_eq!(before, after, "every frame moved intact");
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
