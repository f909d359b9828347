//! Property and negative-path suites for `bitstream::relocate` — the
//! ground truth behind the defrag planner's "payload reused unchanged"
//! assumption in `crates/layout`.
//!
//! The round-trip property (A→B→A is the byte-for-byte identity) and the
//! FAR-only property (relocation rewrites exactly the FAR values the
//! parser finds, so every payload word and the CRC that covers them stay
//! put, even where a payload word looks like a FAR-write header) together
//! guarantee that relocating a running module is loss-free: the layout
//! manager can move modules freely and the frames that land are exactly
//! the frames that were read.

use bitstream::packet::SYNC_WORD;
use bitstream::parser::parse_words;
use bitstream::{
    generate, relocate, BitstreamSpec, ConfigRegister, FrameAddress, Packet, ParseError,
    PartialBitstream, RelocateError,
};
use fabric::database::all_devices;
use fabric::{Device, Window};
use prcost::search::plan_prr;
use proptest::prelude::*;
use std::ops::Range;
use synth::prm::GenericPrm;
use synth::{PaperPrm, PrmGenerator};

/// The one-word Type-1 FAR write header every frame address follows.
fn far_header() -> u32 {
    Packet::Type1Write {
        register: ConfigRegister::Far,
        word_count: 1,
    }
    .encode()
}

/// The one-word Type-1 CRC write header.
fn crc_header() -> u32 {
    Packet::Type1Write {
        register: ConfigRegister::Crc,
        word_count: 1,
    }
    .encode()
}

/// Plan and generate a partial bitstream for `report` on `device`, or
/// `None` when the module does not fit.
fn stream_for(
    device: &Device,
    name: &str,
    report: &synth::SynthReport,
) -> Option<(PartialBitstream, Window)> {
    let plan = plan_prr(report, device).ok()?;
    let spec = BitstreamSpec::from_plan(device.name(), name, plan.organization, &plan.window);
    Some((generate(&spec).unwrap(), plan.window))
}

/// The MIPS stream on xc5vlx110t, with its device and window.
fn mips_on_lx110t() -> (Device, PartialBitstream, Window) {
    let device = fabric::database::xc5vlx110t();
    let report = PaperPrm::Mips.synth_report(device.family());
    let (bs, window) = stream_for(&device, "mips_r3000", &report).unwrap();
    (device, bs, window)
}

/// Source window as the relocator reconstructs it from the spec.
fn source_window(bs: &PartialBitstream) -> Window {
    Window {
        start_col: bs.spec.start_col as usize,
        width: bs.spec.columns.len() as u32,
        row: bs.spec.start_row,
        height: bs.spec.organization.height,
        columns: bs.spec.columns.clone(),
    }
}

/// Assert the loss-free-relocation invariants between an original stream
/// and its relocated form: every differing word is a FAR value the parser
/// found in the original, and the relocated stream parses with its CRC
/// intact.
fn assert_only_fars_moved(original: &[u32], moved: &[u32]) {
    assert_eq!(original.len(), moved.len());
    let fars = parse_words(original, true).unwrap().far_writes;
    for (i, (a, b)) in original.iter().zip(moved).enumerate() {
        if a != b {
            assert!(
                fars.iter().any(|w| w.offset as usize == i),
                "non-FAR word {i} changed"
            );
        }
    }
    if let Err(e) = parse_words(moved, true) {
        panic!("relocated stream does not parse: {e}");
    }
}

proptest! {
    /// relocate(A→B) then relocate(B→A) is the identity on the packet
    /// stream, for paper PRMs and random generic PRMs over every database
    /// device and every in-bounds vertical shift.
    #[test]
    fn round_trip_is_identity(
        dev_idx in 0usize..4,
        module in prop_oneof![
            Just(None),
            (0u64..1u64 << 32, 64u32..2048).prop_map(Some),
        ],
        prm_idx in 0usize..3,
        shift in 1u32..8,
    ) {
        let devices = all_devices();
        let device = &devices[dev_idx % devices.len()];
        let (name, report) = match module {
            None => {
                let prm = PaperPrm::ALL[prm_idx];
                (prm.module_name().to_string(), prm.synth_report(device.family()))
            }
            Some((seed, scale)) => {
                let prm = GenericPrm::random(seed, scale);
                (prm.name.clone(), prm.synthesize(device.family()))
            }
        };
        let Some((bs, window)) = stream_for(device, &name, &report) else {
            return Ok(()); // module does not fit this device
        };
        let mut target = window.clone();
        target.row += shift;
        if device.check_row_span(target.row, target.height).is_err() {
            return Ok(()); // shift exceeds the device; nothing to test
        }

        let there = relocate(&bs, device, &target).unwrap();
        assert_only_fars_moved(&bs.words, &there.words);

        let back = relocate(&there, device, &source_window(&bs)).unwrap();
        prop_assert_eq!(&back.words, &bs.words, "A→B→A must be the identity");
        prop_assert_eq!(back.spec.start_col, bs.spec.start_col);
        prop_assert_eq!(back.spec.start_row, bs.spec.start_row);
    }
}

/// Horizontal relocation round-trips wherever the device offers a second
/// window with the identical column-kind sequence. At least one paper
/// PRM on one database device must offer such a target, so the
/// horizontal path is genuinely exercised.
#[test]
fn horizontal_round_trip_where_compatible_window_exists() {
    let mut exercised = 0usize;
    for device in all_devices() {
        for prm in PaperPrm::ALL {
            let report = prm.synth_report(device.family());
            let Some((bs, window)) = stream_for(&device, prm.module_name(), &report) else {
                continue;
            };
            let width = window.columns.len();
            for start in 0..device.width().saturating_sub(width - 1) {
                if start == window.start_col
                    || device.columns()[start..start + width] != window.columns[..]
                {
                    continue;
                }
                let mut target = window.clone();
                target.start_col = start;
                let there = relocate(&bs, &device, &target).unwrap();
                assert_only_fars_moved(&bs.words, &there.words);
                let back = relocate(&there, &device, &source_window(&bs)).unwrap();
                assert_eq!(back.words, bs.words, "horizontal A→B→A is the identity");
                exercised += 1;
                break; // one alternate start per (device, prm) is enough
            }
        }
    }
    assert!(exercised > 0, "no device offered a horizontal target");
}

/// A stream whose FAR addresses a frame outside its recorded PRR is
/// rejected with the offending address, not silently shifted.
#[test]
fn foreign_frame_address_is_reported() {
    let (device, mut bs, window) = mips_on_lx110t();
    let mut target = window.clone();
    target.row += 1;

    // Point the first FAR value at the first column right of the window,
    // then further right. (The FAR is outside the CRC, so the stream
    // still parses.)
    let i = bs.words.iter().position(|&w| w == far_header()).unwrap();
    for column in [window.end_col(), window.end_col() + 19] {
        let foreign = FrameAddress::config(window.row, column as u32, 0);
        bs.words[i + 1] = foreign.encode();
        assert_eq!(
            relocate(&bs, &device, &target),
            Err(RelocateError::ForeignFrameAddress { far: foreign })
        );
    }
}

/// A FAR below the window's row span is foreign too.
#[test]
fn foreign_row_is_reported() {
    let (device, mut bs, window) = mips_on_lx110t();

    let far = far_header();
    let i = bs.words.iter().position(|&w| w == far).unwrap();
    let foreign = FrameAddress::config(window.top_row() + 1, window.start_col as u32, 0);
    bs.words[i + 1] = foreign.encode();

    let mut target = window.clone();
    target.row += 1;
    assert_eq!(
        relocate(&bs, &device, &target),
        Err(RelocateError::ForeignFrameAddress { far: foreign })
    );
}

/// A target window that runs past the right device edge is rejected with
/// `OutOfBounds` (column direction; the row direction is covered by the
/// in-crate unit tests).
#[test]
fn target_past_right_device_edge_is_rejected() {
    let (device, bs, window) = mips_on_lx110t();

    let mut target = window.clone();
    target.start_col = device.width() - 1; // end_col lands past the edge
    assert_eq!(
        relocate(&bs, &device, &target),
        Err(RelocateError::OutOfBounds)
    );
}

/// FDRI payload word ranges of a writer-built stream, from the Fig. 2
/// layout: the initial words, then per write a FAR_FDRI header and its
/// payload.
fn payload_ranges(bs: &PartialBitstream) -> Vec<Range<usize>> {
    let geom = &bs.spec.organization.family.params().frames;
    let mut pos = geom.iw as usize;
    parse_words(&bs.words, true)
        .unwrap()
        .frame_writes
        .iter()
        .map(|w| {
            let start = pos + geom.far_fdri as usize;
            pos = start + w.words as usize;
            start..pos
        })
        .collect()
}

/// MIPS on xc5vlx110t with the payload word 100 words past the first FAR
/// value set to the FAR-write header and the word after it to
/// `lookalike(first FAR value, window)`, then the CRC re-sealed: a valid
/// stream whose payload holds what a raw word scan takes for a FAR write.
fn stream_with_far_lookalike(
    lookalike: impl FnOnce(u32, &Window) -> u32,
) -> (Device, PartialBitstream, Window) {
    let (device, mut bs, window) = mips_on_lx110t();
    let first_far = bs.words.iter().position(|&w| w == far_header()).unwrap() + 1;
    let at = first_far + 100;
    assert!(
        payload_ranges(&bs)[0].contains(&(at + 1)),
        "inside the payload"
    );
    bs.words[at] = far_header();
    bs.words[at + 1] = lookalike(bs.words[first_far], &window);

    let Err(ParseError::BadCrc { computed, .. }) = parse_words(&bs.words, true) else {
        panic!("a changed payload must break the CRC");
    };
    let crc_at = bs.words.iter().rposition(|&w| w == crc_header()).unwrap() + 1;
    bs.words[crc_at] = computed;
    assert!(
        parse_words(&bs.words, true).is_ok(),
        "re-sealed stream parses"
    );
    (device, bs, window)
}

/// Relocate a lookalike stream one row up and check that every payload
/// word stays put and the moved stream parses with strict CRC checking.
fn assert_lookalike_stays_payload(device: &Device, bs: &PartialBitstream, window: &Window) {
    let mut target = window.clone();
    target.row += 1;
    let moved = relocate(bs, device, &target).unwrap();
    for range in payload_ranges(bs) {
        let changed = range.clone().find(|&i| bs.words[i] != moved.words[i]);
        assert_eq!(changed, None, "a payload word in {range:?} changed");
    }
    assert_only_fars_moved(&bs.words, &moved.words);
}

/// A payload word that looks like a FAR-write header, followed by the
/// stream's own first FAR value, is payload: relocation leaves it alone.
#[test]
fn payload_far_lookalike_is_not_rewritten() {
    let (device, bs, window) = stream_with_far_lookalike(|first_far, _| first_far);
    assert_lookalike_stays_payload(&device, &bs, &window);
}

/// The same lookalike naming a frame two rows above the window is still
/// payload, not a foreign frame address.
#[test]
fn payload_far_lookalike_outside_the_window_is_payload() {
    let (device, bs, window) = stream_with_far_lookalike(|_, window| {
        FrameAddress::config(window.top_row() + 2, window.start_col as u32, 0).encode()
    });
    assert_lookalike_stays_payload(&device, &bs, &window);
}

/// A stream stripped of its SYNC word does not parse, so it does not
/// relocate.
#[test]
fn unsynchronized_stream_is_an_error() {
    let (device, mut bs, window) = mips_on_lx110t();
    let sync = bs.words.iter().position(|&w| w == SYNC_WORD).unwrap();
    bs.words[sync] = 0;
    let mut target = window.clone();
    target.row += 1;
    assert_eq!(
        relocate(&bs, &device, &target),
        Err(RelocateError::Parse(ParseError::NoSync))
    );
}

proptest! {
    /// A valid stream cut anywhere before its DESYNC command (the fourth
    /// word from the end) is an error, never a panic.
    #[test]
    fn truncated_stream_is_an_error(raw in any::<u64>()) {
        let (device, bs, window) = mips_on_lx110t();
        let cut = (raw % (bs.words.len() as u64 - 3)) as usize;
        let truncated = PartialBitstream {
            spec: bs.spec.clone(),
            words: bs.words[..cut].to_vec(),
        };
        let mut target = window.clone();
        target.row += 1;
        let result = relocate(&truncated, &device, &target);
        prop_assert!(
            matches!(result, Err(RelocateError::Parse(_))),
            "cut {} of {}: {:?}", cut, bs.words.len(), result.map(|_| ())
        );
    }
}
