//! Partial bitstream parser/validator.
//!
//! Walks a word stream generated by [`crate::writer`] (or any stream with
//! the same UG191 packet grammar): synchronization, packet decoding, FDRI
//! payload attribution to frame addresses, CRC verification and
//! desynchronization. The parsed summary exposes exactly the quantities the
//! Eq. 18–23 model predicts, enabling byte-level cross-validation.

use crate::crc::Crc32;
use crate::far::{BlockType, FrameAddress};
use crate::packet::{Command, ConfigRegister, Packet, SYNC_WORD};
use core::fmt;
use serde::{Deserialize, Serialize};

/// One FDRI write: a frame address and its payload word count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameWrite {
    /// Address the write starts at.
    pub far: FrameAddress,
    /// Payload words.
    pub words: u32,
}

/// Summary of a parsed partial bitstream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParsedBitstream {
    /// Words before and including the SYNC word.
    pub sync_offset_words: u32,
    /// IDCODE the stream asserts.
    pub idcode: Option<u32>,
    /// Every FDRI write in order.
    pub frame_writes: Vec<FrameWrite>,
    /// Commands seen, in order.
    pub commands: Vec<Command>,
    /// Whether the trailing CRC matched the payload.
    pub crc_ok: bool,
    /// Total stream length in words.
    pub total_words: u32,
}

impl ParsedBitstream {
    /// Configuration-plane (block type 0) writes.
    pub fn config_writes(&self) -> impl Iterator<Item = &FrameWrite> {
        self.frame_writes
            .iter()
            .filter(|w| w.far.block == BlockType::Config)
    }

    /// Number of PRR rows configured (distinct config-write rows).
    pub fn rows_configured(&self) -> u32 {
        let mut rows: Vec<u32> = self.config_writes().map(|w| w.far.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len() as u32
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParseError {
    /// No SYNC word found.
    NoSync,
    /// A word could not be decoded as a packet where one was expected.
    UnexpectedWord {
        /// Word offset in the stream.
        offset: u32,
        /// The undecodable word.
        word: u32,
    },
    /// The stream ended inside a packet payload.
    Truncated {
        /// Word offset where the truncation was noticed.
        offset: u32,
    },
    /// The trailing CRC did not match.
    BadCrc {
        /// CRC carried by the stream.
        stated: u32,
        /// CRC recomputed over the payload.
        computed: u32,
    },
    /// The stream never desynchronized.
    NoDesync,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NoSync => write!(f, "no SYNC word (0xAA995566) in stream"),
            ParseError::UnexpectedWord { offset, word } => {
                write!(f, "undecodable packet word {word:#010x} at offset {offset}")
            }
            ParseError::Truncated { offset } => write!(f, "stream truncated at word {offset}"),
            ParseError::BadCrc { stated, computed } => {
                write!(
                    f,
                    "CRC mismatch: stream says {stated:#010x}, payload hashes to {computed:#010x}"
                )
            }
            ParseError::NoDesync => write!(f, "stream ended without a DESYNC command"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a 32-bit word stream. `strict_crc` controls whether a CRC mismatch
/// is an error or merely recorded in [`ParsedBitstream::crc_ok`].
pub fn parse_words(words: &[u32], strict_crc: bool) -> Result<ParsedBitstream, ParseError> {
    let sync_pos = words
        .iter()
        .position(|&w| w == SYNC_WORD)
        .ok_or(ParseError::NoSync)?;

    let mut idcode = None;
    let mut frame_writes = Vec::new();
    let mut commands = Vec::new();
    let mut current_far: Option<FrameAddress> = None;
    let mut crc = Crc32::new();
    let mut stated_crc: Option<u32> = None;
    let mut desynced = false;

    let mut i = sync_pos + 1;
    while i < words.len() {
        let offset = i as u32;
        let packet = Packet::decode(words[i]).ok_or(ParseError::UnexpectedWord {
            offset,
            word: words[i],
        })?;
        i += 1;
        match packet {
            Packet::Noop => {}
            Packet::Type1Write {
                register,
                word_count,
            } => {
                let count = word_count as usize;
                if i + count > words.len() {
                    return Err(ParseError::Truncated { offset });
                }
                let payload = &words[i..i + count];
                i += count;
                match register {
                    ConfigRegister::Idcode => idcode = payload.first().copied(),
                    ConfigRegister::Far => {
                        current_far = payload.first().copied().and_then(FrameAddress::decode);
                    }
                    ConfigRegister::Cmd => {
                        if let Some(cmd) = payload.first().copied().and_then(Command::from_code) {
                            if cmd == Command::Desync {
                                desynced = true;
                            }
                            commands.push(cmd);
                        }
                    }
                    ConfigRegister::Crc => stated_crc = payload.first().copied(),
                    ConfigRegister::Fdri => {
                        // Inline FDRI payload (word_count > 0) or a Type-2
                        // extension follows (word_count == 0).
                        crc.push_words(payload);
                        if let Some(far) = current_far {
                            if count > 0 {
                                frame_writes.push(FrameWrite {
                                    far,
                                    words: count as u32,
                                });
                            }
                        }
                    }
                    _ => {}
                }
                if register == ConfigRegister::Fdri && word_count == 0 {
                    // Expect a Type-2 packet with the real count.
                    if i >= words.len() {
                        return Err(ParseError::Truncated { offset });
                    }
                    let t2 = Packet::decode(words[i]).ok_or(ParseError::UnexpectedWord {
                        offset: i as u32,
                        word: words[i],
                    })?;
                    i += 1;
                    let Packet::Type2Write { word_count: big } = t2 else {
                        return Err(ParseError::UnexpectedWord {
                            offset: (i - 1) as u32,
                            word: words[i - 1],
                        });
                    };
                    // Writer emits one pad NOOP between header and payload.
                    if i < words.len() && words[i] == Packet::Noop.encode() {
                        i += 1;
                    }
                    let count = big as usize;
                    if i + count > words.len() {
                        return Err(ParseError::Truncated { offset });
                    }
                    crc.push_words(&words[i..i + count]);
                    if let Some(far) = current_far {
                        frame_writes.push(FrameWrite { far, words: big });
                    }
                    i += count;
                }
            }
            Packet::Type2Write { .. } => {
                return Err(ParseError::UnexpectedWord {
                    offset,
                    word: words[i - 1],
                });
            }
        }
        if desynced {
            break;
        }
    }

    if !desynced {
        return Err(ParseError::NoDesync);
    }
    let computed = crc.value();
    let crc_ok = stated_crc == Some(computed);
    if strict_crc && !crc_ok {
        return Err(ParseError::BadCrc {
            stated: stated_crc.unwrap_or(0),
            computed,
        });
    }

    Ok(ParsedBitstream {
        sync_offset_words: (sync_pos + 1) as u32,
        idcode,
        frame_writes,
        commands,
        crc_ok,
        total_words: words.len() as u32,
    })
}

/// Parse big-endian bytes.
pub fn parse(bytes: &[u8], strict_crc: bool) -> Result<ParsedBitstream, ParseError> {
    let words = crate::writer::PartialBitstream::words_from_bytes(bytes);
    parse_words(&words, strict_crc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NOOP;
    use crate::writer::{generate, BitstreamSpec, PartialBitstream};
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use prcost::search::plan_prr;
    use proptest::prelude::*;
    use std::ops::Range;
    use std::sync::OnceLock;
    use synth::PaperPrm;

    /// BRAM-content (block type 1) writes.
    fn bram_writes(parsed: &ParsedBitstream) -> impl Iterator<Item = &FrameWrite> {
        parsed
            .frame_writes
            .iter()
            .filter(|w| w.far.block == BlockType::BramContent)
    }

    fn stream(prm: PaperPrm, device: &fabric::Device) -> PartialBitstream {
        let plan = plan_prr(&prm.synth_report(device.family()), device).unwrap();
        let spec = BitstreamSpec::from_plan(
            device.name(),
            prm.module_name(),
            plan.organization,
            &plan.window,
        );
        generate(&spec).unwrap()
    }

    #[test]
    fn round_trip_structure() {
        let device = xc5vlx110t();
        for prm in PaperPrm::ALL {
            let bs = stream(prm, &device);
            let parsed = parse_words(&bs.words, true).unwrap();
            assert!(parsed.crc_ok);
            assert_eq!(parsed.total_words as usize, bs.words.len());
            assert_eq!(
                parsed.rows_configured(),
                bs.spec.organization.height,
                "{prm:?}: one config write per PRR row"
            );
            let bram_rows = bram_writes(&parsed).count() as u32;
            if bs.spec.organization.bram_cols > 0 {
                assert_eq!(bram_rows, bs.spec.organization.height);
            } else {
                assert_eq!(bram_rows, 0);
            }
            assert!(parsed.commands.contains(&Command::Wcfg));
            assert!(parsed.commands.last() == Some(&Command::Desync));
        }
    }

    /// Parsed per-row payload must equal the Eq. 19/23 word counts minus
    /// the FAR_FDRI header overhead.
    #[test]
    fn payload_matches_model_terms() {
        let device = xc6vlx75t();
        let bs = stream(PaperPrm::Mips, &device);
        let parsed = parse_words(&bs.words, true).unwrap();
        let b = prcost::bits::breakdown(&bs.spec.organization);
        let far_fdri = u64::from(device.params().frames.far_fdri);
        for w in parsed.config_writes() {
            assert_eq!(u64::from(w.words), b.config_words_per_row - far_fdri);
        }
        for w in bram_writes(&parsed) {
            assert_eq!(u64::from(w.words), b.bram_words_per_row - far_fdri);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let device = xc5vlx110t();
        let mut bs = stream(PaperPrm::Fir, &device);
        // Flip a payload bit (word 100 is deep inside the first FDRI
        // payload).
        bs.words[100] ^= 1;
        match parse_words(&bs.words, true) {
            Err(ParseError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
        // Lenient mode records the failure instead.
        let lenient = parse_words(&bs.words, false).unwrap();
        assert!(!lenient.crc_ok);
    }

    #[test]
    fn missing_sync_and_truncation() {
        assert_eq!(parse_words(&[0, 1, 2], true), Err(ParseError::NoSync));
        let device = xc5vlx110t();
        let bs = stream(PaperPrm::Sdram, &device);
        let cut = &bs.words[..bs.words.len() / 2];
        assert!(matches!(
            parse_words(cut, true),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn byte_level_parse() {
        let device = xc5vlx110t();
        let bs = stream(PaperPrm::Sdram, &device);
        let parsed = parse(&bs.to_bytes(), true).unwrap();
        assert!(parsed.crc_ok);
        assert!(parsed.idcode.is_some());
    }

    /// A paper PRM stream with its FDRI payload word ranges and every
    /// other (header) word offset.
    struct Sample {
        bs: PartialBitstream,
        payloads: Vec<Range<usize>>,
        headers: Vec<usize>,
    }

    impl Sample {
        /// A word offset: with `pick`, a header word, where a cut or a
        /// corruption hits the packet structure; otherwise uniform.
        fn offset(&self, pick: bool, raw: u64) -> usize {
            if pick {
                self.headers[(raw % self.headers.len() as u64) as usize]
            } else {
                (raw % self.bs.words.len() as u64) as usize
            }
        }
    }

    /// The paper PRM streams on both devices, built once for the
    /// hostile-input properties.
    fn paper_streams() -> &'static [Sample] {
        static STREAMS: OnceLock<Vec<Sample>> = OnceLock::new();
        STREAMS.get_or_init(|| {
            let mut out = Vec::new();
            for device in [xc5vlx110t(), xc6vlx75t()] {
                for prm in PaperPrm::ALL {
                    let bs = stream(prm, &device);
                    // Fig. 2 layout: the initial words, then per write a
                    // FAR_FDRI header and its payload.
                    let geom = &bs.spec.organization.family.params().frames;
                    let mut pos = geom.iw as usize;
                    let payloads: Vec<Range<usize>> = parse_words(&bs.words, true)
                        .unwrap()
                        .frame_writes
                        .iter()
                        .map(|w| {
                            let start = pos + geom.far_fdri as usize;
                            pos = start + w.words as usize;
                            start..pos
                        })
                        .collect();
                    let headers = (0..bs.words.len())
                        .filter(|i| !payloads.iter().any(|r| r.contains(i)))
                        .collect();
                    out.push(Sample {
                        bs,
                        payloads,
                        headers,
                    });
                }
            }
            out
        })
    }

    /// Words a hostile stream is built from: arbitrary words plus the
    /// SYNC word, NOOPs, Type-1 headers for any register address, Type-2
    /// headers and command codes, which steer the parser into its FAR,
    /// FDRI, command and Type-2 paths.
    fn hostile_word() -> impl Strategy<Value = u32> {
        prop_oneof![
            4 => any::<u32>(),
            1 => Just(SYNC_WORD),
            1 => Just(NOOP),
            3 => (0u32..32, prop_oneof![0u32..4, 0u32..0x800])
                .prop_map(|(reg, count)| (0b001 << 29) | (0b10 << 27) | (reg << 13) | count),
            1 => any::<u32>().prop_map(|count| (0b010 << 29) | (0b10 << 27) | (count & 0x07ff_ffff)),
            2 => 0u32..16,
        ]
    }

    proptest! {
        // Cheap cases: run many.
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Hostile word vectors parse to `Ok` or `Err`, never a panic,
        /// in both CRC modes.
        #[test]
        fn parser_survives_hostile_words(
            words in proptest::collection::vec(hostile_word(), 0..64),
            strict in any::<bool>(),
        ) {
            let _ = parse_words(&words, strict);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid stream cut short is an error until the cut keeps its
        /// DESYNC command (the fourth word from the end), and parses with
        /// a matching CRC from then on.
        #[test]
        fn parser_rejects_truncated_streams(ix in any::<usize>(), pick in any::<bool>(), raw in any::<u64>()) {
            let streams = paper_streams();
            let sample = &streams[ix % streams.len()];
            let words = &sample.bs.words;
            let len = words.len();
            // Keep the chosen word: every cut from 1 to `len`.
            let cut = sample.offset(pick, raw) + 1;
            let strict = parse_words(&words[..cut], true);
            let lenient = parse_words(&words[..cut], false);
            if cut < len - 3 {
                prop_assert!(strict.is_err(), "cut {} of {} parsed", cut, len);
                prop_assert!(lenient.is_err(), "cut {} of {} parsed leniently", cut, len);
            } else {
                prop_assert!(strict.is_ok_and(|p| p.crc_ok), "cut {} of {}", cut, len);
            }
        }

        /// One flipped bit or one replaced word anywhere parses to `Ok`
        /// or `Err`, never a panic. A flipped payload bit is a `BadCrc`
        /// in strict mode and `crc_ok == false` in lenient mode.
        #[test]
        fn parser_handles_corrupted_streams(
            ix in any::<usize>(),
            pick in any::<bool>(),
            raw in any::<u64>(),
            bit in 0u32..32,
            word in any::<u32>(),
        ) {
            let streams = paper_streams();
            let sample = &streams[ix % streams.len()];
            let bs = &sample.bs;
            let pos = sample.offset(pick, raw);
            let mut flipped = bs.words.clone();
            flipped[pos] ^= 1 << bit;
            let strict = parse_words(&flipped, true);
            let lenient = parse_words(&flipped, false);
            if sample.payloads.iter().any(|r| r.contains(&pos)) {
                prop_assert!(
                    matches!(strict, Err(ParseError::BadCrc { .. })),
                    "payload word {} bit {}: {:?}", pos, bit, strict
                );
                prop_assert_eq!(lenient.map(|p| p.crc_ok), Ok(false));
            }
            let mut replaced = bs.words.clone();
            replaced[pos] = word;
            let _ = parse_words(&replaced, true);
            let _ = parse_words(&replaced, false);
        }
    }
}
