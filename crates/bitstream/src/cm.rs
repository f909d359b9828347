//! Configuration-memory (CM) and configuration-port model.
//!
//! The paper (§III.A): "A frame is the minimum unit of information used to
//! configure/read the FFs' stored values and BRAMs in the device's
//! configuration memory (CM)." This module models that machinery: a
//! [`ConfigPort`] consumes a bitstream word stream exactly like the
//! device's configuration logic — synchronization, packet decoding,
//! FAR/FDRI sequencing, CRC checking, desynchronization — and commits
//! frames into a [`ConfigMemory`]. Readback ([`ConfigPort::readback`])
//! returns frames FDRO-style (a pipelining pad frame first).
//!
//! This closes the loop for the bitstream substrate: a generated partial
//! bitstream, pushed through the port, configures exactly the frames the
//! Eq. 19/23 terms say it should, and reading them back returns the
//! payload bit-exactly.

use crate::crc::Crc32;
use crate::far::FrameAddress;
use crate::packet::{Command, ConfigRegister, Packet, SYNC_WORD};
use core::fmt;
use fabric::FrameGeometry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Frame storage: FAR (with incrementing minor) → frame words.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigMemory {
    frames: BTreeMap<u32, Vec<u32>>,
}

impl ConfigMemory {
    /// Number of distinct frames configured.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The frame at `far`, if configured.
    pub fn frame(&self, far: FrameAddress) -> Option<&[u32]> {
        self.frames.get(&far.encode()).map(Vec::as_slice)
    }

    /// Iterate configured frame addresses in FAR order.
    pub fn addresses(&self) -> impl Iterator<Item = FrameAddress> + '_ {
        self.frames.keys().filter_map(|&k| FrameAddress::decode(k))
    }

    fn store(&mut self, far: FrameAddress, words: Vec<u32>) {
        self.frames.insert(far.encode(), words);
    }
}

/// Port protocol errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmError {
    /// A packet word arrived before synchronization.
    NotSynchronized,
    /// An undecodable word arrived where a packet was expected.
    BadPacket {
        /// The offending word.
        word: u32,
    },
    /// An FDRI write arrived with no FAR set.
    NoFar,
    /// FDRI payload was not a whole number of frames.
    PartialFrame {
        /// Leftover words.
        leftover: u32,
    },
    /// The CRC check word did not match the accumulated value.
    CrcMismatch {
        /// Stated CRC.
        stated: u32,
        /// Accumulated CRC.
        computed: u32,
    },
}

impl fmt::Display for CmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmError::NotSynchronized => write!(f, "configuration word before SYNC"),
            CmError::BadPacket { word } => write!(f, "undecodable packet word {word:#010x}"),
            CmError::NoFar => write!(f, "FDRI write without a frame address"),
            CmError::PartialFrame { leftover } => {
                write!(f, "FDRI payload left {leftover} words (not a whole frame)")
            }
            CmError::CrcMismatch { stated, computed } => {
                write!(
                    f,
                    "CRC mismatch: stated {stated:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for CmError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortState {
    /// Waiting for the SYNC word.
    Unsynced,
    /// Decoding packet headers.
    Idle,
    /// Consuming `remaining` payload words for `register`.
    Payload {
        register: ConfigRegister,
        remaining: u32,
    },
    /// Waiting for the Type-2 word count after `FDRI x0`.
    AwaitType2,
    /// Consuming FDRI frame payload.
    FrameData { remaining: u32 },
    /// Desynchronized (terminal).
    Done,
}

/// The configuration port: a word-at-a-time state machine over the packet
/// grammar, committing frames to a [`ConfigMemory`].
#[derive(Debug, Clone)]
pub struct ConfigPort {
    geometry: FrameGeometry,
    state: PortState,
    memory: ConfigMemory,
    far: Option<FrameAddress>,
    crc: Crc32,
    buffer: Vec<u32>,
    commands: Vec<Command>,
    idcode: Option<u32>,
}

impl ConfigPort {
    /// A fresh, unsynchronized port for a family's frame geometry.
    pub fn new(geometry: FrameGeometry) -> Self {
        ConfigPort {
            geometry,
            state: PortState::Unsynced,
            memory: ConfigMemory::default(),
            far: None,
            crc: Crc32::new(),
            buffer: Vec::new(),
            commands: Vec::new(),
            idcode: None,
        }
    }

    /// The configured memory.
    pub fn memory(&self) -> &ConfigMemory {
        &self.memory
    }

    /// Commands executed so far.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// IDCODE asserted by the stream.
    pub fn idcode(&self) -> Option<u32> {
        self.idcode
    }

    /// Drive one configuration word into the port.
    pub fn push_word(&mut self, word: u32) -> Result<(), CmError> {
        match self.state {
            PortState::Done => Ok(()), // words after desync are ignored
            PortState::Unsynced => {
                if word == SYNC_WORD {
                    self.state = PortState::Idle;
                }
                Ok(())
            }
            PortState::Idle => self.decode_header(word),
            PortState::AwaitType2 => match Packet::decode(word) {
                Some(Packet::Type2Write { word_count }) => {
                    self.state = PortState::FrameData {
                        remaining: word_count,
                    };
                    Ok(())
                }
                Some(Packet::Noop) => Ok(()), // pad between header and count
                _ => Err(CmError::BadPacket { word }),
            },
            PortState::Payload {
                register,
                remaining,
            } => {
                self.consume_payload(register, word)?;
                // DESYNC inside the payload terminates the port; don't
                // clobber that terminal state.
                if self.state != PortState::Done {
                    self.state = if remaining > 1 {
                        PortState::Payload {
                            register,
                            remaining: remaining - 1,
                        }
                    } else {
                        PortState::Idle
                    };
                }
                Ok(())
            }
            PortState::FrameData { remaining } => {
                // Writer emits one pad NOOP between the Type-2 header and
                // the payload; swallow it before counting payload words.
                if self.buffer.is_empty() && word == Packet::Noop.encode() {
                    return Ok(());
                }
                self.crc.push_word(word);
                self.buffer.push(word);
                if remaining > 1 {
                    self.state = PortState::FrameData {
                        remaining: remaining - 1,
                    };
                    Ok(())
                } else {
                    self.state = PortState::Idle;
                    self.commit_frames()
                }
            }
        }
    }

    fn decode_header(&mut self, word: u32) -> Result<(), CmError> {
        match Packet::decode(word) {
            Some(Packet::Noop) => Ok(()),
            Some(Packet::Type1Write {
                register,
                word_count,
            }) => {
                if register == ConfigRegister::Fdri && word_count == 0 {
                    self.state = PortState::AwaitType2;
                } else if word_count > 0 {
                    self.state = PortState::Payload {
                        register,
                        remaining: word_count,
                    };
                }
                Ok(())
            }
            Some(Packet::Type2Write { .. }) | None => Err(CmError::BadPacket { word }),
        }
    }

    fn consume_payload(&mut self, register: ConfigRegister, word: u32) -> Result<(), CmError> {
        match register {
            ConfigRegister::Far => {
                self.far = FrameAddress::decode(word);
                Ok(())
            }
            ConfigRegister::Idcode => {
                self.idcode = Some(word);
                Ok(())
            }
            ConfigRegister::Cmd => {
                if let Some(cmd) = Command::from_code(word) {
                    if cmd == Command::Desync {
                        self.state = PortState::Done;
                    }
                    if cmd == Command::Rcrc {
                        self.crc = Crc32::new();
                    }
                    self.commands.push(cmd);
                }
                Ok(())
            }
            ConfigRegister::Crc => {
                let computed = self.crc.value();
                if word != computed {
                    return Err(CmError::CrcMismatch {
                        stated: word,
                        computed,
                    });
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Commit the buffered FDRI payload as frames starting at the current
    /// FAR; the final frame is the pipelining pad and is discarded, as on
    /// real devices.
    fn commit_frames(&mut self) -> Result<(), CmError> {
        let Some(base) = self.far else {
            self.buffer.clear();
            return Err(CmError::NoFar);
        };
        let fr = self.geometry.fr_size;
        let total = self.buffer.len() as u32;
        if !total.is_multiple_of(fr) {
            self.buffer.clear();
            return Err(CmError::PartialFrame {
                leftover: total % fr,
            });
        }
        let n_frames = total / fr;
        // Last frame = pad, discarded.
        for i in 0..n_frames.saturating_sub(1) {
            let start = (i * fr) as usize;
            let frame = self.buffer[start..start + fr as usize].to_vec();
            let far = FrameAddress {
                minor: base.minor + (i % 64),
                column: base.column + (base.minor + i) / 64,
                ..base
            };
            self.memory.store(far, frame);
        }
        self.buffer.clear();
        Ok(())
    }

    /// FDRO-style readback of `n_frames` frames starting at `far`: one pad
    /// frame of zeros first (pipeline priming), then the stored frames
    /// (unconfigured frames read as zeros).
    pub fn readback(&self, far: FrameAddress, n_frames: u32) -> Vec<u32> {
        let fr = self.geometry.fr_size as usize;
        let mut out = vec![0u32; fr]; // pad frame
        for i in 0..n_frames {
            let addr = FrameAddress {
                minor: far.minor + (i % 64),
                column: far.column + (far.minor + i) / 64,
                ..far
            };
            match self.memory.frame(addr) {
                Some(frame) => out.extend_from_slice(frame),
                None => out.extend(std::iter::repeat_n(0u32, fr)),
            }
        }
        out
    }
}

/// Push an entire word stream through a fresh port.
pub fn load_bitstream(geometry: FrameGeometry, words: &[u32]) -> Result<ConfigPort, CmError> {
    let mut port = ConfigPort::new(geometry);
    for &w in words {
        port.push_word(w)?;
    }
    Ok(port)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{generate, BitstreamSpec};
    use fabric::database::xc5vlx110t;
    use fabric::Family;
    use prcost::search::plan_prr;
    use synth::PaperPrm;

    fn loaded(prm: PaperPrm) -> (ConfigPort, crate::writer::PartialBitstream) {
        let device = xc5vlx110t();
        let plan = plan_prr(&prm.synth_report(Family::Virtex5), &device).unwrap();
        let spec = BitstreamSpec::from_plan(
            device.name(),
            prm.module_name(),
            plan.organization,
            &plan.window,
        );
        let bs = generate(&spec).unwrap();
        let port = load_bitstream(device.params().frames, &bs.words).unwrap();
        (port, bs)
    }

    #[test]
    fn loading_configures_the_expected_frame_count() {
        let (port, bs) = loaded(PaperPrm::Mips);
        let org = &bs.spec.organization;
        let g = &org.family.params().frames;
        // Per row: all column config frames (pad discarded) + BRAM frames.
        let config = u64::from(org.clb_cols * g.cf_clb + g.cf_dsp + org.bram_cols * g.cf_bram);
        let bram = u64::from(org.bram_cols * g.df_bram);
        let expected = u64::from(org.height) * (config + bram);
        assert_eq!(port.memory().frame_count() as u64, expected);
        assert_eq!(port.state, PortState::Done);
        assert!(port.commands().contains(&Command::Wcfg));
    }

    #[test]
    fn readback_returns_written_payload() {
        let (port, bs) = loaded(PaperPrm::Sdram);
        // First configured frame address.
        let far = port.memory().addresses().next().unwrap();
        let rb = port.readback(far, 2);
        let fr = bs.spec.organization.family.params().frames.fr_size as usize;
        assert_eq!(rb.len(), 3 * fr, "pad + 2 frames");
        assert!(rb[..fr].iter().all(|&w| w == 0), "pad frame is zeros");
        assert_eq!(&rb[fr..2 * fr], port.memory().frame(far).unwrap());
    }

    #[test]
    fn reloading_a_different_module_overwrites_frames() {
        let device = xc5vlx110t();
        let plan = plan_prr(&PaperPrm::Sdram.synth_report(Family::Virtex5), &device).unwrap();
        let mk = |module: &str| {
            let spec =
                BitstreamSpec::from_plan(device.name(), module, plan.organization, &plan.window);
            generate(&spec).unwrap()
        };
        let a = mk("module_a");
        let b = mk("module_b");
        let mut port = ConfigPort::new(device.params().frames);
        for &w in &a.words {
            port.push_word(w).unwrap();
        }
        let far = port.memory().addresses().next().unwrap();
        let frame_a = port.memory().frame(far).unwrap().to_vec();
        // Ports desync after one stream; push the second through a fresh
        // sync (real systems re-sync the ICAP per bitstream).
        let mut port2 = ConfigPort::new(device.params().frames);
        for &w in &b.words {
            port2.push_word(w).unwrap();
        }
        let frame_b = port2.memory().frame(far).unwrap().to_vec();
        assert_ne!(
            frame_a, frame_b,
            "different modules configure different bits"
        );
        assert_eq!(port.memory().frame_count(), port2.memory().frame_count());
    }

    #[test]
    fn corrupted_stream_is_rejected_at_the_crc() {
        let (_, mut bs) = loaded(PaperPrm::Fir);
        bs.words[50] ^= 4; // inside the first FDRI payload
        let device = xc5vlx110t();
        let err = load_bitstream(device.params().frames, &bs.words).unwrap_err();
        assert!(matches!(err, CmError::CrcMismatch { .. }), "{err:?}");
    }

    #[test]
    fn words_before_sync_are_ignored() {
        let device = xc5vlx110t();
        let mut port = ConfigPort::new(device.params().frames);
        port.push_word(0xDEAD_BEEF).unwrap();
        port.push_word(0xFFFF_FFFF).unwrap();
        assert_ne!(port.state, PortState::Done);
        assert_eq!(port.memory().frame_count(), 0);
    }

    #[test]
    fn fdri_without_far_errors() {
        let device = xc5vlx110t();
        let mut port = ConfigPort::new(device.params().frames);
        port.push_word(SYNC_WORD).unwrap();
        port.push_word(
            Packet::Type1Write {
                register: ConfigRegister::Fdri,
                word_count: 0,
            }
            .encode(),
        )
        .unwrap();
        let fr = device.params().frames.fr_size;
        port.push_word(Packet::Type2Write { word_count: fr }.encode())
            .unwrap();
        let mut result = Ok(());
        for i in 0..fr {
            result = port.push_word(i);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result, Err(CmError::NoFar));
    }
}
