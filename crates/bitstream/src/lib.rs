//! # `bitstream` — Virtex-style partial bitstream substrate
//!
//! The paper validates its bitstream-size cost model against the partial
//! bitstreams emitted by Xilinx bitgen. bitgen is unavailable here, so this
//! crate implements a configuration-bitstream **writer and parser** with the
//! exact structure of the paper's Fig. 2 (and of UG191 §6, which Fig. 2
//! summarizes):
//!
//! ```text
//! [ initial words: dummies, bus-width sync, SYNC, RCRC, IDCODE, WCFG ]
//! per PRR row:
//!   [ FAR write | FDRI type-1 | type-2 word count | pad ]   (FAR_FDRI words)
//!   [ (frames + 1) x FR_size configuration words ]
//!   if the PRR has BRAM columns:
//!     [ FAR write (block type 1) ... ]                      (FAR_FDRI words)
//!     [ (W_BRAM x DF_BRAM + 1) x FR_size initialization words ]
//! [ final words: CRC, LFRM, START, DESYNC ]
//! ```
//!
//! The structural constants (`IW`, `FW`, `FAR_FDRI`, `FR_size`, frames per
//! column) come from [`fabric::FrameGeometry`], so **the byte length of a
//! generated bitstream equals the `prcost::bits` model's prediction exactly**
//! — a cross-crate property test enforces this byte-for-byte over random
//! PRRs. [`parser::parse_words`] is the one reader of that grammar: the
//! structure [`dump`] and HTR relocation ([`relocate()`], which rewrites
//! exactly the FAR values it finds) both walk a stream through it. The crate also
//! provides the [`icap`] transfer model used to turn bitstream bytes into
//! reconfiguration time for the `multitask` simulator; context save and
//! restore are priced in bytes by `prcost::context_breakdown`.

// `deny` rather than `forbid`: the `arch` module's SIMD kernels carry
// narrowly-scoped `#[allow(unsafe_code)]` with per-site SAFETY comments;
// everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod crc;
pub mod dump;
pub mod far;
pub mod icap;
pub mod packet;
pub mod parser;
pub mod relocate;
pub mod writer;

pub use far::FrameAddress;
pub use icap::IcapModel;
pub use packet::{Command, ConfigRegister, Packet};
pub use parser::{parse, ParseError, ParsedBitstream};
pub use relocate::{compatible, relocate, RelocateError};
pub use writer::{
    emit_arc_into, emit_into, emit_shared, emitted_words, generate, BitstreamSpec, EmitScratch,
    PartialBitstream,
};
