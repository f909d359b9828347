//! Partial bitstream generation (the bitgen substitute).
//!
//! Emission is arena-style: [`emitted_words`] predicts the exact output
//! length so every stream is written into a single exact-size
//! allocation (no per-word `Vec` growth), and the invariant header
//! packets and string hashes are derived once per rendered stream into
//! a stack-held template. Each FDRI block's payload is filled and
//! checksummed in one pass: a counter-based (loop-carry-free,
//! vectorizable) splitmix64 fill and the in-stream CRC go through one
//! dispatched [`crate::arch`] call, which on AVX-512 hosts folds each
//! generated vector into the CRC before it leaves registers. A recycled
//! output buffer is not zeroed first: every word of it is overwritten.
//! An [`EmitScratch`] keeps a small cache of recently rendered streams,
//! each held once behind an `Arc`: [`emit_shared`] hands out that shared
//! handle, so a batch that emits the same placed module repeatedly — the
//! steady state of a hardware-multitasking system — costs one refcount
//! bump per repeat and moves no stream words. A miss renders in place,
//! into the evicted entry's buffer when no handle to it is still alive.
//! [`emit_arc_into`] copies out of the handle for callers that need
//! owned words. The first, push-based emitter is kept in
//! [`mod@reference`] as the oracle the arena path is property-tested
//! byte-identical to.

use crate::crc::Crc32;
use crate::far::FrameAddress;
use crate::packet::{
    Command, ConfigRegister, Packet, BUS_WIDTH_DETECT, BUS_WIDTH_SYNC, DUMMY_WORD, SYNC_WORD,
};
use core::fmt;
use fabric::{ResourceKind, Window};
use prcost::PrrOrganization;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything needed to emit one PRM's partial bitstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitstreamSpec {
    /// Target part name (determines the IDCODE word).
    pub device: String,
    /// PRM name (seeds the frame payload so different PRMs produce
    /// different configuration data).
    pub module: String,
    /// PRR organization (heights and per-kind column counts).
    pub organization: PrrOrganization,
    /// Leftmost device column of the PRR.
    pub start_col: u32,
    /// Bottom fabric row of the PRR (1-based).
    pub start_row: u32,
    /// The window's column kinds, left to right (must match the
    /// organization's per-kind counts and contain no IOB/CLK columns).
    pub columns: Vec<ResourceKind>,
}

impl BitstreamSpec {
    /// Build a spec from a planned organization and its placement window.
    pub fn from_plan(
        device: &str,
        module: &str,
        organization: PrrOrganization,
        window: &Window,
    ) -> Self {
        BitstreamSpec {
            device: device.to_string(),
            module: module.to_string(),
            organization,
            start_col: window.start_col as u32,
            start_row: window.row,
            columns: window.columns.clone(),
        }
    }
}

/// Errors from [`generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The window's column mix does not match the organization.
    CompositionMismatch {
        /// Expected (clb, dsp, bram) column counts.
        expected: (u32, u32, u32),
        /// Column counts found in the window.
        found: (u32, u32, u32),
    },
    /// The window contains a column kind not allowed inside PRRs.
    ForbiddenColumn(ResourceKind),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::CompositionMismatch { expected, found } => write!(
                f,
                "window columns {found:?} do not match organization {expected:?} (CLB, DSP, BRAM)"
            ),
            GenError::ForbiddenColumn(kind) => {
                write!(f, "{kind} columns are not supported inside PRRs")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// A generated partial bitstream: 32-bit words, already stripped of the
/// `.bit`-file header the paper removes before analysis ("we remove the
/// initial bytes, including the name of the *.ncd file ... resulting in a
/// 32-bit word aligned bitstream").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialBitstream {
    /// The spec this bitstream was generated from, shared rather than
    /// deep-cloned: relocation and batch pipelines hold many bitstreams
    /// of the same module, and the columns `Vec` + device/module
    /// `String`s dominate the non-word footprint.
    pub spec: Arc<BitstreamSpec>,
    /// Configuration words, in transmission order.
    pub words: Vec<u32>,
}

impl PartialBitstream {
    /// Size in bytes (`words * Bytes_word`).
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64
            * u64::from(self.spec.organization.family.params().frames.bytes_word)
    }

    /// Serialize to big-endian bytes (ICAP transmission order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Deserialize from big-endian bytes.
    pub fn words_from_bytes(bytes: &[u8]) -> Vec<u32> {
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
}

/// `IW` on every supported family (asserted when templates are built).
const INITIAL_WORDS: usize = 16;
/// `FW` on every supported family.
const FINAL_WORDS: usize = 14;
/// `FAR_FDRI` on every supported family.
const HEADER_WORDS: usize = 5;
/// The splitmix64 increment; frame payload word `i` of a block is
/// `mix(seed ^ FAR + (i + 1) * GAMMA)`.
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a hash for deterministic idcode/payload seeding.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn t1(register: ConfigRegister, word_count: u32) -> u32 {
    Packet::Type1Write {
        register,
        word_count,
    }
    .encode()
}

/// The splitmix64 output mix, truncated to a configuration word.
#[inline(always)]
fn splitmix32(state: u64) -> u32 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as u32
}

/// Fill `out` with the deterministic frame payload for `seed` — the
/// portable kernel and the definition every SIMD variant must match.
///
/// Word `i` is `splitmix32(seed + (i + 1) * GAMMA)` — exactly the
/// sequence the reference emitter's serial `state += GAMMA` walk
/// produces, but in counter form: each word depends only on `(seed, i)`,
/// so the loop has no carried dependency and the 4-way unrolled body
/// autovectorizes.
pub(crate) fn fill_payload_portable(seed: u64, out: &mut [u32]) {
    let mut chunks = out.chunks_exact_mut(4);
    let mut base = seed;
    for q in chunks.by_ref() {
        q[0] = splitmix32(base.wrapping_add(GAMMA));
        q[1] = splitmix32(base.wrapping_add(GAMMA.wrapping_mul(2)));
        q[2] = splitmix32(base.wrapping_add(GAMMA.wrapping_mul(3)));
        q[3] = splitmix32(base.wrapping_add(GAMMA.wrapping_mul(4)));
        base = base.wrapping_add(GAMMA.wrapping_mul(4));
    }
    for (i, w) in chunks.into_remainder().iter_mut().enumerate() {
        *w = splitmix32(base.wrapping_add(GAMMA.wrapping_mul(i as u64 + 1)));
    }
}

/// Exact number of configuration words [`generate`] emits for `spec`.
///
/// Pure arithmetic over the organization and its family's
/// [`fabric::FrameGeometry`] — the same quantities Eq. 18 multiplies by
/// `Bytes_word`, so `emitted_words(spec) * bytes_word` equals
/// `prcost::bitstream_size_bytes(&spec.organization)`. Emission paths
/// use it for one-shot exact-size allocations.
pub fn emitted_words(spec: &BitstreamSpec) -> usize {
    let org = &spec.organization;
    let geom = &org.family.params().frames;
    let config_frames =
        org.clb_cols * geom.cf_clb + org.dsp_cols * geom.cf_dsp + org.bram_cols * geom.cf_bram + 1;
    let config_block = geom.far_fdri + config_frames * geom.fr_size;
    let bram_block = if org.bram_cols > 0 {
        geom.far_fdri + (org.bram_cols * geom.df_bram + 1) * geom.fr_size
    } else {
        0
    };
    (geom.iw + geom.fw + org.height * (config_block + bram_block)) as usize
}

/// Check the window's column mix against the organization.
fn validate_columns(spec: &BitstreamSpec) -> Result<(), GenError> {
    let org = &spec.organization;
    let (mut clb, mut dsp, mut bram) = (0u32, 0u32, 0u32);
    for &kind in &spec.columns {
        match kind {
            ResourceKind::Clb => clb += 1,
            ResourceKind::Dsp => dsp += 1,
            ResourceKind::Bram => bram += 1,
            other => return Err(GenError::ForbiddenColumn(other)),
        }
    }
    let expected = (org.clb_cols, org.dsp_cols, org.bram_cols);
    if (clb, dsp, bram) != expected {
        return Err(GenError::CompositionMismatch {
            expected,
            found: (clb, dsp, bram),
        });
    }
    Ok(())
}

/// Everything about emission that is invariant across placements of one
/// `(organization, device, module)` triple: pre-encoded header packets,
/// the string hashes, per-block payload widths, and the total stream
/// length. Only the FAR values (and hence the block payloads and CRC)
/// depend on the placement, and those are derived per call.
#[derive(Debug, Clone)]
struct EmitTemplate {
    initial: [u32; INITIAL_WORDS],
    /// Final block with a zero CRC placeholder at index 1.
    fin: [u32; FINAL_WORDS],
    far_hdr: u32,
    fdri_hdr: u32,
    type2_config: u32,
    type2_bram: u32,
    noop: u32,
    /// `fnv1a(module)` — payload seed.
    seed: u64,
    /// Payload words per configuration FDRI block.
    config_payload: u32,
    /// Payload words per BRAM FDRI block (0 when the PRR has no BRAM).
    bram_payload: u32,
    height: u32,
    total_words: usize,
}

fn build_template(spec: &BitstreamSpec) -> EmitTemplate {
    let org = &spec.organization;
    let geom = &org.family.params().frames;
    debug_assert_eq!(geom.iw as usize, INITIAL_WORDS);
    debug_assert_eq!(geom.fw as usize, FINAL_WORDS);
    debug_assert_eq!(geom.far_fdri as usize, HEADER_WORDS);

    let seed = fnv1a(&spec.module);
    let idcode = (fnv1a(&spec.device) as u32) | 1; // LSB always set, as on real parts
    let noop = Packet::Noop.encode();

    // Frames per PRR row: every column's configuration frames + 1 pad.
    let config_frames =
        org.clb_cols * geom.cf_clb + org.dsp_cols * geom.cf_dsp + org.bram_cols * geom.cf_bram + 1;
    let bram_frames = if org.bram_cols > 0 {
        org.bram_cols * geom.df_bram + 1
    } else {
        0
    };
    let config_payload = config_frames * geom.fr_size;
    let bram_payload = bram_frames * geom.fr_size;

    let initial = [
        DUMMY_WORD,
        DUMMY_WORD,
        BUS_WIDTH_SYNC,
        BUS_WIDTH_DETECT,
        DUMMY_WORD,
        SYNC_WORD,
        noop,
        t1(ConfigRegister::Cmd, 1),
        Command::Rcrc as u32,
        noop,
        noop,
        t1(ConfigRegister::Idcode, 1),
        idcode,
        t1(ConfigRegister::Cmd, 1),
        Command::Wcfg as u32,
        noop,
    ];
    let fin = [
        t1(ConfigRegister::Crc, 1),
        0, // patched with the stream CRC at emit time
        noop,
        t1(ConfigRegister::Cmd, 1),
        Command::Lfrm as u32,
        noop,
        t1(ConfigRegister::Cmd, 1),
        Command::Start as u32,
        noop,
        t1(ConfigRegister::Cmd, 1),
        Command::Desync as u32,
        noop,
        noop,
        noop,
    ];

    EmitTemplate {
        initial,
        fin,
        far_hdr: t1(ConfigRegister::Far, 1),
        fdri_hdr: t1(ConfigRegister::Fdri, 0),
        type2_config: Packet::Type2Write {
            word_count: config_payload,
        }
        .encode(),
        type2_bram: Packet::Type2Write {
            word_count: bram_payload,
        }
        .encode(),
        noop,
        seed,
        config_payload,
        bram_payload,
        height: org.height,
        total_words: emitted_words(spec),
    }
}

/// Write one FAR + FDRI block at `pos`; returns the position past it.
#[inline]
fn emit_frame_block(
    tpl: &EmitTemplate,
    out: &mut [u32],
    crc: &mut Crc32,
    pos: usize,
    far: u32,
    type2: u32,
    payload_words: u32,
) -> usize {
    out[pos..pos + HEADER_WORDS].copy_from_slice(&[
        tpl.far_hdr,
        far,
        tpl.fdri_hdr,
        type2,
        tpl.noop,
    ]);
    let start = pos + HEADER_WORDS;
    let end = start + payload_words as usize;
    crc.fill_and_push(tpl.seed ^ u64::from(far), &mut out[start..end]);
    end
}

/// The arena emission core: one exact-size `resize`, slice-copied
/// headers, and a one-pass payload fill and CRC per block. `out`'s
/// existing words are not zeroed: the blocks cover every word, which the
/// closing `debug_assert` checks. `spec` must already be validated
/// against `tpl`'s organization.
fn emit_template(tpl: &EmitTemplate, spec: &BitstreamSpec, out: &mut Vec<u32>) {
    out.resize(tpl.total_words, 0);
    out[..INITIAL_WORDS].copy_from_slice(&tpl.initial);

    let mut crc = Crc32::new();
    let mut pos = INITIAL_WORDS;
    // Configuration frames, row by row (bottom to top).
    for r in 0..tpl.height {
        let far = FrameAddress::config(spec.start_row + r, spec.start_col, 0).encode();
        pos = emit_frame_block(
            tpl,
            out,
            &mut crc,
            pos,
            far,
            tpl.type2_config,
            tpl.config_payload,
        );
    }
    // BRAM initialization frames, row by row, addressing the window's
    // first BRAM column.
    if tpl.bram_payload > 0 {
        let bram_col = spec
            .columns
            .iter()
            .position(|&k| k == ResourceKind::Bram)
            .expect("bram_cols > 0 implies a BRAM column") as u32;
        for r in 0..tpl.height {
            let far = FrameAddress::bram(spec.start_row + r, spec.start_col + bram_col, 0).encode();
            pos = emit_frame_block(
                tpl,
                out,
                &mut crc,
                pos,
                far,
                tpl.type2_bram,
                tpl.bram_payload,
            );
        }
    }

    let mut fin = tpl.fin;
    fin[1] = crc.value();
    out[pos..pos + FINAL_WORDS].copy_from_slice(&fin);
    debug_assert_eq!(pos + FINAL_WORDS, tpl.total_words);
}

/// Rendered streams cached per worker. Bounds worker memory at
/// `STREAM_CAP` bitstreams (plus any evicted ones a caller still holds)
/// while letting batches over a small set of distinct placed modules
/// reach the refcount-only steady state.
pub const STREAM_CAP: usize = 8;

/// Per-worker emission arena: a small rendered-stream cache keyed by
/// full spec identity, each stream held once behind an `Arc` and shared
/// with every handle [`emit_shared`] returns. The cache swaps each hit
/// to the front, inserts each new entry at the front and, when full,
/// evicts the last entry. That is cheaper than exact LRU order and close
/// to it, but not the same: a hit on the last entry sends the front
/// entry, used just before, to the back. Its capacity is bounded, so a
/// long-lived scratch's memory stays constant regardless of how many
/// specs flow through it.
#[derive(Debug, Clone, Default)]
pub struct EmitScratch {
    streams: Vec<(Arc<BitstreamSpec>, Arc<Vec<u32>>)>,
}

impl EmitScratch {
    /// An empty arena; the cache warms up on first use.
    pub fn new() -> Self {
        EmitScratch::default()
    }

    /// A buffer for the next rendered stream: the last entry's, evicted,
    /// when the cache is full and no handle to it is still alive;
    /// otherwise a fresh one. Either way unshared.
    fn take_buffer(&mut self) -> Arc<Vec<u32>> {
        if self.streams.len() == STREAM_CAP {
            let (_, mut words) = self.streams.pop().expect("the cache is full");
            if Arc::get_mut(&mut words).is_some() {
                return words;
            }
        }
        Arc::default()
    }
}

/// `spec`'s configuration words as a handle shared with `scratch`'s
/// rendered-stream cache.
///
/// A hit (the same spec by pointer or by value) bumps a refcount and
/// moves no words; a miss builds the spec's template, renders into
/// [`EmitScratch`]'s recycled buffer and caches it. The handle stays
/// valid after its entry is evicted: a held stream is never rendered
/// over. The words are exactly those [`generate`] produces.
pub fn emit_shared(
    scratch: &mut EmitScratch,
    spec: &Arc<BitstreamSpec>,
) -> Result<Arc<Vec<u32>>, GenError> {
    // Cached entries were validated on insertion, and a hit is equal to
    // one of them, so only misses validate. Entries are pairwise unequal
    // (a miss inserts only when none is equal), so a pointer match is the
    // one value match: look for it first, before any entry pays a full
    // spec comparison.
    let streams = &scratch.streams;
    if let Some(i) = streams
        .iter()
        .position(|(s, _)| Arc::ptr_eq(s, spec))
        .or_else(|| streams.iter().position(|(s, _)| **s == **spec))
    {
        scratch.streams.swap(0, i);
        return Ok(Arc::clone(&scratch.streams[0].1));
    }
    validate_columns(spec)?;
    let mut words = scratch.take_buffer();
    let buf = Arc::get_mut(&mut words).expect("take_buffer returns an unshared buffer");
    emit_template(&build_template(spec), spec, buf);
    scratch
        .streams
        .insert(0, (Arc::clone(spec), Arc::clone(&words)));
    Ok(words)
}

/// Generate the partial bitstream for `spec`.
///
/// ```
/// use bitstream::{generate, BitstreamSpec};
/// use fabric::database::xc5vlx110t;
/// use synth::PaperPrm;
///
/// let device = xc5vlx110t();
/// let plan = prcost::plan_prr(&PaperPrm::Fir.synth_report(device.family()), &device).unwrap();
/// let spec = BitstreamSpec::from_plan(device.name(), "fir32", plan.organization, &plan.window);
/// let bs = generate(&spec).unwrap();
/// assert_eq!(bs.len_bytes(), plan.bitstream_bytes); // Eq. 18, byte-exact
/// ```
///
/// The emitted structure is exactly the paper's Fig. 2 / the Eq. 18 model:
/// per PRR row, one configuration FDRI write covering every column's frames
/// plus one pad frame; then, if the PRR has BRAM columns, per row one
/// BRAM-content FDRI write of `W_BRAM * DF_BRAM + 1` frames.
pub fn generate(spec: &BitstreamSpec) -> Result<PartialBitstream, GenError> {
    let mut words = Vec::new();
    emit_into(spec, &mut words)?;
    Ok(PartialBitstream {
        spec: Arc::new(spec.clone()),
        words,
    })
}

/// [`emit_shared`] copied into a caller-owned buffer, for callers that
/// need the words in their own storage; no `Vec` is allocated once `out`
/// has grown to the largest stream.
///
/// `out` is cleared first; on success it holds the exact word stream
/// [`generate`] would produce (on error it is left cleared).
pub fn emit_arc_into(
    scratch: &mut EmitScratch,
    spec: &Arc<BitstreamSpec>,
    out: &mut Vec<u32>,
) -> Result<(), GenError> {
    out.clear();
    out.extend_from_slice(&emit_shared(scratch, spec)?);
    Ok(())
}

/// Emit `spec`'s configuration words into `out`, reusing its allocation.
///
/// `out` is cleared first; on success it holds the exact word stream
/// [`generate`] would produce (on error it is left cleared). Callers that
/// loop over many specs keep one buffer and amortize `Vec` growth to
/// zero — the buffer is sized once per spec via [`emitted_words`], never
/// grown word by word.
pub fn emit_into(spec: &BitstreamSpec, out: &mut Vec<u32>) -> Result<(), GenError> {
    out.clear();
    validate_columns(spec)?;
    let tpl = build_template(spec);
    emit_template(&tpl, spec, out);
    Ok(())
}

pub mod reference {
    //! The first, push-based emission path, kept as the arena emitter's
    //! equivalence oracle: per-word `Vec` pushes with growth reallocation, a serial
    //! splitmix64 state walk, a word-at-a-time CRC update, and a full
    //! `BitstreamSpec` deep clone per generated bitstream. Property tests
    //! assert the arena path is byte-identical.

    use super::*;

    /// Emit the initial-word block. Exactly `IW` (=16) words: dummies,
    /// bus-width sync, device sync, CRC reset, IDCODE check, WCFG command.
    fn push_initial(words: &mut Vec<u32>, idcode: u32) {
        words.extend_from_slice(&[
            DUMMY_WORD,
            DUMMY_WORD,
            BUS_WIDTH_SYNC,
            BUS_WIDTH_DETECT,
            DUMMY_WORD,
            SYNC_WORD,
            Packet::Noop.encode(),
            t1(ConfigRegister::Cmd, 1),
            Command::Rcrc as u32,
            Packet::Noop.encode(),
            Packet::Noop.encode(),
            t1(ConfigRegister::Idcode, 1),
            idcode,
            t1(ConfigRegister::Cmd, 1),
            Command::Wcfg as u32,
            Packet::Noop.encode(),
        ]);
    }

    /// Emit one FAR + FDRI block: exactly `FAR_FDRI` (=5) header words
    /// followed by `payload_words` words of frame data.
    fn push_frame_block(
        words: &mut Vec<u32>,
        crc: &mut Crc32,
        far: FrameAddress,
        payload_words: u32,
        seed: u64,
    ) {
        words.push(t1(ConfigRegister::Far, 1));
        words.push(far.encode());
        words.push(t1(ConfigRegister::Fdri, 0));
        words.push(
            Packet::Type2Write {
                word_count: payload_words,
            }
            .encode(),
        );
        words.push(Packet::Noop.encode());
        let payload_start = words.len();
        words.reserve(payload_words as usize);
        let mut state = seed ^ u64::from(far.encode());
        for _ in 0..payload_words {
            // splitmix64 step — deterministic frame contents per (module, FAR).
            state = state.wrapping_add(GAMMA);
            words.push(splitmix32(state));
        }
        // Checksum the payload one word at a time, independent of the
        // dispatched batch kernels the arena path uses.
        for &w in &words[payload_start..] {
            crc.push_word(w);
        }
    }

    /// Emit the final-word block. Exactly `FW` (=14) words: CRC check,
    /// LFRM, START, DESYNC.
    fn push_final(words: &mut Vec<u32>, crc_value: u32) {
        words.extend_from_slice(&[
            t1(ConfigRegister::Crc, 1),
            crc_value,
            Packet::Noop.encode(),
            t1(ConfigRegister::Cmd, 1),
            Command::Lfrm as u32,
            Packet::Noop.encode(),
            t1(ConfigRegister::Cmd, 1),
            Command::Start as u32,
            Packet::Noop.encode(),
            t1(ConfigRegister::Cmd, 1),
            Command::Desync as u32,
            Packet::Noop.encode(),
            Packet::Noop.encode(),
            Packet::Noop.encode(),
        ]);
    }

    /// The push-based [`emit_into`](super::emit_into) of PR 2.
    pub fn emit_into(spec: &BitstreamSpec, out: &mut Vec<u32>) -> Result<(), GenError> {
        out.clear();
        validate_columns(spec)?;
        let org = &spec.organization;
        let geom = &org.family.params().frames;

        let seed = fnv1a(&spec.module);
        let idcode = (fnv1a(&spec.device) as u32) | 1;
        let fr = geom.fr_size;

        let config_frames: u32 = spec
            .columns
            .iter()
            .map(|&k| geom.frames_per_column(k))
            .sum::<u32>()
            + 1;
        let bram_frames: u32 = if org.bram_cols > 0 {
            org.bram_cols * geom.df_bram + 1
        } else {
            0
        };

        let mut crc = Crc32::new();
        push_initial(out, idcode);

        for r in 0..org.height {
            let far = FrameAddress::config(spec.start_row + r, spec.start_col, 0);
            push_frame_block(out, &mut crc, far, config_frames * fr, seed);
        }
        if bram_frames > 0 {
            let bram_col = spec
                .columns
                .iter()
                .position(|&k| k == ResourceKind::Bram)
                .expect("bram_cols > 0 implies a BRAM column") as u32;
            for r in 0..org.height {
                let far = FrameAddress::bram(spec.start_row + r, spec.start_col + bram_col, 0);
                push_frame_block(out, &mut crc, far, bram_frames * fr, seed);
            }
        }

        push_final(out, crc.value());
        Ok(())
    }

    /// The [`generate`](super::generate) of PR 2 (deep spec clone).
    pub fn generate(spec: &BitstreamSpec) -> Result<PartialBitstream, GenError> {
        let mut words = Vec::new();
        emit_into(spec, &mut words)?;
        Ok(PartialBitstream {
            spec: Arc::new(spec.clone()),
            words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{all_devices, xc5vlx110t, xc6vlx75t};
    use fabric::Family;
    use prcost::search::plan_prr;
    use proptest::prelude::*;
    use synth::PaperPrm;

    fn spec_for(prm: PaperPrm, device: &fabric::Device) -> BitstreamSpec {
        let plan = plan_prr(&prm.synth_report(device.family()), device).unwrap();
        BitstreamSpec::from_plan(
            device.name(),
            prm.module_name(),
            plan.organization,
            &plan.window,
        )
    }

    /// The headline cross-validation: generated length == Eq. 18 prediction
    /// for all six paper PRM/device pairs.
    #[test]
    fn generated_length_matches_cost_model() {
        for device in [xc5vlx110t(), xc6vlx75t()] {
            for prm in PaperPrm::ALL {
                let spec = spec_for(prm, &device);
                let bs = generate(&spec).unwrap();
                let predicted = prcost::bitstream_size_bytes(&spec.organization);
                assert_eq!(
                    bs.len_bytes(),
                    predicted,
                    "{prm:?} on {}: generator vs model",
                    device.name()
                );
            }
        }
    }

    /// `emitted_words` is exact across the whole device database, and its
    /// byte conversion reproduces the Eq. 18 `plan.bitstream_bytes`
    /// doc-example invariant everywhere a plan exists.
    #[test]
    fn emitted_words_is_exact_across_device_database() {
        for device in all_devices() {
            for prm in PaperPrm::ALL {
                let Ok(plan) = plan_prr(&prm.synth_report(device.family()), &device) else {
                    continue; // PRM does not fit this part
                };
                let spec = BitstreamSpec::from_plan(
                    device.name(),
                    prm.module_name(),
                    plan.organization,
                    &plan.window,
                );
                let bs = generate(&spec).unwrap();
                let words = emitted_words(&spec);
                assert_eq!(bs.words.len(), words, "{prm:?} on {}", device.name());
                let bytes_word = u64::from(spec.organization.family.params().frames.bytes_word);
                assert_eq!(
                    words as u64 * bytes_word,
                    plan.bitstream_bytes,
                    "{prm:?} on {}: emitted_words vs Eq. 18",
                    device.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_per_module_and_distinct_across_modules() {
        let device = xc5vlx110t();
        let a = generate(&spec_for(PaperPrm::Fir, &device)).unwrap();
        let b = generate(&spec_for(PaperPrm::Fir, &device)).unwrap();
        assert_eq!(a, b);
        let mips = generate(&spec_for(PaperPrm::Mips, &device)).unwrap();
        assert_ne!(a.words, mips.words);
    }

    /// The arena emitter is byte-identical to the frozen PR 2 path on
    /// every paper PRM/device pair.
    #[test]
    fn arena_emitter_matches_reference() {
        for device in [xc5vlx110t(), xc6vlx75t()] {
            for prm in PaperPrm::ALL {
                let spec = spec_for(prm, &device);
                let arena = generate(&spec).unwrap();
                let frozen = reference::generate(&spec).unwrap();
                assert_eq!(arena.words, frozen.words, "{prm:?} on {}", device.name());
            }
        }
    }

    /// Scratch-cached emission (rendered-stream cache, repeated and
    /// interleaved specs) always matches plain `generate`.
    #[test]
    fn cached_paths_match_plain_generate() {
        let device = xc5vlx110t();
        let mut scratch = EmitScratch::new();
        let specs: Vec<Arc<BitstreamSpec>> = PaperPrm::ALL
            .iter()
            .map(|&p| Arc::new(spec_for(p, &device)))
            .collect();
        // Two interleaved passes: first populates, second hits the cache.
        for _ in 0..2 {
            for spec in &specs {
                let cached = emit_shared(&mut scratch, spec).unwrap();
                assert_eq!(*cached, generate(spec).unwrap().words);
            }
        }
        // Same module at a different placement: a stream miss with
        // different FARs — must re-render, not serve the cached stream.
        let mut moved = (*specs[0]).clone();
        moved.start_col += 2;
        let moved = Arc::new(moved);
        let cached = emit_shared(&mut scratch, &moved).unwrap();
        assert_eq!(*cached, generate(&moved).unwrap().words);
        assert_ne!(*cached, generate(&specs[0]).unwrap().words);
        // An equal-by-value spec behind a different Arc still hits, and
        // a shared handle is the cached stream itself: repeats and the
        // twin get the same allocation back.
        let twin = Arc::new((*specs[1]).clone());
        let first = emit_shared(&mut scratch, &specs[1]).unwrap();
        let again = emit_shared(&mut scratch, &twin).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(*again, generate(&twin).unwrap().words);
        // emit_arc_into agrees on both the miss path (first pass) and
        // the rendered-stream hit path (second pass over a warm cache),
        // reusing one output buffer throughout.
        let mut out = Vec::new();
        for _ in 0..2 {
            for spec in &specs {
                emit_arc_into(&mut scratch, spec, &mut out).unwrap();
                assert_eq!(out, generate(spec).unwrap().words);
            }
        }
    }

    /// A random spec: any family, organization (at least one CLB column
    /// keeps the window non-empty), placement and name strings. The
    /// emitter needs only column-mix consistency, not device-level
    /// feasibility, so every such spec is valid.
    fn random_spec() -> impl Strategy<Value = BitstreamSpec> {
        (
            (0usize..Family::ALL.len(), 1u32..5),
            (1u32..4, 0u32..3, 0u32..3),
            (0u32..40, 1u32..5),
            (0u64..1_000_000, 0u64..1_000_000),
        )
            .prop_map(
                |(
                    (family_ix, height),
                    (clb, dsp, bram),
                    (start_col, start_row),
                    (module, device),
                )| {
                    let mut columns = Vec::new();
                    columns.extend(std::iter::repeat_n(ResourceKind::Clb, clb as usize));
                    columns.extend(std::iter::repeat_n(ResourceKind::Dsp, dsp as usize));
                    columns.extend(std::iter::repeat_n(ResourceKind::Bram, bram as usize));
                    BitstreamSpec {
                        device: format!("xc{device}"),
                        module: format!("prm_{module}"),
                        organization: PrrOrganization {
                            family: Family::ALL[family_ix],
                            height,
                            clb_cols: clb,
                            dsp_cols: dsp,
                            bram_cols: bram,
                        },
                        start_col,
                        start_row,
                        columns,
                    }
                },
            )
    }

    proptest! {
        /// Arena emission ≡ frozen PR 2 emission, byte for byte, over
        /// random organizations, placements, and name strings.
        #[test]
        fn arena_matches_reference_on_random_specs(spec in random_spec()) {
            let arena = generate(&spec).unwrap();
            let frozen = reference::generate(&spec).unwrap();
            prop_assert_eq!(&arena.words, &frozen.words);
            prop_assert_eq!(arena.words.len(), emitted_words(&spec));
            let mut scratch = EmitScratch::new();
            let cached = emit_shared(&mut scratch, &Arc::new(spec)).unwrap();
            prop_assert_eq!(&*cached, &frozen.words);
        }
    }

    proptest! {
        // Each case renders up to a dozen streams through the slow
        // frozen emitter and compares dozens of handles.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// One scratch driven through interleaved hits, misses and
        /// evictions over more than `STREAM_CAP` distinct random specs,
        /// some requested through equal-by-value twins: every handle,
        /// including handles held across their entry's eviction, reads
        /// the frozen emitter's words.
        #[test]
        fn handles_match_reference_through_evictions(
            specs in proptest::collection::vec(random_spec(), STREAM_CAP + 1..STREAM_CAP + 5),
            accesses in proptest::collection::vec(
                (0usize..64, any::<bool>(), any::<bool>()),
                24..64,
            ),
        ) {
            // A module name per index keeps the specs distinct.
            let pool: Vec<Arc<BitstreamSpec>> = specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| Arc::new(BitstreamSpec { module: format!("prm_{i}"), ..spec }))
                .collect();
            let expected: Vec<Vec<u32>> = pool
                .iter()
                .map(|spec| reference::generate(spec).unwrap().words)
                .collect();
            let mut scratch = EmitScratch::new();
            let mut held = Vec::new();
            for (ix, twin, keep) in accesses {
                let ix = ix % pool.len();
                let spec = if twin {
                    Arc::new((*pool[ix]).clone())
                } else {
                    Arc::clone(&pool[ix])
                };
                let words = emit_shared(&mut scratch, &spec).unwrap();
                prop_assert_eq!(&*words, &expected[ix]);
                if keep {
                    held.push((ix, words));
                }
            }
            for (ix, words) in &held {
                prop_assert_eq!(&**words, &expected[*ix]);
            }
        }
    }

    #[test]
    fn emit_into_reuses_buffer_and_matches_generate() {
        let device = xc5vlx110t();
        let mut buf = Vec::new();
        for prm in PaperPrm::ALL {
            let spec = spec_for(prm, &device);
            emit_into(&spec, &mut buf).unwrap();
            assert_eq!(buf, generate(&spec).unwrap().words, "{prm:?}");
        }
        // Error paths leave the buffer cleared.
        let mut bad = spec_for(PaperPrm::Fir, &device);
        bad.columns.push(ResourceKind::Clb);
        assert!(emit_into(&bad, &mut buf).is_err());
        assert!(buf.is_empty());
    }

    /// A failed spec leaves the scratch usable and caches nothing; a
    /// failed copy-out leaves the buffer cleared.
    #[test]
    fn failed_emissions_cache_nothing() {
        let device = xc5vlx110t();
        let good = spec_for(PaperPrm::Fir, &device);
        let mut bad = good.clone();
        bad.columns[0] = ResourceKind::Clk;
        let (good, bad) = (Arc::new(good), Arc::new(bad));
        let mut scratch = EmitScratch::new();
        let mut out = vec![0xdead_beef];
        assert!(matches!(
            emit_arc_into(&mut scratch, &bad, &mut out),
            Err(GenError::ForbiddenColumn(_))
        ));
        assert!(out.is_empty() && scratch.streams.is_empty());
        emit_arc_into(&mut scratch, &good, &mut out).unwrap();
        assert_eq!(out, generate(&good).unwrap().words);
        assert!(emit_shared(&mut scratch, &bad).is_err());
        assert_eq!(scratch.streams.len(), 1);
    }

    #[test]
    fn byte_serialization_round_trips() {
        let device = xc6vlx75t();
        let bs = generate(&spec_for(PaperPrm::Sdram, &device)).unwrap();
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len() as u64, bs.len_bytes());
        assert_eq!(PartialBitstream::words_from_bytes(&bytes), bs.words);
    }

    #[test]
    fn composition_mismatch_is_rejected() {
        let device = xc5vlx110t();
        let mut spec = spec_for(PaperPrm::Sdram, &device);
        spec.columns.push(ResourceKind::Clb);
        assert!(matches!(
            generate(&spec),
            Err(GenError::CompositionMismatch { .. })
        ));
    }

    #[test]
    fn forbidden_columns_are_rejected() {
        let device = xc5vlx110t();
        let mut spec = spec_for(PaperPrm::Sdram, &device);
        spec.columns[0] = ResourceKind::Clk;
        assert!(matches!(
            generate(&spec),
            Err(GenError::ForbiddenColumn(ResourceKind::Clk))
        ));
    }

    #[test]
    fn bram_blocks_only_when_bram_present() {
        let device = xc5vlx110t();
        let sdram = generate(&spec_for(PaperPrm::Sdram, &device)).unwrap();
        let mips = generate(&spec_for(PaperPrm::Mips, &device)).unwrap();
        let has_bram_far = |bs: &PartialBitstream| {
            bs.words.iter().any(|&w| {
                FrameAddress::decode(w)
                    .is_some_and(|f| f.block == crate::far::BlockType::BramContent && f.row >= 1)
            })
        };
        // SDRAM has no BRAM columns; its words contain no BRAM-content FAR
        // following a FAR write header. (Decode-scan is approximate but the
        // payload is pseudorandom, so require the MIPS stream to contain at
        // least one exact BRAM FAR at its known position.)
        let bram_col = mips
            .spec
            .columns
            .iter()
            .position(|&k| k == ResourceKind::Bram)
            .unwrap() as u32;
        let expected_far =
            FrameAddress::bram(mips.spec.start_row, mips.spec.start_col + bram_col, 0).encode();
        assert!(mips.words.contains(&expected_far));
        let _ = has_bram_far;
        let sdram_far = FrameAddress::bram(sdram.spec.start_row, sdram.spec.start_col, 0).encode();
        // The exact SDRAM BRAM FAR must not appear as a FAR write.
        let far_hdr = t1(ConfigRegister::Far, 1);
        let writes: Vec<u32> = sdram
            .words
            .windows(2)
            .filter(|w| w[0] == far_hdr)
            .map(|w| w[1])
            .collect();
        assert!(!writes.contains(&sdram_far));
    }
}
