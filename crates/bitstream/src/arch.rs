//! Runtime CPU-feature dispatch for the hot bitstream kernels.
//!
//! The two kernels that dominate `pipeline:bitstream` wall-clock are the
//! batch CRC update ([`crate::crc`]) and the deterministic frame-payload
//! fill ([`crate::writer`]). Both have portable implementations that are
//! always compiled and property-tested against the frozen oracles; this
//! module detects CPU features **once per process** and routes the hot
//! entry points to the fastest implementation the host supports:
//!
//! | path | x86_64 | aarch64 |
//! |------|--------|---------|
//! | CRC  | PCLMULQDQ 4×128-bit fold → SSE4.2 `crc32q` reduction, or the SSE4.2 `crc32q` four-lane kernel | ARMv8 `crc32cx` four-lane kernel |
//! | fill | AVX-512DQ 16-lane splitmix fused with the VPCLMULQDQ fold (emission only); AVX2 8-lane splitmix; portable | portable (autovectorized) |
//!
//! The CRC-32C (Castagnoli) polynomial is natively supported by the x86
//! `crc32` instruction family and the ARMv8 `crc32c*` instructions, so
//! the hardware paths compute the *identical* checksum, not an
//! approximation. The carryless-multiply kernels derive their fold
//! constants at compile time from the same `advance` algebra the
//! portable folded kernel is built on (see `crc::clmul_fold_const`).
//!
//! The writer fills and checksums each FDRI payload through one entry,
//! [`fill_crc_words`]. With the AVX-512 fill selected it runs the fused
//! kernel, which folds each generated 64-byte vector into the CRC before
//! it leaves registers; every other host fills, then checksums the
//! words, through the two separately dispatched kernels. The fused
//! kernel is the only AVX-512 fill: the plain fill entry
//! ([`fill_words`]) runs the AVX2 kernel on an AVX-512 host.
//!
//! ## Dispatch policy
//!
//! * Detection happens on first use, through a [`OnceLock`]; the chosen
//!   paths are visible via [`active`] and are reported by the pipeline
//!   benchmarks.
//! * The AVX-512 fill is selected only when AVX-512F/DQ/BW, VPCLMULQDQ,
//!   PCLMULQDQ and SSE4.2 are all present, so the fused kernel can run
//!   wherever the fill does.
//! * Setting `PRFPGA_FORCE_SCALAR` to any value other than `0` or the
//!   empty string forces the portable kernels, for testing and for
//!   apples-to-apples scalar baselines. The variable is read once, at
//!   first dispatch.
//! * The portable kernels are always compiled on every target — there is
//!   no build-time feature gate to get wrong; an unrecognized CPU simply
//!   runs the scalar path.
//!
//! ## Unsafe boundary
//!
//! The crate denies `unsafe_code` globally; only this module's
//! arch-specific submodules and the thin wrappers that call them carry
//! `#[allow(unsafe_code)]`, each with a `SAFETY` comment. Every unsafe
//! function is `#[target_feature]`-annotated, and every call site either
//! sits behind the `OnceLock` table (populated only after
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!` succeeds)
//! or re-verifies the feature itself. The kernels contain no raw-pointer
//! arithmetic beyond unaligned SIMD loads/stores that are bounds-checked
//! by their callers in ordinary safe code.
//!
//! Every dispatchable variant is property-tested byte-identical to the
//! frozen `crc::baseline` / `writer::reference` oracles in
//! `tests/kernel_matrix.rs`, and CI runs the equivalence suites twice —
//! once with native dispatch and once under `PRFPGA_FORCE_SCALAR=1`.

use std::sync::OnceLock;

/// Which CRC kernel the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcPath {
    /// Carryless-multiply folding (x86 PCLMULQDQ) with a hardware-CRC
    /// reduction and tail.
    Clmul,
    /// Hardware CRC-32C instructions (x86 SSE4.2 `crc32q` / ARMv8
    /// `crc32cx`), four-lane folded.
    HwCrc,
    /// The portable folded / slice-16 kernel.
    Portable,
}

impl CrcPath {
    /// Stable identifier used in benchmark artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            CrcPath::Clmul => "clmul-fold",
            CrcPath::HwCrc => "hw-crc32c",
            CrcPath::Portable => "portable-folded",
        }
    }
}

/// Which payload-fill kernel the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPath {
    /// AVX-512DQ 16-lane counter-form splitmix fill, fused with the
    /// VPCLMULQDQ CRC fold during emission; the plain fill entry runs the
    /// AVX2 kernel.
    Avx512,
    /// AVX2 8-lane counter-form splitmix fill.
    Avx2,
    /// The portable counter-form fill (autovectorizable).
    Portable,
}

impl FillPath {
    /// Stable identifier used in benchmark artifacts and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            FillPath::Avx512 => "avx512-splitmix",
            FillPath::Avx2 => "avx2-splitmix",
            FillPath::Portable => "portable-splitmix",
        }
    }
}

/// The kernel selection for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Selected CRC kernel.
    pub crc: CrcPath,
    /// Selected payload-fill kernel.
    pub fill: FillPath,
}

impl Dispatch {
    /// The all-portable selection (no CPU features used).
    pub const fn portable() -> Self {
        Dispatch {
            crc: CrcPath::Portable,
            fill: FillPath::Portable,
        }
    }

    /// Probe CPU features and pick the kernel set.
    ///
    /// Pure with respect to process state (does not consult the
    /// environment): `force_scalar` is passed explicitly so tests can
    /// exercise both outcomes regardless of the ambient
    /// `PRFPGA_FORCE_SCALAR`. The process-wide selection cached by
    /// [`active`] calls this once with the environment's value.
    pub fn detect(force_scalar: bool) -> Self {
        if force_scalar {
            Dispatch::portable()
        } else {
            detect_native()
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_native() -> Dispatch {
    let sse42 = std::arch::is_x86_feature_detected!("sse4.2");
    let crc = if sse42 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        CrcPath::Clmul
    } else if sse42 {
        CrcPath::HwCrc
    } else {
        CrcPath::Portable
    };
    let fill = if fused_detected() {
        FillPath::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        FillPath::Avx2
    } else {
        FillPath::Portable
    };
    Dispatch { crc, fill }
}

/// The fused fill-and-CRC kernel's features: F for the 512-bit
/// registers, DQ for the 64-bit lane multiply, BW for the 512-bit byte
/// shuffle, VPCLMULQDQ for the 512-bit fold, and the PCLMULQDQ + SSE4.2
/// collapse, reduction and tail it shares with the CLMUL kernel.
#[cfg(target_arch = "x86_64")]
fn fused_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
}

#[cfg(target_arch = "aarch64")]
fn detect_native() -> Dispatch {
    let crc = if std::arch::is_aarch64_feature_detected!("crc") {
        CrcPath::HwCrc
    } else {
        CrcPath::Portable
    };
    // The fill kernel relies on 64-bit lane multiplies; NEON has no
    // 64×64 multiply, and the portable counter-form loop already
    // autovectorizes, so aarch64 keeps the portable fill.
    Dispatch {
        crc,
        fill: FillPath::Portable,
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect_native() -> Dispatch {
    Dispatch::portable()
}

/// Whether `PRFPGA_FORCE_SCALAR` requests the portable kernels.
pub fn force_scalar_env() -> bool {
    matches!(std::env::var("PRFPGA_FORCE_SCALAR"), Ok(v) if !v.is_empty() && v != "0")
}

/// The resolved kernel table: one fn pointer per hot entry point. All
/// pointers are *safe* functions — the SIMD-backed ones re-verify the
/// CPU feature (a cached relaxed atomic load) before entering the
/// `unsafe` kernel, so the table stays sound even if constructed by
/// hand in a test.
struct Kernels {
    dispatch: Dispatch,
    crc: fn(u32, &[u32]) -> u32,
    fill: fn(u64, &mut [u32]),
    fill_crc: fn(u64, &mut [u32], u32) -> u32,
}

static KERNELS: OnceLock<Kernels> = OnceLock::new();

fn kernels() -> &'static Kernels {
    KERNELS.get_or_init(|| build_kernels(Dispatch::detect(force_scalar_env())))
}

fn build_kernels(dispatch: Dispatch) -> Kernels {
    let crc: fn(u32, &[u32]) -> u32 = match dispatch.crc {
        #[cfg(target_arch = "x86_64")]
        CrcPath::Clmul => crc_clmul_kernel,
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        CrcPath::HwCrc => crc_hw_kernel,
        _ => crc_portable_kernel,
    };
    let fill: fn(u64, &mut [u32]) = match dispatch.fill {
        #[cfg(target_arch = "x86_64")]
        FillPath::Avx512 | FillPath::Avx2 => fill_avx2_kernel,
        _ => fill_portable_kernel,
    };
    let fill_crc: fn(u64, &mut [u32], u32) -> u32 = match dispatch.fill {
        #[cfg(target_arch = "x86_64")]
        FillPath::Avx512 => fill_crc_avx512_kernel,
        _ => fill_crc_two_pass,
    };
    Kernels {
        dispatch,
        crc,
        fill,
        fill_crc,
    }
}

/// The kernel selection active in this process (detected on first use).
pub fn active() -> Dispatch {
    kernels().dispatch
}

/// Advance a raw CRC state over `words` with the dispatched kernel. The
/// hot path behind [`crate::crc::Crc32::push_words`].
#[inline]
pub(crate) fn crc_update(state: u32, words: &[u32]) -> u32 {
    (kernels().crc)(state, words)
}

/// Fill `out` with the deterministic frame payload for `seed` and
/// advance the raw CRC `state` over the filled words, through the
/// dispatched fill-and-checksum entry; returns the new state. The hot
/// path behind the bitstream writer (one call per FDRI block), exposed
/// for benchmarks and equivalence tests.
#[inline]
pub fn fill_crc_words(seed: u64, out: &mut [u32], state: u32) -> u32 {
    (kernels().fill_crc)(seed, out, state)
}

// ------------------------------------------------------ safe wrappers

fn crc_portable_kernel(state: u32, words: &[u32]) -> u32 {
    crate::crc::update_portable(state, words)
}

fn fill_portable_kernel(seed: u64, out: &mut [u32]) {
    crate::writer::fill_payload_portable(seed, out);
}

/// Fill, then checksum, through the table's separate kernels: the
/// fill-and-checksum entry wherever the fused kernel is not selected.
fn fill_crc_two_pass(seed: u64, out: &mut [u32], state: u32) -> u32 {
    fill_words(seed, out);
    crc_update(state, out)
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying SSE4.2.
fn crc_hw_kernel(state: u32, words: &[u32]) -> u32 {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc_update_hw` requires SSE4.2, verified just above.
        unsafe { x86::crc_update_hw(state, words) }
    } else {
        crate::crc::update_portable(state, words)
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying PCLMULQDQ+SSE4.2.
fn crc_clmul_kernel(state: u32, words: &[u32]) -> u32 {
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
    {
        // SAFETY: `crc_update_clmul` requires PCLMULQDQ and SSE4.2,
        // verified just above.
        unsafe { x86::crc_update_clmul(state, words) }
    } else {
        crate::crc::update_portable(state, words)
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying AVX2.
fn fill_avx2_kernel(seed: u64, out: &mut [u32]) {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fill_payload_avx2` requires AVX2, verified just above.
        unsafe { x86::fill_payload_avx2(seed, out) }
    } else {
        crate::writer::fill_payload_portable(seed, out);
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying every fused-kernel feature.
fn fill_crc_avx512_kernel(seed: u64, out: &mut [u32], state: u32) -> u32 {
    if fused_detected() {
        // SAFETY: `fill_crc_avx512` requires AVX-512F/DQ/BW, VPCLMULQDQ,
        // PCLMULQDQ and SSE4.2, all verified just above.
        unsafe { x86::fill_crc_avx512(seed, out, state) }
    } else {
        crate::writer::fill_payload_portable(seed, out);
        crate::crc::update_portable(state, out)
    }
}

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)] // SAFETY: kernel entered only after verifying the crc feature.
fn crc_hw_kernel(state: u32, words: &[u32]) -> u32 {
    if std::arch::is_aarch64_feature_detected!("crc") {
        // SAFETY: `crc_update_hw` requires the ARMv8 crc feature,
        // verified just above.
        unsafe { aarch64::crc_update_hw(state, words) }
    } else {
        crate::crc::update_portable(state, words)
    }
}

// ------------------------------------------- probe-style entry points
//
// Benchmarks and the kernel-matrix equivalence tests need to name each
// variant explicitly, regardless of which one dispatch would pick. These
// return `None` / `false` when the host CPU (or target arch) lacks the
// kernel, so callers can probe without cfg ladders of their own.

/// Checksum a word slice with the hardware-CRC kernel, if this CPU has
/// one (`Some(crc)`), or `None` otherwise.
#[allow(unsafe_code)] // SAFETY: each arm verifies its feature before the unsafe call.
pub fn crc_words_hw(words: &[u32]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: SSE4.2 verified just above.
        return Some(!unsafe { x86::crc_update_hw(0xFFFF_FFFF, words) });
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("crc") {
        // SAFETY: the ARMv8 crc feature verified just above.
        return Some(!unsafe { aarch64::crc_update_hw(0xFFFF_FFFF, words) });
    }
    let _ = words;
    None
}

/// Checksum a word slice with the carryless-multiply folding kernel, if
/// this CPU has one (`Some(crc)`), or `None` otherwise.
#[allow(unsafe_code)] // SAFETY: features verified before the unsafe call.
pub fn crc_words_clmul(words: &[u32]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
    {
        // SAFETY: PCLMULQDQ and SSE4.2 verified just above.
        return Some(!unsafe { x86::crc_update_clmul(0xFFFF_FFFF, words) });
    }
    let _ = words;
    None
}

/// Fill `out` via the dispatched fill kernel (exposed for benchmarks
/// and equivalence tests; the writer fills through [`fill_crc_words`]).
pub fn fill_words(seed: u64, out: &mut [u32]) {
    (kernels().fill)(seed, out)
}

/// Fill `out` via the portable kernel, regardless of CPU features.
pub fn fill_words_portable(seed: u64, out: &mut [u32]) {
    crate::writer::fill_payload_portable(seed, out);
}

/// Fill `out` via the AVX2 kernel if this CPU has AVX2. Returns `true`
/// if the kernel ran, `false` if `out` was left untouched.
#[allow(unsafe_code)] // SAFETY: feature verified before the unsafe call.
pub fn fill_words_avx2(seed: u64, out: &mut [u32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 verified just above.
        unsafe { x86::fill_payload_avx2(seed, out) };
        return true;
    }
    let _ = (seed, out);
    false
}

/// Fill `out` and advance the raw CRC `state` over it with the fused
/// AVX-512 kernel, if this CPU has every feature it needs (`Some(new
/// state)`), or `None` with `out` left untouched.
#[allow(unsafe_code)] // SAFETY: features verified before the unsafe call.
pub fn fill_crc_words_avx512(seed: u64, out: &mut [u32], state: u32) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if fused_detected() {
        // SAFETY: AVX-512F/DQ/BW, VPCLMULQDQ, PCLMULQDQ and SSE4.2
        // verified just above.
        return Some(unsafe { x86::fill_crc_avx512(seed, out, state) });
    }
    let _ = (seed, out, state);
    None
}

// ----------------------------------------------------- x86_64 kernels

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE4.2 / PCLMULQDQ / AVX2 / AVX-512 kernels.
    //!
    //! SAFETY policy: every function here is `unsafe fn` with a
    //! `#[target_feature]` contract — the caller must have verified the
    //! listed features via `is_x86_feature_detected!`. Inside, the only
    //! unsafe operations are the intrinsics themselves and unaligned
    //! SIMD loads/stores whose bounds are established by safe slice
    //! arithmetic at the call site.
    #![allow(unsafe_code)]
    #![deny(unsafe_op_in_unsafe_fn)]

    use crate::crc::{advance, clmul_fold_const, ADVANCE, LANE_WORDS, SUPER_WORDS};
    use crate::writer::{fill_payload_portable, GAMMA};
    use core::arch::x86_64::{
        __m128i, __m256i, __m512i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_mul_epu32,
        _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32, _mm256_set1_epi64x,
        _mm256_set_epi64x, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm512_add_epi64, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_mullo_epi64,
        _mm512_permutex2var_epi32, _mm512_set1_epi64, _mm512_shuffle_epi8, _mm512_srli_epi64,
        _mm512_storeu_si512, _mm512_xor_si512, _mm512_zextsi128_si512, _mm_clmulepi64_si128,
        _mm_crc32_u32, _mm_crc32_u64, _mm_cvtsi128_si64, _mm_cvtsi32_si128, _mm_extract_epi64,
        _mm_loadu_si128, _mm_set_epi64x, _mm_set_epi8, _mm_shuffle_epi8, _mm_xor_si128,
    };

    /// Words per folding iteration and per fused AVX-512 block (64 bytes:
    /// four XMM registers, or one ZMM register).
    const BLOCK_WORDS: usize = 16;
    /// splitmix64's two output-mix multipliers.
    const M1: i64 = 0xbf58_476d_1ce4_e5b9_u64 as i64;
    const M2: i64 = 0x94d0_49bb_1331_11eb_u64 as i64;

    /// Fill the words of a payload past its first `done` with the
    /// portable kernel: word `j` of `tail` is payload word `done + j`,
    /// i.e. the portable fill from the seed advanced by `done` steps.
    fn fill_tail(seed: u64, done: usize, tail: &mut [u32]) {
        fill_payload_portable(seed.wrapping_add(GAMMA.wrapping_mul(done as u64)), tail);
    }

    /// Two adjacent configuration words as the 64-bit value `crc32q`
    /// consumes: the instruction absorbs its operand's bytes low-first,
    /// and the CRC stream is each word's big-endian bytes.
    #[inline(always)]
    fn stream_u64(words: &[u32], i: usize) -> u64 {
        (u64::from(words[i + 1].swap_bytes()) << 32) | u64::from(words[i].swap_bytes())
    }

    /// Single-chain `crc32q`/`crc32l` update for inputs shorter than the
    /// folding kernels' block sizes (and for their tails).
    ///
    /// # Safety
    /// CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    unsafe fn crc_tail_hw(state: u32, words: &[u32]) -> u32 {
        let mut s = u64::from(state);
        let mut pairs = words.chunks_exact(2);
        for p in &mut pairs {
            s = _mm_crc32_u64(s, stream_u64(p, 0));
        }
        let mut st = s as u32;
        if let &[w] = pairs.remainder() {
            st = _mm_crc32_u32(st, w.swap_bytes());
        }
        st
    }

    /// Four-lane hardware CRC-32C kernel: the same super-block / lane
    /// structure as the portable folded kernel (four independent 128-byte
    /// lane chains per 512-byte super-block, recombined through the
    /// shared `ADVANCE` operators), with each lane chain advanced by the
    /// 8-bytes-per-instruction `crc32q` instead of table lookups. The
    /// four lanes hide the instruction's 3-cycle latency.
    ///
    /// # Safety
    /// CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn crc_update_hw(mut state: u32, words: &[u32]) -> u32 {
        let mut blocks = words.chunks_exact(SUPER_WORDS);
        for block in &mut blocks {
            let (a, rest) = block.split_at(LANE_WORDS);
            let (b, rest) = rest.split_at(LANE_WORDS);
            let (c, d) = rest.split_at(LANE_WORDS);
            let mut s0 = u64::from(state);
            let (mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64);
            let mut i = 0;
            while i < LANE_WORDS {
                s0 = _mm_crc32_u64(s0, stream_u64(a, i));
                s1 = _mm_crc32_u64(s1, stream_u64(b, i));
                s2 = _mm_crc32_u64(s2, stream_u64(c, i));
                s3 = _mm_crc32_u64(s3, stream_u64(d, i));
                i += 2;
            }
            state = advance(&ADVANCE[2], s0 as u32)
                ^ advance(&ADVANCE[1], s1 as u32)
                ^ advance(&ADVANCE[0], s2 as u32)
                ^ s3 as u32;
        }
        // SAFETY: same contract.
        unsafe { crc_tail_hw(state, blocks.remainder()) }
    }

    // Carryless-multiply fold constants, `(K(D+32), K(D−32))` per fold
    // distance `D` in bits, in the 33-bit reflected form PCLMULQDQ
    // multiplies by (see `crc::clmul_fold_const`). 512 folds each of the
    // four accumulators one 64-byte iteration forward; 384/256/128
    // collapse the four accumulators into one.
    const FOLD_512: (i64, i64) = (clmul_fold_const(544) as i64, clmul_fold_const(480) as i64);
    const FOLD_384: (i64, i64) = (clmul_fold_const(416) as i64, clmul_fold_const(352) as i64);
    const FOLD_256: (i64, i64) = (clmul_fold_const(288) as i64, clmul_fold_const(224) as i64);
    const FOLD_128: (i64, i64) = (clmul_fold_const(160) as i64, clmul_fold_const(96) as i64);

    /// `pshufb` control reversing the bytes of each 32-bit word: memory
    /// holds little-endian words, the CRC stream is their big-endian
    /// bytes.
    ///
    /// # Safety
    /// CPU must support SSE4.2 (implies SSSE3).
    #[target_feature(enable = "sse4.2")]
    unsafe fn bswap32_mask() -> __m128i {
        _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3)
    }

    /// Load 16 message bytes (4 configuration words) in CRC stream
    /// order: unaligned load of the little-endian words, then a per-lane
    /// byte reversal so register byte 0 is the first transmitted byte.
    ///
    /// # Safety
    /// CPU must support SSE4.2 (implies SSSE3 for `pshufb`); caller must
    /// ensure `i + 4 <= words.len()`.
    #[target_feature(enable = "sse4.2")]
    unsafe fn load_stream(words: &[u32], i: usize, mask: __m128i) -> __m128i {
        debug_assert!(i + 4 <= words.len());
        // SAFETY: caller guarantees 16 readable bytes at `i`; features
        // per this fn's contract.
        unsafe { _mm_shuffle_epi8(_mm_loadu_si128(words.as_ptr().add(i).cast()), mask) }
    }

    /// One reflected fold step: carry `x` forward by `D` message bits,
    /// where `k` holds `(K(D+32), K(D−32))` in its (low, high) lanes.
    ///
    /// # Safety
    /// CPU must support PCLMULQDQ and SSE4.2.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    unsafe fn fold_128(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(x, k, 0x00),
            _mm_clmulepi64_si128(x, k, 0x11),
        )
    }

    /// Collapse the four fold accumulators into one — `x0` leads `x3` by
    /// 384 message bits, `x1` by 256, `x2` by 128 — and reduce the
    /// 128-bit residual. Its register bytes are already in stream order,
    /// so two `crc32q` steps from state 0 produce the CRC state of the
    /// residual message (equivalent to the classic Barrett reduction).
    ///
    /// # Safety
    /// CPU must support PCLMULQDQ and SSE4.2.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    unsafe fn reduce_lanes(x0: __m128i, x1: __m128i, x2: __m128i, x3: __m128i) -> u32 {
        let k384 = _mm_set_epi64x(FOLD_384.1, FOLD_384.0);
        let k256 = _mm_set_epi64x(FOLD_256.1, FOLD_256.0);
        let k128 = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        // SAFETY: `fold_128` needs PCLMULQDQ and SSE4.2, per this fn's
        // contract.
        let x = unsafe {
            _mm_xor_si128(
                _mm_xor_si128(fold_128(x0, k384), fold_128(x1, k256)),
                _mm_xor_si128(fold_128(x2, k128), x3),
            )
        };
        let lo = _mm_cvtsi128_si64(x) as u64;
        let hi = _mm_extract_epi64::<1>(x) as u64;
        _mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32
    }

    /// Carryless-multiply folding CRC kernel: four 128-bit accumulators
    /// consume 64 message bytes per iteration (each folded 512 bits
    /// forward per step), then [`reduce_lanes`] collapses and reduces
    /// them. Inputs shorter than one 64-byte block, and tails, take the
    /// hardware single-chain path.
    ///
    /// # Safety
    /// CPU must support PCLMULQDQ and SSE4.2.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) unsafe fn crc_update_clmul(state: u32, words: &[u32]) -> u32 {
        if words.len() < BLOCK_WORDS {
            // SAFETY: SSE4.2 per this fn's contract.
            return unsafe { crc_tail_hw(state, words) };
        }
        let blocks = words.len() / BLOCK_WORDS;
        // SAFETY: all intrinsics below are covered by this fn's
        // target_feature contract; every `load_stream` offset is at most
        // `blocks * BLOCK_WORDS - 4`, in bounds by construction.
        unsafe {
            let mask = bswap32_mask();
            let k512 = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
            let mut x0 = load_stream(words, 0, mask);
            let mut x1 = load_stream(words, 4, mask);
            let mut x2 = load_stream(words, 8, mask);
            let mut x3 = load_stream(words, 12, mask);
            // Fold the running state into the first four stream bytes.
            x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(state as i32));
            for b in 1..blocks {
                let base = b * BLOCK_WORDS;
                x0 = _mm_xor_si128(fold_128(x0, k512), load_stream(words, base, mask));
                x1 = _mm_xor_si128(fold_128(x1, k512), load_stream(words, base + 4, mask));
                x2 = _mm_xor_si128(fold_128(x2, k512), load_stream(words, base + 8, mask));
                x3 = _mm_xor_si128(fold_128(x3, k512), load_stream(words, base + 12, mask));
            }
            crc_tail_hw(reduce_lanes(x0, x1, x2, x3), &words[blocks * BLOCK_WORDS..])
        }
    }

    /// 64-bit lane-wise multiply-low (AVX2 has no 64×64 multiply): three
    /// 32×32 partial products per lane.
    ///
    /// # Safety
    /// CPU must support AVX2. `bh` must be `b >> 32` lane-wise.
    #[target_feature(enable = "avx2")]
    unsafe fn mullo64(a: __m256i, b: __m256i, bh: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let mid = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
            _mm256_mul_epu32(a, bh),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32))
    }

    /// AVX2 payload fill: eight independent splitmix counters per
    /// iteration (two 4×u64 vectors), exactly the counter form of the
    /// portable fill — word `i` is `splitmix32(seed + (i+1)·GAMMA)` — so
    /// the output is byte-identical.
    ///
    /// # Safety
    /// CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_payload_avx2(seed: u64, out: &mut [u32]) {
        let full = out.len() - out.len() % 8;
        let mut chunks = out.chunks_exact_mut(8);
        // SAFETY: AVX2 per this fn's contract; the only memory access is
        // the unaligned 32-byte store into each exact 8-word chunk.
        unsafe {
            let m1 = _mm256_set1_epi64x(M1);
            let m1h = _mm256_srli_epi64(m1, 32);
            let m2 = _mm256_set1_epi64x(M2);
            let m2h = _mm256_srli_epi64(m2, 32);
            let step = _mm256_set1_epi64x(GAMMA.wrapping_mul(8) as i64);
            // Lane k of `ca` holds counter seed + (k+1)·GAMMA; `cb` the
            // next four.
            let mut ca = _mm256_set_epi64x(
                seed.wrapping_add(GAMMA.wrapping_mul(4)) as i64,
                seed.wrapping_add(GAMMA.wrapping_mul(3)) as i64,
                seed.wrapping_add(GAMMA.wrapping_mul(2)) as i64,
                seed.wrapping_add(GAMMA) as i64,
            );
            let mut cb = _mm256_add_epi64(ca, _mm256_set1_epi64x(GAMMA.wrapping_mul(4) as i64));
            // Gather each u64 lane's low dword into positions 0..4.
            let pack_idx = _mm256_loadu_si256([0u32, 2, 4, 6, 0, 0, 0, 0].as_ptr().cast());
            for q in chunks.by_ref() {
                let mut za = ca;
                let mut zb = cb;
                za = _mm256_xor_si256(za, _mm256_srli_epi64(za, 30));
                zb = _mm256_xor_si256(zb, _mm256_srli_epi64(zb, 30));
                za = mullo64(za, m1, m1h);
                zb = mullo64(zb, m1, m1h);
                za = _mm256_xor_si256(za, _mm256_srli_epi64(za, 27));
                zb = _mm256_xor_si256(zb, _mm256_srli_epi64(zb, 27));
                za = mullo64(za, m2, m2h);
                zb = mullo64(zb, m2, m2h);
                za = _mm256_xor_si256(za, _mm256_srli_epi64(za, 31));
                zb = _mm256_xor_si256(zb, _mm256_srli_epi64(zb, 31));
                let pa = _mm256_permutevar8x32_epi32(za, pack_idx);
                let pb = _mm256_permutevar8x32_epi32(zb, pack_idx);
                let packed = _mm256_permute2x128_si256(pa, pb, 0x20);
                _mm256_storeu_si256(q.as_mut_ptr().cast(), packed);
                ca = _mm256_add_epi64(ca, step);
                cb = _mm256_add_epi64(cb, step);
            }
        }
        fill_tail(seed, full, chunks.into_remainder());
    }

    /// splitmix64's output mix on eight u64 lanes, with the native
    /// 64-bit multiply (`vpmullq`).
    ///
    /// # Safety
    /// CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn mix8(z: __m512i) -> __m512i {
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)),
            _mm512_set1_epi64(M1),
        );
        let z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)),
            _mm512_set1_epi64(M2),
        );
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }

    /// The AVX-512 kernels' payload generator: sixteen splitmix counters,
    /// word `i` of the next block in lane `i % 8` of `lo` (`i < 8`) or
    /// `hi`.
    struct Splitmix16 {
        lo: __m512i,
        hi: __m512i,
    }

    /// `vpermt2d` indices gathering the low dword of each u64 lane of
    /// two vectors, first operand first.
    const PACK_LOW_DWORDS: [u32; 16] = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30];

    impl Splitmix16 {
        /// The generator for a payload seeded with `seed`: word `i` is
        /// `splitmix32(seed + (i+1)·GAMMA)`, the portable fill's counter
        /// form.
        ///
        /// # Safety
        /// CPU must support AVX-512F.
        #[target_feature(enable = "avx512f")]
        unsafe fn new(seed: u64) -> Self {
            let counters: [u64; BLOCK_WORDS] =
                core::array::from_fn(|i| seed.wrapping_add(GAMMA.wrapping_mul(i as u64 + 1)));
            // SAFETY: each load reads eight u64 of `counters`; AVX-512F
            // per this fn's contract.
            unsafe {
                Splitmix16 {
                    lo: _mm512_loadu_si512(counters.as_ptr().cast()),
                    hi: _mm512_loadu_si512(counters[8..].as_ptr().cast()),
                }
            }
        }

        /// The next sixteen payload words, in word order.
        ///
        /// # Safety
        /// CPU must support AVX-512F and AVX-512DQ.
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn next_block(&mut self) -> __m512i {
            let step = _mm512_set1_epi64(GAMMA.wrapping_mul(BLOCK_WORDS as u64) as i64);
            // SAFETY: `mix8` needs AVX-512F/DQ and the index load reads
            // the sixteen u32 of `PACK_LOW_DWORDS`, per this fn's
            // contract.
            let words = unsafe {
                let pack = _mm512_loadu_si512(PACK_LOW_DWORDS.as_ptr().cast());
                _mm512_permutex2var_epi32(mix8(self.lo), pack, mix8(self.hi))
            };
            self.lo = _mm512_add_epi64(self.lo, step);
            self.hi = _mm512_add_epi64(self.hi, step);
            words
        }
    }

    /// [`fold_128`] on all four 128-bit lanes of `x` at once.
    ///
    /// # Safety
    /// CPU must support AVX-512F and VPCLMULQDQ.
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    unsafe fn fold_4x128(x: __m512i, k: __m512i) -> __m512i {
        _mm512_xor_si512(
            _mm512_clmulepi64_epi128::<0x00>(x, k),
            _mm512_clmulepi64_epi128::<0x11>(x, k),
        )
    }

    /// Fused payload fill and CRC: the portable fill's words, sixteen per
    /// [`Splitmix16`] block with native 64-bit multiplies, each block
    /// stored, byte-swapped into stream order and folded into one 512-bit
    /// accumulator before it leaves registers. The
    /// accumulator's four 128-bit lanes are [`crc_update_clmul`]'s
    /// `x0..x3`, folded by the same 512 bits per block, so the collapse,
    /// reduction and tail are that kernel's. Returns the CRC state
    /// advanced from `state` over the filled words.
    ///
    /// # Safety
    /// CPU must support AVX-512F/DQ/BW, VPCLMULQDQ, PCLMULQDQ and SSE4.2.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,vpclmulqdq,pclmulqdq,sse4.2")]
    pub(super) unsafe fn fill_crc_avx512(seed: u64, out: &mut [u32], state: u32) -> u32 {
        let full = out.len() - out.len() % BLOCK_WORDS;
        let (body, tail) = out.split_at_mut(full);
        fill_tail(seed, full, tail);
        if body.is_empty() {
            // SAFETY: SSE4.2 per this fn's contract.
            return unsafe { crc_tail_hw(state, tail) };
        }
        let (first, rest) = body.split_at_mut(BLOCK_WORDS);
        // SAFETY: all intrinsics and callees below are covered by this
        // fn's target_feature contract; the only memory accesses are the
        // unaligned 64-byte stores into `first` and into each exact
        // 16-word chunk of `rest`.
        unsafe {
            let mask = _mm512_broadcast_i32x4(bswap32_mask());
            let k512 = _mm512_broadcast_i32x4(_mm_set_epi64x(FOLD_512.1, FOLD_512.0));
            let mut words = Splitmix16::new(seed);
            let block = words.next_block();
            _mm512_storeu_si512(first.as_mut_ptr().cast(), block);
            // The running state enters the first four stream bytes; the
            // zero extension keeps the other lanes' bits defined.
            let mut acc = _mm512_xor_si512(
                _mm512_shuffle_epi8(block, mask),
                _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
            );
            for q in rest.chunks_exact_mut(BLOCK_WORDS) {
                let block = words.next_block();
                _mm512_storeu_si512(q.as_mut_ptr().cast(), block);
                acc = _mm512_xor_si512(fold_4x128(acc, k512), _mm512_shuffle_epi8(block, mask));
            }
            let reduced = reduce_lanes(
                _mm512_extracti32x4_epi32::<0>(acc),
                _mm512_extracti32x4_epi32::<1>(acc),
                _mm512_extracti32x4_epi32::<2>(acc),
                _mm512_extracti32x4_epi32::<3>(acc),
            );
            crc_tail_hw(reduced, tail)
        }
    }
}

// ---------------------------------------------------- aarch64 kernels

#[cfg(target_arch = "aarch64")]
mod aarch64 {
    //! ARMv8 CRC kernels.
    //!
    //! SAFETY policy: as for the x86 module — `unsafe fn` +
    //! `#[target_feature]`, features verified by every caller. A PMULL
    //! folding kernel (the aarch64 analogue of the PCLMULQDQ path) is
    //! deliberately not implemented yet: this repository cannot
    //! compile-check aarch64, so only the simple, high-confidence
    //! `crc32c*` kernel ships for it.
    #![allow(unsafe_code)]
    #![deny(unsafe_op_in_unsafe_fn)]

    use crate::crc::{advance, ADVANCE, LANE_WORDS, SUPER_WORDS};
    use core::arch::aarch64::{__crc32cd, __crc32cw};

    /// Two adjacent configuration words as the 64-bit value `crc32cx`
    /// consumes (low byte first; the stream is big-endian per word).
    #[inline(always)]
    fn stream_u64(words: &[u32], i: usize) -> u64 {
        (u64::from(words[i + 1].swap_bytes()) << 32) | u64::from(words[i].swap_bytes())
    }

    /// Four-lane hardware CRC-32C kernel, mirroring the x86 `crc32q`
    /// kernel: independent lane chains per super-block, recombined with
    /// the shared `ADVANCE` operators.
    ///
    /// # Safety
    /// CPU must support the ARMv8 `crc` feature.
    #[target_feature(enable = "crc")]
    pub(super) unsafe fn crc_update_hw(mut state: u32, words: &[u32]) -> u32 {
        let mut blocks = words.chunks_exact(SUPER_WORDS);
        for block in &mut blocks {
            let (a, rest) = block.split_at(LANE_WORDS);
            let (b, rest) = rest.split_at(LANE_WORDS);
            let (c, d) = rest.split_at(LANE_WORDS);
            let mut s0 = state;
            let (mut s1, mut s2, mut s3) = (0u32, 0u32, 0u32);
            let mut i = 0;
            while i < LANE_WORDS {
                s0 = __crc32cd(s0, stream_u64(a, i));
                s1 = __crc32cd(s1, stream_u64(b, i));
                s2 = __crc32cd(s2, stream_u64(c, i));
                s3 = __crc32cd(s3, stream_u64(d, i));
                i += 2;
            }
            state =
                advance(&ADVANCE[2], s0) ^ advance(&ADVANCE[1], s1) ^ advance(&ADVANCE[0], s2) ^ s3;
        }
        let tail = blocks.remainder();
        let mut pairs = tail.chunks_exact(2);
        for p in &mut pairs {
            state = __crc32cd(state, stream_u64(p, 0));
        }
        if let &[w] = pairs.remainder() {
            state = __crc32cw(state, w.swap_bytes());
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_selects_portable() {
        assert_eq!(Dispatch::detect(true), Dispatch::portable());
        assert_eq!(Dispatch::detect(true).crc.name(), "portable-folded");
        assert_eq!(Dispatch::detect(true).fill.name(), "portable-splitmix");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_detection_matches_cpu_features() {
        let d = Dispatch::detect(false);
        let sse42 = std::arch::is_x86_feature_detected!("sse4.2");
        let clmul = sse42 && std::arch::is_x86_feature_detected!("pclmulqdq");
        let expect = if clmul {
            CrcPath::Clmul
        } else if sse42 {
            CrcPath::HwCrc
        } else {
            CrcPath::Portable
        };
        assert_eq!(d.crc, expect);
        let fused = clmul
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("vpclmulqdq");
        let fill = if fused {
            FillPath::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            FillPath::Avx2
        } else {
            FillPath::Portable
        };
        assert_eq!(d.fill, fill);
    }

    #[test]
    fn probe_entry_points_agree_with_portable() {
        let words: Vec<u32> = (0..700u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for len in [0usize, 1, 2, 3, 15, 16, 17, 127, 128, 129, 512, 700] {
            let expect = crate::crc::crc_words_folded(&words[..len]);
            if let Some(hw) = crc_words_hw(&words[..len]) {
                assert_eq!(hw, expect, "hw at {len}");
            }
            if let Some(cl) = crc_words_clmul(&words[..len]) {
                assert_eq!(cl, expect, "clmul at {len}");
            }
        }
    }

    #[test]
    fn simd_fill_matches_portable() {
        for len in [0usize, 1, 7, 8, 9, 16, 17, 64, 333] {
            let mut portable = vec![0u32; len];
            fill_words_portable(0xDEAD_BEEF_0123_4567, &mut portable);
            let mut avx2 = vec![0u32; len];
            if fill_words_avx2(0xDEAD_BEEF_0123_4567, &mut avx2) {
                assert_eq!(avx2, portable, "avx2 len {len}");
            }
            let mut fused = vec![0u32; len];
            if let Some(state) = fill_crc_words_avx512(0xDEAD_BEEF_0123_4567, &mut fused, !0) {
                assert_eq!(fused, portable, "fused len {len}");
                assert_eq!(
                    !state,
                    crate::crc::crc_words_folded(&portable),
                    "fused crc len {len}"
                );
            }
        }
    }
}
