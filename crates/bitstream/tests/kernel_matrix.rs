//! Kernel-matrix equivalence: every compiled CRC and payload-fill
//! variant — frozen bitwise baseline, portable folded, the
//! runtime-dispatched entry points, and whichever hardware kernels this
//! CPU exposes (PCLMULQDQ fold, ARMv8 `crc32c*`, AVX2 fill, the fused
//! AVX-512 fill + VPCLMULQDQ CRC) — must be
//! byte-identical on arbitrary inputs, including empty, single-word and
//! odd tails, and must reproduce the standard CRC-32C check vector.
//!
//! The hardware variants are probed through `bitstream::arch`'s
//! `Option`/`bool` entry points, so this suite automatically covers
//! exactly the set of kernels that can run on the host: on an x86
//! machine without PCLMULQDQ it degenerates to the portable matrix, and under
//! `PRFPGA_FORCE_SCALAR=1` the dispatched entry point is additionally
//! pinned to the portable result (CI runs the suite both ways).

use bitstream::arch::{self, Dispatch};
use bitstream::crc::baseline::crc_words_bitwise;
use bitstream::crc::{crc_bytes, crc_words, crc_words_folded};
use proptest::prelude::*;

/// The writer's splitmix increment (frozen; also asserted against the
/// emitted-bitstream digests in the writer's own suites).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The frozen reference payload generator: the serial `state += GAMMA`
/// walk of `writer::reference`, which every counter-form fill kernel
/// must reproduce exactly.
fn fill_reference(seed: u64, out: &mut [u32]) {
    let mut state = seed;
    for w in out.iter_mut() {
        state = state.wrapping_add(GAMMA);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *w = (z ^ (z >> 31)) as u32;
    }
}

/// Compute the checksum through every variant compiled for (and
/// supported by) this host, labelled for diagnostics.
fn crc_matrix(words: &[u32]) -> Vec<(&'static str, u32)> {
    let mut m = vec![
        ("bitwise-baseline", crc_words_bitwise(words)),
        ("portable-folded", crc_words_folded(words)),
        ("dispatch", crc_words(words)),
    ];
    if let Some(hw) = arch::crc_words_hw(words) {
        m.push(("hw-crc32c", hw));
    }
    if let Some(cl) = arch::crc_words_clmul(words) {
        m.push(("clmul-fold", cl));
    }
    m
}

/// Assert the whole matrix agrees; returns the agreed value.
fn assert_crc_matrix_agrees(words: &[u32], ctx: &str) -> u32 {
    let m = crc_matrix(words);
    let (_, expect) = m[0];
    for (name, got) in &m {
        assert_eq!(*got, expect, "{name} disagrees with bitwise ({ctx})");
    }
    expect
}

/// Every fill variant against the frozen serial reference.
fn assert_fill_matrix_agrees(seed: u64, len: usize) {
    let mut reference = vec![0u32; len];
    fill_reference(seed, &mut reference);
    let mut portable = vec![0u32; len];
    arch::fill_words_portable(seed, &mut portable);
    assert_eq!(portable, reference, "portable fill (len {len})");
    let mut dispatched = vec![0u32; len];
    arch::fill_words(seed, &mut dispatched);
    assert_eq!(dispatched, reference, "dispatched fill (len {len})");
    let mut avx2 = vec![0u32; len];
    if arch::fill_words_avx2(seed, &mut avx2) {
        assert_eq!(avx2, reference, "avx2 fill (len {len})");
    }
}

/// Every fill-and-CRC entry this host runs, each filling a fresh
/// `len`-word buffer from `seed` and advancing the raw CRC `state` over
/// it, labelled: (name, words, new state).
fn fill_crc_matrix(seed: u64, len: usize, state: u32) -> Vec<(&'static str, Vec<u32>, u32)> {
    let mut dispatched = vec![0u32; len];
    let out = arch::fill_crc_words(seed, &mut dispatched, state);
    let mut m = vec![("dispatched", dispatched, out)];
    let mut fused = vec![0u32; len];
    if let Some(out) = arch::fill_crc_words_avx512(seed, &mut fused, state) {
        m.push(("avx512-fused", fused, out));
    }
    m
}

/// The fill-and-CRC oracle: the portable fill, checksummed by the frozen
/// bitwise loop after `prefix`, so the incoming raw state is the one
/// `prefix` leaves (any state: one prefix word already reaches every
/// value). Returns (incoming state, words, outgoing state).
fn fill_crc_oracle(seed: u64, len: usize, prefix: &[u32]) -> (u32, Vec<u32>, u32) {
    let mut words = vec![0u32; len];
    arch::fill_words_portable(seed, &mut words);
    let state_in = !crc_words_bitwise(prefix);
    let state_out = !crc_words_bitwise(&[prefix, &words].concat());
    (state_in, words, state_out)
}

/// Every fill-and-CRC entry against the oracle.
fn assert_fill_crc_matrix_agrees(seed: u64, len: usize, prefix: &[u32]) {
    let (state, words, expect) = fill_crc_oracle(seed, len, prefix);
    for (name, got_words, got) in fill_crc_matrix(seed, len, state) {
        assert_eq!(got_words, words, "{name} fill (len {len})");
        assert_eq!(got, expect, "{name} crc (len {len}, prefix {prefix:?})");
    }
}

/// The standard CRC-32C check vector (RFC 3720): "123456789" →
/// 0xE3069283, through the byte entry point and — for the word-level
/// kernels — its 8-byte prefix as two big-endian configuration words.
#[test]
fn check_vector_through_every_kernel() {
    assert_eq!(crc_bytes(b"123456789"), 0xE306_9283);
    let prefix = [0x3132_3334u32, 0x3536_3738];
    let expect = crc_words_bitwise(&prefix);
    assert_eq!(
        assert_crc_matrix_agrees(&prefix, "check-vector prefix"),
        expect
    );
}

/// Boundary lengths around every kernel's internal block sizes: the
/// 16-word CLMUL block, the 128-byte lanes and 512-byte super-blocks of
/// the folded kernels, and ragged odd tails (the hardware CRC pair loops'
/// single-word remainder).
#[test]
fn crc_matrix_boundary_lengths() {
    let words: Vec<u32> = (0..1200u32).map(|i| i.wrapping_mul(0x6C07_8965)).collect();
    for len in [
        0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130, 255,
        256, 257, 383, 384, 511, 512, 513, 516, 639, 640, 1024, 1100, 1200,
    ] {
        assert_crc_matrix_agrees(&words[..len], &format!("len {len}"));
    }
}

/// Fill boundary lengths around the fused AVX-512 kernel's 16-word block, the
/// AVX2 kernel's 8-word block and the portable kernel's 4-word unroll,
/// including empty and odd tails.
const FILL_LENGTHS: [usize; 20] = [
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 333, 511, 512, 513,
];

#[test]
fn fill_matrix_boundary_lengths() {
    for len in FILL_LENGTHS {
        assert_fill_matrix_agrees(0xDEAD_BEEF_0123_4567, len);
        assert_fill_matrix_agrees(u64::MAX, len);
        assert_fill_matrix_agrees(0, len);
    }
}

/// The fill-and-CRC entries at the same boundary lengths, from the
/// initial CRC state and from states a prefix leaves.
#[test]
fn fill_crc_matrix_boundary_lengths() {
    for len in FILL_LENGTHS {
        for prefix in [&[][..], &[0x0123_4567], &[u32::MAX, 7]] {
            assert_fill_crc_matrix_agrees(0xDEAD_BEEF_0123_4567, len, prefix);
            assert_fill_crc_matrix_agrees(u64::MAX, len, prefix);
            assert_fill_crc_matrix_agrees(0, len, prefix);
        }
    }
}

/// The process-wide selection must be exactly what `Dispatch::detect`
/// derives from the environment: under `PRFPGA_FORCE_SCALAR` the scalar
/// path, otherwise the native feature probe. (A dedicated single-test
/// binary, `tests/force_scalar.rs`, pins the env var itself; here we
/// assert consistency with whatever environment CI gave us.)
#[test]
fn active_dispatch_matches_environment() {
    assert_eq!(arch::active(), Dispatch::detect(arch::force_scalar_env()));
    if arch::force_scalar_env() {
        assert_eq!(arch::active(), Dispatch::portable());
    }
}

proptest! {
    /// Property: the full CRC kernel matrix agrees on arbitrary word
    /// slices spanning several super-blocks plus ragged tails.
    #[test]
    fn crc_matrix_on_arbitrary_words(words in proptest::collection::vec(any::<u32>(), 0..700)) {
        let m = crc_matrix(&words);
        let (_, expect) = m[0];
        for (name, got) in &m {
            prop_assert_eq!(*got, expect, "{} disagrees with bitwise", name);
        }
    }

    /// Property: every fill kernel reproduces the frozen serial
    /// reference walk for arbitrary seeds and lengths.
    #[test]
    fn fill_matrix_on_arbitrary_inputs(seed in any::<u64>(), len in 0usize..600) {
        let mut reference = vec![0u32; len];
        fill_reference(seed, &mut reference);
        let mut portable = vec![0u32; len];
        arch::fill_words_portable(seed, &mut portable);
        prop_assert_eq!(&portable, &reference);
        let mut dispatched = vec![0u32; len];
        arch::fill_words(seed, &mut dispatched);
        prop_assert_eq!(&dispatched, &reference);
        let mut avx2 = vec![0u32; len];
        if arch::fill_words_avx2(seed, &mut avx2) {
            prop_assert_eq!(&avx2, &reference);
        }
    }

    /// Property: every fill-and-CRC entry equals the portable fill plus
    /// the frozen bitwise CRC for arbitrary seeds, lengths and incoming
    /// CRC states.
    #[test]
    fn fill_crc_matrix_on_arbitrary_inputs(
        seed in any::<u64>(),
        len in 0usize..600,
        prefix in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let (state, words, expect) = fill_crc_oracle(seed, len, &prefix);
        for (name, got_words, got) in fill_crc_matrix(seed, len, state) {
            prop_assert_eq!(&got_words, &words, "{} fill", name);
            prop_assert_eq!(got, expect, "{} crc", name);
        }
    }
}
