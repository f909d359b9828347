//! Bitstream CRC.
//!
//! Real Virtex devices accumulate a hardware CRC over {register, word}
//! pairs; this crate uses a table-driven CRC-32C (Castagnoli) over the raw
//! configuration words, which preserves the property the final-words check
//! relies on: any corruption of configuration payload is detected when the
//! parser recomputes the checksum.
//!
//! Two kernels share the state update:
//!
//! * **Slice-16** — sixteen 256-entry tables, built at compile time by a
//!   `const fn`, fold sixteen bytes (four configuration words) per chain
//!   step — 16 independent table lookups instead of 128 shift/xor bit
//!   steps. This is the tail/fallback path and the incremental
//!   [`Crc32::push_word`] path.
//! * **Folded** — the CRC update is a serial dependency chain (each step
//!   needs the previous state), and on word-slice inputs that chain, not
//!   the table lookups, is the throughput limit. [`crc_words`] therefore
//!   folds large inputs polynomial-style: each 512-byte super-block is
//!   split into four contiguous 128-byte lanes whose CRC states evolve
//!   **independently** (four interleaved slice-16 chains, 64 bytes per
//!   combined chain step), and the lane states are recombined with
//!   precomputed `x^(8·128k) mod P` advance operators — the same algebra
//!   a carryless-multiply (CLMUL) folding kernel uses, expressed
//!   portably as per-byte xor tables over the reflected polynomial.
//!   Lane combination is exact because the CRC register update is
//!   GF(2)-linear in both state and message.
//!
//! The seed's bitwise loop is frozen in [`baseline`]; the portable entry
//! points are property-tested equivalent to it on arbitrary inputs,
//! including empty, single-word and non-multiple-of-fold-width tails.
//!
//! On CPUs with hardware CRC-32C support the batch entry points do not
//! run either portable kernel: [`Crc32::push_words`] routes through
//! [`crate::arch`], which detects CPU features once per process and
//! dispatches to the x86 PCLMULQDQ folding or the ARMv8 `crc32c` kernel
//! when available (the CRC-32C polynomial is natively supported by both
//! ISAs). The portable folded kernel above remains the
//! always-compiled fallback and the `PRFPGA_FORCE_SCALAR=1` path; every
//! variant is property-tested byte-identical to the frozen [`baseline`]
//! in `tests/kernel_matrix.rs`.

/// CRC-32C (Castagnoli) polynomial, reflected form.
const POLY: u32 = 0x82F6_3B78;

/// Slicing lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so `k` indexes how far the byte sits from the end of the
/// 16-byte block being folded.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Fold one 32-bit block (4 message bytes, little-endian in `x`, already
/// xored with the running state) through tables `lo..lo+4`.
#[inline(always)]
const fn fold4(x: u32, lo: usize) -> u32 {
    TABLES[lo + 3][(x & 0xFF) as usize]
        ^ TABLES[lo + 2][((x >> 8) & 0xFF) as usize]
        ^ TABLES[lo + 1][((x >> 16) & 0xFF) as usize]
        ^ TABLES[lo][((x >> 24) & 0xFF) as usize]
}

// ------------------------------------------------------ folded kernel
//
// The folded kernel breaks the serial state-update chain by running four
// independent CRC chains over four contiguous lanes of each super-block
// and recombining the lane states algebraically. Recombination uses
// "advance" operators: `advance_n(s)` is the CRC register after feeding
// `n` zero bytes from state `s`, i.e. multiplication of the state
// polynomial by `x^(8n) mod P` in the reflected domain. The operator is
// GF(2)-linear in `s`, so it decomposes into four per-byte xor tables —
// the portable equivalent of a CLMUL fold constant.

/// Words per lane per super-block (128 bytes).
pub(crate) const LANE_WORDS: usize = 32;
/// Lanes per super-block.
pub(crate) const LANES: usize = 4;
/// Words per super-block (512 bytes). Inputs shorter than this take the
/// slice-16 path.
pub(crate) const SUPER_WORDS: usize = LANE_WORDS * LANES;

/// One advance operator: `OP[k][b]` is `advance_n` of the state whose
/// `k`-th byte is `b` and whose other bytes are zero.
pub(crate) type AdvanceOp = [[u32; 256]; 4];

/// Advance `s` by `n` zero bytes, one table step per byte (const builder
/// only — the runtime path uses the precomputed operators).
const fn advance_bytewise(mut s: u32, n: usize) -> u32 {
    let mut i = 0;
    while i < n {
        s = (s >> 8) ^ TABLES[0][(s & 0xFF) as usize];
        i += 1;
    }
    s
}

/// Apply a precomputed advance operator to a state.
#[inline(always)]
pub(crate) fn advance(op: &AdvanceOp, s: u32) -> u32 {
    op[0][(s & 0xFF) as usize]
        ^ op[1][((s >> 8) & 0xFF) as usize]
        ^ op[2][((s >> 16) & 0xFF) as usize]
        ^ op[3][(s >> 24) as usize]
}

/// `const`-compatible [`advance`] for composing operators at build time.
const fn advance_const(op: &AdvanceOp, s: u32) -> u32 {
    op[0][(s & 0xFF) as usize]
        ^ op[1][((s >> 8) & 0xFF) as usize]
        ^ op[2][((s >> 16) & 0xFF) as usize]
        ^ op[3][(s >> 24) as usize]
}

const fn build_advance_op(n: usize) -> AdvanceOp {
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = advance_bytewise((b as u32) << (8 * k), n);
            b += 1;
        }
        k += 1;
    }
    t
}

/// Compose two advance operators: `advance_{m+n} = advance_m ∘ advance_n`.
const fn compose_advance_ops(outer: &AdvanceOp, inner: &AdvanceOp) -> AdvanceOp {
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = advance_const(outer, inner[k][b]);
            b += 1;
        }
        k += 1;
    }
    t
}

/// `ADVANCE[k-1]` advances a state by `k` lanes (`k·128` zero bytes),
/// i.e. multiplies it by `x^(1024k) mod P`. Built once at compile time:
/// the one-lane operator bytewise, the others by operator composition.
pub(crate) static ADVANCE: [AdvanceOp; LANES - 1] = build_advance_ops();

const fn build_advance_ops() -> [AdvanceOp; LANES - 1] {
    let a1 = build_advance_op(LANE_WORDS * 4);
    let a2 = compose_advance_ops(&a1, &a1);
    let a3 = compose_advance_ops(&a1, &a2);
    [a1, a2, a3]
}

/// Fold one 4-word (16-byte) group into a lane state — the slice-16
/// inner step, shared by all lanes.
#[inline(always)]
fn fold_quad(state: u32, q: &[u32]) -> u32 {
    fold4(state ^ q[0].swap_bytes(), 12)
        ^ fold4(q[1].swap_bytes(), 8)
        ^ fold4(q[2].swap_bytes(), 4)
        ^ fold4(q[3].swap_bytes(), 0)
}

/// Fold a whole number of super-blocks (`words.len()` must be a multiple
/// of [`SUPER_WORDS`]) into `state`. Per super-block: four independent
/// lane chains (64 bytes advance per combined chain step), then one
/// operator application per lane to recombine.
fn fold_super_blocks(mut state: u32, words: &[u32]) -> u32 {
    debug_assert_eq!(words.len() % SUPER_WORDS, 0);
    for block in words.chunks_exact(SUPER_WORDS) {
        let (a, rest) = block.split_at(LANE_WORDS);
        let (b, rest) = rest.split_at(LANE_WORDS);
        let (c, d) = rest.split_at(LANE_WORDS);
        // Lane 0 starts from the running state; lanes 1..3 start from
        // zero and contribute linearly after an advance.
        let mut s0 = state;
        let (mut s1, mut s2, mut s3) = (0u32, 0u32, 0u32);
        for (((qa, qb), qc), qd) in a
            .chunks_exact(4)
            .zip(b.chunks_exact(4))
            .zip(c.chunks_exact(4))
            .zip(d.chunks_exact(4))
        {
            s0 = fold_quad(s0, qa);
            s1 = fold_quad(s1, qb);
            s2 = fold_quad(s2, qc);
            s3 = fold_quad(s3, qd);
        }
        // F(a|b|c|d, s) = adv3(F(a,s)) ^ adv2(F(b,0)) ^ adv1(F(c,0)) ^ F(d,0)
        state = advance(&ADVANCE[2], s0) ^ advance(&ADVANCE[1], s1) ^ advance(&ADVANCE[0], s2) ^ s3;
    }
    state
}

/// Advance a raw CRC state through the slice-16 chain (four words / 16
/// bytes per serial chain step, byte-table tail). The shared scalar
/// update every portable entry point and every SIMD kernel tail is
/// defined against.
#[inline]
pub(crate) fn update_slice16(mut state: u32, words: &[u32]) -> u32 {
    let mut chunks = words.chunks_exact(4);
    for quad in &mut chunks {
        let x0 = state ^ quad[0].swap_bytes();
        let x1 = quad[1].swap_bytes();
        let x2 = quad[2].swap_bytes();
        let x3 = quad[3].swap_bytes();
        state = fold4(x0, 12) ^ fold4(x1, 8) ^ fold4(x2, 4) ^ fold4(x3, 0);
    }
    for &w in chunks.remainder() {
        state = fold4(state ^ w.swap_bytes(), 0);
    }
    state
}

/// Advance a raw CRC state over a word slice with the portable folded
/// kernel (four-lane fold on whole super-blocks, slice-16 tail). This is
/// the scalar end of the [`crate::arch`] dispatch table and the
/// always-compiled fallback on CPUs without hardware CRC support.
#[inline]
pub(crate) fn update_portable(mut state: u32, words: &[u32]) -> u32 {
    let split = words.len() - words.len() % SUPER_WORDS;
    if split > 0 {
        state = fold_super_blocks(state, &words[..split]);
    }
    update_slice16(state, &words[split..])
}

/// Reflected fold constant for the carryless-multiply kernels:
/// `rev32(x^bits mod P) << 1`, the form a `PCLMULQDQ`/`PMULL` folding
/// step multiplies a 64-bit accumulator half by. Derived from the same
/// `advance_bytewise` machinery as the table operators (advancing the
/// state `rev32(1)` by `bits/8` zero bytes multiplies it by `x^bits`),
/// so the constants share the property-tested CRC algebra rather than
/// being transcribed from a reference table. `bits` must be a positive
/// multiple of 8.
pub(crate) const fn clmul_fold_const(bits: u32) -> u64 {
    (advance_bytewise(0x8000_0000, (bits / 8) as usize) as u64) << 1
}

/// Incremental CRC accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb one configuration word (big-endian byte order, as
    /// transmitted to the ICAP). Slice-by-4: four table lookups.
    #[inline]
    pub fn push_word(&mut self, word: u32) {
        // The word's big-endian bytes, first-transmitted byte lowest.
        self.state = fold4(self.state ^ word.swap_bytes(), 0);
    }

    /// Absorb a slice of configuration words — the batch fast path used
    /// by [`crc_words`] and the bitstream parser.
    ///
    /// Routes through the [`crate::arch`] dispatch table: hardware
    /// CRC-32C / carryless-multiply kernels where the CPU supports them,
    /// otherwise the portable path (inputs of at least one super-block /
    /// 512 bytes go through the four-lane folded kernel; the remainder
    /// and short inputs take the slice-16 chain). Every kernel computes
    /// the same CRC, so results are independent of how a stream is split
    /// across calls and of which CPU runs it.
    #[inline]
    pub fn push_words(&mut self, words: &[u32]) {
        self.state = crate::arch::crc_update(self.state, words);
    }

    /// Fill `out` with the writer's deterministic frame payload for
    /// `seed` and absorb it, through one dispatched
    /// [`crate::arch::fill_crc_words`] call: the fused AVX-512 kernel
    /// folds each generated vector before it leaves registers, other
    /// hosts fill and then checksum.
    #[inline]
    pub(crate) fn fill_and_push(&mut self, seed: u64, out: &mut [u32]) {
        self.state = crate::arch::fill_crc_words(seed, out, self.state);
    }

    /// Absorb raw bytes in transmission order. Byte-granular entry point
    /// (the word-based API is the hardware-faithful one; this exists for
    /// byte-aligned vectors and tail handling).
    #[inline]
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let x0 = self.state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let x1 = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            let x2 = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
            let x3 = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
            self.state = fold4(x0, 12) ^ fold4(x1, 8) ^ fold4(x2, 4) ^ fold4(x3, 0);
        }
        for &b in chunks.remainder() {
            self.state =
                (self.state >> 8) ^ TABLES[0][((self.state ^ u32::from(b)) & 0xFF) as usize];
        }
    }

    /// Final checksum value.
    pub fn value(&self) -> u32 {
        !self.state
    }
}

/// Checksum a word slice in one call through the runtime-dispatched
/// kernel (hardware CRC / carryless multiply where available, otherwise
/// the folded kernel for ≥512-byte inputs with a slice-16 tail).
pub fn crc_words(words: &[u32]) -> u32 {
    let mut crc = Crc32::new();
    crc.push_words(words);
    crc.value()
}

/// Checksum a word slice, forcing the portable folded kernel over every
/// complete super-block regardless of CPU features (equivalent to
/// [`crc_words`]; exists so benchmarks and equivalence tests can name
/// the folded path explicitly).
pub fn crc_words_folded(words: &[u32]) -> u32 {
    !update_portable(0xFFFF_FFFF, words)
}

/// Checksum a byte slice in one call (16 bytes folded per step).
pub fn crc_bytes(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.push_bytes(bytes);
    crc.value()
}

pub mod baseline {
    //! The seed's bitwise CRC, frozen as the equivalence oracle and the
    //! "before" side of the `crc_slice8` benchmark. One shift/xor step
    //! per bit, 32 steps per word — do not use outside tests/benches.

    use super::POLY;

    /// Bitwise (one bit per step) CRC-32C accumulator.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BitwiseCrc32 {
        state: u32,
    }

    impl Default for BitwiseCrc32 {
        fn default() -> Self {
            Self::new()
        }
    }

    impl BitwiseCrc32 {
        /// Fresh accumulator.
        pub fn new() -> Self {
            BitwiseCrc32 { state: 0xFFFF_FFFF }
        }

        /// Absorb one configuration word, bit by bit (the seed loop).
        pub fn push_word(&mut self, word: u32) {
            for byte in word.to_be_bytes() {
                self.push_byte(byte);
            }
        }

        /// Absorb one byte, bit by bit.
        pub fn push_byte(&mut self, byte: u8) {
            self.state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (self.state & 1).wrapping_neg();
                self.state = (self.state >> 1) ^ (POLY & mask);
            }
        }

        /// Final checksum value.
        pub fn value(&self) -> u32 {
            !self.state
        }
    }

    /// Checksum a word slice with the seed's bitwise loop.
    pub fn crc_words_bitwise(words: &[u32]) -> u32 {
        let mut crc = BitwiseCrc32::new();
        for &w in words {
            crc.push_word(w);
        }
        crc.value()
    }

    /// Checksum a byte slice with the seed's bitwise loop.
    pub fn crc_bytes_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = BitwiseCrc32::new();
        for &b in bytes {
            crc.push_byte(b);
        }
        crc.value()
    }
}

#[cfg(test)]
mod tests {
    use super::baseline::{crc_bytes_bitwise, crc_words_bitwise};
    use super::*;
    use proptest::prelude::*;

    /// The standard CRC-32C check vector: CRC of the ASCII bytes
    /// "123456789" is 0xE3069283 (RFC 3720 / Castagnoli reference).
    /// Both the slice-by-8 and the frozen bitwise implementation must
    /// reproduce it.
    #[test]
    fn known_vector() {
        let msg = b"123456789";
        assert_eq!(crc_bytes(msg), 0xE306_9283);
        assert_eq!(crc_bytes_bitwise(msg), 0xE306_9283);
        // Word-level: the first 8 bytes as two big-endian words plus the
        // trailing '9' byte must accumulate to the same checksum.
        let mut crc = Crc32::new();
        crc.push_words(&[0x3132_3334, 0x3536_3738]);
        crc.push_bytes(b"9");
        assert_eq!(crc.value(), 0xE306_9283);
    }

    #[test]
    fn detects_single_bit_flips() {
        let words = [0xDEAD_BEEF, 0x1234_5678, 0x0000_0000, 0xFFFF_FFFF];
        let base = crc_words(&words);
        for i in 0..words.len() {
            for bit in [0, 7, 15, 31] {
                let mut corrupted = words;
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc_words(&corrupted), base, "flip word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let words = [1u32, 2, 3, 4, 5];
        let mut inc = Crc32::new();
        for &w in &words {
            inc.push_word(w);
        }
        assert_eq!(inc.value(), crc_words(&words));
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc_words(&[]), 0);
        assert_eq!(crc_bytes(&[]), 0);
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(crc_words(&[1, 2]), crc_words(&[2, 1]));
    }

    #[test]
    fn mixed_incremental_chunking_is_stable() {
        // Split the same stream arbitrarily across push_word/push_words
        // calls: odd/even split points exercise the chunk remainders, and
        // splits near 128/256 words exercise the super-block boundary of
        // the folded kernel.
        let words: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let oneshot = crc_words(&words);
        for split in [0, 1, 2, 7, 16, 32, 33, 127, 128, 129, 255, 256, 257, 300] {
            let mut crc = Crc32::new();
            crc.push_words(&words[..split]);
            for &w in &words[split..] {
                crc.push_word(w);
            }
            assert_eq!(crc.value(), oneshot, "split at {split}");
        }
    }

    /// The folded kernel must agree with the frozen bitwise loop at every
    /// length around its dispatch boundaries: empty, one word, one short
    /// of / exactly / one past each super-block multiple, and ragged
    /// tails.
    #[test]
    fn folded_kernel_boundary_lengths() {
        let words: Vec<u32> = (0..1100u32).map(|i| i.wrapping_mul(0x6C07_8965)).collect();
        for len in [
            0usize, 1, 2, 3, 4, 5, 31, 32, 63, 127, 128, 129, 130, 255, 256, 257, 383, 384, 511,
            512, 513, 516, 639, 640, 1024, 1100,
        ] {
            let s = &words[..len];
            let folded = crc_words_folded(s);
            assert_eq!(folded, crc_words_bitwise(s), "folded vs bitwise at {len}");
            assert_eq!(folded, crc_words(s), "folded vs dispatch at {len}");
        }
    }

    /// The standard check vector, carried through the folded path: a
    /// stream long enough to engage the fold, followed by "123456789",
    /// must produce the same checksum whichever kernel absorbed the
    /// prefix — and the pure 9-byte vector still hits 0xE3069283 through
    /// the dispatching entry points.
    #[test]
    fn check_vector_through_folded_path() {
        let prefix: Vec<u32> = (0..640u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut folded = Crc32::new();
        folded.push_words(&prefix); // ≥ SUPER_WORDS: folded kernel
        folded.push_bytes(b"123456789");
        let mut per_word = Crc32::new();
        for &w in &prefix {
            per_word.push_word(w);
        }
        per_word.push_bytes(b"123456789");
        assert_eq!(folded.value(), per_word.value());
        assert_eq!(crc_bytes(b"123456789"), 0xE306_9283);
    }

    proptest! {
        /// Property: slice-by-8 ≡ the seed's bitwise loop on arbitrary
        /// word slices.
        #[test]
        fn slice8_equals_bitwise_on_words(words in proptest::collection::vec(any::<u32>(), 0..300)) {
            prop_assert_eq!(crc_words(&words), crc_words_bitwise(&words));
        }

        /// Property: folded kernel ≡ the frozen bitwise loop on
        /// arbitrary-length word slices (lengths span several
        /// super-blocks plus ragged tails).
        #[test]
        fn folded_equals_bitwise(words in proptest::collection::vec(any::<u32>(), 0..700)) {
            prop_assert_eq!(crc_words_folded(&words), crc_words_bitwise(&words));
        }

        /// Property: byte-granular slice-by-8 ≡ bitwise on arbitrary byte
        /// slices (exercises the non-multiple-of-8 tails).
        #[test]
        fn slice8_equals_bitwise_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
            prop_assert_eq!(crc_bytes(&bytes), crc_bytes_bitwise(&bytes));
        }

        /// Property: word API ≡ byte API on the big-endian transmission
        /// byte stream.
        #[test]
        fn words_equal_their_be_bytes(words in proptest::collection::vec(any::<u32>(), 0..200)) {
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
            prop_assert_eq!(crc_words(&words), crc_bytes(&bytes));
        }
    }
}
