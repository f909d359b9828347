//! Verifies that `PRFPGA_FORCE_SCALAR=1` actually selects the scalar
//! kernels: this binary contains a single test so it can safely pin the
//! environment variable before the process-wide dispatch table is
//! built, then assert the portable selection *and* that the dispatched
//! entry points still compute correct results through it.

use bitstream::arch::{self, Dispatch};
use bitstream::crc::baseline::crc_words_bitwise;
use bitstream::crc::{crc_bytes, crc_words};

#[test]
fn force_scalar_env_selects_portable_kernels() {
    // Single-test binary: no other thread can have touched the dispatch
    // table yet, and no other test observes the env mutation.
    std::env::set_var("PRFPGA_FORCE_SCALAR", "1");
    assert!(arch::force_scalar_env());
    assert_eq!(arch::active(), Dispatch::portable());
    assert_eq!(arch::active().crc.name(), "portable-folded");
    assert_eq!(arch::active().fill.name(), "portable-splitmix");

    // The dispatched entry points must still be correct on the scalar
    // path: standard check vector plus a multi-super-block stream
    // against the frozen bitwise oracle.
    assert_eq!(crc_bytes(b"123456789"), 0xE306_9283);
    let words: Vec<u32> = (0..700u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    assert_eq!(crc_words(&words), crc_words_bitwise(&words));

    let mut dispatched = vec![0u32; 333];
    arch::fill_words(0xABCD_EF01_2345_6789, &mut dispatched);
    let mut portable = vec![0u32; 333];
    arch::fill_words_portable(0xABCD_EF01_2345_6789, &mut portable);
    assert_eq!(dispatched, portable);

    // The writer's fill-and-CRC entry: the portable fill, checksummed
    // like the bitwise oracle.
    let mut filled = vec![0u32; 333];
    let state = arch::fill_crc_words(0xABCD_EF01_2345_6789, &mut filled, 0xFFFF_FFFF);
    assert_eq!(filled, portable);
    assert_eq!(!state, crc_words_bitwise(&portable));
}
