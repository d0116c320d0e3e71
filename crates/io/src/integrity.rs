//! CRC-64 payload checksums for checkpoint/restart integrity.
//!
//! Checkpoints written by `rbx-core` embed a per-variable CRC-64 so that a
//! torn write, a bad disk, or a bit flip in transit is *detected at
//! restart time* instead of silently corrupting weeks of DNS trajectory.
//! The variant is CRC-64/XZ (reflected ECMA-182 polynomial), the same one
//! used by the `xz` container, chosen because its check value is easy to
//! validate against independent implementations.

use std::sync::OnceLock;

/// Reflected ECMA-182 generator polynomial (CRC-64/XZ).
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `[0]` is the bytewise CRC table, and `[k][b]` is
/// `[k - 1][b]` advanced over one more zero byte, so one lookup per byte
/// folds eight input bytes into the state at once.
fn tables() -> &'static [[u64; 256]; 8] {
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u64; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][low_byte(prev)];
            }
        }
        t
    })
}

/// The least significant byte of `x`, as a table index.
fn low_byte(x: u64) -> usize {
    (x & 0xff) as usize
}

/// `x^n mod P` in the reflected representation the table uses (bit `i`
/// holds the coefficient of `x^(63 - i)`): start from `x^0` and multiply
/// by `x` `n` times with the table's own shift-and-reduce step.
const fn xpow_mod(n: u32) -> u64 {
    let mut r = 1u64 << 63;
    let mut i = 0;
    while i < n {
        r = if r & 1 == 1 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// Carry-less-multiply keys that advance a 128-bit accumulator by `bits`.
/// The accumulator's low quadword holds its high-degree half `H` and the
/// high quadword its low half `L`, so `X·x^bits = H·x^(bits+64) +
/// L·x^bits`; a reflected carry-less product carries one extra factor of
/// `x`, hence the `- 1` in both exponents. Index 0 multiplies `H`.
const fn fold_keys(bits: u32) -> [u64; 2] {
    [xpow_mod(bits + 63), xpow_mod(bits - 1)]
}

/// Keys for one 16-byte block and for the four-lane 64-byte stride.
const FOLD_16: [u64; 2] = fold_keys(128);
const FOLD_64: [u64; 2] = fold_keys(512);

/// Shortest input the folding path takes: one four-lane stride.
const FOLD_MIN: usize = 64;

/// Slicing-by-8 CRC update: the portable path, and the reduction that
/// finishes a fold.
fn update_table(mut crc: u64, data: &[u8]) -> u64 {
    let t = tables();
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(w);
        let x = crc ^ u64::from_le_bytes(le);
        crc = t[7][low_byte(x)]
            ^ t[6][low_byte(x >> 8)]
            ^ t[5][low_byte(x >> 16)]
            ^ t[4][low_byte(x >> 24)]
            ^ t[3][low_byte(x >> 32)]
            ^ t[2][low_byte(x >> 40)]
            ^ t[1][low_byte(x >> 48)]
            ^ t[0][low_byte(x >> 56)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][low_byte(crc ^ u64::from(b))];
    }
    crc
}

/// Carry-less-multiply folding (PCLMULQDQ), four 128-bit lanes wide.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{update_table, FOLD_16, FOLD_64, FOLD_MIN};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi64_si128, _mm_loadu_si128, _mm_set_epi64x,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Whether this CPU can run [`update_folded`] (the SSE2 loads and
    /// stores are part of x86-64).
    pub(super) fn clmul_available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// Load one 16-byte block.
    #[inline]
    fn load_block(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }

    /// `acc` advanced by the distance `keys` encode (see `fold_keys`).
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_by(acc: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(acc, keys, 0x00),
            _mm_clmulepi64_si128(acc, keys, 0x11),
        )
    }

    /// Keys as a vector: index 0 in the low quadword.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn key_vector(k: [u64; 2]) -> __m128i {
        _mm_set_epi64x(k[1] as i64, k[0] as i64)
    }

    /// The 16 bytes of `chunk` from `at` on (zeros if it is shorter, which
    /// the callers' exact chunking rules out).
    fn block_at(chunk: &[u8], at: usize) -> &[u8; 16] {
        chunk
            .get(at..at + 16)
            .and_then(|b| b.try_into().ok())
            .unwrap_or(&[0; 16])
    }

    /// The CRC state after absorbing `data` (at least [`FOLD_MIN`] bytes):
    /// the state is folded into the first block, four lanes stride over
    /// 64 bytes at a time, the lanes and any whole 16-byte blocks fold
    /// into one accumulator, and the table reduces that accumulator and
    /// the tail. The result is the table's result bit for bit. Callers
    /// must have checked [`clmul_available`].
    #[target_feature(enable = "pclmulqdq,sse2")]
    pub(super) fn update_folded(crc: u64, data: &[u8]) -> u64 {
        if data.len() < FOLD_MIN {
            return update_table(crc, data);
        }
        let k64 = key_vector(FOLD_64);
        let k16 = key_vector(FOLD_16);
        let mut strides = data.chunks_exact(FOLD_MIN);
        let first = strides.next().unwrap_or_default();
        let mut lanes = [
            load_block(block_at(first, 0)),
            load_block(block_at(first, 16)),
            load_block(block_at(first, 32)),
            load_block(block_at(first, 48)),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi64_si128(crc as i64));
        for s in &mut strides {
            for (j, lane) in lanes.iter_mut().enumerate() {
                *lane = _mm_xor_si128(fold_by(*lane, k64), load_block(block_at(s, 16 * j)));
            }
        }
        let [mut acc, l1, l2, l3] = lanes;
        for lane in [l1, l2, l3] {
            acc = _mm_xor_si128(fold_by(acc, k16), lane);
        }
        let mut blocks = strides.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = _mm_xor_si128(fold_by(acc, k16), load_block(block_at(b, 0)));
        }
        let mut bytes = [0u8; 16];
        // SAFETY: `bytes` is 16 writable bytes and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast::<__m128i>(), acc) };
        update_table(update_table(0, &bytes), blocks.remainder())
    }
}

/// The CRC state after absorbing `data`: carry-less-multiply folding
/// where the CPU has it (detected at run time), the table otherwise.
fn update_state(crc: u64, data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && clmul::clmul_available() {
        // SAFETY: `clmul_available` confirmed pclmulqdq on this CPU, and
        // SSE2 is part of every x86-64 CPU.
        return unsafe { clmul::update_folded(crc, data) };
    }
    update_table(crc, data)
}

/// The little-endian bytes of `data`, borrowed: on a little-endian target
/// an f64 slice already is its BPL encoding.
#[cfg(target_endian = "little")]
pub(crate) fn f64_le_bytes(data: &[f64]) -> &[u8] {
    // SAFETY: f64 has no padding and no invalid bit patterns as bytes, u8
    // has alignment 1, and the length is the slice's size in bytes; the
    // borrow keeps `data` alive and unmodified.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Incremental CRC-64/XZ state, for checksumming without materializing a
/// contiguous byte buffer (a checkpoint's variables are checksummed from
/// their shape and payload ranges in place).
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self { state: !0u64 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_state(self.state, data);
    }

    /// Final checksum value.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// One-shot CRC-64/XZ of a byte slice.
pub fn crc64(data: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_crc64_xz_check_value() {
        // The standard check input for CRC catalogues.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut c = Crc64::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc64(&data));
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn f64_helper_matches_byte_encoding() {
        let v = [1.5f64, -0.25, std::f64::consts::PI, 0.0, -0.0, f64::NAN];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(f64_le_bytes(&v), &bytes[..]);
    }

    /// The table twin over `data`, from a fresh state.
    fn table_crc(data: &[u8]) -> u64 {
        !update_table(!0, data)
    }

    #[test]
    fn fold_keys_advance_by_their_distance() {
        // Advancing by 128 bits twice is advancing by 256 bits: check the
        // derived keys against a slow carry-less product modulo P.
        fn mulmod(a: u64, b: u64) -> u64 {
            // Reflected product: walk b's coefficients from x^0 upward.
            let mut acc = 0u64;
            let mut a = a;
            for i in (0..64).rev() {
                if b >> i & 1 == 1 {
                    acc ^= a;
                }
                a = if a & 1 == 1 { (a >> 1) ^ POLY } else { a >> 1 };
            }
            acc
        }
        assert_eq!(mulmod(xpow_mod(127), xpow_mod(129)), xpow_mod(256));
        assert_eq!(mulmod(xpow_mod(0), xpow_mod(191)), xpow_mod(191));
        assert_eq!(FOLD_16, [xpow_mod(191), xpow_mod(127)]);
    }

    #[test]
    fn folded_crc_matches_the_table_at_every_length_and_offset() {
        let data: Vec<u8> = (0..1032u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[off..off + len];
                assert_eq!(crc64(bytes), table_crc(bytes), "len {len} offset {off}");
            }
        }
    }

    #[test]
    fn folded_crc_matches_the_table_across_split_updates() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 + i / 5) as u8).collect();
        let want = table_crc(&data);
        for split in [0, 1, 7, 63, 64, 65, 100, 511, 960, 1023, 1024] {
            let mut c = Crc64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
            let mut mixed = Crc64 {
                state: update_table(!0, &data[..split]),
            };
            mixed.update(&data[split..]);
            assert_eq!(mixed.finish(), want, "table then fold at {split}");
        }
        let mut c = Crc64::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), want);
    }

    #[test]
    fn both_paths_match_the_check_value() {
        assert_eq!(table_crc(b"123456789"), 0x995D_C9BB_DF19_39FA);
        let long = b"123456789".repeat(40);
        assert_eq!(crc64(&long), table_crc(&long));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0xA5u8; 256];
        let before = crc64(&data);
        data[100] ^= 1 << 3;
        assert_ne!(before, crc64(&data));
    }
}
