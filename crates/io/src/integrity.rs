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

/// Incremental CRC-64/XZ state, for checksumming without materializing a
/// contiguous byte buffer (checkpoint fields are streamed f64-by-f64).
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
        let t = tables();
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// Absorb the little-endian encoding of `data`: the same state as
    /// [`Crc64::update`] over those bytes, but each value's eight bytes are
    /// one slicing-by-8 step with no byte buffer in between.
    pub fn update_f64s(&mut self, data: &[f64]) {
        let t = tables();
        let mut crc = self.state;
        for &v in data {
            let x = crc ^ v.to_bits();
            crc = t[7][low_byte(x)]
                ^ t[6][low_byte(x >> 8)]
                ^ t[5][low_byte(x >> 16)]
                ^ t[4][low_byte(x >> 24)]
                ^ t[3][low_byte(x >> 32)]
                ^ t[2][low_byte(x >> 40)]
                ^ t[1][low_byte(x >> 48)]
                ^ t[0][low_byte(x >> 56)];
        }
        self.state = crc;
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

/// CRC-64/XZ over the little-endian encoding of an f64 slice (the exact
/// bytes the BPL container stores for an `F64` payload).
pub fn crc64_f64s(data: &[f64]) -> u64 {
    let mut c = Crc64::new();
    c.update_f64s(data);
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
    fn f64_helper_matches_byte_encoding() {
        let v = [1.5f64, -0.25, std::f64::consts::PI, 0.0, -0.0];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(crc64_f64s(&v), crc64(&bytes));
        // After a prefix that is not a whole number of words.
        let mut c = Crc64::new();
        c.update(b"abc");
        c.update_f64s(&v);
        let mut all = b"abc".to_vec();
        all.extend_from_slice(&bytes);
        assert_eq!(c.finish(), crc64(&all));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0xA5u8; 256];
        let before = crc64(&data);
        data[100] ^= 1 << 3;
        assert_ne!(before, crc64(&data));
    }
}
