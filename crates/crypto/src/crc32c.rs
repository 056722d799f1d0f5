//! CRC32C (Castagnoli polynomial, iSCSI/RocksDB flavour) for WAL record and
//! SST block checksums, including RocksDB's masked-CRC trick so a CRC stored
//! inside CRC-protected data does not degrade.
//!
//! Runtime-dispatched like the AES and SHA-256 kernels: the SSE4.2 `crc32`
//! instruction where the CPU has it, the table in [`crate::reference`]
//! otherwise.

const POLY: u32 = 0x82f6_3b78; // reversed Castagnoli polynomial

/// Multiplies the bit-reflected residue `v` by `x` modulo the polynomial.
pub(crate) const fn times_x(v: u32) -> u32 {
    if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 }
}

/// Computes the CRC32C of `data`.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_extend(0, data)
}

/// Whether [`crc32c_extend`] runs the `crc32` instruction kernel on this
/// machine (CPUID, cached by `std`).
#[must_use]
pub fn is_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Extends a previously computed CRC32C with more bytes: the SSE4.2
/// `crc32` kernel where the CPU has it, the byte-at-a-time table in
/// [`crate::reference`] elsewhere.
#[must_use]
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_accelerated() {
        // SAFETY: the `sse4.2` and `pclmulqdq` target features were just
        // detected.
        return unsafe { sse42::extend(crc, data) };
    }
    crate::reference::crc32c_extend(crc, data)
}

/// The `crc32` instruction kernel.
///
/// The instruction retires one 8-byte step per cycle but each step waits
/// three cycles on the previous one, so runs of `3 × STREAM_LEN` bytes are
/// cut into three independent streams whose residues are merged with two
/// carry-less multiplies; the rest is a serial `crc32q` / `crc32b` tail.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
    };

    use super::times_x;

    /// Bytes per stream of the three-way interleaved loop.
    const STREAM_LEN: usize = 256;

    /// `x^n mod P`, bit-reflected.
    const fn x_pow(n: usize) -> u32 {
        let mut v = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            v = times_x(v);
            i += 1;
        }
        v
    }

    /// Multipliers that advance a residue past one and two streams. A
    /// carry-less product of two reflected 32-bit values, read as a
    /// reflected 64-bit value, carries one extra factor of `x`, and
    /// feeding it through `crc32` multiplies by `x^32` more: hence
    /// `x^(8·len − 33)`.
    const PAST_ONE_STREAM: u32 = x_pow(8 * STREAM_LEN - 33);
    const PAST_TWO_STREAMS: u32 = x_pow(16 * STREAM_LEN - 33);

    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
    }

    /// `residue · multiplier` as a reflected 64-bit polynomial, still to
    /// be reduced by one `crc32` step.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    fn shift(residue: u64, multiplier: u32) -> u64 {
        let product = _mm_clmulepi64_si128(
            _mm_cvtsi64_si128(residue as i64),
            _mm_cvtsi64_si128(i64::from(multiplier)),
            0,
        );
        _mm_cvtsi128_si64(product) as u64
    }

    /// # Safety
    /// The CPU must support `sse4.2` and `pclmulqdq`.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) unsafe fn extend(crc: u32, data: &[u8]) -> u32 {
        let mut c = u64::from(!crc);
        let mut runs = data.chunks_exact(3 * STREAM_LEN);
        for run in runs.by_ref() {
            let (s0, rest) = run.split_at(STREAM_LEN);
            let (s1, s2) = rest.split_at(STREAM_LEN);
            let (mut c1, mut c2) = (0u64, 0u64);
            for ((w0, w1), w2) in
                s0.chunks_exact(8).zip(s1.chunks_exact(8)).zip(s2.chunks_exact(8))
            {
                c = _mm_crc32_u64(c, word(w0));
                c1 = _mm_crc32_u64(c1, word(w1));
                c2 = _mm_crc32_u64(c2, word(w2));
            }
            // crc(s0‖s1‖s2) = c·x^(16·LEN) + c1·x^(8·LEN) + c2  (mod P).
            let shifted = shift(c, PAST_TWO_STREAMS) ^ shift(c1, PAST_ONE_STREAM);
            c = _mm_crc32_u64(0, shifted) ^ c2;
        }
        let mut words = runs.remainder().chunks_exact(8);
        for w in words.by_ref() {
            c = _mm_crc32_u64(c, word(w));
        }
        let mut c = c as u32;
        for &b in words.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        !c
    }
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Masks a CRC so it can be stored inside data that is itself CRC'd
/// (the RocksDB/LevelDB log-format convention).
#[must_use]
pub fn crc32c_masked(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`crc32c_masked`].
#[must_use]
pub fn crc32c_unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // Canonical CRC32C check value.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn zeros_and_ff() {
        // Vectors from RFC 3720 appendix B.4.
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
    }

    #[test]
    fn extend_equals_oneshot() {
        let data = b"hello crc32c world";
        let c1 = crc32c(data);
        let c2 = crc32c_extend(crc32c(&data[..7]), &data[7..]);
        assert_eq!(c1, c2);
    }

    #[test]
    fn mask_roundtrip() {
        for crc in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(crc32c_unmask(crc32c_masked(crc)), crc);
            assert_ne!(crc32c_masked(crc), crc, "mask must change the value");
        }
    }
}
