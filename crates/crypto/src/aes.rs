//! AES-128 block cipher (FIPS-197).
//!
//! A straightforward, portable software implementation: S-box substitution,
//! ShiftRows, MixColumns via `xtime`, and an expanded 11-round-key schedule.
//! Only the encryption direction is implemented because every mode used in
//! this workspace (CTR) needs only the forward permutation.

/// Number of bytes in an AES block.
pub const BLOCK_LEN: usize = 16;
/// Number of bytes in an AES-128 key.
pub const KEY_LEN: usize = 16;
pub(crate) const ROUNDS: usize = 10;

/// The AES S-box (FIPS-197 figure 7).
#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// T-table for the combined SubBytes+ShiftRows+MixColumns round:
/// `T0[x] = [2·S(x), S(x), S(x), 3·S(x)]` packed big-endian, rotated right
/// by `rot` bits. The single-block path uses `T0` with `rotate_right` at
/// use sites; the batched path uses the materialized `T1..T3` rotations so
/// each table lookup is a plain load with no dependent rotate.
const fn build_t(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        let w = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        t[i] = w.rotate_right(rot);
        i += 1;
    }
    t
}

static T0: [u32; 256] = build_t(0);
static T1: [u32; 256] = build_t(8);
static T2: [u32; 256] = build_t(16);
static T3: [u32; 256] = build_t(24);

/// Number of independent blocks processed per [`Aes128::encrypt_blocks8`]
/// call — the CTR keystream batch width.
pub const BATCH_BLOCKS: usize = 8;

/// Whether [`Aes128::encrypt_blocks8`] dispatches to a hardware batch
/// kernel on this machine.
///
/// Callers use this to decide if over-generating a full batch for a short
/// tail is profitable: with hardware rounds an 8-block batch costs less
/// than a single software block, without them it costs up to 8x one.
#[must_use]
pub fn batch_is_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Final-round word: SubBytes+ShiftRows (no MixColumns) + AddRoundKey.
#[inline(always)]
fn sbox_word(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
    ((u32::from(SBOX[(a >> 24) as usize]) << 24)
        | (u32::from(SBOX[((b >> 16) & 0xff) as usize]) << 16)
        | (u32::from(SBOX[((c >> 8) & 0xff) as usize]) << 8)
        | u32::from(SBOX[(d & 0xff) as usize]))
        ^ k
}

/// An expanded AES-128 key schedule.
///
/// Construction (`new`) performs the full key expansion; this is the
/// per-initialization cost that [`crate::CipherContext`] deliberately pays
/// once per context. Encryption uses the standard T-table formulation
/// (one table plus rotations), giving software throughput comparable to a
/// classic OpenSSL no-AESNI build.
#[derive(Clone)]
pub struct Aes128 {
    /// Round keys as big-endian column words: `round_keys[r][c]`.
    round_keys: [[u32; 4]; ROUNDS + 1],
    /// The same round keys serialized in FIPS-197 byte order, kept so the
    /// hardware (AES-NI) batch path loads them straight into vector
    /// registers without re-serializing per batch.
    round_key_bytes: [[u8; BLOCK_LEN]; ROUNDS + 1],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i] = u32::from_be_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = temp.rotate_left(8);
                temp = (u32::from(SBOX[(temp >> 24) as usize]) << 24)
                    | (u32::from(SBOX[((temp >> 16) & 0xff) as usize]) << 16)
                    | (u32::from(SBOX[((temp >> 8) & 0xff) as usize]) << 8)
                    | u32::from(SBOX[(temp & 0xff) as usize]);
                temp ^= u32::from(RCON[i / 4 - 1]) << 24;
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut round_keys = [[0u32; 4]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            rk.copy_from_slice(&w[4 * r..4 * r + 4]);
        }
        let mut round_key_bytes = [[0u8; BLOCK_LEN]; ROUNDS + 1];
        for (bytes, rk) in round_key_bytes.iter_mut().zip(round_keys.iter()) {
            for (chunk, word) in bytes.chunks_exact_mut(4).zip(rk.iter()) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
        }
        Aes128 { round_keys, round_key_bytes }
    }

    /// The round keys in FIPS-197 byte order, as the hardware kernels
    /// load them.
    pub(crate) fn round_key_bytes(&self) -> &[[u8; BLOCK_LEN]; ROUNDS + 1] {
        &self.round_key_bytes
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let rk = &self.round_keys;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ rk[0][0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ rk[0][1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ rk[0][2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ rk[0][3];

        #[inline(always)]
        fn t_round(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            T0[(a >> 24) as usize]
                ^ T0[((b >> 16) & 0xff) as usize].rotate_right(8)
                ^ T0[((c >> 8) & 0xff) as usize].rotate_right(16)
                ^ T0[(d & 0xff) as usize].rotate_right(24)
                ^ k
        }

        #[allow(clippy::needless_range_loop)]
        for round in 1..ROUNDS {
            let t0 = t_round(s0, s1, s2, s3, rk[round][0]);
            let t1 = t_round(s1, s2, s3, s0, rk[round][1]);
            let t2 = t_round(s2, s3, s0, s1, rk[round][2]);
            let t3 = t_round(s3, s0, s1, s2, rk[round][3]);
            s0 = t0;
            s1 = t1;
            s2 = t2;
            s3 = t3;
        }

        #[inline(always)]
        fn last_round(a: u32, b: u32, c: u32, d: u32, k: u32) -> u32 {
            ((u32::from(SBOX[(a >> 24) as usize]) << 24)
                | (u32::from(SBOX[((b >> 16) & 0xff) as usize]) << 16)
                | (u32::from(SBOX[((c >> 8) & 0xff) as usize]) << 8)
                | u32::from(SBOX[(d & 0xff) as usize]))
                ^ k
        }

        let o0 = last_round(s0, s1, s2, s3, rk[ROUNDS][0]);
        let o1 = last_round(s1, s2, s3, s0, rk[ROUNDS][1]);
        let o2 = last_round(s2, s3, s0, s1, rk[ROUNDS][2]);
        let o3 = last_round(s3, s0, s1, s2, rk[ROUNDS][3]);
        block[0..4].copy_from_slice(&o0.to_be_bytes());
        block[4..8].copy_from_slice(&o1.to_be_bytes());
        block[8..12].copy_from_slice(&o2.to_be_bytes());
        block[12..16].copy_from_slice(&o3.to_be_bytes());
    }

    /// Encrypts [`BATCH_BLOCKS`] independent 16-byte blocks in place.
    ///
    /// On x86-64 with AES-NI (runtime-detected, cached by `std`), the
    /// whole batch runs through hardware rounds with the round keys held
    /// in vector registers across all eight blocks. Elsewhere it falls
    /// back to the portable batched T-table kernel. Both produce
    /// bit-identical FIPS-197 output.
    pub fn encrypt_blocks8(&self, blocks: &mut [u8; BLOCK_LEN * BATCH_BLOCKS]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes") {
            // SAFETY: the `aes` target feature was just detected.
            unsafe { self.encrypt_blocks8_aesni(blocks) };
            return;
        }
        self.encrypt_blocks8_soft(blocks);
    }

    /// Hardware AES batch: one `aesenc` per round per block, round keys
    /// loaded into `__m128i` registers once for the whole batch.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "aes")]
    unsafe fn encrypt_blocks8_aesni(&self, blocks: &mut [u8; BLOCK_LEN * BATCH_BLOCKS]) {
        use std::arch::x86_64::{
            __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128,
            _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
        };
        // SAFETY: `loadu`/`storeu` tolerate unaligned pointers, and every
        // pointer stays inside `blocks` / `round_key_bytes`.
        unsafe {
            let mut keys = [_mm_setzero_si128(); ROUNDS + 1];
            for (key, bytes) in keys.iter_mut().zip(self.round_key_bytes.iter()) {
                *key = _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>());
            }
            let mut lanes = [_mm_setzero_si128(); BATCH_BLOCKS];
            for (lane, chunk) in lanes.iter_mut().zip(blocks.chunks_exact(BLOCK_LEN)) {
                *lane = _mm_xor_si128(_mm_loadu_si128(chunk.as_ptr().cast::<__m128i>()), keys[0]);
            }
            for key in &keys[1..ROUNDS] {
                for lane in &mut lanes {
                    *lane = _mm_aesenc_si128(*lane, *key);
                }
            }
            for (lane, chunk) in lanes.iter_mut().zip(blocks.chunks_exact_mut(BLOCK_LEN)) {
                *lane = _mm_aesenclast_si128(*lane, keys[ROUNDS]);
                _mm_storeu_si128(chunk.as_mut_ptr().cast::<__m128i>(), *lane);
            }
        }
    }

    /// Portable batched kernel: CTR counter blocks have no data dependency
    /// between them, so the round loop advances all eight states one round
    /// at a time — the table lookups of different blocks overlap in the
    /// out-of-order window instead of serializing on a single block's
    /// round-to-round dependency chain, and each round key is loaded once
    /// per round rather than once per block. States stay in word form for
    /// the whole batch — bytes are parsed once on entry and written once
    /// on exit.
    fn encrypt_blocks8_soft(&self, blocks: &mut [u8; BLOCK_LEN * BATCH_BLOCKS]) {
        let rk = &self.round_keys;
        let mut s = [[0u32; 4]; BATCH_BLOCKS];
        for (state, chunk) in s.iter_mut().zip(blocks.chunks_exact(BLOCK_LEN)) {
            *state = [
                u32::from_be_bytes(chunk[0..4].try_into().unwrap()) ^ rk[0][0],
                u32::from_be_bytes(chunk[4..8].try_into().unwrap()) ^ rk[0][1],
                u32::from_be_bytes(chunk[8..12].try_into().unwrap()) ^ rk[0][2],
                u32::from_be_bytes(chunk[12..16].try_into().unwrap()) ^ rk[0][3],
            ];
        }
        for round_key in rk.iter().take(ROUNDS).skip(1) {
            for state in &mut s {
                let [a, b, c, d] = *state;
                *state = [
                    T0[(a >> 24) as usize]
                        ^ T1[((b >> 16) & 0xff) as usize]
                        ^ T2[((c >> 8) & 0xff) as usize]
                        ^ T3[(d & 0xff) as usize]
                        ^ round_key[0],
                    T0[(b >> 24) as usize]
                        ^ T1[((c >> 16) & 0xff) as usize]
                        ^ T2[((d >> 8) & 0xff) as usize]
                        ^ T3[(a & 0xff) as usize]
                        ^ round_key[1],
                    T0[(c >> 24) as usize]
                        ^ T1[((d >> 16) & 0xff) as usize]
                        ^ T2[((a >> 8) & 0xff) as usize]
                        ^ T3[(b & 0xff) as usize]
                        ^ round_key[2],
                    T0[(d >> 24) as usize]
                        ^ T1[((a >> 16) & 0xff) as usize]
                        ^ T2[((b >> 8) & 0xff) as usize]
                        ^ T3[(c & 0xff) as usize]
                        ^ round_key[3],
                ];
            }
        }
        let last = &rk[ROUNDS];
        for (state, chunk) in s.iter().zip(blocks.chunks_exact_mut(BLOCK_LEN)) {
            let [a, b, c, d] = *state;
            chunk[0..4].copy_from_slice(&sbox_word(a, b, c, d, last[0]).to_be_bytes());
            chunk[4..8].copy_from_slice(&sbox_word(b, c, d, a, last[1]).to_be_bytes());
            chunk[8..12].copy_from_slice(&sbox_word(c, d, a, b, last[2]).to_be_bytes());
            chunk[12..16].copy_from_slice(&sbox_word(d, a, b, c, last[3]).to_be_bytes());
        }
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        // Best-effort scrubbing of key material, in both representations.
        for rk in &mut self.round_keys {
            for w in rk.iter_mut() {
                // Volatile write so the zeroing is not elided.
                unsafe { std::ptr::write_volatile(w, 0) };
            }
        }
        for rk in &mut self.round_key_bytes {
            crate::xor::scrub(rk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS-197 Appendix B worked example.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS-197 Appendix C.1 AES-128 known-answer test.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let mut b1 = [7u8; 16];
        let mut b2 = [7u8; 16];
        Aes128::new(&[0u8; 16]).encrypt_block(&mut b1);
        Aes128::new(&[1u8; 16]).encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }

    #[test]
    fn encrypt_blocks8_matches_single_block() {
        // The batched kernel must be bit-for-bit the scalar permutation on
        // every lane, including non-counter (arbitrary) inputs.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let aes = Aes128::new(&key);
        let mut batch = [0u8; BLOCK_LEN * BATCH_BLOCKS];
        for (i, b) in batch.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let mut expected = batch;
        for chunk in expected.chunks_exact_mut(BLOCK_LEN) {
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().unwrap();
            aes.encrypt_block(block);
        }
        // The dispatching entry point (hardware path where available)…
        let mut dispatched = batch;
        aes.encrypt_blocks8(&mut dispatched);
        assert_eq!(dispatched, expected);
        // …and the portable fallback must both match the scalar kernel.
        aes.encrypt_blocks8_soft(&mut batch);
        assert_eq!(batch, expected);
    }

    #[test]
    fn encrypt_blocks8_fips_vector_lane() {
        // FIPS-197 Appendix C.1 known answer, replicated across all lanes.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt = hex("00112233445566778899aabbccddeeff");
        let ct = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
        let mut batch = [0u8; BLOCK_LEN * BATCH_BLOCKS];
        for chunk in batch.chunks_exact_mut(BLOCK_LEN) {
            chunk.copy_from_slice(&pt);
        }
        Aes128::new(&key).encrypt_blocks8(&mut batch);
        for chunk in batch.chunks_exact(BLOCK_LEN) {
            assert_eq!(chunk, &ct[..]);
        }
    }
}
