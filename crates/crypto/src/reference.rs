//! Scalar reference kernels.
//!
//! The keystream half holds the pre-batching implementations of the
//! AES-CTR and ChaCha20 XOR paths, kept verbatim: one keystream block
//! generated per iteration (with a `u128` big-endian round-trip per
//! counter derivation on the AES side) and byte-indexed XOR combining.
//! Nothing on a production path calls them.
//!
//! The integrity half holds the scalar SHA-256 compression and the
//! byte-at-a-time CRC32C. These *are* the production path on a CPU
//! without SHA-NI / SSE4.2 ([`crate::sha256`] and [`crate::crc32c`]
//! dispatch to them), and the baseline everywhere else. The per-call HMAC
//! over them is baseline only.
//!
//! Two consumers call this module directly — the equivalence tests, which
//! check the fast kernels bit-for-bit against these on every host, and the
//! `crates/bench/src/bin/crypto.rs` perf-regression harness, which gates
//! the fast kernels' speed-up over them.

use crate::aes::{Aes128, BLOCK_LEN as AES_BLOCK_LEN};
use crate::chacha20::{ChaCha20, BLOCK_LEN as CHACHA_BLOCK_LEN};
use crate::sha256::{BLOCK_LEN as SHA256_BLOCK_LEN, H0 as SHA256_H0, K as SHA256_K};

/// 128-bit big-endian add of `v` into counter block `base`.
fn counter_add(base: &[u8; 16], v: u64) -> [u8; 16] {
    let n = u128::from_be_bytes(*base).wrapping_add(u128::from(v));
    n.to_be_bytes()
}

/// One-block-at-a-time AES-CTR XOR: re-derives the counter block from
/// `base` for every 16-byte block and combines byte-by-byte.
// The byte-indexed loop *is* the reference semantics; the clippy
// `needless_range_loop` gate in scripts/verify.sh bans this shape from the
// production kernels, so it is allowed explicitly here.
#[allow(clippy::needless_range_loop)]
pub fn aes_ctr_xor(schedule: &Aes128, base: &[u8; 16], offset: u64, data: &mut [u8]) {
    let mut pos = 0usize;
    let mut abs = offset;
    let mut keystream = [0u8; AES_BLOCK_LEN];
    while pos < data.len() {
        let block_index = abs / 16;
        let in_block = (abs % 16) as usize;
        keystream = counter_add(base, block_index);
        schedule.encrypt_block(&mut keystream);
        let n = (AES_BLOCK_LEN - in_block).min(data.len() - pos);
        for i in 0..n {
            data[pos + i] ^= keystream[in_block + i];
        }
        pos += n;
        abs += n as u64;
    }
    // Scrub the last keystream block (the historical, partial scrub — the
    // batched kernels scrub their whole staging buffer instead).
    for b in &mut keystream {
        unsafe { std::ptr::write_volatile(b, 0) };
    }
}

/// One-block-at-a-time ChaCha20 XOR with byte-indexed combining,
/// honouring the cipher's initial block counter.
#[allow(clippy::needless_range_loop)]
pub fn chacha20_xor(cipher: &ChaCha20, offset: u64, data: &mut [u8]) {
    let mut block = [0u8; CHACHA_BLOCK_LEN];
    let mut pos = 0usize;
    let mut abs = offset;
    while pos < data.len() {
        let counter = cipher
            .counter_base()
            .wrapping_add((abs / CHACHA_BLOCK_LEN as u64) as u32);
        let in_block = (abs % CHACHA_BLOCK_LEN as u64) as usize;
        cipher.keystream_block(counter, &mut block);
        let n = (CHACHA_BLOCK_LEN - in_block).min(data.len() - pos);
        for i in 0..n {
            data[pos + i] ^= block[in_block + i];
        }
        pos += n;
        abs += n as u64;
    }
    for b in &mut block {
        unsafe { std::ptr::write_volatile(b, 0) };
    }
}

/// Scalar SHA-256 compression (FIPS 180-4 §6.2.2) of `blocks`, a whole
/// number of 64-byte blocks, into `state`.
///
/// # Panics
/// Panics if `blocks.len()` is not a multiple of 64.
pub fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % SHA256_BLOCK_LEN, 0, "partial SHA-256 block");
    for block in blocks.chunks_exact(SHA256_BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(bytes.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 over the scalar compression only: the digest
/// [`crate::sha256()`] must reproduce whichever kernel it dispatched to.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = SHA256_H0;
    let (whole, rest) = data.split_at(data.len() - data.len() % SHA256_BLOCK_LEN);
    sha256_compress(&mut state, whole);
    // Padding: 0x80, zeros, then the bit length in the last 8 bytes of
    // the first block that has room for it.
    let mut tail = [0u8; 2 * SHA256_BLOCK_LEN];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < SHA256_BLOCK_LEN - 8 { SHA256_BLOCK_LEN } else { tail.len() };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    sha256_compress(&mut state, &tail[..tail_len]);
    let mut out = [0u8; 32];
    for (chunk, w) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// HMAC-SHA256 (RFC 2104) as every caller computed it before
/// [`crate::HmacKey`]: both pads derived per call, the message copied
/// behind the inner pad, scalar SHA-256 throughout.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block = [0u8; SHA256_BLOCK_LEN];
    if key.len() > SHA256_BLOCK_LEN {
        block[..32].copy_from_slice(&sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(message);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&sha256(&inner));
    sha256(&outer)
}

static CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = crate::crc32c::times_x(crc);
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Byte-at-a-time table CRC32C: extends `crc` with `data`.
#[must_use]
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c = CRC32C_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
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
    fn reference_aes_ctr_reproduces_nist_f51() {
        // The reference kernel must itself stay pinned to NIST SP 800-38A
        // F.5.1 — it is the baseline everything else is compared against.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let base: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51",
        );
        aes_ctr_xor(&Aes128::new(&key), &base, 0, &mut data);
        assert_eq!(
            data,
            hex(
                "874d6191b620e3261bef6864990db6ce\
                 9806f66b7970fdff8617187bb9fffdff"
            )
        );
    }

    #[test]
    fn reference_chacha20_roundtrips_at_offsets() {
        let cipher = ChaCha20::new_with_counter(&[7u8; 32], &[9u8; 12], 5);
        let original: Vec<u8> = (0..333).map(|i| (i * 11 % 256) as u8).collect();
        let mut enc = original.clone();
        chacha20_xor(&cipher, 17, &mut enc);
        assert_ne!(enc, original);
        chacha20_xor(&cipher, 17, &mut enc);
        assert_eq!(enc, original);
    }
}
