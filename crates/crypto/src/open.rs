//! Decrypt and authenticate in one pass: AES-CTR stitched into the
//! HMAC-SHA256 chain.
//!
//! A tagged, encrypted block is opened by XORing its keystream into the
//! ciphertext and MACing the plaintext. Done as two passes, the MAC
//! re-reads every byte the XOR just wrote, and the AES units sit idle
//! while SHA-256 runs one long serial dependency chain. Here the two run
//! in one loop (OpenSSL's AES+SHA "function stitching"): each iteration
//! compresses one SHA-256 block and, between its round groups, decrypts
//! one 64-byte unit a few units ahead of it. The AES rounds have no
//! dependency on the SHA chain, so the out-of-order core runs them in the
//! chain's shadow; issued as one run before the block instead, they
//! queue behind the chain's waiting instructions. The MAC
//! trails the decryption by [`LAG`] bytes, so it reads plaintext whose
//! stores have already drained to L1 rather than stalling on a
//! store-forwarding miss (its blocks and the cipher's units sit on
//! different grids: the MAC's is shifted by the prefix).
//!
//! The MAC is `HMAC(key, prefix ‖ plaintext)` and the output is
//! bit-identical to [`CipherContext::decrypt_at`] followed by
//! [`HmacKey::mac`], which is exactly what the portable path
//! ([`crate::reference::open_in_place`]) does: ChaCha20 keys and CPUs
//! without `aes` + `sha` take it.
//!
//! Each ciphertext byte is read once, so the source may be memory another
//! process can write while it is read ([`open_shared_into`], a file's
//! shared mapping): the MAC covers exactly the plaintext the caller gets.
//! Keystream lives in registers, except for the partial units at either
//! end, whose stack staging follows the [`crate::xor::scrub`] contract.

use std::sync::atomic::AtomicU8;

use crate::cipher::CipherContext;
use crate::hmac::HmacKey;
use crate::reference;

/// Bytes the decryption runs ahead of the MAC: three 64-byte units.
pub const LAG: usize = 192;

/// Whether [`open_in_place`] and [`open_shared_into`] run the stitched kernel
/// for `cipher` on this machine (an AES key, and a CPU with `aes`, `sha`,
/// `ssse3` and `sse4.1`), rather than the two-pass reference.
#[must_use]
pub fn is_stitched(cipher: &CipherContext) -> bool {
    cipher.aes().is_some() && hardware()
}

fn hardware() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::sha256::is_accelerated() && std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Decrypts `buf` in place — the stream bytes from `offset` on — and
/// returns `HMAC(mac, prefix ‖ plaintext)`.
#[must_use]
pub fn open_in_place(
    cipher: &CipherContext,
    mac: &HmacKey,
    offset: u64,
    prefix: &[u8],
    buf: &mut [u8],
) -> [u8; 32] {
    #[cfg(target_arch = "x86_64")]
    if let Some((aes, base)) = cipher.aes().filter(|_| hardware()) {
        let ptr = buf.as_mut_ptr();
        // SAFETY: the features were just detected; `ptr` is valid for
        // reads and writes of `buf.len()` bytes, as source and
        // destination both.
        return unsafe {
            stitched::open(
                aes,
                base,
                mac,
                offset,
                prefix,
                ptr.cast_const(),
                ptr,
                buf.len(),
            )
        };
    }
    reference::open_in_place(cipher, mac, offset, prefix, buf)
}

/// Decrypts `src` — the stream bytes from `offset` on, in memory another
/// process may write while they are read, such as a file's shared
/// mapping — onto the end of `out`, and returns `HMAC(mac, prefix ‖
/// plaintext)`. Each byte of `src` is read exactly once, and the MAC runs
/// over the plaintext in `out` only: what it authenticates is what the
/// caller gets.
///
/// The reads are plain vector loads, as any copy out of a mapping is (a
/// byte written meanwhile reads as its old or its new value); `src` is
/// not for memory this process's own threads store to during the call.
#[must_use]
pub fn open_shared_into(
    cipher: &CipherContext,
    mac: &HmacKey,
    offset: u64,
    prefix: &[u8],
    src: &[AtomicU8],
    out: &mut Vec<u8>,
) -> [u8; 32] {
    let start = out.len();
    let len = src.len();
    out.reserve(len);
    #[cfg(target_arch = "x86_64")]
    if let Some((aes, base)) = cipher.aes().filter(|_| hardware()) {
        // SAFETY: the features were just detected; `src` is valid for
        // reads of `len` bytes (`AtomicU8` has the layout of `u8`, and the
        // kernel reads each byte once); the reserved spare capacity is
        // valid for `len` writes, which the kernel makes before it reads
        // any of them back, so all `len` are initialised by `set_len`.
        unsafe {
            let dst = out.as_mut_ptr().add(start);
            let tag = stitched::open(aes, base, mac, offset, prefix, src.as_ptr().cast(), dst, len);
            out.set_len(start + len);
            return tag;
        }
    }
    copy_shared(src, out);
    reference::open_in_place(cipher, mac, offset, prefix, &mut out[start..])
}

/// Appends `src` — memory another process may write while it is read — to
/// `out`, reading each byte once, with the plain loads of a copy out of a
/// mapping (as [`open_shared_into`]).
pub fn copy_shared(src: &[AtomicU8], out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(src.len());
    // SAFETY: `AtomicU8` has the layout of `u8`; the destination is
    // reserved spare capacity that cannot overlap `src`, and every byte
    // of it is written before `set_len`.
    unsafe {
        std::ptr::copy_nonoverlapping(
            src.as_ptr().cast::<u8>(),
            out.as_mut_ptr().add(start),
            src.len(),
        );
        out.set_len(start + src.len());
    }
}

#[cfg(target_arch = "x86_64")]
mod stitched {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_prefetch,
        _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128, _MM_HINT_T0,
    };

    use super::LAG;
    use crate::aes::{Aes128, BLOCK_LEN as AES_BLOCK, ROUNDS};
    use crate::hmac::HmacKey;
    use crate::sha256::{ni, BLOCK_LEN as SHA_BLOCK};

    /// Bytes of keystream per decrypted unit: four AES blocks.
    const UNIT: usize = 4 * AES_BLOCK;

    /// How far ahead of the unit being decrypted its source is
    /// prefetched: a cold source (a file's pages, not yet in any cache)
    /// then arrives while the MAC chain runs.
    const PREFETCH: usize = 8 * UNIT;

    /// The round keys, loaded into vector registers once per pass.
    type Keys = [__m128i; ROUNDS + 1];

    /// Counter block `ctr`, big-endian, as AES takes it.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn counter_block(ctr: u128) -> __m128i {
        _mm_set_epi64x((ctr as u64).swap_bytes() as i64, ((ctr >> 64) as u64).swap_bytes() as i64)
    }

    /// The keystream of the four counter blocks from `ctr` on.
    #[inline]
    #[target_feature(enable = "aes,sse2")]
    fn keystream(keys: &Keys, ctr: u128) -> [__m128i; 4] {
        let block = |i: u128| _mm_xor_si128(counter_block(ctr.wrapping_add(i)), keys[0]);
        let mut lanes = [block(0), block(1), block(2), block(3)];
        for key in &keys[1..ROUNDS] {
            for lane in &mut lanes {
                *lane = _mm_aesenc_si128(*lane, *key);
            }
        }
        lanes.map(|lane| _mm_aesenclast_si128(lane, keys[ROUNDS]))
    }

    /// Where the pass reads and writes, and the stream position of byte 0.
    struct Io {
        base: u128,
        offset: u64,
        src: *const u8,
        dst: *mut u8,
        len: usize,
    }

    impl Io {
        /// The counter block of the stream byte at `at`, and where in it
        /// that byte is.
        fn counter(&self, at: usize) -> (u128, usize) {
            let stream = self.offset.wrapping_add(at as u64);
            let ctr = self
                .base
                .wrapping_add(u128::from(stream / AES_BLOCK as u64));
            (ctr, (stream % AES_BLOCK as u64) as usize)
        }

        /// Decrypts the 64 bytes at `at`, a stream AES block boundary.
        ///
        /// # Safety
        /// The 64 bytes at `src + at` / `dst + at` are valid.
        #[inline]
        #[target_feature(enable = "aes,sse2")]
        unsafe fn unit(&self, keys: &Keys, at: usize) {
            let lanes = keystream(keys, self.counter(at).0);
            for (i, lane) in lanes.iter().enumerate() {
                let at = at + i * AES_BLOCK;
                // SAFETY: inside the 64 bytes the caller vouched for.
                unsafe {
                    let c = _mm_loadu_si128(self.src.add(at).cast::<__m128i>());
                    _mm_storeu_si128(self.dst.add(at).cast::<__m128i>(), _mm_xor_si128(c, *lane));
                }
            }
        }

        /// Step `g` of [`Self::unit`] spread over a SHA-256 block's
        /// sixteen round groups: the counter blocks and round 0, one AES
        /// round per group, then the last round, the XOR and the store.
        ///
        /// # Safety
        /// As for [`Self::unit`].
        #[inline]
        #[target_feature(enable = "aes,sse2")]
        unsafe fn unit_step(&self, keys: &Keys, at: usize, g: usize, lanes: &mut [__m128i; 4]) {
            match g {
                0 => {
                    self.prefetch(at + PREFETCH);
                    let ctr = self.counter(at).0;
                    for (i, lane) in lanes.iter_mut().enumerate() {
                        *lane = _mm_xor_si128(counter_block(ctr.wrapping_add(i as u128)), keys[0]);
                    }
                }
                1..ROUNDS => {
                    for lane in lanes.iter_mut() {
                        *lane = _mm_aesenc_si128(*lane, keys[g]);
                    }
                }
                ROUNDS => {
                    for (i, lane) in lanes.iter().enumerate() {
                        let at = at + i * AES_BLOCK;
                        let ks = _mm_aesenclast_si128(*lane, keys[ROUNDS]);
                        // SAFETY: inside the 64 bytes the caller vouched for.
                        unsafe {
                            let c = _mm_loadu_si128(self.src.add(at).cast::<__m128i>());
                            let plain = _mm_xor_si128(c, ks);
                            _mm_storeu_si128(self.dst.add(at).cast::<__m128i>(), plain);
                        }
                    }
                }
                _ => {}
            }
        }

        /// Asks for the source line holding byte `at` ahead of its use;
        /// nothing past the end.
        #[inline]
        #[target_feature(enable = "sse")]
        fn prefetch(&self, at: usize) {
            if at < self.len {
                // SAFETY: `at < len`, inside the source; a prefetch reads
                // nothing the program sees.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(self.src.add(at).cast()) };
            }
        }

        /// Decrypts bytes `from..to` — at most the 64 from `from`'s AES
        /// block on — byte by byte through `staging`: the unaligned ends
        /// of the pass.
        ///
        /// # Safety
        /// `src`/`dst` are valid for `to` bytes.
        #[target_feature(enable = "aes,sse2")]
        unsafe fn partial(&self, keys: &Keys, from: usize, to: usize, staging: &mut [u8; UNIT]) {
            if from == to {
                return;
            }
            let (ctr, in_block) = self.counter(from);
            for (i, lane) in keystream(keys, ctr).iter().enumerate() {
                // SAFETY: a 16-byte store inside `staging`.
                unsafe { _mm_storeu_si128(staging.as_mut_ptr().add(i * AES_BLOCK).cast(), *lane) };
            }
            for (i, at) in (from..to).enumerate() {
                // SAFETY: `at < to`.
                unsafe { *self.dst.add(at) = *self.src.add(at) ^ staging[in_block + i] };
            }
        }
    }

    /// The stitched pass over `len` bytes: `src` decrypted into `dst`
    /// (which may be `src`), MACed behind the decryption.
    ///
    /// # Safety
    /// The CPU has `aes`, `sha`, `ssse3` and `sse4.1`; `src` is valid for
    /// reads and `dst` for reads and writes of `len` bytes; they are equal
    /// or do not overlap.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "aes,sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn open(
        aes: &Aes128,
        base: u128,
        mac: &HmacKey,
        offset: u64,
        prefix: &[u8],
        src: *const u8,
        dst: *mut u8,
        len: usize,
    ) -> [u8; 32] {
        let mut keys = [_mm_setzero_si128(); ROUNDS + 1];
        for (key, bytes) in keys.iter_mut().zip(aes.round_key_bytes()) {
            // SAFETY: a 16-byte load from a 16-byte array.
            *key = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
        }
        let io = Io { base, offset, src, dst, len };
        for line in (0..PREFETCH + LAG + 2 * UNIT).step_by(UNIT) {
            io.prefetch(line);
        }
        // The cipher's grid: bytes up to the stream's first AES block
        // boundary (`lead`) and past the last whole unit are decrypted
        // first, one byte at a time; the whole units between them are
        // decrypted inside the loop, `LAG` bytes ahead of the MAC.
        let lead = ((AES_BLOCK as u64 - offset % AES_BLOCK as u64) as usize % AES_BLOCK).min(len);
        let units_end = lead + (len - lead) / UNIT * UNIT;
        let mut staging = [0u8; UNIT];
        let mut done = lead;
        // The MAC's grid: the plaintext bytes that complete the prefix's
        // last SHA-256 block go through the hasher's buffer, whole blocks
        // from there on are compressed straight from `dst`, and the tail
        // is buffered again.
        let mut inner = mac.inner();
        inner.update(prefix);
        let head = inner.to_block_boundary().min(len);
        let blocks = (len - head) / SHA_BLOCK;
        // SAFETY: the caller's contract. Every slice formed over `dst` lies
        // inside its `len` bytes and is already plaintext.
        unsafe {
            io.partial(&keys, 0, lead, &mut staging);
            io.partial(&keys, units_end, len, &mut staging);
            macro_rules! decrypt_to {
                ($to:expr) => {{
                    let to = ($to).min(units_end);
                    while done < to {
                        io.unit(&keys, done);
                        done += UNIT;
                    }
                }};
            }
            decrypt_to!(head + SHA_BLOCK + LAG);
            inner.update(std::slice::from_raw_parts(dst, head));
            if blocks > 0 {
                let state = inner.state_for_blocks(blocks);
                let mut lanes = ni::load_state(state);
                for k in 0..blocks {
                    let at = head + k * SHA_BLOCK;
                    if done == units_end {
                        ni::block(&mut lanes, dst.add(at), |_| {});
                        continue;
                    }
                    // One unit per block keeps the decryption `LAG` bytes
                    // ahead: this block's bytes were decrypted before it
                    // began, and the unit lands past them.
                    let mut unit = [_mm_setzero_si128(); 4];
                    ni::block(&mut lanes, dst.add(at), |g| io.unit_step(&keys, done, g, &mut unit));
                    done += UNIT;
                }
                ni::store_state(state, lanes);
            }
            decrypt_to!(len);
            let tail = head + blocks * SHA_BLOCK;
            inner.update(std::slice::from_raw_parts(dst.add(tail), len - tail));
        }
        crate::xor::scrub(&mut staging);
        mac.finish(inner)
    }
}
