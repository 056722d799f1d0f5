//! SHA-256 (FIPS 180-4), under the per-block integrity tags, the HMAC over
//! secure-cache entries and the PBKDF2 passkey derivation.
//!
//! Compression is runtime-dispatched like the AES kernels: SHA-NI where
//! the CPU has it, otherwise the scalar rounds kept in
//! [`crate::reference`], which double as the equivalence baseline.

/// Bytes per SHA-256 block.
pub const BLOCK_LEN: usize = 64;

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

#[rustfmt::skip]
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Whether [`Sha256`] compresses with the SHA-NI kernel on this machine
/// (CPUID, cached by `std`). Benches and docs report it; nothing branches
/// on it but `compress`.
#[must_use]
pub fn is_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state`:
/// the SHA-NI kernel where the CPU has it, the portable
/// [`crate::reference::sha256_compress`] elsewhere. Both are bit-identical
/// FIPS 180-4.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if is_accelerated() {
        // SAFETY: the `sha`, `ssse3` and `sse4.1` target features were just
        // detected (`sse2` is baseline on x86-64).
        unsafe { compress_sha_ni(state, blocks) };
        return;
    }
    crate::reference::sha256_compress(state, blocks);
}

/// SHA-NI kernel: four rounds per `sha256rnds2` pair, message schedule by
/// `sha256msg1/msg2`, reading each block straight from `blocks` and
/// keeping the working state in two vector registers across the run.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: the caller has the features; every block pointer stays
    // inside `blocks`.
    unsafe {
        let mut lanes = ni::load_state(state);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            ni::block(&mut lanes, block.as_ptr(), |_| {});
        }
        ni::store_state(state, lanes);
    }
}

/// The SHA-NI rounds, shared by [`compress_sha_ni`] and the stitched
/// decrypt-and-authenticate kernel in [`crate::open`], which inline them
/// under the same target features.
#[cfg(target_arch = "x86_64")]
pub(crate) mod ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// The working state as the instructions want it: (ABEF, CDGH).
    pub(crate) type Lanes = (__m128i, __m128i);

    /// `state` (ABCD, EFGH) → (ABEF, CDGH).
    ///
    /// # Safety
    /// The CPU has `sha`, `ssse3` and `sse4.1`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn load_state(state: &[u32; 8]) -> Lanes {
        // SAFETY: two unaligned 16-byte loads inside `state`.
        unsafe {
            let ptr = state.as_ptr().cast::<__m128i>();
            let cdab = _mm_shuffle_epi32(_mm_loadu_si128(ptr), 0xb1);
            let efgh = _mm_shuffle_epi32(_mm_loadu_si128(ptr.add(1)), 0x1b);
            (
                _mm_alignr_epi8(cdab, efgh, 8),
                _mm_blend_epi16(efgh, cdab, 0xf0),
            )
        }
    }

    /// (ABEF, CDGH) → `state` (ABCD, EFGH).
    ///
    /// # Safety
    /// The CPU has `sha`, `ssse3` and `sse4.1`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn store_state(state: &mut [u32; 8], (abef, cdgh): Lanes) {
        // SAFETY: two unaligned 16-byte stores inside `state`.
        unsafe {
            let ptr = state.as_mut_ptr().cast::<__m128i>();
            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            _mm_storeu_si128(ptr, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }

    /// Compresses the 64 bytes at `block` into `lanes`. The sixteen
    /// four-round groups are written out so the schedule words stay in
    /// registers, and `between(g)` is issued before group `g`: work
    /// independent of the chain placed there runs in the shadow of its
    /// latency (the stitched kernel's AES rounds; `|_| {}` otherwise).
    ///
    /// # Safety
    /// The CPU has `sha`, `ssse3` and `sse4.1`, and `block` is valid for
    /// reads of 64 bytes.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn block(lanes: &mut Lanes, block: *const u8, mut between: impl FnMut(usize)) {
        // SAFETY: `loadu` tolerates unaligned pointers; every pointer
        // stays inside `K` (sixteen 16-byte groups) or the 64 bytes at
        // `block`.
        unsafe {
            // Big-endian word loads: byte-reverse each 32-bit lane.
            let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            let (mut abef, mut cdgh) = *lanes;

            // Rounds 4g..4g+4 on schedule words `$w`.
            macro_rules! rounds {
                ($g:literal, $w:ident) => {{
                    between($g);
                    let wk = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add(4 * $g).cast()));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }};
            }
            // The same, and while they are in flight advance the schedule:
            // the next group's words are finished from the previous and
            // current ones (`msg2`), and the previous group's get the first
            // half of their next use (`msg1`).
            macro_rules! rounds_and_schedule {
                ($g:literal, $cur:ident, $prev:ident, $next:ident) => {{
                    rounds!($g, $cur);
                    let carried = _mm_add_epi32($next, _mm_alignr_epi8($cur, $prev, 4));
                    $next = _mm_sha256msg2_epu32(carried, $cur);
                    $prev = _mm_sha256msg1_epu32($prev, $cur);
                }};
            }

            let words = block.cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), be_words);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), be_words);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), be_words);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), be_words);
            rounds!(0, w0);
            rounds!(1, w1);
            w0 = _mm_sha256msg1_epu32(w0, w1);
            rounds!(2, w2);
            w1 = _mm_sha256msg1_epu32(w1, w2);
            rounds_and_schedule!(3, w3, w2, w0);
            rounds_and_schedule!(4, w0, w3, w1);
            rounds_and_schedule!(5, w1, w0, w2);
            rounds_and_schedule!(6, w2, w1, w3);
            rounds_and_schedule!(7, w3, w2, w0);
            rounds_and_schedule!(8, w0, w3, w1);
            rounds_and_schedule!(9, w1, w0, w2);
            rounds_and_schedule!(10, w2, w1, w3);
            rounds_and_schedule!(11, w3, w2, w0);
            rounds_and_schedule!(12, w0, w3, w1);
            // Groups 14 and 15 still need their words finished (`msg2`);
            // no group is left to need a `msg1` first half.
            rounds!(13, w1);
            w2 = _mm_sha256msg2_epu32(_mm_add_epi32(w2, _mm_alignr_epi8(w1, w0, 4)), w1);
            rounds!(14, w2);
            w3 = _mm_sha256msg2_epu32(_mm_add_epi32(w3, _mm_alignr_epi8(w2, w1, 4)), w2);
            rounds!(15, w3);
            *lanes = (_mm_add_epi32(abef, lanes.0), _mm_add_epi32(cdgh, lanes.1));
        }
    }
}

/// An incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::from_midstate(H0, 0)
    }

    /// Resumes from `state` after `absorbed` bytes (a whole number of
    /// blocks) — how [`crate::hmac::HmacKey`] skips re-hashing its pads.
    pub(crate) fn from_midstate(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % BLOCK_LEN as u64, 0);
        Sha256 { state, buf: [0; BLOCK_LEN], buf_len: 0, total_len: absorbed }
    }

    /// The chaining state, for `n` whole blocks compressed outside this
    /// hasher (the stitched kernel of [`crate::open`]): only between
    /// blocks, with nothing buffered.
    pub(crate) fn state_for_blocks(&mut self, n: usize) -> &mut [u32; 8] {
        assert_eq!(self.buf_len, 0, "a partial block is buffered");
        self.total_len = self.total_len.wrapping_add((n * BLOCK_LEN) as u64);
        &mut self.state
    }

    /// Bytes that would complete the buffered partial block (0 when
    /// nothing is buffered).
    pub(crate) fn to_block_boundary(&self) -> usize {
        (BLOCK_LEN - self.buf_len) % BLOCK_LEN
    }

    /// The chaining value after exactly one absorbed block.
    pub(crate) fn midstate_of_block(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// Absorbs `data`. Runs of whole blocks are compressed straight from
    /// `data`; only a trailing partial block is copied into the buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !whole.is_empty() {
            compress(&mut self.state, whole);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finishes and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len + 1 > BLOCK_LEN - 8 {
            // No room for the length: it goes in a block of its own.
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..64)
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    #[test]
    fn empty() {
        assert_eq!(
            sha256(b""),
            hex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc"),
            hex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            hex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize(),
            hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 128, 499, 500] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }
}
