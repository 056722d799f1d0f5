//! The streaming cipher abstraction used by every encrypted file in the
//! workspace.
//!
//! [`CipherContext::new`] performs key-schedule expansion and state
//! allocation — the analogue of an OpenSSL `EVP_EncryptInit` cycle. This is
//! deliberate: the paper's WAL analysis (§3.2) hinges on the fact that this
//! initialization cost is *fixed per encryption call* while the XOR cost
//! scales with payload size. The SHIELD WAL buffer (§5.3) amortizes context
//! creation over many small writes; the unbuffered path creates a context
//! per write.
//!
//! Both supported algorithms are counter-based stream ciphers, so
//! encryption and decryption are the same XOR and random access at any byte
//! offset is cheap — a hard requirement for reading 4 KiB SST blocks at
//! arbitrary file offsets without decrypting the whole file.

use std::fmt;

use crate::aes::{self, Aes128};
use crate::chacha20::ChaCha20;
use crate::dek::Dek;
use crate::xor;

/// Length of the per-file nonce stored in plaintext file headers.
///
/// AES-CTR uses all 16 bytes as the initial counter block; ChaCha20 uses the
/// first 12 bytes as its RFC 8439 nonce and folds bytes 12..16
/// (little-endian) into the initial block counter, so the full 16 bytes
/// contribute to the keystream for both algorithms.
pub const NONCE_LEN: usize = 16;

/// Symmetric encryption algorithms supported by the SHIELD reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Algorithm {
    /// AES-128 in counter mode — the paper's default (§6.1).
    #[default]
    Aes128Ctr,
    /// ChaCha20 (RFC 8439) — the paper's cited software alternative.
    ChaCha20,
}

impl Algorithm {
    /// Secret key length in bytes.
    #[must_use]
    pub fn key_len(self) -> usize {
        match self {
            Algorithm::Aes128Ctr => 16,
            Algorithm::ChaCha20 => 32,
        }
    }

    /// Stable numeric tag used in on-disk formats.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Algorithm::Aes128Ctr => 1,
            Algorithm::ChaCha20 => 2,
        }
    }

    /// Inverse of [`Algorithm::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Algorithm::Aes128Ctr),
            2 => Some(Algorithm::ChaCha20),
            _ => None,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::Aes128Ctr => write!(f, "AES-128-CTR"),
            Algorithm::ChaCha20 => write!(f, "ChaCha20"),
        }
    }
}

enum Inner {
    /// `base` is the initial counter block parsed to a native `u128` once
    /// at init time; the kernel increments it directly instead of paying a
    /// big-endian round-trip per block.
    Aes { schedule: Box<Aes128>, base: u128 },
    ChaCha(Box<ChaCha20>),
}

/// A cipher instance bound to one DEK and one per-file nonce.
///
/// Creation is the "encryption initialization" the paper measures; reuse a
/// context across many payloads to amortize it (buffered WAL), or create one
/// per payload to model the unbuffered path.
pub struct CipherContext {
    inner: Inner,
}

impl CipherContext {
    /// Expands the key schedule for `dek` with the given per-file `nonce`.
    ///
    /// # Panics
    /// Panics if the DEK's key length does not match its algorithm (which
    /// [`Dek`] construction already guarantees).
    #[must_use]
    pub fn new(dek: &Dek, nonce: &[u8; NONCE_LEN]) -> Self {
        let inner = match dek.algorithm() {
            Algorithm::Aes128Ctr => {
                let key: [u8; 16] = dek.key_bytes().try_into().expect("AES-128 key length");
                Inner::Aes {
                    schedule: Box::new(Aes128::new(&key)),
                    base: u128::from_be_bytes(*nonce),
                }
            }
            Algorithm::ChaCha20 => {
                let key: [u8; 32] = dek.key_bytes().try_into().expect("ChaCha20 key length");
                let n12: [u8; 12] = nonce[..12].try_into().unwrap();
                // Fold nonce bytes 12..16 into the initial block counter so
                // the whole 16-byte nonce selects the stream: two files
                // whose nonces share only a 12-byte prefix must not reuse a
                // keystream under the same DEK.
                let counter = u32::from_le_bytes(nonce[12..].try_into().unwrap());
                Inner::ChaCha(Box::new(ChaCha20::new_with_counter(&key, &n12, counter)))
            }
        };
        CipherContext { inner }
    }

    /// XORs the keystream into `data`, treating `data` as beginning at
    /// absolute stream byte `offset`. Since both algorithms are stream
    /// ciphers this is both `encrypt` and `decrypt`.
    pub fn xor_at(&self, offset: u64, data: &mut [u8]) {
        match &self.inner {
            Inner::Aes { schedule, base } => aes_ctr_xor(schedule, *base, offset, data),
            Inner::ChaCha(c) => c.xor_at(offset, data),
        }
    }

    /// The AES key schedule and initial counter, for the stitched kernel
    /// of [`crate::open`]; `None` for ChaCha20.
    pub(crate) fn aes(&self) -> Option<(&Aes128, u128)> {
        match &self.inner {
            Inner::Aes { schedule, base } => Some((schedule, *base)),
            Inner::ChaCha(_) => None,
        }
    }

    /// Convenience alias for encrypting a buffer that starts at `offset`.
    pub fn encrypt_at(&self, offset: u64, data: &mut [u8]) {
        self.xor_at(offset, data);
    }

    /// Convenience alias for decrypting a buffer that starts at `offset`.
    pub fn decrypt_at(&self, offset: u64, data: &mut [u8]) {
        self.xor_at(offset, data);
    }
}

const BATCH_LEN: usize = aes::BLOCK_LEN * aes::BATCH_BLOCKS;

/// Writes the keystream of the eight counter blocks from `*ctr` on into
/// `batch`, and advances `*ctr` past them.
fn keystream_batch(schedule: &Aes128, ctr: &mut u128, batch: &mut [u8; BATCH_LEN]) {
    for block in batch.chunks_exact_mut(aes::BLOCK_LEN) {
        block.copy_from_slice(&ctr.to_be_bytes());
        *ctr = ctr.wrapping_add(1);
    }
    schedule.encrypt_blocks8(batch);
}

/// Batched AES-CTR keystream XOR (DESIGN.md § perf kernels).
///
/// Keystream is generated [`aes::BATCH_BLOCKS`] counter blocks (128 B) at a
/// time into a stack staging buffer through [`Aes128::encrypt_blocks8`],
/// driven by a native `u128` counter that is incremented across the whole
/// call — no per-block `from_be_bytes` round-trip — and combined into the
/// payload 8 bytes per operation. Unaligned offsets get a head (the
/// partial first block) and sub-batch lengths a tail; both are one
/// over-generated batch when the batch kernel is hardware, and per-block
/// software otherwise. The pre-batching kernel survives as
/// [`crate::reference::aes_ctr_xor`], which the equivalence tests and the
/// `bench-smoke` perf gate run against this one.
fn aes_ctr_xor(schedule: &Aes128, base: u128, offset: u64, data: &mut [u8]) {
    if data.is_empty() {
        return;
    }
    let mut ctr = base.wrapping_add(u128::from(offset / aes::BLOCK_LEN as u64));
    let mut pos = 0usize;
    let mut batch = [0u8; BATCH_LEN];
    let mut single = [0u8; aes::BLOCK_LEN];

    // Head: a partial first block when `offset` is mid-block. With a
    // hardware batch kernel it is the first block of one batch, whose other
    // seven blocks cover the bytes after it: never a software (T-table)
    // block, which would cost more and index its tables by key bytes.
    let in_block = (offset % aes::BLOCK_LEN as u64) as usize;
    if in_block != 0 && aes::batch_is_accelerated() {
        keystream_batch(schedule, &mut ctr, &mut batch);
        let n = (BATCH_LEN - in_block).min(data.len());
        xor::xor_in_place(&mut data[..n], &batch[in_block..in_block + n]);
        pos = n;
    } else if in_block != 0 {
        single = ctr.to_be_bytes();
        ctr = ctr.wrapping_add(1);
        schedule.encrypt_block(&mut single);
        let n = (aes::BLOCK_LEN - in_block).min(data.len());
        xor::xor_in_place(&mut data[..n], &single[in_block..in_block + n]);
        pos = n;
    }

    // Body: full 8-block batches.
    while data.len() - pos >= BATCH_LEN {
        keystream_batch(schedule, &mut ctr, &mut batch);
        xor::xor_in_place(&mut data[pos..pos + BATCH_LEN], &batch);
        pos += BATCH_LEN;
    }

    // Tail: remaining whole/partial blocks. With a hardware batch kernel,
    // one full 8-block batch costs less than even a single software block,
    // so over-generate and XOR only what is needed (WAL-record-sized
    // writes live entirely in this path). Without hardware the
    // over-generation would cost up to 8x a per-block tail, so stay
    // block-at-a-time there.
    let rem = data.len() - pos;
    if rem > 0 && aes::batch_is_accelerated() {
        keystream_batch(schedule, &mut ctr, &mut batch);
        xor::xor_in_place(&mut data[pos..], &batch[..rem]);
    } else {
        while pos < data.len() {
            single = ctr.to_be_bytes();
            ctr = ctr.wrapping_add(1);
            schedule.encrypt_block(&mut single);
            let n = (data.len() - pos).min(aes::BLOCK_LEN);
            xor::xor_in_place(&mut data[pos..pos + n], &single[..n]);
            pos += n;
        }
    }

    // Scrub contract (see crate::xor::scrub): both staging buffers in
    // full, on the only path that generated keystream — the early return
    // above produced none.
    xor::scrub(&mut batch);
    xor::scrub(&mut single);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dek::DekId;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_sp800_38a_f51_ctr_aes128() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks.
        let dek = Dek::from_parts(
            DekId(1),
            Algorithm::Aes128Ctr,
            hex("2b7e151628aed2a6abf7158809cf4f3c"),
        );
        let nonce: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        );
        CipherContext::new(&dek, &nonce).encrypt_at(0, &mut data);
        assert_eq!(
            data,
            hex(
                "874d6191b620e3261bef6864990db6ce\
                 9806f66b7970fdff8617187bb9fffdff\
                 5ae4df3edbd5d35e5b4f09020db03eab\
                 1e031dda2fbe03d1792170a0f3009cee"
            )
        );
    }

    #[test]
    fn random_offset_decrypt_matches() {
        for algo in [Algorithm::Aes128Ctr, Algorithm::ChaCha20] {
            let dek = Dek::generate(algo);
            let nonce = [0x42u8; NONCE_LEN];
            let ctx = CipherContext::new(&dek, &nonce);
            let original: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
            let mut enc = original.clone();
            ctx.encrypt_at(0, &mut enc);
            assert_ne!(enc, original);
            // Decrypt an arbitrary middle slice via its absolute offset.
            let mut slice = enc[333..777].to_vec();
            ctx.decrypt_at(333, &mut slice);
            assert_eq!(&slice[..], &original[333..777], "algo {algo}");
        }
    }

    #[test]
    fn chunked_encrypt_equals_whole() {
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        let nonce = [7u8; NONCE_LEN];
        let ctx = CipherContext::new(&dek, &nonce);
        let original: Vec<u8> = (0..517u32).map(|i| (i * 13 % 256) as u8).collect();
        let mut whole = original.clone();
        ctx.encrypt_at(0, &mut whole);
        let mut pieces = original.clone();
        let mut off = 0usize;
        for chunk in [100usize, 1, 15, 16, 17, 200, 188] {
            let end = (off + chunk).min(pieces.len());
            let (done, _) = (off, end);
            ctx.encrypt_at(done as u64, &mut pieces[off..end]);
            off = end;
        }
        assert_eq!(pieces, whole);
    }

    #[test]
    fn counter_wraps_cleanly() {
        // base near u128::MAX must wrap rather than panic.
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        let nonce = [0xffu8; 16];
        let ctx = CipherContext::new(&dek, &nonce);
        let mut data = vec![0u8; 64];
        ctx.encrypt_at(0, &mut data);
        assert_ne!(data, vec![0u8; 64]);
    }

    #[test]
    fn algorithm_tag_roundtrip() {
        for a in [Algorithm::Aes128Ctr, Algorithm::ChaCha20] {
            assert_eq!(Algorithm::from_tag(a.tag()), Some(a));
        }
        assert_eq!(Algorithm::from_tag(0), None);
        assert_eq!(Algorithm::from_tag(99), None);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        CipherContext::new(&dek, &[1u8; 16]).encrypt_at(0, &mut a);
        CipherContext::new(&dek, &[2u8; 16]).encrypt_at(0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn chacha_nonce_tail_selects_distinct_streams() {
        // Regression: bytes 12..16 of the 16-byte nonce used to be
        // silently dropped for ChaCha20, so two files whose nonces shared
        // a 12-byte prefix reused a keystream under the same DEK. The tail
        // now feeds the initial block counter.
        let dek = Dek::generate(Algorithm::ChaCha20);
        let mut n1 = [0x11u8; NONCE_LEN];
        let mut n2 = n1;
        n1[12..].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        n2[12..].copy_from_slice(&[0xde, 0xad, 0xbe, 0xee]); // last byte differs
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        CipherContext::new(&dek, &n1).encrypt_at(0, &mut a);
        CipherContext::new(&dek, &n2).encrypt_at(0, &mut b);
        assert_ne!(a, b, "nonce tails 12..16 must yield distinct keystreams");
    }

    #[test]
    fn chacha_nonce_tail_is_a_block_shift() {
        // The fold is defined as: tail (LE u32) = initial block counter.
        // So a tail of k encrypting at offset 0 equals a zero tail
        // encrypting at offset 64·k — pinning the exact semantics.
        let dek = Dek::generate(Algorithm::ChaCha20);
        let mut tail2 = [7u8; NONCE_LEN];
        tail2[12..].copy_from_slice(&2u32.to_le_bytes());
        let mut tail0 = [7u8; NONCE_LEN];
        tail0[12..].copy_from_slice(&[0u8; 4]);
        let original: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
        let mut a = original.clone();
        CipherContext::new(&dek, &tail2).encrypt_at(0, &mut a);
        let mut b = original.clone();
        CipherContext::new(&dek, &tail0).encrypt_at(128, &mut b);
        assert_eq!(a, b);
    }
}
