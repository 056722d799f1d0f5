//! HMAC-SHA-256 (RFC 2104): the per-block integrity tags, the secure-cache
//! entry MACs and the PRF under PBKDF2.
//!
//! A key is expanded once into an [`HmacKey`] — the SHA-256 chaining values
//! after the `ipad` and `opad` blocks — so each MAC under it costs the
//! message's compressions plus two, not plus four, and takes its message
//! as a list of parts instead of one concatenated buffer.

use crate::sha256::{sha256, Sha256, BLOCK_LEN};

/// A keyed HMAC-SHA-256 instance: the inner and outer midstates of one
/// key. Build it once per key (per file, on the integrity path) and MAC
/// any number of messages with it.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Absorbs `key` (hashed first if longer than one block) into the two
    /// pad midstates.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut pad = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            pad[..32].copy_from_slice(&sha256(key));
        } else {
            pad[..key.len()].copy_from_slice(key);
        }
        for b in &mut pad {
            *b ^= 0x36;
        }
        let inner = Sha256::midstate_of_block(&pad);
        // key ⊕ ipad → key ⊕ opad.
        for b in &mut pad {
            *b ^= 0x36 ^ 0x5c;
        }
        let outer = Sha256::midstate_of_block(&pad);
        crate::xor::scrub(&mut pad);
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, parts[0] ‖ parts[1] ‖ …)` without
    /// materializing the concatenation.
    #[must_use]
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = Sha256::from_midstate(self.inner, BLOCK_LEN as u64);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::from_midstate(self.outer, BLOCK_LEN as u64);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl Drop for HmacKey {
    fn drop(&mut self) {
        // Best-effort scrub, as for `Aes128`'s round keys: the midstates
        // are key-equivalent for forging MACs.
        for w in self.inner.iter_mut().chain(self.outer.iter_mut()) {
            // SAFETY: `w` is a valid, aligned `&mut u32`; volatile so the
            // zeroing is not elided.
            unsafe { std::ptr::write_volatile(w, 0) };
        }
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(&[message])
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
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            out.to_vec(),
            hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            out.to_vec(),
            hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let out = hmac_sha256(&key, &msg);
        assert_eq!(
            out.to_vec(),
            hex("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe")
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let out = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            out.to_vec(),
            hex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        );
    }
}
