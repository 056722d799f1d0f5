//! PBKDF2-HMAC-SHA-256 (RFC 8018) for deriving the secure-cache wrapping
//! key from the user-supplied server passkey. The passkey itself is never
//! persisted; only the salt is stored alongside the cache file.

use crate::hmac::HmacKey;

/// Derives `dk_len` bytes from `password` and `salt` with `iterations`
/// rounds of PBKDF2-HMAC-SHA-256.
///
/// # Panics
/// Panics if `iterations == 0` or `dk_len == 0`.
#[must_use]
pub fn pbkdf2_hmac_sha256(password: &[u8], salt: &[u8], iterations: u32, dk_len: usize) -> Vec<u8> {
    assert!(iterations > 0, "PBKDF2 requires at least one iteration");
    assert!(dk_len > 0, "derived key must be non-empty");
    // Keyed once: every iteration below costs two compressions, not four.
    let prf = HmacKey::new(password);
    let mut out = Vec::with_capacity(dk_len);
    let mut block_index = 1u32;
    while out.len() < dk_len {
        let mut u = prf.mac(&[salt, &block_index.to_be_bytes()]);
        let mut t = u;
        for _ in 1..iterations {
            u = prf.mac(&[&u]);
            for (ti, ui) in t.iter_mut().zip(u.iter()) {
                *ti ^= ui;
            }
        }
        let take = (dk_len - out.len()).min(32);
        out.extend_from_slice(&t[..take]);
        block_index += 1;
    }
    out
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
    fn rfc7914_vector_c1() {
        // RFC 7914 §11: PBKDF2-HMAC-SHA-256 (P="passwd", S="salt", c=1, dkLen=64).
        let dk = pbkdf2_hmac_sha256(b"passwd", b"salt", 1, 64);
        assert_eq!(
            dk,
            hex("55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783")
        );
    }

    #[test]
    fn rfc7914_vector_c2() {
        // RFC 7914 §11: (P="Password", S="NaCl", c=80000, dkLen=64).
        let dk = pbkdf2_hmac_sha256(b"Password", b"NaCl", 80000, 64);
        assert_eq!(
            dk,
            hex("4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d")
        );
    }

    #[test]
    fn different_salts_differ() {
        let a = pbkdf2_hmac_sha256(b"pw", b"salt-a", 10, 32);
        let b = pbkdf2_hmac_sha256(b"pw", b"salt-b", 10, 32);
        assert_ne!(a, b);
    }

    #[test]
    fn long_output_spans_blocks() {
        let dk = pbkdf2_hmac_sha256(b"pw", b"salt", 2, 80);
        assert_eq!(dk.len(), 80);
        // First 32 bytes must equal the dkLen=32 derivation (block prefix).
        let short = pbkdf2_hmac_sha256(b"pw", b"salt", 2, 32);
        assert_eq!(&dk[..32], &short[..]);
    }
}
