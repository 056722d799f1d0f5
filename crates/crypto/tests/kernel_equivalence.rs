//! Fast-vs-scalar kernel equivalence.
//!
//! The batched kernels behind `CipherContext::xor_at` (8-block AES-CTR
//! with hardware dispatch, 4-lane SIMD ChaCha20, word-wide XOR) must be
//! bit-for-bit the scalar reference implementations in
//! `shield_crypto::reference` over arbitrary `(offset, length, algorithm)`
//! triples, and must still reproduce the published NIST SP 800-38A and
//! RFC 8439 vectors when entered at odd mid-stream offsets.
//!
//! The same holds for the integrity kernels: the dispatching `Sha256` /
//! `crc32c_extend` (SHA-NI and SSE4.2 where the host has them) against the
//! scalar `reference::sha256` / `reference::crc32c_extend`. Both sides are
//! called directly, so a host with the instructions still tests the
//! portable path, and both are pinned to the published vectors.

use proptest::prelude::*;
use shield_crypto::aes::Aes128;
use shield_crypto::chacha20::ChaCha20;
use shield_crypto::{
    crc32c, crc32c_extend, hmac_sha256, reference, sha256, Algorithm, CipherContext, Dek, DekId,
    HmacKey, Sha256, NONCE_LEN,
};

fn hex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Deterministic payload bytes from a seed (SplitMix64 stream).
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Runs `data` through the scalar reference kernel for `algo`, matching
/// the exact key/nonce interpretation of `CipherContext::new`.
fn scalar_xor(dek: &Dek, nonce: &[u8; NONCE_LEN], offset: u64, data: &mut [u8]) {
    match dek.algorithm() {
        Algorithm::Aes128Ctr => {
            let key: [u8; 16] = dek.key_bytes().try_into().unwrap();
            reference::aes_ctr_xor(&Aes128::new(&key), nonce, offset, data);
        }
        Algorithm::ChaCha20 => {
            let key: [u8; 32] = dek.key_bytes().try_into().unwrap();
            let n12: [u8; 12] = nonce[..12].try_into().unwrap();
            let ctr = u32::from_le_bytes(nonce[12..].try_into().unwrap());
            reference::chacha20_xor(&ChaCha20::new_with_counter(&key, &n12, ctr), offset, data);
        }
    }
}

fn dek_for(algo: Algorithm, seed: u64) -> Dek {
    let key: Vec<u8> = payload(seed ^ 0xdead_beef, algo.key_len());
    Dek::from_parts(DekId(u128::from(seed)), algo, key)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random (offset, length, algorithm, key, nonce): batched == scalar.
    #[test]
    fn batched_matches_scalar_reference(
        algo_tag in 1u8..=2,
        offset in 0u64..5_000_000,
        len in 0usize..4500,
        seed in any::<u64>(),
    ) {
        let algo = Algorithm::from_tag(algo_tag).unwrap();
        let dek = dek_for(algo, seed);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&payload(seed ^ 0x0f0f, NONCE_LEN));
        let ctx = CipherContext::new(&dek, &nonce);
        let original = payload(seed, len);
        let mut batched = original.clone();
        ctx.xor_at(offset, &mut batched);
        let mut scalar = original.clone();
        scalar_xor(&dek, &nonce, offset, &mut scalar);
        prop_assert_eq!(&batched, &scalar);
        // And the batched path round-trips.
        ctx.xor_at(offset, &mut batched);
        prop_assert_eq!(&batched, &original);
    }

    /// Splitting one stream into arbitrary chunks changes nothing: the
    /// head/batch/tail boundaries inside the kernel are invisible.
    #[test]
    fn chunked_equals_whole_at_random_splits(
        algo_tag in 1u8..=2,
        base_offset in 0u64..100_000,
        len in 1usize..3000,
        split_seed in any::<u64>(),
    ) {
        let algo = Algorithm::from_tag(algo_tag).unwrap();
        let dek = dek_for(algo, split_seed);
        let nonce = [0x5au8; NONCE_LEN];
        let ctx = CipherContext::new(&dek, &nonce);
        let original = payload(split_seed, len);
        let mut whole = original.clone();
        ctx.xor_at(base_offset, &mut whole);
        let mut pieces = original;
        let mut pos = 0usize;
        let mut s = split_seed;
        while pos < pieces.len() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let chunk = 1 + (s >> 33) as usize % 257;
            let end = (pos + chunk).min(pieces.len());
            ctx.xor_at(base_offset + pos as u64, &mut pieces[pos..end]);
            pos = end;
        }
        prop_assert_eq!(pieces, whole);
    }

    /// Feeding one message to `Sha256::update` in arbitrary pieces (so
    /// the buffered-head, whole-run and tail paths all interleave) gives
    /// the scalar one-shot digest.
    #[test]
    fn sha256_random_update_splits_match_reference(
        len in 0usize..=16 * 1024,
        seed in any::<u64>(),
    ) {
        let data = payload(seed, len);
        let mut hasher = Sha256::new();
        let mut pos = 0usize;
        let mut s = seed;
        while pos < data.len() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let chunk = (s >> 33) as usize % 300;
            let end = (pos + chunk).min(data.len());
            hasher.update(&data[pos..end]);
            pos = end;
        }
        prop_assert_eq!(hasher.finalize(), reference::sha256(&data));
    }

    /// A MAC over parts is the MAC over their concatenation, for keys on
    /// both sides of the one-block limit.
    #[test]
    fn hmac_key_parts_equal_concatenation(
        key in proptest::collection::vec(any::<u8>(), 0..200),
        a in proptest::collection::vec(any::<u8>(), 0..100),
        b in proptest::collection::vec(any::<u8>(), 0..100),
        c in proptest::collection::vec(any::<u8>(), 0..5000),
    ) {
        let whole = [a.as_slice(), b.as_slice(), c.as_slice()].concat();
        let keyed = HmacKey::new(&key);
        prop_assert_eq!(keyed.mac(&[&a, &b, &c]), hmac_sha256(&key, &whole));
        prop_assert_eq!(keyed.mac(&[&whole]), reference::hmac_sha256(&key, &whole));
    }
}

/// Every length across the one-block, two-block and padding-spill
/// boundaries: dispatching SHA-256 == scalar SHA-256.
#[test]
fn sha256_matches_reference_at_every_length_to_300() {
    let data = payload(0x5a17, 300);
    for len in 0..=300 {
        assert_eq!(sha256(&data[..len]), reference::sha256(&data[..len]), "len {len}");
    }
}

/// FIPS 180-4 examples on both paths.
#[test]
fn sha256_fips_180_4_vectors_on_both_paths() {
    let vectors: [(&[u8], &str); 3] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];
    for (msg, digest) in vectors {
        assert_eq!(sha256(msg).to_vec(), hex(digest));
        assert_eq!(reference::sha256(msg).to_vec(), hex(digest));
    }
    let million_a = vec![b'a'; 1_000_000];
    let digest = hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    assert_eq!(sha256(&million_a).to_vec(), digest);
    assert_eq!(reference::sha256(&million_a).to_vec(), digest);
}

/// RFC 4231 test cases 1–4, 6 and 7 through `HmacKey` and through the
/// scalar per-call construction.
#[test]
fn hmac_rfc4231_vectors_on_both_paths() {
    let cases: [(Vec<u8>, Vec<u8>, &str); 6] = [
        (
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            vec![0xaa; 20],
            vec![0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            hex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
            vec![0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            vec![0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the HMAC \
              algorithm."
                .to_vec(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (key, msg, tag) in cases {
        assert_eq!(HmacKey::new(&key).mac(&[&msg]).to_vec(), hex(tag));
        assert_eq!(reference::hmac_sha256(&key, &msg).to_vec(), hex(tag));
    }
}

/// Every length up to past a 4 KiB block plus trailer, starting at each
/// of the 8 byte alignments: covers the three-stream loop entered zero to
/// five times, the word tail and the byte tail.
#[test]
fn crc32c_matches_bytewise_at_every_length_and_alignment() {
    let data = payload(0xc3c3, 4_200 + 8);
    for align in 0..8 {
        for len in 0..=4_200 {
            let slice = &data[align..align + len];
            let bytewise = reference::crc32c_extend(0, slice);
            assert_eq!(crc32c(slice), bytewise, "align {align} len {len}");
        }
    }
    // Extending from a non-zero state, split anywhere, is the one-shot.
    let whole = crc32c(&data);
    for split in [0, 1, 7, 8, 767, 768, 769, 1536, 4_000, data.len()] {
        assert_eq!(crc32c_extend(crc32c(&data[..split]), &data[split..]), whole, "split {split}");
        assert_eq!(
            reference::crc32c_extend(reference::crc32c_extend(0, &data[..split]), &data[split..]),
            whole,
            "reference split {split}"
        );
    }
}

/// RFC 3720 appendix B.4 on both paths.
#[test]
fn crc32c_rfc3720_b4_vectors_on_both_paths() {
    let ascending: Vec<u8> = (0u8..32).collect();
    let descending: Vec<u8> = (0u8..32).rev().collect();
    let iscsi_read = hex(
        "01c00000 00000000 00000000 00000000 14000000 00000400 00000014 00000018 \
         28000000 00000000 02000000 00000000",
    );
    let vectors: [(&[u8], u32); 6] = [
        (&[0u8; 32], 0x8a91_36aa),
        (&[0xffu8; 32], 0x62a8_ab43),
        (&ascending, 0x46dd_794e),
        (&descending, 0x113f_db5c),
        (&iscsi_read, 0xd996_3a56),
        (b"123456789", 0xe306_9283),
    ];
    for (msg, crc) in vectors {
        assert_eq!(crc32c(msg), crc);
        assert_eq!(reference::crc32c_extend(0, msg), crc);
    }
}

/// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, entered at every odd offset:
/// encrypting only `pt[k..]` at stream offset `k` must reproduce the
/// published ciphertext tail, exercising the kernel's unaligned head path
/// against a fixed vector rather than just self-consistency.
#[test]
fn nist_sp800_38a_f51_at_odd_midstream_offsets() {
    let dek = Dek::from_parts(
        DekId(1),
        Algorithm::Aes128Ctr,
        hex("2b7e151628aed2a6abf7158809cf4f3c"),
    );
    let nonce: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
    let pt = hex(
        "6bc1bee22e409f96e93d7e117393172a ae2d8a571e03ac9c9eb76fac45af8e51 \
         30c81c46a35ce411e5fbc1191a0a52ef f69f2445df4f9b17ad2b417be66c3710",
    );
    let ct = hex(
        "874d6191b620e3261bef6864990db6ce 9806f66b7970fdff8617187bb9fffdff \
         5ae4df3edbd5d35e5b4f09020db03eab 1e031dda2fbe03d1792170a0f3009cee",
    );
    let ctx = CipherContext::new(&dek, &nonce);
    for k in [1usize, 3, 7, 9, 15, 17, 23, 31, 33, 45, 47, 63] {
        let mut data = pt[k..].to_vec();
        ctx.encrypt_at(k as u64, &mut data);
        assert_eq!(&data[..], &ct[k..], "offset {k}");
    }
}

/// RFC 8439 §2.4.2, entered at every odd offset within the message (the
/// RFC stream starts at block counter 1 = offset 64). The 16-byte nonce
/// carries a zero tail, so the counter-base fold must be a no-op here.
#[test]
fn rfc8439_encryption_at_odd_midstream_offsets() {
    let dek = Dek::from_parts(
        DekId(2),
        Algorithm::ChaCha20,
        hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
    );
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..12].copy_from_slice(&hex("000000000000004a00000000"));
    let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
    let ct = hex(
        "6e2e359a2568f98041ba0728dd0d6981 e97e7aec1d4360c20a27afccfd9fae0b \
         f91b65c5524733ab8f593dabcd62b357 1639d624e65152ab8f530c359f0861d8 \
         07ca0dbf500d6a6156a38e088a22b65e 52bc514d16ccf806818ce91ab7793736 \
         5af90bbf74a35be6b40b8eedf2785e42 874d",
    );
    let ctx = CipherContext::new(&dek, &nonce);
    for k in [1usize, 5, 13, 27, 41, 63, 65, 77, 101, 113] {
        let mut data = pt[k..].to_vec();
        ctx.encrypt_at(64 + k as u64, &mut data);
        assert_eq!(&data[..], &ct[k..], "offset {k}");
    }
}

/// The fixed regression pair from the ISSUE: same DEK, nonces sharing a
/// 12-byte prefix, differing only in bytes 12..16 — streams must differ.
#[test]
fn chacha_nonces_sharing_12_byte_prefix_get_distinct_streams() {
    let dek = Dek::generate(Algorithm::ChaCha20);
    let mut n1 = [0x77u8; NONCE_LEN];
    let mut n2 = n1;
    n1[15] = 0x01;
    n2[15] = 0x02;
    let mut a = vec![0u8; 512];
    let mut b = vec![0u8; 512];
    CipherContext::new(&dek, &n1).encrypt_at(0, &mut a);
    CipherContext::new(&dek, &n2).encrypt_at(0, &mut b);
    assert_ne!(a, b);
}
