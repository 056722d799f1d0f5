//! Bloom filter over user keys, one filter per table (LevelDB-style
//! double hashing).
//!
//! A filter is `[k: u8][bit array]`: a reader takes k from the block and
//! the bit count from its length, so tables built at any budget answer
//! side by side. A probe maps each of its k hashes to a bit with
//! `FastMod`, which gives the same bit as `%` for every 32-bit hash.

/// Bits per key of every filter the engine builds, by default (the
/// `bloom_bits_per_key` of [`crate::Options::table`]). At 16 bits a
/// filter probes k = 11 bits and passes ~0.05 % of absent keys (theory
/// 0.046 %); at 10 bits it passed ~0.8 %. On disaggregated storage each key it passes
/// costs a get a second block read, a network round trip.
pub const BITS_PER_KEY: usize = 16;

/// Builds a bloom filter from key hashes.
pub struct BloomFilterBuilder {
    bits_per_key: usize,
    hashes: Vec<u32>,
}

/// 32-bit hash used for bloom probes (LevelDB's bloom hash). A point
/// lookup computes it once and probes every table's filter with it
/// ([`BloomFilterReader::may_contain_hash`]).
#[must_use]
pub fn bloom_hash(key: &[u8]) -> u32 {
    hash32(key, 0xbc9f_1d34)
}

fn hash32(data: &[u8], seed: u32) -> u32 {
    const M: u32 = 0xc6a4_a793;
    let mut h = seed ^ (data.len() as u32).wrapping_mul(M);
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        let w = u32::from_le_bytes(crate::varint::fixed(c));
        h = h.wrapping_add(w).wrapping_mul(M);
        h ^= h >> 16;
    }
    let rest = chunks.remainder();
    for (i, &b) in rest.iter().enumerate() {
        h = h.wrapping_add(u32::from(b) << (8 * i));
    }
    if !rest.is_empty() {
        h = h.wrapping_mul(M);
        h ^= h >> 24;
    }
    h
}

/// `h % d` for a 32-bit `h` and a fixed `d`, by Lemire's precomputed
/// reciprocal (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019): two multiplications instead of a 64-bit `div`.
/// Exact for every `h` and every `d` in `1..=2^32`. A larger `d` exceeds
/// every `h`, as 2^32 does, so it is reduced as 2^32.
#[derive(Clone, Copy, Debug)]
struct FastMod {
    /// `ceil(2^64 / d)`, wrapped (0 for `d = 1`).
    m: u64,
    d: u64,
}

impl FastMod {
    /// Precomputes the reciprocal of `d` (`d > 0`).
    #[must_use]
    fn new(d: usize) -> Self {
        let d = (d as u64).clamp(1, 1 << 32);
        FastMod { m: (u64::MAX / d).wrapping_add(1), d }
    }

    /// `h % d`.
    #[inline]
    #[must_use]
    fn reduce(self, h: u32) -> usize {
        let low = self.m.wrapping_mul(u64::from(h));
        ((u128::from(low) * u128::from(self.d)) >> 64) as usize
    }
}

impl BloomFilterBuilder {
    /// Creates a builder with `bits_per_key` bits budgeted per key.
    #[must_use]
    pub fn new(bits_per_key: usize) -> Self {
        BloomFilterBuilder { bits_per_key: bits_per_key.max(1), hashes: Vec::new() }
    }

    /// Records a user key.
    pub fn add_key(&mut self, key: &[u8]) {
        self.hashes.push(bloom_hash(key));
    }

    /// Number of keys added.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.hashes.len()
    }

    /// Finalizes the filter block body: `[k: u8][bit array]`.
    #[must_use]
    pub fn finish(&self) -> Vec<u8> {
        // k = bits_per_key * ln(2), clamped to [1, 30].
        let k = ((self.bits_per_key as f64 * 0.69) as usize).clamp(1, 30);
        let bits = (self.hashes.len() * self.bits_per_key).max(64);
        let bytes = bits.div_ceil(8);
        let modulus = FastMod::new(bytes * 8);
        let mut array = vec![0u8; bytes + 1];
        array[0] = k as u8;
        for &h in &self.hashes {
            let delta = h.rotate_right(17);
            let mut h = h;
            for _ in 0..k {
                let bit = modulus.reduce(h);
                array[1 + bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        array
    }
}

/// Queries a serialized bloom filter.
///
/// Backed by [`bytes::Bytes`] so a reader can share the allocation of a
/// cached filter block instead of copying it (the block cache charges the
/// bytes once; see [`crate::sst::fetcher::BlockFetcher`]). k and the bit
/// count's reciprocal are decoded once, here, not per probe.
pub struct BloomFilterReader {
    data: bytes::Bytes,
    /// Probes per key; 0 for a degenerate filter, which passes every key.
    k: usize,
    modulus: FastMod,
}

impl BloomFilterReader {
    /// Wraps a filter block body.
    #[must_use]
    pub fn new(data: Vec<u8>) -> Self {
        Self::from_bytes(data.into())
    }

    /// Shares `data` without copying.
    #[must_use]
    pub fn from_bytes(data: bytes::Bytes) -> Self {
        let k = match data.first() {
            Some(&k) if data.len() >= 2 && (1..=30).contains(&k) => usize::from(k),
            _ => 0, // degenerate filter: answer conservatively
        };
        let modulus = FastMod::new(data.len().saturating_sub(1) * 8);
        BloomFilterReader { data, k, modulus }
    }

    /// True if `key` may be present (false = definitely absent).
    #[must_use]
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_hash(bloom_hash(key))
    }

    /// [`may_contain`](Self::may_contain) for a key whose
    /// [`bloom_hash`] the caller computed once for every table it probes.
    #[must_use]
    pub fn may_contain_hash(&self, hash: u32) -> bool {
        if self.k == 0 {
            return true;
        }
        let array = &self.data[1..];
        let mut h = hash;
        let delta = h.rotate_right(17);
        for _ in 0..self.k {
            let bit = self.modulus.reduce(h);
            if array[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilterBuilder::new(10);
        let keys: Vec<Vec<u8>> = (0..1000).map(|i| format!("key-{i}").into_bytes()).collect();
        for k in &keys {
            b.add_key(k);
        }
        let r = BloomFilterReader::new(b.finish());
        for k in &keys {
            assert!(r.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn default_budget_false_positive_rate() {
        // 16 bits/key, k = 11: theory 0.046 % of absent keys pass.
        let mut b = BloomFilterBuilder::new(BITS_PER_KEY);
        for i in 0..16_384 {
            b.add_key(format!("present-{i}").as_bytes());
        }
        let data = b.finish();
        assert_eq!(data[0], 11, "k at the default budget");
        let r = BloomFilterReader::new(data);
        let probes = 250_000;
        let fp = (0..probes).filter(|i| r.may_contain(format!("absent-{i}").as_bytes())).count();
        let rate = fp as f64 / probes as f64;
        assert!(rate <= 0.001, "false positive rate {rate} at {BITS_PER_KEY} bits/key");
    }

    #[test]
    fn fastmod_edges() {
        for d in [1usize, 2, 3, 7, 64, 1000, 65_536, 1 << 31, (1 << 32) - 1, 1 << 32, 1 << 40] {
            let m = FastMod::new(d);
            for h in [0u32, 1, 2, 63, 64, 999, 1 << 31, u32::MAX - 1, u32::MAX] {
                assert_eq!(m.reduce(h), h as usize % d, "{h} % {d}");
            }
        }
    }

    #[test]
    fn fastmod_builds_the_filter_percent_built() {
        // On-disk filters stay byte-identical to the `%` construction.
        for bits_per_key in [10, BITS_PER_KEY] {
            let mut b = BloomFilterBuilder::new(bits_per_key);
            for i in 0..3_000 {
                b.add_key(format!("key-{i}").as_bytes());
            }
            let built = b.finish();
            let k = usize::from(built[0]);
            let bits = (built.len() - 1) * 8;
            let mut want = vec![0u8; built.len()];
            want[0] = built[0];
            for &h in &b.hashes {
                let (mut h, delta) = (h, h.rotate_right(17));
                for _ in 0..k {
                    let bit = h as usize % bits;
                    want[1 + bit / 8] |= 1 << (bit % 8);
                    h = h.wrapping_add(delta);
                }
            }
            assert_eq!(built, want, "{bits_per_key} bits/key");
        }
    }

    #[test]
    fn empty_filter_small_but_valid() {
        let b = BloomFilterBuilder::new(10);
        let data = b.finish();
        let r = BloomFilterReader::new(data);
        // Empty filter rejects everything (no bits set).
        assert!(!r.may_contain(b"anything"));
    }

    #[test]
    fn degenerate_data_is_conservative() {
        assert!(BloomFilterReader::new(vec![]).may_contain(b"x"));
        assert!(BloomFilterReader::new(vec![0]).may_contain(b"x"));
        assert!(BloomFilterReader::new(vec![31, 0xff]).may_contain(b"x"));
    }

    #[test]
    fn hash_is_stable() {
        // Guard against accidental hash changes breaking on-disk filters.
        assert_eq!(bloom_hash(b""), hash32(b"", 0xbc9f_1d34));
        assert_ne!(bloom_hash(b"a"), bloom_hash(b"b"));
        assert_eq!(bloom_hash(b"hello"), bloom_hash(b"hello"));
    }

    proptest! {
        #[test]
        fn no_false_negatives_at_any_budget(
            bits_per_key in 1usize..=24,
            keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..200),
        ) {
            let mut b = BloomFilterBuilder::new(bits_per_key);
            for k in &keys {
                b.add_key(k);
            }
            let r = BloomFilterReader::new(b.finish());
            for k in &keys {
                prop_assert!(r.may_contain(k), "false negative at {bits_per_key} bits/key");
            }
        }

        #[test]
        fn fastmod_is_exact(
            h in any::<u32>(),
            d in prop_oneof![1usize..=4096, 1usize..=(u32::MAX as usize)],
        ) {
            prop_assert_eq!(FastMod::new(d).reduce(h), h as usize % d);
        }
    }
}
