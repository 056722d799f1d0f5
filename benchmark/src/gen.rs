//! Workload generation owned by the benchmark.
//!
//! The generators are copy-adapted from `crates/bench` (xorshift64*, YCSB's
//! scrambled zipfian, Mixgraph's Pareto value sizes) so that later edits to
//! that crate cannot change the load this benchmark applies. `--seed` feeds
//! every stream; the product crates only ever see the generated operations.
//!
//! Values are self-describing: the first eight bytes carry the key id and a
//! per-key version, the rest is filler derived from both, so a read can be
//! checked against the version array instead of just `is_some()`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Key size in bytes (db_bench default, as in the paper's set-up).
pub const KEY_LEN: usize = 16;
/// Fixed value size in bytes (db_bench default).
pub const VALUE_LEN: usize = 100;
/// Bytes of (key id, version) header at the start of every value.
pub const VALUE_HEADER: usize = 8;

/// xorshift64* — fast, deterministic, good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed (0 is remapped: xorshift has a fixed
    /// point there).
    pub fn new(seed: u64) -> Self {
        Rng {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// splitmix64 finaliser over two words: derives independent streams and
/// per-(key, version) filler from the run seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// YCSB's scrambled zipfian (Gray et al.) over `[0, n)`, θ = 0.99: hot items
/// are the low ranks hashed across the key space.
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64) -> Self {
        let theta = 0.99;
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        rank.min(self.n - 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            % self.n
    }
}

/// How a workload sizes its values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueSizes {
    /// Every value is [`VALUE_LEN`] bytes.
    Fixed,
    /// Mixgraph's Pareto-shaped sizes (mean ≈ 37 B, clamped to [8, 1024]),
    /// a pure function of (seed, key id, version) so a reader can recompute
    /// the length it must see.
    Pareto,
}

/// Encodes and checks the self-describing keys and values of one run.
#[derive(Clone, Copy, Debug)]
pub struct Codec {
    pub seed: u64,
    pub sizes: ValueSizes,
}

impl Codec {
    /// db_bench-style key: the id as sixteen zero-padded decimal digits.
    pub fn key(id: u64) -> [u8; KEY_LEN] {
        let mut key = [b'0'; KEY_LEN];
        let mut rest = id;
        for slot in key.iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        key
    }

    /// Inverse of [`Codec::key`]; `None` for anything that is not a key.
    pub fn key_id(key: &[u8]) -> Option<u64> {
        if key.len() != KEY_LEN {
            return None;
        }
        key.iter().try_fold(0u64, |acc, &b| {
            b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
        })
    }

    pub fn value_len(&self, id: u64, version: u32) -> usize {
        match self.sizes {
            ValueSizes::Fixed => VALUE_LEN,
            ValueSizes::Pareto => {
                let h = mix(self.seed ^ 0x5153, mix(id, u64::from(version)));
                let u = ((h >> 11) as f64 / (1u64 << 53) as f64).max(1e-9);
                ((20.0 / u.powf(0.45)) as usize).clamp(VALUE_HEADER, 1024)
            }
        }
    }

    /// Writes the value for (`id`, `version`) into `buf`.
    pub fn value_into(&self, id: u64, version: u32, buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.value_len(id, version), 0);
        buf[..4].copy_from_slice(&(id as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&version.to_le_bytes());
        Rng::new(mix(self.seed, mix(id, u64::from(version)))).fill(&mut buf[VALUE_HEADER..]);
    }

    /// The version a stored value claims, if it belongs to key `id`.
    pub fn version_of(id: u64, value: &[u8]) -> Option<u32> {
        if value.len() < VALUE_HEADER || value[..4] != (id as u32).to_le_bytes() {
            return None;
        }
        Some(u32::from_le_bytes([value[4], value[5], value[6], value[7]]))
    }

    /// True when `value` is byte-for-byte what (`id`, `version`) must hold.
    /// `scratch` is reused between calls.
    pub fn matches(&self, id: u64, version: u32, value: &[u8], scratch: &mut Vec<u8>) -> bool {
        self.value_into(id, version, scratch);
        scratch.as_slice() == value
    }
}

/// Per-key version counters: 0 means the key was never written. Shared
/// between the clients of a run and the verifier. Also keeps running totals
/// of the user bytes put and of the user bytes live (the newest version of
/// every written key), so that both can be read while a window runs.
pub struct Versions {
    versions: Vec<AtomicU32>,
    put_bytes: AtomicU64,
    live_bytes: AtomicU64,
}

impl Versions {
    pub fn new(keys: u64) -> Self {
        Versions {
            versions: (0..keys).map(|_| AtomicU32::new(0)).collect(),
            put_bytes: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
        }
    }

    pub fn len(&self) -> u64 {
        self.versions.len() as u64
    }

    pub fn get(&self, id: u64) -> u32 {
        self.versions[id as usize].load(Ordering::Acquire)
    }

    /// Records that `version` of key `id` was written. Every key has one
    /// writer at a time, so the load and the store need not be one step.
    pub fn set(&self, codec: &Codec, id: u64, version: u32) {
        let user_bytes = |v: u32| (KEY_LEN + codec.value_len(id, v)) as u64;
        let old = self.get(id);
        self.versions[id as usize].store(version, Ordering::Release);
        let new_bytes = user_bytes(version);
        // Statistics only: they publish no other data.
        self.put_bytes.fetch_add(new_bytes, Ordering::Relaxed);
        self.live_bytes.fetch_add(new_bytes, Ordering::Relaxed);
        if old > 0 {
            self.live_bytes
                .fetch_sub(user_bytes(old), Ordering::Relaxed);
        }
    }

    /// User key+value bytes put so far.
    pub fn put_bytes(&self) -> u64 {
        self.put_bytes.load(Ordering::Relaxed)
    }

    /// User bytes of the newest version of every written key: the
    /// denominator of space amplification.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    pub fn live_keys(&self) -> u64 {
        (0..self.len()).filter(|&id| self.get(id) > 0).count() as u64
    }
}

/// One generated client operation, by key id; the driver turns it into
/// bytes with [`Codec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Put { id: u64 },
    Get { id: u64 },
    Scan { id: u64, len: usize },
}

/// The operation mix of one client stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// db_bench fillrandom: uniform puts.
    UniformPut,
    /// db_bench readrandom: uniform gets.
    UniformGet,
    /// Mixgraph (Cao et al., FAST'20): zipfian keys, 83 % get / 14 % put /
    /// 3 % scan of 1–100 keys.
    Mixgraph,
}

/// A deterministic stream of operations for one client thread.
pub struct OpStream {
    mix: Mix,
    keys: u64,
    rng: Rng,
    zipf: Option<Zipfian>,
}

impl OpStream {
    /// `stream` separates the clients of one run (and the probe streams)
    /// under a single `--seed`.
    pub fn new(mix_kind: Mix, keys: u64, seed: u64, stream: u64) -> Self {
        OpStream {
            mix: mix_kind,
            keys,
            rng: Rng::new(mix(seed, stream)),
            zipf: (mix_kind == Mix::Mixgraph).then(|| Zipfian::new(keys)),
        }
    }

    pub fn mix(&self) -> Mix {
        self.mix
    }

    pub fn next_op(&mut self) -> Op {
        match self.mix {
            Mix::UniformPut => Op::Put {
                id: self.rng.below(self.keys),
            },
            Mix::UniformGet => Op::Get {
                id: self.rng.below(self.keys),
            },
            Mix::Mixgraph => {
                let p = self.rng.below(100);
                let zipf = self
                    .zipf
                    .as_ref()
                    .expect("mixgraph streams carry a zipfian");
                let id = zipf.sample(&mut self.rng);
                if p < 83 {
                    Op::Get { id }
                } else if p < 97 {
                    Op::Put { id }
                } else {
                    Op::Scan {
                        id,
                        len: 1 + self.rng.below(100) as usize,
                    }
                }
            }
        }
    }

    /// FNV-1a digest of the first `n` operations, for pinning the load.
    #[cfg(test)]
    pub fn digest(mut self, n: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for _ in 0..n {
            match self.next_op() {
                Op::Put { id } => {
                    eat(1);
                    eat(id);
                }
                Op::Get { id } => {
                    eat(2);
                    eat(id);
                }
                Op::Scan { id, len } => {
                    eat(3);
                    eat(id);
                    eat(len as u64);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_stream_two_seeds_two_streams() {
        for kind in [Mix::UniformPut, Mix::UniformGet, Mix::Mixgraph] {
            let a = OpStream::new(kind, 10_000, 7, 0).digest(5_000);
            let b = OpStream::new(kind, 10_000, 7, 0).digest(5_000);
            let other_seed = OpStream::new(kind, 10_000, 8, 0).digest(5_000);
            let other_client = OpStream::new(kind, 10_000, 7, 1).digest(5_000);
            assert_eq!(a, b, "{kind:?}: one seed must give one op stream");
            assert_ne!(
                a, other_seed,
                "{kind:?}: two seeds must give two op streams"
            );
            assert_ne!(a, other_client, "{kind:?}: clients must not share a stream");
        }
        // The load itself is pinned: a change to the generators shows here.
        assert_eq!(
            OpStream::new(Mix::Mixgraph, 10_000, 7, 0).digest(5_000),
            PINNED_MIXGRAPH_DIGEST
        );
    }

    const PINNED_MIXGRAPH_DIGEST: u64 = 4_656_976_204_431_018_229;

    #[test]
    fn running_byte_totals_follow_overwrites() {
        let codec = Codec {
            seed: 3,
            sizes: ValueSizes::Pareto,
        };
        let versions = Versions::new(100);
        let mut rng = Rng::new(9);
        let mut put = 0u64;
        for _ in 0..1_000 {
            let id = rng.below(50);
            let version = versions.get(id) + 1;
            versions.set(&codec, id, version);
            put += (KEY_LEN + codec.value_len(id, version)) as u64;
        }
        let live: u64 = (0..100)
            .filter(|&id| versions.get(id) > 0)
            .map(|id| (KEY_LEN + codec.value_len(id, versions.get(id))) as u64)
            .sum();
        assert_eq!(versions.put_bytes(), put);
        assert_eq!(versions.live_bytes(), live);
        assert!(versions.live_keys() <= 50 && versions.live_keys() > 40);
    }

    #[test]
    fn keys_round_trip_and_sort_by_id() {
        assert_eq!(&Codec::key(42), b"0000000000000042");
        assert_eq!(Codec::key_id(&Codec::key(987_654_321)), Some(987_654_321));
        assert!(Codec::key(9) < Codec::key(10));
        assert_eq!(Codec::key_id(b"not a key"), None);
    }

    #[test]
    fn values_carry_id_and_version() {
        let codec = Codec {
            seed: 3,
            sizes: ValueSizes::Pareto,
        };
        let mut value = Vec::new();
        let mut scratch = Vec::new();
        codec.value_into(77, 5, &mut value);
        assert_eq!(Codec::version_of(77, &value), Some(5));
        assert_eq!(Codec::version_of(78, &value), None);
        assert!(codec.matches(77, 5, &value, &mut scratch));
        assert!(!codec.matches(77, 6, &value, &mut scratch));
    }

    #[test]
    fn mixgraph_mix_and_value_sizes_match_the_spec() {
        let mut stream = OpStream::new(Mix::Mixgraph, 100_000, 1, 0);
        let (mut gets, mut puts, mut scans) = (0u32, 0u32, 0u32);
        for _ in 0..100_000 {
            match stream.next_op() {
                Op::Get { .. } => gets += 1,
                Op::Put { .. } => puts += 1,
                Op::Scan { len, .. } => {
                    assert!((1..=100).contains(&len));
                    scans += 1;
                }
            }
        }
        assert!((82_000..84_000).contains(&gets), "gets {gets}");
        assert!((13_000..15_000).contains(&puts), "puts {puts}");
        assert!((2_500..3_500).contains(&scans), "scans {scans}");
        let codec = Codec {
            seed: 1,
            sizes: ValueSizes::Pareto,
        };
        let mean = (0..50_000u64)
            .map(|id| codec.value_len(id, 1))
            .sum::<usize>() as f64
            / 50_000.0;
        assert!((30.0..45.0).contains(&mean), "mean value size {mean}");
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let zipf = Zipfian::new(1000);
        let mut rng = Rng::new(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            sorted[0] > sorted[500] * 10,
            "{} vs {}",
            sorted[0],
            sorted[500]
        );
    }
}
