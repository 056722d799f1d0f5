//! A sharded LRU block cache for decrypted, uncompressed SST blocks.
//!
//! Keys are `(table_id, block_offset)`. The cache stores blocks *after*
//! decryption — in-memory protection is out of the paper's scope (§3.1),
//! and caching plaintext blocks is what makes read-path encryption overhead
//! nearly invisible (§6.2's readrandom results).
//!
//! Each shard is one intrusive doubly-linked LRU list over slab-allocated
//! nodes, so eviction is O(1). Every block kind shares that list: an open
//! table pins its own index and filter blocks for as long as it lives,
//! so an unpinned index or filter block belongs to a closed table and
//! ages out like any other block. Two rules matter to the read path built
//! on top ([`crate::sst::fetcher::BlockFetcher`]):
//!
//! - **Pinned handles.** [`BlockCache::lookup`] and [`BlockCache::insert`]
//!   return a [`CacheHandle`] that holds a reference on the entry. Pinned
//!   entries leave the LRU list and cannot be evicted, but their bytes stay
//!   charged against capacity — an iterator mid-block never has its
//!   block's charge silently dropped. An insert is always admitted, even
//!   when only pinned entries are left to evict; the shard sheds the
//!   excess as the pins are released, so the unpinned charge never
//!   exceeds capacity.
//! - **Oversized bypass.** An entry larger than a shard is not admitted
//!   (the `oversized_bypass` ticker); the caller keeps its own block.
//!
//! The bookkeeping is built for two readers missing at once on two
//! cores: a miss allocates nothing here (a freed slab slot holds no
//! block), a handle pins its shard rather than the whole cache, evicted
//! blocks are dropped after the shard lock is released, the hit/miss
//! counters are striped per thread ([`Striped`]), and keys hash with a
//! keyed multiply-mix (`KeyMix`) instead of SipHash.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shield_core::Striped;

use crate::error::{Error, Result};
use crate::sst::block::Block;

const DEFAULT_SHARD_BITS: u32 = 4;
/// Slab sentinel: "no node".
const NIL: usize = usize::MAX;

/// Cache key: owning table id + block offset within the table file.
pub type CacheKey = (u64, u64);

/// What kind of SST block an entry holds; drives the per-kind tickers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// Prefix-compressed key/value data block.
    Data,
    /// The table's index block (last-key → handle).
    Index,
    /// The table's bloom filter block.
    Filter,
}

/// Construction-time cache knobs (see [`crate::Options`]).
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total byte capacity across all shards. Must be > 0.
    pub capacity: usize,
    /// log2 of the shard count (0 = one shard, useful for model tests).
    pub shard_bits: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 32 * 1024 * 1024, shard_bits: DEFAULT_SHARD_BITS }
    }
}

/// The counters a lookup or an insert writes: one stripe per thread.
#[derive(Default)]
struct CacheCounters {
    data_hits: AtomicU64,
    data_misses: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    filter_hits: AtomicU64,
    filter_misses: AtomicU64,
    /// Inserts larger than a shard, served uncached.
    oversized_bypass: AtomicU64,
    /// Blocks read ahead that later served a lookup.
    readahead_useful: AtomicU64,
}

/// Lifetime counters for the whole cache, all monotonic. The ones every
/// lookup and insert writes are striped per thread and summed by
/// [`BlockCache::stats`]; the two the fetcher maintains are written only
/// on slow paths (a miss that parks on another thread's read, a
/// readahead batch) and stay plain atomics. Evictions are counted by
/// each shard under its lock, where they happen.
#[derive(Default)]
pub struct CacheStats {
    hot: Striped<CacheCounters>,
    /// Threads that piggybacked on another thread's in-flight block fetch
    /// instead of issuing their own read (maintained by the fetcher).
    pub singleflight_waits: AtomicU64,
    /// Blocks a readahead batch read beyond the one its iterator stood on
    /// (maintained by the fetcher).
    pub readahead_issued: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`] plus the byte gauges.
#[derive(Default, Clone, Copy, Debug)]
pub struct CacheStatsSnapshot {
    pub data_hits: u64,
    pub data_misses: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub filter_hits: u64,
    pub filter_misses: u64,
    /// Entries evicted to make room, on insert or on release.
    pub evictions: u64,
    pub oversized_bypass: u64,
    pub singleflight_waits: u64,
    pub readahead_issued: u64,
    pub readahead_useful: u64,
    /// Bytes currently held by pinned (in-use) entries.
    pub pinned_bytes: u64,
    /// Total bytes currently charged (pinned + LRU-resident).
    pub usage_bytes: u64,
}

impl CacheStatsSnapshot {
    /// Total hits across block kinds.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.data_hits + self.index_hits + self.filter_hits
    }

    /// Total misses across block kinds.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.data_misses + self.index_misses + self.filter_misses
    }
}

/// The map's and the single-flight table's hash of a [`CacheKey`]: a
/// folded multiply (the 64 × 64 → 128-bit product, halves XORed) of the
/// two words under a per-cache secret key drawn from [`RandomState`]. A
/// forged index can choose block offsets but not the key, so it cannot
/// aim collisions at one bucket; under `Integrity::Hmac` a forged index
/// does not verify in the first place.
#[derive(Clone, Copy)]
pub(crate) struct KeyMix {
    k0: u64,
    k1: u64,
    k2: u64,
}

#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl KeyMix {
    /// A freshly keyed mix.
    pub(crate) fn new() -> Self {
        let seed = RandomState::new();
        KeyMix { k0: seed.hash_one(0u64), k1: seed.hash_one(1u64), k2: seed.hash_one(2u64) | 1 }
    }

    /// The keyed hash of `(table_id, offset)`.
    #[inline]
    pub(crate) fn hash(&self, key: &CacheKey) -> u64 {
        folded_multiply(folded_multiply(key.0 ^ self.k0, key.1 ^ self.k1), self.k2)
    }

    /// Which of `shards` (a power of two) holds `key`. Bits 32 and up:
    /// the maps inside a shard index with the low bits and tag with the
    /// top seven, so the shard choice leaves both free.
    #[inline]
    pub(crate) fn shard(&self, key: &CacheKey, shards: usize) -> usize {
        (self.hash(key) >> 32) as usize & (shards - 1)
    }
}

impl BuildHasher for KeyMix {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { mix: *self, words: [0; 2], written: 0 }
    }
}

/// `KeyMix` as a [`Hasher`] of the one key it serves: a [`CacheKey`]
/// hashes as exactly two `write_u64` calls.
pub(crate) struct KeyHasher {
    mix: KeyMix,
    words: [u64; 2],
    written: usize,
}

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a CacheKey hashes as two u64 words");
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.words[self.written] = word;
        self.written += 1;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.mix.hash(&(self.words[0], self.words[1]))
    }
}

struct Node {
    key: CacheKey,
    /// `None` once the slot is freed: a free slot holds no allocation.
    block: Option<Arc<Block>>,
    charge: usize,
    /// Pin count. A mapped node is either pinned (> 0) or on the LRU
    /// list (0), and only listed nodes are evicted.
    refs: u32,
    /// Inserted by readahead and not yet hit.
    prefetched: bool,
    prev: usize,
    next: usize,
}

/// Intrusive doubly-linked list over slab indices. `head` is MRU.
#[derive(Clone, Copy)]
struct LruList {
    head: usize,
    tail: usize,
}

impl LruList {
    const fn new() -> Self {
        LruList { head: NIL, tail: NIL }
    }

    fn push_front(&mut self, nodes: &mut [Node], idx: usize) {
        nodes[idx].prev = NIL;
        nodes[idx].next = self.head;
        if self.head != NIL {
            nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, nodes: &mut [Node], idx: usize) {
        let (prev, next) = (nodes[idx].prev, nodes[idx].next);
        if prev != NIL {
            nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        nodes[idx].prev = NIL;
        nodes[idx].next = NIL;
    }
}

/// Blocks a shard operation unmapped, for the caller to drop after it
/// releases the shard lock. An insert into a full shard evicts one block
/// of the same size, so the first needs no allocation.
#[derive(Default)]
struct Evicted {
    first: Option<Arc<Block>>,
    rest: Vec<Arc<Block>>,
}

impl Evicted {
    fn push(&mut self, block: Option<Arc<Block>>) {
        match (&self.first, block) {
            (_, None) => {}
            (None, block) => self.first = block,
            (Some(_), Some(block)) => self.rest.push(block),
        }
    }
}

struct Shard {
    map: HashMap<CacheKey, usize, KeyMix>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Every unpinned entry, most recently used at the head.
    lru: LruList,
    /// Total charge of all live nodes (listed + pinned).
    usage: usize,
    /// Charge of nodes with `refs > 0`.
    pinned_usage: usize,
    capacity: usize,
    /// Entries evicted so far.
    evictions: u64,
}

impl Shard {
    fn new(capacity: usize, mix: KeyMix) -> Self {
        Shard {
            map: HashMap::with_hasher(mix),
            nodes: Vec::new(),
            free: Vec::new(),
            lru: LruList::new(),
            usage: 0,
            pinned_usage: 0,
            capacity,
            evictions: 0,
        }
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Pins `idx` (takes it off the list) and returns its block.
    fn pin(&mut self, idx: usize) -> Arc<Block> {
        if self.nodes[idx].refs == 0 {
            self.lru.unlink(&mut self.nodes, idx);
            self.pinned_usage += self.nodes[idx].charge;
        }
        let node = &mut self.nodes[idx];
        node.refs += 1;
        match &node.block {
            Some(block) => block.clone(),
            None => unreachable!("a mapped slot holds its block"),
        }
    }

    /// Looks up `key`, pins the entry, and reports whether it was a
    /// prefetched block serving its first hit.
    fn lookup(&mut self, key: &CacheKey) -> Option<(usize, Arc<Block>, bool)> {
        let idx = *self.map.get(key)?;
        let was_prefetched = std::mem::take(&mut self.nodes[idx].prefetched);
        Some((idx, self.pin(idx), was_prefetched))
    }

    /// Drops one pin from `idx`. The last pin puts the entry back on the
    /// list, which may evict: an insert admitted while everything else
    /// was pinned leaves the shard over capacity until pins go. Returns
    /// what it unmapped.
    fn release(&mut self, idx: usize) -> Evicted {
        let mut evicted = Evicted::default();
        let node = &mut self.nodes[idx];
        debug_assert!(node.refs > 0, "release without a pin");
        node.refs -= 1;
        if node.refs == 0 {
            self.pinned_usage -= node.charge;
            self.lru.push_front(&mut self.nodes, idx);
            self.evict_to_fit(0, &mut evicted);
        }
        evicted
    }

    /// Evicts list tails until `incoming` more bytes fit or only pinned
    /// entries are left, moving their blocks into `out`.
    fn evict_to_fit(&mut self, incoming: usize, out: &mut Evicted) {
        while self.usage + incoming > self.capacity && self.lru.tail != NIL {
            let victim = self.lru.tail;
            self.lru.unlink(&mut self.nodes, victim);
            let node = &mut self.nodes[victim];
            self.map.remove(&node.key);
            self.usage -= node.charge;
            out.push(node.block.take());
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    /// Pins the entry for `key`, inserting `block` if none is resident;
    /// `None` when `charge` exceeds the shard. What it evicted goes to
    /// `out`.
    fn insert(
        &mut self,
        key: CacheKey,
        block: &Arc<Block>,
        charge: usize,
        prefetched: bool,
        out: &mut Evicted,
    ) -> Option<(usize, Arc<Block>)> {
        if let Some(&idx) = self.map.get(&key) {
            // Blocks are immutable and keyed by (file, offset): a racing
            // insert carries identical content, so serve the resident copy.
            return Some((idx, self.pin(idx)));
        }
        if charge > self.capacity {
            return None;
        }
        self.evict_to_fit(charge, out);
        let idx = self.alloc(Node {
            key,
            block: Some(block.clone()),
            charge,
            refs: 1, // born pinned by the returned handle
            prefetched,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.usage += charge;
        self.pinned_usage += charge;
        Some((idx, block.clone()))
    }
}

/// One shard behind its lock, on lines of its own.
#[repr(align(128))]
struct ShardCell(Mutex<Shard>);

/// A sharded LRU cache with a global byte capacity.
pub struct BlockCache {
    shards: Box<[Arc<ShardCell>]>,
    mix: KeyMix,
    stats: CacheStats,
}

/// A pinned reference to a cached block. The entry's bytes stay charged
/// and it cannot be evicted until every handle is dropped. The handle
/// keeps its shard alive, not the whole cache.
pub struct CacheHandle {
    shard: Arc<ShardCell>,
    idx: usize,
    block: Arc<Block>,
}

impl CacheHandle {
    /// The pinned block.
    #[must_use]
    pub fn block(&self) -> &Arc<Block> {
        &self.block
    }
}

impl Drop for CacheHandle {
    fn drop(&mut self) {
        let evicted = self.shard.0.lock().release(self.idx);
        drop(evicted); // after the lock
    }
}

impl BlockCache {
    /// Creates a cache with `capacity` total bytes and default knobs.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — gate construction on a non-zero
    /// configuration (as [`crate::Db::open`] does) or use
    /// [`BlockCache::with_config`] to handle the error.
    #[must_use]
    pub fn new(capacity: usize) -> Arc<Self> {
        match Self::with_config(CacheConfig { capacity, ..CacheConfig::default() }) {
            Ok(cache) => cache,
            Err(e) => panic!("invalid block cache capacity {capacity}: {e}"),
        }
    }

    /// Creates a cache, validating the configuration: zero capacity and
    /// more than 2^10 shards are configuration errors, not silent
    /// misbehavior.
    pub fn with_config(config: CacheConfig) -> Result<Arc<Self>> {
        if config.capacity == 0 {
            return Err(Error::InvalidArgument("block cache capacity must be > 0".into()));
        }
        if config.shard_bits > 10 {
            return Err(Error::InvalidArgument(format!(
                "shard_bits {} too large (max 10)",
                config.shard_bits
            )));
        }
        let shards = 1usize << config.shard_bits;
        let per_shard = (config.capacity / shards).max(1);
        let mix = KeyMix::new();
        Ok(Arc::new(BlockCache {
            shards: (0..shards)
                .map(|_| Arc::new(ShardCell(Mutex::new(Shard::new(per_shard, mix)))))
                .collect(),
            mix,
            stats: CacheStats::default(),
        }))
    }

    fn shard_for(&self, key: &CacheKey) -> &Arc<ShardCell> {
        &self.shards[self.mix.shard(key, self.shards.len())]
    }

    /// The keyed hash this cache's maps use; the fetcher's single-flight
    /// table shards by it too.
    pub(crate) fn key_mix(&self) -> KeyMix {
        self.mix
    }

    fn count_lookup(&self, kind: BlockKind, hit: bool) {
        let c = self.stats.hot.local();
        let counter = match (kind, hit) {
            (BlockKind::Data, true) => &c.data_hits,
            (BlockKind::Data, false) => &c.data_misses,
            (BlockKind::Index, true) => &c.index_hits,
            (BlockKind::Index, false) => &c.index_misses,
            (BlockKind::Filter, true) => &c.filter_hits,
            (BlockKind::Filter, false) => &c.filter_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a block, pinning it and refreshing its recency.
    #[must_use]
    pub fn lookup(&self, key: &CacheKey, kind: BlockKind) -> Option<CacheHandle> {
        let shard = self.shard_for(key);
        let found = shard.0.lock().lookup(key);
        self.count_lookup(kind, found.is_some());
        found.map(|(idx, block, was_prefetched)| {
            if was_prefetched {
                self.stats.hot.local().readahead_useful.fetch_add(1, Ordering::Relaxed);
            }
            CacheHandle { shard: shard.clone(), idx, block }
        })
    }

    /// Inserts a block (pinned by the returned handle). Returns `None`
    /// when the entry is larger than a shard, in which case the caller
    /// simply keeps its own `Arc<Block>` uncached. Every block kind
    /// shares one LRU list, so `kind` does not change admission.
    pub fn insert(
        &self,
        key: CacheKey,
        block: &Arc<Block>,
        charge: usize,
        _kind: BlockKind,
        prefetched: bool,
    ) -> Option<CacheHandle> {
        let shard = self.shard_for(&key);
        let mut evicted = Evicted::default();
        let pinned = shard.0.lock().insert(key, block, charge, prefetched, &mut evicted);
        drop(evicted); // after the lock
        match pinned {
            Some((idx, block)) => Some(CacheHandle { shard: shard.clone(), idx, block }),
            None => {
                self.stats.hot.local().oversized_bypass.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True if `key` is resident, without touching recency or tickers
    /// (used by readahead to skip already-cached blocks).
    #[must_use]
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shard_for(key).0.lock().map.contains_key(key)
    }

    /// Lifetime counters shared with the fetcher layer.
    #[must_use]
    pub fn counters(&self) -> &CacheStats {
        &self.stats
    }

    /// Snapshot of all counters (each striped one summed) plus the byte
    /// gauges.
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        let mut snap = CacheStatsSnapshot {
            singleflight_waits: self.stats.singleflight_waits.load(Ordering::Relaxed),
            readahead_issued: self.stats.readahead_issued.load(Ordering::Relaxed),
            ..CacheStatsSnapshot::default()
        };
        for c in self.stats.hot.all() {
            snap.data_hits += c.data_hits.load(Ordering::Relaxed);
            snap.data_misses += c.data_misses.load(Ordering::Relaxed);
            snap.index_hits += c.index_hits.load(Ordering::Relaxed);
            snap.index_misses += c.index_misses.load(Ordering::Relaxed);
            snap.filter_hits += c.filter_hits.load(Ordering::Relaxed);
            snap.filter_misses += c.filter_misses.load(Ordering::Relaxed);
            snap.oversized_bypass += c.oversized_bypass.load(Ordering::Relaxed);
            snap.readahead_useful += c.readahead_useful.load(Ordering::Relaxed);
        }
        for s in self.shards.iter() {
            let s = s.0.lock();
            snap.pinned_bytes += s.pinned_usage as u64;
            snap.usage_bytes += s.usage as u64;
            snap.evictions += s.evictions;
        }
        snap
    }

    /// Total bytes currently charged (pinned + resident).
    #[must_use]
    pub fn usage(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().usage).sum()
    }

    /// Number of cached blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().map.len()).sum()
    }

    /// True if no blocks are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Arc<Block> {
        // A minimal well-formed block: one restart (0) + restart count (1).
        let mut data = vec![0u8; n.max(8)];
        let len = data.len();
        data[len - 8..len - 4].copy_from_slice(&0u32.to_le_bytes());
        data[len - 4..].copy_from_slice(&1u32.to_le_bytes());
        Arc::new(Block::from_raw(data.into()))
    }

    fn single_shard(capacity: usize) -> Arc<BlockCache> {
        BlockCache::with_config(CacheConfig { capacity, shard_bits: 0 }).expect("config")
    }

    #[test]
    fn hit_and_miss() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.lookup(&(1, 0), BlockKind::Data).is_none());
        drop(cache.insert((1, 0), &block(100), 100, BlockKind::Data, false));
        assert!(cache.lookup(&(1, 0), BlockKind::Data).is_some());
        let s = cache.stats();
        assert_eq!((s.hits(), s.misses()), (1, 1));
    }

    #[test]
    fn eviction_respects_capacity() {
        let cache = single_shard(1000);
        for i in 0..200u64 {
            drop(cache.insert((i, 0), &block(100), 100, BlockKind::Data, false));
        }
        assert!(cache.usage() <= 1000, "usage {}", cache.usage());
        assert_eq!(cache.len(), 10);
        assert!(cache.stats().evictions >= 190);
    }

    #[test]
    fn recency_protects_hot_entries() {
        let cache = single_shard(1000);
        let probe = (42u64, 0u64);
        drop(cache.insert(probe, &block(100), 100, BlockKind::Data, false));
        for i in 1..100u64 {
            // Keep touching the probe so it stays most-recent.
            let _ = cache.lookup(&probe, BlockKind::Data);
            drop(cache.insert((42, i), &block(100), 100, BlockKind::Data, false));
        }
        assert!(cache.lookup(&probe, BlockKind::Data).is_some(), "hot entry evicted");
    }

    #[test]
    fn duplicate_insert_returns_resident_block() {
        let cache = single_shard(1 << 20);
        let first = block(100);
        let h1 = cache.insert((1, 1), &first, 100, BlockKind::Data, false).expect("insert");
        let h2 = cache.insert((1, 1), &block(100), 100, BlockKind::Data, false).expect("dup");
        assert!(Arc::ptr_eq(h1.block(), h2.block()));
        assert_eq!(cache.usage(), 100);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let cache = single_shard(1000);
        let pin =
            cache.insert((7, 7), &block(100), 100, BlockKind::Data, false).expect("insert");
        for i in 0..50u64 {
            drop(cache.insert((1, i), &block(100), 100, BlockKind::Data, false));
        }
        // The pinned entry is still resident and still charged.
        assert!(cache.lookup(&(7, 7), BlockKind::Data).is_some());
        assert!(cache.stats().pinned_bytes >= 100);
        drop(pin);
        // Unpinned now: enough pressure evicts it.
        for i in 100..150u64 {
            drop(cache.insert((1, i), &block(100), 100, BlockKind::Data, false));
        }
        assert_eq!(cache.stats().pinned_bytes, 0);
        assert!(cache.usage() <= 1000);
    }

    #[test]
    fn oversized_insert_bypasses_and_counts() {
        let cache = single_shard(1000);
        assert!(cache.insert((1, 0), &block(4000), 4000, BlockKind::Data, false).is_none());
        assert_eq!(cache.usage(), 0);
        assert_eq!(cache.stats().oversized_bypass, 1);
        // The cache still works for reasonable entries afterwards.
        drop(cache.insert((1, 1), &block(100), 100, BlockKind::Data, false));
        assert_eq!(cache.usage(), 100);
    }

    #[test]
    fn evictions_on_release_are_counted() {
        let cache = single_shard(1000);
        let kept = cache.insert((1, 0), &block(600), 600, BlockKind::Data, false).expect("ins");
        let released = cache.insert((1, 1), &block(600), 600, BlockKind::Data, false);
        assert_eq!(cache.usage(), 1200, "both admitted while pinned");
        drop(released); // the shard is over capacity: its release evicts it
        let s = cache.stats();
        assert_eq!((cache.len(), s.evictions), (1, 1));
        assert_eq!(cache.len() as u64 + s.evictions, 2, "admitted = resident + evicted");
        drop(kept);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(BlockCache::with_config(CacheConfig {
            capacity: 0,
            ..CacheConfig::default()
        })
        .is_err());
        assert!(BlockCache::with_config(CacheConfig { capacity: 100, shard_bits: 11 }).is_err());
    }

    #[test]
    fn prefetched_first_hit_counts_readahead_useful() {
        let cache = single_shard(1 << 20);
        drop(cache.insert((1, 0), &block(100), 100, BlockKind::Data, true));
        assert_eq!(cache.stats().readahead_useful, 0);
        let _ = cache.lookup(&(1, 0), BlockKind::Data);
        assert_eq!(cache.stats().readahead_useful, 1);
        // Only the first hit counts.
        let _ = cache.lookup(&(1, 0), BlockKind::Data);
        assert_eq!(cache.stats().readahead_useful, 1);
    }

    #[test]
    fn a_handle_outlives_its_cache() {
        let cache = single_shard(1 << 20);
        let h = cache.insert((1, 0), &block(100), 100, BlockKind::Data, false).expect("ins");
        drop(cache);
        assert_eq!(h.block().size(), 100);
        drop(h); // releases into the shard it pinned
    }

    #[test]
    fn an_evicted_slot_keeps_no_block() {
        let cache = single_shard(300);
        let first = block(100);
        drop(cache.insert((1, 0), &first, 100, BlockKind::Data, false));
        assert_eq!(Arc::strong_count(&first), 2, "resident: the cache holds one reference");
        for i in 1..4u64 {
            drop(cache.insert((1, i), &block(100), 100, BlockKind::Data, false));
        }
        assert!(!cache.contains(&(1, 0)));
        assert_eq!(Arc::strong_count(&first), 1, "evicted: the freed slot holds nothing");
        // The freed slot is reused without a placeholder.
        drop(cache.insert((2, 0), &block(100), 100, BlockKind::Data, false));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn key_mix_is_keyed_per_cache_and_hashes_as_the_map_does() {
        let (a, b) = (KeyMix::new(), KeyMix::new());
        let keys: Vec<CacheKey> = (0..64u64).map(|i| (7, i * 4096)).collect();
        assert!(keys.iter().any(|k| a.hash(k) != b.hash(k)), "two caches, one key");
        for k in &keys {
            assert_eq!(a.hash_one(k), a.hash(k), "the map hashes a key as `hash` does");
            assert!(a.shard(k, 16) < 16);
        }
        let shards: std::collections::HashSet<usize> =
            keys.iter().map(|k| a.shard(k, 16)).collect();
        assert!(shards.len() > 8, "64 offsets of one table land in {} of 16 shards", shards.len());
    }

    #[test]
    fn striped_counters_sum_across_threads() {
        let cache = BlockCache::new(1 << 20);
        drop(cache.insert((1, 0), &block(100), 100, BlockKind::Data, false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        drop(cache.lookup(&(1, 0), BlockKind::Data));
                        drop(cache.lookup(&(1, 1), BlockKind::Index));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!((stats.data_hits, stats.index_misses), (4000, 4000));
    }

    #[test]
    fn pinned_bytes_gauge_tracks_handles() {
        let cache = single_shard(1 << 20);
        let h = cache.insert((1, 0), &block(100), 100, BlockKind::Data, false).expect("ins");
        assert_eq!(cache.stats().pinned_bytes, 100);
        let h2 = cache.lookup(&(1, 0), BlockKind::Data).expect("hit");
        assert_eq!(cache.stats().pinned_bytes, 100); // same entry, one charge
        drop(h);
        assert_eq!(cache.stats().pinned_bytes, 100);
        drop(h2);
        assert_eq!(cache.stats().pinned_bytes, 0);
        assert_eq!(cache.usage(), 100); // still resident, unpinned
    }
}
