//! A sharded LRU block cache for decrypted, uncompressed SST blocks.
//!
//! Keys are `(table_id, block_offset)`. The cache stores blocks *after*
//! decryption — in-memory protection is out of the paper's scope (§3.1),
//! and caching plaintext blocks is what makes read-path encryption overhead
//! nearly invisible (§6.2's readrandom results).
//!
//! Each shard is an intrusive doubly-linked LRU over slab-allocated nodes,
//! so eviction is O(1) (the seed design scanned every entry per insert).
//! Three properties matter to the read path built on top
//! ([`crate::sst::fetcher::BlockFetcher`]):
//!
//! - **Pinned handles.** [`BlockCache::lookup`] and [`BlockCache::insert`]
//!   return a [`CacheHandle`] that holds a reference on the entry. Pinned
//!   entries leave the LRU list and cannot be evicted, but their bytes stay
//!   charged against capacity (strict accounting) — an iterator mid-block
//!   never has its block's charge silently dropped.
//! - **High-priority pool.** Index and filter blocks land in a separate
//!   LRU segment sized by `high_pri_pool_ratio`; data-block scans cannot
//!   flush them. When the pool overflows, its coldest entries demote into
//!   the ordinary LRU instead of being lost.
//! - **Fail-soft admission.** An entry larger than a shard, or any entry
//!   that cannot fit in strict-capacity mode without evicting pinned
//!   blocks, bypasses the cache (`oversized_bypass` / strict rejection
//!   tickers) rather than wedging usage above capacity forever — the seed
//!   cache's `map.len() > 1` guard let one oversized block survive
//!   eviction indefinitely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::sst::block::Block;

const DEFAULT_SHARD_BITS: u32 = 4;
/// Slab sentinel: "no node".
const NIL: usize = usize::MAX;

/// Cache key: owning table id + block offset within the table file.
pub type CacheKey = (u64, u64);

/// What kind of SST block an entry holds; drives per-kind tickers and the
/// high-priority pool (index/filter are high-priority).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// Prefix-compressed key/value data block.
    Data,
    /// The table's index block (last-key → handle).
    Index,
    /// The table's bloom filter block.
    Filter,
}

impl BlockKind {
    fn high_priority(self) -> bool {
        !matches!(self, BlockKind::Data)
    }
}

/// Construction-time cache knobs (see [`crate::Options`]).
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total byte capacity across all shards. Must be > 0.
    pub capacity: usize,
    /// Reject inserts that cannot fit after evicting every unpinned entry
    /// (the caller falls back to an uncached block). When false, such
    /// inserts are admitted and usage may temporarily exceed capacity.
    pub strict_capacity: bool,
    /// Fraction of capacity reserved for index/filter blocks, in `[0, 1]`.
    pub high_pri_pool_ratio: f64,
    /// log2 of the shard count (0 = one shard, useful for model tests).
    pub shard_bits: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 32 * 1024 * 1024,
            strict_capacity: false,
            high_pri_pool_ratio: 0.1,
            shard_bits: DEFAULT_SHARD_BITS,
        }
    }
}

/// Lifetime counters for the whole cache. Monotonic except
/// `pinned_bytes`/`usage_bytes`, which are point-in-time gauges.
#[derive(Default)]
pub struct CacheStats {
    pub data_hits: AtomicU64,
    pub data_misses: AtomicU64,
    pub index_hits: AtomicU64,
    pub index_misses: AtomicU64,
    pub filter_hits: AtomicU64,
    pub filter_misses: AtomicU64,
    /// Entries evicted to make room.
    pub evictions: AtomicU64,
    /// Inserts that bypassed the cache (oversized or strict-capacity).
    pub oversized_bypass: AtomicU64,
    /// Threads that piggybacked on another thread's in-flight block fetch
    /// instead of issuing their own read (maintained by the fetcher).
    pub singleflight_waits: AtomicU64,
    /// Blocks a readahead batch read beyond the one its iterator stood on
    /// (maintained by the fetcher).
    pub readahead_issued: AtomicU64,
    /// Blocks read ahead that later served a lookup.
    pub readahead_useful: AtomicU64,
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

struct Node {
    key: CacheKey,
    block: Arc<Block>,
    charge: usize,
    /// Pin count; > 0 means off-list and not evictable.
    refs: u32,
    /// Which LRU list the node is on (`None` while pinned).
    on_list: Option<ListId>,
    /// Entry currently lives in the high-priority pool.
    high_pri: bool,
    /// Inserted by readahead and not yet hit.
    prefetched: bool,
    prev: usize,
    next: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ListId {
    Low,
    High,
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

struct Shard {
    map: HashMap<CacheKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    low: LruList,
    high: LruList,
    /// Total charge of all live nodes (listed + pinned).
    usage: usize,
    /// Charge of nodes with `refs > 0`.
    pinned_usage: usize,
    /// Charge of nodes currently flagged high-priority.
    high_usage: usize,
    capacity: usize,
    high_pri_capacity: usize,
    strict: bool,
}

impl Shard {
    fn new(capacity: usize, high_pri_capacity: usize, strict: bool) -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            low: LruList::new(),
            high: LruList::new(),
            usage: 0,
            pinned_usage: 0,
            high_usage: 0,
            capacity,
            high_pri_capacity,
            strict,
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

    fn list_mut(&mut self, id: ListId) -> (&mut LruList, &mut Vec<Node>) {
        match id {
            ListId::Low => (&mut self.low, &mut self.nodes),
            ListId::High => (&mut self.high, &mut self.nodes),
        }
    }

    fn detach(&mut self, idx: usize) {
        if let Some(id) = self.nodes[idx].on_list.take() {
            let (list, nodes) = self.list_mut(id);
            list.unlink(nodes, idx);
        }
    }

    fn attach_front(&mut self, idx: usize) {
        let id = if self.nodes[idx].high_pri { ListId::High } else { ListId::Low };
        self.nodes[idx].on_list = Some(id);
        let (list, nodes) = self.list_mut(id);
        list.push_front(nodes, idx);
    }

    /// Pins `idx` (takes it off its list) and returns its block.
    fn pin(&mut self, idx: usize) -> Arc<Block> {
        self.detach(idx);
        let node = &mut self.nodes[idx];
        if node.refs == 0 {
            self.pinned_usage += node.charge;
        }
        node.refs += 1;
        node.block.clone()
    }

    /// Looks up `key`, pins the entry, and reports whether it was a
    /// prefetched block serving its first hit.
    fn lookup(&mut self, key: &CacheKey) -> Option<(usize, Arc<Block>, bool)> {
        let idx = *self.map.get(key)?;
        let was_prefetched = std::mem::take(&mut self.nodes[idx].prefetched);
        Some((idx, self.pin(idx), was_prefetched))
    }

    /// Drops one pin from `idx`; re-lists (or frees a detached zombie)
    /// when the last pin goes away.
    fn release(&mut self, idx: usize) {
        let node = &mut self.nodes[idx];
        debug_assert!(node.refs > 0, "release without a pin");
        node.refs -= 1;
        if node.refs > 0 {
            return;
        }
        let charge = node.charge;
        self.pinned_usage -= charge;
        let in_cache = self.map.get(&node.key).copied() == Some(idx);
        if in_cache {
            self.attach_front(idx);
            // The release may have made an over-capacity shard shrinkable.
            self.evict_to_fit(0);
            self.maintain_high_pool();
        } else {
            self.free_node(idx);
        }
    }

    fn free_node(&mut self, idx: usize) {
        let node = &mut self.nodes[idx];
        self.usage -= node.charge;
        if node.high_pri {
            self.high_usage -= node.charge;
        }
        node.block = dead_block();
        self.free.push(idx);
    }

    /// Evicts list tails (low first, then high) until `incoming` more
    /// bytes fit. Returns the number of evictions; fitting is reported by
    /// re-checking usage at the caller.
    fn evict_to_fit(&mut self, incoming: usize) -> u64 {
        let mut evicted = 0;
        while self.usage + incoming > self.capacity {
            let victim = if self.low.tail != NIL {
                self.low.tail
            } else if self.high.tail != NIL {
                self.high.tail
            } else {
                break; // everything left is pinned
            };
            self.detach(victim);
            let key = self.nodes[victim].key;
            self.map.remove(&key);
            self.free_node(victim);
            evicted += 1;
        }
        evicted
    }

    /// Demotes the coldest high-priority entries into the ordinary LRU
    /// while the pool exceeds its budget.
    fn maintain_high_pool(&mut self) {
        while self.high_usage > self.high_pri_capacity && self.high.tail != NIL {
            let idx = self.high.tail;
            self.detach(idx);
            self.nodes[idx].high_pri = false;
            self.high_usage -= self.nodes[idx].charge;
            self.attach_front(idx); // now lands on the low list (MRU end)
        }
    }

    /// Outcome of [`Shard::insert`].
    fn insert(
        &mut self,
        key: CacheKey,
        block: &Arc<Block>,
        charge: usize,
        kind: BlockKind,
        prefetched: bool,
    ) -> ShardInsert {
        if let Some(&idx) = self.map.get(&key) {
            // Blocks are immutable and keyed by (file, offset): a racing
            // insert carries identical content, so serve the resident copy.
            return ShardInsert::Existing(idx, self.pin(idx));
        }
        if charge > self.capacity {
            return ShardInsert::Bypassed;
        }
        let evicted = self.evict_to_fit(charge);
        if self.strict && self.usage + charge > self.capacity {
            return ShardInsert::Rejected(evicted);
        }
        let high_pri = kind.high_priority();
        let idx = self.alloc(Node {
            key,
            block: block.clone(),
            charge,
            refs: 1, // born pinned by the returned handle
            on_list: None,
            high_pri,
            prefetched,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.usage += charge;
        self.pinned_usage += charge;
        if high_pri {
            self.high_usage += charge;
            self.maintain_high_pool();
        }
        ShardInsert::Inserted(idx, evicted)
    }
}

enum ShardInsert {
    /// New entry at this slab index, pinned; carries the eviction count.
    Inserted(usize, u64),
    /// The key was already resident; its block is returned pinned.
    Existing(usize, Arc<Block>),
    /// Entry larger than the shard: caller keeps its own copy.
    Bypassed,
    /// Strict-capacity rejection (everything evictable already evicted).
    Rejected(u64),
}

/// Placeholder block for freed slab slots (avoids `Option` in every node).
fn dead_block() -> Arc<Block> {
    Arc::new(Block::from_raw(bytes::Bytes::new()))
}

/// A sharded LRU cache with a global byte capacity.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    shard_bits: u32,
    stats: CacheStats,
}

/// A pinned reference to a cached block. The entry's bytes stay charged
/// and it cannot be evicted until every handle is dropped.
pub struct CacheHandle {
    cache: Arc<BlockCache>,
    shard: usize,
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
        self.cache.shards[self.shard].lock().release(self.idx);
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
    /// ratios outside `[0, 1]` are configuration errors, not silent
    /// misbehavior.
    pub fn with_config(config: CacheConfig) -> Result<Arc<Self>> {
        if config.capacity == 0 {
            return Err(Error::InvalidArgument("block cache capacity must be > 0".into()));
        }
        if !(0.0..=1.0).contains(&config.high_pri_pool_ratio) {
            return Err(Error::InvalidArgument(format!(
                "high_pri_pool_ratio {} outside [0, 1]",
                config.high_pri_pool_ratio
            )));
        }
        if config.shard_bits > 10 {
            return Err(Error::InvalidArgument(format!(
                "shard_bits {} too large (max 10)",
                config.shard_bits
            )));
        }
        let shards = 1usize << config.shard_bits;
        let per_shard = (config.capacity / shards).max(1);
        let high_pri = (per_shard as f64 * config.high_pri_pool_ratio) as usize;
        Ok(Arc::new(BlockCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard, high_pri, config.strict_capacity)))
                .collect(),
            shard_bits: config.shard_bits,
            stats: CacheStats::default(),
        }))
    }

    fn shard_for(&self, key: &CacheKey) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        // Mix table id and offset.
        let h = key
            .0
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key.1.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        (h >> (64 - self.shard_bits)) as usize
    }

    fn count_lookup(&self, kind: BlockKind, hit: bool) {
        let counter = match (kind, hit) {
            (BlockKind::Data, true) => &self.stats.data_hits,
            (BlockKind::Data, false) => &self.stats.data_misses,
            (BlockKind::Index, true) => &self.stats.index_hits,
            (BlockKind::Index, false) => &self.stats.index_misses,
            (BlockKind::Filter, true) => &self.stats.filter_hits,
            (BlockKind::Filter, false) => &self.stats.filter_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a block, pinning it and refreshing its recency.
    #[must_use]
    pub fn lookup(self: &Arc<Self>, key: &CacheKey, kind: BlockKind) -> Option<CacheHandle> {
        let shard = self.shard_for(key);
        let found = self.shards[shard].lock().lookup(key);
        self.count_lookup(kind, found.is_some());
        found.map(|(idx, block, was_prefetched)| {
            if was_prefetched {
                self.stats.readahead_useful.fetch_add(1, Ordering::Relaxed);
            }
            CacheHandle { cache: self.clone(), shard, idx, block }
        })
    }

    /// Inserts a block (pinned by the returned handle). Returns `None`
    /// when the entry was not admitted — oversized for a shard, or
    /// strict-capacity with only pinned entries left — in which case the
    /// caller simply keeps its own `Arc<Block>` uncached.
    pub fn insert(
        self: &Arc<Self>,
        key: CacheKey,
        block: &Arc<Block>,
        charge: usize,
        kind: BlockKind,
        prefetched: bool,
    ) -> Option<CacheHandle> {
        let shard = self.shard_for(&key);
        let outcome = self.shards[shard].lock().insert(key, block, charge, kind, prefetched);
        match outcome {
            ShardInsert::Inserted(idx, evicted) => {
                if evicted > 0 {
                    self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                Some(CacheHandle { cache: self.clone(), shard, idx, block: block.clone() })
            }
            ShardInsert::Existing(idx, resident) => {
                Some(CacheHandle { cache: self.clone(), shard, idx, block: resident })
            }
            ShardInsert::Bypassed => {
                self.stats.oversized_bypass.fetch_add(1, Ordering::Relaxed);
                None
            }
            ShardInsert::Rejected(evicted) => {
                if evicted > 0 {
                    self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                self.stats.oversized_bypass.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// True if `key` is resident, without touching recency or tickers
    /// (used by readahead to skip already-cached blocks).
    #[must_use]
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shards[self.shard_for(key)].lock().map.contains_key(key)
    }

    /// Lifetime counters shared with the fetcher layer.
    #[must_use]
    pub fn counters(&self) -> &CacheStats {
        &self.stats
    }

    /// Snapshot of all counters plus the byte gauges.
    #[must_use]
    pub fn stats(&self) -> CacheStatsSnapshot {
        let mut snap = CacheStatsSnapshot {
            data_hits: self.stats.data_hits.load(Ordering::Relaxed),
            data_misses: self.stats.data_misses.load(Ordering::Relaxed),
            index_hits: self.stats.index_hits.load(Ordering::Relaxed),
            index_misses: self.stats.index_misses.load(Ordering::Relaxed),
            filter_hits: self.stats.filter_hits.load(Ordering::Relaxed),
            filter_misses: self.stats.filter_misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            oversized_bypass: self.stats.oversized_bypass.load(Ordering::Relaxed),
            singleflight_waits: self.stats.singleflight_waits.load(Ordering::Relaxed),
            readahead_issued: self.stats.readahead_issued.load(Ordering::Relaxed),
            readahead_useful: self.stats.readahead_useful.load(Ordering::Relaxed),
            pinned_bytes: 0,
            usage_bytes: 0,
        };
        for s in &self.shards {
            let s = s.lock();
            snap.pinned_bytes += s.pinned_usage as u64;
            snap.usage_bytes += s.usage as u64;
        }
        snap
    }

    /// `(hits, misses)` since creation, summed over block kinds.
    #[must_use]
    pub fn hit_miss(&self) -> (u64, u64) {
        let s = self.stats();
        (s.hits(), s.misses())
    }

    /// Total bytes currently charged (pinned + resident).
    #[must_use]
    pub fn usage(&self) -> usize {
        self.shards.iter().map(|s| s.lock().usage).sum()
    }

    /// Bytes currently held by pinned entries.
    #[must_use]
    pub fn pinned_usage(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pinned_usage).sum()
    }

    /// Number of cached blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
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
        BlockCache::with_config(CacheConfig {
            capacity,
            shard_bits: 0,
            high_pri_pool_ratio: 0.0,
            ..CacheConfig::default()
        })
        .expect("config")
    }

    #[test]
    fn hit_and_miss() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.lookup(&(1, 0), BlockKind::Data).is_none());
        drop(cache.insert((1, 0), &block(100), 100, BlockKind::Data, false));
        assert!(cache.lookup(&(1, 0), BlockKind::Data).is_some());
        let (h, m) = cache.hit_miss();
        assert_eq!((h, m), (1, 1));
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
        assert!(cache.pinned_usage() >= 100);
        drop(pin);
        // Unpinned now: enough pressure evicts it.
        for i in 100..150u64 {
            drop(cache.insert((1, i), &block(100), 100, BlockKind::Data, false));
        }
        assert_eq!(cache.pinned_usage(), 0);
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
    fn strict_capacity_rejects_when_all_pinned() {
        let cache = BlockCache::with_config(CacheConfig {
            capacity: 1000,
            strict_capacity: true,
            high_pri_pool_ratio: 0.0,
            shard_bits: 0,
        })
        .expect("config");
        let _pins: Vec<_> = (0..9u64)
            .map(|i| cache.insert((1, i), &block(100), 100, BlockKind::Data, false))
            .collect();
        // 900/1000 pinned; a 200-byte entry cannot fit and nothing is
        // evictable, so strict mode must refuse it.
        assert!(cache.insert((2, 0), &block(200), 200, BlockKind::Data, false).is_none());
        assert_eq!(cache.usage(), 900);
    }

    #[test]
    fn non_strict_overfills_rather_than_failing() {
        let cache = single_shard(1000);
        let _pins: Vec<_> = (0..9u64)
            .map(|i| cache.insert((1, i), &block(100), 100, BlockKind::Data, false))
            .collect();
        let handle = cache.insert((2, 0), &block(200), 200, BlockKind::Data, false);
        assert!(handle.is_some());
        assert_eq!(cache.usage(), 1100); // temporarily over while pinned
        drop(handle);
        assert!(cache.usage() <= 1000, "release must evict back under capacity");
    }

    #[test]
    fn high_pri_pool_shields_index_blocks_from_scans() {
        let cache = BlockCache::with_config(CacheConfig {
            capacity: 1000,
            strict_capacity: false,
            high_pri_pool_ratio: 0.3,
            shard_bits: 0,
        })
        .expect("config");
        drop(cache.insert((9, 0), &block(200), 200, BlockKind::Index, false));
        // A long data scan floods the cache…
        for i in 0..100u64 {
            drop(cache.insert((1, i), &block(100), 100, BlockKind::Data, false));
        }
        // …but the index block, in the high-priority pool, survives.
        assert!(cache.lookup(&(9, 0), BlockKind::Index).is_some(), "index evicted by scan");
    }

    #[test]
    fn high_pool_overflow_demotes_rather_than_drops() {
        let cache = BlockCache::with_config(CacheConfig {
            capacity: 1000,
            strict_capacity: false,
            high_pri_pool_ratio: 0.2, // 200-byte pool
            shard_bits: 0,
        })
        .expect("config");
        for i in 0..4u64 {
            drop(cache.insert((9, i), &block(100), 100, BlockKind::Index, false));
        }
        // All four remain resident: overflowed pool entries demote to the
        // ordinary LRU instead of disappearing.
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.usage(), 400);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(BlockCache::with_config(CacheConfig {
            capacity: 0,
            ..CacheConfig::default()
        })
        .is_err());
        assert!(BlockCache::with_config(CacheConfig {
            capacity: 100,
            high_pri_pool_ratio: 1.5,
            ..CacheConfig::default()
        })
        .is_err());
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
