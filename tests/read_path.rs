//! Integration coverage for the unified read path (PR 5):
//!
//! - the sharded intrusive-LRU block cache checked against a reference
//!   `HashMap` + `VecDeque` model under arbitrary op sequences (proptest),
//! - pinned-handle charge accounting (a held handle blocks eviction but
//!   stays charged), and a closed table's index and filter blocks aging
//!   out ahead of newer data,
//! - single-flight miss coalescing: N threads missing the same block issue
//!   exactly one underlying read — proven twice, once by `MemEnv` I/O op
//!   counters and once by a `FaultInjectionEnv` armed with a *single*
//!   read error that all N threads must observe,
//! - iterator readahead: byte-identical scans, accounting that is exact
//!   straight after the scan, a fault that matters only on the block the
//!   scan stands on, and one read per block under eight concurrent scans,
//! - `fill_cache = false` honoured by `Db::scan`,
//! - a multi-threaded stress run in which the evictable charge never
//!   exceeds capacity, and whose post-join state must satisfy the
//!   cache's capacity and pin invariants, and
//! - the scan's skip rule: a run of one key's shadowed or too-new
//!   versions costs at most `MAX_SEQUENTIAL_SKIP` steps and one re-seek,
//! - `Db::scan` is timed as one op per call, while a user iterator times
//!   each step, and
//! - over remote storage, a get of a present key reads one block plus one
//!   per filter false positive the `bloom_*` tickers count.

mod support;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;
use shield_env::{
    Env, EnvResult, FaultInjectionEnv, FaultOp, FileKind, MemEnv, NetworkModel, RandomAccessFile,
    RemoteEnv,
};
use shield_lsm::cache::{BlockCache, BlockKind, CacheConfig, CacheKey};
use shield_lsm::iter::InternalIterator;
use shield_lsm::sst::builder::{TableBuilder, TableBuilderOptions};
use shield_lsm::sst::fetcher::read_verified;
use shield_lsm::sst::format::{BlockHandle, Footer, FOOTER_LEN};
use shield_lsm::sst::{Block, BlockFetcher, Table, TableKeys};
use shield_lsm::types::{make_internal_key, ValueType};
use shield_lsm::{Db, Options, ReadOptions, WriteOptions, MAX_SEQUENTIAL_SKIP};

/// A minimal well-formed block body of `n` bytes (one restart at 0).
fn test_block(n: usize) -> Arc<Block> {
    let mut data = vec![0u8; n.max(8)];
    let len = data.len();
    data[len - 8..len - 4].copy_from_slice(&0u32.to_le_bytes());
    data[len - 4..].copy_from_slice(&1u32.to_le_bytes());
    Arc::new(Block::from_raw(data.into()))
}

/// Builds an SST of `n` sequential keys with small blocks so scans cross
/// many block boundaries.
fn write_sst(env: &dyn Env, path: &str, n: u32) {
    let file = env.new_writable_file(path, FileKind::Sst).unwrap();
    let opts = TableBuilderOptions { block_size: 256, ..TableBuilderOptions::default() };
    let mut b = TableBuilder::new(file, opts);
    for i in 0..n {
        let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
        b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
    }
    b.finish().unwrap();
}

/// Decodes the footer and returns the first data block's handle.
fn first_data_handle(file: &Arc<dyn RandomAccessFile>) -> BlockHandle {
    let len = file.len().unwrap();
    let footer =
        Footer::decode(&file.read_at(len - FOOTER_LEN as u64, FOOTER_LEN).unwrap()).unwrap();
    let plain = TableKeys::default();
    let index = Arc::new(Block::from_raw(read_verified(file.as_ref(), footer.index, &plain).unwrap()));
    let mut it = index.iter();
    it.seek_to_first();
    BlockHandle::decode_varint(it.value()).unwrap()
}

// ---------------------------------------------------------------------------
// Reference-model equivalence (proptest)
// ---------------------------------------------------------------------------

const MODEL_CAPACITY: usize = 1000;

/// The executable spec for one shard of the cache whose handles are
/// dropped immediately: a map plus an MRU-front deque.
struct RefLru {
    map: HashMap<CacheKey, usize>,
    lru: VecDeque<CacheKey>,
    usage: usize,
}

impl RefLru {
    fn new() -> Self {
        RefLru { map: HashMap::new(), lru: VecDeque::new(), usage: 0 }
    }

    fn touch(&mut self, key: CacheKey) {
        let pos = self.lru.iter().position(|k| *k == key).expect("listed");
        self.lru.remove(pos);
        self.lru.push_front(key);
    }

    fn lookup(&mut self, key: CacheKey) -> bool {
        if self.map.contains_key(&key) {
            self.touch(key);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: CacheKey, charge: usize) {
        if self.map.contains_key(&key) {
            // Duplicate insert keeps the resident copy (and its original
            // charge) and only refreshes recency.
            self.touch(key);
            return;
        }
        if charge > MODEL_CAPACITY {
            return; // oversized bypass
        }
        while self.usage + charge > MODEL_CAPACITY {
            let victim = self.lru.pop_back().expect("nothing pinned in the model");
            self.usage -= self.map.remove(&victim).expect("mapped");
        }
        self.lru.push_front(key);
        self.map.insert(key, charge);
        self.usage += charge;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every op sequence drives the real single-shard cache and the
    /// reference model in lockstep; hits, usage, and residency must agree
    /// after every step.
    #[test]
    fn cache_matches_reference_lru(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..400)
    ) {
        let cache =
            BlockCache::with_config(CacheConfig { capacity: MODEL_CAPACITY, shard_bits: 0 }).unwrap();
        let mut model = RefLru::new();
        for (i, &(k, c, is_insert)) in ops.iter().enumerate() {
            let key: CacheKey = (u64::from(k % 24), 0);
            // Charges 50..=1050: some entries oversize the whole cache.
            let charge = 50 + usize::from(c % 11) * 100;
            if is_insert {
                drop(cache.insert(key, &test_block(charge), charge, BlockKind::Data, false));
                model.insert(key, charge);
            } else {
                let hit = cache.lookup(&key, BlockKind::Data).is_some();
                prop_assert_eq!(hit, model.lookup(key), "op {}: hit divergence on {:?}", i, key);
            }
            prop_assert_eq!(cache.usage(), model.usage, "op {}: usage divergence", i);
            prop_assert_eq!(cache.len(), model.map.len(), "op {}: len divergence", i);
        }
        for key in model.map.keys() {
            prop_assert!(cache.contains(key), "model key {:?} missing from cache", key);
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned-handle accounting
// ---------------------------------------------------------------------------

/// Regression: a held handle must keep its entry resident *and charged*
/// under eviction pressure, and release must restore the capacity bound.
#[test]
fn pinned_handle_blocks_eviction_but_stays_charged() {
    let cache = BlockCache::with_config(CacheConfig { capacity: 1000, shard_bits: 0 }).unwrap();
    let pin = cache.insert((9, 9), &test_block(300), 300, BlockKind::Data, false).unwrap();
    for i in 0..100u64 {
        drop(cache.insert((1, i), &test_block(100), 100, BlockKind::Data, false));
    }
    assert_eq!(cache.stats().pinned_bytes, 300);
    assert!(cache.lookup(&(9, 9), BlockKind::Data).is_some(), "pinned entry evicted");
    assert!(cache.usage() <= 1000, "pinned charge must count against capacity");
    drop(pin);
    // Drop the lookup pin too (the lookup above returned a fresh handle,
    // dropped at end of its statement), then flood: now it can go.
    for i in 100..200u64 {
        drop(cache.insert((1, i), &test_block(100), 100, BlockKind::Data, false));
    }
    assert!(cache.lookup(&(9, 9), BlockKind::Data).is_none(), "unpinned entry survived flood");
    assert_eq!(cache.stats().pinned_bytes, 0);
    assert!(cache.usage() <= 1000);
}

/// An open table pins its index and filter blocks; once it closes they
/// are its last use, and they age out in LRU order ahead of every data
/// block inserted after it, however small a share of the cache they take.
#[test]
fn a_closed_tables_blocks_do_not_outlive_newer_data() {
    const CAPACITY: usize = 32 * 1024;
    const DATA: usize = 512;
    let env = MemEnv::new();
    write_sst(&env, "t.sst", 400);
    let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let len = file.len().unwrap();
    let footer =
        Footer::decode(&file.read_at(len - FOOTER_LEN as u64, FOOTER_LEN).unwrap()).unwrap();
    let cache = BlockCache::with_config(CacheConfig { capacity: CAPACITY, shard_bits: 0 }).unwrap();
    let table = Table::open(file, 7, Some(cache.clone())).unwrap();
    let (index, filter) = ((7, footer.index.offset), (7, footer.filter.offset));
    assert!(cache.contains(&index) && cache.contains(&filter));
    let pinned = cache.stats().pinned_bytes as usize;
    assert!(pinned * 10 <= CAPACITY, "index + filter take {pinned} B, over a tenth of the cache");
    drop(table); // releases the index, then the filter

    let watched = [index, filter, (8, 0)];
    let mut gone = Vec::new();
    for i in 0..(3 * CAPACITY / DATA) as u64 {
        drop(cache.insert((8, i), &test_block(DATA), DATA, BlockKind::Data, false));
        for key in watched {
            if !gone.contains(&key) && !cache.contains(&key) {
                gone.push(key);
            }
        }
    }
    assert_eq!(gone, watched, "evicted out of LRU order");
}

// ---------------------------------------------------------------------------
// Single-flight coalescing
// ---------------------------------------------------------------------------

/// Holds the leader's read open until `expected_waits` other threads have
/// parked on the in-flight entry, so the miss group is provably
/// concurrent before the one underlying read completes.
struct GatedFile {
    inner: Arc<dyn RandomAccessFile>,
    gate_offset: u64,
    cache: Arc<BlockCache>,
    expected_waits: u64,
}

impl RandomAccessFile for GatedFile {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        if offset == self.gate_offset {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.cache.counters().singleflight_waits.load(Ordering::Relaxed)
                < self.expected_waits
                && Instant::now() < deadline
            {
                std::thread::yield_now();
            }
        }
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }
}

const MISS_THREADS: usize = 8;

fn spawn_miss_group(
    fetcher: &Arc<BlockFetcher>,
    file: &Arc<dyn RandomAccessFile>,
    handle: BlockHandle,
) -> Vec<shield_lsm::error::Result<Bytes>> {
    let barrier = Arc::new(Barrier::new(MISS_THREADS));
    let joins: Vec<_> = (0..MISS_THREADS)
        .map(|_| {
            let fetcher = fetcher.clone();
            let file = file.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                fetcher
                    .fetch(&file, 1, handle, BlockKind::Data, true, &TableKeys::default())
                    .map(|b| b.block().raw_bytes().clone())
            })
        })
        .collect();
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

/// Eight threads missing the same cold block must produce exactly one
/// underlying read (counted by `MemEnv`'s per-kind I/O op stats) and
/// seven single-flight waits.
#[test]
fn single_flight_coalesces_concurrent_misses() {
    let env = MemEnv::new();
    write_sst(&env, "t.sst", 400);
    let raw = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let handle = first_data_handle(&raw);
    let cache = BlockCache::new(1 << 20);
    let fetcher = BlockFetcher::new(Some(cache.clone()), 0);
    let gated: Arc<dyn RandomAccessFile> = Arc::new(GatedFile {
        inner: raw,
        gate_offset: handle.offset,
        cache: cache.clone(),
        expected_waits: MISS_THREADS as u64 - 1,
    });

    let before = env.io_stats().unwrap().snapshot();
    let results = spawn_miss_group(&fetcher, &gated, handle);

    let first = results[0].as_ref().expect("fetch failed");
    for r in &results {
        assert_eq!(r.as_ref().expect("fetch failed"), first, "threads saw different bytes");
    }
    let delta = env.io_stats().unwrap().snapshot().delta_since(&before);
    assert_eq!(
        delta.read_ops[FileKind::Sst.index()],
        1,
        "eight concurrent misses must coalesce into one read"
    );
    assert_eq!(
        cache.counters().singleflight_waits.load(Ordering::Relaxed),
        MISS_THREADS as u64 - 1
    );
    // The leader's block landed in the cache for everyone after.
    assert!(cache.contains(&(1, handle.offset)));
}

/// Same shape, but the one underlying read fails: a `FaultInjectionEnv`
/// armed with a *single* read error. All eight threads must observe that
/// one error — the injection counter proves no second read was issued —
/// and a later retry (fault disarmed) must succeed.
#[test]
fn single_flight_shares_one_injected_error() {
    let mem = MemEnv::new();
    write_sst(&mem, "t.sst", 400);
    let fault = FaultInjectionEnv::new(Arc::new(mem));
    let raw = fault.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let handle = first_data_handle(&raw);
    let cache = BlockCache::new(1 << 20);
    let fetcher = BlockFetcher::new(Some(cache.clone()), 0);
    let gated: Arc<dyn RandomAccessFile> = Arc::new(GatedFile {
        inner: raw,
        gate_offset: handle.offset,
        cache: cache.clone(),
        expected_waits: MISS_THREADS as u64 - 1,
    });

    fault.error_n_times(FileKind::Sst, FaultOp::Read, 1);
    let results = spawn_miss_group(&fetcher, &gated, handle);

    for r in &results {
        assert!(r.is_err(), "every coalesced thread must see the injected error");
    }
    assert_eq!(
        fault.stats().injected_for(FaultOp::Read),
        1,
        "exactly one underlying read may be attempted"
    );
    assert!(!cache.contains(&(1, handle.offset)), "failed read must not be cached");
    // The flight retired with its error; a fresh fetch retries and works.
    let retry = fetcher.fetch(&gated, 1, handle, BlockKind::Data, true, &TableKeys::default());
    assert!(retry.is_ok(), "retry after transient fault failed: {:?}", retry.err());
    assert!(cache.contains(&(1, handle.offset)));
}

// ---------------------------------------------------------------------------
// Readahead
// ---------------------------------------------------------------------------

type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// Every entry of `t`, through a fresh iterator, with the scan's status.
fn scan_table(t: &Arc<Table>) -> (Rows, shield_lsm::error::Result<()>) {
    let mut out = Vec::new();
    let mut it = t.iter();
    it.seek_to_first();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    (out, it.status())
}

/// Opens `file` as table 1 over a fresh 32 MiB cache (larger than any
/// table here: no eviction) with iterator readahead `depth`.
fn open_ahead(file: Arc<dyn RandomAccessFile>, depth: usize) -> (Arc<Table>, Arc<BlockCache>) {
    let cache = BlockCache::new(32 << 20);
    let fetcher = BlockFetcher::new(Some(cache.clone()), depth);
    let table = Table::open_with_fetcher(file, 1, 1, fetcher, None, Default::default()).unwrap();
    (Arc::new(table), cache)
}

/// A readahead iterator must yield byte-identical entries to a plain one,
/// and must actually read ahead while scanning.
#[test]
fn readahead_scan_yields_identical_entries() {
    let env = MemEnv::new();
    write_sst(&env, "t.sst", 500);
    let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let plain = Arc::new(Table::open(file.clone(), 1, None).unwrap());
    let (ahead, cache) = open_ahead(file, 4);

    let (a, status) = scan_table(&plain);
    status.unwrap();
    let (b, status) = scan_table(&ahead);
    status.unwrap();
    assert_eq!(a.len(), 500);
    assert_eq!(a, b, "readahead changed scan results");
    assert!(cache.stats().readahead_issued > 0, "depth-4 scan never read ahead");
}

/// Readahead accounting is a function of the table and the depth, not of
/// timing: a cold single-threaded forward scan of an N-block table at
/// depth K reads ⌈N / (K + 1)⌉ batches — one cursor block and K followers
/// each — and every follower is issued once and useful once. (The scheme
/// before PR 7 reported 613 issued / 51 useful on such a scan; the
/// worker-pool scheme after it was right only once its threads had
/// drained.) Asserted straight after the scan: nothing runs behind it.
#[test]
fn readahead_usefulness_is_honest_on_sequential_scan() {
    const DEPTH: u64 = 8;
    let mem = MemEnv::new();
    write_sst(&mem, "t.sst", 2000);
    let file = mem.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let (t, cache) = open_ahead(file, DEPTH as usize);
    let blocks = t.index_spans().unwrap().len() as u64;
    let batches = blocks.div_ceil(DEPTH + 1);
    assert!(batches > 10, "want many batches, got {batches} over {blocks} blocks");

    let before = mem.io_stats().unwrap().snapshot();
    let (rows, status) = scan_table(&t);
    status.unwrap();
    assert_eq!(rows.len(), 2000);
    let s = cache.stats();
    assert_eq!((s.readahead_issued, s.readahead_useful), (blocks - batches, blocks - batches));
    assert_eq!((s.data_misses, s.data_hits), (batches, blocks - batches));
    let reads = mem.io_stats().unwrap().snapshot().delta_since(&before).read_ops;
    assert_eq!(reads[FileKind::Sst.index()], blocks, "each block is read once");
}

/// Arms one SST read error on `fault` just before the first read at
/// `offset` goes down, so the fault lands on a chosen slot of a batch.
struct ArmAt {
    inner: Arc<dyn RandomAccessFile>,
    fault: FaultInjectionEnv,
    offset: u64,
    armed: AtomicBool,
}

impl RandomAccessFile for ArmAt {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        if offset == self.offset && !self.armed.swap(true, Ordering::SeqCst) {
            self.fault.error_once(FileKind::Sst, FaultOp::Read);
        }
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }
}

/// A read fault inside a readahead batch costs the scan nothing unless it
/// hit the block the scan stood on: a failed follower is dropped and read
/// again when the scan reaches it. On the cursor block the scan stops with
/// the error, every earlier row yielded, and a retry succeeds.
#[test]
fn readahead_batch_fault_fails_the_scan_only_at_the_cursor() {
    const DEPTH: usize = 8;
    let mem = MemEnv::new();
    write_sst(&mem, "t.sst", 2000);
    let (expected, status) =
        scan_table(&open_ahead(mem.new_random_access_file("t.sst", FileKind::Sst).unwrap(), 0).0);
    status.unwrap();
    let fault = FaultInjectionEnv::new(Arc::new(mem));
    let open = |armed_block: usize| {
        let inner = fault.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        // Data blocks lie back to back from offset 0.
        let offset = open_ahead(inner.clone(), 0).0.index_spans().unwrap()[..armed_block]
            .iter()
            .map(|(_, stored)| stored)
            .sum();
        let armed = AtomicBool::new(false);
        open_ahead(Arc::new(ArmAt { inner, fault: fault.clone(), offset, armed }), DEPTH).0
    };

    // Block 12 is the fourth slot of the second batch (blocks 9..=17).
    let t = open(12);
    let (rows, status) = scan_table(&t);
    status.expect("a failed follower must not fail the scan");
    assert_eq!(rows, expected);
    assert_eq!(fault.stats().injected_for(FaultOp::Read), 1, "the fault never fired");

    // Block 9 is the block the scan stands on when that batch goes down.
    let t = open(DEPTH + 1);
    let (rows, status) = scan_table(&t);
    assert!(status.is_err(), "a failed cursor block must fail the scan");
    assert_eq!(fault.stats().injected_for(FaultOp::Read), 2);
    assert!(!rows.is_empty() && rows.len() < expected.len());
    assert_eq!(rows, expected[..rows.len()], "every row before the fault is yielded");
    let (rows, status) = scan_table(&t);
    status.expect("the fault was transient");
    assert_eq!(rows, expected);
}

/// Single-flight holds across batches: eight threads scanning one cold
/// table with readahead read each block once between them.
#[test]
fn concurrent_readahead_scans_read_each_block_once() {
    let mem = MemEnv::new();
    write_sst(&mem, "t.sst", 2000);
    let (t, cache) = open_ahead(mem.new_random_access_file("t.sst", FileKind::Sst).unwrap(), 8);
    let blocks = t.index_spans().unwrap().len() as u64;
    let barrier = Barrier::new(MISS_THREADS);
    let before = mem.io_stats().unwrap().snapshot();
    let scans: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..MISS_THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    scan_table(&t)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let reads = mem.io_stats().unwrap().snapshot().delta_since(&before).read_ops;
    assert_eq!(reads[FileKind::Sst.index()], blocks, "a block was read twice");
    for (rows, status) in &scans {
        status.as_ref().expect("scan");
        assert_eq!(rows, &scans[0].0);
    }
    assert_eq!(scans[0].0.len(), 2000);
    let s = cache.stats();
    assert!(s.readahead_issued > 0);
    assert!(s.readahead_useful <= s.readahead_issued, "{s:?}");
}

/// `ReadOptions::fill_cache = false` reaches the iterators: a cold scan
/// reads every data block around the cache — and so without readahead,
/// which has nowhere to land — and returns the rows a filling scan does.
#[test]
fn scan_without_fill_cache_leaves_residency_untouched() {
    let cache = BlockCache::new(32 << 20);
    let mut opts = Options::new(Arc::new(MemEnv::new())).with_readahead_blocks(16);
    opts.shared_block_cache = Some(cache.clone());
    let db = Db::open(opts, "db").unwrap();
    for i in 0..3000u32 {
        db.put(&WriteOptions::default(), format!("k{i:05}").as_bytes(), &[b'v'; 100]).unwrap();
    }
    db.flush().unwrap();

    let (resident, usage, before) = (cache.len(), cache.usage(), cache.stats());
    let around = db.scan(&ReadOptions { fill_cache: false, ..ReadOptions::default() }, b"", usize::MAX);
    let around = around.unwrap();
    assert_eq!(around.len(), 3000);
    let after = cache.stats();
    assert_eq!((cache.len(), cache.usage()), (resident, usage), "a no-fill scan admitted blocks");
    assert_eq!(
        (after.data_hits, after.data_misses, after.readahead_issued),
        (before.data_hits, before.data_misses, 0),
        "a no-fill scan looked data blocks up, or read ahead"
    );

    let filling = db.scan(&ReadOptions::default(), b"", usize::MAX).unwrap();
    assert_eq!(filling, around);
    assert!(cache.len() > resident && cache.stats().readahead_issued > 0);
}

// ---------------------------------------------------------------------------
// Concurrent stress
// ---------------------------------------------------------------------------

/// Eight threads hammer a small sharded cache with mixed kinds, sizes,
/// and held pins. After every step the evictable charge (usage − pinned)
/// is within capacity; afterwards every invariant must hold: nothing
/// pinned, usage within capacity, and the cache still serves inserts.
#[test]
fn concurrent_stress_keeps_cache_invariants() {
    const CAPACITY: usize = 64 * 1024;
    let cache = BlockCache::with_config(CacheConfig { capacity: CAPACITY, shard_bits: 2 }).unwrap();
    let joins: Vec<_> = (0..8u64)
        .map(|t| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                // Deterministic per-thread xorshift mix.
                let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                let mut next = move || {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
                };
                let mut held = VecDeque::new();
                for _ in 0..4000 {
                    let r = next();
                    let key: CacheKey = (r % 96, 0);
                    let kind = match r % 7 {
                        0 => BlockKind::Index,
                        1 => BlockKind::Filter,
                        _ => BlockKind::Data,
                    };
                    if r % 3 == 0 {
                        let charge = 200 + (r % 5) as usize * 100;
                        if let Some(h) =
                            cache.insert(key, &test_block(charge), charge, kind, false)
                        {
                            held.push_back(h);
                        }
                    } else if let Some(h) = cache.lookup(&key, kind) {
                        held.push_back(h);
                    }
                    // Keep a rolling window of pins alive to exercise
                    // pinned-entry eviction exclusion.
                    while held.len() > 4 {
                        held.pop_front();
                    }
                    // Both gauges of a shard are read under one lock.
                    let s = cache.stats();
                    let evictable = s.usage_bytes - s.pinned_bytes;
                    assert!(evictable <= CAPACITY as u64, "evictable {evictable} B over {CAPACITY}");
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let s = cache.stats();
    assert_eq!(s.pinned_bytes, 0, "all handles dropped, nothing may stay pinned");
    assert!(
        cache.usage() <= CAPACITY,
        "usage {} exceeds capacity {} with no pins held",
        cache.usage(),
        CAPACITY
    );
    assert_eq!(cache.usage() as u64, s.usage_bytes);
    // Still functional after the storm.
    let h = cache.insert((1000, 0), &test_block(128), 128, BlockKind::Data, false);
    assert!(h.is_some());
}

// ---------------------------------------------------------------------------
// The skip rule
// ---------------------------------------------------------------------------

fn put(db: &Db, key: &[u8], value: &[u8]) {
    db.put(&WriteOptions::default(), key, value).unwrap();
}

/// A scan that starts on a key with 10,000 versions in the memtable
/// steps over at most `MAX_SEQUENTIAL_SKIP` of the shadowed ones, then
/// re-seeks the one merge child holding them: the tickers bound the
/// work, whatever the length of the run.
#[test]
fn a_scan_seeks_past_a_hot_keys_shadowed_versions() {
    let db = Db::open(Options::new(Arc::new(MemEnv::new())), "db").unwrap();
    for i in 0..10_000u32 {
        put(&db, b"hot", format!("v{i}").as_bytes());
    }
    put(&db, b"next", b"n");
    let before = db.statistics().snapshot();
    let rows = db.scan(&ReadOptions::new(), b"hot", 2).unwrap();
    assert_eq!(rows, [(b"hot".to_vec(), b"v9999".to_vec()), (b"next".to_vec(), b"n".to_vec())]);
    let s = db.statistics().snapshot().delta_since(&before);
    assert_eq!(s.iter_reseeks, 1, "one child holds the run: {s:?}");
    assert!(s.iter_skipped <= MAX_SEQUENTIAL_SKIP, "{s:?}");
}

/// The other kind of run: versions written after an iterator opened, or
/// after a snapshot was taken, are above its sequence. Stepping into the
/// key re-seeks to its first visible version instead of walking them.
#[test]
fn a_scan_seeks_past_versions_newer_than_its_sequence() {
    let db = Db::open(Options::new(Arc::new(MemEnv::new())), "db").unwrap();
    put(&db, b"apple", b"a");
    put(&db, b"hot", b"old");
    put(&db, b"next", b"n");
    let want = db.scan(&ReadOptions::new(), b"", 10).unwrap();
    let (mut iter, snap) = (db.iter(&ReadOptions::new()).unwrap(), db.snapshot());
    let before = db.statistics().snapshot();
    for i in 0..1_000u32 {
        put(&db, b"hot", format!("new{i}").as_bytes());
    }
    let mut held = Vec::new();
    iter.seek_to_first();
    while iter.valid() {
        held.push((iter.key().to_vec(), iter.value().to_vec()));
        iter.next();
    }
    drop(iter);
    assert_eq!(held, want, "held iterator");
    assert_eq!(db.scan(&snap.read_options(), b"", 10).unwrap(), want, "snapshot scan");
    let s = db.statistics().snapshot().delta_since(&before);
    assert_eq!((s.iter_skipped, s.iter_reseeks), (2 * MAX_SEQUENTIAL_SKIP, 2), "{s:?}");
}

/// Ops of `op` the handle's latency histograms have recorded.
fn op_count(db: &Db, op: &str) -> u64 {
    let report = db.metrics_report();
    report.latencies.iter().find(|(name, _)| *name == op).map_or(0, |(_, h)| h.count)
}

/// `Db::scan` is one `scan` op per call, over one tree or several, and
/// its rows are not `iter_next` ops; a user's iterator still times each
/// `next` as one.
#[test]
fn a_scan_is_one_op_and_an_iterator_step_is_one() {
    for shards in [1, 4] {
        let opts = Options::new(Arc::new(MemEnv::new())).with_shards(shards);
        let db = Db::open(opts, "db").unwrap();
        let key = |i: u32| format!("key-{i:05}").into_bytes();
        for i in 0..200 {
            put(&db, &key(i), b"old");
        }
        db.flush().unwrap();
        // A memtable over L0: every scan merges several children.
        for i in (0..200).step_by(3) {
            put(&db, &key(i), b"new");
        }
        let (scans, steps) = (op_count(&db, "scan"), op_count(&db, "iter_next"));
        for n in 0..10 {
            let rows = db.scan(&ReadOptions::new(), &key(n * 15), 50).unwrap();
            assert_eq!(rows.len(), 50, "{shards} trees");
        }
        assert_eq!(op_count(&db, "scan") - scans, 10, "{shards} trees");
        assert_eq!(op_count(&db, "iter_next") - steps, 0, "{shards} trees");
        let mut iter = db.iter(&ReadOptions::new()).unwrap();
        iter.seek(&key(100));
        let mut nexts = 0;
        while iter.valid() {
            iter.next();
            nexts += 1;
        }
        assert_eq!(nexts, 100, "{shards} trees");
        assert_eq!(op_count(&db, "iter_next") - steps, nexts, "{shards} trees");
        assert_eq!(op_count(&db, "scan") - scans, 10, "{shards} trees");
    }
}

/// On disaggregated storage every block a get reads is a round trip, and
/// the only second block a get of a present key reads is the one a filter
/// false positive sends it to. Keys live on two levels: a get of a bottom
/// key probes the L0 table's filter first, and reads from remote storage
/// exactly `1 + (bloom_full_positive - bloom_true_positive)` blocks. The
/// filters take 4 bits per key here so that a few thousand gets see
/// hundreds of false positives.
#[test]
fn a_remote_get_reads_a_second_block_only_for_a_false_positive() {
    let remote = Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), NetworkModel::unlimited()));
    let store = support::Store::over(support::Mode::Shield, remote.clone());
    let db = store.open(|mut opts| {
        opts.table.bloom_bits_per_key = 4;
        opts.compaction.l0_compaction_trigger = 2;
        opts
    });
    let w = WriteOptions::default();
    let key = |i: u32| format!("key-{i:05}").into_bytes();
    // Two L0 files of even keys compact into L1; the odd keys stay in L0.
    for half in [0..2_000, 2_000..4_000] {
        for i in half.step_by(2) {
            db.put(&w, &key(i), b"bottom").unwrap();
        }
        db.compact_all().unwrap();
    }
    for i in (1..4_000).step_by(2) {
        db.put(&w, &key(i), b"l0").unwrap();
    }
    db.flush().unwrap();
    db.wait_for_background_work().unwrap();
    let levels = db.metrics_report().levels;
    assert!(levels[0].files == 1 && levels[1..].iter().any(|l| l.files > 0), "{levels:?}");
    let cold = ReadOptions { fill_cache: false, ..ReadOptions::default() };
    let bottom: Vec<Vec<u8>> = (0..4_000).step_by(2).map(key).collect();
    for k in &bottom {
        db.get(&cold, k).unwrap(); // opens every table the pass below probes
    }
    let sst_reads = || remote.io_stats().unwrap().snapshot().read_ops[FileKind::Sst.index()];
    let (mut two_block_gets, mut false_positive_gets) = (0, 0);
    for k in &bottom {
        let (reads, stats) = (sst_reads(), db.statistics().snapshot());
        assert_eq!(db.get(&cold, k).unwrap().as_deref(), Some(&b"bottom"[..]));
        let reads = sst_reads() - reads;
        let s = db.statistics().snapshot().delta_since(&stats);
        let false_positives = s.bloom_full_positive - s.bloom_true_positive;
        assert_eq!(s.bloom_true_positive, 1, "the bottom table held the key");
        assert_eq!(reads, 1 + false_positives, "{}: {s:?}", String::from_utf8_lossy(k));
        two_block_gets += u32::from(reads == 2);
        false_positive_gets += u32::from(false_positives == 1);
    }
    assert_eq!(two_block_gets, false_positive_gets);
    assert!(false_positive_gets > 0, "no false positive in {} gets", bottom.len());
}
