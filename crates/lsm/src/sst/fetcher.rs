//! The read path for point lookups, user iterators and table opens:
//! cache lookup → env read → verify → block construction, behind one
//! choke point. (Whole-file scans — compaction, `verify_integrity` — read
//! around the cache in large spans through [`crate::sst::scanner`]; the
//! two paths meet in `split_verified`, the one function that turns raw
//! bytes into trusted ones.)
//!
//! Before this module, the cache→read→verify→decrypt sequence was
//! duplicated across `sst/reader.rs` (data blocks), the table-open path
//! (index/filter/properties), and implicitly in `version/table_cache.rs`.
//! Every block-at-a-time reader now goes through [`BlockFetcher::fetch`],
//! which adds behaviors the scattered code could not provide:
//!
//! - **Single-flight miss coalescing.** N threads missing the same
//!   `(table_id, offset)` perform one underlying read (and, for encrypted
//!   files, one decrypt — the decryption wrapper sits below the file
//!   handle this module reads through). Late arrivals park on the
//!   in-flight entry's condvar and share the leader's result, including
//!   its error. Under a disaggregated env's ~500 µs RTT this turns a
//!   thundering herd on a hot cold block into a single round trip.
//! - **Readahead.** [`BlockFetcher::prefetch`] queues bounded prefetch
//!   requests served by a small worker pool; workers run the same
//!   single-flight fetch and drop the pin immediately, leaving the block
//!   resident for the iterator that is about to need it. Blocks inserted
//!   this way are flagged so the first hit credits `readahead_useful`;
//!   a foreground read that *joins* a still-in-flight prefetch claims
//!   the same credit, so usefulness accounting survives the race between
//!   the iterator and the worker.
//! - **Batched reads.** [`BlockFetcher::get_many`] partitions a batch of
//!   wanted blocks into cache hits, joinable in-flight reads, and leader
//!   reads; the leader reads are submitted as `read_at_many` windows of
//!   at most the configured in-flight depth, and each completed window
//!   is verified while the next window's payload is still in flight.
//!
//! Decryption itself stays in [`crate::encryption`]'s file wrapper: a
//! fetch against an encrypted table reads through
//! `EncryptedRandomAccessFile`, so coalescing the read coalesces the
//! keystream work too.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bytes::Bytes;
use shield_core::{perf, trace, PerfCounter, PerfMetric};
use shield_crypto::{crc32c, crc32c_extend, crc32c_unmask};
use shield_env::{RandomAccessFile, ReadQueue, ReadRequest};

use crate::cache::{BlockCache, BlockKind, CacheHandle, CacheKey};
use crate::error::{Error, Result};
use crate::integrity::IntegrityCtx;
use crate::sst::block::Block;
use crate::sst::format::{BlockHandle, BLOCK_TRAILER_LEN, HMAC_BLOCK_TRAILER_LEN};
use crate::statistics::Statistics;

/// Upper bound on queued prefetch requests; beyond it, readahead sheds
/// load instead of buffering unbounded file handles.
const PREFETCH_QUEUE_CAP: usize = 64;
/// Prefetch worker threads (enough to overlap several remote RTTs).
const PREFETCH_WORKERS: usize = 4;
/// Upper bound on a single block read. Block handles come from on-disk
/// index/footer bytes, so a hostile file could otherwise name a
/// multi-gigabyte "block" and turn one `read_at` into an OOM
/// (allocation-by-length-field, the SecureDekCache bug pattern).
const MAX_BLOCK_LEN: usize = 1 << 26; // 64 MiB
/// Bounded in-flight depth for batched reads: block reads per
/// `read_at_many` submission window of every engine's fetcher.
pub const DEFAULT_INFLIGHT_READS: usize = 16;

/// A block obtained through the fetcher. `Cached` keeps the entry pinned
/// (charged, not evictable) until dropped; `Uncached` is a plain
/// reference for bypassed or cache-less reads.
pub enum FetchedBlock {
    /// Resident in the block cache; the handle pins it.
    Cached(CacheHandle),
    /// Not admitted to (or not backed by) a cache.
    Uncached(Arc<Block>),
}

impl FetchedBlock {
    /// The block itself.
    #[must_use]
    pub fn block(&self) -> &Arc<Block> {
        match self {
            FetchedBlock::Cached(h) => h.block(),
            FetchedBlock::Uncached(b) => b,
        }
    }
}

/// One in-flight read; late missers wait on `cv` for `done`.
struct Flight {
    done: Mutex<Option<Result<Arc<Block>>>>,
    cv: Condvar,
    /// True when a prefetch worker initiated this read.
    prefetch: bool,
    /// Set by the first foreground read that joins a prefetch-initiated
    /// flight: the prefetch was useful even though the block never got
    /// the chance to serve a cache hit. Claimed at most once, and the
    /// leader skips the cache-entry `prefetched` flag once claimed so the
    /// first later hit cannot credit the same prefetch twice.
    useful_claimed: AtomicBool,
}

impl Flight {
    fn new(prefetch: bool) -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
            prefetch,
            useful_claimed: AtomicBool::new(false),
        }
    }
}

/// State shared between foreground fetches and prefetch workers.
struct FetcherCore {
    cache: Option<Arc<BlockCache>>,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

struct PrefetchRequest {
    file: Arc<dyn RandomAccessFile>,
    table_id: u64,
    handle: BlockHandle,
    /// Owned verification context for v2 tables (the worker outlives the
    /// caller's borrow).
    integrity: Option<IntegrityCtx>,
}

struct PrefetchPool {
    queue: Mutex<VecDeque<PrefetchRequest>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// One block wanted by a batched fetch ([`BlockFetcher::get_many`]).
#[derive(Clone, Copy, Debug)]
pub struct BlockRequest {
    /// Where the block lives in the file.
    pub handle: BlockHandle,
    /// What kind of block it is (sets cache priority and parse mode).
    pub kind: BlockKind,
}

/// The single entry point for reading SST blocks.
pub struct BlockFetcher {
    core: Arc<FetcherCore>,
    /// Engine tickers credited with batched-read submissions.
    stats: Option<Arc<Statistics>>,
    readahead_blocks: usize,
    inflight_depth: usize,
    pool: Option<Arc<PrefetchPool>>,
}

impl BlockFetcher {
    /// Creates a fetcher over `cache` (or none). `readahead_blocks` is the
    /// default prefetch depth for iterators; 0 disables readahead and its
    /// worker pool. Readahead also requires a cache — prefetched blocks
    /// have nowhere to land without one. Batched reads use the default
    /// in-flight depth; [`BlockFetcher::with_depth`] overrides it.
    #[must_use]
    pub fn new(cache: Option<Arc<BlockCache>>, readahead_blocks: usize) -> Arc<Self> {
        Self::with_depth(cache, readahead_blocks, DEFAULT_INFLIGHT_READS, None)
    }

    /// [`BlockFetcher::new`] with an explicit bounded in-flight depth for
    /// batched reads (clamped to ≥ 1) and the engine tickers that count
    /// them (`batched_reads`, `batch_read_requests`).
    #[must_use]
    pub fn with_depth(
        cache: Option<Arc<BlockCache>>,
        readahead_blocks: usize,
        inflight_depth: usize,
        stats: Option<Arc<Statistics>>,
    ) -> Arc<Self> {
        let core = Arc::new(FetcherCore { cache, inflight: Mutex::new(HashMap::new()) });
        let pool = (readahead_blocks > 0 && core.cache.is_some()).then(|| {
            let pool = Arc::new(PrefetchPool {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            });
            for _ in 0..PREFETCH_WORKERS {
                let pool = pool.clone();
                let core = core.clone();
                std::thread::spawn(move || prefetch_worker(&pool, &core));
            }
            pool
        });
        Arc::new(BlockFetcher {
            core,
            stats,
            readahead_blocks,
            inflight_depth: inflight_depth.max(1),
            pool,
        })
    }

    /// The configured default readahead depth for iterators.
    #[must_use]
    pub fn readahead_blocks(&self) -> usize {
        self.readahead_blocks
    }

    /// The bounded in-flight depth used by batched reads.
    #[must_use]
    pub fn inflight_depth(&self) -> usize {
        self.inflight_depth
    }

    /// The cache this fetcher fills, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.core.cache.as_ref()
    }

    /// Fetches one verified block: cache lookup, then a single-flight
    /// read. `fill_cache = false` skips both cache lookup and admission
    /// (one-shot reads that should not disturb residency). `integrity`
    /// must be `Some` exactly for v2 (HMAC-tagged) tables; every cache
    /// miss then verifies the block's tag before the bytes are trusted.
    pub fn fetch(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        table_id: u64,
        handle: BlockHandle,
        kind: BlockKind,
        fill_cache: bool,
        integrity: Option<&IntegrityCtx>,
    ) -> Result<FetchedBlock> {
        let key = (table_id, handle.offset);
        if fill_cache {
            if let Some(cache) = &self.core.cache {
                let t = perf::timer();
                let cached = cache.lookup(&key, kind);
                perf::add_elapsed(PerfMetric::CacheLookup, t);
                if let Some(h) = cached {
                    return Ok(FetchedBlock::Cached(h));
                }
            }
        }
        self.core.fetch_miss(file, key, handle, kind, fill_cache, false, integrity)
    }

    /// Fetches a batch of blocks from one table file, returning one
    /// result per request in request order.
    ///
    /// The batch is partitioned three ways: cache hits are served
    /// immediately, misses another thread is already reading are joined
    /// (single-flight), and the remaining leader reads are submitted as
    /// `read_at_many` windows of at most [`Self::inflight_depth`]
    /// requests. While a window's payload is still in flight (a single
    /// round trip on a remote env), the previous window's blocks are
    /// MAC-verified, CRC-checked, and admitted to the cache — verify
    /// overlaps transfer. Every slot fails independently: a hostile
    /// handle, an injected fault, or a corrupt block errors its own
    /// result and never poisons a neighbor.
    pub fn get_many(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        table_id: u64,
        requests: &[BlockRequest],
        fill_cache: bool,
        integrity: Option<&IntegrityCtx>,
    ) -> Vec<Result<FetchedBlock>> {
        let mut batch_span = trace::span("fetch_batch");
        batch_span.attr("requests", requests.len() as u64);
        let mut out: Vec<Option<Result<FetchedBlock>>> = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || None);

        // Phase 1: cache hits.
        let mut misses: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            if fill_cache {
                if let Some(cache) = &self.core.cache {
                    let t = perf::timer();
                    let cached = cache.lookup(&(table_id, req.handle.offset), req.kind);
                    perf::add_elapsed(PerfMetric::CacheLookup, t);
                    if let Some(h) = cached {
                        out[i] = Some(Ok(FetchedBlock::Cached(h)));
                        continue;
                    }
                }
            }
            misses.push(i);
        }

        // Phase 2: one pass over the in-flight map splits the misses into
        // joiners (another thread is reading that block) and leaders (this
        // batch will). A duplicate handle within the batch joins the
        // leader slot created moments earlier; leaders publish before
        // joiners wait, so the self-join cannot deadlock.
        let mut joiners: Vec<(usize, Arc<Flight>)> = Vec::new();
        let mut leaders: Vec<(usize, Arc<Flight>)> = Vec::new();
        match lock_inflight(&self.core.inflight) {
            Ok(mut map) => {
                for &i in &misses {
                    let key = (table_id, requests[i].handle.offset);
                    match map.get(&key) {
                        Some(f) => joiners.push((i, f.clone())),
                        None => {
                            let f = Arc::new(Flight::new(false));
                            map.insert(key, f.clone());
                            leaders.push((i, f));
                        }
                    }
                }
            }
            Err(e) => {
                for &i in &misses {
                    out[i] = Some(Err(e.clone()));
                }
                return out.into_iter().map(|o| o.expect("slot resolved")).collect();
            }
        }

        // Phase 3: hostile-length checks fail their own slot before any
        // I/O; the survivors become the windowed leader reads.
        let mut ready: Vec<(usize, Arc<Flight>, ReadRequest)> = Vec::new();
        for (i, flight) in leaders {
            let req = requests[i];
            match batch_read_plan(req.handle, trailer_len(integrity)) {
                Ok(plan) => ready.push((i, flight, plan)),
                Err(e) => {
                    self.core.publish((table_id, req.handle.offset), &flight, Err(e.clone()));
                    out[i] = Some(Err(e));
                }
            }
        }
        if !ready.is_empty() {
            let queue = ReadQueue::new(self.inflight_depth);
            let read_reqs: Vec<ReadRequest> = ready.iter().map(|r| r.2).collect();
            let windows: Vec<std::ops::Range<usize>> = (0..ready.len())
                .step_by(queue.depth())
                .map(|start| start..(start + queue.depth()).min(ready.len()))
                .collect();
            if let Some(stats) = &self.stats {
                stats.batched_reads.fetch_add(windows.len() as u64, Ordering::Relaxed);
                stats.batch_read_requests.fetch_add(ready.len() as u64, Ordering::Relaxed);
            }
            batch_span.attr("windows", windows.len() as u64);
            std::thread::scope(|s| {
                let spawn_window = |range: std::ops::Range<usize>| {
                    let file = file.clone();
                    let queue = &queue;
                    let reqs = &read_reqs;
                    s.spawn(move || queue.submit_window(file.as_ref(), &reqs[range]))
                };
                let mut widx = 0;
                let mut inflight = spawn_window(windows[0].clone());
                loop {
                    // Kick off the next window before verifying this one:
                    // its transfer rides concurrently with our MAC/CRC
                    // work below.
                    let next = (widx + 1 < windows.len())
                        .then(|| spawn_window(windows[widx + 1].clone()));
                    // The window span lives on this (coordinator) thread,
                    // not the worker: joins are sequential here, so the
                    // per-window durations always sum to at most the op's
                    // wall time, and it needs no cross-thread context.
                    let raws: Vec<crate::error::Result<Bytes>> = {
                        let mut span = trace::span("read_window");
                        span.attr("blocks", (windows[widx].end - windows[widx].start) as u64);
                        let t = perf::timer();
                        let raws = match inflight.join() {
                            Ok(r) => r.into_iter().map(|x| x.map_err(Error::from)).collect(),
                            Err(_) => windows[widx]
                                .clone()
                                .map(|_| {
                                    Err(Error::Corruption("batch read worker panicked".into()))
                                })
                                .collect(),
                        };
                        perf::add_elapsed(PerfMetric::IoBatchWait, t);
                        raws
                    };
                    let mut vspan = trace::span("verify_window");
                    vspan.attr("blocks", (windows[widx].end - windows[widx].start) as u64);
                    for (slot, raw) in windows[widx].clone().zip(raws) {
                        let (i, flight, _) = &ready[slot];
                        let req = requests[*i];
                        let key = (table_id, req.handle.offset);
                        perf::incr(PerfCounter::BlocksRead, 1);
                        let result = raw
                            .and_then(|bytes| split_verified(&bytes, req.handle, integrity))
                            .map(|contents| {
                                Arc::new(match req.kind {
                                    BlockKind::Filter => Block::from_raw_opaque(contents),
                                    BlockKind::Data | BlockKind::Index => {
                                        Block::from_raw(contents)
                                    }
                                })
                            });
                        let outcome = match &result {
                            Ok(block) => {
                                let admitted = if fill_cache {
                                    self.core.cache.as_ref().and_then(|c| {
                                        c.insert(key, block, block.size(), req.kind, false)
                                    })
                                } else {
                                    None
                                };
                                Ok(match admitted {
                                    Some(h) => FetchedBlock::Cached(h),
                                    None => FetchedBlock::Uncached(block.clone()),
                                })
                            }
                            Err(e) => Err(e.clone()),
                        };
                        self.core.publish(key, flight, result);
                        out[*i] = Some(outcome);
                    }
                    match next {
                        Some(h) => {
                            widx += 1;
                            inflight = h;
                        }
                        None => break,
                    }
                }
            });
        }

        // Phase 4: collect the joined flights (all our own leaders have
        // published by now, so self-joins resolve immediately).
        for (i, flight) in joiners {
            out[i] = Some(self.core.join_flight(&flight, false).map(FetchedBlock::Uncached));
        }
        out.into_iter().map(|o| o.expect("every batch slot resolved")).collect()
    }

    /// Queues background prefetch of `handle` if it is not already
    /// resident. Best-effort: a full queue or disabled readahead drops the
    /// request, and worker errors are swallowed (the foreground read will
    /// surface them if the block is ever actually needed).
    /// `readahead_issued` is credited only when a worker actually leads
    /// the read, so shed, superseded, and duplicate requests never count.
    pub fn prefetch(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        table_id: u64,
        handle: BlockHandle,
        integrity: Option<&IntegrityCtx>,
    ) {
        let Some(pool) = &self.pool else { return };
        let Some(cache) = &self.core.cache else { return };
        let key = (table_id, handle.offset);
        // A poisoned in-flight map reads as "not in flight": prefetch is
        // best-effort and must never propagate another thread's panic.
        let in_flight =
            self.core.inflight.lock().map(|g| g.contains_key(&key)).unwrap_or(false);
        if cache.contains(&key) || in_flight {
            return;
        }
        {
            let mut q = match pool.queue.lock() {
                Ok(q) => q,
                Err(_) => return,
            };
            if q.len() >= PREFETCH_QUEUE_CAP {
                return;
            }
            q.push_back(PrefetchRequest {
                file: file.clone(),
                table_id,
                handle,
                integrity: integrity.cloned(),
            });
        }
        pool.cv.notify_one();
    }
}

impl Drop for BlockFetcher {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.shutdown.store(true, Ordering::SeqCst);
            pool.cv.notify_all();
        }
    }
}

impl FetcherCore {
    /// The miss path: join an in-flight read for `key` or become its
    /// leader. Exactly one thread per concurrent miss group performs the
    /// verified read (and thus the decrypt below it).
    #[allow(clippy::too_many_arguments)]
    fn fetch_miss(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        key: CacheKey,
        handle: BlockHandle,
        kind: BlockKind,
        fill_cache: bool,
        prefetched: bool,
        integrity: Option<&IntegrityCtx>,
    ) -> Result<FetchedBlock> {
        let (flight, is_leader) = {
            let mut map = lock_inflight(&self.inflight)?;
            match map.get(&key) {
                Some(flight) => (flight.clone(), false),
                None => {
                    let flight = Arc::new(Flight::new(prefetched));
                    map.insert(key, flight.clone());
                    (flight, true)
                }
            }
        };

        if !is_leader {
            // Another thread is already reading this block: wait for it.
            return self.join_flight(&flight, prefetched).map(FetchedBlock::Uncached);
        }

        // Leader: do the read, publish the result, then retire the flight.
        if prefetched {
            // A prefetch counts as issued only once it actually leads a
            // read; shed, superseded, and duplicate requests never get
            // here, so `readahead_issued` measures prefetches that did
            // real I/O.
            if let Some(cache) = &self.cache {
                cache.counters().readahead_issued.fetch_add(1, Ordering::Relaxed);
            }
        }
        let result = {
            let mut span = trace::span("read_block");
            span.attr("offset", handle.offset);
            span.attr("len", handle.size);
            read_block(file.as_ref(), handle, kind, integrity)
        };
        let out = match &result {
            Ok(block) => {
                let admitted = if fill_cache {
                    // Skip the cache entry's `prefetched` flag if a joiner
                    // already claimed this prefetch as useful — otherwise
                    // the first hit would credit it a second time.
                    let flag = prefetched && !flight.useful_claimed.load(Ordering::Relaxed);
                    self.cache
                        .as_ref()
                        .and_then(|cache| cache.insert(key, block, block.size(), kind, flag))
                } else {
                    None
                };
                Ok(match admitted {
                    Some(h) => FetchedBlock::Cached(h),
                    None => FetchedBlock::Uncached(block.clone()),
                })
            }
            Err(e) => Err(e.clone()),
        };
        self.publish(key, &flight, result);
        out
    }

    /// Waits on another thread's in-flight read and shares its result.
    /// A foreground join of a prefetch-initiated flight claims the
    /// prefetch as useful (exactly once).
    fn join_flight(&self, flight: &Flight, prefetched: bool) -> Result<Arc<Block>> {
        let _span = trace::span("singleflight_wait");
        if let Some(cache) = &self.cache {
            cache.counters().singleflight_waits.fetch_add(1, Ordering::Relaxed);
        }
        perf::incr(PerfCounter::SingleflightWaits, 1);
        if flight.prefetch
            && !prefetched
            && !flight.useful_claimed.swap(true, Ordering::Relaxed)
        {
            if let Some(cache) = &self.cache {
                cache.counters().readahead_useful.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut done = flight
            .done
            .lock()
            .map_err(|_| Error::Corruption("in-flight block fetch poisoned".into()))?;
        while done.is_none() {
            done = flight
                .cv
                .wait(done)
                .map_err(|_| Error::Corruption("in-flight block fetch poisoned".into()))?;
        }
        match done.clone() {
            Some(Ok(block)) => Ok(block),
            Some(Err(e)) => Err(e),
            None => unreachable!("loop exits only when done is Some"),
        }
    }

    /// Retires `key`'s flight from the in-flight map and wakes its
    /// joiners with `result`.
    fn publish(&self, key: CacheKey, flight: &Arc<Flight>, result: Result<Arc<Block>>) {
        if let Ok(mut map) = self.inflight.lock() {
            map.remove(&key);
        }
        if let Ok(mut done) = flight.done.lock() {
            *done = Some(result);
        }
        flight.cv.notify_all();
    }
}

fn lock_inflight(
    m: &Mutex<HashMap<CacheKey, Arc<Flight>>>,
) -> Result<std::sync::MutexGuard<'_, HashMap<CacheKey, Arc<Flight>>>> {
    m.lock().map_err(|_| Error::Corruption("in-flight block table poisoned".into()))
}

fn prefetch_worker(pool: &PrefetchPool, core: &FetcherCore) {
    loop {
        let req = {
            let Ok(mut q) = pool.queue.lock() else { return };
            loop {
                if pool.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(req) = q.pop_front() {
                    break req;
                }
                q = match pool.cv.wait(q) {
                    Ok(q) => q,
                    Err(_) => return,
                };
            }
        };
        let key = (req.table_id, req.handle.offset);
        // Re-check residency *and* in-flight status at execution time: if
        // the foreground got here first (resident or mid-read), this
        // prefetch is moot — skipping before fetch_miss keeps the worker
        // from parking on a foreground flight and keeps the request out
        // of `readahead_issued`.
        let in_flight = core.inflight.lock().map(|g| g.contains_key(&key)).unwrap_or(false);
        if in_flight || core.cache.as_ref().is_some_and(|c| c.contains(&key)) {
            continue;
        }
        // Fill the cache and release the pin at once; errors are the
        // foreground's to report if it ever reads this block for real.
        let _ = core.fetch_miss(
            &req.file,
            key,
            req.handle,
            BlockKind::Data,
            true,
            true,
            req.integrity.as_ref(),
        );
    }
}

/// Reads `handle`'s bytes, verifies the trailer, and parses the block
/// (opaque wrapping for filter payloads, which are not in entry format).
fn read_block(
    file: &dyn RandomAccessFile,
    handle: BlockHandle,
    kind: BlockKind,
    integrity: Option<&IntegrityCtx>,
) -> Result<Arc<Block>> {
    let raw = read_verified(file, handle, integrity)?;
    Ok(Arc::new(match kind {
        BlockKind::Filter => Block::from_raw_opaque(raw),
        BlockKind::Data | BlockKind::Index => Block::from_raw(raw),
    }))
}

/// Reads a block's contents and verifies its trailer (`split_verified`
/// is the one place raw SST bytes become trusted plaintext; everything
/// above works on verified blocks).
///
/// With `integrity = None` (v1 tables) the trailer is 5 bytes
/// (compression tag + masked CRC32C); with `Some` (v2 tables) it is 21
/// bytes and the HMAC tag is verified **first**: a forged block fails as
/// [`Error::IntegrityViolation`] even when the attacker fixed up the CRC
/// (trivial — CRC32C is keyless), and garbled-plaintext splices under
/// encryption classify as tampering rather than generic corruption.
pub fn read_verified(
    file: &dyn RandomAccessFile,
    handle: BlockHandle,
    integrity: Option<&IntegrityCtx>,
) -> Result<Bytes> {
    perf::incr(PerfCounter::BlocksRead, 1);
    let plan = batch_read_plan(handle, trailer_len(integrity))?;
    let raw = file.read_at(plan.offset, plan.len)?;
    split_verified(&raw, handle, integrity)
}

/// Per-block trailer length: v2 (HMAC-tagged) tables are exactly those
/// read with a verification context.
fn trailer_len(integrity: Option<&IntegrityCtx>) -> usize {
    if integrity.is_some() {
        HMAC_BLOCK_TRAILER_LEN
    } else {
        BLOCK_TRAILER_LEN
    }
}

/// Validates a block handle's hostile length fields and returns the raw
/// read covering contents + trailer. This is the pre-I/O half of
/// [`read_verified`]; the batched path runs it per slot before any read
/// is submitted.
pub(super) fn batch_read_plan(handle: BlockHandle, trailer_len: usize) -> Result<ReadRequest> {
    // `handle` decodes from on-disk bytes: treat its size as hostile.
    // Checked arithmetic plus a hard cap stop a forged index entry from
    // requesting an absurd allocation or wrapping the length math.
    let size = usize::try_from(handle.size)
        .ok()
        .filter(|s| *s <= MAX_BLOCK_LEN)
        .ok_or_else(|| {
            Error::Corruption(format!("implausible block length {}", handle.size))
        })?;
    let total = size
        .checked_add(trailer_len)
        .ok_or_else(|| Error::Corruption("block length overflow".into()))?;
    Ok(ReadRequest { offset: handle.offset, len: total })
}

/// The post-I/O half of [`read_verified`]: trailer split, MAC-first
/// verification, CRC, and compression checks over already-read bytes.
/// Every block of every read path — single fetch, batch, streaming scan —
/// is authenticated here and nowhere else. `handle.size` must have passed
/// [`batch_read_plan`].
pub(super) fn split_verified(
    raw: &Bytes,
    handle: BlockHandle,
    integrity: Option<&IntegrityCtx>,
) -> Result<Bytes> {
    let trailer_len = trailer_len(integrity);
    let size = handle.size as usize;
    let total = size + trailer_len;
    if raw.len() < total {
        return Err(Error::Corruption("block truncated".into()));
    }
    let contents = raw.slice(..size);
    let trailer = &raw[size..];
    let compression = trailer[0];
    if let Some(ctx) = integrity {
        ctx.verify_block(
            handle.offset,
            compression,
            &contents,
            &trailer[BLOCK_TRAILER_LEN..HMAC_BLOCK_TRAILER_LEN],
        )?;
    }
    let stored = u32::from_le_bytes([trailer[1], trailer[2], trailer[3], trailer[4]]);
    let actual = crc32c_extend(crc32c(&contents), &[compression]);
    if crc32c_unmask(stored) != actual {
        return Err(Error::Corruption(format!(
            "block checksum mismatch at offset {}",
            handle.offset
        )));
    }
    if compression != crate::sst::format::COMPRESSION_NONE {
        return Err(Error::Corruption(format!("unsupported compression {compression}")));
    }
    Ok(contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::sst::format::Footer;
    use crate::sst::format::FOOTER_LEN;
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, FileKind, MemEnv};

    fn build_sst(env: &MemEnv, path: &str, n: u32) -> BlockHandle {
        let file = env.new_writable_file(path, FileKind::Sst).unwrap();
        let opts = TableBuilderOptions { block_size: 256, ..TableBuilderOptions::default() };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..n {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        // Decode the footer to find a real data-block handle (the first
        // index entry).
        let file = env.new_random_access_file(path, FileKind::Sst).unwrap();
        let len = file.len().unwrap();
        let footer =
            Footer::decode(&file.read_at(len - FOOTER_LEN as u64, FOOTER_LEN).unwrap()).unwrap();
        let index = Arc::new(Block::from_raw(
            read_verified(file.as_ref(), footer.index, None).unwrap(),
        ));
        let mut it = index.iter();
        it.seek_to_first();
        BlockHandle::decode_varint(it.value()).unwrap()
    }

    #[test]
    fn fetch_hits_cache_on_second_read() {
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 0);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let a = fetcher.fetch(&file, 1, handle, BlockKind::Data, true, None).unwrap();
        assert!(matches!(a, FetchedBlock::Cached(_)));
        let s = cache.stats();
        assert_eq!((s.data_hits, s.data_misses), (0, 1));
        let b = fetcher.fetch(&file, 1, handle, BlockKind::Data, true, None).unwrap();
        assert!(Arc::ptr_eq(a.block(), b.block()));
        assert_eq!(cache.stats().data_hits, 1);
    }

    #[test]
    fn fill_cache_false_skips_admission() {
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 0);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let a = fetcher.fetch(&file, 1, handle, BlockKind::Data, false, None).unwrap();
        assert!(matches!(a, FetchedBlock::Uncached(_)));
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits(), s.misses()), (0, 0), "no-fill reads leave tickers alone");
    }

    #[test]
    fn strict_full_cache_falls_back_to_uncached() {
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let cache = BlockCache::with_config(CacheConfig {
            capacity: 16, // smaller than any block
            strict_capacity: true,
            high_pri_pool_ratio: 0.0,
            shard_bits: 0,
        })
        .unwrap();
        let fetcher = BlockFetcher::new(Some(cache.clone()), 0);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let got = fetcher.fetch(&file, 1, handle, BlockKind::Data, true, None).unwrap();
        assert!(matches!(got, FetchedBlock::Uncached(_)));
        assert_eq!(cache.stats().oversized_bypass, 1);
    }

    #[test]
    fn prefetch_lands_block_in_cache() {
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 4);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        fetcher.prefetch(&file, 1, handle, None);
        // The worker pool is asynchronous; wait briefly for it.
        for _ in 0..200 {
            if cache.contains(&(1, handle.offset)) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(cache.contains(&(1, handle.offset)), "prefetch never landed");
        assert_eq!(cache.stats().readahead_issued, 1);
        // First real read is a hit credited to readahead.
        let got = fetcher.fetch(&file, 1, handle, BlockKind::Data, true, None).unwrap();
        assert!(matches!(got, FetchedBlock::Cached(_)));
        assert_eq!(cache.stats().readahead_useful, 1);
    }

    /// Collects every data-block handle from a table's index, in order.
    fn all_data_handles(env: &MemEnv, path: &str) -> Vec<BlockHandle> {
        let file = env.new_random_access_file(path, FileKind::Sst).unwrap();
        let len = file.len().unwrap();
        let footer =
            Footer::decode(&file.read_at(len - FOOTER_LEN as u64, FOOTER_LEN).unwrap()).unwrap();
        let index = Arc::new(Block::from_raw(
            read_verified(file.as_ref(), footer.index, None).unwrap(),
        ));
        let mut it = index.iter();
        it.seek_to_first();
        let mut out = Vec::new();
        while it.valid() {
            out.push(BlockHandle::decode_varint(it.value()).unwrap());
            it.next();
        }
        out
    }

    #[test]
    fn get_many_matches_serial_fetches_and_batches_io() {
        let env = MemEnv::new();
        build_sst(&env, "t.sst", 400);
        let handles = all_data_handles(&env, "t.sst");
        assert!(handles.len() > 4, "need several blocks, got {}", handles.len());
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();

        // Serial reference on an independent fetcher/cache.
        let serial_fetcher = BlockFetcher::new(Some(BlockCache::new(1 << 20)), 0);
        let expected: Vec<Bytes> = handles
            .iter()
            .map(|h| {
                serial_fetcher
                    .fetch(&file, 1, *h, BlockKind::Data, true, None)
                    .unwrap()
                    .block()
                    .raw_bytes()
                    .clone()
            })
            .collect();

        let cache = BlockCache::new(1 << 20);
        let stats = Statistics::new();
        let fetcher = BlockFetcher::with_depth(Some(cache.clone()), 0, 3, Some(stats.clone()));
        let reqs: Vec<BlockRequest> =
            handles.iter().map(|h| BlockRequest { handle: *h, kind: BlockKind::Data }).collect();
        let before = env.io_stats().unwrap().snapshot();
        let got = fetcher.get_many(&file, 1, &reqs, true, None);
        let delta = env.io_stats().unwrap().snapshot().delta_since(&before);
        for (g, e) in got.iter().zip(expected.iter()) {
            assert_eq!(g.as_ref().unwrap().block().raw_bytes(), e);
        }
        // MemEnv batch reads record one op per request; what proves the
        // batching is the engine ticker.
        let s = stats.snapshot();
        assert_eq!(s.batch_read_requests, handles.len() as u64);
        assert_eq!(s.batched_reads, handles.len().div_ceil(3) as u64, "depth-3 windows");
        assert_eq!(delta.read_ops[FileKind::Sst.index()], handles.len() as u64);

        // Second batch: all cache hits, no new I/O.
        let before = env.io_stats().unwrap().snapshot();
        let again = fetcher.get_many(&file, 1, &reqs, true, None);
        for (g, e) in again.iter().zip(expected.iter()) {
            assert_eq!(g.as_ref().unwrap().block().raw_bytes(), e);
        }
        let delta = env.io_stats().unwrap().snapshot().delta_since(&before);
        assert_eq!(delta.read_ops[FileKind::Sst.index()], 0, "hits must not re-read");
    }

    #[test]
    fn get_many_duplicate_handles_coalesce() {
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 0);
        let reqs = [BlockRequest { handle, kind: BlockKind::Data }; 4];
        let before = env.io_stats().unwrap().snapshot();
        let got = fetcher.get_many(&file, 1, &reqs, true, None);
        let delta = env.io_stats().unwrap().snapshot().delta_since(&before);
        let first = got[0].as_ref().unwrap().block().raw_bytes().clone();
        for g in &got {
            assert_eq!(g.as_ref().unwrap().block().raw_bytes(), &first);
        }
        assert_eq!(
            delta.read_ops[FileKind::Sst.index()],
            1,
            "duplicate handles in one batch must coalesce into one read"
        );
    }

    #[test]
    fn get_many_isolates_hostile_slot() {
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let fetcher = BlockFetcher::new(Some(BlockCache::new(1 << 20)), 0);
        // The hostile slot needs its own offset: cache/single-flight keys
        // are (table, offset), so offset 0 would alias the good block.
        let reqs = [
            BlockRequest { handle, kind: BlockKind::Data },
            BlockRequest {
                handle: BlockHandle { offset: 1 << 40, size: u64::MAX - 4 },
                kind: BlockKind::Data,
            },
        ];
        let got = fetcher.get_many(&file, 1, &reqs, true, None);
        assert!(got[0].is_ok(), "good slot poisoned by hostile neighbor");
        assert!(matches!(got[1], Err(Error::Corruption(_))));
    }

    #[test]
    fn foreground_join_of_inflight_prefetch_counts_useful() {
        // A block whose prefetch read is still in flight when the
        // foreground arrives: the join itself must claim the readahead
        // credit, and the later first cache hit must not double it.
        let env = MemEnv::new();
        let handle = build_sst(&env, "t.sst", 300);
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 4);
        let raw = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();

        /// Holds reads at `gate_offset` open until released.
        struct SlowFile {
            inner: Arc<dyn RandomAccessFile>,
            gate_offset: u64,
            release: Arc<AtomicBool>,
        }
        impl RandomAccessFile for SlowFile {
            fn read_at(&self, offset: u64, len: usize) -> shield_env::EnvResult<Bytes> {
                if offset == self.gate_offset {
                    while !self.release.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                self.inner.read_at(offset, len)
            }
            fn len(&self) -> shield_env::EnvResult<u64> {
                self.inner.len()
            }
        }

        let release = Arc::new(AtomicBool::new(false));
        let file: Arc<dyn RandomAccessFile> = Arc::new(SlowFile {
            inner: raw,
            gate_offset: handle.offset,
            release: release.clone(),
        });
        fetcher.prefetch(&file, 1, handle, None);
        // Wait until the prefetch worker is actually in flight.
        for _ in 0..500 {
            if fetcher.core.inflight.lock().unwrap().contains_key(&(1, handle.offset)) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            fetcher.core.inflight.lock().unwrap().contains_key(&(1, handle.offset)),
            "prefetch never took flight"
        );
        // Foreground arrives mid-prefetch; release the gate from a helper
        // so the join resolves.
        let releaser = {
            let release = release.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                release.store(true, Ordering::SeqCst);
            })
        };
        let got = fetcher.fetch(&file, 1, handle, BlockKind::Data, true, None).unwrap();
        releaser.join().unwrap();
        drop(got);
        let s = cache.stats();
        assert_eq!(s.readahead_issued, 1);
        assert_eq!(s.readahead_useful, 1, "join of in-flight prefetch must count as useful");
        // The entry's prefetched flag was suppressed: a later hit must
        // not credit the same prefetch twice.
        drop(fetcher.fetch(&file, 1, handle, BlockKind::Data, true, None).unwrap());
        assert_eq!(cache.stats().readahead_useful, 1, "double-credited prefetch");
    }

    #[test]
    fn implausible_handle_rejected_before_allocation() {
        let env = MemEnv::new();
        build_sst(&env, "t.sst", 10);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        // A forged index entry naming a huge block must fail cleanly
        // without attempting the allocation.
        let huge = BlockHandle { offset: 0, size: u64::MAX - 4 };
        let err = read_verified(file.as_ref(), huge, None).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
        let big = BlockHandle { offset: 0, size: (MAX_BLOCK_LEN as u64) + 1 };
        let err = read_verified(file.as_ref(), big, None).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn hmac_table_verifies_and_detects_flips() {
        use crate::integrity::IntegrityCtx;
        use crate::sst::format::FOOTER_V2_LEN;
        let key = [9u8; 32];
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions {
            block_size: 256,
            mac_key: Some(key),
            ..TableBuilderOptions::default()
        };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..300u32 {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let len = file.len().unwrap();
        let footer = Footer::decode_from_tail(
            &file.read_at(len - FOOTER_V2_LEN as u64, FOOTER_V2_LEN).unwrap(),
        )
        .unwrap();
        assert_eq!(footer.version, 2);
        let ctx = IntegrityCtx::new(key, footer.context, 1);
        // Clean read verifies.
        let index = read_verified(file.as_ref(), footer.index, Some(&ctx)).unwrap();
        let index = Arc::new(Block::from_raw(index));
        let mut it = index.iter();
        it.seek_to_first();
        let handle = BlockHandle::decode_varint(it.value()).unwrap();
        read_verified(file.as_ref(), handle, Some(&ctx)).unwrap();
        // Bit-flip one data byte: MAC catches it as IntegrityViolation,
        // not Corruption, even though the CRC would also have failed.
        let mut raw = env.raw_content("t.sst").unwrap();
        raw[handle.offset as usize + 3] ^= 0x40;
        env.set_raw_content("t.sst", raw.clone()).unwrap();
        let err = read_verified(file.as_ref(), handle, Some(&ctx)).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
        // Fix the CRC over the mutated bytes (keyless, so an attacker
        // can): MAC still catches it.
        let contents = &raw[handle.offset as usize..(handle.offset + handle.size) as usize];
        let crc = shield_crypto::crc32c_masked(crc32c_extend(
            crc32c(contents),
            &[crate::sst::format::COMPRESSION_NONE],
        ));
        let crc_at = (handle.offset + handle.size) as usize + 1;
        raw[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        env.set_raw_content("t.sst", raw).unwrap();
        let err = read_verified(file.as_ref(), handle, Some(&ctx)).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }
}
