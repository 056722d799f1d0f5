//! The read path for point lookups, user iterators and table opens:
//! cache lookup → env read → verify → block construction, behind one
//! choke point with three entries, chosen by what the reader wants:
//!
//! - **One block: [`BlockFetcher::fetch`].** Point gets, table opens and
//!   iterators without readahead. A miss is single-flight: N threads
//!   missing the same `(table_id, offset)` perform one underlying read
//!   (and, for encrypted files, one decrypt — the decryption wrapper sits
//!   below the file handle this module reads through). Late arrivals park
//!   on the in-flight entry's condvar and share the leader's result,
//!   including its error. Under a disaggregated env's ~500 µs RTT this
//!   turns a thundering herd on a hot cold block into a single round trip.
//! - **A batch of blocks: [`BlockFetcher::get_many`].** `multi_get` and
//!   iterator readahead. The batch is partitioned into cache hits,
//!   joinable in-flight reads, and leader reads; the leader reads are
//!   submitted as `read_at_many` windows of at most the configured
//!   in-flight depth — one round trip per window on a remote env — and
//!   with more than one window each completed window is verified while
//!   the next one's payload is still in flight. Readahead is such a batch
//!   ([`BlockFetcher::read_ahead`]): the block the iterator stands on
//!   plus the next few index entries, sized to one window. The followers
//!   land in the cache flagged `prefetched`, so `readahead_issued` counts
//!   the follower reads a batch led and the cache credits
//!   `readahead_useful` on each one's first hit — both are functions of
//!   the data and the scan, not of thread timing.
//! - **A whole file: [`crate::sst::scanner`].** Compaction and
//!   `verify_integrity` read around the cache in large spans.
//!
//! All three meet in `split_verified`, the one function that turns raw
//! bytes into trusted ones, and none owns a thread: a read happens on the
//! thread that asked for it (a multi-window batch borrows one scoped
//! thread for the duration of the call).
//!
//! Decryption itself stays in [`crate::encryption`]'s file wrapper: a
//! fetch against an encrypted table reads through
//! `EncryptedRandomAccessFile`, so coalescing the read coalesces the
//! keystream work too.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::Ordering;
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
#[derive(Default)]
struct Flight {
    done: Mutex<Option<Result<Arc<Block>>>>,
    cv: Condvar,
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
    cache: Option<Arc<BlockCache>>,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    /// Engine tickers credited with batched-read submissions.
    stats: Option<Arc<Statistics>>,
    readahead_blocks: usize,
    inflight_depth: usize,
}

impl BlockFetcher {
    /// Creates a fetcher over `cache` (or none). `readahead_blocks` is the
    /// default readahead depth for iterators; 0 disables readahead.
    /// Readahead also requires a cache — blocks read ahead have nowhere to
    /// land without one. Batched reads use the default in-flight depth;
    /// [`BlockFetcher::with_depth`] overrides it.
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
        Arc::new(BlockFetcher {
            cache,
            inflight: Mutex::new(HashMap::new()),
            stats,
            readahead_blocks,
            inflight_depth: inflight_depth.max(1),
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
        self.cache.as_ref()
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
        if let Some(h) = self.lookup(&key, kind, fill_cache) {
            return Ok(FetchedBlock::Cached(h));
        }
        self.fetch_miss(file, key, handle, kind, fill_cache, integrity)
    }

    /// Fetches a batch of blocks from one table file, returning one
    /// result per request in request order.
    ///
    /// The batch is partitioned three ways: cache hits are served
    /// immediately, misses another thread is already reading are joined
    /// (single-flight), and the remaining leader reads are submitted as
    /// `read_at_many` windows of at most [`Self::inflight_depth`]
    /// requests. A batch that fits one window is read on the calling
    /// thread (a single round trip on a remote env). With more windows,
    /// while one's payload is still in flight the previous window's
    /// blocks are MAC-verified, CRC-checked, and admitted to the cache —
    /// verify overlaps transfer. Every slot fails independently: a
    /// hostile handle, an injected fault, or a corrupt block errors its
    /// own result and never poisons a neighbor.
    pub fn get_many(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        table_id: u64,
        requests: &[BlockRequest],
        fill_cache: bool,
        integrity: Option<&IntegrityCtx>,
    ) -> Vec<Result<FetchedBlock>> {
        self.batch(file, table_id, requests, fill_cache, false, integrity)
            .into_iter()
            .map(|slot| slot.expect("every batch slot resolved"))
            .collect()
    }

    /// Iterator readahead, as one batch: fetches `requests[0]` — the
    /// block the iterator stands on — and reads the *followers* after it
    /// into the cache in the same submission, flagged `prefetched`.
    /// `readahead_issued` counts the followers this batch led the read
    /// of; one already in flight elsewhere is left to its reader, and a
    /// follower that fails is dropped silently — the scan re-reads it,
    /// and reports the error, if it ever gets there. The caller leaves
    /// out followers that are already resident and keeps the batch within
    /// one window ([`Self::inflight_depth`]).
    pub(super) fn read_ahead(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        table_id: u64,
        requests: &[BlockRequest],
        integrity: Option<&IntegrityCtx>,
    ) -> Result<FetchedBlock> {
        self.batch(file, table_id, requests, true, true, integrity)
            .swap_remove(0)
            .expect("the first slot of a batch is always resolved")
    }

    /// The batched read behind [`Self::get_many`] and
    /// [`Self::read_ahead`]. With `readahead`, every slot after the first
    /// is a follower: wanted in the cache, not by the caller, so it is
    /// neither looked up nor joined, and its slot may stay `None`.
    fn batch(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        table_id: u64,
        requests: &[BlockRequest],
        fill_cache: bool,
        readahead: bool,
        integrity: Option<&IntegrityCtx>,
    ) -> Vec<Option<Result<FetchedBlock>>> {
        let mut batch_span = trace::span("fetch_batch");
        batch_span.attr("requests", requests.len() as u64);
        let mut out: Vec<Option<Result<FetchedBlock>>> = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || None);
        let follower = |i: usize| readahead && i > 0;

        // Phase 1: cache hits.
        let mut misses: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            if !follower(i) {
                if let Some(h) = self.lookup(&(table_id, req.handle.offset), req.kind, fill_cache) {
                    out[i] = Some(Ok(FetchedBlock::Cached(h)));
                    continue;
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
        let mut landed: Vec<usize> = Vec::new();
        match lock_inflight(&self.inflight) {
            Ok(mut map) => {
                for &i in &misses {
                    let key = (table_id, requests[i].handle.offset);
                    match map.get(&key) {
                        Some(_) if follower(i) => {}
                        Some(f) => joiners.push((i, f.clone())),
                        // A leader admits its block before it retires the
                        // flight, so a block another batch finished since
                        // phase 1 is resident by now: under this lock,
                        // "not in flight and not resident" means nobody
                        // else has read it, and concurrent scans read
                        // each block once.
                        None if fill_cache
                            && self.cache.as_ref().is_some_and(|c| c.contains(&key)) =>
                        {
                            if !follower(i) {
                                landed.push(i);
                            }
                        }
                        None => {
                            let f = Arc::new(Flight::default());
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
                return out;
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
                    self.publish((table_id, req.handle.offset), &flight, Err(e.clone()));
                    out[i] = Some(Err(e));
                }
            }
        }
        if !ready.is_empty() {
            let queue = ReadQueue::new(self.inflight_depth);
            let read_reqs: Vec<ReadRequest> = ready.iter().map(|r| r.2).collect();
            let windows: Vec<Range<usize>> = (0..ready.len())
                .step_by(queue.depth())
                .map(|start| start..(start + queue.depth()).min(ready.len()))
                .collect();
            if let Some(stats) = &self.stats {
                stats.batched_reads.fetch_add(windows.len() as u64, Ordering::Relaxed);
                stats.batch_read_requests.fetch_add(ready.len() as u64, Ordering::Relaxed);
            }
            if let Some(cache) = self.cache.as_ref().filter(|_| readahead) {
                let led = ready.iter().filter(|r| follower(r.0)).count();
                cache.counters().readahead_issued.fetch_add(led as u64, Ordering::Relaxed);
            }
            batch_span.attr("windows", windows.len() as u64);
            let read = |window: Range<usize>| -> Vec<Result<Bytes>> {
                queue
                    .submit_window(file.as_ref(), &read_reqs[window])
                    .into_iter()
                    .map(|raw| raw.map_err(Error::from))
                    .collect()
            };
            // Verifies, admits and publishes one window's reads.
            let mut settle = |window: Range<usize>, raws: Vec<Result<Bytes>>| {
                let mut span = trace::span("verify_window");
                span.attr("blocks", window.len() as u64);
                for (slot, raw) in window.zip(raws) {
                    let (i, flight, _) = &ready[slot];
                    let req = requests[*i];
                    let key = (table_id, req.handle.offset);
                    perf::incr(PerfCounter::BlocksRead, 1);
                    let result = raw
                        .and_then(|bytes| split_verified(&bytes, req.handle, integrity))
                        .map(|contents| parse_block(contents, req.kind));
                    out[*i] = Some(self.admit(key, &result, req.kind, fill_cache, follower(*i)));
                    self.publish(key, flight, result);
                }
            };
            if let [only] = windows.as_slice() {
                // There is no next window to overlap this one's
                // verification with: read it on the calling thread.
                let raws = wait_for_window(only, || read(only.clone()));
                settle(only.clone(), raws);
            } else {
                std::thread::scope(|s| {
                    let mut inflight = s.spawn(|| read(windows[0].clone()));
                    for (widx, window) in windows.iter().enumerate() {
                        // Kick off the next window before verifying this
                        // one: its transfer rides concurrently with our
                        // MAC/CRC work below.
                        let next = windows.get(widx + 1).map(|w| s.spawn(|| read(w.clone())));
                        let raws = wait_for_window(window, || inflight.join()).unwrap_or_else(|_| {
                            let panicked = Error::Corruption("batch read worker panicked".into());
                            window.clone().map(|_| Err(panicked.clone())).collect()
                        });
                        settle(window.clone(), raws);
                        match next {
                            Some(handle) => inflight = handle,
                            None => break,
                        }
                    }
                });
            }
        }

        // Phase 4: collect the joined flights (all our own leaders have
        // published by now, so self-joins resolve immediately) and the
        // blocks that landed under our feet.
        for (i, flight) in joiners {
            out[i] = Some(self.join_flight(&flight).map(FetchedBlock::Uncached));
        }
        for i in landed {
            let BlockRequest { handle, kind } = requests[i];
            out[i] = Some(self.fetch(file, table_id, handle, kind, fill_cache, integrity));
        }
        out
    }

    /// The timed cache probe of [`Self::fetch`] and [`Self::batch`];
    /// `None` without a cache or with `fill_cache = false`.
    fn lookup(&self, key: &CacheKey, kind: BlockKind, fill_cache: bool) -> Option<CacheHandle> {
        let cache = self.cache.as_ref().filter(|_| fill_cache)?;
        let t = perf::timer();
        let cached = cache.lookup(key, kind);
        perf::add_elapsed(PerfMetric::CacheLookup, t);
        cached
    }

    /// The miss path: join an in-flight read for `key` or become its
    /// leader. Exactly one thread per concurrent miss group performs the
    /// verified read (and thus the decrypt below it).
    fn fetch_miss(
        &self,
        file: &Arc<dyn RandomAccessFile>,
        key: CacheKey,
        handle: BlockHandle,
        kind: BlockKind,
        fill_cache: bool,
        integrity: Option<&IntegrityCtx>,
    ) -> Result<FetchedBlock> {
        let (flight, is_leader) = {
            let mut map = lock_inflight(&self.inflight)?;
            match map.get(&key) {
                Some(flight) => (flight.clone(), false),
                None => {
                    let flight = Arc::new(Flight::default());
                    map.insert(key, flight.clone());
                    (flight, true)
                }
            }
        };

        if !is_leader {
            // Another thread is already reading this block: wait for it.
            return self.join_flight(&flight).map(FetchedBlock::Uncached);
        }

        // Leader: do the read, publish the result, then retire the flight.
        let result = {
            let mut span = trace::span("read_block");
            span.attr("offset", handle.offset);
            span.attr("len", handle.size);
            read_verified(file.as_ref(), handle, integrity).map(|raw| parse_block(raw, kind))
        };
        let out = self.admit(key, &result, kind, fill_cache, false);
        self.publish(key, &flight, result);
        out
    }

    /// What a leader hands its caller for a finished read: the block,
    /// admitted to the cache when `fill_cache` says so and the cache takes
    /// it. `prefetched` marks a readahead follower, whose first hit the
    /// cache credits to `readahead_useful`.
    fn admit(
        &self,
        key: CacheKey,
        result: &Result<Arc<Block>>,
        kind: BlockKind,
        fill_cache: bool,
        prefetched: bool,
    ) -> Result<FetchedBlock> {
        let block = result.as_ref().map_err(Clone::clone)?;
        let admitted = self
            .cache
            .as_ref()
            .filter(|_| fill_cache)
            .and_then(|cache| cache.insert(key, block, block.size(), kind, prefetched));
        Ok(match admitted {
            Some(h) => FetchedBlock::Cached(h),
            None => FetchedBlock::Uncached(block.clone()),
        })
    }

    /// Waits on another thread's in-flight read and shares its result.
    fn join_flight(&self, flight: &Flight) -> Result<Arc<Block>> {
        let _span = trace::span("singleflight_wait");
        if let Some(cache) = &self.cache {
            cache.counters().singleflight_waits.fetch_add(1, Ordering::Relaxed);
        }
        perf::incr(PerfCounter::SingleflightWaits, 1);
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

/// Runs `wait` — one window's read, or the join of the thread reading it
/// — under the `read_window` span and the `IoBatchWait` timer. Both live
/// on the coordinating thread, never the reader: its waits are
/// sequential, so the per-window durations always sum to at most the op's
/// wall time, and the span needs no cross-thread context.
fn wait_for_window<T>(window: &Range<usize>, wait: impl FnOnce() -> T) -> T {
    let mut span = trace::span("read_window");
    span.attr("blocks", window.len() as u64);
    let t = perf::timer();
    let out = wait();
    perf::add_elapsed(PerfMetric::IoBatchWait, t);
    out
}

/// Parses verified block contents (opaque wrapping for filter payloads,
/// which are not in entry format).
fn parse_block(contents: Bytes, kind: BlockKind) -> Arc<Block> {
    Arc::new(match kind {
        BlockKind::Filter => Block::from_raw_opaque(contents),
        BlockKind::Data | BlockKind::Index => Block::from_raw(contents),
    })
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
    use std::sync::atomic::AtomicBool;

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

    fn data_requests(handles: &[BlockHandle]) -> Vec<BlockRequest> {
        handles.iter().map(|h| BlockRequest { handle: *h, kind: BlockKind::Data }).collect()
    }

    #[test]
    fn read_ahead_lands_followers_in_cache_in_one_submission() {
        let env = MemEnv::new();
        build_sst(&env, "t.sst", 300);
        let handles = all_data_handles(&env, "t.sst");
        let cache = BlockCache::new(1 << 20);
        let stats = Statistics::new();
        let fetcher = BlockFetcher::with_depth(Some(cache.clone()), 4, 16, Some(stats.clone()));
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let got = fetcher.read_ahead(&file, 1, &data_requests(&handles[..5]), None).unwrap();
        assert!(matches!(got, FetchedBlock::Cached(_)), "the cursor block is served from slot 0");
        assert_eq!(
            got.block().raw_bytes(),
            &read_verified(file.as_ref(), handles[0], None).unwrap()
        );
        for h in &handles[..5] {
            assert!(cache.contains(&(1, h.offset)), "block at {} never landed", h.offset);
        }
        assert!(!cache.contains(&(1, handles[5].offset)));
        let s = cache.stats();
        assert_eq!((s.readahead_issued, s.readahead_useful), (4, 0), "followers, not the cursor");
        assert_eq!((s.data_hits, s.data_misses), (0, 1), "followers are not looked up");
        let t = stats.snapshot();
        assert_eq!((t.batched_reads, t.batch_read_requests), (1, 5));
        // A follower's first real read is a hit credited to readahead,
        // once.
        for _ in 0..2 {
            let got = fetcher.fetch(&file, 1, handles[3], BlockKind::Data, true, None).unwrap();
            assert!(matches!(got, FetchedBlock::Cached(_)));
        }
        assert_eq!(cache.stats().readahead_useful, 1);
        // Nor does the cursor's: it was wanted, not read ahead.
        drop(fetcher.fetch(&file, 1, handles[0], BlockKind::Data, true, None).unwrap());
        assert_eq!(cache.stats().readahead_useful, 1);
    }

    #[test]
    fn failed_follower_is_dropped_and_does_not_fail_the_cursor() {
        let env = MemEnv::new();
        build_sst(&env, "t.sst", 300);
        let handles = all_data_handles(&env, "t.sst");
        let mut raw = env.raw_content("t.sst").unwrap();
        raw[handles[2].offset as usize + 3] ^= 0x40;
        env.set_raw_content("t.sst", raw).unwrap();
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 4);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        fetcher.read_ahead(&file, 1, &data_requests(&handles[..4]), None).unwrap();
        assert!(cache.contains(&(1, handles[1].offset)) && cache.contains(&(1, handles[3].offset)));
        assert!(!cache.contains(&(1, handles[2].offset)), "a corrupt block must not be cached");
        // The block is reported when it is actually wanted.
        let err = fetcher.read_ahead(&file, 1, &data_requests(&handles[2..4]), None).err();
        assert!(matches!(err, Some(Error::Corruption(_))), "got {err:?}");
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
        let reqs = data_requests(&handles);
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
    fn follower_in_flight_elsewhere_is_neither_joined_nor_counted() {
        let env = MemEnv::new();
        build_sst(&env, "t.sst", 300);
        let handles = all_data_handles(&env, "t.sst");
        let (cursor, busy) = (handles[0], handles[1]);
        let cache = BlockCache::new(1 << 20);
        let fetcher = BlockFetcher::new(Some(cache.clone()), 4);

        /// Holds reads at `gate_offset` open until released.
        struct SlowFile {
            inner: Arc<dyn RandomAccessFile>,
            gate_offset: u64,
            release: AtomicBool,
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
        let slow = Arc::new(SlowFile {
            inner: env.new_random_access_file("t.sst", FileKind::Sst).unwrap(),
            gate_offset: busy.offset,
            release: AtomicBool::new(false),
        });
        let file: Arc<dyn RandomAccessFile> = slow.clone();

        std::thread::scope(|s| {
            // Another reader leads `busy` and is held mid-read.
            let reader = s.spawn(|| fetcher.fetch(&file, 1, busy, BlockKind::Data, true, None));
            while !fetcher.inflight.lock().unwrap().contains_key(&(1, busy.offset)) {
                std::thread::yield_now();
            }
            // A readahead batch naming `busy` as a follower returns its
            // cursor block without waiting for it (a join would never
            // return: the gate opens only afterwards).
            fetcher.read_ahead(&file, 1, &data_requests(&[cursor, busy]), None).unwrap();
            let s = cache.stats();
            assert_eq!((s.readahead_issued, s.singleflight_waits), (0, 0));
            slow.release.store(true, Ordering::SeqCst);
            reader.join().unwrap().unwrap();
        });
        // `busy` landed through its own reader, unflagged: a hit on it is
        // no readahead credit.
        drop(fetcher.fetch(&file, 1, busy, BlockKind::Data, true, None).unwrap());
        assert_eq!(cache.stats().readahead_useful, 0);
    }

    #[test]
    fn one_window_batch_reads_on_the_calling_thread() {
        /// Records which thread performed each read.
        struct ThreadLog {
            inner: Arc<dyn RandomAccessFile>,
            readers: Mutex<Vec<std::thread::ThreadId>>,
        }
        impl RandomAccessFile for ThreadLog {
            fn read_at(&self, offset: u64, len: usize) -> shield_env::EnvResult<Bytes> {
                self.readers.lock().unwrap().push(std::thread::current().id());
                self.inner.read_at(offset, len)
            }
            fn len(&self) -> shield_env::EnvResult<u64> {
                self.inner.len()
            }
        }
        let env = MemEnv::new();
        build_sst(&env, "t.sst", 400);
        let handles = all_data_handles(&env, "t.sst");
        let log = Arc::new(ThreadLog {
            inner: env.new_random_access_file("t.sst", FileKind::Sst).unwrap(),
            readers: Mutex::new(Vec::new()),
        });
        let file: Arc<dyn RandomAccessFile> = log.clone();
        let me = std::thread::current().id();
        let fetcher = BlockFetcher::with_depth(None, 0, 3, None);
        for got in fetcher.get_many(&file, 1, &data_requests(&handles[..3]), true, None) {
            got.unwrap();
        }
        let one_window = std::mem::take(&mut *log.readers.lock().unwrap());
        assert_eq!(one_window, vec![me; 3], "a lone window has nothing to overlap with");
        // More windows: reads move to the scoped reader so window k + 1
        // transfers while window k is verified here.
        for got in fetcher.get_many(&file, 1, &data_requests(&handles[..7]), true, None) {
            got.unwrap();
        }
        let readers = log.readers.lock().unwrap();
        assert_eq!(readers.len(), 7);
        assert!(readers.iter().all(|id| *id != me));
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
