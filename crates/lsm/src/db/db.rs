//! The database handle: [`Db`] and the write front it owns — commit
//! queue, WAL, one sequence space, snapshot registry, sticky background
//! error, statistics and the event plumbing — over 1..N [`Tree`]s that
//! share the front's job pool and block cache. The commit path is in
//! [`crate::db::write`], the trees' background work in
//! [`crate::db::tree`], recovery in [`crate::db::recover`], and reads pin
//! a [`ReadView`] per tree and run in [`crate::db::read`].
//!
//! Encryption placement follows the paper exactly (§5.2): WAL bytes are
//! encrypted by the file layer just before persistence (optionally through
//! the §5.3 application buffer); memtables stay plaintext and flushes
//! encrypt at SST-build time; compaction outputs are chunk-encrypted and
//! always carry fresh DEKs, making compaction double as key rotation.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};
use shield_core::{
    perf, Event, EventDispatcher, InfoLog, LogConfig, PerfContext, PerfGuard, SlowOp, SpanRecord,
    Tracer, WindowTracker,
};
use shield_crypto::DekId;
use shield_env::FileKind;

use crate::cache::BlockCache;
use crate::compaction::pick_compaction;
use crate::db::batch::WriteBatch;
use crate::db::metrics::{Diagnostics, MetricsReport, OpHistograms};
use crate::db::options::{Options, ReadOptions, WriteOptions};
use crate::db::pool::JobPool;
use crate::db::read::{DbIterator, Snapshot};
use crate::db::sharded::Router;
use crate::db::tree::{Subtask, Tree};
use crate::db::write::{Pending, WalState};
use crate::error::{Error, Result, Severity};
use crate::files::FileStore;
use crate::integrity::IntegrityOptions;
use crate::iter::InternalIterator;
use crate::obs::{EnvLogSink, LOG_FILE_NAME};
use crate::statistics::Statistics;
use crate::types::SequenceNumber;
use crate::version::edit::VersionEdit;
use crate::version::table_cache::{TableCache, MAX_OPEN_FILES};
use crate::version::VersionSet;

/// Completed-span ring capacity of the flight recorder (oldest
/// overwritten first).
const TRACE_RING_SPANS: usize = 4096;
/// Slow-op ring capacity (captured operations, oldest dropped first).
const SLOW_OP_RING: usize = 32;
/// How much of the `LOG` file's end a debug bundle carries.
const LOG_TAIL_BYTES: u64 = 16 * 1024;

/// Sequence pins of live [`Snapshot`]s.
#[derive(Default)]
pub(super) struct SnapshotRegistry {
    pub pinned: BTreeMap<u64, SequenceNumber>,
    next_id: u64,
}

/// The write front and the trees behind it.
pub(super) struct DbInner {
    pub(super) opts: Options,
    /// Storage, encryption, integrity settings, tickers and the event
    /// fan-out (the `LOG` file is one of its listeners), as every tree's
    /// file accesses see them.
    pub(super) files: FileStore,
    pub(super) path: String,
    pub(super) router: Router,
    pub(super) trees: Vec<Tree>,
    pub(super) block_cache: Option<Arc<BlockCache>>,
    pub(super) wal: Mutex<WalState>,
    /// Writers waiting to be committed by a group leader.
    pub(super) commit_queue: Mutex<Vec<Pending>>,
    /// Held by the active group-commit leader.
    pub(super) leader: Mutex<()>,
    /// Highest sequence handed to a write group; every tree's manifest
    /// edits are stamped with it.
    pub(super) last_sequence: AtomicU64,
    /// Highest sequence visible to readers.
    pub(super) last_published: AtomicU64,
    pub(super) snapshots: Mutex<SnapshotRegistry>,
    /// The sticky background error. While set, writes are refused and no
    /// background work is scheduled on any tree.
    pub(super) bg_error: Mutex<Option<Error>>,
    pub(super) shutting_down: AtomicBool,
    /// Background worker pool every tree schedules on, with
    /// flush-priority fair scheduling.
    pub(super) pool: Arc<JobPool>,
    /// Key ranges a merge is split into while its tree is behind
    /// (DESIGN.md §4f "When a merge is split"): the pool's general lanes,
    /// but no more than the host has cores to run them on.
    pub(super) idle_lanes: usize,
    /// Self-reference so background jobs (closures on the pool) can keep
    /// the database alive while they run.
    pub(super) weak_self: Weak<DbInner>,
    /// Jobs this database has submitted to the pool that have not
    /// finished. Shutdown waits for zero.
    pub(super) bg_pending: Mutex<usize>,
    pub(super) bg_cv: Condvar,
    /// Pending subrange merges of the in-flight parallel compactions.
    /// Workers pop one per subcompaction claim token; the coordinating
    /// compaction thread drains whatever is left itself (work stealing),
    /// so the parallel path cannot deadlock even with a 1-thread pool.
    pub(super) sub_queue: Mutex<std::collections::VecDeque<Subtask>>,
    /// In-engine per-op latency histograms (see `Db::metrics_report`).
    pub(super) op_hists: OpHistograms,
    /// Flight recorder: span ring, slow-op ring, active-op registry.
    pub(super) tracer: Arc<Tracer>,
    /// Windowed-stats differ plus the ring of recent finished windows.
    pub(super) window: Mutex<WindowTracker>,
    /// Sleep/wake for the watchdog + stats ticker thread; shutdown
    /// notifies `ticker_cv` under `ticker_mu` so the thread exits
    /// promptly instead of finishing its tick.
    pub(super) ticker_mu: Mutex<()>,
    pub(super) ticker_cv: Condvar,
}

/// RAII pair for one traced operation. Field order matters: `op` drops
/// first, so the tracer's slow-op capture still sees the live
/// [`PerfContext`] the `perf` guard enables for the op's duration. Both
/// are `None` when tracing is disabled — the whole struct then costs one
/// atomic load per op.
pub(super) struct TracedOp {
    _op: Option<shield_core::trace::OpGuard>,
    _perf: Option<PerfGuard>,
}

/// An LSM-KVS instance: one write front over the 1..N trees
/// [`Options::with_shards`] / [`Options::with_shard_ranges`] ask for.
///
/// Cheap operations (`get`, `put`, `delete`, `write`, `iter`, `snapshot`)
/// take `&self` and are thread-safe. Dropping the handle shuts down
/// background work and flushes the WAL cleanly; use
/// [`Db::simulate_process_crash`] in tests that need a dirty exit.
pub struct Db {
    inner: Arc<DbInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    crash_on_drop: bool,
}

impl Db {
    /// Opens (creating or recovering) a database at `path`.
    ///
    /// `opts.shards` / `opts.shard_by` fix the tree layout at creation; a
    /// reopen with a different layout is refused (the `SHARDING` manifest
    /// records the original). A single tree lives in `path` itself,
    /// several in `path/shard-<i>/` beside the WAL they share.
    pub fn open(opts: Options, path: &str) -> Result<Db> {
        let env = opts.env.clone();
        let router = Router::new(&opts)?;
        env.create_dir_all(path)?;
        router.check_or_write_manifest(env.as_ref(), path)?;

        // Event plumbing first, so recovery and the env itself can report.
        let events = Arc::new(EventDispatcher::new());
        for listener in &opts.event_listeners {
            events.add(listener.clone());
        }
        let log_config = opts.info_log.unwrap_or_else(|| {
            std::env::var("SHIELD_LOG")
                .map(|v| LogConfig::from_env_str(&v))
                .unwrap_or(LogConfig { level: Some(shield_core::LogLevel::Info), json: false })
        });
        if let Some(min_level) = log_config.level {
            let log_path = shield_env::join_path(path, LOG_FILE_NAME);
            let sink = EnvLogSink::create(env.as_ref(), &log_path)?;
            events.add(Arc::new(InfoLog::new(Box::new(sink), min_level, log_config.json)));
        }
        // Faults injected by a wrapping fault env surface in the same LOG.
        env.set_event_listener(events.clone());

        let tracer = Tracer::new(TRACE_RING_SPANS, SLOW_OP_RING);
        tracer.set_enabled(opts.trace_ops);
        tracer.set_slow_op_threshold(opts.slow_op_threshold);
        tracer.set_listener(events.clone());

        let block_cache = if let Some(shared) = &opts.shared_block_cache {
            Some(shared.clone())
        } else if opts.block_cache_bytes > 0 {
            Some(BlockCache::with_config(crate::cache::CacheConfig {
                capacity: opts.block_cache_bytes,
                ..crate::cache::CacheConfig::default()
            })?)
        } else {
            None
        };
        // The one place an env, an encryption config and an integrity key
        // are combined; everything below opens files through this store.
        let files = FileStore {
            env: env.clone(),
            encryption: opts.encryption.clone(),
            integrity: IntegrityOptions { mode: opts.integrity, key: opts.integrity_key },
            stats: opts.statistics.clone(),
            events,
            ready: Arc::default(),
        };
        // The ready rule (files.rs). What the secure cache holds before
        // this open generates anything is what the orphan sweep below may
        // revoke; from here on the pool keeps keys ready, so the WAL
        // segment this open creates finds its key generated beside the
        // manifest's.
        let cached_before = files.cached_deks(path);
        let pool = JobPool::new(opts.max_background_jobs);
        files.refill_on(&pool);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let idle_lanes = pool.general_lanes().min(cores);
        let mut trees = Vec::with_capacity(router.shards());
        for i in 0..router.shards() {
            let tree_path = router.tree_path(path, i);
            env.create_dir_all(&tree_path)?;
            // One block cache for every tree, so hot trees steal capacity
            // from cold ones instead of each being boxed into a fixed slice.
            let table_cache = TableCache::new(
                files.clone(),
                tree_path.clone(),
                block_cache.clone(),
                MAX_OPEN_FILES,
                opts.readahead_blocks,
            );
            let mut versions =
                VersionSet::new(files.clone(), tree_path.clone(), table_cache.clone());
            if VersionSet::db_exists(env.as_ref(), &tree_path) {
                if opts.error_if_exists {
                    return Err(Error::InvalidArgument(format!("{path} already exists")));
                }
                versions.recover()?;
            } else {
                if !opts.create_if_missing {
                    return Err(Error::Io(shield_env::EnvError::NotFound(path.to_string())));
                }
                versions.create_new()?;
            }
            trees.push(Tree::new(tree_path, table_cache, versions));
        }
        let last_sequence =
            trees.iter().map(|tree| tree.state.lock().versions.last_sequence()).max().unwrap_or(0);

        let inner = Arc::new_cyclic(|weak_self| DbInner {
            files,
            path: path.to_string(),
            router,
            trees,
            block_cache,
            wal: Mutex::new(WalState::default()),
            commit_queue: Mutex::new(Vec::new()),
            leader: Mutex::new(()),
            last_sequence: AtomicU64::new(last_sequence),
            last_published: AtomicU64::new(0),
            snapshots: Mutex::new(SnapshotRegistry::default()),
            bg_error: Mutex::new(None),
            shutting_down: AtomicBool::new(false),
            pool,
            idle_lanes,
            weak_self: weak_self.clone(),
            bg_pending: Mutex::new(0),
            bg_cv: Condvar::new(),
            sub_queue: Mutex::new(std::collections::VecDeque::new()),
            op_hists: OpHistograms::default(),
            tracer,
            window: Mutex::new(WindowTracker::default()),
            ticker_mu: Mutex::new(()),
            ticker_cv: Condvar::new(),
            opts,
        });

        let recovered_wals = inner.recover_wals()?;

        // Fresh WAL for new writes; every (still empty) memtable is tagged
        // with it and every tree's manifest records it as its log number,
        // so obsolete-WAL computation is exact from the start.
        {
            let mut wal = inner.wal.lock();
            inner.switch_memtables(&mut wal, &[])?;
            for tree in &inner.trees {
                let edit = VersionEdit { log_number: Some(wal.number), ..VersionEdit::default() };
                inner.log_and_apply(&mut tree.state.lock(), edit)?;
            }
            let seq = inner.last_sequence.load(Ordering::Acquire);
            inner.last_published.store(seq, Ordering::Release);
        }
        for t in 0..inner.trees.len() {
            inner.delete_obsolete_files(t);
        }
        if !cached_before.is_empty() {
            let live: HashSet<DekId> = inner
                .trees
                .iter()
                .flat_map(|tree| tree.state.lock().versions.current().live_deks())
                .collect();
            inner.files.revoke_orphans(path, &cached_before, &live);
        }

        // Background work runs on the job pool; the only thread this
        // database spawns itself is the ticker.
        let mut threads = Vec::new();
        // Watchdog + windowed-stats ticker (only when either is on).
        if inner.opts.stats_dump_period.is_some()
            || (inner.opts.trace_ops && inner.opts.watchdog_deadline.is_some())
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || inner.ticker_loop()));
        }
        for (t, tree) in inner.trees.iter().enumerate() {
            inner.maybe_schedule(t, &mut tree.state.lock());
        }
        inner.files.events.emit(&Event::DbOpen { path: path.to_string(), recovered_wals });
        Ok(Db { inner, threads, crash_on_drop: false })
    }

    /// Stores `value` under `key`.
    pub fn put(&self, wopts: &WriteOptions, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(wopts, batch)
    }

    /// Deletes `key`.
    pub fn delete(&self, wopts: &WriteOptions, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(wopts, batch)
    }

    /// Applies a batch atomically, whichever trees its keys route to: the
    /// whole batch is part of one WAL record (all-or-nothing on replay)
    /// and becomes visible to readers at one sequence. Concurrent writers
    /// are group-committed: the first to arrive becomes the leader, drains
    /// the queue, writes one combined WAL record, and applies everything
    /// to the memtables.
    pub fn write(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(Error::Shutdown);
        }
        let op_start = std::time::Instant::now();
        let single_op = batch.count() == 1;
        let _trace = self.inner.traced_op(if single_op { "put" } else { "write_batch" });
        let result = self.inner.write(wopts.sync, batch);
        // Each writer records its own wall time (queue wait included):
        // single-op batches land in the `put` histogram, larger ones in
        // `write_batch`.
        if single_op {
            self.inner.op_hists.put.record_elapsed(op_start);
        } else {
            self.inner.op_hists.write_batch.record_elapsed(op_start);
        }
        result
    }

    /// The sequence a read with `ropts` sees.
    fn read_seq(&self, ropts: &ReadOptions) -> SequenceNumber {
        ropts
            .snapshot_seq
            .unwrap_or_else(|| self.inner.last_published.load(Ordering::Acquire))
    }

    /// Point lookup at the latest state (or the snapshot in `ropts`).
    pub fn get(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let _trace = self.inner.traced_op("get");
        let op_start = std::time::Instant::now();
        let tree = &self.inner.trees[self.inner.router.shard_of(key)];
        let result = tree.read_view(self.read_seq(ropts)).get(
            &tree.table_cache,
            &self.inner.files.stats,
            key,
            ropts.fill_cache,
        );
        self.inner.op_hists.get.record_elapsed(op_start);
        if let Err(e) = &result {
            self.park_if_unrecoverable(e);
        }
        result
    }

    /// Fail-stop on unrecoverable foreground read errors: an integrity
    /// violation (or corruption) seen by a get/scan parks the sticky
    /// background error so writes stop too — compaction must never
    /// launder data the read path already refused to serve.
    fn park_if_unrecoverable(&self, e: &Error) {
        if e.severity() == Severity::Unrecoverable && self.background_error().is_none() {
            self.inner.set_bg_error("read", e.clone());
        }
    }

    /// Batched point lookup: one result slot per key, each equivalent to
    /// [`Db::get`] at the same snapshot, with per-file batched block reads
    /// for the keys the memtables do not answer. Errors are per-slot.
    pub fn multi_get(&self, ropts: &ReadOptions, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>>> {
        let _trace = self.inner.traced_op("multi_get");
        let op_start = std::time::Instant::now();
        self.inner.files.stats.multi_gets.fetch_add(1, Ordering::Relaxed);
        let seq = self.read_seq(ropts);
        let owners: Vec<usize> = keys.iter().map(|key| self.inner.router.shard_of(key)).collect();
        let mut results: Vec<Option<Result<Option<Vec<u8>>>>> = keys.iter().map(|_| None).collect();
        for (t, tree) in self.inner.trees.iter().enumerate() {
            let slots: Vec<usize> = (0..keys.len()).filter(|&i| owners[i] == t).collect();
            if slots.is_empty() {
                continue;
            }
            let tree_keys: Vec<&[u8]> = slots.iter().map(|&i| keys[i]).collect();
            let found = tree.read_view(seq).multi_get(
                &tree.table_cache,
                &self.inner.files.stats,
                &tree_keys,
                ropts.fill_cache,
            );
            for (i, r) in slots.into_iter().zip(found) {
                results[i] = Some(r);
            }
        }
        let results: Vec<Result<Option<Vec<u8>>>> =
            results.into_iter().map(|slot| slot.expect("every key has an owner")).collect();
        self.inner.op_hists.multi_get.record_elapsed(op_start);
        for r in &results {
            if let Err(e) = r {
                self.park_if_unrecoverable(e);
            }
        }
        results
    }

    /// Creates a consistent point-in-time snapshot: a write batch is
    /// visible in it on every tree it touched or on none.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshots = self.inner.snapshots.lock();
        snapshots.next_id += 1;
        let id = snapshots.next_id;
        let seq = self.inner.last_published.load(Ordering::Acquire);
        snapshots.pinned.insert(id, seq);
        Snapshot::new(self.inner.clone(), id, seq)
    }

    /// An iterator over live keys in byte order across every tree,
    /// visible at the latest state (or the snapshot in `ropts`).
    pub fn iter(&self, ropts: &ReadOptions) -> Result<DbIterator> {
        let seq = self.read_seq(ropts);
        let views =
            self.inner.trees.iter().map(|tree| (tree.read_view(seq), &tree.table_cache)).collect();
        DbIterator::new(
            views,
            ropts.fill_cache,
            self.inner.files.stats.clone(),
            Some(self.inner.op_hists.iter_next.clone()),
        )
    }

    /// Range scan: up to `limit` live `(key, value)` pairs with
    /// `key >= start`.
    pub fn scan(&self, ropts: &ReadOptions, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let result = self.iter(ropts)?.scan(start, limit);
        if let Err(e) = &result {
            self.park_if_unrecoverable(e);
        }
        result
    }

    /// Forces every non-empty active memtable to flush and waits until no
    /// immutable memtables remain.
    pub fn flush(&self) -> Result<()> {
        {
            // Switch under the leader lock so we never race a commit.
            let _leader = self.inner.leader.lock();
            let filled: Vec<usize> = (0..self.inner.trees.len())
                .filter(|&t| !self.inner.trees[t].state.lock().mem.is_empty())
                .collect();
            if !filled.is_empty() {
                self.inner.switch_memtables(&mut self.inner.wal.lock(), &filled)?;
            }
        }
        for tree in &self.inner.trees {
            let mut state = tree.state.lock();
            // `flush_scheduled` outlasts the last immutable memtable by that
            // flush's obsolete-file pass: wait for the collected directory.
            while (!state.imm.is_empty() || state.flush_scheduled)
                && self.background_error().is_none()
            {
                tree.work_cv.wait(&mut state);
            }
        }
        self.background_error().map_or(Ok(()), Err)
    }

    /// Blocks until no flush or compaction work remains on any tree.
    pub fn wait_for_background_work(&self) -> Result<()> {
        for (t, tree) in self.inner.trees.iter().enumerate() {
            let mut state = tree.state.lock();
            loop {
                if let Some(e) = self.background_error() {
                    return Err(e);
                }
                let more = !state.imm.is_empty()
                    || state.flush_scheduled
                    || state.compaction_scheduled
                    || pick_compaction(&state.versions.current(), &self.inner.opts.compaction)
                        .is_some();
                if !more {
                    break;
                }
                self.inner.maybe_schedule(t, &mut state);
                tree.work_cv.wait(&mut state);
            }
        }
        Ok(())
    }

    /// Flushes everything and compacts until the picker finds no work.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        self.wait_for_background_work()
    }

    /// Engine counters. Mirrored tickers (fault-injection counts from
    /// the env, block-cache totals, the DEK resolver's retries) and
    /// gauges are refreshed on each call.
    #[must_use]
    pub fn statistics(&self) -> Arc<Statistics> {
        self.inner.files.refresh_mirrors(self.inner.block_cache.as_deref()).clone()
    }

    /// Slow operations captured so far (oldest first): every op whose
    /// wall time crossed [`Options::slow_op_threshold`], with its full
    /// span tree and [`PerfContext`] breakdown.
    #[must_use]
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.inner.tracer.slow_ops()
    }

    /// Best-effort snapshot of the flight recorder's span ring, oldest
    /// first. Empty unless [`Options::trace_ops`] is set.
    #[must_use]
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.inner.tracer.recent_spans()
    }

    /// Everything needed to debug the engine in one document: the
    /// metrics report (recent stats windows included) with its
    /// `diagnostics` section filled — the slow-op ring, the recent span
    /// ring and the last 16 KiB of the `LOG` file.
    #[must_use]
    pub fn debug_bundle(&self) -> MetricsReport {
        MetricsReport {
            diagnostics: Some(Diagnostics {
                slow_ops: self.inner.tracer.slow_ops(),
                trace_spans: self.inner.tracer.recent_spans(),
                log_tail: self.log_tail(),
            }),
            ..self.metrics_report()
        }
    }

    /// The last [`LOG_TAIL_BYTES`] of the `LOG` file, read with one
    /// `read_at` whatever the file's size; empty when there is no `LOG`.
    fn log_tail(&self) -> String {
        let path = shield_env::join_path(&self.inner.path, LOG_FILE_NAME);
        let env = &self.inner.files.env;
        let Ok(file) = env.new_random_access_file(&path, FileKind::Other) else {
            return String::new();
        };
        let len = file.len().unwrap_or(0);
        let start = len.saturating_sub(LOG_TAIL_BYTES);
        let tail = file.read_at(start, (len - start) as usize);
        tail.map(|bytes| String::from_utf8_lossy(&bytes).into_owned()).unwrap_or_default()
    }

    /// The engine's event dispatcher. Listeners added here (or via
    /// [`Options::event_listeners`]) receive every [`Event`]; the `LOG`
    /// file in the DB directory is itself one such listener.
    #[must_use]
    pub fn events(&self) -> Arc<EventDispatcher> {
        self.inner.files.events.clone()
    }

    /// The background pool every tree's flushes and compactions run on.
    #[must_use]
    pub fn job_pool(&self) -> &Arc<JobPool> {
        &self.inner.pool
    }

    /// Runs `f` with this thread's [`PerfContext`] enabled and returns
    /// `f`'s result together with the timing breakdown it accumulated.
    ///
    /// ```ignore
    /// let (value, perf) = db.with_perf_context(|db| db.get(&ropts, b"k"));
    /// assert!(perf.block_read_nanos + perf.block_decrypt_nanos <= wall_nanos);
    /// ```
    pub fn with_perf_context<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, PerfContext) {
        let guard = PerfGuard::enable();
        let result = f(self);
        let ctx = perf::current();
        drop(guard);
        (result, ctx)
    }

    /// One structured report of everything the engine measures: per-level
    /// shape, write/read amplification, per-op latency quantiles, all
    /// tickers, recent stats windows and each tree's share. See
    /// [`MetricsReport::to_json`] for the stable schema.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        self.inner.metrics_report()
    }

    /// The sticky background error, if any. While set, writes are refused
    /// but reads keep serving; [`Db::resume`] clears recoverable errors.
    #[must_use]
    pub fn background_error(&self) -> Option<Error> {
        self.inner.bg_error.lock().clone()
    }

    /// Clears a recoverable background error and re-drives the pending
    /// work, blocking until the backlog drains (mirrors RocksDB's
    /// `DB::Resume`).
    ///
    /// * No background error: returns `Ok(())` immediately.
    /// * Soft/hard error: the error is cleared, flush/compaction are
    ///   rescheduled, and the call returns the result of that re-run —
    ///   `Ok(())` if the cause (e.g. an injected fault, a KDS outage) has
    ///   been fixed, or the fresh error if it has not.
    /// * Unrecoverable error (corruption): nothing is cleared and the
    ///   error is returned.
    pub fn resume(&self) -> Result<()> {
        {
            let mut bg_error = self.inner.bg_error.lock();
            let Some(e) = bg_error.clone() else {
                return Ok(());
            };
            if e.severity() == Severity::Unrecoverable {
                return Err(e);
            }
            *bg_error = None;
        }
        self.inner.files.stats.resumes.fetch_add(1, Ordering::Relaxed);
        self.inner.files.events.emit(&Event::Resume);
        for (t, tree) in self.inner.trees.iter().enumerate() {
            self.inner.maybe_schedule(t, &mut tree.state.lock());
        }
        self.inner.wake_all_trees();
        self.wait_for_background_work()
    }

    /// Walks every live SST file of every tree, re-reading and
    /// checksum-verifying every block (through decryption when encrypted)
    /// and cross-checking entry counts against the properties block.
    /// Returns per-database totals.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let mut report = IntegrityReport::default();
        for tree in &self.inner.trees {
            let version = tree.state.lock().versions.current();
            for number in version.live_files() {
                let table = tree.table_cache.get(number)?;
                // The streaming scanner reads every data block from storage:
                // a block resident in the cache must not vouch for its bytes
                // on disk.
                let mut it = table.scan();
                it.seek_to_first();
                let mut entries = 0u64;
                let mut prev: Option<Vec<u8>> = None;
                while it.valid() {
                    let key = it.key().to_vec();
                    if let Some(p) = &prev {
                        if crate::types::internal_key_cmp(p, &key) != std::cmp::Ordering::Less {
                            return Err(Error::Corruption(format!(
                                "file {number}: keys out of order"
                            )));
                        }
                    }
                    prev = Some(key);
                    entries += 1;
                    it.next();
                }
                it.status()?;
                let expected = table.properties().num_entries;
                if entries != expected {
                    return Err(Error::Corruption(format!(
                        "file {number}: {entries} entries, properties claim {expected}"
                    )));
                }
                report.files += 1;
                report.entries += entries;
                report.bytes += version
                    .files
                    .iter()
                    .flatten()
                    .find(|f| f.number == number)
                    .map_or(0, |f| f.file_size);
            }
        }
        Ok(report)
    }

    /// The database directory.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.inner.path
    }

    /// Highest sequence number visible to readers.
    #[must_use]
    pub fn last_sequence(&self) -> SequenceNumber {
        self.inner.last_published.load(Ordering::Acquire)
    }

    /// Drops the handle *without* the clean-shutdown WAL flush, simulating
    /// a process crash: anything still in application buffers (including
    /// SHIELD's WAL encryption buffer) is lost, exactly the §5.3 trade-off.
    pub fn simulate_process_crash(mut self) {
        self.crash_on_drop = true;
    }

    fn shutdown(&mut self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        // Wake the ticker so it observes the flag now, not a tick later.
        {
            let _g = self.inner.ticker_mu.lock();
            self.inner.ticker_cv.notify_all();
        }
        self.inner.wake_all_trees();
        if let Some(mut w) = self.inner.wal.lock().writer.take() {
            if !self.crash_on_drop {
                let _ = w.sync();
            }
        }
        // Drain this database's background jobs (`shutting_down` stops new
        // ones from being scheduled): a job may hold the last reference to
        // the pool, so its threads are not joined from here.
        {
            let mut pending = self.inner.bg_pending.lock();
            while *pending > 0 {
                self.inner.bg_cv.wait(&mut pending);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // The close half of the ready rule; a crash leaves the unbound
        // keys for the next open's sweep.
        self.inner.files.close(!self.crash_on_drop);
        self.inner.files.events.emit(&Event::DbClose { path: self.inner.path.clone() });
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl DbInner {
    /// Drops a [`Snapshot`]'s sequence pin.
    pub(super) fn release_snapshot(&self, id: u64) {
        self.snapshots.lock().pinned.remove(&id);
    }

    /// Starts a traced (and perf-contexted) op if the flight recorder is
    /// on. Disabled cost: one atomic load.
    pub(super) fn traced_op(&self, name: &'static str) -> TracedOp {
        let op = self.tracer.start_op(name);
        // Enable a PerfContext for the op so a slow-op capture carries
        // the breakdown — unless the caller already holds one (e.g.
        // `with_perf_context`), whose accumulation we must not reset.
        let perf = if op.is_some() && !perf::enabled() {
            Some(PerfGuard::enable())
        } else {
            None
        };
        TracedOp { _op: op, _perf: perf }
    }
}

/// Result of [`Db::verify_integrity`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityReport {
    /// SST files verified.
    pub files: usize,
    /// Entries read (including tombstones).
    pub entries: u64,
    /// Total bytes of verified files.
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::{Env, MemEnv};

    fn open_mem() -> (MemEnv, Db) {
        let env = MemEnv::new();
        let opts = Options::new(Arc::new(env.clone()));
        let db = Db::open(opts, "db").unwrap();
        (env, db)
    }

    fn w() -> WriteOptions {
        WriteOptions::default()
    }

    fn r() -> ReadOptions {
        ReadOptions::new()
    }

    #[test]
    fn log_file_records_lifecycle_events() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env.clone()));
        opts.info_log = Some(LogConfig { level: Some(shield_core::LogLevel::Info), json: false });
        let db = Db::open(opts, "db").unwrap();
        db.put(&w(), b"k", b"v").unwrap();
        db.flush().unwrap();
        drop(db);
        let raw = shield_env::read_file_to_vec(&env, "db/LOG", FileKind::Other).unwrap();
        let log = String::from_utf8(raw).unwrap();
        for needle in ["db_open", "flush_begin", "flush_end", "db_close"] {
            assert!(log.contains(needle), "LOG missing {needle}:\n{log}");
        }
        let begins = log.matches("flush_begin").count();
        let ends = log.matches("flush_end").count();
        assert_eq!(begins, ends, "unpaired flush events:\n{log}");
    }

    /// However long the LOG has grown, a debug bundle reads its last
    /// 16 KiB in one read.
    #[test]
    fn debug_bundle_reads_only_the_log_tail() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env.clone()));
        opts.info_log = Some(LogConfig { level: Some(shield_core::LogLevel::Info), json: false });
        let db = Db::open(opts, "db").unwrap();
        for i in 0..300u32 {
            db.put(&w(), format!("k{i:04}").as_bytes(), b"v").unwrap();
            db.flush().unwrap();
        }
        db.wait_for_background_work().unwrap();
        let log_len = env.file_size("db/LOG").unwrap();
        assert!(log_len > 2 * LOG_TAIL_BYTES, "the LOG is only {log_len} bytes");

        let io = env.io_stats().unwrap();
        let before = io.snapshot();
        let tail = db.debug_bundle().diagnostics.unwrap().log_tail;
        let read = io.snapshot().delta_since(&before);
        assert_eq!(read.read_ops[FileKind::Other.index()], 1);
        assert_eq!(read.read_for(FileKind::Other), LOG_TAIL_BYTES);
        assert_eq!(tail.len() as u64, LOG_TAIL_BYTES);
        assert!(tail.ends_with('\n'), "the tail ends at the LOG's last line");
    }

    #[test]
    fn listeners_and_metrics_report() {
        struct Capture(Mutex<Vec<&'static str>>);
        impl shield_core::EventListener for Capture {
            fn on_event(&self, e: &Event) {
                self.0.lock().push(e.name());
            }
        }
        let capture = Arc::new(Capture(Mutex::new(Vec::new())));
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env)).with_event_listener(capture.clone());
        opts.info_log = Some(LogConfig::default()); // no LOG file
        let db = Db::open(opts, "db").unwrap();
        for i in 0..200u32 {
            db.put(&w(), format!("k{i:03}").as_bytes(), &[1u8; 64]).unwrap();
        }
        db.flush().unwrap();
        {
            let names = capture.0.lock();
            assert!(names.contains(&"db_open"));
            assert!(names.contains(&"flush_begin"));
            assert!(names.contains(&"flush_end"));
        }
        let report = db.metrics_report();
        assert!(report.levels[0].files >= 1);
        let put = report
            .latencies
            .iter()
            .find(|(op, _)| *op == "put")
            .map(|(_, s)| s)
            .unwrap();
        assert_eq!(put.count, 200);
        assert!(put.p99_us >= put.p50_us);
        let flush = report
            .latencies
            .iter()
            .find(|(op, _)| *op == "flush")
            .map(|(_, s)| s)
            .unwrap();
        assert!(flush.count >= 1);
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"shield_metrics_v1\""));
        assert!(json.contains("\"tickers\":{\"writes\":200"));
        assert!(report.write_amplification.is_some_and(|w| w > 0.0));
    }

    #[test]
    fn put_get_delete() {
        let (_env, db) = open_mem();
        db.put(&w(), b"key", b"value").unwrap();
        assert_eq!(db.get(&r(), b"key").unwrap(), Some(b"value".to_vec()));
        db.delete(&w(), b"key").unwrap();
        assert_eq!(db.get(&r(), b"key").unwrap(), None);
        assert_eq!(db.get(&r(), b"never").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_latest() {
        let (_env, db) = open_mem();
        db.put(&w(), b"k", b"v1").unwrap();
        db.put(&w(), b"k", b"v2").unwrap();
        assert_eq!(db.get(&r(), b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn batch_is_atomic() {
        let (_env, db) = open_mem();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        batch.delete(b"a");
        db.write(&w(), batch).unwrap();
        assert_eq!(db.get(&r(), b"a").unwrap(), None);
        assert_eq!(db.get(&r(), b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn survives_flush() {
        let (_env, db) = open_mem();
        for i in 0..100u32 {
            db.put(&w(), format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert!(db.metrics_report().levels[0].files >= 1, "flush should create an L0 file");
        for i in 0..100u32 {
            assert_eq!(
                db.get(&r(), format!("k{i:03}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "key k{i:03}"
            );
        }
    }

    #[test]
    fn reads_merge_memtable_over_sst() {
        let (_env, db) = open_mem();
        db.put(&w(), b"k", b"old").unwrap();
        db.flush().unwrap();
        db.put(&w(), b"k", b"new").unwrap();
        assert_eq!(db.get(&r(), b"k").unwrap(), Some(b"new".to_vec()));
        // Deletion in memtable shadows SST value.
        db.delete(&w(), b"k").unwrap();
        assert_eq!(db.get(&r(), b"k").unwrap(), None);
    }

    #[test]
    fn recovery_from_wal() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            db.put(&w(), b"persisted", b"yes").unwrap();
            // Clean drop: WAL flushed.
        }
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"persisted").unwrap(), Some(b"yes".to_vec()));
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            for i in 0..50u32 {
                db.put(&w(), format!("a{i:03}").as_bytes(), b"1").unwrap();
            }
            db.flush().unwrap();
            for i in 0..50u32 {
                db.put(&w(), format!("b{i:03}").as_bytes(), b"2").unwrap();
            }
        }
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"a001").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(&r(), b"b049").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn compaction_reduces_l0() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env));
        opts.write_buffer_size = 4 << 10; // tiny memtable
        opts.compaction.l0_compaction_trigger = 2;
        opts.compaction.target_file_size = 64 << 10;
        let db = Db::open(opts, "db").unwrap();
        for i in 0..2000u32 {
            db.put(&w(), format!("key{i:06}").as_bytes(), &[b'x'; 64]).unwrap();
        }
        db.compact_all().unwrap();
        let levels = db.metrics_report().levels;
        assert!(levels[0].files <= 2, "L0 should drain, got {levels:?}");
        assert!(levels.iter().any(|l| l.level == 1), "L1 should be populated, got {levels:?}");
        // Everything still readable.
        for i in (0..2000u32).step_by(97) {
            assert!(db.get(&r(), format!("key{i:06}").as_bytes()).unwrap().is_some());
        }
        assert!(db.statistics().snapshot().compactions >= 1);
    }

    #[test]
    fn iterator_basic() {
        let (_env, db) = open_mem();
        for k in ["d", "a", "c", "b"] {
            db.put(&w(), k.as_bytes(), k.as_bytes()).unwrap();
        }
        db.delete(&w(), b"c").unwrap();
        let mut it = db.iter(&r()).unwrap();
        it.seek_to_first();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(it.key().to_vec());
            it.next();
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn iterator_across_memtable_and_sst() {
        let (_env, db) = open_mem();
        db.put(&w(), b"a", b"sst").unwrap();
        db.put(&w(), b"b", b"sst").unwrap();
        db.flush().unwrap();
        db.put(&w(), b"b", b"mem").unwrap(); // overwrites
        db.put(&w(), b"c", b"mem").unwrap();
        let mut it = db.iter(&r()).unwrap();
        it.seek_to_first();
        let mut got = Vec::new();
        while it.valid() {
            got.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        assert_eq!(
            got,
            vec![
                (b"a".to_vec(), b"sst".to_vec()),
                (b"b".to_vec(), b"mem".to_vec()),
                (b"c".to_vec(), b"mem".to_vec()),
            ]
        );
    }

    #[test]
    fn scan_range() {
        let (_env, db) = open_mem();
        for i in 0..20u32 {
            db.put(&w(), format!("k{i:02}").as_bytes(), b"v").unwrap();
        }
        let got = db.scan(&r(), b"k05", 5).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, b"k05");
        assert_eq!(got[4].0, b"k09");
    }

    #[test]
    fn snapshot_isolation() {
        let (_env, db) = open_mem();
        db.put(&w(), b"k", b"v1").unwrap();
        let snap = db.snapshot();
        db.put(&w(), b"k", b"v2").unwrap();
        db.delete(&w(), b"other").unwrap();
        assert_eq!(db.get(&snap.read_options(), b"k").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(db.get(&r(), b"k").unwrap(), Some(b"v2".to_vec()));
        // Snapshot survives flush.
        db.flush().unwrap();
        assert_eq!(db.get(&snap.read_options(), b"k").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let env = MemEnv::new();
        let db = Arc::new(Db::open(Options::new(Arc::new(env)), "db").unwrap());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        db.put(&w(), format!("t{t}-{i:04}").as_bytes(), b"v").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = db.statistics().snapshot();
        assert_eq!(stats.writes, 1600);
        // Spot check.
        for t in 0..8 {
            assert!(db.get(&r(), format!("t{t}-0199").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn process_crash_loses_only_unflushed_tail() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            db.put(&w(), b"acked", b"1").unwrap();
            db.simulate_process_crash();
        }
        // Plaintext unbuffered WAL flushes per commit, so the write
        // survives a process crash.
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"acked").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn system_crash_respects_sync() {
        let env = MemEnv::new();
        {
            let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
            db.put(&WriteOptions { sync: true }, b"synced", b"1").unwrap();
            db.put(&w(), b"unsynced", b"2").unwrap();
            db.simulate_process_crash();
        }
        env.crash_system();
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"synced").unwrap(), Some(b"1".to_vec()));
        // Unsynced write may or may not survive; here the MemEnv dropped it.
        assert_eq!(db.get(&r(), b"unsynced").unwrap(), None);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (_env, db) = open_mem();
        db.write(&w(), WriteBatch::new()).unwrap();
        assert_eq!(db.statistics().snapshot().writes, 0);
    }

    #[test]
    fn reopen_empty_db() {
        let env = MemEnv::new();
        {
            let _ = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        }
        let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
        assert_eq!(db.get(&r(), b"x").unwrap(), None);
    }

    #[test]
    fn verify_integrity_clean_and_corrupt() {
        let env = MemEnv::new();
        let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        for i in 0..500u32 {
            db.put(&w(), format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let report = db.verify_integrity().unwrap();
        assert!(report.files >= 1);
        assert_eq!(report.entries, 500);
        assert!(report.bytes > 0);
        // Corrupt a data block in the SST and verify again.
        let name = env
            .list_dir("db")
            .unwrap()
            .into_iter()
            .find(|n| n.ends_with(".sst"))
            .unwrap();
        let mut raw = env.raw_content(&format!("db/{name}")).unwrap();
        raw[20] ^= 0xff;
        {
            use shield_env::FileKind;
            let mut f = env.new_writable_file(&format!("db/{name}"), FileKind::Sst).unwrap();
            f.append(&raw).unwrap();
            f.sync().unwrap();
        }
        // Evict the cached reader and cached blocks by reopening.
        drop(db);
        let mut opts = Options::new(Arc::new(env));
        opts.block_cache_bytes = 0;
        let db = Db::open(opts, "db").unwrap();
        assert!(matches!(db.verify_integrity(), Err(Error::Corruption(_))));
    }

    #[test]
    fn error_if_exists() {
        let env = MemEnv::new();
        let _ = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        let mut opts = Options::new(Arc::new(env));
        opts.error_if_exists = true;
        assert!(matches!(Db::open(opts, "db"), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn create_if_missing_false() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env));
        opts.create_if_missing = false;
        assert!(Db::open(opts, "nope").is_err());
    }

    fn open_n(env: &MemEnv, shards: usize) -> Db {
        Db::open(Options::new(Arc::new(env.clone())).with_shards(shards), "sdb").unwrap()
    }

    #[test]
    fn put_get_scan_across_trees() {
        let env = MemEnv::new();
        let db = open_n(&env, 4);
        for i in 0..100u32 {
            db.put(&w(), format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(
                db.get(&r(), format!("k{i:03}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        let all = db.scan(&r(), b"", usize::MAX).unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|p| p[0].0 < p[1].0), "merged scan must be globally sorted");
        let report = db.metrics_report();
        assert_eq!(report.trees.len(), 4);
        assert_eq!(report.tickers.writes, 100);
        assert!(report.tickers.wal_bytes > 0);
    }

    #[test]
    fn cross_tree_batch_is_atomic_in_snapshot() {
        let env = MemEnv::new();
        let db = open_n(&env, 4);
        let mut batch = WriteBatch::new();
        for i in 0..32u32 {
            batch.put(format!("b{i}").as_bytes(), b"x");
        }
        let before = db.snapshot();
        db.write(&w(), batch).unwrap();
        let after = db.snapshot();
        for i in 0..32u32 {
            let key = format!("b{i}");
            assert_eq!(db.get(&before.read_options(), key.as_bytes()).unwrap(), None);
            assert_eq!(db.get(&after.read_options(), key.as_bytes()).unwrap(), Some(b"x".to_vec()));
        }
        assert_eq!(db.scan(&before.read_options(), b"", usize::MAX).unwrap().len(), 0);
        assert_eq!(db.scan(&after.read_options(), b"", usize::MAX).unwrap().len(), 32);
    }

    #[test]
    fn reopen_recovers_unflushed_writes_of_every_tree() {
        let env = MemEnv::new();
        {
            let db = open_n(&env, 2);
            for i in 0..50u32 {
                db.put(&w(), format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            // Clean drop: WAL synced, memtables discarded.
        }
        let db = open_n(&env, 2);
        for i in 0..50u32 {
            assert_eq!(
                db.get(&r(), format!("k{i}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "k{i} lost across reopen"
            );
        }
    }

    #[test]
    fn reopen_with_different_layout_is_refused() {
        let env = MemEnv::new();
        drop(open_n(&env, 2));
        let refused = |opts: Options, path: &str| {
            let err = Db::open(opts, path).map(|_| ()).expect_err("layout mismatch must be refused");
            assert!(matches!(err, Error::InvalidArgument(_)), "got {err:?}");
        };
        let base = || Options::new(Arc::new(env.clone()));
        refused(base().with_shards(4), "sdb");
        refused(base(), "sdb");
        refused(base().with_shard_ranges(vec![b"m".to_vec()]), "sdb");
        // The original layout still opens.
        drop(open_n(&env, 2));
        // And an unsharded directory does not grow trees.
        drop(Db::open(base(), "db").unwrap());
        refused(base().with_shards(2), "db");
    }

    #[test]
    fn flush_leaves_one_wal_segment() {
        let env = MemEnv::new();
        let db = open_n(&env, 2);
        for i in 0..200u32 {
            db.put(&w(), format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
        }
        db.flush().unwrap();
        let wals = env.list_dir("sdb").unwrap().iter().filter(|f| f.ends_with(".log")).count();
        assert_eq!(wals, 1, "only the fresh active segment survives");
        // Data still fully readable after GC + reopen.
        drop(db);
        let db = open_n(&env, 2);
        assert_eq!(db.scan(&r(), b"", usize::MAX).unwrap().len(), 200);
    }

    #[test]
    fn idle_tree_pins_no_wal_segment() {
        // Tree 0 (keys below "m") is never written, so its manifest keeps
        // the log number it got at open; that must not keep alive the
        // segments tree 1 fills and flushes past.
        let env = MemEnv::new();
        let opts = || {
            Options::new(Arc::new(env.clone()))
                .with_shard_ranges(vec![b"m".to_vec()])
                .with_write_buffer_size(4 << 10)
        };
        let db = Db::open(opts(), "sdb").unwrap();
        for i in 0..400u32 {
            db.put(&w(), format!("z{i:04}").as_bytes(), &[7u8; 100]).unwrap();
        }
        db.flush().unwrap();
        assert!(db.metrics_report().trees[1].flushes > 4, "the WAL must have switched often");
        let wals = env.list_dir("sdb").unwrap().iter().filter(|f| f.ends_with(".log")).count();
        assert_eq!(wals, 1, "an idle tree pinned old segments");
        drop(db);
        let db = Db::open(opts(), "sdb").unwrap();
        assert_eq!(db.scan(&r(), b"", usize::MAX).unwrap().len(), 400);
    }

    #[test]
    fn multi_get_routes_and_preserves_slots() {
        let env = MemEnv::new();
        let db = open_n(&env, 4);
        for i in 0..20u32 {
            db.put(&w(), format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        let names: Vec<String> = (0..20).map(|i| format!("k{i}")).collect();
        let mut keys: Vec<&[u8]> = names.iter().map(|s| s.as_bytes()).collect();
        keys.push(b"missing");
        let out = db.multi_get(&r(), &keys);
        assert_eq!(out.len(), 21);
        for (i, slot) in out.iter().take(20).enumerate() {
            assert_eq!(slot.as_ref().ok().cloned().flatten(), Some(format!("v{i}").into_bytes()));
        }
        assert_eq!(out[20].as_ref().ok().cloned().flatten(), None);
        assert_eq!(db.statistics().snapshot().multi_gets, 1);
    }
}
