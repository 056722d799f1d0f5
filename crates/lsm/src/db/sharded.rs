//! [`ShardedDb`]: N key-partitioned LSM instances behind one `Db`-shaped
//! API, lifting the single-memtable / single-WAL ceiling on write
//! scaling (ROADMAP item 2).
//!
//! Architecture (DESIGN.md §4k):
//!
//! - **Shards** are full [`Db`] instances in `shard-<i>/` subdirectories,
//!   each with its own memtable, version set, and compaction state. A
//!   [`Router`] maps user keys to shards by FNV-1a hash or by explicit
//!   range boundaries ([`ShardBy`]).
//! - **Shared resources**: one [`JobPool`] (flush-priority fair
//!   scheduling — a compaction-saturated shard cannot starve another
//!   shard's flush), one block cache, and — in SHIELD mode — one
//!   `DekResolver`/`SecureDekCache` behind the cloned
//!   [`crate::encryption::EncryptionConfig`].
//! - **Atomic cross-shard writes** go through a *shared group-commit
//!   WAL* (SWAL) in the parent directory: one record per user batch,
//!   so record framing makes every batch all-or-nothing on replay.
//!   Shards run with their own WALs disabled; their durability comes
//!   from the SWAL plus a flush barrier ([`Options::flush_barrier`])
//!   that syncs the SWAL before any shard persists an L0 table — an SST
//!   can never contain a batch whose commit record is not durable.
//! - **Ordering** is enforced by per-shard ticket [`Gate`]s: tickets are
//!   issued under the commit lock (one global order) and applied in
//!   ascending shard index, so per-shard apply order always equals SWAL
//!   order and a consistent cut exists at every gate-drained point.
//!   Snapshots/merged scans take that cut: hold the commit lock, drain
//!   every gate, pin each shard.
//! - **SWAL GC** happens at checkpoints: rotate the segment, wait for
//!   every batch in the old segments to be applied, flush all shards,
//!   then delete the old segments. A torn tail can therefore only ever
//!   exist in the *last* segment (rotation syncs before switching).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use shield_core::{Histogram, HistogramSummary, JsonBuilder};
use shield_env::{Env, FileKind};

use crate::encryption::EncryptionConfig;

use crate::cache::{BlockCache, CacheConfig};
use crate::db::batch::WriteBatch;
use crate::db::db::{Db, IntegrityReport};
use crate::db::metrics::{LevelStats, MetricsReport, OP_TYPES};
use crate::db::options::{Options, ReadOptions, ShardBy, WriteOptions};
use crate::db::pool::JobPool;
use crate::db::read::{DbIterator, Snapshot};
use crate::error::{Error, Result};
use crate::integrity::Integrity;
use crate::iter::{ShardMergeIterator, UserIterator};
use crate::statistics::{Statistics, StatsSnapshot};
use crate::types::ValueType;
use crate::version::filenames::{parse_file_name, wal_file_name, FileType};
use crate::wal::{create_wal_writer, open_wal_tailer, LogWriter, TailPoll};

/// The `schema` field of [`ShardedDb::metrics_json`].
pub const SHARDED_METRICS_SCHEMA: &str = "shield_sharded_metrics_v1";

/// Name of the sharding manifest in the parent directory.
const SHARDING_FILE: &str = "SHARDING";

/// Routes user keys to shards. Cheap, lock-free, and identical across
/// reopens (validated against the `SHARDING` manifest).
struct Router {
    shards: usize,
    by: ShardBy,
}

fn fnv1a64(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Router {
    fn shard_of(&self, key: &[u8]) -> usize {
        match &self.by {
            ShardBy::Hash => (fnv1a64(key) % self.shards as u64) as usize,
            ShardBy::Range(bounds) => bounds.partition_point(|b| b.as_slice() <= key),
        }
    }
}

/// Per-shard apply-ordering gate. Tickets are issued under the commit
/// lock (so ticket order on every gate is consistent with one global
/// commit order) and served strictly in order; `serving == next` means
/// every committed batch has been applied to this shard's memtable.
struct Gate {
    mu: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    next: u64,
    serving: u64,
}

impl Gate {
    fn new() -> Gate {
        Gate { mu: Mutex::new(GateState::default()), cv: Condvar::new() }
    }

    /// Takes the next ticket. Caller must hold the commit lock.
    fn issue(&self) -> u64 {
        let mut g = self.mu.lock();
        let t = g.next;
        g.next += 1;
        t
    }

    /// Blocks until ticket `t` is at the front.
    fn wait_turn(&self, t: u64) {
        let mut g = self.mu.lock();
        while g.serving != t {
            self.cv.wait(&mut g);
        }
    }

    /// Retires the front ticket.
    fn done(&self) {
        let mut g = self.mu.lock();
        g.serving += 1;
        self.cv.notify_all();
    }

    /// The watermark below which all tickets are issued (commit lock
    /// must be held for this to be a consistent cut across gates).
    fn watermark(&self) -> u64 {
        self.mu.lock().next
    }

    /// Blocks until every ticket below `mark` has been applied.
    fn wait_applied(&self, mark: u64) {
        let mut g = self.mu.lock();
        while g.serving < mark {
            self.cv.wait(&mut g);
        }
    }
}

/// The shared WAL file state, behind its own lock so the flush barrier
/// (called from pool workers mid-flush) can sync without taking the
/// commit lock — writers stalled on a flush must never deadlock it.
struct SwalFile {
    state: Mutex<Option<SwalState>>,
}

struct SwalState {
    writer: LogWriter,
    /// Live segment numbers, active segment last.
    segments: Vec<u64>,
    next_number: u64,
}

impl SwalFile {
    /// Syncs the active segment (the [`Options::flush_barrier`] hook).
    fn sync(&self, stats: &Statistics) -> Result<()> {
        let mut s = self.state.lock();
        if let Some(s) = s.as_mut() {
            s.writer.sync()?;
            stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// A range- or hash-sharded multi-LSM database: N shards behind the
/// existing `Db`-shaped API. See the module docs for the architecture.
///
/// Open with [`Options::with_shards`] / [`Options::with_shard_ranges`]:
///
/// ```ignore
/// let db = ShardedDb::open(Options::new(env).with_shards(4), "db")?;
/// db.put(&WriteOptions::default(), b"k", b"v")?;
/// let all = db.scan(&ReadOptions::new(), b"", usize::MAX)?;
/// ```
pub struct ShardedDb {
    shards: Vec<Db>,
    router: Router,
    gates: Vec<Gate>,
    /// Serializes SWAL append + ticket issuance (the global commit
    /// order), and is held by consistent-cut readers while they drain
    /// the gates. The SWAL *file* has its own lock inside [`SwalFile`].
    commit_mu: Mutex<()>,
    swal: Arc<SwalFile>,
    /// Bytes appended to the active segment (rotation trigger).
    active_bytes: AtomicU64,
    /// Serializes checkpoints; [`ShardedDb::flush`] takes it blocking,
    /// the write-path rotation trigger with `try_lock`.
    ckpt_mu: Mutex<()>,
    /// Router-level tickers: `wal_bytes`/`wal_syncs` for the SWAL,
    /// `write_groups` for top-level batches, integrity tallies from
    /// replay. Shard-level work lives in each shard's own statistics.
    stats: Arc<Statistics>,
    /// What [`create_wal_writer`] needs to start a SWAL segment after
    /// open.
    encryption: Option<EncryptionConfig>,
    integrity: Integrity,
    integrity_key: [u8; 32],
    env: Arc<dyn Env>,
    path: String,
    pool: Arc<JobPool>,
    sync_writes: bool,
    rotate_bytes: u64,
    crash_on_drop: bool,
}

impl ShardedDb {
    /// Opens (creating or recovering) a sharded database at `path`.
    ///
    /// `opts.shards` / `opts.shard_by` fix the layout at creation; a
    /// reopen with a different layout is refused (the `SHARDING`
    /// manifest records the original). All other options apply to every
    /// shard, except: per-shard WALs are disabled (the SWAL subsumes
    /// them), the block cache and job pool are built once and shared,
    /// and each shard gets its own [`Statistics`].
    pub fn open(opts: Options, path: &str) -> Result<ShardedDb> {
        let n = opts.shards.max(1);
        if let ShardBy::Range(bounds) = &opts.shard_by {
            if bounds.len() + 1 != n {
                return Err(Error::InvalidArgument(format!(
                    "{} range boundaries define {} shards, but shards={n}",
                    bounds.len(),
                    bounds.len() + 1
                )));
            }
            if !bounds.windows(2).all(|w| w[0] < w[1]) {
                return Err(Error::InvalidArgument(
                    "shard range boundaries must be strictly increasing".into(),
                ));
            }
        }
        let env = opts.env.clone();
        env.create_dir_all(path)?;
        check_or_write_manifest(env.as_ref(), path, n, &opts.shard_by)?;

        let pool = opts
            .job_pool
            .clone()
            .unwrap_or_else(|| JobPool::new(opts.max_background_jobs));
        let cache = match &opts.shared_block_cache {
            Some(c) => Some(c.clone()),
            None if opts.block_cache_bytes > 0 => Some(BlockCache::with_config(CacheConfig {
                capacity: opts.block_cache_bytes,
                strict_capacity: opts.block_cache_strict_capacity,
                high_pri_pool_ratio: opts.high_pri_pool_ratio,
                ..CacheConfig::default()
            })?),
            None => None,
        };
        let stats = opts.statistics.clone();
        let swal = Arc::new(SwalFile { state: Mutex::new(None) });
        let barrier: Arc<dyn Fn() -> Result<()> + Send + Sync> = {
            let swal = swal.clone();
            let stats = stats.clone();
            Arc::new(move || swal.sync(&stats))
        };

        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let mut so = opts.clone();
            so.shards = 1;
            so.statistics = Statistics::new();
            so.job_pool = Some(pool.clone());
            so.shared_block_cache = cache.clone();
            // The SWAL is the only WAL: shards skip their own appends but
            // may not flush an SST past an unsynced SWAL record.
            so.disable_wal = true;
            so.flush_barrier = if opts.disable_wal { None } else { Some(barrier.clone()) };
            let shard_path = shield_env::join_path(path, &format!("shard-{i}"));
            shards.push(Db::open(so, &shard_path)?);
        }

        let db = ShardedDb {
            shards,
            router: Router { shards: n, by: opts.shard_by.clone() },
            gates: (0..n).map(|_| Gate::new()).collect(),
            commit_mu: Mutex::new(()),
            swal,
            active_bytes: AtomicU64::new(0),
            ckpt_mu: Mutex::new(()),
            stats,
            encryption: opts.encryption.clone(),
            integrity: opts.integrity,
            integrity_key: opts.integrity_key,
            env: env.clone(),
            path: path.to_string(),
            pool,
            sync_writes: opts.wal_sync_writes,
            rotate_bytes: opts.swal_rotate_bytes.max(1) as u64,
            crash_on_drop: false,
        };

        if !opts.disable_wal {
            let segments = db.replay_swal()?;
            let next = segments.iter().copied().max().unwrap_or(0) + 1;
            let writer = db.new_swal_writer(next)?;
            let mut live = segments;
            live.push(next);
            *db.swal.state.lock() =
                Some(SwalState { writer, segments: live, next_number: next + 1 });
        }
        Ok(db)
    }

    /// Creates a writer for a fresh SWAL segment. Old segments are never
    /// reopened for append (truncation semantics) — always a new file.
    fn new_swal_writer(&self, number: u64) -> Result<LogWriter> {
        create_wal_writer(
            self.env.as_ref(),
            &shield_env::join_path(&self.path, &wal_file_name(number)),
            self.encryption.as_ref(),
            self.integrity,
            self.integrity_key,
        )
    }

    /// Replays every retained SWAL segment in number order. Record
    /// framing yields only complete records, so a batch torn by a crash
    /// is dropped whole — cross-shard atomicity on recovery. Reapplying
    /// batches already flushed into shard SSTs is idempotent (same
    /// contents at higher sequences). Returns the segment numbers seen.
    fn replay_swal(&self) -> Result<Vec<u64>> {
        let names = self.env.list_dir(&self.path)?;
        let mut segments: Vec<u64> = names
            .iter()
            .filter_map(|f| match parse_file_name(f) {
                Some(FileType::Wal(num)) => Some(num),
                _ => None,
            })
            .collect();
        segments.sort_unstable();
        for &number in &segments {
            let mut tailer = open_wal_tailer(
                self.env.as_ref(),
                &shield_env::join_path(&self.path, &wal_file_name(number)),
                self.encryption.as_ref(),
                self.integrity_key,
            )?
            .with_sinks(number, Some(self.stats.clone()), None);
            // A segment of a closed database cannot grow: `Pending` is
            // the crash aftermath and ends the replay.
            while let TailPoll::Record(record) = tailer.poll()? {
                let batch = WriteBatch::from_data(&record)?;
                // Open is single-threaded: apply directly, no tickets.
                for (shard, part) in self.split(&batch)? {
                    self.shards[shard].write(&WriteOptions { sync: false }, part)?;
                }
            }
            tailer.assume_legacy();
            if self.integrity == Integrity::Hmac && tailer.is_legacy() {
                self.stats.integrity_unprotected_files.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(segments)
    }

    /// Splits `batch` into per-shard sub-batches, ascending shard index,
    /// preserving intra-shard operation order.
    fn split(&self, batch: &WriteBatch) -> Result<Vec<(usize, WriteBatch)>> {
        let mut parts: Vec<Option<WriteBatch>> = (0..self.shards.len()).map(|_| None).collect();
        batch.for_each(|_seq, vtype, key, value| {
            let part = parts[self.router.shard_of(key)].get_or_insert_with(WriteBatch::new);
            match vtype {
                ValueType::Value => part.put(key, value),
                ValueType::Deletion => part.delete(key),
            }
        })?;
        Ok(parts
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .collect())
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

    /// Applies a batch atomically, even across shard boundaries: the
    /// whole batch is one SWAL record (all-or-nothing on replay), and
    /// per-shard tickets issued under the commit lock keep every shard's
    /// apply order equal to the SWAL order.
    pub fn write(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let parts = self.split(&batch)?;
        let sync = wopts.sync || self.sync_writes;
        let mut tickets = Vec::with_capacity(parts.len());
        {
            let _commit = self.commit_mu.lock();
            {
                let mut swal = self.swal.state.lock();
                if let Some(s) = swal.as_mut() {
                    s.writer.add_record(batch.data())?;
                    s.writer.flush()?;
                    if sync {
                        s.writer.sync()?;
                        self.stats.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    self.stats
                        .wal_bytes
                        .fetch_add(batch.data().len() as u64, Ordering::Relaxed);
                    self.active_bytes.fetch_add(batch.data().len() as u64, Ordering::Relaxed);
                }
            }
            self.stats.write_groups.fetch_add(1, Ordering::Relaxed);
            for (shard, _) in &parts {
                tickets.push(self.gates[*shard].issue());
            }
        }
        // Apply in ascending shard index. Tickets across writers share
        // one global order, so ordered waiting cannot deadlock.
        let mut result = Ok(());
        for ((shard, part), ticket) in parts.into_iter().zip(tickets) {
            self.gates[shard].wait_turn(ticket);
            let r = self.shards[shard].write(&WriteOptions { sync: false }, part);
            self.gates[shard].done();
            if result.is_ok() {
                result = r;
            }
        }
        if result.is_ok() && self.active_bytes.load(Ordering::Relaxed) >= self.rotate_bytes {
            // Amortized SWAL GC; skip if another writer is already at it.
            if let Some(_g) = self.ckpt_mu.try_lock() {
                self.checkpoint()?;
            }
        }
        result
    }

    /// Point lookup, routed to the owning shard. For snapshot reads use
    /// [`ShardedDb::get_at`] — a single global `snapshot_seq` cannot
    /// address N independent sequence spaces.
    pub fn get(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if ropts.snapshot_seq.is_some() {
            return Err(Error::InvalidArgument(
                "sharded snapshot reads go through ShardedSnapshot (get_at)".into(),
            ));
        }
        self.shards[self.router.shard_of(key)].get(ropts, key)
    }

    /// Point lookup pinned to a [`ShardedSnapshot`].
    pub fn get_at(&self, snap: &ShardedSnapshot, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let shard = self.router.shard_of(key);
        self.shards[shard].get(&snap.snaps[shard].read_options(), key)
    }

    /// Batched point lookup: one result slot per key, routed per shard
    /// with each group resolved through that shard's batched read path.
    pub fn multi_get(&self, ropts: &ReadOptions, keys: &[&[u8]]) -> Vec<Result<Option<Vec<u8>>>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            groups[self.router.shard_of(key)].push(i);
        }
        let mut out: Vec<Option<Result<Option<Vec<u8>>>>> =
            (0..keys.len()).map(|_| None).collect();
        for (shard, idxs) in groups.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let shard_keys: Vec<&[u8]> = idxs.iter().map(|&i| keys[i]).collect();
            let results = self.shards[shard].multi_get(ropts, &shard_keys);
            for (&slot, r) in idxs.iter().zip(results) {
                out[slot] = Some(r);
            }
        }
        out.into_iter().map(|slot| slot.unwrap_or(Ok(None))).collect()
    }

    /// A consistent point-in-time view across every shard: taken with
    /// the commit lock held and all gates drained, so each committed
    /// batch is either visible in full (on every shard it touched) or
    /// not at all.
    #[must_use]
    pub fn snapshot(&self) -> ShardedSnapshot {
        let _commit = self.commit_mu.lock();
        for g in &self.gates {
            let mark = g.watermark();
            g.wait_applied(mark);
        }
        ShardedSnapshot { snaps: self.shards.iter().map(Db::snapshot).collect() }
    }

    /// A merged iterator over all shards at a fresh consistent cut,
    /// yielding keys in byte order exactly like a single database.
    pub fn iter(&self, ropts: &ReadOptions) -> Result<ShardedDbIterator> {
        if ropts.snapshot_seq.is_some() {
            return Err(Error::InvalidArgument(
                "sharded snapshot scans go through ShardedSnapshot (iter_at)".into(),
            ));
        }
        let children = {
            let _commit = self.commit_mu.lock();
            for g in &self.gates {
                let mark = g.watermark();
                g.wait_applied(mark);
            }
            self.shards.iter().map(|s| s.iter(ropts)).collect::<Result<Vec<_>>>()?
        };
        Ok(ShardedDbIterator { merge: ShardMergeIterator::new(children) })
    }

    /// A merged iterator pinned to `snap`.
    pub fn iter_at(&self, snap: &ShardedSnapshot) -> Result<ShardedDbIterator> {
        let children = self
            .shards
            .iter()
            .zip(&snap.snaps)
            .map(|(s, sn)| s.iter(&sn.read_options()))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedDbIterator { merge: ShardMergeIterator::new(children) })
    }

    /// Range scan: up to `limit` live `(key, value)` pairs with
    /// `key >= start`, in byte order across all shards.
    pub fn scan(
        &self,
        ropts: &ReadOptions,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter(ropts)?;
        Self::drain_scan(&mut it, start, limit)
    }

    /// Range scan pinned to `snap`.
    pub fn scan_at(
        &self,
        snap: &ShardedSnapshot,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter_at(snap)?;
        Self::drain_scan(&mut it, start, limit)
    }

    fn drain_scan(
        it: &mut ShardedDbIterator,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        it.seek(start);
        let mut out = Vec::with_capacity(limit.min(1024));
        while it.valid() && out.len() < limit {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status()?;
        Ok(out)
    }

    /// Checkpoint: rotates the SWAL, flushes every shard, and deletes
    /// segments no longer needed for recovery. Blocks until done.
    pub fn flush(&self) -> Result<()> {
        let _g = self.ckpt_mu.lock();
        self.checkpoint()
    }

    /// Caller holds `ckpt_mu`. Safety argument for segment deletion: a
    /// batch in an old segment has a ticket below the rotation-time
    /// watermark of every shard it touched, `wait_applied` proves it
    /// reached those memtables, and the flush below persists it.
    /// Anything newer lives in the segment that survives.
    fn checkpoint(&self) -> Result<()> {
        let rotated = {
            let _commit = self.commit_mu.lock();
            // Sync before switching, so torn tails only ever exist in
            // the newest segment; then retire the old segment list.
            let prep = {
                let mut swal = self.swal.state.lock();
                match swal.as_mut() {
                    Some(s) => {
                        s.writer.sync()?;
                        let number = s.next_number;
                        s.next_number += 1;
                        let old = std::mem::take(&mut s.segments);
                        s.segments = vec![number];
                        Some((number, old))
                    }
                    None => None,
                }
            };
            // Commit lock still held: no writer can slip a record into
            // the old segment between the sync above and the swap below
            // (on writer-creation failure the old segments merely leak
            // until the next checkpoint; recovery lists the directory,
            // not this in-memory set, so durability is unaffected).
            match prep {
                Some((number, old)) => {
                    let marks: Vec<u64> = self.gates.iter().map(Gate::watermark).collect();
                    let writer = self.new_swal_writer(number)?;
                    if let Some(s) = self.swal.state.lock().as_mut() {
                        s.writer = writer;
                    }
                    self.active_bytes.store(0, Ordering::Relaxed);
                    Some((old, marks))
                }
                None => None,
            }
        };
        let Some((old, marks)) = rotated else {
            // WAL disabled: a checkpoint is just a flush-all.
            for shard in &self.shards {
                shard.flush()?;
            }
            return Ok(());
        };
        for (gate, mark) in self.gates.iter().zip(marks) {
            gate.wait_applied(mark);
        }
        for shard in &self.shards {
            shard.flush()?;
        }
        for number in old {
            let p = shield_env::join_path(&self.path, &wal_file_name(number));
            let _ = self.env.remove_file(&p);
        }
        Ok(())
    }

    /// Blocks until no shard has flush or compaction work pending.
    pub fn wait_for_background_work(&self) -> Result<()> {
        for shard in &self.shards {
            shard.wait_for_background_work()?;
        }
        Ok(())
    }

    /// Checkpoints, then compacts every shard until no work remains.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        for shard in &self.shards {
            shard.compact_all()?;
        }
        Ok(())
    }

    /// The first sticky background error on any shard, if any.
    #[must_use]
    pub fn background_error(&self) -> Option<Error> {
        self.shards.iter().find_map(Db::background_error)
    }

    /// Clears recoverable background errors and re-drives pending work
    /// on every shard.
    pub fn resume(&self) -> Result<()> {
        for shard in &self.shards {
            shard.resume()?;
        }
        Ok(())
    }

    /// Walks every shard's live SSTs, verifying every block. Totals are
    /// summed across shards.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let mut total = IntegrityReport::default();
        for shard in &self.shards {
            let r = shard.verify_integrity()?;
            total.files += r.files;
            total.entries += r.entries;
            total.bytes += r.bytes;
        }
        Ok(total)
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (tests, per-shard metrics).
    #[must_use]
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    /// The shared background pool all shards schedule on.
    #[must_use]
    pub fn job_pool(&self) -> &Arc<JobPool> {
        &self.pool
    }

    /// Router-level tickers: SWAL bytes/syncs, top-level write groups.
    #[must_use]
    pub fn statistics(&self) -> Arc<Statistics> {
        self.stats.clone()
    }

    /// Parent directory path.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Aggregate metrics across all shards, in the same
    /// [`MetricsReport`] shape a single database produces. Per-database
    /// counters sum; mirrors of the shared cache/env/resolver take the
    /// max (every shard mirrors the same source); `wal_*` and
    /// `write_groups` come from the router (shard WALs are disabled);
    /// read amplification is the worst shard's (a point lookup touches
    /// exactly one shard); latency histograms are bucket-merged.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        self.aggregate_report(&self.shard_reports())
    }

    /// The `shield_sharded_metrics_v1` JSON document: the aggregate
    /// report plus every shard's full `shield_metrics_v1` report.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let reports = self.shard_reports();
        let agg = self.aggregate_report(&reports);
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", SHARDED_METRICS_SCHEMA);
        j.field_u64("shard_count", self.shards.len() as u64);
        j.field_str(
            "shard_by",
            match self.router.by {
                ShardBy::Hash => "hash",
                ShardBy::Range(_) => "range",
            },
        );
        j.field_raw("aggregate", &agg.to_json());
        j.open_arr("shards");
        for (i, r) in reports.iter().enumerate() {
            j.open_obj_item();
            j.field_u64("shard", i as u64);
            j.field_raw("metrics", &r.to_json());
            j.close_obj();
        }
        j.close_arr();
        j.close_obj();
        j.finish()
    }

    /// One JSON document bundling every shard's debug bundle.
    #[must_use]
    pub fn debug_bundle(&self) -> String {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", "shield_sharded_debug_bundle_v1");
        j.field_u64("shard_count", self.shards.len() as u64);
        j.open_arr("shards");
        for (i, shard) in self.shards.iter().enumerate() {
            j.open_obj_item();
            j.field_u64("shard", i as u64);
            j.field_raw("bundle", &shard.debug_bundle());
            j.close_obj();
        }
        j.close_arr();
        j.close_obj();
        j.finish()
    }

    fn shard_reports(&self) -> Vec<MetricsReport> {
        self.shards.iter().map(Db::metrics_report).collect()
    }

    fn aggregate_report(&self, reports: &[MetricsReport]) -> MetricsReport {
        let mut levels: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
        levels.insert(0, (0, 0));
        for r in reports {
            for l in &r.levels {
                let e = levels.entry(l.level).or_insert((0, 0));
                e.0 += l.files;
                e.1 += l.bytes;
            }
        }
        let mut tickers = StatsSnapshot::default();
        for r in reports {
            tickers = tickers.merged_with(&r.tickers);
        }
        let router = self.stats.snapshot();
        tickers.wal_bytes = router.wal_bytes;
        tickers.wal_syncs = router.wal_syncs;
        tickers.write_groups = router.write_groups;
        tickers.integrity_checks += router.integrity_checks;
        tickers.integrity_failures += router.integrity_failures;
        // Legacy-file counts are per-shard (not a shared mirror): sum.
        tickers.integrity_unprotected_files =
            reports.iter().map(|r| r.tickers.integrity_unprotected_files).sum();
        let bytes_to_storage = tickers.flush_bytes + tickers.compaction_bytes_written;
        MetricsReport {
            levels: levels
                .into_iter()
                .map(|(level, (files, bytes))| LevelStats { level, files, bytes })
                .collect(),
            write_amplification: bytes_to_storage as f64 / tickers.wal_bytes.max(1) as f64,
            read_amplification: reports.iter().map(|r| r.read_amplification).max().unwrap_or(0),
            latencies: self.merged_latencies(),
            tickers,
            windows: Vec::new(),
        }
    }

    fn merged_latencies(&self) -> Vec<(&'static str, HistogramSummary)> {
        let mut merged: Vec<(&'static str, Histogram)> =
            OP_TYPES.iter().map(|op| (*op, Histogram::new())).collect();
        for shard in &self.shards {
            let h = shard.op_histograms();
            let snaps = [
                h.get.snapshot(),
                h.multi_get.snapshot(),
                h.put.snapshot(),
                h.write_batch.snapshot(),
                h.iter_next.snapshot(),
                h.flush.snapshot(),
                h.compaction.snapshot(),
                h.subcompaction.snapshot(),
            ];
            for ((_, agg), s) in merged.iter_mut().zip(&snaps) {
                agg.merge(s);
            }
        }
        merged.into_iter().map(|(op, h)| (op, h.summary())).collect()
    }

    /// Drops the handle *without* the clean-shutdown SWAL sync: anything
    /// not yet synced is lost, exactly like a real process crash. The
    /// recovery test suite opens the directory again and checks the
    /// all-or-nothing replay guarantee.
    pub fn simulate_process_crash(mut self) {
        self.crash_on_drop = true;
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        if !self.crash_on_drop {
            let mut swal = self.swal.state.lock();
            if let Some(s) = swal.as_mut() {
                let _ = s.writer.sync();
            }
        }
        // Shards drain their own background jobs on drop; memtable
        // contents are recovered from the SWAL on reopen.
        for shard in self.shards.drain(..) {
            if self.crash_on_drop {
                shard.simulate_process_crash();
            } else {
                drop(shard);
            }
        }
    }
}

/// A consistent cross-shard point-in-time view: one pinned [`Snapshot`]
/// per shard, all taken at a gate-drained cut so no cross-shard batch is
/// half-visible. Read through [`ShardedDb::get_at`] /
/// [`ShardedDb::scan_at`] / [`ShardedDb::iter_at`].
pub struct ShardedSnapshot {
    snaps: Vec<Snapshot>,
}

impl ShardedSnapshot {
    /// Per-shard sequence horizons, in shard order.
    #[must_use]
    pub fn sequences(&self) -> Vec<u64> {
        self.snaps.iter().map(Snapshot::sequence).collect()
    }
}

/// A merged scan over every shard, sorted by user key — behaviorally
/// identical to a single database's [`DbIterator`].
pub struct ShardedDbIterator {
    merge: ShardMergeIterator<DbIterator>,
}

impl ShardedDbIterator {
    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        UserIterator::valid(&self.merge)
    }

    /// Current user key. Requires `valid()`.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        UserIterator::key(&self.merge)
    }

    /// Current value. Requires `valid()`.
    #[must_use]
    pub fn value(&self) -> &[u8] {
        UserIterator::value(&self.merge)
    }

    /// Positions on the first live key.
    pub fn seek_to_first(&mut self) {
        UserIterator::seek_to_first(&mut self.merge);
    }

    /// Positions on the first live key >= `user_key`.
    pub fn seek(&mut self, user_key: &[u8]) {
        UserIterator::seek(&mut self.merge, user_key);
    }

    /// Advances to the next live key.
    pub fn next(&mut self) {
        UserIterator::next(&mut self.merge);
    }

    /// First error any shard's iterator hit.
    pub fn status(&self) -> Result<()> {
        UserIterator::status(&self.merge)
    }
}

/// Validates (or creates) the `SHARDING` manifest: shard count and
/// routing policy are fixed at creation, and a reopen with different
/// options is an error rather than silent misrouting.
fn check_or_write_manifest(env: &dyn Env, path: &str, shards: usize, by: &ShardBy) -> Result<()> {
    let p = shield_env::join_path(path, SHARDING_FILE);
    let expected = render_manifest(shards, by);
    if env.file_exists(&p) {
        let bytes = shield_env::read_file_to_vec(env, &p, FileKind::Other)?;
        if bytes != expected.as_bytes() {
            return Err(Error::InvalidArgument(format!(
                "sharding layout mismatch at {path}: on-disk {:?} vs requested {:?}",
                String::from_utf8_lossy(&bytes),
                expected
            )));
        }
        return Ok(());
    }
    let mut f = env.new_writable_file(&p, FileKind::Other)?;
    f.append(expected.as_bytes())?;
    f.flush()?;
    f.sync()?;
    Ok(())
}

fn render_manifest(shards: usize, by: &ShardBy) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("shield-sharding-v1\n");
    let _ = writeln!(out, "shards={shards}");
    match by {
        ShardBy::Hash => {
            let _ = writeln!(out, "shard_by=hash");
        }
        ShardBy::Range(bounds) => {
            let _ = writeln!(out, "shard_by=range");
            for b in bounds {
                let mut hex = String::with_capacity(b.len() * 2);
                for byte in b {
                    let _ = write!(hex, "{byte:02x}");
                }
                let _ = writeln!(out, "boundary={hex}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::MemEnv;

    fn w() -> WriteOptions {
        WriteOptions::default()
    }

    fn r() -> ReadOptions {
        ReadOptions::new()
    }

    fn open_n(env: &MemEnv, shards: usize) -> ShardedDb {
        ShardedDb::open(Options::new(Arc::new(env.clone())).with_shards(shards), "sdb").unwrap()
    }

    #[test]
    fn router_hash_covers_all_shards() {
        let router = Router { shards: 4, by: ShardBy::Hash };
        let mut seen = [false; 4];
        for i in 0..256u32 {
            seen[router.shard_of(format!("key-{i}").as_bytes())] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn router_range_boundaries() {
        let router = Router {
            shards: 3,
            by: ShardBy::Range(vec![b"g".to_vec(), b"p".to_vec()]),
        };
        assert_eq!(router.shard_of(b"a"), 0);
        assert_eq!(router.shard_of(b"f"), 0);
        assert_eq!(router.shard_of(b"g"), 1);
        assert_eq!(router.shard_of(b"o"), 1);
        assert_eq!(router.shard_of(b"p"), 2);
        assert_eq!(router.shard_of(b"zz"), 2);
        assert_eq!(router.shard_of(b""), 0);
    }

    #[test]
    fn basic_put_get_scan_across_shards() {
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
        let keys: Vec<Vec<u8>> = all.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged scan must be globally sorted");
    }

    #[test]
    fn cross_shard_batch_is_atomic_in_snapshot() {
        let env = MemEnv::new();
        let db = open_n(&env, 4);
        let mut batch = WriteBatch::new();
        for i in 0..32u32 {
            batch.put(format!("b{i}").as_bytes(), b"x");
        }
        db.write(&w(), batch).unwrap();
        let snap = db.snapshot();
        for i in 0..32u32 {
            assert_eq!(db.get_at(&snap, format!("b{i}").as_bytes()).unwrap(), Some(b"x".to_vec()));
        }
    }

    #[test]
    fn reopen_recovers_unflushed_writes_from_swal() {
        let env = MemEnv::new();
        {
            let db = open_n(&env, 2);
            for i in 0..50u32 {
                db.put(&w(), format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            // Clean drop: SWAL synced, shard memtables discarded.
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
        let err = ShardedDb::open(Options::new(Arc::new(env.clone())).with_shards(4), "sdb")
            .map(|_| ())
            .expect_err("layout mismatch must be refused");
        assert!(matches!(err, Error::InvalidArgument(_)), "got {err:?}");
        let err = ShardedDb::open(
            Options::new(Arc::new(env.clone())).with_shard_ranges(vec![b"m".to_vec()]),
            "sdb",
        )
        .map(|_| ())
        .expect_err("routing-policy mismatch must be refused");
        assert!(matches!(err, Error::InvalidArgument(_)), "got {err:?}");
        // The original layout still opens.
        drop(open_n(&env, 2));
    }

    #[test]
    fn range_boundaries_must_increase() {
        let env = MemEnv::new();
        let err = ShardedDb::open(
            Options::new(Arc::new(env.clone()))
                .with_shard_ranges(vec![b"m".to_vec(), b"b".to_vec()]),
            "sdb",
        );
        assert!(matches!(err, Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn checkpoint_gcs_swal_segments() {
        let env = MemEnv::new();
        let mut opts = Options::new(Arc::new(env.clone())).with_shards(2);
        opts.swal_rotate_bytes = 1 << 30; // no auto-rotation
        let db = ShardedDb::open(opts, "sdb").unwrap();
        for i in 0..200u32 {
            db.put(&w(), format!("k{i}").as_bytes(), &[0u8; 64]).unwrap();
        }
        let before: usize = count_wals(&env);
        db.flush().unwrap();
        let after: usize = count_wals(&env);
        assert!(after <= before, "checkpoint must not grow segment count");
        assert_eq!(after, 1, "only the fresh active segment survives");
        // Data still fully readable after GC + reopen.
        drop(db);
        let db = open_n(&env, 2);
        assert_eq!(db.scan(&r(), b"", usize::MAX).unwrap().len(), 200);
    }

    fn count_wals(env: &MemEnv) -> usize {
        env.list_dir("sdb")
            .unwrap()
            .iter()
            .filter(|f| matches!(parse_file_name(f), Some(FileType::Wal(_))))
            .count()
    }

    #[test]
    fn sharded_metrics_json_shape() {
        let env = MemEnv::new();
        let db = open_n(&env, 2);
        db.put(&w(), b"k", b"v").unwrap();
        let json = db.metrics_json();
        for key in
            ["\"schema\":\"shield_sharded_metrics_v1\"", "\"shard_count\":2", "\"shard_by\":\"hash\"", "\"aggregate\":{", "\"shards\":["]
        {
            assert!(json.contains(key), "missing {key}");
        }
        let report = db.metrics_report();
        assert!(report.tickers.wal_bytes > 0, "router owns wal_bytes");
        assert_eq!(report.tickers.writes, 1, "shard writes aggregate");
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
    }
}
