//! Live read replicas: a [`ReplicaDb`] tails a primary's manifest and WAL
//! through the incremental replay engine and serves snapshot-consistent
//! reads with a reportable staleness bound.
//!
//! The replica owns nothing on disk. It opens the primary's directory
//! through any [`shield_env::Env`] (a `MemEnv` for tests, `PosixEnv` for a shared
//! mount, [`shield_env::RemoteEnv`] for the paper's disaggregated-storage
//! topology) and runs a catch-up loop built entirely from the replay
//! engine's parts:
//!
//! * a [`ManifestTailer`] + [`EditApplier`] follow the CURRENT → MANIFEST
//!   chain, surviving torn tail edits (retried from the held offset) and
//!   MANIFEST rollovers (reset + snapshot re-apply);
//! * one [`WalTailer`] per live WAL segment replays committed batches into
//!   a private [`MemTable`], holding byte/fragment position across polls so
//!   a record torn mid-append is picked up once the primary finishes it.
//!
//! In SHIELD mode every file's DEK is resolved by DEK-ID through the
//! replica's **own** resolver (its [`FileStore`]) — the paper's
//! metadata-enabled sharing path: the primary never ships key material,
//! and revoking the replica's KDS authorization locks it out.
//!
//! ## Consistency model
//!
//! Reads serve a **prefix of the primary's committed history**. Each
//! catch-up round publishes an immutable [`ReadView`] — the same read
//! path the primary runs; `get`/`multi_get`/`scan` read one view, so a
//! single operation never mixes rounds. The published `seq` only covers
//! records the replica actually holds with no gaps: WAL segments are credited in file order
//! and crediting stops at the first segment whose tail was torn or
//! unreadable, so a hole in segment *N* hides everything replayed from
//! segment *N + 1* (entries above `seq` exist in the memtables but are
//! sequence-filtered). The manifest's `last_sequence` is credited only
//! when every live segment drained to a clean boundary — it counts
//! records that may still sit in the primary's (unsynced) WAL buffer,
//! which no replica can serve.
//!
//! Staleness is the gap between that served sequence and the highest
//! sequence the replica has *observed* (WAL records parsed plus the
//! manifest's high-water mark): [`ReplicaDb::staleness`]. With
//! [`ReplicaOptions::max_staleness`] set, reads fail once the gap exceeds
//! the bound instead of silently serving stale data.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use shield_env::{EnvError, FileKind};

use crate::db::batch::WriteBatch;
use crate::db::metrics::{MetricsReport, ReplicaProgress, TreeMetrics};
use crate::db::read::{credit_gets, DbIterator, ReadView};
use crate::error::{Error, Result};
use crate::files::FileStore;
use crate::memtable::MemTable;
use crate::statistics::Statistics;
use crate::types::SequenceNumber;
use crate::version::table_cache::TableCache;
use crate::version::version::Version;
use crate::version::{
    parse_file_name, wal_file_name, EditApplier, FileType, ManifestPoll, ManifestTailer,
};
use crate::wal::{TailEnd, TailPoll, WalTailer};

/// Tuning for a [`ReplicaDb`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// How often the background poller runs a catch-up round.
    pub poll_interval: Duration,
    /// Reads fail with [`Error::InvalidArgument`] once
    /// [`ReplicaDb::staleness`] exceeds this many records. `None` serves
    /// regardless of lag.
    pub max_staleness: Option<u64>,
    /// Start the background poll thread at open. Tests that want
    /// deterministic rounds set this to `false` and call
    /// [`ReplicaDb::catch_up`] themselves.
    pub auto_poll: bool,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            poll_interval: Duration::from_millis(10),
            max_staleness: None,
            auto_poll: true,
        }
    }
}

/// One live WAL segment being tailed, with the private memtable its
/// replayed batches land in.
struct WalSegment {
    number: u64,
    /// `None` until the file opens; a segment listed in the directory can
    /// race with primary-side deletion, so open failures stay transient.
    tailer: Option<WalTailer>,
    mem: Arc<MemTable>,
    /// Highest sequence replayed from this segment.
    max_seq: SequenceNumber,
    /// Whether the last drain ended at a clean record boundary. A torn
    /// (or unreadable) segment caps the served prefix at its `max_seq`.
    clean: bool,
}

/// Tailing state mutated by catch-up rounds, under one lock.
struct TailState {
    manifest: ManifestTailer,
    applier: EditApplier,
    /// Live segments in ascending WAL-number order.
    wals: Vec<WalSegment>,
    version_dirty: bool,
}

/// A live read replica over a primary's database directory.
///
/// See the [module docs](self) for the consistency model. Obtain one with
/// [`ReplicaDb::open`]; reads are [`ReplicaDb::get`],
/// [`ReplicaDb::multi_get`] and [`ReplicaDb::scan`].
pub struct ReplicaDb {
    /// The primary's files under this replica's own identity;
    /// `files.stats` are the replica's tickers.
    files: FileStore,
    path: String,
    opts: ReplicaOptions,
    table_cache: Arc<TableCache>,
    tail: Mutex<TailState>,
    /// The view reads run against, replaced whole by each catch-up round.
    view: RwLock<Arc<ReadView>>,
    /// Mirror of the published view's sequence, for lock-free staleness.
    published_seq: AtomicU64,
    /// Highest sequence observed anywhere (WAL records parsed, manifest
    /// high-water mark) — the other half of the staleness bound.
    last_seen_seq: AtomicU64,
    /// A corruption or integrity violation poisons the replica: replay
    /// cannot continue past tampered bytes, so reads surface it too.
    fatal: Mutex<Option<Error>>,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    poller: Mutex<Option<JoinHandle<()>>>,
}

impl ReplicaDb {
    /// Opens a replica over the database in `path`, reading it through
    /// `files` — this replica's env mount and DEK resolver, and the
    /// primary's integrity settings (the engine key verifies authenticated
    /// files that have no DEK; SHIELD files verify under their own DEK's
    /// subkey) — and runs the first catch-up round, so the returned
    /// replica already serves the primary's durable state.
    pub fn open(files: FileStore, path: &str, opts: ReplicaOptions) -> Result<Arc<Self>> {
        let table_cache = TableCache::new(files.clone(), path.to_string(), None, 128, 0);
        let manifest = ManifestTailer::open(&files, path)?;
        let replica = Arc::new(ReplicaDb {
            files,
            path: path.to_string(),
            opts,
            table_cache,
            tail: Mutex::new(TailState {
                manifest,
                applier: EditApplier::new(),
                wals: Vec::new(),
                version_dirty: true,
            }),
            view: RwLock::new(Arc::new(ReadView {
                mem: Arc::new(MemTable::new(0)),
                imm: Vec::new(),
                version: Arc::new(Version::new()),
                seq: 0,
            })),
            published_seq: AtomicU64::new(0),
            last_seen_seq: AtomicU64::new(0),
            fatal: Mutex::new(None),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            poller: Mutex::new(None),
        });
        replica.catch_up()?;
        if replica.opts.auto_poll {
            replica.start_polling();
        }
        Ok(replica)
    }

    /// Spawns the background poll thread (idempotent). The thread holds a
    /// weak reference: dropping the last external handle ends it at the
    /// next tick without an explicit [`ReplicaDb::stop`].
    pub fn start_polling(self: &Arc<Self>) {
        let mut slot = self.poller.lock();
        if slot.is_some() {
            return;
        }
        let weak = Arc::downgrade(self);
        let interval = self.opts.poll_interval;
        *slot = Some(std::thread::spawn(move || loop {
            let Some(db) = weak.upgrade() else { break };
            // Transient errors retry next tick; fatal ones are sticky in
            // `self.fatal` and surface on reads, so the loop just idles.
            let _ = db.catch_up();
            let mut stop = db.stop.lock();
            if !*stop {
                db.stop_cv.wait_for(&mut stop, interval);
            }
            let done = *stop;
            drop(stop);
            drop(db);
            if done {
                break;
            }
        }));
    }

    /// Stops the background poller and waits for it to exit. Reads keep
    /// serving the last published view. Must not be called from the
    /// poller thread itself.
    pub fn stop(&self) {
        *self.stop.lock() = true;
        self.stop_cv.notify_all();
        let handle = self.poller.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Runs one catch-up round: drain new manifest edits (following
    /// rollovers), open any newly referenced WAL segments, replay their
    /// new records, and publish a fresh read view.
    ///
    /// Returns `true` when every tail (manifest and WALs) ended at a
    /// clean record boundary — the replica holds everything the primary
    /// has durably published. `false` means something was torn or still
    /// in flight; position is held and the next round retries.
    pub fn catch_up(&self) -> Result<bool> {
        if let Some(err) = self.fatal.lock().clone() {
            return Err(err);
        }
        let mut tail = self.tail.lock();
        let mut clean = true;

        // 1. Manifest: fold new edits into the applier; a rollover resets
        // the file set for the new manifest's leading snapshot.
        loop {
            match tail.manifest.poll() {
                Ok(ManifestPoll::Edit(edit)) => {
                    tail.applier.apply(&edit);
                    tail.version_dirty = true;
                    self.files.stats.replica_manifest_edits_applied.fetch_add(1, Ordering::Relaxed);
                }
                Ok(ManifestPoll::Rollover) => {
                    tail.applier.reset();
                    tail.version_dirty = true;
                    self.files.stats.replica_rollovers_followed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(ManifestPoll::Pending(end)) => {
                    clean &= end == TailEnd::Clean;
                    break;
                }
                Err(err) => {
                    self.fail_or_retry(err)?;
                    clean = false;
                    break;
                }
            }
        }

        // 2. Retire segments fully covered by flushed SSTs: a flush edit
        // advancing `log_number` to N certifies every WAL below N is in
        // the version, so dropping those memtables loses nothing.
        let log_number = tail.applier.log_number();
        tail.wals.retain(|seg| seg.number >= log_number);

        // 3. Discover segments the primary created since the last round.
        match self.files.env.list_dir(&self.path) {
            Ok(names) => {
                let mut numbers: Vec<u64> = names
                    .iter()
                    .filter_map(|n| match parse_file_name(n) {
                        Some(FileType::Wal(num)) if num >= log_number => Some(num),
                        _ => None,
                    })
                    .collect();
                numbers.sort_unstable();
                for number in numbers {
                    if !tail.wals.iter().any(|seg| seg.number == number) {
                        tail.wals.push(WalSegment {
                            number,
                            tailer: None,
                            mem: Arc::new(MemTable::new(number)),
                            max_seq: 0,
                            clean: false,
                        });
                    }
                }
                tail.wals.sort_by_key(|seg| seg.number);
            }
            Err(_) => clean = false,
        }

        // 4. Drain every live segment in file order.
        for i in 0..tail.wals.len() {
            let seg = &mut tail.wals[i];
            if seg.tailer.is_none() {
                let wal_path = shield_env::join_path(&self.path, &wal_file_name(seg.number));
                match self.files.open_log(&wal_path, FileKind::Wal, seg.number) {
                    Ok(tailer) => seg.tailer = Some(tailer),
                    Err(err) => {
                        // A listed-then-deleted segment races with the
                        // primary's GC; corruption is final either way.
                        self.fail_or_retry(err)?;
                        seg.clean = false;
                        clean = false;
                        continue;
                    }
                }
            }
            let Some(tailer) = seg.tailer.as_mut() else { continue };
            loop {
                match tailer.poll() {
                    Ok(TailPoll::Record(record)) => {
                        let batch = match WriteBatch::from_data(&record) {
                            Ok(batch) => batch,
                            Err(err) => {
                                self.fail_or_retry(err)?;
                                seg.clean = false;
                                clean = false;
                                break;
                            }
                        };
                        if let Err(err) = batch.insert_into(&seg.mem) {
                            self.fail_or_retry(err)?;
                            seg.clean = false;
                            clean = false;
                            break;
                        }
                        let last = batch.sequence() + u64::from(batch.count()).max(1) - 1;
                        seg.max_seq = seg.max_seq.max(last);
                        self.files.stats.replica_wal_records_applied.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(TailPoll::Pending(end)) => {
                        seg.clean = end == TailEnd::Clean;
                        clean &= seg.clean;
                        break;
                    }
                    Err(err) => {
                        self.fail_or_retry(err)?;
                        seg.clean = false;
                        clean = false;
                        break;
                    }
                }
            }
        }

        // 5. Compute the served prefix. Segments are credited in file
        // order and crediting stops after the first torn/unreadable tail:
        // records replayed from later segments sit *above* that segment's
        // possible hole, so their memtables are withheld from the view
        // entirely (they stay in `tail.wals` and surface once the gap
        // heals). The manifest high-water mark counts only when every
        // segment is clean — it includes records that may still sit in
        // the primary's unsynced WAL buffer, which nothing can serve, so
        // crediting it then is label-only and cannot expose a gap.
        let mut served = 0u64;
        let mut intact = true;
        let mut visible = 0usize;
        for seg in &tail.wals {
            if intact {
                served = served.max(seg.max_seq);
                visible += 1;
            }
            intact &= seg.clean;
        }
        if intact {
            served = served.max(tail.applier.last_sequence());
        }
        let seen = served
            .max(tail.applier.last_sequence())
            .max(tail.wals.iter().map(|seg| seg.max_seq).max().unwrap_or(0))
            .max(self.last_seen_seq.load(Ordering::Relaxed));
        self.last_seen_seq.store(seen, Ordering::Relaxed);

        // 6. Publish the round's view; `seq` is monotonic. The newest
        // visible segment plays the primary's active memtable, the older
        // ones its immutables.
        {
            let mut view = self.view.write();
            let version = if std::mem::take(&mut tail.version_dirty) {
                Arc::new(tail.applier.version())
            } else {
                view.version.clone()
            };
            let (mem, imm) = match tail.wals[..visible].split_last() {
                Some((newest, older)) => {
                    (newest.mem.clone(), older.iter().map(|seg| seg.mem.clone()).collect())
                }
                None => (Arc::new(MemTable::new(0)), Vec::new()),
            };
            let seq = view.seq.max(served);
            *view = Arc::new(ReadView { mem, imm, version, seq });
            self.published_seq.store(seq, Ordering::Relaxed);
        }

        self.files.stats.replica_polls.fetch_add(1, Ordering::Relaxed);
        if !clean {
            self.files.stats.replica_incomplete_tails.fetch_add(1, Ordering::Relaxed);
        }
        self.files.stats
            .replica_lag_records
            .store(self.staleness(), Ordering::Relaxed);
        Ok(clean)
    }

    /// Classifies a catch-up error: corruption and integrity violations
    /// poison the replica permanently (returned as `Err`); anything else
    /// (I/O, a primary-side race) is transient and retried next round.
    fn fail_or_retry(&self, err: Error) -> Result<()> {
        match err {
            Error::Corruption(_) | Error::IntegrityViolation(_) => {
                *self.fatal.lock() = Some(err.clone());
                Err(err)
            }
            _ => Ok(()),
        }
    }

    /// Returns the poisoning error, if replay hit one.
    fn check_fatal(&self) -> Result<()> {
        match self.fatal.lock().clone() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// The published view, once [`ReplicaOptions::max_staleness`] (and the
    /// absence of a poisoning error) allows serving it.
    fn fresh_view(&self) -> Result<Arc<ReadView>> {
        self.check_fatal()?;
        if let Some(bound) = self.opts.max_staleness {
            let lag = self.staleness();
            if lag > bound {
                return Err(Error::InvalidArgument(format!(
                    "replica {lag} records behind primary (bound {bound})"
                )));
            }
        }
        Ok(self.view.read().clone())
    }

    /// The sequence number reads currently serve at.
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        self.published_seq.load(Ordering::Relaxed)
    }

    /// Records observed at the primary (WAL tail + manifest high-water
    /// mark) but not yet served: the replica's staleness bound.
    #[must_use]
    pub fn staleness(&self) -> u64 {
        self.last_seen_seq
            .load(Ordering::Relaxed)
            .saturating_sub(self.published_seq.load(Ordering::Relaxed))
    }

    /// This replica's ticker set: the `replica_*` counters and gauges, the
    /// read-path tickers (`gets`, `gets_found`, `multi_gets`,
    /// `batched_reads`, …) its reads credit like a primary's, and the
    /// mirrors of its own DEK resolver and env, refreshed on each call.
    #[must_use]
    pub fn statistics(&self) -> Arc<Statistics> {
        self.files.refresh_mirrors(None).clone()
    }

    /// The replica's metrics report: the `shield_metrics_v1` document a
    /// primary answers with, over the published view's files, with a
    /// `replica` section. A replica runs no flush or compaction and
    /// records no latency histogram, so those read as zero counts and
    /// unmeasured quantiles; its lag is the `replica_lag_records` gauge.
    #[must_use]
    pub fn metrics_report(&self) -> MetricsReport {
        let view = self.view.read().clone();
        MetricsReport {
            replica: Some(ReplicaProgress {
                last_applied_seq: view.seq,
                last_seen_seq: self.last_seen_seq.load(Ordering::Relaxed),
            }),
            ..MetricsReport::build(&self.files, None, vec![TreeMetrics::of(&view.version, 0, 0)])
        }
    }

    /// Runs `read` against the published view. A file the view names can
    /// be gone by the time the read reaches it: the primary compacted it
    /// away and its obsolete-file pass, which knows nothing of replicas,
    /// unlinked it. That is a view too old, not data lost — the primary's
    /// current version names the file's replacement — so the replica
    /// catches up and reads once more. `read` may therefore run twice for
    /// one user call and must credit no ticker; the caller credits the
    /// call's outcome.
    fn read_published<T>(&self, read: impl Fn(&ReadView) -> Result<T>) -> Result<T> {
        let first = read(&*self.fresh_view()?);
        if !matches!(first, Err(Error::Io(EnvError::NotFound(_)))) {
            return first;
        }
        self.catch_up()?;
        read(&*self.fresh_view()?).map_err(|err| match err {
            Error::Io(EnvError::NotFound(file)) => Error::Io(EnvError::Io(format!(
                "{file} is named by the replica's view and still missing after a catch-up: \
                 the primary deleted it under the new view too (retry), or it is lost"
            ))),
            other => other,
        })
    }

    /// Point lookup against the published view.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let value = self.read_published(|view| view.lookup(&self.table_cache, key, true));
        credit_gets(&self.files.stats, 1, matches!(value, Ok(Some(_))) as u64);
        value
    }

    /// Batched point lookup; every key reads the same published view.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        self.files.stats.multi_gets.fetch_add(1, Ordering::Relaxed);
        let values: Result<Vec<Option<Vec<u8>>>> = self.read_published(|view| {
            view.multi_lookup(&self.table_cache, keys, true).into_iter().collect()
        });
        let found = values.as_ref().map_or(0, |values| values.iter().flatten().count());
        credit_gets(&self.files.stats, keys.len() as u64, found as u64);
        values
    }

    /// Range scan from `start` (inclusive), at most `limit` entries, over
    /// one published view.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read_published(|view| {
            let views = vec![(view.clone(), &self.table_cache)];
            DbIterator::new(views, true, self.files.stats.clone(), None)?.scan(start, limit)
        })
    }
}

impl Drop for ReplicaDb {
    fn drop(&mut self) {
        // The poller holds only a weak reference, so it cannot outlive
        // this drop by more than one tick; flag it anyway for promptness.
        *self.stop.lock() = true;
        self.stop_cv.notify_all();
    }
}
