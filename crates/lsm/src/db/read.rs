//! The read path, shared by every handle: a [`ReadView`] pins what one
//! read of one tree operates on and owns the only point lookup and the
//! only batched lookup; [`DbIterator::new`] is the only scan, over any
//! number of views. [`crate::Db`] pins a view per tree per operation
//! under that tree's state lock, and [`crate::ReplicaDb`] publishes one
//! per catch-up round.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use shield_core::{perf, AtomicHistogram, PerfMetric};

use crate::db::db::DbInner;
use crate::db::options::ReadOptions;
use crate::error::Result;
use crate::iter::{InternalIterator, MergingIterator};
use crate::memtable::{LookupResult, MemTable};
use crate::statistics::Statistics;
use crate::types::{
    extract_seq_type, extract_user_key, make_lookup_key, SequenceNumber, ValueType,
};
use crate::version::table_cache::TableCache;
use crate::version::version::Version;

/// The state one read operates on (RocksDB's SuperVersion): memtables,
/// file layout and visible sequence, pinned together so a single
/// operation never mixes two states.
#[derive(Clone)]
pub(crate) struct ReadView {
    /// The newest memtable.
    pub mem: Arc<MemTable>,
    /// Older memtables, oldest first.
    pub imm: Vec<Arc<MemTable>>,
    /// Pinning the version (tracked by `VersionSet::referenced_files`)
    /// stops obsolete-file GC from deleting SSTs that lazily-opening level
    /// iterators have not read yet.
    pub version: Arc<Version>,
    /// Entries above this sequence are invisible.
    pub seq: SequenceNumber,
}

impl ReadView {
    /// Probes the memtables newest first: `Some(Some(v))` is a live
    /// value, `Some(None)` a tombstone, `None` means only the version can
    /// answer.
    fn probe_memtables(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        std::iter::once(&self.mem).chain(self.imm.iter().rev()).find_map(|mem| {
            match mem.get(key, self.seq) {
                LookupResult::Found(v) => Some(Some(v)),
                LookupResult::Deleted => Some(None),
                LookupResult::NotFound => None,
            }
        })
    }

    /// Point lookup, credited to `stats` as one `get`.
    pub fn get(
        &self,
        tables: &TableCache,
        stats: &Statistics,
        key: &[u8],
        fill_cache: bool,
    ) -> Result<Option<Vec<u8>>> {
        let value = self.lookup(tables, key, fill_cache);
        credit_gets(stats, 1, matches!(value, Ok(Some(_))) as u64);
        value
    }

    /// Point lookup that credits nothing: a caller that may run it more
    /// than once per user call ([`crate::ReplicaDb`]) credits the call.
    pub(super) fn lookup(
        &self,
        tables: &TableCache,
        key: &[u8],
        fill_cache: bool,
    ) -> Result<Option<Vec<u8>>> {
        let t = perf::timer();
        let hit = self.probe_memtables(key);
        perf::add_elapsed(PerfMetric::MemtableLookup, t);
        match hit {
            Some(hit) => Ok(hit),
            None => Ok(self.version.get_opt(tables, key, self.seq, fill_cache)?.into_value()),
        }
    }

    /// Batched point lookup: one result slot per key, each equivalent to
    /// [`ReadView::get`]. Memtables are probed per key (they are in memory
    /// anyway); keys that miss are resolved against the version with
    /// per-file batched block reads, so a cold batch pays one
    /// `read_at_many` submission per table instead of one file read per
    /// key. Errors are per-slot: a fault on one key's block never corrupts
    /// its neighbors. Every key is credited to `stats` as a point lookup;
    /// the caller credits `multi_gets` (one user call may span several
    /// views).
    pub fn multi_get(
        &self,
        tables: &TableCache,
        stats: &Statistics,
        keys: &[&[u8]],
        fill_cache: bool,
    ) -> Vec<Result<Option<Vec<u8>>>> {
        let out = self.multi_lookup(tables, keys, fill_cache);
        let found = out.iter().filter(|slot| matches!(slot, Ok(Some(_)))).count();
        credit_gets(stats, keys.len() as u64, found as u64);
        out
    }

    /// [`multi_get`](Self::multi_get) that credits nothing (see
    /// [`lookup`](Self::lookup)).
    pub(super) fn multi_lookup(
        &self,
        tables: &TableCache,
        keys: &[&[u8]],
        fill_cache: bool,
    ) -> Vec<Result<Option<Vec<u8>>>> {
        let t = perf::timer();
        let mut out: Vec<Option<Result<Option<Vec<u8>>>>> =
            keys.iter().map(|key| self.probe_memtables(key).map(Ok)).collect();
        perf::add_elapsed(PerfMetric::MemtableLookup, t);
        let unresolved: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
        if !unresolved.is_empty() {
            let sub: Vec<&[u8]> = unresolved.iter().map(|&i| keys[i]).collect();
            let results = self.version.multi_get_opt(tables, &sub, self.seq, fill_cache);
            for (&i, result) in unresolved.iter().zip(results) {
                out[i] = Some(result.map(|found| found.into_value()));
            }
        }
        out.into_iter().map(|slot| slot.expect("every key resolved")).collect()
    }
}

/// Credits one user call's point lookups: `gets` per key looked up
/// (found, absent or failed), `gets_found` per value returned — so
/// `gets_found <= gets` and both count user calls, not attempts.
pub(super) fn credit_gets(stats: &Statistics, lookups: u64, found: u64) {
    stats.gets.fetch_add(lookups, Ordering::Relaxed);
    stats.gets_found.fetch_add(found, Ordering::Relaxed);
}

/// A point-in-time read view. Dropping it releases the sequence pin so
/// compaction may reclaim shadowed versions.
pub struct Snapshot {
    inner: Arc<DbInner>,
    id: u64,
    seq: SequenceNumber,
}

impl Snapshot {
    pub(super) fn new(inner: Arc<DbInner>, id: u64, seq: SequenceNumber) -> Self {
        Snapshot { inner, id, seq }
    }

    /// The sequence this snapshot reads at; feed it to
    /// [`ReadOptions::snapshot_seq`].
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }

    /// Read options pinned to this snapshot.
    #[must_use]
    pub fn read_options(&self) -> ReadOptions {
        ReadOptions { snapshot_seq: Some(self.seq), fill_cache: true }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.inner.release_snapshot(self.id);
    }
}

/// Iterator over live user keys and values.
pub struct DbIterator {
    merged: MergingIterator,
    seq: SequenceNumber,
    current: Option<(Vec<u8>, Vec<u8>)>,
    /// The owning handle's `iter_next` latency histogram, if it keeps one.
    iter_next: Option<Arc<AtomicHistogram>>,
    /// Keeps the memtables and the versions alive while the iterator exists.
    _pins: Vec<ReadView>,
}

impl DbIterator {
    /// An iterator over the live keys of `views` — one per tree, all at
    /// the same sequence; trees own disjoint keys, so one merge over every
    /// view's memtables and files is the scan. `iter_next` receives the
    /// latency of every [`DbIterator::next`].
    pub(crate) fn new(
        views: Vec<(ReadView, &Arc<TableCache>)>,
        fill_cache: bool,
        iter_next: Option<Arc<AtomicHistogram>>,
    ) -> Result<DbIterator> {
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for (view, tables) in &views {
            children.push(Box::new(view.mem.iter()));
            for imm in view.imm.iter().rev() {
                children.push(Box::new(imm.iter()));
            }
            children.extend(view.version.iterators(tables, fill_cache)?);
        }
        Ok(DbIterator {
            merged: MergingIterator::new(children),
            seq: views.first().map_or(0, |(view, _)| view.seq),
            current: None,
            iter_next,
            _pins: views.into_iter().map(|(view, _)| view).collect(),
        })
    }

    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.current.is_some()
    }

    /// Current user key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        &self.current.as_ref().expect("valid").0
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> &[u8] {
        &self.current.as_ref().expect("valid").1
    }

    /// Positions on the first live key.
    pub fn seek_to_first(&mut self) {
        self.merged.seek_to_first();
        self.advance_to_visible(None);
    }

    /// Positions on the first live key >= `user_key`.
    pub fn seek(&mut self, user_key: &[u8]) {
        self.merged.seek(&make_lookup_key(user_key, self.seq));
        self.advance_to_visible(None);
    }

    /// Advances to the next live key.
    pub fn next(&mut self) {
        let op_start = std::time::Instant::now();
        let skip = self.current.take().map(|(k, _)| k);
        self.advance_to_visible(skip);
        if let Some(hist) = &self.iter_next {
            hist.record_elapsed(op_start);
        }
    }

    /// First error any underlying source hit. An iterator that went
    /// invalid with an error here has *stopped early*, not finished.
    pub fn status(&self) -> Result<()> {
        self.merged.status()
    }

    /// Range scan: up to `limit` live `(key, value)` pairs with
    /// `key >= start`.
    pub(crate) fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.seek(start);
        let mut out = Vec::with_capacity(limit.min(1024));
        while self.valid() && out.len() < limit {
            out.push((self.key().to_vec(), self.value().to_vec()));
            self.next();
        }
        // A read error mid-iteration leaves the iterator invalid with the
        // error parked in its status; a partial result must not pass as a
        // complete one.
        self.status()?;
        Ok(out)
    }

    /// Skips invisible/shadowed/deleted entries. `skip_key` is a user key
    /// whose remaining versions must be bypassed.
    fn advance_to_visible(&mut self, mut skip_key: Option<Vec<u8>>) {
        self.current = None;
        while self.merged.valid() {
            let ikey = self.merged.key();
            let user_key = extract_user_key(ikey);
            let (entry_seq, vtype) = extract_seq_type(ikey);
            if entry_seq > self.seq {
                self.merged.next();
                continue;
            }
            if skip_key.as_deref() == Some(user_key) {
                self.merged.next();
                continue;
            }
            match vtype {
                Some(ValueType::Deletion) => {
                    skip_key = Some(user_key.to_vec());
                    self.merged.next();
                }
                Some(ValueType::Value) => {
                    self.current =
                        Some((user_key.to_vec(), self.merged.value().to_vec()));
                    return;
                }
                None => {
                    // Corrupt tag: skip defensively.
                    self.merged.next();
                }
            }
        }
    }
}
