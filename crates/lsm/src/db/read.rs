//! The read path, shared by every handle: a `ReadView` pins what one
//! read of one tree operates on and owns the only point lookup and the
//! only batched lookup; `DbIterator::new` is the only scan, over any
//! number of views. [`crate::Db`] pins a view per tree per operation
//! under that tree's state lock, and [`crate::ReplicaDb`] publishes one
//! per catch-up round.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use shield_core::{Op, Section};

use crate::db::db::DbInner;
use crate::db::metrics::{OpHistograms, OpKind};
use crate::db::options::ReadOptions;
use crate::error::Result;
use crate::iter::{InternalIterator, MergingIterator};
use crate::memtable::{LookupResult, MemTable};
use crate::statistics::Statistics;
use crate::types::{
    extract_seq_type, extract_user_key, make_internal_key, make_lookup_key, SequenceNumber,
    ValueType,
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

    /// Point lookup. It credits nothing: the handle credits each user
    /// call once ([`credit_gets`]), however many views it looked in.
    pub(super) fn lookup(
        &self,
        tables: &TableCache,
        key: &[u8],
        fill_cache: bool,
    ) -> Result<Option<Vec<u8>>> {
        match Section::MemtableLookup.time(|| self.probe_memtables(key)) {
            Some(hit) => Ok(hit),
            None => Ok(self.version.get_opt(tables, key, self.seq, fill_cache)?.into_value()),
        }
    }

    /// Batched point lookup: one result slot per key, each equivalent to
    /// [`ReadView::lookup`]. Memtables are probed per key (they are in
    /// memory anyway); keys that miss are resolved against the version
    /// with per-file batched block reads, so a cold batch pays one
    /// `read_at_many` submission per table instead of one file read per
    /// key. Errors are per-slot: a fault on one key's block never
    /// corrupts its neighbors. Like [`lookup`](Self::lookup), it credits
    /// nothing.
    pub(super) fn multi_lookup(
        &self,
        tables: &TableCache,
        keys: &[&[u8]],
        fill_cache: bool,
    ) -> Vec<Result<Option<Vec<u8>>>> {
        let mut out: Vec<Option<Result<Option<Vec<u8>>>>> = Section::MemtableLookup
            .time(|| keys.iter().map(|key| self.probe_memtables(key).map(Ok)).collect());
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
    stats.local().gets.fetch_add(lookups, Ordering::Relaxed);
    stats.local().gets_found.fetch_add(found, Ordering::Relaxed);
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

/// Consecutive entries of one user key an iterator steps over with
/// `next()` before it re-seeks the merge child that holds them (RocksDB's
/// `max_sequential_skip_in_iterations`; DESIGN.md §4g).
pub const MAX_SEQUENTIAL_SKIP: u64 = 8;

/// Iterator over live user keys and values.
pub struct DbIterator {
    merged: MergingIterator,
    seq: SequenceNumber,
    current: Option<(Vec<u8>, Vec<u8>)>,
    /// User key of the run of stepped-over entries being counted.
    run_key: Vec<u8>,
    /// Entries stepped over and children re-seeked so far, credited to
    /// `stats` (`iter_skipped`, `iter_reseeks`) once, on drop.
    skipped: u64,
    reseeks: u64,
    stats: Arc<Statistics>,
    /// The owning handle's latency histograms, if it keeps them: every
    /// [`next`](Self::next) is an `iter_next` op.
    op_hists: Option<Arc<OpHistograms>>,
    /// Keeps the memtables and the versions alive while the iterator exists.
    _pins: Vec<ReadView>,
}

impl DbIterator {
    /// An iterator over the live keys of `views` — one per tree, all at
    /// the same sequence; trees own disjoint keys, so one merge over every
    /// view's memtables and files is the scan. `op_hists` receives the
    /// latency of every `next`; `stats` the skip tickers.
    pub(crate) fn new(
        views: Vec<(ReadView, &Arc<TableCache>)>,
        fill_cache: bool,
        stats: Arc<Statistics>,
        op_hists: Option<Arc<OpHistograms>>,
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
            run_key: Vec::new(),
            skipped: 0,
            reseeks: 0,
            stats,
            op_hists,
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

    /// Advances to the next live key, timed into `iter_next`.
    pub fn next(&mut self) {
        // The histograms step out of `self` while the op guard borrows them.
        let op_hists = self.op_hists.take();
        let op = op_hists.as_deref().map(|h| Op::untraced(&h.0[OpKind::IterNext as usize]));
        let skip = self.current.take().map(|(k, _)| k);
        self.step_past(skip.as_deref());
        drop(op);
        self.op_hists = op_hists;
    }

    /// Steps off the row just returned, whose user key is `key`, and on
    /// past that key's older versions to the next live key.
    fn step_past(&mut self, key: Option<&[u8]>) {
        if key.is_some() {
            self.merged.next();
        }
        self.advance_to_visible(key);
    }

    /// First error any underlying source hit. An iterator that went
    /// invalid with an error here has *stopped early*, not finished.
    pub fn status(&self) -> Result<()> {
        self.merged.status()
    }

    /// Range scan: up to `limit` live `(key, value)` pairs with
    /// `key >= start`. Its steps are not timed: the caller times the
    /// whole scan as one op.
    pub(crate) fn scan(&mut self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.seek(start);
        let mut out = Vec::with_capacity(limit.min(1024));
        while out.len() < limit {
            // The row moves into the result; its key, borrowed back from
            // there, is what the next step skips.
            let Some(row) = self.current.take() else { break };
            out.push(row);
            if out.len() < limit {
                self.step_past(out.last().map(|(key, _)| key.as_slice()));
            }
        }
        // A read error mid-iteration leaves the iterator invalid with the
        // error parked in its status; a partial result must not pass as a
        // complete one.
        self.status()?;
        Ok(out)
    }

    /// Moves to the next live entry, stepping over what a read may not
    /// return: versions above the read sequence, tombstones, and versions
    /// that a newer one or a tombstone shadows (`skip` is the user key of
    /// the row just returned). At the [`MAX_SEQUENTIAL_SKIP`]th
    /// consecutive stepped-over entry of one user key it re-seeks only
    /// the merge child standing on the run: past every version of a
    /// shadowed key, or to the first visible version of a too-new one.
    fn advance_to_visible(&mut self, skip: Option<&[u8]>) {
        self.current = None;
        let mut deleted: Option<Vec<u8>> = None;
        let mut run = 0;
        while self.merged.valid() {
            let ikey = self.merged.key();
            let user_key = extract_user_key(ikey);
            let (entry_seq, vtype) = extract_seq_type(ikey);
            let too_new = entry_seq > self.seq;
            let mut shadowed = deleted.as_deref().or(skip) == Some(user_key);
            if !too_new && !shadowed {
                match vtype {
                    Some(ValueType::Value) => {
                        self.current = Some((user_key.to_vec(), self.merged.value().to_vec()));
                        return;
                    }
                    Some(ValueType::Deletion) => {
                        deleted = Some(user_key.to_vec());
                        shadowed = true;
                    }
                    // Corrupt tag: step over it, but never seek past the
                    // versions below it.
                    None => {}
                }
            }
            self.skipped += 1;
            if self.run_key != user_key {
                self.run_key.clear();
                self.run_key.extend_from_slice(user_key);
                run = 0;
            }
            run += 1;
            if run < MAX_SEQUENTIAL_SKIP || !(too_new || shadowed) {
                self.merged.next();
                continue;
            }
            let target = if too_new {
                make_lookup_key(user_key, self.seq)
            } else {
                make_internal_key(user_key, 0, ValueType::Deletion)
            };
            self.merged.seek_current(&target);
            self.reseeks += 1;
            run = 0;
        }
    }
}

impl Drop for DbIterator {
    fn drop(&mut self) {
        self.stats.local().iter_skipped.fetch_add(self.skipped, Ordering::Relaxed);
        self.stats.local().iter_reseeks.fetch_add(self.reseeks, Ordering::Relaxed);
    }
}
