//! The write front's commit path: group commit → one WAL record per
//! group → each entry into the memtable of the tree that owns its key,
//! all under one sequence range; plus the stalls and memtable/WAL
//! switches that make room for it.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use shield_core::{Event, Section};
use shield_env::FileKind;

use crate::compaction::{pick_compaction, CompactionStyle};
use crate::db::batch::WriteBatch;
use crate::db::db::DbInner;
use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::version::filenames::wal_file_name;
use crate::wal::LogWriter;

/// Live WAL, in write buffers per tree, that one tree's active memtable
/// may keep from deletion before that memtable is flushed early
/// (RocksDB's default `max_total_wal_size`: four times the write buffers).
const MAX_LIVE_WAL_BUFFERS: u64 = 4;

pub(super) struct Pending {
    batch: WriteBatch,
    sync: bool,
    slot: Arc<Mutex<Option<Result<()>>>>,
}

/// The WAL writer and what bounds the live segments. Locked by whoever
/// holds the `leader` lock (a commit leader or `flush()`) and by
/// shutdown.
#[derive(Default)]
pub(super) struct WalState {
    pub writer: Option<LogWriter>,
    /// The segment `writer` appends to.
    pub number: u64,
    /// Bytes of write groups committed since open.
    logged: u64,
    /// `(segment, logged when it started)` for every segment some tree's
    /// memtables may still need, oldest first.
    segments: VecDeque<(u64, u64)>,
    /// Every tree's active memtable, in tree order. Only
    /// `switch_memtables` replaces one, and it holds this lock, so a
    /// commit reaches its memtables without taking any tree's lock.
    mems: Vec<Arc<MemTable>>,
}

impl DbInner {
    /// Queues `batch` and returns once a group-commit leader — this
    /// thread, or an earlier one that found the batch queued — has
    /// committed it.
    pub(super) fn write(&self, sync: bool, batch: WriteBatch) -> Result<()> {
        let slot = Arc::new(Mutex::new(None));
        self.commit_queue.lock().push(Pending { batch, sync, slot: slot.clone() });
        let _leader = self.leader.lock();
        if let Some(result) = slot.lock().take() {
            // An earlier leader committed us while we waited.
            return result;
        }
        let group: Vec<Pending> = std::mem::take(&mut *self.commit_queue.lock());
        debug_assert!(!group.is_empty());
        let result = self.commit_group(&group);
        for p in &group {
            *p.slot.lock() = Some(result.clone());
        }
        result
    }

    /// Group-commit body, run by the leader.
    fn commit_group(&self, group: &[Pending]) -> Result<()> {
        let mut t = Section::GroupCommit.enter();
        t.attr("batches", group.len() as u64);
        let mut combined = if group.len() == 1 {
            group[0].batch.clone()
        } else {
            let mut c = WriteBatch::new();
            for p in group {
                c.append(&p.batch);
            }
            c
        };
        let count = u64::from(combined.count());
        if count == 0 {
            return Ok(());
        }
        let sync = group.iter().any(|p| p.sync);

        let mut wal = self.wal.lock();
        self.make_room_for_write(&mut wal)?;
        let base = self.last_sequence.load(Ordering::Relaxed) + 1;
        self.last_sequence.store(base + count - 1, Ordering::Release);
        combined.set_sequence(base);

        // One record per group: record framing makes the group — every
        // tree's share of it — all-or-nothing on replay.
        wal.logged += combined.data().len() as u64;
        if !self.opts.disable_wal {
            if let Some(w) = wal.writer.as_mut() {
                w.add_record(combined.data())
                    .and_then(|()| w.flush())
                    .and_then(|()| if sync { w.sync() } else { Ok(()) })?;
                self.files.stats.local().wal_bytes.fetch_add(combined.data().len() as u64, Ordering::Relaxed);
                if sync {
                    self.files.stats.local().wal_syncs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Section::MemtableInsert.time(|| {
            combined.for_each(|seq, vtype, key, value| {
                wal.mems[self.router.shard_of(key)].add(seq, vtype, key, value);
            })
        })?;
        self.last_published.store(base + count - 1, Ordering::Release);
        self.files.stats.local().writes.fetch_add(count, Ordering::Relaxed);
        self.files.stats.local().write_groups.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ensures every tree's active memtable has room, switching and
    /// stalling as needed. Called by the commit leader: one stalled tree
    /// holds back every writer, whichever tree its keys route to.
    fn make_room_for_write(&self, wal: &mut WalState) -> Result<()> {
        // FIFO keeps its entire dataset in L0 by design; L0 file-count
        // backpressure does not apply (as in RocksDB).
        let l0_backpressure = self.opts.compaction.style != CompactionStyle::Fifo;
        let mut slowed_down = false;
        for (t, tree) in self.trees.iter().enumerate() {
            let mut state = tree.state.lock();
            loop {
                if let Some(e) = self.bg_error.lock().clone() {
                    return Err(e);
                }
                if self.shutting_down.load(Ordering::Acquire) {
                    return Err(Error::Shutdown);
                }
                let l0 = state.versions.current().level_files(0);
                if l0_backpressure
                    && !slowed_down
                    && l0 >= self.opts.l0_slowdown_trigger
                    && l0 < self.opts.l0_stop_trigger
                {
                    // Gentle backpressure: sleep once outside the lock.
                    slowed_down = true;
                    self.files.stats.local().write_stalls.fetch_add(1, Ordering::Relaxed);
                    self.files.events
                        .emit(&Event::WriteStall { reason: "l0_slowdown", l0_files: l0 as u64 });
                    let t0 = std::time::Instant::now();
                    MutexGuard::unlocked(&mut state, || {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    });
                    self.files.stats.local()
                        .stall_micros
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    continue;
                }
                if state.mem.approximate_memory_usage() < self.opts.write_buffer_size {
                    break;
                }
                if state.imm.len() >= self.opts.max_immutable_memtables
                    || (l0_backpressure
                        && l0 >= self.opts.l0_stop_trigger
                        && pick_compaction(&state.versions.current(), &self.opts.compaction)
                            .is_some())
                {
                    // Hard stall until background work catches up. An L0 pile-up
                    // that no compaction can reduce (e.g. compaction disabled by
                    // configuration) must not stall forever.
                    self.files.stats.local().write_stalls.fetch_add(1, Ordering::Relaxed);
                    self.files.events.emit(&Event::WriteStall { reason: "stop", l0_files: l0 as u64 });
                    let t0 = std::time::Instant::now();
                    self.maybe_schedule(t, &mut state);
                    tree.work_cv.wait(&mut state);
                    self.files.stats.local()
                        .stall_micros
                        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    continue;
                }
                MutexGuard::unlocked(&mut state, || self.switch_memtables(wal, &[t]))?;
            }
        }
        Ok(())
    }

    /// Starts a fresh WAL segment and moves the active memtable of every
    /// tree in `switching` to its immutable list, scheduling the flushes.
    /// Every tree's new or still-empty memtable is tagged with the new
    /// segment, so a tree that takes no writes never pins an old one; a
    /// tree that took few is switched too once its memtable alone pins
    /// more than the live-WAL bound. Call with the `leader` lock and no
    /// tree's state lock.
    pub(super) fn switch_memtables(&self, wal: &mut WalState, switching: &[usize]) -> Result<()> {
        let overdue = self.tree_over_wal_bound(wal);
        // Segment numbers come from tree 0's file numbers: a single tree
        // numbers WALs, SSTs and manifests from one counter.
        let number = self.trees[0].state.lock().versions.new_file_number();
        let writer = self.files.create_log(
            &shield_env::join_path(&self.path, &wal_file_name(number)),
            FileKind::Wal,
        )?;
        if let Some(old) = wal.writer.as_mut() {
            // Drain any buffered (possibly still-unencrypted) bytes; the
            // old segment must be complete before a memtable it backs is
            // flushable — no SST ever holds a write whose WAL record
            // could still be lost.
            old.sync()?;
        }
        wal.writer = Some(writer);
        wal.number = number;
        wal.segments.push_back((number, wal.logged));
        let mut oldest = number;
        wal.mems.clear();
        let fresh = || Arc::new(MemTable::with_write_buffer_size(number, self.opts.write_buffer_size));
        for (t, tree) in self.trees.iter().enumerate() {
            let mut state = tree.state.lock();
            if switching.contains(&t) || overdue == Some(t) {
                let full = std::mem::replace(&mut state.mem, fresh());
                state.imm.push(full);
                self.maybe_schedule(t, &mut state);
            } else if state.mem.is_empty() {
                state.mem = fresh();
            }
            wal.mems.push(state.mem.clone());
            oldest = oldest.min(state.oldest_wal());
        }
        while wal.segments.front().is_some_and(|&(segment, _)| segment < oldest) {
            wal.segments.pop_front();
        }
        Ok(())
    }

    /// The tree (the one furthest behind, if several) whose *active*
    /// memtable keeps more WAL alive than the bound allows. A tree with
    /// immutable memtables is already flushing its way forward.
    fn tree_over_wal_bound(&self, wal: &WalState) -> Option<usize> {
        let bound =
            MAX_LIVE_WAL_BUFFERS * self.trees.len() as u64 * self.opts.write_buffer_size as u64;
        let (t, tag) = self
            .trees
            .iter()
            .enumerate()
            .filter_map(|(t, tree)| {
                let state = tree.state.lock();
                (state.imm.is_empty() && !state.mem.is_empty()).then(|| (t, state.mem.wal_number()))
            })
            .min_by_key(|&(_, tag)| tag)?;
        let started = wal.segments.iter().find(|&&(segment, _)| segment == tag)?.1;
        (wal.logged - started > bound).then_some(t)
    }
}
