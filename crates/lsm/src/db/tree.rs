//! One sorted-run tree of a [`crate::Db`] and the background work that
//! maintains it: flushes, compactions (serial, parallel and offloaded)
//! and obsolete-file collection.
//!
//! A [`Tree`] is a memtable list, a [`VersionSet`] and a [`TableCache`]
//! in its own directory. Everything a write needs before it reaches a
//! tree — commit queue, WAL, sequence numbers — and everything the trees
//! share — job pool, block cache, statistics, the sticky background
//! error — lives in the write front ([`DbInner`]), so the methods here
//! are `DbInner`'s and take the tree they work on by index.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use shield_core::{trace, Event};
use shield_env::FileKind;

use crate::compaction::{
    append_input_deletions, pick_compaction, plan_subcompactions, run_compaction,
    run_compaction_range, CompactionOutcome, CompactionRequest, CompactionTask,
    SubcompactionRange,
};
use crate::db::db::DbInner;
use crate::db::metrics::OpKind;
use crate::db::pool::JobClass;
use crate::db::read::ReadView;
use crate::error::{Error, Result, Severity};
use crate::iter::InternalIterator;
use crate::memtable::MemTable;
use crate::types::SequenceNumber;
use crate::version::edit::{FileMeta, TableSlot, VersionEdit};
use crate::version::filenames::{parse_file_name, FileType};
use crate::version::table_cache::{TableCache, TableSink};
use crate::version::version::Version;
use crate::version::VersionSet;

/// A queued subrange merge of an in-flight parallel compaction.
pub(super) type Subtask = Box<dyn FnOnce() + Send>;

/// One slot per subrange of a parallel compaction, and the condvar its
/// coordinator waits on until every slot is filled.
type SubrangeResults = (Mutex<Vec<Option<Result<CompactionOutcome>>>>, Condvar);

pub(super) struct TreeState {
    pub mem: Arc<MemTable>,
    pub imm: Vec<Arc<MemTable>>,
    pub versions: VersionSet,
    pub flush_scheduled: bool,
    pub compaction_scheduled: bool,
    pub busy_files: HashSet<u64>,
    pub pending_outputs: HashSet<u64>,
}

impl TreeState {
    /// The oldest WAL segment that may hold a write this tree has not
    /// persisted in an SST.
    pub fn oldest_wal(&self) -> u64 {
        self.imm.first().unwrap_or(&self.mem).wal_number()
    }
}

pub(super) struct Tree {
    /// The tree's directory: the database directory itself for a single
    /// tree, `shard-<i>/` inside it otherwise.
    pub path: String,
    pub table_cache: Arc<TableCache>,
    pub state: Mutex<TreeState>,
    /// Signaled (with `state` held) whenever this tree's background work
    /// finishes, a background error parks or the database shuts down.
    pub work_cv: Condvar,
    pub flushes: AtomicU64,
    pub compactions: AtomicU64,
    /// Bumped, with `state` held, by every install that drops entries — a
    /// compaction or a FIFO trim. A read over several trees that saw no
    /// bump while it took its views reads at its sequence in every tree
    /// ([`DbInner::read_views`]); a flush or a memtable switch moves
    /// entries but drops none.
    pub views_changed: AtomicU64,
}

impl Tree {
    pub fn new(path: String, table_cache: Arc<TableCache>, versions: VersionSet) -> Tree {
        Tree {
            path,
            table_cache,
            state: Mutex::new(TreeState {
                mem: Arc::new(MemTable::new(0)),
                imm: Vec::new(),
                versions,
                flush_scheduled: false,
                compaction_scheduled: false,
                busy_files: HashSet::new(),
                pending_outputs: HashSet::new(),
            }),
            work_cv: Condvar::new(),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            views_changed: AtomicU64::new(0),
        }
    }

    /// Pins what one read of this tree operates on, under a single
    /// `state` lock acquisition, at `seq` — or, for `None`, at the latest
    /// `published` sequence, loaded under that same lock. Loaded there,
    /// the sequence covers only writes the captured memtables and version
    /// hold, and it is at least the horizon of every compaction whose
    /// install the view sees (a compaction keeps what its horizon — the
    /// published sequence when it started — reads), so no version it
    /// reads was compacted away. Loaded before the lock, a compaction
    /// could start and install in between and drop the version that
    /// sequence reads.
    pub fn read_view(&self, seq: Option<SequenceNumber>, published: &AtomicU64) -> ReadView {
        let state = self.state.lock();
        ReadView {
            mem: state.mem.clone(),
            imm: state.imm.clone(),
            version: state.versions.current(),
            seq: seq.unwrap_or_else(|| published.load(Ordering::SeqCst)),
        }
    }
}

fn task_files(task: &CompactionTask) -> impl Iterator<Item = u64> + '_ {
    let (a, b) = match task {
        CompactionTask::Merge { inputs, overlaps, .. } => (inputs.as_slice(), overlaps.as_slice()),
        CompactionTask::FifoTrim { files } => (files.as_slice(), &[][..]),
    };
    a.iter().chain(b).map(|f| f.number)
}

impl DbInner {
    /// Submits a background job to the pool, tracked in `bg_pending` so
    /// shutdown can drain this database's work without joining the pool
    /// threads from one of them. The closure receives a strong
    /// self-reference; the pending count is decremented *after* that
    /// reference drops, so shutdown never races a job still holding one.
    fn submit_job(&self, class: JobClass, f: impl FnOnce(&Arc<DbInner>) + Send + 'static) {
        let Some(me) = self.weak_self.upgrade() else { return };
        *self.bg_pending.lock() += 1;
        self.pool.spawn(
            class,
            Box::new(move || {
                f(&me);
                let mut pending = me.bg_pending.lock();
                *pending -= 1;
                if *pending == 0 {
                    me.bg_cv.notify_all();
                }
                drop(pending);
                // If this was the last strong reference, DbInner (and the
                // pool itself) drops here on a worker thread;
                // JobPool::drop handles the self-join.
                drop(me);
            }),
        );
    }

    /// Schedules flush/compaction work for tree `t` if warranted. The
    /// tree's state lock is held.
    pub(super) fn maybe_schedule(&self, t: usize, state: &mut TreeState) {
        if self.shutting_down.load(Ordering::Acquire) || self.bg_error.lock().is_some() {
            return;
        }
        if !state.flush_scheduled && !state.imm.is_empty() {
            state.flush_scheduled = true;
            self.submit_job(JobClass::Flush, move |inner| inner.background_flush(t));
        }
        if !state.compaction_scheduled {
            if let Some(task) = pick_compaction(&state.versions.current(), &self.opts.compaction) {
                if !task_files(&task).any(|n| state.busy_files.contains(&n)) {
                    state.compaction_scheduled = true;
                    self.submit_job(JobClass::General, move |inner| {
                        inner.background_compaction(t);
                    });
                }
            }
        }
    }

    /// Appends `edit` to the tree's manifest, stamped with the database's
    /// sequence high-water mark (one sequence space across all trees).
    pub(super) fn log_and_apply(&self, state: &mut TreeState, edit: VersionEdit) -> Result<()> {
        state.versions.set_last_sequence(self.last_sequence.load(Ordering::Acquire));
        state.versions.log_and_apply(edit).map(|_| ())
    }

    /// One read view per tree, all at one sequence — `seq`, or the latest
    /// published one — each passed through `each`. With several trees the
    /// latest sequence is loaded before the views, so they are retaken
    /// until no tree installed a compaction meanwhile: one that started
    /// after the load and installed before a view could have dropped the
    /// version that sequence reads in that tree. (One tree loads it under
    /// its lock: [`Tree::read_view`].)
    pub(super) fn read_views<'a, T>(
        &'a self,
        seq: Option<SequenceNumber>,
        each: impl Fn(&'a Tree, ReadView) -> T,
    ) -> Vec<T> {
        let take = |seq| -> Vec<T> {
            self.trees.iter().map(|t| each(t, t.read_view(seq, &self.last_published))).collect()
        };
        if seq.is_some() || self.trees.len() == 1 {
            return take(seq);
        }
        // Each count only grows, so an unchanged sum is no change at all.
        let changes = || -> u64 {
            self.trees.iter().map(|t| t.views_changed.load(Ordering::SeqCst)).sum()
        };
        loop {
            let before = changes();
            let views = take(Some(self.last_published.load(Ordering::SeqCst)));
            if changes() == before {
                return views;
            }
        }
    }

    /// Writes a memtable into the L0 table `number` of `tree`: every
    /// entry, no cut, so one table, or none for an empty memtable. Runs
    /// without the state lock.
    pub(super) fn write_level0_table(
        &self,
        tree: &Tree,
        mem: &MemTable,
        number: u64,
    ) -> Result<Option<(u32, FileMeta)>> {
        let mut alloc = || number;
        let mut sink = TableSink::new(&tree.table_cache, &self.opts.table, 0, &mut alloc);
        let mut it = mem.iter();
        it.seek_to_first();
        while it.valid() {
            sink.add(it.key(), it.value())?;
            InternalIterator::next(&mut it);
        }
        Ok(sink.finish()?.0.pop())
    }

    /// Credits an installed flush of `tree` — the ticker and the tree's
    /// count, and the `(number, bytes)` of its table, if it wrote one —
    /// and announces it. Every flush, in the background or at open, calls
    /// this once, right after its edit installs.
    pub(super) fn credit_flush(&self, tree: &Tree, table: Option<(u64, u64)>, micros: u64) {
        let (file_number, bytes) = table.unwrap_or((0, 0));
        let stats = self.files.stats.local();
        stats.flushes.fetch_add(1, Ordering::Relaxed);
        stats.flush_bytes.fetch_add(bytes, Ordering::Relaxed);
        stats.sst_files_created.fetch_add(u64::from(table.is_some()), Ordering::Relaxed);
        tree.flushes.fetch_add(1, Ordering::Relaxed);
        self.files.events.emit(&Event::FlushEnd { file_number, bytes, micros });
    }

    /// The request that describes a merge of tree `t`'s `task`, picked
    /// against `version`: what the in-process merge, each of its
    /// subranges and an offloaded executor run.
    fn compaction_request<'a>(
        &'a self,
        t: usize,
        task: &'a CompactionTask,
        version: &'a Version,
        smallest_snapshot: SequenceNumber,
    ) -> CompactionRequest<'a> {
        CompactionRequest {
            db_path: &self.trees[t].path,
            task,
            version,
            smallest_snapshot,
            table_options: &self.opts.table,
            target_file_size: self.opts.compaction.target_file_size,
        }
    }

    /// Runs `f`, retrying soft (transient) failures with capped
    /// exponential backoff up to `max_background_retries` times. Hard and
    /// unrecoverable errors are returned immediately. `job` labels the
    /// retry/error events in the LOG.
    fn with_bg_retries<T>(&self, job: &'static str, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.retryable() && attempt < self.opts.max_background_retries => {
                    self.files.stats.local().bg_retries.fetch_add(1, Ordering::Relaxed);
                    self.files.events.emit(&Event::BackgroundRetry {
                        job,
                        attempt: u64::from(attempt + 1),
                        message: e.to_string(),
                    });
                    let backoff = self
                        .opts
                        .background_retry_backoff
                        .saturating_mul(1u32 << attempt.min(16))
                        .min(self.opts.background_retry_max_backoff);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Parks `e` as the sticky background error, reports it, and wakes
    /// every tree's waiters: a stalled
    /// commit leader or a `flush()` caller may be waiting on a different
    /// tree than the one whose job failed. Call without any tree's state
    /// lock.
    pub(super) fn set_bg_error(&self, job: &'static str, e: Error) {
        self.files.events.emit(&Event::BackgroundError {
            job,
            severity: match e.severity() {
                Severity::Soft => "soft",
                Severity::Hard => "hard",
                Severity::Unrecoverable => "unrecoverable",
            },
            message: e.to_string(),
        });
        *self.bg_error.lock() = Some(e);
        self.wake_all_trees();
    }

    /// Wakes every thread waiting on any tree's `work_cv`. Taking each
    /// state lock first closes the window between a waiter's check and
    /// its wait.
    pub(super) fn wake_all_trees(&self) {
        for tree in &self.trees {
            let _state = tree.state.lock();
            tree.work_cv.notify_all();
        }
    }

    fn background_flush(&self, t: usize) {
        let tree = &self.trees[t];
        loop {
            let (mem, number, immutables) = {
                let mut state = tree.state.lock();
                let Some(mem) = state.imm.first().cloned() else {
                    state.flush_scheduled = false;
                    tree.work_cv.notify_all();
                    return;
                };
                let number = state.versions.new_file_number();
                state.pending_outputs.insert(number);
                (mem, number, state.imm.len() as u64)
            };
            let op = self.op(OpKind::Flush);
            self.files.events.emit(&Event::FlushBegin { immutables });
            // A fresh writable open truncates any partial output from the
            // failed attempt, so retrying with the same file number is
            // safe.
            let result =
                self.with_bg_retries("flush", || self.write_level0_table(tree, &mem, number));
            let mut state = tree.state.lock();
            state.pending_outputs.remove(&number);
            let installed = result.and_then(|output| {
                let table = output.as_ref().map(|(_, meta)| (meta.number, meta.file_size));
                // The WAL this tree needs going forward is the one behind
                // its next-oldest memtable.
                let min_wal = state.imm.get(1).unwrap_or(&state.mem).wal_number();
                let edit = VersionEdit {
                    log_number: Some(min_wal),
                    new_files: output.into_iter().collect(),
                    ..VersionEdit::default()
                };
                self.log_and_apply(&mut state, edit).map(|()| table)
            });
            let micros = op.finish().as_micros() as u64;
            match installed {
                Ok(table) => {
                    state.imm.remove(0);
                    self.credit_flush(tree, table, micros);
                    // GC does env and KDS round trips: never under the
                    // state lock, which every get and commit takes. It
                    // runs before this flush's follow-up compaction is
                    // scheduled, so that job's end cannot race it, and
                    // waiters are woken once it is done, so `flush()`
                    // still returns to a collected directory.
                    drop(state);
                    self.delete_obsolete_files(t);
                    let mut state = tree.state.lock();
                    self.maybe_schedule(t, &mut state);
                    tree.work_cv.notify_all();
                }
                Err(e) => {
                    state.flush_scheduled = false;
                    drop(state);
                    self.set_bg_error("flush", e);
                    return;
                }
            }
        }
    }

    fn background_compaction(self: &Arc<Self>, t: usize) {
        let tree = &self.trees[t];
        // Pick under the lock; run without it.
        let (task, version) = {
            let mut state = tree.state.lock();
            let version = state.versions.current();
            let task = pick_compaction(&version, &self.opts.compaction)
                .filter(|task| !task_files(task).any(|n| state.busy_files.contains(&n)));
            let Some(task) = task else {
                state.compaction_scheduled = false;
                tree.work_cv.notify_all();
                return;
            };
            state.busy_files.extend(task_files(&task));
            (task, version)
        };
        let smallest_snapshot = self
            .snapshots
            .lock()
            .pinned
            .values()
            .min()
            .copied()
            .unwrap_or_else(|| self.last_published.load(Ordering::Acquire));

        let (task_level, task_inputs, task_input_bytes) = match &task {
            CompactionTask::Merge { input_level, inputs, overlaps, .. } => (
                *input_level as u64,
                (inputs.len() + overlaps.len()) as u64,
                task.input_bytes(),
            ),
            CompactionTask::FifoTrim { files } => {
                (0, files.len() as u64, files.iter().map(|f| f.file_size).sum())
            }
        };
        let op = self.op(OpKind::Compaction);
        self.files.events.emit(&Event::CompactionBegin {
            level: task_level,
            inputs: task_inputs,
            input_bytes: task_input_bytes,
        });

        // Every output number any attempt allocates lands here, so the
        // install/error paths below can clear `pending_outputs` exactly —
        // including numbers abandoned by failed retry attempts, which
        // would otherwise leak and keep their garbage files undeletable.
        let allocated: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        // A tree whose L0 has reached the slowdown trigger has its writers
        // asleep in `make_room_for_write` right now: the core they leave
        // idle takes a share of this merge. A tree that keeps up merges
        // serially unless `max_subcompactions` asks for more.
        let l0_files = version.level_files(0);
        let behind = l0_files >= self.opts.l0_slowdown_trigger;
        let floor = self.opts.compaction.max_subcompactions;
        let ranges = if behind { floor.max(self.idle_lanes) } else { floor };
        let plan = match &self.opts.compaction_executor {
            // Offloaded executors own their whole task; only the
            // in-process path splits work.
            Some(_) => vec![SubcompactionRange::full()],
            None => plan_subcompactions(&tree.table_cache, &task, ranges),
        };
        // Soft failures (transient storage/network faults) are retried
        // (per subrange in the parallel path); each retry allocates fresh
        // output numbers, and the env truncates on reopen, so a
        // half-written attempt is harmless.
        let result = if plan.len() > 1 {
            self.files.events.emit(&Event::SubcompactionBegin {
                level: task_level,
                subtasks: plan.len() as u64,
                input_bytes: task_input_bytes,
                l0_files: l0_files as u64,
            });
            self.run_subcompactions(t, Arc::new(task.clone()), &version, smallest_snapshot, plan, &allocated)
        } else {
            let mut alloc = || self.alloc_compaction_output(tree, &allocated);
            let request = self.compaction_request(t, &task, &version, smallest_snapshot);
            self.with_bg_retries("compaction", || match &self.opts.compaction_executor {
                Some(executor) => {
                    // Offloaded: the remote worker resolves DEKs itself from
                    // the DEK-IDs embedded in the file metadata (§5.4).
                    let mut outcome = executor.execute(&request, &mut alloc)?;
                    // The worker opened its outputs its own way; open them
                    // here too, on the background thread, so no foreground
                    // read pays for it — and so a file this node cannot
                    // open never gets installed.
                    for (_, meta) in &mut outcome.edit.new_files {
                        meta.table = TableSlot::holding(tree.table_cache.open(meta.number)?);
                    }
                    Ok(outcome)
                }
                None => run_compaction(&tree.table_cache, &request, &mut alloc),
            })
        };

        let mut state = tree.state.lock();
        for n in task_files(&task) {
            state.busy_files.remove(&n);
        }
        // Release every allocated output number: survivors are about to
        // be pinned by the manifest, and numbers abandoned by failed
        // attempts (all of them, if the compaction failed) become plain
        // garbage GC can delete. GC cannot race: it chooses its victims
        // under this same state lock.
        for n in allocated.lock().drain(..) {
            state.pending_outputs.remove(&n);
        }
        let installed = result.and_then(|outcome| {
            self.log_and_apply(&mut state, outcome.edit.clone()).map(|()| outcome)
        });
        if installed.is_ok() {
            tree.views_changed.fetch_add(1, Ordering::SeqCst);
        }
        let micros = op.finish().as_micros() as u64;
        self.files.stats.local().compaction_micros.fetch_add(micros, Ordering::Relaxed);
        match installed {
            Ok(outcome) => {
                let outputs = outcome.edit.new_files.len() as u64;
                let stats = self.files.stats.local();
                stats.compactions.fetch_add(1, Ordering::Relaxed);
                tree.compactions.fetch_add(1, Ordering::Relaxed);
                stats.compaction_bytes_read.fetch_add(outcome.bytes_read, Ordering::Relaxed);
                stats.compaction_bytes_written.fetch_add(outcome.bytes_written, Ordering::Relaxed);
                stats.sst_files_created.fetch_add(outputs, Ordering::Relaxed);
                self.files.events.emit(&Event::CompactionEnd {
                    level: task_level,
                    bytes_read: outcome.bytes_read,
                    bytes_written: outcome.bytes_written,
                    output_files: outputs,
                    micros,
                });
                // Collect the inputs without the state lock (env and KDS
                // round trips), but before `compaction_scheduled` clears,
                // so `wait_for_background_work` returns to a collected
                // directory.
                drop(state);
                self.delete_obsolete_files(t);
                state = tree.state.lock();
            }
            Err(e) => {
                drop(state);
                self.set_bg_error("compaction", e);
                state = tree.state.lock();
            }
        }
        state.compaction_scheduled = false;
        self.maybe_schedule(t, &mut state);
        tree.work_cv.notify_all();
    }

    /// Allocates an output file number, pinning it in `pending_outputs`
    /// (against GC) and recording it in `allocated` (for exact unpinning
    /// when the compaction installs or fails).
    fn alloc_compaction_output(&self, tree: &Tree, allocated: &Mutex<Vec<u64>>) -> u64 {
        let n = {
            let mut state = tree.state.lock();
            let n = state.versions.new_file_number();
            state.pending_outputs.insert(n);
            n
        };
        allocated.lock().push(n);
        n
    }

    /// Pops and runs one queued subrange merge. Each claim token
    /// submitted to the pool redeems exactly one queue entry; the queue
    /// may already be empty if the coordinator stole the work (that is
    /// fine — the token is then a no-op and the worker moves on).
    fn run_queued_subcompaction(&self) {
        let subtask = self.sub_queue.lock().pop_front();
        if let Some(f) = subtask {
            f();
        }
    }

    /// Runs a picked merge task as `plan.len()` parallel subrange merges
    /// and stitches the results into ONE `CompactionOutcome`, so the
    /// caller installs a single atomic `VersionEdit` — readers never see
    /// a partially compacted range, exactly as in the serial path.
    ///
    /// Scheduling: subranges 1.. go onto `sub_queue` with one general-
    /// class claim token each; this thread runs subrange 0
    /// inline, then steals any still-queued subranges (tokens may be
    /// behind other work, or lost entirely at shutdown), then waits for
    /// stragglers a worker already popped. Progress never depends on a
    /// second thread existing.
    fn run_subcompactions(
        self: &Arc<Self>,
        t: usize,
        task: Arc<CompactionTask>,
        version: &Arc<Version>,
        smallest_snapshot: SequenceNumber,
        plan: Vec<SubcompactionRange>,
        allocated: &Arc<Mutex<Vec<u64>>>,
    ) -> Result<CompactionOutcome> {
        let n = plan.len();
        let results: Arc<SubrangeResults> =
            Arc::new((Mutex::new((0..n).map(|_| None).collect()), Condvar::new()));

        let mut ranges = plan.into_iter();
        let range0 = ranges.next().unwrap_or_default();
        // Pool workers do not inherit the coordinator's trace context;
        // capture it here and attach inside each queued closure so
        // subcompaction spans land under the compaction's trace.
        let tctx = trace::context();
        {
            let mut queue = self.sub_queue.lock();
            for (offset, range) in ranges.enumerate() {
                let index = offset + 1;
                let this = self.clone();
                let task = task.clone();
                let version = version.clone();
                let results = results.clone();
                let allocated = allocated.clone();
                let tctx = tctx.clone();
                queue.push_back(Box::new(move || {
                    let _trace = tctx.as_ref().map(trace::SpanContext::attach);
                    let request = this.compaction_request(t, &task, &version, smallest_snapshot);
                    this.run_one_subrange(t, index, &request, &range, &results, &allocated);
                }));
            }
        }
        for _ in 1..n {
            self.submit_job(JobClass::General, |inner| inner.run_queued_subcompaction());
        }
        let request = self.compaction_request(t, &task, version, smallest_snapshot);
        self.run_one_subrange(t, 0, &request, &range0, &results, allocated);
        // Steal whatever no worker has claimed yet.
        loop {
            let subtask = self.sub_queue.lock().pop_front();
            match subtask {
                Some(f) => f(),
                None => break,
            }
        }
        // Wait for subranges a worker popped but has not finished.
        let (slots, filled) = &*results;
        let mut slots = slots.lock();
        while slots.iter().any(Option::is_none) {
            filled.wait(&mut slots);
        }

        // Stitch in subrange order: outputs are key-disjoint and the
        // version set re-sorts each level on apply, so concatenation
        // preserves every invariant of the serial outcome. The first
        // failed subrange, in that order, fails the task.
        let mut merged =
            CompactionOutcome { bytes_read: task.input_bytes(), ..CompactionOutcome::default() };
        for out in slots.drain(..).flatten() {
            let out = out?;
            merged.bytes_written += out.bytes_written;
            merged.entries_dropped += out.entries_dropped;
            merged.edit.new_files.extend(out.edit.new_files);
        }
        // Inputs are deleted exactly once, for the task as a whole.
        append_input_deletions(&task, &mut merged.edit);
        Ok(merged)
    }

    /// Executes one subrange of a parallel compaction and publishes the
    /// result into its slot. Runs on whichever thread claimed it (a pool
    /// worker via a claim token, or the coordinator itself).
    fn run_one_subrange(
        &self,
        t: usize,
        index: usize,
        request: &CompactionRequest<'_>,
        range: &SubcompactionRange,
        results: &SubrangeResults,
        allocated: &Mutex<Vec<u64>>,
    ) {
        let tree = &self.trees[t];
        let mut op = self.op(OpKind::Subcompaction);
        op.attr("index", index as u64);
        let result = self.with_bg_retries("subcompaction", || {
            let mut alloc = || self.alloc_compaction_output(tree, allocated);
            run_compaction_range(&tree.table_cache, request, range, &mut alloc)
        });
        let micros = op.finish().as_micros() as u64;
        self.files.stats.local().subcompactions.fetch_add(1, Ordering::Relaxed);
        self.files.stats.local().subcompaction_micros.fetch_add(micros, Ordering::Relaxed);
        self.files.events.emit(&Event::SubcompactionEnd {
            index: index as u64,
            bytes_written: result.as_ref().map_or(0, |o| o.bytes_written),
            micros,
        });
        let (slots, filled) = results;
        let mut slots = slots.lock();
        slots[index] = Some(result);
        if slots.iter().all(Option::is_some) {
            filled.notify_all();
        }
    }

    /// Removes files nothing references any more: tree `t`'s
    /// compacted-away SSTs and superseded manifests, and WAL segments
    /// below every tree's log position. In SHIELD mode each deleted
    /// file's DEK is pruned from the secure cache and revoked at the KDS —
    /// this is the "old DEKs die with their files" half of key rotation
    /// (§5.2).
    ///
    /// Called **without** any state lock; they are taken, one at a time,
    /// only to choose the victims: the directory listings before and the
    /// revokes and unlinks after are env and KDS round trips (~20 for a
    /// five-input compaction on remote storage) that no `get` or commit
    /// should wait behind. A stale listing is safe — file numbers are
    /// never reused, so a name can only go from live to dead, and files
    /// created after the listing are simply not in it.
    pub(super) fn delete_obsolete_files(&self, t: usize) {
        let tree = &self.trees[t];
        struct Victim {
            path: String,
            kind: FileKind,
            sst: Option<u64>,
            dek_id: Option<shield_crypto::DekId>,
        }
        let mut listings = Vec::with_capacity(2);
        for dir in [&tree.path, &self.path] {
            // A single tree shares its directory with the WAL: one listing.
            if listings.iter().any(|(d, _)| *d == dir) {
                continue;
            }
            let Ok(names) = self.files.env.list_dir(dir) else { return };
            listings.push((dir, names));
        }
        // A segment is dead once every tree has persisted what it took
        // from it. Each tree's active memtable is tagged no later than the
        // live segment, which therefore always survives; tags only grow,
        // so reading them ahead of the victims lock errs towards keeping.
        let min_wal =
            self.trees.iter().map(|tree| tree.state.lock().oldest_wal()).min().unwrap_or(0);
        let victims: Vec<Victim> = {
            let mut guard = tree.state.lock();
            let state = &mut *guard;
            // referenced_files() (not current().live_files()): readers clone
            // the current Arc<Version> under this same lock and then read
            // SSTs lock-free, so files of superseded-but-still-pinned
            // versions must survive until the last reader drops its pin.
            let live: HashSet<u64> = state.versions.referenced_files();
            listings
                .into_iter()
                .flat_map(|(dir, names)| names.into_iter().map(move |name| (dir, name)))
                .filter_map(|(dir, name)| {
                    let in_tree = *dir == tree.path;
                    let (remove, kind, sst) = match parse_file_name(&name)? {
                        FileType::Wal(n) => (*dir == self.path && n < min_wal, FileKind::Wal, None),
                        FileType::Sst(n) => (
                            in_tree
                                && !live.contains(&n)
                                && !state.pending_outputs.contains(&n)
                                && !state.busy_files.contains(&n),
                            FileKind::Sst,
                            Some(n),
                        ),
                        FileType::Manifest(n) => (
                            in_tree && n != state.versions.manifest_number(),
                            FileKind::Manifest,
                            None,
                        ),
                        // Temp files may be mid-rename (e.g. the secure
                        // cache's atomic persist runs outside the state
                        // lock), so runtime GC must leave them alone;
                        // stale ones are harmless.
                        FileType::Temp | FileType::Current | FileType::DekCache => return None,
                    };
                    remove.then(|| Victim {
                        // A compacted-away SST's DEK id was recorded from
                        // its `FileMeta` when the edit dropped it.
                        dek_id: sst.and_then(|n| state.versions.take_obsolete_dek(n)),
                        path: shield_env::join_path(dir, &name),
                        kind,
                        sst,
                    })
                })
                .collect()
        };
        // A compacted-away SST's DEK id came with its `FileMeta`; for
        // WALs, manifests and SSTs no version ever named (leftovers of a
        // crash or a failed job) it is only in the file's own header. One
        // batch: the secure cache is persisted once, not once per file.
        let files: Vec<_> =
            victims.iter().map(|v| (v.path.as_str(), v.kind, v.dek_id)).collect();
        let unlinked = self.files.retire_many(&files);
        // An unlinked SST's table closes when the last version listing it
        // drops; nothing here holds it.
        let deleted = victims.iter().zip(unlinked).filter(|(v, gone)| v.sst.is_some() && *gone);
        let deleted = deleted.count() as u64;
        self.files.stats.local().sst_files_deleted.fetch_add(deleted, Ordering::Relaxed);
    }
}
