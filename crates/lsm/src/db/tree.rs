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
    run_compaction_range, CompactionContext, CompactionOutcome, CompactionTask,
    SubcompactionRange,
};
use crate::db::db::DbInner;
use crate::db::pool::JobClass;
use crate::db::read::ReadView;
use crate::error::{Error, Result, Severity};
use crate::iter::InternalIterator;
use crate::memtable::MemTable;
use crate::sst::builder::{TableBuilder, TableBuilderOptions};
use crate::types::{make_internal_key, SequenceNumber, ValueType, MAX_SEQUENCE};
use crate::version::edit::{FileMeta, VersionEdit};
use crate::version::filenames::{parse_file_name, FileType};
use crate::version::table_cache::TableCache;
use crate::version::version::Version;
use crate::version::VersionSet;

/// A queued subrange merge of an in-flight parallel compaction.
pub(super) type Subtask = Box<dyn FnOnce() + Send>;

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
        }
    }

    /// Pins what one read of this tree operates on, under a single
    /// `state` lock acquisition.
    pub fn read_view(&self, seq: SequenceNumber) -> ReadView {
        let state = self.state.lock();
        ReadView {
            mem: state.mem.clone(),
            imm: state.imm.clone(),
            version: state.versions.current(),
            seq,
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

    /// Builds an L0 table of tree `t` from a memtable. Runs without the
    /// state lock.
    pub(super) fn write_level0_table(
        &self,
        tree: &Tree,
        mem: &MemTable,
        number: u64,
    ) -> Result<FileMeta> {
        let (file, dek_id, mac_key) = tree.table_cache.create(number)?;
        let opts = TableBuilderOptions { dek_id, mac_key, ..self.table_options() };
        let mut builder = TableBuilder::new(file, opts);
        let mut it = mem.iter();
        it.seek_to_first();
        while it.valid() {
            builder.add(it.key(), it.value())?;
            InternalIterator::next(&mut it);
        }
        let (props, size) = builder.finish()?;
        // Open the new table on this (background) thread before the edit
        // installs it: the file is checked readable, and the first `get`
        // that reaches it does not pay for header, footer, index, filter
        // and properties — six to seven round trips on remote storage.
        tree.table_cache.get(number)?;
        self.files.stats.flush_bytes.fetch_add(size, Ordering::Relaxed);
        self.files.stats.sst_files_created.fetch_add(1, Ordering::Relaxed);
        Ok(FileMeta {
            number,
            file_size: size,
            smallest: make_internal_key(&props.smallest_user_key, MAX_SEQUENCE, ValueType::Value),
            largest: make_internal_key(&props.largest_user_key, 0, ValueType::Deletion),
            dek_id: props.dek_id,
        })
    }

    /// Builder options without a file's identity: the site that creates an
    /// output fills in its DEK id and tag key from the [`FileStore`].
    fn table_options(&self) -> TableBuilderOptions {
        TableBuilderOptions {
            block_size: self.opts.block_size,
            restart_interval: self.opts.restart_interval,
            bloom_bits_per_key: self.opts.bloom_bits_per_key,
            ..TableBuilderOptions::default()
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
                    self.files.stats.bg_retries.fetch_add(1, Ordering::Relaxed);
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
            let _trace = self.traced_op("flush");
            self.files.events.emit(&Event::FlushBegin { immutables });
            let flush_start = std::time::Instant::now();
            let result = if mem.is_empty() {
                Ok(None)
            } else {
                // A fresh writable open truncates any partial output from
                // the failed attempt, so retrying with the same file
                // number is safe.
                self.with_bg_retries("flush", || self.write_level0_table(tree, &mem, number))
                    .map(Some)
            };
            self.op_hists.flush.record_elapsed(flush_start);
            let mut state = tree.state.lock();
            state.pending_outputs.remove(&number);
            let installed = result.and_then(|meta| {
                // The WAL this tree needs going forward is the one behind
                // its next-oldest memtable.
                let min_wal = state.imm.get(1).unwrap_or(&state.mem).wal_number();
                let mut edit = VersionEdit { log_number: Some(min_wal), ..VersionEdit::default() };
                let output = meta.as_ref().map_or((0, 0), |m| (m.number, m.file_size));
                if let Some(meta) = meta {
                    edit.new_files.push((0, meta));
                }
                self.log_and_apply(&mut state, edit).map(|()| output)
            });
            match installed {
                Ok((file_number, bytes)) => {
                    state.imm.remove(0);
                    self.files.stats.flushes.fetch_add(1, Ordering::Relaxed);
                    tree.flushes.fetch_add(1, Ordering::Relaxed);
                    self.files.events.emit(&Event::FlushEnd {
                        file_number,
                        bytes,
                        micros: flush_start.elapsed().as_micros() as u64,
                    });
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
        let _trace = self.traced_op("compaction");
        self.files.events.emit(&Event::CompactionBegin {
            level: task_level,
            inputs: task_inputs,
            input_bytes: task_input_bytes,
        });

        let table_options = self.table_options();
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
        let exec_start = std::time::Instant::now();
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
            self.run_subcompactions(
                t,
                Arc::new(task.clone()),
                &version,
                smallest_snapshot,
                &table_options,
                plan,
                &allocated,
            )
        } else {
            let mut alloc = || self.alloc_compaction_output(tree, &allocated);
            self.with_bg_retries("compaction", || match &self.opts.compaction_executor {
                Some(executor) => {
                    // Offloaded: the remote worker resolves DEKs itself from
                    // the DEK-IDs embedded in the file metadata (§5.4).
                    let request = crate::compaction::CompactionRequest {
                        db_path: &tree.path,
                        task: &task,
                        version: &version,
                        smallest_snapshot,
                        table_options: table_options.clone(),
                        target_file_size: self.opts.compaction.target_file_size,
                    };
                    let outcome = executor.execute(&request, &mut alloc)?;
                    // The worker opened its outputs in *its* table cache;
                    // open them in ours too, here on the background
                    // thread, so no foreground read pays for it — and so a
                    // file this node cannot open never gets installed.
                    for (_, meta) in &outcome.edit.new_files {
                        tree.table_cache.get(meta.number)?;
                    }
                    Ok(outcome)
                }
                None => {
                    let mut ctx = CompactionContext {
                        table_cache: &tree.table_cache,
                        version: &version,
                        smallest_snapshot,
                        table_options: table_options.clone(),
                        target_file_size: self.opts.compaction.target_file_size,
                        next_file_number: &mut alloc,
                    };
                    run_compaction(&mut ctx, &task)
                }
            })
        };
        self.files.stats
            .compaction_micros
            .fetch_add(exec_start.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.op_hists.compaction.record_elapsed(exec_start);

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
        match installed {
            Ok(outcome) => {
                self.files.stats.compactions.fetch_add(1, Ordering::Relaxed);
                tree.compactions.fetch_add(1, Ordering::Relaxed);
                self.files.stats.compaction_bytes_read.fetch_add(outcome.bytes_read, Ordering::Relaxed);
                self.files.stats
                    .compaction_bytes_written
                    .fetch_add(outcome.bytes_written, Ordering::Relaxed);
                self.files.stats.sst_files_created.fetch_add(outcome.outputs as u64, Ordering::Relaxed);
                self.files.events.emit(&Event::CompactionEnd {
                    level: task_level,
                    bytes_read: outcome.bytes_read,
                    bytes_written: outcome.bytes_written,
                    output_files: outcome.outputs as u64,
                    micros: exec_start.elapsed().as_micros() as u64,
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
    #[allow(clippy::too_many_arguments)]
    fn run_subcompactions(
        self: &Arc<Self>,
        t: usize,
        task: Arc<CompactionTask>,
        version: &Arc<Version>,
        smallest_snapshot: SequenceNumber,
        table_options: &TableBuilderOptions,
        plan: Vec<SubcompactionRange>,
        allocated: &Arc<Mutex<Vec<u64>>>,
    ) -> Result<CompactionOutcome> {
        let n = plan.len();
        let results: Arc<Mutex<Vec<Option<Result<CompactionOutcome>>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));

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
                let topts = table_options.clone();
                let results = results.clone();
                let remaining = remaining.clone();
                let allocated = allocated.clone();
                let tctx = tctx.clone();
                queue.push_back(Box::new(move || {
                    let _trace = tctx.as_ref().map(trace::SpanContext::attach);
                    this.run_one_subrange(
                        t,
                        index,
                        &task,
                        &version,
                        smallest_snapshot,
                        &topts,
                        &range,
                        &results,
                        &remaining,
                        &allocated,
                    );
                }));
            }
        }
        for _ in 1..n {
            self.submit_job(JobClass::General, |inner| inner.run_queued_subcompaction());
        }
        self.run_one_subrange(
            t,
            0,
            &task,
            version,
            smallest_snapshot,
            table_options,
            &range0,
            &results,
            &remaining,
            allocated,
        );
        // Steal whatever no worker has claimed yet.
        loop {
            let subtask = self.sub_queue.lock().pop_front();
            match subtask {
                Some(f) => f(),
                None => break,
            }
        }
        // Wait for subranges a worker popped but has not finished.
        {
            let (count, cv) = &*remaining;
            let mut left = count.lock();
            while *left > 0 {
                cv.wait(&mut left);
            }
        }

        // Stitch in subrange order: outputs are key-disjoint and the
        // version set re-sorts each level on apply, so concatenation
        // preserves every invariant of the serial outcome.
        let mut merged =
            CompactionOutcome { bytes_read: task.input_bytes(), ..CompactionOutcome::default() };
        let mut slots = results.lock();
        let mut first_err: Option<Error> = None;
        for slot in slots.iter_mut() {
            match slot.take() {
                Some(Ok(out)) => {
                    merged.bytes_written += out.bytes_written;
                    merged.entries_dropped += out.entries_dropped;
                    merged.outputs += out.outputs;
                    merged.edit.new_files.extend(out.edit.new_files);
                }
                Some(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                None => {
                    if first_err.is_none() {
                        first_err = Some(Error::Io(shield_env::EnvError::Io(
                            "subcompaction result missing".to_string(),
                        )));
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Inputs are deleted exactly once, for the task as a whole.
        append_input_deletions(&task, &mut merged.edit);
        Ok(merged)
    }

    /// Executes one subrange of a parallel compaction and publishes the
    /// result into its slot. Runs on whichever thread claimed it (a pool
    /// worker via a claim token, or the coordinator itself).
    #[allow(clippy::too_many_arguments)]
    fn run_one_subrange(
        &self,
        t: usize,
        index: usize,
        task: &CompactionTask,
        version: &Arc<Version>,
        smallest_snapshot: SequenceNumber,
        table_options: &TableBuilderOptions,
        range: &SubcompactionRange,
        results: &Mutex<Vec<Option<Result<CompactionOutcome>>>>,
        remaining: &(Mutex<usize>, Condvar),
        allocated: &Mutex<Vec<u64>>,
    ) {
        let tree = &self.trees[t];
        let start = std::time::Instant::now();
        let mut span = trace::span("subcompaction");
        span.attr("index", index as u64);
        let result = self.with_bg_retries("subcompaction", || {
            let mut alloc = || self.alloc_compaction_output(tree, allocated);
            let mut ctx = CompactionContext {
                table_cache: &tree.table_cache,
                version,
                smallest_snapshot,
                table_options: table_options.clone(),
                target_file_size: self.opts.compaction.target_file_size,
                next_file_number: &mut alloc,
            };
            run_compaction_range(&mut ctx, task, range)
        });
        let micros = start.elapsed().as_micros() as u64;
        self.files.stats.subcompactions.fetch_add(1, Ordering::Relaxed);
        self.files.stats.subcompaction_micros.fetch_add(micros, Ordering::Relaxed);
        self.op_hists.subcompaction.record_elapsed(start);
        self.files.events.emit(&Event::SubcompactionEnd {
            index: index as u64,
            bytes_written: result.as_ref().map_or(0, |o| o.bytes_written),
            micros,
        });
        results.lock()[index] = Some(result);
        let (count, cv) = remaining;
        let mut left = count.lock();
        *left -= 1;
        if *left == 0 {
            cv.notify_all();
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
        for n in victims.iter().zip(unlinked).filter_map(|(v, gone)| v.sst.filter(|_| gone)) {
            tree.table_cache.evict(n);
            self.files.stats.sst_files_deleted.fetch_add(1, Ordering::Relaxed);
        }
    }
}
