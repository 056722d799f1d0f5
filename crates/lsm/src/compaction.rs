//! Compaction: picking work (leveled / universal / FIFO) and executing it.
//!
//! SHIELD-relevant behavior: every compaction output file gets a **fresh
//! DEK** from the KDS (via [`TableCache::create`]), and the
//! input files' DEKs are revoked when the inputs are deleted — so routine
//! compaction *is* DEK rotation (§5.2), at zero additional I/O cost.
//! Output encryption happens in configurable-size chunks, optionally
//! multi-threaded (§5.2, Fig. 13), because the builder writes through an
//! [`crate::encryption::EncryptedWritableFile`].
//!
//! [`run_compaction`] is deliberately a free function over explicit inputs
//! so the disaggregated deployment can run it on a *different server* (the
//! offloaded-compaction case study, §5.6): all it needs is a
//! [`TableCache`] over that server's [`crate::files::FileStore`] (the
//! shared storage under its own DEK resolver) and the file metadata
//! (which carries DEK-IDs).

use std::sync::Arc;

use crate::error::Result;
use crate::iter::{InternalIterator, MergingIterator};
use crate::sst::builder::{TableBuilder, TableBuilderOptions};
use crate::types::{extract_seq_type, extract_user_key, SequenceNumber, ValueType, MAX_SEQUENCE};
use crate::version::edit::{FileMeta, VersionEdit};
use crate::version::table_cache::TableCache;
use crate::version::version::{LevelIterator, Version, NUM_LEVELS};

/// Compaction styles, mirroring RocksDB's three policies (§6.3, Fig. 15).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompactionStyle {
    /// Size-tiered levels with fanout; frequent, smaller compactions.
    #[default]
    Leveled,
    /// Universal/tiered: sorted runs accumulate in L0 and are merged
    /// wholesale; fewer, larger I/Os.
    Universal,
    /// No merging: oldest files are simply dropped once the database
    /// exceeds a size budget.
    Fifo,
}

/// Knobs the pickers need (a projection of the DB options).
#[derive(Clone, Debug)]
pub struct CompactionParams {
    /// Which picker to use.
    pub style: CompactionStyle,
    /// L0 file count that triggers compaction into L1 (leveled).
    pub l0_compaction_trigger: usize,
    /// Target size of L1; deeper levels are `fanout`× larger each.
    pub base_level_bytes: u64,
    /// Size multiplier between adjacent levels.
    pub fanout: u64,
    /// Run count that triggers a universal merge.
    pub universal_run_trigger: usize,
    /// Total-size budget for FIFO.
    pub fifo_max_bytes: u64,
    /// Cut compaction outputs at this size.
    pub target_file_size: u64,
    /// Split every merge into up to this many disjoint key subranges and
    /// run them concurrently on the background job pool. A floor: the
    /// engine also splits a merge while its tree is behind, whatever this
    /// says (1 = serial unless behind).
    pub max_subcompactions: usize,
}

impl Default for CompactionParams {
    fn default() -> Self {
        CompactionParams {
            style: CompactionStyle::Leveled,
            l0_compaction_trigger: 4,
            base_level_bytes: 8 * 1024 * 1024,
            fanout: 10,
            universal_run_trigger: 8,
            fifo_max_bytes: 64 * 1024 * 1024,
            target_file_size: 2 * 1024 * 1024,
            max_subcompactions: 1,
        }
    }
}

/// One disjoint key subrange of a merge task: user keys in
/// `[lower, upper)`, with `None` meaning unbounded on that side.
///
/// Bounds are always **user keys** (never internal keys), so every
/// version of a user key lands in exactly one subrange — the per-key
/// shadowing/tombstone state in [`run_compaction_range`] resets at key
/// changes and would mis-drop entries if a key straddled two ranges.
#[derive(Clone, Debug, Default)]
pub struct SubcompactionRange {
    /// Inclusive lower bound on user keys (`None` = from the start).
    pub lower: Option<Vec<u8>>,
    /// Exclusive upper bound on user keys (`None` = to the end).
    pub upper: Option<Vec<u8>>,
}

impl SubcompactionRange {
    /// The unbounded range covering the whole task.
    #[must_use]
    pub fn full() -> Self {
        SubcompactionRange::default()
    }
}

/// Splits a merge task into up to `max_subcompactions` byte-balanced,
/// key-disjoint subranges using the input SSTs' index blocks.
///
/// Every index entry of every input file contributes a
/// `(last user key of block, block bytes)` span; boundaries are placed
/// where the running byte total crosses an even stripe of the task's
/// total bytes. Planning is best-effort: any error opening an input (or
/// a task too small to split) degrades to a single full-range plan,
/// which is always correct.
#[must_use]
pub fn plan_subcompactions(
    table_cache: &Arc<TableCache>,
    task: &CompactionTask,
    max_subcompactions: usize,
) -> Vec<SubcompactionRange> {
    let single = vec![SubcompactionRange::full()];
    let CompactionTask::Merge { inputs, overlaps, .. } = task else {
        return single;
    };
    if max_subcompactions <= 1 {
        return single;
    }
    let mut spans: Vec<(Vec<u8>, u64)> = Vec::new();
    for meta in inputs.iter().chain(overlaps.iter()) {
        let table = match table_cache.get(meta.number) {
            Ok(t) => t,
            Err(_) => return single,
        };
        match table.index_spans() {
            Ok(s) => spans.extend(s),
            Err(_) => return single,
        }
    }
    if spans.len() < 2 {
        return single;
    }
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    let total: u64 = spans.iter().map(|(_, bytes)| bytes).sum();
    let want = max_subcompactions.min(spans.len());
    let stripe = (total / want as u64).max(1);

    // Walk the spans in key order and cut a boundary each time a stripe
    // of bytes has accumulated. Candidate boundaries are the spans' user
    // keys; requiring each new boundary to be *strictly greater* than
    // the last collapses duplicate candidates (many versions / many
    // blocks of one hot user key), so no user key is ever split.
    let mut boundaries: Vec<Vec<u8>> = Vec::new();
    let mut acc = 0u64;
    for (key, bytes) in &spans {
        if boundaries.len() + 1 >= want {
            break;
        }
        acc += bytes;
        if acc >= stripe && boundaries.last().is_none_or(|b| b.as_slice() < key.as_slice()) {
            boundaries.push(key.clone());
            acc = 0;
        }
    }
    if boundaries.is_empty() {
        return single;
    }
    let mut ranges = Vec::with_capacity(boundaries.len() + 1);
    let mut lower: Option<Vec<u8>> = None;
    for b in boundaries {
        ranges.push(SubcompactionRange { lower: lower.take(), upper: Some(b.clone()) });
        lower = Some(b);
    }
    ranges.push(SubcompactionRange { lower, upper: None });
    ranges
}

/// A unit of compaction work.
#[derive(Debug, Clone)]
pub enum CompactionTask {
    /// Merge `inputs` (at `input_level`) with `overlaps` (at
    /// `output_level`) into new files at `output_level`.
    Merge {
        /// Level the inputs come from.
        input_level: usize,
        /// Level outputs land at.
        output_level: usize,
        /// Files from `input_level`.
        inputs: Vec<Arc<FileMeta>>,
        /// Overlapping files from `output_level`.
        overlaps: Vec<Arc<FileMeta>>,
    },
    /// FIFO: drop these files outright, no merging.
    FifoTrim {
        /// Oldest files to delete.
        files: Vec<Arc<FileMeta>>,
    },
}

impl CompactionTask {
    /// Total input bytes this task will read (0 for FIFO trims).
    #[must_use]
    pub fn input_bytes(&self) -> u64 {
        match self {
            CompactionTask::Merge { inputs, overlaps, .. } => inputs
                .iter()
                .chain(overlaps.iter())
                .map(|f| f.file_size)
                .sum(),
            CompactionTask::FifoTrim { .. } => 0,
        }
    }
}

/// Chooses the next compaction, if any is warranted.
#[must_use]
pub fn pick_compaction(version: &Version, params: &CompactionParams) -> Option<CompactionTask> {
    match params.style {
        CompactionStyle::Leveled => pick_leveled(version, params),
        CompactionStyle::Universal => pick_universal(version, params),
        CompactionStyle::Fifo => pick_fifo(version, params),
    }
}

fn pick_leveled(version: &Version, params: &CompactionParams) -> Option<CompactionTask> {
    // Score every level; compact the worst offender.
    let mut best: Option<(f64, usize)> = None;
    let l0_score = version.level_files(0) as f64 / params.l0_compaction_trigger as f64;
    if l0_score >= 1.0 {
        best = Some((l0_score, 0));
    }
    let mut target = params.base_level_bytes;
    for level in 1..NUM_LEVELS - 1 {
        let score = version.level_size(level) as f64 / target as f64;
        if score >= 1.0 && best.is_none_or(|(s, _)| score > s) {
            best = Some((score, level));
        }
        target = target.saturating_mul(params.fanout);
    }
    let (_, level) = best?;
    let inputs: Vec<Arc<FileMeta>> = if level == 0 {
        // All L0 files: they overlap each other, so take the lot.
        version.files[0].clone()
    } else {
        // Always the level's first file, the one with the smallest keys:
        // no rotation, no overlap scoring. Under a uniform fill that
        // leaves the deep levels range-partitioned (almost no key lives
        // in both L2 and L3: `fill.space_amp` 1.011) and pays for it in
        // merges that overlap more (`db.write_amp` 11). A min-overlap
        // pick makes the opposite trade; it was measured and not taken
        // (DESIGN.md §4f, "What decides `fill`").
        vec![version.files[level].first()?.clone()]
    };
    if inputs.is_empty() {
        return None;
    }
    let smallest = inputs.iter().map(|f| f.smallest_user_key().to_vec()).min()?;
    let largest = inputs.iter().map(|f| f.largest_user_key().to_vec()).max()?;
    let output_level = level + 1;
    let overlaps = version.overlapping_files(output_level, Some(&smallest), Some(&largest));
    Some(CompactionTask::Merge { input_level: level, output_level, inputs, overlaps })
}

fn pick_universal(version: &Version, params: &CompactionParams) -> Option<CompactionTask> {
    // Runs accumulate in L0; merge all of them once the trigger is hit.
    let runs = version.level_files(0);
    if runs < params.universal_run_trigger.max(2) {
        return None;
    }
    // A full merge may split its output into several files when the data
    // exceeds `target_file_size`; those files are key-disjoint (outputs
    // are cut at user-key boundaries) and together form ONE sorted run.
    // Re-merging a single run reproduces its own input, so the picker
    // would fire again on the identical file set and the engine would
    // recompact the same data forever. Only fire when L0 really holds
    // more than one run, i.e. some pair of files overlaps.
    let mut files: Vec<&Arc<FileMeta>> = version.files[0].iter().collect();
    files.sort_by(|a, b| a.smallest_user_key().cmp(b.smallest_user_key()));
    let single_sorted_run =
        files.windows(2).all(|w| w[0].largest_user_key() < w[1].smallest_user_key());
    if single_sorted_run {
        return None;
    }
    Some(CompactionTask::Merge {
        input_level: 0,
        output_level: 0,
        inputs: version.files[0].clone(),
        overlaps: Vec::new(),
    })
}

fn pick_fifo(version: &Version, params: &CompactionParams) -> Option<CompactionTask> {
    let total = version.level_size(0);
    if total <= params.fifo_max_bytes {
        return None;
    }
    // Oldest files first (L0 is sorted newest-first).
    let mut excess = total - params.fifo_max_bytes;
    let mut victims = Vec::new();
    for meta in version.files[0].iter().rev() {
        if excess == 0 {
            break;
        }
        victims.push(meta.clone());
        excess = excess.saturating_sub(meta.file_size);
    }
    if victims.is_empty() {
        None
    } else {
        Some(CompactionTask::FifoTrim { files: victims })
    }
}

/// A pluggable compaction backend. The default (in-process) executor runs
/// [`run_compaction`] on the database's own threads; a disaggregated
/// deployment installs an offloaded executor that runs the same function
/// on the storage server, with its *own* server identity, DEK resolver,
/// and secure cache — resolving input DEKs purely from the DEK-IDs in the
/// file metadata (paper §5.4, §5.6).
pub trait CompactionExecutor: Send + Sync {
    /// Executes `task`, allocating output file numbers via `alloc`.
    fn execute(
        &self,
        request: &CompactionRequest<'_>,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<CompactionOutcome>;
}

/// What the engine hands to a [`CompactionExecutor`].
pub struct CompactionRequest<'a> {
    /// Database directory on the shared storage.
    pub db_path: &'a str,
    /// The work to do (file metadata carries the DEK-IDs).
    pub task: &'a CompactionTask,
    /// Version the task was picked against.
    pub version: &'a Version,
    /// Oldest sequence any snapshot can still read.
    pub smallest_snapshot: SequenceNumber,
    /// SST construction knobs; the executor's own file layer decides each
    /// output's DEK and tag key.
    pub table_options: TableBuilderOptions,
    /// Output file size cap.
    pub target_file_size: u64,
}

/// Everything [`run_compaction`] needs, bundled so remote compactors can
/// construct it from shared state.
pub struct CompactionContext<'a> {
    /// The tree's tables as the *executing* server sees them: opens the
    /// inputs, creates the outputs.
    pub table_cache: &'a Arc<TableCache>,
    /// The version the task was picked against (for tombstone elision).
    pub version: &'a Version,
    /// Oldest sequence any snapshot can still read; `MAX_SEQUENCE` if none.
    pub smallest_snapshot: SequenceNumber,
    /// SST construction knobs (`dek_id` and `mac_key` are set per output).
    pub table_options: TableBuilderOptions,
    /// Cut outputs at this size.
    pub target_file_size: u64,
    /// Allocator for output file numbers.
    pub next_file_number: &'a mut dyn FnMut() -> u64,
}

/// What a compaction produced.
#[derive(Debug, Default)]
pub struct CompactionOutcome {
    /// The edit to apply: inputs deleted, outputs added.
    pub edit: VersionEdit,
    /// Bytes read from inputs.
    pub bytes_read: u64,
    /// Bytes written to outputs.
    pub bytes_written: u64,
    /// Entries dropped as shadowed or tombstone-elided.
    pub entries_dropped: u64,
    /// Output files created.
    pub outputs: usize,
}

/// True if no level strictly below `level` can hold `user_key` — the
/// condition for safely dropping an old tombstone.
fn is_base_level_for_key(version: &Version, level: usize, user_key: &[u8]) -> bool {
    // Deeper levels are ≥ 1, so sorted and disjoint: one candidate file
    // each, found as `Version::get_opt` finds it.
    version.files[level + 1..].iter().all(|files| {
        let idx = files.partition_point(|f| f.largest_user_key() < user_key);
        files.get(idx).is_none_or(|f| user_key < f.smallest_user_key())
    })
}

/// Executes a merge task: reads inputs, drops shadowed/obsolete entries,
/// writes outputs (each under a fresh DEK when encryption is on).
pub fn run_compaction(
    ctx: &mut CompactionContext<'_>,
    task: &CompactionTask,
) -> Result<CompactionOutcome> {
    let mut outcome = run_compaction_range(ctx, task, &SubcompactionRange::full())?;
    outcome.bytes_read = task.input_bytes();
    append_input_deletions(task, &mut outcome.edit);
    Ok(outcome)
}

/// Records the task's input files as deleted in `edit`. Split out of
/// [`run_compaction_range`] so a parallel run can stitch N subrange
/// outcomes into one edit and delete each input exactly once.
pub fn append_input_deletions(task: &CompactionTask, edit: &mut VersionEdit) {
    match task {
        CompactionTask::Merge { input_level, output_level, inputs, overlaps } => {
            for meta in inputs {
                edit.deleted_files.push((*input_level as u32, meta.number));
            }
            for meta in overlaps {
                edit.deleted_files.push((*output_level as u32, meta.number));
            }
        }
        CompactionTask::FifoTrim { files } => {
            for f in files {
                edit.deleted_files.push((0, f.number));
            }
        }
    }
}

/// Executes the slice of a merge task whose user keys fall in `range`.
///
/// The returned outcome carries only the **output** side of the edit
/// (new files); input deletions are appended by the caller via
/// [`append_input_deletions`] — once per task, not once per subrange.
/// `bytes_read` is likewise left at 0 (a subrange cannot attribute input
/// bytes precisely); [`run_compaction`] fills it for the whole task.
///
/// Because range bounds are user keys, all versions of any user key are
/// processed by exactly one call, so shadowed-version dropping and
/// snapshot-aware tombstone elision behave identically to a serial run.
pub fn run_compaction_range(
    ctx: &mut CompactionContext<'_>,
    task: &CompactionTask,
    range: &SubcompactionRange,
) -> Result<CompactionOutcome> {
    let CompactionTask::Merge { input_level, output_level, inputs, overlaps } = task else {
        // FIFO trims delete files without reading them; the caller's
        // `append_input_deletions` records the drops.
        return Ok(CompactionOutcome::default());
    };

    let perf_start = shield_core::perf::timer();
    let mut outcome = CompactionOutcome::default();

    // Build the merged input stream from streaming scanners: every input
    // block is read once, in file order, around the block cache. Inputs
    // from L0 (or a universal run set) must be one scanner per file,
    // newest first; sorted levels concatenate.
    let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
    if *input_level == 0 {
        for meta in inputs {
            children.push(Box::new(ctx.table_cache.get(meta.number)?.scan()));
        }
    } else if !inputs.is_empty() {
        children.push(Box::new(LevelIterator::scanning(inputs.clone(), ctx.table_cache.clone())));
    }
    if !overlaps.is_empty() {
        children.push(Box::new(LevelIterator::scanning(overlaps.clone(), ctx.table_cache.clone())));
    }
    let mut merged = MergingIterator::new(children);
    match &range.lower {
        // Seek to the *first* version of the lower-bound user key:
        // `MAX_SEQUENCE` sorts before every real sequence number.
        Some(lower) => merged.seek(&crate::types::make_internal_key(
            lower,
            MAX_SEQUENCE,
            ValueType::Value,
        )),
        None => merged.seek_to_first(),
    }

    let mut builder: Option<(u64, TableBuilder)> = None;
    // The user key whose versions are being processed; one buffer for the
    // whole merge (empty-and-unset is told apart by `have_user_key`, since
    // the empty key is a legal user key).
    let mut current_user_key: Vec<u8> = Vec::new();
    let mut have_user_key = false;
    let mut last_seq_for_key: SequenceNumber = MAX_SEQUENCE;

    let table_cache = ctx.table_cache;
    let finish_output = |builder: Option<(u64, TableBuilder)>,
                         outcome: &mut CompactionOutcome|
     -> Result<()> {
        if let Some((number, b)) = builder {
            if b.num_entries() > 0 {
                let (props, size) = b.finish()?;
                // Open the output here, on the background thread: it
                // checks the file is readable before the edit installs it,
                // and the first foreground read of it finds the table
                // (header, footer, index, filter) already resident.
                table_cache.get(number)?;
                outcome.bytes_written += size;
                outcome.outputs += 1;
                outcome.edit.new_files.push((
                    *output_level as u32,
                    FileMeta {
                        number,
                        file_size: size,
                        smallest: crate::types::make_internal_key(
                            &props.smallest_user_key,
                            MAX_SEQUENCE,
                            ValueType::Value,
                        ),
                        largest: crate::types::make_internal_key(
                            &props.largest_user_key,
                            0,
                            ValueType::Deletion,
                        ),
                        dek_id: props.dek_id,
                    },
                ));
            }
        }
        Ok(())
    };

    while merged.valid() {
        let ikey = merged.key();
        let user_key = extract_user_key(ikey);
        if let Some(upper) = &range.upper {
            if user_key >= upper.as_slice() {
                // End of this subrange; keys past `upper` belong to the
                // next subcompaction.
                break;
            }
        }
        let (seq, vtype) = extract_seq_type(ikey);

        // Reset per-key tracking on key change.
        if !have_user_key || current_user_key != user_key {
            current_user_key.clear();
            current_user_key.extend_from_slice(user_key);
            have_user_key = true;
            last_seq_for_key = MAX_SEQUENCE;
        }

        let mut drop = false;
        if last_seq_for_key != MAX_SEQUENCE && last_seq_for_key <= ctx.smallest_snapshot {
            // A newer version of this key is already visible at every
            // snapshot: this one is pure history.
            drop = true;
        } else if vtype == Some(ValueType::Deletion)
            && seq <= ctx.smallest_snapshot
            && is_base_level_for_key(ctx.version, *output_level, user_key)
        {
            // Tombstone with nothing underneath to shadow: elide it.
            drop = true;
        }
        last_seq_for_key = seq;

        if drop {
            outcome.entries_dropped += 1;
        } else {
            if builder.is_none() {
                let number = (ctx.next_file_number)();
                let (file, dek_id, mac_key) = ctx.table_cache.create(number)?;
                let opts = TableBuilderOptions { dek_id, mac_key, ..ctx.table_options.clone() };
                builder = Some((number, TableBuilder::new(file, opts)));
            }
            let (_, b) = builder.as_mut().unwrap();
            b.add(ikey, merged.value())?;
            // Cut outputs only at user-key boundaries so one key's
            // versions never straddle two files: advance, peek at the next
            // key, and finish the output if the key changed.
            if b.file_size() >= ctx.target_file_size {
                merged.next();
                let key_changes =
                    !merged.valid() || extract_user_key(merged.key()) != current_user_key;
                if key_changes {
                    let b = builder.take();
                    finish_output(b, &mut outcome)?;
                }
                continue;
            }
        }
        merged.next();
    }
    merged.status()?;
    finish_output(builder.take(), &mut outcome)?;
    shield_core::perf::add_elapsed(shield_core::PerfMetric::Subcompaction, perf_start);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileStore;
    use crate::types::make_internal_key;
    use crate::version::filenames::sst_file_name;
    use shield_env::{FileKind, MemEnv};

    fn meta_with(number: u64, lo: &str, hi: &str, size: u64) -> Arc<FileMeta> {
        Arc::new(FileMeta {
            number,
            file_size: size,
            smallest: make_internal_key(lo.as_bytes(), 1, ValueType::Value),
            largest: make_internal_key(hi.as_bytes(), 1, ValueType::Value),
            dek_id: None,
        })
    }

    #[test]
    fn leveled_triggers_on_l0_count() {
        let params = CompactionParams { l0_compaction_trigger: 4, ..CompactionParams::default() };
        let mut v = Version::new();
        for n in 1..=3 {
            v.files[0].push(meta_with(n, "a", "z", 100));
        }
        assert!(pick_compaction(&v, &params).is_none());
        v.files[0].push(meta_with(4, "a", "z", 100));
        let task = pick_compaction(&v, &params).unwrap();
        match task {
            CompactionTask::Merge { input_level, output_level, inputs, .. } => {
                assert_eq!(input_level, 0);
                assert_eq!(output_level, 1);
                assert_eq!(inputs.len(), 4);
            }
            CompactionTask::FifoTrim { .. } => panic!("expected merge"),
        }
    }

    #[test]
    fn leveled_triggers_on_level_size() {
        let params = CompactionParams {
            base_level_bytes: 1000,
            fanout: 10,
            ..CompactionParams::default()
        };
        let mut v = Version::new();
        v.files[1].push(meta_with(1, "a", "m", 600));
        v.files[1].push(meta_with(2, "n", "z", 600));
        v.files[2].push(meta_with(3, "k", "p", 100));
        let task = pick_compaction(&v, &params).unwrap();
        match task {
            CompactionTask::Merge { input_level, output_level, inputs, overlaps } => {
                assert_eq!((input_level, output_level), (1, 2));
                assert_eq!(inputs.len(), 1);
                assert_eq!(inputs[0].number, 1); // smallest-key file
                assert_eq!(overlaps.len(), 1); // "k..p" overlaps "a..m"
            }
            CompactionTask::FifoTrim { .. } => panic!("expected merge"),
        }
    }

    #[test]
    fn universal_merges_all_runs() {
        let params = CompactionParams {
            style: CompactionStyle::Universal,
            universal_run_trigger: 3,
            ..CompactionParams::default()
        };
        let mut v = Version::new();
        for n in 1..=2 {
            v.files[0].push(meta_with(n, "a", "z", 100));
        }
        assert!(pick_compaction(&v, &params).is_none());
        v.files[0].push(meta_with(3, "a", "z", 100));
        match pick_compaction(&v, &params).unwrap() {
            CompactionTask::Merge { input_level, output_level, inputs, overlaps } => {
                assert_eq!((input_level, output_level), (0, 0));
                assert_eq!(inputs.len(), 3);
                assert!(overlaps.is_empty());
            }
            CompactionTask::FifoTrim { .. } => panic!("expected merge"),
        }
    }

    #[test]
    fn universal_does_not_remerge_a_single_sorted_run() {
        // Regression: a full merge whose output split into >= trigger
        // key-disjoint files must NOT be picked again — re-merging a
        // single sorted run reproduces its own input and the engine
        // would recompact the same data forever (livelocking
        // `wait_for_background_work`).
        let params = CompactionParams {
            style: CompactionStyle::Universal,
            universal_run_trigger: 3,
            ..CompactionParams::default()
        };
        let mut v = Version::new();
        v.files[0] = vec![
            meta_with(3, "q", "z", 100),
            meta_with(2, "i", "p", 100),
            meta_with(1, "a", "h", 100),
        ];
        assert!(pick_compaction(&v, &params).is_none());
        // A new flushed run overlapping the merged one re-arms the picker.
        v.files[0].insert(0, meta_with(4, "c", "f", 100));
        match pick_compaction(&v, &params).unwrap() {
            CompactionTask::Merge { inputs, .. } => assert_eq!(inputs.len(), 4),
            CompactionTask::FifoTrim { .. } => panic!("expected merge"),
        }
    }

    #[test]
    fn fifo_trims_oldest() {
        let params = CompactionParams {
            style: CompactionStyle::Fifo,
            fifo_max_bytes: 250,
            ..CompactionParams::default()
        };
        let mut v = Version::new();
        // Newest first: numbers 3, 2, 1 (oldest is 1).
        v.files[0] = vec![
            meta_with(3, "a", "z", 100),
            meta_with(2, "a", "z", 100),
            meta_with(1, "a", "z", 100),
        ];
        match pick_compaction(&v, &params).unwrap() {
            CompactionTask::FifoTrim { files } => {
                assert_eq!(files.len(), 1);
                assert_eq!(files[0].number, 1);
            }
            CompactionTask::Merge { .. } => panic!("expected trim"),
        }
    }

    /// The binary search over a sorted level answers exactly what a scan
    /// of every file of every deeper level answers.
    #[test]
    fn base_level_lookup_matches_the_linear_scan() {
        let linear = |version: &Version, level: usize, key: &[u8]| {
            !version.files[level + 1..].iter().flatten().any(|f| {
                key >= f.smallest_user_key() && key <= f.largest_user_key()
            })
        };
        let name = |i: u32| format!("k{i:04}");
        // xorshift: a generated version per seed, same everywhere.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(bound)) as u32
        };
        for _ in 0..50 {
            let mut v = Version::new();
            let mut number = 0;
            for level in 1..NUM_LEVELS {
                // Some levels stay empty; the others hold disjoint files
                // with gaps between them, sorted by key.
                let mut lo = 10 + next(40);
                for _ in 0..next(6) {
                    let hi = lo + next(30);
                    number += 1;
                    v.files[level].push(meta_with(number, &name(lo), &name(hi), 100));
                    lo = hi + 1 + next(30);
                }
            }
            // Every key from below the first file to above the last:
            // inside files, on their bounds, in the gaps.
            for level in 0..NUM_LEVELS {
                for i in 0..400 {
                    let key = name(i);
                    assert_eq!(
                        is_base_level_for_key(&v, level, key.as_bytes()),
                        linear(&v, level, key.as_bytes()),
                        "level {level}, key {key}, version {:?}",
                        v.files.iter().map(Vec::len).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    /// End-to-end merge: build two real overlapping L0 tables, compact,
    /// verify the output drops shadowed versions and tombstones.
    #[test]
    fn merge_drops_shadowed_and_tombstones() {
        use crate::sst::builder::TableBuilder;
        use shield_env::Env;

        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let files = FileStore::new(env.clone(), None, crate::IntegrityOptions::default());
        let tc = TableCache::new(files, "db".into(), None, 8, 0);

        // File 1 (older): a=1@5, b=1@6, c=1@7
        // File 2 (newer): a=2@10, b deleted @11
        let mk_table = |number: u64, entries: &[(&str, u64, ValueType, &str)]| {
            let path = shield_env::join_path("db", &sst_file_name(number));
            let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
            let mut b = TableBuilder::new(file, TableBuilderOptions::default());
            for (k, seq, t, v) in entries {
                b.add(&make_internal_key(k.as_bytes(), *seq, *t), v.as_bytes()).unwrap();
            }
            let (props, size) = b.finish().unwrap();
            Arc::new(FileMeta {
                number,
                file_size: size,
                smallest: make_internal_key(&props.smallest_user_key, MAX_SEQUENCE, ValueType::Value),
                largest: make_internal_key(&props.largest_user_key, 0, ValueType::Deletion),
                dek_id: None,
            })
        };
        let old = mk_table(
            1,
            &[
                ("a", 5, ValueType::Value, "a1"),
                ("b", 6, ValueType::Value, "b1"),
                ("c", 7, ValueType::Value, "c1"),
            ],
        );
        let new = mk_table(
            2,
            &[("a", 10, ValueType::Value, "a2"), ("b", 11, ValueType::Deletion, "")],
        );
        let mut version = Version::new();
        version.files[0] = vec![new.clone(), old.clone()];

        let task = CompactionTask::Merge {
            input_level: 0,
            output_level: 1,
            inputs: vec![new, old],
            overlaps: vec![],
        };
        let mut next = 10u64;
        let mut alloc = || {
            next += 1;
            next
        };
        let mut ctx = CompactionContext {
            table_cache: &tc,
            version: &version,
            smallest_snapshot: MAX_SEQUENCE,
            table_options: TableBuilderOptions::default(),
            target_file_size: 1 << 20,
            next_file_number: &mut alloc,
        };
        let outcome = run_compaction(&mut ctx, &task).unwrap();
        assert_eq!(outcome.outputs, 1);
        // a@5 shadowed, b@6 shadowed, b-tombstone elided (base level).
        assert_eq!(outcome.entries_dropped, 3);
        assert_eq!(outcome.edit.deleted_files.len(), 2);
        let (level, out_meta) = &outcome.edit.new_files[0];
        assert_eq!(*level, 1);
        // The output holds exactly a@10 and c@7.
        let table = tc.get(out_meta.number).unwrap();
        assert_eq!(table.properties().num_entries, 2);
        assert_eq!(table.get(b"a", 100).unwrap().unwrap().1, b"a2");
        assert!(table.get(b"b", 100).unwrap().is_none());
        assert_eq!(table.get(b"c", 100).unwrap().unwrap().1, b"c1");
    }

    /// Snapshots must preserve versions still visible to them.
    #[test]
    fn merge_respects_snapshots() {
        use crate::sst::builder::TableBuilder;
        use shield_env::Env;

        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let files = FileStore::new(env.clone(), None, crate::IntegrityOptions::default());
        let tc = TableCache::new(files, "db".into(), None, 8, 0);
        let path = shield_env::join_path("db", &sst_file_name(1));
        let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        b.add(&make_internal_key(b"k", 10, ValueType::Value), b"v10").unwrap();
        b.add(&make_internal_key(b"k", 4, ValueType::Value), b"v4").unwrap();
        let (_, size) = b.finish().unwrap();
        let meta = Arc::new(FileMeta {
            number: 1,
            file_size: size,
            smallest: make_internal_key(b"k", MAX_SEQUENCE, ValueType::Value),
            largest: make_internal_key(b"k", 0, ValueType::Deletion),
            dek_id: None,
        });
        let mut version = Version::new();
        version.files[0] = vec![meta.clone()];
        let task = CompactionTask::Merge {
            input_level: 0,
            output_level: 1,
            inputs: vec![meta],
            overlaps: vec![],
        };
        let mut next = 10u64;
        let mut alloc = || {
            next += 1;
            next
        };
        // A snapshot at seq 5 still needs v4.
        let mut ctx = CompactionContext {
            table_cache: &tc,
            version: &version,
            smallest_snapshot: 5,
            table_options: TableBuilderOptions::default(),
            target_file_size: 1 << 20,
            next_file_number: &mut alloc,
        };
        let outcome = run_compaction(&mut ctx, &task).unwrap();
        assert_eq!(outcome.entries_dropped, 0);
        let table = tc.get(outcome.edit.new_files[0].1.number).unwrap();
        assert_eq!(table.properties().num_entries, 2);
    }
}
