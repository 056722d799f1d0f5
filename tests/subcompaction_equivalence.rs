//! Differential correctness of parallel subcompactions.
//!
//! Two layers of evidence, both across the three encryption modes
//! (none / EncFS / SHIELD):
//!
//! 1. **Compaction-layer differential**: run the same merge task once
//!    serially (`run_compaction`) and once as planned subranges
//!    (`plan_subcompactions` + `run_compaction_range` + stitched edit),
//!    then compare the concatenated output entry streams **byte for
//!    byte** — internal keys (user key, sequence, type) and values must
//!    be identical, for random key/value/delete workloads under random
//!    snapshot horizons.
//! 2. **DB-level differential**: two engines running the identical
//!    workload, one with `max_subcompactions=1` and one with `=4`, must
//!    agree on every scan — at the latest sequence and through
//!    snapshots taken mid-workload.
//!
//! Plus the boundary regression for the user-key invariant: many
//! versions of one hot key straddling candidate boundaries must never
//! be split across subranges.
//!
//! 3. **When a merge is split** (DESIGN.md §4f): a tree whose L0 has
//!    reached the slowdown trigger splits its merges without being asked
//!    to, a tree that keeps up does not, `max_subcompactions` is a floor
//!    under both, and a one-worker pool still finishes.

mod support;

use std::sync::Arc;

use proptest::prelude::*;
use shield_env::FileKind;
use shield_lsm::compaction::{
    append_input_deletions, plan_subcompactions, run_compaction, run_compaction_range,
    CompactionContext, CompactionOutcome, CompactionTask,
};
use shield_lsm::iter::InternalIterator;
use shield_lsm::sst::builder::{TableBuilder, TableBuilderOptions};
use shield_lsm::types::{internal_key_cmp, make_internal_key, ValueType, MAX_SEQUENCE};
use shield_lsm::version::edit::{FileMeta, VersionEdit};
use shield_lsm::version::filenames::sst_file_name;
use shield_lsm::version::table_cache::TableCache;
use shield_lsm::version::version::Version;
use shield_core::{Event, EventListener};
use shield_lsm::{FileStore, Options, ReadOptions, WriteOptions};
use support::{Mode, Primary, Profile, Store, Weights, MODEL_CHECK, MODES, PRIMARY};

// ---------------------------------------------------------------------
// Compaction-layer differential
// ---------------------------------------------------------------------

/// One logical input entry: (key id, sequence, is_delete, value seed).
type Entry = (u16, u64, bool, u8);

fn user_key(id: u16) -> Vec<u8> {
    format!("key-{id:05}").into_bytes()
}

fn value_for(seed: u8, seq: u64) -> Vec<u8> {
    let len = 1 + (seed as usize % 96);
    (0..len).map(|i| seed.wrapping_add(i as u8).wrapping_add(seq as u8)).collect()
}

/// Storage + engine-side crypto for one mode. The env already encrypts
/// in EncFS mode; the engine config encrypts in SHIELD mode.
struct ModeCtx {
    files: FileStore,
    table_cache: Arc<TableCache>,
}

impl ModeCtx {
    fn new(mode: Mode) -> ModeCtx {
        let files = Store::new(mode).files_for(PRIMARY);
        files.env.create_dir_all("db").expect("mkdir");
        let table_cache = TableCache::new(files.clone(), "db".into(), None, 32, 0);
        ModeCtx { files, table_cache }
    }

    /// Builds one input SST from pre-sorted internal entries. Tiny
    /// blocks so even small inputs yield several index spans (boundary
    /// candidates).
    fn build_table(&self, number: u64, entries: &[(Vec<u8>, Vec<u8>)]) -> Arc<FileMeta> {
        let path = shield_env::join_path("db", &sst_file_name(number));
        let opts = TableBuilderOptions { block_size: 128, ..TableBuilderOptions::default() };
        let (file, dek_id, _) = self.files.create(&path, FileKind::Sst).expect("writable");
        let opts = TableBuilderOptions { dek_id, ..opts };
        let mut b = TableBuilder::new(file, opts);
        for (ikey, value) in entries {
            b.add(ikey, value).expect("add");
        }
        let (props, size) = b.finish().expect("finish");
        Arc::new(FileMeta {
            number,
            file_size: size,
            smallest: entries.first().expect("non-empty").0.clone(),
            largest: entries.last().expect("non-empty").0.clone(),
            dek_id: props.dek_id,
        })
    }
}

/// Distributes `entries` round-robin over `files` input tables, each
/// internally sorted (user key asc, seq desc) — an L0-style overlapping
/// run set — and returns the merge task plus its version.
fn build_inputs(ctx: &ModeCtx, entries: &[Entry], files: usize) -> (Version, CompactionTask) {
    let mut per_file: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); files];
    for (i, (id, seq, is_delete, seed)) in entries.iter().enumerate() {
        let (vtype, value) = if *is_delete {
            (ValueType::Deletion, Vec::new())
        } else {
            (ValueType::Value, value_for(*seed, *seq))
        };
        per_file[i % files].push((make_internal_key(&user_key(*id), *seq, vtype), value));
    }
    let mut metas = Vec::new();
    for (i, mut file_entries) in per_file.into_iter().enumerate() {
        if file_entries.is_empty() {
            continue;
        }
        file_entries.sort_by(|a, b| internal_key_cmp(&a.0, &b.0));
        metas.push(ctx.build_table(100 + i as u64, &file_entries));
    }
    let mut version = Version::new();
    version.files[0] = metas.clone();
    let task = CompactionTask::Merge {
        input_level: 0,
        output_level: 1,
        inputs: metas,
        overlaps: Vec::new(),
    };
    (version, task)
}

/// Concatenated (internal key, value) stream of an edit's outputs, in
/// file order.
fn dump_outputs(tc: &Arc<TableCache>, edit: &VersionEdit) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    for (_, meta) in &edit.new_files {
        let table = tc.get(meta.number).expect("open output");
        let mut it = table.iter();
        it.seek_to_first();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        it.status().expect("iterate output");
    }
    out
}

/// Runs the serial and the subrange-stitched compaction of the same
/// task and asserts byte-for-byte identical output streams.
fn assert_equivalent(
    ctx: &ModeCtx,
    version: &Version,
    task: &CompactionTask,
    smallest_snapshot: u64,
    max_subcompactions: usize,
) -> (usize, usize) {
    let topts = TableBuilderOptions { block_size: 128, ..TableBuilderOptions::default() };
    let target_file_size = 2 << 10; // force several outputs per run

    // Serial reference.
    let mut next = 1_000u64;
    let mut alloc = || {
        next += 1;
        next
    };
    let mut serial_ctx = CompactionContext {
        table_cache: &ctx.table_cache,
        version,
        smallest_snapshot,
        table_options: topts.clone(),
        target_file_size,
        next_file_number: &mut alloc,
    };
    let serial = run_compaction(&mut serial_ctx, task).expect("serial compaction");

    // Planned subranges, stitched exactly like `Db::run_subcompactions`.
    let plan = plan_subcompactions(&ctx.table_cache, task, max_subcompactions);
    assert!(!plan.is_empty());
    for w in plan.windows(2) {
        assert_eq!(w[0].upper, w[1].lower, "ranges must tile the keyspace");
    }
    let mut next = 2_000u64;
    let mut alloc = || {
        next += 1;
        next
    };
    let mut stitched = CompactionOutcome::default();
    for range in &plan {
        let mut range_ctx = CompactionContext {
            table_cache: &ctx.table_cache,
            version,
            smallest_snapshot,
            table_options: topts.clone(),
            target_file_size,
            next_file_number: &mut alloc,
        };
        let out = run_compaction_range(&mut range_ctx, task, range).expect("subrange");
        stitched.bytes_written += out.bytes_written;
        stitched.entries_dropped += out.entries_dropped;
        stitched.outputs += out.outputs;
        stitched.edit.new_files.extend(out.edit.new_files);
    }
    append_input_deletions(task, &mut stitched.edit);

    let serial_stream = dump_outputs(&ctx.table_cache, &serial.edit);
    let stitched_stream = dump_outputs(&ctx.table_cache, &stitched.edit);
    assert_eq!(
        serial_stream, stitched_stream,
        "subcompaction output must be key/seq/value-identical to the serial run"
    );
    assert_eq!(serial.entries_dropped, stitched.entries_dropped, "drop accounting must agree");
    assert_eq!(serial.edit.deleted_files, stitched.edit.deleted_files, "same inputs deleted");
    (plan.len(), serial_stream.len())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, max_shrink_iters: 100, ..ProptestConfig::default() })]

    /// Random overlapping inputs with overwrites, deletes, and a random
    /// snapshot horizon: planned subranges must reproduce the serial
    /// output stream exactly, in every encryption mode.
    #[test]
    fn random_workloads_merge_identically(
        ids in proptest::collection::vec(0u16..64, 40..220),
        deletes in proptest::collection::vec(any::<bool>(), 40..220),
        seeds in proptest::collection::vec(any::<u8>(), 40..220),
        files in 2usize..5,
        snapshot_sel in 0u64..4,
        max_subs in 2usize..6,
    ) {
        let n = ids.len().min(deletes.len()).min(seeds.len());
        let entries: Vec<Entry> = (0..n)
            .map(|i| (ids[i], (i as u64) + 1, deletes[i], seeds[i]))
            .collect();
        // 0 => everything visible (MAX), else a horizon inside the run.
        let smallest_snapshot = match snapshot_sel {
            0 => MAX_SEQUENCE,
            s => (n as u64 * s) / 4,
        };
        for mode in MODES {
            let ctx = ModeCtx::new(mode);
            let (version, task) = build_inputs(&ctx, &entries, files);
            assert_equivalent(&ctx, &version, &task, smallest_snapshot, max_subs);
        }
    }
}

/// Deterministic many-range check that planning actually splits (the
/// proptest above would be vacuous if every plan degenerated to one
/// range) and that splitting covers every mode.
#[test]
fn wide_workload_splits_and_merges_identically() {
    let entries: Vec<Entry> =
        (0..600u64).map(|i| ((i % 300) as u16, i + 1, i % 7 == 0, (i % 251) as u8)).collect();
    for mode in MODES {
        let ctx = ModeCtx::new(mode);
        let (version, task) = build_inputs(&ctx, &entries, 3);
        let (ranges, stream_len) = assert_equivalent(&ctx, &version, &task, MAX_SEQUENCE, 4);
        assert!(ranges > 1, "{mode:?}: expected a real split, got {ranges} range(s)");
        assert!(stream_len > 0, "{mode:?}: outputs must not be empty");
    }
}

// ---------------------------------------------------------------------
// Boundary regression: a user key's versions must never be split
// ---------------------------------------------------------------------

/// Many versions of one hot key straddle every candidate boundary; the
/// planner must collapse those candidates (boundaries are strictly
/// increasing user keys), and the merge must still drop shadowed
/// versions exactly like the serial run. With internal-key boundaries
/// (the bug this guards against), the hot key's versions would land in
/// different subranges, each restarting the per-key shadowing state and
/// resurrecting history the serial run drops.
#[test]
fn hot_key_versions_never_straddle_a_boundary() {
    let mut entries: Vec<Entry> = Vec::new();
    let mut seq = 0u64;
    // A few cold keys below, a hot key with 300 versions, a few above.
    for id in 0..8u16 {
        seq += 1;
        entries.push((id, seq, false, id as u8));
    }
    for v in 0..300u64 {
        seq += 1;
        entries.push((100, seq, false, (v % 251) as u8));
    }
    for id in 200..208u16 {
        seq += 1;
        entries.push((id, seq, false, id as u8));
    }
    let ctx = ModeCtx::new(Mode::Plain);
    let (version, task) = build_inputs(&ctx, &entries, 2);

    let plan = plan_subcompactions(&ctx.table_cache, &task, 4);
    let input_keys: Vec<Vec<u8>> =
        (0u16..8).chain(100..101).chain(200..208).map(user_key).collect();
    let mut prev: Option<&[u8]> = None;
    for range in &plan {
        if let Some(upper) = &range.upper {
            assert!(
                input_keys.iter().any(|k| k == upper),
                "boundary {:?} is not a user key of the input",
                String::from_utf8_lossy(upper)
            );
            if let Some(p) = prev {
                assert!(p < upper.as_slice(), "boundaries must strictly increase");
            }
            prev = Some(upper);
        }
    }
    // Every version of the hot key falls in exactly one subrange.
    let hot = user_key(100);
    let holders = plan
        .iter()
        .filter(|r| {
            r.lower.as_deref().is_none_or(|l| l <= hot.as_slice())
                && r.upper.as_deref().is_none_or(|u| hot.as_slice() < u)
        })
        .count();
    assert_eq!(holders, 1, "hot key must belong to exactly one subrange");

    // And the differential closes the loop: all-history-visible and
    // history-droppable horizons both reproduce the serial stream.
    assert_equivalent(&ctx, &version, &task, MAX_SEQUENCE, 4);
    assert_equivalent(&ctx, &version, &task, seq, 4);
}

// ---------------------------------------------------------------------
// DB-level differential: max_subcompactions = 1 vs 4
// ---------------------------------------------------------------------

/// A fresh engine of `mode` that splits compactions `max_subcompactions`
/// ways.
fn open_engine(mode: Mode, max_subcompactions: usize) -> Primary {
    Store::new(mode).open(|opts| {
        let mut o = support::small(opts)
            .with_background_jobs(4)
            .with_max_subcompactions(max_subcompactions);
        o.compaction.target_file_size = 8 << 10;
        o
    })
}

/// A step of the DB-level workload.
#[derive(Clone, Debug)]
enum Step {
    Put(u16, u8),
    Delete(u16),
    Flush,
    Snapshot,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0u16..256, any::<u8>()).prop_map(|(k, s)| Step::Put(k, s)),
        2 => (0u16..256).prop_map(Step::Delete),
        1 => Just(Step::Flush),
        1 => Just(Step::Snapshot),
    ]
}

fn run_pair(mode: Mode, steps: &[Step]) {
    let (db1, db4) = (open_engine(mode, 1), open_engine(mode, 4));
    let w = WriteOptions::default();
    let mut snaps = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Put(id, seed) => {
                let v = value_for(*seed, i as u64);
                db1.put(&w, &user_key(*id), &v).expect("put serial");
                db4.put(&w, &user_key(*id), &v).expect("put parallel");
            }
            Step::Delete(id) => {
                db1.delete(&w, &user_key(*id)).expect("del serial");
                db4.delete(&w, &user_key(*id)).expect("del parallel");
            }
            Step::Flush => {
                db1.flush().expect("flush serial");
                db4.flush().expect("flush parallel");
            }
            Step::Snapshot => {
                snaps.push((db1.snapshot(), db4.snapshot()));
            }
        }
    }
    db1.flush().expect("final flush serial");
    db4.flush().expect("final flush parallel");
    db1.compact_all().expect("compact serial");
    db4.compact_all().expect("compact parallel");

    let r = ReadOptions::new();
    let scan1 = db1.scan(&r, b"", usize::MAX).expect("scan serial");
    let scan4 = db4.scan(&r, b"", usize::MAX).expect("scan parallel");
    assert_eq!(scan1, scan4, "{mode:?}: latest scans diverge");
    for (s1, s4) in &snaps {
        assert_eq!(s1.sequence(), s4.sequence(), "{mode:?}: snapshot seqs diverge");
        let v1 = db1.scan(&s1.read_options(), b"", usize::MAX).expect("snap scan serial");
        let v4 = db4.scan(&s4.read_options(), b"", usize::MAX).expect("snap scan parallel");
        assert_eq!(v1, v4, "{mode:?}: snapshot views diverge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 60, ..ProptestConfig::default() })]

    /// Serial and 4-way engines see identical data through snapshots
    /// and compactions for random workloads, in every mode.
    #[test]
    fn db_level_serial_vs_parallel(steps in proptest::collection::vec(step_strategy(), 30..160)) {
        for mode in MODES {
            run_pair(mode, &steps);
        }
    }
}

/// The parallel engine really runs subcompactions (the DB-level
/// differential would be vacuous otherwise) and stays correct under a
/// heavy multi-level workload.
#[test]
fn parallel_engine_actually_subcompacts() {
    let db = open_engine(Mode::Plain, 4);
    let w = WriteOptions::default();
    for i in 0..6_000u32 {
        let id = (i % 900) as u16;
        db.put(&w, &user_key(id), &value_for((i % 251) as u8, i as u64)).expect("put");
    }
    db.compact_all().expect("compact");
    let stats = db.statistics().snapshot();
    assert!(
        stats.subcompactions > 0,
        "expected parallel subcompactions to run, stats: compactions={} subcompactions={}",
        stats.compactions,
        stats.subcompactions
    );
    // Subrange wall-clock sums across workers.
    assert!(stats.subcompaction_micros > 0);
    // Data still fully readable.
    let r = ReadOptions::new();
    for id in 0..900u16 {
        assert!(db.get(&r, &user_key(id)).expect("get").is_some(), "missing key {id}");
    }
}

// ---------------------------------------------------------------------
// When a merge is split: the backlog rule and the floor
// ---------------------------------------------------------------------

/// `MODEL_CHECK` without reopens: tickers count from the open, and these
/// tests read them at the end of the history.
const ONE_HANDLE: Profile =
    Profile { weights: Weights { reopen: 0, ..MODEL_CHECK.weights }, ..MODEL_CHECK };

/// A tree that is behind whenever it has an L0→L1 merge to run: writers
/// are slowed from the file count that triggers the merge.
fn always_behind(opts: Options) -> Options {
    let mut opts = support::small(opts);
    opts.l0_slowdown_trigger = opts.compaction.l0_compaction_trigger;
    opts
}

/// A tree no history here can get behind.
fn never_behind(opts: Options) -> Options {
    let mut opts = support::small(opts);
    opts.l0_slowdown_trigger = 1 << 20;
    opts.l0_stop_trigger = 1 << 21;
    opts
}

/// The backlog rule splits across cores the writer leaves idle; a host
/// with one core has none to give.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The same history on a tree that is behind and on one that never is:
/// only the first splits its merges (nobody set `max_subcompactions`),
/// and both end holding exactly what the oracle holds — `support::run`
/// ends in the full `check`, laws included.
#[test]
fn a_tree_behind_splits_its_merges_and_ends_identical() {
    for cell in support::matrix().into_iter().filter(|cell| cell.trees == 1) {
        let actions = support::history(0x5b17, &ONE_HANDLE, 1_500);
        let (behind, oracle) = support::run(&cell.store(), always_behind, &actions);
        let (ahead, _) = support::run(&cell.store(), never_behind, &actions);
        let rows = |db: &Primary| db.scan(&ReadOptions::new(), b"", usize::MAX).expect("scan");
        assert_eq!(rows(&behind), oracle.rows(), "{cell:?}: the tree behind lost the history");
        assert_eq!(rows(&behind), rows(&ahead), "{cell:?}: the two trees diverge");

        let (behind, ahead) = (behind.statistics().snapshot(), ahead.statistics().snapshot());
        assert!(behind.compactions > 0 && ahead.compactions > 0, "{cell:?}: nothing compacted");
        assert_eq!(ahead.subcompactions, 0, "{cell:?}: a tree that keeps up split a merge");
        if cores() >= 2 {
            assert!(behind.subcompactions > 0, "{cell:?}: a tree behind split no merge");
        }
    }
}

/// Every `SubcompactionBegin` an engine emits, as `(subtasks, l0_files)`.
#[derive(Default)]
struct Splits(std::sync::Mutex<Vec<(u64, u64)>>);

impl EventListener for Splits {
    fn on_event(&self, event: &Event) {
        if let Event::SubcompactionBegin { subtasks, l0_files, .. } = event {
            self.0.lock().expect("no panic under this lock").push((*subtasks, *l0_files));
        }
    }
}

/// `max_subcompactions` is a floor: a tree with nothing in L0, so as far
/// from behind as a tree gets, still splits an L1→L2 merge four ways
/// when the caller asked for four.
#[test]
fn an_explicit_max_subcompactions_splits_with_an_empty_l0() {
    let splits = Arc::new(Splits::default());
    let db = Store::new(Mode::Shield).open(|opts| {
        let mut o = never_behind(opts).with_max_subcompactions(4).with_event_listener(splits.clone());
        o.compaction.base_level_bytes = 64 << 10;
        o
    });
    let w = WriteOptions::default();
    for i in 0..12_000u32 {
        let id = (i % 4_000) as u16;
        db.put(&w, &user_key(id), &value_for((i % 251) as u8, u64::from(i))).expect("put");
    }
    db.compact_all().expect("compact");
    let splits = splits.0.lock().expect("no panic under this lock");
    assert!(
        splits.iter().any(|&(subtasks, l0_files)| l0_files == 0 && subtasks > 1),
        "no merge picked with an empty L0 was split: (subtasks, l0_files) = {splits:?}"
    );
}

/// One background worker: the rule finds no second lane and leaves the
/// merge whole; a floor of two splits it anyway and the coordinator, the
/// only thread there is, runs its own ranges. Both finish and hold the
/// history.
#[test]
fn one_background_job_under_backlog_completes() {
    let actions = support::history(0x0b0e, &ONE_HANDLE, 1_000);
    for floor in [1, 2] {
        let tune = |opts| always_behind(opts).with_background_jobs(1).with_max_subcompactions(floor);
        let (db, _) = support::run(&Store::new(Mode::Shield), tune, &actions);
        let stats = db.statistics().snapshot();
        assert!(stats.compactions > 0, "floor {floor}: nothing compacted");
        assert_eq!(stats.subcompactions > 0, floor > 1, "floor {floor}: {}", stats.subcompactions);
    }
}
