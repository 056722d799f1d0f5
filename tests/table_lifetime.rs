//! A file's table lives as long as the file (DESIGN.md §4g), and readers
//! that share nothing but the database still read what the writer wrote.
//!
//! * **Opens.** An `Env` decorator counts SST `new_random_access_file`
//!   calls: after a reopen, gets over M files open M tables however many
//!   gets there are; a version edit that carries a file forward — a move
//!   to another level, an unrelated flush — reopens nothing; a file
//!   opened by the flush or compaction that built it is never opened
//!   again by a reader.
//! * **Close.** Once compaction retires a file and the last view naming
//!   it drops, its table is gone (a `Weak<Table>` no longer upgrades); a
//!   view or an iterator still holding it keeps it open until then.
//! * **Readers beside a writer.** Two reader threads and one writer, with
//!   flushes and compactions in flight: no read ever sees a value older
//!   than the last one acknowledged before it started, or one the writer
//!   never wrote; then the oracle check and its conservation laws hold.

mod support;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use shield_env::{
    Env, EnvResult, FileKind, MemEnv, RandomAccessFile, SequentialFile, WritableFile,
};
use shield_lsm::iter::InternalIterator;
use shield_lsm::sst::builder::{TableBuilder, TableBuilderOptions};
use shield_lsm::sst::Table;
use shield_lsm::types::{make_internal_key, ValueType, MAX_SEQUENCE};
use shield_lsm::version::{FileMeta, TableCache, TableSlot, VersionEdit, VersionSet};
use shield_lsm::{ReadOptions, WriteOptions};
use support::{key, Action, Mode, Oracle, Store, PRIMARY};

/// Counts SST opens for random access; forwards everything.
struct OpenCounter {
    inner: Arc<dyn Env>,
    sst_opens: AtomicU64,
}

impl OpenCounter {
    fn new() -> Arc<OpenCounter> {
        Arc::new(OpenCounter { inner: Arc::new(MemEnv::new()), sst_opens: AtomicU64::new(0) })
    }

    fn opens(&self) -> u64 {
        self.sst_opens.load(Ordering::SeqCst)
    }
}

impl Env for OpenCounter {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        self.inner.new_writable_file(path, kind)
    }
    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        if kind == FileKind::Sst {
            self.sst_opens.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.new_random_access_file(path, kind)
    }
    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        self.inner.new_sequential_file(path, kind)
    }
    fn remove_file(&self, path: &str) -> EnvResult<()> {
        self.inner.remove_file(path)
    }
    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        self.inner.rename(from, to)
    }
    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &str) -> EnvResult<u64> {
        self.inner.file_size(path)
    }
    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.create_dir_all(dir)
    }
    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.remove_dir_all(dir)
    }
}

/// Keys per flushed file in [`gets_open_each_live_file_once`].
const PER_FILE: u16 = 50;
/// Flushed L0 files.
const FILES: u16 = 4;

fn value_of(k: u16, generation: u64) -> Vec<u8> {
    format!("{k}@{generation}:").repeat(4).into_bytes()
}

#[test]
fn gets_open_each_live_file_once() {
    for mode in [Mode::Plain, Mode::Shield] {
        let env = OpenCounter::new();
        let store = Store::over(mode, env.clone());
        // No compaction: the flushed files stay the live set.
        let tune = |mut opts: shield_lsm::Options| {
            opts.compaction.l0_compaction_trigger = 64;
            opts
        };
        let db = store.open(tune);
        let w = WriteOptions::default();
        for f in 0..FILES {
            for k in f * PER_FILE..(f + 1) * PER_FILE {
                db.put(&w, &key(k), &value_of(k, 0)).unwrap();
            }
            db.flush().unwrap();
        }
        let built = env.opens();
        assert_eq!(built, u64::from(FILES), "{mode:?}: each flush opens its output once");
        let r = ReadOptions::new();
        for round in 0..3 {
            for k in 0..FILES * PER_FILE {
                assert_eq!(db.get(&r, &key(k)).unwrap(), Some(value_of(k, 0)), "round {round}");
            }
        }
        assert_eq!(env.opens(), built, "{mode:?}: readers borrow what the flush opened");
        store.close(db);

        // A reopen: N gets over M files open M tables, lazily.
        let db = store.open(tune);
        let before = env.opens();
        for _ in 0..3 {
            for k in 0..FILES * PER_FILE {
                assert_eq!(db.get(&r, &key(k)).unwrap(), Some(value_of(k, 0)));
            }
        }
        let live = db.metrics_report().levels.iter().map(|l| l.files).sum::<usize>() as u64;
        assert_eq!(live, u64::from(FILES));
        assert_eq!(env.opens() - before, live, "{mode:?}: one open per live file");
        // Scans and a batch read the same tables.
        assert_eq!(db.scan(&r, b"", usize::MAX).unwrap().len(), usize::from(FILES * PER_FILE));
        let keys: Vec<Vec<u8>> = (0..FILES * PER_FILE).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        assert!(db.multi_get(&r, &refs).iter().all(|slot| matches!(slot, Ok(Some(_)))));
        assert_eq!(env.opens() - before, live, "{mode:?}: iterators and batches reopen nothing");
        store.close(db);
    }
}

/// One SST holding `keys` (values `v<key>`), created through `tables`,
/// described by a meta whose slot is empty.
fn build(tables: &TableCache, number: u64, keys: &[&str]) -> FileMeta {
    let (file, dek_id, mac_key) = tables.create(number).unwrap();
    let opts = TableBuilderOptions { dek_id, mac_key, ..Default::default() };
    let mut b = TableBuilder::new(file, opts);
    for k in keys {
        b.add(&make_internal_key(k.as_bytes(), 5, ValueType::Value), format!("v{k}").as_bytes())
            .unwrap();
    }
    let (props, file_size) = b.finish().unwrap();
    FileMeta {
        number,
        file_size,
        smallest: make_internal_key(&props.smallest_user_key, MAX_SEQUENCE, ValueType::Value),
        largest: make_internal_key(&props.largest_user_key, 0, ValueType::Deletion),
        dek_id: props.dek_id,
        table: TableSlot::default(),
    }
}

fn found(value: &str) -> shield_lsm::version::version::GetResult {
    shield_lsm::version::version::GetResult::Found(value.as_bytes().to_vec())
}

#[test]
fn edits_carry_tables_forward_and_retiring_a_file_closes_it() {
    let env = OpenCounter::new();
    let files = Store::over(Mode::Plain, env.clone()).files_for(PRIMARY);
    let tables = TableCache::new(files.clone(), "db".into(), None, 0);
    let mut versions = VersionSet::new(files, "db".into(), tables.clone());
    versions.create_new().unwrap();
    let a = build(&tables, 10, &["a", "b"]);
    versions
        .log_and_apply(VersionEdit { new_files: vec![(1, a)], ..VersionEdit::default() })
        .unwrap();
    let get = |versions: &VersionSet, k: &str| {
        versions.current().get_opt(&tables, k.as_bytes(), 9, true).unwrap()
    };
    assert_eq!(get(&versions, "a"), found("va"));
    assert_eq!(env.opens(), 1);

    // A trivial move: the file leaves L1 and lands in L2 as the same
    // meta, so the same slot.
    let moved = versions.current().files[1][0].as_ref().clone();
    versions
        .log_and_apply(VersionEdit {
            deleted_files: vec![(1, 10)],
            new_files: vec![(2, moved)],
            ..VersionEdit::default()
        })
        .unwrap();
    assert_eq!(versions.current().level_files(2), 1);
    assert_eq!(get(&versions, "b"), found("vb"));
    // An unrelated edit (another file arriving) carries it forward too.
    let c = build(&tables, 11, &["x", "y"]);
    versions
        .log_and_apply(VersionEdit { new_files: vec![(0, c)], ..VersionEdit::default() })
        .unwrap();
    assert_eq!(get(&versions, "a"), found("va"));
    assert_eq!(get(&versions, "x"), found("vx"));
    assert_eq!(env.opens(), 2, "a moved or carried-forward file reopens nothing");

    // Retire file 10 while a view and an iterator still hold it.
    let meta = versions.current().files[2][0].clone();
    let weak: Weak<Table> = Arc::downgrade(meta.table(&tables).unwrap());
    let view = versions.current();
    let mut iter = meta.table(&tables).unwrap().iter();
    drop(meta);
    versions
        .log_and_apply(VersionEdit { deleted_files: vec![(2, 10)], ..VersionEdit::default() })
        .unwrap();
    assert_eq!(get(&versions, "a"), shield_lsm::version::version::GetResult::NotFound);
    assert!(weak.upgrade().is_some(), "a view still names the file");
    drop(view);
    assert!(weak.upgrade().is_some(), "an iterator still reads it");
    iter.seek_to_first();
    assert!(iter.valid());
    drop(iter);
    assert!(weak.upgrade().is_none(), "retired, unreferenced: the table is closed");
    assert_eq!(env.opens(), 2);
}

#[test]
fn a_failed_open_caches_nothing() {
    let env = OpenCounter::new();
    let files = Store::over(Mode::Plain, env.clone()).files_for(PRIMARY);
    let tables = TableCache::new(files, "db".into(), None, 0);
    let meta = build(&tables, 7, &["k"]);
    let path = shield_env::join_path("db", &shield_lsm::version::sst_file_name(7));
    let path = path.as_str();
    let bytes = shield_env::read_file_to_vec(env.as_ref(), path, FileKind::Sst).unwrap();
    env.remove_file(path).unwrap();
    assert!(meta.table(&tables).is_err());
    assert!(meta.table.get().is_none(), "an error is not a table");
    let mut f = env.new_writable_file(path, FileKind::Sst).unwrap();
    f.append(&bytes).unwrap();
    f.sync().unwrap();
    drop(f);
    assert!(meta.table(&tables).is_ok(), "the next reader retries");
    assert!(meta.table.get().is_some());
    assert_eq!(env.opens(), 2);
}

/// Keys the writer cycles through.
const KEYS: u16 = 400;
const ROUNDS: u64 = 6;

/// Checks one read of key `k` against the writer's log: a value the
/// writer wrote for `k`, no older than `floor`, the generation the writer
/// had acknowledged before the read started.
fn check_read(k: u16, got: Option<Vec<u8>>, floor: u64) {
    let got = got.unwrap_or_else(|| panic!("key {k}: live since generation 1, read as absent"));
    let generation: u64 = std::str::from_utf8(&got)
        .ok()
        .and_then(|text| text.split_once('@'))
        .and_then(|(_, rest)| rest.split_once(':'))
        .and_then(|(g, _)| g.parse().ok())
        .unwrap_or_else(|| panic!("key {k}: {got:?} is no value the writer wrote"));
    assert_eq!(got, value_of(k, generation), "key {k}: a value never written");
    assert!(generation >= floor, "key {k}: read {generation}, {floor} acked");
    assert!(generation <= ROUNDS + 1, "key {k}: {generation} never written");
}

#[test]
fn two_readers_and_a_writer_read_what_was_written() {
    for (mode, trees) in [(Mode::Plain, 1), (Mode::Shield, 1), (Mode::Shield, 4)] {
        let store = Store::new(mode);
        let db = store.open(|opts| support::small(opts).with_shards(trees));
        let mut oracle = Oracle::default();
        // The generation each key was last acknowledged at.
        let acked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        for k in 0..KEYS {
            support::apply(&db, &mut oracle, &Action::Put(k, value_of(k, 1)));
            acked[usize::from(k)].store(1, Ordering::SeqCst);
        }
        let done = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        std::thread::scope(|s| {
            for reader in 0..2u64 {
                let (db, acked, done, reads) = (&db.db, &acked, &done, &reads);
                s.spawn(move || {
                    let r = ReadOptions::new();
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ reader;
                    let mut next = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x % u64::from(KEYS)) as u16
                    };
                    let mut round = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        // Point gets, and every fourth read a batch of
                        // four keys across the trees.
                        round += 1;
                        let batch = if round % 4 == 0 { 4 } else { 1 };
                        let ks: Vec<u16> = (0..batch).map(|_| next()).collect();
                        let floors: Vec<u64> =
                            ks.iter().map(|&k| acked[usize::from(k)].load(Ordering::SeqCst)).collect();
                        let got: Vec<Option<Vec<u8>>> = if ks.len() == 1 {
                            vec![db.get(&r, &key(ks[0])).unwrap()]
                        } else {
                            let keys: Vec<Vec<u8>> = ks.iter().map(|&k| key(k)).collect();
                            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                            db.multi_get(&r, &refs).into_iter().map(|slot| slot.unwrap()).collect()
                        };
                        for ((&k, got), &floor) in ks.iter().zip(got).zip(&floors) {
                            check_read(k, got, floor);
                        }
                        reads.fetch_add(ks.len() as u64, Ordering::Relaxed);
                    }
                });
            }
            // The writer: every round rewrites every key, flushing (and
            // so compacting, under `small`) as the memtables fill.
            for generation in 2..=ROUNDS + 1 {
                for k in 0..KEYS {
                    support::apply(&db, &mut oracle, &Action::Put(k, value_of(k, generation)));
                    acked[usize::from(k)].store(generation, Ordering::SeqCst);
                }
                support::apply(&db, &mut oracle, &Action::Flush);
            }
            done.store(true, Ordering::SeqCst);
        });
        assert!(reads.load(Ordering::Relaxed) > 0);
        let tickers = db.metrics_report().tickers;
        assert!(tickers.flushes > 0 && tickers.compactions > 0, "{mode:?}: nothing was in flight");
        support::check(&db, &oracle);
        store.close(db);
    }
}
