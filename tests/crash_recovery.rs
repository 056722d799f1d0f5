//! Crash-recovery matrix (paper §5.3's persistence trade-off):
//!
//! | crash   | plain WAL        | SHIELD unbuffered  | SHIELD buffered      |
//! |---------|------------------|--------------------|----------------------|
//! | process | keeps all acked  | keeps all acked    | may lose buffer tail |
//! | system  | keeps synced     | keeps synced       | keeps synced         |
//!
//! A process crash is `Db::simulate_process_crash` over a `MemEnv`; a
//! system crash is `FaultInjectionEnv::crash` over one, the engine's one
//! system-crash model.

mod support;

use std::sync::Arc;

use shield::{open_shield, ShieldDb, ShieldOptions};
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Integrity, Options, ReadOptions, WriteBatch, WriteOptions};
use support::{apply, check, key, small, Action, Mode, Oracle, Store};

fn shield_db<E: Env + Clone + 'static>(env: &E, kds: &Arc<LocalKds>, wal_buffer: usize) -> ShieldDb {
    let mut sopts = ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk");
    sopts.wal_buffer_size = wal_buffer;
    open_shield(Options::new(Arc::new(env.clone())), "db", sopts).expect("open")
}

fn count_recovered<E: Env + Clone + 'static>(env: &E, kds: &Arc<LocalKds>, wal_buffer: usize, n: u32) -> u32 {
    let db = shield_db(env, kds, wal_buffer);
    let r = ReadOptions::new();
    (0..n)
        .filter(|i| db.get(&r, format!("k{i:04}").as_bytes()).unwrap().is_some())
        .count() as u32
}

#[test]
fn plain_process_crash_keeps_acked_writes() {
    let env = MemEnv::new();
    {
        let db = Db::open(Options::new(Arc::new(env.clone())), "db").unwrap();
        for i in 0..100u32 {
            db.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.simulate_process_crash();
    }
    let db = Db::open(Options::new(Arc::new(env)), "db").unwrap();
    let r = ReadOptions::new();
    for i in 0..100u32 {
        assert!(db.get(&r, format!("k{i:04}").as_bytes()).unwrap().is_some(), "lost k{i:04}");
    }
}

#[test]
fn shield_unbuffered_process_crash_keeps_acked_writes() {
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    {
        let db = shield_db(&env, &kds, 0);
        for i in 0..100u32 {
            db.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.db.simulate_process_crash();
    }
    assert_eq!(count_recovered(&env, &kds, 0, 100), 100);
}

#[test]
fn shield_buffered_process_crash_loses_only_the_buffer_tail() {
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let n = 200u32;
    {
        let db = shield_db(&env, &kds, 512);
        for i in 0..n {
            db.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), &[b'v'; 100])
                .unwrap();
        }
        db.db.simulate_process_crash();
    }
    let recovered = count_recovered(&env, &kds, 512, n);
    // The §5.3 trade-off: some tail may be lost, bounded by the buffer
    // size (512 B ≈ 4 records of ~130 B each), but data that was drained
    // must survive.
    assert!(recovered < n, "buffered WAL should lose an unflushed tail on process crash");
    assert!(
        n - recovered <= 8,
        "at most a buffer's worth may vanish, lost {}",
        n - recovered
    );
    // And the surviving prefix is contiguous — no holes mid-log.
    let db = shield_db(&env, &kds, 512);
    let r = ReadOptions::new();
    let mut seen_missing = false;
    for i in 0..n {
        let present = db.get(&r, format!("k{i:04}").as_bytes()).unwrap().is_some();
        if !present {
            seen_missing = true;
        } else {
            assert!(!seen_missing, "hole in recovered WAL at k{i:04}");
        }
    }
}

#[test]
fn shield_buffered_sync_write_survives_process_crash() {
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    {
        let db = shield_db(&env, &kds, 4096);
        db.put(&WriteOptions::default(), b"k0000", b"async").unwrap();
        // An explicit sync drains the encryption buffer.
        db.put(&WriteOptions { sync: true }, b"k0001", b"sync").unwrap();
        db.db.simulate_process_crash();
    }
    let db = shield_db(&env, &kds, 4096);
    let r = ReadOptions::new();
    // The synced write — and everything before it — must survive.
    assert!(db.get(&r, b"k0001").unwrap().is_some());
    assert!(db.get(&r, b"k0000").unwrap().is_some());
}

#[test]
fn system_crash_preserves_synced_prefix_in_all_modes() {
    for wal_buffer in [0usize, 512] {
        let env = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        {
            let db = shield_db(&env, &kds, wal_buffer);
            for i in 0..50u32 {
                db.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), b"v").unwrap();
            }
            // Durability point.
            db.put(&WriteOptions { sync: true }, b"k0050", b"synced").unwrap();
            for i in 51..80u32 {
                db.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), b"v").unwrap();
            }
            db.db.simulate_process_crash();
        }
        env.crash().unwrap();
        let db = shield_db(&env, &kds, wal_buffer);
        let r = ReadOptions::new();
        for i in 0..=50u32 {
            assert!(
                db.get(&r, format!("k{i:04}").as_bytes()).unwrap().is_some(),
                "buffer={wal_buffer}: synced prefix lost k{i:04}"
            );
        }
    }
}

#[test]
fn flushed_sst_data_survives_system_crash() {
    let env = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    {
        let db = shield_db(&env, &kds, 512);
        for i in 0..500u32 {
            db.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap(); // SSTs are synced on build
        db.db.simulate_process_crash();
    }
    env.crash().unwrap();
    assert_eq!(count_recovered(&env, &kds, 512, 500), 500);
}

// ---------------------------------------------------------------------
// Crash recovery with parallel subcompactions (max_subcompactions > 1)
// ---------------------------------------------------------------------

fn sub_opts(fenv: &FaultInjectionEnv) -> Options {
    let mut o = Options::new(Arc::new(fenv.clone()))
        .with_background_jobs(4)
        .with_max_subcompactions(4);
    o.table.block_size = 256; // many index spans => real subrange splits
    o.compaction.l0_compaction_trigger = 2;
    o.compaction.target_file_size = 2 << 10;
    o
}

/// `put` / `delete` of key `i` through the oracle.
fn put(db: &Db, oracle: &mut Oracle, i: u32, value: String) {
    apply(db, oracle, &Action::Put(i as u16, value.into_bytes()));
}

fn delete(db: &Db, oracle: &mut Oracle, i: u32) {
    apply(db, oracle, &Action::Delete(i as u16));
}

/// The handle crashed and the database was opened again: it must serve
/// exactly the oracle's state (and its fresh tickers obey the laws).
fn check_recovered(db: &Db, oracle: &mut Oracle) {
    oracle.reopened();
    check(db, oracle);
}

/// Crash-consistency loop while parallel subcompactions run: every round
/// writes + deletes + flushes (making the round durable in SSTs), lets
/// the triggered compaction reach a different stage, then process-crashes
/// and system-crashes (dropping all unsynced bytes). Recovery must always
/// equal the model exactly — no lost committed write, no resurrected
/// deleted key, no stale overwritten value from a partially installed
/// compaction.
#[test]
fn crashes_around_parallel_compactions_never_corrupt_state() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let mut oracle = Oracle::default();
    for round in 0..5u32 {
        let db = Db::open(sub_opts(&fenv), "db").expect("open");
        oracle.reopened();
        for j in 0..250u32 {
            let i = (round * 53 + j) % 400;
            put(&db, &mut oracle, i, format!("A{round:02}-{i:04}-{}", "x".repeat(64)));
        }
        for j in 250..280u32 {
            delete(&db, &mut oracle, (round * 53 + j) % 400);
        }
        // Durability point: the round's data is now in synced SSTs, and
        // the flush has (most rounds) tripped an L0 compaction that is
        // now running split into subranges.
        db.flush().expect("flush");
        // Vary how far the background compaction gets before the crash.
        std::thread::sleep(std::time::Duration::from_micros(500 * u64::from(round)));
        db.simulate_process_crash();
        fenv.crash().expect("system crash");

        let db = Db::open(sub_opts(&fenv), "db").expect("reopen");
        check_recovered(&db, &mut oracle);
        db.simulate_process_crash();
    }

    // Final recovery still drives parallel compactions over the survivor
    // state and converges to the same view. Two more flushed batches
    // guarantee the L0 trigger fires so the parallel path runs here.
    let db = Db::open(sub_opts(&fenv), "db").expect("final open");
    oracle.reopened();
    for batch in 0..2u32 {
        for j in 0..120u32 {
            let i = (batch * 200 + j) % 400;
            put(&db, &mut oracle, i, format!("F{batch:02}-{i:04}-{}", "w".repeat(64)));
        }
        db.flush().expect("final flush");
    }
    db.compact_all().expect("final compact");
    check(&db, &oracle);
    assert!(
        db.statistics().snapshot().subcompactions > 0,
        "workload never exercised the parallel compaction path"
    );
}

/// A storage fault mid-compaction parks a background error while output
/// files may already be partially written; a process + system crash on
/// top of that must recover every flushed write and expose none of the
/// uninstalled compaction outputs — and the post-recovery compaction
/// re-runs the same work in parallel subranges.
#[test]
fn fault_mid_compaction_then_crash_exposes_no_partial_outputs() {
    /// Arms SST read faults the moment the awaited flush lands. A flush
    /// opens its own output before installing it, so the faults cannot be
    /// armed earlier; `FlushEnd` fires before the flush schedules the
    /// compaction, so they cannot be armed too late either.
    struct FailReadsAfterFlush {
        fenv: FaultInjectionEnv,
        awaiting: std::sync::atomic::AtomicBool,
    }
    impl shield_core::EventListener for FailReadsAfterFlush {
        fn on_event(&self, event: &shield_core::Event) {
            if matches!(event, shield_core::Event::FlushEnd { .. })
                && self.awaiting.swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                self.fenv.error_n_times(FileKind::Sst, FaultOp::Read, 10_000);
            }
        }
    }

    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let mut oracle = Oracle::default();
    let arm = Arc::new(FailReadsAfterFlush { fenv: fenv.clone(), awaiting: false.into() });
    let db = Db::open(sub_opts(&fenv).with_event_listener(arm.clone()), "db").expect("open");

    // Round A: clean data, flushed to the first L0 file (below trigger).
    for i in 0..300u32 {
        put(&db, &mut oracle, i, format!("base-{i:04}-{}", "y".repeat(48)));
    }
    db.flush().expect("flush A");

    // SST *reads* fail from the next flush on: the compaction it triggers
    // dies mid-merge, after the engine may have opened and partially
    // written output files.
    arm.awaiting.store(true, std::sync::atomic::Ordering::SeqCst);

    // Round B: overwrites + deletes, flushed to the second L0 file,
    // which trips the compaction into the armed faults.
    for i in 0..150u32 {
        put(&db, &mut oracle, i, format!("over-{i:04}-{}", "z".repeat(48)));
    }
    for i in 280..300u32 {
        delete(&db, &mut oracle, i);
    }
    db.flush().expect("flush B");
    let err = db.compact_all().expect_err("compaction must park on injected read faults");
    let _ = err; // any engine error kind is acceptable; state checks follow

    db.simulate_process_crash();
    fenv.crash().expect("system crash");
    fenv.disarm_all();

    // Recovery: both flushed rounds are fully durable, the half-done
    // compaction contributes nothing.
    let db = Db::open(sub_opts(&fenv), "db").expect("reopen");
    check_recovered(&db, &mut oracle);

    // The retried compaction now runs clean — split into subranges —
    // and lands on the same view.
    db.compact_all().expect("compact after recovery");
    check(&db, &oracle);
    assert!(
        db.statistics().snapshot().subcompactions > 0,
        "recovered compaction should run as parallel subranges"
    );
}

// ---------------------------------------------------------------------
// Sharded crash recovery: the WAL the trees share must make cross-shard
// batches all-or-nothing across any crash, even though each tree replays
// only its own slice of every record.
// ---------------------------------------------------------------------

/// Range-sharded options: four shards split at keys 100/200/300, so a
/// run of consecutive keys straddles every boundary.
fn sharded_opts<E: Env + Clone + 'static>(env: &E) -> Options {
    let mut o = Options::new(Arc::new(env.clone()))
        .with_shard_ranges(vec![key(100), key(200), key(300)]);
    o.compaction.l0_compaction_trigger = 2;
    o
}

/// One cross-shard batch: four puts, one per range shard, all tagged
/// with the batch number so partial replay is detectable.
fn cross_shard_batch(n: u32) -> WriteBatch {
    let mut b = WriteBatch::new();
    for part in 0..4u32 {
        b.put(&key((part * 100 + n % 100) as u16), format!("b{n:03}").as_bytes());
    }
    b
}

/// How many of batch `n`'s four keys carry batch `n`'s value.
fn batch_keys_present(db: &Db, n: u32) -> usize {
    let r = ReadOptions::new();
    (0..4u32)
        .filter(|part| {
            db.get(&r, &key((part * 100 + n % 100) as u16))
                .expect("get")
                .is_some_and(|v| v == format!("b{n:03}").into_bytes())
        })
        .count()
}

#[test]
fn sharded_process_crash_keeps_acked_cross_shard_batches() {
    let env = MemEnv::new();
    {
        let db = Db::open(sharded_opts(&env), "db").expect("open");
        for n in 0..60u32 {
            db.write(&WriteOptions::default(), cross_shard_batch(n)).expect("write");
        }
        db.simulate_process_crash();
    }
    // Every shard's memtable died unflushed; replaying the WAL must
    // restore the latest value of every key in every shard.
    let db = Db::open(sharded_opts(&env), "db").expect("reopen");
    for n in 0..60u32 {
        assert_eq!(batch_keys_present(&db, n), 4, "batch {n} lost a shard's slice");
    }
}

#[test]
fn sharded_system_crash_between_wal_syncs_is_all_or_nothing() {
    const SYNCED: u32 = 25;
    const TOTAL: u32 = 40;
    let env = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    {
        let db = Db::open(sharded_opts(&env), "db").expect("open");
        for n in 0..TOTAL {
            // One durability point partway through; everything after it
            // sits in the OS buffer when the machine dies.
            let w = WriteOptions { sync: n == SYNCED };
            db.write(&w, cross_shard_batch(n)).expect("write");
        }
        db.simulate_process_crash();
    }
    env.crash().unwrap();

    let db = Db::open(sharded_opts(&env), "db").expect("reopen");
    // The synced prefix survives in full.
    for n in 0..=SYNCED {
        assert_eq!(batch_keys_present(&db, n), 4, "synced batch {n} lost a shard's slice");
    }
    // The tail may vanish, but never partially: a batch that straddles
    // four shards is either in every shard or in none. (Batch numbers
    // are < 100 here so each batch owns its four keys outright.)
    let mut seen_missing = false;
    for n in SYNCED + 1..TOTAL {
        match batch_keys_present(&db, n) {
            4 => assert!(!seen_missing, "batch {n} survived after a lost batch (hole)"),
            0 => seen_missing = true,
            k => panic!("batch {n} recovered on only {k}/4 shards"),
        }
    }
}

/// Flushes (WAL switch + per-shard flush + segment GC) interleaved with
/// system crashes, on memtables small enough that shards also switch the
/// WAL on their own mid-round: recovery must always equal the model,
/// whether a write's home is a live WAL segment or a flushed SST.
#[test]
fn sharded_crashes_around_checkpoints_never_corrupt_state() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let mk_opts = || {
        let mut o =
            Options::new(Arc::new(fenv.clone())).with_shards(4).with_write_buffer_size(4 << 10);
        o.compaction.l0_compaction_trigger = 2;
        o
    };
    let mut oracle = Oracle::default();
    for round in 0..4u32 {
        let db = Db::open(mk_opts(), "db").expect("open");
        oracle.reopened();
        for j in 0..120u32 {
            let i = (round * 37 + j) % 300;
            if j % 6 == 5 {
                delete(&db, &mut oracle, i);
            } else {
                put(&db, &mut oracle, i, format!("r{round:02}-{i:04}-{}", "x".repeat(40)));
            }
        }
        if round % 2 == 0 {
            // Everything so far moves into synced SSTs and old WAL
            // segments are deleted.
            db.flush().expect("flush");
        } else {
            // Plain durability point: data stays in the WAL.
            oracle.sync = true;
            put(&db, &mut oracle, 999, format!("marker-{round}"));
            oracle.sync = false;
        }
        db.simulate_process_crash();
        fenv.crash().expect("system crash");

        let db = Db::open(mk_opts(), "db").expect("reopen");
        check_recovered(&db, &mut oracle);
        db.simulate_process_crash();
    }
}

#[test]
fn shield_sharded_process_crash_keeps_acked_writes() {
    let store = Store::new(Mode::Shield);
    let mk = || store.open(|opts| small(opts).with_shards(4));
    {
        let sdb = mk();
        for n in 0..40u32 {
            // The last write is synced: an acked-but-unsynced tail may
            // still sit in SHIELD's 512-byte WAL buffer (§5.3), and
            // whether 40 batches end on a drain boundary is luck.
            sdb.write(&WriteOptions { sync: n == 39 }, cross_shard_batch(n)).expect("write");
        }
        sdb.db.simulate_process_crash();
    }
    // The encrypted WAL replays through the same DEK resolver.
    let sdb = mk();
    for n in 0..40u32 {
        assert_eq!(batch_keys_present(&sdb, n), 4, "encrypted batch {n} lost a slice");
    }
}

/// Live WAL segments in `db/`.
fn wal_segments(env: &MemEnv) -> usize {
    env.list_dir("db").expect("list").iter().filter(|name| name.ends_with(".log")).count()
}

/// A cold tree — one early write, then nothing — must not pin the WAL:
/// once its memtable alone keeps more than the live-WAL bound alive it is
/// flushed early, so the segment count stays bounded however much the
/// hot trees write, and a crash at the end loses nothing from either.
#[test]
fn cold_tree_bounds_live_wal_and_crash_loses_nothing() {
    let env = MemEnv::new();
    let opts = || sharded_opts(&env).with_write_buffer_size(4 << 10);
    let mut oracle = Oracle::default();
    let mut most_segments = 0;
    {
        let db = Db::open(opts(), "db").expect("open");
        put(&db, &mut oracle, 1, "cold".into());
        for i in 0..3000u32 {
            // Keys 100..399: every tree but the first.
            put(&db, &mut oracle, 100 + i % 300, format!("v{i:05}-{}", "y".repeat(48)));
            if i % 50 == 0 {
                most_segments = most_segments.max(wal_segments(&env));
            }
        }
        let report = db.metrics_report();
        let switches: u64 = report.trees.iter().map(|tree| tree.flushes).sum();
        assert!(switches > 60, "only {switches} flushes: the history is too short to tell");
        assert!(
            report.trees[0].flushes >= 1,
            "the cold tree was never flushed, so it pinned every segment since open"
        );
        // 4 write buffers per tree = 64 KiB of WAL; a segment ends when a
        // 4 KiB memtable fills, so it holds at least ~1 KiB of records.
        assert!(most_segments <= 64, "{most_segments} live WAL segments at once");
        db.simulate_process_crash();
    }
    let db = Db::open(opts(), "db").expect("reopen");
    check_recovered(&db, &mut oracle);
}

/// The committed directory of an older commit (one tree, SHIELD, HMAC
/// integrity, 10-bit bloom filters: flushed and compacted SSTs plus a
/// synced WAL tail, process-crashed), copied into memory and opened.
fn open_fixture() -> ShieldDb {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/parent_n1_shield_hmac");
    let env = MemEnv::new();
    for entry in std::fs::read_dir(fixture).expect("fixture dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name().into_string().expect("utf-8 name");
        let mut f = env.new_writable_file(&format!("db/{name}"), FileKind::Other).expect("create");
        f.append(&std::fs::read(entry.path()).expect("read")).expect("append");
        f.sync().expect("sync");
    }
    // Every DEK the directory needs is in its secure cache; the KDS that
    // issued them is gone.
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    open_shield(
        Options::new(Arc::new(env)).with_integrity(Integrity::Hmac),
        "db",
        ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"fixture-passkey"),
    )
    .expect("reopen the parent commit's directory")
}

/// What the fixture holds for `key-{i:04}`.
fn fixture_value(i: u32) -> Option<Vec<u8>> {
    match i {
        400.. => Some(b"wal-tail".to_vec()),
        _ if i % 7 == 0 => None,
        _ => Some(format!("value-{i:04}-{}", "x".repeat(40)).into_bytes()),
    }
}

/// A directory written by the commit before the trees moved behind one
/// write front opens, recovers the tail and verifies clean.
#[test]
fn parent_commit_directory_reopens_and_verifies() {
    let db = open_fixture();
    assert_eq!(db.last_sequence(), 478);
    let r = ReadOptions::new();
    for i in 0..420u32 {
        let got = db.get(&r, format!("key-{i:04}").as_bytes()).expect("get");
        assert_eq!(got, fixture_value(i), "key-{i:04}");
    }
    let report = db.verify_integrity().expect("verify");
    assert!(report.files >= 5, "four fixture SSTs plus the recovered tail, got {report:?}");
    let stats = db.statistics().snapshot();
    assert_eq!(stats.integrity_failures, 0);
    assert_eq!(stats.integrity_unprotected_files, 0, "every fixture file carries HMAC tags");
}

/// Filters of two budgets answer side by side: the fixture's tables
/// carry 10-bit filters, and a put and a flush add one with the default
/// 16 bits. Present keys are found through both, and absent keys inside
/// every table's range are ruled out by both.
#[test]
fn ten_bit_filters_answer_beside_sixteen_bit_ones() {
    let db = open_fixture();
    let w = WriteOptions::default();
    for i in (0..420u32).step_by(3) {
        db.put(&w, format!("key-{i:04}+").as_bytes(), b"new").expect("put");
    }
    db.flush().expect("flush");
    let r = ReadOptions::new();
    let before = db.statistics().snapshot();
    for i in 0..420u32 {
        let got = db.get(&r, format!("key-{i:04}").as_bytes()).expect("get");
        assert_eq!(got, fixture_value(i), "key-{i:04}");
        let new = (i % 3 == 0).then(|| b"new".to_vec());
        assert_eq!(db.get(&r, format!("key-{i:04}+").as_bytes()).expect("get"), new);
        assert_eq!(db.get(&r, format!("key-{i:04}-absent").as_bytes()).expect("get"), None);
    }
    let s = db.statistics().snapshot().delta_since(&before);
    let probes = s.bloom_useful + s.bloom_full_positive;
    let false_positives = s.bloom_full_positive - s.bloom_true_positive;
    assert!(s.bloom_useful > 0, "no filter ruled a key out: {s:?}");
    assert!(
        false_positives * 50 <= probes,
        "{false_positives} false positives in {probes} filter probes"
    );
}

#[test]
fn repeated_crash_recover_cycles_converge() {
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let mut expected_floor = 0u32;
    for round in 0..5u32 {
        let db = shield_db(&env, &kds, 512);
        let base = round * 100;
        for i in 0..100u32 {
            db.put(
                &WriteOptions::default(),
                format!("r{:02}-{:03}", round, i).as_bytes(),
                b"v",
            )
            .unwrap();
        }
        // Sync the round's data so the next crash cannot take it.
        db.put(&WriteOptions { sync: true }, format!("round-{round}").as_bytes(), b"done")
            .unwrap();
        expected_floor = base + 100;
        db.db.simulate_process_crash();
    }
    let db = shield_db(&env, &kds, 512);
    let r = ReadOptions::new();
    let mut found = 0u32;
    for round in 0..5u32 {
        assert!(
            db.get(&r, format!("round-{round}").as_bytes()).unwrap().is_some(),
            "round marker {round} lost"
        );
        for i in 0..100u32 {
            if db.get(&r, format!("r{:02}-{:03}", round, i).as_bytes()).unwrap().is_some() {
                found += 1;
            }
        }
    }
    assert_eq!(found, expected_floor, "synced data must all survive");
}
