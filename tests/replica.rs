//! Differential suite for live read replicas (PR 10): a [`ReplicaDb`]
//! tailing a running primary must serve exactly the primary's committed
//! state — byte for byte — after every quiesce point, in every
//! encryption mode (plain, EncFS, SHIELD), across WAL switches, flushes,
//! MANIFEST rollovers, primary crashes mid-edit, and replica-side I/O
//! faults (where the staleness bound must trip instead of serving a
//! gapped view, and a scan that loses a block must fail instead of
//! returning a prefix).
//!
//! SHIELD writes are quiesced with `WriteOptions { sync: true }`: an
//! unsynced record may still sit (plaintext) in the primary's WAL
//! application buffer — the §5.3 persistence trade-off — and no replica
//! can serve bytes that never reached storage.

mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use shield::{Encryption, FileStore, ShieldOptions};
use shield_env::{
    Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv, NetworkModel, RemoteEnv,
};
use shield_lsm::version::filenames::{parse_file_name, FileType};
use shield_lsm::{
    Db, Error, Integrity, IntegrityOptions, Options, ReadOptions, ReplicaDb, ReplicaOptions,
    WriteOptions,
};
use support::{
    actions, apply, check, drain, history, key, manual, small, Action, Mode, Oracle, Store,
    ENGINE_KEY, MODES, PATH, READER, REPLICA,
};

/// A plain deployment over `medium`.
fn plain(medium: Arc<dyn Env>) -> Store {
    Store::over(Mode::Plain, medium)
}

/// Puts `prefix{id}` under every id of `ids`, through the oracle.
fn put_all(db: &Db, oracle: &mut Oracle, ids: std::ops::Range<u16>, prefix: &str) {
    for id in ids {
        apply(db, oracle, &Action::Put(id, format!("{prefix}{id}").into_bytes()));
    }
}

/// The replica equals the oracle once it has caught up.
fn check_caught_up(replica: &ReplicaDb, oracle: &Oracle) {
    drain(replica);
    check(replica, oracle);
}

/// Basic lifecycle: a plain-mode replica follows puts, deletes, flushes.
#[test]
fn replica_tails_live_plain_primary() {
    let store = Store::new(Mode::Plain);
    let db = store.open(small);
    let mut oracle = Oracle::synced();

    put_all(&db, &mut oracle, 0..100, "v");
    let replica = store.replica(READER).expect("open replica");
    check_caught_up(&replica, &oracle);
    assert_eq!(replica.staleness(), 0);

    // Live updates: new puts, overwrites, deletes — visible after a round.
    put_all(&db, &mut oracle, 50..150, "w");
    for id in 0..20 {
        apply(&db, &mut oracle, &Action::Delete(id));
    }
    // Stale until the next round: the view only moves in `catch_up`.
    assert_eq!(replica.get(&key(120)).expect("get"), None);
    check_caught_up(&replica, &oracle);

    // A flush retires the WAL into an SST; the replica follows the
    // manifest edit and drops its replayed memtable without a blip.
    db.flush().expect("flush");
    check_caught_up(&replica, &oracle);
    let stats = replica.statistics().snapshot();
    assert!(stats.replica_wal_records_applied > 0);
    assert!(stats.replica_manifest_edits_applied > 0);
}

/// Each replica read is one timed op: the report's `get`, `multi_get`
/// and `scan` counts equal the calls made, and an op the replica never
/// runs stays unmeasured.
#[test]
fn replica_reports_one_latency_sample_per_read_call() {
    let store = Store::new(Mode::Plain);
    let db = store.open(small);
    let mut oracle = Oracle::synced();
    put_all(&db, &mut oracle, 0..50, "v");
    let replica = store.replica(READER).expect("open replica");
    drain(&replica);

    for id in 0..3 {
        replica.get(&key(id)).expect("get");
    }
    let keys = [key(1), key(2)];
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    for _ in 0..2 {
        replica.multi_get(&refs).expect("multi_get");
    }
    for _ in 0..4 {
        replica.scan(&key(0), 10).expect("scan");
    }

    let report = replica.metrics_report();
    let count = |op: &str| report.latencies.iter().find(|(name, _)| *name == op).unwrap().1.count;
    assert_eq!(
        [count("get"), count("multi_get"), count("scan"), count("put")],
        [3, 2, 4, 0],
        "per-op counts must equal the calls"
    );
}

/// The background poller catches up without manual rounds.
#[test]
fn replica_auto_poll_catches_up() {
    let store = Store::new(Mode::Plain);
    let db = store.open(small);
    let w = WriteOptions { sync: true };
    db.put(&w, b"k-before", b"1").expect("put");

    let opts = ReplicaOptions { poll_interval: Duration::from_millis(1), ..Default::default() };
    let replica = ReplicaDb::open(store.files_for(READER), PATH, opts).expect("open replica");
    assert_eq!(replica.get(b"k-before").expect("get"), Some(b"1".to_vec()));

    db.put(&w, b"k-after", b"2").expect("put");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if replica.get(b"k-after").expect("get") == Some(b"2".to_vec()) {
            break;
        }
        assert!(Instant::now() < deadline, "poller never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    replica.stop();
}

/// WAL switches and flushes mid-tail: a small write buffer forces the
/// primary through many memtable switches while the replica polls
/// between batches, exercising segment discovery, multi-segment drains,
/// and retirement of flushed segments.
#[test]
fn replica_follows_wal_switches_under_load() {
    let store = Store::new(Mode::Plain);
    let db = store.open(|opts| small(opts).with_write_buffer_size(2 << 10));
    let mut oracle = Oracle::synced();

    let replica = store.replica(READER).expect("open replica");
    for round in 0..12u16 {
        for id in 0..60u16 {
            let id = (round * 37 + id * 3) % REPLICA.keyspace;
            apply(&db, &mut oracle, &Action::Put(id, vec![b'a' + round as u8; 64]));
        }
        // Poll mid-stream; no quiesce, so this round may be unclean.
        let _ = replica.catch_up().expect("catch_up");
    }
    check_caught_up(&replica, &oracle);
    let flushes = replica.statistics().snapshot().replica_manifest_edits_applied;
    assert!(flushes >= 3, "expected several flush edits, saw {flushes}");
}

/// A primary crash that tears the MANIFEST mid-edit: the replica keeps
/// serving its consistent pre-crash view, then follows the recovered
/// primary's manifest rollover.
#[test]
fn replica_survives_primary_crash_mid_manifest_edit() {
    let fenv = Arc::new(FaultInjectionEnv::new(Arc::new(MemEnv::new())));
    let store = plain(fenv.clone());
    let mut oracle = Oracle::synced();

    let db = store.open(small);
    put_all(&db, &mut oracle, 0..80, "v");
    db.flush().expect("flush");
    let replica = store.replica(READER).expect("open replica");
    check_caught_up(&replica, &oracle);

    // More committed writes, then a flush whose manifest append tears
    // mid-record — the paper's crash-mid-metadata-update window.
    put_all(&db, &mut oracle, 80..120, "v");
    fenv.torn_write_n_times(FileKind::Manifest, 1);
    let _ = db.flush(); // fails (or surfaces later): the edit is torn
    drop(db);
    fenv.disarm_all();

    // The replica sees the committed WAL records and the torn manifest
    // tail; it must report the incomplete tail but stay consistent.
    let mut clean = true;
    for _ in 0..8 {
        clean = replica.catch_up().expect("catch_up over torn manifest");
    }
    assert!(!clean, "torn manifest tail must not read as clean");
    check(&*replica, &oracle);

    // The primary recovers: replays the WAL, rolls a fresh MANIFEST.
    let db = store.open(small);
    oracle.reopened();
    apply(&db, &mut oracle, &Action::Put(999, b"alive".to_vec()));
    check_caught_up(&replica, &oracle);
    let stats = replica.statistics().snapshot();
    assert!(stats.replica_rollovers_followed >= 1, "replica must follow the recovery rollover");
    assert!(stats.replica_incomplete_tails >= 1);
}

/// Replica-side storage faults: when the WAL is unreadable but the
/// manifest advertises newer sequences, the replica must refuse to
/// advance (no gapped view) and trip the staleness bound rather than
/// serve flushed data it cannot prove contiguous.
#[test]
fn replica_staleness_bound_trips_under_faults() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = plain(backing.clone()).open(small);
    let mut oracle = Oracle::synced();
    put_all(&db, &mut oracle, 0..60, "v");
    db.flush().expect("flush");

    let fenv = Arc::new(FaultInjectionEnv::new(backing));
    let opts = ReplicaOptions { max_staleness: Some(0), ..manual() };
    let replica = ReplicaDb::open(plain(fenv.clone()).files_for(READER), PATH, opts)
        .expect("open replica");
    check_caught_up(&replica, &oracle);

    // Block every WAL read on the replica side, then commit + flush on
    // the primary: the manifest says the database moved on, but the
    // replica cannot verify the live WAL. It must hold its sequence.
    fenv.error_n_times(FileKind::Wal, FaultOp::Open, u32::MAX);
    fenv.error_n_times(FileKind::Wal, FaultOp::Read, u32::MAX);
    put_all(&db, &mut oracle, 60..90, "unseen");
    db.flush().expect("flush");
    let before = replica.sequence();
    for _ in 0..4 {
        let clean = replica.catch_up().expect("degraded catch_up");
        assert!(!clean, "blocked WAL must not report clean");
    }
    assert_eq!(replica.sequence(), before, "sequence must hold across the gap");
    assert!(replica.staleness() > 0, "manifest advanced: staleness must show");
    match replica.get(&key(0)) {
        Err(Error::InvalidArgument(msg)) => {
            assert!(msg.contains("behind"), "unexpected message: {msg}")
        }
        other => panic!("stale read must fail the bound, got {other:?}"),
    }

    // Faults clear; the replica verifies the gap and catches up.
    fenv.disarm_all();
    check_caught_up(&replica, &oracle);
    assert_eq!(replica.staleness(), 0);
}

/// SHIELD end to end over the disaggregated topology: primary and
/// replica each mount the shared store through their own RemoteEnv, the
/// replica resolves every DEK by DEK-ID through its own resolver under
/// its own KDS identity and its own secure cache (a store from
/// [`FileStore::new`]), and its metrics report says it caught up.
#[test]
fn replica_shield_over_remote_env_end_to_end() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mount = || -> Arc<dyn Env> {
        Arc::new(RemoteEnv::new(backing.clone(), NetworkModel::unlimited()))
    };
    let store = Store::over(Mode::Shield, mount());
    let sdb = store.open(small);
    let mut oracle = Oracle::synced();
    put_all(&sdb, &mut oracle, 0..120, "s");
    sdb.flush().expect("flush");
    put_all(&sdb, &mut oracle, 120..150, "s");

    // The reader's own identity, with a secure cache of its own.
    let reader = |mount: Arc<dyn Env>, cache: &str| {
        let passkey = Some(b"pk".to_vec());
        let identity = ShieldOptions { passkey, ..store.shield_options(READER) };
        let files = FileStore::new(mount, &Encryption::Shield(identity), cache, store.integrity)?;
        ReplicaDb::open(files, PATH, manual())
    };
    let replica = reader(mount(), "reader.cache").expect("open shield replica");
    drain(&replica);

    // A cold multi_get takes the batched path: the 64 keys resolve in a
    // few `read_at_many` submissions, and every key counts as a lookup.
    let keys: Vec<Vec<u8>> = (0..64).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    replica.multi_get(&refs).expect("cold multi_get");
    let cold = replica.statistics().snapshot();
    assert!(cold.batched_reads > 0, "replica multi_get never reached the batched read path");
    assert_eq!(cold.gets, 64);
    assert!(cold.gets_found <= cold.gets, "{} found of {}", cold.gets_found, cold.gets);

    check_caught_up(&replica, &oracle);

    // DEKs came through the replica's own resolver, by DEK-ID.
    let rstats = replica.resolver().expect("a SHIELD replica").stats();
    assert!(rstats.cache_hits + rstats.cache_misses > 0, "resolver never engaged");

    // Caught up, in the one metrics document (its key set is pinned in
    // tests/metrics_schema.rs).
    let report = replica.metrics_report();
    assert_eq!(report.tickers.replica_lag_records, 0);
    let progress = report.replica.expect("replica section");
    assert_eq!(progress.last_applied_seq, progress.last_seen_seq);

    // Revoking the replica's identity locks it out of *new* DEKs (the
    // §5.4 breached-server response); already-cached DEKs still serve.
    store.kds.revoke_server(READER);
    sdb.put(&WriteOptions { sync: true }, b"zz-new", b"rotated").expect("put");
    sdb.flush().expect("flush");
    let _ = replica.catch_up(); // new SST's DEK is unresolvable
    let fresh = Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), NetworkModel::unlimited()));
    let locked = reader(fresh, "reader2.cache");
    assert!(locked.is_err(), "revoked reader opened a fresh replica");
}

/// A SHIELD primary that leaves its WAL plaintext (`encrypt_wal: false`)
/// tags it with the engine-wide key, here a non-default one: a replica
/// whose store comes from the one builder with the primary's
/// `IntegrityOptions` drains that WAL, while one built with the default
/// key refuses it as tampered.
#[test]
fn replica_drains_a_plaintext_tagged_wal_under_the_primarys_integrity() {
    let medium = MemEnv::new();
    let integrity = IntegrityOptions { mode: Integrity::Hmac, key: ENGINE_KEY };
    let store = Store { integrity, ..Store::over(Mode::Shield, Arc::new(medium.clone())) };
    let plaintext_wal =
        ShieldOptions { encrypt_wal: false, ..store.shield_options(support::PRIMARY) };
    let db = store.open(|opts| Options { encryption: Encryption::Shield(plaintext_wal), ..opts });
    let mut oracle = Oracle::synced();
    put_all(&db, &mut oracle, 0..50, "w");

    // Every record is in the WAL, which is plaintext and tagged.
    let wals: Vec<String> = medium
        .list_dir(PATH)
        .expect("list")
        .into_iter()
        .filter(|name| matches!(parse_file_name(name), Some(FileType::Wal(_))))
        .collect();
    assert!(!wals.is_empty(), "no WAL segment");
    for wal in &wals {
        let raw = medium.raw_content(&format!("{PATH}/{wal}")).expect("wal bytes");
        assert_eq!(&raw[..8], b"SHLDLOG2", "{wal}: a plaintext, tagged log");
    }

    let reader = Encryption::Shield(store.shield_options(READER));
    let files = |integrity| FileStore::new(store.medium.clone(), &reader, "", integrity);
    let replica = ReplicaDb::open(files(integrity).expect("store"), PATH, manual())
        .expect("open replica");
    check_caught_up(&replica, &oracle);
    assert_eq!(replica.resolver().expect("a SHIELD replica").server(), READER);

    let defaults = files(IntegrityOptions::default()).expect("store");
    let refused = ReplicaDb::open(defaults, PATH, manual()).and_then(|r| r.catch_up());
    assert!(matches!(refused, Err(Error::IntegrityViolation(_))), "{:?}", refused.err());
}

/// One multi-block SST of `n` keys behind a default-sized write buffer.
fn fill_one_sst(db: &Db, n: u16) {
    let w = WriteOptions { sync: true };
    for id in 0..n {
        db.put(&w, &key(id), &[b'v'; 256]).expect("put");
    }
    db.flush().expect("flush");
}

/// A storage fault in the middle of a replica scan fails the scan; it
/// must not come back as a shorter, complete-looking result.
#[test]
fn replica_scan_fails_on_mid_scan_read_fault() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = plain(backing.clone()).open(|opts| opts);
    fill_one_sst(&db, 200);
    let want = db.scan(&ReadOptions::new(), b"key-", 300).expect("primary scan");
    assert_eq!(want.len(), 200);

    let fenv = Arc::new(FaultInjectionEnv::new(backing));
    let replica = plain(fenv.clone()).replica(READER).expect("open replica");
    // Opens the table, so the faulted scan below reads data blocks only.
    assert_eq!(replica.scan(b"key-", 300).expect("clean scan"), want);

    // Seed 1 at p = 0.5 passes the first SST read and fails the second:
    // the scan loses its second data block after serving the first.
    fenv.error_with_probability(FileKind::Sst, FaultOp::Read, 0.5, 1);
    match replica.scan(b"key-", 300) {
        Err(Error::Io(_)) => {}
        Ok(rows) => panic!("scan returned {} of 200 rows as complete", rows.len()),
        Err(other) => panic!("unexpected error {other}"),
    }
    assert!(fenv.stats().injected_for(FaultOp::Read) >= 1);

    fenv.disarm_all();
    assert_eq!(replica.scan(b"key-", 300).expect("scan after faults clear"), want);
}

/// The primary's obsolete-file pass knows nothing of replicas: it unlinks
/// SSTs a replica's published view still names, and a read that then
/// opens one used to fail with `Io(NotFound)` (ROADMAP item 4, one to
/// five runs in 25 of this suite). Forced here without a thread: publish
/// a view, let the primary compact the files it names away and unlink
/// them — the delay rule on the primary's SST `remove_file` counts the
/// unlinks, fencing the interleaving — then read cold. The read must
/// notice the view is too old, catch up and serve the primary's current
/// state. A file that is still missing after that catch-up is reported
/// as such, not as a bare `NotFound`.
#[test]
fn replica_reads_survive_primary_unlinking_files_under_the_view() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let fenv = Arc::new(FaultInjectionEnv::new(backing.clone()));
    fenv.delay_always(FileKind::Sst, FaultOp::Remove, Duration::from_millis(1));
    let db = plain(fenv.clone()).open(small);
    let replica = plain(backing.clone()).replica(READER).expect("open replica");
    let w = WriteOptions { sync: true };
    let value = |round: u32, id: u16| format!("round-{round}-{id:04}").into_bytes();

    type Read = fn(&ReplicaDb) -> Result<Vec<Option<Vec<u8>>>, Error>;
    let reads: [(&str, Read); 3] = [
        ("get", |r| (0..64).map(|id| r.get(&key(id))).collect()),
        ("multi_get", |r| {
            let keys: Vec<Vec<u8>> = (0..64).map(key).collect();
            r.multi_get(&keys.iter().map(Vec::as_slice).collect::<Vec<_>>())
        }),
        ("scan", |r| Ok(r.scan(b"key-", 64)?.into_iter().map(|(_, v)| Some(v)).collect())),
    ];
    let ssts = || -> Vec<String> {
        let names = backing.list_dir("db").expect("list");
        names.into_iter().filter(|name| name.ends_with(".sst")).collect()
    };
    let rewrite = |round: u32| {
        for id in 0..64 {
            db.put(&w, &key(id), &value(round, id)).expect("put");
        }
        db.compact_all().expect("compact");
    };
    for (n, (what, read)) in reads.into_iter().enumerate() {
        let mut round = n as u32 * 100;
        rewrite(round);
        // The view now names the files of a quiescent primary, unopened.
        drain(&replica);
        let named = ssts();
        assert!(!named.is_empty());

        // Rewrite until compaction has replaced, and the obsolete-file
        // pass unlinked, every file the view names.
        let unlinked = fenv.stats().delays;
        while ssts().iter().any(|file| named.contains(file)) {
            round += 1;
            assert!(round % 100 < 10, "{what}: {named:?} never compacted away");
            rewrite(round);
        }
        assert!(fenv.stats().delays >= unlinked + named.len() as u64);

        let before = replica.statistics().snapshot();
        let got = read(&replica).unwrap_or_else(|e| panic!("{what} under unlinked files: {e}"));
        let want: Vec<Option<Vec<u8>>> = (0..64).map(|id| Some(value(round, id))).collect();
        assert_eq!(got, want, "{what}: the retried read must serve the caught-up view");
        // Tickers count user reads, not the attempts a retry took.
        let credited = replica.statistics().snapshot().delta_since(&before);
        let lookups = if what == "scan" { 0 } else { 64 };
        assert_eq!((credited.gets, credited.gets_found), (lookups, lookups), "{what}: gets");
        assert_eq!(credited.multi_gets, u64::from(what == "multi_get"), "{what}: multi_gets");
    }

    // Files the *current* version names go missing: catching up cannot
    // help, and the error says a catch-up was tried.
    for id in 64..128 {
        db.put(&w, &key(id), b"doomed").expect("put");
    }
    db.compact_all().expect("compact");
    drain(&replica);
    for file in ssts() {
        backing.remove_file(&format!("db/{file}")).expect("remove");
    }
    match replica.get(&key(100)) {
        Err(Error::Io(shield_env::EnvError::Io(msg))) => {
            assert!(msg.contains("after a catch-up"), "unhelpful message: {msg}");
        }
        other => panic!("expected the still-missing-after-catch-up error, got {other:?}"),
    }
}

/// A tampered data block under `Integrity::Hmac` fails the replica scan
/// as an integrity violation, not as a prefix of the range.
#[test]
fn replica_scan_fails_on_tampered_block() {
    let mem = MemEnv::new();
    let integrity = IntegrityOptions { mode: Integrity::Hmac, key: ENGINE_KEY };
    let store = Store { integrity, ..plain(Arc::new(mem.clone())) };
    let db = store.open(|opts| opts);
    fill_one_sst(&db, 200);

    // Flip one bit in the middle of the file: data blocks come first, so
    // the midpoint is a data block several blocks into the scan.
    let name = mem
        .list_dir("db")
        .expect("list")
        .into_iter()
        .find(|n| n.ends_with(".sst"))
        .expect("one sst");
    let path = format!("db/{name}");
    let mut raw = mem.raw_content(&path).expect("raw sst");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    mem.set_raw_content(&path, raw).expect("tamper");

    let replica = store.replica(READER).expect("open replica");
    match replica.scan(b"key-", 300) {
        Err(Error::IntegrityViolation(_)) => {}
        Ok(rows) => panic!("scan returned {} of 200 rows as complete", rows.len()),
        Err(other) => panic!("unexpected error {other}"),
    }
    // Blocks before the tampered one still serve.
    assert_eq!(replica.get(&key(0)).expect("get"), Some(vec![b'v'; 256]));
}

/// Random-history differential: puts, deletes, batches, flushes against
/// the primary of one mode, under CRC and under HMAC; at every
/// checkpoint the replica — another server over the same medium, with
/// its own mount and, in SHIELD mode, its own identity at the KDS — must
/// equal the oracle (and hence the primary) byte for byte.
fn run_differential(mode: Mode, actions: &[Action]) {
    for integrity in [Integrity::Crc, Integrity::Hmac] {
        eprintln!("{mode:?}/{integrity:?}");
        let integrity = IntegrityOptions { mode: integrity, key: ENGINE_KEY };
        let store = Store { integrity, ..Store::new(mode) };
        let primary = store.open(small);
        let replica = store.replica(READER).expect("open replica");
        let mut oracle = Oracle::synced();
        for action in actions.iter().chain([&Action::Check]) {
            if *action == Action::Check {
                check_caught_up(&replica, &oracle);
            }
            apply(&primary, &mut oracle, action);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, max_shrink_iters: 80, ..ProptestConfig::default() })]

    #[test]
    fn replica_differential_plain(actions in proptest::collection::vec(actions(&REPLICA), 1..60)) {
        run_differential(Mode::Plain, &actions);
    }

    #[test]
    fn replica_differential_encfs(actions in proptest::collection::vec(actions(&REPLICA), 1..60)) {
        run_differential(Mode::EncFs, &actions);
    }

    #[test]
    fn replica_differential_shield(actions in proptest::collection::vec(actions(&REPLICA), 1..60)) {
        run_differential(Mode::Shield, &actions);
    }
}

/// Fixed seeds in every mode. The shapes they were chosen for are
/// asserted, so a generator change that loses them says so here.
#[test]
fn regression_seeds_cover_checkpoints_between_flushes_and_batches() {
    for seed in [2, 13] {
        eprintln!("seed {seed}");
        let actions = history(seed, &REPLICA, 120);
        let checkpoint = |a: &&Action| **a == Action::Check || **a == Action::Flush;
        let kinds: Vec<&Action> = actions.iter().filter(checkpoint).collect();
        assert!(kinds.windows(2).any(|w| w == [&Action::Flush, &Action::Check]), "seed {seed}");
        assert!(kinds.windows(2).any(|w| w == [&Action::Check, &Action::Check]), "seed {seed}");
        assert!(actions.iter().any(|a| matches!(a, Action::Batch(ops) if ops.len() >= 6)));
        for mode in MODES {
            run_differential(mode, &actions);
        }
    }
}
