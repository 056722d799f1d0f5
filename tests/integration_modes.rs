//! Cross-crate integration: the same workload must behave identically in
//! all three encryption modes (plain / EncFS / SHIELD) across flushes,
//! compactions, restarts — and leave no plaintext behind in the encrypted
//! modes.

mod support;

use std::sync::Arc;

use shield::deploy::OffloadedCompactor;
use shield_env::{Env, MemEnv};
use shield_kds::{Kds, KdsConfig, LocalKds};
use shield_lsm::{
    Db, Error, Integrity, IntegrityOptions, Options, ReadOptions, WriteBatch, WriteOptions,
    READY_DEKS,
};
use support::{Mode, Primary, Store, COMPACTOR, ENGINE_KEY, MODES, READER};

const MARKER: &[u8] = b"PLAINTEXT-CANARY-VALUE";

/// A store, the medium under it (the attacker's view of the disk) and
/// its KDS's own counters.
struct TestDb {
    env: MemEnv,
    kds: Arc<LocalKds>,
    store: Store,
}

impl TestDb {
    fn new(mode: Mode) -> Self {
        Self::with_integrity(mode, IntegrityOptions::default())
    }

    fn with_integrity(mode: Mode, integrity: IntegrityOptions) -> Self {
        let env = MemEnv::new();
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let store = Store {
            kds: kds.clone() as Arc<dyn Kds>,
            local: Some(kds.clone()),
            integrity,
            ..Store::over(mode, Arc::new(env.clone()))
        };
        TestDb { env, kds, store }
    }

    fn tune(opts: Options) -> Options {
        let mut o = support::small(opts).with_write_buffer_size(16 << 10);
        o.compaction.target_file_size = 64 << 10;
        o
    }

    /// Opens (or reopens) the database.
    fn open(&self) -> Primary {
        self.store.open(Self::tune)
    }

    /// Opens with every compaction handed to a fresh offloaded compactor
    /// under its own identity.
    fn open_offloaded(
        &self,
        tune: impl FnOnce(Options) -> Options,
    ) -> (Primary, Arc<OffloadedCompactor>) {
        let compactor = OffloadedCompactor::new(self.store.files_for(COMPACTOR));
        let db = self.store.open(|opts| {
            let mut opts = tune(Self::tune(opts));
            opts.compaction_executor = Some(compactor.clone());
            opts
        });
        (db, compactor)
    }

    /// All raw database bytes currently on "disk".
    fn raw_bytes(&self) -> Vec<u8> {
        let mut all = Vec::new();
        for name in self.env.list_dir("db").expect("list") {
            all.extend(self.env.raw_content(&format!("db/{name}")).expect("raw"));
        }
        all
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn full_lifecycle_identical_across_modes() {
    let w = WriteOptions::default();
    let r = ReadOptions::new();
    for mode in MODES {
        let t = TestDb::new(mode);
        {
            let db = t.open();
            // Enough data to force flushes and compactions.
            for i in 0..3000u32 {
                let mut v = MARKER.to_vec();
                v.extend_from_slice(format!("-{i}").as_bytes());
                db.put(&w, format!("key{:05}", i % 1000).as_bytes(), &v).unwrap();
            }
            db.delete(&w, b"key00007").unwrap();
            db.compact_all().unwrap();

            // Reads across levels.
            assert!(db.get(&r, b"key00500").unwrap().is_some(), "{mode:?}");
            assert_eq!(db.get(&r, b"key00007").unwrap(), None, "{mode:?}");
            // Scans see live keys in order.
            let page = db.scan(&r, b"key00005", 4).unwrap();
            let keys: Vec<_> =
                page.iter().map(|(k, _)| String::from_utf8_lossy(k).to_string()).collect();
            assert_eq!(keys, ["key00005", "key00006", "key00008", "key00009"], "{mode:?}");
            assert!(db.statistics().snapshot().compactions >= 1, "{mode:?}");
        }
        // Restart: everything still there.
        let db = t.open();
        assert!(db.get(&r, b"key00999").unwrap().is_some(), "{mode:?} after restart");
        assert_eq!(db.get(&r, b"key00007").unwrap(), None, "{mode:?} after restart");

        // Confidentiality: encrypted modes leave no canary on disk.
        let raw = t.raw_bytes();
        let leaked = contains(&raw, MARKER);
        match mode {
            Mode::Plain => assert!(leaked, "plain mode should store plaintext"),
            Mode::EncFs | Mode::Shield => {
                assert!(!leaked, "{mode:?} leaked plaintext to disk");
            }
        }
    }
}

#[test]
fn batches_and_snapshots_across_modes() {
    let w = WriteOptions::default();
    for mode in MODES {
        let t = TestDb::new(mode);
        let db = t.open();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        batch.delete(b"a");
        db.write(&w, batch).unwrap();
        let snap = db.snapshot();
        db.put(&w, b"b", b"overwritten").unwrap();
        assert_eq!(db.get(&snap.read_options(), b"b").unwrap(), Some(b"2".to_vec()), "{mode:?}");
        assert_eq!(
            db.get(&ReadOptions::new(), b"b").unwrap(),
            Some(b"overwritten".to_vec()),
            "{mode:?}"
        );
        assert_eq!(db.get(&ReadOptions::new(), b"a").unwrap(), None, "{mode:?}");
    }
}

#[test]
fn iterators_merge_all_sources_in_every_mode() {
    let w = WriteOptions::default();
    for mode in MODES {
        let t = TestDb::new(mode);
        let db = t.open();
        // SST layer.
        for i in 0..500u32 {
            db.put(&w, format!("s{i:04}").as_bytes(), b"sst").unwrap();
        }
        db.flush().unwrap();
        // Memtable layer, including overwrites.
        for i in (0..500u32).step_by(2) {
            db.put(&w, format!("s{i:04}").as_bytes(), b"mem").unwrap();
        }
        let mut it = db.iter(&ReadOptions::new()).unwrap();
        it.seek_to_first();
        let mut n = 0;
        while it.valid() {
            let expected: &[u8] = if n % 2 == 0 { b"mem" } else { b"sst" };
            assert_eq!(it.value(), expected, "{mode:?} key {n}");
            n += 1;
            it.next();
        }
        assert_eq!(n, 500, "{mode:?}");
    }
}

#[test]
fn shield_restart_uses_cache_not_kds() {
    let t = TestDb::new(Mode::Shield);
    {
        let db = t.open();
        for i in 0..2000u32 {
            db.put(&WriteOptions::default(), format!("{i:06}").as_bytes(), b"v").unwrap();
        }
        db.compact_all().unwrap();
    }
    let fetches_before = t.kds.stats().fetched;
    let db = t.open();
    assert!(db.get(&ReadOptions::new(), b"001234").unwrap().is_some());
    assert_eq!(
        t.kds.stats().fetched,
        fetches_before,
        "restart resolutions must come from the secure cache"
    );
}

#[test]
fn shield_dek_count_tracks_live_files() {
    let t = TestDb::new(Mode::Shield);
    let db = t.open();
    for i in 0..3000u32 {
        db.put(&WriteOptions::default(), format!("{:06}", i % 500).as_bytes(), &[b'x'; 100])
            .unwrap();
    }
    db.compact_all().unwrap();
    // While open, the KDS also holds the keys the file store keeps ready.
    let live_files = t.env.list_dir("db").unwrap().len();
    let live_deks = t.kds.live_dek_count();
    assert!(
        live_deks <= live_files + READY_DEKS,
        "live DEKs ({live_deks}) exceed live files ({live_files}) by more than the ready queue"
    );
    let stats = t.kds.stats();
    assert!(stats.generated as usize > live_deks, "rotation must have retired DEKs");
    // Closed, live DEKs = live files (SSTs + WAL + manifest), exactly:
    // compaction revoked the rotated-away keys, close the unused ones.
    t.store.close(db);
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

/// Every one of the first `n` keys is there, by `get` (a primary's or a
/// replica's).
fn assert_all_readable(
    get: impl Fn(&[u8]) -> shield_lsm::Result<Option<Vec<u8>>>,
    n: u32,
    what: &str,
) {
    for i in 0..n {
        assert!(get(&key(i)).expect(what).is_some(), "{what}: key {i}");
    }
}

fn primary_get(db: &Db) -> impl Fn(&[u8]) -> shield_lsm::Result<Option<Vec<u8>>> + '_ {
    |k| db.get(&ReadOptions::new(), k)
}

/// An offloaded compactor reads and writes under the engine's integrity
/// settings, not the defaults: with a non-default key it used to refuse
/// the primary's own files (`block HMAC tag mismatch in file 6`).
#[test]
fn offloaded_compaction_authenticates_with_the_engine_key() {
    for mode in [Mode::Plain, Mode::EncFs] {
        let t = TestDb::with_integrity(
            mode,
            IntegrityOptions { mode: Integrity::Hmac, key: ENGINE_KEY },
        );
        let (db, compactor) = t.open_offloaded(|opts| opts);
        for i in 0..3000 {
            db.put(&WriteOptions::default(), &key(i), &[b'v'; 32]).expect("put");
        }
        db.compact_all().expect("compact_all");
        assert!(compactor.jobs_executed() >= 1, "{mode:?}: nothing was offloaded");
        assert_all_readable(primary_get(&db), 3000, "after offloaded compaction");
        db.verify_integrity().expect("verify_integrity");
    }
}

/// One compactor serves every tree of a database: it takes the directory
/// from the request (it used to be bound to one, `NotFound db/000003.sst`).
#[test]
fn offloaded_compaction_serves_every_tree() {
    let t = TestDb::new(Mode::Plain);
    let (db, compactor) = t.open_offloaded(|opts| opts.with_shards(2));
    for i in 0..3000 {
        db.put(&WriteOptions::default(), &key(i), &[b'v'; 32]).expect("put");
    }
    db.compact_all().expect("compact_all");
    let trees = db.metrics_report().trees;
    assert_eq!(trees.len(), 2);
    for (i, tree) in trees.iter().enumerate() {
        assert!(tree.compactions >= 1, "tree {i} was never compacted");
    }
    assert!(compactor.jobs_executed() >= 2);
    assert_all_readable(primary_get(&db), 3000, "after offloaded compaction");
}

fn error_class(e: &Error) -> &'static str {
    match e {
        Error::IntegrityViolation(_) => "integrity violation",
        Error::Corruption(_) => "corruption",
        _ => "other",
    }
}

/// The rule SHIELD's disaggregated story rests on: whatever a primary
/// wrote, every other party — a restarted primary, a read replica, an
/// offloaded compactor, `verify_integrity` — opens and authenticates under
/// its own identity, and all of them refuse the same forged bytes alike.
#[test]
fn every_reader_authenticates_what_the_primary_wrote() {
    const KEYS: u32 = 600;
    for mode in MODES {
        for integrity in [Integrity::Crc, Integrity::Hmac] {
            let what = format!("{mode:?}/{integrity:?}");
            let t = TestDb::with_integrity(mode, IntegrityOptions { mode: integrity, key: ENGINE_KEY });
            // No compaction until asked for: every reader sees the files
            // the first primary wrote.
            let quiet = |opts| {
                let mut opts = TestDb::tune(opts);
                opts.compaction.l0_compaction_trigger = 1000;
                opts.l0_slowdown_trigger = 1000;
                opts.l0_stop_trigger = 1000;
                opts
            };
            let replica = || t.store.replica(READER);
            {
                let db = t.store.open(quiet);
                for i in 0..KEYS {
                    db.put(&WriteOptions::default(), &key(i), &[b'v'; 100]).expect("put");
                }
                db.flush().expect("flush");
            }

            // Accepted by a reopened primary, its integrity walk and a replica.
            {
                let db = t.store.open(quiet);
                assert_all_readable(primary_get(&db), KEYS, &what);
                assert!(db.verify_integrity().expect(&what).files >= 2, "{what}");
            }
            let reader = replica().expect(&what);
            assert_all_readable(|k| reader.get(k), KEYS, &what);
            drop(reader);

            // One flipped bit in the middle of one SST (data blocks come
            // first) is refused by each of them with the same error class.
            let victim = t
                .env
                .list_dir("db")
                .expect("list")
                .into_iter()
                .filter(|name| name.ends_with(".sst"))
                .map(|name| format!("db/{name}"))
                .min()
                .expect("an sst");
            let pristine = t.env.raw_content(&victim).expect("raw");
            let mut forged = pristine.clone();
            forged[pristine.len() / 2] ^= 0x01;
            t.env.set_raw_content(&victim, forged).expect("tamper");
            let expected = match integrity {
                Integrity::Hmac => "integrity violation",
                Integrity::Crc => "corruption",
            };
            {
                let db = t.store.open(quiet);
                let scan = db.scan(&ReadOptions::new(), b"", usize::MAX).expect_err(&what);
                assert_eq!(error_class(&scan), expected, "{what}: primary scan: {scan}");
                let walk = db.verify_integrity().expect_err(&what);
                assert_eq!(error_class(&walk), expected, "{what}: verify_integrity: {walk}");
            }
            let scan = replica().expect(&what).scan(b"", usize::MAX).expect_err(&what);
            assert_eq!(error_class(&scan), expected, "{what}: replica scan: {scan}");
            {
                let (db, _) = t.open_offloaded(|opts| opts);
                let job = db.compact_all().expect_err(&what);
                assert_eq!(error_class(&job), expected, "{what}: offloaded compaction: {job}");
            }

            // The honest bytes again: the compactor accepts them too, and
            // everyone accepts what the compactor wrote.
            t.env.set_raw_content(&victim, pristine).expect("restore");
            let (db, compactor) = t.open_offloaded(|opts| opts);
            db.compact_all().expect(&what);
            assert!(compactor.jobs_executed() >= 1, "{what}: nothing was offloaded");
            assert_all_readable(primary_get(&db), KEYS, &what);
            db.verify_integrity().expect(&what);
            let reader = replica().expect(&what);
            assert_all_readable(|k| reader.get(k), KEYS, &what);
        }
    }
}
