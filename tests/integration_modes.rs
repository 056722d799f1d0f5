//! Cross-crate integration: the same workload must behave identically in
//! all three encryption modes (plain / EncFS / SHIELD) across flushes,
//! compactions, restarts — and leave no plaintext behind in the encrypted
//! modes.

use std::sync::Arc;

use shield::deploy::OffloadedCompactor;
use shield::{open_encfs, open_plain, open_shield, EncryptedEnv, ShieldOptions};
use shield_crypto::{Algorithm, Dek};
use shield_env::{Env, MemEnv};
use shield_kds::{DekResolver, Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{
    Db, EncryptionConfig, Error, FileStore, Integrity, IntegrityOptions, Options, ReadOptions,
    ReplicaDb, ReplicaOptions, WriteBatch, WriteOptions,
};

const MARKER: &[u8] = b"PLAINTEXT-CANARY-VALUE";
/// A non-default engine-wide MAC key: a reader that falls back to the
/// default key cannot verify what a primary tagged with this one.
const ENGINE_KEY: [u8; 32] = [0x42; 32];
const COMPACTOR: ServerId = ServerId(2);
const READER: ServerId = ServerId(3);

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Plain,
    EncFs,
    Shield,
}

const MODES: [Mode; 3] = [Mode::Plain, Mode::EncFs, Mode::Shield];

struct TestDb {
    env: MemEnv,
    kds: Arc<LocalKds>,
    dek: Dek,
    mode: Mode,
    integrity: IntegrityOptions,
}

impl TestDb {
    fn new(mode: Mode) -> Self {
        Self::with_integrity(mode, IntegrityOptions::default())
    }

    fn with_integrity(mode: Mode, integrity: IntegrityOptions) -> Self {
        TestDb {
            env: MemEnv::new(),
            kds: Arc::new(LocalKds::new(KdsConfig::default())),
            dek: Dek::generate(Algorithm::Aes128Ctr),
            mode,
            integrity,
        }
    }

    fn opts(&self) -> Options {
        let mut o = Options::new(Arc::new(self.env.clone()))
            .with_write_buffer_size(16 << 10)
            .with_integrity(self.integrity.mode)
            .with_integrity_key(self.integrity.key);
        o.compaction.l0_compaction_trigger = 2;
        o.compaction.target_file_size = 64 << 10;
        o
    }

    /// Opens (or reopens) the database; returns a uniform handle.
    fn open(&self) -> Box<dyn std::ops::Deref<Target = Db>> {
        self.open_with(self.opts())
    }

    fn open_with(&self, opts: Options) -> Box<dyn std::ops::Deref<Target = Db>> {
        match self.mode {
            Mode::Plain => {
                let db = open_plain(opts, "db").expect("open plain");
                Box::new(DbBox(db))
            }
            Mode::EncFs => {
                Box::new(open_encfs(opts, "db", self.dek.clone(), 512).expect("open encfs"))
            }
            Mode::Shield => Box::new(
                open_shield(
                    opts,
                    "db",
                    ShieldOptions::new(self.kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk"),
                )
                .expect("open shield"),
            ),
        }
    }

    /// The file layer of another server (a replica, a compactor) over the
    /// same medium: its own mount, in SHIELD mode its own identity at the
    /// KDS, and the deployment's integrity settings.
    fn files_for(&self, server: ServerId) -> FileStore {
        let base: Arc<dyn Env> = Arc::new(self.env.clone());
        let (env, encryption) = match self.mode {
            Mode::Plain => (base, None),
            Mode::EncFs => {
                (Arc::new(EncryptedEnv::new(base, self.dek.clone(), 512)) as Arc<dyn Env>, None)
            }
            Mode::Shield => {
                let resolver = DekResolver::new(
                    self.kds.clone() as Arc<dyn Kds>,
                    None,
                    server,
                    Algorithm::Aes128Ctr,
                );
                (base, Some(EncryptionConfig::new(Arc::new(resolver))))
            }
        };
        FileStore::new(env, encryption, self.integrity)
    }

    /// Options that hand every compaction to a fresh offloaded compactor.
    fn offloaded_opts(&self) -> (Options, Arc<OffloadedCompactor>) {
        let compactor = OffloadedCompactor::new(self.files_for(COMPACTOR));
        let mut opts = self.opts();
        opts.compaction_executor = Some(compactor.clone());
        (opts, compactor)
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

struct DbBox(Db);

impl std::ops::Deref for DbBox {
    type Target = Db;
    fn deref(&self) -> &Db {
        &self.0
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
    // Live DEKs = live files (SSTs + active WAL + manifest). Compaction
    // must have revoked the rotated-away keys.
    let live_files = t.env.list_dir("db").unwrap().len();
    let live_deks = t.kds.live_dek_count();
    assert!(
        live_deks <= live_files,
        "live DEKs ({live_deks}) must not exceed live files ({live_files})"
    );
    let stats = t.kds.stats();
    assert!(stats.generated as usize > live_deks, "rotation must have retired DEKs");
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
        let (opts, compactor) = t.offloaded_opts();
        let db = t.open_with(opts);
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
    let (opts, compactor) = t.offloaded_opts();
    let db = t.open_with(opts.with_shards(2));
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
            let quiet = || {
                let mut opts = t.opts();
                opts.compaction.l0_compaction_trigger = 1000;
                opts.l0_slowdown_trigger = 1000;
                opts.l0_stop_trigger = 1000;
                opts
            };
            let replica = || {
                let opts = ReplicaOptions { auto_poll: false, ..ReplicaOptions::default() };
                ReplicaDb::open(t.files_for(READER), "db", opts)
            };
            {
                let db = t.open_with(quiet());
                for i in 0..KEYS {
                    db.put(&WriteOptions::default(), &key(i), &[b'v'; 100]).expect("put");
                }
                db.flush().expect("flush");
            }

            // Accepted by a reopened primary, its integrity walk and a replica.
            {
                let db = t.open_with(quiet());
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
                let db = t.open_with(quiet());
                let scan = db.scan(&ReadOptions::new(), b"", usize::MAX).expect_err(&what);
                assert_eq!(error_class(&scan), expected, "{what}: primary scan: {scan}");
                let walk = db.verify_integrity().expect_err(&what);
                assert_eq!(error_class(&walk), expected, "{what}: verify_integrity: {walk}");
            }
            let scan = replica().expect(&what).scan(b"", usize::MAX).expect_err(&what);
            assert_eq!(error_class(&scan), expected, "{what}: replica scan: {scan}");
            {
                let (opts, _) = t.offloaded_opts();
                let db = t.open_with(opts);
                let job = db.compact_all().expect_err(&what);
                assert_eq!(error_class(&job), expected, "{what}: offloaded compaction: {job}");
            }

            // The honest bytes again: the compactor accepts them too, and
            // everyone accepts what the compactor wrote.
            t.env.set_raw_content(&victim, pristine).expect("restore");
            let (opts, compactor) = t.offloaded_opts();
            let db = t.open_with(opts);
            db.compact_all().expect(&what);
            assert!(compactor.jobs_executed() >= 1, "{what}: nothing was offloaded");
            assert_all_readable(primary_get(&db), KEYS, &what);
            db.verify_integrity().expect(&what);
            let reader = replica().expect(&what);
            assert_all_readable(|k| reader.get(k), KEYS, &what);
        }
    }
}
