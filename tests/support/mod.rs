//! The one test bench (DESIGN.md "Testing"): every oracle-backed suite
//! draws its mode matrix, its history and its oracle from here.
//!
//! * **The store** — [`Mode`] × medium × KDS → [`Store::open`] (a
//!   [`Primary`], the same struct in every mode) and [`Store::files_for`]
//!   (another server's file layer: replicas, compactors, table fixtures).
//! * **The history** — one [`Action`], [`Profile`]s that weight it,
//!   [`actions`] for `proptest!` and [`history`] for a `u64` seed.
//! * **The oracle** — [`Oracle`], [`apply`] and [`check`] (which also
//!   asserts the conservation laws on the handle's metrics report,
//!   against the lookups it issues, the files the medium saw created and
//!   the events the engine announced), and [`Store::close`] (keys die
//!   with their files, used or not).
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;
use shield::{
    open_encfs, open_plain, open_shield, EncryptedEnv, Shield, ShieldOptions, DEK_CACHE_FILE,
};
use shield_core::{Event, EventListener};
use shield_crypto::{Algorithm, Dek};
use shield_env::{
    Env, EnvResult, FileKind, IoStats, MemEnv, RandomAccessFile, SequentialFile, WritableFile,
};
use shield_kds::{
    DekResolver, Kds, KdsConfig, LocalKds, ReplicatedKds, RetryPolicy, SecureDekCache, ServerId,
};
use shield_lsm::{
    Db, DbIterator, EncryptionConfig, FileStore, Integrity, IntegrityOptions, MetricsReport,
    Options, ReadOptions, ReplicaDb, ReplicaOptions, Snapshot, StatsSnapshot, WriteBatch,
    WriteOptions, MAX_SEQUENTIAL_SKIP,
};

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Directory every store keeps its database in.
pub const PATH: &str = "db";
pub const PRIMARY: ServerId = ServerId(1);
pub const COMPACTOR: ServerId = ServerId(2);
pub const READER: ServerId = ServerId(3);
/// A non-default engine-wide MAC key: a reader that falls back to the
/// default key cannot verify what a primary tagged with this one.
pub const ENGINE_KEY: [u8; 32] = [0x42; 32];
/// WAL application buffer of the EncFS mount (the paper's "EncFS +
/// WAL-Buf" variant; SHIELD's own default is the same 512 B).
const ENCFS_WAL_BUFFER: usize = 512;

/// The paper's three encryption designs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Plain,
    EncFs,
    Shield,
}

pub const MODES: [Mode; 3] = [Mode::Plain, Mode::EncFs, Mode::Shield];

/// One deployment's persistent state: the medium holding the files and
/// the key material that must survive reopens. Any server opens it —
/// the primary through [`Store::open`], everyone else through
/// [`Store::files_for`].
pub struct Store {
    pub mode: Mode,
    pub medium: Arc<dyn Env>,
    pub kds: Arc<dyn Kds>,
    /// The KDS's own ledger of live keys, which [`Store::close`] checks;
    /// `None` when `kds` was swapped for one that keeps none.
    pub local: Option<Arc<LocalKds>>,
    /// The EncFS instance DEK.
    pub dek: Dek,
    pub integrity: IntegrityOptions,
}

/// A primary handle, the same shape in every mode. Derefs to [`Db`];
/// `primary.db.simulate_process_crash()` moves the engine out.
pub struct Primary {
    pub db: Db,
    /// The SHIELD identity's resolver; `None` in the other modes.
    pub resolver: Option<Arc<DekResolver>>,
    /// Files of the DEK-bearing kinds this handle has created.
    created: Arc<AtomicU64>,
    /// What this handle's engine has announced in events.
    announced: Arc<Announced>,
}

impl Deref for Primary {
    type Target = Db;
    fn deref(&self) -> &Db {
        &self.db
    }
}

impl Store {
    /// A fresh in-memory deployment with its own KDS.
    pub fn new(mode: Mode) -> Store {
        Store::over(mode, Arc::new(MemEnv::new()))
    }

    /// A deployment over `medium` (a `MemEnv` the test keeps a clone of,
    /// a `FaultInjectionEnv`, a `RemoteEnv` mount…). Swap the KDS or the
    /// integrity settings with struct-update syntax.
    pub fn over(mode: Mode, medium: Arc<dyn Env>) -> Store {
        let local = Arc::new(LocalKds::new(KdsConfig::default()));
        Store {
            mode,
            medium,
            kds: local.clone(),
            local: Some(local),
            dek: Dek::generate(Algorithm::Aes128Ctr),
            integrity: IntegrityOptions::default(),
        }
    }

    /// `server`'s SHIELD identity: the default options with a retry
    /// policy short enough for outage tests.
    pub fn shield_options(&self, server: ServerId) -> ShieldOptions {
        let mut sopts = ShieldOptions::new(self.kds.clone(), server, b"pk");
        sopts.retry_policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        sopts
    }

    /// Opens (or reopens) the primary through the product's own open for
    /// this mode. `tune` edits the options — start from [`small`] for an
    /// LSM tree that flushes and compacts under short histories.
    pub fn open(&self, tune: impl FnOnce(Options) -> Options) -> Primary {
        let created = Arc::new(AtomicU64::new(0));
        let (inner, counter) = (self.medium.clone(), created.clone());
        let medium = Arc::new(CreateCounter { inner, created: counter });
        let announced = Arc::new(Announced::default());
        let opts = tune(
            Options::new(medium)
                .with_integrity(self.integrity.mode)
                .with_integrity_key(self.integrity.key),
        )
        .with_event_listener(announced.clone());
        let (db, resolver) = match self.mode {
            Mode::Plain => (open_plain(opts, PATH).expect("open plain"), None),
            Mode::EncFs => {
                let encfs = open_encfs(opts, PATH, self.dek.clone(), ENCFS_WAL_BUFFER);
                (encfs.expect("open encfs").db, None)
            }
            Mode::Shield => {
                let Shield { db, resolver, .. } =
                    open_shield(opts, PATH, self.shield_options(PRIMARY)).expect("open shield");
                (db, Some(resolver))
            }
        };
        Primary { db, resolver, created, announced }
    }

    /// Closes `primary` cleanly. In SHIELD mode *keys die with their
    /// files, used or not*: what the KDS still holds, what the secure
    /// cache still holds and the DEK-bearing files left in the directory
    /// are the same number — no key outlives its file, none was left
    /// behind unbound.
    pub fn close(&self, primary: Primary) {
        drop(primary);
        let (Mode::Shield, Some(kds)) = (self.mode, &self.local) else { return };
        let files = dek_files(self.medium.as_ref(), PATH);
        let cache_path = format!("{PATH}/{DEK_CACHE_FILE}");
        let cached = SecureDekCache::open(self.medium.clone(), &cache_path, b"pk")
            .expect("the primary's secure cache")
            .len();
        assert_eq!(kds.live_dek_count(), files, "after a clean close: KDS keys != DEK files");
        assert_eq!(cached, files, "after a clean close: cached keys != DEK files");
    }

    /// The file layer of another server (a replica, a compactor, a table
    /// fixture) over the same medium: its own mount, in SHIELD mode its
    /// own identity at the KDS, and the deployment's integrity settings.
    /// The only place under `tests/` where a mode becomes
    /// `(env, Option<EncryptionConfig>)`.
    pub fn files_for(&self, server: ServerId) -> FileStore {
        let medium = self.medium.clone();
        let (env, encryption): (Arc<dyn Env>, _) = match self.mode {
            Mode::Plain => (medium, None),
            Mode::EncFs => {
                (Arc::new(EncryptedEnv::new(medium, self.dek.clone(), ENCFS_WAL_BUFFER)), None)
            }
            Mode::Shield => {
                let resolver =
                    DekResolver::new(self.kds.clone(), None, server, Algorithm::Aes128Ctr);
                (medium, Some(EncryptionConfig::new(Arc::new(resolver))))
            }
        };
        FileStore::new(env, encryption, self.integrity)
    }

    /// A read-only instance under `server`'s identity, refreshed by hand
    /// ([`drain`]).
    pub fn replica(&self, server: ServerId) -> shield_lsm::Result<Arc<ReplicaDb>> {
        ReplicaDb::open(self.files_for(server), PATH, manual())
    }
}

/// A deployment over `medium` whose KDS is `replicas` replicas that can
/// be failed by hand.
pub fn replicated(
    mode: Mode,
    medium: Arc<dyn Env>,
    replicas: usize,
) -> (Store, Arc<ReplicatedKds>) {
    let kds = Arc::new(ReplicatedKds::new(replicas, KdsConfig::default()));
    (Store { kds: kds.clone(), local: None, ..Store::over(mode, medium) }, kds)
}

/// Whether a file of this name gets a DEK in SHIELD mode.
fn bears_dek(name: &str) -> bool {
    use shield_lsm::version::filenames::{parse_file_name, FileType};
    let kind = parse_file_name(name);
    matches!(kind, Some(FileType::Sst(_) | FileType::Wal(_) | FileType::Manifest(_)))
}

/// DEK-bearing files in `dir` and in its `shard-<i>` tree directories
/// (probed by name: a `MemEnv` lists files only).
fn dek_files(env: &dyn Env, dir: &str) -> usize {
    let count = |dir: &str| {
        let names = env.list_dir(dir).unwrap_or_default();
        (!names.is_empty()).then(|| names.iter().filter(|name| bears_dek(name)).count())
    };
    let shards = (0..).map_while(|i| count(&format!("{dir}/shard-{i}")));
    count(dir).unwrap_or(0) + shards.sum::<usize>()
}

/// The medium as a primary sees it, counting the files of DEK-bearing
/// kinds it creates: the other side of the `dek_queue_hits +
/// dek_queue_misses` law in [`check`].
struct CreateCounter {
    inner: Arc<dyn Env>,
    created: Arc<AtomicU64>,
}

impl Env for CreateCounter {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        let file = self.inner.new_writable_file(path, kind)?;
        if bears_dek(path.rsplit('/').next().unwrap_or(path)) {
            self.created.fetch_add(1, Ordering::Relaxed);
        }
        Ok(file)
    }
    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
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
    fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.inner.io_stats()
    }
    fn fault_stats(&self) -> Option<shield_env::FaultStatsSnapshot> {
        self.inner.fault_stats()
    }
    fn set_event_listener(&self, listener: Arc<dyn shield_core::EventListener>) {
        self.inner.set_event_listener(listener);
    }
}

/// Sums over the events a primary's engine has emitted since it opened:
/// the other side of the compaction laws in [`check`].
#[derive(Default)]
struct Announced {
    /// Σ `SubcompactionBegin.subtasks`.
    subtasks: AtomicU64,
    /// Σ `CompactionEnd.bytes_written`.
    compaction_bytes_written: AtomicU64,
}

impl EventListener for Announced {
    fn on_event(&self, event: &Event) {
        match event {
            Event::SubcompactionBegin { subtasks, .. } => {
                self.subtasks.fetch_add(*subtasks, Ordering::Relaxed);
            }
            Event::CompactionEnd { bytes_written, .. } => {
                self.compaction_bytes_written.fetch_add(*bytes_written, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Replica options for deterministic tests: no background thread, rounds
/// are driven by hand.
pub fn manual() -> ReplicaOptions {
    ReplicaOptions { auto_poll: false, ..ReplicaOptions::default() }
}

/// The small-tree tuning: 8 KiB memtables, compaction at two L0 files,
/// 32 KiB output files — a hundred-action history reaches every level.
pub fn small(opts: Options) -> Options {
    let mut opts = opts.with_write_buffer_size(8 << 10);
    opts.compaction.l0_compaction_trigger = 2;
    opts.compaction.target_file_size = 32 << 10;
    opts
}

/// One cell of the configuration matrix.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub mode: Mode,
    pub integrity: Integrity,
    pub trees: usize,
}

impl Cell {
    /// A fresh in-memory store for this cell, under [`ENGINE_KEY`].
    pub fn store(&self) -> Store {
        let integrity = IntegrityOptions { mode: self.integrity, key: ENGINE_KEY };
        Store { integrity, ..Store::new(self.mode) }
    }

    /// [`small`] with this cell's tree count.
    pub fn tune(&self, opts: Options) -> Options {
        small(opts).with_shards(self.trees)
    }
}

/// Modes × `{Crc, Hmac}` × trees `{1, 4}`.
pub fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for mode in MODES {
        for integrity in [Integrity::Crc, Integrity::Hmac] {
            for trees in [1, 4] {
                cells.push(Cell { mode, integrity, trees });
            }
        }
    }
    cells
}

/// The matrix cells of one mode.
pub fn cells_of(mode: Mode) -> impl Iterator<Item = Cell> {
    matrix().into_iter().filter(move |cell| cell.mode == mode)
}

// ---------------------------------------------------------------------
// The history
// ---------------------------------------------------------------------

/// `key-00000`, `key-00001`, …
pub fn key(id: u16) -> Vec<u8> {
    format!("key-{id:05}").into_bytes()
}

/// One step of a history. Key ids are already inside the profile's
/// keyspace.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    Put(u16, Vec<u8>),
    Delete(u16),
    /// An atomic batch over consecutive key ids (`None` deletes): they
    /// straddle range boundaries and hash onto different trees.
    Batch(Vec<(u16, Option<Vec<u8>>)>),
    Flush,
    CompactAll,
    /// Clean close and open again; the caller owns the handle.
    Reopen,
    /// A bounded scan from a key must equal the oracle's range.
    ScanCheck(u16, u8),
    /// The same through a fresh snapshot, which the oracle then holds.
    SnapshotCheck(u16, u8),
    /// A [`Db::iter`] opened now and held: at the next action that is not
    /// a write it must still read what the oracle held when it opened.
    IterCheck,
    /// Full [`check`] (a replica suite catches up first).
    Check,
}

/// Relative frequency of each [`Action`].
#[derive(Clone, Copy, Debug)]
pub struct Weights {
    pub put: u32,
    pub delete: u32,
    pub batch: u32,
    pub flush: u32,
    pub compact_all: u32,
    pub reopen: u32,
    pub scan_check: u32,
    pub snapshot_check: u32,
    pub iter_check: u32,
    pub check: u32,
}

/// What a history is made of. Lengths are exclusive upper bounds.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    pub keyspace: u16,
    pub max_value_len: usize,
    /// Entries per batch: `2..max_batch`.
    pub max_batch: usize,
    pub max_batch_value_len: usize,
    /// Rows per scan check: `1..max_scan`.
    pub max_scan: u8,
    pub weights: Weights,
}

const NEVER: Weights = Weights {
    put: 0,
    delete: 0,
    batch: 0,
    flush: 0,
    compact_all: 0,
    reopen: 0,
    scan_check: 0,
    snapshot_check: 0,
    iter_check: 0,
    check: 0,
};

/// `model_check`: single-key writes, every maintenance action.
pub const MODEL_CHECK: Profile = Profile {
    keyspace: 512,
    max_value_len: 60,
    max_batch: 12,
    max_batch_value_len: 32,
    max_scan: 20,
    weights: Weights {
        put: 8,
        delete: 3,
        flush: 1,
        compact_all: 1,
        reopen: 1,
        scan_check: 2,
        ..NEVER
    },
};

/// `sharded_equivalence`: cross-tree batches and snapshot cuts.
pub const SHARDED: Profile = Profile {
    keyspace: 512,
    max_value_len: 48,
    max_batch: 12,
    max_batch_value_len: 32,
    max_scan: 24,
    weights: Weights {
        put: 6,
        delete: 2,
        batch: 3,
        flush: 1,
        reopen: 1,
        scan_check: 2,
        snapshot_check: 1,
        ..NEVER
    },
};

/// `replica`: writes and flushes with checkpoints to catch up at.
pub const REPLICA: Profile = Profile {
    keyspace: 256,
    max_value_len: 40,
    max_batch: 10,
    max_batch_value_len: 24,
    max_scan: 24,
    weights: Weights { put: 6, delete: 2, batch: 2, flush: 1, check: 1, ..NEVER },
};

/// `version_chain`: six keys rewritten ~60 times each, tombstones mixed
/// in, spread by flushes, memtable switches and compactions over the
/// memtable, the immutable memtables, L0 and L1, with held snapshots and
/// iterators that see later versions as too new — the runs of one key's
/// versions the scan's skip rule seeks past (DESIGN.md §4g).
pub const VERSION_CHAIN: Profile = Profile {
    keyspace: 6,
    max_value_len: 40,
    max_batch: 6,
    max_batch_value_len: 16,
    max_scan: 6,
    weights: Weights {
        put: 60,
        delete: 6,
        batch: 4,
        flush: 2,
        compact_all: 1,
        scan_check: 4,
        snapshot_check: 2,
        iter_check: 2,
        check: 1,
        ..NEVER
    },
};

/// One action drawn from `profile`, for `proptest!`.
pub fn actions(profile: &Profile) -> impl Strategy<Value = Action> {
    let Profile { keyspace, max_value_len, max_batch, max_batch_value_len, max_scan, weights: w } =
        *profile;
    let id = move || (0..keyspace).boxed();
    let batch_entry = (any::<bool>(), vec(any::<u8>(), 0..max_batch_value_len));
    prop_oneof![
        w.put => (id(), vec(any::<u8>(), 0..max_value_len)).prop_map(|(k, v)| Action::Put(k, v)),
        w.delete => id().prop_map(Action::Delete),
        w.batch => (id(), vec(batch_entry, 2..max_batch)).prop_map(move |(base, entries)| {
            let ids = (0..).map(|i| (base + i) % keyspace);
            Action::Batch(ids.zip(entries).map(|(k, (del, v))| (k, (!del).then_some(v))).collect())
        }),
        w.flush => Just(Action::Flush),
        w.compact_all => Just(Action::CompactAll),
        w.reopen => Just(Action::Reopen),
        w.scan_check => (id(), 1..max_scan).prop_map(|(k, n)| Action::ScanCheck(k, n)),
        w.snapshot_check => (id(), 1..max_scan).prop_map(|(k, n)| Action::SnapshotCheck(k, n)),
        w.iter_check => Just(Action::IterCheck),
        w.check => Just(Action::Check),
    ]
}

/// The history of `len` actions that `seed` names: a pure function of its
/// arguments, so a failure that prints the seed reproduces anywhere.
pub fn history(seed: u64, profile: &Profile, len: usize) -> Vec<Action> {
    let (strategy, mut rng) = (actions(profile), TestRng::new(seed));
    (0..len).map(|_| strategy.generate(&mut rng)).collect()
}

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// What a history has done so far: the live map, every key it ever
/// touched (so deleted keys are probed too), the snapshots and the
/// iterator it still holds with the map as it was when each was taken,
/// and how many entries it wrote through the current handle.
#[derive(Default)]
pub struct Oracle {
    pub map: BTreeMap<Vec<u8>, Vec<u8>>,
    touched: BTreeSet<Vec<u8>>,
    held: Vec<(Snapshot, Rows)>,
    iter: Option<(DbIterator, Rows)>,
    writes: u64,
    /// Write with `WriteOptions { sync: true }` (what a replica can see).
    pub sync: bool,
}

impl Oracle {
    /// An oracle whose writes are synced: an unsynced record may still
    /// sit in the primary's WAL buffer, where no replica can see it.
    pub fn synced() -> Oracle {
        Oracle { sync: true, ..Oracle::default() }
    }

    /// The handle was closed or crashed and opened again: its snapshots
    /// and iterator are gone and its tickers start from zero.
    pub fn reopened(&mut self) {
        self.held.clear();
        self.iter = None;
        self.writes = 0;
    }

    pub fn rows(&self) -> Rows {
        self.range(b"", usize::MAX)
    }

    fn range(&self, start: &[u8], limit: usize) -> Rows {
        let rows = self.map.range(start.to_vec()..).take(limit);
        rows.map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    fn write(&mut self, key: Vec<u8>, value: Option<&Vec<u8>>) {
        match value {
            Some(value) => self.map.insert(key.clone(), value.clone()),
            None => self.map.remove(&key),
        };
        self.touched.insert(key);
        self.writes += 1;
    }
}

/// Applies one action to `db` and to `oracle`; the check actions assert.
/// [`Action::Reopen`] is the caller's: only it can replace the handle
/// (then [`Oracle::reopened`]).
pub fn apply(db: &Db, oracle: &mut Oracle, action: &Action) {
    let w = WriteOptions { sync: oracle.sync };
    match action {
        Action::Put(k, v) => {
            db.put(&w, &key(*k), v).expect("put");
            oracle.write(key(*k), Some(v));
        }
        Action::Delete(k) => {
            db.delete(&w, &key(*k)).expect("delete");
            oracle.write(key(*k), None);
        }
        Action::Batch(entries) => {
            let mut batch = WriteBatch::new();
            for (k, v) in entries {
                match v {
                    Some(v) => batch.put(&key(*k), v),
                    None => batch.delete(&key(*k)),
                }
                oracle.write(key(*k), v.as_ref());
            }
            db.write(&w, batch).expect("batch");
        }
        Action::Flush => db.flush().expect("flush"),
        Action::CompactAll => db.compact_all().expect("compact_all"),
        Action::Reopen => panic!("Reopen belongs to the caller, who owns the handle"),
        Action::ScanCheck(k, n) => {
            let got = db.scan(&ReadOptions::new(), &key(*k), *n as usize).expect("scan");
            assert_eq!(got, oracle.range(&key(*k), *n as usize), "scan from key {k}");
        }
        Action::SnapshotCheck(k, n) => {
            let snap = db.snapshot();
            let at = snap.read_options();
            let want = oracle.range(&key(*k), *n as usize);
            assert_eq!(db.scan(&at, &key(*k), *n as usize).expect("scan"), want, "snapshot scan");
            for (key, value) in &want {
                assert_eq!(db.get(&at, key).expect("get").as_ref(), Some(value), "snapshot get");
            }
            // Hold the newest two: they must keep reading what they saw.
            if oracle.held.len() == 2 {
                oracle.held.remove(0);
            }
            oracle.held.push((snap, oracle.rows()));
        }
        Action::IterCheck => {}
        Action::Check => check(db, oracle),
    }
    if matches!(action, Action::Put(..) | Action::Delete(..) | Action::Batch(..)) {
        return;
    }
    if let Some((mut iter, rows)) = oracle.iter.take() {
        iter.seek_to_first();
        assert_eq!(rest(&mut iter), rows, "an iterator held across writes moved");
        // A seek re-enters the runs a held iterator now sees as too new.
        let mid = rows.len() / 2;
        if let Some((key, _)) = rows.get(mid) {
            iter.seek(key);
            assert_eq!(rest(&mut iter), rows[mid..], "an iterator held across writes moved");
        }
    }
    if *action == Action::IterCheck {
        oracle.iter = Some((db.iter(&ReadOptions::new()).expect("iter"), oracle.rows()));
    }
    for (snap, rows) in &oracle.held {
        let got = db.scan(&snap.read_options(), b"", usize::MAX >> 1).expect("held snapshot scan");
        assert_eq!(&got, rows, "a snapshot held since sequence {} moved", snap.sequence());
    }
}

/// The rows from `iter`'s position to its end.
fn rest(iter: &mut DbIterator) -> Rows {
    let mut rows = Vec::new();
    while iter.valid() {
        rows.push((iter.key().to_vec(), iter.value().to_vec()));
        iter.next();
    }
    iter.status().expect("iterator status");
    rows
}

/// Runs `actions` on a primary of `store` opened (and reopened) with
/// `tune`, ending in a full [`check`].
pub fn run(
    store: &Store,
    tune: impl Fn(Options) -> Options,
    actions: &[Action],
) -> (Primary, Oracle) {
    let (mut db, mut oracle) = (store.open(&tune), Oracle::default());
    for action in actions {
        if *action == Action::Reopen {
            oracle.reopened();
            store.close(db);
            db = store.open(&tune);
        } else {
            apply(&db, &mut oracle, action);
        }
    }
    check(&db, &oracle);
    (db, oracle)
}

/// Anything that serves reads of a store's contents.
pub trait Reads {
    /// Whether the oracle's writes went through this handle.
    const WRITER: bool;
    fn point(&self, key: &[u8]) -> Option<Vec<u8>>;
    fn points(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>>;
    fn range(&self, start: &[u8], limit: usize) -> Rows;
    /// The handle's metrics document.
    fn report(&self) -> MetricsReport;
    /// The document at a moment no background work is in flight, which
    /// lasts until the next write; `None` when the handle cannot wait
    /// for one.
    fn quiet_report(&self) -> Option<MetricsReport> {
        None
    }
    /// Files this handle's engine had to key (SSTs, WAL segments and
    /// manifests it created while encrypting them itself), read after
    /// [`Reads::quiet_report`]; `None` when the handle cannot tell.
    fn dek_files_created(&self) -> Option<u64> {
        None
    }
    /// `(Σ SubcompactionBegin.subtasks, Σ CompactionEnd.bytes_written)`
    /// over the events this handle's engine has emitted, read after
    /// [`Reads::quiet_report`]; `None` when nobody listened.
    fn announced(&self) -> Option<(u64, u64)> {
        None
    }
}

/// A primary reads like its [`Db`], and knows what it created and what
/// it announced.
impl Reads for Primary {
    const WRITER: bool = true;
    fn point(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.db.point(key)
    }
    fn points(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.db.points(keys)
    }
    fn range(&self, start: &[u8], limit: usize) -> Rows {
        Reads::range(&self.db, start, limit)
    }
    fn report(&self) -> MetricsReport {
        self.db.report()
    }
    fn quiet_report(&self) -> Option<MetricsReport> {
        // A flush or compaction bumps its tree's count and the ticker
        // apart, counts its key before it creates its file, and a split
        // merge announces its subtasks before it runs them.
        self.db.wait_for_background_work().expect("quiesce");
        Some(self.db.metrics_report())
    }
    fn dek_files_created(&self) -> Option<u64> {
        // Only a SHIELD engine keys files (EncFS encrypts below it).
        Some(self.resolver.as_ref().map_or(0, |_| self.created.load(Ordering::Relaxed)))
    }
    fn announced(&self) -> Option<(u64, u64)> {
        let a = &self.announced;
        Some((
            a.subtasks.load(Ordering::Relaxed),
            a.compaction_bytes_written.load(Ordering::Relaxed),
        ))
    }
}

impl Reads for Db {
    const WRITER: bool = true;
    fn point(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(&ReadOptions::new(), key).expect("get")
    }
    fn points(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        let slots = self.multi_get(&ReadOptions::new(), keys);
        slots.into_iter().map(|slot| slot.expect("multi_get slot")).collect()
    }
    fn range(&self, start: &[u8], limit: usize) -> Rows {
        self.scan(&ReadOptions::new(), start, limit).expect("scan")
    }
    fn report(&self) -> MetricsReport {
        self.metrics_report()
    }
}

impl Reads for ReplicaDb {
    const WRITER: bool = false;
    fn point(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key).expect("replica get")
    }
    fn points(&self, keys: &[&[u8]]) -> Vec<Option<Vec<u8>>> {
        self.multi_get(keys).expect("replica multi_get")
    }
    fn range(&self, start: &[u8], limit: usize) -> Rows {
        self.scan(start, limit).expect("replica scan")
    }
    fn report(&self) -> MetricsReport {
        self.metrics_report()
    }
    fn quiet_report(&self) -> Option<MetricsReport> {
        // A replica runs no background flush or compaction.
        Some(self.metrics_report())
    }
}

/// Runs catch-up rounds until every tail is clean (bounded: against a
/// quiesced primary the second round at the latest comes up clean).
pub fn drain(replica: &ReplicaDb) {
    for _ in 0..64 {
        if replica.catch_up().expect("catch_up") {
            return;
        }
    }
    panic!("replica never reached a clean tail against a quiesced primary");
}

/// `reader` serves exactly the oracle's state — every key the history
/// touched (live or deleted) and a never-written neighbour of each, by
/// point read and by `multi_get`; the full scan; a bounded scan from
/// mid-range — and its metrics report obeys the conservation laws
/// ([`laws`], [`front`]) with the lookups counted here and the writes
/// counted by [`apply`].
pub fn check<R: Reads>(reader: &R, oracle: &Oracle) {
    let before = reader.report().tickers;
    let absent = |k: &Vec<u8>| [k.as_slice(), b"-absent"].concat();
    let probes: Vec<Vec<u8>> = oracle.touched.iter().flat_map(|k| [k.clone(), absent(k)]).collect();
    let want: Vec<Option<&Vec<u8>>> = probes.iter().map(|k| oracle.map.get(k)).collect();
    for (key, want) in probes.iter().zip(&want) {
        let name = String::from_utf8_lossy(key);
        assert_eq!(reader.point(key).as_ref(), *want, "get({name})");
    }
    let refs: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();
    for (slot, got) in reader.points(&refs).iter().enumerate() {
        assert_eq!(got.as_ref(), want[slot], "multi_get slot {slot}");
    }
    assert_eq!(reader.range(b"", usize::MAX >> 1), oracle.rows(), "full scan");
    if let Some(mid) = oracle.touched.iter().nth(oracle.touched.len() / 2) {
        assert_eq!(reader.range(mid, 10), oracle.range(mid, 10), "bounded scan");
    }

    let after = reader.report().tickers;
    let found = want.iter().flatten().count() as u64;
    assert_eq!(after.gets - before.gets, 2 * probes.len() as u64, "gets != lookups issued");
    assert_eq!(after.gets_found - before.gets_found, 2 * found, "gets_found != lookups found");
    assert_eq!(after.multi_gets - before.multi_gets, 1, "multi_gets != batches issued");
    let writes = if R::WRITER { oracle.writes } else { 0 };
    assert_eq!(after.writes, writes, "writes != entries applied since the handle opened");
    laws(&after);
    let Some(quiet) = reader.quiet_report() else { return };
    front(&quiet);
    let s = &quiet.tickers;
    if let Some(created) = reader.dek_files_created() {
        // Take or generate: every DEK-bearing file took exactly one key.
        assert_eq!(s.dek_queue_hits + s.dek_queue_misses, created, "keys taken != files created");
    }
    if let Some((subtasks, bytes_written)) = reader.announced() {
        // The LOG and the tickers tell one story about compaction.
        assert_eq!(s.subcompactions, subtasks, "subcompactions != subtasks announced");
        assert_eq!(
            s.compaction_bytes_written, bytes_written,
            "compaction_bytes_written != bytes the CompactionEnd events announced"
        );
    }
}

/// Conservation laws every handle's tickers obey at any quiet moment.
pub fn laws(s: &StatsSnapshot) {
    assert!(s.gets_found <= s.gets, "gets_found {} > gets {}", s.gets_found, s.gets);
    assert!(s.write_groups <= s.writes, "write_groups {} > writes {}", s.write_groups, s.writes);
    assert!(
        s.readahead_useful <= s.readahead_issued,
        "readahead_useful {} > readahead_issued {}",
        s.readahead_useful,
        s.readahead_issued
    );
    // The skip rule re-seeks only at the 8th stepped-over entry of a run.
    assert!(
        s.iter_skipped >= MAX_SEQUENTIAL_SKIP * s.iter_reseeks,
        "iter_skipped {} < {MAX_SEQUENTIAL_SKIP} x iter_reseeks {}",
        s.iter_skipped,
        s.iter_reseeks
    );
}

/// Σ per-tree = front, in a report taken with no background work in
/// flight: the trees' level files and bytes add up to the database-wide
/// levels, and their flushes and compactions to the tickers.
pub fn front(r: &MetricsReport) {
    let tree_levels = || r.trees.iter().flat_map(|tree| &tree.levels);
    let files: usize = tree_levels().map(|l| l.files).sum();
    let bytes: u64 = tree_levels().map(|l| l.bytes).sum();
    let total_files: usize = r.levels.iter().map(|l| l.files).sum();
    let total_bytes: u64 = r.levels.iter().map(|l| l.bytes).sum();
    assert_eq!(files, total_files, "Σ tree files != total_files");
    assert_eq!(bytes, total_bytes, "Σ tree bytes != total_bytes");
    let flushes: u64 = r.trees.iter().map(|tree| tree.flushes).sum();
    let compactions: u64 = r.trees.iter().map(|tree| tree.compactions).sum();
    assert_eq!(flushes, r.tickers.flushes, "Σ tree flushes != tickers.flushes");
    assert_eq!(compactions, r.tickers.compactions, "Σ tree compactions != tickers.compactions");
}
