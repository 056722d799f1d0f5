//! Property-based model checking: the database must behave exactly like a
//! `BTreeMap` under arbitrary interleavings of puts, deletes, flushes,
//! compactions, and reopens — in plain mode and in SHIELD mode.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use shield::{open_shield, ShieldOptions};
use shield_env::MemEnv;
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Options, ReadOptions, WriteOptions};

#[derive(Clone, Debug)]
enum Action {
    Put(u16, Vec<u8>),
    Delete(u16),
    Flush,
    CompactAll,
    Reopen,
    ScanCheck(u16, u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        8 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..60))
            .prop_map(|(k, v)| Action::Put(k % 512, v)),
        3 => any::<u16>().prop_map(|k| Action::Delete(k % 512)),
        1 => Just(Action::Flush),
        1 => Just(Action::CompactAll),
        1 => Just(Action::Reopen),
        2 => (any::<u16>(), 1u8..20).prop_map(|(k, n)| Action::ScanCheck(k % 512, n)),
    ]
}

fn key_of(id: u16) -> Vec<u8> {
    format!("key-{id:05}").into_bytes()
}

trait Opener {
    fn open(&self) -> Box<dyn std::ops::Deref<Target = Db>>;
}

struct PlainOpener {
    env: MemEnv,
}

struct HandleBox(Db);
impl std::ops::Deref for HandleBox {
    type Target = Db;
    fn deref(&self) -> &Db {
        &self.0
    }
}

impl Opener for PlainOpener {
    fn open(&self) -> Box<dyn std::ops::Deref<Target = Db>> {
        let mut opts =
            Options::new(Arc::new(self.env.clone())).with_write_buffer_size(8 << 10);
        opts.compaction.l0_compaction_trigger = 2;
        opts.compaction.target_file_size = 32 << 10;
        Box::new(HandleBox(Db::open(opts, "db").expect("open")))
    }
}

struct ShieldOpener {
    env: MemEnv,
    kds: Arc<LocalKds>,
}

impl Opener for ShieldOpener {
    fn open(&self) -> Box<dyn std::ops::Deref<Target = Db>> {
        let mut opts =
            Options::new(Arc::new(self.env.clone())).with_write_buffer_size(8 << 10);
        opts.compaction.l0_compaction_trigger = 2;
        opts.compaction.target_file_size = 32 << 10;
        Box::new(
            open_shield(
                opts,
                "db",
                ShieldOptions::new(self.kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk"),
            )
            .expect("open shield"),
        )
    }
}

fn run_model(opener: &dyn Opener, actions: &[Action]) {
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut db = opener.open();
    let w = WriteOptions::default();
    let r = ReadOptions::new();
    for action in actions {
        match action {
            Action::Put(k, v) => {
                let key = key_of(*k);
                db.put(&w, &key, v).expect("put");
                model.insert(key, v.clone());
            }
            Action::Delete(k) => {
                let key = key_of(*k);
                db.delete(&w, &key).expect("delete");
                model.remove(&key);
            }
            Action::Flush => db.flush().expect("flush"),
            Action::CompactAll => db.compact_all().expect("compact"),
            Action::Reopen => {
                // Clean reopen: drop (flushes WAL), then open again.
                drop(db);
                db = opener.open();
            }
            Action::ScanCheck(k, n) => {
                let start = key_of(*k);
                let got = db.scan(&r, &start, *n as usize).expect("scan");
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(start.clone()..)
                    .take(*n as usize)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq_impl(&got, &want);
            }
        }
    }
    // Final full equivalence check.
    for (key, value) in &model {
        let got = db.get(&r, key).expect("get");
        assert_eq!(got.as_ref(), Some(value), "mismatch for {}", String::from_utf8_lossy(key));
    }
    // Absent keys stay absent.
    for k in [0u16, 100, 511] {
        let key = key_of(k);
        if !model.contains_key(&key) {
            assert_eq!(db.get(&r, &key).expect("get"), None);
        }
    }
    // Full scan equals the model.
    let all = db.scan(&r, b"", usize::MAX >> 1).expect("scan all");
    assert_eq!(all.len(), model.len(), "live key count mismatch");
    for ((gk, gv), (mk, mv)) in all.iter().zip(model.iter()) {
        assert_eq!((gk, gv), (mk, mv));
    }
}

fn prop_assert_eq_impl(got: &[(Vec<u8>, Vec<u8>)], want: &[(Vec<u8>, Vec<u8>)]) {
    assert_eq!(got.len(), want.len(), "scan length mismatch");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g, w, "scan row mismatch");
    }
}

// ---------------------------------------------------------------------
// Concurrency stress under parallel subcompactions
// ---------------------------------------------------------------------

/// Scan rows under `prefix`, stopping at the first foreign key.
fn prefix_scan(db: &Db, r: &ReadOptions, prefix: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    db.scan(r, prefix.as_bytes(), usize::MAX >> 1)
        .expect("scan")
        .into_iter()
        .take_while(|(k, _)| k.starts_with(prefix.as_bytes()))
        .collect()
}

/// Concurrent writers, iterators, and snapshots while parallel
/// subcompactions churn underneath. Each writer owns a disjoint key
/// prefix and its own `BTreeMap` oracle, so it can check — mid-flight,
/// against live compactions —
///
/// * snapshot *stability*: the same snapshot scanned twice is identical;
/// * snapshot *correctness*: the snapshot view equals the oracle at the
///   moment it was taken (no other thread touches this prefix);
/// * iterator correctness: a latest-view scan of the prefix equals the
///   oracle right now.
///
/// At the end, the union of all oracles must equal a full scan.
#[test]
fn concurrent_workload_under_parallel_compactions_matches_oracle() {
    const THREADS: usize = 4;
    const OPS: u32 = 600;
    const KEYSPACE: u32 = 150;

    let env = MemEnv::new();
    let mut opts = Options::new(Arc::new(env.clone()))
        .with_write_buffer_size(8 << 10)
        .with_background_jobs(4)
        .with_max_subcompactions(4);
    opts.block_size = 256; // many index spans => compactions really split
    opts.compaction.l0_compaction_trigger = 2;
    opts.compaction.target_file_size = 4 << 10;
    let db = Db::open(opts, "db").expect("open");

    let oracles: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = &db;
            handles.push(s.spawn(move || {
                let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let w = WriteOptions::default();
                let prefix = format!("t{tid}-");
                for op in 0..OPS {
                    let i = (op * 31 + tid as u32 * 7) % KEYSPACE;
                    let key = format!("{prefix}k{i:04}").into_bytes();
                    if op % 5 == 4 {
                        db.delete(&w, &key).expect("delete");
                        oracle.remove(&key);
                    } else {
                        let value =
                            format!("{prefix}v{op:05}-{}", "q".repeat(48)).into_bytes();
                        db.put(&w, &key, &value).expect("put");
                        oracle.insert(key, value);
                    }
                    if op % 120 == 60 {
                        let snap = db.snapshot();
                        let at_snap: Vec<(Vec<u8>, Vec<u8>)> =
                            oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                        let ropts = snap.read_options();
                        let scan1 = prefix_scan(db, &ropts, &prefix);
                        let scan2 = prefix_scan(db, &ropts, &prefix);
                        assert_eq!(scan1, scan2, "{prefix}: same snapshot diverged");
                        assert_eq!(scan1, at_snap, "{prefix}: snapshot view != oracle");
                    }
                    if op % 45 == 20 {
                        let now: Vec<(Vec<u8>, Vec<u8>)> =
                            oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                        let scan = prefix_scan(db, &ReadOptions::new(), &prefix);
                        assert_eq!(scan, now, "{prefix}: live view != oracle");
                    }
                }
                oracle
            }));
        }
        // Churn background work while the writers run.
        let db_ref = &db;
        let churner = s.spawn(move || {
            for _ in 0..15 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _ = db_ref.flush();
            }
        });
        let oracles: Vec<_> = handles.into_iter().map(|h| h.join().expect("writer")).collect();
        churner.join().expect("churner");
        oracles
    });

    db.compact_all().expect("final compact");
    let mut union: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for oracle in oracles {
        union.extend(oracle);
    }
    let want: Vec<(Vec<u8>, Vec<u8>)> = union.into_iter().collect();
    let all = db.scan(&ReadOptions::new(), b"", usize::MAX >> 1).expect("scan all");
    assert_eq!(all, want, "final state diverges from the union of oracles");
    assert!(
        db.statistics().snapshot().subcompactions > 0,
        "stress ran without ever splitting a compaction"
    );
}

/// The same four-writer stress, but against a [`Db`] of four trees:
/// every key is hashed to one of four shards that share the write front,
/// a job pool and a block cache, and every `flush()` churns all shards at
/// once. Each writer owns a disjoint prefix whose keys scatter *across*
/// shards, so the per-prefix oracle checks exercise the merged iterator
/// and the consistent-cut snapshot rather than any single shard:
///
/// * snapshot stability: one `Snapshot` scanned twice is identical, even
///   while other shards flush;
/// * snapshot correctness: the cut equals the oracle at capture time;
/// * live-view correctness: a merged latest-view scan equals the oracle.
#[test]
fn concurrent_sharded_workload_matches_per_prefix_oracles() {
    const THREADS: usize = 4;
    const OPS: u32 = 600;
    const KEYSPACE: u32 = 150;

    let env = MemEnv::new();
    let mut opts = Options::new(Arc::new(env.clone()))
        .with_write_buffer_size(8 << 10)
        .with_background_jobs(4)
        .with_shards(4);
    opts.compaction.l0_compaction_trigger = 2;
    opts.compaction.target_file_size = 4 << 10;
    let db = Db::open(opts, "db").expect("open");

    let oracles: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = &db;
            handles.push(s.spawn(move || {
                let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let w = WriteOptions::default();
                let prefix = format!("t{tid}-");
                for op in 0..OPS {
                    let i = (op * 31 + tid as u32 * 7) % KEYSPACE;
                    let key = format!("{prefix}k{i:04}").into_bytes();
                    if op % 5 == 4 {
                        db.delete(&w, &key).expect("delete");
                        oracle.remove(&key);
                    } else {
                        let value =
                            format!("{prefix}v{op:05}-{}", "q".repeat(48)).into_bytes();
                        db.put(&w, &key, &value).expect("put");
                        oracle.insert(key, value);
                    }
                    if op % 120 == 60 {
                        let snap = db.snapshot();
                        let at_snap: Vec<(Vec<u8>, Vec<u8>)> =
                            oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                        let scan1 = prefix_scan(db, &snap.read_options(), &prefix);
                        let scan2 = prefix_scan(db, &snap.read_options(), &prefix);
                        assert_eq!(scan1, scan2, "{prefix}: same snapshot diverged");
                        assert_eq!(scan1, at_snap, "{prefix}: snapshot cut != oracle");
                    }
                    if op % 45 == 20 {
                        let now: Vec<(Vec<u8>, Vec<u8>)> =
                            oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                        let scan = prefix_scan(db, &ReadOptions::new(), &prefix);
                        assert_eq!(scan, now, "{prefix}: live merged view != oracle");
                    }
                }
                oracle
            }));
        }
        // Flush churn: switches the WAL and flushes every shard on the
        // shared pool while the writers run.
        let db_ref = &db;
        let churner = s.spawn(move || {
            for _ in 0..15 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _ = db_ref.flush();
            }
        });
        let oracles: Vec<_> = handles.into_iter().map(|h| h.join().expect("writer")).collect();
        churner.join().expect("churner");
        oracles
    });

    db.compact_all().expect("final compact");
    let mut union: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for oracle in oracles {
        union.extend(oracle);
    }
    let want: Vec<(Vec<u8>, Vec<u8>)> = union.into_iter().collect();
    let all = db.scan(&ReadOptions::new(), b"", usize::MAX >> 1).expect("scan all");
    assert_eq!(all, want, "final merged state diverges from the union of oracles");

    // The hash router must actually have spread the load, and the
    // flush churner must have driven real flushes on each shard.
    let trees = db.metrics_report().trees;
    assert_eq!(trees.len(), 4);
    for (i, tree) in trees.iter().enumerate() {
        assert!(tree.levels.iter().any(|l| l.files > 0), "shard {i} never received a key");
    }
    let flushed_shards = trees.iter().filter(|tree| tree.flushes > 0).count();
    assert!(flushed_shards >= 2, "flush() calls flushed only {flushed_shards} shards");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 200, ..ProptestConfig::default() })]

    #[test]
    fn plain_db_matches_btreemap(actions in proptest::collection::vec(action_strategy(), 1..120)) {
        let opener = PlainOpener { env: MemEnv::new() };
        run_model(&opener, &actions);
    }

    #[test]
    fn shield_db_matches_btreemap(actions in proptest::collection::vec(action_strategy(), 1..120)) {
        let opener = ShieldOpener {
            env: MemEnv::new(),
            kds: Arc::new(LocalKds::new(KdsConfig::default())),
        };
        run_model(&opener, &actions);
    }
}
