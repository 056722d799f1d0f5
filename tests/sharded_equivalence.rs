//! Differential proof that a [`Db`] of several trees is observably
//! identical to a [`Db`] of one: random operation histories — puts,
//! deletes, cross-shard batches, flushes, reopens, scans, snapshot reads —
//! are applied in lockstep to a sharded instance (1, 2, 4, or 8 shards;
//! hash- and range-routed) and to a plain single-tree oracle, and every
//! observation — sequence numbers included — must match byte-for-byte,
//! in every encryption mode (plain, EncFS, SHIELD).

use std::ops::Deref;
use std::sync::Arc;

use proptest::prelude::*;
use shield::{open_encfs, open_shield, ShieldOptions};
use shield_crypto::{Algorithm, Dek};
use shield_env::MemEnv;
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Options, ReadOptions, WriteBatch, WriteOptions};

/// Keys live in `key-00000 .. key-00511`.
const KEYSPACE: u16 = 512;

fn key_of(id: u16) -> Vec<u8> {
    format!("key-{:05}", id % KEYSPACE).into_bytes()
}

#[derive(Clone, Debug)]
enum Action {
    Put(u16, Vec<u8>),
    Delete(u16),
    /// A multi-key atomic batch. Consecutive key ids straddle range
    /// boundaries and hash onto different shards, so most batches are
    /// genuinely cross-shard.
    Batch(Vec<(u16, Option<Vec<u8>>)>),
    Flush,
    Reopen,
    ScanCheck(u16, u8),
    SnapshotCheck(u16, u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(k, v)| Action::Put(k, v)),
        2 => any::<u16>().prop_map(Action::Delete),
        3 => (any::<u16>(), 2usize..12, proptest::collection::vec((any::<bool>(), proptest::collection::vec(any::<u8>(), 0..32)), 12))
            .prop_map(|(base, n, payload)| {
                // Consecutive ids from a random base: straddles every
                // range boundary the run crosses.
                let ops = payload
                    .into_iter()
                    .take(n)
                    .enumerate()
                    .map(|(i, (del, v))| {
                        (base.wrapping_add(i as u16), if del { None } else { Some(v) })
                    })
                    .collect();
                Action::Batch(ops)
            }),
        1 => Just(Action::Flush),
        1 => Just(Action::Reopen),
        2 => (any::<u16>(), 1u8..24).prop_map(|(k, n)| Action::ScanCheck(k, n)),
        1 => (any::<u16>(), 1u8..24).prop_map(|(k, n)| Action::SnapshotCheck(k, n)),
    ]
}

/// Shard layouts under test: every shard count the issue names, plus a
/// range-routed layout whose boundaries sit inside the key universe so
/// consecutive-key batches straddle them.
fn layout_opts(env: &MemEnv, layout: usize) -> (String, Options) {
    let base = small_opts(env);
    match layout {
        0 => ("hash-1".into(), base.with_shards(1)),
        1 => ("hash-2".into(), base.with_shards(2)),
        2 => ("hash-4".into(), base.with_shards(4)),
        3 => ("hash-8".into(), base.with_shards(8)),
        _ => (
            "range-4".into(),
            base.with_shard_ranges(vec![
                key_of(128),
                key_of(256),
                key_of(384),
            ]),
        ),
    }
}

const LAYOUTS: usize = 5;

fn small_opts(env: &MemEnv) -> Options {
    let mut opts = Options::new(Arc::new(env.clone())).with_write_buffer_size(8 << 10);
    opts.compaction.l0_compaction_trigger = 2;
    opts.compaction.target_file_size = 32 << 10;
    opts
}

/// One encryption mode's way of opening (and reopening) a sharded DB.
trait ShardedOpener {
    fn open(&self, layout: usize) -> Box<dyn Deref<Target = Db>>;
}

struct PlainSharded {
    env: MemEnv,
}

impl ShardedOpener for PlainSharded {
    fn open(&self, layout: usize) -> Box<dyn Deref<Target = Db>> {
        let (_, opts) = layout_opts(&self.env, layout);
        Box::new(Box::new(Db::open(opts, "sdb").expect("open sharded")))
    }
}

struct EncFsSharded {
    env: MemEnv,
    dek: Dek,
}

impl ShardedOpener for EncFsSharded {
    fn open(&self, layout: usize) -> Box<dyn Deref<Target = Db>> {
        let (_, opts) = layout_opts(&self.env, layout);
        Box::new(open_encfs(opts, "sdb", self.dek.clone(), 512).expect("open encfs"))
    }
}

struct ShieldSharded {
    env: MemEnv,
    kds: Arc<LocalKds>,
}

impl ShardedOpener for ShieldSharded {
    fn open(&self, layout: usize) -> Box<dyn Deref<Target = Db>> {
        let (_, opts) = layout_opts(&self.env, layout);
        Box::new(
            open_shield(
                opts,
                "sdb",
                ShieldOptions::new(self.kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk"),
            )
            .expect("open shield sharded"),
        )
    }
}

/// Applies `actions` to a sharded instance and a single-LSM oracle in
/// lockstep; every scan, snapshot read, and the final full contents
/// must be byte-identical (keys, values, and order).
fn run_differential(opener: &dyn ShardedOpener, layout: usize, actions: &[Action]) {
    let oracle_env = MemEnv::new();
    let oracle = Db::open(small_opts(&oracle_env), "oracle").expect("open oracle");
    let mut sharded = opener.open(layout);
    let w = WriteOptions::default();
    let r = ReadOptions::new();
    for action in actions {
        match action {
            Action::Put(k, v) => {
                sharded.put(&w, &key_of(*k), v).expect("sharded put");
                oracle.put(&w, &key_of(*k), v).expect("oracle put");
            }
            Action::Delete(k) => {
                sharded.delete(&w, &key_of(*k)).expect("sharded delete");
                oracle.delete(&w, &key_of(*k)).expect("oracle delete");
            }
            Action::Batch(ops) => {
                let mut batch = WriteBatch::new();
                for (k, v) in ops {
                    match v {
                        Some(v) => batch.put(&key_of(*k), v),
                        None => batch.delete(&key_of(*k)),
                    }
                }
                let oracle_batch = WriteBatch::from_data(batch.data()).expect("clone batch");
                sharded.write(&w, batch).expect("sharded batch");
                oracle.write(&w, oracle_batch).expect("oracle batch");
            }
            Action::Flush => {
                sharded.flush().expect("sharded flush");
                oracle.flush().expect("oracle flush");
            }
            Action::Reopen => {
                drop(sharded);
                sharded = opener.open(layout);
            }
            Action::ScanCheck(k, n) => {
                let start = key_of(*k);
                let got = sharded.scan(&r, &start, *n as usize).expect("sharded scan");
                let want = oracle.scan(&r, &start, *n as usize).expect("oracle scan");
                assert_eq!(got, want, "layout {layout}: scan({:?}, {n}) diverged", start);
            }
            Action::SnapshotCheck(k, n) => {
                let snap = sharded.snapshot();
                let osnap = oracle.snapshot();
                let start = key_of(*k);
                assert_eq!(snap.sequence(), osnap.sequence(), "layout {layout}: sequence spaces");
                let got =
                    sharded.scan(&snap.read_options(), &start, *n as usize).expect("snap scan");
                let want = oracle
                    .scan(&osnap.read_options(), &start, *n as usize)
                    .expect("oracle snap scan");
                assert_eq!(got, want, "layout {layout}: snapshot scan diverged");
                // Point reads through the same snapshot agree too.
                for (key, value) in &want {
                    assert_eq!(
                        sharded.get(&snap.read_options(), key).expect("snap get").as_ref(),
                        Some(value),
                        "layout {layout}: snapshot get diverged"
                    );
                }
            }
        }
    }
    // Final state: full contents byte-identical, in identical order.
    let got = sharded.scan(&r, b"", usize::MAX >> 1).expect("sharded final scan");
    let want = oracle.scan(&r, b"", usize::MAX >> 1).expect("oracle final scan");
    assert_eq!(got, want, "layout {layout}: final contents diverged");
    // Point reads agree for present and absent keys alike.
    for k in (0..KEYSPACE).step_by(17) {
        let key = key_of(k);
        assert_eq!(
            sharded.get(&r, &key).expect("sharded get"),
            oracle.get(&r, &key).expect("oracle get"),
            "layout {layout}: get({}) diverged",
            String::from_utf8_lossy(&key)
        );
    }
}

fn run_all_layouts(make: &dyn Fn() -> Box<dyn ShardedOpener>, actions: &[Action]) {
    // Each layout gets a fresh environment (fresh opener) so layouts
    // can't contaminate each other through shared on-disk state.
    for layout in 0..LAYOUTS {
        let opener = make();
        run_differential(opener.as_ref(), layout, actions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, max_shrink_iters: 120, ..ProptestConfig::default() })]

    /// Plain mode: Db{1,2,4,8 hash; 4 range trees} ≡ single-tree Db.
    #[test]
    fn sharded_plain_matches_single_db(
        actions in proptest::collection::vec(action_strategy(), 1..90)
    ) {
        run_all_layouts(
            &|| Box::new(PlainSharded { env: MemEnv::new() }) as Box<dyn ShardedOpener>,
            &actions,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 80, ..ProptestConfig::default() })]

    /// EncFS mode: the instance DEK wraps every shard and the WAL.
    #[test]
    fn sharded_encfs_matches_single_db(
        actions in proptest::collection::vec(action_strategy(), 1..70)
    ) {
        run_all_layouts(
            &|| {
                Box::new(EncFsSharded {
                    env: MemEnv::new(),
                    dek: Dek::generate(Algorithm::Aes128Ctr),
                }) as Box<dyn ShardedOpener>
            },
            &actions,
        );
    }

    /// SHIELD mode: all shards share one resolver and DEK cache.
    #[test]
    fn sharded_shield_matches_single_db(
        actions in proptest::collection::vec(action_strategy(), 1..70)
    ) {
        run_all_layouts(
            &|| {
                Box::new(ShieldSharded {
                    env: MemEnv::new(),
                    kds: Arc::new(LocalKds::new(KdsConfig::default())),
                }) as Box<dyn ShardedOpener>
            },
            &actions,
        );
    }
}

/// A deterministic regression: a single atomic batch that deletes and
/// rewrites keys on *every* shard of a range-routed DB, checked through
/// flush + reopen in all three modes. (The proptest above finds bugs;
/// this pins the exact boundary-straddling shape forever.)
#[test]
fn boundary_straddling_batch_is_atomic_across_modes() {
    let histories = vec![
        Action::Put(100, b"a".to_vec()),
        Action::Put(200, b"b".to_vec()),
        Action::Put(300, b"c".to_vec()),
        Action::Put(400, b"d".to_vec()),
        Action::Flush,
        // One batch touching all four range shards: overwrite two keys,
        // delete two, insert four more right on the boundaries.
        Action::Batch(vec![
            (100, Some(b"a2".to_vec())),
            (200, None),
            (300, Some(b"c2".to_vec())),
            (400, None),
            (127, Some(b"edge".to_vec())),
            (128, Some(b"edge".to_vec())),
            (255, Some(b"edge".to_vec())),
            (256, Some(b"edge".to_vec())),
        ]),
        Action::Reopen,
        Action::ScanCheck(0, 24),
        Action::SnapshotCheck(120, 24),
    ];
    run_differential(&PlainSharded { env: MemEnv::new() }, 4, &histories);
    run_differential(
        &EncFsSharded { env: MemEnv::new(), dek: Dek::generate(Algorithm::Aes128Ctr) },
        4,
        &histories,
    );
    run_differential(
        &ShieldSharded {
            env: MemEnv::new(),
            kds: Arc::new(LocalKds::new(KdsConfig::default())),
        },
        4,
        &histories,
    );
}

/// Deterministic pseudo-random stream for the seeded histories below.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One step of a seeded history: mostly puts, some deletes, cross-shard
/// batches and point reads (hits and misses). Single-threaded, so every
/// write is its own commit group on any tree count.
fn seeded_step(db: &Db, rng: &mut Lcg) {
    let w = WriteOptions::default();
    let key = key_of(rng.next() as u16);
    match rng.next() % 10 {
        0..=4 => db.put(&w, &key, &rng.next().to_le_bytes()).expect("put"),
        5 => db.delete(&w, &key).expect("delete"),
        6 | 7 => {
            let mut batch = WriteBatch::new();
            for _ in 0..(2 + rng.next() % 6) {
                batch.put(&key_of(rng.next() as u16), &rng.next().to_le_bytes());
            }
            db.write(&w, batch).expect("batch");
        }
        _ => {
            db.get(&ReadOptions::new(), &key).expect("get");
        }
    }
}

fn four_trees_and_oracle() -> (Db, Db) {
    let (_, opts) = layout_opts(&MemEnv::new(), 4);
    let sharded = Db::open(opts, "sdb").expect("open 4 trees");
    let oracle = Db::open(small_opts(&MemEnv::new()), "oracle").expect("open oracle");
    (sharded, oracle)
}

/// One sequence space: a `Snapshot` held across overwrites, flushes and
/// compactions, and bare `ReadOptions::snapshot_seq` reads at arbitrary
/// past sequences, see on four range-routed trees exactly what a
/// one-tree database sees.
#[test]
fn snapshot_reads_on_four_trees_equal_a_one_tree_oracle() {
    let (sharded, oracle) = four_trees_and_oracle();
    let (mut a, mut b) = (Lcg(7), Lcg(7));
    for _ in 0..600 {
        seeded_step(&sharded, &mut a);
        seeded_step(&oracle, &mut b);
    }
    let (snap, osnap) = (sharded.snapshot(), oracle.snapshot());
    assert_eq!(snap.sequence(), osnap.sequence());
    let at_snapshot = oracle.scan(&osnap.read_options(), b"", usize::MAX >> 1).expect("scan");
    for _ in 0..600 {
        seeded_step(&sharded, &mut a);
        seeded_step(&oracle, &mut b);
    }
    sharded.compact_all().expect("compact");
    oracle.compact_all().expect("compact");
    assert_eq!(sharded.last_sequence(), oracle.last_sequence());
    assert_eq!(
        sharded.scan(&snap.read_options(), b"", usize::MAX >> 1).expect("scan"),
        at_snapshot,
        "held snapshot moved"
    );
    // Unpinned sequences at or after the held snapshot: compaction may
    // not have dropped anything they see.
    for seq in (snap.sequence()..=oracle.last_sequence()).step_by(97) {
        let at = ReadOptions { snapshot_seq: Some(seq), fill_cache: true };
        assert_eq!(
            sharded.scan(&at, &key_of(100), 64).expect("scan"),
            oracle.scan(&at, &key_of(100), 64).expect("scan"),
            "scan at sequence {seq}"
        );
        for k in (0..KEYSPACE).step_by(31) {
            assert_eq!(
                sharded.get(&at, &key_of(k)).expect("get"),
                oracle.get(&at, &key_of(k)).expect("get"),
                "get({k}) at sequence {seq}"
            );
        }
    }
}

/// Conservation across tree counts: the same seeded history costs one
/// tree and four trees the same writes, WAL bytes and point lookups.
#[test]
fn tickers_are_conserved_across_tree_counts() {
    let (sharded, oracle) = four_trees_and_oracle();
    let (mut a, mut b) = (Lcg(11), Lcg(11));
    for _ in 0..1500 {
        seeded_step(&sharded, &mut a);
        seeded_step(&oracle, &mut b);
    }
    let keys: Vec<Vec<u8>> = (0..KEYSPACE).step_by(5).map(key_of).collect();
    let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    assert_eq!(
        sharded.multi_get(&ReadOptions::new(), &keys).into_iter().collect::<Result<Vec<_>, _>>(),
        oracle.multi_get(&ReadOptions::new(), &keys).into_iter().collect::<Result<Vec<_>, _>>()
    );
    let (s, o) = (sharded.statistics().snapshot(), oracle.statistics().snapshot());
    assert!(s.flushes > 0 && o.flushes > 0, "history must outgrow the memtables");
    assert_eq!(
        (s.writes, s.write_groups, s.wal_bytes, s.gets, s.gets_found, s.multi_gets),
        (o.writes, o.write_groups, o.wal_bytes, o.gets, o.gets_found, o.multi_gets)
    );
    assert!(s.gets_found <= s.gets);
}
