//! Property-based model checking: the database must behave exactly like a
//! `BTreeMap` under arbitrary interleavings of puts, deletes, flushes,
//! compactions, scans and reopens — in every cell of the test bench's
//! matrix (plain / EncFS / SHIELD × CRC / HMAC × 1 / 4 trees).

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use shield_env::MemEnv;
use shield_lsm::{Db, Options, ReadOptions, WriteOptions};
use support::{
    actions, cells_of, history, matrix, run, Action, Cell, Mode, Store, MODEL_CHECK, MODES,
    VERSION_CHAIN,
};

/// Runs one history through every given cell of the matrix (named on
/// stderr, which a failing test shows).
fn run_cells(cells: impl Iterator<Item = Cell>, actions: &[Action]) {
    for cell in cells {
        eprintln!("{cell:?}");
        let store = cell.store();
        let (db, _) = run(&store, |opts| cell.tune(opts), actions);
        store.close(db);
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

/// Concurrent writers, iterators, and snapshots while flushes and
/// compactions churn underneath. Each writer owns a disjoint key prefix
/// and its own `BTreeMap` oracle, so it can check — mid-flight, against
/// live background work —
///
/// * snapshot *stability*: the same snapshot scanned twice is identical;
/// * snapshot *correctness*: the snapshot view equals the oracle at the
///   moment it was taken (no other thread touches this prefix);
/// * iterator correctness: a latest-view scan of the prefix equals the
///   oracle right now.
///
/// At the end, the union of all oracles must equal a full scan.
fn concurrent_stress(db: &Db) {
    const THREADS: usize = 4;
    const OPS: u32 = 600;
    const KEYSPACE: u32 = 150;

    let oracles: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            handles.push(s.spawn(move || {
                let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let rows = |oracle: &BTreeMap<Vec<u8>, Vec<u8>>| -> Vec<(Vec<u8>, Vec<u8>)> {
                    oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
                };
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
                        let ropts = snap.read_options();
                        let scan1 = prefix_scan(db, &ropts, &prefix);
                        let scan2 = prefix_scan(db, &ropts, &prefix);
                        assert_eq!(scan1, scan2, "{prefix}: same snapshot diverged");
                        assert_eq!(scan1, rows(&oracle), "{prefix}: snapshot view != oracle");
                    }
                    if op % 45 == 20 {
                        let scan = prefix_scan(db, &ReadOptions::new(), &prefix);
                        assert_eq!(scan, rows(&oracle), "{prefix}: live view != oracle");
                    }
                }
                oracle
            }));
        }
        // Churn background work while the writers run: every flush
        // switches the WAL and flushes every tree on the shared pool.
        let churner = s.spawn(move || {
            for _ in 0..15 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _ = db.flush();
            }
        });
        let oracles: Vec<_> = handles.into_iter().map(|h| h.join().expect("writer")).collect();
        churner.join().expect("churner");
        oracles
    });

    db.compact_all().expect("final compact");
    let want: Vec<(Vec<u8>, Vec<u8>)> = oracles.into_iter().flatten().collect();
    let all = db.scan(&ReadOptions::new(), b"", usize::MAX >> 1).expect("scan all");
    assert_eq!(all, want, "final state diverges from the union of oracles");
    support::laws(&db.metrics_report().tickers);
}

fn stress_opts() -> Options {
    let mut opts = support::small(Options::new(Arc::new(MemEnv::new()))).with_background_jobs(4);
    opts.compaction.target_file_size = 4 << 10;
    opts
}

#[test]
fn concurrent_workload_under_parallel_compactions_matches_oracle() {
    let mut opts = stress_opts().with_max_subcompactions(4);
    opts.table.block_size = 256; // many index spans => compactions really split
    let db = Db::open(opts, "db").expect("open");
    concurrent_stress(&db);
    assert!(
        db.statistics().snapshot().subcompactions > 0,
        "stress ran without ever splitting a compaction"
    );
}

/// The same four-writer stress, but against a [`Db`] of four trees:
/// every key is hashed to one of four shards that share the write front,
/// a job pool and a block cache. Each writer's prefix scatters *across*
/// shards, so the per-prefix oracle checks exercise the merged iterator
/// and the consistent-cut snapshot rather than any single shard.
#[test]
fn concurrent_sharded_workload_matches_per_prefix_oracles() {
    let db = Db::open(stress_opts().with_shards(4), "db").expect("open");
    concurrent_stress(&db);

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

    /// The two modes whose engine holds no key: nothing is encrypted, or
    /// EncFS encrypts beneath the `Env`.
    #[test]
    fn plain_and_encfs_db_match_btreemap(
        actions in proptest::collection::vec(actions(&MODEL_CHECK), 1..120)
    ) {
        run_cells(matrix().into_iter().filter(|cell| cell.mode != Mode::Shield), &actions);
    }

    #[test]
    fn shield_db_matches_btreemap(
        actions in proptest::collection::vec(actions(&MODEL_CHECK), 1..120)
    ) {
        run_cells(cells_of(Mode::Shield), &actions);
    }
}

/// The one case the old `model_check.proptest-regressions` file recorded.
#[test]
fn regression_put_of_an_empty_value_in_every_mode() {
    for mode in MODES {
        run(&Store::new(mode), support::small, &[Action::Put(0, vec![])]);
    }
}

/// Fixed seeds through the whole matrix. The shapes they were chosen for
/// are asserted, so a generator change that loses them says so here.
#[test]
fn regression_seeds_cover_reopen_after_compaction() {
    for seed in [3, 8] {
        eprintln!("seed {seed}");
        let actions = history(seed, &MODEL_CHECK, 200);
        for shape in [Action::Flush, Action::CompactAll, Action::Reopen] {
            assert!(actions.contains(&shape), "seed {seed} lost its {shape:?}");
        }
        assert!(actions.iter().any(|a| matches!(a, Action::Put(_, v) if v.is_empty())));
        run_cells(matrix().into_iter(), &actions);
    }
}

/// Version chains: six keys with dozens of versions each, tombstones
/// among them, in every layer of the tree, read by scans, snapshot scans
/// and iterators held across later writes — in every cell, with the
/// scan's skip rule engaged in each.
#[test]
fn version_chains_read_like_the_oracle_in_every_cell() {
    let actions = history(27, &VERSION_CHAIN, 480);
    for id in 0..VERSION_CHAIN.keyspace {
        let versions: usize = actions
            .iter()
            .map(|action| match action {
                Action::Put(k, _) | Action::Delete(k) => usize::from(*k == id),
                Action::Batch(entries) => entries.iter().filter(|(k, _)| *k == id).count(),
                _ => 0,
            })
            .sum();
        assert!(versions >= 50, "key {id} has only {versions} versions");
    }
    for shape in [Action::Flush, Action::CompactAll, Action::IterCheck] {
        assert!(actions.contains(&shape), "the history lost its {shape:?}");
    }
    for cell in matrix() {
        eprintln!("{cell:?}");
        let store = cell.store();
        let (db, oracle) = run(&store, |opts| cell.tune(opts), &actions);
        drop(oracle);
        let s = db.statistics().snapshot();
        assert!(s.iter_reseeks > 0, "{cell:?}: no read re-seeked a run of versions");
        store.close(db);
    }
}

/// A history is a pure function of its seed: equal on two calls, and —
/// pinned literally — on two runs, hosts and toolchains.
#[test]
fn history_is_a_pure_function_of_its_seed() {
    assert_eq!(history(9, &MODEL_CHECK, 300), history(9, &MODEL_CHECK, 300));
    assert_ne!(history(9, &MODEL_CHECK, 300), history(10, &MODEL_CHECK, 300));
    let pinned = history(1, &MODEL_CHECK, 3);
    assert_eq!((&pinned[0], &pinned[2]), (&Action::Delete(489), &Action::Delete(149)));
    let Action::Put(430, value) = &pinned[1] else { panic!("{:?}", pinned[1]) };
    assert_eq!((value.len(), &value[..3]), (55, &[165, 100, 132][..]));
}
