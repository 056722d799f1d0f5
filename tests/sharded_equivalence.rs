//! Differential proof that a [`Db`] of several trees is observably
//! identical to a [`Db`] of one: random operation histories — puts,
//! deletes, cross-shard batches, flushes, reopens, scans, snapshot reads —
//! are applied in lockstep to a sharded instance (1, 2, 4, or 8 shards;
//! hash- and range-routed) and to a plain single-tree database, both
//! checked against the test bench's oracle, and every observation —
//! sequence numbers included — must match byte-for-byte, in every
//! encryption mode (plain, EncFS, SHIELD) and integrity mode.

mod support;

use proptest::prelude::*;
use shield_lsm::{Options, ReadOptions};
use support::{
    actions, apply, cells_of, check, history, key, matrix, run, small, Action, Cell, Mode, Oracle,
    Profile, Store, Weights, MODES, SHARDED,
};

type Layout = (&'static str, fn(Options) -> Options);

/// Four trees split inside the key universe, so consecutive-key batches
/// straddle every boundary.
const RANGE_4: Layout =
    ("range-4", |opts| small(opts).with_shard_ranges(vec![key(128), key(256), key(384)]));

/// The layouts a matrix cell stands for: the one-tree cell is itself;
/// the four-tree cell is every multi-tree layout under test.
fn layouts_of(cell: &Cell) -> &'static [Layout] {
    match cell.trees {
        1 => &[("hash-1", |opts| small(opts).with_shards(1))],
        _ => &[
            ("hash-2", |opts| small(opts).with_shards(2)),
            ("hash-4", |opts| small(opts).with_shards(4)),
            ("hash-8", |opts| small(opts).with_shards(8)),
            RANGE_4,
        ],
    }
}

/// Applies `actions` to a sharded instance of `store` and to a plain
/// one-tree database in lockstep. Both must equal the oracle at every
/// check — hence each other — with one sequence space.
fn run_differential(store: &Store, (layout, tune): Layout, actions: &[Action]) {
    let what = format!("{:?}/{:?}/{layout}", store.mode, store.integrity.mode);
    eprintln!("{what}");
    let single = Store::new(Mode::Plain).open(small);
    let (mut sharded, mut model, mut single_model) =
        (store.open(tune), Oracle::default(), Oracle::default());
    for action in actions {
        match action {
            Action::Reopen => {
                model.reopened();
                store.close(sharded);
                sharded = store.open(tune);
                continue;
            }
            Action::SnapshotCheck(..) => assert_eq!(
                sharded.snapshot().sequence(),
                single.snapshot().sequence(),
                "{what}: sequence spaces"
            ),
            _ => {}
        }
        apply(&sharded, &mut model, action);
        apply(&single, &mut single_model, action);
    }
    check(&sharded, &model);
    check(&*single, &single_model);
    // Final state: full contents byte-identical, in identical order.
    let r = ReadOptions::new();
    let got = sharded.scan(&r, b"", usize::MAX >> 1).expect("sharded final scan");
    let want = single.scan(&r, b"", usize::MAX >> 1).expect("single final scan");
    assert_eq!(got, want, "{what}: final contents diverged");
    assert_eq!(sharded.last_sequence(), single.last_sequence(), "{what}: sequence spaces");
    store.close(sharded);
}

/// Each cell gets a fresh store per layout, so layouts can't contaminate
/// each other through shared on-disk state.
fn run_cells(cells: impl Iterator<Item = Cell>, actions: &[Action]) {
    for cell in cells {
        for layout in layouts_of(&cell) {
            run_differential(&cell.store(), *layout, actions);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, max_shrink_iters: 120, ..ProptestConfig::default() })]

    /// Plain mode: Db{1,2,4,8 hash; 4 range trees} ≡ single-tree Db.
    #[test]
    fn sharded_plain_matches_single_db(
        actions in proptest::collection::vec(actions(&SHARDED), 1..90)
    ) {
        run_cells(cells_of(Mode::Plain), &actions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, max_shrink_iters: 80, ..ProptestConfig::default() })]

    /// EncFS mode: the instance DEK wraps every shard and the WAL.
    #[test]
    fn sharded_encfs_matches_single_db(
        actions in proptest::collection::vec(actions(&SHARDED), 1..70)
    ) {
        run_cells(cells_of(Mode::EncFs), &actions);
    }

    /// SHIELD mode: all shards share one resolver and DEK cache.
    #[test]
    fn sharded_shield_matches_single_db(
        actions in proptest::collection::vec(actions(&SHARDED), 1..70)
    ) {
        run_cells(cells_of(Mode::Shield), &actions);
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
    for mode in MODES {
        run_differential(&Store::new(mode), RANGE_4, &histories);
    }
}

/// Fixed seeds through the whole matrix and every layout. The shapes
/// they were chosen for are asserted, so a generator change that loses
/// them says so here.
#[test]
fn regression_seeds_cover_wide_batches_between_snapshots_and_reopens() {
    for seed in [5, 21] {
        eprintln!("seed {seed}");
        let actions = history(seed, &SHARDED, 80);
        let wide_mixed_batch = |a: &Action| {
            let Action::Batch(ops) = a else { return false };
            ops.len() >= 8 && ops.iter().any(|(_, v)| v.is_none())
        };
        assert!(actions.iter().any(wide_mixed_batch), "seed {seed} lost its wide batch");
        assert!(actions.contains(&Action::Reopen), "seed {seed} lost its reopen");
        assert!(actions.iter().any(|a| matches!(a, Action::SnapshotCheck(..))), "seed {seed}");
        run_cells(matrix().into_iter(), &actions);
    }
}

/// [`SHARDED`] without reopens, for the tests that hold one handle (its
/// snapshots, its tickers) across the whole history.
const ONE_HANDLE: Profile =
    Profile { weights: Weights { reopen: 0, ..SHARDED.weights }, ..SHARDED };

/// One sequence space: a `Snapshot` held across overwrites, flushes and
/// compactions, and bare `ReadOptions::snapshot_seq` reads at arbitrary
/// past sequences, see on four range-routed trees exactly what a
/// one-tree database sees.
#[test]
fn snapshot_reads_on_four_trees_equal_a_one_tree_oracle() {
    let sharded = Store::new(Mode::Plain).open(RANGE_4.1);
    let oracle = Store::new(Mode::Plain).open(small);
    let (mut a, mut b) = (Oracle::default(), Oracle::default());
    let actions = history(7, &ONE_HANDLE, 1200);
    let (before, after) = actions.split_at(600);
    for action in before {
        apply(&sharded, &mut a, action);
        apply(&oracle, &mut b, action);
    }
    let (snap, osnap) = (sharded.snapshot(), oracle.snapshot());
    assert_eq!(snap.sequence(), osnap.sequence());
    let at_snapshot = oracle.scan(&osnap.read_options(), b"", usize::MAX >> 1).expect("scan");
    assert_eq!(at_snapshot, b.rows());
    for action in after {
        apply(&sharded, &mut a, action);
        apply(&oracle, &mut b, action);
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
            sharded.scan(&at, &key(100), 64).expect("scan"),
            oracle.scan(&at, &key(100), 64).expect("scan"),
            "scan at sequence {seq}"
        );
        for k in (0..SHARDED.keyspace).step_by(31) {
            assert_eq!(
                sharded.get(&at, &key(k)).expect("get"),
                oracle.get(&at, &key(k)).expect("get"),
                "get({k}) at sequence {seq}"
            );
        }
    }
}

/// Conservation across tree counts: the same seeded history — ending in
/// the same [`check`], conservation laws included — costs one tree and
/// four trees the same writes, WAL bytes and point lookups.
#[test]
fn tickers_are_conserved_across_tree_counts() {
    let actions = history(11, &ONE_HANDLE, 1500);
    let (sharded, _) = run(&Store::new(Mode::Plain), RANGE_4.1, &actions);
    let (single, _) = run(&Store::new(Mode::Plain), small, &actions);
    let (s, o) = (sharded.statistics().snapshot(), single.statistics().snapshot());
    assert!(s.flushes > 0 && o.flushes > 0, "history must outgrow the memtables");
    assert_eq!(
        (s.writes, s.write_groups, s.wal_bytes, s.gets, s.gets_found, s.multi_gets),
        (o.writes, o.write_groups, o.wal_bytes, o.gets, o.gets_found, o.multi_gets)
    );
}
