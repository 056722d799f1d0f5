//! Differential coverage for `Db::multi_get` (PR 7): a batched lookup
//! must be observationally identical to N serial `get`s — slot for slot
//! — in all three encryption modes (plain / EncFS / SHIELD), including:
//!
//! - keys resident in the active/immutable memtables (never fetched),
//! - keys shadowed by tombstones at any layer,
//! - snapshot reads (`ReadOptions::snapshot_seq`) taken mid-history,
//! - absent keys, and
//! - mid-batch injected read faults: a `FaultInjectionEnv` failing one
//!   underlying SST read must error only the slots that needed that
//!   file's data, leave every neighboring slot's bytes intact, never
//!   park the engine (I/O faults are retryable), and succeed on retry
//!   once disarmed.

mod support;

use std::sync::Arc;

use proptest::prelude::*;
use shield_env::{FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_lsm::{Db, ReadOptions, WriteOptions};
use support::{Mode, Primary, Store, MODES};

/// One mode's persistent state: the store plus the fault-injection env
/// holding its files.
struct TestDb {
    fenv: FaultInjectionEnv,
    store: Store,
}

impl TestDb {
    fn new(mode: Mode) -> Self {
        let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
        TestDb { store: Store::over(mode, Arc::new(fenv.clone())), fenv }
    }

    /// Opens (or reopens, with a cold block cache) the database.
    fn open(&self) -> Primary {
        // Small files and an eager trigger so batches span several
        // levels and tables; tiny blocks so they span many blocks.
        self.store.open(|opts| {
            let mut opts = support::small(opts).with_write_buffer_size(16 << 10);
            opts.block_size = 256;
            opts
        })
    }
}

fn key_bytes(i: u8) -> Vec<u8> {
    format!("key{i:03}").into_bytes()
}

/// Asserts `multi_get(keys)` ≡ serial `get`s, slot for slot, at `ropts`.
fn assert_batch_matches_serial(db: &Db, ropts: &ReadOptions, keys: &[Vec<u8>], label: &str) {
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let batched = db.multi_get(ropts, &refs);
    assert_eq!(batched.len(), keys.len());
    for (key, got) in keys.iter().zip(batched) {
        let serial = db.get(ropts, key).unwrap_or_else(|e| panic!("serial get failed: {e}"));
        assert_eq!(
            got.expect("batched slot errored where serial get succeeded"),
            serial,
            "{label}: divergence on {:?}",
            String::from_utf8_lossy(key)
        );
    }
}

/// One scripted history: puts/deletes before a flush+compact boundary
/// (persistent layers), a snapshot, then more puts/deletes that stay in
/// the memtable. Batched reads at both the latest state and the snapshot
/// must match serial reads exactly.
fn run_history(
    mode: Mode,
    persistent: &[(u8, bool)],
    resident: &[(u8, bool)],
    queries: &[u8],
) {
    let t = TestDb::new(mode);
    let db = t.open();
    let w = WriteOptions::default();
    for &(k, is_delete) in persistent {
        if is_delete {
            db.delete(&w, &key_bytes(k)).unwrap();
        } else {
            db.put(&w, &key_bytes(k), format!("v1-{k}").as_bytes()).unwrap();
        }
    }
    db.compact_all().unwrap();
    let snap = db.snapshot();
    for &(k, is_delete) in resident {
        if is_delete {
            db.delete(&w, &key_bytes(k)).unwrap();
        } else {
            db.put(&w, &key_bytes(k), format!("v2-{k}").as_bytes()).unwrap();
        }
    }
    let keys: Vec<Vec<u8>> = queries.iter().map(|&k| key_bytes(k)).collect();
    assert_batch_matches_serial(&db, &ReadOptions::new(), &keys, "latest");
    assert_batch_matches_serial(&db, &snap.read_options(), &keys, "snapshot");
    // And with fill_cache off (reads around the cache).
    let ropts = ReadOptions { snapshot_seq: None, fill_cache: false };
    assert_batch_matches_serial(&db, &ropts, &keys, "no-fill");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Arbitrary histories and query batches (duplicate and absent keys
    /// included), differentially checked in all three modes.
    #[test]
    fn multi_get_equals_serial_gets(
        persistent in proptest::collection::vec((0u8..48, any::<bool>()), 8..64),
        resident in proptest::collection::vec((0u8..48, any::<bool>()), 0..24),
        queries in proptest::collection::vec(0u8..64, 1..48),
    ) {
        for mode in MODES {
            run_history(mode, &persistent, &resident, &queries);
        }
    }
}

/// A large deterministic batch over cold multi-level storage: the batch
/// must engage the batched read path (nonzero `batched_reads` ticker
/// carrying several requests per submission) and still match serial gets.
#[test]
fn large_cold_batch_engages_batched_reads() {
    for mode in MODES {
        let t = TestDb::new(mode);
        {
            let db = t.open();
            let w = WriteOptions::default();
            for i in 0..=255u8 {
                db.put(&w, &key_bytes(i), format!("value-{i}").as_bytes()).unwrap();
            }
            db.compact_all().unwrap();
        }
        // Reopen: cold block cache, everything on "disk".
        let db = t.open();
        let keys: Vec<Vec<u8>> = (0..=255u8).step_by(3).map(key_bytes).collect();
        assert_batch_matches_serial(&db, &ReadOptions::new(), &keys, "cold batch");
        let snap = db.statistics().snapshot();
        assert!(snap.multi_gets >= 1, "{mode:?}: multi_gets ticker never bumped");
        assert!(snap.batched_reads > 0, "{mode:?}: batch never hit the batched read path");
        assert!(
            snap.batch_read_requests > snap.batched_reads,
            "{mode:?}: batches carried {} requests over {} submissions — no batching",
            snap.batch_read_requests,
            snap.batched_reads
        );
    }
}

/// Conservation law on the lookup tickers: `multi_get` credits `gets`
/// once per key, like `get`, so `gets_found <= gets` holds after any
/// mix of the two — over memtable hits, table hits, tombstones and
/// absent keys alike.
#[test]
fn gets_found_never_exceeds_gets_after_mixed_history() {
    for mode in MODES {
        let t = TestDb::new(mode);
        let db = t.open();
        let w = WriteOptions::default();
        for i in 0..100u8 {
            db.put(&w, &key_bytes(i), b"persistent").unwrap();
        }
        db.compact_all().unwrap();
        for i in 100..120u8 {
            db.put(&w, &key_bytes(i), b"memtable").unwrap();
        }
        for i in 0..10u8 {
            db.delete(&w, &key_bytes(i)).unwrap();
        }
        let before = db.statistics().snapshot();
        let r = ReadOptions::new();
        // Keys 0..10 are deleted, 10..120 live, 120..150 never written.
        let batch: Vec<Vec<u8>> = (0..150u8).map(key_bytes).collect();
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
        let mut found = 0u64;
        for _ in 0..3 {
            let batch = db.multi_get(&r, &refs);
            found += batch.iter().filter(|slot| matches!(slot, Ok(Some(_)))).count() as u64;
        }
        for i in (0..150u8).step_by(7) {
            found += u64::from(db.get(&r, &key_bytes(i)).unwrap().is_some());
        }
        let after = db.statistics().snapshot();
        let serial_gets = (0..150u8).step_by(7).count() as u64;
        assert_eq!(after.gets - before.gets, 3 * 150 + serial_gets, "{mode:?}: lookups served");
        assert_eq!(after.gets_found - before.gets_found, found, "{mode:?}: lookups found");
        assert_eq!(after.multi_gets - before.multi_gets, 3, "{mode:?}: batches");
        assert!(
            after.gets_found <= after.gets,
            "{mode:?}: found {} > served {}",
            after.gets_found,
            after.gets
        );
    }
}

/// An injected read fault mid-batch must produce per-slot errors only,
/// leave neighboring slots byte-intact, not park the engine, and clear
/// on retry after the fault is disarmed.
#[test]
fn injected_fault_errors_only_affected_slots() {
    for mode in MODES {
        let t = TestDb::new(mode);
        {
            let db = t.open();
            let w = WriteOptions::default();
            for i in 0..=255u8 {
                db.put(&w, &key_bytes(i), format!("value-{i}").as_bytes()).unwrap();
            }
            db.compact_all().unwrap();
        }
        // Reopen cold so the batch must actually read, then arm exactly
        // one SST read fault.
        let db = t.open();
        let keys: Vec<Vec<u8>> = (0..=255u8).step_by(2).map(key_bytes).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        t.fenv.error_n_times(FileKind::Sst, FaultOp::Read, 1);
        let results = db.multi_get(&ReadOptions::new(), &refs);
        t.fenv.disarm_all();
        assert_eq!(
            t.fenv.stats().injected_for(FaultOp::Read),
            1,
            "{mode:?}: the armed fault never fired"
        );
        let failed: Vec<usize> =
            (0..results.len()).filter(|&i| results[i].is_err()).collect();
        assert!(!failed.is_empty(), "{mode:?}: injected read fault surfaced in no slot");
        // Neighbors are intact: every Ok slot must carry the exact value.
        for (i, (key, result)) in keys.iter().zip(&results).enumerate() {
            if let Ok(got) = result {
                let expect = format!("value-{}", i * 2).into_bytes();
                assert_eq!(
                    got.as_deref(),
                    Some(expect.as_slice()),
                    "{mode:?}: fault corrupted neighboring slot {:?}",
                    String::from_utf8_lossy(key)
                );
            }
        }
        // An I/O fault is transient: the engine must not park...
        assert!(
            db.background_error().is_none(),
            "{mode:?}: retryable I/O fault parked the engine"
        );
        // ...and the failed slots must succeed once the fault is gone.
        let retry_keys: Vec<&[u8]> = failed.iter().map(|&i| keys[i].as_slice()).collect();
        let retried = db.multi_get(&ReadOptions::new(), &retry_keys);
        for (&i, result) in failed.iter().zip(retried) {
            let expect = format!("value-{}", i * 2).into_bytes();
            assert_eq!(
                result.unwrap_or_else(|e| panic!("{mode:?}: retry still failing: {e}")).as_deref(),
                Some(expect.as_slice()),
                "{mode:?}: retry returned wrong bytes for slot {i}"
            );
        }
    }
}
