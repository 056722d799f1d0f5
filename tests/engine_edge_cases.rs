//! Edge cases across the whole stack: empty databases, huge values, zero
//! keys, iterator boundaries, reopen loops, and concurrent readers during
//! compaction.

use std::sync::Arc;

use shield_env::{Env as _, FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_lsm::{Db, Options, ReadOptions, WriteBatch, WriteOptions};

fn open(env: &MemEnv) -> Db {
    let mut o = Options::new(Arc::new(env.clone())).with_write_buffer_size(16 << 10);
    o.compaction.l0_compaction_trigger = 2;
    Db::open(o, "db").unwrap()
}

#[test]
fn empty_db_iterator_and_scan() {
    let env = MemEnv::new();
    let db = open(&env);
    let mut it = db.iter(&ReadOptions::new()).unwrap();
    it.seek_to_first();
    assert!(!it.valid());
    it.seek(b"anything");
    assert!(!it.valid());
    assert!(db.scan(&ReadOptions::new(), b"", 100).unwrap().is_empty());
    db.flush().unwrap();
    db.compact_all().unwrap();
}

#[test]
fn empty_key_and_empty_value() {
    let env = MemEnv::new();
    let db = open(&env);
    let w = WriteOptions::default();
    db.put(&w, b"", b"empty-key-value").unwrap();
    db.put(&w, b"empty-value", b"").unwrap();
    let r = ReadOptions::new();
    assert_eq!(db.get(&r, b"").unwrap(), Some(b"empty-key-value".to_vec()));
    assert_eq!(db.get(&r, b"empty-value").unwrap(), Some(Vec::new()));
    db.flush().unwrap();
    assert_eq!(db.get(&r, b"").unwrap(), Some(b"empty-key-value".to_vec()));
    assert_eq!(db.get(&r, b"empty-value").unwrap(), Some(Vec::new()));
}

#[test]
fn large_values_span_blocks() {
    let env = MemEnv::new();
    let db = open(&env);
    let w = WriteOptions::default();
    // Values far larger than the 4 KiB block size.
    let big = vec![0x7fu8; 100 * 1024];
    db.put(&w, b"big-1", &big).unwrap();
    db.put(&w, b"big-2", &big).unwrap();
    db.flush().unwrap();
    let r = ReadOptions::new();
    assert_eq!(db.get(&r, b"big-1").unwrap().unwrap().len(), big.len());
    assert_eq!(db.get(&r, b"big-2").unwrap().unwrap(), big);
}

#[test]
fn delete_then_reinsert_cycles() {
    let env = MemEnv::new();
    let db = open(&env);
    let w = WriteOptions::default();
    let r = ReadOptions::new();
    for round in 0..5u32 {
        db.put(&w, b"cycled", format!("v{round}").as_bytes()).unwrap();
        assert_eq!(db.get(&r, b"cycled").unwrap(), Some(format!("v{round}").into_bytes()));
        db.delete(&w, b"cycled").unwrap();
        assert_eq!(db.get(&r, b"cycled").unwrap(), None);
        if round % 2 == 0 {
            db.flush().unwrap();
        }
    }
    db.compact_all().unwrap();
    assert_eq!(db.get(&r, b"cycled").unwrap(), None);
}

#[test]
fn tombstones_survive_partial_compaction() {
    // A delete must shadow an older SST value even when only the newer
    // file has been compacted.
    let env = MemEnv::new();
    let db = open(&env);
    let w = WriteOptions::default();
    for i in 0..200u32 {
        db.put(&w, format!("k{i:04}").as_bytes(), b"v1").unwrap();
    }
    db.flush().unwrap();
    db.delete(&w, b"k0100").unwrap();
    db.flush().unwrap();
    let r = ReadOptions::new();
    assert_eq!(db.get(&r, b"k0100").unwrap(), None);
    db.compact_all().unwrap();
    assert_eq!(db.get(&r, b"k0100").unwrap(), None);
    assert!(db.get(&r, b"k0101").unwrap().is_some());
}

#[test]
fn iterator_stable_while_compaction_runs() {
    let env = MemEnv::new();
    let db = Arc::new(open(&env));
    let w = WriteOptions::default();
    for i in 0..2000u32 {
        db.put(&w, format!("k{i:05}").as_bytes(), b"v").unwrap();
    }
    // Open an iterator, then trigger heavy churn in another thread.
    let mut it = db.iter(&ReadOptions::new()).unwrap();
    let churn = {
        let db = db.clone();
        std::thread::spawn(move || {
            for i in 0..2000u32 {
                db.put(&WriteOptions::default(), format!("x{i:05}").as_bytes(), b"y").unwrap();
            }
            db.compact_all().unwrap();
        })
    };
    it.seek_to_first();
    let mut count = 0;
    let mut prev: Option<Vec<u8>> = None;
    while it.valid() {
        let k = it.key().to_vec();
        if let Some(p) = &prev {
            assert!(*p < k, "iterator went backwards");
        }
        prev = Some(k);
        count += 1;
        it.next();
    }
    churn.join().unwrap();
    // The iterator sees at least its creation-time keys (k-prefixed).
    assert!(count >= 2000, "iterator lost keys: {count}");
}

#[test]
fn batch_with_duplicate_keys_last_wins() {
    let env = MemEnv::new();
    let db = open(&env);
    let mut batch = WriteBatch::new();
    batch.put(b"k", b"first");
    batch.put(b"k", b"second");
    batch.delete(b"k");
    batch.put(b"k", b"final");
    db.write(&WriteOptions::default(), batch).unwrap();
    assert_eq!(db.get(&ReadOptions::new(), b"k").unwrap(), Some(b"final".to_vec()));
}

#[test]
fn many_reopen_cycles_keep_data_and_bound_files() {
    let env = MemEnv::new();
    for round in 0..8u32 {
        let db = open(&env);
        db.put(&WriteOptions::default(), format!("round{round}").as_bytes(), b"v").unwrap();
        db.compact_all().unwrap();
    }
    let db = open(&env);
    let r = ReadOptions::new();
    for round in 0..8u32 {
        assert!(db.get(&r, format!("round{round}").as_bytes()).unwrap().is_some());
    }
    // Obsolete WALs/manifests must not accumulate.
    let files = env.list_dir("db").unwrap();
    assert!(files.len() < 16, "file leak across reopens: {files:?}");
}

#[test]
fn keys_with_binary_content() {
    let env = MemEnv::new();
    let db = open(&env);
    let w = WriteOptions::default();
    let keys: Vec<Vec<u8>> = vec![
        vec![0x00],
        vec![0x00, 0x00],
        vec![0xff; 3],
        vec![0x00, 0xff, 0x00],
        (0u8..=255).collect(),
    ];
    for (i, k) in keys.iter().enumerate() {
        db.put(&w, k, format!("{i}").as_bytes()).unwrap();
    }
    db.flush().unwrap();
    let r = ReadOptions::new();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(db.get(&r, k).unwrap(), Some(format!("{i}").into_bytes()));
    }
    // Scan order is bytewise.
    let all = db.scan(&r, b"", 100).unwrap();
    let mut sorted = all.clone();
    sorted.sort();
    assert_eq!(all, sorted);
}

#[test]
fn snapshot_pins_data_across_compaction() {
    let env = MemEnv::new();
    let db = open(&env);
    let w = WriteOptions::default();
    for i in 0..500u32 {
        db.put(&w, format!("k{i:04}").as_bytes(), b"old").unwrap();
    }
    let snap = db.snapshot();
    for i in 0..500u32 {
        db.put(&w, format!("k{i:04}").as_bytes(), b"new").unwrap();
    }
    db.compact_all().unwrap();
    // Snapshot still reads the old values even after compaction.
    assert_eq!(db.get(&snap.read_options(), b"k0042").unwrap(), Some(b"old".to_vec()));
    assert_eq!(db.get(&ReadOptions::new(), b"k0042").unwrap(), Some(b"new".to_vec()));
    drop(snap);
    // After the snapshot dies, another compaction may reclaim history.
    db.compact_all().unwrap();
    assert_eq!(db.get(&ReadOptions::new(), b"k0042").unwrap(), Some(b"new".to_vec()));
}

/// Obsolete-file collection does env and KDS round trips; none of them may
/// run under the state mutex, which every `get` takes to pin a version.
/// Each `remove_file` of a compacted-away SST is made to take 20 ms; the
/// window between the start of the first and the start of the second
/// delayed remove is one whole sleeping remove, and a reader must keep
/// completing gets right through it.
#[test]
fn gets_proceed_while_obsolete_files_are_being_removed() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let mut o = Options::new(Arc::new(fenv.clone()));
    o.compaction.l0_compaction_trigger = 4;
    let db = Arc::new(Db::open(o, "db").unwrap());
    let w = WriteOptions::default();
    let flush_round = |round: u32| {
        for i in 0..200u32 {
            db.put(&w, format!("k{i:04}").as_bytes(), format!("r{round}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
    };
    // Four L0 files trigger a compaction. Its inputs outlive it (the job
    // itself still pins the version it read) and fall to the next
    // collection, the one the flush below runs.
    for round in 0..4 {
        flush_round(round);
    }
    db.wait_for_background_work().unwrap();
    fenv.delay_always(FileKind::Sst, FaultOp::Remove, std::time::Duration::from_millis(20));

    let gets = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (db, gets, stop) = (db.clone(), gets.clone(), stop.clone());
        std::thread::spawn(move || {
            let r = ReadOptions::new();
            while !stop.load(Ordering::SeqCst) {
                assert!(db.get(&r, b"k0007").unwrap().is_some());
                gets.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Gets completed when the n-th delayed remove starts sleeping.
    let sampler = {
        let (fenv, gets) = (fenv.clone(), gets.clone());
        std::thread::spawn(move || {
            [1u64, 2].map(|n| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
                while fenv.stats().delays < n {
                    assert!(std::time::Instant::now() < deadline, "removal {n} never started");
                    std::thread::yield_now();
                }
                gets.load(Ordering::SeqCst)
            })
        })
    };
    flush_round(4);
    let [at_first_remove, at_second_remove] = sampler.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    reader.join().unwrap();
    fenv.clear_delay(FileKind::Sst, FaultOp::Remove);

    // With the removes under the state lock at most the one get already
    // past its version pin could finish in that window.
    let during = at_second_remove - at_first_remove;
    assert!(during >= 10, "only {during} gets completed during a 20 ms remove_file");
}
