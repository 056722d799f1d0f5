//! The range/hash-sharded engine end to end (DESIGN.md §4k).
//!
//! Scene 1 opens a plain `Db` with four range shards and shows one write
//! front over N trees: cross-shard batches land atomically, a snapshot is
//! a consistent cut while writers race, and the merged scan is globally
//! ordered. Scene 2 crashes the process mid-run and proves every acked
//! cross-shard batch survives the WAL replay. Scene 3 runs SHIELD on top:
//! hashed shards over simulated remote storage, one KDS identity and one
//! secure DEK cache for the whole fleet.
//!
//! ```sh
//! cargo run --release --example sharded
//! ```

use std::sync::Arc;

use shield::{open_shield, ShieldOptions, WriteOptions};
use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Options, ReadOptions, WriteBatch};

fn range_opts(env: &MemEnv) -> Options {
    let mut opts = Options::new(Arc::new(env.clone()))
        .with_write_buffer_size(16 << 10)
        .with_shard_ranges(vec![b"g".to_vec(), b"n".to_vec(), b"t".to_vec()]);
    opts.compaction.l0_compaction_trigger = 2;
    opts
}

/// One batch touching all four ranges: a/h/p/w + the batch number.
fn cross_shard_batch(n: u32) -> WriteBatch {
    let mut b = WriteBatch::new();
    for prefix in ["a", "h", "p", "w"] {
        b.put(format!("{prefix}{n:04}").as_bytes(), format!("batch{n:04}").as_bytes());
    }
    b
}

fn main() {
    let w = WriteOptions::default();
    let r = ReadOptions::new();

    println!("== scene 1: four range shards behind one API ==");
    let env = MemEnv::new();
    let db = Db::open(range_opts(&env), "db").expect("open");
    for n in 0..200u32 {
        db.write(&w, cross_shard_batch(n)).expect("batch");
    }
    // A snapshot taken while a writer races is a consistent cut: each
    // cross-shard batch is in it entirely or not at all.
    let snap = db.snapshot();
    for n in 200..400u32 {
        db.write(&w, cross_shard_batch(n)).expect("batch");
    }
    let cut = db.scan(&snap.read_options(), b"", usize::MAX >> 1).expect("snapshot scan");
    assert_eq!(cut.len(), 4 * 200, "snapshot saw a torn cross-shard batch");
    let live = db.scan(&r, b"", usize::MAX >> 1).expect("scan");
    assert_eq!(live.len(), 4 * 400);
    assert!(live.windows(2).all(|p| p[0].0 < p[1].0), "merged scan out of order");
    db.flush().expect("flush");
    for (i, tree) in db.metrics_report().trees.iter().enumerate() {
        let files: usize = tree.levels.iter().map(|l| l.files).sum();
        println!("  shard {i}: {files} files, {} flushes", tree.flushes);
    }

    println!("== scene 2: process crash — acked batches replay everywhere or nowhere ==");
    for n in 400..500u32 {
        db.write(&w, cross_shard_batch(n)).expect("batch");
    }
    db.simulate_process_crash();
    let db = Db::open(range_opts(&env), "db").expect("reopen");
    for n in 0..500u32 {
        for prefix in ["a", "h", "p", "w"] {
            let got = db.get(&r, format!("{prefix}{n:04}").as_bytes()).expect("get");
            assert_eq!(
                got.as_deref(),
                Some(format!("batch{n:04}").as_bytes()),
                "batch {n} lost its {prefix} leg in recovery"
            );
        }
    }
    println!("  all 500 acked cross-shard batches intact after WAL replay");

    println!("== scene 3: SHIELD on hashed shards over remote storage ==");
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let remote = RemoteEnv::new(backing, NetworkModel::intra_datacenter());
    let mut opts = Options::new(Arc::new(remote)).with_write_buffer_size(16 << 10).with_shards(4);
    opts.compaction.l0_compaction_trigger = 2;
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let sdb = open_shield(
        opts,
        "db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk"),
    )
    .expect("open shield sharded");
    for i in 0..2_000u32 {
        let key = format!("k{:06}", i.wrapping_mul(2654435761) % 4_000);
        sdb.put(&w, key.as_bytes(), format!("v{i:06}").as_bytes()).expect("put");
    }
    sdb.flush().expect("flush");
    let keys: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("k{:06}", i.wrapping_mul(2654435761) % 4_000).into_bytes())
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    let hits = sdb.multi_get(&r, &refs).into_iter().filter(|v| matches!(v, Ok(Some(_)))).count();
    assert_eq!(hits, 64, "multi_get missed a sharded key");
    let report = sdb.metrics_report();
    let engaged = report.trees.iter().filter(|tree| tree.flushes > 0).count();
    assert_eq!(engaged, 4, "hash routing left a shard idle");
    assert!(report.to_json().contains("\"shards\":{\"shard_by\":\"hash\""));
    println!(
        "  4/4 shards flushed, multi_get(64) all hits, one KDS: {} DEKs generated",
        kds.stats().generated,
    );
    println!("sharded tour complete");
}
