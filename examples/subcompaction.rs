//! Parallel subcompactions over disaggregated storage (DESIGN.md §4f).
//!
//! Loads the same workload into two SHIELD stores on simulated remote
//! storage — one with the default `max_subcompactions = 1`, which splits
//! a merge only while its tree is behind (L0 at the slowdown trigger), one
//! with a floor of 4 — then compacts both to the bottom and shows that
//! they did the identical work (same data, fully readable, DEKs rotated)
//! while the second split every large merge into byte-balanced key
//! subranges whose network waits overlap.
//!
//! ```sh
//! cargo run --release --example subcompaction
//! ```

use std::sync::Arc;

use shield::{open_shield, ShieldOptions, WriteOptions};
use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Options, ReadOptions};

fn open(max_subcompactions: usize) -> shield::ShieldDb {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let remote = RemoteEnv::new(backing, NetworkModel::intra_datacenter());
    let mut opts = Options::new(Arc::new(remote))
        .with_write_buffer_size(64 << 10)
        .with_background_jobs(4)
        .with_max_subcompactions(max_subcompactions);
    opts.compaction.l0_compaction_trigger = 4;
    opts.compaction.target_file_size = 64 << 10;
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    open_shield(opts, "db", ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"pk"))
        .expect("open")
}

fn main() {
    let w = WriteOptions::default();
    let stores = [("default", open(1)), ("floor 4", open(4))];
    for (name, db) in &stores {
        for i in 0..8_000u32 {
            let key = format!("k{:06}", i.wrapping_mul(2654435761) % 12_000);
            db.put(&w, key.as_bytes(), format!("v{i:06}-{}", "x".repeat(80)).as_bytes())
                .expect("put");
        }
        db.db.flush().expect("flush");
        let t = std::time::Instant::now();
        db.db.compact_all().expect("compact");
        let stats = db.statistics().snapshot();
        println!(
            "{name:>8}: compact_all {:>5.2}s — {} compactions, {} subcompactions \
             (worker time {:.2}s)",
            t.elapsed().as_secs_f64(),
            stats.compactions,
            stats.subcompactions,
            stats.subcompaction_micros as f64 / 1e6,
        );
    }

    let r = ReadOptions::new();
    let serial = stores[0].1.db.scan(&r, b"", usize::MAX >> 1).expect("scan");
    let parallel = stores[1].1.db.scan(&r, b"", usize::MAX >> 1).expect("scan");
    assert_eq!(serial, parallel, "stores diverged");
    assert!(!serial.is_empty());

    let default_subs = stores[0].1.statistics().snapshot().subcompactions;
    let parallel_subs = stores[1].1.statistics().snapshot().subcompactions;
    assert!(parallel_subs > 0, "a floor of 4 never split a compaction");
    println!(
        "identical contents ({} keys); the default store ran {} subranges (only while it was \
         behind), the floor-4 store {}",
        serial.len(),
        default_subs,
        parallel_subs,
    );
}
