//! Disaggregated storage with a read-only instance (paper §2.2, §6.4).
//!
//! A primary LSM-KVS writes through a simulated intra-datacenter network
//! to disaggregated storage; a read-only instance on another "compute
//! node" opens the same files, resolves DEKs via the DEK-IDs in the file
//! metadata, and serves queries.
//!
//! ```sh
//! cargo run --release --example disaggregated
//! ```

use std::sync::Arc;

use shield::deploy::DisaggregatedStorage;
use shield::{open_shield, open_shield_replica, ReplicaOptions, ShieldOptions, WriteOptions};
use shield_env::{Env, MemEnv, NetworkModel};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::Options;

fn main() {
    // The storage cluster: an in-memory backing store behind a network
    // model (500 µs RTT, 1 Gbps — the paper's testbed profile).
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let ds = DisaggregatedStorage::new(backing, NetworkModel::intra_datacenter());
    let kds = Arc::new(LocalKds::new(KdsConfig::sstoolkit_like()));

    // Primary instance on the compute node (server-1).
    let primary = open_shield(
        Options::new(ds.compute_mount()),
        "cluster/db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"primary-pass"),
    )
    .expect("open primary");

    let w = WriteOptions::default();
    for i in 0..5_000u32 {
        primary
            .put(&w, format!("order:{i:06}").as_bytes(), format!("{{\"total\": {i}}}").as_bytes())
            .expect("put");
    }
    primary.flush().expect("flush");
    println!("primary wrote 5000 orders over the simulated network");

    // A read-only instance on another compute node (server-3): it has its
    // own KDS identity and secure cache, and learns DEKs purely from the
    // DEK-IDs embedded in the shared files' metadata. Without the poller
    // it serves the state of its last `catch_up()`.
    let reader = open_shield_replica(
        ds.compute_mount(),
        "cluster/db",
        "cluster/reader.cache",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(3), b"reader-pass"),
        ReplicaOptions { auto_poll: false, ..ReplicaOptions::default() },
    )
    .expect("open read-only instance");

    let hit = reader.get(b"order:001234").expect("get").expect("present");
    println!("read-only instance served order:001234 = {}", String::from_utf8_lossy(&hit));
    let page = reader.scan(b"order:000100", 3).expect("scan");
    println!("read-only scan:");
    for (k, v) in &page {
        println!("  {} = {}", String::from_utf8_lossy(k), String::from_utf8_lossy(v));
    }

    let rs = reader.resolver.stats();
    println!(
        "\nreader DEK traffic: {} KDS fetches, then {} secure-cache hits",
        rs.cache_misses, rs.cache_hits
    );
    let io = ds.remote().io_stats().expect("stats").snapshot();
    println!(
        "network I/O: {:.1} MiB written, {:.1} MiB read across the DS link",
        io.total_written() as f64 / (1 << 20) as f64,
        io.total_read() as f64 / (1 << 20) as f64,
    );
}
