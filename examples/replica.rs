//! A live read replica tailing the primary's WAL + MANIFEST
//! (DESIGN.md §4l).
//!
//! A SHIELD primary writes through a simulated intra-datacenter network
//! to disaggregated storage; a `ReplicaDb` on another compute node
//! mounts the same files, tails the manifest and live WAL continuously
//! in the background, resolves DEKs via the DEK-IDs in file metadata
//! with its **own** KDS identity, and serves snapshot-consistent reads
//! with a reportable staleness bound — surviving a primary crash
//! mid-stream.
//!
//! ```sh
//! cargo run --release --example replica
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use shield::{open_shield, open_shield_replica, ReplicaOptions, ShieldOptions};
use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Options, ReadOptions, WriteOptions};

const PRIMARY: ServerId = ServerId(1);
const READER: ServerId = ServerId(3);

fn main() {
    // One shared store; each node pays its own network path to it.
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let primary_mount: Arc<dyn Env> =
        Arc::new(RemoteEnv::new(backing.clone(), NetworkModel::intra_datacenter()));
    let replica_mount: Arc<dyn Env> =
        Arc::new(RemoteEnv::new(backing.clone(), NetworkModel::intra_datacenter()));

    println!("== scene 1: primary ingests on compute node 1 ==");
    let primary = open_shield(
        Options::new(primary_mount),
        "cluster/db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
    )
    .expect("open primary");
    // Synced writes: SHIELD's WAL buffer may hold unsynced records in
    // plaintext app memory, invisible to the shared store (§5.3).
    let w = WriteOptions { sync: true };
    for i in 0..2_000u32 {
        primary
            .put(&w, format!("user:{i:05}").as_bytes(), format!("profile-{i}").as_bytes())
            .expect("put");
    }
    primary.flush().expect("flush");
    println!("  2000 users written + flushed through the remote mount");

    println!("== scene 2: live replica opens on compute node 3 ==");
    let replica = open_shield_replica(
        replica_mount,
        "cluster/db",
        "reader.cache", // the reader's own secure DEK cache, not the db dir
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, READER, b"reader-pass"),
        ReplicaOptions {
            poll_interval: Duration::from_millis(2),
            max_staleness: Some(10_000),
            ..ReplicaOptions::default()
        },
    )
    .expect("open replica");
    assert_eq!(
        replica.get(b"user:01234").expect("replica get"),
        Some(b"profile-1234".to_vec()),
        "replica must serve flushed state"
    );
    let rstats = replica.resolver.stats();
    println!(
        "  replica serves user:01234 at seq {} (DEKs resolved by DEK-ID: {} KDS fetches)",
        replica.sequence(),
        rstats.cache_misses
    );

    println!("== scene 3: the replica tails new writes live ==");
    primary.put(&w, b"user:new", b"just-arrived").expect("put");
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.get(b"user:new").expect("replica get").is_none() {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    println!(
        "  background poller picked up user:new; staleness = {} records",
        replica.staleness()
    );

    println!("== scene 4: primary crashes mid-stream; replica keeps serving ==");
    primary.put(&w, b"user:last", b"synced-before-crash").expect("put");
    drop(primary); // process gone; files stay on the shared store
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.get(b"user:last").expect("replica get").is_none() {
        assert!(Instant::now() < deadline, "replica missed the final synced write");
        std::thread::sleep(Duration::from_millis(2));
    }
    let scanned = replica.scan(b"user:00100", 5).expect("replica scan");
    assert_eq!(scanned.len(), 5);
    assert_eq!(scanned[0].0, b"user:00100");
    println!("  gets + scans still consistent after the primary died");

    println!("== scene 5: the primary restarts and the replica follows the rollover ==");
    let primary_mount2: Arc<dyn Env> =
        Arc::new(RemoteEnv::new(backing, NetworkModel::intra_datacenter()));
    let primary = open_shield(
        Options::new(primary_mount2),
        "cluster/db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, PRIMARY, b"primary-pass"),
    )
    .expect("reopen primary");
    assert_eq!(
        primary.get(&ReadOptions::new(), b"user:last").expect("primary get"),
        Some(b"synced-before-crash".to_vec())
    );
    primary.put(&w, b"user:after-restart", b"second-life").expect("put");
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.get(b"user:after-restart").expect("replica get").is_none() {
        assert!(Instant::now() < deadline, "replica never followed the restart");
        std::thread::sleep(Duration::from_millis(2));
    }
    replica.stop();
    let report = replica.metrics_report();
    let progress = report.replica.expect("a replica's report has a replica section");
    println!(
        "  replica followed the new WAL/manifest generation: serving seq {} of {} seen, \
         {} rollover(s) followed, {} KDS retries",
        progress.last_applied_seq,
        progress.last_seen_seq,
        report.tickers.replica_rollovers_followed,
        report.tickers.resolver_retries
    );

    println!("== scene 6: revoking the reader locks out fresh replicas ==");
    kds.revoke_server(READER);
    let locked = open_shield_replica(
        Arc::new(MemEnv::new()),
        "cluster/db",
        "reader2.cache",
        ShieldOptions::new(kds as Arc<dyn Kds>, READER, b"reader-pass"),
        ReplicaOptions::default(),
    );
    assert!(locked.is_err(), "revoked reader must not open");
    println!("  KDS revocation refused the new replica open");
    println!("replica tour complete");
}
