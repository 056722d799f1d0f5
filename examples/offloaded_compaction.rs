//! Offloaded compaction with metadata-enabled DEK sharing (paper §5.6),
//! including the breached-server response: revoking the compaction
//! server's KDS authorization locks it out mid-run.
//!
//! ```sh
//! cargo run --release --example offloaded_compaction
//! ```

use std::sync::Arc;

use shield::deploy::{DisaggregatedStorage, OffloadedCompactor};
use shield::{open_shield, ShieldOptions, WriteOptions};
use shield_crypto::Algorithm;
use shield_env::{Env, MemEnv, NetworkModel};
use shield_kds::{DekResolver, Kds, KdsConfig, LocalKds, SecureDekCache, ServerId};
use shield_lsm::encryption::EncryptionConfig;
use shield_lsm::{FileStore, IntegrityOptions, Options};

fn main() {
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let ds = DisaggregatedStorage::new(backing, NetworkModel::unlimited());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));

    // The compaction worker lives on the storage server (server-2): its
    // I/O is storage-local, its DEKs come from the KDS via the DEK-IDs in
    // SST metadata, and its secure cache is its own.
    let storage_env = ds.storage_local();
    let compactor_cache =
        SecureDekCache::open(storage_env.clone(), "compactor.cache", b"compactor-pass")
            .expect("cache");
    let compactor_resolver = Arc::new(DekResolver::new(
        kds.clone() as Arc<dyn Kds>,
        Some(Arc::new(compactor_cache)),
        ServerId(2),
        Algorithm::Aes128Ctr,
    ));
    // Its file layer: that env, that resolver, and the integrity settings
    // the primary opens with (the defaults here).
    let compactor = OffloadedCompactor::new(FileStore::new(
        storage_env,
        Some(EncryptionConfig::new(compactor_resolver.clone()).with_chunks(64 << 10, 4)),
        IntegrityOptions::default(),
    ));

    // The primary (server-1) hands its compactions to the worker.
    let mut base = Options::new(ds.compute_mount()).with_write_buffer_size(64 << 10);
    base.compaction.l0_compaction_trigger = 2;
    base.compaction_executor = Some(compactor.clone());
    let db = open_shield(
        base,
        "db",
        ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"primary-pass"),
    )
    .expect("open");

    let w = WriteOptions::default();
    for i in 0..20_000u32 {
        db.put(&w, format!("k{:08}", i % 5000).as_bytes(), &[b'v'; 64]).expect("put");
    }
    db.compact_all().expect("compact");
    println!("offloaded compactions executed on the storage server: {}", compactor.jobs_executed());
    let cs = compactor_resolver.stats();
    println!(
        "compactor DEK traffic: {} generated (outputs), {} fetched/cached (inputs: {} misses, {} hits)",
        cs.generated, cs.cache_misses + cs.cache_hits, cs.cache_misses, cs.cache_hits
    );
    println!("live DEKs after rotation-by-compaction: {}", kds.live_dek_count());

    // Breach response (§5.4): revoke the compaction server. Its next job
    // is denied by the KDS and surfaces as a background error.
    kds.revoke_server(ServerId(2));
    println!("\nrevoked server-2 at the KDS; writing more data…");
    let mut locked_out = false;
    for i in 0..50_000u32 {
        if db.put(&w, format!("x{i:08}").as_bytes(), &[b'v'; 64]).is_err() {
            locked_out = true;
            break;
        }
    }
    locked_out |= db.compact_all().is_err();
    assert!(locked_out, "revoked compactor must be locked out");
    println!("compaction denied: the breached server can no longer obtain DEKs.");
}
