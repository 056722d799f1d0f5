//! Offloaded compaction with metadata-enabled DEK sharing (paper §5.6),
//! including the breached-server response: revoking the compaction
//! server's KDS authorization locks it out mid-run.
//!
//! ```sh
//! cargo run --release --example offloaded_compaction
//! ```

use std::sync::Arc;

use shield::deploy::OffloadedCompactor;
use shield::{Encryption, ShieldOptions, WriteOptions};
use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, FileStore, IntegrityOptions, Options};

fn main() {
    // One backing store: the compute node mounts it over the network, the
    // storage server works on it directly.
    let storage_env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let compute_mount = Arc::new(RemoteEnv::new(storage_env.clone(), NetworkModel::unlimited()));
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));

    // The compaction worker lives on the storage server (server-2): its
    // I/O is storage-local, its DEKs come from the KDS via the DEK-IDs in
    // SST metadata, and its secure cache is its own.
    let identity = Encryption::Shield(ShieldOptions {
        chunk_size: 64 << 10,
        encryption_threads: 4,
        ..ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(2), b"compactor-pass")
    });
    // Its file layer: that env, that identity, and the integrity settings
    // the primary opens with (the defaults here).
    let files =
        FileStore::new(storage_env, &identity, "compactor.cache", IntegrityOptions::default())
            .expect("compactor cache");
    let compactor_resolver = files.resolver().expect("a SHIELD identity").clone();
    let compactor = OffloadedCompactor::new(files);

    // The primary (server-1) hands its compactions to the worker.
    let mut base = Options::new(compute_mount).with_write_buffer_size(64 << 10);
    base.compaction.l0_compaction_trigger = 2;
    base.compaction_executor = Some(compactor.clone());
    let primary = ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"primary-pass");
    base.encryption = Encryption::Shield(primary);
    let db = Db::open(base, "db").expect("open");

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
