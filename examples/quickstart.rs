//! Quickstart: open a SHIELD-encrypted key-value store, write, read, scan,
//! and watch the key-management machinery at work.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use shield::{Encryption, ReadOptions, ShieldOptions, WriteOptions};
use shield_env::PosixEnv;
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Options};

fn main() {
    let dir = std::env::temp_dir().join("shield-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().unwrap();

    // 1. A key distribution service (in production: SSToolkit, Kerberos…).
    let kds = Arc::new(LocalKds::new(KdsConfig::sstoolkit_like()));

    // 2. Open a SHIELD database: every file gets its own DEK, the WAL is
    //    encrypted through a 512-byte application buffer, and DEKs are
    //    cached on disk under the passkey.
    //    The design is one `Options` field; `Db::open` opens every one.
    let mut opts = Options::new(Arc::new(PosixEnv::new()));
    opts.encryption = Encryption::Shield(ShieldOptions::new(
        kds.clone() as Arc<dyn Kds>,
        ServerId(1),
        b"correct horse battery",
    ));
    let db = Db::open(opts, path).expect("open");

    // 3. Normal KV usage.
    let w = WriteOptions::default();
    let r = ReadOptions::new();
    for i in 0..10_000u32 {
        db.put(&w, format!("user:{i:05}").as_bytes(), format!("profile-{i}").as_bytes())
            .expect("put");
    }
    db.delete(&w, b"user:00042").expect("delete");
    db.flush().expect("flush");

    assert_eq!(db.get(&r, b"user:00007").expect("get"), Some(b"profile-7".to_vec()));
    assert_eq!(db.get(&r, b"user:00042").expect("get"), None);

    let page = db.scan(&r, b"user:00100", 5).expect("scan");
    println!("scan from user:00100 →");
    for (k, v) in &page {
        println!("  {} = {}", String::from_utf8_lossy(k), String::from_utf8_lossy(v));
    }

    // Batched lookup: per-slot results, one overlapped I/O round per file
    // instead of a storage round trip per key (DESIGN.md §4i).
    let batch: Vec<Vec<u8>> = [7u32, 42, 9_999, 77]
        .iter()
        .map(|i| format!("user:{i:05}").into_bytes())
        .collect();
    let batch_refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();
    let hits = db.multi_get(&r, &batch_refs);
    assert_eq!(hits[0].as_ref().expect("slot").as_deref(), Some(b"profile-7".as_slice()));
    assert_eq!(hits[1].as_ref().expect("slot").as_deref(), None); // deleted
    assert_eq!(hits[2].as_ref().expect("slot").as_deref(), Some(b"profile-9999".as_slice()));
    assert_eq!(hits[3].as_ref().expect("slot").as_deref(), Some(b"profile-77".as_slice()));
    let snap = db.statistics().snapshot();
    println!(
        "\nmulti_get({}) resolved in {} batched submission(s) carrying {} block read(s)",
        batch.len(),
        snap.batched_reads,
        snap.batch_read_requests
    );

    // 4. Key-management visibility: one DEK per file, all served by the KDS.
    let kstats = kds.stats();
    let rstats = db.resolver().expect("a SHIELD database").stats();
    println!("\nKDS: {} DEKs generated, {} fetched, {} denied", kstats.generated, kstats.fetched, kstats.denied);
    println!(
        "resolver: {} cache hits, {} misses (secure cache saves KDS round-trips)",
        rstats.cache_hits, rstats.cache_misses
    );
    println!("live DEKs at the KDS: {}", kds.live_dek_count());
    for level in db.metrics_report().levels {
        println!("L{}: {} files, {} bytes", level.level, level.files, level.bytes);
    }
    println!("\nDatabase at {path} — every byte of WAL/SST/MANIFEST is ciphertext.");
}
