//! Confidentiality demonstration: write the same secrets through the
//! unencrypted baseline, instance-level EncFS, and SHIELD, then grep the
//! raw database files for plaintext — reproducing the paper's threat
//! scenarios 1–2 (§5.5): stolen media / unauthorized filesystem access.
//!
//! ```sh
//! cargo run --release --example encrypted_store
//! ```

use std::sync::Arc;

use shield::{Encryption, ShieldOptions, WriteOptions};
use shield_crypto::{Algorithm, Dek};
use shield_env::PosixEnv;
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Options};

const SECRET: &[u8] = b"TOP-SECRET-CUSTOMER-RECORD";

fn populate(db: &Db) {
    let w = WriteOptions::default();
    for i in 0..5_000u32 {
        let mut value = SECRET.to_vec();
        value.extend_from_slice(format!("-{i}").as_bytes());
        db.put(&w, format!("account:{i:06}").as_bytes(), &value).expect("put");
    }
    db.compact_all().expect("settle");
}

/// Scans every file in `dir` for the secret; returns files that leak it.
fn leaky_files(dir: &str) -> Vec<String> {
    let mut leaks = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let entry = entry.expect("entry");
        if !entry.file_type().expect("type").is_file() {
            continue;
        }
        let data = std::fs::read(entry.path()).expect("read file");
        if data.windows(SECRET.len()).any(|w| w == SECRET) {
            leaks.push(entry.file_name().to_string_lossy().to_string());
        }
    }
    leaks
}

fn scratch(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("shield-encdemo-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_str().unwrap().to_string()
}

fn main() {
    // One open for all three designs: only `Options::encryption` differs.
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let designs = [
        // Unencrypted baseline: the attacker reads everything.
        ("plain", "unencrypted RocksDB-style store:", Encryption::Plain),
        // Instance-level EncFS (§4): one DEK, everything ciphertext.
        (
            "encfs",
            "EncFS store:                    ",
            Encryption::EncFs { dek: Dek::generate(Algorithm::Aes128Ctr), wal_buffer_size: 512 },
        ),
        // SHIELD (§5): per-file DEKs + KDS + secure cache.
        (
            "shield",
            "SHIELD store:                   ",
            Encryption::Shield(ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"passkey")),
        ),
    ];
    for (tag, label, encryption) in designs {
        let dir = scratch(tag);
        let plain = matches!(encryption, Encryption::Plain);
        {
            let opts = Options { encryption, ..Options::new(Arc::new(PosixEnv::new())) };
            populate(&Db::open(opts, &dir).expect("open"));
        }
        let leaks = leaky_files(&dir);
        println!("{label} {} leaking file(s): {leaks:?}", leaks.len());
        if plain {
            assert!(!leaks.is_empty(), "plaintext store must leak (that's the point)");
        } else {
            assert!(leaks.is_empty(), "{tag} must not leak plaintext");
        }
    }

    println!("\nOn-disk confidentiality holds for both designs (paper §5.5, scenarios 1–2).");
}
