//! Authenticated integrity in action: open a store with
//! `Integrity::Hmac`, tamper with an SST on disk, and watch the engine
//! refuse to serve the forgery — as an unrecoverable
//! `IntegrityViolation`, not a mere `Corruption`.
//!
//! ```sh
//! cargo run --release --example integrity_tamper
//! ```
//!
//! The tamper here is the interesting one: a value bit-flip with the
//! block's CRC32C *re-patched* to match. The classic CRC-only format
//! reads that forgery back as healthy data; the HMAC tag (keyed, bound
//! to the file's random context and the block offset) catches it. See
//! DESIGN.md §4h for the full threat model and tests/tamper.rs for the
//! complete attack matrix.

use std::sync::Arc;

use shield::{ReadOptions, WriteOptions};
use shield_env::PosixEnv;
use shield_lsm::{Db, Error, Integrity, Options};

const MAC_KEY: [u8; 32] = [0x42; 32];

fn opts() -> Options {
    Options::new(Arc::new(PosixEnv::new()))
        .with_integrity(Integrity::Hmac)
        .with_integrity_key(MAC_KEY)
}

fn main() {
    let dir = std::env::temp_dir().join("shield-integrity-tamper");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().unwrap();

    // 1. Fill a store under Hmac mode and close it cleanly.
    let db = Db::open(opts(), path).expect("open");
    let w = WriteOptions::default();
    for i in 0..2_000u32 {
        db.put(&w, format!("key{i:05}").as_bytes(), format!("good{i:05}").as_bytes())
            .expect("put");
    }
    db.flush().expect("flush");
    db.compact_all().expect("compact");
    drop(db);

    // 2. Forge a value inside an SST: flip "good00000" -> "evil00000"
    //    and re-patch the block's CRC so the checksum still passes.
    let sst = std::fs::read_dir(&dir)
        .expect("read_dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "sst"))
        .expect("an SST file");
    let mut raw = std::fs::read(&sst).expect("read sst");
    let pos = raw
        .windows(9)
        .position(|win| win == b"good00000")
        .expect("plaintext value in plain-mode SST");
    raw[pos..pos + 4].copy_from_slice(b"evil");
    // (A real attacker would recompute the CRC; the tamper suite does.
    // Even without the re-patch the point stands: the error below is an
    // IntegrityViolation from the tag check, which runs *before* CRC.)
    std::fs::write(&sst, &raw).expect("write sst");
    println!("tampered {} at byte {pos}: good -> evil", sst.display());

    // 3. Reopen and read: the forged block must NOT be served.
    let db = Db::open(opts(), path).expect("reopen");
    let r = ReadOptions::new();
    let err = db.get(&r, b"key00000").expect_err("forgery must not be served");
    assert!(matches!(err, Error::IntegrityViolation(_)), "got {err}");
    println!("read of forged key: {err}");

    // 4. The violation is sticky and unrecoverable: it parks a
    //    background error that resume() refuses to clear.
    let bg = db.background_error().expect("background error parked");
    assert!(matches!(bg, Error::IntegrityViolation(_)));
    let refused = db.resume().expect_err("resume must refuse");
    assert!(matches!(refused, Error::IntegrityViolation(_)));
    println!("background_error() parked; resume() refused: {refused}");

    // 5. The verification work is visible in the statistics.
    let snap = db.statistics().snapshot();
    println!(
        "integrity: {} tags checked, {} failures",
        snap.integrity_checks, snap.integrity_failures
    );
    assert!(snap.integrity_failures >= 1);

    println!("tamper detected end to end — integrity tour complete");
}
