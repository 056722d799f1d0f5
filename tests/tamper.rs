//! Adversarial tamper matrix (PR 6): an attacker with raw media access
//! mutates persisted artifacts — SSTs and WAL segments — under every
//! deployment mode (plain / EncFS / SHIELD) and both integrity modes
//! (CRC-only v1 and authenticated HMAC v2).
//!
//! The claims under test:
//!
//! * Under `Integrity::Hmac`, every mutation that alters what the engine
//!   reads back surfaces as `Error::IntegrityViolation` — never as silent
//!   wrong data, and classified apart from `Corruption` (random media rot).
//! * Under CRC-only mode the same suite documents the gaps: CRC-repatch
//!   forgeries, whole-block swaps, cross-file splices, and WAL record
//!   replay all pass CRC verification and go undetected.
//! * Truncation is detected in every mode (as an open/read error — a torn
//!   file is indistinguishable from a crash, so it is not required to be
//!   an IntegrityViolation).
//! * Whole-directory rollback to an earlier consistent state is the
//!   documented out-of-scope attack (needs an external freshness root);
//!   the negative control proves the suite itself is honest about it.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use shield::{open_plain, open_shield, Encryption, ShieldOptions};
use shield_crypto::{crc32c, crc32c_extend, crc32c_masked, Algorithm, Dek};
use shield_env::{Env, FileKind, MemEnv, PosixEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::sst::format::{BlockHandle, Footer, COMPRESSION_NONE};
use shield_lsm::sst::Block;
use shield_lsm::{
    Db, Error, Event, EventListener, Integrity, Options, ReadOptions, WriteOptions,
};

const ENGINE_KEY: [u8; 32] = [0x42; 32];
const N: u32 = 2000;

fn opts(env: &MemEnv, mode: Integrity) -> Options {
    opts_over(Arc::new(env.clone()), mode)
}

fn opts_over(env: Arc<dyn Env>, mode: Integrity) -> Options {
    let mut o = Options::new(env)
        .with_write_buffer_size(1 << 20)
        .with_integrity(mode)
        .with_integrity_key(ENGINE_KEY);
    // Keep reopened instances quiet so tampering is observed by the read
    // path under test, not racing background compactions; the 1 MiB write
    // buffer keeps each fill in a single SST with many equal-size blocks.
    o.compaction.l0_compaction_trigger = 100;
    // Fixed-width keys/values with no prefix sharing give byte-identical
    // block sizes — the swap/splice mutations need size-preserving
    // replacements.
    o.table.restart_interval = 1;
    o
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

/// Fixed-width values so every data block has the same byte size — the
/// block-swap and cross-file-splice mutations need size-preserving
/// replacements.
fn value(prefix: &str, i: u32) -> Vec<u8> {
    format!("{prefix}{i:05}").into_bytes()
}

fn fill(db: &Db, prefix: &str, n: u32) {
    let w = WriteOptions::default();
    for i in 0..n {
        db.put(&w, &key(i), &value(prefix, i)).unwrap();
    }
    db.compact_all().unwrap();
}

fn sst_paths(env: &MemEnv, dir: &str) -> Vec<String> {
    let mut v: Vec<String> = env
        .list_dir(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .map(|n| format!("{dir}/{n}"))
        .collect();
    v.sort();
    v
}

/// First error observed while point-reading every key, if any.
fn first_get_error(db: &Db, n: u32) -> Option<Error> {
    let r = ReadOptions::new();
    (0..n).find_map(|i| db.get(&r, &key(i)).err())
}

fn is_iv(e: &Error) -> bool {
    matches!(e, Error::IntegrityViolation(_))
}

/// Parses a (plaintext) SST: footer plus the data-block handles listed in
/// the index, in file order.
fn data_handles(raw: &[u8]) -> (Footer, Vec<BlockHandle>) {
    let footer = Footer::decode_from_tail(raw).unwrap();
    let idx = footer.index;
    let body = &raw[idx.offset as usize..(idx.offset + idx.size) as usize];
    let block = Arc::new(Block::from_raw(Bytes::copy_from_slice(body)));
    let mut handles = Vec::new();
    let mut it = block.iter();
    it.seek_to_first();
    while it.valid() {
        handles.push(BlockHandle::decode_varint(it.value()).unwrap());
        it.next();
    }
    (footer, handles)
}

/// Recomputes and re-patches a block's trailer CRC after a payload edit —
/// the "smart" attacker who knows the checksum algorithm. Leaves any HMAC
/// tag alone (the attacker has no key).
fn repatch_crc(raw: &mut [u8], h: BlockHandle) {
    let contents = &raw[h.offset as usize..(h.offset + h.size) as usize];
    let crc = crc32c_masked(crc32c_extend(crc32c(contents), &[COMPRESSION_NONE]));
    let at = (h.offset + h.size) as usize + 1;
    raw[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Captures `IntegrityViolation` events fanned out by the engine.
#[derive(Default)]
struct Capture(Mutex<Vec<(u64, u64)>>);

impl EventListener for Capture {
    fn on_event(&self, event: &Event) {
        if let Event::IntegrityViolation { file, offset } = event {
            self.0.lock().unwrap().push((*file, *offset));
        }
    }
}

// ---------------------------------------------------------------------
// Plain mode: the attacker reads and writes plaintext structure at will.
// ---------------------------------------------------------------------

/// Baseline: a dumb bit-flip under CRC-only mode is *detected* — but as
/// Corruption, indistinguishable from media rot.
#[test]
fn plain_crc_bitflip_reads_back_as_corruption() {
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Crc), "db").unwrap();
        fill(&db, "good", N);
    }
    let path = sst_paths(&env, "db").remove(0);
    let mut raw = env.raw_content(&path).unwrap();
    let (_, handles) = data_handles(&raw);
    raw[handles[0].offset as usize + 4] ^= 0x01;
    env.set_raw_content(&path, raw).unwrap();

    let db = open_plain(opts(&env, Integrity::Crc), "db").unwrap();
    let e = first_get_error(&db, N).expect("flip must not read back clean");
    assert!(matches!(e, Error::Corruption(_)), "CRC mode classifies flips as corruption: {e}");
}

/// The same flip under HMAC mode is an IntegrityViolation, bumps the
/// failure ticker, and emits the event with file/offset coordinates.
#[test]
fn plain_hmac_bitflip_is_integrity_violation_with_ticker_and_event() {
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
        fill(&db, "good", N);
    }
    let path = sst_paths(&env, "db").remove(0);
    let mut raw = env.raw_content(&path).unwrap();
    let (footer, handles) = data_handles(&raw);
    assert_eq!(footer.version, 2, "Hmac mode must write v2 tables");
    raw[handles[0].offset as usize + 4] ^= 0x01;
    env.set_raw_content(&path, raw).unwrap();

    let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
    let cap = Arc::new(Capture::default());
    db.events().add(cap.clone());
    let e = first_get_error(&db, N).expect("flip must not read back clean");
    assert!(is_iv(&e), "expected IntegrityViolation, got: {e}");
    let snap = db.statistics().snapshot();
    assert!(snap.integrity_checks > 0, "verification must have run");
    assert!(snap.integrity_failures >= 1, "failure ticker must bump");
    let seen = cap.0.lock().unwrap();
    assert!(!seen.is_empty(), "IntegrityViolation event must fire");
    assert_eq!(seen[0].1, handles[0].offset, "event carries the block offset");
}

/// The CRC-repatch forgery: alter a value, recompute the block CRC. Under
/// CRC-only mode the altered value reads back *silently* — the documented
/// vulnerability this PR closes.
#[test]
fn plain_crc_repatch_forgery_reads_back_silently() {
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Crc), "db").unwrap();
        fill(&db, "good", N);
    }
    let path = sst_paths(&env, "db").remove(0);
    let mut raw = env.raw_content(&path).unwrap();
    let (_, handles) = data_handles(&raw);
    let target = value("good", 0);
    let pos = raw
        .windows(target.len())
        .position(|w| w == target.as_slice())
        .expect("plaintext value visible in plain mode");
    let h = *handles
        .iter()
        .find(|h| (h.offset as usize) <= pos && pos < (h.offset + h.size) as usize)
        .expect("value lives in a data block");
    raw[pos..pos + 4].copy_from_slice(b"evil");
    repatch_crc(&mut raw, h);
    env.set_raw_content(&path, raw).unwrap();

    let db = open_plain(opts(&env, Integrity::Crc), "db").unwrap();
    let got = db.get(&ReadOptions::new(), &key(0)).unwrap();
    assert_eq!(got, Some(value("evil", 0)), "CRC mode accepts the forged value silently");
}

/// The same forgery under HMAC mode: the CRC passes but the tag does not.
#[test]
fn plain_hmac_detects_crc_repatch_forgery() {
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
        fill(&db, "good", N);
    }
    let path = sst_paths(&env, "db").remove(0);
    let mut raw = env.raw_content(&path).unwrap();
    let (_, handles) = data_handles(&raw);
    let target = value("good", 0);
    let pos = raw.windows(target.len()).position(|w| w == target.as_slice()).unwrap();
    let h = *handles
        .iter()
        .find(|h| (h.offset as usize) <= pos && pos < (h.offset + h.size) as usize)
        .unwrap();
    raw[pos..pos + 4].copy_from_slice(b"evil");
    repatch_crc(&mut raw, h);
    env.set_raw_content(&path, raw).unwrap();

    let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
    let e = db.get(&ReadOptions::new(), &key(0)).unwrap_err();
    assert!(is_iv(&e), "repatched CRC must still fail the MAC: {e}");
}

/// Swapping two whole blocks (payload + trailer) keeps every CRC valid.
/// CRC-only mode serves misplaced data with no error at all; HMAC binds
/// each tag to its block offset and rejects the swap.
#[test]
fn block_swap_silent_under_crc_detected_under_hmac() {
    for mode in [Integrity::Crc, Integrity::Hmac] {
        let env = MemEnv::new();
        {
            let db = open_plain(opts(&env, mode), "db").unwrap();
            fill(&db, "good", N);
        }
        let path = sst_paths(&env, "db").remove(0);
        let mut raw = env.raw_content(&path).unwrap();
        let (footer, handles) = data_handles(&raw);
        let tlen = footer.block_trailer_len();
        // Fixed-width entries make equal-size data blocks the common case.
        let (a, b) = handles
            .iter()
            .enumerate()
            .flat_map(|(i, x)| handles.iter().skip(i + 1).map(move |y| (*x, *y)))
            .find(|(x, y)| x.size == y.size)
            .expect("uniform fill should yield equal-size blocks");
        let span = a.size as usize + tlen;
        let block_a = raw[a.offset as usize..a.offset as usize + span].to_vec();
        let block_b = raw[b.offset as usize..b.offset as usize + span].to_vec();
        raw[a.offset as usize..a.offset as usize + span].copy_from_slice(&block_b);
        raw[b.offset as usize..b.offset as usize + span].copy_from_slice(&block_a);
        env.set_raw_content(&path, raw).unwrap();

        let db = open_plain(opts(&env, mode), "db").unwrap();
        let r = ReadOptions::new();
        match mode {
            Integrity::Crc => {
                // Every CRC passes; keys that lived in the swapped blocks
                // silently vanish (binary search lands in the wrong data).
                let mut missing = 0u32;
                for i in 0..N {
                    match db.get(&r, &key(i)) {
                        Ok(Some(_)) => {}
                        Ok(None) => missing += 1,
                        Err(e) => panic!("CRC mode must not error on a block swap: {e}"),
                    }
                }
                assert!(missing > 0, "swap must have silently lost keys");
            }
            Integrity::Hmac => {
                let e = first_get_error(&db, N).expect("swap must be rejected");
                assert!(is_iv(&e), "offset binding must reject the swap: {e}");
            }
        }
    }
}

/// Splicing a block from a *different* file (same offset, same size, valid
/// CRC) feeds attacker-chosen values through CRC-only mode; the per-file
/// MAC context rejects it under HMAC even though the donor file was
/// written by the same engine with the same key.
#[test]
fn cross_file_splice_silent_under_crc_detected_under_hmac() {
    for mode in [Integrity::Crc, Integrity::Hmac] {
        let env = MemEnv::new();
        {
            let db = open_plain(opts(&env, mode), "db1").unwrap();
            fill(&db, "good", N);
        }
        {
            let db = open_plain(opts(&env, mode), "db2").unwrap();
            fill(&db, "evil", N);
        }
        let victim = sst_paths(&env, "db1").remove(0);
        let donor = sst_paths(&env, "db2").remove(0);
        let mut raw = env.raw_content(&victim).unwrap();
        let donor_raw = env.raw_content(&donor).unwrap();
        let (footer, handles) = data_handles(&raw);
        let (_, donor_handles) = data_handles(&donor_raw);
        let (h, dh) = (handles[0], donor_handles[0]);
        assert_eq!(h.size, dh.size, "identical fills produce identical layouts");
        let span = h.size as usize + footer.block_trailer_len();
        raw[h.offset as usize..h.offset as usize + span]
            .copy_from_slice(&donor_raw[dh.offset as usize..dh.offset as usize + span]);
        env.set_raw_content(&victim, raw).unwrap();

        let db = open_plain(opts(&env, mode), "db1").unwrap();
        let r = ReadOptions::new();
        match mode {
            Integrity::Crc => {
                let got = db.get(&r, &key(0)).unwrap();
                assert_eq!(
                    got,
                    Some(value("evil", 0)),
                    "CRC mode serves the spliced foreign value silently"
                );
            }
            Integrity::Hmac => {
                let e = db.get(&r, &key(0)).unwrap_err();
                assert!(is_iv(&e), "context binding must reject the splice: {e}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// WAL: forgery and replay against the recovery path.
// ---------------------------------------------------------------------

/// Byte span and payload location of each WAL record in block 0.
fn wal_records(raw: &[u8], hmac: bool) -> Vec<(usize, usize, u8)> {
    let header = if hmac { 23 } else { 7 };
    let mut pos = if hmac { 32 } else { 0 };
    let mut out = Vec::new();
    while pos + header <= raw.len() {
        let len = u16::from_le_bytes([raw[pos + 4], raw[pos + 5]]) as usize;
        let ty = raw[pos + 6];
        if ty == 0 && len == 0 {
            break; // zero padding / end of written records
        }
        if pos + header + len > raw.len() {
            break;
        }
        out.push((pos, len, ty));
        pos += header + len;
    }
    out
}

fn wal_path(env: &MemEnv, dir: &str) -> String {
    let mut logs: Vec<String> = env
        .list_dir(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".log"))
        .collect();
    logs.sort();
    format!("{dir}/{}", logs.pop().expect("a live WAL"))
}

/// Forge an unflushed write in the WAL and repatch the record CRC. CRC
/// mode replays the forged value as if the user wrote it; HMAC mode
/// refuses to open the database.
#[test]
fn wal_crc_repatch_forgery_replays_under_crc_rejected_under_hmac() {
    for mode in [Integrity::Crc, Integrity::Hmac] {
        let env = MemEnv::new();
        {
            let db = open_plain(opts(&env, mode), "db").unwrap();
            let w = WriteOptions::default();
            for i in 0..50 {
                db.put(&w, &key(i), &value("good", i)).unwrap();
            }
            db.simulate_process_crash();
        }
        let path = wal_path(&env, "db");
        let mut raw = env.raw_content(&path).unwrap();
        let hmac = mode == Integrity::Hmac;
        let header = if hmac { 23 } else { 7 };
        let target = value("good", 7);
        let pos = raw
            .windows(target.len())
            .position(|w| w == target.as_slice())
            .expect("WAL carries the plaintext value in plain mode");
        raw[pos..pos + 4].copy_from_slice(b"evil");
        let (start, len, ty) = *wal_records(&raw, hmac)
            .iter()
            .find(|(s, l, _)| *s <= pos && pos < s + header + l)
            .expect("value lives inside a record");
        let crc = crc32c_masked(crc32c_extend(
            crc32c(&[ty]),
            &raw[start + header..start + header + len],
        ));
        raw[start..start + 4].copy_from_slice(&crc.to_le_bytes());
        env.set_raw_content(&path, raw).unwrap();

        match mode {
            Integrity::Crc => {
                let db = open_plain(opts(&env, mode), "db").unwrap();
                let got = db.get(&ReadOptions::new(), &key(7)).unwrap();
                assert_eq!(
                    got,
                    Some(value("evil", 7)),
                    "CRC mode replays the forged WAL record silently"
                );
            }
            Integrity::Hmac => {
                let e = open_plain(opts(&env, mode), "db").err().expect("open must fail");
                assert!(is_iv(&e), "recovery must reject the forged record: {e}");
            }
        }
    }
}

/// Replay attack: duplicate an earlier record verbatim at the tail of the
/// WAL. Its CRC (and even its tag) are genuine, so CRC mode accepts the
/// replay; the HMAC fragment counter binds each record to its position
/// and rejects it.
#[test]
fn wal_record_replay_accepted_under_crc_rejected_under_hmac() {
    for mode in [Integrity::Crc, Integrity::Hmac] {
        let env = MemEnv::new();
        {
            let db = open_plain(opts(&env, mode), "db").unwrap();
            let w = WriteOptions::default();
            for i in 0..50 {
                db.put(&w, &key(i), &value("good", i)).unwrap();
            }
            db.simulate_process_crash();
        }
        let path = wal_path(&env, "db");
        let mut raw = env.raw_content(&path).unwrap();
        let hmac = mode == Integrity::Hmac;
        let header = if hmac { 23 } else { 7 };
        let (start, len, _) = wal_records(&raw, hmac)[0];
        let dup = raw[start..start + header + len].to_vec();
        raw.extend_from_slice(&dup);
        env.set_raw_content(&path, raw).unwrap();

        match mode {
            Integrity::Crc => {
                let db = open_plain(opts(&env, mode), "db").unwrap();
                assert!(
                    db.get(&ReadOptions::new(), &key(0)).unwrap().is_some(),
                    "CRC mode accepted the replayed record and recovered"
                );
            }
            Integrity::Hmac => {
                let e = open_plain(opts(&env, mode), "db").err().expect("open must fail");
                assert!(is_iv(&e), "counter binding must reject the replay: {e}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Encrypted modes: the attacker cannot parse structure, but CTR is
// malleable — a ciphertext flip is a plaintext flip at the same offset.
// ---------------------------------------------------------------------

/// EncFS: flip one ciphertext byte in the SST body. The decrypted
/// plaintext flips at the same position; HMAC (over plaintext) catches it
/// as a violation, CRC as mere corruption.
#[test]
fn encfs_ciphertext_bitflip_detected() {
    for (mode, want_iv) in [(Integrity::Crc, false), (Integrity::Hmac, true)] {
        let env = MemEnv::new();
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        let encfs = || Options {
            encryption: Encryption::EncFs { dek: dek.clone(), wal_buffer_size: 512 },
            ..opts(&env, mode)
        };
        {
            let db = Db::open(encfs(), "db").unwrap();
            fill(&db, "good", N);
        }
        let path = sst_paths(&env, "db").remove(0);
        let mut raw = env.raw_content(&path).unwrap();
        assert_eq!(&raw[..8], b"SHLDENCF", "EncFS files carry the encryption header");
        assert!(!raw.windows(4).any(|w| w == b"good"), "ciphertext must not leak plaintext");
        // Plaintext offset 8 = ciphertext offset 64 + 8: inside data block 0.
        raw[64 + 8] ^= 0x01;
        env.set_raw_content(&path, raw).unwrap();

        let db = Db::open(encfs(), "db").unwrap();
        let e = first_get_error(&db, N).expect("flip must not read back clean");
        if want_iv {
            assert!(is_iv(&e), "encfs+hmac must classify the flip as a violation: {e}");
        } else {
            assert!(matches!(e, Error::Corruption(_)), "encfs+crc sees corruption: {e}");
        }
    }
}

/// SHIELD: same CTR-malleability attack against per-file-DEK encryption;
/// the MAC subkey is derived from the file DEK, so verification works
/// without any extra key distribution.
#[test]
fn shield_ciphertext_bitflip_detected() {
    for (mode, want_iv) in [(Integrity::Crc, false), (Integrity::Hmac, true)] {
        let env = MemEnv::new();
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let sopts = ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk");
        {
            let db = open_shield(opts(&env, mode), "db", sopts.clone()).unwrap();
            fill(&db, "good", N);
        }
        let path = sst_paths(&env, "db").remove(0);
        let mut raw = env.raw_content(&path).unwrap();
        assert_eq!(&raw[..8], b"SHLDENCF", "SHIELD SSTs carry the encryption header");
        raw[64 + 8] ^= 0x01;
        env.set_raw_content(&path, raw).unwrap();

        let db = open_shield(opts(&env, mode), "db", sopts).unwrap();
        let e = first_get_error(&db, N).expect("flip must not read back clean");
        if want_iv {
            assert!(is_iv(&e), "shield+hmac must classify the flip as a violation: {e}");
        } else {
            assert!(matches!(e, Error::Corruption(_)), "shield+crc sees corruption: {e}");
        }
    }
}

/// SHIELD + HMAC over `PosixEnv`, which reads tables through a read-only
/// shared mapping: a byte flipped in place on disk after the table is
/// open — so the mapped page itself changes — is refused at the next cold
/// read. The block is verified on the private copy the read made, so the
/// mapping lets nothing through unverified.
#[test]
fn shield_hmac_flip_under_a_live_mapping_is_detected() {
    use std::os::unix::fs::FileExt;
    let dir = std::env::temp_dir().join(format!("shield-tamper-mapped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().unwrap().to_string();
    let env: Arc<dyn Env> = Arc::new(PosixEnv::new());
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let sopts = ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"pk");
    {
        let db = open_shield(opts_over(env.clone(), Integrity::Hmac), &dir, sopts.clone()).unwrap();
        fill(&db, "good", N);
    }
    let db = open_shield(opts_over(env.clone(), Integrity::Hmac), &dir, sopts).unwrap();
    let cold = ReadOptions { fill_cache: false, ..ReadOptions::new() };
    // Opens, and so maps, the one table; reads only its last data block.
    assert_eq!(db.get(&cold, &key(N - 1)).unwrap(), Some(value("good", N - 1)));
    let ssts: Vec<String> =
        env.list_dir(&dir).unwrap().into_iter().filter(|n| n.ends_with(".sst")).collect();
    assert_eq!(ssts.len(), 1, "one table: {ssts:?}");
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(format!("{dir}/{}", ssts[0]))
        .unwrap();
    // Byte 8 of the first data block (after the 64-byte header): key(0)'s.
    let mut byte = [0u8; 1];
    file.read_exact_at(&mut byte, 64 + 8).unwrap();
    file.write_all_at(&[byte[0] ^ 0x01], 64 + 8).unwrap();
    file.sync_all().unwrap();

    let e = db.get(&cold, &key(0)).expect_err("a flipped block must not read back");
    assert!(is_iv(&e), "shield+hmac over a mapping must classify the flip as a violation: {e}");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flips byte `at` of the first data block's trailer (0: compression, 1–4:
/// CRC, 5–20: HMAC tag) in the one table of a store in `mode`, plain or
/// SHIELD, and reopens it. A SHIELD table's body lays out exactly like
/// the plain table of the same fill, and CTR flips the plaintext bit under
/// the ciphertext bit, so the plain layout names the byte in both.
fn flip_first_trailer_byte(shield: bool, mode: Integrity, at: u64) -> Db {
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let sopts = ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"pk");
    let layout = MemEnv::new();
    {
        let db = open_plain(opts(&layout, mode), "db").unwrap();
        fill(&db, "good", N);
    }
    let (_, handles) = data_handles(&layout.raw_content(&sst_paths(&layout, "db")[0]).unwrap());
    let open = |env: &MemEnv| {
        if shield {
            open_shield(opts(env, mode), "db", sopts.clone()).unwrap().db
        } else {
            open_plain(opts(env, mode), "db").unwrap()
        }
    };
    fill(&open(&env), "good", N);
    let path = sst_paths(&env, "db").remove(0);
    let mut raw = env.raw_content(&path).unwrap();
    let header = if shield { 64 } else { 0 };
    raw[(header + handles[0].offset + handles[0].size + at) as usize] ^= 0x01;
    env.set_raw_content(&path, raw).unwrap();
    open(&env)
}

/// Under `Hmac` the tag covers the block, and the read path checks it
/// instead of the CRC: an authentic block whose stored CRC was flipped
/// still reads back, and nothing is counted as a failure.
#[test]
fn hmac_reads_an_authentic_block_whose_crc_was_flipped() {
    for shield in [false, true] {
        let db = flip_first_trailer_byte(shield, Integrity::Hmac, 2);
        let r = ReadOptions::new();
        for i in 0..N {
            assert_eq!(db.get(&r, &key(i)).unwrap(), Some(value("good", i)), "shield {shield}");
        }
        let snap = db.statistics().snapshot();
        assert!(snap.integrity_checks > 0, "shield {shield}: verification must have run");
        assert_eq!(snap.integrity_failures, 0, "shield {shield}");
    }
}

/// The compression byte is part of the tag's message: flipped, the block
/// is refused as a violation, not read as a block of another kind.
#[test]
fn hmac_flipped_compression_byte_is_integrity_violation() {
    for shield in [false, true] {
        let db = flip_first_trailer_byte(shield, Integrity::Hmac, 0);
        let e = first_get_error(&db, N).expect("flip must not read back clean");
        assert!(is_iv(&e), "shield {shield}: expected IntegrityViolation, got: {e}");
    }
}

/// Without a MAC the CRC is the only check, and a flipped CRC is
/// corruption.
#[test]
fn crc_flipped_crc_byte_is_corruption() {
    for shield in [false, true] {
        let db = flip_first_trailer_byte(shield, Integrity::Crc, 2);
        let e = first_get_error(&db, N).expect("flip must not read back clean");
        assert!(matches!(e, Error::Corruption(_)), "shield {shield}: expected Corruption: {e}");
    }
}

/// Truncation fails loudly in every mode (any error class is acceptable:
/// a truncated file is indistinguishable from a torn write).
#[test]
fn truncated_sst_errors_in_every_mode() {
    // plain
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
        fill(&db, "good", N);
    }
    let path = sst_paths(&env, "db").remove(0);
    let raw = env.raw_content(&path).unwrap();
    env.set_raw_content(&path, raw[..raw.len() / 2].to_vec()).unwrap();
    let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
    assert!(first_get_error(&db, N).is_some(), "plain: truncation must error");
    drop(db);

    // shield
    let env = MemEnv::new();
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    let sopts = ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk");
    {
        let db = open_shield(opts(&env, Integrity::Hmac), "db", sopts.clone()).unwrap();
        fill(&db, "good", N);
    }
    let path = sst_paths(&env, "db").remove(0);
    let raw = env.raw_content(&path).unwrap();
    env.set_raw_content(&path, raw[..raw.len() / 2].to_vec()).unwrap();
    let db = open_shield(opts(&env, Integrity::Hmac), "db", sopts).unwrap();
    assert!(first_get_error(&db, N).is_some(), "shield: truncation must error");
}

// ---------------------------------------------------------------------
// Format migration and the documented limitation.
// ---------------------------------------------------------------------

/// v1 files written under CRC mode stay readable after switching the
/// engine to HMAC mode; each unverifiable file bumps the
/// `integrity_unprotected_files` gauge instead of erroring.
#[test]
fn legacy_v1_files_readable_under_hmac_and_counted_unprotected() {
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Crc), "db").unwrap();
        fill(&db, "good", N);
    }
    let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
    assert!(first_get_error(&db, N).is_none(), "v1 files must stay readable");
    let snap = db.statistics().snapshot();
    assert!(
        snap.integrity_unprotected_files > 0,
        "unverified legacy files must be visible in the gauge"
    );
}

/// Negative control: rolling the whole directory back to an earlier
/// consistent snapshot is NOT detected — per-file MACs cannot prove
/// freshness. Documented out of scope (needs an external trusted root,
/// e.g. the KDS storing a directory digest).
#[test]
fn whole_directory_rollback_is_undetected_by_design() {
    let env = MemEnv::new();
    {
        let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
        fill(&db, "good", 300);
    }
    // Snapshot T1: every file's raw bytes.
    let t1: Vec<(String, Vec<u8>)> = env
        .list_dir("db")
        .unwrap()
        .into_iter()
        .map(|n| {
            let p = format!("db/{n}");
            let raw = env.raw_content(&p).unwrap();
            (p, raw)
        })
        .collect();
    // T2: overwrite everything and add new keys.
    {
        let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
        let w = WriteOptions::default();
        for i in 0..600 {
            db.put(&w, &key(i), &value("newer", i)).unwrap();
        }
        db.compact_all().unwrap();
    }
    // Roll back: delete files created after T1, restore T1 contents.
    let t1_names: Vec<&str> = t1.iter().map(|(p, _)| p.as_str()).collect();
    for n in env.list_dir("db").unwrap() {
        let p = format!("db/{n}");
        if !t1_names.contains(&p.as_str()) {
            env.remove_file(&p).unwrap();
        }
    }
    for (p, raw) in t1 {
        if env.raw_content(&p).is_err() {
            drop(env.new_writable_file(&p, FileKind::Other).unwrap());
        }
        env.set_raw_content(&p, raw).unwrap();
    }

    let db = open_plain(opts(&env, Integrity::Hmac), "db").unwrap();
    let r = ReadOptions::new();
    assert_eq!(
        db.get(&r, &key(0)).unwrap(),
        Some(value("good", 0)),
        "rollback serves stale-but-authentic data"
    );
    assert_eq!(db.get(&r, &key(500)).unwrap(), None, "post-snapshot writes are gone");
    assert!(db.background_error().is_none(), "and nothing flags it — the documented gap");
}

