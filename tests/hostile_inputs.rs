//! Hostile-input fuzzing (PR 6): every parser that consumes persisted
//! bytes — SST footer, block handles, properties, block entries, the WAL
//! reader (legacy and authenticated), the write-batch decoder, the
//! encryption file header, and whole-table open — is driven with
//! arbitrary and mutated inputs. The invariant in every case is the same:
//! clean `Result`s only. No panic, no unbounded allocation, no hang.
//!
//! Two complementary generators:
//!
//! * raw fuzz — fully arbitrary byte strings, exercising the outermost
//!   length/magic checks;
//! * mutation fuzz — a *valid* artifact with attacker-chosen byte edits,
//!   exercising the deep parsing paths that raw bytes rarely reach.

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;
use shield_env::{Env, FileKind, MemEnv};
use shield_lsm::encryption::FileHeader;
use shield_lsm::memtable::MemTable;
use shield_lsm::sst::builder::{TableBuilder, TableBuilderOptions};
use shield_lsm::sst::format::{BlockHandle, Footer, TableProperties};
use shield_lsm::sst::{Block, Table};
use shield_lsm::types::{make_internal_key, ValueType};
use shield_lsm::varint::{get_varint32, get_varint64};
use shield_lsm::wal::{LogReader, LogWriter};
use shield_lsm::WriteBatch;

const MAC_KEY: [u8; 32] = [0x77; 32];

/// Builds a small valid SST (v1 or v2) and returns its raw bytes.
fn valid_table(hmac: bool) -> Vec<u8> {
    let env = MemEnv::new();
    let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
    let opts = TableBuilderOptions {
        block_size: 128,
        mac_key: hmac.then_some(MAC_KEY),
        ..TableBuilderOptions::default()
    };
    let mut b = TableBuilder::new(file, opts);
    for i in 0..40u32 {
        let ikey = make_internal_key(format!("key{i:04}").as_bytes(), 100, ValueType::Value);
        b.add(&ikey, format!("value{i:04}").as_bytes()).unwrap();
    }
    b.finish().unwrap();
    env.raw_content("t.sst").unwrap()
}

/// Builds a valid WAL segment (legacy or authenticated) with `n` records.
fn valid_wal(hmac: bool, n: usize) -> Vec<u8> {
    let env = MemEnv::new();
    let file = env.new_writable_file("w.log", FileKind::Wal).unwrap();
    let mut w = if hmac {
        LogWriter::with_integrity(file, Some(MAC_KEY)).unwrap()
    } else {
        LogWriter::new(file)
    };
    for i in 0..n {
        w.add_record(format!("record payload number {i:04}").as_bytes()).unwrap();
    }
    w.sync().unwrap();
    env.raw_content("w.log").unwrap()
}

/// Feeds `raw` to the log reader; must terminate with a clean Result.
fn drain_log(raw: &[u8], key: Option<[u8; 32]>) {
    let env = MemEnv::new();
    {
        let file = env.new_writable_file("w.log", FileKind::Wal).unwrap();
        drop(file);
    }
    env.set_raw_content("w.log", raw.to_vec()).unwrap();
    let src = env.new_sequential_file("w.log", FileKind::Wal).unwrap();
    let mut reader = LogReader::with_integrity(src, key);
    // Bounded: the reader advances through a finite file; 1M records of
    // slack guards the no-hang claim without masking real progress.
    for _ in 0..1_000_000 {
        match reader.read_record() {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return,
        }
    }
    panic!("log reader failed to terminate");
}

/// Opens `raw` as a table and walks every access path; Results only.
fn drive_table(raw: &[u8]) {
    let env = MemEnv::new();
    {
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        drop(file);
    }
    env.set_raw_content("t.sst", raw.to_vec()).unwrap();
    let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let Ok(table) = Table::open(file, 1, None) else { return };
    let table = Arc::new(table);
    let _ = table.get(b"key0000", u64::MAX);
    let _ = table.get(b"nonexistent", u64::MAX);
    let mut it = table.iter();
    use shield_lsm::iter::InternalIterator;
    it.seek_to_first();
    for _ in 0..1_000_000 {
        if !it.valid() {
            break;
        }
        let _ = it.key();
        let _ = it.value();
        it.next();
    }
    assert!(!it.valid(), "table iterator failed to terminate");
    let _ = it.status();
    // The streaming scanner trusts the same index: same rules.
    let mut scan = table.scan();
    scan.seek_to_first();
    for _ in 0..1_000_000 {
        if !scan.valid() {
            break;
        }
        let _ = (scan.key(), scan.value());
        scan.next();
    }
    assert!(!scan.valid(), "table scanner failed to terminate");
    let _ = scan.status();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn footer_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Footer::decode(&data);
        let _ = Footer::decode_from_tail(&data);
    }

    #[test]
    fn block_handle_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..40)) {
        let _ = BlockHandle::decode_varint(&data);
    }

    #[test]
    fn properties_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = TableProperties::decode(&data);
    }

    #[test]
    fn varints_never_panic(data in proptest::collection::vec(any::<u8>(), 0..20)) {
        let _ = get_varint32(&data);
        let _ = get_varint64(&data);
    }

    #[test]
    fn file_header_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = FileHeader::decode(&data);
    }

    #[test]
    fn write_batch_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(batch) = WriteBatch::from_data(&data) {
            let mem = Arc::new(MemTable::new(0));
            let _ = batch.insert_into(&mem);
        }
    }

    #[test]
    fn block_iteration_never_panics_or_hangs(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        target in proptest::collection::vec(any::<u8>(), 0..20),
    ) {
        let block = Arc::new(Block::from_raw(Bytes::from(data)));
        let mut it = block.iter();
        it.seek(&target);
        it.seek_to_first();
        // A block has finitely many entries; parsing must make progress.
        for _ in 0..1_000_000 {
            if !it.valid() {
                break;
            }
            let _ = it.key();
            let _ = it.value();
            it.next();
        }
        prop_assert!(!it.valid(), "block iterator failed to terminate");
    }

    #[test]
    fn log_reader_survives_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        drain_log(&data, None);
        drain_log(&data, Some(MAC_KEY));
    }

    #[test]
    fn log_reader_survives_mutated_valid_segments(
        hmac in any::<bool>(),
        pos in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let mut raw = valid_wal(hmac, 40);
        let at = pos % raw.len();
        raw[at] ^= xor;
        drain_log(&raw, Some(MAC_KEY));
    }

    #[test]
    fn table_open_survives_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        drive_table(&data);
    }

    #[test]
    fn table_open_survives_mutated_valid_tables(
        hmac in any::<bool>(),
        pos in 0usize..8192,
        xor in 1u8..=255,
    ) {
        let mut raw = valid_table(hmac);
        let at = pos % raw.len();
        raw[at] ^= xor;
        drive_table(&raw);
    }

    #[test]
    fn table_open_survives_truncation(hmac in any::<bool>(), keep in 0usize..4096) {
        let raw = valid_table(hmac);
        let keep = keep % (raw.len() + 1);
        drive_table(&raw[..keep]);
    }
}
