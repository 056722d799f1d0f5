//! On-disk byte identity of the integrity format across kernels.
//!
//! The hardware SHA-256 / CRC32C kernels and the keyed-once `HmacKey`
//! changed how tags and checksums are *computed*, not what they *are*.
//! Two kinds of evidence:
//!
//! - **golden bytes**: tags, a derived subkey, WAL record headers, a block
//!   CRC and a PBKDF2 output on fixed inputs, printed by the commit before
//!   the kernels landed (scalar SHA-256, byte-table CRC32C, pads derived
//!   per call over a concatenated message);
//! - **cross-path round trips**: files written by the engine verify under
//!   that older construction re-stated here over `shield_crypto::reference`
//!   only, and files forged with the older construction are accepted by
//!   the engine's readers.

use std::sync::Arc;

use bytes::Bytes;
use shield_crypto::{crc32c, crc32c_masked, pbkdf2_hmac_sha256, reference};
use shield_env::{Env, FileKind, MemEnv};
use shield_lsm::integrity::{
    block_tag, derive_mac_subkey, record_tag, ReadIntegrity, BLOCK_TAG_LEN, CONTEXT_LEN,
};
use shield_lsm::iter::InternalIterator;
use shield_lsm::sst::builder::TableBuilderOptions;
use shield_lsm::sst::format::{BLOCK_TRAILER_LEN, FOOTER_V2_LEN, HMAC_BLOCK_TRAILER_LEN};
use shield_lsm::sst::{Block, BlockFetcher, BlockHandle, Footer, Table, TableBuilder};
use shield_lsm::types::{make_internal_key, ValueType};
use shield_lsm::wal::{LogReader, LogWriter, HMAC_LOG_MAGIC, LOG_PREAMBLE_LEN};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn key() -> [u8; 32] {
    core::array::from_fn(|i| (i as u8).wrapping_mul(7).wrapping_add(3))
}

fn context() -> [u8; CONTEXT_LEN] {
    core::array::from_fn(|i| 0xa0 ^ (i as u8))
}

fn pattern(len: u32) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect()
}

/// A block or record tag as the engine computed it before `HmacKey`: one
/// concatenated `context ‖ position ‖ kind ‖ bytes` message.
fn scalar_tag(
    context: &[u8; CONTEXT_LEN],
    position: u64,
    kind: u8,
    bytes: &[u8],
) -> [u8; BLOCK_TAG_LEN] {
    let mut message = context.to_vec();
    message.extend_from_slice(&position.to_le_bytes());
    message.push(kind);
    message.extend_from_slice(bytes);
    reference::hmac_sha256(&key(), &message)[..BLOCK_TAG_LEN].try_into().unwrap()
}

/// A masked block-trailer CRC over `contents ‖ compression`, byte table.
fn scalar_block_crc(contents: &[u8], compression: u8) -> [u8; 4] {
    let mut check = contents.to_vec();
    check.push(compression);
    crc32c_masked(reference::crc32c_extend(0, &check)).to_le_bytes()
}

/// A masked record-header CRC as the engine computed it before
/// `crc32c_extend` over slices: one `type ‖ fragment` buffer, byte table.
fn scalar_record_crc(record_type: u8, fragment: &[u8]) -> [u8; 4] {
    let mut check = vec![record_type];
    check.extend_from_slice(fragment);
    crc32c_masked(reference::crc32c_extend(0, &check)).to_le_bytes()
}

#[test]
fn tags_and_checksums_match_bytes_pinned_before_the_kernels() {
    let block = pattern(4096);
    let (key, ctx) = (key(), context());
    let tags = [
        (block_tag(&key, &ctx, 0x1234_5678_9abc, 0, &block), "77b7df0919a536a39eb1cc4e7d9a5a27"),
        (block_tag(&key, &ctx, 0, 0, b""), "59e5330a6162c2563e819e5b0851905c"),
        (block_tag(&key, &ctx, 7, 1, &block[..39]), "f4b8a1cca6ccd91eec77b231cfd430ab"),
        (record_tag(&key, &ctx, 41, 1, &block[..150]), "b73817f7a8de2d2ac56c82f72894ca97"),
        (record_tag(&key, &ctx, u64::MAX, 2, &pattern(32_745)), "788bfe2829d9ae61929b446926d7ceab"),
    ];
    for (tag, pinned) in tags {
        assert_eq!(hex(&tag), pinned);
    }
    assert_eq!(
        hex(&derive_mac_subkey(&key[..16])),
        "166d510f5e5d9226791d9e3693494c448ece6e23d3e7a6327a87cf028d5eed46"
    );
    assert_eq!(crc32c(&block), 0x4ad8_1553);
    assert_eq!(
        hex(&pbkdf2_hmac_sha256(b"benchmark-passkey", &[1u8; 16], 2048, 48)),
        "b983b8e7e3f508f90b2cb7dd6cee3b1c4e63dbfa1b5f60f6e9d91a52e9cb4b00\
         9334b27ee846d33f642c89007a0ac1ed"
    );

    // Three legacy-log records: masked CRC ‖ length ‖ type of each header.
    let env = MemEnv::new();
    let mut writer = LogWriter::new(env.new_writable_file("log", FileKind::Wal).unwrap());
    writer.add_record(&block[..150]).unwrap();
    writer.add_record(b"").unwrap();
    writer.add_record(&block).unwrap();
    writer.sync().unwrap();
    let raw = env.raw_content("log").unwrap();
    assert_eq!(raw.len(), 4267);
    assert_eq!(hex(&raw[..7]), "5c0f7a81960001");
    assert_eq!(hex(&raw[157..164]), "052b2843000001");
    assert_eq!(hex(&raw[164..171]), "17f9fb5e001001");
}

fn build_tagged_table(env: &MemEnv, path: &str) {
    let file = env.new_writable_file(path, FileKind::Sst).unwrap();
    let opts = TableBuilderOptions { mac_key: Some(key()), ..TableBuilderOptions::default() };
    let mut builder = TableBuilder::new(file, opts);
    for i in 0..2_000u32 {
        let ikey = make_internal_key(format!("key{i:08}").as_bytes(), 9, ValueType::Value);
        builder.add(&ikey, &pattern(40 + i % 90)).unwrap();
    }
    builder.finish().unwrap();
}

/// Every block handle of the table at `raw`: filter, properties, index,
/// then the data blocks the index names.
fn block_handles(raw: &[u8]) -> (Footer, Vec<BlockHandle>) {
    let footer = Footer::decode_from_tail(&raw[raw.len() - FOOTER_V2_LEN..]).unwrap();
    assert_eq!(footer.version, 2);
    let mut handles = vec![footer.filter, footer.properties, footer.index];
    let index =
        &raw[footer.index.offset as usize..(footer.index.offset + footer.index.size) as usize];
    let index = Arc::new(Block::from_raw(Bytes::copy_from_slice(index)));
    let mut it = index.iter();
    it.seek_to_first();
    while it.valid() {
        handles.push(BlockHandle::decode_varint(it.value()).unwrap());
        it.next();
    }
    (footer, handles)
}

#[test]
fn table_written_by_the_engine_verifies_under_the_scalar_construction() {
    let env = MemEnv::new();
    build_tagged_table(&env, "t.sst");
    let raw = env.raw_content("t.sst").unwrap();
    let (footer, handles) = block_handles(&raw);
    assert!(handles.len() > 20, "want many data blocks, got {}", handles.len());
    for handle in handles {
        let end = (handle.offset + handle.size) as usize;
        let contents = &raw[handle.offset as usize..end];
        let trailer = &raw[end..end + HMAC_BLOCK_TRAILER_LEN];
        assert_eq!(
            trailer[BLOCK_TRAILER_LEN..],
            scalar_tag(&footer.context, handle.offset, trailer[0], contents),
            "tag of block at {}",
            handle.offset
        );
        assert_eq!(
            trailer[1..BLOCK_TRAILER_LEN],
            scalar_block_crc(contents, trailer[0]),
            "crc of block at {}",
            handle.offset
        );
    }
}

#[test]
fn table_retagged_by_the_scalar_construction_opens_and_reads() {
    // Take an engine-written table, overwrite every trailer with one
    // computed the old way (a no-op if and only if the bytes agree), and
    // read every entry back through the verifying reader.
    let env = MemEnv::new();
    build_tagged_table(&env, "t.sst");
    let mut raw = env.raw_content("t.sst").unwrap();
    let (footer, handles) = block_handles(&raw);
    for handle in handles {
        let end = (handle.offset + handle.size) as usize;
        let contents = &raw[handle.offset as usize..end];
        let tag = scalar_tag(&footer.context, handle.offset, 0, contents);
        let crc = scalar_block_crc(contents, 0);
        raw[end + 1..end + BLOCK_TRAILER_LEN].copy_from_slice(&crc);
        raw[end + BLOCK_TRAILER_LEN..end + HMAC_BLOCK_TRAILER_LEN].copy_from_slice(&tag);
    }
    env.set_raw_content("t.sst", raw).unwrap();
    let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
    let integrity = ReadIntegrity { key: key(), expect_hmac: true, events: None };
    let table = Arc::new(
        Table::open_with_fetcher(file, 1, 1, BlockFetcher::new(None, 0), None, integrity).unwrap(),
    );
    let mut it = table.iter();
    it.seek_to_first();
    let mut entries = 0;
    while it.valid() {
        entries += 1;
        it.next();
    }
    it.status().unwrap();
    assert_eq!(entries, 2_000);
}

#[test]
fn log_forged_by_the_scalar_construction_replays_and_engine_log_verifies_under_it() {
    let records = [pattern(150), Vec::new(), pattern(4096), pattern(70_000)];

    // Written the old way, byte by byte, read by the engine.
    let mut forged = vec![0u8; LOG_PREAMBLE_LEN];
    forged[..8].copy_from_slice(&HMAC_LOG_MAGIC);
    forged[8..8 + CONTEXT_LEN].copy_from_slice(&context());
    let mut counter = 0u64;
    for record in &records {
        let mut left = record.as_slice();
        let mut begin = true;
        loop {
            let room = 32 * 1024 - forged.len() % (32 * 1024);
            if room < 23 {
                forged.resize(forged.len() + room, 0);
                continue;
            }
            let take = left.len().min(room - 23);
            let end = take == left.len();
            let record_type = match (begin, end) {
                (true, true) => 1,
                (true, false) => 2,
                (false, true) => 4,
                (false, false) => 3,
            };
            forged.extend_from_slice(&scalar_record_crc(record_type, &left[..take]));
            forged.extend_from_slice(&(take as u16).to_le_bytes());
            forged.push(record_type);
            forged.extend_from_slice(&scalar_tag(&context(), counter, record_type, &left[..take]));
            forged.extend_from_slice(&left[..take]);
            counter += 1;
            left = &left[take..];
            begin = false;
            if end {
                break;
            }
        }
    }
    let env = MemEnv::new();
    // `set_raw_content` replaces an existing file's bytes: create it first.
    drop(env.new_writable_file("forged.log", FileKind::Wal).unwrap());
    env.set_raw_content("forged.log", forged).unwrap();
    let src = env.new_sequential_file("forged.log", FileKind::Wal).unwrap();
    let mut reader = LogReader::with_integrity(src, Some(key()));
    for record in &records {
        assert_eq!(reader.read_record().unwrap().as_ref(), Some(record));
    }
    assert_eq!(reader.read_record().unwrap(), None);
    assert!(reader.is_hmac());

    // Written by the engine, checked the old way.
    let file = env.new_writable_file("engine.log", FileKind::Wal).unwrap();
    let mut writer = LogWriter::with_integrity(file, Some(key())).unwrap();
    for record in &records {
        writer.add_record(record).unwrap();
    }
    writer.sync().unwrap();
    let raw = env.raw_content("engine.log").unwrap();
    let file_context: [u8; CONTEXT_LEN] = raw[8..8 + CONTEXT_LEN].try_into().unwrap();
    let (mut pos, mut counter) = (LOG_PREAMBLE_LEN, 0u64);
    while pos < raw.len() {
        let room = 32 * 1024 - pos % (32 * 1024);
        if room < 23 {
            pos += room;
            continue;
        }
        let len = u16::from_le_bytes([raw[pos + 4], raw[pos + 5]]) as usize;
        let record_type = raw[pos + 6];
        let fragment = &raw[pos + 23..pos + 23 + len];
        assert_eq!(raw[pos..pos + 4], scalar_record_crc(record_type, fragment));
        assert_eq!(
            raw[pos + 7..pos + 23],
            scalar_tag(&file_context, counter, record_type, fragment)
        );
        counter += 1;
        pos += 23 + len;
    }
    assert_eq!(counter, 6, "three whole records plus the 70 000-byte one in three fragments");
}
