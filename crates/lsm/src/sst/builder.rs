//! Builds an SST file from entries supplied in internal-key order.
//!
//! In SHIELD mode the `WritableFile` handed to the builder is already an
//! [`crate::encryption::EncryptedWritableFile`], so every byte written here
//! — blocks, filter, properties, index, footer — is encrypted in chunks
//! just before persistence, exactly the flush/compaction placement of §5.2.

use shield_crypto::{crc32c, crc32c_extend, crc32c_masked, DekId, HmacKey};
use shield_env::WritableFile;

use crate::error::Result;
use crate::integrity::{position_tag, CONTEXT_LEN};
use crate::sst::block::BlockBuilder;
use crate::sst::filter::{BloomFilterBuilder, BITS_PER_KEY};
use crate::sst::format::{
    BlockHandle, Footer, TableProperties, BLOCK_TRAILER_LEN, COMPRESSION_NONE,
    HMAC_BLOCK_TRAILER_LEN,
};
use crate::sst::scanner::SCAN_SPAN_BYTES;
use crate::types::extract_user_key;

/// Tuning knobs for table construction.
#[derive(Clone, Debug)]
pub struct TableBuilderOptions {
    /// Target uncompressed data-block size (RocksDB default: 4096).
    pub block_size: usize,
    /// Restart interval within data blocks.
    pub restart_interval: usize,
    /// Bloom bits per key; 0 disables the filter.
    pub bloom_bits_per_key: usize,
    /// Recorded in the properties block when the file is encrypted.
    pub dek_id: Option<DekId>,
    /// MAC key for authenticated (format v2) tables: every block trailer
    /// gains a truncated HMAC tag and the footer carries a fresh random
    /// per-file context. `None` writes the classic CRC-only v1 format.
    pub mac_key: Option<[u8; 32]>,
}

impl Default for TableBuilderOptions {
    fn default() -> Self {
        TableBuilderOptions {
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: BITS_PER_KEY,
            dek_id: None,
            mac_key: None,
        }
    }
}

/// Streaming SST writer.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    opts: TableBuilderOptions,
    data_block: BlockBuilder,
    /// The last data block's buffer, traded back to `data_block` when the
    /// next one finishes (`BlockBuilder::finish_into`).
    block_buf: Vec<u8>,
    /// (last key of block, handle) pairs for the index.
    index_entries: Vec<(Vec<u8>, BlockHandle)>,
    filter: BloomFilterBuilder,
    offset: u64,
    /// `offset` at the last flush of `file`.
    flushed: u64,
    last_key: Vec<u8>,
    props: TableProperties,
    /// `opts.mac_key` expanded once for all of the file's block tags.
    mac: Option<HmacKey>,
    /// Per-file MAC context, minted at construction when `mac_key` is
    /// set; bound into every block tag and persisted in the v2 footer.
    context: [u8; CONTEXT_LEN],
    finished: bool,
}

impl TableBuilder {
    /// Starts building into `file`.
    #[must_use]
    pub fn new(file: Box<dyn WritableFile>, opts: TableBuilderOptions) -> Self {
        let filter = BloomFilterBuilder::new(opts.bloom_bits_per_key.max(1));
        let restart = opts.restart_interval;
        let dek_id = opts.dek_id;
        let mac = opts.mac_key.as_ref().map(|key| HmacKey::new(key));
        let mut context = [0u8; CONTEXT_LEN];
        if mac.is_some() {
            shield_crypto::secure_random(&mut context);
        }
        TableBuilder {
            file,
            opts,
            data_block: BlockBuilder::new(restart),
            block_buf: Vec::new(),
            index_entries: Vec::new(),
            filter,
            offset: 0,
            flushed: 0,
            last_key: Vec::new(),
            props: TableProperties { dek_id, ..TableProperties::default() },
            mac,
            context,
            finished: false,
        }
    }

    /// Appends an entry; internal keys must be strictly increasing.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        debug_assert!(!self.finished);
        let user_key = extract_user_key(ikey);
        if self.props.num_entries == 0 {
            self.props.smallest_user_key = user_key.to_vec();
        }
        self.props.num_entries += 1;
        self.props.raw_key_bytes += user_key.len() as u64;
        self.props.raw_value_bytes += value.len() as u64;
        if self.opts.bloom_bits_per_key > 0 {
            // One filter probe key per distinct user key is enough, but
            // adding duplicates only costs a few redundant bits.
            self.filter.add_key(user_key);
        }
        self.data_block.add(ikey, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        if self.data_block.size_estimate() >= self.opts.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Number of entries added so far.
    #[must_use]
    pub fn num_entries(&self) -> u64 {
        self.props.num_entries
    }

    /// Current file offset (bytes emitted so far).
    #[must_use]
    pub fn file_size(&self) -> u64 {
        self.offset
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let mut contents = std::mem::take(&mut self.block_buf);
        self.data_block.finish_into(&mut contents);
        let handle = self.write_raw_block(&contents);
        self.block_buf = contents;
        let handle = handle?;
        self.index_entries.push((self.last_key.clone(), handle));
        self.props.num_data_blocks += 1;
        Ok(())
    }

    /// Writes block contents + trailer (5 bytes CRC-only, 21 bytes with
    /// an HMAC tag in authenticated tables); returns the handle.
    fn write_raw_block(&mut self, contents: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle { offset: self.offset, size: contents.len() as u64 };
        self.file.append(contents)?;
        let mut trailer = [0u8; HMAC_BLOCK_TRAILER_LEN];
        trailer[0] = COMPRESSION_NONE;
        let crc = crc32c_masked(crc32c_extend(crc32c(contents), &[COMPRESSION_NONE]));
        trailer[1..BLOCK_TRAILER_LEN].copy_from_slice(&crc.to_le_bytes());
        let trailer_len = match &self.mac {
            Some(key) => {
                let tag =
                    position_tag(key, &self.context, handle.offset, COMPRESSION_NONE, contents);
                trailer[BLOCK_TRAILER_LEN..].copy_from_slice(&tag);
                HMAC_BLOCK_TRAILER_LEN
            }
            None => BLOCK_TRAILER_LEN,
        };
        self.file.append(&trailer[..trailer_len])?;
        self.offset += (contents.len() + trailer_len) as u64;
        // Hand the file a flush per `SCAN_SPAN_BYTES` of output: on remote
        // storage each is one packet on the link, and a table that went as
        // one multi-MB transfer would queue every read behind it.
        if self.offset - self.flushed >= SCAN_SPAN_BYTES as u64 {
            self.file.flush()?;
            self.flushed = self.offset;
        }
        Ok(handle)
    }

    /// Writes filter, properties, index and footer, then flushes and syncs
    /// the file. Returns the table properties and the final file size.
    pub fn finish(mut self) -> Result<(TableProperties, u64)> {
        debug_assert!(!self.finished);
        self.finished = true;
        self.flush_data_block()?;
        // `last_key` is the last entry added: its user key is the table's
        // largest (recorded once here, not copied on every `add`).
        if self.props.num_entries > 0 {
            self.props.largest_user_key = extract_user_key(&self.last_key).to_vec();
        }

        let filter_handle = if self.opts.bloom_bits_per_key > 0 && self.filter.num_keys() > 0 {
            let body = self.filter.finish();
            self.write_raw_block(&body)?
        } else {
            BlockHandle::default()
        };
        let props_body = self.props.encode();
        let props_handle = self.write_raw_block(&props_body)?;

        let mut index_block = BlockBuilder::new(1);
        for (key, handle) in &self.index_entries {
            let mut v = Vec::with_capacity(16);
            handle.encode_varint(&mut v);
            index_block.add(key, &v);
        }
        let index_contents = index_block.finish();
        let index_handle = self.write_raw_block(&index_contents)?;

        let footer = match self.mac {
            Some(_) => Footer::v2(filter_handle, props_handle, index_handle, self.context),
            None => Footer::v1(filter_handle, props_handle, index_handle),
        };
        let footer_bytes = footer.encode();
        self.file.append(&footer_bytes)?;
        self.offset += footer_bytes.len() as u64;
        self.file.flush()?;
        self.file.sync()?;
        Ok((self.props, self.offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, FileKind, MemEnv};

    #[test]
    fn builds_nonempty_file_with_footer_magic() {
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        for i in 0..100u32 {
            let ik = make_internal_key(format!("k{i:04}").as_bytes(), 1, ValueType::Value);
            b.add(&ik, b"value").unwrap();
        }
        let (props, size) = b.finish().unwrap();
        assert_eq!(props.num_entries, 100);
        assert_eq!(props.smallest_user_key, b"k0000");
        assert_eq!(props.largest_user_key, b"k0099");
        assert!(props.num_data_blocks >= 1);
        let raw = env.raw_content("t.sst").unwrap();
        assert_eq!(raw.len() as u64, size);
        // Footer magic at the tail.
        let magic = u64::from_le_bytes(raw[raw.len() - 8..].try_into().unwrap());
        assert_eq!(magic, crate::sst::format::TABLE_MAGIC);
    }

    #[test]
    fn small_block_size_creates_many_blocks() {
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions { block_size: 64, ..TableBuilderOptions::default() };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..50u32 {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            b.add(&ik, b"some-value-payload").unwrap();
        }
        let (props, _) = b.finish().unwrap();
        assert!(props.num_data_blocks > 5, "blocks = {}", props.num_data_blocks);
    }

    #[test]
    fn mac_key_produces_v2_footer_and_tagged_trailers() {
        use crate::sst::format::{Footer, HMAC_BLOCK_TRAILER_LEN};
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions { mac_key: Some([7u8; 32]), ..Default::default() };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..10u32 {
            let ik = make_internal_key(format!("k{i:04}").as_bytes(), 1, ValueType::Value);
            b.add(&ik, b"value").unwrap();
        }
        let context = b.context;
        let (_, size) = b.finish().unwrap();
        let raw = env.raw_content("t.sst").unwrap();
        assert_eq!(raw.len() as u64, size);
        let footer = Footer::decode_from_tail(&raw).unwrap();
        assert_eq!(footer.version, 2);
        assert_eq!(footer.context, context);
        assert_ne!(context, [0u8; super::CONTEXT_LEN], "context must be random");
        // The index block's stored tag recomputes from the raw bytes.
        let h = footer.index;
        let contents = &raw[h.offset as usize..(h.offset + h.size) as usize];
        let trailer = &raw[(h.offset + h.size) as usize
            ..(h.offset + h.size) as usize + HMAC_BLOCK_TRAILER_LEN];
        let expect =
            crate::integrity::block_tag(&[7u8; 32], &context, h.offset, trailer[0], contents);
        assert_eq!(&trailer[BLOCK_TRAILER_LEN..], &expect[..]);
    }

    #[test]
    fn a_table_reaches_remote_storage_in_packets() {
        use shield_env::{NetworkModel, RemoteEnv};
        let env = RemoteEnv::new(std::sync::Arc::new(MemEnv::new()), NetworkModel::unlimited());
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        for i in 0..1024u32 {
            let ik = make_internal_key(format!("k{i:06}").as_bytes(), 1, ValueType::Value);
            b.add(&ik, &[7u8; 1000]).unwrap();
        }
        b.finish().unwrap();
        let io = env.io_stats().unwrap().snapshot();
        let kind = FileKind::Sst.index();
        let (bytes, transfers) = (io.written_bytes[kind], io.write_ops[kind]);
        assert!(bytes >= 1 << 20, "{bytes} bytes");
        // One transfer per 64 KiB span, give or take a block.
        assert!(transfers >= bytes / (128 << 10), "{bytes} bytes went in {transfers} transfers");
    }

    #[test]
    fn empty_table_is_valid() {
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let b = TableBuilder::new(file, TableBuilderOptions::default());
        let (props, size) = b.finish().unwrap();
        assert_eq!(props.num_entries, 0);
        assert!(size > 0); // properties + index + footer still exist
    }
}
