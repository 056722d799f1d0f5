//! Opens the [`Table`] readers of one tree's files.
//!
//! Opening a table in SHIELD mode reads the plaintext file header, resolves
//! the DEK (secure cache → KDS), and builds the decryption context. A file
//! is opened once: the reader lives in its [`crate::version::FileMeta`]'s
//! slot ([`crate::version::FileMeta::table`]) for as long as the file is
//! reachable, so a get borrows it from the version with no lookup, lock or
//! reference count of its own. There is no open-table bound: the index and
//! filter blocks an open table pins are charged to the block cache.
//!
//! New tables are written here too: a [`TableSink`] is the output side of
//! every flush and compaction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield_env::FileKind;

use crate::cache::BlockCache;
use crate::error::Result;
use crate::files::{CreatedFile, FileStore};
use crate::sst::builder::{TableBuilder, TableBuilderOptions};
use crate::sst::fetcher::DEFAULT_INFLIGHT_READS;
use crate::sst::{BlockFetcher, Table};
use crate::types::{make_internal_key, ValueType, MAX_SEQUENCE};
use crate::version::edit::{FileMeta, TableSlot};
use crate::version::filenames::sst_file_name;

/// Process-wide counter handing every [`TableCache`] a distinct owner id.
/// Folded into block-cache keys so table caches *sharing* one
/// [`BlockCache`] (the trees of a [`crate::Db`]) can never collide on
/// equal file numbers.
static NEXT_CACHE_OWNER: AtomicU64 = AtomicU64::new(0);

/// File numbers occupy the low 40 bits of a cache table id (a database
/// writing one file per millisecond would take ~35 years to overflow);
/// the owner id fills the high bits.
const FILE_NUMBER_BITS: u32 = 40;

/// Creates and opens one tree's tables.
///
/// Owns the tree's one [`BlockFetcher`]: every table opened here shares
/// its block cache and single-flight table.
pub struct TableCache {
    files: FileStore,
    db_path: String,
    fetcher: Arc<BlockFetcher>,
    /// This tree's slice of the block-cache key space.
    cache_owner: u64,
}

impl TableCache {
    /// Creates the opener of the tree in `db_path`: tables are opened
    /// through `files` and read through `block_cache`;
    /// `readahead_blocks` is the readahead depth of iterators over them.
    #[must_use]
    pub fn new(
        files: FileStore,
        db_path: String,
        block_cache: Option<Arc<BlockCache>>,
        readahead_blocks: usize,
    ) -> Arc<Self> {
        Arc::new(TableCache {
            fetcher: BlockFetcher::with_depth(
                block_cache,
                readahead_blocks,
                DEFAULT_INFLIGHT_READS,
                Some(files.stats.clone()),
            ),
            files,
            db_path,
            cache_owner: NEXT_CACHE_OWNER.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The shared fetcher all tables opened here read through.
    #[must_use]
    pub fn fetcher(&self) -> &Arc<BlockFetcher> {
        &self.fetcher
    }

    /// Where table `file_number` of this tree lives.
    fn table_path(&self, file_number: u64) -> String {
        shield_env::join_path(&self.db_path, &sst_file_name(file_number))
    }

    /// Creates the file of table `file_number` for a flush or compaction
    /// to build: the store that will open it decides its DEK and tag key.
    pub fn create(&self, file_number: u64) -> Result<CreatedFile> {
        self.files.create(&self.table_path(file_number), FileKind::Sst)
    }

    /// Opens table `file_number`: a new reader on every call. Readers of
    /// a live file go through [`crate::version::FileMeta::table`], which
    /// opens it here once and keeps it.
    pub fn open(&self, file_number: u64) -> Result<Arc<Table>> {
        let (file, cipher, read_integrity) =
            self.files.open_random(&self.table_path(file_number), FileKind::Sst)?;
        Ok(Arc::new(Table::open_raw(
            file,
            cipher,
            (self.cache_owner << FILE_NUMBER_BITS) | (file_number & ((1 << FILE_NUMBER_BITS) - 1)),
            file_number,
            self.fetcher.clone(),
            Some(self.files.stats.clone()),
            read_integrity,
        )?))
    }
}

/// The output side of every flush and compaction: writes entries, in
/// internal-key order, into new tables at one level.
///
/// Each output is created through [`TableCache::create`], so it takes a
/// fresh DEK and tag key from the file layer (SHIELD's key rotation,
/// §5.2). A finished output is opened here, on the writing thread, before
/// any edit installs it: the file is checked readable, and its table
/// rides into the version in the file's meta, so no foreground read pays
/// for the open. The caller decides where one output ends and the next
/// begins ([`TableSink::cut`]); a flush never cuts.
pub struct TableSink<'a> {
    tables: &'a TableCache,
    options: &'a TableBuilderOptions,
    level: u32,
    alloc: &'a mut dyn FnMut() -> u64,
    building: Option<(u64, TableBuilder)>,
    outputs: Vec<(u32, FileMeta)>,
    bytes_written: u64,
}

impl<'a> TableSink<'a> {
    /// A sink writing tables at `level` with `options` (their `dek_id`
    /// and `mac_key` are set per output), numbered by `alloc`.
    pub fn new(
        tables: &'a TableCache,
        options: &'a TableBuilderOptions,
        level: usize,
        alloc: &'a mut dyn FnMut() -> u64,
    ) -> Self {
        TableSink {
            tables,
            options,
            level: level as u32,
            alloc,
            building: None,
            outputs: Vec::new(),
            bytes_written: 0,
        }
    }

    /// Appends an entry to the current output, creating one if none is
    /// open.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) -> Result<()> {
        let (_, builder) = match &mut self.building {
            Some(building) => building,
            none => {
                let number = (self.alloc)();
                let (file, dek_id, mac_key) = self.tables.create(number)?;
                let opts = TableBuilderOptions { dek_id, mac_key, ..self.options.clone() };
                none.insert((number, TableBuilder::new(file, opts)))
            }
        };
        builder.add(ikey, value)
    }

    /// Bytes the current output has emitted so far (0 if none is open).
    #[must_use]
    pub fn file_size(&self) -> u64 {
        self.building.as_ref().map_or(0, |(_, b)| b.file_size())
    }

    /// Finishes the current output, if one is open; the next
    /// [`add`](Self::add) starts a new one.
    pub fn cut(&mut self) -> Result<()> {
        let Some((number, builder)) = self.building.take() else { return Ok(()) };
        let (props, size) = builder.finish()?;
        let table = self.tables.open(number)?;
        self.bytes_written += size;
        self.outputs.push((
            self.level,
            FileMeta {
                number,
                file_size: size,
                smallest: make_internal_key(&props.smallest_user_key, MAX_SEQUENCE, ValueType::Value),
                largest: make_internal_key(&props.largest_user_key, 0, ValueType::Deletion),
                dek_id: props.dek_id,
                table: TableSlot::holding(table),
            },
        ));
        Ok(())
    }

    /// Finishes the last output and returns every output, as the
    /// `(level, meta)` pairs of a version edit, with the bytes written.
    pub fn finish(mut self) -> Result<(Vec<(u32, FileMeta)>, u64)> {
        self.cut()?;
        Ok((self.outputs, self.bytes_written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::IntegrityOptions;
    use shield_env::MemEnv;

    #[test]
    fn opens_fresh_readers_and_fails_on_missing_files() {
        let (env, plain) = (Arc::new(MemEnv::new()), crate::Encryption::Plain);
        let files = FileStore::new(env, &plain, "", IntegrityOptions::default()).unwrap();
        let tables = TableCache::new(files, "db".into(), None, 0);
        let (options, mut alloc) = (TableBuilderOptions::default(), || 1);
        let mut sink = TableSink::new(&tables, &options, 0, &mut alloc);
        sink.add(&make_internal_key(b"key-1", 1, ValueType::Value), b"v").unwrap();
        let (built, _) = sink.finish().unwrap();
        assert_eq!(built[0].1.number, 1);
        let a = tables.open(1).unwrap();
        let b = tables.open(1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "the opener keeps nothing; the file's meta does");
        assert_eq!(a.table_id(), b.table_id());
        assert!(tables.open(42).is_err());
    }
}
