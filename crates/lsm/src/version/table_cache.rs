//! Opens the [`Table`] readers of one tree's files.
//!
//! Opening a table in SHIELD mode reads the plaintext file header, resolves
//! the DEK (secure cache → KDS), and builds the decryption context. A file
//! is opened once: the reader lives in its [`crate::version::FileMeta`]'s
//! slot ([`crate::version::FileMeta::table`]) for as long as the file is
//! reachable, so a get borrows it from the version with no lookup, lock or
//! reference count of its own. There is no open-table bound: the index and
//! filter blocks an open table pins are charged to the block cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield_env::FileKind;

use crate::cache::BlockCache;
use crate::error::Result;
use crate::files::{CreatedFile, FileStore};
use crate::sst::fetcher::DEFAULT_INFLIGHT_READS;
use crate::sst::{BlockFetcher, Table};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::IntegrityOptions;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, MemEnv};

    fn build(env: &MemEnv, number: u64) {
        let path = shield_env::join_path("db", &sst_file_name(number));
        let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        let ik = make_internal_key(format!("key-{number}").as_bytes(), 1, ValueType::Value);
        b.add(&ik, b"v").unwrap();
        b.finish().unwrap();
    }

    #[test]
    fn opens_fresh_readers_and_fails_on_missing_files() {
        let env = MemEnv::new();
        build(&env, 1);
        let files = FileStore::new(Arc::new(env), None, IntegrityOptions::default());
        let tables = TableCache::new(files, "db".into(), None, 0);
        let a = tables.open(1).unwrap();
        let b = tables.open(1).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "the opener keeps nothing; the file's meta does");
        assert_eq!(a.table_id(), b.table_id());
        assert!(tables.open(42).is_err());
    }
}
