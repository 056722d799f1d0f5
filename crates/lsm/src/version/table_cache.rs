//! Keeps recently used [`Table`] readers open, keyed by file number.
//!
//! Opening a table in SHIELD mode reads the plaintext file header, resolves
//! the DEK (secure cache → KDS), and builds the decryption context — so
//! this cache is also what bounds DEK-resolution traffic on the read path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shield_env::FileKind;

use crate::cache::BlockCache;
use crate::error::Result;
use crate::files::{CreatedFile, FileStore};
use crate::sst::fetcher::DEFAULT_INFLIGHT_READS;
use crate::sst::{BlockFetcher, Table};
use crate::version::filenames::sst_file_name;

/// Open table readers a primary keeps per tree.
pub const MAX_OPEN_FILES: usize = 500;

struct Inner {
    tables: HashMap<u64, (Arc<Table>, u64)>,
    tick: u64,
}

/// Process-wide counter handing every [`TableCache`] a distinct owner id.
/// Folded into block-cache keys so table caches *sharing* one
/// [`BlockCache`] (the trees of a [`crate::Db`]) can never collide on
/// equal file numbers.
static NEXT_CACHE_OWNER: AtomicU64 = AtomicU64::new(0);

/// File numbers occupy the low 40 bits of a cache table id (a database
/// writing one file per millisecond would take ~35 years to overflow);
/// the owner id fills the high bits.
const FILE_NUMBER_BITS: u32 = 40;

/// An LRU cache of open table readers.
///
/// Owns the engine's one [`BlockFetcher`]: every table opened here shares
/// its block cache and single-flight table.
pub struct TableCache {
    files: FileStore,
    db_path: String,
    fetcher: Arc<BlockFetcher>,
    capacity: usize,
    /// This cache's slice of the block-cache key space.
    cache_owner: u64,
    inner: Mutex<Inner>,
}

impl TableCache {
    /// Creates a cache holding at most `capacity` open tables of the tree
    /// in `db_path`, opened through `files` and read through
    /// `block_cache`; `readahead_blocks` is the readahead depth of
    /// iterators over them.
    #[must_use]
    pub fn new(
        files: FileStore,
        db_path: String,
        block_cache: Option<Arc<BlockCache>>,
        capacity: usize,
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
            capacity: capacity.max(4),
            cache_owner: NEXT_CACHE_OWNER.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(Inner { tables: HashMap::new(), tick: 0 }),
        })
    }

    /// The shared fetcher all tables opened by this cache read through.
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

    /// Returns the open table for `file_number`, opening it if needed.
    pub fn get(&self, file_number: u64) -> Result<Arc<Table>> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((table, stamp)) = inner.tables.get_mut(&file_number) {
                *stamp = tick;
                return Ok(table.clone());
            }
        }
        // Open outside the lock: DEK resolution may hit the network.
        let (file, read_integrity) =
            self.files.open_random(&self.table_path(file_number), FileKind::Sst)?;
        let table = Arc::new(Table::open_with_fetcher(
            file,
            (self.cache_owner << FILE_NUMBER_BITS) | (file_number & ((1 << FILE_NUMBER_BITS) - 1)),
            file_number,
            self.fetcher.clone(),
            Some(self.files.stats.clone()),
            read_integrity,
        )?);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.tables.insert(file_number, (table.clone(), tick));
        while inner.tables.len() > self.capacity {
            let victim = inner
                .tables
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty");
            inner.tables.remove(&victim);
        }
        Ok(table)
    }

    /// Drops the cached reader for a deleted file.
    pub fn evict(&self, file_number: u64) {
        self.inner.lock().tables.remove(&file_number);
    }

    /// Number of currently open tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().tables.len()
    }

    /// True if no tables are open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::integrity::IntegrityOptions;
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, MemEnv};

    fn cache_over(env: MemEnv, capacity: usize) -> Arc<TableCache> {
        let files = FileStore::new(Arc::new(env), None, IntegrityOptions::default());
        TableCache::new(files, "db".into(), None, capacity, 0)
    }

    fn build(env: &MemEnv, number: u64) {
        let path = shield_env::join_path("db", &sst_file_name(number));
        let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        let ik = make_internal_key(format!("key-{number}").as_bytes(), 1, ValueType::Value);
        b.add(&ik, b"v").unwrap();
        b.finish().unwrap();
    }

    #[test]
    fn opens_and_caches() {
        let env = MemEnv::new();
        build(&env, 1);
        let cache = cache_over(env, 8);
        let a = cache.get(1).unwrap();
        let b = cache.get(1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_lru_beyond_capacity() {
        let env = MemEnv::new();
        for n in 1..=10 {
            build(&env, n);
        }
        let cache = cache_over(env, 4);
        for n in 1..=10 {
            cache.get(n).unwrap();
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn explicit_evict() {
        let env = MemEnv::new();
        build(&env, 1);
        let cache = cache_over(env, 8);
        cache.get(1).unwrap();
        cache.evict(1);
        assert!(cache.is_empty());
    }

    #[test]
    fn missing_file_is_error() {
        let env = MemEnv::new();
        let cache = cache_over(env, 8);
        assert!(cache.get(42).is_err());
    }
}
