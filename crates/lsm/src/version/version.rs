//! An immutable snapshot of the LSM shape: which files live at which level.

use std::sync::Arc;

use crate::error::Result;
use crate::iter::InternalIterator;
use crate::sst::{Table, TableIterator, TableScanner};
use crate::types::{extract_seq_type, extract_user_key, SequenceNumber, ValueType};
use crate::version::edit::FileMeta;
use crate::version::table_cache::TableCache;

/// Number of levels (RocksDB default: 7).
pub const NUM_LEVELS: usize = 7;

/// Result of a point lookup against persistent state.
#[derive(Debug, PartialEq, Eq)]
pub enum GetResult {
    /// A live value.
    Found(Vec<u8>),
    /// A tombstone shadows the key.
    Deleted,
    /// Not present in any file.
    NotFound,
}

impl GetResult {
    /// The live value, if any: a tombstone and an absent key both read as
    /// `None`.
    #[must_use]
    pub fn into_value(self) -> Option<Vec<u8>> {
        match self {
            GetResult::Found(value) => Some(value),
            GetResult::Deleted | GetResult::NotFound => None,
        }
    }
}

/// An immutable file layout. L0 files may overlap and are ordered newest
/// first; L1+ files are disjoint and ordered by smallest key.
#[derive(Clone, Default)]
pub struct Version {
    /// Files per level.
    pub files: Vec<Vec<Arc<FileMeta>>>,
}

impl Version {
    /// An empty version.
    #[must_use]
    pub fn new() -> Self {
        Version { files: vec![Vec::new(); NUM_LEVELS] }
    }

    /// Total bytes at `level`.
    #[must_use]
    pub fn level_size(&self, level: usize) -> u64 {
        self.files[level].iter().map(|f| f.file_size).sum()
    }

    /// Number of files at `level`.
    #[must_use]
    pub fn level_files(&self, level: usize) -> usize {
        self.files[level].len()
    }

    /// Total number of live SST files.
    #[must_use]
    pub fn total_files(&self) -> usize {
        self.files.iter().map(Vec::len).sum()
    }

    /// All live file numbers.
    #[must_use]
    pub fn live_files(&self) -> Vec<u64> {
        self.files.iter().flatten().map(|f| f.number).collect()
    }

    /// The DEK ids of all live files (plaintext files have none).
    #[must_use]
    pub fn live_deks(&self) -> Vec<shield_crypto::DekId> {
        self.files.iter().flatten().filter_map(|f| f.dek_id).collect()
    }

    /// Point lookup at sequence `seq` (`fill_cache = false` reads around
    /// the block cache).
    pub fn get_opt(
        &self,
        table_cache: &TableCache,
        user_key: &[u8],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<GetResult> {
        // L0: newest file first; files may overlap.
        for meta in &self.files[0] {
            if user_key < meta.smallest_user_key() || user_key > meta.largest_user_key() {
                continue;
            }
            if let Some(result) =
                self.get_in_file(table_cache, meta, user_key, seq, fill_cache)?
            {
                return Ok(result);
            }
        }
        // L1+: at most one candidate file per level.
        for level in 1..self.files.len() {
            let files = &self.files[level];
            if files.is_empty() {
                continue;
            }
            let idx = files.partition_point(|f| f.largest_user_key() < user_key);
            if idx >= files.len() || user_key < files[idx].smallest_user_key() {
                continue;
            }
            if let Some(result) =
                self.get_in_file(table_cache, &files[idx], user_key, seq, fill_cache)?
            {
                return Ok(result);
            }
        }
        Ok(GetResult::NotFound)
    }

    /// Batched point lookup at sequence `seq`: one slot per key, each
    /// equivalent to [`Version::get_opt`]. Keys are grouped by candidate
    /// file (per L0 file newest-first, then per level), so each table
    /// sees its whole sub-batch in one [`crate::sst::Table::get_many_opt`]
    /// — one batched read submission per file instead of one read per
    /// key. Errors are per-slot.
    pub fn multi_get_opt(
        &self,
        table_cache: &TableCache,
        keys: &[&[u8]],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Vec<Result<GetResult>> {
        let mut out: Vec<Option<Result<GetResult>>> = Vec::new();
        out.resize_with(keys.len(), || None);
        self.warm_candidate_tables(table_cache, keys);
        // L0: newest file first; files may overlap.
        for meta in &self.files[0] {
            self.multi_get_in_file(table_cache, meta, keys, seq, fill_cache, &mut out, |k| {
                k >= meta.smallest_user_key() && k <= meta.largest_user_key()
            });
        }
        // L1+: at most one candidate file per level and key.
        for level in 1..self.files.len() {
            let files = &self.files[level];
            if files.is_empty() {
                continue;
            }
            for (fidx, meta) in files.iter().enumerate() {
                self.multi_get_in_file(table_cache, meta, keys, seq, fill_cache, &mut out, |k| {
                    files.partition_point(|f| f.largest_user_key() < k) == fidx
                        && k >= meta.smallest_user_key()
                });
            }
        }
        out.into_iter().map(|slot| slot.unwrap_or(Ok(GetResult::NotFound))).collect()
    }

    /// Opens every table a batch might touch, concurrently.
    ///
    /// A cold [`crate::sst::Table::open`] costs several storage round
    /// trips (footer, index, bloom, properties — plus the DEK resolve in
    /// SHIELD mode); opening a batch's candidate files one after another
    /// would serialize those trips and dominate the whole batch on a
    /// remote env. [`TableCache::get`] is concurrency-safe and
    /// idempotent, so this is a pure warm-up: open errors are ignored
    /// here — the resolution pass re-encounters them and attributes them
    /// to the right slots. Candidacy is over-approximate on purpose (a
    /// key that resolves at L0 still warms its L1+ candidates); those
    /// tables stay in the cache for the next lookup.
    fn warm_candidate_tables(&self, table_cache: &TableCache, keys: &[&[u8]]) {
        const WARM_THREADS: usize = 8;
        let mut candidates: Vec<u64> = Vec::new();
        for meta in &self.files[0] {
            if keys.iter().any(|&k| {
                k >= meta.smallest_user_key() && k <= meta.largest_user_key()
            }) {
                candidates.push(meta.number);
            }
        }
        for level in 1..self.files.len() {
            let files = &self.files[level];
            for (fidx, meta) in files.iter().enumerate() {
                if keys.iter().any(|&k| {
                    files.partition_point(|f| f.largest_user_key() < k) == fidx
                        && k >= meta.smallest_user_key()
                }) {
                    candidates.push(meta.number);
                }
            }
        }
        if candidates.len() < 2 {
            return; // nothing to overlap
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..candidates.len().min(WARM_THREADS) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&number) = candidates.get(i) else { break };
                    let _ = table_cache.get(number);
                });
            }
        });
    }

    /// Probes `meta` with every still-unresolved key matched by
    /// `candidate`, resolving found/deleted/errored slots in `out`.
    #[allow(clippy::too_many_arguments)]
    fn multi_get_in_file(
        &self,
        table_cache: &TableCache,
        meta: &FileMeta,
        keys: &[&[u8]],
        seq: SequenceNumber,
        fill_cache: bool,
        out: &mut [Option<Result<GetResult>>],
        candidate: impl Fn(&[u8]) -> bool,
    ) {
        let slots: Vec<usize> = (0..keys.len())
            .filter(|&i| out[i].is_none() && candidate(keys[i]))
            .collect();
        if slots.is_empty() {
            return;
        }
        let table = match table_cache.get(meta.number) {
            Ok(t) => t,
            Err(e) => {
                for &i in &slots {
                    out[i] = Some(Err(e.clone()));
                }
                return;
            }
        };
        let sub: Vec<&[u8]> = slots.iter().map(|&i| keys[i]).collect();
        for (&i, result) in slots.iter().zip(table.get_many_opt(&sub, seq, fill_cache)) {
            match result {
                Ok(None) => {} // not in this file; deeper sources may hold it
                Ok(Some((ikey, value))) => {
                    debug_assert_eq!(extract_user_key(&ikey), keys[i]);
                    out[i] = Some(Self::classify_entry(&ikey, value));
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
    }

    /// Maps a raw table entry to its visible [`GetResult`].
    fn classify_entry(ikey: &[u8], value: Vec<u8>) -> Result<GetResult> {
        match extract_seq_type(ikey).1 {
            Some(ValueType::Value) => Ok(GetResult::Found(value)),
            Some(ValueType::Deletion) => Ok(GetResult::Deleted),
            None => Err(crate::error::Error::Corruption("bad value type in table entry".into())),
        }
    }

    fn get_in_file(
        &self,
        table_cache: &TableCache,
        meta: &FileMeta,
        user_key: &[u8],
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Result<Option<GetResult>> {
        let table = table_cache.get(meta.number)?;
        match table.get_opt(user_key, seq, fill_cache)? {
            None => Ok(None),
            Some((ikey, value)) => {
                debug_assert_eq!(extract_user_key(&ikey), user_key);
                Self::classify_entry(&ikey, value).map(Some)
            }
        }
    }

    /// Files at `level` whose user-key range intersects
    /// `[smallest, largest]` (inclusive; `None` bounds are open).
    #[must_use]
    pub fn overlapping_files(
        &self,
        level: usize,
        smallest: Option<&[u8]>,
        largest: Option<&[u8]>,
    ) -> Vec<Arc<FileMeta>> {
        self.files[level]
            .iter()
            .filter(|f| {
                let below = largest.is_some_and(|l| f.smallest_user_key() > l);
                let above = smallest.is_some_and(|s| f.largest_user_key() < s);
                !below && !above
            })
            .cloned()
            .collect()
    }

    /// Iterators covering every persistent entry: one per L0 file plus one
    /// concatenating iterator per deeper non-empty level. Listed newest
    /// first, as the merging iterator's tie-break requires. With
    /// `fill_cache = false` they read data blocks around the block cache.
    pub fn iterators(
        &self,
        table_cache: &Arc<TableCache>,
        fill_cache: bool,
    ) -> Result<Vec<Box<dyn InternalIterator>>> {
        let mut out: Vec<Box<dyn InternalIterator>> = Vec::new();
        for meta in &self.files[0] {
            let table = table_cache.get(meta.number)?;
            out.push(Box::new(table.iter_opt(fill_cache)));
        }
        for level in 1..self.files.len() {
            if !self.files[level].is_empty() {
                out.push(Box::new(LevelIterator::new(
                    self.files[level].clone(),
                    table_cache.clone(),
                    fill_cache,
                )));
            }
        }
        Ok(out)
    }
}

/// Concatenating iterator over a level's disjoint, sorted files.
///
/// Generic over the per-table iterator so both read paths share it: user
/// iterators walk each file through the block cache
/// ([`LevelIterator::new`]), whole-file scans stream it around the cache
/// ([`LevelIterator::scanning`]).
pub struct LevelIterator<I = TableIterator> {
    files: Vec<Arc<FileMeta>>,
    table_cache: Arc<TableCache>,
    file_index: usize,
    current: Option<I>,
    open_table: fn(&Arc<Table>) -> I,
    status: Result<()>,
}

impl LevelIterator<TableIterator> {
    /// Creates an iterator through the block cache (around it for data
    /// blocks with `fill_cache = false`) over `files`, which must be
    /// disjoint and sorted by smallest key.
    #[must_use]
    pub fn new(files: Vec<Arc<FileMeta>>, table_cache: Arc<TableCache>, fill_cache: bool) -> Self {
        let open = if fill_cache { Table::iter } else { |table: &Arc<Table>| table.iter_opt(false) };
        Self::with_opener(files, table_cache, open)
    }
}

impl LevelIterator<TableScanner> {
    /// Like [`LevelIterator::new`], but each file is read by the streaming
    /// scanner (compaction inputs).
    #[must_use]
    pub fn scanning(files: Vec<Arc<FileMeta>>, table_cache: Arc<TableCache>) -> Self {
        Self::with_opener(files, table_cache, Table::scan)
    }
}

impl<I: InternalIterator> LevelIterator<I> {
    fn with_opener(
        files: Vec<Arc<FileMeta>>,
        table_cache: Arc<TableCache>,
        open_table: fn(&Arc<Table>) -> I,
    ) -> Self {
        LevelIterator { files, table_cache, file_index: 0, current: None, open_table, status: Ok(()) }
    }

    fn open_file(&mut self, index: usize) {
        self.current = None;
        self.file_index = index;
        if index >= self.files.len() {
            return;
        }
        match self.table_cache.get(self.files[index].number) {
            Ok(table) => self.current = Some((self.open_table)(&table)),
            Err(e) => self.status = Err(e),
        }
    }

    fn advance_past_empty(&mut self) {
        loop {
            match &self.current {
                Some(it) if it.valid() => return,
                _ => {
                    if self.status.is_err() || self.file_index + 1 >= self.files.len() {
                        self.current = None;
                        return;
                    }
                    let next = self.file_index + 1;
                    self.open_file(next);
                    if let Some(it) = &mut self.current {
                        it.seek_to_first();
                    }
                }
            }
        }
    }
}

impl<I: InternalIterator> InternalIterator for LevelIterator<I> {
    fn valid(&self) -> bool {
        self.current.as_ref().is_some_and(InternalIterator::valid)
    }

    fn seek_to_first(&mut self) {
        if self.files.is_empty() {
            self.current = None;
            return;
        }
        self.open_file(0);
        if let Some(it) = &mut self.current {
            it.seek_to_first();
        }
        self.advance_past_empty();
    }

    fn seek(&mut self, target: &[u8]) {
        let user = extract_user_key(target);
        let idx = self.files.partition_point(|f| f.largest_user_key() < user);
        if idx >= self.files.len() {
            self.current = None;
            self.file_index = self.files.len();
            return;
        }
        self.open_file(idx);
        if let Some(it) = &mut self.current {
            it.seek(target);
        }
        self.advance_past_empty();
    }

    fn next(&mut self) {
        if let Some(it) = &mut self.current {
            it.next();
        }
        self.advance_past_empty();
    }

    fn key(&self) -> &[u8] {
        self.current.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        self.status.clone()?;
        if let Some(it) = &self.current {
            it.status()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::make_internal_key;
    use crate::version::filenames::sst_file_name;
    use shield_env::{Env, FileKind, MemEnv};

    /// Builds an SST with the given user keys (seq 10) and returns meta.
    fn build(env: &MemEnv, number: u64, keys: &[&str]) -> Arc<FileMeta> {
        let path = shield_env::join_path("db", &sst_file_name(number));
        let file = env.new_writable_file(&path, FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(file, TableBuilderOptions::default());
        let mut sorted: Vec<&str> = keys.to_vec();
        sorted.sort_unstable();
        for k in &sorted {
            let ik = make_internal_key(k.as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("{k}@{number}").as_bytes()).unwrap();
        }
        let (_, size) = b.finish().unwrap();
        Arc::new(FileMeta {
            number,
            file_size: size,
            smallest: make_internal_key(sorted.first().unwrap().as_bytes(), 10, ValueType::Value),
            largest: make_internal_key(sorted.last().unwrap().as_bytes(), 10, ValueType::Value),
            dek_id: None,
        })
    }

    fn cache(env: &MemEnv) -> Arc<TableCache> {
        let files = crate::FileStore::new(Arc::new(env.clone()), None, Default::default());
        TableCache::new(files, "db".into(), None, 16, 0)
    }

    #[test]
    fn get_prefers_newer_l0_file() {
        let env = MemEnv::new();
        let old = build(&env, 1, &["k"]);
        let new = build(&env, 2, &["k"]);
        let mut v = Version::new();
        // L0 newest first.
        v.files[0] = vec![new, old];
        let tc = cache(&env);
        assert_eq!(v.get_opt(&tc, b"k", 100, true).unwrap(), GetResult::Found(b"k@2".to_vec()));
    }

    #[test]
    fn get_searches_deeper_levels() {
        let env = MemEnv::new();
        let l1 = build(&env, 3, &["a", "m"]);
        let l2 = build(&env, 4, &["z"]);
        let mut v = Version::new();
        v.files[1] = vec![l1];
        v.files[2] = vec![l2];
        let tc = cache(&env);
        assert_eq!(v.get_opt(&tc, b"m", 100, true).unwrap(), GetResult::Found(b"m@3".to_vec()));
        assert_eq!(v.get_opt(&tc, b"z", 100, true).unwrap(), GetResult::Found(b"z@4".to_vec()));
        assert_eq!(v.get_opt(&tc, b"q", 100, true).unwrap(), GetResult::NotFound);
    }

    #[test]
    fn multi_get_matches_serial_gets_across_levels() {
        let env = MemEnv::new();
        let l0_new = build(&env, 5, &["b", "k"]);
        let l0_old = build(&env, 4, &["b", "x"]);
        let l1a = build(&env, 1, &["a", "c"]);
        let l1b = build(&env, 2, &["m", "p"]);
        let l2 = build(&env, 3, &["z"]);
        let mut v = Version::new();
        v.files[0] = vec![l0_new, l0_old]; // newest first
        v.files[1] = vec![l1a, l1b];
        v.files[2] = vec![l2];
        let tc = cache(&env);
        let keys: Vec<&[u8]> =
            vec![b"a", b"b", b"c", b"k", b"m", b"p", b"q", b"x", b"z", b"zz"];
        let batched = v.multi_get_opt(&tc, &keys, 100, true);
        for (key, got) in keys.iter().zip(batched) {
            let serial = v.get_opt(&tc, key, 100, true).unwrap();
            assert_eq!(got.unwrap(), serial, "divergence on {:?}", String::from_utf8_lossy(key));
        }
        // Spot-check shadowing: "b" must come from the newer L0 file.
        let got = v.multi_get_opt(&tc, &[b"b"], 100, true);
        assert_eq!(got[0].as_ref().unwrap(), &GetResult::Found(b"b@5".to_vec()));
    }

    #[test]
    fn overlapping_files_filters_by_range() {
        let env = MemEnv::new();
        let a = build(&env, 1, &["a", "c"]);
        let b = build(&env, 2, &["e", "g"]);
        let c = build(&env, 3, &["i", "k"]);
        let mut v = Version::new();
        v.files[1] = vec![a, b, c];
        let hits = v.overlapping_files(1, Some(b"d"), Some(b"h"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].number, 2);
        let all = v.overlapping_files(1, None, None);
        assert_eq!(all.len(), 3);
        // Boundary inclusivity.
        let edge = v.overlapping_files(1, Some(b"g"), Some(b"i"));
        assert_eq!(edge.len(), 2);
    }

    #[test]
    fn level_iterator_concatenates() {
        let env = MemEnv::new();
        let f1 = build(&env, 1, &["a", "b"]);
        let f2 = build(&env, 2, &["c", "d"]);
        let tc = cache(&env);
        let mut it = LevelIterator::new(vec![f1, f2], tc, true);
        it.seek_to_first();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(extract_user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        // Seek into the second file directly.
        it.seek(&make_internal_key(b"c", u64::MAX >> 8, ValueType::Value));
        assert!(it.valid());
        assert_eq!(extract_user_key(it.key()), b"c");
        it.seek(&make_internal_key(b"x", u64::MAX >> 8, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn version_iterators_cover_all_sources() {
        let env = MemEnv::new();
        let l0a = build(&env, 1, &["a"]);
        let l0b = build(&env, 2, &["b"]);
        let l1 = build(&env, 3, &["c", "d"]);
        let mut v = Version::new();
        v.files[0] = vec![l0b, l0a];
        v.files[1] = vec![l1];
        let tc = cache(&env);
        let iters = v.iterators(&tc, true).unwrap();
        assert_eq!(iters.len(), 3); // two L0 + one level iterator
        let mut m = crate::iter::MergingIterator::new(iters);
        m.seek_to_first();
        let mut n = 0;
        while m.valid() {
            n += 1;
            m.next();
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn level_size_accounting() {
        let env = MemEnv::new();
        let f = build(&env, 1, &["a"]);
        let size = f.file_size;
        let mut v = Version::new();
        v.files[1] = vec![f];
        assert_eq!(v.level_size(1), size);
        assert_eq!(v.level_size(0), 0);
        assert_eq!(v.total_files(), 1);
        assert_eq!(v.live_files(), vec![1]);
    }
}
