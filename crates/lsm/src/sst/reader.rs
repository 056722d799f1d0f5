//! Opens and reads SST files: footer → index → (cached, decrypted) blocks.
//!
//! Point reads and user iterators go through [`BlockFetcher`] (cache
//! lookup → single-flight verified read), so a `Table` no longer owns
//! private copies of its index and filter: they are cached, charged blocks
//! pinned for the table's lifetime, and survive the table as block cache
//! hits on reopen. Whole-file scans (compaction,
//! `verify_integrity`) take the other path, [`Table::scan`], which reads
//! around the cache in large spans (see [`crate::sst::scanner`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use shield_core::{perf, PerfCounter};
use shield_crypto::CipherContext;
use shield_env::RandomAccessFile;

use crate::cache::{BlockCache, BlockKind};
use crate::error::{Error, Result};
use crate::integrity::{IntegrityCtx, ReadIntegrity};
use crate::iter::InternalIterator;
use crate::sst::block::BlockIter;
use crate::sst::fetcher::{read_verified, BlockFetcher, BlockRequest, FetchedBlock, TableKeys};
use crate::sst::filter::{bloom_hash, BloomFilterReader};
use crate::sst::format::{BlockHandle, Footer, TableProperties, FOOTER_LEN, FOOTER_V2_LEN};
use crate::sst::scanner::TableScanner;
use crate::types::{extract_seq_type, extract_user_key, make_lookup_key, SequenceNumber, ValueType};

/// One resolved point lookup: the type and value of the newest entry
/// visible at the queried sequence, if the table holds one.
pub type LookupResult = Result<Option<(ValueType, Vec<u8>)>>;

/// An open, immutable table file.
pub struct Table {
    pub(super) file: Arc<dyn RandomAccessFile>,
    /// Unique id used as the block-cache key prefix. For standalone
    /// tables this is the file number; tables opened through a
    /// [`crate::version::TableCache`] get the cache's owner id folded in,
    /// so two databases sharing one block cache (sharding) can never
    /// collide on equal file numbers.
    table_id: u64,
    fetcher: Arc<BlockFetcher>,
    /// Index block, pinned (and charged) for the table's lifetime.
    pub(super) index: FetchedBlock,
    /// Filter block pin plus a reader sharing the block's allocation.
    filter: Option<(FetchedBlock, BloomFilterReader)>,
    props: TableProperties,
    /// Engine tickers (the `bloom_*` outcomes); `None` for standalone
    /// tables.
    stats: Option<Arc<crate::statistics::Statistics>>,
    /// The body's cipher (a table read as stored) and the HMAC
    /// verification context (`Some` iff the file is format v2); threaded
    /// into every block fetch.
    pub(super) keys: TableKeys,
}

impl Table {
    /// Opens a table. `file` must already be decryption-wrapped if the
    /// table is encrypted (see [`crate::encryption::EncryptionConfig`]).
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        table_id: u64,
        cache: Option<Arc<BlockCache>>,
    ) -> Result<Table> {
        Self::open_with_fetcher(
            file,
            table_id,
            table_id,
            BlockFetcher::new(cache, 0),
            None,
            ReadIntegrity::default(),
        )
    }

    /// Opens a table over a shared fetcher (the normal engine path: one
    /// fetcher per `TableCache`, so all tables share its cache and
    /// in-flight table). `table_id` keys the block cache and must
    /// be unique across every table the cache serves; `file_number` is the
    /// on-disk file number used in integrity-violation reports (the two
    /// differ when the cache is shared across databases). `integrity`
    /// supplies the MAC key that verifies format-v2 tables; the file's
    /// footer version — not the engine option — decides whether
    /// verification runs.
    pub fn open_with_fetcher(
        file: Arc<dyn RandomAccessFile>,
        table_id: u64,
        file_number: u64,
        fetcher: Arc<BlockFetcher>,
        stats: Option<Arc<crate::statistics::Statistics>>,
        integrity: ReadIntegrity,
    ) -> Result<Table> {
        Self::open_raw(file, None, table_id, file_number, fetcher, stats, integrity)
    }

    /// [`Table::open_with_fetcher`] over a file read as stored: with
    /// `cipher`, the table's body starts
    /// [`crate::encryption::FILE_HEADER_LEN`] bytes into `file` and is
    /// encrypted under it, and each block is decrypted in the pass that
    /// authenticates it. This is how the engine opens its tables
    /// ([`crate::FileStore::open_random`]).
    pub fn open_raw(
        file: Arc<dyn RandomAccessFile>,
        cipher: Option<CipherContext>,
        table_id: u64,
        file_number: u64,
        fetcher: Arc<BlockFetcher>,
        stats: Option<Arc<crate::statistics::Statistics>>,
        integrity: ReadIntegrity,
    ) -> Result<Table> {
        let mut keys = TableKeys { cipher, integrity: None };
        let len = file
            .len()?
            .checked_sub(keys.body())
            .filter(|len| *len as usize >= FOOTER_LEN)
            .ok_or_else(|| Error::Corruption("table smaller than footer".into()))?;
        let tail_len = (len as usize).min(FOOTER_V2_LEN);
        let tail_at = len - tail_len as u64;
        let mut footer_data = Vec::from(file.read_at(keys.body() + tail_at, tail_len)?);
        if let Some(cipher) = &keys.cipher {
            cipher.decrypt_at(tail_at, &mut footer_data);
        }
        let footer = Footer::decode_from_tail(&footer_data)?;
        keys.integrity = if footer.version >= 2 {
            Some(IntegrityCtx {
                key: shield_crypto::HmacKey::new(&integrity.key),
                context: footer.context,
                file_number,
                stats: stats.clone(),
                events: integrity.events.clone(),
            })
        } else {
            if integrity.expect_hmac {
                // Legacy file under Hmac mode: readable, unverified —
                // surfaced so operators can watch compaction retire it.
                if let Some(stats) = &stats {
                    stats
                        .integrity_unprotected_files
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            None
        };
        let index = fetcher.fetch(&file, table_id, footer.index, BlockKind::Index, true, &keys)?;
        let filter = if footer.filter.size > 0 {
            let block = fetcher.fetch(
                &file,
                table_id,
                footer.filter,
                BlockKind::Filter,
                true,
                &keys,
            )?;
            let reader = BloomFilterReader::from_bytes(block.block().raw_bytes().clone());
            Some((block, reader))
        } else {
            None
        };
        // Properties are decoded once into owned fields; no reason to
        // hold the raw block in cache.
        let props_raw = read_verified(file.as_ref(), footer.properties, &keys)?;
        let props = TableProperties::decode(&props_raw)?;
        Ok(Table { file, table_id, fetcher, index, filter, props, stats, keys })
    }

    /// Table-level metadata.
    #[must_use]
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// The id used for cache keys.
    #[must_use]
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// Loads a data block through the fetcher.
    fn data_block(&self, handle: BlockHandle, fill_cache: bool) -> Result<FetchedBlock> {
        self.fetcher.fetch(
            &self.file,
            self.table_id,
            handle,
            BlockKind::Data,
            fill_cache,
            &self.keys,
        )
    }

    /// Point lookup: returns the first entry for `user_key` visible at
    /// `seq`, as `(type, value)`, or `None`.
    pub fn get(&self, user_key: &[u8], seq: SequenceNumber) -> LookupResult {
        self.get_opt(user_key, seq, true)
    }

    /// [`Table::get`] with cache-admission control (`fill_cache = false`
    /// reads around the cache without disturbing residency).
    pub fn get_opt(&self, user_key: &[u8], seq: SequenceNumber, fill_cache: bool) -> LookupResult {
        self.get_at(&make_lookup_key(user_key, seq), bloom_hash(user_key), fill_cache)
    }

    /// [`Table::get_opt`] for a lookup key (`make_lookup_key`) and a
    /// [`bloom_hash`] of its user key that the caller computed once for
    /// every table it probes.
    pub fn get_at(&self, lookup: &[u8], hash: u32, fill_cache: bool) -> LookupResult {
        let user_key = extract_user_key(lookup);
        if !self.filter_passes(hash) {
            return Ok(None);
        }
        let mut index_iter = self.index.block().iter();
        index_iter.seek(lookup);
        if !index_iter.valid() {
            return Ok(None);
        }
        let handle = BlockHandle::decode_varint(index_iter.value())?;
        // Index keys are the blocks' exact last internal keys, so the
        // first block whose index key is >= the lookup key holds the first
        // entry >= the lookup key: one block decides the lookup.
        let block = self.data_block(handle, fill_cache)?;
        let mut it = block.block().iter();
        it.seek(lookup);
        let entry = entry_of(&it, user_key);
        self.credit_true_positive(&entry);
        entry
    }

    /// Probes the filter, if the table has one, with a key's
    /// [`bloom_hash`], and credits the answer: `bloom_useful` when it
    /// rules the key out, `bloom_full_positive` when it passes it. Every
    /// probe is one of the two.
    fn filter_passes(&self, hash: u32) -> bool {
        let Some((_, filter)) = &self.filter else { return true };
        perf::incr(PerfCounter::BloomProbes, 1);
        let passes = filter.may_contain_hash(hash);
        if let Some(stats) = &self.stats {
            let local = stats.local();
            let ticker = if passes { &local.bloom_full_positive } else { &local.bloom_useful };
            ticker.fetch_add(1, Ordering::Relaxed);
        }
        passes
    }

    /// Credits `bloom_true_positive` for a lookup the filter passed and
    /// the table answered: a filtered table that held the key.
    fn credit_true_positive(&self, entry: &LookupResult) {
        if let (Some(stats), Some(_), Ok(Some(_))) = (&self.stats, &self.filter, entry) {
            stats.local().bloom_true_positive.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batched point lookup: one slot per `(user key, bloom_hash)` pair,
    /// each equivalent to [`Table::get_at`] at the same `seq`, but every
    /// data block the batch needs is fetched through
    /// [`BlockFetcher::get_many`] — the file sees one `read_at_many`
    /// submission per round instead of one read per key. Errors are
    /// per-slot: a corrupt block fails only the keys that needed it.
    pub fn get_many_opt<'k>(
        &self,
        keys: impl ExactSizeIterator<Item = (&'k [u8], u32)>,
        seq: SequenceNumber,
        fill_cache: bool,
    ) -> Vec<LookupResult> {
        type Slot = Option<LookupResult>;
        let mut out: Vec<Slot> = vec![None; keys.len()];
        // (slot, lookup key, handle of the one block that decides it)
        let mut wanted: Vec<(usize, Vec<u8>, BlockHandle)> = Vec::new();
        for (i, (user_key, hash)) in keys.enumerate() {
            if !self.filter_passes(hash) {
                out[i] = Some(Ok(None));
                continue;
            }
            let lookup = make_lookup_key(user_key, seq);
            let mut index_iter = self.index.block().iter();
            index_iter.seek(&lookup);
            if !index_iter.valid() {
                out[i] = Some(Ok(None));
                continue;
            }
            match BlockHandle::decode_varint(index_iter.value()) {
                Ok(handle) => wanted.push((i, lookup, handle)),
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        // One deduplicated get_many over this file: as in `get_at`, the
        // block the index seek lands on decides each key.
        let mut req_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut reqs: Vec<BlockRequest> = Vec::new();
        for &(_, _, handle) in &wanted {
            req_of.entry(handle.offset).or_insert_with(|| {
                reqs.push(BlockRequest { handle, kind: BlockKind::Data });
                reqs.len() - 1
            });
        }
        let fetched = if reqs.is_empty() {
            Vec::new()
        } else {
            self.fetcher.get_many(&self.file, self.table_id, &reqs, fill_cache, &self.keys)
        };
        for (slot, lookup, handle) in wanted {
            let entry = match &fetched[req_of[&handle.offset]] {
                Err(e) => Err(e.clone()),
                Ok(block) => {
                    let mut it = block.block().iter();
                    it.seek(&lookup);
                    entry_of(&it, extract_user_key(&lookup))
                }
            };
            self.credit_true_positive(&entry);
            out[slot] = Some(entry);
        }
        out.into_iter().map(|slot| slot.expect("every key resolved")).collect()
    }

    /// Per-data-block `(last user key, stored bytes)` spans from the
    /// index block, in key order. Subcompaction planning uses these to
    /// place byte-balanced boundaries without reading any data blocks.
    /// Index keys are full internal keys (the builder records each
    /// block's last key verbatim), so stripping the trailer yields a
    /// real user key.
    pub fn index_spans(&self) -> Result<Vec<(Vec<u8>, u64)>> {
        let mut spans = Vec::new();
        let mut it = self.index.block().iter();
        it.seek_to_first();
        while it.valid() {
            let handle = BlockHandle::decode_varint(it.value())?;
            spans.push((
                extract_user_key(it.key()).to_vec(),
                handle.size + self.keys.trailer_len() as u64,
            ));
            it.next();
        }
        Ok(spans)
    }

    /// A full-table iterator through the block cache, reading up to the
    /// fetcher's readahead depth ahead of the read position. This is the
    /// user-iterator path; whole-file scans use [`Table::scan`].
    #[must_use]
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        self.iter_opt(true)
    }

    /// [`Table::iter`] with cache-admission control: `fill_cache = false`
    /// reads every block around the cache, and so without readahead —
    /// blocks read ahead would have nowhere to land.
    #[must_use]
    pub fn iter_opt(self: &Arc<Self>, fill_cache: bool) -> TableIterator {
        TableIterator {
            table: self.clone(),
            index_iter: self.index.block().iter(),
            data_iter: None,
            data_pin: None,
            fill_cache,
            status: Ok(()),
        }
    }

    /// A streaming full-table scanner that reads around the block cache,
    /// one storage round trip per ≥ 64 KiB span (compaction inputs,
    /// `verify_integrity`).
    #[must_use]
    pub fn scan(self: &Arc<Self>) -> TableScanner {
        TableScanner::new(self.clone())
    }
}

/// The entry `it` stands on, if it belongs to `user_key`: its type and a
/// copy of its value (the one copy a point lookup makes).
fn entry_of(it: &BlockIter, user_key: &[u8]) -> LookupResult {
    if !it.valid() || extract_user_key(it.key()) != user_key {
        return Ok(None);
    }
    match extract_seq_type(it.key()).1 {
        Some(vtype) => Ok(Some((vtype, it.value().to_vec()))),
        None => Err(Error::Corruption("bad value type in table entry".into())),
    }
}

/// Two-level iterator: index entries → data blocks.
///
/// Holds a pin on the current data block (so the cache cannot evict it
/// mid-iteration). With readahead on, a block that is not resident is
/// fetched together with the blocks after it, in one batched read.
pub struct TableIterator {
    table: Arc<Table>,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    /// Cache pin for the block `data_iter` walks (`None` when uncached).
    data_pin: Option<FetchedBlock>,
    /// Whether this iterator's reads look in, and land in, the cache.
    fill_cache: bool,
    status: Result<()>,
}

impl TableIterator {
    /// Loads the data block the index currently points at.
    fn init_data_block(&mut self) {
        self.data_iter = None;
        self.data_pin = None;
        if !self.index_iter.valid() {
            return;
        }
        match BlockHandle::decode_varint(self.index_iter.value()).and_then(|h| self.load(h)) {
            Ok(block) => {
                self.data_iter = Some(block.block().iter());
                self.data_pin = Some(block);
            }
            Err(e) => self.status = Err(e),
        }
    }

    /// Fetches the block at `handle`, where the index cursor stands. With
    /// readahead on and the block not resident, the same read brings in
    /// the following index entries' blocks that are not resident either —
    /// at most the readahead depth of them, and no more than fit one
    /// submission window with the cursor block — so a cold forward scan
    /// pays one round trip per batch instead of one per block.
    fn load(&self, handle: BlockHandle) -> Result<FetchedBlock> {
        let t = &self.table;
        let ahead = t.fetcher.readahead_blocks().min(t.fetcher.inflight_depth() - 1);
        let cache = match t.fetcher.cache() {
            Some(cache) if self.fill_cache && ahead > 0 => cache,
            _ => return t.data_block(handle, self.fill_cache),
        };
        let resident = |h: &BlockHandle| cache.contains(&(t.table_id, h.offset));
        if resident(&handle) {
            return t.data_block(handle, true);
        }
        let mut upcoming = self.index_iter.clone();
        let followers = std::iter::from_fn(|| {
            upcoming.next();
            if !upcoming.valid() {
                return None;
            }
            BlockHandle::decode_varint(upcoming.value()).ok()
        });
        let requests: Vec<BlockRequest> = std::iter::once(handle)
            .chain(followers.take(ahead).filter(|h| !resident(h)))
            .map(|handle| BlockRequest { handle, kind: BlockKind::Data })
            .collect();
        t.fetcher.read_ahead(&t.file, t.table_id, &requests, &t.keys)
    }

    /// Moves forward past empty blocks until the data iterator is valid or
    /// the table is exhausted.
    fn skip_empty_blocks_forward(&mut self) {
        while self.data_iter.as_ref().is_none_or(|d| !d.valid()) {
            if !self.index_iter.valid() || self.status.is_err() {
                self.data_iter = None;
                self.data_pin = None;
                return;
            }
            self.index_iter.next();
            self.init_data_block();
            if let Some(d) = &mut self.data_iter {
                d.seek_to_first();
            }
        }
    }
}

impl InternalIterator for TableIterator {
    fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(BlockIter::valid)
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek_to_first();
        }
        self.skip_empty_blocks_forward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek(target);
        }
        self.skip_empty_blocks_forward();
    }

    fn next(&mut self) {
        if let Some(d) = &mut self.data_iter {
            d.next();
        }
        self.skip_empty_blocks_forward();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        self.status.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, FileKind, MemEnv};

    fn build_table(env: &MemEnv, path: &str, n: u32, block_size: usize) -> Arc<Table> {
        let file = env.new_writable_file(path, FileKind::Sst).unwrap();
        let opts = TableBuilderOptions { block_size, ..TableBuilderOptions::default() };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..n {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        let file = env.new_random_access_file(path, FileKind::Sst).unwrap();
        Arc::new(Table::open(file, 1, None).unwrap())
    }

    #[test]
    fn get_existing_and_missing() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 1000, 512);
        let hit = t.get(b"key000500", 100).unwrap().unwrap();
        assert_eq!(hit.1, b"value-500");
        assert!(t.get(b"key999999", 100).unwrap().is_none());
        assert!(t.get(b"absent", 100).unwrap().is_none());
    }

    #[test]
    fn get_many_matches_serial_gets() {
        let env = MemEnv::new();
        // Small blocks so the batch spans many blocks, including keys
        // that fall exactly on block boundaries.
        let t = build_table(&env, "t.sst", 500, 256);
        let names: Vec<String> = (0..500)
            .step_by(7)
            .map(|i| format!("key{i:06}"))
            .chain(["key999999".into(), "absent".into(), "key000000".into()])
            .collect();
        let keys: Vec<&[u8]> = names.iter().map(String::as_bytes).collect();
        let batched = t.get_many_opt(hashed(&keys), 100, true);
        assert_eq!(batched.len(), keys.len());
        for (key, got) in keys.iter().zip(batched) {
            let serial = t.get_opt(key, 100, true).unwrap();
            assert_eq!(got.unwrap(), serial, "divergence on {:?}", String::from_utf8_lossy(key));
        }
        // Sequence visibility carries through the batched path.
        let one: [&[u8]; 1] = [b"key000001"];
        let early = t.get_many_opt(hashed(&one), 5, true);
        assert!(early[0].as_ref().unwrap().is_none());
    }

    /// Each key with its bloom hash, as a batched lookup takes them.
    fn hashed<'a>(keys: &'a [&'a [u8]]) -> impl ExactSizeIterator<Item = (&'a [u8], u32)> + 'a {
        keys.iter().map(|&k| (k, bloom_hash(k)))
    }

    /// True if `t`'s bloom filter rules out `user_key`.
    fn rules_out(t: &Table, user_key: &[u8]) -> bool {
        t.filter.as_ref().is_some_and(|(_, f)| !f.may_contain(user_key))
    }

    /// SST read ops `f` causes on `env`.
    fn sst_reads(env: &MemEnv, f: impl FnOnce()) -> u64 {
        let before = env.io_stats().unwrap().snapshot();
        f();
        env.io_stats().unwrap().snapshot().delta_since(&before).read_ops[FileKind::Sst.index()]
    }

    #[test]
    fn absent_key_admitted_by_filter_reads_exactly_one_block() {
        let env = MemEnv::new();
        // Many small blocks; absent keys of the form `key000123x` sort
        // between two stored keys, some of them between two blocks.
        let t = build_table(&env, "t.sst", 2000, 256);
        // ~0.05 % of absent keys pass a 16-bit filter: probe 52,000.
        let false_positives: Vec<String> = (0..2000)
            .flat_map(|i| ('a'..='z').map(move |c| format!("key{i:06}{c}")))
            .filter(|k| !rules_out(&t, k.as_bytes()))
            .collect();
        assert!(!false_positives.is_empty(), "no bloom false positive among 52,000 absent keys");
        for key in &false_positives {
            let reads = sst_reads(&env, || assert!(t.get(key.as_bytes(), 100).unwrap().is_none()));
            assert_eq!(reads, 1, "{key}: a filter false positive must cost one block read");
        }
        // The same through the batched path: one read per distinct block.
        let keys: Vec<&[u8]> = false_positives.iter().map(String::as_bytes).collect();
        let mut blocks = std::collections::HashSet::new();
        for key in &keys {
            let mut it = t.index.block().iter();
            it.seek(&make_lookup_key(key, 100));
            blocks.insert(BlockHandle::decode_varint(it.value()).unwrap().offset);
        }
        let reads = sst_reads(&env, || {
            let got = t.get_many_opt(hashed(&keys), 100, true);
            assert!(got.iter().all(|r| r.as_ref().unwrap().is_none()));
        });
        assert_eq!(reads, blocks.len() as u64);

        // Without a filter every absent key is "admitted": probe right
        // past each block's last key, the case a second probe was once
        // spent on.
        let file = env.new_writable_file("nofilter.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions {
            block_size: 256,
            bloom_bits_per_key: 0,
            ..TableBuilderOptions::default()
        };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..500u32 {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, b"v").unwrap();
        }
        b.finish().unwrap();
        let file = env.new_random_access_file("nofilter.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 2, None).unwrap());
        for (last_key, _) in t.index_spans().unwrap() {
            let mut between = last_key.clone();
            between.push(0);
            let reads = sst_reads(&env, || assert!(t.get(&between, 100).unwrap().is_none()));
            assert!(reads <= 1, "lookup past a block's last key read {reads} blocks");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48, ..proptest::ProptestConfig::default() })]

        /// One block decides every lookup: over random tables (block sizes
        /// 64 B–4 KiB, several versions per key, reads at every snapshot)
        /// `get` and `get_many` agree with a model for present and absent
        /// keys alike, so there is never an entry in the *next* block that
        /// a second probe could have found.
        #[test]
        fn one_block_decides_every_lookup(
            ids in proptest::collection::vec(0u16..96, 1..400),
            block_size in 64usize..4096,
            value_len in 0usize..120,
        ) {
            // (user key id, seq) pairs; seq = position + 1, so each id has
            // as many versions as it has occurrences.
            let mut model: std::collections::BTreeMap<(Vec<u8>, std::cmp::Reverse<u64>), Vec<u8>> =
                std::collections::BTreeMap::new();
            for (i, id) in ids.iter().enumerate() {
                let seq = i as u64 + 1;
                // Odd ids only: even ids are the absent keys in between.
                let key = format!("k{:05}", id * 2 + 1).into_bytes();
                let mut value = format!("{seq}:").into_bytes();
                value.resize(value.len() + value_len, b'v');
                model.insert((key, std::cmp::Reverse(seq)), value);
            }
            let env = MemEnv::new();
            let file = env.new_writable_file("p.sst", FileKind::Sst).unwrap();
            let opts = TableBuilderOptions { block_size, ..TableBuilderOptions::default() };
            let mut b = TableBuilder::new(file, opts);
            for ((key, seq), value) in &model {
                b.add(&make_internal_key(key, seq.0, ValueType::Value), value).unwrap();
            }
            b.finish().unwrap();
            let file = env.new_random_access_file("p.sst", FileKind::Sst).unwrap();
            let t = Arc::new(Table::open(file, 1, None).unwrap());
            let max_seq = ids.len() as u64;
            let probes: Vec<Vec<u8>> =
                (0..=194u32).map(|n| format!("k{n:05}").into_bytes()).collect();
            let keys: Vec<&[u8]> = probes.iter().map(Vec::as_slice).collect();
            for snapshot in [0, 1, max_seq / 3, max_seq / 2, max_seq, max_seq + 7] {
                let batched = t.get_many_opt(hashed(&keys), snapshot, true);
                for (key, batched) in keys.iter().zip(batched) {
                    let expected = model
                        .range((key.to_vec(), std::cmp::Reverse(snapshot))..)
                        .next()
                        .filter(|((k, _), _)| k == key)
                        .map(|(_, v)| (ValueType::Value, v.clone()));
                    proptest::prop_assert_eq!(&t.get(key, snapshot).unwrap(), &expected);
                    proptest::prop_assert_eq!(&batched.unwrap(), &expected);
                }
            }
        }
    }

    #[test]
    fn get_respects_sequence_visibility() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 10, 4096);
        // All entries written at seq 10: invisible at seq 5.
        assert!(t.get(b"key000001", 5).unwrap().is_none());
        assert!(t.get(b"key000001", 10).unwrap().is_some());
    }

    #[test]
    fn iterator_scans_everything_in_order() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 500, 256);
        let mut it = t.iter();
        it.seek_to_first();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while it.valid() {
            let k = it.key().to_vec();
            if let Some(p) = &prev {
                assert!(crate::types::internal_key_cmp(p, &k) == std::cmp::Ordering::Less);
            }
            prev = Some(k);
            count += 1;
            it.next();
        }
        assert_eq!(count, 500);
        it.status().unwrap();
    }

    #[test]
    fn iterator_seek_mid_table() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 500, 256);
        let mut it = t.iter();
        it.seek(&make_internal_key(b"key000250", u64::MAX >> 8, ValueType::Value));
        assert!(it.valid());
        assert_eq!(extract_user_key(it.key()), b"key000250");
        // Count remaining.
        let mut rest = 0;
        while it.valid() {
            rest += 1;
            it.next();
        }
        assert_eq!(rest, 250);
    }

    #[test]
    fn corrupted_block_detected() {
        let env = MemEnv::new();
        build_table(&env, "t.sst", 100, 4096);
        let mut raw = env.raw_content("t.sst").unwrap();
        raw[10] ^= 0xff; // corrupt inside first data block
        {
            let mut f = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
            f.append(&raw).unwrap();
            f.sync().unwrap();
        }
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 1, None).unwrap()); // footer/index intact
        let err = t.get(b"key000001", 100).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn bloom_filter_short_circuits() {
        let env = MemEnv::new();
        let t = build_table(&env, "t.sst", 1000, 512);
        // A key far outside the table: bloom should rule it out.
        let mut ruled_out = 0;
        for i in 0..100 {
            if rules_out(&t, format!("zzz-{i}").as_bytes()) {
                ruled_out += 1;
            }
        }
        assert!(ruled_out > 90, "bloom ruled out only {ruled_out}/100");
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 1000, 512);
            drop(t);
        }
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let _ = t.get(b"key000100", 100).unwrap();
        let h0 = cache.stats().hits();
        let _ = t.get(b"key000100", 100).unwrap();
        let h1 = cache.stats().hits();
        assert!(h1 > h0, "second read should hit the cache");
    }

    #[test]
    fn index_and_filter_are_cached_and_pinned() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 1000, 512);
            drop(t);
        }
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let s = cache.stats();
        assert_eq!(s.index_misses, 1, "index block admitted via fetcher");
        assert_eq!(s.filter_misses, 1, "filter block admitted via fetcher");
        assert!(s.pinned_bytes > 0, "index/filter pins are charged");
        assert!(cache.usage() as u64 >= s.pinned_bytes);
        // Reopening the same file hits the cache for both blocks.
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t2 = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let s = cache.stats();
        assert_eq!((s.index_hits, s.filter_hits), (1, 1));
        drop(t);
        drop(t2);
        assert_eq!(cache.stats().pinned_bytes, 0, "pins released with tables");
    }

    #[test]
    fn fill_cache_false_reads_around_cache() {
        let env = MemEnv::new();
        {
            let t = build_table(&env, "t.sst", 1000, 512);
            drop(t);
        }
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 7, Some(cache.clone())).unwrap());
        let before = cache.len();
        let hit = t.get_opt(b"key000500", 100, false).unwrap().unwrap();
        assert_eq!(hit.1, b"value-500");
        assert_eq!(cache.len(), before, "no-fill get must not admit data blocks");
    }

    #[test]
    fn readahead_iterator_scans_correctly() {
        let env = MemEnv::new();
        drop(build_table(&env, "t.sst", 500, 256));
        let cache = BlockCache::new(1 << 20);
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let fetcher = BlockFetcher::new(Some(cache.clone()), 4);
        let t = Arc::new(
            Table::open_with_fetcher(file, 7, 7, fetcher, None, ReadIntegrity::default()).unwrap(),
        );
        let blocks = t.index_spans().unwrap().len() as u64;
        let scan = |mut it: TableIterator| {
            it.seek_to_first();
            let mut count = 0;
            while it.valid() {
                count += 1;
                it.next();
            }
            it.status().unwrap();
            count
        };

        // Around the cache there is nowhere to read ahead into: every
        // block is its own read and residency does not move.
        let (resident, usage) = (cache.len(), cache.usage());
        let reads = sst_reads(&env, || assert_eq!(scan(t.iter_opt(false)), 500));
        assert_eq!(reads, blocks);
        let s = cache.stats();
        assert_eq!((cache.len(), cache.usage()), (resident, usage));
        assert_eq!((s.data_hits, s.data_misses, s.readahead_issued), (0, 0, 0));

        // Depth 4: the cold scan reads five blocks per batch, each block
        // once; every follower is issued once and useful once.
        let batches = blocks.div_ceil(5);
        let reads = sst_reads(&env, || assert_eq!(scan(t.iter()), 500));
        assert_eq!(reads, blocks);
        let s = cache.stats();
        assert_eq!((s.readahead_issued, s.readahead_useful), (blocks - batches, blocks - batches));
        assert_eq!((s.data_misses, s.data_hits), (batches, blocks - batches));

        // Warm, there is nothing left to read or to read ahead.
        let reads = sst_reads(&env, || assert_eq!(scan(t.iter()), 500));
        assert_eq!(reads, 0);
        let s = cache.stats();
        assert_eq!((s.readahead_issued, s.readahead_useful), (blocks - batches, blocks - batches));
    }

    #[test]
    fn hmac_table_end_to_end_get_scan_and_tamper() {
        let key = [5u8; 32];
        let env = MemEnv::new();
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions {
            block_size: 256,
            mac_key: Some(key),
            ..TableBuilderOptions::default()
        };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..300u32 {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        let open = |env: &MemEnv| {
            let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
            Table::open_with_fetcher(
                file,
                9,
                9,
                BlockFetcher::new(None, 0),
                None,
                ReadIntegrity { key, expect_hmac: true, events: None },
            )
        };
        let t = Arc::new(open(&env).unwrap());
        // Gets and full scans verify every block and succeed untampered.
        assert_eq!(t.get(b"key000100", 100).unwrap().unwrap().1, b"value-100");
        let mut it = t.iter();
        it.seek_to_first();
        let mut count = 0;
        while it.valid() {
            count += 1;
            it.next();
        }
        assert_eq!(count, 300);
        it.status().unwrap();
        // Flip a bit inside the first data block's contents: the scan
        // must die with IntegrityViolation.
        let mut raw = env.raw_content("t.sst").unwrap();
        raw[10] ^= 0x01;
        env.set_raw_content("t.sst", raw).unwrap();
        let t = Arc::new(open(&env).unwrap());
        let mut it = t.iter();
        it.seek_to_first();
        while it.valid() {
            it.next();
        }
        let err = it.status().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn legacy_table_under_hmac_mode_bumps_unprotected_gauge() {
        let env = MemEnv::new();
        build_table(&env, "t.sst", 100, 4096); // v1 file
        let stats = crate::statistics::Statistics::new();
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let t = Table::open_with_fetcher(
            file,
            3,
            3,
            BlockFetcher::new(None, 0),
            Some(stats.clone()),
            ReadIntegrity { key: [1u8; 32], expect_hmac: true, events: None },
        )
        .unwrap();
        assert_eq!(stats.snapshot().integrity_unprotected_files, 1);
        // Still fully readable (and CRC-checked, not MAC-checked).
        assert!(t.get(b"key000050", 100).unwrap().is_some());
        assert_eq!(stats.snapshot().integrity_checks, 0);
    }

    #[test]
    fn works_with_encrypted_file_layer() {
        use shield_crypto::Algorithm;
        use shield_kds::{DekResolver, KdsConfig, LocalKds, ServerId};

        let env = MemEnv::new();
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let resolver =
            Arc::new(DekResolver::new(kds, None, ServerId(1), Algorithm::Aes128Ctr));
        let cfg = crate::encryption::EncryptionConfig::new(resolver);
        let (file, dek_id) = cfg.new_writable(&env, "enc.sst", FileKind::Sst).unwrap();
        let mut b = TableBuilder::new(
            file,
            TableBuilderOptions { dek_id: Some(dek_id), ..TableBuilderOptions::default() },
        );
        for i in 0..200u32 {
            let ik = make_internal_key(format!("k{i:05}").as_bytes(), 3, ValueType::Value);
            b.add(&ik, b"secret-value").unwrap();
        }
        b.finish().unwrap();
        // Raw bytes on disk must not contain the key material.
        let raw = env.raw_content("enc.sst").unwrap();
        assert!(!raw.windows(6).any(|w| w == b"k00100"));
        assert!(!raw.windows(12).any(|w| w == b"secret-value"));
        // And reading through the decryption layer works.
        let file = cfg.open_random(&env, "enc.sst", FileKind::Sst).unwrap();
        let t = Arc::new(Table::open(file, 1, None).unwrap());
        assert_eq!(t.properties().dek_id, Some(dek_id));
        let hit = t.get(b"k00100", 100).unwrap().unwrap();
        assert_eq!(hit.1, b"secret-value");
    }
}
