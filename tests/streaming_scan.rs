//! The streaming table scanner against the cached block path.
//!
//! Whole-file scans (compaction, subcompaction ranges, `verify_integrity`)
//! read around the block cache, one storage read per ≥ 64 KiB span, and
//! cut blocks out of the span; point reads and user iterators read block
//! by block through `BlockFetcher`. Both end in the same verification
//! function, so for any file they must agree on every entry and on every
//! failure. This suite checks that across plain / EncFS / SHIELD ×
//! CRC (v1) / HMAC (v2) tables:
//!
//! - entry-for-entry equality for block sizes from 64 B to 128 KiB (one
//!   block larger than a span), empty and single-block tables, and a seek
//!   to every subcompaction boundary candidate;
//! - a tampered block inside a span fails with the same error (class and
//!   block offset) as the cached path, after the same verified prefix;
//! - the same for a tampered block a readahead batch reads as a follower:
//!   the scan fails where, and as, the scan without readahead does;
//! - a file truncated under an open table and hostile index handles fail
//!   cleanly;
//! - a soft read fault in the middle of a compaction is retried and the
//!   result equals an unfaulted run;
//! - the counters: a compaction does not touch the block cache's data
//!   side, verifies exactly the blocks it reads, and issues at most
//!   ⌈bytes / span⌉ + files reads for its inputs.

mod support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shield_core::perf::PerfGuard;
use shield_crypto::{crc32c, crc32c_extend, crc32c_masked};
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_lsm::cache::BlockCache;
use shield_lsm::compaction::{run_compaction, CompactionContext, CompactionTask};
use shield_lsm::iter::InternalIterator;
use shield_lsm::sst::builder::{TableBuilder, TableBuilderOptions};
use shield_lsm::sst::format::{COMPRESSION_NONE, FOOTER_LEN};
use shield_lsm::sst::{
    BlockBuilder, BlockHandle, Footer, Table, TableProperties, SCAN_SPAN_BYTES,
};
use shield_lsm::types::{extract_user_key, make_internal_key, ValueType, MAX_SEQUENCE};
use shield_lsm::version::edit::FileMeta;
use shield_lsm::version::filenames::sst_file_name;
use shield_lsm::version::table_cache::TableCache;
use shield_lsm::version::version::Version;
use shield_lsm::{
    Db, Error, FileStore, Integrity, IntegrityOptions, Options, ReadOptions, WriteOptions,
};
use support::{Mode, Store, ENGINE_KEY, MODES, PRIMARY};

const INTEGRITIES: [Integrity; 2] = [Integrity::Crc, Integrity::Hmac];

type Entry = (Vec<u8>, Vec<u8>);

/// Storage, crypto and integrity settings for one mode; `base` is the
/// attacker's view of the medium.
struct Fixture {
    base: MemEnv,
    files: FileStore,
}

impl Fixture {
    fn new(mode: Mode, integrity: Integrity) -> Fixture {
        let base = MemEnv::new();
        let integrity = IntegrityOptions { mode: integrity, key: ENGINE_KEY };
        let files = Store { integrity, ..Store::over(mode, Arc::new(base.clone())) }
            .files_for(PRIMARY);
        files.env.create_dir_all("db").expect("mkdir");
        Fixture { base, files }
    }

    /// A table cache with no open tables, over `cache` (or none).
    fn table_cache(&self, cache: Option<Arc<BlockCache>>) -> Arc<TableCache> {
        TableCache::new(self.files.clone(), "db".into(), cache, 64, 0)
    }

    fn table_options(&self, block_size: usize) -> TableBuilderOptions {
        TableBuilderOptions { block_size, ..TableBuilderOptions::default() }
    }

    fn build_table(&self, number: u64, entries: &[Entry], block_size: usize) -> Arc<FileMeta> {
        let (file, dek_id, mac_key) =
            self.files.create(&sst_path(number), FileKind::Sst).expect("writable");
        let opts = TableBuilderOptions { dek_id, mac_key, ..self.table_options(block_size) };
        let mut b = TableBuilder::new(file, opts);
        for (ikey, value) in entries {
            b.add(ikey, value).expect("add");
        }
        let (props, size) = b.finish().expect("finish");
        Arc::new(FileMeta {
            number,
            file_size: size,
            smallest: make_internal_key(&props.smallest_user_key, MAX_SEQUENCE, ValueType::Value),
            largest: make_internal_key(&props.largest_user_key, 0, ValueType::Deletion),
            dek_id: props.dek_id,
        })
    }

    /// Raw bytes of table `number` on the medium and the length of the
    /// encryption header that precedes the table's logical offset 0.
    fn raw(&self, meta: &FileMeta) -> (Vec<u8>, usize) {
        let raw = self.base.raw_content(&sst_path(meta.number)).expect("raw");
        let header = raw.len() - meta.file_size as usize;
        (raw, header)
    }
}

fn sst_path(number: u64) -> String {
    shield_env::join_path("db", &sst_file_name(number))
}

/// `n` user keys in order, `versions` entries each (newest first), with
/// pseudo-random value lengths around 100 B.
fn make_entries(n: u32, versions: u64) -> Vec<Entry> {
    let mut out = Vec::new();
    for i in 0..n {
        for v in (1..=versions).rev() {
            let seq = u64::from(i) * versions + v;
            let len = 60 + (i.wrapping_mul(2_654_435_761) >> 26) as usize;
            let value: Vec<u8> = (0..len).map(|j| (i as u8) ^ (j as u8) ^ (v as u8)).collect();
            out.push((
                make_internal_key(format!("key{i:06}").as_bytes(), seq, ValueType::Value),
                value,
            ));
        }
    }
    out
}

/// Entries from the iterator's current position to its end, and how it
/// ended.
fn drain(mut it: impl InternalIterator) -> (Vec<Entry>, Result<(), Error>) {
    let mut out = Vec::new();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next();
    }
    (out, it.status())
}

fn from_first(mut it: impl InternalIterator) -> (Vec<Entry>, Result<(), Error>) {
    it.seek_to_first();
    drain(it)
}

fn from_target(mut it: impl InternalIterator, target: &[u8]) -> (Vec<Entry>, Result<(), Error>) {
    it.seek(target);
    drain(it)
}

/// File offset of every data block, from the index's per-block sizes
/// (data blocks are laid out back to back from offset 0).
fn block_offsets(table: &Table) -> Vec<u64> {
    let mut offset = 0;
    table
        .index_spans()
        .expect("index")
        .into_iter()
        .map(|(_, bytes)| {
            let at = offset;
            offset += bytes;
            at
        })
        .collect()
}

#[test]
fn scanner_equals_cached_iterator_in_every_mode_and_block_size() {
    // (user keys, versions per key, block size)
    let shapes = [
        (0, 1, 4096),          // empty table
        (1, 1, 4096),          // one entry
        (30, 2, 4096),         // single block
        (400, 2, 64),          // one entry per block
        (900, 1, 300),         // a few entries per block, many blocks per span
        (3000, 2, 4096),       // the default shape, several spans
        (3000, 1, 128 * 1024), // every block larger than a span
    ];
    for mode in MODES {
        for integrity in INTEGRITIES {
            let fx = Fixture::new(mode, integrity);
            for (number, (keys, versions, block_size)) in shapes.into_iter().enumerate() {
                let number = number as u64 + 1;
                let what = format!("{mode:?}/{integrity:?} shape {keys}x{versions}@{block_size}");
                let entries = make_entries(keys, versions);
                fx.build_table(number, &entries, block_size);
                let table = fx.table_cache(None).get(number).expect("open");

                let (cached, status) = from_first(table.iter());
                status.expect("cached scan");
                assert_eq!(cached, entries, "{what}: cached path");
                let (streamed, status) = from_first(table.scan());
                status.expect("streaming scan");
                assert_eq!(streamed, entries, "{what}: streaming path");

                // Every subcompaction boundary is some block's last user
                // key, sought at MAX_SEQUENCE; take up to ~60 of them,
                // plus targets before the first and past the last key.
                let boundaries = table.index_spans().expect("index");
                let step = boundaries.len().div_ceil(60).max(1);
                let mut targets: Vec<Vec<u8>> = boundaries
                    .iter()
                    .step_by(step)
                    .chain(boundaries.last())
                    .map(|(user_key, _)| user_key.clone())
                    .collect();
                targets.push(b"a".to_vec());
                targets.push(b"zzz".to_vec());
                for user_key in targets {
                    let target = make_internal_key(&user_key, MAX_SEQUENCE, ValueType::Value);
                    let cached = from_target(table.iter(), &target);
                    let streamed = from_target(table.scan(), &target);
                    assert_eq!(
                        streamed,
                        cached,
                        "{what}: seek to {:?}",
                        String::from_utf8_lossy(&user_key)
                    );
                    let expected_from =
                        entries.partition_point(|(k, _)| extract_user_key(k) < user_key.as_slice());
                    assert_eq!(streamed.0.len(), entries.len() - expected_from, "{what}: seek");
                }
            }
        }
    }
}

#[test]
fn tampered_block_fails_like_the_cached_path_and_poisons_nothing_before_it() {
    for mode in MODES {
        for integrity in INTEGRITIES {
            let fx = Fixture::new(mode, integrity);
            // ~1 KiB blocks: a span holds about sixty of them.
            let entries = make_entries(2500, 1);
            let meta = fx.build_table(1, &entries, 1024);
            let (clean, header) = fx.raw(&meta);
            let table = fx.table_cache(None).get(1).expect("open");
            let offsets = block_offsets(&table);
            let boundaries = table.index_spans().expect("index");
            let per_span = SCAN_SPAN_BYTES / 1100;
            assert!(offsets.len() > 3 * per_span, "want several spans, got {}", offsets.len());
            drop(table);

            // First, second, mid-span, around the first span's end, deep
            // in a later span, and the last block.
            let victims =
                [0, 1, per_span / 2, per_span - 1, per_span + 1, 2 * per_span + 7, offsets.len() - 1];
            for victim in victims {
                let what = format!("{mode:?}/{integrity:?} block {victim}");
                let mut raw = clean.clone();
                raw[header + offsets[victim] as usize + 17] ^= 0x04;
                fx.base.set_raw_content(&sst_path(1), raw).expect("tamper");

                let table = fx.table_cache(None).get(1).expect("open tampered");
                let (cached, cached_end) = from_first(table.iter());
                let (streamed, streamed_end) = from_first(table.scan());
                let err = streamed_end.clone().expect_err("tampering must be detected");
                assert_eq!(streamed_end, cached_end, "{what}: same error, same offset");
                assert!(
                    err.to_string().contains(&format!("offset {}", offsets[victim])),
                    "{what}: {err}"
                );
                match integrity {
                    Integrity::Hmac => assert!(matches!(err, Error::IntegrityViolation(_)), "{what}"),
                    Integrity::Crc => assert!(matches!(err, Error::Corruption(_)), "{what}"),
                }
                // Everything before the victim was yielded, verified.
                let before = match victim {
                    0 => 0,
                    v => entries.partition_point(|(k, _)| {
                        extract_user_key(k) <= boundaries[v - 1].0.as_slice()
                    }),
                };
                assert_eq!(streamed, cached, "{what}: prefix");
                assert_eq!(streamed, entries[..before], "{what}: verified prefix");
            }
            fx.base.set_raw_content(&sst_path(1), clean).expect("restore");
        }
    }
}

/// A tampered block that a readahead batch brings in as a *follower* is
/// dropped there and read again when the scan stands on it: the scan
/// fails at that block with the error class and offset it has with
/// readahead off, and every earlier row is already out.
#[test]
fn tampered_follower_block_fails_the_readahead_scan_like_the_serial_one() {
    const DEPTH: usize = 15; // sixteen blocks per batch
    for mode in MODES {
        for integrity in INTEGRITIES {
            let fx = Fixture::new(mode, integrity);
            let entries = make_entries(2500, 1);
            let meta = fx.build_table(1, &entries, 1024);
            let (clean, header) = fx.raw(&meta);
            let offsets = block_offsets(&fx.table_cache(None).get(1).expect("open"));
            // Second slot of the first batch, deep in the second, last
            // slot of the third — and one block a batch starts on.
            for victim in [1, 16 + 9, 32 + 15, 64] {
                let what = format!("{mode:?}/{integrity:?} block {victim}");
                let mut raw = clean.clone();
                raw[header + offsets[victim] as usize + 17] ^= 0x04;
                fx.base.set_raw_content(&sst_path(1), raw).expect("tamper");

                let serial = fx.table_cache(Some(BlockCache::new(8 << 20))).get(1).expect("open");
                let (serial_rows, serial_end) = from_first(serial.iter());
                let cache = BlockCache::new(8 << 20);
                let ahead = TableCache::new(fx.files.clone(), "db".into(), Some(cache.clone()), 64, DEPTH)
                    .get(1)
                    .expect("open");
                let (rows, end) = from_first(ahead.iter());
                assert!(cache.stats().readahead_issued > 0, "{what}: never read ahead");
                let err = end.clone().expect_err("tampering must be detected");
                assert_eq!(end, serial_end, "{what}: same error, same offset");
                assert!(err.to_string().contains(&format!("offset {}", offsets[victim])), "{what}: {err}");
                match integrity {
                    Integrity::Hmac => assert!(matches!(err, Error::IntegrityViolation(_)), "{what}"),
                    Integrity::Crc => assert!(matches!(err, Error::Corruption(_)), "{what}"),
                }
                assert!(!rows.is_empty(), "{what}");
                assert_eq!(rows, serial_rows, "{what}: every earlier row is yielded");
            }
            fx.base.set_raw_content(&sst_path(1), clean).expect("restore");
        }
    }
}

#[test]
fn file_truncated_under_an_open_table_fails_cleanly() {
    for mode in [Mode::Plain, Mode::Shield] {
        for integrity in INTEGRITIES {
            let fx = Fixture::new(mode, integrity);
            let entries = make_entries(3000, 1);
            let meta = fx.build_table(1, &entries, 4096);
            let table = fx.table_cache(None).get(1).expect("open");
            let (mut raw, header) = fx.raw(&meta);
            // Cut in the middle of a block in the second span.
            raw.truncate(header + SCAN_SPAN_BYTES + SCAN_SPAN_BYTES / 2 + 100);
            fx.base.set_raw_content(&sst_path(1), raw).expect("truncate");

            let (cached, cached_end) = from_first(table.iter());
            let (streamed, streamed_end) = from_first(table.scan());
            assert!(matches!(streamed_end, Err(Error::Corruption(_))), "{streamed_end:?}");
            assert_eq!(streamed_end, cached_end);
            assert_eq!(streamed, cached);
            assert_eq!(streamed, entries[..streamed.len()]);
            assert!(!streamed.is_empty() && streamed.len() < entries.len());
            // And a fresh open of the footer-less file is an error, not a panic.
            assert!(fx.table_cache(None).get(1).is_err());
        }
    }
}

/// A v1 plaintext table assembled by hand: `blocks` are written back to
/// back, and the index holds exactly `index` (which may lie).
fn handmade_table(blocks: &[Vec<Entry>], index: impl Fn(&[BlockHandle]) -> Vec<(Vec<u8>, BlockHandle)>) -> Vec<u8> {
    fn append_block(file: &mut Vec<u8>, contents: &[u8]) -> BlockHandle {
        let handle = BlockHandle { offset: file.len() as u64, size: contents.len() as u64 };
        file.extend_from_slice(contents);
        file.push(COMPRESSION_NONE);
        let crc = crc32c_masked(crc32c_extend(crc32c(contents), &[COMPRESSION_NONE]));
        file.extend_from_slice(&crc.to_le_bytes());
        handle
    }
    let mut file = Vec::new();
    let mut handles = Vec::new();
    let mut entries = 0;
    for block in blocks {
        let mut b = BlockBuilder::new(16);
        for (k, v) in block {
            b.add(k, v);
            entries += 1;
        }
        handles.push(append_block(&mut file, &b.finish()));
    }
    let props = TableProperties { num_entries: entries, ..TableProperties::default() };
    let props_handle = append_block(&mut file, &props.encode());
    let mut index_block = BlockBuilder::new(1);
    for (key, handle) in index(&handles) {
        let mut v = Vec::new();
        handle.encode_varint(&mut v);
        index_block.add(&key, &v);
    }
    let index_handle = append_block(&mut file, &index_block.finish());
    let footer = Footer::v1(BlockHandle::default(), props_handle, index_handle).encode();
    assert_eq!(footer.len(), FOOTER_LEN);
    file.extend_from_slice(&footer);
    file
}

#[test]
fn hostile_index_handles_fail_cleanly() {
    let entries = make_entries(60, 1);
    let blocks: Vec<Vec<Entry>> = entries.chunks(20).map(<[Entry]>::to_vec).collect();
    let last_key = |b: &Vec<Entry>| b.last().expect("non-empty").0.clone();
    // The middle block's handle lies; its neighbours are honest.
    // (handle, whether both paths word the refusal identically)
    let hostile_handles = [
        (BlockHandle { offset: 0, size: (1 << 26) + 1 }, true), // > MAX_BLOCK_LEN
        (BlockHandle { offset: 0, size: u64::MAX - 3 }, true),  // length arithmetic wraps
        (BlockHandle { offset: 1 << 40, size: 100 }, true),     // far past EOF
        // offset + length wraps: the scanner refuses the extent before
        // reading, the cached path reads nothing and calls it truncated.
        (BlockHandle { offset: u64::MAX - 50, size: 100 }, false),
    ];
    for (hostile, same_message) in hostile_handles {
        let raw = handmade_table(&blocks, |h| {
            vec![
                (last_key(&blocks[0]), h[0]),
                (last_key(&blocks[1]), hostile),
                (last_key(&blocks[2]), h[2]),
            ]
        });
        let env = MemEnv::new();
        drop(env.new_writable_file("t.sst", FileKind::Sst).expect("create"));
        env.set_raw_content("t.sst", raw).expect("write");
        let file = env.new_random_access_file("t.sst", FileKind::Sst).expect("open");
        let table = Arc::new(Table::open(file, 1, None).expect("footer and index are honest"));
        let (cached, cached_end) = from_first(table.iter());
        let (streamed, streamed_end) = from_first(table.scan());
        assert!(matches!(streamed_end, Err(Error::Corruption(_))), "{hostile:?}: {streamed_end:?}");
        assert!(matches!(cached_end, Err(Error::Corruption(_))), "{hostile:?}: {cached_end:?}");
        if same_message {
            assert_eq!(streamed_end, cached_end, "{hostile:?}");
        }
        assert_eq!(streamed, cached, "{hostile:?}");
        assert_eq!(streamed, blocks[0], "{hostile:?}: the honest block before it is served");
    }
    // An honest hand-made table scans completely, and blocks the index
    // lists out of file order (each its own span) still scan correctly.
    let raw = handmade_table(&blocks, |h| {
        vec![(last_key(&blocks[0]), h[0]), (last_key(&blocks[1]), h[1]), (last_key(&blocks[2]), h[2])]
    });
    let env = MemEnv::new();
    drop(env.new_writable_file("t.sst", FileKind::Sst).expect("create"));
    env.set_raw_content("t.sst", raw).expect("write");
    let file = env.new_random_access_file("t.sst", FileKind::Sst).expect("open");
    let table = Arc::new(Table::open(file, 1, None).expect("open"));
    let (streamed, end) = from_first(table.scan());
    end.expect("clean scan");
    assert_eq!(streamed, entries);
}

/// Arms a seeded probabilistic SST read fault while a compaction runs.
struct FaultDuringCompaction {
    fenv: FaultInjectionEnv,
    enabled: AtomicBool,
}

impl shield_core::EventListener for FaultDuringCompaction {
    fn on_event(&self, event: &shield_core::Event) {
        if !self.enabled.load(Ordering::SeqCst) {
            return;
        }
        match event {
            shield_core::Event::CompactionBegin { .. } => {
                self.fenv.error_with_probability(FileKind::Sst, FaultOp::Read, 0.08, 42);
            }
            shield_core::Event::CompactionEnd { .. } => {
                self.fenv.disarm(FileKind::Sst, FaultOp::Read);
            }
            _ => {}
        }
    }
}

#[test]
fn soft_read_fault_mid_compaction_is_retried_to_the_same_result() {
    let run = |faulted: bool| {
        let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
        let listener =
            Arc::new(FaultDuringCompaction { fenv: fenv.clone(), enabled: AtomicBool::new(false) });
        let options = |l0_trigger: usize| {
            let mut o = Options::new(Arc::new(fenv.clone()))
                .with_integrity(Integrity::Hmac)
                .with_event_listener(listener.clone());
            o.compaction.l0_compaction_trigger = l0_trigger;
            o.max_background_retries = 200;
            o.background_retry_backoff = std::time::Duration::from_micros(50);
            o.background_retry_max_backoff = std::time::Duration::from_micros(200);
            o
        };
        // Six overlapping L0 files of ~250 KiB each, no compaction yet.
        {
            let db = Db::open(options(100), "db").expect("open");
            let value = vec![b'v'; 100];
            for round in 0..6u32 {
                for i in 0..2000u32 {
                    let key = format!("key{:06}", (i * 7 + round) % 6000);
                    db.put(&WriteOptions::default(), key.as_bytes(), &value).expect("put");
                }
                db.flush().expect("flush");
            }
        }
        // Reopen with a trigger the tree already exceeds: the compaction
        // starts at once, reading ~25 spans; each read fails with
        // probability 0.08, so most attempts die somewhere mid-file.
        listener.enabled.store(faulted, Ordering::SeqCst);
        let db = Db::open(options(4), "db").expect("reopen");
        db.compact_all().expect("compaction survives soft faults by retrying");
        listener.enabled.store(false, Ordering::SeqCst);
        fenv.disarm_all();
        let stats = db.statistics().snapshot();
        assert!(stats.compactions >= 1);
        if faulted {
            assert!(fenv.stats().injected_for(FaultOp::Read) > 0, "no fault was injected");
            assert!(stats.bg_retries > 0, "the fault was not retried");
        } else {
            assert_eq!(stats.bg_retries, 0);
        }
        let report = db.verify_integrity().expect("outputs verify");
        let scan = db.scan(&ReadOptions::new(), b"", usize::MAX).expect("scan");
        (report.entries, scan)
    };
    let clean = run(false);
    let faulted = run(true);
    assert_eq!(faulted.0, clean.0, "same number of entries in the compacted tree");
    assert_eq!(faulted.1, clean.1, "same user-visible contents");
}

#[test]
fn compaction_counters_cache_untouched_every_block_verified_reads_bounded() {
    for mode in MODES {
        let fx = Fixture::new(mode, Integrity::Hmac);
        let cache = BlockCache::new(1 << 20);
        let tc = fx.table_cache(Some(cache.clone()));
        // Four overlapping L0 inputs of ~330 KiB each.
        let all = make_entries(12_000, 1);
        let inputs: Vec<Arc<FileMeta>> = (0..4usize)
            .map(|f| {
                let slice: Vec<Entry> = all.iter().skip(f).step_by(4).cloned().collect();
                fx.build_table(10 + f as u64, &slice, 4096)
            })
            .collect();
        let input_bytes: u64 = inputs.iter().map(|m| m.file_size).sum();
        // Open the inputs first (a live engine has them open): what is
        // measured below is the merge, not the table opens.
        for meta in &inputs {
            tc.get(meta.number).expect("open input");
        }
        let mut version = Version::new();
        version.files[0] = inputs.clone();
        let task = CompactionTask::Merge {
            input_level: 0,
            output_level: 1,
            inputs: inputs.clone(),
            overlaps: Vec::new(),
        };

        let cache_before = cache.stats();
        let io_before = fx.base.io_stats().expect("io stats").snapshot();
        let stats_before = fx.files.stats.snapshot();
        let checks_before = stats_before.integrity_checks;
        let perf = PerfGuard::enable();
        let mut next = 100u64;
        let mut alloc = || {
            next += 1;
            next
        };
        let mut ctx = CompactionContext {
            table_cache: &tc,
            version: &version,
            smallest_snapshot: MAX_SEQUENCE,
            table_options: fx.table_options(4096),
            target_file_size: 512 * 1024,
            next_file_number: &mut alloc,
        };
        let outcome = run_compaction(&mut ctx, &task).expect("compaction");
        let blocks_read = shield_core::perf::take().blocks_read;
        drop(perf);
        let checks = fx.files.stats.snapshot().integrity_checks - checks_before;
        let reads = fx.base.io_stats().expect("io stats").snapshot().delta_since(&io_before).read_ops
            [FileKind::Sst.index()];
        let cache_after = cache.stats();

        // Nothing went through the data side of the cache. (The outputs'
        // index and filter blocks are admitted when the compaction opens
        // them for the foreground; that is the table open, not the scan.)
        assert_eq!(
            (cache_after.data_hits, cache_after.data_misses, cache_after.evictions),
            (cache_before.data_hits, cache_before.data_misses, cache_before.evictions),
            "{mode:?}"
        );
        assert_eq!(
            (
                cache_after.singleflight_waits,
                cache_after.readahead_issued,
                fx.files.stats.snapshot().batched_reads,
            ),
            (
                cache_before.singleflight_waits,
                cache_before.readahead_issued,
                stats_before.batched_reads,
            ),
            "{mode:?}"
        );
        // One verification per block read, no more and no fewer.
        assert!(blocks_read > input_bytes / 4200, "{mode:?}: read {blocks_read} blocks");
        assert_eq!(blocks_read, checks, "{mode:?}: every block read is verified exactly once");
        // One read per span for the inputs; opening an output costs at
        // most six reads (encryption header, footer, index, filter,
        // properties) and is not part of the scan.
        let span_reads = input_bytes.div_ceil(SCAN_SPAN_BYTES as u64) + inputs.len() as u64;
        let open_reads = 6 * outcome.outputs as u64;
        assert!(
            reads <= span_reads + open_reads,
            "{mode:?}: {reads} SST reads for {input_bytes} input bytes in {} files, {} outputs",
            inputs.len(),
            outcome.outputs
        );
        assert!(reads >= input_bytes / (SCAN_SPAN_BYTES as u64 + 4200), "{mode:?}: {reads} reads");
    }
}

#[test]
fn verify_integrity_rereads_blocks_whose_plaintext_is_cached() {
    let env = MemEnv::new();
    let db = Db::open(Options::new(Arc::new(env.clone())).with_integrity(Integrity::Hmac), "db")
        .expect("open");
    for i in 0..2000u32 {
        db.put(&WriteOptions::default(), format!("k{i:05}").as_bytes(), &[b'v'; 64]).expect("put");
    }
    db.flush().expect("flush");
    let clean = db.verify_integrity().expect("clean");
    assert_eq!(clean.entries, 2000);
    // Bring the first data block into the block cache, then flip one of
    // its bytes on the medium.
    assert!(db.get(&ReadOptions::new(), b"k00000").expect("get").is_some());
    let name =
        env.list_dir("db").expect("list").into_iter().find(|n| n.ends_with(".sst")).expect("sst");
    let path = format!("db/{name}");
    let mut raw = env.raw_content(&path).expect("raw");
    raw[40] ^= 0x01;
    env.set_raw_content(&path, raw).expect("tamper");
    // The cached plaintext still serves the get ...
    assert!(db.get(&ReadOptions::new(), b"k00000").expect("cached get").is_some());
    // ... but must not vouch for the bytes on disk.
    let err = db.verify_integrity().expect_err("verify_integrity must re-read storage");
    assert!(matches!(err, Error::IntegrityViolation(_)), "{err:?}");
}
