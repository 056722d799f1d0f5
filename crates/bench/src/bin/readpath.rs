//! Read-path benchmark over disaggregated storage: readrandom, 8-thread
//! hot-key single-flight coalescing, `multi_get(64)` against 64 serial
//! gets, and sequential scans with and without readahead, in three
//! encryption modes (plain, EncFS, SHIELD), all over one fill per mode.
//!
//! The setup is [`harness::ds_read_store`] over the paper's DS link, so
//! every cache miss costs ~an RTT (RTTs of concurrent requests overlap,
//! bandwidth is FIFO-shared, and a `read_at_many` batch pays one RTT).
//! That makes the read-path behaviors directly measurable:
//!
//! - **Single-flight.** Eight threads issuing `get`s for the same cold
//!   key miss the same `(table, offset)`; the fetcher must coalesce them
//!   into one remote read. The dedup ratio (cache misses per underlying
//!   read) must exceed 1.
//! - **multi_get.** 64 serial cold gets pay ~64 RTTs; `multi_get`
//!   partitions the batch per file and issues one bounded-depth
//!   `read_at_many` per file, paying ~one RTT per submission window.
//!   The batch must reach the batched read path (`batched_reads` > 0);
//!   the full run gates on a ≥ 4x speedup in SHIELD mode.
//! - **Readahead.** A cold sequential scan with `readahead_blocks = 16`
//!   fetches each uncached block together with the blocks after it — one
//!   `read_at_many` window per batch — and must beat the serial
//!   no-readahead scan. The full run gates on a ≥ 2x speedup.
//! - **The skip rule.** One SHIELD store in memory whose hot keys hold
//!   1,000 versions each across three L0 files and the memtable: a full
//!   scan must re-seek those runs (`version_chain_reseeks` > 0) and take
//!   at most 3 merge steps per returned row, in both modes.
//! - **One round trip per get.** A SHIELD store over the DS link with
//!   every key compacted below L0 and one key in eight rewritten into L0
//!   above them: a cold get (`fill_cache: false`) of a key below probes
//!   the L0 table's filter first, and reads a second block — a second
//!   round trip — only when that filter passes the key. The row reports
//!   `remote_reads_per_get` and `filter_fp_rate` (false positives per
//!   probe of a table that did not hold the key); the verify tier fails
//!   above 0.2 % (16-bit filters pass ~0.05 %, 10-bit ones ~0.8 %), and
//!   the bin fails unless every read beyond one per get is a false
//!   positive.
//! - **What a scan pays per row.** Cached 50-row scans (mixgraph's
//!   length) over one SHIELD store in memory whose merge holds the
//!   memtable and three L0 tables: `scan_ns_per_row`.
//! - **Key comparisons.** The engine's user-key comparator
//!   (`types::user_key_cmp`) beside `[u8]::cmp`, on shuffled 16-byte
//!   benchmark keys (zero-padded digits, so the first word is shared) and
//!   on 128-byte keys sharing a 120-byte prefix: ns per comparison. The
//!   full run fails if the engine's is more than a quarter slower than
//!   `[u8]::cmp` on either.
//! - **The memtable.** One full memtable at the engine's default 4 MiB
//!   write buffer (16-byte keys, 100-byte values, inserted in random
//!   order): ns per insert while filling it, ns per cached `get` of a
//!   present key and of an absent one, then ns per rewrite of every
//!   present key. A get and a rewrite find the key's node through the
//!   table's hash index, with no skiplist descent; a new key pays one. The
//!   full run fails if a rewrite costs more than an insert.
//! - **Reader scaling.** One SHIELD + HMAC store in memory, cold gets
//!   (`fill_cache: false`, so every get reads, decrypts and verifies its
//!   data block) on one thread and then on two: gets/s per thread and the
//!   2-to-1 ratio of total gets/s. On a 2-core host a read path whose
//!   readers write no shared cache line scales toward 2x; `--smoke`
//!   asserts both passes complete.
//!
//! `--smoke` (the verify tier) only asserts that each mechanism
//! *engages*; the committed full-mode `BENCH_readpath.json` is the perf
//! record.

use std::cmp::Ordering;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use shield_bench::harness::{self, ds_key, open_cold, scan_all, Bench};
use shield_bench::rng::Rng;
use shield_bench::workloads::key_bytes;
use shield_bench::{SystemKind, SystemStore, Tuning};
use shield_env::{FileKind, MemEnv, NetworkModel};
use shield_lsm::memtable::MemTable;
use shield_lsm::types::{user_key_cmp, ValueType};
use shield_lsm::{Integrity, ReadOptions, WriteOptions};

const MISS_THREADS: usize = 8;
const HOT_KEYS: u64 = 32;
const MULTI_GET_BATCH: usize = 64;
/// Readahead depth of [`run_seq_scan`]'s second pass.
const SCAN_READAHEAD_BLOCKS: usize = 16;

/// Uniform random gets over the full key space, cold cache at the start.
fn run_readrandom(bench: &mut Bench, store: &SystemStore, keys: u64, ops: u64) {
    let sys = open_cold(store, |opts| opts);
    let ropts = ReadOptions::default();
    let mut rng = Rng::new(0x0ead_ca11);
    let start = Instant::now();
    for _ in 0..ops {
        let k = rng.next_below(keys);
        assert!(sys.db().get(&ropts, &ds_key(k)).expect("get").is_some(), "fill lost key {k}");
    }
    let secs = start.elapsed().as_secs_f64();
    let s = sys.db().statistics().snapshot();
    let ops_per_sec = harness::ratio(ops as f64, secs);
    println!(
        "  {:>6}: readrandom {:>7.0} ops/s",
        store.kind().slug(),
        ops_per_sec.unwrap_or(f64::NAN)
    );
    let j = bench.json();
    j.open_obj("readrandom");
    j.field_u64("ops", ops);
    j.field_f64("secs", secs);
    j.field_opt_f64("ops_per_sec", ops_per_sec);
    j.field_u64("cache_hits", s.block_cache_hits);
    j.field_u64("cache_misses", s.block_cache_misses);
    j.close_obj();
}

/// For each of `HOT_KEYS` cold keys, eight threads `get` it at the same
/// instant. Under an RTT-dominated env the seven late misses must join
/// the leader's in-flight read instead of issuing their own.
fn run_single_flight(bench: &mut Bench, store: &SystemStore, keys: u64) {
    let label = store.kind().slug();
    let sys = open_cold(store, |opts| opts);
    let db = sys.db();
    let stride = keys / HOT_KEYS;
    for h in 0..HOT_KEYS {
        let key = ds_key(h * stride);
        let barrier = Barrier::new(MISS_THREADS);
        std::thread::scope(|scope| {
            for _ in 0..MISS_THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let got = db.get(&ReadOptions::default(), &key).expect("get");
                    assert!(got.is_some(), "hot key vanished");
                });
            }
        });
    }
    let s = db.statistics().snapshot();
    let misses = s.block_cache_misses;
    let waits = s.block_cache_singleflight_waits;
    // Misses per underlying read; `null` when no miss went to storage.
    let dedup_ratio = harness::ratio(misses as f64, misses.saturating_sub(waits) as f64);
    let shown = dedup_ratio.unwrap_or(f64::NAN);
    println!("  {label:>6}: single-flight dedup {shown:>5.2}x ({waits} waits / {misses} misses)");
    let j = bench.json();
    j.open_obj("single_flight");
    j.field_u64("hot_keys", HOT_KEYS);
    j.field_u64("cache_misses", misses);
    j.field_u64("singleflight_waits", waits);
    j.field_opt_f64("dedup_ratio", dedup_ratio);
    j.close_obj();
    bench.engaged(
        &format!("{label} single-flight dedup ratio {shown:.2} > 1 ({waits} waits)"),
        dedup_ratio.is_some_and(|r| r > 1.0),
    );
}

/// `rounds` distinct batches of `MULTI_GET_BATCH` cold keys each. Every
/// round reopens the database (cold block cache) twice — once for the
/// serial baseline, once for the batched run — over the same key set.
fn run_multi_get(bench: &mut Bench, store: &SystemStore, keys: u64, rounds: u64) {
    let label = store.kind().slug();
    let ropts = ReadOptions::default();
    let mut serial_secs = 0.0;
    let mut batched_secs = 0.0;
    let mut stats = None;
    for round in 0..rounds {
        // Stride the round's keys across the whole space so every key
        // lands in a different (cold) block where possible.
        let stride = keys / MULTI_GET_BATCH as u64;
        let batch: Vec<Vec<u8>> = (0..MULTI_GET_BATCH as u64)
            .map(|i| ds_key((i * stride + round * (stride / rounds).max(1)) % keys))
            .collect();
        let refs: Vec<&[u8]> = batch.iter().map(Vec::as_slice).collect();

        let sys = open_cold(store, |opts| opts);
        let start = Instant::now();
        for key in &refs {
            assert!(sys.db().get(&ropts, key).expect("serial get").is_some(), "fill lost a key");
        }
        serial_secs += start.elapsed().as_secs_f64();

        let sys = open_cold(store, |opts| opts);
        let start = Instant::now();
        let results = sys.db().multi_get(&ropts, &refs);
        batched_secs += start.elapsed().as_secs_f64();
        for r in results {
            assert!(r.expect("batched get").is_some(), "multi_get lost a key");
        }
        stats = Some(sys.db().statistics().snapshot());
    }
    let s = stats.expect("at least one round");
    let speedup = harness::ratio(serial_secs, batched_secs);
    let shown = speedup.unwrap_or(f64::NAN);
    println!(
        "  {label:>6}: multi_get({MULTI_GET_BATCH}) {batched_secs:.4}s vs serial \
         {serial_secs:.4}s ({shown:.2}x, {} submissions / {} reads)",
        s.batched_reads, s.batch_read_requests,
    );
    let j = bench.json();
    j.open_obj("multi_get");
    j.field_u64("batch", MULTI_GET_BATCH as u64);
    j.field_u64("rounds", rounds);
    j.field_f64("serial_secs", serial_secs);
    j.field_f64("batched_secs", batched_secs);
    j.field_opt_f64("speedup", speedup);
    j.field_u64("batched_reads", s.batched_reads);
    j.field_u64("batch_read_requests", s.batch_read_requests);
    j.close_obj();
    bench.engaged(
        &format!(
            "{label} multi_get batched: {} requests over {} submissions",
            s.batch_read_requests, s.batched_reads
        ),
        s.batched_reads > 0 && s.batch_read_requests > s.batched_reads,
    );
    if store.kind() == SystemKind::Shield {
        bench.full_gate(
            &format!("shield multi_get speedup {shown:.2}x >= 4x"),
            speedup.is_some_and(|s| s >= 4.0),
        );
    }
}

/// A cold scan without readahead, then with [`SCAN_READAHEAD_BLOCKS`].
/// The scan must read ahead in both modes and, in a full run, beat the
/// serial scan by ≥ 2x — it pays one round trip per batch of blocks
/// instead of one per block.
fn run_seq_scan(bench: &mut Bench, store: &SystemStore, keys: u64) {
    let label = store.kind().slug();
    let (base_entries, base_secs) = scan_all(&open_cold(store, |opts| opts));
    let sys = open_cold(store, |opts| opts.with_readahead_blocks(SCAN_READAHEAD_BLOCKS));
    let (entries, secs) = scan_all(&sys);
    assert_eq!(base_entries, entries, "readahead changed the scan's entry count");
    assert_eq!(entries, keys, "scan missed entries");
    let stats = sys.db().statistics().snapshot();
    let speedup = harness::ratio(base_secs, secs);
    let shown = speedup.unwrap_or(f64::NAN);
    println!(
        "  {label:>6}: scan {base_secs:.3}s -> {secs:.3}s ({shown:.2}x, {} prefetches)",
        stats.readahead_issued
    );
    let j = bench.json();
    j.open_obj("seq_scan");
    j.field_u64("entries", entries);
    j.field_f64("no_readahead_secs", base_secs);
    j.field_f64("readahead_secs", secs);
    j.field_u64("readahead_issued", stats.readahead_issued);
    j.field_u64("readahead_useful", stats.readahead_useful);
    j.field_opt_f64("speedup", speedup);
    j.close_obj();
    bench.engaged(&format!("{label} scan with readahead prefetched"), stats.readahead_issued > 0);
    bench.full_gate(
        &format!("{label} readahead speedup {shown:.2}x >= 2x"),
        speedup.is_some_and(|s| s >= 2.0),
    );
}

/// Keys of the version-chain row; one in `CHAIN_HOT_STRIDE` of them is
/// hot.
const CHAIN_KEYS: u64 = 2_000;
const CHAIN_HOT_STRIDE: usize = 100;
/// Write rounds of the hot keys: each of the first three ends in a flush
/// (three L0 files, under the compaction trigger), the last stays in the
/// memtable.
const CHAIN_ROUNDS: u32 = 4;
const CHAIN_VERSIONS_PER_ROUND: u32 = 250;
/// A scan's merge steps per returned row with the skip rule engaged (one
/// to leave each row, plus the entries it steps over); ~11 without it.
const MAX_CHAIN_STEPS_PER_ROW: f64 = 3.0;

/// Mixgraph's hot keys in miniature: one key in a hundred holds 1,000
/// versions, 250 in each of three L0 files and the memtable, and a full
/// scan returns one row per key. The skip rule must re-seek those runs
/// rather than step through them.
fn run_version_chain(bench: &mut Bench) {
    let store = SystemStore::new(
        SystemKind::Shield,
        Arc::new(MemEnv::new()),
        "chain",
        Tuning::default(),
    );
    let sys = store.open().expect("open");
    let db = sys.db();
    let w = WriteOptions::default();
    for k in 0..CHAIN_KEYS {
        db.put(&w, &ds_key(k), b"cold").expect("put");
    }
    for round in 0..CHAIN_ROUNDS {
        for version in 0..CHAIN_VERSIONS_PER_ROUND {
            for k in (0..CHAIN_KEYS).step_by(CHAIN_HOT_STRIDE) {
                db.put(&w, &ds_key(k), format!("v{round}.{version}").as_bytes()).expect("put");
            }
        }
        if round + 1 < CHAIN_ROUNDS {
            db.flush().expect("flush");
        }
    }
    let before = db.statistics().snapshot();
    let start = Instant::now();
    let rows = db.scan(&ReadOptions::default(), b"", usize::MAX).expect("scan");
    let scan_us = start.elapsed().as_secs_f64() * 1e6;
    let s = db.statistics().snapshot().delta_since(&before);
    assert_eq!(rows.len() as u64, CHAIN_KEYS, "version-chain scan lost rows");
    let newest = format!("v{}.{}", CHAIN_ROUNDS - 1, CHAIN_VERSIONS_PER_ROUND - 1);
    assert_eq!(rows[0].1, newest.as_bytes(), "version-chain scan returned an old version");
    let steps_per_row = (s.iter_skipped + CHAIN_KEYS) as f64 / CHAIN_KEYS as f64;
    println!(
        "  version chain: {CHAIN_KEYS} rows, {} skipped, {} re-seeks, {steps_per_row:.2} \
         steps/row, {scan_us:.0} us",
        s.iter_skipped, s.iter_reseeks
    );
    let j = bench.json();
    j.field_u64("version_chain_rows", CHAIN_KEYS);
    j.field_u64("version_chain_skipped", s.iter_skipped);
    j.field_u64("version_chain_reseeks", s.iter_reseeks);
    j.field_f64("version_chain_steps_per_row", steps_per_row);
    j.field_f64("version_chain_scan_us", scan_us);
    bench.engaged("the version-chain scan re-seeked a run", s.iter_reseeks > 0);
    bench.engaged(
        &format!("version-chain scan {steps_per_row:.2} steps/row <= {MAX_CHAIN_STEPS_PER_ROW}"),
        steps_per_row <= MAX_CHAIN_STEPS_PER_ROW,
    );
}

/// One key in this many is rewritten into L0 by [`run_one_round_trip`];
/// the row gets the others.
const REWRITE_STRIDE: u64 = 8;

/// Cold gets of present keys over two levels of the DS link: the remote
/// reads they take, and how often a filter passed a key its table did not
/// hold.
fn run_one_round_trip(bench: &mut Bench, model: NetworkModel, keys: u64) {
    let store = harness::ds_read_store(SystemKind::Shield, model);
    // Every key compacted below L0, then one in eight rewritten above.
    harness::ds_fill(&store, keys, |mut opts| {
        opts.compaction.l0_compaction_trigger = 1;
        opts
    });
    {
        let sys = open_cold(&store, |opts| opts);
        for k in (0..keys).step_by(REWRITE_STRIDE as usize) {
            sys.db().put(&WriteOptions::default(), &ds_key(k), b"rewritten").expect("put");
        }
        sys.db().compact_all().expect("flush");
    }
    let sys = open_cold(&store, |opts| opts);
    let db = sys.db();
    let levels = db.metrics_report().levels.iter().filter(|l| l.files > 0).count() as u64;
    let below: Vec<Vec<u8>> = (0..keys).filter(|k| k % REWRITE_STRIDE != 0).map(ds_key).collect();
    let refs: Vec<&[u8]> = below.iter().map(Vec::as_slice).collect();
    let cold = ReadOptions { fill_cache: false, ..ReadOptions::default() };
    // Opens every table the gets probe, concurrently: an open's reads
    // are not a get's.
    db.multi_get(&cold, &refs);
    let io = store.env().io_stats().expect("RemoteEnv keeps IoStats");
    let sst_reads = || io.snapshot().read_ops[FileKind::Sst.index()];
    let (reads_before, before) = (sst_reads(), db.statistics().snapshot());
    let start = Instant::now();
    for key in &below {
        assert!(db.get(&cold, key).expect("get").is_some(), "fill lost a key");
    }
    let us_per_get = start.elapsed().as_secs_f64() * 1e6 / below.len() as f64;
    let reads = sst_reads() - reads_before;
    let s = db.statistics().snapshot().delta_since(&before);
    let gets = below.len() as u64;
    let false_positives = s.bloom_full_positive - s.bloom_true_positive;
    let negative_probes = s.bloom_useful + false_positives;
    let reads_per_get = harness::ratio(reads as f64, gets as f64);
    let fp_rate = harness::ratio(false_positives as f64, negative_probes as f64);
    println!(
        "  one round trip: {gets} cold gets over {levels} levels, {:.4} remote reads/get, \
         {false_positives} false positives in {negative_probes} negative probes ({:.3} %), \
         {us_per_get:.0} us/get",
        reads_per_get.unwrap_or(f64::NAN),
        fp_rate.map_or(f64::NAN, |r| r * 100.0),
    );
    // Six decimals: a rate near 5e-4 is 0.001 at `field_f64`'s three.
    let fine = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v:.6}"));
    let j = bench.json();
    j.open_obj("one_round_trip");
    j.field_u64("gets", gets);
    j.field_u64("levels", levels);
    j.field_u64("remote_reads", reads);
    j.field_raw("remote_reads_per_get", &fine(reads_per_get));
    j.field_u64("negative_probes", negative_probes);
    j.field_u64("false_positives", false_positives);
    j.field_raw("filter_fp_rate", &fine(fp_rate));
    j.field_f64("us_per_get", us_per_get);
    j.close_obj();
    bench.engaged(&format!("one-round-trip gets span {levels} >= 2 levels"), levels >= 2);
    bench.engaged(
        &format!("{reads} remote reads = {gets} gets + {false_positives} false positives"),
        reads == gets + false_positives && s.bloom_true_positive == gets,
    );
}

/// Keys of the scan row, 16 bytes as the benchmark's.
const SCAN_KEYS: u64 = 20_000;
/// Rows per scan: mixgraph's mean scan length.
const SCAN_ROWS: usize = 50;
/// L0 tables the scan row's merge reads (under the compaction trigger):
/// all keys, then a rewrite of every fourth key per further table; one
/// more round of rewrites stays in the memtable.
const SCAN_L0_TABLES: u64 = 3;

/// `scans` cached scans of [`SCAN_ROWS`] rows from random keys, over a
/// merge of the memtable and [`SCAN_L0_TABLES`] L0 tables: the best of
/// three passes, in ns per returned row.
fn run_scan_rows(bench: &mut Bench, scans: u64) {
    let store =
        SystemStore::new(SystemKind::Shield, Arc::new(MemEnv::new()), "scan", Tuning::default());
    let sys = store.open().expect("open");
    let db = sys.db();
    let (w, r) = (WriteOptions::default(), ReadOptions::default());
    let key = |k: u64| key_bytes(k, 16);
    for round in 0..=SCAN_L0_TABLES {
        let stride = if round == 0 { 1 } else { 4 };
        for k in (round..SCAN_KEYS).step_by(stride) {
            db.put(&w, &key(k), format!("round-{round}").as_bytes()).expect("put");
        }
        if round < SCAN_L0_TABLES {
            db.flush().expect("flush");
        }
    }
    let l0 = db.metrics_report().levels.first().map_or(0, |l| l.files as u64);
    // Warm: every block of every table in the cache.
    assert_eq!(db.scan(&r, b"", usize::MAX).expect("scan").len() as u64, SCAN_KEYS);
    let mut rng = Rng::new(0x5ca2_0f50);
    let starts: Vec<Vec<u8>> =
        (0..scans).map(|_| key(rng.next_below(SCAN_KEYS - SCAN_ROWS as u64))).collect();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let begin = Instant::now();
        for start in &starts {
            let rows = db.scan(&r, start, SCAN_ROWS).expect("scan");
            assert_eq!(black_box(rows).len(), SCAN_ROWS, "a scan came back short");
        }
        let ns = begin.elapsed().as_nanos() as f64;
        best = best.min(ns / (scans * SCAN_ROWS as u64) as f64);
    }
    println!("  scan: {SCAN_ROWS}-row cached scans over a memtable + {l0} L0 tables, {best:.1} ns/row");
    let j = bench.json();
    j.open_obj("scan_rows");
    j.field_u64("scans", scans);
    j.field_u64("rows_per_scan", SCAN_ROWS as u64);
    j.field_u64("l0_tables", l0);
    j.field_f64("scan_ns_per_row", best);
    j.close_obj();
    bench.engaged(&format!("the scan row merged {l0} L0 tables"), l0 == SCAN_L0_TABLES);
}

/// Keys per comparison row, compared as adjacent pairs of a shuffled list.
const CMP_KEYS: u64 = 1024;
/// Alternated timing rounds per comparator; each keeps its best.
const CMP_ROUNDS: u32 = 16;

/// ns per comparison of adjacent `keys` under `cmp`, over `passes` passes.
fn cmp_ns(keys: &[Vec<u8>], passes: u32, cmp: impl Fn(&[u8], &[u8]) -> Ordering) -> f64 {
    let mut sum = 0i64;
    let begin = Instant::now();
    for _ in 0..passes {
        for pair in keys.windows(2) {
            sum += cmp(black_box(&pair[0]), black_box(&pair[1])) as i64;
        }
    }
    black_box(sum);
    begin.elapsed().as_nanos() as f64 / f64::from(passes) / (keys.len() - 1) as f64
}

/// One comparison row: the engine's comparator and `[u8]::cmp` over the
/// same shuffled keys, each `prefix` followed by a key's last 8 digits,
/// timed in alternated rounds (the best round of each).
fn run_key_cmp(bench: &mut Bench, name: &str, prefix: &[u8], passes: u32) {
    let mut rng = Rng::new(0xc0_4ba2e);
    let keys: Vec<Vec<u8>> = (0..CMP_KEYS)
        .map(|_| [prefix, &key_bytes(rng.next_below(3_000_000), 8)].concat())
        .collect();
    let (mut engine, mut slice) = (f64::INFINITY, f64::INFINITY);
    for round in 0..CMP_ROUNDS {
        // Each goes first in every other round.
        if round % 2 == 0 {
            engine = engine.min(cmp_ns(&keys, passes, user_key_cmp));
        }
        slice = slice.min(cmp_ns(&keys, passes, |a, b| a.cmp(b)));
        if round % 2 == 1 {
            engine = engine.min(cmp_ns(&keys, passes, user_key_cmp));
        }
    }
    let width = keys[0].len();
    println!("  key cmp, {width} B keys: engine {engine:.2} ns, [u8]::cmp {slice:.2} ns");
    let j = bench.json();
    j.open_obj(name);
    j.field_u64("key_bytes", width as u64);
    j.field_f64("engine", engine);
    j.field_f64("slice_cmp", slice);
    j.close_obj();
    bench.full_gate(
        &format!("{width} B keys: engine comparator {engine:.2} ns <= 1.25 x [u8]::cmp {slice:.2} ns"),
        engine <= 1.25 * slice,
    );
}

/// Charge at which the memtable rows' table is full: the engine's
/// default `write_buffer_size`, which `MemTable::new` sizes its index for.
const MEMTABLE_BYTES: usize = 4 << 20;
const MEMTABLE_VALUE_BYTES: usize = 100;
/// More keys than a full table holds (~22.7k at ~185 B charged each).
const MEMTABLE_KEY_POOL: usize = 40_000;

/// ns per call of `op` over `keys`.
fn ns_per_key(keys: &[Vec<u8>], mut op: impl FnMut(&[u8])) -> f64 {
    let begin = Instant::now();
    for key in keys {
        op(black_box(key));
    }
    begin.elapsed().as_nanos() as f64 / keys.len() as f64
}

/// `passes` times: fill a fresh memtable to [`MEMTABLE_BYTES`] of charge
/// with random 16-byte keys, get every present key and as many absent
/// ones (odd ids; the present are even), then add a newer version of
/// every present key. The best pass of each.
fn run_memtable(bench: &mut Bench, passes: u32) {
    let mut rng = Rng::new(0x3e37_ab1e);
    let ids: Vec<u64> = (0..MEMTABLE_KEY_POOL).map(|_| rng.next_below(1 << 40) * 2).collect();
    let present: Vec<Vec<u8>> = ids.iter().map(|&id| key_bytes(id, 16)).collect();
    let absent: Vec<Vec<u8>> = ids.iter().map(|&id| key_bytes(id + 1, 16)).collect();
    let value = vec![b'v'; MEMTABLE_VALUE_BYTES];
    let [mut add, mut hit, mut miss, mut rewrite] = [f64::INFINITY; 4];
    let mut entries = 0;
    for _ in 0..passes {
        let mem = MemTable::new(0);
        let begin = Instant::now();
        entries = 0;
        while mem.approximate_memory_usage() < MEMTABLE_BYTES {
            mem.add(entries as u64 + 1, ValueType::Value, &present[entries], &value);
            entries += 1;
        }
        add = add.min(begin.elapsed().as_nanos() as f64 / entries as f64);
        let read = u64::MAX >> 8;
        hit = hit.min(ns_per_key(&present[..entries], |key| {
            black_box(mem.get(key, read));
        }));
        miss = miss.min(ns_per_key(&absent[..entries], |key| {
            black_box(mem.get(key, read));
        }));
        let mut seq = entries as u64;
        rewrite = rewrite.min(ns_per_key(&present[..entries], |key| {
            seq += 1;
            mem.add(seq, ValueType::Value, key, &value);
        }));
    }
    println!(
        "  memtable: {entries} entries in 4 MiB, add {add:.0} ns, get hit {hit:.0} ns, miss {miss:.0} ns, \
         rewrite {rewrite:.0} ns"
    );
    let j = bench.json();
    j.open_obj("memtable");
    j.field_u64("entries", entries as u64);
    j.field_f64("memtable_add_ns", add);
    j.field_f64("memtable_get_hit_ns", hit);
    j.field_f64("memtable_get_miss_ns", miss);
    j.field_f64("memtable_rewrite_ns", rewrite);
    j.close_obj();
    bench.engaged(
        &format!("the memtable rows filled a table with {entries} entries"),
        entries > 0 && entries < MEMTABLE_KEY_POOL,
    );
    bench.full_gate(
        &format!("a memtable rewrite {rewrite:.0} ns <= an insert of a new key {add:.0} ns"),
        rewrite <= add,
    );
}

/// Keys of the reader-scaling store.
const SCALING_KEYS: u64 = 20_000;

/// Cold gets on one thread, then on two, over one SHIELD + HMAC store in
/// memory: the cost of whatever state concurrent readers share.
fn run_reader_scaling(bench: &mut Bench, gets_per_thread: u64) {
    let tuning = Tuning { write_buffer_size: 512 << 10, ..Tuning::default() };
    let store = SystemStore::new(SystemKind::Shield, Arc::new(MemEnv::new()), "scaling", tuning);
    let sys = store.open_with(|opts| opts.with_integrity(Integrity::Hmac)).expect("open");
    let db = sys.db();
    let w = WriteOptions::default();
    for k in 0..SCALING_KEYS {
        db.put(&w, &ds_key(k), format!("value-{k:08}-").repeat(8).as_bytes()).expect("put");
    }
    db.compact_all().expect("compact");
    let cold = ReadOptions { fill_cache: false, ..ReadOptions::default() };
    // Gets per second per thread with `threads` readers.
    let pass = |threads: u64| {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cold = &cold;
                scope.spawn(move || {
                    let mut rng = Rng::new(0x5ca1_ab1e + t);
                    for _ in 0..gets_per_thread {
                        let k = rng.next_below(SCALING_KEYS);
                        assert!(db.get(cold, &ds_key(k)).expect("get").is_some(), "lost key {k}");
                    }
                });
            }
        });
        harness::ratio(gets_per_thread as f64, start.elapsed().as_secs_f64())
    };
    pass(1); // warm: every table open, every lazily built structure built
    let one = pass(1);
    let two = pass(2);
    let ratio = two.zip(one).and_then(|(two, one)| harness::ratio(2.0 * two, one));
    println!(
        "  reader scaling: {:.0} gets/s on 1 thread, {:.0} per thread on 2 ({:.2}x total)",
        one.unwrap_or(f64::NAN),
        two.unwrap_or(f64::NAN),
        ratio.unwrap_or(f64::NAN),
    );
    let j = bench.json();
    j.open_obj("reader_scaling");
    j.field_u64("keys", SCALING_KEYS);
    j.field_u64("gets_per_thread", gets_per_thread);
    j.field_opt_f64("one_thread_gets_per_sec", one);
    j.field_opt_f64("two_threads_gets_per_sec_per_thread", two);
    j.field_opt_f64("two_to_one_ratio", ratio);
    j.close_obj();
    bench.engaged(
        "reader scaling: the 1-thread and 2-thread passes completed",
        one.is_some() && two.is_some(),
    );
}

fn main() -> ExitCode {
    let mut bench = Bench::from_args("readpath");
    let model = bench.network();
    let keys: u64 = bench.pick(2_000, 10_000);
    let readrandom_ops: u64 = bench.pick(1_000, 5_000);
    let multi_get_rounds: u64 = bench.pick(1, 4);
    let j = bench.json();
    j.field_str(
        "workload",
        "readrandom + hot-key miss storm + multi_get(64) vs 64 serial gets + seq scan, \
         remote storage",
    );
    j.field_u64("readahead_blocks", SCAN_READAHEAD_BLOCKS as u64);
    j.field_u64("miss_threads", MISS_THREADS as u64);
    j.open_obj("systems");
    for kind in [SystemKind::Plain, SystemKind::EncFs, SystemKind::Shield] {
        let store = harness::ds_read_store(kind, model);
        harness::ds_fill(&store, keys, |opts| opts);
        bench.json().open_obj(kind.slug());
        run_readrandom(&mut bench, &store, keys, readrandom_ops);
        run_single_flight(&mut bench, &store, keys);
        run_multi_get(&mut bench, &store, keys, multi_get_rounds);
        run_seq_scan(&mut bench, &store, keys);
        bench.json().close_obj();
    }
    bench.json().close_obj();
    // A process-wide high-water mark of in-flight env reads since start,
    // not a per-system reading: written once, after every system ran.
    bench.json().field_u64("env_inflight_reads_peak", shield_env::inflight_reads_peak());
    run_version_chain(&mut bench);
    let round_trip_keys = bench.pick(4_000, 16_000);
    run_one_round_trip(&mut bench, model, round_trip_keys);
    let scans = bench.pick(200, 4_000);
    run_scan_rows(&mut bench, scans);
    let passes = bench.pick(20, 200);
    run_key_cmp(&mut bench, "key_cmp_16b_ns", b"00000000", passes);
    run_key_cmp(&mut bench, "key_cmp_128b_shared120_ns", &[b'p'; 120], passes);
    let memtable_passes = bench.pick(1, 5);
    run_memtable(&mut bench, memtable_passes);
    let gets_per_thread = bench.pick(2_000, 200_000);
    run_reader_scaling(&mut bench, gets_per_thread);
    bench.finish()
}
