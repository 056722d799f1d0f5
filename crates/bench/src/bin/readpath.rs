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
//!
//! `--smoke` (the verify tier) only asserts that each mechanism
//! *engages*; the committed full-mode `BENCH_readpath.json` is the perf
//! record.

use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use shield_bench::harness::{self, ds_key, open_cold, scan_all, Bench};
use shield_bench::rng::Rng;
use shield_bench::{SystemKind, SystemStore, Tuning};
use shield_env::MemEnv;
use shield_lsm::{ReadOptions, WriteOptions};

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
    bench.finish()
}
