//! Read-path benchmark over disaggregated storage: readrandom, 8-thread
//! hot-key single-flight coalescing, and sequential scans with and
//! without readahead, in three encryption modes (plain, EncFS, SHIELD).
//!
//! The setup is [`harness::ds_read_store`] over the paper's DS link, so
//! every cache miss costs ~an RTT. That makes the two read-path behaviors
//! directly measurable:
//!
//! - **Single-flight.** Eight threads issuing `get`s for the same cold
//!   key miss the same `(table, offset)`; the fetcher must coalesce them
//!   into one remote read. The dedup ratio (cache misses per underlying
//!   read) must exceed 1.
//! - **Readahead.** A cold sequential scan with `readahead_blocks = 16`
//!   fetches each uncached block together with the blocks after it — one
//!   round trip per batch — and must beat the serial no-readahead scan.
//!   The full run gates on a ≥ 2x speedup;
//!   `--smoke` (the verify tier) only asserts both mechanisms *engage*.
//!   The committed full-mode `BENCH_readpath.json` is the perf record.
//! - **The skip rule.** One SHIELD store in memory whose hot keys hold
//!   1,000 versions each across three L0 files and the memtable: a full
//!   scan must re-seek those runs (`version_chain_reseeks` > 0) and take
//!   at most 3 merge steps per returned row, in both modes.

use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use shield_bench::harness::{self, ds_key, open_cold, Bench};
use shield_bench::rng::Rng;
use shield_bench::{SystemKind, SystemStore, Tuning};
use shield_env::MemEnv;
use shield_lsm::{ReadOptions, WriteOptions};

const MISS_THREADS: usize = 8;
const HOT_KEYS: u64 = 32;

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
    let dedup_ratio = misses as f64 / misses.saturating_sub(waits).max(1) as f64;
    println!(
        "  {label:>6}: single-flight dedup {dedup_ratio:>5.2}x ({waits} waits / {misses} misses)"
    );
    let j = bench.json();
    j.open_obj("single_flight");
    j.field_u64("hot_keys", HOT_KEYS);
    j.field_u64("cache_misses", misses);
    j.field_u64("singleflight_waits", waits);
    j.field_f64("dedup_ratio", dedup_ratio);
    j.close_obj();
    bench.engaged(
        &format!("{label} single-flight dedup ratio {dedup_ratio:.2} > 1 ({waits} waits)"),
        dedup_ratio > 1.0,
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
    let j = bench.json();
    j.field_str("workload", "readrandom + hot-key miss storm + seq scan, remote storage");
    j.field_u64("readahead_blocks", harness::SCAN_READAHEAD_BLOCKS as u64);
    j.field_u64("miss_threads", MISS_THREADS as u64);
    j.open_obj("systems");
    for kind in [SystemKind::Plain, SystemKind::EncFs, SystemKind::Shield] {
        let store = harness::ds_read_store(kind, model);
        harness::ds_fill(&store, keys, |opts| opts);
        bench.json().open_obj(kind.slug());
        run_readrandom(&mut bench, &store, keys, readrandom_ops);
        run_single_flight(&mut bench, &store, keys);
        bench.seq_scan(&store, keys);
        bench.json().close_obj();
    }
    bench.json().close_obj();
    run_version_chain(&mut bench);
    bench.finish()
}
