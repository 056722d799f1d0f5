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

use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

use shield_bench::harness::{self, ds_key, open_cold, Bench};
use shield_bench::rng::Rng;
use shield_bench::{SystemKind, SystemStore};
use shield_lsm::ReadOptions;

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
    bench.finish()
}
