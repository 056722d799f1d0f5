//! Shard-scaling benchmark over disaggregated storage: `fillrandom` and
//! `readwhilewriting` against a [`Db`] of 1, 2, 4, and 8 trees, with
//! every tree's SSTs behind one [`RemoteEnv`].
//!
//! What scales and why: a single LSM ingests at the speed of its one
//! flush/compaction pipeline — writers stall the moment the immutable
//! list or L0 fills, and every stall waits out full network round trips
//! to remote storage. Sharding multiplies the pipelines: N memtables
//! absorb writes while N flushes and compactions ride the shared job
//! pool concurrently, *overlapping* their RTT sleeps on the remote link
//! (the env models per-request propagation delay, so concurrent requests
//! don't queue behind each other). The sweep holds the writer count, key
//! count, and network fixed — only the shard count moves.
//!
//! The scaling rows (`fillrandom`, `readwhilewriting`) run with the WAL
//! disabled: the WAL is one serial append stream at *every* shard count,
//! so leaving it on measures the WAL's packet cadence, not the flush
//! pipelines this bench isolates. The `fillrandom_wal` rows run the same
//! fill in the production configuration — WAL on — and record exactly
//! that cadence (crash-consistency of the WAL is the crash-recovery
//! suite's job).
//!
//! Full mode gates on `fillrandom` scaling: 4 shards must clear ≥ 2.5x
//! the single-shard ingest rate. `--smoke` (the verify tier) only
//! asserts engagement — every shard takes keys and flushes. The
//! committed full-mode `BENCH_shards.json` is the perf record.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use shield_bench::harness::{self, Bench};
use shield_bench::rng::Rng;
use shield_bench::systems::{SystemKind, SystemStore, Tuning};
use shield_bench::workloads::key_bytes;
use shield_env::{MemEnv, NetworkModel, RemoteEnv};
use shield_lsm::{Db, ReadOptions, WriteOptions};

const WRITERS: usize = 4;
const READERS: usize = 3;
const KEY_BYTES: usize = 11;
const VALUE_BYTES: usize = 400;
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Shield runs fewer points: it shows encryption preserves the scaling
/// shape without doubling the sweep's wall time.
const SHIELD_SWEEP: [usize; 2] = [1, 4];

/// Opens a fresh `shards`-way store behind its own [`RemoteEnv`] and runs
/// `f` against it.
fn with_sharded_db<R>(
    kind: SystemKind,
    model: NetworkModel,
    shards: usize,
    wal: bool,
    f: impl FnOnce(&Db) -> R,
) -> R {
    let tuning = Tuning {
        write_buffer_size: 32 << 10,
        background_jobs: 8,
        block_cache_bytes: 8 << 20,
        l0_compaction_trigger: 4,
        target_file_size: 64 << 10,
        ..Tuning::default()
    };
    let env = Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), model));
    let sys = SystemStore::new(kind, env, "db", tuning)
        .open_with(|mut opts| {
            opts.block_size = 16 << 10;
            opts.disable_wal = !wal;
            opts.with_shards(shards)
        })
        .expect("open sharded store");
    f(sys.db())
}

/// `WRITERS` threads blast random keys at the sharded engine until each
/// has written its quota; wall time is the fill time. Writes the point's
/// section and returns its ops/s.
fn run_fillrandom(bench: &mut Bench, label: &str, db: &Db, per_writer: u64) -> f64 {
    let keyspace = per_writer * WRITERS as u64 * 4;
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..WRITERS {
            s.spawn(move || {
                let mut rng = Rng::new(0x5eed_0001 + tid as u64);
                let mut value = vec![0u8; VALUE_BYTES];
                let w = WriteOptions::default();
                for _ in 0..per_writer {
                    rng.fill(&mut value);
                    let key = key_bytes(rng.next_below(keyspace), KEY_BYTES);
                    db.put(&w, &key, &value).expect("put");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    db.wait_for_background_work().expect("drain");

    let report = db.metrics_report();
    let shards = report.trees.len();
    let (flushes, compactions, write_stalls) =
        (report.tickers.flushes, report.tickers.compactions, report.tickers.write_stalls);
    let shards_with_flushes = report.trees.iter().filter(|tree| tree.flushes > 0).count();
    let keys = per_writer * WRITERS as u64;
    let ops_per_sec = keys as f64 / secs.max(1e-9);
    println!(
        "  {label:>21} x{shards}: {secs:.3}s ({ops_per_sec:.0} ops/s, {flushes} flushes / \
         {compactions} compactions, {write_stalls} stalls)"
    );
    let j = bench.json();
    j.open_obj(&shards.to_string());
    j.field_u64("keys", keys);
    j.field_f64("secs", secs);
    j.field_f64("ops_per_sec", ops_per_sec);
    j.field_u64("flushes", flushes);
    j.field_u64("compactions", compactions);
    j.field_u64("write_stalls", write_stalls);
    j.field_u64("shards_with_flushes", shards_with_flushes as u64);
    j.close_obj();
    // The sweep must actually shard: from 4 shards up, every shard has
    // to take keys and flush them.
    bench.engaged(
        &format!("{label} x{shards}: {shards_with_flushes}/{shards} shards flushed"),
        shards < 4 || shards_with_flushes == shards,
    );
    ops_per_sec
}

/// One writer keeps ingesting while `READERS` threads issue random gets
/// over the already-persisted keyspace; read throughput is the figure.
fn run_readwhilewriting(bench: &mut Bench, label: &str, db: &Db, per_reader: u64) {
    let shards = db.metrics_report().trees.len();
    let preload = per_reader * 2;
    {
        let w = WriteOptions::default();
        let mut rng = Rng::new(0x5eed_1001);
        let mut value = vec![0u8; VALUE_BYTES];
        for i in 0..preload {
            rng.fill(&mut value);
            db.put(&w, &key_bytes(i, KEY_BYTES), &value).expect("preload put");
        }
        db.flush().expect("preload flush");
    }

    let stop = AtomicBool::new(false);
    let written = AtomicU64::new(0);
    let mut hits = 0u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut rng = Rng::new(0x5eed_2001);
            let mut value = vec![0u8; VALUE_BYTES];
            let w = WriteOptions::default();
            let mut i = preload;
            while !stop.load(Ordering::Relaxed) {
                rng.fill(&mut value);
                db.put(&w, &key_bytes(i, KEY_BYTES), &value).expect("put");
                i += 1;
                written.fetch_add(1, Ordering::Relaxed);
            }
        });
        let readers: Vec<_> = (0..READERS)
            .map(|tid| {
                s.spawn(move || {
                    let mut rng = Rng::new(0x5eed_3001 + tid as u64);
                    let r = ReadOptions::new();
                    (0..per_reader)
                        .filter(|_| {
                            let key = key_bytes(rng.next_below(preload), KEY_BYTES);
                            db.get(&r, &key).expect("get").is_some()
                        })
                        .count() as u64
                })
            })
            .collect();
        for h in readers {
            hits += h.join().expect("reader");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let read_secs = start.elapsed().as_secs_f64();
    let reads = per_reader * READERS as u64;
    let reads_per_sec = reads as f64 / read_secs.max(1e-9);
    let writes_per_sec = written.load(Ordering::Relaxed) as f64 / read_secs.max(1e-9);
    println!(
        "  {label:>6} readwhilewriting x{shards}: {reads_per_sec:.0} reads/s, \
         {writes_per_sec:.0} writes/s ({hits} hits / {reads} reads)"
    );
    let j = bench.json();
    j.open_obj(&shards.to_string());
    j.field_u64("reads", reads);
    j.field_f64("read_secs", read_secs);
    j.field_f64("reads_per_sec", reads_per_sec);
    j.field_f64("writes_per_sec", writes_per_sec);
    j.field_u64("hits", hits);
    j.close_obj();
    bench.engaged(
        &format!("{label} x{shards}: {hits}/{reads} reads hit preloaded keys"),
        hits == reads,
    );
}

/// Ingest rate at `shards` over the single-shard rate — `None` when the
/// sweep never ran either point.
fn speedup_at(fills: &[(usize, f64)], shards: usize) -> Option<f64> {
    let rate = |n| fills.iter().find(|(s, _)| *s == n).map(|&(_, ops_per_sec)| ops_per_sec);
    harness::ratio(rate(shards)?, rate(1)?)
}

fn run_mode(
    bench: &mut Bench,
    kind: SystemKind,
    model: NetworkModel,
    sweep: &[usize],
    per_thread: u64,
) {
    let label = kind.slug();
    bench.json().open_obj(label);
    let fill_sweep = |bench: &mut Bench, section: &str, wal: bool| -> Vec<(usize, f64)> {
        bench.json().open_obj(section);
        let fills = sweep
            .iter()
            .map(|&shards| {
                let rate = with_sharded_db(kind, model, shards, wal, |db| {
                    run_fillrandom(bench, &format!("{label} {section}"), db, per_thread)
                });
                (shards, rate)
            })
            .collect();
        bench.json().close_obj();
        fills
    };
    let fills = fill_sweep(bench, "fillrandom", false);
    let wal_fills = fill_sweep(bench, "fillrandom_wal", true);
    bench.json().open_obj("readwhilewriting");
    for &shards in sweep {
        with_sharded_db(kind, model, shards, false, |db| {
            run_readwhilewriting(bench, label, db, per_thread);
        });
    }
    bench.json().close_obj();
    let s4 = speedup_at(&fills, 4);
    bench.json().field_opt_f64("fillrandom_speedup_4", s4);
    bench.json().field_opt_f64("fillrandom_speedup_8", speedup_at(&fills, 8));
    bench.json().field_opt_f64("fillrandom_wal_speedup_4", speedup_at(&wal_fills, 4));
    bench.json().close_obj();
    // The scaling claim: four flush/compaction pipelines overlapping
    // their remote round trips must beat one pipeline by ≥ 2.5x on ingest.
    if kind == SystemKind::Plain {
        bench.full_gate(
            &format!("fillrandom at 4 shards scaled {:.2}x >= 2.5x", s4.unwrap_or(f64::NAN)),
            s4.is_some_and(|s| s >= 2.5),
        );
    }
}

fn main() -> ExitCode {
    let mut bench = Bench::from_args("shards");
    // RTT-dominated remote profile: propagation delay is the resource the
    // shards overlap, so bandwidth is left uncapped to keep the pipe from
    // re-serializing concurrent flushes.
    let rtt_us = bench.pick(100, 1_000);
    let model = bench.record_network(NetworkModel {
        rtt: std::time::Duration::from_micros(rtt_us),
        ..NetworkModel::unlimited()
    });
    let keys_per_writer: u64 = bench.pick(400, 1_500);
    let j = bench.json();
    j.field_str(
        "workload",
        &format!(
            "fillrandom({WRITERS} writers) + readwhilewriting({READERS} readers), remote storage, \
             shard sweep"
        ),
    );
    j.field_str("wal", "disabled, except the fillrandom_wal rows");
    j.field_u64("value_bytes", VALUE_BYTES as u64);
    j.field_u64("keys_per_writer", keys_per_writer);
    j.open_obj("systems");
    run_mode(&mut bench, SystemKind::Plain, model, &SHARD_SWEEP, keys_per_writer);
    run_mode(&mut bench, SystemKind::Shield, model, &SHIELD_SWEEP, keys_per_writer);
    bench.json().close_obj();
    bench.finish()
}
