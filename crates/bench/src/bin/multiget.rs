//! Batched-read benchmark over disaggregated storage: `Db::multi_get`
//! of 64 cold keys vs 64 serial `get`s, plus the sequential-scan
//! readahead point — the same batched read path, driven by an iterator —
//! in three encryption modes (plain, EncFS, SHIELD).
//!
//! The setup is [`harness::ds_read_store`] over the paper's DS link
//! (PR 7's honest model: RTTs of concurrent requests overlap, bandwidth
//! is FIFO-shared, and a `read_at_many` batch pays one RTT). That makes
//! the two batched-read behaviors directly measurable:
//!
//! - **multi_get.** 64 serial cold gets pay ~64 RTTs; `multi_get`
//!   partitions the batch per file and issues one bounded-depth
//!   `read_at_many` per file, paying ~one RTT per submission window.
//!   The full run gates on a ≥ 4x speedup in SHIELD mode.
//! - **Readahead.** A scan's readahead batch is one `read_at_many`
//!   window, so a cold scan pays one RTT per batch of blocks and the
//!   seq-scan speedup must clear 2x.
//!
//! `--smoke` (the verify tier) only asserts both mechanisms *engage* —
//! nonzero `batched_reads` and `readahead_issued`. The committed
//! full-mode `BENCH_multiget.json` is the perf record.

use std::process::ExitCode;
use std::time::Instant;

use shield_bench::harness::{self, ds_key, open_cold, Bench};
use shield_bench::{SystemKind, SystemStore};
use shield_lsm::ReadOptions;

const BATCH: usize = 64;

/// `rounds` distinct batches of `BATCH` cold keys each. Every round
/// reopens the database (cold block cache) twice — once for the serial
/// baseline, once for the batched run — over the same key set.
fn run_multi_get(bench: &mut Bench, store: &SystemStore, keys: u64, rounds: u64) {
    let label = store.kind().slug();
    let ropts = ReadOptions::default();
    let mut serial_secs = 0.0;
    let mut batched_secs = 0.0;
    let mut stats = None;
    for round in 0..rounds {
        // Stride the round's keys across the whole space so every key
        // lands in a different (cold) block where possible.
        let stride = keys / BATCH as u64;
        let batch: Vec<Vec<u8>> = (0..BATCH as u64)
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
        "  {label:>6}: multi_get({BATCH}) {batched_secs:.4}s vs serial {serial_secs:.4}s \
         ({shown:.2}x, {} submissions / {} reads, inflight peak {})",
        s.batched_reads, s.batch_read_requests, s.env_inflight_reads,
    );
    let j = bench.json();
    j.open_obj("multi_get");
    j.field_u64("batch", BATCH as u64);
    j.field_u64("rounds", rounds);
    j.field_f64("serial_secs", serial_secs);
    j.field_f64("batched_secs", batched_secs);
    j.field_opt_f64("speedup", speedup);
    j.field_u64("batched_reads", s.batched_reads);
    j.field_u64("batch_read_requests", s.batch_read_requests);
    j.field_u64("env_inflight_reads", s.env_inflight_reads);
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

fn main() -> ExitCode {
    let mut bench = Bench::from_args("multiget");
    let model = bench.network();
    let keys: u64 = bench.pick(2_000, 10_000);
    let rounds: u64 = bench.pick(1, 4);
    let j = bench.json();
    j.field_str(
        "workload",
        &format!("multi_get({BATCH}) vs {BATCH} serial cold gets + seq scan, remote storage"),
    );
    j.field_u64("readahead_blocks", harness::SCAN_READAHEAD_BLOCKS as u64);
    j.open_obj("systems");
    for kind in [SystemKind::Plain, SystemKind::EncFs, SystemKind::Shield] {
        let store = harness::ds_read_store(kind, model);
        harness::ds_fill(&store, keys, |opts| opts);
        bench.json().open_obj(kind.slug());
        run_multi_get(&mut bench, &store, keys, rounds);
        bench.seq_scan(&store, keys);
        bench.json().close_obj();
    }
    bench.json().close_obj();
    bench.finish()
}
