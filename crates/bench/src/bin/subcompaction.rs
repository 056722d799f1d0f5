//! Parallel-subcompaction benchmark: fillrandom over disaggregated
//! storage with `max_subcompactions` = 1 vs 4.
//!
//! The setup mirrors the paper's DS deployment: SSTs live behind a
//! [`RemoteEnv`] that charges a round trip per storage operation, so a
//! compaction is dominated by serialized block reads. Splitting the merge
//! into key-disjoint subranges lets one subrange's CPU work overlap
//! another's network wait, which is where the wall-clock win comes from —
//! it shows up even on a single core.
//!
//! Both configurations run the byte-identical seeded workload; the report
//! compares compaction wall time (`compaction_micros`, measured around
//! each whole compaction job by the coordinator), total fill+compact wall,
//! the per-subrange counters, and the storage node's count of SST read
//! calls (less the four each table open costs) per MiB of compaction
//! input — 16 when inputs stream in 64 KiB spans, 256 when every 4 KiB
//! block is its own round trip. `--smoke` shrinks the run and, like the
//! full run, only asserts that the parallel path *engages* and that the
//! scan really streams — single-core CI noise is no place for a perf
//! gate; the committed full-mode `BENCH_subcompaction.json` is the perf
//! record.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use shield_bench::harness::{self, Bench};
use shield_bench::rng::Rng;
use shield_env::{Env, FileKind, MemEnv, NetworkModel, RemoteEnv};
use shield_lsm::{Db, Options, WriteOptions};

/// Reads one table open costs on an unencrypted env: footer, index,
/// filter, properties.
const READS_PER_TABLE_OPEN: u64 = 4;

/// Gate on scan read calls per MiB of compaction input: streaming in
/// 64 KiB spans costs 16 calls per MiB (a few more where subranges start
/// mid-file); a per-block reader costs 256.
const MAX_READ_CALLS_PER_INPUT_MIB: f64 = 32.0;

/// Runs the seeded fill + `compact_all` under `max_subcompactions`,
/// writes the configuration's section and gates, and returns its
/// compaction wall seconds.
fn run_one(bench: &mut Bench, model: NetworkModel, max_subcompactions: usize) -> f64 {
    let keys: u64 = bench.pick(4_000, 24_000);

    let remote = RemoteEnv::new(Arc::new(MemEnv::new()), model);
    let node_io = remote.io_stats().expect("RemoteEnv keeps the storage node's IoStats");
    let mut opts = Options::new(Arc::new(remote))
        .with_write_buffer_size(192 << 10)
        .with_background_jobs(4)
        .with_max_subcompactions(max_subcompactions);
    opts.compaction.l0_compaction_trigger = 4;
    opts.compaction.target_file_size = 192 << 10;
    // The baseline has to be serial, and an engine splits a merge itself
    // while its tree is behind (DESIGN.md §4f): no L0 count slows this
    // fill down, so neither configuration ever counts as behind and
    // `max_subcompactions` alone decides. The stop trigger still bounds L0.
    opts.l0_slowdown_trigger = usize::MAX;
    // Fillrandom over remote storage: the WAL would double every byte's
    // network cost without touching the compaction path under test.
    opts.disable_wal = true;
    let db = Db::open(opts, "db").expect("open");

    let mut rng = Rng::new(0x5bc0_97a7);
    let w = WriteOptions::default();
    let mut value = vec![0u8; 256];

    let fill_start = Instant::now();
    for _ in 0..keys {
        let k = rng.next_below(keys * 2);
        rng.fill(&mut value);
        db.put(&w, format!("k{k:08}").as_bytes(), &value).expect("put");
    }
    db.flush().expect("flush");
    let fill_secs = fill_start.elapsed().as_secs_f64();

    let compact_start = Instant::now();
    db.compact_all().expect("compact");
    let compact_secs = compact_start.elapsed().as_secs_f64();

    let stats = db.statistics().snapshot();
    let compaction_wall_secs = stats.compaction_micros as f64 / 1e6;
    // SST `read_at` calls the storage node served over the whole run:
    // compaction inputs plus the open of every table the engine wrote.
    let sst_read_calls = node_io.snapshot().read_ops[FileKind::Sst.index()];
    let table_open_read_calls = READS_PER_TABLE_OPEN * stats.sst_files_created;
    let read_calls_per_input_mib = harness::ratio(
        sst_read_calls.saturating_sub(table_open_read_calls) as f64,
        stats.compaction_bytes_read as f64 / (1 << 20) as f64,
    );
    let shown = read_calls_per_input_mib.unwrap_or(f64::NAN);
    println!(
        "  max_subcompactions={max_subcompactions}: fill {fill_secs:>6.2}s, compact_all \
         {compact_secs:>6.2}s, compaction wall {compaction_wall_secs:>6.2}s over {} compactions \
         ({} subcompactions), {shown:.1} scan read calls per input MiB",
        stats.compactions, stats.subcompactions,
    );

    let j = bench.json();
    j.open_obj(&format!("max_subcompactions_{max_subcompactions}"));
    j.field_f64("fill_secs", fill_secs);
    j.field_f64("compact_secs", compact_secs);
    j.field_f64("compaction_wall_secs", compaction_wall_secs);
    j.field_u64("compactions", stats.compactions);
    j.field_u64("subcompactions", stats.subcompactions);
    j.field_f64("subcompaction_worker_secs", stats.subcompaction_micros as f64 / 1e6);
    j.field_u64("compaction_bytes_read", stats.compaction_bytes_read);
    j.field_u64("compaction_bytes_written", stats.compaction_bytes_written);
    j.field_u64("sst_read_calls", sst_read_calls);
    j.field_u64("table_open_read_calls", table_open_read_calls);
    j.field_opt_f64("read_calls_per_input_mib", read_calls_per_input_mib);
    j.close_obj();

    // Regardless of timing noise, the parallel config must actually have
    // split compactions, and the serial one must not.
    bench.engaged(
        &format!(
            "max_subcompactions={max_subcompactions} ran {} subcompactions",
            stats.subcompactions
        ),
        (stats.subcompactions > 0) == (max_subcompactions > 1),
    );
    // And the scan must stream: a compaction that fell back to one read
    // per block shows an order of magnitude more calls than this.
    bench.engaged(
        &format!(
            "max_subcompactions={max_subcompactions} issued {shown:.1} scan read calls per \
             input MiB (<= {MAX_READ_CALLS_PER_INPUT_MIB})"
        ),
        read_calls_per_input_mib.is_some_and(|calls| calls <= MAX_READ_CALLS_PER_INPUT_MIB),
    );
    compaction_wall_secs
}

fn main() -> ExitCode {
    let mut bench = Bench::from_args("subcompaction");
    let model = bench.network();
    let j = bench.json();
    j.field_str("workload", "fillrandom + compact_all, remote storage");
    j.open_obj("configs");
    let serial = run_one(&mut bench, model, 1);
    let parallel = run_one(&mut bench, model, 4);
    bench.json().close_obj();
    let speedup = harness::ratio(serial, parallel);
    println!("  compaction wall speedup (1 -> 4): {:.2}x", speedup.unwrap_or(f64::NAN));
    bench.json().field_opt_f64("compaction_wall_speedup", speedup);
    bench.finish()
}
