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
//! block is its own round trip. A full run
//! writes `BENCH_subcompaction.json`, stamped with commit and core count;
//! `--smoke` shrinks the run, writes under `target/` (override with
//! `--out`) and only asserts that the parallel path *engages* and that
//! the scan really streams — single-core CI noise is no place for a perf
//! gate; the committed full-mode JSON is the perf record.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shield_bench::rng::Rng;
use shield_env::{Env, FileKind, MemEnv, NetworkModel, RemoteEnv};
use shield_lsm::{Db, Options, WriteOptions};

struct Config {
    smoke: bool,
    out: String,
}

/// One configuration's measurements.
struct RunReport {
    max_subcompactions: usize,
    fill_secs: f64,
    compact_secs: f64,
    compaction_wall_secs: f64,
    compactions: u64,
    subcompactions: u64,
    subcompaction_cpu_secs: f64,
    bytes_read: u64,
    bytes_written: u64,
    /// SST `read_at` calls the storage node served over the whole run:
    /// compaction inputs plus the open of every new table.
    sst_read_calls: u64,
    /// Tables the engine wrote, each opened once by the job that wrote it.
    files_created: u64,
}

/// Reads one table open costs on an unencrypted env: footer, index,
/// filter, properties.
const READS_PER_TABLE_OPEN: u64 = 4;

impl RunReport {
    /// Read calls spent scanning compaction inputs, per MiB of input.
    fn read_calls_per_input_mib(&self) -> f64 {
        let scan_calls =
            self.sst_read_calls.saturating_sub(READS_PER_TABLE_OPEN * self.files_created);
        scan_calls as f64 / (self.bytes_read as f64 / (1 << 20) as f64).max(1e-9)
    }
}

/// Smoke gate on [`RunReport::read_calls_per_input_mib`]: streaming in
/// 64 KiB spans costs 16 calls per MiB (a few more where subranges start
/// mid-file); a per-block reader costs 256.
const MAX_READ_CALLS_PER_INPUT_MIB: f64 = 32.0;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config { smoke: false, out: String::new() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" => {
                cfg.out = args.next().ok_or_else(|| "--out needs a path".to_string())?;
            }
            "--help" | "-h" => {
                return Err("usage: subcompaction [--smoke] [--out BENCH_subcompaction.json]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Only a full run may land on the committed trajectory file.
    if cfg.out.is_empty() {
        cfg.out = if cfg.smoke {
            "target/BENCH_subcompaction_smoke.json".to_string()
        } else {
            "BENCH_subcompaction.json".to_string()
        };
    }
    Ok(cfg)
}

fn network(smoke: bool) -> NetworkModel {
    NetworkModel {
        // Paper's intra-datacenter RTT is 500 µs; the smoke tier shrinks it
        // to keep the verify run fast.
        rtt: Duration::from_micros(if smoke { 100 } else { 500 }),
        bandwidth_bytes_per_sec: Some(125_000_000), // 1 Gbps
        write_packet_bytes: 64 * 1024,
    }
}

fn run_one(max_subcompactions: usize, smoke: bool) -> RunReport {
    let keys: u64 = if smoke { 4_000 } else { 24_000 };
    let value_len = 256;

    let remote = RemoteEnv::new(Arc::new(MemEnv::new()), network(smoke));
    let node_io = remote.io_stats().expect("RemoteEnv keeps the storage node's IoStats");
    let mut opts = Options::new(Arc::new(remote))
        .with_write_buffer_size(192 << 10)
        .with_background_jobs(4)
        .with_max_subcompactions(max_subcompactions);
    opts.compaction.l0_compaction_trigger = 4;
    opts.compaction.target_file_size = 192 << 10;
    // Fillrandom over remote storage: the WAL would double every byte's
    // network cost without touching the compaction path under test.
    opts.disable_wal = true;
    let db = Db::open(opts, "db").expect("open");

    let mut rng = Rng::new(0x5bc0_97a7);
    let w = WriteOptions::default();
    let mut value = vec![0u8; value_len];

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
    RunReport {
        max_subcompactions,
        fill_secs,
        compact_secs,
        compaction_wall_secs: stats.compaction_micros as f64 / 1e6,
        compactions: stats.compactions,
        subcompactions: stats.subcompactions,
        subcompaction_cpu_secs: stats.subcompaction_micros as f64 / 1e6,
        bytes_read: stats.compaction_bytes_read,
        bytes_written: stats.compaction_bytes_written,
        sst_read_calls: node_io.snapshot().read_ops[FileKind::Sst.index()],
        files_created: stats.sst_files_created,
    }
}

fn report_json(mode: &str, model: &NetworkModel, runs: &[RunReport], speedup: f64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"subcompaction\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"commit\": \"{}\",", shield_bench::report::commit());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    let _ = writeln!(s, "  \"workload\": \"fillrandom + compact_all, remote storage\",");
    let _ = writeln!(s, "  \"network\": {{");
    let _ = writeln!(s, "    \"rtt_us\": {},", model.rtt.as_micros());
    let _ = writeln!(
        s,
        "    \"bandwidth_bytes_per_sec\": {},",
        model.bandwidth_bytes_per_sec.map_or("null".to_string(), |b| b.to_string())
    );
    let _ = writeln!(s, "    \"write_packet_bytes\": {}", model.write_packet_bytes);
    let _ = writeln!(s, "  }},");
    s.push_str("  \"configs\": {\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(s, "    \"max_subcompactions_{}\": {{", r.max_subcompactions);
        let _ = writeln!(s, "      \"fill_secs\": {:.3},", r.fill_secs);
        let _ = writeln!(s, "      \"compact_secs\": {:.3},", r.compact_secs);
        let _ = writeln!(s, "      \"compaction_wall_secs\": {:.3},", r.compaction_wall_secs);
        let _ = writeln!(s, "      \"compactions\": {},", r.compactions);
        let _ = writeln!(s, "      \"subcompactions\": {},", r.subcompactions);
        let _ = writeln!(
            s,
            "      \"subcompaction_worker_secs\": {:.3},",
            r.subcompaction_cpu_secs
        );
        let _ = writeln!(s, "      \"compaction_bytes_read\": {},", r.bytes_read);
        let _ = writeln!(s, "      \"compaction_bytes_written\": {},", r.bytes_written);
        let _ = writeln!(s, "      \"sst_read_calls\": {},", r.sst_read_calls);
        let _ = writeln!(
            s,
            "      \"table_open_read_calls\": {},",
            READS_PER_TABLE_OPEN * r.files_created
        );
        let _ = writeln!(
            s,
            "      \"read_calls_per_input_mib\": {:.1}",
            r.read_calls_per_input_mib()
        );
        let _ = writeln!(s, "    }}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    s.push_str("  },\n");
    let _ = writeln!(s, "  \"compaction_wall_speedup\": {speedup:.2}");
    s.push_str("}\n");
    s
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mode = if cfg.smoke { "smoke" } else { "full" };
    let model = network(cfg.smoke);
    println!(
        "subcompaction bench ({mode} mode, rtt {} us over shared 1 Gbps pipe)",
        model.rtt.as_micros()
    );

    let runs: Vec<RunReport> =
        [1usize, 4].into_iter().map(|n| run_one(n, cfg.smoke)).collect();
    for r in &runs {
        println!(
            "  max_subcompactions={}: fill {:>6.2}s, compact_all {:>6.2}s, \
             compaction wall {:>6.2}s over {} compactions ({} subcompactions), \
             {:.1} scan read calls per input MiB",
            r.max_subcompactions,
            r.fill_secs,
            r.compact_secs,
            r.compaction_wall_secs,
            r.compactions,
            r.subcompactions,
            r.read_calls_per_input_mib(),
        );
    }

    let serial = &runs[0];
    let parallel = &runs[1];
    let speedup = serial.compaction_wall_secs / parallel.compaction_wall_secs.max(1e-9);
    println!("  compaction wall speedup (1 -> 4): {speedup:.2}x");

    let json = report_json(mode, &model, &runs, speedup);
    if let Err(e) = std::fs::write(&cfg.out, &json) {
        eprintln!("failed to write {}: {e}", cfg.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", cfg.out);

    // The engagement gate: regardless of timing noise, the parallel config
    // must actually have split compactions, and the serial one must not.
    if parallel.subcompactions == 0 {
        eprintln!("FAIL: max_subcompactions=4 never ran a subcompaction");
        return ExitCode::FAILURE;
    }
    if serial.subcompactions != 0 {
        eprintln!("FAIL: max_subcompactions=1 ran {} subcompactions", serial.subcompactions);
        return ExitCode::FAILURE;
    }
    // And so must the streaming scan: a compaction that fell back to one
    // read per block shows an order of magnitude more calls than this.
    for r in &runs {
        if r.read_calls_per_input_mib() > MAX_READ_CALLS_PER_INPUT_MIB {
            eprintln!(
                "FAIL: max_subcompactions={} issued {:.1} scan read calls per input MiB (> {})",
                r.max_subcompactions,
                r.read_calls_per_input_mib(),
                MAX_READ_CALLS_PER_INPUT_MIB
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
