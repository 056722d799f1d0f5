//! Observability smoke gate — `verify.sh`'s obs-smoke tier.
//!
//! A smoke-only gate: it writes `target/OBS_metrics_smoke.json` unless
//! `--out` names another file (the committed `OBS_metrics.json` comes
//! from `--out OBS_metrics.json`).
//!
//! Three checks, any failure exits non-zero:
//!
//! 1. **Disabled-hook overhead** — each hook the hot paths carry must,
//!    while switched off, cost < 2% of encrypting one 4 KiB chunk (the
//!    cheapest crypto unit a SHIELD read path touches), so leaving the
//!    hooks compiled in is free for production workloads: one
//!    `perf::timer()` + `perf::add_elapsed()` pair with PerfContext
//!    disabled, and one `trace::span()` call with no traced op active.
//!    Both costs go into the document's `disabled_hooks` section.
//! 2. **Event log** — a small SHIELD workload on a real filesystem must
//!    leave a `LOG` whose `flush_begin`/`flush_end` and
//!    `compaction_begin`/`compaction_end` lines pair up (and occur at
//!    least once each).
//! 3. **Metrics report** — `Db::metrics_report().to_json()` must carry
//!    every `shield_metrics_v1` top-level key, and the workload must
//!    actually engage the paths behind the headline tickers: synced
//!    WAL writes (`wal_syncs`), a batched lookup (`multi_gets`), and a
//!    cold scan with readahead (`readahead_issued`) all end up nonzero
//!    in the document, which is written out under the harness header
//!    for inspection.
//!
//! The flight recorder's scenarios — a traced cold `multi_get`, slow-op
//! capture, the watchdog, the debug bundle — are asserted by
//! `tests/flight_recorder.rs`.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;

use shield_bench::harness::{self, Bench};
use shield_bench::{SystemKind, SystemStore, Tuning};
use shield_core::{json, perf, trace, LogConfig, LogLevel, PerfMetric};
use shield_crypto::{Algorithm, CipherContext, Dek, NONCE_LEN};
use shield_env::PosixEnv;
use shield_lsm::{ReadOptions, WriteOptions};

/// A compiled-in but disabled observability hook must cost less than
/// this fraction of one 4 KiB chunk encryption.
const MAX_DISABLED_HOOK_OVERHEAD: f64 = 0.02;

/// Cost of encrypting one 4 KiB chunk with the paper-default cipher: the
/// yardstick of [`disabled_hook_gate`].
fn measure_chunk_encrypt_ns() -> f64 {
    let dek = Dek::generate(Algorithm::Aes128Ctr);
    let mut nonce = [0u8; NONCE_LEN];
    shield_crypto::secure_random(&mut nonce);
    let ctx = CipherContext::new(&dek, &nonce);
    let mut buf = vec![0xa5u8; 4096];
    harness::best_of_3_ns(2_000, || ctx.xor_at(0, black_box(&mut buf)))
}

/// Gates a disabled `hook` costing `hook_ns` per call at under 2 % of
/// one chunk encryption (`chunk_ns`) and records both figures under the
/// hook's name in the open `disabled_hooks` object.
fn disabled_hook_gate(bench: &mut Bench, hook: &str, hook_ns: f64, chunk_ns: f64) {
    let overhead = hook_ns / chunk_ns;
    let pct = overhead * 100.0;
    println!("disabled {hook}: {hook_ns:.2} ns, 4 KiB encrypt: {chunk_ns:.0} ns, {pct:.3}%");
    let j = bench.json();
    j.field_f64(&format!("{hook}_ns"), hook_ns);
    j.field_f64(&format!("{hook}_overhead_pct"), pct);
    bench.engaged(
        &format!(
            "disabled {hook} costs {pct:.2}% of a 4 KiB chunk encryption (gate {:.0}%)",
            MAX_DISABLED_HOOK_OVERHEAD * 100.0
        ),
        overhead < MAX_DISABLED_HOOK_OVERHEAD,
    );
}

fn main() -> ExitCode {
    let mut bench = Bench::smoke_only_from_args("obs_smoke", "target/OBS_metrics_smoke.json");

    // 1. Disabled-hook overhead gates: the exact instrumentation the hot
    // paths run when no PerfContext is collecting and no op is traced.
    let pair_ns = harness::best_of_3_ns(200_000, || {
        let t = perf::timer();
        perf::add_elapsed(PerfMetric::BlockDecrypt, black_box(t));
    });
    let span_ns = harness::best_of_3_ns(200_000, || {
        let s = trace::span(black_box("bench"));
        black_box(&s);
    });
    let chunk_ns = measure_chunk_encrypt_ns();
    bench.json().open_obj("disabled_hooks");
    bench.json().field_f64("chunk_encrypt_ns", chunk_ns);
    disabled_hook_gate(&mut bench, "perf_timer_pair", pair_ns, chunk_ns);
    disabled_hook_gate(&mut bench, "trace_span", span_ns, chunk_ns);
    bench.json().close_obj();

    // 2 + 3. Small SHIELD workload on a real FS; LOG pairing and the
    // metrics JSON both come out of it.
    let dir = std::env::temp_dir().join(format!("shield-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (metrics, log) = run_workload(&dir.to_string_lossy());
    let _ = std::fs::remove_dir_all(&dir);

    for (begin, end) in [("flush_begin", "flush_end"), ("compaction_begin", "compaction_end")] {
        let b = log.matches(begin).count();
        let e = log.matches(end).count();
        bench.engaged(&format!("LOG pairs {b} {begin} with {e} {end} lines"), b > 0 && b == e);
    }

    for key in [
        "\"schema\":\"shield_metrics_v1\"",
        "\"levels\"",
        "\"write_amplification\"",
        "\"read_amplification\"",
        "\"latencies_us\"",
        "\"tickers\"",
        "\"gauges\"",
        "\"windows\"",
    ] {
        bench.engaged(&format!("metrics JSON carries {key}"), metrics.contains(key));
    }

    // Ticker engagement: the workload is built to drive these paths, so
    // zeros mean the instrumentation (or the path) silently regressed.
    let doc = json::parse(&metrics);
    bench.engaged("metrics JSON parses", doc.is_ok());
    for ticker in ["wal_syncs", "multi_gets", "readahead_issued", "batched_reads"] {
        let v =
            doc.as_ref().ok().and_then(|d| d.get("tickers")?.get(ticker)?.as_f64()).unwrap_or(0.0);
        bench.engaged(&format!("ticker {ticker} = {v} after an engaging workload"), v > 0.0);
    }
    bench.splice_object(&metrics);
    bench.finish()
}

/// Runs a tiny SHIELD workload tuned to force flushes and compactions
/// (16 KiB memtable, L0 trigger 2) and returns the final metrics JSON.
/// The DB is reopened cold before the read phase so the batched lookup
/// and the readahead scan actually reach storage; synced writes in the
/// write phase drive `wal_syncs`. Closing the DB before returning
/// guarantees the LOG is complete. Returns the metrics JSON plus the
/// concatenated LOG text of both phases (each open truncates the file).
fn run_workload(path: &str) -> (String, String) {
    let tuning =
        Tuning { write_buffer_size: 16 << 10, l0_compaction_trigger: 2, ..Tuning::default() };
    let store = SystemStore::new(SystemKind::ShieldBuf, Arc::new(PosixEnv::new()), path, tuning);
    let open = |readahead: usize| {
        store
            .open_with(|mut o| {
                o.info_log = Some(LogConfig { level: Some(LogLevel::Info), json: false });
                o.with_readahead_blocks(readahead)
            })
            .expect("open_shield")
    };
    let read_log =
        || std::fs::read_to_string(std::path::Path::new(path).join("LOG")).unwrap_or_default();
    let value = vec![0x5au8; 256];

    // Write phase: enough entries to flush and compact, then drop the
    // handle to empty the block cache.
    {
        let sys = open(0);
        let wopts = WriteOptions::default();
        for id in 0..2_000u64 {
            let key = format!("key-{id:06}");
            sys.db().put(&wopts, key.as_bytes(), &value).expect("put");
        }
        sys.db().compact_all().expect("compact_all");
    }
    let phase1_log = read_log();

    // Read phase, cold: serial gets, one batched lookup, a full scan
    // with readahead enabled, and a synced write tail (the report comes
    // from this handle, so the `wal_syncs` ticks must happen here too).
    let sys = open(4);
    let db = sys.db();
    let synced = WriteOptions { sync: true };
    for id in 0..8u64 {
        let key = format!("sync-{id:02}");
        db.put(&synced, key.as_bytes(), &value).expect("synced put");
    }
    let ropts = ReadOptions::new();
    for id in (0..2_000u64).step_by(97) {
        let key = format!("key-{id:06}");
        assert!(db.get(&ropts, key.as_bytes()).expect("get").is_some());
    }
    let keys: Vec<String> = (0..2_000u64).step_by(31).map(|id| format!("key-{id:06}")).collect();
    let refs: Vec<&[u8]> = keys.iter().map(String::as_bytes).collect();
    for slot in db.multi_get(&ropts, &refs) {
        assert!(slot.expect("multi_get slot").is_some());
    }
    let (scanned, _) = harness::scan_all(&sys);
    assert!(scanned >= 2_000, "scan saw {scanned} entries");
    let json = db.metrics_report().to_json();
    drop(sys);
    (json, phase1_log + &read_log())
}
