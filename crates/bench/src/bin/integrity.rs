//! Authenticated-integrity overhead benchmark (PR 6): the same
//! disaggregated-storage setup as the read-path bench
//! ([`harness::ds_read_store`] over the paper's DS link), run twice per
//! system — once with CRC-only integrity (v1 files) and once with
//! per-block HMAC verification (v2 files) — plus two hostile workloads:
//!
//! - **tombstone flood**: every key deleted, tombstones left unmerged in
//!   L0; scans and seek storms must grind through them without hanging.
//! - **range abuse**: repeated short seeks into the fully-deleted range,
//!   the access pattern a range-scan DoS would use.
//!
//! The gate (full mode only): HMAC verification must cost < 10% on
//! SHIELD-mode cold scans. On an RTT-dominated remote env that is the
//! honest deployment question — per-block MAC compute vs a network round
//! trip. `--smoke` only asserts the machinery engages (verified blocks
//! counted, zero failures). The committed full-mode
//! `BENCH_integrity.json` is the perf record.

use std::process::ExitCode;
use std::time::Instant;

use shield_bench::harness::{self, ds_key, open_cold, Bench};
use shield_bench::rng::Rng;
use shield_bench::{SystemHandle, SystemKind};
use shield_env::NetworkModel;
use shield_lsm::{Integrity, Options, ReadOptions, WriteOptions};

const ENGINE_KEY: [u8; 32] = [0x1d; 32];

/// What the gates read back from one integrity mode's run.
struct ModeResult {
    scan_secs: f64,
    readrandom_secs: f64,
    integrity_checks: u64,
    integrity_failures: u64,
}

/// Cold uniform random gets.
fn readrandom(sys: &SystemHandle, keys: u64, ops: u64) -> f64 {
    let ropts = ReadOptions::default();
    let mut rng = Rng::new(0x0ead_ca11);
    let start = Instant::now();
    for _ in 0..ops {
        let k = rng.next_below(keys);
        assert!(sys.db().get(&ropts, &ds_key(k)).expect("get").is_some(), "fill lost key {k}");
    }
    start.elapsed().as_secs_f64()
}

/// Tombstone flood + range abuse: delete every key and, while every
/// tombstone is still live (unmerged against the SST data), full-scan and
/// seek-storm across the graveyard. The merging iterator must read every
/// (verified) data block just to conclude nothing is there. Returns
/// `(flood scan seconds, seek storm seconds)`.
fn tombstone_abuse(sys: &SystemHandle, keys: u64, seeks: u64) -> (f64, f64) {
    let db = sys.db();
    let w = WriteOptions::default();
    for i in 0..keys {
        db.delete(&w, &ds_key(i)).expect("delete");
    }
    let (surviving, flood_scan_secs) = harness::scan_all(sys);
    assert_eq!(surviving, 0, "tombstone flood must delete everything");

    let mut rng = Rng::new(0xab05_ed00);
    let start = Instant::now();
    let mut it = db.iter(&ReadOptions::default()).expect("iter");
    for _ in 0..seeks {
        it.seek(&ds_key(rng.next_below(keys)));
        // Hostile pattern: each seek lands in a deleted range and must
        // skip tombstones to find out nothing is there.
        for _ in 0..4 {
            if !it.valid() {
                break;
            }
            it.next();
        }
    }
    it.status().expect("seek storm status");
    (flood_scan_secs, start.elapsed().as_secs_f64())
}

/// Fills a fresh store under `integrity`, measures it and writes the
/// mode's section.
fn run_mode(
    bench: &mut Bench,
    kind: SystemKind,
    model: NetworkModel,
    integrity: Integrity,
    section: &str,
) -> ModeResult {
    let keys: u64 = bench.pick(2_000, 10_000);
    let readrandom_ops: u64 = bench.pick(500, 3_000);
    let seeks: u64 = bench.pick(200, 1_000);
    let with_integrity =
        |opts: Options| opts.with_integrity(integrity).with_integrity_key(ENGINE_KEY);

    let store = harness::ds_read_store(kind, model);
    harness::ds_fill(&store, keys, with_integrity);
    let sys = open_cold(&store, with_integrity);
    let (entries, scan_secs) = harness::scan_all(&sys);
    let s = sys.db().statistics().snapshot();
    assert_eq!(entries, keys, "scan missed entries");
    let readrandom_secs = readrandom(&open_cold(&store, with_integrity), keys, readrandom_ops);
    let (flood_scan_secs, seek_storm_secs) =
        tombstone_abuse(&open_cold(&store, with_integrity), keys, seeks);

    let j = bench.json();
    j.open_obj(section);
    j.field_f64("cold_scan_secs", scan_secs);
    j.field_u64("scan_entries", entries);
    j.field_u64("integrity_checks", s.integrity_checks);
    j.field_u64("integrity_failures", s.integrity_failures);
    j.field_f64("readrandom_secs", readrandom_secs);
    j.field_f64("tombstone_flood_scan_secs", flood_scan_secs);
    j.field_f64("seek_storm_secs", seek_storm_secs);
    j.close_obj();
    ModeResult {
        scan_secs,
        readrandom_secs,
        integrity_checks: s.integrity_checks,
        integrity_failures: s.integrity_failures,
    }
}

fn overhead_pct(crc: f64, hmac: f64) -> Option<f64> {
    harness::ratio(hmac - crc, crc).map(|r| r * 100.0)
}

fn main() -> ExitCode {
    let mut bench = Bench::from_args("integrity");
    let model = bench.network();
    let j = bench.json();
    j.field_str(
        "workload",
        "cold scan + readrandom + tombstone flood, crc vs hmac, remote storage",
    );
    j.open_obj("systems");
    for kind in [SystemKind::Plain, SystemKind::Shield] {
        let label = kind.slug();
        bench.json().open_obj(label);
        let crc = run_mode(&mut bench, kind, model, Integrity::Crc, "crc");
        let hmac = run_mode(&mut bench, kind, model, Integrity::Hmac, "hmac");
        let scan_overhead = overhead_pct(crc.scan_secs, hmac.scan_secs);
        let readrandom_overhead = overhead_pct(crc.readrandom_secs, hmac.readrandom_secs);
        let j = bench.json();
        j.field_opt_f64("scan_overhead_pct", scan_overhead);
        j.field_opt_f64("readrandom_overhead_pct", readrandom_overhead);
        j.close_obj();
        let shown = scan_overhead.unwrap_or(f64::NAN);
        println!(
            "  {label:>6}: scan {:.3}s -> {:.3}s ({shown:+.2}%) | readrandom {:.3}s -> {:.3}s \
             ({:+.2}%) | {} blocks verified",
            crc.scan_secs,
            hmac.scan_secs,
            crc.readrandom_secs,
            hmac.readrandom_secs,
            readrandom_overhead.unwrap_or(f64::NAN),
            hmac.integrity_checks,
        );
        bench.engaged(
            &format!(
                "{label} hmac scan verified {} blocks with {} failures on clean data",
                hmac.integrity_checks, hmac.integrity_failures
            ),
            hmac.integrity_checks > 0 && hmac.integrity_failures == 0,
        );
        bench.engaged(
            &format!("{label} crc scan ran no MAC verification"),
            crc.integrity_checks == 0,
        );
        if kind == SystemKind::Shield {
            bench.full_gate(
                &format!("shield hmac scan overhead {shown:.2}% < 10%"),
                scan_overhead.is_some_and(|pct| pct < 10.0),
            );
        }
    }
    bench.json().close_obj();
    bench.finish()
}
