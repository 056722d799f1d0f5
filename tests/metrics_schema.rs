//! Golden-key contract for the stable observability JSON: the exact key
//! sets — names *and* order — of `shield_metrics_v1`, its
//! `shield_metrics_window_v1` window objects, and the flight-recorder
//! span/slow-op objects of its `diagnostics` section.
//!
//! There is one document for every handle, pinned here in four variants:
//! a primary, a database of four trees (`shards` section), a read replica
//! (`replica` section) and a debug bundle (`diagnostics` section). Each
//! optional section trails the ten keys every variant shares.
//!
//! These documents are committed as sidecars (`OBS_metrics.json`) and
//! consumed by the bench driver; any key rename, addition, or
//! reordering must be deliberate and show up here as a diff. The
//! ticker/gauge split is part of the contract: the mirrored but
//! monotonic cache/readahead/fault/resolver counters are tickers, and
//! only point-in-time readings that can shrink are gauges.

mod support;

use std::time::Duration;

use shield_core::{json, JsonValue};
use shield_lsm::{Options, ReadOptions, WriteOptions, OP_TYPES};
use support::{drain, Mode, Primary, Store, READER};

/// Top-level keys of `shield_metrics_v1`, in emission order.
const TOP_KEYS: [&str; 10] = [
    "schema",
    "levels",
    "total_files",
    "total_bytes",
    "write_amplification",
    "read_amplification",
    "latencies_us",
    "tickers",
    "gauges",
    "windows",
];

/// Every ticker (monotonic counter), in declaration order. Mirrored
/// values (`block_cache_*`, `readahead_*`, `env_faults_injected`,
/// `resolver_*`) are tickers too: they only ever grow, so interval
/// deltas are meaningful.
const TICKER_KEYS: [&str; 52] = [
    "writes",
    "write_groups",
    "wal_bytes",
    "wal_syncs",
    "gets",
    "gets_found",
    "flushes",
    "flush_bytes",
    "compactions",
    "compaction_micros",
    "subcompactions",
    "subcompaction_micros",
    "compaction_bytes_read",
    "compaction_bytes_written",
    "sst_files_created",
    "sst_files_deleted",
    "bloom_useful",
    "write_stalls",
    "stall_micros",
    "bg_retries",
    "resumes",
    "integrity_checks",
    "integrity_failures",
    "multi_gets",
    "replica_polls",
    "replica_manifest_edits_applied",
    "replica_wal_records_applied",
    "replica_rollovers_followed",
    "replica_incomplete_tails",
    "batched_reads",
    "batch_read_requests",
    "dek_queue_hits",
    "dek_queue_misses",
    "deks_retired_unused",
    "iter_skipped",
    "iter_reseeks",
    "block_cache_hits",
    "block_cache_misses",
    "block_cache_data_hits",
    "block_cache_data_misses",
    "block_cache_index_hits",
    "block_cache_index_misses",
    "block_cache_filter_hits",
    "block_cache_filter_misses",
    "block_cache_singleflight_waits",
    "block_cache_oversized_bypass",
    "readahead_issued",
    "readahead_useful",
    "env_faults_injected",
    "resolver_retries",
    "resolver_failovers",
    "resolver_degraded_hits",
];

/// The only true gauges: point-in-time readings that can shrink.
const GAUGE_KEYS: [&str; 4] = [
    "block_cache_pinned_bytes",
    "integrity_unprotected_files",
    "env_inflight_reads",
    "replica_lag_records",
];

/// Keys of one `latencies_us.<op>` object, in emission order.
const LATENCY_KEYS: [&str; 6] = ["count", "mean", "p50", "p99", "p999", "max"];

/// Keys of the `replica` section, in emission order.
const REPLICA_KEYS: [&str; 2] = ["last_applied_seq", "last_seen_seq"];

/// Keys of the `diagnostics` section, in emission order.
const DIAGNOSTICS_KEYS: [&str; 3] = ["slow_ops", "trace_spans", "log_tail"];

/// Keys of one `shield_metrics_window_v1` object, in emission order.
const WINDOW_KEYS: [&str; 6] =
    ["schema", "seq", "end_unix_micros", "duration_micros", "deltas", "rates"];

/// Keys of one trace-span object, in emission order.
const SPAN_KEYS: [&str; 7] =
    ["trace_id", "span_id", "parent_id", "name", "start_rel_micros", "dur_nanos", "attrs"];

/// Keys of one slow-op capture, in emission order.
const SLOW_OP_KEYS: [&str; 8] = [
    "op",
    "trace_id",
    "wall_nanos",
    "threshold_nanos",
    "unix_micros",
    "dropped_spans",
    "perf",
    "spans",
];

fn open_db(opts_tweak: impl FnOnce(Options) -> Options) -> Primary {
    open_in(&Store::new(Mode::Shield), opts_tweak)
}

fn open_in(store: &Store, opts_tweak: impl FnOnce(Options) -> Options) -> Primary {
    store.open(|opts| {
        let mut opts = opts.with_write_buffer_size(16 << 10);
        opts.block_size = 256;
        opts.compaction.l0_compaction_trigger = 2;
        opts_tweak(opts)
    })
}

fn workload(db: &Primary) {
    let w = WriteOptions::default();
    for i in 0..512u32 {
        let key = format!("key-{i:05}");
        db.db.put(&w, key.as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }
    db.db.compact_all().unwrap();
    let r = ReadOptions::new();
    for i in (0..512u32).step_by(17) {
        let key = format!("key-{i:05}");
        assert!(db.db.get(&r, key.as_bytes()).unwrap().is_some());
    }
}

fn assert_exact_keys(value: &JsonValue, expect: &[&str], what: &str) {
    assert_eq!(value.keys(), expect, "{what}: key set or order drifted");
}

/// The ten shared keys, then `sections` in order.
fn top_keys(sections: &[&'static str]) -> Vec<&'static str> {
    TOP_KEYS.iter().chain(sections).copied().collect()
}

/// Asserts the key sets every variant shares below the top level.
fn assert_shared_sections(doc: &JsonValue, what: &str) {
    assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("shield_metrics_v1"), "{what}");
    let lats = doc.get("latencies_us").expect("latencies_us");
    assert_exact_keys(lats, &OP_TYPES, &format!("{what}: latencies_us ops"));
    for op in OP_TYPES {
        let what = format!("{what}: latencies_us.{op}");
        assert_exact_keys(lats.get(op).unwrap(), &LATENCY_KEYS, &what);
    }
    let section = |key: &str| doc.get(key).unwrap_or_else(|| panic!("{what}: no {key}"));
    assert_exact_keys(section("tickers"), &TICKER_KEYS, &format!("{what}: tickers"));
    assert_exact_keys(section("gauges"), &GAUGE_KEYS, &format!("{what}: gauges"));
    for level in doc.get("levels").and_then(JsonValue::as_arr).expect("levels") {
        assert_exact_keys(level, &["level", "files", "bytes"], &format!("{what}: levels[i]"));
    }
}

#[test]
fn metrics_v1_key_set_is_golden() {
    let db = open_db(|o| o);
    workload(&db);
    let doc = json::parse(&db.db.metrics_report().to_json()).expect("metrics JSON parses");
    assert_exact_keys(&doc, &TOP_KEYS, "primary top level");
    assert_shared_sections(&doc, "primary");
    let amp = doc.get("write_amplification").and_then(JsonValue::as_f64);
    assert!(amp.is_some_and(|a| a > 0.0), "a primary that wrote a WAL measured {amp:?}");
}

#[test]
fn window_v1_key_set_is_golden() {
    let db = open_db(|o| o.with_stats_dump_period(Duration::from_millis(15)));
    workload(&db);
    std::thread::sleep(Duration::from_millis(50));
    let doc = json::parse(&db.db.metrics_report().to_json()).expect("metrics JSON parses");
    let windows = doc.get("windows").and_then(JsonValue::as_arr).expect("windows");
    assert!(!windows.is_empty(), "no window rolled at a 15 ms period");
    for w in windows {
        assert_eq!(
            w.get("schema").and_then(JsonValue::as_str),
            Some("shield_metrics_window_v1")
        );
        assert_exact_keys(w, &WINDOW_KEYS, "shield_metrics_window_v1");
        // Deltas cover exactly the tickers (gauges cannot be diffed).
        assert_exact_keys(w.get("deltas").unwrap(), &TICKER_KEYS, "window deltas");
    }
}

/// A database of several trees reports through the same document: the
/// `shield_metrics_v1` key set above, database-wide totals in it, plus
/// one trailing `shards` section with each tree's share — and its debug
/// bundle adds `diagnostics` after that.
#[test]
fn sharded_metrics_are_one_document_with_a_shards_section() {
    let db = open_db(|opts| opts.with_shards(4));

    let w = WriteOptions::default();
    for i in 0..512u32 {
        let key = format!("key-{i:05}");
        db.put(&w, key.as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }
    db.compact_all().unwrap();
    let r = ReadOptions::new();
    for i in (0..512u32).step_by(17) {
        let key = format!("key-{i:05}");
        assert!(db.get(&r, key.as_bytes()).unwrap().is_some());
    }

    let doc = json::parse(&db.metrics_report().to_json()).expect("metrics JSON parses");
    assert_exact_keys(&doc, &top_keys(&["shards"]), "4-tree top level");
    assert_shared_sections(&doc, "4-tree");

    let shards = doc.get("shards").expect("shards");
    assert_exact_keys(shards, &["shard_by", "trees"], "shards");
    assert_eq!(shards.get("shard_by").and_then(JsonValue::as_str), Some("hash"));
    let trees = shards.get("trees").and_then(JsonValue::as_arr).expect("trees");
    assert_eq!(trees.len(), 4, "one entry per tree");
    let number = |obj: &JsonValue, key: &str| obj.get(key).and_then(JsonValue::as_f64).unwrap();
    let (mut files, mut flushes) = (0.0, 0.0);
    for tree in trees {
        assert_exact_keys(tree, &["levels", "flushes", "compactions"], "shards.trees[i]");
        for level in tree.get("levels").and_then(JsonValue::as_arr).expect("tree levels") {
            assert_exact_keys(level, &["level", "files", "bytes"], "shards.trees[i].levels[j]");
            files += number(level, "files");
        }
        assert!(number(tree, "flushes") > 0.0, "hash routing left a tree without a flush");
        flushes += number(tree, "flushes");
    }
    // The per-tree numbers are shares of the database-wide ones.
    assert_eq!(files, number(&doc, "total_files"));
    assert_eq!(flushes, number(doc.get("tickers").unwrap(), "flushes"));

    let bundle = json::parse(&db.debug_bundle().to_json()).expect("debug bundle parses");
    assert_exact_keys(&bundle, &top_keys(&["shards", "diagnostics"]), "4-tree debug bundle");
}

/// A read replica answers with the same document: the shared key set,
/// then a `replica` section with the two positions no ticker holds. What
/// a replica does not measure — write amplification without a WAL of its
/// own, latencies it records no histogram for — is `null`, not `0`.
#[test]
fn replica_metrics_are_one_document_with_a_replica_section() {
    let store = Store::new(Mode::Shield);
    let db = open_in(&store, |o| o);
    workload(&db);
    let replica = store.replica(READER).expect("open replica");
    drain(&replica);
    assert!(replica.get(b"key-00017").expect("replica get").is_some());

    let doc = json::parse(&replica.metrics_report().to_json()).expect("replica metrics parse");
    assert_exact_keys(&doc, &top_keys(&["replica"]), "replica top level");
    assert_shared_sections(&doc, "replica");
    let section = doc.get("replica").expect("replica section");
    assert_exact_keys(section, &REPLICA_KEYS, "replica section");
    let number = |key: &str| section.get(key).and_then(JsonValue::as_f64);
    assert!(number("last_applied_seq").is_some_and(|seq| seq > 0.0));
    assert_eq!(number("last_applied_seq"), number("last_seen_seq"), "a drained replica lags");
    assert_eq!(doc.get("write_amplification"), Some(&JsonValue::Null));
    let get = doc.get("latencies_us").and_then(|l| l.get("get")).expect("latencies_us.get");
    assert_eq!(get.get("count").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(get.get("p99"), Some(&JsonValue::Null));
    let total_files = doc.get("total_files").and_then(JsonValue::as_f64);
    assert!(total_files.is_some_and(|n| n > 0.0), "the replica's view names no file");
}

#[test]
fn trace_and_slow_op_key_sets_are_golden() {
    let db = open_db(|o| o.with_slow_op_threshold(Duration::ZERO));
    workload(&db);
    let doc = json::parse(&db.db.debug_bundle().to_json()).expect("debug bundle parses");
    assert_exact_keys(&doc, &top_keys(&["diagnostics"]), "debug bundle top level");
    assert_shared_sections(&doc, "debug bundle");
    let doc = doc.get("diagnostics").expect("diagnostics");
    assert_exact_keys(doc, &DIAGNOSTICS_KEYS, "diagnostics section");
    let spans = doc.get("trace_spans").and_then(JsonValue::as_arr).expect("trace_spans");
    assert!(!spans.is_empty());
    for s in spans {
        assert_exact_keys(s, &SPAN_KEYS, "trace span");
    }
    let slow = doc.get("slow_ops").and_then(JsonValue::as_arr).expect("slow_ops");
    assert!(!slow.is_empty());
    for s in slow {
        assert_exact_keys(s, &SLOW_OP_KEYS, "slow op");
        for span in s.get("spans").and_then(JsonValue::as_arr).unwrap() {
            assert_exact_keys(span, &SPAN_KEYS, "slow-op span");
        }
    }
}
