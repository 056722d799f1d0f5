//! Flight-recorder coverage (PR 8): hierarchical trace spans, the
//! slow-op ring, the stall watchdog, windowed stats, and the debug
//! bundle — exercised end to end over simulated remote storage
//! ([`RemoteEnv`]) and injected env delays ([`FaultInjectionEnv`]).
//!
//! The acceptance shape from the issue: a cold SHIELD `multi_get(64)`
//! over remote storage must leave exactly one trace whose root is the
//! op, with at least two batched `read_window` spans beneath it whose
//! durations sum to no more than the op's wall time; when the slow-op
//! threshold sits below that latency the same op must land in the
//! slow-op ring with its span tree and PerfContext; a read pinned past
//! the watchdog deadline must be flagged *while still running*; and
//! `Db::debug_bundle()` must be the metrics document carrying all of it
//! in its `diagnostics` section.

mod support;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use shield_core::{json, Event, EventListener, Section};
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv, NetworkModel, RemoteEnv};
use shield_lsm::{Options, ReadOptions, WriteOptions};
use support::{Mode, Primary, Store};

/// Captures every event name (and the rendered payload of the ones the
/// tests assert on) emitted by the engine.
#[derive(Default)]
struct Capture {
    events: Mutex<Vec<Event>>,
}

impl Capture {
    fn names(&self) -> Vec<&'static str> {
        self.events.lock().unwrap().iter().map(Event::name).collect()
    }

    fn find<F: Fn(&Event) -> bool>(&self, pred: F) -> Option<Event> {
        self.events.lock().unwrap().iter().find(|e| pred(e)).cloned()
    }
}

impl EventListener for Capture {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// One SHIELD instance over `env`, with small files/blocks so workloads
/// span several tables and many blocks.
/// A SHIELD store over `env`.
struct Fixture(Store);

impl Fixture {
    fn new(env: Arc<dyn Env>) -> Self {
        Fixture(Store::over(Mode::Shield, env))
    }

    /// Opens with tiny blocks and an eager compaction trigger, then `tweak`.
    fn open(&self, tweak: impl FnOnce(Options) -> Options) -> Primary {
        self.0.open(|opts| {
            let mut opts = opts.with_write_buffer_size(16 << 10);
            opts.table.block_size = 256;
            opts.compaction.l0_compaction_trigger = 2;
            tweak(opts)
        })
    }

    /// Writes `n` keys and compacts them into persistent tables, then
    /// closes the DB so the next open starts with a cold cache.
    fn populate(&self, n: u32) {
        let db = self.open(|opts| opts);
        let w = WriteOptions::default();
        for i in 0..n {
            db.db.put(&w, &key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        db.db.compact_all().unwrap();
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// The issue's acceptance shape: one cold SHIELD `multi_get(64)` over
/// remote storage yields one trace rooted at the op, with ≥ 2 batched
/// `read_window` spans whose durations sum to ≤ the op's wall time.
#[test]
fn cold_multi_get_trace_has_batched_window_spans() {
    let net = NetworkModel {
        rtt: Duration::from_micros(200),
        bandwidth_bytes_per_sec: Some(125_000_000),
        write_packet_bytes: 64 * 1024,
    };
    let fx = Fixture::new(Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), net)));
    fx.populate(256);

    let db = fx.open(Options::with_tracing);
    let keys: Vec<Vec<u8>> = (0..256).step_by(4).take(64).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let results = db.db.multi_get(&ReadOptions::new(), &refs);
    assert_eq!(results.len(), 64);
    for r in results {
        assert!(r.expect("multi_get slot").is_some());
    }

    let spans = db.db.trace_spans();
    let roots: Vec<_> =
        spans.iter().filter(|s| s.parent_id == 0 && s.name == "multi_get").collect();
    assert_eq!(roots.len(), 1, "expected exactly one multi_get trace, got {roots:?}");
    let root = roots[0];
    assert_eq!(root.span_id, 1, "root span id");

    let children: Vec<_> =
        spans.iter().filter(|s| s.trace_id == root.trace_id && s.parent_id != 0).collect();
    assert!(!children.is_empty(), "trace carried no child spans");
    let windows: Vec<_> = children.iter().filter(|s| s.name == "read_window").collect();
    assert!(
        windows.len() >= 2,
        "expected >= 2 batched read_window spans, got {}",
        windows.len()
    );
    for w in &windows {
        assert!(
            w.attrs.iter().any(|&(k, v)| k == "blocks" && v >= 1),
            "read_window span missing its blocks attribute: {w:?}"
        );
    }
    let window_nanos: u64 = windows.iter().map(|s| s.dur_nanos).sum();
    assert!(
        window_nanos <= root.dur_nanos,
        "window spans ({window_nanos} ns) exceed the op wall time ({} ns)",
        root.dur_nanos
    );
    // The batch fetch itself is recorded, with its window fan-out.
    assert!(
        children.iter().any(|s| s.name == "fetch_batch"
            && s.attrs.iter().any(|&(k, v)| k == "windows" && v >= 2)),
        "no fetch_batch span with a windows attribute in {children:?}"
    );
}

/// An op slower than `slow_op_threshold` (here: a cold get stalled by an
/// injected 10 ms env delay) must land in the slow-op ring with its span
/// tree and PerfContext, and emit a `slow_op` event.
#[test]
fn slow_op_captured_under_injected_delay() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let fx = Fixture::new(Arc::new(fenv.clone()));
    fx.populate(128);

    let capture = Arc::new(Capture::default());
    let db = fx.open(|opts| {
        opts.with_slow_op_threshold(Duration::from_millis(2))
            .with_event_listener(capture.clone())
    });
    fenv.delay_n_times(FileKind::Sst, FaultOp::Read, Duration::from_millis(10), 8);
    assert!(db.db.get(&ReadOptions::new(), &key(17)).unwrap().is_some());
    fenv.disarm_all();

    let slow = db.db.slow_ops();
    let hit = slow
        .iter()
        .find(|s| s.op == "get")
        .unwrap_or_else(|| panic!("no slow get captured in {slow:?}"));
    assert!(
        hit.wall_nanos >= hit.threshold_nanos,
        "captured op beat its own threshold: {hit:?}"
    );
    assert!(hit.wall_nanos >= 10_000_000, "injected 10 ms delay missing from wall time");
    assert_eq!(hit.spans.first().map(|s| s.name), Some("get"), "span tree must start at root");
    assert!(
        hit.spans.iter().any(|s| s.parent_id != 0),
        "slow-op capture lost the child spans: {:?}",
        hit.spans
    );
    assert!(capture.names().contains(&"slow_op"), "no slow_op event emitted");
}

/// A slow-op threshold set as a field, without `trace_ops` or its
/// builder, turns the recorder on at open: the ops it crosses are
/// captured rather than silently dropped.
#[test]
fn slow_op_threshold_set_as_a_field_captures() {
    let fx = Fixture::new(Arc::new(MemEnv::new()));
    fx.populate(64);
    let db = fx.open(|mut opts| {
        opts.slow_op_threshold = Some(Duration::from_nanos(1));
        assert!(!opts.trace_ops, "the field alone must be enough");
        opts
    });
    assert!(db.db.get(&ReadOptions::new(), &key(17)).unwrap().is_some());
    let slow = db.db.slow_ops();
    assert!(slow.iter().any(|s| s.op == "get"), "no slow get captured in {slow:?}");
}

/// One instrument per timed section: in the slow-op captures of a traced
/// cold `get` and a traced `put`, the spans of every section that has a
/// `PerfContext` field add up to exactly that field (span and field come
/// from the same two clock readings), and the sections directly under
/// the root fit inside its wall time.
#[test]
fn section_spans_add_up_to_their_perf_fields() {
    let fx = Fixture::new(Arc::new(MemEnv::new()));
    fx.populate(128);
    let db = fx.open(|opts| opts.with_slow_op_threshold(Duration::from_nanos(1)));
    assert!(db.db.get(&ReadOptions::new(), &key(17)).unwrap().is_some());
    db.db.put(&WriteOptions::default(), &key(1_000), b"section").unwrap();

    let slow = db.db.slow_ops();
    for op in ["get", "put"] {
        let capture = slow
            .iter()
            .find(|s| s.op == op)
            .unwrap_or_else(|| panic!("no {op} captured in {slow:?}"));
        let perf = capture.perf.fields();
        for section in Section::ALL {
            let Some(field) = section.field() else { continue };
            let spans: u64 = capture
                .spans
                .iter()
                .filter(|s| s.parent_id != 0 && s.name == section.name())
                .map(|s| s.dur_nanos)
                .sum();
            let charged = perf.iter().find(|(name, _)| *name == field).map(|&(_, v)| v);
            assert_eq!(Some(spans), charged, "{op}: {field} vs its `{}` spans", section.name());
        }
        let root = &capture.spans[0];
        let top: u64 =
            capture.spans.iter().filter(|s| s.parent_id == root.span_id).map(|s| s.dur_nanos).sum();
        assert!(top <= root.dur_nanos, "{op}: sections {top} ns > wall {} ns", root.dur_nanos);
    }
    let get = &slow.iter().find(|s| s.op == "get").unwrap().perf;
    assert!(get.block_read_nanos > 0 && get.block_decrypt_nanos > 0, "get was not cold: {get:?}");
    let put = &slow.iter().find(|s| s.op == "put").unwrap().perf;
    assert!(put.wal_append_nanos > 0 && put.memtable_insert_nanos > 0, "{put:?}");
}

/// A read pinned past `watchdog_deadline` must be flagged by the
/// watchdog thread *while the op is still running*, with its live span
/// stack — and flagged exactly once.
#[test]
fn watchdog_flags_stuck_read() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let fx = Fixture::new(Arc::new(fenv.clone()));
    fx.populate(128);

    let capture = Arc::new(Capture::default());
    let db = fx.open(|opts| {
        opts.with_watchdog_deadline(Duration::from_millis(40))
            .with_event_listener(capture.clone())
    });
    fenv.delay_always(FileKind::Sst, FaultOp::Read, Duration::from_millis(300));
    assert!(db.db.get(&ReadOptions::new(), &key(31)).unwrap().is_some());
    fenv.disarm_all();

    let flagged = capture
        .find(|e| matches!(e, Event::Watchdog { .. }))
        .expect("watchdog never fired for a 300 ms read against a 40 ms deadline");
    let Event::Watchdog { op, elapsed_micros, deadline_micros, stack, .. } = flagged else {
        unreachable!()
    };
    assert_eq!(op, "get");
    assert_eq!(deadline_micros, 40_000);
    assert!(elapsed_micros >= deadline_micros, "flagged before the deadline");
    assert!(stack.contains("get"), "live stack lost the root op: {stack:?}");
    let fired = capture.names().iter().filter(|n| **n == "watchdog").count();
    assert_eq!(fired, 1, "one stuck op must be flagged exactly once");
}

/// `stats_dump_period` must roll interval windows: counter deltas with
/// derived rates, a `stats_window` event per interval, and the window
/// objects surfaced through the metrics report, as typed values and as
/// the `windows` section of its JSON.
#[test]
fn stats_windows_roll_with_rates() {
    let fx = Fixture::new(Arc::new(MemEnv::new()));
    let capture = Arc::new(Capture::default());
    let db = fx.open(|opts| {
        opts.with_stats_dump_period(Duration::from_millis(20))
            .with_event_listener(capture.clone())
    });

    let w = WriteOptions::default();
    let deadline = std::time::Instant::now() + Duration::from_millis(160);
    let mut i = 0u32;
    while std::time::Instant::now() < deadline {
        db.db.put(&w, &key(i % 64), b"window-payload").unwrap();
        assert!(db.db.get(&ReadOptions::new(), &key(i % 64)).unwrap().is_some());
        if i % 8 == 7 {
            // A batched lookup is one read per key, not one more on top.
            let keys: Vec<Vec<u8>> = (0..8).map(key).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            db.db.multi_get(&ReadOptions::new(), &refs);
        }
        i += 1;
        std::thread::sleep(Duration::from_millis(1));
    }

    let windows = db.db.metrics_report().windows;
    assert!(!windows.is_empty(), "no stats window rolled in 160 ms at a 20 ms period");
    let last = windows.last().unwrap();
    assert!(last.duration_micros > 0);
    assert!(last.delta("writes").unwrap_or(0) > 0, "interval writes delta empty: {last:?}");
    for rate in ["writes_per_sec", "reads_per_sec", "cache_hit_ratio", "stall_fraction"] {
        assert!(
            last.rates.iter().any(|(k, _)| *k == rate),
            "window missing rate {rate}: {last:?}"
        );
    }
    let writes_rate = last
        .rates
        .iter()
        .find(|(k, _)| *k == "writes_per_sec")
        .map(|&(_, v)| v)
        .unwrap();
    assert!(writes_rate > 0.0, "writes_per_sec must be positive under a write loop");
    // `reads_per_sec` is the `gets` ticker over the interval: every key a
    // `get` or a `multi_get` looked up, counted once.
    assert!(
        windows.iter().any(|w| w.delta("multi_gets").unwrap_or(0) > 0),
        "no window saw a multi_get"
    );
    for w in &windows {
        let rate = w.rates.iter().find(|(k, _)| *k == "reads_per_sec").map(|&(_, v)| v).unwrap();
        let reads = (rate * w.duration_micros as f64 / 1e6).round() as u64;
        assert_eq!(Some(reads), w.delta("gets"), "window {} over-counts reads: {w:?}", w.seq);
    }
    assert!(capture.names().contains(&"stats_window"), "no stats_window event emitted");

    // The windows ride along in the stable metrics JSON.
    let report = json::parse(&db.db.metrics_report().to_json()).expect("metrics JSON parses");
    let arr = report.get("windows").and_then(|w| w.as_arr()).expect("windows array");
    assert!(!arr.is_empty());
    assert_eq!(
        arr[0].get("schema").and_then(|s| s.as_str()),
        Some("shield_metrics_window_v1")
    );
}

/// `Db::debug_bundle()` is the one metrics document with its
/// `diagnostics` section filled: the report (which carries the stats
/// windows, once), then the slow-op ring, the trace ring, and the LOG
/// tail.
#[test]
fn debug_bundle_is_one_parseable_document() {
    let fx = Fixture::new(Arc::new(MemEnv::new()));
    fx.populate(128);
    let db = fx.open(|opts| {
        opts.with_slow_op_threshold(Duration::ZERO) // every op is "slow"
            .with_stats_dump_period(Duration::from_millis(10))
    });
    let w = WriteOptions::default();
    for i in 0..32 {
        db.db.put(&w, &key(i), b"bundle").unwrap();
    }
    assert!(db.db.get(&ReadOptions::new(), &key(7)).unwrap().is_some());
    std::thread::sleep(Duration::from_millis(30));

    let bundle = db.db.debug_bundle().to_json();
    let doc = json::parse(&bundle).expect("debug bundle parses as JSON");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("shield_metrics_v1"));
    let windows = doc.get("windows").and_then(|w| w.as_arr()).expect("metrics windows");
    assert!(!windows.is_empty(), "no stats window rolled in 30 ms at a 10 ms period");
    let diagnostics = doc.get("diagnostics").expect("diagnostics section");
    assert!(diagnostics.get("windows").is_none(), "the windows ride in the report once");
    let slow = diagnostics.get("slow_ops").and_then(|s| s.as_arr()).expect("slow_ops array");
    assert!(!slow.is_empty(), "zero threshold captured no slow ops");
    let spans = diagnostics.get("trace_spans").and_then(|s| s.as_arr()).expect("trace_spans");
    assert!(!spans.is_empty(), "trace ring empty despite traced ops");
    let tail = diagnostics.get("log_tail").and_then(|t| t.as_str()).expect("log_tail string");
    assert!(tail.contains("db_open"), "LOG tail lost the open event: {tail:?}");
}

/// Tracing off (the default) records nothing and allocates nothing per
/// op: the rings stay empty however hard the DB is driven.
#[test]
fn disabled_tracing_records_nothing() {
    let fx = Fixture::new(Arc::new(MemEnv::new()));
    fx.populate(64);
    let db = fx.open(|opts| opts);
    let w = WriteOptions::default();
    for i in 0..64 {
        db.db.put(&w, &key(i), b"quiet").unwrap();
        assert!(db.db.get(&ReadOptions::new(), &key(i)).unwrap().is_some());
    }
    assert!(db.db.trace_spans().is_empty(), "trace ring must stay empty when disabled");
    assert!(db.db.slow_ops().is_empty(), "slow-op ring must stay empty when disabled");
}
