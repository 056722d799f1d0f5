//! Flight-recorder tour: traced operations over simulated remote
//! storage, the slow-op ring, windowed stats, the stall watchdog, and
//! the one-document debug bundle — all through the public API.
//!
//! ```sh
//! cargo run --release --example flight_recorder
//! ```

use std::sync::{Arc, Mutex};
use std::time::Duration;

use shield::{
    open_shield, Event, EventListener, ReadOptions, ShieldDb, ShieldOptions, WriteOptions,
};
use shield_core::json;
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::Options;

/// A user-supplied listener capturing the recorder's event stream.
#[derive(Default)]
struct Capture {
    events: Mutex<Vec<Event>>,
}

impl EventListener for Capture {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

fn open(env: Arc<dyn Env>, kds: Arc<LocalKds>, opts: impl FnOnce(Options) -> Options) -> ShieldDb {
    let mut o = Options::new(env).with_write_buffer_size(16 << 10);
    o.block_size = 256;
    o.compaction.l0_compaction_trigger = 2;
    open_shield(
        opts(o),
        "db",
        ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"flight recorder tour"),
    )
    .expect("open shield")
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

fn populate(env: Arc<dyn Env>, kds: Arc<LocalKds>, n: u32) {
    let db = open(env, kds, |o| o);
    let w = WriteOptions::default();
    for i in 0..n {
        db.put(&w, &key(i), format!("value-{i}").as_bytes()).expect("put");
    }
    db.compact_all().expect("compact_all");
}

fn main() {
    // 1. Trace a cold batched lookup over remote storage. The span tree
    //    shows exactly where a multi_get's wall time went: batched
    //    read_at_many windows, verification, single-flight waits.
    let net = NetworkModel {
        rtt: Duration::from_micros(200),
        bandwidth_bytes_per_sec: Some(125_000_000),
        write_packet_bytes: 64 * 1024,
    };
    let env: Arc<dyn Env> = Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), net));
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    populate(env.clone(), kds.clone(), 256);
    let db = open(env, kds, Options::with_tracing);
    let keys: Vec<Vec<u8>> = (0..256).step_by(4).take(64).map(key).collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    for slot in db.multi_get(&ReadOptions::new(), &refs) {
        assert!(slot.expect("multi_get slot").is_some());
    }
    let spans = db.trace_spans();
    let root = spans
        .iter()
        .find(|s| s.parent_id == 0 && s.name == "multi_get")
        .expect("multi_get root span");
    println!("cold multi_get(64) over remote storage — trace {}:", root.trace_id);
    let mut tree: Vec<_> = spans.iter().filter(|s| s.trace_id == root.trace_id).collect();
    tree.sort_by_key(|s| s.span_id);
    for s in tree {
        let indent = if s.parent_id == 0 { "" } else { "  " };
        println!("  {indent}{:<18} {:>9} ns  {:?}", s.name, s.dur_nanos, s.attrs);
    }
    let windows: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == root.trace_id && s.name == "read_window")
        .collect();
    let window_nanos: u64 = windows.iter().map(|s| s.dur_nanos).sum();
    assert!(windows.len() >= 2, "expected batched windows, got {}", windows.len());
    assert!(window_nanos <= root.dur_nanos);
    println!(
        "  {} batched windows, {window_nanos} ns of {} ns wall\n",
        windows.len(),
        root.dur_nanos
    );

    // 2. Slow-op capture: a 10 ms injected storage delay pushes a cold
    //    get over a 2 ms threshold; the ring keeps its span tree and
    //    PerfContext for post-hoc diagnosis.
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let kds = Arc::new(LocalKds::new(KdsConfig::default()));
    populate(Arc::new(fenv.clone()), kds.clone(), 128);
    let capture = Arc::new(Capture::default());
    let db = open(Arc::new(fenv.clone()), kds, |o| {
        o.with_slow_op_threshold(Duration::from_millis(2))
            .with_watchdog_deadline(Duration::from_millis(40))
            .with_event_listener(capture.clone())
    });
    fenv.delay_n_times(FileKind::Sst, FaultOp::Read, Duration::from_millis(10), 8);
    assert!(db.get(&ReadOptions::new(), &key(17)).expect("get").is_some());
    let slow = db.slow_ops();
    let s = slow.iter().find(|s| s.op == "get").expect("slow get captured");
    println!(
        "slow op: {} took {:.1} ms (threshold {:.1} ms), {} spans, block_read = {} ns",
        s.op,
        s.wall_nanos as f64 / 1e6,
        s.threshold_nanos as f64 / 1e6,
        s.spans.len(),
        s.perf.block_read_nanos
    );
    assert!(capture.events.lock().unwrap().iter().any(|e| e.name() == "slow_op"));

    // 3. Stall watchdog: an always-on 300 ms read delay pins the next
    //    get past its 40 ms deadline; the watchdog names the stuck op
    //    and its live span stack while it is still running.
    fenv.delay_always(FileKind::Sst, FaultOp::Read, Duration::from_millis(300));
    assert!(db.get(&ReadOptions::new(), &key(31)).expect("get").is_some());
    fenv.disarm_all();
    let events = capture.events.lock().unwrap();
    let flagged = events
        .iter()
        .find_map(|e| match e {
            Event::Watchdog { op, elapsed_micros, stack, .. } => {
                Some((*op, *elapsed_micros, stack.clone()))
            }
            _ => None,
        })
        .expect("watchdog flagged the stuck get");
    drop(events);
    println!("watchdog: '{}' pinned for {} µs, stack: {}", flagged.0, flagged.1, flagged.2);

    // 4. The debug bundle: the metrics report (recent windows included)
    //    with its diagnostics section filled — slow ops, the trace ring
    //    and the LOG tail — everything above, shippable in one document.
    let bundle = db.debug_bundle().to_json();
    let doc = json::parse(&bundle).expect("bundle parses");
    let diagnostics = doc.get("diagnostics").expect("bundle has a diagnostics section");
    for section in ["slow_ops", "trace_spans", "log_tail"] {
        assert!(diagnostics.get(section).is_some(), "diagnostics missing {section}");
    }
    let schema = doc.get("schema").and_then(|s| s.as_str()).expect("schema");
    println!("debug bundle: {} bytes, schema {schema}", bundle.len());

    println!("\nflight-recorder tour complete");
}
