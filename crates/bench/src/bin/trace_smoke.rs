//! Flight-recorder smoke gate — `verify.sh`'s trace tier.
//!
//! A smoke-only gate: it writes `target/TRACE_smoke.json` unless `--out`
//! names another file.
//!
//! Five checks, any failure exits non-zero:
//!
//! 1. **Disabled-tracing overhead** — one `trace::span()` call with no
//!    op active (the exact hook the hot paths now carry) must cost
//!    < 2% of encrypting one 4 KiB chunk, so compiled-in tracing is
//!    free until someone turns it on.
//! 2. **Trace engagement** — a cold SHIELD `multi_get(64)` over a
//!    simulated remote env must yield exactly one trace whose root is
//!    the op, carrying ≥ 2 batched `read_window` spans whose durations
//!    sum to ≤ the op's wall time.
//! 3. **Slow-op capture** — with `slow_op_threshold` = 2 ms and a 10 ms
//!    injected env delay on SST reads, a cold get must land in the
//!    slow-op ring with its span tree and PerfContext, and emit a
//!    `slow_op` event.
//! 4. **Watchdog** — with `watchdog_deadline` = 40 ms and an always-on
//!    300 ms read delay, the stall watchdog must flag the running op
//!    (exactly once) with a live span stack naming it.
//! 5. **Debug bundle** — `Db::debug_bundle()` must parse as one JSON
//!    document carrying metrics/windows/slow_ops/trace_spans/log_tail.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use shield_bench::harness::{self, Bench};
use shield_bench::{SystemHandle, SystemKind, SystemStore, Tuning};
use shield_core::{json, trace, Event, EventListener};
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv, RemoteEnv};
use shield_lsm::{Options, ReadOptions, WriteOptions};

#[derive(Default)]
struct Capture {
    events: Mutex<Vec<Event>>,
}

impl EventListener for Capture {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// A SHIELD store of `n` small entries over `env`, tuned (16 KiB
/// memtable, 256 B blocks, L0 trigger 2) so they span many blocks.
fn populated(env: Arc<dyn Env>, n: u32) -> SystemStore {
    let tuning =
        Tuning { write_buffer_size: 16 << 10, l0_compaction_trigger: 2, ..Tuning::default() };
    let store = SystemStore::new(SystemKind::ShieldBuf, env, "db", tuning);
    let sys = open(&store, |opts| opts);
    let w = WriteOptions::default();
    for i in 0..n {
        sys.db().put(&w, &key(i), format!("value-{i}").as_bytes()).expect("put");
    }
    sys.db().compact_all().expect("compact_all");
    store
}

fn open(store: &SystemStore, adjust: impl FnOnce(Options) -> Options) -> SystemHandle {
    store
        .open_with(|mut opts| {
            opts.block_size = 256;
            adjust(opts)
        })
        .expect("open shield")
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

fn main() -> ExitCode {
    let mut bench = Bench::smoke_only_from_args("trace_smoke", "target/TRACE_smoke.json");
    bench.json().field_str("schema", "shield_trace_smoke_v1");

    // 1. Disabled-tracing overhead gate: one `trace::span()` call with no
    // op active — the exact hook the WAL, fetcher, and compaction paths
    // carry.
    let span_ns = harness::best_of_3_ns(200_000, || {
        let s = trace::span(black_box("bench"));
        black_box(&s);
    });
    let (chunk_ns, overhead) = bench.disabled_hook_gate("trace::span", span_ns);
    let j = bench.json();
    j.field_f64("disabled_span_ns", span_ns);
    j.field_f64("chunk_encrypt_ns", chunk_ns);
    j.field_f64("disabled_overhead_ratio", overhead);

    // 2. Trace engagement: cold multi_get(64) over remote storage.
    {
        let net = harness::ds_network(200);
        let store = populated(Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), net)), 256);
        let sys = open(&store, Options::with_tracing);
        let keys: Vec<Vec<u8>> = (0..256).step_by(4).take(64).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let found = sys
            .db()
            .multi_get(&ReadOptions::new(), &refs)
            .into_iter()
            .all(|slot| slot.expect("multi_get slot").is_some());
        bench.engaged("multi_get found every key", found);
        let spans = sys.db().trace_spans();
        let roots: Vec<_> =
            spans.iter().filter(|s| s.parent_id == 0 && s.name == "multi_get").collect();
        let windows: Vec<_> = roots
            .first()
            .map(|root| {
                spans
                    .iter()
                    .filter(|s| s.trace_id == root.trace_id && s.name == "read_window")
                    .collect()
            })
            .unwrap_or_default();
        let window_nanos: u64 = windows.iter().map(|s| s.dur_nanos).sum();
        let wall_nanos = roots.first().map_or(0, |r| r.dur_nanos);
        let j = bench.json();
        j.field_u64("multi_get_traces", roots.len() as u64);
        j.field_u64("read_window_spans", windows.len() as u64);
        j.field_u64("window_nanos", window_nanos);
        j.field_u64("op_wall_nanos", wall_nanos);
        bench
            .engaged(&format!("{} multi_get trace(s), exactly one", roots.len()), roots.len() == 1);
        bench.engaged(
            &format!("{} batched read_window span(s), at least 2", windows.len()),
            windows.len() >= 2,
        );
        bench.engaged(
            &format!("window spans ({window_nanos} ns) fit the op's wall time ({wall_nanos} ns)"),
            window_nanos <= wall_nanos,
        );
    }

    // 3. Slow-op capture under an injected 10 ms delay.
    {
        let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
        let store = populated(Arc::new(fenv.clone()), 128);
        let capture = Arc::new(Capture::default());
        let sys = open(&store, |opts| {
            opts.with_slow_op_threshold(Duration::from_millis(2))
                .with_event_listener(capture.clone())
        });
        fenv.delay_n_times(FileKind::Sst, FaultOp::Read, Duration::from_millis(10), 8);
        let got = sys.db().get(&ReadOptions::new(), &key(17)).expect("get");
        fenv.disarm_all();
        let slow = sys.db().slow_ops();
        let captured = got.is_some() && slow.iter().any(|s| s.op == "get" && !s.spans.is_empty());
        let event = capture.events.lock().unwrap().iter().any(|e| e.name() == "slow_op");
        bench.json().field_u64("slow_ops_captured", slow.len() as u64);
        bench.json().field_bool("slow_op_event", event);
        bench.engaged(
            &format!(
                "10 ms-delayed get captured as a slow op ({} captures, event={event})",
                slow.len()
            ),
            captured && event,
        );
    }

    // 4. Watchdog fires while a read is stuck.
    {
        let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
        let store = populated(Arc::new(fenv.clone()), 128);
        let capture = Arc::new(Capture::default());
        let sys = open(&store, |opts| {
            opts.with_watchdog_deadline(Duration::from_millis(40))
                .with_event_listener(capture.clone())
        });
        fenv.delay_always(FileKind::Sst, FaultOp::Read, Duration::from_millis(300));
        let got = sys.db().get(&ReadOptions::new(), &key(31)).expect("get");
        fenv.disarm_all();
        let flagged = capture
            .events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches!(e, Event::Watchdog { op: "get", .. }))
            .count();
        bench.json().field_u64("watchdog_flags", flagged as u64);
        bench.engaged(
            &format!("watchdog flagged the stuck get {flagged} time(s), exactly once"),
            got.is_some() && flagged == 1,
        );

        // 5. Debug bundle parses, on the same (traced, eventful) DB.
        let bundle = json::parse(&sys.db().debug_bundle());
        bench.json().field_bool("debug_bundle_parses", bundle.is_ok());
        bench.engaged("debug bundle parses", bundle.is_ok());
        for section in ["metrics", "windows", "slow_ops", "trace_spans", "log_tail"] {
            bench.engaged(
                &format!("debug bundle has section {section}"),
                bundle.as_ref().is_ok_and(|doc| doc.get(section).is_some()),
            );
        }
    }
    bench.finish()
}
