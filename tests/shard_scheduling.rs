//! Fair-scheduling regression suite for the job pool the trees of a
//! [`Db`] share: a shard whose compactions saturate the pool must never
//! delay another shard's flush — the flush lane is reserved (at most
//! `workers - 1` general jobs run at once) and flush jobs dequeue ahead
//! of queued general work. A starved flush would stall every writer (one
//! write front), so these tests also run the stall watchdog and require
//! that it stays silent.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shield_core::{Event, EventListener};
use shield_env::{FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_lsm::{Db, JobClass, Options, WriteOptions};

/// Collects every engine event; the tests assert no watchdog flags.
#[derive(Default)]
struct Capture {
    events: Mutex<Vec<Event>>,
}

impl Capture {
    fn watchdog_stacks(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter_map(|e| match e {
                Event::Watchdog { op, stack, .. } => Some(format!("{op}: {stack}")),
                _ => None,
            })
            .collect()
    }
}

impl EventListener for Capture {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Two range shards (split at `m`) on a two-worker shared pool, so the
/// general-class cap is one and exactly one worker is flush-reserved.
fn two_shard_opts(env: Arc<dyn shield_env::Env>) -> Options {
    let mut opts = Options::new(env)
        .with_shard_ranges(vec![b"m".to_vec()])
        .with_background_jobs(2)
        .with_write_buffer_size(4 << 10)
        .with_tracing()
        .with_watchdog_deadline(Duration::from_secs(2));
    opts.compaction.l0_compaction_trigger = 2;
    opts.compaction.target_file_size = 2 << 10;
    opts
}

fn watch(db: &Db) -> Arc<Capture> {
    let cap = Arc::new(Capture::default());
    db.events().add(cap.clone());
    cap
}

/// Flushes and compactions shard `i` has completed, from the `shards`
/// section of the metrics report.
fn shard_work(db: &Db, i: usize) -> (u64, u64) {
    let tree = &db.metrics_report().trees[i];
    (tree.flushes, tree.compactions)
}

/// Deterministic reserve-lane check: long general-class jobs occupy the
/// shared pool exactly the way a hot shard's compaction backlog would
/// (one running for seconds, more queued behind it), and a flush of the
/// *other* shard must still complete almost immediately through the
/// reserved worker. Losing either half of the fairness rule — the
/// reserved lane or the priority dequeue — pushes the flush behind
/// seconds of general work and trips the latency bound.
#[test]
fn flush_is_not_delayed_by_a_saturated_general_lane() {
    let db = Db::open(two_shard_opts(Arc::new(MemEnv::new())), "db").expect("open");
    let cap = watch(&db);
    let w = WriteOptions::default();

    // Sleepers stand in for a neighbor shard's compaction backlog: with
    // two workers the general cap is one, so at most one may run; a
    // second running sleeper means the reserve lane is gone.
    for _ in 0..4 {
        db.job_pool().spawn(
            JobClass::General,
            Box::new(|| std::thread::sleep(Duration::from_millis(1500))),
        );
    }

    // Shard 1 (keys >= "m") takes writes and a blocking flush (shard 0
    // is empty, so it is the only one flushed) while the backlog holds
    // the general lane.
    for i in 0..50u32 {
        db.put(&w, format!("z{i:04}").as_bytes(), &[b'v'; 64]).expect("put");
    }
    let start = Instant::now();
    db.flush().expect("flush");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "flush waited {elapsed:?} behind general jobs — reserved lane lost"
    );
    assert_eq!(
        cap.watchdog_stacks(),
        Vec::<String>::new(),
        "watchdog flagged a stalled op during general saturation"
    );
    assert!(shard_work(&db, 1).0 > 0, "flush never ran");
}

/// End-to-end variant with *real* compactions: shard 0 is made hot
/// (tiny files, delayed SST reads) until its compactions queue on the
/// shared pool, then shard 1's writers and a full flush must proceed at
/// flush speed. The watchdog must stay silent, and shard 0's backlog
/// must still be draining afterwards to prove the pool really was
/// saturated while shard 1 flushed.
#[test]
fn flush_outruns_a_compaction_saturated_neighbor() {
    let fenv = Arc::new(FaultInjectionEnv::new(Arc::new(MemEnv::new())));
    let db = Db::open(two_shard_opts(fenv.clone()), "db").expect("open");
    let cap = watch(&db);
    let w = WriteOptions::default();

    // Build shard 0 an L0 backlog (only it holds data, so only it is
    // flushed): each burst overflows the 4 KiB write buffer, and every
    // second file trips the compaction trigger.
    for burst in 0..8u32 {
        for i in 0..40u32 {
            let key = format!("a{:04}", burst * 40 + i);
            db.put(&w, key.as_bytes(), &[b'x'; 128]).expect("put");
        }
        db.flush().expect("shard 0 flush");
    }
    // From here on compactions crawl: every SST read stalls 2 ms, so
    // the queued merges hold the general lane for a long time.
    fenv.delay_always(FileKind::Sst, FaultOp::Read, Duration::from_millis(2));
    for i in 0..80u32 {
        db.put(&w, format!("b{i:04}").as_bytes(), &[b'x'; 128]).expect("put");
    }
    db.flush().expect("shard 0 flush");
    let compactions_before = shard_work(&db, 0).1;

    // Shard 1 now needs the pool: writes plus a full flush (WAL switch +
    // flush of every non-empty shard) must finish at flush speed.
    for i in 0..120u32 {
        db.put(&w, format!("z{i:04}").as_bytes(), &[b'v'; 64]).expect("put");
    }
    let start = Instant::now();
    db.flush().expect("flush");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "flush took {elapsed:?} behind a neighbor's compactions"
    );
    assert!(shard_work(&db, 1).0 > 0, "shard 1 never flushed");

    fenv.clear_delay(FileKind::Sst, FaultOp::Read);
    db.wait_for_background_work().expect("drain");
    let compactions_after = shard_work(&db, 0).1;
    assert!(
        compactions_after > compactions_before,
        "no compaction was pending while shard 1 flushed — the pool was never contended"
    );
    assert_eq!(
        cap.watchdog_stacks(),
        Vec::<String>::new(),
        "watchdog flagged a stalled op under cross-shard load"
    );
}
