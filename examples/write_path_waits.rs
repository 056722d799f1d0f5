//! Where a file creation waits, per kind of operation: the ledger behind
//! EXPERIMENTS.md "The write path's three waits". A SHIELD database
//! configured like the repo benchmark's (`sstoolkit_like` KDS: 2.75 ms per
//! generated key; HMAC integrity; 4 MiB memtable; 4 background jobs) takes
//! uniform random puts for a while with the flight recorder on; every
//! flush, compaction and slow put lands in the slow-op ring with its
//! `PerfContext`, and the three sections that time a file creation —
//! `dek_wait`, `file_create`, `manifest_sync` — are summed per op kind.
//!
//! ```sh
//! cargo run --release --example write_path_waits                 # db_bench fillrandom, local files
//! cargo run --release --example write_path_waits -- --remote     # 20k puts/s over a 500 us / 1 Gbps mount
//! ```

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shield::{Encryption, ShieldOptions, WriteOptions};
use shield_env::{Env, NetworkModel, PosixEnv, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{Db, Integrity, Options};

/// Ops of one kind seen in the slow-op ring.
#[derive(Default)]
struct Waits {
    ops: u64,
    wall: u64,
    dek_wait: u64,
    dek_resolve: u64,
    file_create: u64,
    manifest_sync: u64,
}

fn main() {
    let remote = std::env::args().any(|a| a == "--remote");
    let seconds = 15;
    let dir = format!("target/write_path_waits-{}", std::process::id());
    let _ = std::fs::remove_dir_all(&dir);

    let mut env: Arc<dyn Env> = Arc::new(PosixEnv::new());
    if remote {
        env = Arc::new(RemoteEnv::new(env, NetworkModel::intra_datacenter()));
    }
    let kds = Arc::new(LocalKds::new(KdsConfig::sstoolkit_like()));
    let mut opts = Options::new(env)
        .with_write_buffer_size(4 << 20)
        .with_background_jobs(4)
        .with_integrity(Integrity::Hmac)
        // Flushes and compactions always cross this; so does a put that
        // switched the memtable or sat out a stall.
        .with_slow_op_threshold(Duration::from_millis(1));
    opts.encryption = Encryption::Shield(ShieldOptions::new(kds.clone(), ServerId(1), b"waits"));
    let db = Db::open(opts, &dir).expect("open");

    let stop = AtomicBool::new(false);
    let mut seen = HashSet::new();
    let mut by_op: BTreeMap<&'static str, Waits> = BTreeMap::new();
    let puts = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let (w, value) = (WriteOptions::default(), [b'v'; 100]);
            let (mut x, mut puts, start) = (0x9e37_79b9_7f4a_7c15u64, 0u64, Instant::now());
            while !stop.load(Ordering::Relaxed) {
                // xorshift64*: uniform over 3,000,000 sixteen-byte keys.
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let id = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % 3_000_000;
                db.put(&w, format!("{id:016}").as_bytes(), &value).expect("put");
                puts += 1;
                if remote {
                    // Open loop at 20,000 puts/s.
                    let due = start + Duration::from_micros(puts * 50);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
            }
            puts
        });
        let deadline = Instant::now() + Duration::from_secs(seconds);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            for op in db.slow_ops() {
                if seen.insert(op.trace_id) {
                    let waits = by_op.entry(op.op).or_default();
                    waits.ops += 1;
                    waits.wall += op.wall_nanos;
                    waits.dek_wait += op.perf.dek_wait_nanos;
                    waits.dek_resolve += op.perf.dek_resolve_nanos;
                    waits.file_create += op.perf.file_create_nanos;
                    waits.manifest_sync += op.perf.manifest_sync_nanos;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer")
    });

    let s = db.statistics().snapshot();
    let ms = |nanos: u64| nanos as f64 / 1e6;
    println!(
        "{} for {seconds} s: {puts} puts, {} flushes, {} compactions, {} SSTs created",
        if remote { "20k puts/s over RemoteEnv" } else { "fillrandom on local files" },
        s.flushes,
        s.compactions,
        s.sst_files_created
    );
    println!(
        "keys: {} generated; files took {} ready + {} inline; stalls {} ({:.0} ms)",
        kds.stats().generated,
        s.dek_queue_hits,
        s.dek_queue_misses,
        s.write_stalls,
        s.stall_micros as f64 / 1e3
    );
    println!("op kind      ops   wall ms  dek_wait  (dek_resolve)  file_create  manifest_sync");
    for (op, w) in &by_op {
        println!(
            "{op:<11} {:>4} {:>9.1} {:>9.2} {:>14.2} {:>12.2} {:>14.2}",
            w.ops,
            ms(w.wall),
            ms(w.dek_wait),
            ms(w.dek_resolve),
            ms(w.file_create),
            ms(w.manifest_sync)
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
