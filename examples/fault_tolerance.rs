//! Fault-tolerance tour: crash recovery, storage-fault retry/resume, KDS
//! replica failover, and full-outage degraded mode — all driven through
//! the public API against a fault-injection environment.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;
use std::time::Duration;

use shield::{open_shield, ShieldDb, ShieldOptions};
use shield_env::{FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_kds::{Kds, KdsConfig, ReplicatedKds, RetryPolicy, ServerId};
use shield_lsm::{Error, Options, ReadOptions, WriteOptions};

fn main() {
    run();
}

#[allow(clippy::too_many_lines)]
fn run() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let kds = Arc::new(ReplicatedKds::new(3, KdsConfig::default()));
    let w = WriteOptions::default();
    let wsync = WriteOptions { sync: true };
    let r = ReadOptions::new();

    let open = |fenv: &FaultInjectionEnv| -> ShieldDb {
        let mut sopts =
            ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"tour passkey");
        sopts.retry_policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        open_shield(Options::new(Arc::new(fenv.clone())), "db", sopts).expect("open")
    };

    // ---- Scene 1: crash with a torn, unsynced WAL tail --------------------
    println!("== scene 1: crash with a torn WAL tail ==");
    let db = open(&fenv);
    for i in 0..200u32 {
        db.put(&w, format!("acked:{i:04}").as_bytes(), b"durable").expect("put");
    }
    db.put(&wsync, b"acked:marker", b"synced").expect("sync put");
    fenv.torn_write_n_times(FileKind::Wal, 1);
    for j in 0..4u32 {
        let _ = db.put(&w, format!("doomed:{j}").as_bytes(), &[b'd'; 300]);
    }
    fenv.disarm_all();
    db.db.simulate_process_crash();
    fenv.crash().expect("crash");
    let db = open(&fenv);
    assert_eq!(db.get(&r, b"acked:marker").expect("get"), Some(b"synced".to_vec()));
    assert_eq!(db.get(&r, b"acked:0199").expect("get"), Some(b"durable".to_vec()));
    let survivors = (0..4u32)
        .filter(|j| db.get(&r, format!("doomed:{j}").as_bytes()).expect("get").is_some())
        .count();
    let fs = fenv.stats();
    println!("  after crash+reopen: all 201 synced keys present");
    println!("  unsynced tail: {survivors}/4 survived (any number is legal)");
    println!("  env: {} crash(es), {} torn write(s)", fs.crashes, fs.torn_writes);

    // ---- Scene 2: transient SST fault retried by the background job -------
    println!("== scene 2: transient SST append fault during flush ==");
    fenv.error_once(FileKind::Sst, FaultOp::Append);
    for i in 0..50u32 {
        db.put(&w, format!("retry:{i:03}").as_bytes(), b"v").expect("put");
    }
    db.flush().expect("flush survives one injected fault");
    let stats = db.statistics().snapshot();
    println!(
        "  flush succeeded; bg_retries={} env_faults_injected={}",
        stats.bg_retries, stats.env_faults_injected
    );
    assert!(stats.bg_retries >= 1, "flush should have retried the soft fault");

    // ---- Scene 3: persistent fault -> sticky error -> resume --------------
    println!("== scene 3: persistent SST faults park a resumable error ==");
    fenv.error_n_times(FileKind::Sst, FaultOp::Append, 10_000);
    for i in 0..50u32 {
        db.put(&w, format!("stuck:{i:03}").as_bytes(), b"v").expect("put");
    }
    let err = db.flush().expect_err("flush must fail while faults persist");
    println!("  flush error: {err}");
    let bg = db.background_error().expect("sticky background error");
    println!("  background_error(): {bg}");
    assert_eq!(db.get(&r, b"acked:marker").expect("read during bg error"), Some(b"synced".to_vec()));
    println!("  reads still serve while writes are parked");
    fenv.disarm_all();
    db.resume().expect("resume after disarm");
    assert!(db.background_error().is_none());
    db.flush().expect("flush after resume");
    println!("  resume() cleared it; flush now ok (resumes={})", db.statistics().snapshot().resumes);

    // probe: resume() on a healthy engine is a no-op
    db.resume().expect("resume on healthy db is Ok");
    println!("  probe: resume() with no pending error -> Ok (no-op)");

    // ---- Scene 4: one KDS replica down -> transparent failover ------------
    println!("== scene 4: single KDS replica failure ==");
    kds.fail_replica(0);
    for i in 0..30u32 {
        db.put(&w, format!("failover:{i:02}").as_bytes(), b"v").expect("put");
    }
    db.flush().expect("flush with one replica down");
    println!("  flush (new DEK fetch) ok; kds failovers={}", kds.failover_count());
    kds.recover_replica(0);
    // probe: out-of-range replica index is a documented no-op
    kds.fail_replica(99);
    kds.recover_replica(42);
    db.flush().expect("flush unaffected by out-of-range replica ops");
    println!("  probe: fail_replica(99)/recover_replica(42) -> no-op, engine unaffected");

    // ---- Scene 5: total KDS outage -> degraded mode -> recovery -----------
    println!("== scene 5: total KDS outage ==");
    kds.fail_all();
    // Note: flushing an *empty* memtable during the outage is a no-op and
    // succeeds — the failure needs actual data, because only a real flush
    // rotates the WAL and demands a fresh DEK.
    db.flush().expect("empty flush is a no-op even during an outage");
    // The engine keeps a few DEKs ready (`READY_DEKS`), and a flush takes
    // two (next WAL segment, the SST): the first flushes of an outage
    // still succeed, and nothing refills the queue until the KDS is back.
    let mut flushed = 0;
    let err = loop {
        for i in 0..30u32 {
            let key = format!("outage:{flushed}:{i:02}");
            db.put(&w, key.as_bytes(), b"v").expect("puts use the live WAL DEK");
        }
        match db.flush() {
            Ok(()) => flushed += 1,
            Err(err) => break err,
        }
        assert!(flushed <= shield_lsm::READY_DEKS + 1, "flushes outlived the ready DEKs");
    };
    assert!(matches!(err, Error::Encryption(_)), "unexpected error class: {err}");
    println!("  {flushed} flushes on ready DEKs, then: {err}");
    assert!(db.resolver.is_degraded(), "resolver should be degraded");
    assert_eq!(db.get(&r, b"acked:marker").expect("degraded read"), Some(b"synced".to_vec()));
    let rs = db.resolver.stats();
    let gauges = db.statistics().snapshot();
    println!(
        "  degraded mode: reads on cached DEKs ok; retries={} degraded_hits={} (gauge {} / {})",
        rs.retries, rs.degraded_hits, gauges.resolver_retries, gauges.resolver_degraded_hits
    );
    kds.recover_all();
    db.resume().expect("resume after KDS recovery");
    db.flush().expect("flush after recovery");
    assert!(!db.resolver.is_degraded());
    assert_eq!(db.get(&r, b"outage:0:00").expect("get"), Some(b"v".to_vec()));
    let last = format!("outage:{flushed}:29");
    assert_eq!(db.get(&r, last.as_bytes()).expect("get"), Some(b"v".to_vec()));
    println!("  KDS back: resume + flush ok, outage-era writes durable, degraded flag cleared");

    // ---- Final: integrity sweep ------------------------------------------
    let report = db.verify_integrity().expect("verify_integrity");
    println!("== integrity: {report:?} ==");
    println!("fault-tolerance tour complete");
}
