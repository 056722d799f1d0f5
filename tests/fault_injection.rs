//! Fault-injection torture harness: write → crash → reopen → verify loops
//! under every encryption mode, storage faults during background work, and
//! full KDS outages.
//!
//! The failure model (see DESIGN.md, "Failure model & degradation matrix"):
//!
//! * a system crash may lose unsynced data but never synced data;
//! * transient storage faults are retried and then parked as a sticky,
//!   resumable background error — reads keep serving throughout;
//! * a total KDS outage degrades SHIELD to cached-DEK service: files whose
//!   DEKs are in the secure cache stay readable, new files stall.

mod support;

use std::sync::Arc;

use shield::DEK_CACHE_FILE;
use shield_crypto::Algorithm;
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_kds::{Kds, KdsError, SecureDekCache, ServerId};
use shield_lsm::{Db, Error, Options, ReadOptions, WriteOptions, READY_DEKS};
use support::{laws, replicated, Mode, Store, MODES, READER};

fn key(round: u32, i: u32) -> Vec<u8> {
    format!("r{round:02}-k{i:04}").into_bytes()
}

fn wsync() -> WriteOptions {
    WriteOptions { sync: true }
}

/// Runs `work` against a freshly opened handle, then lets the handle die
/// like a crashed process (no clean shutdown work) — after its tickers
/// passed the conservation laws.
fn with_db(store: &Store, work: impl FnOnce(&Db)) {
    let db = store.open(|opts| opts);
    work(&db);
    laws(&db.metrics_report().tickers);
    db.db.simulate_process_crash();
}

/// Acceptance (a): a crash right after a synced write loses none of the
/// acked (synced) data, in all three encryption modes, across repeated
/// rounds, with torn WAL writes armed for the unsynced tail.
#[test]
fn crash_after_sync_loses_no_acked_writes_in_all_modes() {
    for mode in MODES {
        let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
        let (store, _) = replicated(mode, Arc::new(fenv.clone()), 2);
        const ROUNDS: u32 = 3;
        const N: u32 = 40;
        for round in 0..ROUNDS {
            with_db(&store, |db| {
                for i in 0..N - 1 {
                    db.put(&WriteOptions::default(), &key(round, i), b"v").unwrap();
                }
                // The durability point: sync covers the whole WAL prefix.
                db.put(&wsync(), &key(round, N - 1), b"v").unwrap();
                // An unsynced, torn-write tail the crash is allowed to eat.
                // Payloads larger than SHIELD's 512-byte WAL buffer force
                // real env appends in every mode, so the torn rule fires.
                fenv.torn_write_n_times(FileKind::Wal, 1);
                for j in 0..4u32 {
                    let _ = db.put(&WriteOptions::default(), &key(round, 9000 + j), &[b'd'; 300]);
                }
                fenv.disarm_all();
            });
            // System crash: unsynced bytes vanish.
            fenv.crash().unwrap();
            // Reopen and verify every synced round so far, then keep going.
            with_db(&store, |db| {
                let r = ReadOptions::new();
                for vr in 0..=round {
                    for i in 0..N {
                        assert!(
                            db.get(&r, &key(vr, i)).unwrap().is_some(),
                            "{mode:?}: round {round}: lost acked {}",
                            String::from_utf8_lossy(&key(vr, i)),
                        );
                    }
                }
            });
        }
        let stats = fenv.stats();
        assert_eq!(stats.crashes, ROUNDS as u64, "{mode:?}");
        assert!(stats.torn_writes >= 1, "{mode:?}: torn writes never fired");
    }
}

/// Acceptance (b): an SST-read fault during compaction parks the engine on
/// a sticky background error; reads keep serving; after disarming the
/// fault, [`Db::resume`] clears the error and the re-driven compaction
/// succeeds.
#[test]
fn sst_read_fault_during_compaction_is_resumable() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let db = Store::over(Mode::Plain, Arc::new(fenv.clone())).open(|mut opts| {
        opts.write_buffer_size = 4 << 10;
        opts.compaction.l0_compaction_trigger = 2;
        opts
    });

    // A clean first batch, flushed to SSTs with no faults armed.
    for i in 0..200u32 {
        db.put(&WriteOptions::default(), &key(0, i), &[b'x'; 64]).unwrap();
    }
    db.compact_all().unwrap();

    // Arm persistent SST read faults — enough to outlast the bounded
    // background retries — and drive more data into compaction.
    fenv.error_n_times(FileKind::Sst, FaultOp::Read, 10_000);
    let mut failure = None;
    'workload: for batch in 1..6u32 {
        for i in 0..200u32 {
            if let Err(e) = db.put(&WriteOptions::default(), &key(batch, i), &[b'y'; 64]) {
                failure = Some(e);
                break 'workload;
            }
        }
        if let Err(e) = db.compact_all() {
            failure = Some(e);
            break;
        }
    }
    let failure = failure.expect("SST read faults must surface as an engine error");
    assert!(matches!(failure, Error::Io(_)), "unexpected error kind: {failure}");
    assert!(!failure.retryable() || failure.severity() == shield_lsm::Severity::Soft);

    // Soft faults were retried before sticking.
    let stats = db.statistics();
    assert!(
        stats.bg_retries.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "soft faults should be retried before parking"
    );
    assert!(
        stats.env_faults_injected.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "fault gauge should mirror the env"
    );

    fenv.disarm_all();

    // Sticky error: writes refused, reads still fine.
    assert!(db.background_error().is_some());
    let r = ReadOptions::new();
    for i in 0..200u32 {
        assert!(db.get(&r, &key(0, i)).unwrap().is_some(), "read blocked by bg error");
    }

    // Resume clears the error and re-drives the backlog to completion.
    db.resume().expect("resume after disarm");
    assert!(db.background_error().is_none());
    assert_eq!(
        db.statistics().resumes.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    db.put(&WriteOptions::default(), b"post-resume", b"v").unwrap();
    db.compact_all().unwrap();
    assert!(db.get(&r, b"post-resume").unwrap().is_some());
    laws(&db.metrics_report().tickers);
}

/// Acceptance (c): with every KDS replica down, DEKs in the secure cache
/// keep resolving (degraded mode) while uncached fetches fail with
/// `Unavailable`; retry and failover counts are observable; recovery plus
/// [`Db::resume`] brings the engine back.
#[test]
fn kds_total_outage_degrades_to_cached_deks_and_resumes() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let (store, kds) = replicated(Mode::Shield, env.clone(), 3);
    let db = store.open(|opts| opts);
    let resolver = db.resolver.clone().expect("a SHIELD primary has a resolver");

    for i in 0..100u32 {
        db.put(&WriteOptions::default(), &key(0, i), b"v").unwrap();
    }
    db.flush().unwrap();

    // A DEK this instance has cached (any of its files') and one it has
    // never seen (generated by another server).
    let cache =
        SecureDekCache::open(env.clone(), &format!("db/{DEK_CACHE_FILE}"), b"pk").unwrap();
    let cached_id = *cache.ids().first().expect("cache holds this instance's DEKs");
    let uncached = kds.generate_dek(ServerId(9), Algorithm::Aes128Ctr).unwrap();

    kds.fail_all();

    // Uncached fetch: retried to exhaustion, then Unavailable.
    match resolver.resolve(uncached.id()) {
        Err(shield_kds::ResolverError::Kds(KdsError::Unavailable(_))) => {}
        other => panic!("uncached resolve during outage: {other:?}"),
    }
    assert!(resolver.is_degraded());

    // Cached DEKs keep resolving: existing files stay readable.
    resolver.resolve(cached_id).expect("cached DEK must survive the outage");
    let r = ReadOptions::new();
    for i in 0..100u32 {
        assert!(db.get(&r, &key(0, i)).unwrap().is_some(), "read lost during KDS outage");
    }

    // Retries, failovers and degraded hits are all observable.
    let rs = resolver.stats();
    assert_eq!(rs.retries, 2, "max_attempts=3 → 2 retries: {rs:?}");
    assert!(rs.degraded_hits >= 1, "{rs:?}");
    assert!(rs.failovers >= 1, "{rs:?}");
    let gauges = db.statistics();
    assert_eq!(
        gauges.resolver_retries.load(std::sync::atomic::Ordering::Relaxed),
        rs.retries
    );
    assert!(
        gauges.resolver_degraded_hits.load(std::sync::atomic::Ordering::Relaxed) >= 1
    );

    // New files need fresh DEKs. The ones the file store had ready still
    // create files (a flush takes two: the next WAL segment and the SST),
    // so a few more flushes succeed; nothing refills the queue during the
    // outage, and then a flush fails as it always did, while the data
    // already written stays queryable from the memtable.
    let mut rounds = 0u32;
    let flush_err = loop {
        rounds += 1;
        for i in 0..50u32 {
            db.put(&WriteOptions::default(), &key(rounds, i), b"v").unwrap();
        }
        match db.flush() {
            Ok(()) => assert!(
                rounds as usize <= READY_DEKS + 1,
                "{rounds} flushes succeeded on {READY_DEKS} ready keys and a dead KDS"
            ),
            Err(e) => break e,
        }
    };
    assert!(matches!(flush_err, Error::Encryption(_)), "got {flush_err}");
    assert!(flush_err.to_string().contains("KDS unavailable"), "got {flush_err}");
    assert!(db.get(&r, &key(rounds, 0)).unwrap().is_some());

    // Replicas return; the same handle recovers without a restart.
    kds.recover_all();
    db.resume().expect("resume clears any parked state after recovery");
    assert!(db.background_error().is_none());
    db.flush().expect("flush succeeds once the KDS is back");
    assert!(!resolver.is_degraded());
    db.put(&wsync(), b"post-recovery", b"v").unwrap();
    assert!(db.get(&r, b"post-recovery").unwrap().is_some());
    for round in 1..=rounds {
        for i in 0..50u32 {
            assert!(db.get(&r, &key(round, i)).unwrap().is_some(), "outage-era write lost");
        }
    }
    laws(&db.metrics_report().tickers);
}

/// Counters are true without anyone asking the right handle: the
/// resolver's retry / failover / degraded counts reach
/// `metrics_report()` (and so the LOG stats dump, the windowed stats and
/// `debug_bundle()`) through the engine's own mirror refresh —
/// `statistics()` is never called here.
#[test]
fn resolver_gauges_reach_the_metrics_report_without_a_statistics_call() {
    let (store, kds) = replicated(Mode::Shield, Arc::new(MemEnv::new()), 3);
    let db = store.open(|opts| opts);
    for i in 0..100u32 {
        db.put(&WriteOptions::default(), &key(0, i), b"v").unwrap();
    }
    db.flush().unwrap();
    drop(db);

    // Reopen cold, take the KDS away and let the resolver notice (a DEK
    // it never cached is unreachable): the table the next read opens
    // resolves its DEK from the secure cache, in degraded mode.
    let db = store.open(|opts| opts);
    let uncached = kds.generate_dek(ServerId(9), Algorithm::Aes128Ctr).unwrap();
    kds.fail_all();
    let resolver = db.resolver.as_ref().expect("a SHIELD primary has a resolver");
    assert!(resolver.resolve(uncached.id()).is_err());
    assert!(db.get(&ReadOptions::new(), &key(0, 7)).unwrap().is_some());
    let report = db.metrics_report();
    assert!(report.tickers.resolver_degraded_hits >= 1, "the engine never mirrored its resolver");
    let doc = shield_core::json::parse(&report.to_json()).expect("metrics parse");
    let in_json = doc.get("tickers").and_then(|t| t.get("resolver_degraded_hits"));
    assert_eq!(
        in_json.and_then(|v| v.as_f64()),
        Some(report.tickers.resolver_degraded_hits as f64)
    );
}

/// A replica's counters are true too: it resolves every DEK through its
/// own identity, so a KDS that fails while a table opens shows up as the
/// replica's resolver retries in the replica's own report — the same
/// document, built by the same function, as a primary's.
#[test]
fn replica_resolver_retries_reach_its_metrics_report() {
    let (store, kds) = replicated(Mode::Shield, Arc::new(MemEnv::new()), 3);
    let db = store.open(|opts| opts);
    for i in 0..100u32 {
        db.put(&wsync(), &key(0, i), b"v").unwrap();
    }
    db.flush().unwrap();
    // The open resolves the MANIFEST's and the WAL segment's keys; the
    // SST's is resolved when the first read opens the table.
    let replica = store.replica(READER).expect("open replica");
    kds.fail_all();
    assert!(replica.get(&key(0, 7)).is_err(), "a table opened without its DEK");

    let report = replica.metrics_report();
    assert!(report.tickers.resolver_retries > 0, "the replica never mirrored its resolver");
    let doc = shield_core::json::parse(&report.to_json()).expect("metrics parse");
    let in_json = doc.get("tickers").and_then(|t| t.get("resolver_retries"));
    assert_eq!(in_json.and_then(|v| v.as_f64()), Some(report.tickers.resolver_retries as f64));
    let progress = report.replica.expect("a replica's report has a replica section");
    assert_eq!(progress.last_applied_seq, replica.sequence());
    assert_eq!(report.tickers.replica_lag_records, replica.staleness());
    kds.recover_all();
}

/// The full stack composes: fault env under SHIELD, crash loops with SST
/// write faults armed, ending in an intact, verifiable database.
#[test]
fn shield_crash_loop_with_write_faults_converges() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let (store, _) = replicated(Mode::Shield, Arc::new(fenv.clone()), 2);
    for round in 0..4u32 {
        with_db(&store, |db| {
            // One transient SST append fault per round: the flush retries
            // (soft I/O error) and must still land the data.
            fenv.error_once(FileKind::Sst, FaultOp::Append);
            for i in 0..60u32 {
                db.put(&WriteOptions::default(), &key(round, i), &[b'z'; 32]).unwrap();
            }
            db.put(&wsync(), &key(round, 60), b"v").unwrap();
            let _ = db.flush();
            fenv.disarm_all();
        });
        fenv.crash().unwrap();
    }
    with_db(&store, |db| {
        let r = ReadOptions::new();
        for round in 0..4u32 {
            for i in 0..=60u32 {
                assert!(
                    db.get(&r, &key(round, i)).unwrap().is_some(),
                    "round {round} lost key {i}"
                );
            }
        }
        db.verify_integrity().expect("post-torture integrity");
    });
}

/// A compaction whose *input* SST has been tampered with (under
/// authenticated-integrity mode) must park `IntegrityViolation` as the
/// background error — and, unlike the transient storage faults above,
/// [`Db::resume`] must refuse to clear it: forged data is not a condition
/// that clears by retrying.
#[test]
fn tampered_sst_during_compaction_is_unrecoverable() {
    let env = MemEnv::new();
    let hmac_opts = |trigger: usize| {
        let mut o = Options::new(Arc::new(env.clone()))
            .with_integrity(shield_lsm::Integrity::Hmac)
            .with_integrity_key([0x42; 32])
            .with_write_buffer_size(1 << 20);
        o.compaction.l0_compaction_trigger = trigger;
        o
    };
    // Phase 1 (high trigger, no background compaction): two overlapping
    // L0 files, so the eventual compaction must merge — a trivial move
    // would never read the tampered input.
    {
        let db = Db::open(hmac_opts(100), "db").unwrap();
        let w = WriteOptions::default();
        for round in 0..2 {
            for i in 0..500u32 {
                db.put(&w, &key(round, i), b"fault-injection-payload").unwrap();
            }
            db.put(&w, b"overlap", &[round as u8]).unwrap();
            db.flush().unwrap();
        }
    }
    let mut ssts: Vec<String> = env
        .list_dir("db")
        .unwrap()
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .collect();
    ssts.sort();
    let path = format!("db/{}", ssts[0]);
    let mut raw = env.raw_content(&path).unwrap();
    raw[10] ^= 0x01; // inside data block 0 of a plaintext SST
    env.set_raw_content(&path, raw).unwrap();

    // Phase 2: reopen with a low trigger; the L0→L1 merge now reads the
    // forged input.
    let db = Db::open(hmac_opts(2), "db").unwrap();
    assert!(db.compact_all().is_err(), "merge over forged input must fail");
    let bg = db.background_error().expect("violation parks as background error");
    assert!(
        matches!(bg, Error::IntegrityViolation(_)),
        "classified as a violation, not corruption: {bg}"
    );
    let resumed = db.resume();
    assert!(
        matches!(resumed, Err(Error::IntegrityViolation(_))),
        "resume must refuse to clear an integrity violation"
    );
    assert!(db.background_error().is_some(), "the error stays parked");
    let snap = db.statistics().snapshot();
    assert!(snap.integrity_failures >= 1, "failure ticker must bump");
}
