//! The ready rule of the file layer (`crates/lsm/src/files.rs`, DESIGN.md
//! §4m) as a primary's user sees it: no key is generated on the commit
//! path, and the keys generated ahead of need die like every other key —
//! at close, or at the open after a crash — even the ones no file was
//! ever bound to.

mod support;

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use shield_crypto::{Algorithm, Dek, DekId};
use shield_env::{Env, FaultInjectionEnv, FaultOp, FileKind, MemEnv};
use shield_kds::{Kds, KdsResult, KdsStats, ServerId};
use shield_lsm::{WriteOptions, READY_DEKS};
use support::{small, Mode, Primary, Store};

/// Keys generated and not yet bound to a file or retired.
fn ready(db: &Primary) -> u64 {
    let generated = db.resolver().expect("a SHIELD primary").stats().generated;
    let s = db.statistics().snapshot();
    generated - s.dek_queue_hits - s.dek_queue_misses - s.deks_retired_unused
}

/// Lets the background work finish and the refill jobs fill the queue.
fn wait_until_full(db: &Primary) {
    db.wait_for_background_work().expect("quiesce");
    let deadline = Instant::now() + Duration::from_secs(10);
    while ready(db) < READY_DEKS as u64 {
        assert!(Instant::now() < deadline, "the queue never filled: {} ready", ready(db));
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn fill(db: &Primary, round: u32, puts: u32) {
    for i in 0..puts {
        let key = format!("r{round:03}-k{i:04}");
        db.put(&WriteOptions::default(), key.as_bytes(), &[b'v'; 100]).expect("put");
    }
}

/// (b) A crash with a full queue leaves `READY_DEKS` keys at the KDS and
/// in the secure cache that no file names; the next open revokes them.
#[test]
fn open_after_a_crash_revokes_the_keys_no_file_names() {
    let store = Store::new(Mode::Shield);
    let kds = store.local.clone().expect("ledger");
    let db = store.open(small);
    fill(&db, 0, 300);
    db.flush().expect("flush");
    wait_until_full(&db);
    db.db.simulate_process_crash();
    let files = kds.live_dek_count() - READY_DEKS;

    let db = store.open(small);
    assert_eq!(db.statistics().snapshot().deks_retired_unused, READY_DEKS as u64);
    // The crashed process's WAL and MANIFEST are gone too, replaced by
    // this one's; what it left ready is all that is unaccounted for.
    assert!(kds.live_dek_count() <= files + READY_DEKS);
    for i in 0..300 {
        let key = format!("r000-k{i:04}");
        assert!(db.get(&Default::default(), key.as_bytes()).expect("get").is_some(), "{key}");
    }
    store.close(db);
}

/// (b) A key taken for a file whose creation then failed (the crash
/// "between key taken and header written") is swept the same way.
#[test]
fn open_after_a_crash_revokes_a_key_taken_for_a_file_never_written() {
    let fenv = FaultInjectionEnv::new(Arc::new(MemEnv::new()));
    let store = Store::over(Mode::Shield, Arc::new(fenv.clone()));
    let db = store.open(small);
    fill(&db, 0, 50);
    // The flush's first attempt takes a key and fails to create its SST;
    // the retry takes another.
    fenv.error_once(FileKind::Sst, FaultOp::Open);
    db.flush().expect("the flush retries a transient fault");
    assert!(db.statistics().snapshot().bg_retries >= 1, "the fault never fired");
    db.db.simulate_process_crash();

    let db = store.open(small);
    assert!(db.statistics().snapshot().deks_retired_unused >= 1, "the taken key was not swept");
    store.close(db);
}

/// A KDS that remembers which thread asked for each key.
struct ThreadKds {
    inner: Arc<dyn Kds>,
    generators: Mutex<Vec<ThreadId>>,
}

impl Kds for ThreadKds {
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
        self.generators.lock().expect("generators").push(std::thread::current().id());
        self.inner.generate_dek(requester, algorithm)
    }
    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
        self.inner.fetch_dek(requester, id)
    }
    fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
        self.inner.revoke_dek(id)
    }
    fn authorize_server(&self, server: ServerId) {
        self.inner.authorize_server(server);
    }
    fn revoke_server(&self, server: ServerId) {
        self.inner.revoke_server(server);
    }
    fn stats(&self) -> KdsStats {
        self.inner.stats()
    }
}

/// (c) The commit path generates no key: across a dozen memtable switches
/// made by the writing thread (each creates the next WAL segment), every
/// `generate_dek` the KDS sees comes from a pool thread.
#[test]
fn a_memtable_switch_generates_no_key_on_the_writers_thread() {
    let medium: Arc<dyn Env> = Arc::new(MemEnv::new());
    let plain = Store::over(Mode::Shield, medium);
    let kds = Arc::new(ThreadKds { inner: plain.kds.clone(), generators: Mutex::default() });
    let store = Store { kds: kds.clone(), ..plain };
    let me = std::thread::current().id();
    let by_me = || kds.generators.lock().expect("generators").iter().filter(|&&id| id == me).count();

    // `open` runs here, and creates its MANIFEST before anything is ready.
    let db = store.open(small);
    fill(&db, 0, 100);
    wait_until_full(&db);
    let (before, switched) = (by_me(), db.statistics().snapshot().flushes);
    assert!(switched >= 1, "the first switch");

    // Two rounds overflow the 8 KiB memtable about once; the queue is
    // full again before the next, whatever the pool threads took.
    for round in 1..=30 {
        fill(&db, round, 50);
        wait_until_full(&db);
    }
    let s = db.statistics().snapshot();
    assert!(s.flushes >= switched + 10, "only {} switches", s.flushes - switched);
    assert_eq!(by_me(), before, "a key was generated on the writer's thread");
    store.close(db);
}
