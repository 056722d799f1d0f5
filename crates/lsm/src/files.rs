//! The file layer: the one place an [`Env`], an [`Encryption`] design and
//! an integrity key meet ([`FileStore::new`]).
//!
//! SHIELD's disaggregated story (paper §5.2, §5.4) rests on one rule: *any*
//! server — primary, read replica, offloaded compactor — opens *any* file
//! from the DEK-ID in its plaintext header under its own identity. A
//! [`FileStore`] is that server's view of the shared files, and states the
//! three rules every persistent file obeys:
//!
//! * **Key rule.** A file that got a DEK (every SST, MANIFEST and WAL
//!   segment of a SHIELD engine, except WAL segments under
//!   [`crate::ShieldOptions::encrypt_wal`]` = false`) is authenticated with a
//!   subkey of *that* DEK; a file without one (plain and EncFS
//!   deployments, plaintext WALs) with the engine-wide
//!   [`IntegrityOptions::key`]. Writers tag only under
//!   [`Integrity::Hmac`]; readers always hold the key, because
//!   verification is format-driven (a tagged file is verified whatever
//!   the current mode).
//! * **Retire rule.** A dead file's DEK is revoked (KDS and secure cache)
//!   before the file is unlinked, so keys die with their files (§5.2).
//! * **Ready rule.** Creating a file *takes or generates* its key: a
//!   store whose database hooked it to a job pool ([`crate::Db::open`],
//!   nobody else) keeps up to [`READY_DEKS`] keys generated ahead of need
//!   — each already at the KDS and in the secure cache, each bound to at
//!   most one file — and a creation pops one instead of waiting out a KDS
//!   round trip; on an empty queue, and in every store without the hook,
//!   it generates inline. A take that leaves the queue short schedules
//!   one generation per pool job on the flush lane, again while the queue
//!   is short and never after a failure. Keys that were never bound die
//!   too: at **close** the store stops refilling, waits for the refill in
//!   flight (nothing touches the cache file once the database is gone)
//!   and revokes them as one batch; after a **crash** the next open of
//!   the database whose directory holds the cache file revokes every
//!   cached id that none of its live files names; in a **KDS outage**
//!   what is queued (plus one refill that was in flight) still creates
//!   files, then `Unavailable` surfaces as it always did.
//!
//! Everything above this module — [`crate::Db`], [`crate::ReplicaDb`],
//! [`crate::version::TableCache`] (through which flushes and compactions
//! create and open tables), [`crate::version::VersionSet`],
//! [`crate::version::ManifestTailer`], the offloaded compactor — holds a
//! `FileStore` and calls it; none of them decides a key.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex};
use shield_core::{EventDispatcher, Section};
use shield_crypto::{CipherContext, Dek, DekId};
use shield_env::{Env, FileKind, RandomAccessFile, WritableFile};
use shield_kds::{DekResolver, SecureDekCache};

use crate::cache::BlockCache;
use crate::db::pool::{JobClass, JobPool};
use crate::encfs::EncryptedEnv;
use crate::encryption::{Encryption, EncryptionConfig};
use crate::error::{Error, Result};
use crate::integrity::{Integrity, IntegrityOptions, ReadIntegrity};
use crate::statistics::Statistics;
use crate::version::filenames::DEK_CACHE_FILE_NAME;
use crate::wal::{LogWriter, WalTailer};

/// A file opened for random access as stored: the file, its body's
/// cipher when it is encrypted, and the integrity a table verifies it
/// under ([`FileStore::open_random`]).
pub type RawFile = (Arc<dyn RandomAccessFile>, Option<CipherContext>, ReadIntegrity);

/// What [`FileStore::create`] returns: the file, the id of the DEK
/// encrypting it (`None`: the file is plaintext) and the key to tag it
/// with (`None` under [`Integrity::Crc`]).
pub type CreatedFile = (Box<dyn WritableFile>, Option<DekId>, Option<[u8; 32]>);

/// Keys a hooked store keeps ready: about what one L0→L1 merge emits (a
/// 12 MB merge into 2 MiB outputs) plus the next WAL segment and flush
/// output.
pub const READY_DEKS: usize = 8;

/// The ready queue a store shares with its clones (the ready rule).
#[derive(Default)]
pub(crate) struct ReadyDeks {
    state: Mutex<ReadyState>,
    /// Signalled when a refill job ends; [`FileStore::close`] waits on it.
    refilled: Condvar,
}

#[derive(Default)]
struct ReadyState {
    deks: VecDeque<Dek>,
    /// Where refills run. `None` (never hooked, or closed): nothing is
    /// queued any more.
    pool: Option<Weak<JobPool>>,
    /// A refill job is queued or running (at most one is).
    refilling: bool,
}

/// One server's access to a database's persistent files: storage, this
/// server's own DEK resolver, the deployment's integrity settings and the
/// sinks integrity checks report to. Cheap to clone (seven `Arc`s and a
/// key).
#[derive(Clone)]
pub struct FileStore {
    /// Storage the files live on (local, in-memory or disaggregated);
    /// under EncFS, the [`EncryptedEnv`] over it.
    pub env: Arc<dyn Env>,
    /// SHIELD encryption under *this* server's identity; `None` runs
    /// plaintext (or EncFS, which encrypts below `env`).
    pub encryption: Option<EncryptionConfig>,
    /// Write-side integrity mode and the engine-wide MAC key.
    pub integrity: IntegrityOptions,
    /// Ticker sink (`integrity_checks`, `bloom_useful`, batched reads…).
    pub stats: Arc<Statistics>,
    /// Event sink for [`shield_core::Event::IntegrityViolation`] and the
    /// resolver's KDS events.
    pub events: Arc<EventDispatcher>,
    /// Keys generated ahead of need; stays empty until
    /// [`refill_on`](Self::refill_on).
    pub(crate) ready: Arc<ReadyDeks>,
    /// Cipher-context constructions of whichever layer encrypts (the
    /// EncFS env or the SHIELD config); stays 0 when nothing does.
    inits: Arc<AtomicU64>,
}

impl FileStore {
    /// Builds a server's file layer from its design: the one place a
    /// design becomes a store. EncFS wraps `env` in an [`EncryptedEnv`];
    /// SHIELD opens the identity's secure DEK cache at `cache_path` on
    /// `env` (when it has a passkey) and its resolver, whose KDS events
    /// go to the store's dispatcher from the first one on. The sinks
    /// start private and silent; [`crate::Db::open`] supplies the
    /// engine's own (the cache in `path/DEK_CACHE`), a replica or an
    /// offloaded compactor keeps these. Give it the primary's
    /// [`IntegrityOptions`]: files without a DEK are authenticated with
    /// its key.
    pub fn new(
        env: Arc<dyn Env>,
        encryption: &Encryption,
        cache_path: &str,
        integrity: IntegrityOptions,
    ) -> Result<Self> {
        let events = Arc::new(EventDispatcher::new());
        let (env, config, inits): (Arc<dyn Env>, _, _) = match encryption {
            Encryption::Plain => (env, None, Arc::default()),
            Encryption::EncFs { dek, wal_buffer_size } => {
                let encfs = EncryptedEnv::new(env, dek.clone(), *wal_buffer_size);
                let inits = encfs.inits.clone();
                (Arc::new(encfs), None, inits)
            }
            Encryption::Shield(shield) => {
                let cache = match &shield.passkey {
                    Some(passkey) => Some(Arc::new(
                        SecureDekCache::open(env.clone(), cache_path, passkey)
                            .map_err(|e| Error::Encryption(e.to_string()))?,
                    )),
                    None => None,
                };
                let resolver = Arc::new(DekResolver::with_policy(
                    shield.kds.clone(),
                    cache,
                    shield.server,
                    shield.algorithm,
                    shield.retry_policy.clone(),
                ));
                resolver.set_event_listener(events.clone());
                let config = EncryptionConfig {
                    wal_buffer_size: shield.wal_buffer_size,
                    chunk_size: shield.chunk_size.max(1),
                    encryption_threads: shield.encryption_threads.max(1),
                    encrypt_wal: shield.encrypt_wal,
                    ..EncryptionConfig::new(resolver)
                };
                let inits = config.inits.clone();
                (env, Some(config), inits)
            }
        };
        Ok(FileStore {
            env,
            encryption: config,
            integrity,
            stats: Statistics::new(),
            events,
            ready: Arc::default(),
            inits,
        })
    }

    /// This server's DEK resolver (cache and KDS statistics); `None`
    /// unless the store is SHIELD's.
    #[must_use]
    pub fn resolver(&self) -> Option<&Arc<DekResolver>> {
        self.encryption.as_ref().map(|cfg| &cfg.resolver)
    }

    /// Cipher-context constructions so far (the per-call init cost of
    /// §3.2): the EncFS env's or the SHIELD config's, 0 in plaintext.
    #[must_use]
    pub fn cipher_inits(&self) -> u64 {
        self.inits.load(Ordering::Relaxed)
    }

    /// The one mirror refresh, for every handle: copies what this store's
    /// parts count themselves — the env's injected faults, the DEK
    /// resolver's retries, failovers and degraded hits, `block_cache`'s
    /// totals (the handle's cache, if it has one) and the process's peak
    /// of in-flight batched reads — into [`Self::stats`], and returns it.
    pub(crate) fn refresh_mirrors(&self, block_cache: Option<&BlockCache>) -> &Arc<Statistics> {
        let s = &self.stats;
        if let Some(faults) = self.env.fault_stats() {
            s.env_faults_injected.store(faults.injected_total(), Ordering::Relaxed);
        }
        if let Some(cache) = block_cache {
            let c = cache.stats();
            s.block_cache_hits.store(c.hits(), Ordering::Relaxed);
            s.block_cache_misses.store(c.misses(), Ordering::Relaxed);
            s.block_cache_data_hits.store(c.data_hits, Ordering::Relaxed);
            s.block_cache_data_misses.store(c.data_misses, Ordering::Relaxed);
            s.block_cache_index_hits.store(c.index_hits, Ordering::Relaxed);
            s.block_cache_index_misses.store(c.index_misses, Ordering::Relaxed);
            s.block_cache_filter_hits.store(c.filter_hits, Ordering::Relaxed);
            s.block_cache_filter_misses.store(c.filter_misses, Ordering::Relaxed);
            s.block_cache_singleflight_waits.store(c.singleflight_waits, Ordering::Relaxed);
            s.block_cache_oversized_bypass.store(c.oversized_bypass, Ordering::Relaxed);
            s.block_cache_evictions.store(c.evictions, Ordering::Relaxed);
            s.block_cache_pinned_bytes.store(c.pinned_bytes, Ordering::Relaxed);
            s.block_cache_usage_bytes.store(c.usage_bytes, Ordering::Relaxed);
            s.readahead_issued.store(c.readahead_issued, Ordering::Relaxed);
            s.readahead_useful.store(c.readahead_useful, Ordering::Relaxed);
        }
        if let Some(encryption) = &self.encryption {
            let r = encryption.resolver.stats();
            s.resolver_retries.store(r.retries, Ordering::Relaxed);
            s.resolver_failovers.store(r.failovers, Ordering::Relaxed);
            s.resolver_degraded_hits.store(r.degraded_hits, Ordering::Relaxed);
        }
        s.env_inflight_reads.store(shield_env::inflight_reads_peak(), Ordering::Relaxed);
        s
    }

    /// The key rule: the file's own DEK subkey, else the engine key.
    fn mac_key(&self, dek_mac: Option<[u8; 32]>) -> [u8; 32] {
        dek_mac.unwrap_or(self.integrity.key)
    }

    /// Creates `path` for appending, under a DEK no other file has when
    /// this kind of file is encrypted.
    pub fn create(&self, path: &str, kind: FileKind) -> Result<CreatedFile> {
        let (file, dek_id, dek_mac) = match &self.encryption {
            Some(cfg) if cfg.encrypts(kind) => {
                let dek = self.take_dek(cfg)?;
                let (file, id, mac) = Section::FileCreate
                    .time(|| cfg.wrap_writable(self.env.as_ref(), path, kind, dek))?;
                (file, Some(id), mac)
            }
            _ => (Section::FileCreate.time(|| self.env.new_writable_file(path, kind))?, None, None),
        };
        let tag_key = (self.integrity.mode == Integrity::Hmac).then(|| self.mac_key(dek_mac));
        Ok((file, dek_id, tag_key))
    }

    /// Take or generate: a ready key, else one from the resolver.
    fn take_dek(&self, cfg: &EncryptionConfig) -> Result<Dek> {
        let wait = Section::DekWait.enter();
        let ready = self.ready.state.lock().deks.pop_front();
        let dek = match ready {
            Some(dek) => {
                self.stats.local().dek_queue_hits.fetch_add(1, Ordering::Relaxed);
                dek
            }
            None => {
                let dek = cfg.resolver.new_dek()?;
                self.stats.local().dek_queue_misses.fetch_add(1, Ordering::Relaxed);
                dek
            }
        };
        drop(wait);
        self.refill_if_short();
        Ok(dek)
    }

    /// Hooks the ready queue to `pool` and starts filling it.
    pub(crate) fn refill_on(&self, pool: &Arc<JobPool>) {
        self.ready.state.lock().pool = Some(Arc::downgrade(pool));
        self.refill_if_short();
    }

    /// Schedules a refill job unless one is scheduled, the queue is full,
    /// or this store has no hook (any more) or no encryption.
    fn refill_if_short(&self) {
        if self.encryption.is_none() {
            return;
        }
        let pool = {
            let mut state = self.ready.state.lock();
            if state.refilling || state.deks.len() >= READY_DEKS {
                return;
            }
            let Some(pool) = state.pool.as_ref().and_then(Weak::upgrade) else { return };
            state.refilling = true;
            pool
        };
        let store = self.clone();
        pool.spawn(JobClass::Flush, Box::new(move || store.refill_one()));
    }

    /// One refill job: one key, so that a flush queued behind it waits
    /// out at most one KDS round trip. It schedules its successor only
    /// after a success — in an outage the next creation tries again.
    fn refill_one(&self) {
        let generated = self.encryption.as_ref().and_then(|cfg| cfg.resolver.new_dek().ok());
        let succeeded = generated.is_some();
        {
            let mut state = self.ready.state.lock();
            state.refilling = false;
            state.deks.extend(generated);
            self.ready.refilled.notify_all();
        }
        if succeeded {
            self.refill_if_short();
        }
    }

    /// The close half of the ready rule. `revoke_unused: false` is a
    /// simulated crash: the unbound keys stay at the KDS and in the
    /// secure cache for the next open to find.
    pub(crate) fn close(&self, revoke_unused: bool) {
        let unused: Vec<DekId> = {
            let mut state = self.ready.state.lock();
            state.pool = None;
            while state.refilling {
                self.ready.refilled.wait(&mut state);
            }
            state.deks.drain(..).map(|dek| dek.id()).collect()
        };
        if revoke_unused {
            self.revoke_unbound(&unused);
        }
    }

    /// The crash half of the ready rule, for the database in `db_path`
    /// when that directory holds the secure cache: `suspects` is what
    /// [`cached_deks`](Self::cached_deks) returned before this open
    /// created or generated anything, `live` the ids its recovered
    /// versions name. What is in the first, not in the second, and still
    /// cached (recovery retired the old MANIFEST and WAL segments itself)
    /// was generated by an earlier process and bound to no surviving file.
    pub(crate) fn revoke_orphans(&self, db_path: &str, suspects: &[DekId], live: &HashSet<DekId>) {
        let cached: HashSet<DekId> = self.cached_deks(db_path).into_iter().collect();
        let orphans: Vec<DekId> = suspects
            .iter()
            .copied()
            .filter(|id| cached.contains(id) && !live.contains(id))
            .collect();
        self.revoke_unbound(&orphans);
    }

    /// Ids in the secure cache, if it is the database's own: the file
    /// named [`DEK_CACHE_FILE_NAME`] in `db_path`. Empty otherwise.
    pub(crate) fn cached_deks(&self, db_path: &str) -> Vec<DekId> {
        let cache_path = shield_env::join_path(db_path, DEK_CACHE_FILE_NAME);
        let cfg = self.encryption.as_ref();
        cfg.and_then(|cfg| cfg.resolver.cached_ids_at(&cache_path)).unwrap_or_default()
    }

    /// Revokes keys no file was bound to, through the revoke half of the
    /// retire rule (one cache persist for the batch).
    fn revoke_unbound(&self, ids: &[DekId]) {
        if let (Some(cfg), false) = (&self.encryption, ids.is_empty()) {
            let _ = cfg.revoke_deks(ids);
            self.stats.local().deks_retired_unused.fetch_add(ids.len() as u64, Ordering::Relaxed);
        }
    }

    /// Opens `path` for random access as stored — resolving the DEK
    /// named in its header under this server's identity — with the cipher
    /// of its body when it is encrypted (the body starts
    /// [`crate::encryption::FILE_HEADER_LEN`] bytes in) and the integrity
    /// context a [`crate::sst::Table`] verifies it under. The table
    /// decrypts each block in the pass that authenticates it
    /// (`crate::sst::fetcher`).
    pub fn open_random(&self, path: &str, kind: FileKind) -> Result<RawFile> {
        let (file, body) = match &self.encryption {
            Some(cfg) => cfg.open_raw_with_mac(self.env.as_ref(), path, kind)?,
            None => (self.env.new_random_access_file(path, kind)?, None),
        };
        let (cipher, dek_mac) = body.unzip();
        let integrity = ReadIntegrity {
            key: self.mac_key(dek_mac),
            expect_hmac: self.integrity.mode == Integrity::Hmac,
            events: Some(self.events.clone()),
        };
        Ok((file, cipher, integrity))
    }

    /// Creates record log `path` (a WAL segment or a MANIFEST) for
    /// appending; under [`Integrity::Hmac`] every record is tagged.
    pub fn create_log(&self, path: &str, kind: FileKind) -> Result<LogWriter> {
        let (file, _, tag_key) = self.create(path, kind)?;
        LogWriter::with_integrity(file, tag_key)
    }

    /// Opens record log `path` for replay or live tailing. The decrypting
    /// wrapper tracks its own stream offset across polls; violations are
    /// reported against file `number`.
    pub fn open_log(&self, path: &str, kind: FileKind, number: u64) -> Result<WalTailer> {
        let (file, dek_mac) = match &self.encryption {
            Some(cfg) => cfg.open_sequential_with_mac(self.env.as_ref(), path, kind)?,
            None => (self.env.new_sequential_file(path, kind)?, None),
        };
        Ok(WalTailer::with_integrity(file, Some(self.mac_key(dek_mac))).with_sinks(
            number,
            Some(self.stats.clone()),
            Some(self.events.clone()),
        ))
    }

    /// The retire rule, for a file nothing references any more. The DEK
    /// id is `known_dek` when the caller has it (an SST's `FileMeta`),
    /// else whatever the file's own header names; a plaintext or missing
    /// file has none. A failed revoke does not keep the file. Returns
    /// whether this call unlinked it (`false`: it was already gone, or
    /// the unlink failed and a later pass retries).
    pub fn retire(&self, path: &str, kind: FileKind, known_dek: Option<DekId>) -> bool {
        self.retire_many(&[(path, kind, known_dek)])[0]
    }

    /// [`retire`](Self::retire) for a batch of `(path, kind, known_dek)`:
    /// every DEK is revoked (one secure-cache persist for all of them),
    /// then every file unlinked. One result per file, in order.
    pub fn retire_many(&self, files: &[(&str, FileKind, Option<DekId>)]) -> Vec<bool> {
        if let Some(cfg) = &self.encryption {
            let peek = |path, kind| {
                EncryptionConfig::peek_dek_id(self.env.as_ref(), path, kind).ok().flatten()
            };
            let ids: Vec<DekId> = files
                .iter()
                .filter_map(|&(path, kind, known)| known.or_else(|| peek(path, kind)))
                .collect();
            if !ids.is_empty() {
                let _ = cfg.revoke_deks(&ids);
            }
        }
        files.iter().map(|(path, ..)| self.env.remove_file(path).is_ok()).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;
    use crate::error::Error;
    use crate::integrity::derive_mac_subkey;
    use crate::wal::TailPoll;
    use shield_crypto::{Algorithm, Dek};
    use shield_env::MemEnv;
    use crate::encryption::ShieldOptions;
    use shield_kds::{Kds, KdsResult, KdsStats, LocalKds, ServerId};

    const ENGINE_KEY: [u8; 32] = [0x42; 32];
    const KINDS: [FileKind; 3] = [FileKind::Sst, FileKind::Wal, FileKind::Manifest];

    /// A KDS that counts the revocations it is asked for.
    #[derive(Default)]
    struct CountingKds {
        inner: LocalKds,
        revokes: AtomicU64,
    }

    impl Kds for CountingKds {
        fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
            self.inner.generate_dek(requester, algorithm)
        }
        fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
            self.inner.fetch_dek(requester, id)
        }
        fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
            self.revokes.fetch_add(1, Ordering::Relaxed);
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

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Design {
        None,
        Shield,
        ShieldPlaintextWal,
    }

    fn store(env: &MemEnv, design: Design, mode: Integrity) -> (FileStore, Arc<CountingKds>) {
        let kds = Arc::new(CountingKds::default());
        let shield = ShieldOptions {
            passkey: None,
            encrypt_wal: design != Design::ShieldPlaintextWal,
            ..ShieldOptions::new(kds.clone(), ServerId(1), b"")
        };
        let encryption =
            if design == Design::None { Encryption::Plain } else { Encryption::Shield(shield) };
        let integrity = IntegrityOptions { mode, key: ENGINE_KEY };
        let files = FileStore::new(Arc::new(env.clone()), &encryption, "", integrity);
        (files.expect("store"), kds)
    }

    /// The key rule, as a table: a file is authenticated with a subkey of
    /// its own DEK iff it got one, with the engine key otherwise; writers
    /// hold a key only under `Hmac`, readers always.
    #[test]
    fn key_rule_for_every_encryption_integrity_and_kind() {
        for encryption in [Design::None, Design::Shield, Design::ShieldPlaintextWal] {
            for mode in [Integrity::Crc, Integrity::Hmac] {
                for kind in KINDS {
                    let what = format!("{encryption:?}/{mode:?}/{kind:?}");
                    let env = MemEnv::new();
                    let (files, _) = store(&env, encryption, mode);
                    let (mut file, dek_id, write_key) = files.create("f", kind).expect(&what);
                    file.append(&[7u8; 100]).expect(&what);
                    file.sync().expect(&what);
                    drop(file);
                    let (_, _, read) = files.open_random("f", kind).expect(&what);

                    let gets_dek = match encryption {
                        Design::None => false,
                        Design::Shield => true,
                        Design::ShieldPlaintextWal => kind != FileKind::Wal,
                    };
                    assert_eq!(dek_id.is_some(), gets_dek, "{what}: dek id");
                    let expected_key = match dek_id {
                        Some(id) => {
                            let cfg = files.encryption.as_ref().expect("encrypted");
                            derive_mac_subkey(cfg.resolver.resolve(id).expect(&what).key_bytes())
                        }
                        None => ENGINE_KEY,
                    };
                    assert_eq!(
                        write_key,
                        (mode == Integrity::Hmac).then_some(expected_key),
                        "{what}: write key"
                    );
                    assert_eq!(read.key, expected_key, "{what}: read key");
                    assert_eq!(read.expect_hmac, mode == Integrity::Hmac, "{what}");
                }
            }
        }
    }

    /// What `create_log` writes, `open_log` of any store with the same
    /// settings replays; a store holding another engine key refuses an
    /// authenticated log that has no DEK, and is indifferent when the
    /// log has one.
    #[test]
    fn logs_round_trip_and_bind_the_key_the_rule_names() {
        for encryption in [Design::None, Design::Shield, Design::ShieldPlaintextWal] {
            for kind in [FileKind::Wal, FileKind::Manifest] {
                let what = format!("{encryption:?}/{kind:?}");
                let env = MemEnv::new();
                let (files, _) = store(&env, encryption, Integrity::Hmac);
                let mut writer = files.create_log("log", kind).expect(&what);
                assert!(writer.is_hmac(), "{what}");
                writer.add_record(b"first").expect(&what);
                writer.add_record(b"second").expect(&what);
                writer.sync().expect(&what);

                let mut tailer = files.open_log("log", kind, 9).expect(&what);
                for expected in [&b"first"[..], b"second"] {
                    match tailer.poll().expect(&what) {
                        TailPoll::Record(r) => assert_eq!(r, expected, "{what}"),
                        TailPoll::Pending(end) => panic!("{what}: log ended early ({end:?})"),
                    }
                }
                assert!(tailer.is_hmac(), "{what}");

                // Verification is format-driven: a `Crc` store still holds
                // the key and verifies; a different engine key matters
                // exactly when the log has no DEK.
                let other = FileStore {
                    integrity: IntegrityOptions { mode: Integrity::Crc, key: [0x17; 32] },
                    ..files.clone()
                };
                let has_dek = encryption == Design::Shield
                    || (encryption == Design::ShieldPlaintextWal && kind != FileKind::Wal);
                let polled = other.open_log("log", kind, 9).expect(&what).poll();
                match polled {
                    Ok(TailPoll::Record(_)) => assert!(has_dek, "{what}: wrong key accepted"),
                    Err(Error::IntegrityViolation(_)) => assert!(!has_dek, "{what}"),
                    other => panic!("{what}: {other:?}"),
                }
                let failures = files.stats.snapshot().integrity_failures;
                assert_eq!(failures, u64::from(!has_dek), "{what}: sinks attached");
            }
        }
    }

    /// The ready rule under contention: four threads create 2,500 files
    /// each through one hooked store; every file gets a key no other file
    /// has, every creation counts as one hit or one miss, and close
    /// revokes exactly the keys left ready.
    #[test]
    fn concurrent_creates_bind_every_key_to_exactly_one_file() {
        const THREADS: usize = 4;
        const FILES: usize = 2_500;
        let env = MemEnv::new();
        let (files, kds) = store(&env, Design::Shield, Integrity::Crc);
        let pool = JobPool::new(2);
        files.refill_on(&pool);
        let ids: Vec<DekId> = std::thread::scope(|s| {
            let creators: Vec<_> = (0..THREADS)
                .map(|t| {
                    let files = &files;
                    s.spawn(move || {
                        (0..FILES)
                            .map(|i| {
                                let path = format!("{t}-{i}.sst");
                                let created = files.create(&path, FileKind::Sst).expect("create");
                                created.1.expect("dek")
                            })
                            .collect::<Vec<DekId>>()
                    })
                })
                .collect();
            creators.into_iter().flat_map(|c| c.join().expect("creator")).collect()
        });
        let distinct: HashSet<DekId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), THREADS * FILES, "a key was bound twice");
        for (n, id) in ids.iter().enumerate().step_by(97) {
            let path = format!("{}-{}.sst", n / FILES, n % FILES);
            let named = EncryptionConfig::peek_dek_id(&env, &path, FileKind::Sst).expect("peek");
            assert_eq!(named, Some(*id), "{path}");
        }
        let s = files.stats.snapshot();
        assert_eq!(s.dek_queue_hits + s.dek_queue_misses, (THREADS * FILES) as u64);
        assert!(s.dek_queue_hits > 0, "the queue never served a creation");

        files.close(true);
        let retired = files.stats.snapshot().deks_retired_unused;
        assert!(retired <= READY_DEKS as u64);
        assert_eq!(kds.revokes.load(Ordering::Relaxed), retired);
        assert_eq!(kds.inner.live_dek_count(), THREADS * FILES, "one live key per file");
        // A closed store generates inline, like one that was never hooked.
        drop(files.create("late.sst", FileKind::Sst).expect("create"));
        assert_eq!(kds.inner.live_dek_count(), THREADS * FILES + 1);
    }

    /// The retire rule: revoke once from a known id without touching the
    /// file, from the header otherwise; a missing file is already retired.
    #[test]
    fn retire_revokes_then_unlinks() {
        let env = MemEnv::new();
        let (files, kds) = store(&env, Design::Shield, Integrity::Crc);
        let reads = || env.io_stats().expect("stats").snapshot().read_ops[FileKind::Sst.index()];

        let (_, known, _) = files.create("a.sst", FileKind::Sst).expect("create");
        let known = known.expect("dek");
        let before = reads();
        assert!(files.retire("a.sst", FileKind::Sst, Some(known)));
        assert_eq!(kds.revokes.load(Ordering::Relaxed), 1);
        assert_eq!(reads(), before, "a known id needs no header peek");
        assert!(!kds.inner.has_dek(known) && !env.file_exists("a.sst"));

        let (_, peeked, _) = files.create("b.sst", FileKind::Sst).expect("create");
        assert!(files.retire("b.sst", FileKind::Sst, None));
        assert_eq!(kds.revokes.load(Ordering::Relaxed), 2);
        assert!(!kds.inner.has_dek(peeked.expect("dek")) && !env.file_exists("b.sst"));

        assert!(!files.retire("b.sst", FileKind::Sst, None), "already gone");
        assert_eq!(kds.revokes.load(Ordering::Relaxed), 2, "nothing left to revoke");

        // Without encryption there is no key to revoke: just the unlink.
        let (plain, plain_kds) = store(&env, Design::None, Integrity::Crc);
        drop(plain.create("c.sst", FileKind::Sst).expect("create"));
        assert!(plain.retire("c.sst", FileKind::Sst, None));
        assert_eq!(plain_kds.revokes.load(Ordering::Relaxed), 0);
    }
}
