//! High-level SHIELD API: the paper's two designs over one engine.
//!
//! * [`open_plain`] — unencrypted baseline (the paper's "unencrypted
//!   RocksDB").
//! * [`open_encfs`] — **instance-level encryption** (paper §4): a
//!   transparent [`EncryptedEnv`] that encrypts every file under a single
//!   instance DEK. The engine is unaware; suited to controlled monolithic
//!   deployments.
//! * [`open_shield`] — **SHIELD** (paper §5): per-file DEKs from a KDS,
//!   DEK-IDs in plaintext file metadata, a secure on-disk DEK cache
//!   unlocked by a passkey, the WAL encryption buffer, and chunked
//!   multi-threaded compaction encryption. DEK rotation falls out of
//!   compaction.
//! * [`deploy`] — disaggregated-storage composition: a network-modeled
//!   storage mount and an [`deploy::OffloadedCompactor`] that runs
//!   compactions on the storage server under its own identity.
//! * [`open_shield_replica`] — read-only instances (paper §2.2): a
//!   [`ReplicaDb`] serving the shared files through its own DEK resolver.
//!
//! Shard count and routing are [`Options`] fields
//! ([`Options::with_shards`]), so each of these opens 1..N trees. The
//! encrypting opens return the engine handle inside a wrapper —
//! [`EncFsDb`] or [`Shield`] — that derefs to it and exposes the
//! encryption layer's own state.

pub mod deploy;
pub mod encfs;

use std::ops::Deref;
use std::sync::Arc;

use shield_crypto::Algorithm;
use shield_env::Env;
use shield_kds::{DekResolver, Kds, RetryPolicy, SecureDekCache, ServerId};
use shield_lsm::encryption::EncryptionConfig;
use shield_lsm::{Db, Error, FileStore, IntegrityOptions, Options, Result};

pub use encfs::EncryptedEnv;
pub use shield_lsm::{
    CompactionStyle, DbIterator, Event, EventListener, LogConfig, LogLevel, MetricsReport,
    MetricsWindow, PerfContext, ReadOptions, ReplicaDb, ReplicaOptions, ShardBy, SlowOp, Snapshot,
    SpanRecord, Statistics, StatsSnapshot, WriteBatch, WriteOptions,
};

/// Name of the secure DEK cache file inside a database directory.
pub const DEK_CACHE_FILE: &str = shield_lsm::version::filenames::DEK_CACHE_FILE_NAME;

/// Opens an unencrypted database (the evaluation baseline).
pub fn open_plain(opts: Options, path: &str) -> Result<Db> {
    Db::open(opts, path)
}

/// An instance-level-encrypted database handle ([`open_encfs`]). Derefs to
/// the engine handle.
pub struct EncFsDb {
    /// The engine handle.
    pub db: Db,
    /// The encrypting environment (exposes the cipher-init counter),
    /// under every tree and the WAL.
    pub env: Arc<EncryptedEnv>,
}

impl Deref for EncFsDb {
    type Target = Db;
    fn deref(&self) -> &Db {
        &self.db
    }
}

/// Opens a database whose *environment* encrypts everything under a single
/// instance DEK (paper §4). `base.env` is wrapped; the engine itself runs
/// unmodified, exactly the "transparent I/O interception" design.
///
/// `wal_buffer_size` optionally applies the §5.3 application buffer to WAL
/// files (the paper's "EncFS + WAL-Buf" variant); 0 encrypts every WAL
/// append individually.
pub fn open_encfs(
    mut base: Options,
    path: &str,
    dek: shield_crypto::Dek,
    wal_buffer_size: usize,
) -> Result<EncFsDb> {
    let env = Arc::new(EncryptedEnv::new(base.env.clone(), dek, wal_buffer_size));
    base.env = env.clone();
    debug_assert!(base.encryption.is_none(), "EncFS encrypts below the engine");
    Ok(EncFsDb { db: Db::open(base, path)?, env })
}

/// Configuration for [`open_shield`].
#[derive(Clone)]
pub struct ShieldOptions {
    /// Key distribution service shared by all servers.
    pub kds: Arc<dyn Kds>,
    /// This instance's identity at the KDS.
    pub server: ServerId,
    /// Passkey unlocking the secure DEK cache; `None` disables the cache
    /// (every resolution goes to the KDS).
    pub passkey: Option<Vec<u8>>,
    /// Cipher for new DEKs (paper default: AES-128-CTR).
    pub algorithm: Algorithm,
    /// WAL application-buffer size (paper default 512 B; 0 = unbuffered).
    pub wal_buffer_size: usize,
    /// Compaction/flush encryption chunk size.
    pub chunk_size: usize,
    /// Threads for chunked encryption.
    pub encryption_threads: usize,
    /// When false, leaves the WAL plaintext (Table 2's "Encrypted SST"
    /// measurement configuration; insecure).
    pub encrypt_wal: bool,
    /// Retry/timeout discipline for KDS round trips (see
    /// [`shield_kds::RetryPolicy`]).
    pub retry_policy: RetryPolicy,
}

impl ShieldOptions {
    /// Paper defaults: 512-byte WAL buffer, 4 KiB chunks, one thread,
    /// secure cache enabled under `passkey`.
    #[must_use]
    pub fn new(kds: Arc<dyn Kds>, server: ServerId, passkey: &[u8]) -> Self {
        ShieldOptions {
            kds,
            server,
            passkey: Some(passkey.to_vec()),
            algorithm: Algorithm::Aes128Ctr,
            wal_buffer_size: 512,
            chunk_size: 4096,
            encryption_threads: 1,
            encrypt_wal: true,
            retry_policy: RetryPolicy::default(),
        }
    }
}

/// An engine handle (`H`: [`Db`] or `Arc<`[`ReplicaDb`]`>`) with its SHIELD
/// encryption layer. Derefs to the handle.
pub struct Shield<H> {
    /// The engine handle.
    pub db: H,
    /// The encryption layer (cipher-init counters, chunk settings): one
    /// resolver, one KDS identity and one secure DEK cache, however many
    /// trees draw per-file DEKs from it.
    pub encryption: EncryptionConfig,
    /// This identity's own DEK resolver (cache hit/miss statistics). A
    /// replica's never receives key material from the primary, only
    /// DEK-IDs from file metadata.
    pub resolver: Arc<DekResolver>,
}

/// A SHIELD-encrypted database handle ([`open_shield`]).
pub type ShieldDb = Shield<Db>;
/// A SHIELD read-replica handle ([`open_shield_replica`]).
pub type ShieldReplica = Shield<Arc<ReplicaDb>>;

impl<H> Deref for Shield<H> {
    type Target = H;
    fn deref(&self) -> &H {
        &self.db
    }
}

/// Builds one identity's SHIELD encryption layer: the secure DEK cache at
/// `cache_path` (when a passkey is set), the resolver over it, and the
/// engine's encryption config.
fn shield_encryption(
    env: Arc<dyn Env>,
    cache_path: &str,
    shield: &ShieldOptions,
) -> Result<(EncryptionConfig, Arc<DekResolver>)> {
    let cache = match &shield.passkey {
        Some(pk) => Some(Arc::new(
            SecureDekCache::open(env, cache_path, pk)
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
    let mut encryption = EncryptionConfig::new(resolver.clone())
        .with_wal_buffer(shield.wal_buffer_size)
        .with_chunks(shield.chunk_size, shield.encryption_threads);
    if !shield.encrypt_wal {
        encryption = encryption.with_plaintext_wal();
    }
    Ok((encryption, resolver))
}

/// Opens a SHIELD database: unique DEK per file, metadata-embedded
/// DEK-IDs, secure local DEK cache, WAL buffering, chunked compaction
/// encryption (paper §5).
///
/// ```
/// use std::sync::Arc;
/// use shield::{open_shield, ShieldOptions, WriteOptions, ReadOptions};
/// use shield_env::MemEnv;
/// use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
/// use shield_lsm::Options;
///
/// let kds = Arc::new(LocalKds::new(KdsConfig::default()));
/// let db = open_shield(
///     Options::new(Arc::new(MemEnv::new())),
///     "db",
///     ShieldOptions::new(kds as Arc<dyn Kds>, ServerId(1), b"passkey"),
/// ).unwrap();
/// db.put(&WriteOptions::default(), b"k", b"v").unwrap();
/// assert_eq!(db.get(&ReadOptions::new(), b"k").unwrap(), Some(b"v".to_vec()));
/// ```
pub fn open_shield(mut base: Options, path: &str, shield: ShieldOptions) -> Result<ShieldDb> {
    base.env.create_dir_all(path)?;
    let cache_path = shield_env::join_path(path, DEK_CACHE_FILE);
    let (encryption, resolver) = shield_encryption(base.env.clone(), &cache_path, &shield)?;
    base.encryption = Some(encryption.clone());
    let db = Db::open(base, path)?;
    // KDS retries/failovers/degraded transitions land in the same event
    // stream (and LOG file) as the engine's own events.
    resolver.set_event_listener(db.events());
    Ok(Shield { db, encryption, resolver })
}

/// Opens a live read replica of a SHIELD database (paper §2.2's read-only
/// instances; `opts.auto_poll = false` gives the one-shot kind, refreshed
/// by [`ReplicaDb::catch_up`]).
///
/// The replica mounts the primary's directory through `env` (typically a
/// [`shield_env::RemoteEnv`] in the disaggregated topology) and resolves
/// every DEK by the DEK-ID in file metadata through its **own** identity
/// (`shield.server`) — revoking that identity at the KDS locks the
/// replica out without touching the primary. `cache_path` locates the
/// replica's private secure DEK cache; it must not be the primary's
/// database directory (the primary owns the `DEK_CACHE` file in there).
///
/// This is [`ReplicaDb::open`] over a [`FileStore`] of that env, that
/// identity's encryption layer and the default [`IntegrityOptions`] —
/// SHIELD files authenticate under their own DEK's subkey, so the
/// engine-wide key only matters for files without a DEK
/// ([`ShieldOptions::encrypt_wal`]` = false` under a non-default
/// `integrity_key`); such a deployment builds the store itself.
pub fn open_shield_replica(
    env: Arc<dyn Env>,
    path: &str,
    cache_path: &str,
    shield: ShieldOptions,
    opts: ReplicaOptions,
) -> Result<ShieldReplica> {
    let (encryption, resolver) = shield_encryption(env.clone(), cache_path, &shield)?;
    let files = FileStore::new(env, Some(encryption.clone()), IntegrityOptions::default());
    let db = ReplicaDb::open(files, path, opts)?;
    Ok(Shield { db, encryption, resolver })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_crypto::Dek;
    use shield_env::MemEnv;
    use shield_kds::{KdsConfig, LocalKds};

    fn mem_opts(env: &MemEnv) -> Options {
        Options::new(Arc::new(env.clone()))
    }

    #[test]
    fn plain_roundtrip() {
        let env = MemEnv::new();
        let db = open_plain(mem_opts(&env), "db").unwrap();
        db.put(&WriteOptions::default(), b"k", b"v").unwrap();
        assert_eq!(db.get(&ReadOptions::new(), b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn encfs_roundtrip_and_confidentiality() {
        let env = MemEnv::new();
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        {
            let db = open_encfs(mem_opts(&env), "db", dek.clone(), 0).unwrap();
            db.put(&WriteOptions::default(), b"customer-record", b"super-secret-payload")
                .unwrap();
            db.flush().unwrap();
            assert_eq!(
                db.get(&ReadOptions::new(), b"customer-record").unwrap(),
                Some(b"super-secret-payload".to_vec())
            );
        }
        // No file on disk contains the plaintext.
        for file in env_files(&env) {
            let raw = env.raw_content(&file).unwrap();
            assert!(!raw.windows(12).any(|w| w == b"super-secret"), "{file} leaked plaintext");
        }
        // Reopen with the same DEK: data intact.
        let db = open_encfs(mem_opts(&env), "db", dek, 0).unwrap();
        assert_eq!(
            db.get(&ReadOptions::new(), b"customer-record").unwrap(),
            Some(b"super-secret-payload".to_vec())
        );
    }

    fn env_files(env: &MemEnv) -> Vec<String> {
        env.list_dir("db")
            .unwrap()
            .into_iter()
            .map(|n| format!("db/{n}"))
            .collect()
    }

    #[test]
    fn shield_roundtrip_with_restart() {
        let env = MemEnv::new();
        let kds: Arc<dyn Kds> = Arc::new(LocalKds::new(KdsConfig::default()));
        let shield_opts = ShieldOptions::new(kds.clone(), ServerId(1), b"passkey");
        {
            let sdb = open_shield(mem_opts(&env), "db", shield_opts.clone()).unwrap();
            for i in 0..200u32 {
                sdb.put(&WriteOptions::default(), format!("key-{i:04}").as_bytes(), b"value")
                    .unwrap();
            }
            sdb.flush().unwrap();
            // Unique DEKs were generated (≥ WAL + SST + manifest).
            assert!(sdb.resolver.stats().generated >= 3);
        }
        // Restart: DEKs come from the secure cache, not fresh KDS fetches.
        let before_fetches = kds.stats().fetched;
        let sdb = open_shield(mem_opts(&env), "db", shield_opts).unwrap();
        assert_eq!(
            sdb.get(&ReadOptions::new(), b"key-0123").unwrap(),
            Some(b"value".to_vec())
        );
        assert_eq!(kds.stats().fetched, before_fetches, "secure cache should serve restarts");
        assert!(sdb.resolver.stats().cache_hits > 0);
    }

    #[test]
    fn perf_context_breaks_down_shield_get() {
        let env = MemEnv::new();
        let kds: Arc<dyn Kds> = Arc::new(LocalKds::new(KdsConfig::default()));
        let shield_opts = ShieldOptions::new(kds.clone(), ServerId(1), b"passkey");
        {
            let sdb = open_shield(mem_opts(&env), "db", shield_opts.clone()).unwrap();
            for i in 0..500u32 {
                sdb.put(&WriteOptions::default(), format!("key-{i:04}").as_bytes(), &[7u8; 256])
                    .unwrap();
            }
            sdb.flush().unwrap();
        }
        // Reopen with the block cache disabled: the get must hit (encrypted)
        // storage, resolve the SST's DEK, and decrypt — all attributable.
        let mut opts = mem_opts(&env);
        opts.block_cache_bytes = 0;
        let sdb = open_shield(opts, "db", shield_opts).unwrap();

        let wall_start = std::time::Instant::now();
        let (value, perf) =
            sdb.with_perf_context(|db| db.get(&ReadOptions::new(), b"key-0123").unwrap());
        let wall_nanos = wall_start.elapsed().as_nanos() as u64;
        assert_eq!(value, Some(vec![7u8; 256]));
        assert!(perf.block_read_nanos > 0, "must see storage reads: {perf:?}");
        assert!(perf.block_decrypt_nanos > 0, "must see decryption: {perf:?}");
        assert!(perf.dek_resolve_nanos > 0, "must see DEK resolution: {perf:?}");
        assert!(perf.blocks_read > 0);
        assert!(
            perf.timed_nanos() <= wall_nanos,
            "components ({}) must not exceed wall time ({wall_nanos}): {perf:?}",
            perf.timed_nanos()
        );
        // The guard restored the disabled context on exit, and a plain
        // (uninstrumented) get accumulates nothing.
        assert_eq!(
            sdb.get(&ReadOptions::new(), b"key-0001").unwrap(),
            Some(vec![7u8; 256])
        );
        assert!(shield_core::perf::current().is_zero(), "disabled path must stay all-zero");
    }

    #[test]
    fn shield_wrong_passkey_rejected() {
        let env = MemEnv::new();
        let kds: Arc<dyn Kds> = Arc::new(LocalKds::new(KdsConfig::default()));
        {
            let _ = open_shield(
                mem_opts(&env),
                "db",
                ShieldOptions::new(kds.clone(), ServerId(1), b"right"),
            )
            .unwrap();
        }
        match open_shield(mem_opts(&env), "db", ShieldOptions::new(kds, ServerId(1), b"wrong")) {
            Err(Error::Encryption(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("wrong passkey must be rejected"),
        }
    }
}
