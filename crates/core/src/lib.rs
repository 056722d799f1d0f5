//! High-level SHIELD API: the paper's two designs over one engine.
//!
//! A database is opened one way, [`Db::open`], and its design is one
//! [`Options`] field, [`Options::encryption`] ([`Encryption`]):
//!
//! * [`Encryption::Plain`] — unencrypted baseline (the paper's
//!   "unencrypted RocksDB").
//! * [`Encryption::EncFs`] — **instance-level encryption** (paper §4): a
//!   transparent [`EncryptedEnv`] that encrypts every file under a single
//!   instance DEK. The engine is unaware; suited to controlled monolithic
//!   deployments.
//! * [`Encryption::Shield`] — **SHIELD** (paper §5): per-file DEKs from a
//!   KDS, DEK-IDs in plaintext file metadata, a secure on-disk DEK cache
//!   unlocked by a passkey, the WAL encryption buffer, and chunked
//!   multi-threaded compaction encryption. DEK rotation falls out of
//!   compaction.
//!
//! Every handle answers for its own keys: [`Db::resolver`] and
//! [`Db::cipher_inits`], [`ReplicaDb::resolver`] and
//! [`ReplicaDb::cipher_inits`]. A server that opens the shared files under
//! its own identity — a read-only instance (paper §2.2, a [`ReplicaDb`])
//! or an [`deploy::OffloadedCompactor`] on disaggregated storage — gets
//! its file layer from the same builder, [`FileStore::new`].
//!
//! Shard count and routing are one [`Options`] field
//! ([`Options::with_shards`]), so each design opens 1..N trees.

pub mod deploy;

use std::ops::Deref;
use std::sync::Arc;

use shield_kds::DekResolver;
use shield_lsm::{Db, EncryptionConfig, Error, Options, Result};

pub use shield_lsm::{
    CompactionStyle, DbIterator, EncryptedEnv, Encryption, Event, EventListener, FileStore,
    LogConfig, LogLevel, MetricsReport, MetricsWindow, PerfContext, ReadOptions, ReplicaDb,
    ReplicaOptions, ShardBy, ShieldOptions, SlowOp, Snapshot, SpanRecord, Statistics,
    StatsSnapshot, WriteBatch, WriteOptions,
};

/// Name of the secure DEK cache file inside a database directory.
pub const DEK_CACHE_FILE: &str = shield_lsm::version::filenames::DEK_CACHE_FILE_NAME;

/// Opens an unencrypted database (the evaluation baseline):
/// [`Db::open`] with [`Encryption::Plain`].
pub fn open_plain(mut opts: Options, path: &str) -> Result<Db> {
    opts.encryption = Encryption::Plain;
    Db::open(opts, path)
}

/// A SHIELD database handle ([`open_shield`]). Derefs to the engine
/// handle.
pub struct ShieldDb {
    /// The engine handle.
    pub db: Db,
    /// The identity's encryption layer (cipher-init counter, chunking).
    pub encryption: EncryptionConfig,
    /// The identity's DEK resolver (cache hit/miss statistics).
    pub resolver: Arc<DekResolver>,
}

impl Deref for ShieldDb {
    type Target = Db;
    fn deref(&self) -> &Db {
        &self.db
    }
}

/// Opens a SHIELD database: [`Db::open`] with
/// [`Encryption::Shield`]`(shield)`, the handle beside its encryption
/// layer.
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
pub fn open_shield(mut opts: Options, path: &str, shield: ShieldOptions) -> Result<ShieldDb> {
    opts.encryption = Encryption::Shield(shield);
    let db = Db::open(opts, path)?;
    let encryption = db.files().encryption.clone();
    let encryption = encryption.ok_or_else(|| Error::Encryption("no SHIELD layer".into()))?;
    Ok(ShieldDb { resolver: encryption.resolver.clone(), encryption, db })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_crypto::{Algorithm, Dek};
    use shield_env::{Env, MemEnv};
    use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};

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
        let encfs = || Options {
            encryption: Encryption::EncFs { dek: dek.clone(), wal_buffer_size: 0 },
            ..mem_opts(&env)
        };
        {
            let db = Db::open(encfs(), "db").unwrap();
            assert!(db.resolver().is_none() && db.cipher_inits() > 0);
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
        let db = Db::open(encfs(), "db").unwrap();
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
