//! The system under test: the paper's full SHIELD design as a user would
//! deploy it, plus the unencrypted reference the headline overhead is taken
//! against.
//!
//! SHIELD: `open_shield` with AES-128-CTR, 512 B WAL buffer, 4 KiB chunks,
//! `Integrity::Hmac`, secure DEK cache on, `LocalKds` with the SSToolkit-like
//! latency profile (2750 µs generate / 500 µs fetch), 4 MiB memtable,
//! leveled compaction, 4 background jobs. Writes use
//! `WriteOptions::sync = false` over a `PosixEnv` that does not fsync —
//! db_bench's flush policy.

use std::sync::Arc;

use shield::{open_plain, open_shield, ShieldDb, ShieldOptions};
use shield_core::{LogConfig, LogLevel};
use shield_env::{Env, IoStats, NetworkModel, PosixEnv, RemoteEnv};
use shield_kds::{Kds, KdsConfig, LocalKds, ResolverStats, ServerId};
use shield_lsm::cache::{BlockCache, CacheConfig, CacheStatsSnapshot};
use shield_lsm::{Db, Integrity, Options, Statistics, StatsSnapshot};

use crate::decor::{BgListener, EnvLedger, TimedEnv, TimedKds};

pub const FLUSH_POLICY: &str =
    "WriteOptions::sync=false over PosixEnv without fsync (db_bench default)";
const PASSKEY: &[u8] = b"benchmark-passkey";

/// Whether the database encrypts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Shield,
    /// Unencrypted reference (`open_plain`, CRC integrity).
    Plain,
}

/// How to build one system under test.
#[derive(Clone, Copy, Debug)]
pub struct SutConfig {
    pub mode: Mode,
    /// Mount the directory through `RemoteEnv(intra_datacenter)`.
    pub remote: bool,
    pub cache_bytes: usize,
    /// Install the three decorators (traced pass only).
    pub decorated: bool,
}

/// The decorators of a traced run.
pub struct Decorators {
    pub env: Arc<EnvLedger>,
    pub kds: Arc<TimedKds>,
    pub bg: Arc<BgListener>,
}

enum Handle {
    Shield(ShieldDb),
    Plain(Db),
}

/// An open database together with every public counter source around it.
pub struct Sut {
    pub config: SutConfig,
    pub dir: String,
    handle: Option<Handle>,
    env: Arc<dyn Env>,
    /// The local file system's byte counters: what actually reached storage,
    /// below any network model.
    pub io: Arc<IoStats>,
    local_kds: Arc<LocalKds>,
    kds: Arc<dyn Kds>,
    pub cache: Arc<BlockCache>,
    pub stats: Arc<Statistics>,
    pub decorators: Option<Decorators>,
}

impl Sut {
    /// Creates the environment stack and opens a fresh database in `dir`
    /// (which must not exist yet).
    pub fn create(config: SutConfig, dir: &str) -> Result<Sut, String> {
        let posix = PosixEnv::new();
        let io = posix.io_stats().expect("PosixEnv keeps IoStats");
        let mut env: Arc<dyn Env> = Arc::new(posix);
        if config.remote {
            env = Arc::new(RemoteEnv::new(env, NetworkModel::intra_datacenter()));
        }
        let local_kds = Arc::new(LocalKds::new(KdsConfig::sstoolkit_like()));
        let mut kds: Arc<dyn Kds> = local_kds.clone();
        let decorators = config.decorated.then(|| {
            let timed_env = TimedEnv::new(env.clone());
            let ledger = timed_env.ledger();
            env = Arc::new(timed_env);
            let timed_kds = Arc::new(TimedKds::new(kds.clone()));
            kds = timed_kds.clone();
            Decorators {
                env: ledger,
                kds: timed_kds,
                bg: Arc::new(BgListener::default()),
            }
        });
        let mut sut = Sut {
            config,
            dir: dir.to_string(),
            handle: None,
            env,
            io,
            local_kds,
            kds,
            cache: new_cache(config.cache_bytes)?,
            stats: Statistics::new(),
            decorators,
        };
        sut.open()?;
        Ok(sut)
    }

    fn open(&mut self) -> Result<(), String> {
        // A reopened process starts with fresh counters and a cold cache.
        self.stats = Statistics::new();
        self.cache = new_cache(self.config.cache_bytes)?;
        let mut opts = Options::new(self.env.clone())
            .with_write_buffer_size(4 * 1024 * 1024)
            .with_background_jobs(4)
            // Pinned so the SHIELD_LOG variable of whoever runs the
            // benchmark cannot change what is measured.
            .with_info_log(LogConfig {
                level: Some(LogLevel::Info),
                json: false,
            });
        opts.shared_block_cache = Some(self.cache.clone());
        opts.statistics = self.stats.clone();
        if let Some(d) = &self.decorators {
            opts = opts.with_event_listener(d.bg.clone());
        }
        let handle = match self.config.mode {
            Mode::Shield => {
                opts = opts.with_integrity(Integrity::Hmac);
                let shield = ShieldOptions::new(self.kds.clone(), ServerId(1), PASSKEY);
                Handle::Shield(
                    open_shield(opts, &self.dir, shield)
                        .map_err(|e| format!("open_shield: {e}"))?,
                )
            }
            Mode::Plain => {
                Handle::Plain(open_plain(opts, &self.dir).map_err(|e| format!("open_plain: {e}"))?)
            }
        };
        self.handle = Some(handle);
        Ok(())
    }

    pub fn db(&self) -> &Db {
        match self.handle.as_ref().expect("database is open") {
            Handle::Shield(s) => &s.db,
            Handle::Plain(db) => db,
        }
    }

    /// Clean close: drops the handle, which stops background work and
    /// flushes the WAL.
    pub fn close(&mut self) {
        self.handle = None;
    }

    /// Opens the closed database again, as a restarted process would.
    pub fn reopen(&mut self) -> Result<(), String> {
        assert!(self.handle.is_none(), "close before reopen");
        self.open()
    }

    /// Engine tickers, with cache and resolver mirrors refreshed.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        match self.handle.as_ref().expect("database is open") {
            Handle::Shield(s) => s.statistics().snapshot(),
            Handle::Plain(db) => db.statistics().snapshot(),
        }
    }

    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache.stats()
    }

    pub fn resolver_stats(&self) -> ResolverStats {
        match self.handle.as_ref() {
            Some(Handle::Shield(s)) => s.resolver.stats(),
            _ => ResolverStats::default(),
        }
    }

    pub fn cipher_inits(&self) -> u64 {
        match self.handle.as_ref() {
            Some(Handle::Shield(s)) => s.encryption.cipher_inits(),
            _ => 0,
        }
    }

    pub fn kds_stats(&self) -> shield_kds::KdsStats {
        self.local_kds.stats()
    }

    /// Bytes of every file in the database directory.
    pub fn dir_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Closes the database and deletes its directory.
    pub fn destroy(mut self) {
        self.close();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn new_cache(capacity: usize) -> Result<Arc<BlockCache>, String> {
    BlockCache::with_config(CacheConfig {
        capacity,
        ..CacheConfig::default()
    })
    .map_err(|e| format!("block cache: {e}"))
}
