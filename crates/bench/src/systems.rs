//! Builders for the five systems the paper compares (§6.1):
//! unencrypted baseline, EncFS ± WAL-Buf, SHIELD ± WAL-Buf — the only
//! place in this crate that maps a system to `open_plain` / `open_encfs`
//! / `open_shield`.

use std::sync::Arc;

use shield::{open_encfs, open_plain, open_shield, EncFsDb, ShieldDb, ShieldOptions};
use shield_crypto::{Algorithm, Dek};
use shield_env::Env;
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::compaction::{CompactionExecutor, CompactionStyle};
use shield_lsm::{Db, Options, Result};

/// The five configurations of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// Unencrypted baseline ("unencrypted RocksDB").
    Plain,
    /// Instance-level encryption, per-append WAL encryption.
    EncFs,
    /// Instance-level encryption + the §5.3 WAL buffer.
    EncFsBuf,
    /// SHIELD with an unbuffered WAL.
    Shield,
    /// SHIELD + the §5.3 WAL buffer (the full design).
    ShieldBuf,
}

impl SystemKind {
    /// All five, in the paper's plotting order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Plain,
        SystemKind::EncFs,
        SystemKind::EncFsBuf,
        SystemKind::Shield,
        SystemKind::ShieldBuf,
    ];

    /// Display label matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Plain => "RocksDB",
            SystemKind::EncFs => "EncFS",
            SystemKind::EncFsBuf => "EncFS+WAL-Buf",
            SystemKind::Shield => "SHIELD",
            SystemKind::ShieldBuf => "SHIELD+WAL-Buf",
        }
    }

    /// Key of this system's section in a `BENCH_*.json`.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            SystemKind::Plain => "plain",
            SystemKind::EncFs => "encfs",
            SystemKind::EncFsBuf => "encfs_buf",
            SystemKind::Shield => "shield",
            SystemKind::ShieldBuf => "shield_buf",
        }
    }
}

/// Engine + encryption tuning shared by an experiment.
#[derive(Clone)]
pub struct Tuning {
    /// Memtable size.
    pub write_buffer_size: usize,
    /// Background worker threads.
    pub background_jobs: usize,
    /// Block cache bytes.
    pub block_cache_bytes: usize,
    /// Compaction policy.
    pub compaction_style: CompactionStyle,
    /// L0 trigger for leveled compaction.
    pub l0_compaction_trigger: usize,
    /// Run-count trigger for universal compaction.
    pub universal_run_trigger: usize,
    /// Output file size cap.
    pub target_file_size: u64,
    /// FIFO total-size budget.
    pub fifo_max_bytes: u64,
    /// §5.3 WAL buffer bytes for the *Buf variants.
    pub wal_buffer_size: usize,
    /// Chunked-encryption chunk size.
    pub chunk_size: usize,
    /// Chunked-encryption threads.
    pub encryption_threads: usize,
    /// Cipher for SHIELD's DEKs.
    pub algorithm: Algorithm,
    /// SHIELD's secure DEK cache (§5.2); off, every resolution goes to
    /// the KDS.
    pub secure_dek_cache: bool,
    /// When false SHIELD leaves the WAL plaintext (Table 2's "Encrypted
    /// SST" configuration).
    pub encrypt_wal: bool,
    /// KDS latency profile (used when `kds` is not supplied).
    pub kds_config: KdsConfig,
    /// Pre-built KDS to share with other components (e.g. an offloaded
    /// compactor); a fresh [`LocalKds`] is created when `None`.
    pub kds: Option<Arc<LocalKds>>,
    /// Offloaded compaction executor, if any.
    pub compaction_executor: Option<Arc<dyn CompactionExecutor>>,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            write_buffer_size: 4 * 1024 * 1024,
            background_jobs: 4,
            block_cache_bytes: 32 * 1024 * 1024,
            compaction_style: CompactionStyle::Leveled,
            l0_compaction_trigger: 4,
            universal_run_trigger: 8,
            target_file_size: 2 * 1024 * 1024,
            fifo_max_bytes: 64 * 1024 * 1024,
            wal_buffer_size: 512,
            chunk_size: 4096,
            encryption_threads: 1,
            algorithm: Algorithm::Aes128Ctr,
            secure_dek_cache: true,
            encrypt_wal: true,
            kds_config: KdsConfig::default(),
            kds: None,
            compaction_executor: None,
        }
    }
}

enum SystemDb {
    Plain(Db),
    EncFs(EncFsDb),
    Shield(ShieldDb),
}

/// An opened system under test.
pub struct SystemHandle {
    /// Which configuration this is.
    pub kind: SystemKind,
    /// The KDS backing SHIELD variants.
    pub kds: Option<Arc<LocalKds>>,
    inner: SystemDb,
}

impl SystemHandle {
    /// The engine handle.
    #[must_use]
    pub fn db(&self) -> &Db {
        match &self.inner {
            SystemDb::Plain(db) => db,
            SystemDb::EncFs(db) => &db.db,
            SystemDb::Shield(db) => &db.db,
        }
    }

    /// Cipher-context constructions performed so far (0 for Plain).
    #[must_use]
    pub fn cipher_inits(&self) -> u64 {
        match &self.inner {
            SystemDb::Plain(_) => 0,
            SystemDb::EncFs(db) => db.env.cipher_inits(),
            SystemDb::Shield(db) => db.encryption.cipher_inits(),
        }
    }

    /// The SHIELD handle, when applicable.
    #[must_use]
    pub fn shield(&self) -> Option<&ShieldDb> {
        match &self.inner {
            SystemDb::Shield(db) => Some(db),
            _ => None,
        }
    }
}

fn base_options(env: Arc<dyn Env>, tuning: &Tuning) -> Options {
    let mut opts = Options::new(env)
        .with_write_buffer_size(tuning.write_buffer_size)
        .with_background_jobs(tuning.background_jobs)
        .with_compaction_style(tuning.compaction_style);
    opts.block_cache_bytes = tuning.block_cache_bytes;
    opts.compaction.l0_compaction_trigger = tuning.l0_compaction_trigger;
    opts.compaction.universal_run_trigger = tuning.universal_run_trigger;
    opts.compaction.target_file_size = tuning.target_file_size;
    opts.compaction.fifo_max_bytes = tuning.fifo_max_bytes;
    opts.compaction_executor = tuning.compaction_executor.clone();
    opts
}

/// One system's store: where it lives plus the key material that must
/// outlive a handle — the EncFS instance DEK, the SHIELD KDS — so the
/// same data can be opened again, cold, as often as a bench needs.
pub struct SystemStore {
    kind: SystemKind,
    env: Arc<dyn Env>,
    path: String,
    tuning: Tuning,
    dek: Dek,
    /// The KDS every SHIELD open of this store talks to (`tuning.kds`
    /// when supplied).
    pub kds: Arc<LocalKds>,
}

impl SystemStore {
    /// A store for `kind` at `path` over `env`; nothing is opened yet.
    #[must_use]
    pub fn new(kind: SystemKind, env: Arc<dyn Env>, path: &str, tuning: Tuning) -> Self {
        let kds = tuning
            .kds
            .clone()
            .unwrap_or_else(|| Arc::new(LocalKds::new(tuning.kds_config.clone())));
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        SystemStore { kind, env, path: path.to_string(), tuning, dek, kds }
    }

    /// Which of the five systems this store holds.
    #[must_use]
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// Opens the store (creating it the first time) with `tuning`'s
    /// options.
    pub fn open(&self) -> Result<SystemHandle> {
        self.open_with(|opts| opts)
    }

    /// [`SystemStore::open`] with this open's own adjustments to the
    /// engine options (readahead, integrity mode, tracing, …).
    pub fn open_with(&self, adjust: impl FnOnce(Options) -> Options) -> Result<SystemHandle> {
        let kind = self.kind;
        let tuning = &self.tuning;
        let opts = adjust(base_options(self.env.clone(), tuning));
        let (inner, kds) = match kind {
            SystemKind::Plain => (SystemDb::Plain(open_plain(opts, &self.path)?), None),
            SystemKind::EncFs | SystemKind::EncFsBuf => {
                let buf = if kind == SystemKind::EncFsBuf { tuning.wal_buffer_size } else { 0 };
                (SystemDb::EncFs(open_encfs(opts, &self.path, self.dek.clone(), buf)?), None)
            }
            SystemKind::Shield | SystemKind::ShieldBuf => {
                let mut shield_opts = ShieldOptions::new(
                    self.kds.clone() as Arc<dyn Kds>,
                    ServerId(1),
                    b"bench-passkey",
                );
                shield_opts.wal_buffer_size =
                    if kind == SystemKind::ShieldBuf { tuning.wal_buffer_size } else { 0 };
                shield_opts.chunk_size = tuning.chunk_size;
                shield_opts.encryption_threads = tuning.encryption_threads;
                shield_opts.algorithm = tuning.algorithm;
                shield_opts.encrypt_wal = tuning.encrypt_wal;
                if !tuning.secure_dek_cache {
                    shield_opts.passkey = None;
                }
                let db = open_shield(opts, &self.path, shield_opts)?;
                (SystemDb::Shield(db), Some(self.kds.clone()))
            }
        };
        Ok(SystemHandle { kind, kds, inner })
    }
}

/// Opens `kind` at `path` over `env`, once.
pub fn build_system(
    kind: SystemKind,
    env: Arc<dyn Env>,
    path: &str,
    tuning: &Tuning,
) -> Result<SystemHandle> {
    SystemStore::new(kind, env, path, tuning.clone()).open()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield::{ReadOptions, WriteOptions};
    use shield_env::MemEnv;

    #[test]
    fn all_five_systems_roundtrip() {
        for kind in SystemKind::ALL {
            let env = MemEnv::new();
            let sys =
                build_system(kind, Arc::new(env), "db", &Tuning::default()).unwrap();
            sys.db().put(&WriteOptions::default(), b"k", b"v").unwrap();
            assert_eq!(
                sys.db().get(&ReadOptions::new(), b"k").unwrap(),
                Some(b"v".to_vec()),
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn encrypted_stores_reopen_over_their_own_data() {
        for kind in [SystemKind::EncFs, SystemKind::Shield] {
            let store =
                SystemStore::new(kind, Arc::new(MemEnv::new()), "db", Tuning::default());
            {
                let sys = store.open().unwrap();
                sys.db().put(&WriteOptions::default(), b"k", b"v").unwrap();
                sys.db().flush().unwrap();
                sys.db().put(&WriteOptions::default(), b"in-wal", b"w").unwrap();
            }
            let sys = store.open_with(|opts| opts.with_readahead_blocks(4)).unwrap();
            for (key, value) in [(&b"k"[..], &b"v"[..]), (b"in-wal", b"w")] {
                assert_eq!(
                    sys.db().get(&ReadOptions::new(), key).unwrap().as_deref(),
                    Some(value),
                    "{}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn encrypted_systems_count_inits() {
        for kind in [SystemKind::EncFs, SystemKind::Shield] {
            let env = MemEnv::new();
            let sys =
                build_system(kind, Arc::new(env), "db", &Tuning::default()).unwrap();
            for i in 0..50u32 {
                sys.db()
                    .put(&WriteOptions::default(), format!("{i}").as_bytes(), b"v")
                    .unwrap();
            }
            assert!(sys.cipher_inits() > 0, "{}", kind.label());
        }
        let env = MemEnv::new();
        let sys = build_system(SystemKind::Plain, Arc::new(env), "db", &Tuning::default())
            .unwrap();
        assert_eq!(sys.cipher_inits(), 0);
    }
}
