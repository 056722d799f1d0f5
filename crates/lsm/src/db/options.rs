//! Database configuration.

use std::sync::Arc;

use shield_core::{EventListener, LogConfig};
use shield_env::Env;

pub use crate::compaction::CompactionStyle;
use crate::cache::BlockCache;
use crate::compaction::CompactionParams;
use crate::encryption::EncryptionConfig;
use crate::integrity::Integrity;
use crate::statistics::Statistics;

/// How a [`crate::Db`] with more than one tree routes user keys to them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardBy {
    /// FNV-1a hash of the user key, modulo the shard count. Needs no
    /// configuration and balances any key distribution.
    Hash,
    /// Key ranges split at the given boundaries (sorted, strictly
    /// increasing, `shards - 1` entries): shard `i` owns keys in
    /// `[boundaries[i-1], boundaries[i])`, with the first shard owning
    /// everything below `boundaries[0]` and the last everything from
    /// `boundaries[last]` up.
    Range(Vec<Vec<u8>>),
}

/// Configuration for opening a [`crate::Db`].
///
/// Defaults follow the paper's scaled-down benchmark profile: 4 MiB
/// memtables, 4 KiB blocks, 10-bit blooms, leveled compaction with
/// fanout 10, and no encryption. Enable SHIELD with
/// [`Options::with_encryption`].
#[derive(Clone)]
pub struct Options {
    /// Storage environment (local, in-memory, or disaggregated).
    pub env: Arc<dyn Env>,
    /// Create the database if it does not exist.
    pub create_if_missing: bool,
    /// Fail if the database already exists.
    pub error_if_exists: bool,
    /// Memtable size that triggers a flush.
    pub write_buffer_size: usize,
    /// How many immutable memtables may queue before writers stall.
    pub max_immutable_memtables: usize,
    /// SST data-block size (RocksDB default 4096).
    pub block_size: usize,
    /// Restart interval within blocks.
    pub restart_interval: usize,
    /// Bloom bits per key (0 disables filters).
    pub bloom_bits_per_key: usize,
    /// Block cache capacity in bytes (0 disables the cache). A tenth is
    /// reserved for index/filter blocks; for another split, build the
    /// cache from a [`crate::cache::CacheConfig`] and pass it as
    /// [`Options::shared_block_cache`].
    pub block_cache_bytes: usize,
    /// Data blocks an iterator reads together with one that is not
    /// cached, in one batched read (0 disables readahead). Compaction
    /// does not use it: its inputs stream around the block cache
    /// ([`crate::sst::TableScanner`]).
    pub readahead_blocks: usize,
    /// Compaction policy and thresholds.
    pub compaction: CompactionParams,
    /// L0 file count at which writes are slowed, and from which the tree
    /// counts as behind: its merges are split across the lanes the
    /// sleeping writers leave idle.
    pub l0_slowdown_trigger: usize,
    /// L0 file count at which writes stop until compaction catches up.
    pub l0_stop_trigger: usize,
    /// Background worker threads (flushes + compactions).
    pub max_background_jobs: usize,
    /// Skip the WAL entirely (crash-unsafe; for experiments only).
    pub disable_wal: bool,
    /// SHIELD encryption; `None` runs plaintext.
    pub encryption: Option<EncryptionConfig>,
    /// Integrity mode for newly written files: [`Integrity::Hmac`] adds a
    /// truncated per-block HMAC-SHA256 tag to every SST block and
    /// WAL/MANIFEST record, detected and verified on read regardless of
    /// this setting (verification is file-format driven).
    pub integrity: Integrity,
    /// Engine-wide MAC key for files without a DEK (plaintext and EncFS
    /// deployments, unencrypted WALs). SHIELD-encrypted files derive a
    /// per-file subkey from their DEK instead.
    pub integrity_key: [u8; 32],
    /// Where compactions run: `None` = in-process; `Some` = offloaded
    /// (e.g. to the disaggregated storage server, paper §5.6).
    pub compaction_executor: Option<Arc<dyn crate::compaction::CompactionExecutor>>,
    /// How many times a background job retries a *soft* (transient)
    /// failure before parking the error in `bg_error`. 0 disables retries.
    pub max_background_retries: u32,
    /// Base backoff before the first background retry; doubles per
    /// attempt, capped at [`Options::background_retry_max_backoff`].
    pub background_retry_backoff: std::time::Duration,
    /// Upper bound on the per-attempt background retry backoff.
    pub background_retry_max_backoff: std::time::Duration,
    /// Shared engine counters.
    pub statistics: Arc<Statistics>,
    /// Listeners notified of engine events (flushes, compactions, stalls,
    /// background errors, KDS transitions, fault injections). The DB's
    /// `LOG` file is an implicit listener configured by
    /// [`Options::info_log`].
    pub event_listeners: Vec<Arc<dyn EventListener>>,
    /// Level filter / format for the `LOG` file written into the DB
    /// directory. `None` (the default) reads the `SHIELD_LOG` env var at
    /// open (e.g. `SHIELD_LOG=debug,json`); an unset var means `info`,
    /// and `SHIELD_LOG=off` disables the file entirely.
    pub info_log: Option<LogConfig>,
    /// Record a hierarchical span trace (the flight recorder) for every
    /// foreground operation and background job. Off by default: the
    /// disabled path is one thread-local check per span site.
    pub trace_ops: bool,
    /// Operations slower than this are captured into the slow-op ring
    /// (full span tree + [`shield_core::PerfContext`]) and logged at
    /// warn level. `None` disables capture. Requires [`Options::trace_ops`].
    pub slow_op_threshold: Option<std::time::Duration>,
    /// How often the stats thread diffs ticker snapshots into a
    /// [`shield_core::MetricsWindow`] (interval rates, logged and kept in
    /// a bounded ring, the `windows` of [`crate::Db::metrics_report`]).
    /// `None` disables windowed stats.
    pub stats_dump_period: Option<std::time::Duration>,
    /// Traced operations/jobs still running past this deadline are
    /// flagged once by the watchdog ([`shield_core::Event::Watchdog`]
    /// with the live span stack). `None` disables the watchdog.
    /// Requires [`Options::trace_ops`].
    pub watchdog_deadline: Option<std::time::Duration>,
    /// How many trees the database keeps behind its one write front
    /// (1 = a single LSM). Fixed when the database is created.
    pub shards: usize,
    /// Key→tree routing policy. Fixed when the database is created.
    pub shard_by: ShardBy,
    /// Use this block cache instead of building a private one (ignores
    /// [`Options::block_cache_bytes`]), e.g. to share one cache between
    /// databases or to read its counters directly.
    pub shared_block_cache: Option<Arc<BlockCache>>,
}

impl Options {
    /// Creates options bound to `env` with benchmark-profile defaults.
    #[must_use]
    pub fn new(env: Arc<dyn Env>) -> Self {
        Options {
            env,
            create_if_missing: true,
            error_if_exists: false,
            write_buffer_size: 4 * 1024 * 1024,
            max_immutable_memtables: 2,
            block_size: 4096,
            restart_interval: 16,
            bloom_bits_per_key: 10,
            block_cache_bytes: 32 * 1024 * 1024,
            readahead_blocks: 0,
            compaction: CompactionParams::default(),
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 16,
            max_background_jobs: 4,
            disable_wal: false,
            encryption: None,
            integrity: Integrity::Crc,
            integrity_key: [0u8; 32],
            compaction_executor: None,
            max_background_retries: 3,
            background_retry_backoff: std::time::Duration::from_millis(1),
            background_retry_max_backoff: std::time::Duration::from_millis(100),
            statistics: Statistics::new(),
            event_listeners: Vec::new(),
            info_log: None,
            trace_ops: false,
            slow_op_threshold: None,
            stats_dump_period: None,
            watchdog_deadline: None,
            shards: 1,
            shard_by: ShardBy::Hash,
            shared_block_cache: None,
        }
    }

    /// Keeps `n` hash-routed trees (clamped to ≥ 1). Use
    /// [`Options::with_shard_ranges`] for range routing.
    #[must_use]
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self.shard_by = ShardBy::Hash;
        self
    }

    /// Keeps `boundaries.len() + 1` range-routed trees split at the given
    /// (sorted, strictly increasing) keys.
    #[must_use]
    pub fn with_shard_ranges(mut self, boundaries: Vec<Vec<u8>>) -> Self {
        self.shards = boundaries.len() + 1;
        self.shard_by = ShardBy::Range(boundaries);
        self
    }

    /// Enables SHIELD encryption.
    #[must_use]
    pub fn with_encryption(mut self, cfg: EncryptionConfig) -> Self {
        self.encryption = Some(cfg);
        self
    }

    /// Sets the integrity mode for newly written files.
    #[must_use]
    pub fn with_integrity(mut self, mode: Integrity) -> Self {
        self.integrity = mode;
        self
    }

    /// Sets the engine-wide MAC key used for files without a DEK.
    #[must_use]
    pub fn with_integrity_key(mut self, key: [u8; 32]) -> Self {
        self.integrity_key = key;
        self
    }

    /// Sets the compaction style, keeping other thresholds.
    #[must_use]
    pub fn with_compaction_style(mut self, style: CompactionStyle) -> Self {
        self.compaction.style = style;
        self
    }

    /// Sets the memtable size.
    #[must_use]
    pub fn with_write_buffer_size(mut self, bytes: usize) -> Self {
        self.write_buffer_size = bytes;
        self
    }

    /// Sets the background thread count.
    #[must_use]
    pub fn with_background_jobs(mut self, jobs: usize) -> Self {
        self.max_background_jobs = jobs.max(1);
        self
    }

    /// Splits every compaction into up to `n` key-disjoint subranges
    /// merged concurrently on the background pool. A floor, not a switch:
    /// at the default of 1 the engine still splits a merge while its tree
    /// is behind (L0 at [`Options::l0_slowdown_trigger`]).
    #[must_use]
    pub fn with_max_subcompactions(mut self, n: usize) -> Self {
        self.compaction.max_subcompactions = n.max(1);
        self
    }

    /// Registers an [`EventListener`] notified of every engine event.
    #[must_use]
    pub fn with_event_listener(mut self, listener: Arc<dyn EventListener>) -> Self {
        self.event_listeners.push(listener);
        self
    }

    /// Pins the `LOG` file configuration instead of reading `SHIELD_LOG`.
    #[must_use]
    pub fn with_info_log(mut self, config: LogConfig) -> Self {
        self.info_log = Some(config);
        self
    }

    /// Sets the iterator readahead depth in data blocks.
    #[must_use]
    pub fn with_readahead_blocks(mut self, blocks: usize) -> Self {
        self.readahead_blocks = blocks;
        self
    }

    /// Enables the flight recorder (per-op span traces).
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.trace_ops = true;
        self
    }

    /// Enables tracing and captures ops slower than `threshold` into the
    /// slow-op ring.
    #[must_use]
    pub fn with_slow_op_threshold(mut self, threshold: std::time::Duration) -> Self {
        self.trace_ops = true;
        self.slow_op_threshold = Some(threshold);
        self
    }

    /// Emits a windowed stats report every `period`.
    #[must_use]
    pub fn with_stats_dump_period(mut self, period: std::time::Duration) -> Self {
        self.stats_dump_period = Some(period);
        self
    }

    /// Enables tracing and the stall watchdog: traced ops running past
    /// `deadline` are flagged with their live span stack.
    #[must_use]
    pub fn with_watchdog_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.trace_ops = true;
        self.watchdog_deadline = Some(deadline);
        self
    }
}

/// Per-read options.
#[derive(Clone, Copy)]
pub struct ReadOptions {
    /// Read at this snapshot sequence instead of the latest state.
    pub snapshot_seq: Option<u64>,
    /// Admit blocks read on behalf of this operation to the block cache
    /// (and look them up there). `false` reads around the cache without
    /// disturbing residency — for one-off scans over cold data.
    pub fill_cache: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadOptions {
    /// Default read options (latest data, cache enabled).
    #[must_use]
    pub fn new() -> Self {
        ReadOptions { snapshot_seq: None, fill_cache: true }
    }
}

/// Per-write options.
#[derive(Clone, Copy, Default)]
pub struct WriteOptions {
    /// Block until the WAL write is durable.
    pub sync: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::MemEnv;

    #[test]
    fn defaults_are_sane() {
        let o = Options::new(Arc::new(MemEnv::new()));
        assert!(o.create_if_missing);
        assert!(o.encryption.is_none());
        assert_eq!(o.integrity, Integrity::Crc);
        assert_eq!(o.integrity_key, [0u8; 32]);
        assert_eq!(o.block_size, 4096);
        assert_eq!(o.compaction.fanout, 10);
    }

    #[test]
    fn builders_compose() {
        let o = Options::new(Arc::new(MemEnv::new()))
            .with_write_buffer_size(1 << 20)
            .with_background_jobs(0) // clamped to 1
            .with_compaction_style(CompactionStyle::Universal);
        assert_eq!(o.write_buffer_size, 1 << 20);
        assert_eq!(o.max_background_jobs, 1);
        assert_eq!(o.compaction.style, CompactionStyle::Universal);
    }

    #[test]
    fn tracing_knobs_imply_trace_ops() {
        let o = Options::new(Arc::new(MemEnv::new()));
        assert!(!o.trace_ops, "tracing is opt-in");
        assert!(o.slow_op_threshold.is_none() && o.watchdog_deadline.is_none());
        let o = Options::new(Arc::new(MemEnv::new()))
            .with_slow_op_threshold(std::time::Duration::from_millis(5));
        assert!(o.trace_ops, "slow-op capture needs span trees");
        let o = Options::new(Arc::new(MemEnv::new()))
            .with_watchdog_deadline(std::time::Duration::from_millis(50));
        assert!(o.trace_ops, "the watchdog reports live span stacks");
    }
}
