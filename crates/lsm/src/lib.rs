//! A from-scratch LSM-tree key-value store with SHIELD encryption embedded
//! in its write path.
//!
//! This crate reproduces the storage engine the SHIELD paper (SIGMOD 2025)
//! builds on — an LSM-KVS in the RocksDB/LevelDB lineage — plus the paper's
//! contribution: per-file Data Encryption Keys requested from a KDS, DEK
//! rotation as a side effect of compaction, an application-managed WAL
//! encryption buffer, chunked multi-threaded SST encryption, and plaintext
//! per-file metadata carrying only the DEK-ID.
//!
//! Architecture (paper Fig. 1):
//!
//! ```text
//!   Put/Delete ──► WriteBatch ──► group commit ──► WAL (encrypted, buffered)
//!                                      │
//!                                      ▼
//!                                  MemTable (arena skiplist)
//!                                      │ flush (encrypt at persist time)
//!                                      ▼
//!          L0 ── L1 ── … ── L6   SST files (leveled / universal / FIFO
//!                                compaction; outputs get fresh DEKs)
//! ```
//!
//! Entry point: [`Db`], configured by [`Options`]. Encryption is enabled by
//! [`Options::encryption`]; see [`encryption::EncryptionConfig`].

pub mod cache;
pub mod compaction;
pub mod db;
pub mod encryption;
pub mod error;
pub mod files;
pub mod integrity;
pub mod iter;
pub mod memtable;
pub mod obs;
pub mod sst;
pub mod statistics;
pub mod types;
pub mod varint;
pub mod version;
pub mod wal;

pub use db::metrics::{
    Diagnostics, LevelStats, MetricsReport, ReplicaProgress, TreeMetrics, METRICS_SCHEMA, OP_TYPES,
};
pub use db::options::{CompactionStyle, Options, ReadOptions, ShardBy, WriteOptions};
pub use db::pool::{JobClass, JobPool};
pub use db::replica::{ReplicaDb, ReplicaOptions};
pub use db::{Db, DbIterator, Snapshot, WriteBatch, MAX_SEQUENTIAL_SKIP};
pub use encryption::EncryptionConfig;
pub use error::{Error, Result, Severity};
pub use files::{FileStore, READY_DEKS};
pub use integrity::{Integrity, IntegrityOptions};
// Observability vocabulary, re-exported from the dependency-free
// `shield-core` crate so embedders need only one `use shield_lsm::...`.
pub use shield_core::{
    Event, EventDispatcher, EventListener, Histogram, HistogramSummary, InfoLog, LogConfig,
    LogLevel, MetricsWindow, PerfContext, PerfGuard, SlowOp, SpanRecord, WINDOW_SCHEMA,
};
pub use statistics::{Statistics, StatsSnapshot};
pub use types::{SequenceNumber, ValueType};
