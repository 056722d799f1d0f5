//! The database facade: options, write batches, the shared read path,
//! and the [`Db`] itself — a write front ([`db`], [`write`], `recover`)
//! over 1..N trees (`tree`).

pub mod batch;
#[allow(clippy::module_inception)]
pub mod db;
pub mod metrics;
pub mod options;
pub mod pool;
pub mod read;
mod recover;
pub mod replica;
mod sharded;
mod tree;
mod write;

pub use batch::WriteBatch;
pub use db::Db;
pub use metrics::{
    Diagnostics, LevelStats, MetricsReport, ReplicaProgress, TreeMetrics, METRICS_SCHEMA, OP_TYPES,
};
pub use options::{Options, ReadOptions, ShardBy, WriteOptions};
pub use pool::{JobClass, JobPool};
pub use read::{DbIterator, Snapshot, MAX_SEQUENTIAL_SKIP};
pub use replica::{ReplicaDb, ReplicaOptions};
