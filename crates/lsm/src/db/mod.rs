//! The database facade: options, write batches, the shared read path,
//! and the [`Db`] itself.

pub mod batch;
#[allow(clippy::module_inception)]
pub mod db;
pub mod metrics;
pub mod options;
pub mod pool;
pub mod read;
pub mod replica;
pub mod sharded;

pub use batch::WriteBatch;
pub use db::Db;
pub use metrics::{LevelStats, MetricsReport, METRICS_SCHEMA, OP_TYPES};
pub use options::{Options, ReadOptions, ShardBy, WriteOptions};
pub use pool::{JobClass, JobPool};
pub use read::{DbIterator, Snapshot};
pub use replica::{ReplicaDb, ReplicaOptions, REPLICA_METRICS_SCHEMA};
pub use sharded::{ShardedDb, ShardedDbIterator, ShardedSnapshot, SHARDED_METRICS_SCHEMA};
