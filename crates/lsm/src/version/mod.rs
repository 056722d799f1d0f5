//! Versioned metadata: which SST files exist at which level, persisted as
//! a log of [`VersionEdit`]s in the MANIFEST file (itself encrypted under
//! its own DEK in SHIELD mode).

pub mod edit;
pub mod filenames;
pub mod set;
pub mod table_cache;
pub mod tailer;
#[allow(clippy::module_inception)]
pub mod version;

pub use edit::{FileMeta, VersionEdit};
pub use filenames::{
    current_file_name, manifest_file_name, parse_file_name, sst_file_name, wal_file_name,
    FileType,
};
pub use set::VersionSet;
pub use table_cache::TableCache;
pub use tailer::{EditApplier, ManifestPoll, ManifestTailer};
pub use version::{Version, NUM_LEVELS};
