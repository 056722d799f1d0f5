//! Sorted String Table (SST) files.
//!
//! Layout (after the optional encryption header, which the file layer
//! strips transparently):
//!
//! ```text
//! [data block 0]…[data block N]   prefix-compressed entries + restarts,
//!                                 each followed by a 5-byte trailer
//!                                 (compression tag + CRC32C)
//! [filter block]                  bloom filter over user keys
//! [properties block]              num_entries, key range, DEK-ID, …
//! [index block]                   last-key → block handle, one per block
//! [footer]                        fixed 60 bytes: three handles + magic
//! ```
//!
//! In SHIELD mode the whole file body is one CTR stream under the file's
//! unique DEK; the plaintext 64-byte header that precedes this layout
//! carries the DEK-ID (see [`crate::encryption`]).

pub mod block;
pub mod builder;
pub mod fetcher;
pub mod filter;
pub mod format;
pub mod reader;
pub mod scanner;

pub use block::{Block, BlockBuilder, BlockIter};
pub use builder::TableBuilder;
pub use fetcher::{BlockFetcher, BlockRequest, FetchedBlock, TableKeys};
pub use filter::{BloomFilterBuilder, BloomFilterReader};
pub use format::{BlockHandle, Footer, TableProperties, FOOTER_LEN, TABLE_MAGIC};
pub use reader::{Table, TableIterator};
pub use scanner::{TableScanner, SCAN_SPAN_BYTES};
