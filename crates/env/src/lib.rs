//! Storage environment abstraction for the SHIELD reproduction.
//!
//! The LSM engine never touches `std::fs` directly; all persistence goes
//! through the [`Env`] trait so the same engine runs against:
//!
//! * [`PosixEnv`] — the local filesystem (the paper's monolithic setup),
//! * [`MemEnv`] — an in-memory filesystem that models the OS page-cache
//!   buffer: a *process* crash keeps flushed data; wrapped in a
//!   [`FaultInjectionEnv`], whose `crash` is the one *system* crash, only
//!   synced data survives. That is exactly the persistence distinction
//!   behind the paper's WAL-buffer trade-off (§5.3),
//! * [`RemoteEnv`] — any inner env wrapped with a network model (round-trip
//!   latency plus a bandwidth token bucket) and per-node I/O accounting,
//!   standing in for the paper's HDFS disaggregated-storage cluster (§6.1).
//!
//! Every open is tagged with a [`FileKind`] so that [`IoStats`] can report
//! read/write bytes per file type and per node — the data behind the
//! paper's Table 3.

pub mod fault;
pub mod mem;
mod mmap;
pub mod posix;
pub mod remote;
pub mod stats;

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bytes::Bytes;

pub use fault::{FaultInjectionEnv, FaultOp, FaultStats, FaultStatsSnapshot};
pub use mem::MemEnv;
pub use posix::PosixEnv;
pub use remote::{NetworkModel, RemoteEnv};
pub use stats::{IoStats, IoStatsSnapshot};

/// Classification of a file for I/O accounting and encryption policy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FileKind {
    /// Write-ahead log segments.
    Wal,
    /// Sorted string table files.
    Sst,
    /// MANIFEST / CURRENT metadata files.
    Manifest,
    /// Anything else (options files, DEK cache, …).
    Other,
}

impl FileKind {
    /// All variants, for iterating stats tables.
    pub const ALL: [FileKind; 4] =
        [FileKind::Wal, FileKind::Sst, FileKind::Manifest, FileKind::Other];

    /// Index into per-kind stat arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FileKind::Wal => 0,
            FileKind::Sst => 1,
            FileKind::Manifest => 2,
            FileKind::Other => 3,
        }
    }

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FileKind::Wal => "WAL",
            FileKind::Sst => "SST",
            FileKind::Manifest => "MANIFEST",
            FileKind::Other => "OTHER",
        }
    }
}

/// Errors surfaced by environment operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The named file or directory does not exist.
    NotFound(String),
    /// The file already exists and exclusive creation was requested.
    AlreadyExists(String),
    /// Data failed validation (checksum, truncation) at the env layer.
    Corruption(String),
    /// Any other I/O failure.
    Io(String),
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::NotFound(p) => write!(f, "not found: {p}"),
            EnvError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            EnvError::Corruption(m) => write!(f, "corruption: {m}"),
            EnvError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for EnvError {}

impl From<std::io::Error> for EnvError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::NotFound => EnvError::NotFound(e.to_string()),
            std::io::ErrorKind::AlreadyExists => EnvError::AlreadyExists(e.to_string()),
            _ => EnvError::Io(e.to_string()),
        }
    }
}

/// Result alias for env operations.
pub type EnvResult<T> = Result<T, EnvError>;

/// An append-only writable file.
///
/// The three-stage durability model mirrors POSIX buffered I/O:
/// `append` lands in the application buffer, `flush` hands data to the
/// "OS" (page cache), and `sync` makes it durable against system crashes.
pub trait WritableFile: Send {
    /// Appends `data` to the application buffer.
    fn append(&mut self, data: &[u8]) -> EnvResult<()>;
    /// Flushes the application buffer to the OS buffer.
    fn flush(&mut self) -> EnvResult<()>;
    /// Makes all previously flushed data durable.
    fn sync(&mut self) -> EnvResult<()>;
    /// Total bytes appended so far (the logical file length).
    fn len(&self) -> u64;
    /// True if nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One read in a batch submitted through [`RandomAccessFile::read_at_many`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadRequest {
    /// Byte offset of the read.
    pub offset: u64,
    /// Number of bytes requested.
    pub len: usize,
}

/// Where the bytes of a [`RandomAccessFile::read_at_with`] are when its
/// pass runs.
#[derive(Clone, Copy)]
pub enum ReadSource<'a> {
    /// Already copied into the pass's buffer: transform them in place.
    Copied,
    /// Still in memory another process may write while they are read — a
    /// file's shared mapping. The buffer is empty: read each byte once
    /// into it, and trust only what is there.
    Shared(&'a [AtomicU8]),
}

/// A file readable at arbitrary offsets (used for SST files).
///
/// The engine opens only finished files, so a reader may be a snapshot of
/// the file's length at open: [`PosixEnv`] maps exactly that many bytes
/// and serves a read past them short, as at end-of-file. Each returned
/// [`Bytes`] is the caller's own copy; nothing the file's storage does
/// later changes it.
pub trait RandomAccessFile: Send + Sync {
    /// Reads up to `len` bytes starting at `offset`. Returns fewer bytes
    /// only at end-of-file.
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes>;
    /// Total file length in bytes (for [`PosixEnv`], the length at open).
    fn len(&self) -> EnvResult<u64>;
    /// True if the file is empty.
    fn is_empty(&self) -> EnvResult<bool> {
        Ok(self.len()? == 0)
    }
    /// Submits a batch of reads and returns one result per request, in
    /// request order. A failed slot never poisons its neighbors.
    ///
    /// The default implementation issues the reads sequentially; envs
    /// with a cheaper batch path (one lock acquisition, one network round
    /// trip) override it.
    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        requests.iter().map(|r| self.read_at(r.offset, r.len)).collect()
    }
    /// Reads like [`read_at`](Self::read_at), with `pass` turning what
    /// was read into the result in a buffer of the caller's own: the
    /// bytes become the result without a second copy or a second
    /// allocation. `pass` runs once, on everything read, and leaves the
    /// result in the buffer; the [`ReadSource`] says where the read bytes
    /// are.
    ///
    /// The default makes one `read_at` copy into the buffer
    /// ([`ReadSource::Copied`]), as does [`MemEnv`] out of its contents;
    /// [`PosixEnv`] copies nothing and hands the pass the file's mapping
    /// ([`ReadSource::Shared`]), to read each mapped byte once.
    fn read_at_with(
        &self,
        offset: u64,
        len: usize,
        pass: &mut dyn FnMut(ReadSource<'_>, &mut Vec<u8>),
    ) -> EnvResult<Bytes> {
        let mut buf = Vec::from(self.read_at(offset, len)?);
        pass(ReadSource::Copied, &mut buf);
        Ok(Bytes::from(buf))
    }
}

/// Reads currently in flight through [`submit_window`], process-wide.
static INFLIGHT_READS: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`INFLIGHT_READS`] since process start.
static INFLIGHT_READS_PEAK: AtomicU64 = AtomicU64::new(0);

/// High-water mark of concurrently in-flight batched reads since process
/// start. This is the value mirrored into the `env_inflight_reads`
/// gauge: the instantaneous count is almost always zero when a metrics
/// snapshot is taken, the peak shows how deep the windows actually ran.
#[must_use]
pub fn inflight_reads_peak() -> u64 {
    INFLIGHT_READS_PEAK.load(Ordering::Relaxed)
}

/// Submits one window of reads to `file` as one
/// [`RandomAccessFile::read_at_many`] batch, returning one result per
/// request in request order. The caller bounds the window's size (the
/// block fetcher's in-flight depth); this keeps the process-wide
/// in-flight gauge behind [`inflight_reads_peak`] for its duration.
pub fn submit_window(file: &dyn RandomAccessFile, window: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
    let n = window.len() as u64;
    let inflight = INFLIGHT_READS.fetch_add(n, Ordering::Relaxed) + n;
    INFLIGHT_READS_PEAK.fetch_max(inflight, Ordering::Relaxed);
    let results = file.read_at_many(window);
    INFLIGHT_READS.fetch_sub(n, Ordering::Relaxed);
    results
}

/// A file read front to back (used for WAL/MANIFEST replay).
pub trait SequentialFile: Send {
    /// Reads up to `buf.len()` bytes; returns the number read (0 at EOF).
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize>;
}

/// A storage environment: the filesystem the engine runs against.
pub trait Env: Send + Sync {
    /// Creates (truncating) a writable file.
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>>;
    /// Opens an existing file for random-access reads.
    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>>;
    /// Opens an existing file for sequential reads.
    fn new_sequential_file(&self, path: &str, kind: FileKind)
        -> EnvResult<Box<dyn SequentialFile>>;
    /// Removes a file.
    fn remove_file(&self, path: &str) -> EnvResult<()>;
    /// Atomically renames `from` to `to` (replacing `to`).
    fn rename(&self, from: &str, to: &str) -> EnvResult<()>;
    /// True if the file exists.
    fn file_exists(&self, path: &str) -> bool;
    /// Size of the file in bytes.
    fn file_size(&self, path: &str) -> EnvResult<u64>;
    /// Lists the file names (not full paths) directly inside `dir`.
    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>>;
    /// Creates `dir` and all parents.
    fn create_dir_all(&self, dir: &str) -> EnvResult<()>;
    /// Recursively removes `dir`.
    fn remove_dir_all(&self, dir: &str) -> EnvResult<()>;
    /// The I/O statistics sink for this env, if any.
    fn io_stats(&self) -> Option<Arc<IoStats>> {
        None
    }
    /// Fault-injection counters, if this env (or one it wraps) injects
    /// faults. `None` for ordinary envs.
    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        None
    }
    /// Registers an observability event listener. Ordinary envs have
    /// nothing to report and ignore it; wrapping envs forward it, and
    /// the fault-injection env emits [`shield_core::Event::FaultInjected`]
    /// through it. The engine calls this once at `Db::open`.
    fn set_event_listener(&self, _listener: Arc<dyn shield_core::EventListener>) {}
}

/// Reads an entire file into memory.
pub fn read_file_to_vec(env: &dyn Env, path: &str, kind: FileKind) -> EnvResult<Vec<u8>> {
    let mut f = env.new_sequential_file(path, kind)?;
    let mut out = Vec::new();
    let mut buf = [0u8; 8192];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    Ok(out)
}

/// Writes `data` to `path` durably, replacing any existing file, via a
/// temp-file + rename so readers never observe a partial write.
pub fn write_file_atomic(
    env: &dyn Env,
    path: &str,
    kind: FileKind,
    data: &[u8],
) -> EnvResult<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut f = env.new_writable_file(&tmp, kind)?;
        f.append(data)?;
        f.flush()?;
        f.sync()?;
    }
    env.rename(&tmp, path)
}

/// Joins a directory and a file name with `/`, avoiding doubled separators.
#[must_use]
pub fn join_path(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else if dir.ends_with('/') {
        format!("{dir}{name}")
    } else {
        format!("{dir}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_path_variants() {
        assert_eq!(join_path("a", "b"), "a/b");
        assert_eq!(join_path("a/", "b"), "a/b");
        assert_eq!(join_path("", "b"), "b");
    }

    #[test]
    fn file_kind_indices_unique() {
        let mut seen = [false; 4];
        for k in FileKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
    }

    #[test]
    fn env_error_display() {
        assert_eq!(EnvError::NotFound("x".into()).to_string(), "not found: x");
        let io: EnvError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(io, EnvError::NotFound(_)));
    }

    /// A file whose batch path is left at the trait default; remembers
    /// how deep each `read_at_many` submission was.
    struct CountingFile {
        data: Vec<u8>,
        batch_sizes: std::sync::Mutex<Vec<usize>>,
    }

    impl RandomAccessFile for CountingFile {
        fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
            let start = (offset as usize).min(self.data.len());
            let end = (start + len).min(self.data.len());
            Ok(Bytes::copy_from_slice(&self.data[start..end]))
        }

        fn len(&self) -> EnvResult<u64> {
            Ok(self.data.len() as u64)
        }

        fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
            self.batch_sizes.lock().unwrap().push(requests.len());
            requests.iter().map(|r| self.read_at(r.offset, r.len)).collect()
        }
    }

    #[test]
    fn default_read_at_many_matches_sequential_reads() {
        struct Plain(Vec<u8>);
        impl RandomAccessFile for Plain {
            fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
                let start = (offset as usize).min(self.0.len());
                let end = (start + len).min(self.0.len());
                Ok(Bytes::copy_from_slice(&self.0[start..end]))
            }
            fn len(&self) -> EnvResult<u64> {
                Ok(self.0.len() as u64)
            }
        }
        let f = Plain((0u8..200).collect());
        let reqs =
            [ReadRequest { offset: 0, len: 4 }, ReadRequest { offset: 10, len: 3 }, ReadRequest {
                offset: 198,
                len: 10,
            }];
        let batch = f.read_at_many(&reqs);
        assert_eq!(batch.len(), 3);
        for (r, req) in batch.iter().zip(reqs.iter()) {
            assert_eq!(r.as_ref().unwrap(), &f.read_at(req.offset, req.len).unwrap());
        }
        // Short read at EOF, not an error.
        assert_eq!(batch[2].as_ref().unwrap().len(), 2);
    }

    #[test]
    fn submit_window_is_one_batch_and_tracks_inflight_peak() {
        let f = CountingFile {
            data: (0u8..255).collect(),
            batch_sizes: std::sync::Mutex::new(Vec::new()),
        };
        let reqs: Vec<ReadRequest> =
            (0..4).map(|i| ReadRequest { offset: i * 8, len: 8 }).collect();
        let out = submit_window(&f, &reqs);
        assert_eq!(out.len(), 4);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().as_ref(), &f.data[i * 8..i * 8 + 8]);
        }
        assert_eq!(*f.batch_sizes.lock().unwrap(), vec![4]);
        assert!(inflight_reads_peak() >= 4, "peak gauge must see the full window");
        assert_eq!(INFLIGHT_READS.load(Ordering::Relaxed), 0, "gauge must drain after the window");
    }
}
