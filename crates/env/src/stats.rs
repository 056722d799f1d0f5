//! I/O accounting, feeding the paper's Table 3 (read/write GiB per server,
//! operation, and file type).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield_core::Striped;

use crate::FileKind;

/// One stripe of an [`IoStats`]: every counter, once (128 bytes).
#[derive(Default)]
struct IoCounters {
    read_bytes: [AtomicU64; 4],
    written_bytes: [AtomicU64; 4],
    read_ops: [AtomicU64; 4],
    write_ops: [AtomicU64; 4],
}

/// Thread-safe read/write byte counters, broken down by [`FileKind`].
///
/// One `IoStats` instance represents one "node" (e.g. the compute server's
/// view of local storage, or the storage server's view of HDFS). Multiple
/// envs may share an instance. Every block read records here, so the
/// counters are striped per thread ([`Striped`]) and a snapshot sums the
/// stripes.
#[derive(Default)]
pub struct IoStats {
    stripes: Striped<IoCounters>,
}

impl IoStats {
    /// Creates a zeroed counter set.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records `n` bytes read from a file of `kind`.
    pub fn record_read(&self, kind: FileKind, n: u64) {
        let s = self.stripes.local();
        s.read_bytes[kind.index()].fetch_add(n, Ordering::Relaxed);
        s.read_ops[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` bytes written to a file of `kind`.
    pub fn record_write(&self, kind: FileKind, n: u64) {
        let s = self.stripes.local();
        s.written_bytes[kind.index()].fetch_add(n, Ordering::Relaxed);
        s.write_ops[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    #[must_use]
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let mut out = IoStatsSnapshot::default();
        for s in self.stripes.all() {
            for i in 0..4 {
                out.read_bytes[i] += s.read_bytes[i].load(Ordering::Relaxed);
                out.written_bytes[i] += s.written_bytes[i].load(Ordering::Relaxed);
                out.read_ops[i] += s.read_ops[i].load(Ordering::Relaxed);
                out.write_ops[i] += s.write_ops[i].load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        for s in self.stripes.all() {
            for i in 0..4 {
                s.read_bytes[i].store(0, Ordering::Relaxed);
                s.written_bytes[i].store(0, Ordering::Relaxed);
                s.read_ops[i].store(0, Ordering::Relaxed);
                s.write_ops[i].store(0, Ordering::Relaxed);
            }
        }
    }
}

/// A point-in-time copy of an [`IoStats`].
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Bytes read, indexed by [`FileKind::index`].
    pub read_bytes: [u64; 4],
    /// Bytes written, indexed by [`FileKind::index`].
    pub written_bytes: [u64; 4],
    /// Read operations, indexed by [`FileKind::index`].
    pub read_ops: [u64; 4],
    /// Write operations, indexed by [`FileKind::index`].
    pub write_ops: [u64; 4],
}

impl IoStatsSnapshot {
    /// Total bytes read across all file kinds.
    #[must_use]
    pub fn total_read(&self) -> u64 {
        self.read_bytes.iter().sum()
    }

    /// Total bytes written across all file kinds.
    #[must_use]
    pub fn total_written(&self) -> u64 {
        self.written_bytes.iter().sum()
    }

    /// Bytes read for one kind.
    #[must_use]
    pub fn read_for(&self, kind: FileKind) -> u64 {
        self.read_bytes[kind.index()]
    }

    /// Bytes written for one kind.
    #[must_use]
    pub fn written_for(&self, kind: FileKind) -> u64 {
        self.written_bytes[kind.index()]
    }

    /// Difference `self - earlier`, saturating at zero.
    #[must_use]
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        let mut out = IoStatsSnapshot::default();
        for i in 0..4 {
            out.read_bytes[i] = self.read_bytes[i].saturating_sub(earlier.read_bytes[i]);
            out.written_bytes[i] = self.written_bytes[i].saturating_sub(earlier.written_bytes[i]);
            out.read_ops[i] = self.read_ops[i].saturating_sub(earlier.read_ops[i]);
            out.write_ops[i] = self.write_ops[i].saturating_sub(earlier.write_ops[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = IoStats::new();
        s.record_read(FileKind::Sst, 100);
        s.record_read(FileKind::Sst, 50);
        s.record_write(FileKind::Wal, 10);
        let snap = s.snapshot();
        assert_eq!(snap.read_for(FileKind::Sst), 150);
        assert_eq!(snap.written_for(FileKind::Wal), 10);
        assert_eq!(snap.total_read(), 150);
        assert_eq!(snap.total_written(), 10);
        assert_eq!(snap.read_ops[FileKind::Sst.index()], 2);
    }

    #[test]
    fn delta_and_reset() {
        let s = IoStats::new();
        s.record_write(FileKind::Sst, 5);
        let a = s.snapshot();
        s.record_write(FileKind::Sst, 7);
        let b = s.snapshot();
        assert_eq!(b.delta_since(&a).written_for(FileKind::Sst), 7);
        s.reset();
        assert_eq!(s.snapshot().total_written(), 0);
    }
}
