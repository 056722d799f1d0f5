//! Thread-local, zero-allocation per-operation timing breakdown
//! (RocksDB-style `PerfContext`).
//!
//! The context is a `Copy` struct held in a `thread_local!` `Cell`, so
//! enabling, recording, and reading never allocate. Collection is off by
//! default; the disabled fast path of every instrumentation point is one
//! thread-local read plus a branch ([`timer`] returns `None`), which the
//! obs-smoke bench gates at <2% of a 4 KiB encrypt.
//!
//! Usage:
//!
//! ```
//! use shield_core::perf::{self, PerfMetric};
//!
//! let guard = perf::PerfGuard::enable();
//! let t = perf::timer();           // Some(Instant) only while enabled
//! // ... do the work ...
//! perf::add_elapsed(PerfMetric::BlockRead, t);
//! let ctx = perf::take();          // the breakdown for this scope
//! drop(guard);                     // restores the previous state
//! assert!(ctx.block_read_nanos > 0);
//! ```

use std::cell::Cell;
use std::time::Instant;

/// Per-operation timing and count breakdown. All times in nanoseconds.
///
/// The timed sections are chosen to be non-overlapping on the read path
/// (`block_read` is measured at the raw-file leaf, *below* the decrypt
/// wrapper; `block_decrypt` covers only the in-place keystream XOR;
/// `dek_resolve` only the KDS round-trip), so on a get the sum of
/// components is ≤ the operation's wall time. On the write path
/// `block_encrypt` nests inside `wal_append` when WAL encryption is on,
/// and `dek_wait` contains the `dek_resolve` of a key generated inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfContext {
    /// Time appending (and buffering) WAL records, including encryption.
    pub wal_append_nanos: u64,
    /// Time in WAL fsync/fdatasync.
    pub wal_sync_nanos: u64,
    /// Time inserting the write batch into the memtable.
    pub memtable_insert_nanos: u64,
    /// Time probing active + immutable memtables on the read path.
    pub memtable_lookup_nanos: u64,
    /// Time in raw file reads (below any encryption wrapper).
    pub block_read_nanos: u64,
    /// Time decrypting file payloads (keystream XOR only).
    pub block_decrypt_nanos: u64,
    /// Time encrypting file payloads.
    pub block_encrypt_nanos: u64,
    /// Time resolving DEKs through the KDS resolver (cache misses).
    pub dek_resolve_nanos: u64,
    /// Time probing the block cache.
    pub cache_lookup_nanos: u64,
    /// Time merging one compaction subrange (read + merge + write).
    pub subcompaction_nanos: u64,
    /// Time waiting on in-flight `read_at_many` batch submissions
    /// (the `read_batch` span of the batched read path).
    pub io_batch_wait_nanos: u64,
    /// Data/index/filter blocks read from files.
    pub blocks_read: u64,
    /// Bloom filter probes issued.
    pub bloom_probes: u64,
    /// Cipher contexts initialised (key schedule + nonce derivation).
    pub cipher_inits: u64,
    /// Block-cache misses that waited on another thread's in-flight read
    /// instead of issuing their own (single-flight coalescing).
    pub singleflight_waits: u64,
    /// Time a file creation waited for its DEK: ≈ 0 when a ready key was
    /// queued, the KDS round trip (also charged to `dek_resolve_nanos`)
    /// when it had to be generated inline. Not part of
    /// [`timed_nanos`](Self::timed_nanos) for that reason.
    pub dek_wait_nanos: u64,
    /// Time creating a persistent file on storage (and writing its
    /// encryption header), after its key was in hand.
    pub file_create_nanos: u64,
    /// Time syncing a MANIFEST edit.
    pub manifest_sync_nanos: u64,
}

impl PerfContext {
    pub const ZERO: PerfContext = PerfContext {
        wal_append_nanos: 0,
        wal_sync_nanos: 0,
        memtable_insert_nanos: 0,
        memtable_lookup_nanos: 0,
        block_read_nanos: 0,
        block_decrypt_nanos: 0,
        block_encrypt_nanos: 0,
        dek_resolve_nanos: 0,
        cache_lookup_nanos: 0,
        subcompaction_nanos: 0,
        io_batch_wait_nanos: 0,
        blocks_read: 0,
        bloom_probes: 0,
        cipher_inits: 0,
        singleflight_waits: 0,
        dek_wait_nanos: 0,
        file_create_nanos: 0,
        manifest_sync_nanos: 0,
    };

    /// Sum of all timed components, in nanoseconds.
    pub fn timed_nanos(&self) -> u64 {
        self.wal_append_nanos
            + self.wal_sync_nanos
            + self.memtable_insert_nanos
            + self.memtable_lookup_nanos
            + self.block_read_nanos
            + self.block_decrypt_nanos
            + self.block_encrypt_nanos
            + self.dek_resolve_nanos
            + self.cache_lookup_nanos
            + self.subcompaction_nanos
            + self.io_batch_wait_nanos
            + self.file_create_nanos
            + self.manifest_sync_nanos
    }

    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Field (name, value) pairs, for rendering: times, then counts, then
    /// the file-creation times (appended, so the positions readers of the
    /// first fifteen rely on did not move).
    pub fn fields(&self) -> [(&'static str, u64); 18] {
        [
            ("wal_append_nanos", self.wal_append_nanos),
            ("wal_sync_nanos", self.wal_sync_nanos),
            ("memtable_insert_nanos", self.memtable_insert_nanos),
            ("memtable_lookup_nanos", self.memtable_lookup_nanos),
            ("block_read_nanos", self.block_read_nanos),
            ("block_decrypt_nanos", self.block_decrypt_nanos),
            ("block_encrypt_nanos", self.block_encrypt_nanos),
            ("dek_resolve_nanos", self.dek_resolve_nanos),
            ("cache_lookup_nanos", self.cache_lookup_nanos),
            ("subcompaction_nanos", self.subcompaction_nanos),
            ("io_batch_wait_nanos", self.io_batch_wait_nanos),
            ("blocks_read", self.blocks_read),
            ("bloom_probes", self.bloom_probes),
            ("cipher_inits", self.cipher_inits),
            ("singleflight_waits", self.singleflight_waits),
            ("dek_wait_nanos", self.dek_wait_nanos),
            ("file_create_nanos", self.file_create_nanos),
            ("manifest_sync_nanos", self.manifest_sync_nanos),
        ]
    }
}

/// Timed sections of [`PerfContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfMetric {
    WalAppend,
    WalSync,
    MemtableInsert,
    MemtableLookup,
    BlockRead,
    BlockDecrypt,
    BlockEncrypt,
    DekResolve,
    CacheLookup,
    Subcompaction,
    IoBatchWait,
    DekWait,
    FileCreate,
    ManifestSync,
}

/// Counted events of [`PerfContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfCounter {
    BlocksRead,
    BloomProbes,
    CipherInits,
    SingleflightWaits,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CTX: Cell<PerfContext> = const { Cell::new(PerfContext::ZERO) };
}

/// Is collection enabled on this thread?
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Start a timer — `Some(Instant)` only while collection is enabled.
///
/// This is the instrumentation fast path: when disabled it is a single
/// thread-local read and a branch, no clock read.
#[inline]
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Charge the time since `started` (from [`timer`]) to `metric`.
#[inline]
pub fn add_elapsed(metric: PerfMetric, started: Option<Instant>) {
    if let Some(t0) = started {
        add_nanos(metric, t0.elapsed().as_nanos() as u64);
    }
}

/// Charge `ns` nanoseconds to `metric`. No-op while disabled.
pub fn add_nanos(metric: PerfMetric, ns: u64) {
    if !enabled() {
        return;
    }
    CTX.with(|c| {
        let mut ctx = c.get();
        let slot = match metric {
            PerfMetric::WalAppend => &mut ctx.wal_append_nanos,
            PerfMetric::WalSync => &mut ctx.wal_sync_nanos,
            PerfMetric::MemtableInsert => &mut ctx.memtable_insert_nanos,
            PerfMetric::MemtableLookup => &mut ctx.memtable_lookup_nanos,
            PerfMetric::BlockRead => &mut ctx.block_read_nanos,
            PerfMetric::BlockDecrypt => &mut ctx.block_decrypt_nanos,
            PerfMetric::BlockEncrypt => &mut ctx.block_encrypt_nanos,
            PerfMetric::DekResolve => &mut ctx.dek_resolve_nanos,
            PerfMetric::CacheLookup => &mut ctx.cache_lookup_nanos,
            PerfMetric::Subcompaction => &mut ctx.subcompaction_nanos,
            PerfMetric::IoBatchWait => &mut ctx.io_batch_wait_nanos,
            PerfMetric::DekWait => &mut ctx.dek_wait_nanos,
            PerfMetric::FileCreate => &mut ctx.file_create_nanos,
            PerfMetric::ManifestSync => &mut ctx.manifest_sync_nanos,
        };
        *slot = slot.saturating_add(ns);
        c.set(ctx);
    });
}

/// Bump a count by `n`. No-op while disabled.
#[inline]
pub fn incr(counter: PerfCounter, n: u64) {
    if !enabled() {
        return;
    }
    CTX.with(|c| {
        let mut ctx = c.get();
        match counter {
            PerfCounter::BlocksRead => ctx.blocks_read += n,
            PerfCounter::BloomProbes => ctx.bloom_probes += n,
            PerfCounter::CipherInits => ctx.cipher_inits += n,
            PerfCounter::SingleflightWaits => ctx.singleflight_waits += n,
        }
        c.set(ctx);
    });
}

/// The context accumulated so far on this thread.
pub fn current() -> PerfContext {
    CTX.with(Cell::get)
}

/// Read and reset the context accumulated so far on this thread.
pub fn take() -> PerfContext {
    CTX.with(|c| c.replace(PerfContext::ZERO))
}

/// RAII scope that enables collection on this thread and restores the
/// previous (enabled, context) pair on drop, so scopes nest correctly.
pub struct PerfGuard {
    prev_enabled: bool,
    prev_ctx: PerfContext,
}

impl PerfGuard {
    pub fn enable() -> PerfGuard {
        let prev_enabled = ENABLED.with(|e| e.replace(true));
        let prev_ctx = CTX.with(|c| c.replace(PerfContext::ZERO));
        PerfGuard { prev_enabled, prev_ctx }
    }
}

impl Drop for PerfGuard {
    fn drop(&mut self) {
        ENABLED.with(|e| e.set(self.prev_enabled));
        CTX.with(|c| c.set(self.prev_ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        assert!(!enabled());
        assert!(timer().is_none());
        add_nanos(PerfMetric::BlockRead, 100);
        incr(PerfCounter::BlocksRead, 1);
        assert!(current().is_zero());
    }

    #[test]
    fn guard_enables_and_restores() {
        {
            let _g = PerfGuard::enable();
            assert!(enabled());
            let t = timer();
            assert!(t.is_some());
            add_elapsed(PerfMetric::WalSync, t);
            add_nanos(PerfMetric::BlockDecrypt, 42);
            incr(PerfCounter::CipherInits, 2);
            let ctx = current();
            assert_eq!(ctx.block_decrypt_nanos, 42);
            assert_eq!(ctx.cipher_inits, 2);
            assert!(ctx.timed_nanos() >= 42);
        }
        assert!(!enabled());
        assert!(current().is_zero());
    }

    #[test]
    fn guards_nest() {
        let _outer = PerfGuard::enable();
        add_nanos(PerfMetric::BlockRead, 10);
        {
            let _inner = PerfGuard::enable();
            add_nanos(PerfMetric::BlockRead, 5);
            assert_eq!(current().block_read_nanos, 5);
        }
        // Inner scope restored the outer accumulation.
        assert_eq!(current().block_read_nanos, 10);
    }

    #[test]
    fn take_resets() {
        let _g = PerfGuard::enable();
        add_nanos(PerfMetric::CacheLookup, 7);
        let ctx = take();
        assert_eq!(ctx.cache_lookup_nanos, 7);
        assert!(current().is_zero());
    }
}
