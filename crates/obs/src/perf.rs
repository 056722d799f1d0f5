//! Thread-local, zero-allocation per-operation timing breakdown
//! (RocksDB-style `PerfContext`), and the [`Section`] guards that fill it.
//!
//! A timed site holds the guard [`Section::enter`] returns for the scope
//! it times. From one pair of clock reads the guard charges the section's
//! [`PerfContext`] field (if it has one and this thread collects a
//! breakdown) and records its span (if a traced op is active on this
//! thread, see [`crate::trace`]). With both off — the default — entering
//! is one thread-local read and a branch, and the guard is inert.
//!
//! ```
//! use shield_core::{perf, PerfGuard, Section};
//!
//! let guard = PerfGuard::enable();
//! {
//!     let _t = Section::BlockRead.enter(); // times this scope
//! }
//! let ctx = perf::take(); // the breakdown for this scope
//! drop(guard); // restores the previous state
//! assert!(ctx.block_read_nanos > 0);
//! ```

use std::cell::Cell;
use std::time::Instant;

use crate::trace::{self, SpanInner};

/// Per-operation timing and count breakdown. All times in nanoseconds,
/// each charged by the one [`Section`] its doc names.
///
/// On the read path the timed sections do not overlap (`block_read` is
/// the raw-file leaf; `block_decrypt` only the pass over a block's own
/// buffer; `dek_resolve` only the KDS resolver), so on a get their sum is
/// ≤ the operation's wall time. On the write path `block_encrypt` nests
/// inside `wal_append` when WAL encryption is on, and `dek_wait` contains
/// the `dek_resolve` of a key generated inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfContext {
    /// [`Section::WalAppend`].
    pub wal_append_nanos: u64,
    /// [`Section::WalSync`].
    pub wal_sync_nanos: u64,
    /// [`Section::MemtableInsert`].
    pub memtable_insert_nanos: u64,
    /// [`Section::MemtableLookup`].
    pub memtable_lookup_nanos: u64,
    /// [`Section::BlockRead`].
    pub block_read_nanos: u64,
    /// [`Section::BlockDecrypt`].
    pub block_decrypt_nanos: u64,
    /// [`Section::BlockEncrypt`].
    pub block_encrypt_nanos: u64,
    /// [`Section::DekResolve`].
    pub dek_resolve_nanos: u64,
    /// [`Section::CacheLookup`].
    pub cache_lookup_nanos: u64,
    /// [`Section::Subcompaction`].
    pub subcompaction_nanos: u64,
    /// [`Section::IoBatchWait`] (the `read_window` span).
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
    /// [`Section::DekWait`]; not part of [`timed_nanos`](Self::timed_nanos),
    /// since a key generated inline is also `dek_resolve_nanos`.
    pub dek_wait_nanos: u64,
    /// [`Section::FileCreate`].
    pub file_create_nanos: u64,
    /// [`Section::ManifestSync`].
    pub manifest_sync_nanos: u64,
    /// Memtable versions a get walked past because they were newer than
    /// its read sequence.
    pub memtable_versions_walked: u64,
}

/// Declares [`PerfContext::ZERO`] and [`PerfContext::fields`] from one
/// list of the fields, in `fields()` order.
macro_rules! field_list {
    ($($field:ident),* $(,)?) => {
        pub const ZERO: PerfContext = PerfContext { $($field: 0),* };

        /// Field (name, value) pairs, for rendering: times, then counts,
        /// then the file-creation times and the memtable walk count
        /// (appended, so the positions readers of the first fifteen rely
        /// on did not move).
        pub fn fields(&self) -> [(&'static str, u64); 19] {
            [$((stringify!($field), self.$field)),*]
        }
    };
}

impl PerfContext {
    field_list! {
        wal_append_nanos, wal_sync_nanos, memtable_insert_nanos, memtable_lookup_nanos,
        block_read_nanos, block_decrypt_nanos, block_encrypt_nanos, dek_resolve_nanos,
        cache_lookup_nanos, subcompaction_nanos, io_batch_wait_nanos, blocks_read, bloom_probes,
        cipher_inits, singleflight_waits, dek_wait_nanos, file_create_nanos, manifest_sync_nanos,
        memtable_versions_walked,
    }

    /// Sum of the timed components, in nanoseconds: every section's
    /// field but `dek_wait_nanos`, which contains the `dek_resolve_nanos`
    /// of a key generated inline.
    pub fn timed_nanos(&self) -> u64 {
        let mut ctx = *self;
        Section::ALL
            .iter()
            .filter(|&&s| s != Section::DekWait)
            .filter_map(|s| s.slot(&mut ctx).map(|v| *v))
            .sum()
    }

    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

/// Counted events of [`PerfContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfCounter {
    BlocksRead,
    BloomProbes,
    CipherInits,
    SingleflightWaits,
    MemtableVersionsWalked,
}

/// Bit of the flags cell: this thread collects a [`PerfContext`].
const PERF: u8 = 1;
/// Bit of the flags cell: a traced op is active on this thread.
pub(crate) const TRACE: u8 = 2;

thread_local! {
    /// Which instruments are on for this thread, one cell for both.
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static CTX: Cell<PerfContext> = const { Cell::new(PerfContext::ZERO) };
}

/// The instruments on for this thread.
#[inline]
pub(crate) fn flags() -> u8 {
    FLAGS.with(Cell::get)
}

/// Turns `flag` on or off for this thread; returns whether it was on.
pub(crate) fn set_flag(flag: u8, on: bool) -> bool {
    FLAGS.with(|f| {
        let prev = f.get();
        f.set(if on { prev | flag } else { prev & !flag });
        prev & flag != 0
    })
}

/// Is collection enabled on this thread?
#[inline]
pub fn enabled() -> bool {
    flags() & PERF != 0
}

/// Charges `nanos` to `section`'s field, if it has one.
pub(crate) fn charge(section: Section, nanos: u64) {
    CTX.with(|c| {
        let mut ctx = c.get();
        if let Some(slot) = section.slot(&mut ctx) {
            *slot = slot.saturating_add(nanos);
            c.set(ctx);
        }
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
            PerfCounter::MemtableVersionsWalked => ctx.memtable_versions_walked += n,
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
        let prev_enabled = set_flag(PERF, true);
        let prev_ctx = CTX.with(|c| c.replace(PerfContext::ZERO));
        PerfGuard { prev_enabled, prev_ctx }
    }
}

impl Drop for PerfGuard {
    fn drop(&mut self) {
        set_flag(PERF, self.prev_enabled);
        CTX.with(|c| c.set(self.prev_ctx));
    }
}

/// Declares [`Section`] from one table: each row is a variant, its span
/// name and, for a timed `PerfContext` row, the field it charges.
macro_rules! sections {
    (@slot $ctx:ident) => { None };
    (@slot $ctx:ident $field:ident) => { Some(&mut $ctx.$field) };
    ($($(#[doc = $doc:literal])* $section:ident => $name:literal $(, $field:ident)?;)*) => {
        /// A timed section of the engine. See the module docs.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Section {
            $($(#[doc = $doc])* $section,)*
        }

        impl Section {
            /// Every section, in declaration order.
            pub const ALL: &'static [Section] = &[$(Section::$section),*];

            /// The name this section's spans record under.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $(Section::$section => $name,)*
                }
            }

            /// This section's field of `ctx`, if it has one.
            fn slot(self, ctx: &mut PerfContext) -> Option<&mut u64> {
                match self {
                    $(Section::$section => sections!(@slot ctx $($field)?),)*
                }
            }
        }
    };
}

sections! {
    /// Appending (and buffering) WAL records, encryption included.
    WalAppend => "wal_append", wal_append_nanos;
    /// WAL fsync/fdatasync.
    WalSync => "wal_sync", wal_sync_nanos;
    /// Inserting a write group into the memtables.
    MemtableInsert => "memtable_insert", memtable_insert_nanos;
    /// Probing the active and immutable memtables on the read path.
    MemtableLookup => "memtable_lookup", memtable_lookup_nanos;
    /// A raw file read at the env leaf, below any decryption.
    BlockRead => "block_read", block_read_nanos;
    /// Opening a read block (decrypt + authenticate in one pass), or the
    /// keystream XOR of a file read through a decrypting wrapper.
    BlockDecrypt => "block_decrypt", block_decrypt_nanos;
    /// Encrypting a file payload.
    BlockEncrypt => "block_encrypt", block_encrypt_nanos;
    /// Generating or resolving a DEK through the KDS resolver.
    DekResolve => "dek_resolve", dek_resolve_nanos;
    /// Probing the block cache.
    CacheLookup => "cache_lookup", cache_lookup_nanos;
    /// Merging one compaction subrange (read + merge + write).
    Subcompaction => "subcompaction", subcompaction_nanos;
    /// Waiting on one window of a batched read (`read_at_many`).
    IoBatchWait => "read_window", io_batch_wait_nanos;
    /// A file creation waiting for its DEK (≈ 0 if a ready key was queued).
    DekWait => "dek_wait", dek_wait_nanos;
    /// Creating a persistent file (and its encryption header).
    FileCreate => "file_create", file_create_nanos;
    /// Syncing a MANIFEST edit.
    ManifestSync => "manifest_sync", manifest_sync_nanos;
    /// One batched block fetch: cache probes, windows, verification.
    FetchBatch => "fetch_batch";
    /// Verifying and admitting one window of a batched read.
    VerifyWindow => "verify_window";
    /// A single-flight leader reading and opening one block.
    ReadBlock => "read_block";
    /// A cache miss waiting on another thread's read of its block.
    SingleflightWait => "singleflight_wait";
    /// A streaming scan reading one span of consecutive blocks.
    ReadSpan => "read_span";
    /// The commit leader writing one write group.
    GroupCommit => "group_commit";
}

impl Section {
    /// Starts timing this section on the calling thread: with neither a
    /// [`PerfContext`] nor a trace collecting here, one thread-local read
    /// and a branch, and the guard is inert.
    #[inline]
    pub fn enter(self) -> SectionGuard {
        if flags() == 0 {
            return SectionGuard { section: self, armed: None };
        }
        SectionGuard::started(self, Instant::now())
    }

    /// Runs `f` as this section.
    #[inline]
    pub fn time<R>(self, f: impl FnOnce() -> R) -> R {
        let _t = self.enter();
        f()
    }

    /// The [`PerfContext`] field this section charges, if any.
    #[must_use]
    pub fn field(self) -> Option<&'static str> {
        let mut probe = PerfContext::ZERO;
        *self.slot(&mut probe)? = 1;
        probe.fields().into_iter().find(|&(_, v)| v == 1).map(|(name, _)| name)
    }
}

/// RAII timer of one [`Section`]; charges and records on drop.
#[must_use = "a section measures the scope its guard is alive for"]
pub struct SectionGuard {
    section: Section,
    armed: Option<Armed>,
}

struct Armed {
    start: Instant,
    span: Option<Box<SpanInner>>,
}

impl SectionGuard {
    /// A guard timing `section` from `start`, which the caller read; it
    /// opens the span if a traced op is active.
    pub(crate) fn started(section: Section, start: Instant) -> SectionGuard {
        let span = if flags() & TRACE != 0 { trace::begin_span(section.name()) } else { None };
        SectionGuard { section, armed: Some(Armed { start, span }) }
    }

    /// Attaches a numeric attribute to the section's span. No-op when no
    /// span is being recorded.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(span) = self.armed.as_mut().and_then(|a| a.span.as_mut()) {
            span.attrs.push((key, value));
        }
    }

    /// Ends the section `nanos` after its start: charges the field (if
    /// the thread still collects a breakdown) and records the span, both
    /// with the same duration. Idempotent.
    pub(crate) fn end(&mut self, nanos: u64) {
        let Some(Armed { start, span }) = self.armed.take() else { return };
        if enabled() {
            charge(self.section, nanos);
        }
        if let Some(span) = span {
            span.end(start, nanos);
        }
    }
}

impl Drop for SectionGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(armed) = &self.armed {
            let nanos = armed.start.elapsed().as_nanos() as u64;
            self.end(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readers outside the workspace (the repo's benchmark) sum
    /// `fields()` by position and look the first fifteen up by index:
    /// their order is fixed, and a new field goes after the last.
    #[test]
    fn first_fifteen_field_names_keep_their_positions() {
        let names: Vec<&str> = PerfContext::ZERO.fields().iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names[..15],
            [
                "wal_append_nanos",
                "wal_sync_nanos",
                "memtable_insert_nanos",
                "memtable_lookup_nanos",
                "block_read_nanos",
                "block_decrypt_nanos",
                "block_encrypt_nanos",
                "dek_resolve_nanos",
                "cache_lookup_nanos",
                "subcompaction_nanos",
                "io_batch_wait_nanos",
                "blocks_read",
                "bloom_probes",
                "cipher_inits",
                "singleflight_waits",
            ]
        );
    }

    /// `timed_nanos` adds every time field but `dek_wait_nanos`, and no
    /// count: each field gets its own bit, so a missed or doubled term
    /// shows in the sum.
    #[test]
    fn timed_nanos_sums_the_counted_sections() {
        let mut ctx = PerfContext::ZERO;
        let mut expected = 0;
        for (bit, &s) in Section::ALL.iter().enumerate() {
            if let Some(slot) = s.slot(&mut ctx) {
                *slot = 1 << bit;
                if s != Section::DekWait {
                    expected += 1 << bit;
                }
            }
        }
        ctx.blocks_read = 1 << 40;
        ctx.bloom_probes = 1 << 41;
        ctx.cipher_inits = 1 << 42;
        ctx.singleflight_waits = 1 << 43;
        ctx.memtable_versions_walked = 1 << 44;
        assert_eq!(ctx.timed_nanos(), expected);
        let by_name: u64 = ctx
            .fields()
            .iter()
            .filter(|(name, _)| name.ends_with("_nanos") && *name != "dek_wait_nanos")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(ctx.timed_nanos(), by_name);
    }

    #[test]
    fn disabled_records_nothing() {
        assert!(!enabled());
        let t = Section::BlockRead.enter();
        drop(t);
        incr(PerfCounter::BlocksRead, 1);
        assert!(current().is_zero());
    }

    #[test]
    fn guard_enables_and_restores() {
        {
            let _g = PerfGuard::enable();
            assert!(enabled());
            drop(Section::WalSync.enter());
            charge(Section::BlockDecrypt, 42);
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
        charge(Section::BlockRead, 10);
        {
            let _inner = PerfGuard::enable();
            charge(Section::BlockRead, 5);
            assert_eq!(current().block_read_nanos, 5);
        }
        // Inner scope restored the outer accumulation.
        assert_eq!(current().block_read_nanos, 10);
    }

    #[test]
    fn take_resets() {
        let _g = PerfGuard::enable();
        charge(Section::CacheLookup, 7);
        let ctx = take();
        assert_eq!(ctx.cache_lookup_nanos, 7);
        assert!(current().is_zero());
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in Section::ALL.iter().enumerate() {
            for b in &Section::ALL[i + 1..] {
                assert_ne!(a.name(), b.name(), "{a:?} and {b:?} share a span name");
            }
        }
    }

    /// Every timed `PerfContext` field is charged by exactly one section,
    /// and every section's field is a real one.
    #[test]
    fn every_timed_field_has_exactly_one_section() {
        let names: Vec<&str> = PerfContext::ZERO.fields().iter().map(|(name, _)| *name).collect();
        for name in names.iter().filter(|n| n.ends_with("_nanos")) {
            let owners = Section::ALL.iter().filter(|s| s.field() == Some(*name)).count();
            assert_eq!(owners, 1, "{name} is charged by {owners} sections");
        }
        for s in Section::ALL {
            if let Some(field) = s.field() {
                assert!(names.contains(&field), "{s:?} names no PerfContext field {field}");
            }
        }
    }

    #[test]
    fn disabled_guard_is_inert() {
        assert_eq!(flags(), 0);
        let mut g = Section::BlockRead.enter();
        g.attr("x", 1);
        assert!(g.armed.is_none());
        drop(g);
        assert!(current().is_zero());
    }

    #[test]
    fn guard_charges_its_field() {
        let _g = PerfGuard::enable();
        {
            let _t = Section::WalSync.enter();
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let ctx = current();
        assert!(ctx.wal_sync_nanos >= 50_000, "{ctx:?}");
        assert_eq!(ctx.timed_nanos(), ctx.wal_sync_nanos);
    }
}
