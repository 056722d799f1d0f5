//! Write-ahead-log record format (the LevelDB/RocksDB block log format).
//!
//! The log is a sequence of 32 KiB blocks; each record carries a masked
//! CRC32C, a length, and a fragment type (full/first/middle/last) so records
//! may span blocks. A torn tail — the normal aftermath of a crash — is
//! detected by checksum/length validation and treated as end-of-log, while
//! corruption in the middle of the file is surfaced to the caller.
//!
//! Encryption is **not** this module's concern: in SHIELD mode the
//! [`crate::encryption`] layer wraps the underlying file, so the log writer
//! produces plaintext records that are encrypted (and, with the WAL buffer,
//! batched) just before persistence — exactly the paper's "encryption right
//! before persistence" placement for WAL writes (§5.2).

use std::sync::Arc;

use shield_core::EventDispatcher;
use shield_crypto::{crc32c, crc32c_extend, crc32c_masked, crc32c_unmask, HmacKey};
use shield_env::{SequentialFile, WritableFile};

use crate::error::{Error, Result};
use crate::integrity::{position_tag, IntegrityCtx, BLOCK_TAG_LEN, CONTEXT_LEN};
use crate::statistics::Statistics;

/// Log block size (32 KiB, as in RocksDB).
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Record header: crc (4) + length (2) + type (1).
pub const HEADER_SIZE: usize = 7;
/// Record header in authenticated logs: the legacy header plus a
/// truncated HMAC tag.
pub const HMAC_HEADER_SIZE: usize = HEADER_SIZE + BLOCK_TAG_LEN;
/// Magic opening an authenticated log's preamble ("SHLDLOG2").
pub const HMAC_LOG_MAGIC: [u8; 8] = *b"SHLDLOG2";
/// Authenticated-log preamble: magic (8) + per-file context (16) +
/// reserved zeros (8). Counted *within* block 0, so block framing on
/// both sides stays 32 KiB-aligned.
pub const LOG_PREAMBLE_LEN: usize = 32;

const FULL: u8 = 1;
const FIRST: u8 = 2;
const MIDDLE: u8 = 3;
const LAST: u8 = 4;

/// Write-side integrity state: the key (expanded once for the file), the
/// file's minted context, and the monotonic fragment counter every tag
/// binds (so replayed, spliced, or reordered records verify against the
/// wrong position and fail).
struct WriterIntegrity {
    key: HmacKey,
    context: [u8; CONTEXT_LEN],
    counter: u64,
}

/// The checksum a record header stores (before masking): CRC32C over
/// `record type ‖ fragment`, computed over the two slices in place.
fn record_crc(record_type: u8, fragment: &[u8]) -> u32 {
    crc32c_extend(crc32c(&[record_type]), fragment)
}

/// Appends length-delimited, checksummed records to a writable file.
pub struct LogWriter {
    dest: Box<dyn WritableFile>,
    block_offset: usize,
    integrity: Option<WriterIntegrity>,
}

impl LogWriter {
    /// Creates a legacy (CRC-only) writer positioned at the start of
    /// `dest`.
    #[must_use]
    pub fn new(dest: Box<dyn WritableFile>) -> Self {
        LogWriter { dest, block_offset: 0, integrity: None }
    }

    /// Creates a writer at the start of `dest`; with `Some(mac_key)` the
    /// log is authenticated: a preamble with a fresh random context opens
    /// the file and every record header carries an HMAC tag.
    pub fn with_integrity(
        dest: Box<dyn WritableFile>,
        mac_key: Option<[u8; 32]>,
    ) -> Result<Self> {
        let Some(key) = mac_key else { return Ok(Self::new(dest)) };
        let mut context = [0u8; CONTEXT_LEN];
        shield_crypto::secure_random(&mut context);
        let mut writer = LogWriter {
            dest,
            block_offset: LOG_PREAMBLE_LEN,
            integrity: Some(WriterIntegrity { key: HmacKey::new(&key), context, counter: 0 }),
        };
        let mut preamble = [0u8; LOG_PREAMBLE_LEN];
        preamble[..8].copy_from_slice(&HMAC_LOG_MAGIC);
        preamble[8..8 + CONTEXT_LEN].copy_from_slice(&context);
        writer.dest.append(&preamble)?;
        Ok(writer)
    }

    /// True if this writer produces an authenticated log.
    #[must_use]
    pub fn is_hmac(&self) -> bool {
        self.integrity.is_some()
    }

    fn header_size(&self) -> usize {
        if self.integrity.is_some() { HMAC_HEADER_SIZE } else { HEADER_SIZE }
    }

    /// Appends one record (atomically recoverable as a unit).
    pub fn add_record(&mut self, payload: &[u8]) -> Result<()> {
        // PerfContext wal_append covers fragmenting + buffering (and, in
        // SHIELD mode, the encryption wrapper's work inside `append`).
        let t = shield_core::perf::timer();
        let mut span = shield_core::trace::span("wal_append");
        span.attr("bytes", payload.len() as u64);
        let result = self.add_record_inner(payload);
        drop(span);
        shield_core::perf::add_elapsed(shield_core::PerfMetric::WalAppend, t);
        result
    }

    fn add_record_inner(&mut self, payload: &[u8]) -> Result<()> {
        let header_size = self.header_size();
        let mut left = payload;
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < header_size {
                // Pad the block tail with zeros and start a new block.
                if leftover > 0 {
                    self.dest.append(&[0u8; HMAC_HEADER_SIZE - 1][..leftover])?;
                }
                self.block_offset = 0;
            }
            let available = BLOCK_SIZE - self.block_offset - header_size;
            let fragment_len = left.len().min(available);
            let end = fragment_len == left.len();
            let record_type = match (begin, end) {
                (true, true) => FULL,
                (true, false) => FIRST,
                (false, true) => LAST,
                (false, false) => MIDDLE,
            };
            self.emit(record_type, &left[..fragment_len])?;
            left = &left[fragment_len..];
            begin = false;
            if end {
                break;
            }
        }
        Ok(())
    }

    fn emit(&mut self, record_type: u8, fragment: &[u8]) -> Result<()> {
        debug_assert!(fragment.len() <= 0xffff);
        let mut header = [0u8; HEADER_SIZE];
        let crc = crc32c_masked(record_crc(record_type, fragment));
        header[..4].copy_from_slice(&crc.to_le_bytes());
        header[4..6].copy_from_slice(&(fragment.len() as u16).to_le_bytes());
        header[6] = record_type;
        self.dest.append(&header)?;
        if let Some(integrity) = &mut self.integrity {
            let tag = position_tag(
                &integrity.key,
                &integrity.context,
                integrity.counter,
                record_type,
                fragment,
            );
            integrity.counter += 1;
            self.dest.append(&tag)?;
        }
        self.dest.append(fragment)?;
        self.block_offset += self.header_size() + fragment.len();
        Ok(())
    }

    /// Flushes buffered bytes towards the OS.
    pub fn flush(&mut self) -> Result<()> {
        let t = shield_core::perf::timer();
        let result = self.dest.flush();
        shield_core::perf::add_elapsed(shield_core::PerfMetric::WalAppend, t);
        result?;
        Ok(())
    }

    /// Makes the log durable.
    pub fn sync(&mut self) -> Result<()> {
        let t = shield_core::perf::timer();
        let span = shield_core::trace::span("wal_sync");
        let result = self.dest.sync();
        drop(span);
        shield_core::perf::add_elapsed(shield_core::PerfMetric::WalSync, t);
        result?;
        Ok(())
    }

    /// Logical bytes written so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.dest.len()
    }

    /// True if no records have been written (an authenticated log's
    /// preamble alone does not count).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let floor = if self.integrity.is_some() { LOG_PREAMBLE_LEN as u64 } else { 0 };
        self.len() <= floor
    }
}

/// Log format, detected from the first block's bytes.
enum ReaderMode {
    /// Nothing read yet.
    Unknown,
    /// Classic CRC-only log.
    Legacy,
    /// Authenticated log: preamble seen, every fragment's tag verified
    /// against the monotonic counter.
    Hmac { ctx: IntegrityCtx, counter: u64 },
}

/// Outcome of one [`WalTailer::poll`].
#[derive(Debug)]
pub enum TailPoll {
    /// The next complete record.
    Record(Vec<u8>),
    /// No complete record is available *yet*. Nothing was consumed:
    /// polling again after the file grew resumes from the exact same
    /// byte/fragment position.
    Pending(TailEnd),
}

/// Why a poll came up empty. On a finite (no-longer-growing) log every
/// variant means end-of-log; on a live tail they distinguish a clean
/// record boundary from an append caught in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailEnd {
    /// The log ends exactly at a record boundary — clean end so far.
    Clean,
    /// The tail holds a partial header/fragment/preamble: an append the
    /// writer has not finished, or a torn write if the writer is dead.
    Incomplete,
    /// Fragments end cleanly but a FIRST..MIDDLE prefix is still
    /// waiting for its LAST fragment.
    MidRecord,
}

/// One parsed fragment, or the reason none is available.
enum FragmentPoll {
    Fragment(u8, Vec<u8>),
    Pending(TailEnd),
}

/// Resumable reader over a possibly-still-growing log: the incremental
/// replay engine under both one-shot recovery ([`LogReader`]) and live
/// replica catch-up.
///
/// The tailer remembers its byte/fragment position between polls and
/// classifies what it finds at the tail by one invariant: **fragments
/// never span blocks, so any incomplete structure inside a *full* 32 KiB
/// block is real corruption, while the same structure in a partial final
/// block is simply bytes the writer has not finished publishing** (the
/// normal look of a live tail, and of a torn tail after a crash). The
/// first case is an error; the second is [`TailPoll::Pending`] and is
/// retried from the same offset on the next poll.
///
/// Authenticated (`SHLDLOG2`) logs keep their monotonic fragment counter
/// across polls, so a tailed record stream rejects replayed, reordered,
/// and spliced records exactly like a one-shot read.
pub struct WalTailer {
    src: Box<dyn SequentialFile>,
    block: Vec<u8>,
    /// Published bytes of the current block (grows across polls until
    /// the block is full).
    block_len: usize,
    /// Parse cursor within the current block.
    pos: usize,
    /// Bytes of all fully-consumed earlier blocks.
    blocks_consumed: u64,
    /// Sticky structural failure: once the stream is corrupt or forged
    /// it stays unreadable (transient I/O errors are not sticky).
    poisoned: Option<Error>,
    /// MAC key for authenticated logs (engine key or DEK subkey).
    key: Option<[u8; 32]>,
    mode: ReaderMode,
    /// FIRST..MIDDLE prefix of a record whose LAST has not arrived.
    partial: Option<Vec<u8>>,
    fragments: u64,
    records: u64,
    /// Observability identity/sinks for violation reporting.
    file_number: u64,
    stats: Option<Arc<Statistics>>,
    events: Option<Arc<EventDispatcher>>,
}

impl WalTailer {
    /// Creates a legacy tailer over `src`; authenticated logs are
    /// rejected (no key to verify them with).
    #[must_use]
    pub fn new(src: Box<dyn SequentialFile>) -> Self {
        Self::with_integrity(src, None)
    }

    /// Creates a tailer that auto-detects the log format: a `SHLDLOG2`
    /// preamble switches on per-record tag verification with `key`.
    #[must_use]
    pub fn with_integrity(src: Box<dyn SequentialFile>, key: Option<[u8; 32]>) -> Self {
        WalTailer {
            src,
            block: vec![0u8; BLOCK_SIZE],
            block_len: 0,
            pos: 0,
            blocks_consumed: 0,
            poisoned: None,
            key,
            mode: ReaderMode::Unknown,
            partial: None,
            fragments: 0,
            records: 0,
            file_number: 0,
            stats: None,
            events: None,
        }
    }

    /// Attaches the file number and observability sinks used when a
    /// violation is reported. Must be called before the first poll.
    #[must_use]
    pub fn with_sinks(
        mut self,
        file_number: u64,
        stats: Option<Arc<Statistics>>,
        events: Option<Arc<EventDispatcher>>,
    ) -> Self {
        self.file_number = file_number;
        self.stats = stats;
        self.events = events;
        self
    }

    /// True once the log was identified as authenticated.
    #[must_use]
    pub fn is_hmac(&self) -> bool {
        matches!(self.mode, ReaderMode::Hmac { .. })
    }

    /// True once the log was identified as a legacy (CRC-only) log.
    #[must_use]
    pub fn is_legacy(&self) -> bool {
        matches!(self.mode, ReaderMode::Legacy)
    }

    /// Byte offset of the parse cursor (consumed blocks + position in
    /// the current block).
    #[must_use]
    pub fn consumed_bytes(&self) -> u64 {
        self.blocks_consumed + self.pos as u64
    }

    /// Fragments verified and consumed so far.
    #[must_use]
    pub fn fragments(&self) -> u64 {
        self.fragments
    }

    /// Complete records returned so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Commits an undetected format to legacy. A finite log that never
    /// produced its first 8 bytes cannot turn authenticated later; a
    /// live tail must *not* call this while the file may still grow.
    pub fn assume_legacy(&mut self) {
        if matches!(self.mode, ReaderMode::Unknown) {
            self.mode = ReaderMode::Legacy;
        }
    }

    /// Pulls the next record from the log, or reports why none is
    /// available. Corruption inside full blocks and authentication
    /// failures are errors (and sticky); anything short at a partial
    /// final block is `Pending` and retried on the next poll.
    pub fn poll(&mut self) -> Result<TailPoll> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        match self.poll_inner() {
            Ok(poll) => Ok(poll),
            Err(e) => {
                if matches!(e, Error::Corruption(_) | Error::IntegrityViolation(_)) {
                    self.poisoned = Some(e.clone());
                }
                Err(e)
            }
        }
    }

    fn poll_inner(&mut self) -> Result<TailPoll> {
        loop {
            let (record_type, fragment) = match self.next_fragment()? {
                FragmentPoll::Fragment(t, f) => (t, f),
                FragmentPoll::Pending(end) => {
                    let end = if end == TailEnd::Clean && self.partial.is_some() {
                        TailEnd::MidRecord
                    } else {
                        end
                    };
                    return Ok(TailPoll::Pending(end));
                }
            };
            self.fragments += 1;
            match record_type {
                FULL => {
                    if self.partial.is_some() {
                        return Err(self.fail("FULL record inside fragmented record"));
                    }
                    self.records += 1;
                    return Ok(TailPoll::Record(fragment));
                }
                FIRST => {
                    if self.partial.is_some() {
                        return Err(self.fail("FIRST record inside fragmented record"));
                    }
                    self.partial = Some(fragment);
                }
                MIDDLE => match self.partial.as_mut() {
                    Some(buf) => buf.extend_from_slice(&fragment),
                    None => return Err(self.fail("MIDDLE record without FIRST")),
                },
                LAST => match self.partial.take() {
                    Some(mut buf) => {
                        buf.extend_from_slice(&fragment);
                        self.records += 1;
                        return Ok(TailPoll::Record(buf));
                    }
                    None => return Err(self.fail("LAST record without FIRST")),
                },
                other => return Err(self.fail(&format!("unknown record type {other}"))),
            }
        }
    }

    fn fail(&mut self, msg: &str) -> Error {
        Error::Corruption(format!("log corruption: {msg}"))
    }

    /// Reads any newly-published bytes into the current block.
    fn fill_block(&mut self) -> Result<()> {
        while self.block_len < BLOCK_SIZE {
            let n = self.src.read(&mut self.block[self.block_len..])?;
            if n == 0 {
                break;
            }
            self.block_len += n;
        }
        Ok(())
    }

    /// Drops the current (fully consumed) block and starts the next.
    fn advance_block(&mut self) {
        self.blocks_consumed += self.block_len as u64;
        self.block_len = 0;
        self.pos = 0;
    }

    /// Parses the next fragment at the cursor, filling the block from
    /// the source as needed. The first block also decides the log
    /// format: a `SHLDLOG2` preamble selects authenticated mode
    /// (requiring a key), anything else is legacy.
    fn next_fragment(&mut self) -> Result<FragmentPoll> {
        loop {
            if self.block_len < BLOCK_SIZE {
                self.fill_block()?;
            }
            if matches!(self.mode, ReaderMode::Unknown) {
                if self.block_len < HMAC_LOG_MAGIC.len() {
                    // Too short to classify; a live log may still grow
                    // its preamble/first header.
                    let end = if self.block_len == self.pos {
                        TailEnd::Clean
                    } else {
                        TailEnd::Incomplete
                    };
                    return Ok(FragmentPoll::Pending(end));
                }
                if self.block[..8] == HMAC_LOG_MAGIC {
                    if self.block_len < LOG_PREAMBLE_LEN {
                        // Torn (or in-flight) preamble: no record can
                        // have been acknowledged yet.
                        return Ok(FragmentPoll::Pending(TailEnd::Incomplete));
                    }
                    let Some(key) = self.key else {
                        return Err(self.fail("authenticated log but no MAC key"));
                    };
                    let mut context = [0u8; CONTEXT_LEN];
                    context.copy_from_slice(&self.block[8..8 + CONTEXT_LEN]);
                    let mut ctx = IntegrityCtx::new(key, context, self.file_number);
                    ctx.stats = self.stats.clone();
                    ctx.events = self.events.clone();
                    self.mode = ReaderMode::Hmac { ctx, counter: 0 };
                    self.pos = LOG_PREAMBLE_LEN;
                } else {
                    self.mode = ReaderMode::Legacy;
                }
            }
            let header_size = self.header_size();
            let full = self.block_len == BLOCK_SIZE;
            if self.block_len - self.pos < header_size {
                if full {
                    // A tail shorter than a header in a full block can
                    // only be padding: drop it, move to the next block.
                    self.advance_block();
                    continue;
                }
                let end = if self.pos == self.block_len {
                    TailEnd::Clean
                } else {
                    TailEnd::Incomplete
                };
                return Ok(FragmentPoll::Pending(end));
            }
            let h = &self.block[self.pos..self.pos + HEADER_SIZE];
            let stored_crc = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
            let len = u16::from_le_bytes([h[4], h[5]]) as usize;
            let record_type = h[6];
            if record_type == 0 && len == 0 && stored_crc == 0 {
                if full {
                    // Zero padding (or pre-allocated tail): skip to the
                    // next block.
                    self.advance_block();
                    continue;
                }
                // Zeros at a partial tail: pre-allocated space or a torn
                // write — either way, not yet a record.
                return Ok(FragmentPoll::Pending(TailEnd::Incomplete));
            }
            if self.pos + header_size + len > self.block_len {
                // A fragment never legitimately overruns its block. In a
                // full block the length field itself is corrupt; in a
                // partial final block the fragment simply is not all
                // published yet.
                if full {
                    return Err(self.fail("bad record length"));
                }
                return Ok(FragmentPoll::Pending(TailEnd::Incomplete));
            }
            let fragment = &self.block[self.pos + header_size..self.pos + header_size + len];
            let crc_ok = crc32c_unmask(stored_crc) == record_crc(record_type, fragment);
            if !crc_ok && !full {
                // A bad checksum in a partial final block is a torn (or
                // in-flight) tail — the normal aftermath of a crash,
                // indistinguishable from a truncated write.
                return Ok(FragmentPoll::Pending(TailEnd::Incomplete));
            }
            if let ReaderMode::Hmac { ctx, counter } = &mut self.mode {
                // Authenticated logs verify the tag before classifying a
                // CRC mismatch: mid-file damage under Hmac is reported as
                // a violation, and a valid-CRC fragment whose tag binds
                // the wrong counter/context (replay, reorder, splice) is
                // caught even in the final block.
                let tag_start = self.pos + HEADER_SIZE;
                let stored_tag = &self.block[tag_start..tag_start + BLOCK_TAG_LEN];
                ctx.verify_record(*counter, record_type, fragment, stored_tag)?;
                *counter += 1;
            }
            if !crc_ok {
                return Err(self.fail("checksum mismatch"));
            }
            let fragment = fragment.to_vec();
            self.pos += header_size + len;
            return Ok(FragmentPoll::Fragment(record_type, fragment));
        }
    }

    fn header_size(&self) -> usize {
        match self.mode {
            ReaderMode::Hmac { .. } => HMAC_HEADER_SIZE,
            _ => HEADER_SIZE,
        }
    }
}

/// Reads records written by [`LogWriter`] from a finite log: a thin
/// wrapper mapping [`WalTailer`]'s `Pending` (the tail cannot grow any
/// further) to end-of-log, so one-shot recovery and live catch-up run
/// the exact same replay engine.
pub struct LogReader {
    tailer: WalTailer,
}

impl LogReader {
    /// Creates a legacy reader over `src`; authenticated logs are
    /// rejected (no key to verify them with).
    #[must_use]
    pub fn new(src: Box<dyn SequentialFile>) -> Self {
        Self::with_integrity(src, None)
    }

    /// Creates a reader that auto-detects the log format: a `SHLDLOG2`
    /// preamble switches on per-record tag verification with `key`.
    #[must_use]
    pub fn with_integrity(src: Box<dyn SequentialFile>, key: Option<[u8; 32]>) -> Self {
        LogReader { tailer: WalTailer::with_integrity(src, key) }
    }

    /// True once the log was identified as authenticated.
    #[must_use]
    pub fn is_hmac(&self) -> bool {
        self.tailer.is_hmac()
    }

    /// True once the log was identified as a legacy (CRC-only) log.
    #[must_use]
    pub fn is_legacy(&self) -> bool {
        self.tailer.is_legacy()
    }

    /// Reads the next record, or `Ok(None)` at end-of-log. A torn tail
    /// (truncated fragment, zeroed header) ends the log silently, matching
    /// crash-recovery semantics; checksum mismatches are corruption.
    pub fn read_record(&mut self) -> Result<Option<Vec<u8>>> {
        match self.tailer.poll()? {
            TailPoll::Record(record) => Ok(Some(record)),
            TailPoll::Pending(_) => {
                // The log is finite: whatever the tail holds now is all
                // there will ever be, and a file too short to classify
                // is a legacy log (there is nothing to verify).
                self.tailer.assume_legacy();
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::{Env, FileKind, MemEnv};

    fn write_records(env: &MemEnv, path: &str, records: &[Vec<u8>]) {
        let file = env.new_writable_file(path, FileKind::Wal).unwrap();
        let mut w = LogWriter::new(file);
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
    }

    fn read_all(env: &MemEnv, path: &str) -> Vec<Vec<u8>> {
        let file = env.new_sequential_file(path, FileKind::Wal).unwrap();
        let mut r = LogReader::new(file);
        let mut out = Vec::new();
        while let Some(rec) = r.read_record().unwrap() {
            out.push(rec);
        }
        out
    }

    #[test]
    fn roundtrip_small_records() {
        let env = MemEnv::new();
        let records = vec![b"one".to_vec(), b"two".to_vec(), Vec::new(), b"four".to_vec()];
        write_records(&env, "log", &records);
        assert_eq!(read_all(&env, "log"), records);
    }

    #[test]
    fn roundtrip_spanning_records() {
        let env = MemEnv::new();
        // Records larger than one block must fragment and reassemble.
        let records = vec![
            vec![1u8; BLOCK_SIZE / 2],
            vec![2u8; BLOCK_SIZE * 2 + 17],
            vec![3u8; 10],
            vec![4u8; BLOCK_SIZE * 5],
        ];
        write_records(&env, "log", &records);
        assert_eq!(read_all(&env, "log"), records);
    }

    #[test]
    fn exact_block_boundary() {
        let env = MemEnv::new();
        // Payload that exactly fills a block's available space.
        let records = vec![vec![9u8; BLOCK_SIZE - HEADER_SIZE], b"next".to_vec()];
        write_records(&env, "log", &records);
        assert_eq!(read_all(&env, "log"), records);
    }

    #[test]
    fn torn_tail_is_silent_end() {
        let env = MemEnv::new();
        write_records(&env, "log", &[b"keep-me".to_vec(), b"will-be-torn".to_vec()]);
        let raw = env.raw_content("log").unwrap();
        // Chop mid-way through the second record.
        let cut = raw.len() - 5;
        {
            let mut f = env.new_writable_file("log", FileKind::Wal).unwrap();
            f.append(&raw[..cut]).unwrap();
            f.sync().unwrap();
        }
        assert_eq!(read_all(&env, "log"), vec![b"keep-me".to_vec()]);
    }

    #[test]
    fn mid_file_corruption_is_error() {
        let env = MemEnv::new();
        // Several blocks' worth of records, then corrupt one early
        // fragment (corruption in the *final* block is treated as a torn
        // tail, so the file must span multiple blocks).
        let records: Vec<Vec<u8>> = (0..4000).map(|i| format!("record-{i:05}").into_bytes()).collect();
        write_records(&env, "log", &records);
        let mut raw = env.raw_content("log").unwrap();
        raw[100] ^= 0xff; // flip payload byte of an early record
        {
            let mut f = env.new_writable_file("log", FileKind::Wal).unwrap();
            f.append(&raw).unwrap();
            f.sync().unwrap();
        }
        let file = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut r = LogReader::new(file);
        let mut err = None;
        loop {
            match r.read_record() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(Error::Corruption(_))));
    }

    #[test]
    fn empty_log() {
        let env = MemEnv::new();
        write_records(&env, "log", &[]);
        assert!(read_all(&env, "log").is_empty());
    }

    #[test]
    fn block_padding_skipped() {
        let env = MemEnv::new();
        // A record that leaves < HEADER_SIZE bytes in the block forces
        // padding before the next record.
        let first_len = BLOCK_SIZE - HEADER_SIZE - HEADER_SIZE + 1; // leaves 6 bytes
        let records = vec![vec![7u8; first_len], b"after-padding".to_vec()];
        write_records(&env, "log", &records);
        assert_eq!(read_all(&env, "log"), records);
    }

    // ---- authenticated (HMAC) log format ----

    const KEY: [u8; 32] = [0x5a; 32];

    fn write_records_hmac(env: &MemEnv, path: &str, records: &[Vec<u8>]) {
        let file = env.new_writable_file(path, FileKind::Wal).unwrap();
        let mut w = LogWriter::with_integrity(file, Some(KEY)).unwrap();
        assert!(w.is_hmac());
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
    }

    fn read_all_hmac(env: &MemEnv, path: &str) -> Result<Vec<Vec<u8>>> {
        let file = env.new_sequential_file(path, FileKind::Wal).unwrap();
        let mut r = LogReader::with_integrity(file, Some(KEY));
        let mut out = Vec::new();
        while let Some(rec) = r.read_record()? {
            out.push(rec);
        }
        Ok(out)
    }

    fn rewrite(env: &MemEnv, path: &str, raw: &[u8]) {
        env.set_raw_content(path, raw.to_vec()).unwrap();
    }

    #[test]
    fn hmac_roundtrip_and_format_detection() {
        let env = MemEnv::new();
        let records = vec![
            b"one".to_vec(),
            Vec::new(),
            vec![2u8; BLOCK_SIZE * 2 + 17],                  // spans blocks
            vec![9u8; BLOCK_SIZE - LOG_PREAMBLE_LEN],        // forces fragmentation
            b"tail".to_vec(),
        ];
        write_records_hmac(&env, "log", &records);
        let raw = env.raw_content("log").unwrap();
        assert_eq!(&raw[..8], &HMAC_LOG_MAGIC);
        let file = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut r = LogReader::with_integrity(file, Some(KEY));
        let mut out = Vec::new();
        while let Some(rec) = r.read_record().unwrap() {
            out.push(rec);
        }
        assert_eq!(out, records);
        assert!(r.is_hmac());
        assert!(!r.is_legacy());
    }

    #[test]
    fn hmac_block_padding_and_exact_boundary() {
        let env = MemEnv::new();
        // First block holds the 32-byte preamble; fill its available
        // space exactly, then leave a sub-header tail to force padding.
        let exact = BLOCK_SIZE - LOG_PREAMBLE_LEN - HMAC_HEADER_SIZE;
        let pad_forcer = BLOCK_SIZE - HMAC_HEADER_SIZE - HMAC_HEADER_SIZE + 1;
        let records = vec![vec![1u8; exact], vec![2u8; pad_forcer], b"after".to_vec()];
        write_records_hmac(&env, "log", &records);
        assert_eq!(read_all_hmac(&env, "log").unwrap(), records);
    }

    #[test]
    fn hmac_torn_tail_is_still_silent_end() {
        let env = MemEnv::new();
        write_records_hmac(&env, "log", &[b"keep-me".to_vec(), b"will-be-torn".to_vec()]);
        let raw = env.raw_content("log").unwrap();
        rewrite(&env, "log", &raw[..raw.len() - 5]);
        assert_eq!(read_all_hmac(&env, "log").unwrap(), vec![b"keep-me".to_vec()]);
    }

    #[test]
    fn hmac_torn_preamble_is_empty_log() {
        let env = MemEnv::new();
        write_records_hmac(&env, "log", &[b"rec".to_vec()]);
        let raw = env.raw_content("log").unwrap();
        rewrite(&env, "log", &raw[..10]); // magic present, context torn
        assert!(read_all_hmac(&env, "log").unwrap().is_empty());
    }

    #[test]
    fn hmac_log_without_key_is_rejected() {
        let env = MemEnv::new();
        write_records_hmac(&env, "log", &[b"rec".to_vec()]);
        let file = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut r = LogReader::new(file);
        assert!(matches!(r.read_record(), Err(Error::Corruption(_))));
    }

    #[test]
    fn hmac_mid_file_flip_is_integrity_violation() {
        let env = MemEnv::new();
        let records: Vec<Vec<u8>> =
            (0..4000).map(|i| format!("record-{i:05}").into_bytes()).collect();
        write_records_hmac(&env, "log", &records);
        let mut raw = env.raw_content("log").unwrap();
        raw[100] ^= 0xff; // payload byte of an early record
        rewrite(&env, "log", &raw);
        let err = read_all_hmac(&env, "log").unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn hmac_record_swap_is_integrity_violation() {
        let env = MemEnv::new();
        // Two same-length FULL records: swapping their bytes keeps every
        // CRC valid, but each tag binds the fragment counter.
        write_records_hmac(&env, "log", &[b"aaaa".to_vec(), b"bbbb".to_vec()]);
        let mut raw = env.raw_content("log").unwrap();
        let rec_len = HMAC_HEADER_SIZE + 4;
        let a = LOG_PREAMBLE_LEN;
        let b = a + rec_len;
        let (first, second) = raw.split_at_mut(b);
        first[a..b].swap_with_slice(&mut second[..rec_len]);
        rewrite(&env, "log", &raw);
        let err = read_all_hmac(&env, "log").unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn hmac_replayed_record_is_integrity_violation() {
        let env = MemEnv::new();
        // Duplicate the first record right after itself: a replay with a
        // perfectly valid CRC, detected because the tag binds counter 0.
        write_records_hmac(&env, "log", &[b"pay-bob-$5".to_vec()]);
        let mut raw = env.raw_content("log").unwrap();
        let rec = raw[LOG_PREAMBLE_LEN..].to_vec();
        raw.extend_from_slice(&rec);
        rewrite(&env, "log", &raw);
        let file = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut r = LogReader::with_integrity(file, Some(KEY));
        assert_eq!(r.read_record().unwrap().unwrap(), b"pay-bob-$5".to_vec());
        let err = r.read_record().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn hmac_cross_log_splice_is_integrity_violation() {
        let env = MemEnv::new();
        // Same key, same payload, two logs: each log's random context
        // makes a record from one unverifiable in the other.
        write_records_hmac(&env, "a", &[b"same-payload".to_vec()]);
        write_records_hmac(&env, "b", &[b"same-payload".to_vec()]);
        let donor = env.raw_content("b").unwrap();
        let mut raw = env.raw_content("a").unwrap();
        raw[LOG_PREAMBLE_LEN..].copy_from_slice(&donor[LOG_PREAMBLE_LEN..]);
        rewrite(&env, "a", &raw);
        let err = read_all_hmac(&env, "a").unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn legacy_log_reads_fine_under_integrity_reader() {
        let env = MemEnv::new();
        let records = vec![b"old".to_vec(), b"format".to_vec()];
        write_records(&env, "log", &records);
        let file = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut r = LogReader::with_integrity(file, Some(KEY));
        let mut out = Vec::new();
        while let Some(rec) = r.read_record().unwrap() {
            out.push(rec);
        }
        assert_eq!(out, records);
        assert!(r.is_legacy());
        assert!(!r.is_hmac());
    }

    // ---- resumable tailer ----

    #[test]
    fn tailer_sees_records_as_they_are_published() {
        let env = MemEnv::new();
        let dest = env.new_writable_file("log", FileKind::Wal).unwrap();
        let mut w = LogWriter::new(dest);
        let src = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut t = WalTailer::new(src);
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Clean)));

        w.add_record(b"first").unwrap();
        w.flush().unwrap();
        let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
        assert_eq!(r, b"first");
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Clean)));

        // A record spanning blocks arrives whole once fully published.
        let big = vec![7u8; BLOCK_SIZE * 2 + 123];
        w.add_record(&big).unwrap();
        w.flush().unwrap();
        let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
        assert_eq!(r, big);
        assert_eq!(t.records(), 2);
        assert!(t.fragments() >= 4);
    }

    #[test]
    fn tailer_pending_on_partial_append_then_resumes() {
        let env = MemEnv::new();
        write_records(&env, "log", &[b"committed".to_vec(), b"in-flight-record".to_vec()]);
        let raw = env.raw_content("log").unwrap();
        // Publish everything but the last 5 bytes: the tailer must hold
        // its position, then produce the record when the bytes land.
        rewrite(&env, "log", &raw[..raw.len() - 5]);
        let src = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut t = WalTailer::new(src);
        let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
        assert_eq!(r, b"committed");
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Incomplete)));
        let held = t.consumed_bytes();
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Incomplete)));
        assert_eq!(t.consumed_bytes(), held, "pending must not consume bytes");

        rewrite(&env, "log", &raw);
        let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
        assert_eq!(r, b"in-flight-record");
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Clean)));
    }

    #[test]
    fn tailer_reports_mid_record_tail() {
        let env = MemEnv::new();
        let dest = env.new_writable_file("log", FileKind::Wal).unwrap();
        let mut w = LogWriter::new(dest);
        // FIRST fragment fills block 0 exactly; LAST lands in block 1.
        let big = vec![3u8; BLOCK_SIZE - HEADER_SIZE + 10];
        w.add_record(&big).unwrap();
        w.flush().unwrap();
        let raw = env.raw_content("log").unwrap();
        rewrite(&env, "log", &raw[..BLOCK_SIZE]); // only the FIRST fragment
        let src = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut t = WalTailer::new(src);
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::MidRecord)));
        rewrite(&env, "log", &raw);
        let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
        assert_eq!(r, big);
    }

    #[test]
    fn tailer_hmac_counter_survives_polls() {
        let env = MemEnv::new();
        let dest = env.new_writable_file("log", FileKind::Wal).unwrap();
        let mut w = LogWriter::with_integrity(dest, Some(KEY)).unwrap();
        let src = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut t = WalTailer::with_integrity(src, Some(KEY));
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(_)));
        for i in 0..10u32 {
            w.add_record(format!("rec-{i}").as_bytes()).unwrap();
            w.flush().unwrap();
            let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
            assert_eq!(r, format!("rec-{i}").as_bytes());
            assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Clean)));
        }
        assert!(t.is_hmac());

        // A replayed record appended to the live tail still fails: the
        // tag binds the fragment counter carried across polls.
        let mut raw = env.raw_content("log").unwrap();
        let first = raw[LOG_PREAMBLE_LEN..LOG_PREAMBLE_LEN + HMAC_HEADER_SIZE + 5].to_vec();
        raw.extend_from_slice(&first);
        rewrite(&env, "log", &raw);
        let err = t.poll().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
        // And the failure is sticky.
        let err = t.poll().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn tailer_mid_file_corruption_is_sticky_error() {
        let env = MemEnv::new();
        let records: Vec<Vec<u8>> =
            (0..4000).map(|i| format!("record-{i:05}").into_bytes()).collect();
        write_records(&env, "log", &records);
        let mut raw = env.raw_content("log").unwrap();
        raw[100] ^= 0xff;
        rewrite(&env, "log", &raw);
        let src = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut t = WalTailer::new(src);
        let mut err = None;
        for _ in 0..records.len() {
            match t.poll() {
                Ok(TailPoll::Record(_)) => continue,
                Ok(TailPoll::Pending(_)) => panic!("corruption classified as pending"),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(Error::Corruption(_))));
        assert!(matches!(t.poll(), Err(Error::Corruption(_))), "poison must stick");
    }

    #[test]
    fn tailer_hmac_preamble_arrives_in_pieces() {
        let env = MemEnv::new();
        write_records_hmac(&env, "log", &[b"sealed".to_vec()]);
        let raw = env.raw_content("log").unwrap();
        // 3 bytes: not yet classifiable.
        rewrite(&env, "log", &raw[..3]);
        let src = env.new_sequential_file("log", FileKind::Wal).unwrap();
        let mut t = WalTailer::with_integrity(src, Some(KEY));
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Incomplete)));
        assert!(!t.is_hmac() && !t.is_legacy());
        // Magic visible, context torn: still pending.
        rewrite(&env, "log", &raw[..10]);
        assert!(matches!(t.poll().unwrap(), TailPoll::Pending(TailEnd::Incomplete)));
        // Full preamble + record: authenticated stream flows.
        rewrite(&env, "log", &raw);
        let TailPoll::Record(r) = t.poll().unwrap() else { panic!("expected record") };
        assert_eq!(r, b"sealed");
        assert!(t.is_hmac());
    }

    #[test]
    fn hmac_empty_writer_reports_empty() {
        let env = MemEnv::new();
        let file = env.new_writable_file("log", FileKind::Wal).unwrap();
        let mut w = LogWriter::with_integrity(file, Some(KEY)).unwrap();
        assert!(w.is_empty());
        w.add_record(b"x").unwrap();
        assert!(!w.is_empty());
        w.sync().unwrap();
        assert_eq!(read_all_hmac(&env, "log").unwrap(), vec![b"x".to_vec()]);
    }
}
