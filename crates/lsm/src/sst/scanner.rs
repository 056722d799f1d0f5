//! The read path for whole-file scans: compaction inputs, subcompaction
//! ranges, the offloaded compactor and `Db::verify_integrity`.
//!
//! A point read wants one block and wants it cached; a scan wants every
//! block once, in file order, and caching them only evicts what point
//! reads will come back for. So a scan does not go through
//! [`crate::sst::BlockFetcher`] at all. [`TableScanner`] walks the table's
//! pinned index block, groups consecutive data blocks into contiguous
//! spans of at least [`SCAN_SPAN_BYTES`], and fetches each span with **one**
//! `read_at` through the table's (decrypting) file handle: one round trip
//! on a remote env, one `pread` locally, one keystream pass per span — the
//! read-side twin of the chunked output encryption of §5.2 / Fig. 13. Each
//! block is then cut out of the span as a zero-copy slice and passed
//! through `split_verified`, the same function that authenticates every
//! block the fetcher reads: HMAC first, then CRC. Nothing here touches the
//! block cache or the in-flight map.
//!
//! Verification is lazy, block by block, as the scan position enters each
//! block: a tampered block fails with the same error class and offset the
//! cached path reports, and every entry before it has already been
//! yielded from verified bytes.

use std::sync::Arc;

use bytes::Bytes;
use shield_core::{perf, trace, PerfCounter};

use crate::error::{Error, Result};
use crate::iter::InternalIterator;
use crate::sst::block::{Block, BlockIter};
use crate::sst::fetcher::{batch_read_plan, split_verified};
use crate::sst::format::BlockHandle;
use crate::sst::reader::Table;

/// Minimum bytes fetched per storage round trip by a scan (the last span
/// of a file, or a span cut short by a gap in the index, may be smaller;
/// a span ends with the block that crosses this mark, so it overshoots by
/// less than one block).
///
/// A constant, not an option: it has to be large enough to amortise a
/// round trip and small enough that one span's transmission does not
/// hold a shared FIFO link for much longer than a round trip, or a
/// foreground 4 KiB read queues behind it. 64 KiB is 0.52 ms at 1 Gbps —
/// about one intra-datacenter RTT — and equals the remote write packet.
pub const SCAN_SPAN_BYTES: usize = 64 * 1024;

/// One contiguous run of data blocks (contents + trailers) in memory.
struct Span {
    /// File offset of `bytes[0]`.
    start: u64,
    /// File offset one past the last block this span was planned to hold
    /// (`bytes` is shorter if the file ended early).
    end: u64,
    bytes: Bytes,
}

/// Forward iterator over a whole table (or its tail from a seek target)
/// that reads around the block cache in large sequential spans.
pub struct TableScanner {
    table: Arc<Table>,
    index_iter: BlockIter,
    span: Option<Span>,
    data_iter: Option<BlockIter>,
    status: Result<()>,
}

impl TableScanner {
    pub(super) fn new(table: Arc<Table>) -> Self {
        let index_iter = table.index.block().iter();
        TableScanner { table, index_iter, span: None, data_iter: None, status: Ok(()) }
    }

    /// Loads (from the current span, fetching a new one if needed),
    /// verifies and parses the data block the index points at.
    fn init_data_block(&mut self) {
        self.data_iter = None;
        if !self.index_iter.valid() {
            return;
        }
        match self.load_block() {
            Ok(block) => self.data_iter = Some(Arc::new(block).iter()),
            Err(e) => self.status = Err(e),
        }
    }

    fn load_block(&mut self) -> Result<Block> {
        let handle = BlockHandle::decode_varint(self.index_iter.value())?;
        let (offset, end) = block_extent(handle, self.table.trailer_len)?;
        if !self.span.as_ref().is_some_and(|s| s.start <= offset && end <= s.end) {
            self.span = Some(self.fetch_span(offset, end)?);
        }
        let span = self.span.as_ref().expect("span covers the block");
        // A file that ends early yields a short span; the cut is clamped
        // and `split_verified` reports the truncation.
        let from = ((offset - span.start) as usize).min(span.bytes.len());
        let to = ((end - span.start) as usize).min(span.bytes.len());
        perf::incr(PerfCounter::BlocksRead, 1);
        let contents =
            split_verified(&span.bytes.slice(from..to), handle, self.table.integrity.as_ref())?;
        Ok(Block::from_raw(contents))
    }

    /// Reads the span starting with the block at `[start, end)` and
    /// extending over the following index entries while they are
    /// contiguous and the span is still short of [`SCAN_SPAN_BYTES`].
    fn fetch_span(&self, start: u64, mut end: u64) -> Result<Span> {
        let mut ahead = self.index_iter.clone();
        while end - start < SCAN_SPAN_BYTES as u64 {
            ahead.next();
            if !ahead.valid() {
                break;
            }
            // A malformed or out-of-place later entry just ends the span:
            // it fails (or starts its own span) when the scan gets there.
            let next = BlockHandle::decode_varint(ahead.value())
                .and_then(|h| block_extent(h, self.table.trailer_len));
            match next {
                Ok((offset, next_end)) if offset == end => end = next_end,
                _ => break,
            }
        }
        let mut span = trace::span("read_span");
        span.attr("offset", start);
        span.attr("len", end - start);
        let bytes = self.table.file.read_at(start, (end - start) as usize)?;
        Ok(Span { start, end, bytes })
    }

    /// Moves forward past empty blocks until positioned on an entry or
    /// the table is exhausted.
    fn skip_empty_blocks_forward(&mut self) {
        while self.data_iter.as_ref().is_none_or(|d| !d.valid()) {
            if !self.index_iter.valid() || self.status.is_err() {
                self.data_iter = None;
                return;
            }
            self.index_iter.next();
            self.init_data_block();
            if let Some(d) = &mut self.data_iter {
                d.seek_to_first();
            }
        }
    }
}

/// `[offset, end)` of a block's contents + trailer in the file, with the
/// handle's hostile length fields validated first.
fn block_extent(handle: BlockHandle, trailer_len: usize) -> Result<(u64, u64)> {
    let plan = batch_read_plan(handle, trailer_len)?;
    let end = plan
        .offset
        .checked_add(plan.len as u64)
        .ok_or_else(|| Error::Corruption("block extent overflow".into()))?;
    Ok((plan.offset, end))
}

impl InternalIterator for TableScanner {
    fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(BlockIter::valid)
    }

    fn seek_to_first(&mut self) {
        self.index_iter.seek_to_first();
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek_to_first();
        }
        self.skip_empty_blocks_forward();
    }

    fn seek(&mut self, target: &[u8]) {
        self.index_iter.seek(target);
        self.init_data_block();
        if let Some(d) = &mut self.data_iter {
            d.seek(target);
        }
        self.skip_empty_blocks_forward();
    }

    fn next(&mut self) {
        if let Some(d) = &mut self.data_iter {
            d.next();
        }
        self.skip_empty_blocks_forward();
    }

    fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").key()
    }

    fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("valid").value()
    }

    fn status(&self) -> Result<()> {
        self.status.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::builder::{TableBuilder, TableBuilderOptions};
    use crate::types::{make_internal_key, ValueType};
    use shield_env::{Env, FileKind, MemEnv};

    fn build(env: &MemEnv, n: u32, block_size: usize) -> (Arc<Table>, u64) {
        let file = env.new_writable_file("t.sst", FileKind::Sst).unwrap();
        let opts = TableBuilderOptions { block_size, ..TableBuilderOptions::default() };
        let mut b = TableBuilder::new(file, opts);
        for i in 0..n {
            let ik = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            b.add(&ik, format!("value-{i:0100}").as_bytes()).unwrap();
        }
        b.finish().unwrap();
        let file = env.new_random_access_file("t.sst", FileKind::Sst).unwrap();
        let table = Arc::new(Table::open(file, 1, None).unwrap());
        let data_bytes = table.index_spans().unwrap().iter().map(|(_, bytes)| bytes).sum();
        (table, data_bytes)
    }

    fn sst_reads(env: &MemEnv, f: impl FnOnce()) -> u64 {
        let before = env.io_stats().unwrap().snapshot();
        f();
        env.io_stats().unwrap().snapshot().delta_since(&before).read_ops[FileKind::Sst.index()]
    }

    #[test]
    fn full_scan_reads_one_span_per_64k() {
        let env = MemEnv::new();
        let (table, data_bytes) = build(&env, 5000, 4096);
        assert!(data_bytes > 8 * SCAN_SPAN_BYTES as u64);
        let mut entries = 0;
        let reads = sst_reads(&env, || {
            let mut it = table.scan();
            it.seek_to_first();
            while it.valid() {
                entries += 1;
                it.next();
            }
            it.status().unwrap();
        });
        assert_eq!(entries, 5000);
        assert!(reads <= data_bytes.div_ceil(SCAN_SPAN_BYTES as u64), "{reads} reads");
    }

    #[test]
    fn seek_reads_from_the_target_block_not_the_file_start() {
        let env = MemEnv::new();
        let (table, data_bytes) = build(&env, 5000, 4096);
        let target = make_internal_key(b"key004900", u64::MAX >> 8, ValueType::Value);
        let mut rest = 0;
        let reads = sst_reads(&env, || {
            let mut it = table.scan();
            it.seek(&target);
            while it.valid() {
                rest += 1;
                it.next();
            }
        });
        assert_eq!(rest, 100);
        assert!(reads <= 2 && data_bytes > 8 * SCAN_SPAN_BYTES as u64, "{reads} reads");
    }

    #[test]
    fn a_block_larger_than_a_span_is_its_own_span() {
        let env = MemEnv::new();
        let (table, _) = build(&env, 3000, 3 * SCAN_SPAN_BYTES);
        let blocks = table.index_spans().unwrap().len() as u64;
        assert!(blocks >= 2);
        let mut entries = 0;
        let reads = sst_reads(&env, || {
            let mut it = table.scan();
            it.seek_to_first();
            while it.valid() {
                entries += 1;
                it.next();
            }
        });
        assert_eq!((entries, reads), (3000, blocks));
    }
}
