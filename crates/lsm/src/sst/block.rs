//! Prefix-compressed blocks with restart points (the LevelDB block format).
//!
//! Entry: `varint32 shared | varint32 non_shared | varint32 value_len |
//! key_delta | value`. Every `restart_interval` entries the full key is
//! stored (`shared == 0`) and its offset recorded in the restart array at
//! the block tail, enabling binary search.

use std::cmp::Ordering;

use bytes::Bytes;

use crate::types::internal_key_cmp;
use crate::varint::{get_varint32, put_varint32};

/// Builds one block.
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    count_since_restart: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    /// Creates a builder with the given restart interval.
    #[must_use]
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            count_since_restart: 0,
            last_key: Vec::new(),
            entries: 0,
        }
    }

    /// Appends an entry; keys must arrive in strictly increasing internal
    /// key order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || internal_key_cmp(&self.last_key, key) == Ordering::Less,
            "keys must be added in order"
        );
        let shared = if self.count_since_restart < self.restart_interval {
            common_prefix_len(&self.last_key, key)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        };
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, (key.len() - shared) as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count_since_restart += 1;
        self.entries += 1;
    }

    /// Current encoded size (including the restart array).
    #[must_use]
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// True if no entries were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Finalizes and returns the block contents, resetting the builder.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        for r in &self.restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.restarts.len() as u32).to_le_bytes());
        self.restarts.clear();
        self.restarts.push(0);
        self.count_since_restart = 0;
        self.last_key.clear();
        self.entries = 0;
        out
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A parsed, immutable block.
pub struct Block {
    data: Bytes,
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Wraps block contents produced by [`BlockBuilder::finish`].
    ///
    /// Malformed tails yield an empty block rather than a panic; callers
    /// validate CRCs before constructing blocks, so this is defensive.
    #[must_use]
    pub fn from_raw(data: Bytes) -> Self {
        if data.len() < 4 {
            return Block { data, restarts_offset: 0, num_restarts: 0 };
        }
        let num_restarts =
            u32::from_le_bytes(crate::varint::fixed(&data[data.len() - 4..])) as usize;
        let needed = 4 + num_restarts * 4;
        if needed > data.len() {
            return Block { data, restarts_offset: 0, num_restarts: 0 };
        }
        let restarts_offset = data.len() - needed;
        Block { data, restarts_offset, num_restarts }
    }

    /// Wraps bytes that are *not* in the block entry format (e.g. a bloom
    /// filter body) so they can live in the block cache. The result has no
    /// parsed restarts and iterates as empty; use [`Block::raw_bytes`] to
    /// get the payload back.
    #[must_use]
    pub fn from_raw_opaque(data: Bytes) -> Self {
        Block { restarts_offset: data.len(), num_restarts: 0, data }
    }

    /// The underlying bytes (cheap clone sharing the same allocation).
    #[must_use]
    pub fn raw_bytes(&self) -> &Bytes {
        &self.data
    }

    /// Byte size of the block contents.
    #[must_use]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, i: usize) -> usize {
        let off = self.restarts_offset + 4 * i;
        u32::from_le_bytes(crate::varint::fixed(&self.data[off..off + 4])) as usize
    }

    /// An iterator positioned before the first entry.
    #[must_use]
    pub fn iter(self: &std::sync::Arc<Self>) -> BlockIter {
        BlockIter {
            block: self.clone(),
            offset: 0,
            key: Vec::new(),
            value_range: (0, 0),
            valid: false,
        }
    }
}

/// Iterator over a block's entries.
#[derive(Clone)]
pub struct BlockIter {
    block: std::sync::Arc<Block>,
    /// Offset of the *next* entry to parse.
    offset: usize,
    key: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl BlockIter {
    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// The current full key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.key
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.block.data[self.value_range.0..self.value_range.1]
    }

    /// Positions on the first entry.
    pub fn seek_to_first(&mut self) {
        self.offset = 0;
        self.key.clear();
        self.valid = false;
        self.parse_next();
    }

    /// Positions on the first entry with key >= `target` (internal-key
    /// order).
    pub fn seek(&mut self, target: &[u8]) {
        if self.block.num_restarts == 0 {
            self.valid = false;
            return;
        }
        // Binary search the restart array for the last restart whose key
        // is < target.
        let (mut lo, mut hi) = (0usize, self.block.num_restarts - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if internal_key_cmp(self.restart_key(mid), target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.offset = self.block.restart_point(lo);
        self.key.clear();
        self.valid = false;
        // Linear scan forward.
        loop {
            if !self.parse_next() {
                return;
            }
            if internal_key_cmp(&self.key, target) != Ordering::Less {
                return;
            }
        }
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        debug_assert!(self.valid);
        self.parse_next();
    }

    /// The full key at restart point `i`: shared is 0 there, so the key
    /// is one contiguous slice of the block and the binary search probes
    /// it in place. Malformed entries — reachable from hostile blocks
    /// whose restart array points at garbage — yield an empty key instead
    /// of panicking; the subsequent linear scan re-validates every entry
    /// it lands on.
    fn restart_key(&self, i: usize) -> &[u8] {
        let mut off = self.block.restart_point(i);
        let data = &self.block.data[..self.block.restarts_offset];
        let mut varint = || -> Option<u32> {
            let (v, n) = get_varint32(data.get(off..)?)?;
            off += n;
            Some(v)
        };
        let Some(_shared) = varint() else { return &[] };
        let Some(non_shared) = varint() else { return &[] };
        let Some(_vlen) = varint() else { return &[] };
        let end = off.saturating_add(non_shared as usize);
        data.get(off..end).unwrap_or_default()
    }

    /// Parses the entry at `self.offset`; false at end of block.
    fn parse_next(&mut self) -> bool {
        let data = &self.block.data[..self.block.restarts_offset];
        if self.offset >= data.len() {
            self.valid = false;
            return false;
        }
        let mut off = self.offset;
        let Some((shared, n)) = get_varint32(&data[off..]) else {
            self.valid = false;
            return false;
        };
        off += n;
        let Some((non_shared, n)) = get_varint32(&data[off..]) else {
            self.valid = false;
            return false;
        };
        off += n;
        let Some((vlen, n)) = get_varint32(&data[off..]) else {
            self.valid = false;
            return false;
        };
        off += n;
        let (shared, non_shared, vlen) = (shared as usize, non_shared as usize, vlen as usize);
        if off + non_shared + vlen > data.len() || shared > self.key.len() {
            self.valid = false;
            return false;
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(&data[off..off + non_shared]);
        self.value_range = (off + non_shared, off + non_shared + vlen);
        self.offset = off + non_shared + vlen;
        self.valid = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use std::sync::Arc;

    fn ik(k: &[u8], seq: u64) -> Vec<u8> {
        make_internal_key(k, seq, ValueType::Value)
    }

    fn build(entries: &[(Vec<u8>, Vec<u8>)], restart_interval: usize) -> Arc<Block> {
        let mut b = BlockBuilder::new(restart_interval);
        for (k, v) in entries {
            b.add(k, v);
        }
        Arc::new(Block::from_raw(Bytes::from(b.finish())))
    }

    fn entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (ik(format!("key{i:05}").as_bytes(), 1), format!("value-{i}").into_bytes()))
            .collect()
    }

    #[test]
    fn roundtrip_all_entries() {
        for restart in [1, 2, 16] {
            let es = entries(100);
            let block = build(&es, restart);
            let mut it = block.iter();
            it.seek_to_first();
            for (k, v) in &es {
                assert!(it.valid());
                assert_eq!(it.key(), &k[..]);
                assert_eq!(it.value(), &v[..]);
                it.next();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn seek_exact_and_between() {
        let es = entries(100);
        let block = build(&es, 16);
        let mut it = block.iter();
        // Exact hit.
        it.seek(&ik(b"key00042", 1));
        assert!(it.valid());
        assert_eq!(it.key(), &es[42].0[..]);
        // Between keys: lands on the next one.
        it.seek(&ik(b"key00042x", 1));
        assert!(it.valid());
        assert_eq!(it.key(), &es[43].0[..]);
        // Before the first.
        it.seek(&ik(b"a", 1));
        assert!(it.valid());
        assert_eq!(it.key(), &es[0].0[..]);
        // Past the last.
        it.seek(&ik(b"zzz", 1));
        assert!(!it.valid());
    }

    #[test]
    fn seek_respects_sequence_order() {
        // Same user key, several sequences: newest sorts first.
        let mut b = BlockBuilder::new(16);
        b.add(&ik(b"k", 9), b"v9");
        b.add(&ik(b"k", 5), b"v5");
        b.add(&ik(b"k", 1), b"v1");
        let block = Arc::new(Block::from_raw(Bytes::from(b.finish())));
        let mut it = block.iter();
        // Looking up at seq 6 must land on seq-5 entry.
        it.seek(&crate::types::make_lookup_key(b"k", 6));
        assert!(it.valid());
        assert_eq!(it.value(), b"v5");
    }

    #[test]
    fn empty_block() {
        let mut b = BlockBuilder::new(16);
        let block = Arc::new(Block::from_raw(Bytes::from(b.finish())));
        let mut it = block.iter();
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(&ik(b"x", 1));
        assert!(!it.valid());
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new(16);
        b.add(&ik(b"a", 1), b"1");
        let first = b.finish();
        b.add(&ik(b"a", 1), b"1");
        let second = b.finish();
        assert_eq!(first, second);
    }

    #[test]
    fn prefix_compression_shrinks_output() {
        let shared: Vec<(Vec<u8>, Vec<u8>)> = (0..64)
            .map(|i| (ik(format!("commonprefix/{i:04}").as_bytes(), 1), b"v".to_vec()))
            .collect();
        let compressed = build(&shared, 16);
        let uncompressed = build(&shared, 1);
        assert!(compressed.size() < uncompressed.size());
    }

    #[test]
    fn malformed_block_yields_empty_iter() {
        let block = Arc::new(Block::from_raw(Bytes::from_static(b"xx")));
        let mut it = block.iter();
        it.seek_to_first();
        assert!(!it.valid());
    }

    #[test]
    fn hostile_restart_entries_do_not_panic_on_seek() {
        // A restart array whose entries point at garbage: truncated
        // varints, offsets past the entry region, lengths overrunning the
        // block. `seek` binary-searches via `restart_key` and must fail
        // gracefully (no panic, iterator invalid), not trust the offsets.
        let hostile: &[&[u8]] = &[
            // restart[0]=0 over a single 0xff byte (truncated varint).
            &[0xff, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00],
            // entry claims non_shared=200 with 1 byte of data behind it.
            &[0x00, 0xc8, 0x01, 0x61, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00],
            // restart offset points past the entry region.
            &[0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00],
        ];
        for raw in hostile {
            let block = Arc::new(Block::from_raw(Bytes::copy_from_slice(raw)));
            let mut it = block.iter();
            it.seek(&ik(b"probe", 1));
            let _ = it.valid();
            it.seek_to_first();
            while it.valid() {
                let (_k, _v) = (it.key().to_vec(), it.value().to_vec());
                it.next();
            }
        }
    }
}
