//! Write batches: the atomic unit of writes and the WAL record payload.
//!
//! Wire format (RocksDB-compatible layout): `fixed64 base_sequence |
//! fixed32 count | records…` where each record is a type byte followed by
//! length-prefixed key (and value for puts).

use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::types::{SequenceNumber, ValueType};
use crate::varint::{get_length_prefixed, put_length_prefixed};

const HEADER: usize = 12;

/// A set of updates applied atomically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteBatch {
    rep: Vec<u8>,
}

impl WriteBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        WriteBatch { rep: vec![0u8; HEADER] }
    }

    /// Queues a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.ensure_header();
        self.rep.push(ValueType::Value as u8);
        put_length_prefixed(&mut self.rep, key);
        put_length_prefixed(&mut self.rep, value);
        self.bump_count();
    }

    /// Queues a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.ensure_header();
        self.rep.push(ValueType::Deletion as u8);
        put_length_prefixed(&mut self.rep, key);
        self.bump_count();
    }

    /// Removes all queued updates.
    pub fn clear(&mut self) {
        self.rep.clear();
        self.rep.resize(HEADER, 0);
    }

    /// Number of queued updates.
    #[must_use]
    pub fn count(&self) -> u32 {
        if self.rep.len() < HEADER {
            return 0;
        }
        u32::from_le_bytes(crate::varint::fixed(&self.rep[8..12]))
    }

    /// True if nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sets the base sequence number (done by the commit leader).
    pub fn set_sequence(&mut self, seq: SequenceNumber) {
        self.ensure_header();
        self.rep[..8].copy_from_slice(&seq.to_le_bytes());
    }

    /// The base sequence number.
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        if self.rep.len() < HEADER {
            return 0;
        }
        u64::from_le_bytes(crate::varint::fixed(&self.rep[..8]))
    }

    /// The raw WAL payload.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.rep
    }

    /// Reconstructs a batch from a WAL record.
    pub fn from_data(data: &[u8]) -> Result<Self> {
        if data.len() < HEADER {
            return Err(Error::Corruption("write batch too small".into()));
        }
        let batch = WriteBatch { rep: data.to_vec() };
        // Validate by iterating.
        batch.for_each(|_, _, _, _| {})?;
        Ok(batch)
    }

    /// Appends another batch's records to this one (group commit).
    pub fn append(&mut self, other: &WriteBatch) {
        self.ensure_header();
        let count = self.count() + other.count();
        self.rep.extend_from_slice(&other.rep[HEADER..]);
        self.rep[8..12].copy_from_slice(&count.to_le_bytes());
    }

    /// Visits every record as `(seq, type, key, value)`; tombstones get an
    /// empty value.
    pub fn for_each<F: FnMut(SequenceNumber, ValueType, &[u8], &[u8])>(
        &self,
        mut f: F,
    ) -> Result<()> {
        let corrupt = |m: &str| Error::Corruption(format!("write batch: {m}"));
        let mut data = &self.rep[HEADER.min(self.rep.len())..];
        let base = self.sequence();
        let mut index = 0u64;
        let mut seen = 0u32;
        while !data.is_empty() {
            let t = ValueType::from_u8(data[0]).ok_or_else(|| corrupt("bad record type"))?;
            data = &data[1..];
            let (key, n) = get_length_prefixed(data).ok_or_else(|| corrupt("bad key"))?;
            let key = key.to_vec();
            data = &data[n..];
            let value = match t {
                ValueType::Value => {
                    let (v, n) = get_length_prefixed(data).ok_or_else(|| corrupt("bad value"))?;
                    let v = v.to_vec();
                    data = &data[n..];
                    v
                }
                ValueType::Deletion => Vec::new(),
            };
            f(base + index, t, &key, &value);
            index += 1;
            seen += 1;
        }
        if seen != self.count() {
            return Err(corrupt("count mismatch"));
        }
        Ok(())
    }

    /// Applies every record to `mem` using the batch's base sequence.
    pub fn insert_into(&self, mem: &MemTable) -> Result<()> {
        self.for_each(|seq, t, key, value| mem.add(seq, t, key, value))
    }

    fn ensure_header(&mut self) {
        if self.rep.len() < HEADER {
            self.rep.resize(HEADER, 0);
        }
    }

    fn bump_count(&mut self) {
        let c = self.count() + 1;
        self.rep[8..12].copy_from_slice(&c.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::LookupResult;

    #[test]
    fn build_and_iterate() {
        let mut b = WriteBatch::new();
        b.put(b"k1", b"v1");
        b.delete(b"k2");
        b.put(b"k3", b"v3");
        b.set_sequence(100);
        assert_eq!(b.count(), 3);
        let mut seen = Vec::new();
        b.for_each(|seq, t, k, v| seen.push((seq, t, k.to_vec(), v.to_vec()))).unwrap();
        assert_eq!(
            seen,
            vec![
                (100, ValueType::Value, b"k1".to_vec(), b"v1".to_vec()),
                (101, ValueType::Deletion, b"k2".to_vec(), vec![]),
                (102, ValueType::Value, b"k3".to_vec(), b"v3".to_vec()),
            ]
        );
    }

    #[test]
    fn roundtrip_through_wire_format() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        b.set_sequence(7);
        let restored = WriteBatch::from_data(b.data()).unwrap();
        assert_eq!(restored, b);
        assert_eq!(restored.sequence(), 7);
    }

    #[test]
    fn corrupt_data_rejected() {
        assert!(WriteBatch::from_data(b"short").is_err());
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let mut data = b.data().to_vec();
        data.truncate(data.len() - 1);
        assert!(WriteBatch::from_data(&data).is_err());
        // Wrong count.
        let mut data = b.data().to_vec();
        data[8] = 9;
        assert!(WriteBatch::from_data(&data).is_err());
    }

    #[test]
    fn append_merges_counts() {
        let mut a = WriteBatch::new();
        a.put(b"a", b"1");
        let mut b = WriteBatch::new();
        b.put(b"b", b"2");
        b.delete(b"c");
        a.append(&b);
        assert_eq!(a.count(), 3);
        let mut keys = Vec::new();
        a.for_each(|_, _, k, _| keys.push(k.to_vec())).unwrap();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn insert_into_memtable() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.delete(b"gone");
        b.set_sequence(10);
        let mem = MemTable::new(1);
        b.insert_into(&mem).unwrap();
        assert_eq!(mem.get(b"k", 100), LookupResult::Found(b"v".to_vec()));
        assert_eq!(mem.get(b"gone", 100), LookupResult::Deleted);
    }

    #[test]
    fn clear_resets() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.rep.len(), 12);
    }
}
