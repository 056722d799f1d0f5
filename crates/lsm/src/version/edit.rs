//! Version edits: the records appended to the MANIFEST.

use std::fmt;
use std::sync::{Arc, OnceLock};

use shield_crypto::DekId;

use crate::error::{Error, Result};
use crate::sst::Table;
use crate::types::user_key_cmp;
use crate::version::table_cache::TableCache;
use crate::varint::{
    get_length_prefixed, get_varint32, get_varint64, put_length_prefixed, put_varint32,
    put_varint64,
};

/// Metadata for one SST file tracked by the version system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// File number (names the `.sst` file).
    pub number: u64,
    /// Size in bytes (logical, pre-encryption-header).
    pub file_size: u64,
    /// Smallest internal key in the file.
    pub smallest: Vec<u8>,
    /// Largest internal key in the file.
    pub largest: Vec<u8>,
    /// DEK protecting the file, if encrypted — duplicated here (as in the
    /// paper's LSM-KVS metadata embedding) so the version state alone is
    /// enough to prefetch DEKs for, e.g., offloaded compaction.
    pub dek_id: Option<DekId>,
    /// The file's open table once anyone opened it — shared by every
    /// clone of this meta, so by every version that lists the file. Not
    /// persisted and not compared.
    pub table: TableSlot,
}

/// Where a file's open [`Table`] lives: one slot per file, shared by
/// every clone of its [`FileMeta`] (RocksDB keeps its table reader in
/// `FileMetaData` the same way when `max_open_files = -1`). The table
/// closes when the last version, task or iterator holding the file
/// drops, so a table lives exactly as long as its file is reachable.
#[derive(Clone, Default)]
pub struct TableSlot(Arc<OnceLock<Arc<Table>>>);

impl TableSlot {
    /// A slot holding `table`: a flush or compaction output, opened on the
    /// background thread right after it was built.
    #[must_use]
    pub fn holding(table: Arc<Table>) -> Self {
        TableSlot(Arc::new(OnceLock::from(table)))
    }

    /// The open table, if the file has been opened.
    #[must_use]
    pub fn get(&self) -> Option<&Arc<Table>> {
        self.0.get()
    }
}

/// An open table is not metadata: two metas describing the same file are
/// equal whether or not either has been opened.
impl PartialEq for TableSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for TableSlot {}

impl fmt::Debug for TableSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.get().is_some() { "open" } else { "closed" })
    }
}

impl FileMeta {
    /// The file's table, opened through `tables` on first use and kept
    /// in the slot for every later reader. A failed open caches nothing,
    /// so the next reader retries it (a replica that lost a race with the
    /// primary's file GC catches up and retries). Two first readers may
    /// both open; one table wins the slot and the other is dropped.
    pub fn table(&self, tables: &TableCache) -> Result<&Arc<Table>> {
        if let Some(table) = self.table.get() {
            return Ok(table);
        }
        let table = tables.open(self.number)?;
        Ok(self.table.0.get_or_init(|| table))
    }

    /// The metadata alone, without the open table: what another server
    /// (an offloaded compactor) receives, to open the file its own way.
    #[must_use]
    pub fn detached(&self) -> FileMeta {
        FileMeta { table: TableSlot::default(), ..self.clone() }
    }

    /// Smallest user key.
    #[must_use]
    pub fn smallest_user_key(&self) -> &[u8] {
        crate::types::extract_user_key(&self.smallest)
    }

    /// Largest user key.
    #[must_use]
    pub fn largest_user_key(&self) -> &[u8] {
        crate::types::extract_user_key(&self.largest)
    }

    /// True if `user_key` lies within the file's key range.
    #[inline]
    #[must_use]
    pub fn covers(&self, user_key: &[u8]) -> bool {
        user_key_cmp(user_key, self.smallest_user_key()).is_ge()
            && user_key_cmp(user_key, self.largest_user_key()).is_le()
    }

    /// True if every key of the file sorts before `user_key`: the
    /// predicate a sorted level's `partition_point` finds a key's one
    /// candidate file with.
    #[inline]
    #[must_use]
    pub fn ends_before(&self, user_key: &[u8]) -> bool {
        user_key_cmp(self.largest_user_key(), user_key).is_lt()
    }
}

const TAG_LOG_NUMBER: u32 = 1;
const TAG_NEXT_FILE: u32 = 2;
const TAG_LAST_SEQ: u32 = 3;
const TAG_DELETED_FILE: u32 = 4;
const TAG_NEW_FILE: u32 = 5;

/// A delta applied to the version state, persisted in the MANIFEST.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionEdit {
    /// New active WAL number (older WALs are obsolete once flushed).
    pub log_number: Option<u64>,
    /// High-water mark for file-number allocation.
    pub next_file_number: Option<u64>,
    /// Last sequence number used.
    pub last_sequence: Option<u64>,
    /// Files removed, as `(level, file_number)`.
    pub deleted_files: Vec<(u32, u64)>,
    /// Files added, as `(level, meta)`.
    pub new_files: Vec<(u32, FileMeta)>,
}

impl VersionEdit {
    /// Serializes the edit.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        if let Some(v) = self.log_number {
            put_varint32(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint32(&mut out, TAG_NEXT_FILE);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint32(&mut out, TAG_LAST_SEQ);
            put_varint64(&mut out, v);
        }
        for (level, number) in &self.deleted_files {
            put_varint32(&mut out, TAG_DELETED_FILE);
            put_varint32(&mut out, *level);
            put_varint64(&mut out, *number);
        }
        for (level, meta) in &self.new_files {
            put_varint32(&mut out, TAG_NEW_FILE);
            put_varint32(&mut out, *level);
            put_varint64(&mut out, meta.number);
            put_varint64(&mut out, meta.file_size);
            put_length_prefixed(&mut out, &meta.smallest);
            put_length_prefixed(&mut out, &meta.largest);
            match meta.dek_id {
                Some(id) => {
                    out.push(1);
                    out.extend_from_slice(&id.to_bytes());
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Parses an edit.
    pub fn decode(mut data: &[u8]) -> Result<VersionEdit> {
        let corrupt = |m: &str| Error::Corruption(format!("version edit: {m}"));
        let mut edit = VersionEdit::default();
        while !data.is_empty() {
            let (tag, n) = get_varint32(data).ok_or_else(|| corrupt("bad tag"))?;
            data = &data[n..];
            match tag {
                TAG_LOG_NUMBER | TAG_NEXT_FILE | TAG_LAST_SEQ => {
                    let (v, n) = get_varint64(data).ok_or_else(|| corrupt("bad u64"))?;
                    data = &data[n..];
                    match tag {
                        TAG_LOG_NUMBER => edit.log_number = Some(v),
                        TAG_NEXT_FILE => edit.next_file_number = Some(v),
                        _ => edit.last_sequence = Some(v),
                    }
                }
                TAG_DELETED_FILE => {
                    let (level, n) = get_varint32(data).ok_or_else(|| corrupt("bad level"))?;
                    data = &data[n..];
                    let (number, n) = get_varint64(data).ok_or_else(|| corrupt("bad number"))?;
                    data = &data[n..];
                    edit.deleted_files.push((level, number));
                }
                TAG_NEW_FILE => {
                    let (level, n) = get_varint32(data).ok_or_else(|| corrupt("bad level"))?;
                    data = &data[n..];
                    let (number, n) = get_varint64(data).ok_or_else(|| corrupt("bad number"))?;
                    data = &data[n..];
                    let (file_size, n) =
                        get_varint64(data).ok_or_else(|| corrupt("bad size"))?;
                    data = &data[n..];
                    let (smallest, n) =
                        get_length_prefixed(data).ok_or_else(|| corrupt("bad smallest"))?;
                    let smallest = smallest.to_vec();
                    data = &data[n..];
                    let (largest, n) =
                        get_length_prefixed(data).ok_or_else(|| corrupt("bad largest"))?;
                    let largest = largest.to_vec();
                    data = &data[n..];
                    let dek_id = match data.first() {
                        Some(0) => {
                            data = &data[1..];
                            None
                        }
                        Some(1) => {
                            if data.len() < 17 {
                                return Err(corrupt("truncated dek id"));
                            }
                            let id = DekId::from_bytes(data[1..17].try_into().unwrap());
                            data = &data[17..];
                            Some(id)
                        }
                        _ => return Err(corrupt("bad dek flag")),
                    };
                    edit.new_files.push((
                        level,
                        FileMeta {
                            number,
                            file_size,
                            smallest,
                            largest,
                            dek_id,
                            table: TableSlot::default(),
                        },
                    ));
                }
                other => return Err(corrupt(&format!("unknown tag {other}"))),
            }
        }
        Ok(edit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};

    fn sample_meta(number: u64) -> FileMeta {
        FileMeta {
            number,
            file_size: 4096,
            smallest: make_internal_key(b"aaa", 5, ValueType::Value),
            largest: make_internal_key(b"zzz", 90, ValueType::Value),
            dek_id: Some(DekId(number as u128 * 7)),
            table: TableSlot::default(),
        }
    }

    #[test]
    fn roundtrip_full_edit() {
        let edit = VersionEdit {
            log_number: Some(12),
            next_file_number: Some(44),
            last_sequence: Some(99_999),
            deleted_files: vec![(0, 3), (1, 8)],
            new_files: vec![(0, sample_meta(10)), (2, sample_meta(11))],
        };
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
    }

    #[test]
    fn roundtrip_empty_and_partial() {
        let edit = VersionEdit::default();
        assert_eq!(VersionEdit::decode(&edit.encode()).unwrap(), edit);
        let edit = VersionEdit { last_sequence: Some(5), ..VersionEdit::default() };
        assert_eq!(VersionEdit::decode(&edit.encode()).unwrap(), edit);
    }

    #[test]
    fn plaintext_file_meta() {
        let meta = FileMeta { dek_id: None, ..sample_meta(1) };
        let edit = VersionEdit { new_files: vec![(3, meta)], ..VersionEdit::default() };
        assert_eq!(VersionEdit::decode(&edit.encode()).unwrap(), edit);
    }

    #[test]
    fn truncated_edit_rejected() {
        let edit = VersionEdit { new_files: vec![(0, sample_meta(1))], ..VersionEdit::default() };
        let enc = edit.encode();
        assert!(VersionEdit::decode(&enc[..enc.len() - 5]).is_err());
    }

    #[test]
    fn user_key_accessors() {
        let m = sample_meta(1);
        assert_eq!(m.smallest_user_key(), b"aaa");
        assert_eq!(m.largest_user_key(), b"zzz");
    }
}
