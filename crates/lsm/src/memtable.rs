//! The in-memory write buffer: an arena-backed concurrent skiplist, in the
//! LevelDB/RocksDB tradition.
//!
//! Writes are serialized by the database's group-commit leader, so inserts
//! take an internal mutex; readers traverse lock-free over atomic forward
//! pointers (acquire/release). Nodes and entry payloads live in an arena
//! owned by the skiplist and are freed wholesale when the memtable drops,
//! so no per-node reclamation is needed.
//!
//! Entries are stored as `varint32 ikey_len | internal_key | varint32
//! val_len | value`; deletion tombstones have `ValueType::Deletion` in the
//! internal-key trailer and an empty value.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering as AtomicOrd};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::types::{
    extract_seq_type, extract_user_key, internal_key_cmp, make_internal_key, make_lookup_key,
    SequenceNumber, ValueType,
};
use crate::varint::{get_varint32, put_varint32};

const MAX_HEIGHT: usize = 12;
const BRANCHING: u32 = 4;

struct Node {
    /// Pointer into the arena blob for this entry.
    entry: *const u8,
    entry_len: u32,
    /// Offset of the internal key inside the entry blob.
    ikey_off: u8,
    ikey_len: u32,
    next: Vec<AtomicPtr<Node>>,
}

unsafe impl Send for Node {}
unsafe impl Sync for Node {}

impl Node {
    fn ikey(&self) -> &[u8] {
        unsafe {
            std::slice::from_raw_parts(
                self.entry.add(self.ikey_off as usize),
                self.ikey_len as usize,
            )
        }
    }

    fn entry_bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.entry, self.entry_len as usize) }
    }
}

/// Result of a memtable point lookup.
#[derive(Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The key has a live value at the read sequence.
    Found(Vec<u8>),
    /// The key is tombstoned at the read sequence.
    Deleted,
    /// The memtable holds no visible entry for this key.
    NotFound,
}

struct Inner {
    head: Box<Node>,
    max_height: AtomicUsize,
    arena_blobs: Mutex<Vec<Box<[u8]>>>,
    nodes: Mutex<Vec<*mut Node>>,
    insert_lock: Mutex<RandomState>,
    mem_usage: AtomicUsize,
    entries: AtomicUsize,
}

unsafe impl Send for Inner {}
unsafe impl Sync for Inner {}

struct RandomState {
    rng: u64,
}

impl Drop for Inner {
    fn drop(&mut self) {
        for &p in self.nodes.lock().iter() {
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// An immutable-once-full in-memory table of versioned entries.
pub struct MemTable {
    inner: Arc<Inner>,
    /// WAL file number whose records this memtable holds (for recovery
    /// bookkeeping; 0 if none).
    wal_number: u64,
}

impl MemTable {
    /// Creates an empty memtable associated with WAL `wal_number`.
    #[must_use]
    pub fn new(wal_number: u64) -> Self {
        let head = Box::new(Node {
            entry: std::ptr::null(),
            entry_len: 0,
            ikey_off: 0,
            ikey_len: 0,
            next: (0..MAX_HEIGHT).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
        });
        MemTable {
            inner: Arc::new(Inner {
                head,
                max_height: AtomicUsize::new(1),
                arena_blobs: Mutex::new(Vec::new()),
                nodes: Mutex::new(Vec::new()),
                insert_lock: Mutex::new(RandomState { rng: 0x9e37_79b9_7f4a_7c15 }),
                mem_usage: AtomicUsize::new(0),
                entries: AtomicUsize::new(0),
            }),
            wal_number,
        }
    }

    /// The WAL file number backing this memtable.
    #[must_use]
    pub fn wal_number(&self) -> u64 {
        self.wal_number
    }

    /// Inserts a versioned entry.
    pub fn add(&self, seq: SequenceNumber, t: ValueType, user_key: &[u8], value: &[u8]) {
        let ikey = make_internal_key(user_key, seq, t);
        // Entry blob: varint32 ikey_len | ikey | varint32 val_len | value.
        let mut blob = Vec::with_capacity(ikey.len() + value.len() + 10);
        put_varint32(&mut blob, ikey.len() as u32);
        let ikey_off = blob.len() as u8;
        blob.extend_from_slice(&ikey);
        put_varint32(&mut blob, value.len() as u32);
        blob.extend_from_slice(value);
        let blob: Box<[u8]> = blob.into_boxed_slice();
        let entry_ptr = blob.as_ptr();
        let entry_len = blob.len() as u32;

        let mut guard = self.inner.insert_lock.lock();

        let mut prev = [std::ptr::null::<Node>(); MAX_HEIGHT];
        let found = self.inner.find_greater_or_equal(&ikey, Some(&mut prev));
        if !found.is_null()
            && internal_key_cmp(unsafe { &*found }.ikey(), &ikey) == Ordering::Equal
        {
            // An exact duplicate (user key, sequence, type) can only come
            // from replaying the same WAL record twice — whether a benign
            // re-replay or a hostile appended copy. Inserting it would
            // leave two equal internal keys in the table and violate the
            // strict ordering the flush path relies on; keep the first.
            return;
        }

        self.inner.arena_blobs.lock().push(blob);

        // Random height with 1/BRANCHING decay (xorshift; seeded per table).
        let mut height = 1usize;
        while height < MAX_HEIGHT {
            guard.rng ^= guard.rng << 13;
            guard.rng ^= guard.rng >> 7;
            guard.rng ^= guard.rng << 17;
            if guard.rng.is_multiple_of(u64::from(BRANCHING)) {
                height += 1;
            } else {
                break;
            }
        }

        let node = Box::into_raw(Box::new(Node {
            entry: entry_ptr,
            entry_len,
            ikey_off,
            ikey_len: ikey.len() as u32,
            next: (0..height).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
        }));
        self.inner.nodes.lock().push(node);

        if self.inner.max_height.load(AtomicOrd::Relaxed) < height {
            self.inner.max_height.store(height, AtomicOrd::Relaxed);
        }
        for (level, slot) in prev.iter().take(height).enumerate() {
            let prev_node: &Node = if slot.is_null() {
                &self.inner.head
            } else {
                unsafe { &**slot }
            };
            let succ = prev_node.next[level].load(AtomicOrd::Acquire);
            unsafe { (&(*node).next)[level].store(succ, AtomicOrd::Relaxed) };
            prev_node.next[level].store(node, AtomicOrd::Release);
        }
        self.inner
            .mem_usage
            .fetch_add(entry_len as usize + std::mem::size_of::<Node>() + height * 8, AtomicOrd::Relaxed);
        self.inner.entries.fetch_add(1, AtomicOrd::Relaxed);
        drop(guard);
    }

    /// Point lookup at read sequence `seq`.
    #[must_use]
    pub fn get(&self, user_key: &[u8], seq: SequenceNumber) -> LookupResult {
        let lookup = make_lookup_key(user_key, seq);
        let node = self.inner.find_greater_or_equal(&lookup, None);
        if node.is_null() {
            return LookupResult::NotFound;
        }
        let node = unsafe { &*node };
        let ikey = node.ikey();
        if extract_user_key(ikey) != user_key {
            return LookupResult::NotFound;
        }
        let (_, t) = extract_seq_type(ikey);
        match t {
            Some(ValueType::Value) => {
                let entry = node.entry_bytes();
                let after_key = node.ikey_off as usize + node.ikey_len as usize;
                let (vlen, n) = get_varint32(&entry[after_key..]).expect("valid entry");
                let vstart = after_key + n;
                LookupResult::Found(entry[vstart..vstart + vlen as usize].to_vec())
            }
            Some(ValueType::Deletion) => LookupResult::Deleted,
            None => LookupResult::NotFound,
        }
    }

    /// Approximate bytes of memory consumed.
    #[must_use]
    pub fn approximate_memory_usage(&self) -> usize {
        self.inner.mem_usage.load(AtomicOrd::Relaxed)
    }

    /// Number of entries (including tombstones and shadowed versions).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.entries.load(AtomicOrd::Relaxed)
    }

    /// True if no entries have been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An iterator positioned before the first entry.
    #[must_use]
    pub fn iter(&self) -> MemTableIterator {
        MemTableIterator { inner: self.inner.clone(), node: std::ptr::null() }
    }
}

impl Inner {
    /// Finds the first node with internal key >= `target`; optionally
    /// records the predecessor at every level into `prev`.
    fn find_greater_or_equal(
        &self,
        target: &[u8],
        mut prev: Option<&mut [*const Node; MAX_HEIGHT]>,
    ) -> *const Node {
        let mut level = self.max_height.load(AtomicOrd::Relaxed) - 1;
        let mut node: &Node = &self.head;
        loop {
            let next = node.next[level].load(AtomicOrd::Acquire);
            // SAFETY (both derefs of `next`): a non-null link was stored with
            // Release by `MemTable::add` after the node was fully built, and
            // nodes are freed only when `Inner` drops, which `&self` prevents.
            let advance = if next.is_null() {
                false
            } else {
                let next_ref = unsafe { &*next };
                internal_key_cmp(next_ref.ikey(), target) == Ordering::Less
            };
            if advance {
                node = unsafe { &*next };
            } else {
                if let Some(p) = prev.as_deref_mut() {
                    p[level] = if std::ptr::eq(node, &*self.head) {
                        std::ptr::null()
                    } else {
                        node as *const Node
                    };
                }
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }
}

/// Iterator over a memtable's entries in internal-key order.
///
/// Holds an `Arc` to the table internals, so it remains valid even if the
/// `MemTable` handle is dropped (e.g. during flush).
pub struct MemTableIterator {
    inner: Arc<Inner>,
    node: *const Node,
}

unsafe impl Send for MemTableIterator {}

impl MemTableIterator {
    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        !self.node.is_null()
    }

    /// Positions on the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = self.inner.head.next[0].load(AtomicOrd::Acquire);
    }

    /// Positions on the first entry with internal key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        self.node = self.inner.find_greater_or_equal(target, None);
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        debug_assert!(self.valid());
        let node = unsafe { &*self.node };
        self.node = node.next[0].load(AtomicOrd::Acquire);
    }

    /// The current internal key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        unsafe { (*self.node).ikey() }
    }

    /// The current value (empty for tombstones).
    #[must_use]
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        let node = unsafe { &*self.node };
        let entry = node.entry_bytes();
        let after_key = node.ikey_off as usize + node.ikey_len as usize;
        let (vlen, n) = get_varint32(&entry[after_key..]).expect("valid entry");
        let vstart = after_key + n;
        &entry[vstart..vstart + vlen as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"alpha", b"one");
        mt.add(2, ValueType::Value, b"beta", b"two");
        assert_eq!(mt.get(b"alpha", 10), LookupResult::Found(b"one".to_vec()));
        assert_eq!(mt.get(b"beta", 10), LookupResult::Found(b"two".to_vec()));
        assert_eq!(mt.get(b"gamma", 10), LookupResult::NotFound);
        assert_eq!(mt.len(), 2);
    }

    #[test]
    fn duplicate_internal_key_is_idempotent() {
        // A replayed WAL record re-inserts the same (key, seq, type); the
        // table must keep exactly one entry so flush ordering stays strict.
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"k", b"v");
        mt.add(1, ValueType::Value, b"k", b"v");
        assert_eq!(mt.len(), 1);
        assert_eq!(mt.get(b"k", 10), LookupResult::Found(b"v".to_vec()));
        // A different sequence is a distinct version, not a duplicate.
        mt.add(2, ValueType::Value, b"k", b"v2");
        assert_eq!(mt.len(), 2);
    }

    #[test]
    fn versions_and_visibility() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"k", b"v1");
        mt.add(5, ValueType::Value, b"k", b"v5");
        // Read at seq 3 sees v1; at 5+ sees v5; at 0 sees nothing.
        assert_eq!(mt.get(b"k", 3), LookupResult::Found(b"v1".to_vec()));
        assert_eq!(mt.get(b"k", 5), LookupResult::Found(b"v5".to_vec()));
        assert_eq!(mt.get(b"k", 100), LookupResult::Found(b"v5".to_vec()));
        assert_eq!(mt.get(b"k", 0), LookupResult::NotFound);
    }

    #[test]
    fn deletion_shadows() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"k", b"v");
        mt.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mt.get(b"k", 10), LookupResult::Deleted);
        assert_eq!(mt.get(b"k", 1), LookupResult::Found(b"v".to_vec()));
    }

    #[test]
    fn iterator_is_sorted() {
        let mt = MemTable::new(1);
        let keys = [b"d".as_ref(), b"a", b"c", b"b", b"e"];
        for (i, k) in keys.iter().enumerate() {
            mt.add(i as u64 + 1, ValueType::Value, k, b"v");
        }
        let mut it = mt.iter();
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push(extract_user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(seen, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec(), b"e".to_vec()]);
    }

    #[test]
    fn iterator_seek() {
        let mt = MemTable::new(1);
        for k in [b"a".as_ref(), b"c", b"e"] {
            mt.add(1, ValueType::Value, k, b"v");
        }
        let mut it = mt.iter();
        it.seek(&make_lookup_key(b"b", u64::MAX >> 8));
        assert!(it.valid());
        assert_eq!(extract_user_key(it.key()), b"c");
        it.seek(&make_lookup_key(b"z", u64::MAX >> 8));
        assert!(!it.valid());
    }

    #[test]
    fn same_key_versions_newest_first() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"k", b"old");
        mt.add(9, ValueType::Value, b"k", b"new");
        let mut it = mt.iter();
        it.seek_to_first();
        assert_eq!(it.value(), b"new");
        it.next();
        assert_eq!(it.value(), b"old");
        it.next();
        assert!(!it.valid());
    }

    #[test]
    fn memory_usage_grows() {
        let mt = MemTable::new(1);
        let before = mt.approximate_memory_usage();
        mt.add(1, ValueType::Value, b"key", &vec![0u8; 1000]);
        assert!(mt.approximate_memory_usage() >= before + 1000);
    }

    #[test]
    fn concurrent_reads_during_writes() {
        let mt = Arc::new(MemTable::new(1));
        let writer = {
            let mt = mt.clone();
            std::thread::spawn(move || {
                for i in 0..2000u32 {
                    mt.add(u64::from(i) + 1, ValueType::Value, &i.to_be_bytes(), b"v");
                }
            })
        };
        // Readers should never crash or see torn data.
        for _ in 0..4 {
            let mut it = mt.iter();
            it.seek_to_first();
            let mut prev: Option<Vec<u8>> = None;
            while it.valid() {
                let k = it.key().to_vec();
                if let Some(p) = &prev {
                    assert_ne!(internal_key_cmp(p, &k), Ordering::Greater);
                }
                prev = Some(k);
                it.next();
            }
        }
        writer.join().unwrap();
        assert_eq!(mt.len(), 2000);
    }

    #[test]
    fn empty_value_is_found_not_deleted() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"k", b"");
        assert_eq!(mt.get(b"k", 10), LookupResult::Found(Vec::new()));
    }
}
