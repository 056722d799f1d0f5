//! The in-memory write buffer: an arena skiplist over distinct user keys,
//! in the LevelDB/RocksDB tradition. Each key heads a newest-first chain
//! of its versions, and a hash index maps a user key to its key node.
//!
//! **Records** are 8-byte aligned, bump-allocated from 64 KiB chunks the
//! table owns. A key's first insert writes its key node; each later
//! version of the key is a version record alone, with no tower:
//!
//! ```text
//! key node  KeyNode { versions, hash_next, hash: u32, height: u32 }  24-byte #[repr(C)] header
//!           [AtomicPtr<KeyNode>; height]                          the tower, level 0 first
//!           the key's first version
//! version   Version { older, key_len: u32, value_len: u32 }       16-byte #[repr(C)] header
//!           user_key ++ fixed64le((seq << 8) | type)              the internal key
//!           value                                                 (empty for a tombstone)
//! ```
//!
//! A skiplist hop compares the user key of the key node's first version.
//! `versions` points at the newest version, each `older` at the next, and
//! the oldest's back at the key node (`step`): tags strictly descend
//! along a chain. A record over a quarter chunk gets an allocation of its
//! own, and no chunk exists before the first insert. Chunks are freed with
//! the last `Arc<Inner>`, so a held iterator stays valid after a flush.
//!
//! **The index** is a bucket array, one bucket per `BYTES_PER_BUCKET`
//! bytes of the tree's `write_buffer_size` rounded down to a power of two,
//! allocated in the arena on the first insert. Every key node is on its
//! bucket's chain of `hash_next` links, so a walk finds the key's node or
//! ends: the key is absent. The hash is a multiply-mix keyed per table
//! from the standard library's random `RandomState`, so a client cannot
//! aim keys at one chain; its upper 32 bits pick the bucket and the node
//! keeps the lower 32, compared before any key byte.
//!
//! **`get`** finds the key node and walks its versions to the first at or
//! below the read sequence, counting those it walks past
//! (`PerfCounter::MemtableVersionsWalked`). **`add`** takes one mutex (the
//! height RNG and the arena). A present key's version is stored at its
//! place in tag order with one `Release` store, so an older version that
//! a WAL replay inserts late needs no case of its own; an exact duplicate,
//! which only a replay makes, is dropped. A new key takes one descent: its
//! record is written whole and only then linked, bottom up, and pushed
//! onto its bucket, each with `Release`. Readers never lock.
//!
//! **Memory charge.** Each insert, with one height drawn per insert, is
//! charged `varint(ikey_len) + ikey_len + varint(value_len) + value_len +
//! 48 + 8·height`: the earlier boxed-node table's cost, frozen because
//! `write_buffer_size` is compared against it, so it places every flush.
//! A key node's record is at least 3 bytes under its charge and a
//! version's at least 35; the bucket array, at most `write_buffer_size /
//! 16`, comes on top.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cmp::Ordering;
use std::hash::BuildHasher;
use std::mem::{offset_of, size_of};
use std::ptr::{self, null, null_mut, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering as AtomicOrd};
use std::sync::Arc;

use parking_lot::Mutex;
use shield_core::{perf, PerfCounter};

use crate::types::{pack_seq_type, unpack_seq_type, user_key_cmp, SequenceNumber, ValueType};
use crate::varint::fixed;

const MAX_HEIGHT: usize = 12;
const BRANCHING: u64 = 4;
/// The height RNG's seed in every table.
const HEIGHT_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Bytes per arena chunk.
const CHUNK: usize = 64 << 10;
/// A record above this size gets an allocation of its own.
const OWN_ALLOCATION: usize = CHUNK / 4;
/// Bytes charged per entry on top of its length-prefixed key and value and
/// its tower: the size of the boxed node the table used before it became
/// an arena. Frozen so that flush points do not move (module docs).
const LEGACY_NODE_CHARGE: usize = 48;
/// Bytes of `write_buffer_size` per index bucket (before rounding the
/// count down to a power of two): the bucket array is at most a sixteenth
/// of the budget.
const BYTES_PER_BUCKET: usize = 128;
/// Cap on the bucket count's log2 (a 128 MiB array, at a 2 GiB budget).
const MAX_BUCKET_BITS: u32 = 24;
/// The `write_buffer_size` a table made by [`MemTable::new`] is sized
/// for: the engine's default.
const DEFAULT_WRITE_BUFFER: usize = 4 << 20;

/// The header of a key node: one distinct user key in the skiplist. Its
/// tower and its first version follow it in the same allocation.
#[repr(C, align(8))]
struct KeyNode {
    /// The key's newest version (null only in the head).
    versions: AtomicPtr<Version>,
    /// The next key node of this node's bucket chain.
    hash_next: AtomicPtr<KeyNode>,
    /// The lower 32 bits of the user key's index hash (0 in the head).
    hash: u32,
    height: u32,
}

/// The header of one version of a key. Its internal key and value follow
/// it in the same allocation.
#[repr(C, align(8))]
struct Version {
    /// The next older version of the same key or, from the key's oldest
    /// version, the key node, tagged (`step`).
    older: AtomicPtr<Version>,
    key_len: u32,
    value_len: u32,
}

/// The head node: a header whose full-height tower follows it, as in a
/// key node, and no version.
#[repr(C)]
struct Head {
    node: KeyNode,
    tower: [AtomicPtr<KeyNode>; MAX_HEIGHT],
}

const _: () = assert!(offset_of!(Head, tower) == size_of::<KeyNode>());

impl KeyNode {
    /// Bytes of a key node's header and a `height`-slot tower.
    fn len(height: usize) -> usize {
        size_of::<KeyNode>() + height * size_of::<AtomicPtr<KeyNode>>()
    }

    fn tower(&self) -> &[AtomicPtr<KeyNode>] {
        // SAFETY: every `KeyNode` heads a record (`Head`, or one written
        // by `MemTable::add`) whose `height` initialized tower slots follow
        // the header at 8-byte alignment.
        unsafe {
            std::slice::from_raw_parts(
                ptr::from_ref(self).add(1).cast::<AtomicPtr<KeyNode>>(),
                self.height as usize,
            )
        }
    }

    /// The successor at `level`, if any.
    fn next(&self, level: usize) -> Option<&KeyNode> {
        follow(self.tower()[level].load(AtomicOrd::Acquire))
    }

    /// The key's first version, in the node's own record (not the head's).
    fn first(&self) -> &Version {
        let offset = KeyNode::len(self.height as usize);
        // SAFETY: a key node other than the head is a record written by
        // `MemTable::add`, whose first version follows the tower and was
        // written before the node was linked.
        unsafe { &*ptr::from_ref(self).cast::<u8>().add(offset).cast::<Version>() }
    }

    /// The first link of a seek for `tag` into the key's versions: the
    /// versions ahead of the key's first are all newer than it, so a `tag`
    /// below the first's starts past them (a scan stepping past a key).
    fn seek_link(&self, tag: u64) -> &AtomicPtr<Version> {
        let first = self.first();
        if first.tag() > tag { &first.older } else { &self.versions }
    }

    /// The link a version tagged `tag` is stored into: the first in the
    /// chain from `versions` whose target is older, or none if the chain
    /// holds `tag` already. Runs under the insert mutex.
    fn link_for(&self, tag: u64) -> Option<&AtomicPtr<Version>> {
        let mut link = &self.versions;
        while let Ok(version) = step(link) {
            match version.tag().cmp(&tag) {
                Ordering::Greater => link = &version.older,
                Ordering::Equal => return None,
                Ordering::Less => break,
            }
        }
        Some(link)
    }
}

/// The versions from the one `link` points at, newest first.
fn chain(link: &AtomicPtr<Version>) -> impl Iterator<Item = &Version> {
    std::iter::successors(step(link).ok(), |version| step(&version.older).ok())
}

impl Version {
    /// The internal key and the value.
    fn entry(&self) -> (&[u8], &[u8]) {
        // SAFETY: `key_len` key bytes and then `value_len` value bytes
        // follow the header in the same record and were written before the
        // version was linked.
        let bytes = unsafe {
            std::slice::from_raw_parts(
                ptr::from_ref(self).add(1).cast::<u8>(),
                self.key_len as usize + self.value_len as usize,
            )
        };
        bytes.split_at(self.key_len as usize)
    }

    fn user_key(&self) -> &[u8] {
        split_internal_key(self.entry().0).0
    }

    fn tag(&self) -> u64 {
        split_internal_key(self.entry().0).1
    }
}

/// The key node a skiplist or bucket link points at, if any.
fn follow<'a>(link: *mut KeyNode) -> Option<&'a KeyNode> {
    // SAFETY: a non-null link was stored with `Release` by `MemTable::add`
    // after its record was complete (and loaded with `Acquire`, or by the
    // writer that stored it), and every record lives as long as the
    // table's `Inner`, which the caller borrows.
    unsafe { link.as_ref() }
}

/// Where a chain link leads: the next older version, or, past a key's
/// oldest version, back to its key node. That link holds the node's
/// address with the low bit set (records are 8-byte aligned), so a walk
/// that runs off a chain knows which key comes next.
fn step(link: &AtomicPtr<Version>) -> Result<&Version, &KeyNode> {
    let target = link.load(AtomicOrd::Acquire);
    // SAFETY: a chain link is never null; `MemTable::add` stored it, with
    // `Release` once linked, after its target was complete, and every
    // record lives as long as the table's `Inner`, which the caller
    // borrows. A tagged link is a key node's address plus one.
    unsafe {
        if target.addr() & 1 == 0 {
            Ok(&*target)
        } else {
            Err(&*target.map_addr(|addr| addr & !1).cast::<KeyNode>())
        }
    }
}

/// Splits an internal key into its user key and trailer tag.
fn split_internal_key(ikey: &[u8]) -> (&[u8], u64) {
    debug_assert!(ikey.len() >= 8, "internal key too short");
    let (user_key, trailer) = ikey.split_at(ikey.len() - 8);
    (user_key, u64::from_le_bytes(fixed(trailer)))
}

/// Bytes of a LEB128 varint of `v`.
fn varint_len(mut v: usize) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// The 64-bit halves of the 128-bit product, folded together.
fn fold_mul(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The index hash of `key` under the table's `seed`: one folded multiply
/// per 8 bytes of key (the last word zero-padded, the length mixed in
/// first), then one more to spread every input bit over the result.
fn index_hash(seed: [u64; 2], key: &[u8]) -> u64 {
    let mut h = seed[0] ^ key.len() as u64;
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        h = fold_mul(h ^ u64::from_le_bytes(fixed(word)), seed[1]);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = fold_mul(h ^ u64::from_le_bytes(word), seed[1]);
    }
    fold_mul(h, seed[0] ^ seed[1])
}

/// The bucket of a key whose index hash is `hash`: its upper 32 bits.
fn bucket(buckets: &[AtomicPtr<KeyNode>], hash: u64) -> &AtomicPtr<KeyNode> {
    &buckets[(hash >> 32) as usize & (buckets.len() - 1)]
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

/// Bump allocator over 64 KiB chunks; frees every block when it drops.
struct Arena {
    /// Every block handed out by the allocator: start and length.
    blocks: Vec<(NonNull<u8>, usize)>,
    /// Next free byte of the current chunk.
    cursor: *mut u8,
    /// Bytes left in the current chunk.
    left: usize,
}

// SAFETY: the arena exclusively owns its blocks; its raw pointers are
// addresses of memory that only it frees, so it may move between threads.
unsafe impl Send for Arena {}

impl Arena {
    /// Returns `len` bytes (rounded up to 8), 8-byte aligned and unused.
    fn alloc(&mut self, len: usize) -> NonNull<u8> {
        let len = len.next_multiple_of(8);
        if len > OWN_ALLOCATION {
            return self.block(len, alloc);
        }
        if len > self.left {
            self.cursor = self.block(CHUNK, alloc).as_ptr();
            self.left = CHUNK;
        }
        // SAFETY: the cursor is non-null once a chunk exists, which the
        // branch above guarantees, and `len <= left` keeps `cursor + len`
        // inside the current chunk.
        let (record, cursor) =
            unsafe { (NonNull::new_unchecked(self.cursor), self.cursor.add(len)) };
        self.cursor = cursor;
        self.left -= len;
        record
    }

    /// A block of its own, from `allocate` (`alloc`, or `alloc_zeroed`
    /// for the bucket array).
    fn block(&mut self, len: usize, allocate: unsafe fn(Layout) -> *mut u8) -> NonNull<u8> {
        let layout = Layout::from_size_align(len, 8).expect("arena block fits the address space");
        // SAFETY: `len` is at least one record header or one bucket, so
        // the layout is not zero-sized.
        let block = unsafe { allocate(layout) };
        let Some(block) = NonNull::new(block) else { handle_alloc_error(layout) };
        self.blocks.push((block, len));
        block
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for &(block, len) in &self.blocks {
            // SAFETY: `block` came from `alloc` or `alloc_zeroed` with this
            // size and alignment in `Arena::block` and is freed once, here.
            unsafe { dealloc(block.as_ptr(), Layout::from_size_align_unchecked(len, 8)) };
        }
    }
}

/// What the insert mutex guards.
struct Writer {
    rng: u64,
    arena: Arena,
}

impl Writer {
    /// Random height with 1/BRANCHING decay (xorshift; seeded per table).
    fn random_height(&mut self) -> usize {
        let mut height = 1usize;
        while height < MAX_HEIGHT {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            if self.rng.is_multiple_of(BRANCHING) {
                height += 1;
            } else {
                break;
            }
        }
        height
    }
}

struct Inner {
    head: Box<Head>,
    max_height: AtomicUsize,
    /// The index's bucket array, in the arena; null before the first
    /// insert.
    buckets: AtomicPtr<AtomicPtr<KeyNode>>,
    /// log2 of the bucket count.
    bucket_bits: u32,
    /// The index hash's per-table key.
    seed: [u64; 2],
    writer: Mutex<Writer>,
    mem_usage: AtomicUsize,
    entries: AtomicUsize,
}

/// An immutable-once-full in-memory table of versioned entries.
pub struct MemTable {
    inner: Arc<Inner>,
    /// WAL file number whose records this memtable holds (for recovery
    /// bookkeeping; 0 if none).
    wal_number: u64,
}

impl MemTable {
    /// Creates an empty memtable associated with WAL `wal_number`, its
    /// index sized for the engine's default 4 MiB `write_buffer_size`.
    #[must_use]
    pub fn new(wal_number: u64) -> Self {
        Self::with_write_buffer_size(wal_number, DEFAULT_WRITE_BUFFER)
    }

    /// Creates an empty memtable associated with WAL `wal_number`, its
    /// index sized for a tree that flushes at `write_buffer_size` bytes of
    /// charge (module docs).
    #[must_use]
    pub fn with_write_buffer_size(wal_number: u64, write_buffer_size: usize) -> Self {
        let buckets = (write_buffer_size / BYTES_PER_BUCKET).max(1);
        Self::with_bucket_bits(wal_number, buckets.ilog2().min(MAX_BUCKET_BITS))
    }

    fn with_bucket_bits(wal_number: u64, bucket_bits: u32) -> Self {
        let head = Box::new(Head {
            node: KeyNode {
                versions: AtomicPtr::new(null_mut()),
                hash_next: AtomicPtr::new(null_mut()),
                hash: 0,
                height: MAX_HEIGHT as u32,
            },
            tower: std::array::from_fn(|_| AtomicPtr::new(null_mut())),
        });
        let keys = std::collections::hash_map::RandomState::new();
        MemTable {
            inner: Arc::new(Inner {
                head,
                max_height: AtomicUsize::new(1),
                buckets: AtomicPtr::new(null_mut()),
                bucket_bits,
                seed: [keys.hash_one(0u8), keys.hash_one(1u8) | 1],
                writer: Mutex::new(Writer {
                    rng: HEIGHT_SEED,
                    arena: Arena { blocks: Vec::new(), cursor: null_mut(), left: 0 },
                }),
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
        let tag = pack_seq_type(seq, t);
        let inner: &Inner = &self.inner;
        let hash = index_hash(inner.seed, user_key);
        let mut writer = inner.writer.lock();
        let buckets = match inner.buckets() {
            Some(buckets) => buckets,
            None => inner.allocate_buckets(&mut writer.arena),
        };
        // The link a present key's new version is stored into.
        let link = match inner.find(user_key, hash).map(|node| node.link_for(tag)) {
            Some(None) => return,
            link => link.flatten(),
        };

        let height = writer.random_height();
        let key_len = user_key.len() + 8;
        // A new key's record starts with its key node.
        let before = if link.is_some() { 0 } else { KeyNode::len(height) };
        let record = writer.arena.alloc(before + size_of::<Version>() + key_len + value.len());
        let older = match link {
            Some(link) => link.load(AtomicOrd::Relaxed),
            None => record.as_ptr().map_addr(|addr| addr | 1).cast(),
        };
        // SAFETY: `record` holds that many unused, 8-aligned bytes that no
        // reader can reach until the stores below link them; these writes
        // fill the version's part (header, key, value).
        let version = unsafe {
            let version = record.as_ptr().add(before).cast::<Version>();
            version.write(Version {
                older: AtomicPtr::new(older),
                key_len: u32::try_from(key_len).expect("memtable key under 4 GiB"),
                value_len: u32::try_from(value.len()).expect("memtable value under 4 GiB"),
            });
            let key = version.add(1).cast::<u8>();
            ptr::copy_nonoverlapping(user_key.as_ptr(), key, user_key.len());
            ptr::copy_nonoverlapping(tag.to_le_bytes().as_ptr(), key.add(user_key.len()), 8);
            ptr::copy_nonoverlapping(value.as_ptr(), key.add(key_len), value.len());
            version
        };
        if let Some(link) = link {
            link.store(version, AtomicOrd::Release);
        } else {
            let mut prev = [inner.head(); MAX_HEIGHT];
            inner.find_greater_or_equal(user_key, Some(&mut prev));
            let node = record.as_ptr().cast::<KeyNode>();
            let bucket = bucket(buckets, hash);
            // SAFETY: the record's first `before` bytes are unused and equally
            // unreachable; these writes fill them (header, `height` slots).
            unsafe {
                node.write(KeyNode {
                    versions: AtomicPtr::new(version),
                    hash_next: AtomicPtr::new(bucket.load(AtomicOrd::Relaxed)),
                    hash: hash as u32,
                    height: height as u32,
                });
                let tower = node.add(1).cast::<AtomicPtr<KeyNode>>();
                for (level, before) in prev.iter().take(height).enumerate() {
                    let succ = before.tower()[level].load(AtomicOrd::Relaxed);
                    tower.add(level).write(AtomicPtr::new(succ));
                }
            }
            if inner.max_height.load(AtomicOrd::Relaxed) < height {
                inner.max_height.store(height, AtomicOrd::Relaxed);
            }
            for (level, before) in prev.iter().take(height).enumerate() {
                before.tower()[level].store(node, AtomicOrd::Release);
            }
            bucket.store(node, AtomicOrd::Release);
        }
        drop(writer);
        let charge = varint_len(key_len)
            + key_len
            + varint_len(value.len())
            + value.len()
            + LEGACY_NODE_CHARGE
            + height * 8;
        inner.mem_usage.fetch_add(charge, AtomicOrd::Relaxed);
        inner.entries.fetch_add(1, AtomicOrd::Relaxed);
    }

    /// Point lookup at read sequence `seq`.
    #[must_use]
    pub fn get(&self, user_key: &[u8], seq: SequenceNumber) -> LookupResult {
        // The lookup tag: type 0xff sorts first among entries at `seq`, so
        // every entry with sequence <= `seq` has a tag at or below it.
        let lookup = (seq << 8) | 0xff;
        let inner: &Inner = &self.inner;
        let Some(node) = inner.find(user_key, index_hash(inner.seed, user_key)) else {
            return LookupResult::NotFound;
        };
        let mut walked = 0;
        let visible = chain(&node.versions).find(|version| {
            let newer = version.tag() > lookup;
            walked += u64::from(newer);
            !newer
        });
        if walked > 0 {
            perf::incr(PerfCounter::MemtableVersionsWalked, walked);
        }
        match visible.map(|version| (unpack_seq_type(version.tag()).1, version.entry().1)) {
            Some((Some(ValueType::Value), value)) => LookupResult::Found(value.to_vec()),
            Some((Some(ValueType::Deletion), _)) => LookupResult::Deleted,
            _ => LookupResult::NotFound,
        }
    }

    /// Approximate bytes of memory consumed (the frozen per-entry charge of
    /// the module docs).
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
        MemTableIterator { inner: self.inner.clone(), version: null() }
    }
}

impl Inner {
    fn head(&self) -> &KeyNode {
        &self.head.node
    }

    /// The bucket array, once the first insert has allocated it.
    fn buckets(&self) -> Option<&[AtomicPtr<KeyNode>]> {
        let buckets = self.buckets.load(AtomicOrd::Acquire);
        // SAFETY: a non-null array was zeroed (every bucket null) and
        // published with `Release` by `allocate_buckets`, holds
        // `1 << bucket_bits` buckets, and lives in the arena as long as
        // `self`.
        (!buckets.is_null())
            .then(|| unsafe { std::slice::from_raw_parts(buckets, 1 << self.bucket_bits) })
    }

    /// Allocates and publishes the bucket array; called under the insert
    /// mutex, whose arena it takes.
    fn allocate_buckets(&self, arena: &mut Arena) -> &[AtomicPtr<KeyNode>] {
        let len = size_of::<AtomicPtr<KeyNode>>() << self.bucket_bits;
        let buckets = arena.block(len, alloc_zeroed).as_ptr().cast::<AtomicPtr<KeyNode>>();
        self.buckets.store(buckets, AtomicOrd::Release);
        self.buckets().expect("just published")
    }

    /// The key node of `user_key`, whose index hash is `hash`, if the
    /// table holds the key. The key compared is the newest version's, the
    /// record a caller reads next, not the first's, a line further on.
    fn find(&self, user_key: &[u8], hash: u64) -> Option<&KeyNode> {
        let mut link = bucket(self.buckets()?, hash);
        loop {
            let node = follow(link.load(AtomicOrd::Acquire))?;
            let newest = step(&node.versions);
            if node.hash == hash as u32 && newest.is_ok_and(|newest| newest.user_key() == user_key) {
                return Some(node);
            }
            link = &node.hash_next;
        }
    }

    /// Finds the first key node whose user key is at or after `user_key`;
    /// optionally records the predecessor at every level into `prev`.
    fn find_greater_or_equal<'a>(
        &'a self,
        user_key: &[u8],
        mut prev: Option<&mut [&'a KeyNode; MAX_HEIGHT]>,
    ) -> Option<&'a KeyNode> {
        let mut level = self.max_height.load(AtomicOrd::Relaxed) - 1;
        let mut node = self.head();
        loop {
            match node.next(level) {
                Some(next) if user_key_cmp(next.first().user_key(), user_key).is_lt() => node = next,
                next => {
                    if let Some(p) = prev.as_deref_mut() {
                        p[level] = node;
                    }
                    if level == 0 {
                        return next;
                    }
                    level -= 1;
                }
            }
        }
    }
}

/// Iterator over a memtable's entries in internal-key order: user key
/// ascending, and each key's versions newest first.
///
/// Holds an `Arc` to the table internals, so it remains valid even if the
/// `MemTable` handle is dropped (e.g. during flush).
pub struct MemTableIterator {
    inner: Arc<Inner>,
    /// The current entry, or null when not positioned on one.
    version: *const Version,
}

/// The newest version of `node`, or null.
fn newest(node: Option<&KeyNode>) -> *const Version {
    node.and_then(|node| step(&node.versions).ok()).map_or(null(), ptr::from_ref)
}

// SAFETY: `version` points into records owned by `inner`, which the
// iterator keeps alive, and a record's bytes never change once linked.
unsafe impl Send for MemTableIterator {}

impl MemTableIterator {
    fn current(&self) -> &Version {
        debug_assert!(self.valid());
        // SAFETY: `version` is a non-null record of `inner` (callers check
        // `valid`), kept alive by the iterator's `Arc`.
        unsafe { &*self.version }
    }

    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        !self.version.is_null()
    }

    /// Positions on the first entry.
    pub fn seek_to_first(&mut self) {
        self.version = newest(self.inner.head().next(0));
    }

    /// Positions on the first entry with internal key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        let (user_key, tag) = split_internal_key(target);
        self.version = match self.inner.find_greater_or_equal(user_key, None) {
            Some(node) if node.first().user_key() == user_key => {
                match chain(node.seek_link(tag)).find(|version| version.tag() <= tag) {
                    Some(version) => ptr::from_ref(version),
                    None => newest(node.next(0)),
                }
            }
            node => newest(node),
        };
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        self.version = match step(&self.current().older) {
            Ok(older) => ptr::from_ref(older),
            Err(node) => newest(node.next(0)),
        };
    }

    /// The current internal key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        self.current().entry().0
    }

    /// The current value (empty for tombstones).
    #[must_use]
    pub fn value(&self) -> &[u8] {
        self.current().entry().1
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::Barrier;

    use proptest::prelude::*;
    use shield_core::PerfGuard;

    use super::*;
    use crate::types::{
        extract_seq_type, extract_user_key, internal_key_cmp, make_internal_key, make_lookup_key,
    };

    /// Every entry's (user key, sequence) in iteration order.
    fn entries(mt: &MemTable) -> Vec<(Vec<u8>, u64)> {
        let mut it = mt.iter();
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push((extract_user_key(it.key()).to_vec(), extract_seq_type(it.key()).0));
            it.next();
        }
        seen
    }

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

    /// The value written for `(user_key, seq)`: its length varies, so
    /// records straddle differently, and a value read from the wrong
    /// record or offset does not match.
    fn value_for(user_key: &[u8], seq: u64) -> Vec<u8> {
        let mut v = user_key.to_vec();
        v.extend_from_slice(&seq.to_le_bytes()[..1 + (seq % 8) as usize]);
        v
    }

    /// Writer `w`'s `op`-th insert in [`concurrent_reads_during_writes`]:
    /// its key index and sequence. Each writer cycles through its own
    /// `KEYS / WRITERS` keys, so every key is rewritten once a cycle, and
    /// the two writers' sequences interleave.
    fn rewrite_schedule(writer: u32, op: u32) -> (u32, u64) {
        const WRITERS: u32 = 2;
        const PER_WRITER: u32 = 2_048;
        (writer + WRITERS * (op % PER_WRITER), u64::from(WRITERS * op + writer) + 1)
    }

    fn scattered_key(index: u32) -> [u8; 4] {
        index.wrapping_mul(2_654_435_761).to_be_bytes()
    }

    /// Two writers insert and then rewrite their keys (each rewrite a
    /// version stored at the head of its key's chain) while one reader
    /// iterates and two readers `get`. A getter reads a key at its
    /// writer's published sequence, or below it (where it walks past
    /// newer versions), and must see exactly the newest version at or
    /// below that sequence.
    #[test]
    fn concurrent_reads_during_writes() {
        const OPS: u32 = 50_000;
        const GETTERS: usize = 2;
        let mt = MemTable::new(1);
        let start = Barrier::new(GETTERS + 4);
        let done = AtomicBool::new(false);
        // Ops each writer has completed.
        let published = [AtomicU32::new(0), AtomicU32::new(0)];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                loop {
                    // Read the flag first: a pass that starts after the
                    // writers finished sees every entry.
                    let last = done.load(AtomicOrd::Acquire);
                    let mut it = mt.iter();
                    it.seek_to_first();
                    let mut prev: Option<Vec<u8>> = None;
                    let mut seen = 0u32;
                    while it.valid() {
                        let k = it.key();
                        if let Some(p) = &prev {
                            assert_eq!(internal_key_cmp(p, k), Ordering::Less);
                        }
                        let (seq, _) = extract_seq_type(k);
                        assert_eq!(it.value(), value_for(extract_user_key(k), seq));
                        prev = Some(k.to_vec());
                        seen += 1;
                        it.next();
                    }
                    if last {
                        assert_eq!(seen, 2 * OPS);
                        return;
                    }
                }
            });
            for getter in 0..GETTERS {
                let (start, done, published, mt) = (&start, &done, &published, &mt);
                scope.spawn(move || {
                    start.wait();
                    let mut rng = 0x2545_f491_4f6c_dd1d_u64 + getter as u64;
                    let mut checked = 0u64;
                    while !done.load(AtomicOrd::Acquire) || checked == 0 {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let writer = (rng % 2) as u32;
                        let ops = published[writer as usize].load(AtomicOrd::Acquire);
                        if ops == 0 {
                            continue;
                        }
                        let (index, newest_seq) = rewrite_schedule(writer, ops - 1);
                        let index = if rng.is_multiple_of(3) { index } else { writer + 2 * ((rng >> 8) as u32 % 2_048) };
                        let read_seq = if rng.is_multiple_of(4) { newest_seq } else { 1 + (rng >> 20) % newest_seq };
                        // The writer's newest op on `index` at or below `read_seq`.
                        let last_op = (read_seq - 1).checked_sub(u64::from(writer)).map(|s| s / 2);
                        let slot = u64::from(index / 2);
                        let want = last_op.filter(|&last| last >= slot).map(|last| {
                            let op = slot + (last - slot) / 2_048 * 2_048;
                            rewrite_schedule(writer, op as u32).1
                        });
                        let key = scattered_key(index);
                        let got = mt.get(&key, read_seq);
                        match want {
                            Some(seq) => assert_eq!(got, LookupResult::Found(value_for(&key, seq))),
                            None => assert_eq!(got, LookupResult::NotFound),
                        }
                        checked += 1;
                    }
                });
            }
            let writers: Vec<_> = (0..2u32)
                .map(|writer| {
                    let (start, published, mt) = (&start, &published, &mt);
                    scope.spawn(move || {
                        start.wait();
                        for op in 0..OPS {
                            let (index, seq) = rewrite_schedule(writer, op);
                            let key = scattered_key(index);
                            mt.add(seq, ValueType::Value, &key, &value_for(&key, seq));
                            published[writer as usize].store(op + 1, AtomicOrd::Release);
                        }
                    })
                })
                .collect();
            start.wait();
            for writer in writers {
                writer.join().expect("writer panicked");
            }
            done.store(true, AtomicOrd::Release);
        });
        assert_eq!(mt.len(), 2 * OPS as usize);
        assert!(mt.inner.writer.lock().arena.blocks.len() >= 3, "the inserts span three chunks");
    }

    #[test]
    fn large_records_get_their_own_block_and_chunks_fill_first() {
        let mt = MemTable::new(1);
        assert!(mt.inner.writer.lock().arena.blocks.is_empty(), "no chunk before the first insert");
        assert!(mt.inner.buckets().is_none(), "no bucket array before the first insert");
        mt.add(1, ValueType::Value, b"small", b"v");
        mt.add(2, ValueType::Value, b"large", &vec![7u8; 20 << 10]);
        mt.add(3, ValueType::Value, b"small2", b"v");
        let sizes: Vec<usize> =
            mt.inner.writer.lock().arena.blocks.iter().map(|&(_, len)| len).collect();
        assert_eq!(sizes.len(), 3);
        // The bucket array: one bucket per 128 B of the default 4 MiB budget.
        assert_eq!(sizes[0], 8 * (DEFAULT_WRITE_BUFFER / BYTES_PER_BUCKET));
        assert_eq!(sizes[1], CHUNK);
        assert!(sizes[2] > OWN_ALLOCATION && sizes[2] < CHUNK);
        assert_eq!(mt.get(b"large", 10), LookupResult::Found(vec![7u8; 20 << 10]));
        assert_eq!(mt.get(b"small2", 10), LookupResult::Found(b"v".to_vec()));
    }

    #[test]
    fn every_level_links_every_node_that_tall() {
        let mt = MemTable::new(1);
        for i in 0..5_000u32 {
            let key = i.wrapping_mul(2_654_435_761).to_be_bytes();
            mt.add(u64::from(i) + 1, ValueType::Value, &key, b"v");
        }
        let head = mt.inner.head();
        let mut tall = [0usize; MAX_HEIGHT];
        let mut node = head.next(0);
        while let Some(n) = node {
            for count in tall.iter_mut().take(n.height as usize) {
                *count += 1;
            }
            node = n.next(0);
        }
        assert!(tall[1] > 0, "no node above level 0");
        for (level, &want) in tall.iter().enumerate() {
            let mut seen = 0;
            let mut node = head.next(level);
            while let Some(n) = node {
                assert!(n.height as usize > level);
                seen += 1;
                node = n.next(level);
            }
            assert_eq!(seen, want, "level {level} skips nodes");
        }
    }

    /// Every insert but a dropped duplicate draws one height from the
    /// table's sequence and is charged `varint(ikey_len) + ikey_len +
    /// varint(value_len) + value_len + 48 + 8 * height`, a rewrite (which
    /// has no tower) as much as a new key.
    #[test]
    fn charge_is_the_legacy_formula() {
        let mt = MemTable::new(1);
        let mut heights = Writer { rng: HEIGHT_SEED, arena: Arena { blocks: Vec::new(), cursor: null_mut(), left: 0 } };
        let first = heights.random_height();
        let mut want = 1 + 11 + 2 + 200 + 48 + 8 * first;
        mt.add(1, ValueType::Value, b"key", &[0u8; 200]);
        assert_eq!(mt.approximate_memory_usage(), want);
        assert_eq!(mt.inner.head().next(0).unwrap().height as usize, first, "the key node's tower");
        for seq in [3, 2] {
            mt.add(seq, ValueType::Value, b"key", &[0u8; 200]);
            want += 1 + 11 + 2 + 200 + 48 + 8 * heights.random_height();
            assert_eq!(mt.approximate_memory_usage(), want, "rewrite at {seq}");
        }
        mt.add(2, ValueType::Value, b"key", &[1u8; 200]);
        assert_eq!(mt.approximate_memory_usage(), want, "a dropped duplicate charges nothing");
        mt.add(4, ValueType::Value, b"other", b"");
        want += 1 + 13 + 1 + 48 + 8 * heights.random_height();
        assert_eq!(mt.approximate_memory_usage(), want, "and draws no height");
    }

    /// One insert: a key from the pool, a sequence, a type and a value
    /// length (about one in 50 a 20 KiB value, past the own-block size).
    fn op() -> impl Strategy<Value = (usize, u64, bool, usize)> {
        (0..64usize, 1..300u64, 0..100u32, 0..=300usize).prop_map(|(key, seq, roll, len)| {
            let len = if roll < 2 { 20 << 10 } else { len };
            (key, seq, roll >= 12, len)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Against a `BTreeMap` keyed like the table (user key ascending,
        /// tag descending): point reads at random sequences of present and
        /// (mostly) absent keys, the whole iteration order and seeks to
        /// random lookup keys. Keys are rewritten, their versions arrive
        /// out of sequence order, some are tombstones, and some inserts
        /// repeat an earlier one exactly. The index has one bucket (every
        /// key in one chain), 8, or the default count.
        #[test]
        fn matches_ordered_oracle(
            bucket_bits in prop_oneof![Just(0u32), Just(3), Just(15)],
            pool in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=40), 64),
            ops in proptest::collection::vec(op(), 1..400),
            readds in proptest::collection::vec(any::<usize>(), 0..40),
            reads in proptest::collection::vec((0..64usize, 0..320u64), 64),
            seeks in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..=40), 0..64usize, any::<bool>(), 0..320u64),
                32,
            ),
        ) {
            let mt = MemTable::with_bucket_bits(1, bucket_bits);
            let mut oracle: BTreeMap<(Vec<u8>, std::cmp::Reverse<u64>), Vec<u8>> = BTreeMap::new();
            let mut add = |i: usize, (key, seq, live, len): (usize, u64, bool, usize)| {
                let t = if live { ValueType::Value } else { ValueType::Deletion };
                let value = if live { vec![i as u8; len] } else { Vec::new() };
                mt.add(seq, t, &pool[key], &value);
                // The first of two equal (key, seq, type) inserts wins.
                oracle
                    .entry((pool[key].clone(), std::cmp::Reverse(pack_seq_type(seq, t))))
                    .or_insert(value);
            };
            for (i, op) in ops.iter().enumerate() {
                add(i, *op);
            }
            // Re-add earlier inserts under a different value.
            for (i, index) in readds.iter().enumerate() {
                add(ops.len() + i, ops[index % ops.len()]);
            }
            prop_assert_eq!(mt.len(), oracle.len());

            let mut it = mt.iter();
            it.seek_to_first();
            for ((key, tag), value) in &oracle {
                prop_assert!(it.valid());
                prop_assert_eq!(it.key(), make_internal_key(key, tag.0 >> 8, ValueType::from_u8(tag.0 as u8).unwrap()));
                prop_assert_eq!(it.value(), &value[..]);
                it.next();
            }
            prop_assert!(!it.valid());

            // Pool keys, then (mostly absent) random ones.
            let reads = reads.iter().map(|&(key, seq)| (&pool[key], seq));
            for (key, seq) in reads.chain(seeks.iter().map(|(random, _, _, seq)| (random, *seq))) {
                let want = oracle
                    .range((key.clone(), std::cmp::Reverse((seq << 8) | 0xff))..)
                    .next()
                    .filter(|((k, _), _)| k == key)
                    .map_or(LookupResult::NotFound, |((_, tag), value)| {
                        if tag.0 & 0xff == ValueType::Value as u64 {
                            LookupResult::Found(value.clone())
                        } else {
                            LookupResult::Deleted
                        }
                    });
                prop_assert_eq!(mt.get(key, seq), want);
            }

            for (random, key, from_pool, seq) in &seeks {
                let key = if *from_pool { &pool[*key] } else { random };
                let target = make_lookup_key(key, *seq);
                let want = oracle.range((key.clone(), std::cmp::Reverse((seq << 8) | 0xff))..).next();
                it.seek(&target);
                match want {
                    Some(((k, tag), value)) => {
                        prop_assert!(it.valid());
                        prop_assert_eq!(extract_user_key(it.key()), &k[..]);
                        prop_assert_eq!(extract_seq_type(it.key()).0, tag.0 >> 8);
                        prop_assert_eq!(it.value(), &value[..]);
                    }
                    None => prop_assert!(!it.valid()),
                }
            }
        }
    }

    /// One key with 10,000 versions: a read at the newest walks past
    /// none, a read at the oldest past all 9,999 others, and the perf
    /// counter records each walk. A seek past every version of the key
    /// (a scan's re-seek) lands on the next key.
    #[test]
    fn one_key_with_ten_thousand_versions() {
        const VERSIONS: u64 = 10_000;
        let mt = MemTable::new(1);
        for seq in 1..=VERSIONS {
            mt.add(seq, ValueType::Value, b"hot", &seq.to_le_bytes());
        }
        let get = |seq: u64| {
            let _perf = PerfGuard::enable();
            let got = mt.get(b"hot", seq);
            (got, perf::take().memtable_versions_walked)
        };
        let found = |seq: u64| LookupResult::Found(seq.to_le_bytes().to_vec());
        assert_eq!(get(VERSIONS), (found(VERSIONS), 0));
        assert_eq!(get(u64::MAX >> 8), (found(VERSIONS), 0));
        assert_eq!(get(1), (found(1), VERSIONS - 1));
        assert_eq!(get(5_000), (found(5_000), VERSIONS - 5_000));
        assert_eq!(get(0), (LookupResult::NotFound, VERSIONS), "older than every version");
        let seqs: Vec<u64> = entries(&mt).into_iter().map(|(_, seq)| seq).collect();
        assert_eq!(seqs, (1..=VERSIONS).rev().collect::<Vec<_>>());
        mt.add(1, ValueType::Value, b"next", b"");
        let mut it = mt.iter();
        it.seek(&make_internal_key(b"hot", 0, ValueType::Deletion));
        assert_eq!(extract_user_key(it.key()), b"next");
    }

    /// A WAL replay can insert an older version after a newer one: it
    /// takes its place in the key's chain, and `get`, the iterator and a
    /// seek all see it.
    #[test]
    fn an_older_version_inserted_after_a_newer_one_is_seen() {
        let mt = MemTable::new(1);
        mt.add(5, ValueType::Value, b"k", b"v5");
        mt.add(9, ValueType::Deletion, b"k", b"");
        mt.add(3, ValueType::Value, b"k", b"v3");
        mt.add(7, ValueType::Value, b"k", b"v7");
        mt.add(1, ValueType::Value, b"j", b"j1");
        assert_eq!(mt.get(b"k", 2), LookupResult::NotFound);
        assert_eq!(mt.get(b"k", 4), LookupResult::Found(b"v3".to_vec()));
        assert_eq!(mt.get(b"k", 6), LookupResult::Found(b"v5".to_vec()));
        assert_eq!(mt.get(b"k", 8), LookupResult::Found(b"v7".to_vec()));
        assert_eq!(mt.get(b"k", 9), LookupResult::Deleted);
        let want = [(b"j", 1), (b"k", 9), (b"k", 7), (b"k", 5), (b"k", 3)];
        assert_eq!(entries(&mt), want.map(|(key, seq)| (key.to_vec(), seq)));
        let mut it = mt.iter();
        it.seek(&make_lookup_key(b"k", 4));
        assert_eq!((extract_seq_type(it.key()).0, it.value()), (3, &b"v3"[..]));
        it.seek(&make_lookup_key(b"k", 2));
        assert!(!it.valid(), "no version of k at or below 2, and no later key");
    }

    #[test]
    fn bucket_count_follows_the_write_buffer() {
        let bits = |budget: usize| MemTable::with_write_buffer_size(0, budget).inner.bucket_bits;
        assert_eq!(bits(4 << 20), 15, "32 Ki buckets for the default 4 MiB");
        assert_eq!(bits((4 << 20) - 1), 14, "rounded down");
        assert_eq!(bits(64 << 20), 19);
        assert_eq!(bits(1 << 10), 3);
        assert_eq!(bits(0), 0, "one bucket: every key in one chain");
        assert_eq!(bits(usize::MAX), MAX_BUCKET_BITS);
    }

    #[test]
    fn empty_value_is_found_not_deleted() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"k", b"");
        assert_eq!(mt.get(b"k", 10), LookupResult::Found(Vec::new()));
    }
}
