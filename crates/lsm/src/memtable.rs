//! The in-memory write buffer: an arena skiplist, in the LevelDB/RocksDB
//! tradition, with a hash index over its user keys that answers most point
//! lookups in one probe.
//!
//! **Record layout.** Every entry is one 8-byte-aligned record,
//! bump-allocated from 64 KiB chunks the memtable owns:
//!
//! ```text
//! Node { key_len: u32, value_len: u32, height: u32, hash: u32,   24-byte #[repr(C)] header
//!        hash_next: AtomicPtr<Node> }
//! [AtomicPtr<Node>; height]                            the tower, level 0 first
//! user_key ++ fixed64le((seq << 8) | type)             the internal key, key_len bytes
//! value                                                value_len bytes (empty for a tombstone)
//! ```
//!
//! A hop loads a link and then compares the key that sits in the same
//! record. `add`, `get` and `MemTableIterator::seek` compare a node's bytes
//! against `(user_key, tag)` in place, so no path builds an internal key
//! or a lookup key. A record larger than a quarter chunk gets an
//! allocation of its own, so a chunk wastes less than a quarter of itself.
//! No chunk is allocated before the first insert: every memtable switch
//! hands each idle tree a fresh, empty table. The head is boxed on its own
//! with a full-height tower. Chunks are freed when the last `Arc<Inner>`
//! drops — the `MemTable` or any iterator over it — so no per-node
//! reclamation is needed and a held iterator stays valid after a flush.
//!
//! **Publication.** Writes are serialized by the database's group-commit
//! leader; an insert takes one mutex, which guards the height RNG and the
//! arena. It writes the whole record — header, every tower slot (each
//! pointing at its successor), key and value — and only then stores the
//! level links, bottom up, with `Release`. Readers traverse lock-free with
//! `Acquire` loads, so a reader that reaches a node sees it complete. An
//! exact duplicate (user key, sequence, type) is dropped: only a replayed
//! WAL record can produce one, and keeping it would break the strict
//! order the flush path relies on.
//!
//! **The point-lookup index.** A bucket array of `AtomicPtr<Node>`, one
//! bucket per [`BYTES_PER_BUCKET`] bytes of the tree's `write_buffer_size`
//! rounded down to a power of two (32 Ki buckets, 256 KiB, for the default
//! 4 MiB), is allocated in the arena on the first insert. Each bucket
//! heads a chain through the records' `hash_next` links. *Chain
//! invariant:* walking a key's chain from its bucket, the first node with
//! that user key is the key's first node in skiplist order, its newest
//! version. The hash is keyed: a multiply-mix under two 64-bit keys drawn
//! per table from the standard library's randomly keyed `RandomState`, so
//! a client that does not know them cannot choose keys that share a chain.
//! Its upper 32 bits pick the bucket and the header keeps the lower 32,
//! which a walk compares before any key byte.
//!
//! - *Lookup.* `get` walks at most [`CHAIN_LIMIT`] links. A chain that
//!   ends first means the key is absent. A key whose newest version is
//!   visible at the read sequence is answered from that node. Otherwise —
//!   the newest version is newer than the read sequence, or the walk ran
//!   out — `get` falls back to the skiplist search, which stays the truth:
//!   iterators, seeks and the flush never touch the index.
//! - *Insert.* `add` links the record into the skiplist first and then
//!   publishes it into the index with one `Release` store, still under
//!   the mutex. The skiplist search's level-0 neighbours name the case. A
//!   predecessor with the same user key makes the new node an older
//!   version inserted out of sequence order, which the index does not
//!   hold. A successor with the same user key is the version the new node
//!   supersedes: the new node takes its place in the chain, found by a
//!   walk of at most [`CHAIN_LIMIT`] links that compares pointers, or goes
//!   to the front if the walk runs out. Otherwise the key is new and is
//!   pushed at the front. A replaced node keeps its `hash_next`, so a
//!   reader standing on it walks on into the same chain. `add` hashes the
//!   key and prefetches its bucket before it takes the mutex.
//!
//! **Memory charge.** `approximate_memory_usage` charges each entry
//! `varint(ikey_len) + ikey_len + varint(value_len) + value_len + 48 +
//! 8·height`, the cost of the table's earlier boxed-node layout. The rule is
//! frozen: `write_buffer_size` is compared against it, so it decides where
//! every flush falls, the shape of L0 and the space amplification. The
//! arena's real footprint is smaller (24 bytes of header instead of 48, no
//! varints, at most 7 bytes of padding), at least 19 bytes under the
//! charge per entry. That margin pays for the bucket array (at most
//! `write_buffer_size / 16`) whenever a full table's entries are charged
//! ~300 bytes or less each, so the charge still bounds the memory a full
//! table holds, up to one partly used chunk and the waste of records near
//! a quarter chunk; a table of larger entries may hold up to the array
//! beyond it. Charging the true footprint would move the flush points;
//! that is a separate change with its own measurement.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cmp::Ordering;
use std::hash::BuildHasher;
use std::mem::{offset_of, size_of};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering as AtomicOrd};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::types::{pack_seq_type, unpack_seq_type, user_key_cmp, SequenceNumber, ValueType};
use crate::varint::fixed;

const MAX_HEIGHT: usize = 12;
const BRANCHING: u64 = 4;
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
/// Links a lookup or an insert follows along one chain before it stops
/// trusting the index.
const CHAIN_LIMIT: usize = 8;

/// The header at the start of every record. The tower, the internal key
/// and the value follow it in the same allocation: every `&Node` the
/// table reads through points at the start of its record.
#[repr(C, align(8))]
struct Node {
    key_len: u32,
    value_len: u32,
    height: u32,
    /// The lower 32 bits of the user key's index hash (0 in the head).
    hash: u32,
    /// The next node of this node's bucket chain.
    hash_next: AtomicPtr<Node>,
}

const HEADER: usize = size_of::<Node>();

/// The head node: a header whose full-height tower follows it, as in a
/// record.
#[repr(C)]
struct Head {
    node: Node,
    tower: [AtomicPtr<Node>; MAX_HEIGHT],
}

const _: () = assert!(offset_of!(Head, tower) == HEADER);

impl Node {
    fn record_len(height: usize, key_len: usize, value_len: usize) -> usize {
        HEADER + height * size_of::<AtomicPtr<Node>>() + key_len + value_len
    }

    fn tower(&self) -> &[AtomicPtr<Node>] {
        // SAFETY: every `Node` heads a record (`Head`, or one written by
        // `MemTable::add`) whose `height` initialized tower slots follow
        // the header at 8-byte alignment.
        unsafe {
            std::slice::from_raw_parts(
                std::ptr::from_ref(self).add(1).cast::<AtomicPtr<Node>>(),
                self.height as usize,
            )
        }
    }

    /// The successor at `level`, if any.
    fn next(&self, level: usize) -> Option<&Node> {
        follow(self.tower()[level].load(AtomicOrd::Acquire))
    }

    fn key(&self) -> &[u8] {
        let start = Node::record_len(self.height as usize, 0, 0);
        // SAFETY: `key_len` key bytes follow the tower in the same record
        // and were written before the node was linked.
        unsafe {
            std::slice::from_raw_parts(
                std::ptr::from_ref(self).cast::<u8>().add(start),
                self.key_len as usize,
            )
        }
    }

    fn value(&self) -> &[u8] {
        let start = Node::record_len(self.height as usize, self.key_len as usize, 0);
        // SAFETY: `value_len` value bytes follow the key in the same record
        // and were written before the node was linked.
        unsafe {
            std::slice::from_raw_parts(
                std::ptr::from_ref(self).cast::<u8>().add(start),
                self.value_len as usize,
            )
        }
    }

    fn user_key(&self) -> &[u8] {
        split_internal_key(self.key()).0
    }

    /// Orders this node against the internal key `(user_key, tag)`: user
    /// key ascending, then tag descending (newest first).
    fn cmp(&self, user_key: &[u8], tag: u64) -> Ordering {
        let (own_key, own_tag) = split_internal_key(self.key());
        user_key_cmp(own_key, user_key).then_with(|| tag.cmp(&own_tag))
    }
}

/// The record a skiplist or chain link points at, if any.
fn follow<'a>(link: *mut Node) -> Option<&'a Node> {
    // SAFETY: a non-null link was stored with `Release` by `MemTable::add`
    // after its record was complete (and loaded with `Acquire`, or by the
    // writer that stored it), and every record lives as long as the
    // table's `Inner`, which the caller borrows.
    unsafe { link.as_ref() }
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
fn bucket(buckets: &[AtomicPtr<Node>], hash: u64) -> &AtomicPtr<Node> {
    &buckets[(hash >> 32) as usize & (buckets.len() - 1)]
}

/// Asks the CPU to bring `slot`'s cache line in while the caller does
/// other work.
fn prefetch(slot: &AtomicPtr<Node>) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint that reads nothing architecturally and
    // cannot fault; `slot` is a live reference, and x86_64 always has SSE.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            std::ptr::from_ref(slot).cast(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
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

impl LookupResult {
    /// The answer `node` gives: the entry a lookup found, if any.
    fn of(node: Option<&Node>) -> Self {
        let Some(node) = node else { return LookupResult::NotFound };
        match unpack_seq_type(split_internal_key(node.key()).1).1 {
            Some(ValueType::Value) => LookupResult::Found(node.value().to_vec()),
            Some(ValueType::Deletion) => LookupResult::Deleted,
            None => LookupResult::NotFound,
        }
    }
}

/// What the index knows about a key at one read sequence.
enum Probe<'a> {
    /// The table holds no version of the key.
    Absent,
    /// The key's newest version, visible at the read sequence.
    Newest(&'a Node),
    /// The skiplist must answer.
    Unsure,
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
    buckets: AtomicPtr<AtomicPtr<Node>>,
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
            node: Node {
                key_len: 0,
                value_len: 0,
                height: MAX_HEIGHT as u32,
                hash: 0,
                hash_next: AtomicPtr::new(std::ptr::null_mut()),
            },
            tower: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        });
        let keys = std::collections::hash_map::RandomState::new();
        MemTable {
            inner: Arc::new(Inner {
                head,
                max_height: AtomicUsize::new(1),
                buckets: AtomicPtr::new(std::ptr::null_mut()),
                bucket_bits,
                seed: [keys.hash_one(0u8), keys.hash_one(1u8) | 1],
                writer: Mutex::new(Writer {
                    rng: 0x9e37_79b9_7f4a_7c15,
                    arena: Arena { blocks: Vec::new(), cursor: std::ptr::null_mut(), left: 0 },
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
        let key_len = user_key.len() + 8;
        let inner: &Inner = &self.inner;
        let hash = index_hash(inner.seed, user_key);
        if let Some(buckets) = inner.buckets() {
            prefetch(bucket(buckets, hash));
        }
        let mut writer = inner.writer.lock();
        let mut prev = [inner.head(); MAX_HEIGHT];
        let next = inner.find_greater_or_equal(user_key, tag, Some(&mut prev));
        if next.is_some_and(|next| next.cmp(user_key, tag) == Ordering::Equal) {
            return;
        }
        let buckets = match inner.buckets() {
            Some(buckets) => buckets,
            None => inner.allocate_buckets(&mut writer.arena),
        };

        let height = writer.random_height();
        let header = Node {
            key_len: u32::try_from(key_len).expect("memtable key under 4 GiB"),
            value_len: u32::try_from(value.len()).expect("memtable value under 4 GiB"),
            height: height as u32,
            hash: hash as u32,
            hash_next: AtomicPtr::new(std::ptr::null_mut()),
        };
        let record = writer.arena.alloc(Node::record_len(height, key_len, value.len()));
        let node = record.as_ptr().cast::<Node>();
        // SAFETY: `record` holds `record_len` unused, 8-aligned bytes that
        // no reader can reach until the links below publish them; each
        // write stays inside them (header, `height` slots, key, value).
        unsafe {
            node.write(header);
            let tower = node.add(1).cast::<AtomicPtr<Node>>();
            for (level, before) in prev.iter().take(height).enumerate() {
                let succ = before.tower()[level].load(AtomicOrd::Relaxed);
                tower.add(level).write(AtomicPtr::new(succ));
            }
            let key = tower.add(height).cast::<u8>();
            std::ptr::copy_nonoverlapping(user_key.as_ptr(), key, user_key.len());
            std::ptr::copy_nonoverlapping(tag.to_le_bytes().as_ptr(), key.add(user_key.len()), 8);
            std::ptr::copy_nonoverlapping(value.as_ptr(), key.add(key_len), value.len());
        }

        if inner.max_height.load(AtomicOrd::Relaxed) < height {
            inner.max_height.store(height, AtomicOrd::Relaxed);
        }
        for (level, before) in prev.iter().take(height).enumerate() {
            before.tower()[level].store(node, AtomicOrd::Release);
        }
        // Only the key's newest version joins the index.
        if std::ptr::eq(prev[0], inner.head()) || prev[0].user_key() != user_key {
            let older = next.filter(|next| next.user_key() == user_key);
            link_into_chain(bucket(buckets, hash), node, older);
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
        // every entry with sequence <= `seq` is at or after it.
        let lookup = (seq << 8) | 0xff;
        LookupResult::of(match self.inner.probe(user_key, lookup) {
            Probe::Absent => None,
            Probe::Newest(node) => Some(node),
            Probe::Unsure => self.inner.search(user_key, lookup),
        })
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
        MemTableIterator { inner: self.inner.clone(), node: std::ptr::null() }
    }
}

/// Links `node`, its key's newest version, into the chain of `bucket`: in
/// place of `older`, the version it supersedes, if a walk of at most
/// [`CHAIN_LIMIT`] links finds it, else at the front. Runs under the insert
/// mutex, the only writer of chain links.
fn link_into_chain(bucket: &AtomicPtr<Node>, node: *mut Node, older: Option<&Node>) {
    // SAFETY: `node` is the complete record `add` just wrote; readers see
    // it only through the `Release` store below.
    let new = unsafe { &*node };
    let mut link = bucket;
    if let Some(older) = older {
        for _ in 0..CHAIN_LIMIT {
            let Some(current) = follow(link.load(AtomicOrd::Relaxed)) else { break };
            if std::ptr::eq(current, older) {
                new.hash_next.store(older.hash_next.load(AtomicOrd::Relaxed), AtomicOrd::Relaxed);
                link.store(node, AtomicOrd::Release);
                return;
            }
            link = &current.hash_next;
        }
        link = bucket;
    }
    new.hash_next.store(link.load(AtomicOrd::Relaxed), AtomicOrd::Relaxed);
    link.store(node, AtomicOrd::Release);
}

impl Inner {
    fn head(&self) -> &Node {
        &self.head.node
    }

    /// The bucket array, once the first insert has allocated it.
    fn buckets(&self) -> Option<&[AtomicPtr<Node>]> {
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
    fn allocate_buckets(&self, arena: &mut Arena) -> &[AtomicPtr<Node>] {
        let len = size_of::<AtomicPtr<Node>>() << self.bucket_bits;
        let buckets = arena.block(len, alloc_zeroed).as_ptr().cast::<AtomicPtr<Node>>();
        self.buckets.store(buckets, AtomicOrd::Release);
        self.buckets().expect("just published")
    }

    /// What the index says about `user_key` at the lookup tag `lookup`.
    fn probe(&self, user_key: &[u8], lookup: u64) -> Probe<'_> {
        let Some(buckets) = self.buckets() else { return Probe::Absent };
        let hash = index_hash(self.seed, user_key);
        let mut link = bucket(buckets, hash);
        for _ in 0..CHAIN_LIMIT {
            let Some(node) = follow(link.load(AtomicOrd::Acquire)) else { return Probe::Absent };
            if node.hash == hash as u32 {
                let (own_key, own_tag) = split_internal_key(node.key());
                if own_key == user_key {
                    return if own_tag <= lookup { Probe::Newest(node) } else { Probe::Unsure };
                }
            }
            link = &node.hash_next;
        }
        Probe::Unsure
    }

    /// The skiplist's answer: the first entry of `user_key` at or after
    /// the lookup tag `lookup`.
    fn search(&self, user_key: &[u8], lookup: u64) -> Option<&Node> {
        self.find_greater_or_equal(user_key, lookup, None).filter(|node| node.user_key() == user_key)
    }

    /// Finds the first node at or after the internal key `(user_key,
    /// tag)`; optionally records the predecessor at every level into
    /// `prev`.
    fn find_greater_or_equal<'a>(
        &'a self,
        user_key: &[u8],
        tag: u64,
        mut prev: Option<&mut [&'a Node; MAX_HEIGHT]>,
    ) -> Option<&'a Node> {
        let mut level = self.max_height.load(AtomicOrd::Relaxed) - 1;
        let mut node = self.head();
        loop {
            match node.next(level) {
                Some(next) if next.cmp(user_key, tag) == Ordering::Less => node = next,
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

/// Iterator over a memtable's entries in internal-key order.
///
/// Holds an `Arc` to the table internals, so it remains valid even if the
/// `MemTable` handle is dropped (e.g. during flush).
pub struct MemTableIterator {
    inner: Arc<Inner>,
    /// The current record, or null when not positioned on one.
    node: *const Node,
}

fn as_ptr(node: Option<&Node>) -> *const Node {
    node.map_or(std::ptr::null(), std::ptr::from_ref)
}

// SAFETY: `node` points into records owned by `inner`, which the iterator
// keeps alive, and records are immutable once linked.
unsafe impl Send for MemTableIterator {}

impl MemTableIterator {
    fn current(&self) -> &Node {
        debug_assert!(self.valid());
        // SAFETY: `node` is a non-null record of `inner` (callers check
        // `valid`), kept alive by the iterator's `Arc`.
        unsafe { &*self.node }
    }

    /// True if positioned on an entry.
    #[must_use]
    pub fn valid(&self) -> bool {
        !self.node.is_null()
    }

    /// Positions on the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = as_ptr(self.inner.head().next(0));
    }

    /// Positions on the first entry with internal key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        let (user_key, tag) = split_internal_key(target);
        self.node = as_ptr(self.inner.find_greater_or_equal(user_key, tag, None));
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        self.node = as_ptr(self.current().next(0));
    }

    /// The current internal key.
    #[must_use]
    pub fn key(&self) -> &[u8] {
        self.current().key()
    }

    /// The current value (empty for tombstones).
    #[must_use]
    pub fn value(&self) -> &[u8] {
        self.current().value()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::Barrier;

    use proptest::prelude::*;

    use super::*;
    use crate::types::{
        extract_seq_type, extract_user_key, internal_key_cmp, make_internal_key, make_lookup_key,
    };

    impl MemTable {
        /// `get` through the skiplist search alone: the oracle the index's
        /// answers are checked against.
        fn get_by_search(&self, user_key: &[u8], seq: SequenceNumber) -> LookupResult {
            LookupResult::of(self.inner.search(user_key, (seq << 8) | 0xff))
        }
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

    /// Two writers insert and then rewrite their keys (the index's replace
    /// path) while one reader iterates and two readers `get`. A getter
    /// reads a key at its writer's published sequence, or below it (where
    /// the newest version is often invisible and the skiplist answers),
    /// and must see exactly the newest version at or below that sequence.
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

    #[test]
    fn charge_is_the_legacy_formula() {
        let mt = MemTable::new(1);
        mt.add(1, ValueType::Value, b"key", &[0u8; 200]);
        let height = mt.inner.head().next(0).unwrap().height as usize;
        // varint(11) + 11 + varint(200) + 200 + 48 + 8 * height.
        assert_eq!(mt.approximate_memory_usage(), 1 + 11 + 2 + 200 + 48 + 8 * height);
        // A dropped duplicate charges nothing.
        mt.add(1, ValueType::Value, b"key", &[0u8; 200]);
        assert_eq!(mt.approximate_memory_usage(), 1 + 11 + 2 + 200 + 48 + 8 * height);
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
        /// tag descending) and against the skiplist search alone: point
        /// reads at random sequences, the whole iteration order and seeks
        /// to random lookup keys. Keys are rewritten, their versions arrive
        /// out of sequence order, some are tombstones, and some inserts
        /// repeat an earlier one exactly. The index has one bucket (every
        /// key in one chain, past the walk bound), 8, or the default count.
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
                prop_assert_eq!(&mt.get_by_search(key, seq), &want);
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

    /// One bucket: every key shares a chain far longer than the walk
    /// bound, so most lookups and most rewrites run out of links. Every
    /// answer still matches the skiplist's, and the index still answers
    /// the keys near the front of the chain.
    #[test]
    fn one_chain_past_the_walk_bound_falls_back_to_the_skiplist() {
        let mt = MemTable::with_bucket_bits(1, 0);
        let key = |k: u32| format!("key-{k:05}").into_bytes();
        let mut seq = 0;
        for round in 0..3u32 {
            for k in 0..200u32 {
                // Every round rewrites every key; each fifth key is
                // deleted in the last round.
                seq += 1;
                let t = if round == 2 && k % 5 == 0 { ValueType::Deletion } else { ValueType::Value };
                mt.add(seq, t, &key(k), format!("{round}").as_bytes());
            }
        }
        let lookup = |k: u32, seq: u64| mt.inner.probe(&key(k), (seq << 8) | 0xff);
        assert!(matches!(lookup(199, seq), Probe::Newest(_)), "the front of the chain answers");
        assert!(matches!(lookup(0, seq), Probe::Unsure), "a key past the bound falls back");
        assert!(matches!(lookup(199, 1), Probe::Unsure), "a version newer than the read falls back");
        assert!(matches!(mt.inner.probe(b"absent", u64::MAX >> 8), Probe::Unsure));
        for k in 0..200 {
            for read in [0, 1, 150, 200, 201, 400, 401, 600, u64::MAX >> 8] {
                assert_eq!(mt.get(&key(k), read), mt.get_by_search(&key(k), read), "key {k} at {read}");
            }
        }
        assert_eq!(mt.get(&key(7), seq), LookupResult::Found(b"2".to_vec()));
        assert_eq!(mt.get(&key(5), seq), LookupResult::Deleted);
        assert_eq!(mt.get(&key(5), 400), LookupResult::Found(b"1".to_vec()));
    }

    /// A short chain answers from the index: a key's newest visible
    /// version, an absent key, and, for an older read, the skiplist.
    #[test]
    fn the_index_answers_newest_and_absent_keys() {
        let mt = MemTable::new(1);
        assert!(matches!(mt.inner.probe(b"k", 10 << 8), Probe::Absent), "an empty table");
        mt.add(1, ValueType::Value, b"k", b"v1");
        mt.add(5, ValueType::Value, b"k", b"v5");
        // Out of sequence order: an older version after a newer one.
        mt.add(3, ValueType::Value, b"k", b"v3");
        let probe = |seq: u64| mt.inner.probe(b"k", (seq << 8) | 0xff);
        assert!(matches!(probe(5), Probe::Newest(node) if node.value() == b"v5"));
        assert!(matches!(probe(4), Probe::Unsure));
        assert!(matches!(mt.inner.probe(b"other", u64::MAX), Probe::Absent));
        assert_eq!(mt.get(b"k", 4), LookupResult::Found(b"v3".to_vec()));
        assert_eq!(mt.get(b"k", 2), LookupResult::Found(b"v1".to_vec()));
        assert_eq!(mt.get(b"k", 0), LookupResult::NotFound);
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
