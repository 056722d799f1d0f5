//! The allocation budget (DESIGN.md §4n): how many heap
//! allocations, and how many bytes, one operation makes on the calling
//! thread.
//!
//! A counting `#[global_allocator]` keeps its counters thread-local, so
//! the engine's pool threads (flushes, compactions) and the other tests of
//! this binary do not count. Two groups of rows:
//!
//! * **The memtable**, against fixed bounds: an insert allocates nothing
//!   but its share of a 64 KiB chunk (and, on the first insert, the hash
//!   index's bucket array), a hit allocates only the returned value, a
//!   miss allocates nothing, the memory charge is the frozen per-entry
//!   rule, and the arena, bucket array included, reserves at most that
//!   charge plus one chunk.
//! * **The engine**, against [`BUDGET`]: a warmed SHIELD + HMAC store
//!   over `MemEnv`, plus one cold SST get over `PosixEnv` in a temporary
//!   directory (the read path a deployment runs: one copy out of the
//!   file's mapping into the block's own buffer, decrypted and
//!   authenticated there in one pass), plus one cold get into a full
//!   block cache (it inserts its data block and evicts another). Each
//!   row is the median over
//!   [`REPS`] operations. The test fails when a count grows; a change
//!   that lowers one lowers its row here in the same diff.
//! * **The write path**, against [`BUDGET`] too, driven on the test
//!   thread through the same code a background job runs: one memtable
//!   entry fed into a [`TableSink`] (what a flush does per entry), and
//!   one [`run_compaction`] over two overlapping L0 tables.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shield_lsm::memtable::{LookupResult, MemTable};
use shield_lsm::types::ValueType;
use std::sync::Arc;

use shield_env::PosixEnv;
use shield_lsm::cache::{BlockCache, CacheConfig};
use shield_lsm::compaction::{run_compaction, CompactionRequest, CompactionTask};
use shield_lsm::iter::InternalIterator;
use shield_lsm::sst::builder::TableBuilderOptions;
use shield_lsm::types::MAX_SEQUENCE;
use shield_lsm::version::table_cache::{TableCache, TableSink};
use shield_lsm::version::version::Version;
use shield_lsm::{Integrity, IntegrityOptions, Options, ReadOptions, WriteOptions};
use support::{Mode, Primary, Store, ENGINE_KEY, PATH, PRIMARY};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn note(allocs: u64, allocated: usize, freed: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.set(ALLOCS.get() + allocs);
            ALLOCATED.set(ALLOCATED.get() + allocated as u64);
            FREED.set(FREED.get() + freed as u64);
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// thread-local `Cell`s with const initializers, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: the caller's contract for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        // SAFETY: as for `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What one span of code allocated on this thread.
#[derive(Clone, Copy, Debug, Default)]
struct Count {
    allocs: u64,
    bytes: u64,
    /// Allocated minus freed: what the span left live.
    net: i64,
}

fn count<R>(f: impl FnOnce() -> R) -> (R, Count) {
    ALLOCS.set(0);
    ALLOCATED.set(0);
    FREED.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    let (allocated, freed) = (ALLOCATED.get(), FREED.get());
    (out, Count { allocs: ALLOCS.get(), bytes: allocated, net: allocated as i64 - freed as i64 })
}

// ---------------------------------------------------------------------
// The memtable
// ---------------------------------------------------------------------

const INSERTS: usize = 20_000;
const CHUNK: usize = 64 << 10;

fn memtable_key(i: usize) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&(i as u64 * 2).to_be_bytes());
    key[8..].copy_from_slice(b"mem-key!");
    key
}

/// The per-entry charge the table has always made — `varint(ikey_len) +
/// ikey_len + varint(value_len) + value_len + 48 + 8·height` — with the
/// tower heights of its seeded xorshift (1/4 decay, at most 12), for
/// `entries` distinct inserts.
fn legacy_charge(entries: usize, ikey_len: usize, value_len: usize) -> usize {
    let varint = |v: usize| if v < 0x80 { 1 } else { 2 };
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut total = 0;
    for _ in 0..entries {
        let mut height = 1;
        while height < 12 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rng.is_multiple_of(4) {
                height += 1;
            } else {
                break;
            }
        }
        total += varint(ikey_len) + ikey_len + varint(value_len) + value_len + 48 + 8 * height;
    }
    total
}

#[test]
fn memtable_rows() {
    let keys: Vec<[u8; 16]> = (0..INSERTS).map(memtable_key).collect();
    let value = [0x5a_u8; 37];
    let charge = legacy_charge(INSERTS, 16 + 8, value.len());
    // A tree whose write buffer this table fills: its index is sized from
    // that budget, and the bucket array is part of what the arena reserves.
    let mem = MemTable::with_write_buffer_size(1, charge);
    let ((), add) = count(|| {
        for (seq, key) in keys.iter().enumerate() {
            mem.add(seq as u64 + 1, ValueType::Value, key, &value);
        }
    });
    let per_insert = add.allocs as f64 / INSERTS as f64;
    assert_eq!(mem.approximate_memory_usage(), charge, "the memory charge moved");
    println!(
        "memtable.add: {per_insert:.4} allocations, {:.1} B allocated, {:.1} B live, {:.1} B charged per insert",
        add.bytes as f64 / INSERTS as f64,
        add.net as f64 / INSERTS as f64,
        charge as f64 / INSERTS as f64,
    );
    assert!(per_insert <= 0.01, "MemTable::add made {per_insert:.3} allocations per insert");

    let reserved = usize::try_from(add.net).unwrap();
    assert!(
        reserved <= charge + CHUNK,
        "the arena reserved {reserved} B for a charge of {charge} B: write_buffer_size no longer bounds it"
    );

    let (hits, hit) = count(|| {
        keys.iter().filter(|k| matches!(mem.get(&k[..], u64::MAX >> 8), LookupResult::Found(_))).count()
    });
    assert_eq!(hits, INSERTS);
    assert_eq!(hit.allocs, INSERTS as u64, "a memtable hit allocates more than its value");

    let (misses, miss) = count(|| {
        (0..INSERTS)
            .map(|i| {
                let mut absent = memtable_key(i);
                absent[7] |= 1;
                absent
            })
            .filter(|k| mem.get(k, u64::MAX >> 8) == LookupResult::NotFound)
            .count()
    });
    assert_eq!(misses, INSERTS);
    assert_eq!(miss.allocs, 0, "a memtable miss allocates");
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Operations per row; a row is their median.
const REPS: usize = 64;
const ROWS: usize = 4_000;

/// The committed budget: `(row, allocations, bytes)` per operation.
const BUDGET: &[(&str, u64, u64)] = &[
    ("put", 9, 633),
    ("memtable get", 1, 90),
    ("cached SST get", 4, 147),
    ("cold SST get", 8, 4_457),
    ("multi_get(64)", 297, 39_308),
    ("100-row scan", 214, 10_771),
    ("cold SST get (PosixEnv)", 8, 4_457),
    ("cold SST get, evicting", 8, 4_457),
    ("flush entry", 0, 0),
    ("compaction, 2 x 256 entries", 206, 407_765),
];

fn key(i: usize) -> Vec<u8> {
    format!("key{i:08}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("value-{i:08}-").repeat(6).into_bytes()
}

/// The median count of `op(i)` over `i` in `0..REPS`.
fn median(mut op: impl FnMut(usize)) -> Count {
    let mut counts: Vec<Count> = (0..REPS).map(|i| count(|| op(i)).1).collect();
    counts.sort_by_key(|c| c.allocs);
    let allocs = counts[REPS / 2].allocs;
    counts.sort_by_key(|c| c.bytes);
    Count { allocs, bytes: counts[REPS / 2].bytes, net: 0 }
}

/// Fails unless every row is within its [`BUDGET`] entry.
fn check(rows: &[(&str, Count)]) {
    println!("{:<24} {:>7} {:>8}   budget", "row", "allocs", "bytes");
    let mut grew = Vec::new();
    for (name, got) in rows {
        let &(_, allocs, bytes) =
            BUDGET.iter().find(|(row, ..)| row == name).expect("every row has a budget");
        println!("{name:<24} {:>7} {:>8}   {allocs} / {bytes}", got.allocs, got.bytes);
        if got.allocs > allocs || got.bytes > bytes {
            let (a, b) = (got.allocs, got.bytes);
            grew.push(format!("{name}: {a} allocations / {b} B > budget {allocs} / {bytes}"));
        }
    }
    assert!(grew.is_empty(), "allocation budget exceeded:\n{}", grew.join("\n"));
}

fn shield_hmac(store: Store) -> Store {
    Store { integrity: IntegrityOptions { mode: Integrity::Hmac, key: ENGINE_KEY }, ..store }
}

/// Keys `0..ROWS + 2 * REPS` and values `0..ROWS`, built up front so the
/// rows count the engine's allocations only; rows `0..ROWS` are put into
/// `db` and flushed into one SST.
fn load(db: &Primary) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let keys: Vec<Vec<u8>> = (0..ROWS + 2 * REPS).map(key).collect();
    let values: Vec<Vec<u8>> = (0..ROWS).map(value).collect();
    for i in 0..ROWS {
        db.put(&WriteOptions::default(), &keys[i], &values[i]).unwrap();
    }
    db.flush().unwrap();
    (keys, values)
}

#[test]
fn engine_rows() {
    let store = shield_hmac(Store::new(Mode::Shield));
    let db = store.open(|opts| opts);
    let (w, cached, cold) = (
        WriteOptions::default(),
        ReadOptions::new(),
        ReadOptions { fill_cache: false, ..ReadOptions::new() },
    );
    // The puts measured below go to the memtable above the SST.
    let (keys, values) = load(&db);
    let stride = ROWS / REPS;
    // Warm: the block cache holds every SST block, and every lazily built
    // structure on these paths exists.
    for i in 0..ROWS {
        assert_eq!(db.get(&cached, &keys[i]).unwrap().as_ref(), Some(&values[i]));
    }
    for i in 0..REPS {
        db.put(&w, &keys[ROWS + REPS + i], &values[i]).unwrap();
        db.get(&cached, &keys[ROWS + REPS + i]).unwrap();
        db.get(&cold, &keys[i * stride + 1]).unwrap();
    }
    let batch: Vec<&[u8]> = (0..64).map(|i| keys[i * (ROWS / 64)].as_slice()).collect();
    db.multi_get(&cached, &batch);

    let rows = [
        ("put", median(|i| db.put(&w, &keys[ROWS + i], &values[i]).unwrap())),
        ("memtable get", median(|i| assert!(db.get(&cached, &keys[ROWS + i]).unwrap().is_some()))),
        ("cached SST get", median(|i| assert!(db.get(&cached, &keys[i * stride]).unwrap().is_some()))),
        ("cold SST get", median(|i| assert!(db.get(&cold, &keys[i * stride + 2]).unwrap().is_some()))),
        (
            "multi_get(64)",
            median(|_| assert!(db.multi_get(&cached, &batch).iter().all(|r| matches!(r, Ok(Some(_)))))),
        ),
        (
            "100-row scan",
            median(|i| {
                let mut it = db.iter(&cached).unwrap();
                it.seek(&keys[i * stride / 2]);
                for _ in 0..100 {
                    assert!(it.valid());
                    it.next();
                }
                it.status().unwrap();
            }),
        ),
    ];

    check(&rows);
    store.close(db);
}

/// A cold SST get on a real file system: the table is open (mapped) and
/// warmed by a cold get of a neighbouring key; the data block is never
/// cached (`fill_cache: false`).
#[test]
fn posix_cold_get_row() {
    let dir = std::env::temp_dir().join(format!("shield-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("a UTF-8 temporary directory").to_string();
    let store = shield_hmac(Store { path, ..Store::over(Mode::Shield, Arc::new(PosixEnv::new())) });
    let db = store.open(|opts| opts);
    let cold = ReadOptions { fill_cache: false, ..ReadOptions::new() };
    let (keys, values) = load(&db);
    let stride = ROWS / REPS;
    for i in 0..REPS {
        let row = i * stride + 1;
        assert_eq!(db.get(&cold, &keys[row]).unwrap().as_ref(), Some(&values[row]));
    }
    let row = median(|i| assert!(db.get(&cold, &keys[i * stride + 2]).unwrap().is_some()));
    check(&[("cold SST get (PosixEnv)", row)]);
    store.close(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cold get into a full block cache: the cache holds a few data blocks
/// beside the table's pinned index and filter, the gets walk more blocks
/// than that with `fill_cache: true`, so every measured get inserts its
/// data block and evicts another.
#[test]
fn evicting_cold_get_row() {
    let store = shield_hmac(Store::new(Mode::Shield));
    let cache = BlockCache::with_config(CacheConfig { capacity: 64 << 10, shard_bits: 0 }).unwrap();
    let db = store.open(|opts| Options { shared_block_cache: Some(cache.clone()), ..opts });
    let cached = ReadOptions::new();
    let (keys, values) = load(&db);
    let stride = ROWS / REPS;
    for i in 0..REPS {
        let row = i * stride + 1;
        assert_eq!(db.get(&cached, &keys[row]).unwrap().as_ref(), Some(&values[row]));
    }
    let before = cache.stats();
    let row = median(|i| assert!(db.get(&cached, &keys[i * stride + 2]).unwrap().is_some()));
    let after = cache.stats();
    assert_eq!(after.data_misses - before.data_misses, REPS as u64, "every measured get missed");
    assert!(after.evictions - before.evictions >= REPS as u64, "every measured get evicted");
    check(&[("cold SST get, evicting", row)]);
    store.close(db);
}

// ---------------------------------------------------------------------
// The write path
// ---------------------------------------------------------------------

/// Entries per compaction input table.
const MERGE_ENTRIES: usize = 256;

/// A memtable entry fed into a [`TableSink`], as a flush feeds it, and a
/// merge of two L0 tables through [`run_compaction`]: the SHIELD + HMAC
/// file layer of a compacting server, without the engine's pool around
/// it.
#[test]
fn write_path_rows() {
    let store = shield_hmac(Store::new(Mode::Shield));
    let files = store.files_for(PRIMARY);
    files.env.create_dir_all(PATH).unwrap();
    let tables = TableCache::new(files, PATH.to_string(), None, 0);
    let options = TableBuilderOptions::default();
    let mut number = 0u64;
    let mut alloc = || {
        number += 1;
        number
    };

    let mem = MemTable::new(1);
    for i in 0..ROWS {
        mem.add(i as u64 + 1, ValueType::Value, &key(i), &value(i));
    }
    let mut it = mem.iter();
    it.seek_to_first();
    let mut sink = TableSink::new(&tables, &options, 0, &mut alloc);
    let flush_entry = median(|_| {
        sink.add(it.key(), it.value()).unwrap();
        InternalIterator::next(&mut it);
    });
    while it.valid() {
        sink.add(it.key(), it.value()).unwrap();
        InternalIterator::next(&mut it);
    }
    let (flushed, _) = sink.finish().unwrap();
    assert_eq!(flushed.len(), 1, "a flush writes one table");

    // The newer table overwrites the upper half of the older one's keys.
    let mut l0 = Vec::new();
    for (seq, first) in [(1, 0), (2, MERGE_ENTRIES / 2)] {
        let mut sink = TableSink::new(&tables, &options, 0, &mut alloc);
        for i in first..first + MERGE_ENTRIES {
            let ikey = shield_lsm::types::make_internal_key(&key(i), seq, ValueType::Value);
            sink.add(&ikey, &value(i)).unwrap();
        }
        let (mut out, _) = sink.finish().unwrap();
        l0.insert(0, Arc::new(out.pop().unwrap().1));
    }
    let mut version = Version::new();
    version.files[0] = l0.clone();
    let task = CompactionTask::Merge { input_level: 0, output_level: 1, inputs: l0, overlaps: Vec::new() };
    let request = CompactionRequest {
        db_path: PATH,
        task: &task,
        version: &version,
        smallest_snapshot: MAX_SEQUENCE,
        table_options: &options,
        target_file_size: 2 << 20,
    };
    let merge = median(|_| {
        let outcome = run_compaction(&tables, &request, &mut alloc).unwrap();
        assert_eq!(outcome.entries_dropped, MERGE_ENTRIES as u64 / 2);
    });
    check(&[("flush entry", flush_entry), ("compaction, 2 x 256 entries", merge)]);
}
