//! The allocation budget (DESIGN.md §4n): how many heap
//! allocations, and how many bytes, one operation makes on the calling
//! thread.
//!
//! A counting `#[global_allocator]` keeps its counters thread-local, so
//! the engine's pool threads (flushes, compactions) and the other tests of
//! this binary do not count. Two groups of rows:
//!
//! * **The memtable**, against fixed bounds: an insert allocates nothing
//!   but its share of a 64 KiB chunk, a hit allocates only the returned
//!   value, a miss allocates nothing, the memory charge is the frozen
//!   per-entry rule, and the arena reserves at most that charge plus one
//!   chunk.
//! * **The engine**, against [`BUDGET`]: a warmed SHIELD + HMAC store
//!   over `MemEnv`. Each row is the median over [`REPS`] operations. The
//!   test fails when a count grows; a change that lowers one lowers its
//!   row here in the same diff.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shield_lsm::memtable::{LookupResult, MemTable};
use shield_lsm::types::ValueType;
use shield_lsm::{Integrity, IntegrityOptions, ReadOptions, WriteOptions};
use support::{Mode, Store, ENGINE_KEY};

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
    let mem = MemTable::new(1);
    let ((), add) = count(|| {
        for (seq, key) in keys.iter().enumerate() {
            mem.add(seq as u64 + 1, ValueType::Value, key, &value);
        }
    });
    let per_insert = add.allocs as f64 / INSERTS as f64;
    let charge = mem.approximate_memory_usage();
    println!(
        "memtable.add: {per_insert:.4} allocations, {:.1} B allocated, {:.1} B live, {:.1} B charged per insert",
        add.bytes as f64 / INSERTS as f64,
        add.net as f64 / INSERTS as f64,
        charge as f64 / INSERTS as f64,
    );
    assert!(per_insert <= 0.01, "MemTable::add made {per_insert:.3} allocations per insert");

    assert_eq!(charge, legacy_charge(INSERTS, 16 + 8, value.len()), "the memory charge moved");
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
    ("put", 10, 985),
    ("memtable get", 1, 90),
    ("cached SST get", 5, 166),
    ("cold SST get", 11, 16_930),
    ("multi_get(64)", 361, 42_300),
    ("100-row scan", 214, 10_779),
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

#[test]
fn engine_rows() {
    let store = Store {
        integrity: IntegrityOptions { mode: Integrity::Hmac, key: ENGINE_KEY },
        ..Store::new(Mode::Shield)
    };
    let db = store.open(|opts| opts);
    let (w, cached, cold) = (
        WriteOptions::default(),
        ReadOptions::new(),
        ReadOptions { fill_cache: false, ..ReadOptions::new() },
    );
    // Built up front, so the rows count the engine's allocations only.
    let keys: Vec<Vec<u8>> = (0..ROWS + 2 * REPS).map(key).collect();
    let values: Vec<Vec<u8>> = (0..ROWS).map(value).collect();
    // Rows 0..ROWS sit in one flushed SST; the puts measured below go to
    // the memtable above it.
    for i in 0..ROWS {
        db.put(&w, &keys[i], &values[i]).unwrap();
    }
    db.flush().unwrap();
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

    println!("{:<16} {:>7} {:>8}   budget", "row", "allocs", "bytes");
    let mut grew = Vec::new();
    for ((name, got), &(row, allocs, bytes)) in rows.iter().zip(BUDGET) {
        assert_eq!(*name, row);
        println!("{name:<16} {:>7} {:>8}   {allocs} / {bytes}", got.allocs, got.bytes);
        if got.allocs > allocs || got.bytes > bytes {
            grew.push(format!("{name}: {} allocations / {} B > budget {allocs} / {bytes}", got.allocs, got.bytes));
        }
    }
    assert!(grew.is_empty(), "allocation budget exceeded:\n{}", grew.join("\n"));
    store.close(db);
}
