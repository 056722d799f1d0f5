//! Per-thread counter stripes: the shape RocksDB's `StatisticsImpl`
//! gets from its per-core `CoreLocalArray`.
//!
//! A counter that two readers increment is one cache line both cores
//! keep stealing from each other; on a 2-vCPU host that costs ~50 ns per
//! increment on top of the add itself. A [`Striped<T>`] holds
//! [`STRIPES`] copies of a whole counter struct `T`, each on its own
//! 128-byte-aligned block (128, not 64, because adjacent-line prefetch
//! pairs lines), and a thread writes only the copy it was dealt on first
//! use. Readers sum the copies, so a sum is exact once the writers are
//! quiet and never lower than any earlier sum while they run (each
//! stripe is monotonic).
//!
//! Stripes are dealt round-robin from one process-wide counter: with 16
//! stripes and ≤ 16 busy threads no two threads share one, and beyond
//! that sharing degrades to today's contention, never to a wrong count.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stripes per [`Striped`] value.
pub const STRIPES: usize = 16;

/// One stripe, aligned so no two stripes share a cache line (or an
/// adjacent-line prefetch pair).
#[derive(Default)]
#[repr(align(128))]
struct Aligned<T>(T);

/// [`STRIPES`] copies of `T`, each written by the threads dealt to it.
pub struct Striped<T> {
    stripes: Box<[Aligned<T>]>,
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, dealt on first use.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe index in `0..STRIPES`.
#[inline]
fn stripe_index() -> usize {
    STRIPE.with(|slot| {
        let mut i = slot.get();
        if i == usize::MAX {
            i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            slot.set(i);
        }
        i
    })
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped { stripes: (0..STRIPES).map(|_| Aligned::default()).collect() }
    }
}

impl<T> Striped<T> {
    /// The calling thread's copy: write here, never read a total here.
    #[inline]
    pub fn local(&self) -> &T {
        &self.stripes[stripe_index()].0
    }

    /// Every copy, for summing.
    pub fn all(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().map(|s| &s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Default)]
    struct Pair {
        a: AtomicU64,
        b: AtomicU64,
    }

    #[test]
    fn stripes_are_line_aligned_and_sums_are_exact() {
        let s: Striped<Pair> = Striped::default();
        assert_eq!(std::mem::size_of::<Aligned<Pair>>(), 128);
        let first = s.all().next().map(|p| p as *const Pair as usize).unwrap_or(0);
        assert_eq!(first % 128, 0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100_000 {
                        s.local().a.fetch_add(1, Ordering::Relaxed);
                        s.local().b.fetch_add(2, Ordering::Relaxed);
                    }
                });
            }
        });
        let a: u64 = s.all().map(|p| p.a.load(Ordering::Relaxed)).sum();
        let b: u64 = s.all().map(|p| p.b.load(Ordering::Relaxed)).sum();
        assert_eq!((a, b), (400_000, 800_000));
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        let s: Striped<Pair> = Striped::default();
        let here = s.local() as *const Pair;
        for _ in 0..10 {
            assert_eq!(s.local() as *const Pair, here);
        }
    }
}
