//! Internal iterator abstraction and the k-way merging iterator that
//! powers reads, flushes, and compactions.

use std::cmp::Ordering;

use crate::error::Result;
use crate::memtable::MemTableIterator;
use crate::types::internal_key_cmp;

/// Forward iterator over `(internal key, value)` entries.
///
/// All positioning methods leave the iterator either on an entry
/// (`valid()`) or exhausted. Errors encountered while loading data are
/// reported through [`InternalIterator::status`] and render the iterator
/// invalid.
pub trait InternalIterator: Send {
    /// True if positioned on an entry.
    fn valid(&self) -> bool;
    /// Positions on the first entry.
    fn seek_to_first(&mut self);
    /// Positions on the first entry with internal key >= `target`.
    fn seek(&mut self, target: &[u8]);
    /// Advances to the next entry. Requires `valid()`.
    fn next(&mut self);
    /// Current internal key. Requires `valid()`.
    fn key(&self) -> &[u8];
    /// Current value. Requires `valid()`.
    fn value(&self) -> &[u8];
    /// First error encountered, if any.
    fn status(&self) -> Result<()> {
        Ok(())
    }
}

impl InternalIterator for MemTableIterator {
    fn valid(&self) -> bool {
        MemTableIterator::valid(self)
    }
    fn seek_to_first(&mut self) {
        MemTableIterator::seek_to_first(self);
    }
    fn seek(&mut self, target: &[u8]) {
        MemTableIterator::seek(self, target);
    }
    fn next(&mut self) {
        MemTableIterator::next(self);
    }
    fn key(&self) -> &[u8] {
        MemTableIterator::key(self)
    }
    fn value(&self) -> &[u8] {
        MemTableIterator::value(self)
    }
}

/// Merges several sorted children into one sorted stream.
///
/// Ties on identical internal keys are broken by child order, so callers
/// should list newer sources first (memtables before L0 before L1 …).
pub struct MergingIterator {
    children: Vec<Box<dyn InternalIterator>>,
    current: Option<usize>,
}

impl MergingIterator {
    /// Creates a merging iterator over `children` (may be empty).
    #[must_use]
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> Self {
        MergingIterator { children, current: None }
    }

    fn find_smallest(&mut self) {
        let mut best: Option<usize> = None;
        for (i, child) in self.children.iter().enumerate() {
            if !child.valid() {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if internal_key_cmp(child.key(), self.children[b].key()) == Ordering::Less {
                        best = Some(i);
                    }
                }
            }
        }
        self.current = best;
    }

    /// Seeks only the child the merge stands on to `target`, which must
    /// not sort before [`key`](InternalIterator::key), then picks the
    /// smallest child again. Every other child already stands at or past
    /// the current key and keeps its position, so no entry between the
    /// current key and `target` that another child holds is lost, and
    /// ties still break by child order. The scan's skip rule uses it to
    /// jump one child over a run of one user key's versions.
    pub fn seek_current(&mut self, target: &[u8]) {
        let cur = self.current.expect("seek_current on invalid iterator");
        debug_assert_ne!(internal_key_cmp(target, self.children[cur].key()), Ordering::Less);
        self.children[cur].seek(target);
        self.find_smallest();
    }
}

impl InternalIterator for MergingIterator {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) {
        for c in &mut self.children {
            c.seek_to_first();
        }
        self.find_smallest();
    }

    fn seek(&mut self, target: &[u8]) {
        for c in &mut self.children {
            c.seek(target);
        }
        self.find_smallest();
    }

    fn next(&mut self) {
        let cur = self.current.expect("next on invalid iterator");
        self.children[cur].next();
        self.find_smallest();
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.expect("key on invalid iterator")].key()
    }

    fn value(&self) -> &[u8] {
        self.children[self.current.expect("value on invalid iterator")].value()
    }

    fn status(&self) -> Result<()> {
        for c in &self.children {
            c.status()?;
        }
        Ok(())
    }
}

/// An iterator over an in-memory vector of entries; used in tests and as
/// the recovery path's batch view.
pub struct VecIterator {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
    started: bool,
}

impl VecIterator {
    /// Creates an iterator over `entries`, which must already be sorted by
    /// internal key.
    #[must_use]
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| internal_key_cmp(&w[0].0, &w[1].0) != Ordering::Greater));
        VecIterator { entries, pos: 0, started: false }
    }
}

impl InternalIterator for VecIterator {
    fn valid(&self) -> bool {
        self.started && self.pos < self.entries.len()
    }
    fn seek_to_first(&mut self) {
        self.pos = 0;
        self.started = true;
    }
    fn seek(&mut self, target: &[u8]) {
        self.started = true;
        self.pos = self
            .entries
            .partition_point(|(k, _)| internal_key_cmp(k, target) == Ordering::Less);
    }
    fn next(&mut self) {
        self.pos += 1;
    }
    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }
    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};

    fn ik(k: &str, seq: u64) -> Vec<u8> {
        make_internal_key(k.as_bytes(), seq, ValueType::Value)
    }

    fn vec_iter(keys: &[(&str, u64, &str)]) -> Box<dyn InternalIterator> {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .map(|(k, s, v)| (ik(k, *s), v.as_bytes().to_vec()))
            .collect();
        entries.sort_by(|a, b| internal_key_cmp(&a.0, &b.0));
        Box::new(VecIterator::new(entries))
    }

    fn drain(it: &mut dyn InternalIterator) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        it.seek_to_first();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next();
        }
        out
    }

    #[test]
    fn merge_two_sources_in_order() {
        let a = vec_iter(&[("a", 1, "1"), ("c", 1, "3")]);
        let b = vec_iter(&[("b", 1, "2"), ("d", 1, "4")]);
        let mut m = MergingIterator::new(vec![a, b]);
        let out = drain(&mut m);
        let keys: Vec<Vec<u8>> =
            out.iter().map(|(k, _)| crate::types::extract_user_key(k).to_vec()).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
    }

    #[test]
    fn merge_prefers_newer_sequence_first() {
        // Same user key at different sequences across sources: newest first.
        let newer = vec_iter(&[("k", 9, "new")]);
        let older = vec_iter(&[("k", 2, "old")]);
        let mut m = MergingIterator::new(vec![newer, older]);
        let out = drain(&mut m);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, b"new");
        assert_eq!(out[1].1, b"old");
    }

    #[test]
    fn merge_seek() {
        let a = vec_iter(&[("a", 1, "1"), ("m", 1, "2"), ("z", 1, "3")]);
        let b = vec_iter(&[("g", 1, "4"), ("q", 1, "5")]);
        let mut m = MergingIterator::new(vec![a, b]);
        m.seek(&crate::types::make_lookup_key(b"h", u64::MAX >> 8));
        assert!(m.valid());
        assert_eq!(crate::types::extract_user_key(m.key()), b"m");
    }

    #[test]
    fn merge_empty_children() {
        let mut m = MergingIterator::new(vec![vec_iter(&[]), vec_iter(&[])]);
        m.seek_to_first();
        assert!(!m.valid());
        let mut m = MergingIterator::new(vec![]);
        m.seek_to_first();
        assert!(!m.valid());
    }

    /// Values from the merge's current position to its end.
    fn rest(m: &mut MergingIterator) -> Vec<String> {
        let mut out = Vec::new();
        while m.valid() {
            out.push(String::from_utf8(m.value().to_vec()).unwrap());
            m.next();
        }
        out
    }

    /// Child 0 holds a run of "k"; child 1 an older copy of "k"; child 2
    /// has already been stepped past its first entry.
    fn run_over_three_children() -> MergingIterator {
        let run = vec_iter(&[("k", 30, "k30"), ("k", 29, "k29"), ("k", 28, "k28"), ("q", 1, "q")]);
        let older = vec_iter(&[("k", 5, "k5"), ("z", 1, "z")]);
        let stepped = vec_iter(&[("a", 1, "a"), ("m", 1, "m")]);
        let mut m = MergingIterator::new(vec![run, older, stepped]);
        m.seek_to_first();
        assert_eq!(m.value(), b"a");
        m.next();
        assert_eq!(m.value(), b"k30");
        m
    }

    #[test]
    fn seek_current_moves_only_the_current_child() {
        let mut m = run_over_three_children();
        m.seek_current(&make_internal_key(b"k", 0, ValueType::Deletion));
        // Child 0 jumped its run; child 1's copy of "k" is still visited,
        // and child 2 did not go back to "a".
        assert_eq!(rest(&mut m), ["k5", "m", "q", "z"]);
    }

    #[test]
    fn seek_current_to_a_lookup_key_lands_inside_the_run() {
        let mut m = run_over_three_children();
        m.seek_current(&crate::types::make_lookup_key(b"k", 28));
        assert_eq!(rest(&mut m), ["k28", "k5", "m", "q", "z"]);
    }

    #[test]
    fn vec_iterator_seek_past_end() {
        let mut it = vec_iter(&[("a", 1, "1")]);
        it.seek(&ik("b", 1));
        assert!(!it.valid());
    }
}
