//! Core key/value types: sequence numbers, value types, and the internal
//! key encoding shared by the memtable, SST files, and iterators.
//!
//! An *internal key* is `user_key ++ fixed64le((seq << 8) | value_type)`,
//! ordered by user key ascending then sequence number descending, so the
//! newest version of a key sorts first — the LevelDB/RocksDB convention.

use std::cmp::Ordering;

use crate::varint::fixed;

/// Monotonic sequence number assigned to every write.
pub type SequenceNumber = u64;

/// Largest representable sequence number (56 bits, as in RocksDB).
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// The kind of a versioned entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueType {
    /// A deletion tombstone.
    Deletion = 0,
    /// A normal value.
    Value = 1,
}

impl ValueType {
    /// Decodes a type tag.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<ValueType> {
        match v {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            _ => None,
        }
    }
}

/// Packs a sequence number and type into the 8-byte internal-key trailer.
#[must_use]
pub fn pack_seq_type(seq: SequenceNumber, t: ValueType) -> u64 {
    debug_assert!(seq <= MAX_SEQUENCE);
    (seq << 8) | t as u64
}

/// Unpacks an internal-key trailer.
#[must_use]
pub fn unpack_seq_type(packed: u64) -> (SequenceNumber, Option<ValueType>) {
    (packed >> 8, ValueType::from_u8((packed & 0xff) as u8))
}

/// Builds an internal key from its parts.
#[must_use]
pub fn make_internal_key(user_key: &[u8], seq: SequenceNumber, t: ValueType) -> Vec<u8> {
    let mut out = Vec::with_capacity(user_key.len() + 8);
    out.extend_from_slice(user_key);
    out.extend_from_slice(&pack_seq_type(seq, t).to_le_bytes());
    out
}

/// The user-key prefix of an internal key.
///
/// # Panics
/// Panics (debug) if `ikey` is shorter than the 8-byte trailer.
#[must_use]
pub fn extract_user_key(ikey: &[u8]) -> &[u8] {
    debug_assert!(ikey.len() >= 8, "internal key too short");
    &ikey[..ikey.len() - 8]
}

/// The `(sequence, type)` trailer of an internal key.
#[must_use]
pub fn extract_seq_type(ikey: &[u8]) -> (SequenceNumber, Option<ValueType>) {
    debug_assert!(ikey.len() >= 8);
    let trailer = u64::from_le_bytes(ikey[ikey.len() - 8..].try_into().unwrap());
    unpack_seq_type(trailer)
}

/// Shared prefixes up to this many bytes are compared in 8-byte words
/// inline; past it [`user_key_cmp`] hands the keys to `[u8]::cmp` (libc
/// `memcmp`), whose vector loop wins once a prefix spans several words.
const WORD_CMP_MAX: usize = 32;

/// The one byte order over user keys, equal to `a.cmp(b)`. Keys this
/// engine serves are short (16 B in the benchmark) and share their first
/// word, so comparing big-endian words inline beats a `memcmp` call,
/// which is where a seek, a merge step and a memtable probe spend their
/// comparisons.
#[inline]
#[must_use]
pub fn user_key_cmp(a: &[u8], b: &[u8]) -> Ordering {
    let n = a.len().min(b.len());
    if n > WORD_CMP_MAX {
        return a.cmp(b);
    }
    let word = |w: &[u8]| u64::from_be_bytes(fixed(w));
    let (words_a, words_b) = (a[..n].chunks_exact(8), b[..n].chunks_exact(8));
    let tail = words_a.remainder().len();
    for (x, y) in words_a.zip(words_b) {
        let (x, y) = (word(x), word(y));
        if x != y {
            return x.cmp(&y);
        }
    }
    if tail > 0 {
        if n >= 8 {
            // The last word of the shared length overlaps bytes already
            // found equal, so it orders the 1–7 left.
            let (x, y) = (word(&a[n - 8..n]), word(&b[n - 8..n]));
            if x != y {
                return x.cmp(&y);
            }
        } else if let Some(i) = (0..n).find(|&i| a[i] != b[i]) {
            return a[i].cmp(&b[i]);
        }
    }
    a.len().cmp(&b.len())
}

/// Total order over internal keys: user key ascending, then sequence
/// descending (newer first), then type descending.
#[inline]
#[must_use]
pub fn internal_key_cmp(a: &[u8], b: &[u8]) -> Ordering {
    let ua = extract_user_key(a);
    let ub = extract_user_key(b);
    match user_key_cmp(ua, ub) {
        Ordering::Equal => {
            let ta = u64::from_le_bytes(a[a.len() - 8..].try_into().unwrap());
            let tb = u64::from_le_bytes(b[b.len() - 8..].try_into().unwrap());
            // Higher (seq,type) sorts first.
            tb.cmp(&ta)
        }
        other => other,
    }
}

/// A lookup key: the internal key that sorts *before or at* every entry
/// for `user_key` visible at `seq` (i.e. with sequence ≤ `seq`).
#[must_use]
pub fn make_lookup_key(user_key: &[u8], seq: SequenceNumber) -> Vec<u8> {
    // Type byte 0xff sorts first among equal sequences under the
    // descending trailer order, but Value=1 > Deletion=0 suffices; use
    // the maximal tag so all entries at `seq` are visible.
    let mut out = Vec::with_capacity(user_key.len() + 8);
    out.extend_from_slice(user_key);
    out.extend_from_slice(&(((seq) << 8) | 0xff).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `internal_key_cmp` as it was before it compared user keys in words:
    /// the oracle the word comparator must agree with.
    fn internal_key_cmp_oracle(a: &[u8], b: &[u8]) -> Ordering {
        let ta = u64::from_le_bytes(a[a.len() - 8..].try_into().unwrap());
        let tb = u64::from_le_bytes(b[b.len() - 8..].try_into().unwrap());
        extract_user_key(a).cmp(extract_user_key(b)).then_with(|| tb.cmp(&ta))
    }

    /// Two byte strings of at most 40 bytes sharing a prefix of 0–24
    /// bytes, so the first difference falls on both sides of the 8- and
    /// 16-byte word boundaries; a four-letter alphabet with both extremes
    /// makes equal words, equal keys and prefix pairs common.
    fn key_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        let part = |max| {
            let byte = any::<u8>().prop_map(|b| [0, 1, b'7', 0xff][usize::from(b & 3)]);
            proptest::collection::vec(byte, 0..=max)
        };
        (part(24), part(16), part(16)).prop_map(|(prefix, x, y)| {
            let mut a = prefix.clone();
            a.extend(x);
            let mut b = prefix;
            b.extend(y);
            (a, b)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        #[test]
        fn user_key_cmp_is_byte_order((a, b) in key_pair(), ta in any::<u64>(), tb in any::<u64>()) {
            prop_assert_eq!(user_key_cmp(&a, &b), a.cmp(&b));
            prop_assert_eq!(user_key_cmp(&b, &a), b.cmp(&a));
            prop_assert_eq!(user_key_cmp(&a, &a), Ordering::Equal);
            let ia = [a.as_slice(), &ta.to_le_bytes()].concat();
            let ib = [b.as_slice(), &tb.to_le_bytes()].concat();
            prop_assert_eq!(internal_key_cmp(&ia, &ib), internal_key_cmp_oracle(&ia, &ib));
            // Equal user keys: the trailers decide.
            let ib = [a.as_slice(), &tb.to_le_bytes()].concat();
            prop_assert_eq!(internal_key_cmp(&ia, &ib), internal_key_cmp_oracle(&ia, &ib));
        }
    }

    #[test]
    fn pack_unpack() {
        let packed = pack_seq_type(12345, ValueType::Value);
        let (seq, t) = unpack_seq_type(packed);
        assert_eq!(seq, 12345);
        assert_eq!(t, Some(ValueType::Value));
    }

    #[test]
    fn internal_key_parts() {
        let ik = make_internal_key(b"user", 7, ValueType::Deletion);
        assert_eq!(extract_user_key(&ik), b"user");
        let (seq, t) = extract_seq_type(&ik);
        assert_eq!(seq, 7);
        assert_eq!(t, Some(ValueType::Deletion));
    }

    #[test]
    fn ordering_user_key_then_seq_desc() {
        let a1 = make_internal_key(b"a", 10, ValueType::Value);
        let a2 = make_internal_key(b"a", 5, ValueType::Value);
        let b1 = make_internal_key(b"b", 1, ValueType::Value);
        // Same user key: newer (higher seq) sorts first.
        assert_eq!(internal_key_cmp(&a1, &a2), Ordering::Less);
        // Different user keys: lexicographic.
        assert_eq!(internal_key_cmp(&a2, &b1), Ordering::Less);
        assert_eq!(internal_key_cmp(&a1, &a1), Ordering::Equal);
    }

    #[test]
    fn deletion_sorts_after_value_at_same_seq() {
        let v = make_internal_key(b"k", 5, ValueType::Value);
        let d = make_internal_key(b"k", 5, ValueType::Deletion);
        // Value (tag 1) > Deletion (tag 0), so Value sorts first.
        assert_eq!(internal_key_cmp(&v, &d), Ordering::Less);
    }

    #[test]
    fn lookup_key_sorts_before_visible_entries() {
        let lookup = make_lookup_key(b"k", 10);
        let visible = make_internal_key(b"k", 10, ValueType::Value);
        let newer = make_internal_key(b"k", 11, ValueType::Value);
        // Lookup at seq 10 must sort <= entry at seq 10 ...
        assert_ne!(internal_key_cmp(&lookup, &visible), Ordering::Greater);
        // ... and > entry at seq 11 (which must be skipped).
        assert_eq!(internal_key_cmp(&lookup, &newer), Ordering::Greater);
    }

    #[test]
    fn value_type_tags() {
        assert_eq!(ValueType::from_u8(0), Some(ValueType::Deletion));
        assert_eq!(ValueType::from_u8(1), Some(ValueType::Value));
        assert_eq!(ValueType::from_u8(2), None);
    }
}
