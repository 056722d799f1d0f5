//! Authenticated integrity: per-block HMAC-SHA256 tags over every
//! persistent artifact (SST blocks, WAL records, MANIFEST records).
//!
//! CTR-mode encryption is malleable — flipping a ciphertext bit flips the
//! same plaintext bit — and CRC32C is not a cryptographic check: an
//! attacker who can write to the storage medium can alter plaintext
//! files (and, with more effort, splice or replay whole blocks of
//! encrypted ones) without tripping the checksum. Under
//! [`Integrity::Hmac`] every block/record carries a truncated
//! HMAC-SHA256 tag whose message binds:
//!
//! - the **file-unique context** (16 random bytes minted at file
//!   creation), defeating cross-file splicing;
//! - the **position** (block offset, or WAL fragment counter), defeating
//!   within-file block swaps and record replay/reorder;
//! - the **bytes themselves**, defeating bit flips and CRC re-patching.
//!
//! Keys: SHIELD-encrypted files use a MAC subkey derived from the file's
//! DEK ([`derive_mac_subkey`], domain-separated from the CTR use of the
//! key); plaintext and EncFS deployments use the engine-wide
//! `Options::integrity_key`. Tags are computed over **plaintext** block
//! bytes — the builder and fetcher sit above the encryption layer, and
//! CTR maps ciphertext mutations to plaintext mutations 1:1, so a
//! plaintext MAC detects exactly the set of mutations that change what
//! the engine would read (see DESIGN.md §4h for the threat model,
//! including what this does *not* defend: whole-file rollback).
//!
//! Verification is **file-format driven**, not option driven: a v2
//! (tagged) file is always verified on read regardless of the current
//! `Options::integrity` setting, and a v1 (legacy) file is always
//! readable — under `Hmac` it merely bumps the
//! `integrity_unprotected_files` gauge so operators can watch the
//! rewrite-by-compaction progress.

use std::sync::Arc;

use shield_core::{Event, EventDispatcher};
use shield_crypto::HmacKey;

use crate::error::{Error, Result};
use crate::statistics::Statistics;

/// Integrity mode for persistent data ([`crate::Options::integrity`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Integrity {
    /// CRC32C only (the classic LSM format): catches disk rot, not
    /// tampering.
    #[default]
    Crc,
    /// CRC32C plus a truncated per-block HMAC-SHA256 tag: detects every
    /// plaintext-altering mutation, splice, swap, and replay.
    Hmac,
}

/// Length of the per-file random context bound into every tag.
pub const CONTEXT_LEN: usize = 16;

/// Length of the truncated HMAC-SHA256 tag appended per block/record.
pub const BLOCK_TAG_LEN: usize = 16;

/// Engine-level integrity settings, as threaded into the read path
/// (a projection of [`crate::Options`] plus the fallback MAC key).
#[derive(Clone, Copy, Debug, Default)]
pub struct IntegrityOptions {
    /// Write-side mode: should newly created files carry tags?
    pub mode: Integrity,
    /// Engine-wide MAC key for files that have no DEK to derive a subkey
    /// from (plain and EncFS deployments, plaintext WALs).
    pub key: [u8; 32],
}

/// Derives the MAC subkey for a file from its DEK key material,
/// domain-separated from the key's CTR use.
#[must_use]
pub fn derive_mac_subkey(dek_key: &[u8]) -> [u8; 32] {
    shield_crypto::hmac_sha256(dek_key, b"shield-integrity-mac-v1")
}

/// Computes the truncated tag for one SST block: message =
/// `context ‖ offset (u64 LE) ‖ compression byte ‖ block bytes`.
///
/// Expands `key` on every call; the engine keys once per file
/// ([`IntegrityCtx`], the table builder, the log writer).
#[must_use]
pub fn block_tag(
    key: &[u8; 32],
    context: &[u8; CONTEXT_LEN],
    offset: u64,
    compression: u8,
    contents: &[u8],
) -> [u8; BLOCK_TAG_LEN] {
    position_tag(&HmacKey::new(key), context, offset, compression, contents)
}

/// Computes the truncated tag for one WAL/MANIFEST record fragment:
/// message = `context ‖ fragment counter (u64 LE) ‖ record type ‖
/// fragment bytes`. The monotonic counter binds position, defeating
/// record replay, reorder, and cross-log splicing.
///
/// Expands `key` on every call, like [`block_tag`].
#[must_use]
pub fn record_tag(
    key: &[u8; 32],
    context: &[u8; CONTEXT_LEN],
    counter: u64,
    record_type: u8,
    fragment: &[u8],
) -> [u8; BLOCK_TAG_LEN] {
    position_tag(&HmacKey::new(key), context, counter, record_type, fragment)
}

/// The one tag construction behind both [`block_tag`] and [`record_tag`]:
/// `HMAC(key, context ‖ position (u64 LE) ‖ kind ‖ bytes)` truncated to
/// [`BLOCK_TAG_LEN`], with `position` the block offset or fragment
/// counter and `kind` the compression byte or record type. The parts are
/// hashed in place, so a 4 KiB block is not copied to be tagged.
#[must_use]
pub(crate) fn position_tag(
    key: &HmacKey,
    context: &[u8; CONTEXT_LEN],
    position: u64,
    kind: u8,
    bytes: &[u8],
) -> [u8; BLOCK_TAG_LEN] {
    let full = key.mac(&[context, &position.to_le_bytes(), &[kind], bytes]);
    let mut tag = [0u8; BLOCK_TAG_LEN];
    tag.copy_from_slice(&full[..BLOCK_TAG_LEN]);
    tag
}

/// What a table/log opener knows about integrity *before* seeing the
/// file: the key that would verify it and whether the engine expects new
/// files to be tagged. The file's own format version decides whether
/// verification actually runs (v2 → always, v1 → never); `expect_hmac`
/// only controls the `integrity_unprotected_files` gauge for legacy
/// files encountered under [`Integrity::Hmac`].
#[derive(Clone, Default)]
pub struct ReadIntegrity {
    /// MAC key to verify with (DEK-derived subkey or the engine key).
    pub key: [u8; 32],
    /// True when `Options::integrity == Hmac`.
    pub expect_hmac: bool,
    /// Event sink for violation events.
    pub events: Option<Arc<EventDispatcher>>,
}

impl std::fmt::Debug for ReadIntegrity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadIntegrity")
            .field("expect_hmac", &self.expect_hmac)
            .finish_non_exhaustive()
    }
}

/// Read-side verification context for one tagged (v2) file: the key, the
/// file's context, and the observability sinks the verifier reports to.
#[derive(Clone)]
pub struct IntegrityCtx {
    /// MAC key (DEK-derived subkey or the engine key), expanded once for
    /// every block or record of the file.
    pub key: HmacKey,
    /// The file's 16-byte random context (from its footer/preamble).
    pub context: [u8; CONTEXT_LEN],
    /// File number, for the violation event payload.
    pub file_number: u64,
    /// Ticker sink (`integrity_checks` / `integrity_failures`).
    pub stats: Option<Arc<Statistics>>,
    /// Event sink for [`Event::IntegrityViolation`].
    pub events: Option<Arc<EventDispatcher>>,
}

impl IntegrityCtx {
    /// A bare context with no observability sinks (tests, tools).
    #[must_use]
    pub fn new(key: [u8; 32], context: [u8; CONTEXT_LEN], file_number: u64) -> Self {
        IntegrityCtx { key: HmacKey::new(&key), context, file_number, stats: None, events: None }
    }

    /// Verifies one SST block tag, bumping tickers and emitting the
    /// violation event on mismatch.
    pub fn verify_block(
        &self,
        offset: u64,
        compression: u8,
        contents: &[u8],
        stored_tag: &[u8],
    ) -> Result<()> {
        let expect = position_tag(&self.key, &self.context, offset, compression, contents);
        self.finish(offset, &expect, stored_tag, "block")
    }

    /// Verifies one WAL/MANIFEST record tag (offset in the event payload
    /// is the fragment counter).
    pub fn verify_record(
        &self,
        counter: u64,
        record_type: u8,
        fragment: &[u8],
        stored_tag: &[u8],
    ) -> Result<()> {
        let expect = position_tag(&self.key, &self.context, counter, record_type, fragment);
        self.finish(counter, &expect, stored_tag, "record")
    }

    fn finish(&self, offset: u64, expect: &[u8], stored: &[u8], what: &str) -> Result<()> {
        use std::sync::atomic::Ordering;
        if let Some(stats) = &self.stats {
            stats.integrity_checks.fetch_add(1, Ordering::Relaxed);
        }
        if shield_crypto::constant_time_eq(expect, stored) {
            return Ok(());
        }
        if let Some(stats) = &self.stats {
            stats.integrity_failures.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(events) = &self.events {
            events.emit(&Event::IntegrityViolation { file: self.file_number, offset });
        }
        Err(Error::IntegrityViolation(format!(
            "{what} HMAC tag mismatch in file {} at offset {offset}",
            self.file_number
        )))
    }
}

impl std::fmt::Debug for IntegrityCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("IntegrityCtx").field("file_number", &self.file_number).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_tag_binds_context_offset_and_bytes() {
        let key = [7u8; 32];
        let ctx = [1u8; CONTEXT_LEN];
        let base = block_tag(&key, &ctx, 0, 0, b"hello");
        assert_ne!(base, block_tag(&key, &ctx, 1, 0, b"hello"), "offset unbound");
        assert_ne!(base, block_tag(&key, &ctx, 0, 1, b"hello"), "compression unbound");
        assert_ne!(base, block_tag(&key, &ctx, 0, 0, b"hellp"), "bytes unbound");
        assert_ne!(base, block_tag(&key, &[2u8; CONTEXT_LEN], 0, 0, b"hello"), "context unbound");
        assert_ne!(base, block_tag(&[8u8; 32], &ctx, 0, 0, b"hello"), "key unbound");
        assert_eq!(base, block_tag(&key, &ctx, 0, 0, b"hello"), "deterministic");
    }

    #[test]
    fn record_tag_binds_counter_and_type() {
        let key = [3u8; 32];
        let ctx = [9u8; CONTEXT_LEN];
        let base = record_tag(&key, &ctx, 5, 1, b"payload");
        assert_ne!(base, record_tag(&key, &ctx, 6, 1, b"payload"), "counter unbound");
        assert_ne!(base, record_tag(&key, &ctx, 5, 2, b"payload"), "type unbound");
    }

    #[test]
    fn mac_subkey_is_domain_separated() {
        let dek = [0x42u8; 32];
        let sub = derive_mac_subkey(&dek);
        assert_ne!(sub, dek);
        assert_eq!(sub, derive_mac_subkey(&dek));
    }

    #[test]
    fn verify_reports_mismatch_as_integrity_violation() {
        let ctx = IntegrityCtx::new([1u8; 32], [2u8; CONTEXT_LEN], 42);
        let tag = block_tag(&[1u8; 32], &ctx.context, 10, 0, b"data");
        assert!(ctx.verify_block(10, 0, b"data", &tag).is_ok());
        let err = ctx.verify_block(11, 0, b"data", &tag).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)));
        let err = ctx.verify_block(10, 0, b"datA", &tag).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)));
    }

    #[test]
    fn verify_bumps_tickers() {
        let stats = Statistics::new();
        let mut ctx = IntegrityCtx::new([1u8; 32], [2u8; CONTEXT_LEN], 7);
        ctx.stats = Some(stats.clone());
        let tag = block_tag(&[1u8; 32], &ctx.context, 0, 0, b"x");
        ctx.verify_block(0, 0, b"x", &tag).unwrap();
        assert!(ctx.verify_block(1, 0, b"x", &tag).is_err());
        let snap = stats.snapshot();
        assert_eq!(snap.integrity_checks, 2);
        assert_eq!(snap.integrity_failures, 1);
    }
}
