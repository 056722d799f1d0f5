//! File-layer encryption for the engine (paper §5).
//!
//! Every encrypted file starts with a 64-byte **plaintext header** carrying
//! the magic, algorithm tag, DEK-ID, and per-file nonce — the "DEK-ID in
//! file metadata" mechanism of §5.4: metadata is read before data, letting
//! any authorized server resolve the DEK via its secure cache or the KDS.
//! The body is a single CTR/ChaCha20 stream, so blocks can be decrypted at
//! arbitrary offsets.
//!
//! Write-side cost model (§3.2): one [`CipherContext`] construction per
//! *encryption call* — the analogue of OpenSSL's per-call `EVP_EncryptInit`.
//! [`EncryptedWritableFile`] therefore exposes two knobs:
//!
//! * `buffer_capacity` — the application-managed WAL buffer (§5.3). Zero
//!   means every `append` is encrypted immediately with a fresh context
//!   (the expensive unbuffered path); a positive capacity defers and
//!   batches encryption, trading process-crash durability for throughput.
//! * `chunk_size` / `threads` — compaction-time chunked encryption (§5.2):
//!   buffered data is encrypted in `chunk_size` pieces, optionally across
//!   a scoped thread pool, one context per chunk.
//!
//! The keystream kernels *under* `CipherContext::xor_at` are batched
//! (multi-block AES-CTR/ChaCha20 with hardware dispatch — DESIGN.md §4d),
//! which raises per-byte throughput only; the per-call init cost this
//! module's buffering amortizes, and the `cipher_inits()` counters that
//! observe it, are untouched by that work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use shield_core::{perf, PerfCounter, PerfMetric};
use shield_crypto::{Algorithm, CipherContext, Dek, DekId, NONCE_LEN};
use shield_env::{
    Env, EnvResult, FileKind, RandomAccessFile, ReadRequest, SequentialFile, WritableFile,
};
use shield_kds::DekResolver;

use crate::error::{Error, Result};
use crate::integrity::derive_mac_subkey;

/// Length of the plaintext per-file metadata header.
pub const FILE_HEADER_LEN: usize = 64;

/// A writable file plus the identity of the DEK encrypting it and the MAC
/// subkey derived from that DEK (`None` when the file is plaintext).
pub type WritableWithMac = (Box<dyn WritableFile>, DekId, Option<[u8; 32]>);
/// A random-access file plus its DEK-derived MAC subkey (`None` when the
/// file is plaintext).
pub type RandomWithMac = (Arc<dyn RandomAccessFile>, Option<[u8; 32]>);
/// A sequential file plus its DEK-derived MAC subkey (`None` when the
/// file is plaintext).
pub type SequentialWithMac = (Box<dyn SequentialFile>, Option<[u8; 32]>);
const MAGIC: &[u8; 8] = b"SHLDENCF";
const HEADER_VERSION: u8 = 1;

/// The plaintext metadata prefix of every encrypted file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileHeader {
    /// Cipher used for the body.
    pub algorithm: Algorithm,
    /// Identifier of the DEK that encrypts the body (public).
    pub dek_id: DekId,
    /// Per-file nonce / initial counter block.
    pub nonce: [u8; NONCE_LEN],
}

impl FileHeader {
    /// Serializes to the fixed 64-byte header.
    #[must_use]
    pub fn encode(&self) -> [u8; FILE_HEADER_LEN] {
        let mut out = [0u8; FILE_HEADER_LEN];
        out[..8].copy_from_slice(MAGIC);
        out[8] = HEADER_VERSION;
        out[9] = self.algorithm.tag();
        out[16..32].copy_from_slice(&self.dek_id.to_bytes());
        out[32..32 + NONCE_LEN].copy_from_slice(&self.nonce);
        out
    }

    /// Parses a header; `Ok(None)` if the magic does not match (plaintext
    /// file), `Err` if the magic matches but the rest is invalid.
    pub fn decode(data: &[u8]) -> Result<Option<FileHeader>> {
        if data.len() < FILE_HEADER_LEN || &data[..8] != MAGIC {
            return Ok(None);
        }
        if data[8] != HEADER_VERSION {
            return Err(Error::Corruption(format!(
                "unsupported encryption header version {}",
                data[8]
            )));
        }
        let algorithm = Algorithm::from_tag(data[9])
            .ok_or_else(|| Error::Corruption(format!("bad algorithm tag {}", data[9])))?;
        let dek_id = DekId::from_bytes(data[16..32].try_into().unwrap());
        let nonce: [u8; NONCE_LEN] = data[32..32 + NONCE_LEN].try_into().unwrap();
        Ok(Some(FileHeader { algorithm, dek_id, nonce }))
    }
}

/// Engine-level encryption configuration (what [`crate::Options`] carries).
#[derive(Clone)]
pub struct EncryptionConfig {
    /// DEK source: per-file keys from the KDS through the secure cache.
    pub resolver: Arc<DekResolver>,
    /// WAL application-buffer size in bytes; 0 disables buffering (§5.3).
    /// The paper's default is 512 B.
    pub wal_buffer_size: usize,
    /// Chunk size for SST/compaction encryption (§5.2). Data is encrypted
    /// one chunk — one cipher init — at a time.
    pub chunk_size: usize,
    /// Worker threads for chunked encryption (1 = inline).
    pub encryption_threads: usize,
    /// When false, WAL files are left plaintext (the "Encrypted SST only"
    /// configuration of the paper's Table 2 — insecure, measurement only).
    pub encrypt_wal: bool,
    /// Cipher-context constructions performed, for the evaluation harness.
    inits: Arc<AtomicU64>,
}

impl EncryptionConfig {
    /// Creates a config with the paper's defaults: 512-byte WAL buffer,
    /// 4 KiB chunks, single-threaded chunk encryption.
    #[must_use]
    pub fn new(resolver: Arc<DekResolver>) -> Self {
        EncryptionConfig {
            resolver,
            wal_buffer_size: 512,
            chunk_size: 4096,
            encryption_threads: 1,
            encrypt_wal: true,
            inits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Disables WAL encryption (Table 2's "Encrypted SST" row). Insecure;
    /// exists to measure the WAL share of encryption overhead.
    #[must_use]
    pub fn with_plaintext_wal(mut self) -> Self {
        self.encrypt_wal = false;
        self
    }

    /// Sets the WAL buffer size (0 = unbuffered).
    #[must_use]
    pub fn with_wal_buffer(mut self, bytes: usize) -> Self {
        self.wal_buffer_size = bytes;
        self
    }

    /// Sets the chunked-encryption parameters.
    #[must_use]
    pub fn with_chunks(mut self, chunk_size: usize, threads: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self.encryption_threads = threads.max(1);
        self
    }

    /// Total cipher-context constructions so far.
    #[must_use]
    pub fn cipher_inits(&self) -> u64 {
        self.inits.load(Ordering::Relaxed)
    }

    /// Creates an encrypted writable file with a **fresh DEK** (unique DEK
    /// per file, §5.2), returning the file and the DEK id recorded in its
    /// header.
    pub fn new_writable(
        &self,
        env: &dyn Env,
        path: &str,
        kind: FileKind,
    ) -> Result<(Box<dyn WritableFile>, DekId)> {
        let (file, dek_id, _mac) = self.new_writable_with_mac(env, path, kind)?;
        Ok((file, dek_id))
    }

    /// Like [`new_writable`](Self::new_writable), also returning the MAC
    /// subkey derived from the file's DEK ([`derive_mac_subkey`]) for
    /// authenticated-integrity tagging — `None` when the file is plaintext
    /// (unencrypted WALs), in which case the caller falls back to the
    /// engine-wide integrity key.
    pub fn new_writable_with_mac(
        &self,
        env: &dyn Env,
        path: &str,
        kind: FileKind,
    ) -> Result<WritableWithMac> {
        if !self.encrypts(kind) {
            let file = env.new_writable_file(path, kind)?;
            // No header, no DEK: the file is plaintext and self-describing.
            return Ok((file, DekId(0), None));
        }
        let dek = self.resolver.new_dek()?;
        self.wrap_writable(env, path, kind, dek)
    }

    /// Whether a new file of `kind` gets a DEK (everything but a WAL
    /// segment under [`with_plaintext_wal`](Self::with_plaintext_wal)).
    #[must_use]
    pub(crate) fn encrypts(&self, kind: FileKind) -> bool {
        kind != FileKind::Wal || self.encrypt_wal
    }

    /// Creates `path` encrypted under `dek`, a key of this config's
    /// resolver that no other file was ever bound to: the second half of
    /// [`new_writable_with_mac`](Self::new_writable_with_mac), for a
    /// caller that already holds the file's key.
    pub(crate) fn wrap_writable(
        &self,
        env: &dyn Env,
        path: &str,
        kind: FileKind,
        dek: Dek,
    ) -> Result<WritableWithMac> {
        let mut nonce = [0u8; NONCE_LEN];
        shield_crypto::secure_random(&mut nonce);
        let header = FileHeader { algorithm: dek.algorithm(), dek_id: dek.id(), nonce };
        let mut inner = env.new_writable_file(path, kind)?;
        inner.append(&header.encode())?;
        // Persist the metadata header immediately: readers (and the
        // deletion path's DEK revocation) must see it even if the body is
        // still buffered.
        inner.flush()?;
        let (buffer_capacity, chunk_size, threads) = match kind {
            FileKind::Wal => (self.wal_buffer_size, usize::MAX, 1),
            FileKind::Sst => (self.chunk_size, self.chunk_size, self.encryption_threads),
            _ => (0, usize::MAX, 1),
        };
        let dek_id = dek.id();
        let mac = derive_mac_subkey(dek.key_bytes());
        Ok((
            Box::new(EncryptedWritableFile::new(
                inner,
                dek,
                nonce,
                buffer_capacity,
                chunk_size,
                threads,
                self.inits.clone(),
            )),
            dek_id,
            Some(mac),
        ))
    }

    /// Opens an encrypted (or, transparently, plaintext) file for random
    /// access, resolving the DEK named in its header.
    pub fn open_random(
        &self,
        env: &dyn Env,
        path: &str,
        kind: FileKind,
    ) -> Result<Arc<dyn RandomAccessFile>> {
        let (file, _mac) = self.open_random_with_mac(env, path, kind)?;
        Ok(file)
    }

    /// Like [`open_random`](Self::open_random), also returning the MAC
    /// subkey derived from the file's DEK — `None` for plaintext files.
    pub fn open_random_with_mac(
        &self,
        env: &dyn Env,
        path: &str,
        kind: FileKind,
    ) -> Result<RandomWithMac> {
        let inner = env.new_random_access_file(path, kind)?;
        let head = inner.read_at(0, FILE_HEADER_LEN)?;
        match FileHeader::decode(&head)? {
            None => Ok((inner, None)),
            Some(header) => {
                let dek = self.resolver.resolve(header.dek_id)?;
                self.inits.fetch_add(1, Ordering::Relaxed);
                perf::incr(PerfCounter::CipherInits, 1);
                let mac = derive_mac_subkey(dek.key_bytes());
                let ctx = CipherContext::new(&dek, &header.nonce);
                Ok((Arc::new(EncryptedRandomAccessFile { inner, ctx }), Some(mac)))
            }
        }
    }

    /// Opens an encrypted (or plaintext) file for sequential reads, also
    /// returning the MAC subkey derived from the file's DEK — `None` for
    /// plaintext files.
    pub fn open_sequential_with_mac(
        &self,
        env: &dyn Env,
        path: &str,
        kind: FileKind,
    ) -> Result<SequentialWithMac> {
        let mut inner = env.new_sequential_file(path, kind)?;
        let mut head = vec![0u8; FILE_HEADER_LEN];
        let mut filled = 0usize;
        while filled < FILE_HEADER_LEN {
            let n = inner.read(&mut head[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        head.truncate(filled);
        match FileHeader::decode(&head)? {
            None => {
                // Plaintext file: re-open to replay the consumed prefix.
                Ok((env.new_sequential_file(path, kind)?, None))
            }
            Some(header) => {
                let dek = self.resolver.resolve(header.dek_id)?;
                self.inits.fetch_add(1, Ordering::Relaxed);
                perf::incr(PerfCounter::CipherInits, 1);
                let mac = derive_mac_subkey(dek.key_bytes());
                let ctx = CipherContext::new(&dek, &header.nonce);
                Ok((Box::new(EncryptedSequentialFile { inner, ctx, offset: 0 }), Some(mac)))
            }
        }
    }

    /// Reads the DEK-ID out of a file header, if the file is encrypted.
    pub fn peek_dek_id(env: &dyn Env, path: &str, kind: FileKind) -> Result<Option<DekId>> {
        let inner = env.new_random_access_file(path, kind)?;
        let head = inner.read_at(0, FILE_HEADER_LEN)?;
        Ok(FileHeader::decode(&head)?.map(|h| h.dek_id))
    }

    /// Called before deleting the files these DEKs encrypt (or for keys
    /// no file was ever bound to): prunes the secure cache — one persist
    /// for the batch — and revokes each DEK at the KDS, so compaction
    /// doubles as key rotation: once the old files die, their DEKs die
    /// with them (§5.2).
    pub fn revoke_deks(&self, dek_ids: &[DekId]) -> Result<()> {
        self.resolver.on_files_deleted(dek_ids)?;
        Ok(())
    }
}

impl std::fmt::Debug for EncryptionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptionConfig")
            .field("wal_buffer_size", &self.wal_buffer_size)
            .field("chunk_size", &self.chunk_size)
            .field("encryption_threads", &self.encryption_threads)
            .finish_non_exhaustive()
    }
}

/// A writable file whose body is encrypted before persistence.
pub struct EncryptedWritableFile {
    inner: Box<dyn WritableFile>,
    dek: Dek,
    nonce: [u8; NONCE_LEN],
    /// Plaintext awaiting encryption (the §5.3 application buffer).
    buffer: Vec<u8>,
    buffer_capacity: usize,
    chunk_size: usize,
    threads: usize,
    /// Byte offset in the encrypted stream of the first buffered byte.
    stream_offset: u64,
    logical_len: u64,
    inits: Arc<AtomicU64>,
}

impl EncryptedWritableFile {
    /// Wraps `inner` (whose encrypted-stream offset starts at 0, i.e. the
    /// plaintext header has already been written) for external users such
    /// as the instance-level EncFS environment.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn wrap(
        inner: Box<dyn WritableFile>,
        dek: Dek,
        nonce: [u8; NONCE_LEN],
        buffer_capacity: usize,
        chunk_size: usize,
        threads: usize,
        inits: Arc<AtomicU64>,
    ) -> Self {
        Self::new(inner, dek, nonce, buffer_capacity, chunk_size, threads, inits)
    }

    #[allow(clippy::too_many_arguments)]
    fn new(
        inner: Box<dyn WritableFile>,
        dek: Dek,
        nonce: [u8; NONCE_LEN],
        buffer_capacity: usize,
        chunk_size: usize,
        threads: usize,
        inits: Arc<AtomicU64>,
    ) -> Self {
        EncryptedWritableFile {
            inner,
            dek,
            nonce,
            buffer: Vec::with_capacity(buffer_capacity.min(1 << 20)),
            buffer_capacity,
            chunk_size: chunk_size.max(1),
            threads: threads.max(1),
            stream_offset: 0,
            logical_len: 0,
            inits,
        }
    }

    /// Encrypts `data` (starting at stream offset `offset`) in chunks,
    /// one fresh cipher context per chunk, optionally across threads.
    fn encrypt_payload(&self, offset: u64, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        // PerfContext: the whole chunked encryption is charged to the
        // calling thread (worker threads have their own, disabled,
        // context), as are all chunk cipher inits.
        let t = perf::timer();
        let chunk = self.chunk_size;
        let n_chunks = data.len().div_ceil(chunk.min(data.len().max(1)));
        perf::incr(PerfCounter::CipherInits, n_chunks as u64);
        if self.threads <= 1 || n_chunks <= 1 {
            let mut pos = 0usize;
            while pos < data.len() {
                let end = (pos + chunk).min(data.len());
                self.inits.fetch_add(1, Ordering::Relaxed);
                let ctx = CipherContext::new(&self.dek, &self.nonce);
                ctx.encrypt_at(offset + pos as u64, &mut data[pos..end]);
                pos = end;
            }
        } else {
            let threads = self.threads.min(n_chunks);
            let inits = &self.inits;
            let dek = &self.dek;
            let nonce = &self.nonce;
            std::thread::scope(|scope| {
                let mut rest = &mut data[..];
                let mut base = offset;
                let mut spawned = Vec::with_capacity(threads);
                // Split into `threads` contiguous shards of whole chunks.
                let chunks_per_thread = n_chunks.div_ceil(threads);
                for _ in 0..threads {
                    if rest.is_empty() {
                        break;
                    }
                    let take = (chunks_per_thread * chunk).min(rest.len());
                    let (shard, tail) = rest.split_at_mut(take);
                    rest = tail;
                    let shard_base = base;
                    base += take as u64;
                    spawned.push(scope.spawn(move || {
                        let mut pos = 0usize;
                        while pos < shard.len() {
                            let end = (pos + chunk).min(shard.len());
                            inits.fetch_add(1, Ordering::Relaxed);
                            let ctx = CipherContext::new(dek, nonce);
                            ctx.encrypt_at(shard_base + pos as u64, &mut shard[pos..end]);
                            pos = end;
                        }
                    }));
                }
                for h in spawned {
                    h.join().expect("encryption worker panicked");
                }
            });
        }
        perf::add_elapsed(PerfMetric::BlockEncrypt, t);
    }

    /// Encrypts and appends everything in the buffer.
    fn drain_buffer(&mut self) -> EnvResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let mut data = std::mem::take(&mut self.buffer);
        self.encrypt_payload(self.stream_offset, &mut data);
        self.stream_offset += data.len() as u64;
        self.inner.append(&data)
    }
}

impl WritableFile for EncryptedWritableFile {
    fn append(&mut self, data: &[u8]) -> EnvResult<()> {
        self.logical_len += data.len() as u64;
        if self.buffer_capacity == 0 {
            // Unbuffered: encrypt immediately — one init per call (§3.2).
            let mut owned = data.to_vec();
            self.encrypt_payload(self.stream_offset, &mut owned);
            self.stream_offset += owned.len() as u64;
            return self.inner.append(&owned);
        }
        self.buffer.extend_from_slice(data);
        if self.buffer.len() >= self.buffer_capacity {
            self.drain_buffer()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> EnvResult<()> {
        // Deliberately does NOT drain a non-empty application buffer: the
        // §5.3 design defers persistence to the buffer threshold, shifting
        // the durability point from the OS to the application. Only the
        // already-encrypted bytes are pushed down. `sync` (an explicit
        // durability request) drains.
        if self.buffer_capacity == 0 {
            self.drain_buffer()?;
        }
        self.inner.flush()
    }

    fn sync(&mut self) -> EnvResult<()> {
        self.drain_buffer()?;
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.logical_len
    }
}

/// Wraps an already-open random-access file whose body is encrypted under
/// `dek` with `nonce` (used by EncFS and read-only instances).
#[must_use]
pub fn wrap_random_access(
    inner: Arc<dyn RandomAccessFile>,
    dek: &Dek,
    nonce: &[u8; NONCE_LEN],
) -> Arc<dyn RandomAccessFile> {
    Arc::new(EncryptedRandomAccessFile { inner, ctx: CipherContext::new(dek, nonce) })
}

/// Wraps a sequential file positioned just past the plaintext header.
#[must_use]
pub fn wrap_sequential(
    inner: Box<dyn SequentialFile>,
    dek: &Dek,
    nonce: &[u8; NONCE_LEN],
) -> Box<dyn SequentialFile> {
    Box::new(EncryptedSequentialFile { inner, ctx: CipherContext::new(dek, nonce), offset: 0 })
}

struct EncryptedRandomAccessFile {
    inner: Arc<dyn RandomAccessFile>,
    ctx: CipherContext,
}

impl RandomAccessFile for EncryptedRandomAccessFile {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        let raw = self.inner.read_at(offset + FILE_HEADER_LEN as u64, len)?;
        let mut data = raw.to_vec();
        // block_read was charged by the inner (leaf) read above; only the
        // keystream XOR is block_decrypt, so the two never overlap.
        let t = perf::timer();
        self.ctx.decrypt_at(offset, &mut data);
        perf::add_elapsed(PerfMetric::BlockDecrypt, t);
        Ok(Bytes::from(data))
    }

    fn len(&self) -> EnvResult<u64> {
        Ok(self.inner.len()?.saturating_sub(FILE_HEADER_LEN as u64))
    }

    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        // Pass the batch through so a remote env underneath charges one
        // round trip for all of it; each slot then decrypts at its own
        // logical offset (CTR keystreams are position-, not read-, based).
        let shifted: Vec<ReadRequest> = requests
            .iter()
            .map(|r| ReadRequest { offset: r.offset + FILE_HEADER_LEN as u64, len: r.len })
            .collect();
        let raw = self.inner.read_at_many(&shifted);
        raw.into_iter()
            .zip(requests.iter())
            .map(|(res, req)| {
                let mut data = res?.to_vec();
                let t = perf::timer();
                self.ctx.decrypt_at(req.offset, &mut data);
                perf::add_elapsed(PerfMetric::BlockDecrypt, t);
                Ok(Bytes::from(data))
            })
            .collect()
    }
}

struct EncryptedSequentialFile {
    inner: Box<dyn SequentialFile>,
    ctx: CipherContext,
    offset: u64,
}

impl SequentialFile for EncryptedSequentialFile {
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize> {
        let n = self.inner.read(buf)?;
        let t = perf::timer();
        self.ctx.decrypt_at(self.offset, &mut buf[..n]);
        perf::add_elapsed(PerfMetric::BlockDecrypt, t);
        self.offset += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_crypto::Algorithm;
    use shield_env::MemEnv;
    use shield_kds::{KdsConfig, LocalKds, ServerId};

    fn config() -> (EncryptionConfig, Arc<LocalKds>) {
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let resolver = Arc::new(DekResolver::new(
            kds.clone(),
            None,
            ServerId(1),
            Algorithm::Aes128Ctr,
        ));
        (EncryptionConfig::new(resolver), kds)
    }

    #[test]
    fn header_roundtrip() {
        let h = FileHeader {
            algorithm: Algorithm::ChaCha20,
            dek_id: DekId(777),
            nonce: [9u8; NONCE_LEN],
        };
        let enc = h.encode();
        assert_eq!(FileHeader::decode(&enc).unwrap(), Some(h));
        // Plaintext data doesn't decode as a header.
        assert_eq!(FileHeader::decode(b"some plaintext data that is long enough to hold a header....." ).unwrap(), None);
        assert_eq!(FileHeader::decode(b"short").unwrap(), None);
    }

    #[test]
    fn write_read_roundtrip_random_access() {
        let (cfg, _) = config();
        let env = MemEnv::new();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        {
            let (mut f, _) = cfg.new_writable(&env, "f.sst", FileKind::Sst).unwrap();
            f.append(&payload).unwrap();
            f.sync().unwrap();
            assert_eq!(f.len(), payload.len() as u64);
        }
        let r = cfg.open_random(&env, "f.sst", FileKind::Sst).unwrap();
        assert_eq!(r.len().unwrap(), payload.len() as u64);
        assert_eq!(&r.read_at(0, 100).unwrap()[..], &payload[..100]);
        assert_eq!(&r.read_at(5000, 2500).unwrap()[..], &payload[5000..7500]);
    }

    #[test]
    fn concurrent_random_reads_decrypt_consistently() {
        // Every reader of a table decrypts through one shared
        // `EncryptedRandomAccessFile`; heavily interleaved offsets must
        // never corrupt any thread's plaintext.
        let (cfg, _) = config();
        let env = MemEnv::new();
        let payload: Vec<u8> =
            (0..128 * 1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8).collect();
        {
            let (mut f, _) = cfg.new_writable(&env, "f.sst", FileKind::Sst).unwrap();
            f.append(&payload).unwrap();
            f.sync().unwrap();
        }
        let r = cfg.open_random(&env, "f.sst", FileKind::Sst).unwrap();
        let payload = Arc::new(payload);
        let joins: Vec<_> = (0..8u64)
            .map(|t| {
                let r = r.clone();
                let payload = payload.clone();
                std::thread::spawn(move || {
                    let mut x = t.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                    for _ in 0..200 {
                        x ^= x >> 12;
                        x ^= x << 25;
                        x ^= x >> 27;
                        let off = (x % (payload.len() as u64 - 4096)) as usize;
                        let len = 1 + (x % 4096) as usize;
                        let got = r.read_at(off as u64, len).unwrap();
                        assert_eq!(&got[..], &payload[off..off + len], "offset {off} len {len}");
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (cfg, _) = config();
        let env = MemEnv::new();
        let secret = b"extremely secret client data that must never appear on disk";
        {
            let (mut f, _) = cfg.new_writable(&env, "f", FileKind::Sst).unwrap();
            f.append(secret).unwrap();
            f.sync().unwrap();
        }
        let raw = env.raw_content("f").unwrap();
        assert!(!raw.windows(16).any(|w| secret.windows(16).any(|s| s == w)));
        // But the header magic is plaintext.
        assert_eq!(&raw[..8], MAGIC);
    }

    #[test]
    fn sequential_read_roundtrip() {
        let (cfg, _) = config();
        let env = MemEnv::new();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 256) as u8).collect();
        {
            let (mut f, _) = cfg.new_writable(&env, "f.log", FileKind::Wal).unwrap();
            f.append(&payload).unwrap();
            f.sync().unwrap();
        }
        let (mut s, _) = cfg.open_sequential_with_mac(&env, "f.log", FileKind::Wal).unwrap();
        let mut out = Vec::new();
        let mut buf = [0u8; 333];
        loop {
            let n = s.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, payload);
    }

    #[test]
    fn plaintext_files_pass_through() {
        let (cfg, _) = config();
        let env = MemEnv::new();
        {
            let mut f = env.new_writable_file("plain", FileKind::Other).unwrap();
            f.append(b"hello plaintext world, long enough to exceed header length....")
                .unwrap();
            f.sync().unwrap();
        }
        let r = cfg.open_random(&env, "plain", FileKind::Other).unwrap();
        assert_eq!(&r.read_at(0, 5).unwrap()[..], b"hello");
        let (mut s, _) = cfg.open_sequential_with_mac(&env, "plain", FileKind::Other).unwrap();
        let mut buf = [0u8; 5];
        s.read(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn unique_dek_per_file() {
        let (cfg, _) = config();
        let env = MemEnv::new();
        let (_, id1) = cfg.new_writable(&env, "a", FileKind::Sst).unwrap();
        let (_, id2) = cfg.new_writable(&env, "b", FileKind::Sst).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(
            EncryptionConfig::peek_dek_id(&env, "a", FileKind::Sst).unwrap(),
            Some(id1)
        );
    }

    #[test]
    fn unbuffered_wal_pays_one_init_per_append() {
        let (cfg, _) = config();
        let cfg = cfg.with_wal_buffer(0);
        let env = MemEnv::new();
        let before = cfg.cipher_inits();
        let (mut f, _) = cfg.new_writable(&env, "w", FileKind::Wal).unwrap();
        for _ in 0..50 {
            f.append(&[1u8; 20]).unwrap();
        }
        f.flush().unwrap();
        assert_eq!(cfg.cipher_inits() - before, 50);
    }

    #[test]
    fn buffered_wal_amortizes_inits() {
        let (cfg, _) = config();
        let cfg = cfg.with_wal_buffer(512);
        let env = MemEnv::new();
        let before = cfg.cipher_inits();
        let (mut f, _) = cfg.new_writable(&env, "w", FileKind::Wal).unwrap();
        for _ in 0..50 {
            f.append(&[1u8; 20]).unwrap(); // 1000 bytes total
        }
        // flush() does not drain the buffer (deferred persistence); sync()
        // does.
        f.flush().unwrap();
        f.sync().unwrap();
        // 1000 bytes through a 512-byte buffer: one drain at ≥512 plus the
        // final sync — far fewer than 50 inits.
        let inits = cfg.cipher_inits() - before;
        assert!(inits <= 3, "inits = {inits}");
        // And the data still round-trips.
        let (mut s, _) = cfg.open_sequential_with_mac(&env, "w", FileKind::Wal).unwrap();
        let mut buf = vec![0u8; 2000];
        let mut total = 0;
        loop {
            let n = s.read(&mut buf[total..]).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 1000);
        assert!(buf[..1000].iter().all(|&b| b == 1));
    }

    #[test]
    fn buffered_wal_loses_unflushed_tail_on_process_crash() {
        let (cfg, _) = config();
        let cfg = cfg.with_wal_buffer(1 << 20); // large: nothing auto-drains
        let env = MemEnv::new();
        let (mut f, _) = cfg.new_writable(&env, "w", FileKind::Wal).unwrap();
        f.append(b"never flushed").unwrap();
        drop(f); // process crash: the application buffer is simply lost
        let raw = env.raw_content("w").unwrap();
        // Only the header could have reached storage.
        assert!(raw.len() <= FILE_HEADER_LEN);
    }

    #[test]
    fn multithreaded_chunks_match_single_thread() {
        let env = MemEnv::new();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        // Write with 4 threads / 4 KiB chunks…
        let (cfg_mt, _) = config();
        let cfg_mt = cfg_mt.with_chunks(4096, 4);
        {
            let (mut f, _) = cfg_mt.new_writable(&env, "mt", FileKind::Sst).unwrap();
            f.append(&payload).unwrap();
            f.sync().unwrap();
        }
        let r = cfg_mt.open_random(&env, "mt", FileKind::Sst).unwrap();
        let round = r.read_at(0, payload.len()).unwrap();
        assert_eq!(&round[..], &payload[..]);
        // Chunked inits: ~ len/chunk.
        assert!(cfg_mt.cipher_inits() >= (payload.len() / 4096) as u64);
    }

    #[test]
    fn deleted_file_revokes_dek() {
        let (cfg, kds) = config();
        let env = MemEnv::new();
        let (mut f, dek_id) = cfg.new_writable(&env, "f", FileKind::Sst).unwrap();
        f.append(b"data").unwrap();
        f.sync().unwrap();
        drop(f);
        assert!(kds.has_dek(dek_id));
        let peeked = EncryptionConfig::peek_dek_id(&env, "f", FileKind::Sst).unwrap();
        assert_eq!(peeked, Some(dek_id));
        cfg.revoke_deks(&[dek_id]).unwrap();
        env.remove_file("f").unwrap();
        assert!(!kds.has_dek(dek_id), "DEK must die with its file");
    }
}
