//! Instance-level encryption (paper §4): a transparent [`Env`] wrapper.
//!
//! All file I/O — WAL, SST, Manifest, CURRENT, everything — is intercepted
//! at the I/O-engine layer and encrypted under **one instance DEK**
//! supplied at startup and held only in memory. The LSM-KVS core is
//! completely unaware. This is the simple, effective design for
//! monolithic/controlled deployments, with the §4.2 trade-offs: no
//! per-file isolation, and a DEK compromise exposes the whole store until
//! everything is re-encrypted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield_core::EventListener;
use shield_crypto::{Dek, NONCE_LEN};
use shield_env::{
    Env, EnvError, EnvResult, FaultStatsSnapshot, FileKind, IoStats, RandomAccessFile,
    SequentialFile, WritableFile,
};
use crate::encryption::{
    wrap_random_access, wrap_sequential, EncryptedWritableFile, FileHeader, FILE_HEADER_LEN,
};

/// An [`Env`] that encrypts every file under a single instance DEK. A
/// database gets one from [`crate::Encryption::EncFs`]
/// ([`crate::FileStore::new`] wraps the env in it).
pub struct EncryptedEnv {
    inner: Arc<dyn Env>,
    dek: Dek,
    /// Applies the §5.3 application buffer to WAL files (0 = per-append
    /// encryption, the plain EncFS design).
    wal_buffer_size: usize,
    /// Cipher-context constructions (the per-call init cost of §3.2);
    /// the store's [`crate::FileStore::cipher_inits`] reads it.
    pub(crate) inits: Arc<AtomicU64>,
}

impl EncryptedEnv {
    /// Wraps `inner`, encrypting under `dek`.
    #[must_use]
    pub fn new(inner: Arc<dyn Env>, dek: Dek, wal_buffer_size: usize) -> Self {
        EncryptedEnv { inner, dek, wal_buffer_size, inits: Arc::new(AtomicU64::new(0)) }
    }

    fn read_header(&self, path: &str, kind: FileKind) -> EnvResult<FileHeader> {
        let f = self.inner.new_random_access_file(path, kind)?;
        let head = f.read_at(0, FILE_HEADER_LEN)?;
        match FileHeader::decode(&head) {
            Ok(Some(h)) => {
                if h.dek_id != self.dek.id() {
                    return Err(EnvError::Corruption(format!(
                        "{path}: encrypted under a different DEK ({})",
                        h.dek_id
                    )));
                }
                Ok(h)
            }
            Ok(None) => Err(EnvError::Corruption(format!("{path}: missing encryption header"))),
            Err(e) => Err(EnvError::Corruption(e.to_string())),
        }
    }
}

impl Env for EncryptedEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        let mut nonce = [0u8; NONCE_LEN];
        shield_crypto::secure_random(&mut nonce);
        let header =
            FileHeader { algorithm: self.dek.algorithm(), dek_id: self.dek.id(), nonce };
        let mut inner = self.inner.new_writable_file(path, kind)?;
        inner.append(&header.encode())?;
        inner.flush()?;
        let buffer = if kind == FileKind::Wal { self.wal_buffer_size } else { 0 };
        Ok(Box::new(EncryptedWritableFile::new(
            inner,
            self.dek.clone(),
            nonce,
            buffer,
            usize::MAX,
            1,
            self.inits.clone(),
        )))
    }

    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        let header = self.read_header(path, kind)?;
        self.inits.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.new_random_access_file(path, kind)?;
        Ok(wrap_random_access(inner, &self.dek, &header.nonce))
    }

    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        let header = self.read_header(path, kind)?;
        self.inits.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.new_sequential_file(path, kind)?;
        // Skip the plaintext header.
        let mut skip = [0u8; FILE_HEADER_LEN];
        let mut done = 0;
        while done < FILE_HEADER_LEN {
            let n = inner.read(&mut skip[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        Ok(wrap_sequential(inner, &self.dek, &header.nonce))
    }

    fn remove_file(&self, path: &str) -> EnvResult<()> {
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        self.inner.rename(from, to)
    }

    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &str) -> EnvResult<u64> {
        // Report the logical (body) size so callers see plaintext lengths.
        Ok(self
            .inner
            .file_size(path)?
            .saturating_sub(FILE_HEADER_LEN as u64))
    }

    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        self.inner.list_dir(dir)
    }

    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.create_dir_all(dir)
    }

    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.remove_dir_all(dir)
    }

    fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.inner.io_stats()
    }

    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        self.inner.fault_stats()
    }

    fn set_event_listener(&self, listener: Arc<dyn EventListener>) {
        self.inner.set_event_listener(listener);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_crypto::Algorithm;
    use shield_env::MemEnv;

    fn setup() -> (MemEnv, EncryptedEnv) {
        let mem = MemEnv::new();
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        let env = EncryptedEnv::new(Arc::new(mem.clone()), dek, 0);
        (mem, env)
    }

    #[test]
    fn transparent_roundtrip() {
        let (mem, env) = setup();
        {
            let mut f = env.new_writable_file("f", FileKind::Sst).unwrap();
            f.append(b"hello ").unwrap();
            f.append(b"world").unwrap();
            f.sync().unwrap();
            assert_eq!(f.len(), 11);
        }
        // Ciphertext on the backing store.
        let raw = mem.raw_content("f").unwrap();
        assert_eq!(raw.len(), FILE_HEADER_LEN + 11);
        assert!(!raw.windows(5).any(|w| w == b"hello"));
        // Plaintext through the env.
        let r = env.new_random_access_file("f", FileKind::Sst).unwrap();
        assert_eq!(&r.read_at(0, 11).unwrap()[..], b"hello world");
        assert_eq!(r.len().unwrap(), 11);
        assert_eq!(env.file_size("f").unwrap(), 11);
        let mut s = env.new_sequential_file("f", FileKind::Sst).unwrap();
        let mut buf = [0u8; 6];
        s.read(&mut buf).unwrap();
        assert_eq!(&buf, b"hello ");
    }

    #[test]
    fn wrong_dek_detected() {
        let (mem, env) = setup();
        {
            let mut f = env.new_writable_file("f", FileKind::Sst).unwrap();
            f.append(b"data").unwrap();
            f.sync().unwrap();
        }
        let other = EncryptedEnv::new(
            Arc::new(mem),
            Dek::generate(Algorithm::Aes128Ctr),
            0,
        );
        assert!(matches!(
            other.new_random_access_file("f", FileKind::Sst),
            Err(EnvError::Corruption(_))
        ));
    }

    #[test]
    fn plaintext_file_rejected() {
        let (mem, env) = setup();
        {
            let mut f = mem.new_writable_file("plain", FileKind::Other).unwrap();
            f.append(&[0u8; 100]).unwrap();
            f.sync().unwrap();
        }
        assert!(env.new_sequential_file("plain", FileKind::Other).is_err());
    }

    #[test]
    fn per_file_nonces_differ() {
        let (mem, env) = setup();
        for name in ["a", "b"] {
            let mut f = env.new_writable_file(name, FileKind::Sst).unwrap();
            f.append(b"identical plaintext").unwrap();
            f.sync().unwrap();
        }
        // Same DEK + same plaintext, but different nonces ⇒ different
        // ciphertext.
        let a = mem.raw_content("a").unwrap();
        let b = mem.raw_content("b").unwrap();
        assert_ne!(a[FILE_HEADER_LEN..], b[FILE_HEADER_LEN..]);
    }

    #[test]
    fn cipher_inits_counted_per_append_when_unbuffered() {
        let (_, env) = setup();
        let before = env.inits.load(Ordering::Relaxed);
        let mut f = env.new_writable_file("w", FileKind::Wal).unwrap();
        for _ in 0..10 {
            f.append(b"tiny").unwrap();
        }
        f.flush().unwrap();
        assert_eq!(env.inits.load(Ordering::Relaxed) - before, 10);
    }

    #[test]
    fn wal_buffer_variant_amortizes() {
        let mem = MemEnv::new();
        let dek = Dek::generate(Algorithm::Aes128Ctr);
        let env = EncryptedEnv::new(Arc::new(mem), dek, 4096);
        let before = env.inits.load(Ordering::Relaxed);
        let mut f = env.new_writable_file("w", FileKind::Wal).unwrap();
        for _ in 0..100 {
            f.append(&[7u8; 20]).unwrap();
        }
        f.sync().unwrap();
        assert!(env.inits.load(Ordering::Relaxed) - before <= 2);
    }
}
