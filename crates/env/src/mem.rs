//! An in-memory [`Env`] that models a process crash.
//!
//! A file holds the bytes handed to the "OS" (`flush`ed). Dropping a
//! writable handle without flushing loses the application buffer — a
//! *process* crash. A *system* crash, which also loses what only the OS
//! buffer held, is [`crate::FaultInjectionEnv::crash`] over this env: the
//! wrapper tracks each file's synced length. Together they give the
//! persistence distinction the paper's WAL discussion (§2.1, §5.3) is
//! built on, and the crash-recovery integration tests exercise both.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use shield_core::Section;

use crate::{
    Env, EnvError, EnvResult, FileKind, IoStats, RandomAccessFile, ReadRequest, ReadSource,
    SequentialFile, WritableFile,
};

/// A file's bytes as the OS has them (flushed). Readers see exactly this.
type FileRef = Arc<RwLock<Vec<u8>>>;

#[derive(Default)]
struct Inner {
    files: HashMap<String, FileRef>,
    dirs: std::collections::HashSet<String>,
}

/// In-memory filesystem. Cloning shares the store.
#[derive(Clone)]
pub struct MemEnv {
    inner: Arc<Mutex<Inner>>,
    stats: Arc<IoStats>,
}

impl Default for MemEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl MemEnv {
    /// Creates an empty in-memory filesystem.
    #[must_use]
    pub fn new() -> Self {
        MemEnv { inner: Arc::new(Mutex::new(Inner::default())), stats: IoStats::new() }
    }

    /// Returns the current (OS-visible) content of a file, for tests that
    /// inspect raw bytes (e.g. the confidentiality greps).
    pub fn raw_content(&self, path: &str) -> EnvResult<Vec<u8>> {
        Ok(self.get(path)?.read().clone())
    }

    /// Replaces a file's content wholesale — the tamper-injection
    /// primitive for the adversarial test suite (an attacker with media
    /// access can rewrite anything).
    pub fn set_raw_content(&self, path: &str, content: Vec<u8>) -> EnvResult<()> {
        *self.get(path)?.write() = content;
        Ok(())
    }

    fn get(&self, path: &str) -> EnvResult<FileRef> {
        let inner = self.inner.lock();
        inner
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| EnvError::NotFound(path.to_string()))
    }
}

struct MemWritable {
    file: FileRef,
    app_buffer: Vec<u8>,
    logical_len: u64,
    kind: FileKind,
    stats: Arc<IoStats>,
}

impl WritableFile for MemWritable {
    fn append(&mut self, data: &[u8]) -> EnvResult<()> {
        self.app_buffer.extend_from_slice(data);
        self.logical_len += data.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> EnvResult<()> {
        if !self.app_buffer.is_empty() {
            self.stats.record_write(self.kind, self.app_buffer.len() as u64);
            self.file.write().append(&mut self.app_buffer);
        }
        Ok(())
    }

    fn sync(&mut self) -> EnvResult<()> {
        self.flush()
    }

    fn len(&self) -> u64 {
        self.logical_len
    }
}

struct MemReadable {
    file: FileRef,
    kind: FileKind,
    stats: Arc<IoStats>,
}

impl MemReadable {
    /// The bytes `offset..offset + len`, clamped to the file, copied into
    /// a buffer of the caller's own.
    fn copy_out(&self, offset: u64, len: usize) -> Vec<u8> {
        // Leaf-level read: PerfContext block_read covers exactly the raw
        // "device" copy, below any decryption.
        let _t = Section::BlockRead.enter();
        let f = self.file.read();
        let start = (offset as usize).min(f.len());
        let end = (start + len).min(f.len());
        self.stats.record_read(self.kind, (end - start) as u64);
        f[start..end].to_vec()
    }
}

impl RandomAccessFile for MemReadable {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        Ok(Bytes::from(self.copy_out(offset, len)))
    }

    fn read_at_with(
        &self,
        offset: u64,
        len: usize,
        pass: &mut dyn FnMut(ReadSource<'_>, &mut Vec<u8>),
    ) -> EnvResult<Bytes> {
        let mut buf = self.copy_out(offset, len);
        pass(ReadSource::Copied, &mut buf);
        Ok(Bytes::from(buf))
    }

    fn len(&self) -> EnvResult<u64> {
        Ok(self.file.read().len() as u64)
    }

    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        // One lock acquisition and one I/O op per request kind of copy:
        // the batch is served against a single consistent view of the file.
        let _t = Section::BlockRead.enter();
        let f = self.file.read();
        requests
            .iter()
            .map(|r| {
                let start = (r.offset as usize).min(f.len());
                let end = (start + r.len).min(f.len());
                self.stats.record_read(self.kind, (end - start) as u64);
                Ok(Bytes::copy_from_slice(&f[start..end]))
            })
            .collect()
    }
}

struct MemSequential {
    file: FileRef,
    pos: usize,
    kind: FileKind,
    stats: Arc<IoStats>,
}

impl SequentialFile for MemSequential {
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize> {
        let f = self.file.read();
        let available = f.len().saturating_sub(self.pos);
        let n = available.min(buf.len());
        buf[..n].copy_from_slice(&f[self.pos..self.pos + n]);
        self.pos += n;
        self.stats.record_read(self.kind, n as u64);
        Ok(n)
    }
}

impl Env for MemEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        let file = {
            let mut inner = self.inner.lock();
            let file: FileRef = Arc::default();
            inner.files.insert(path.to_string(), file.clone());
            file
        };
        Ok(Box::new(MemWritable {
            file,
            app_buffer: Vec::new(),
            logical_len: 0,
            kind,
            stats: self.stats.clone(),
        }))
    }

    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        Ok(Arc::new(MemReadable { file: self.get(path)?, kind, stats: self.stats.clone() }))
    }

    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        Ok(Box::new(MemSequential {
            file: self.get(path)?,
            pos: 0,
            kind,
            stats: self.stats.clone(),
        }))
    }

    fn remove_file(&self, path: &str) -> EnvResult<()> {
        let mut inner = self.inner.lock();
        inner
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| EnvError::NotFound(path.to_string()))
    }

    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        let mut inner = self.inner.lock();
        let f = inner
            .files
            .remove(from)
            .ok_or_else(|| EnvError::NotFound(from.to_string()))?;
        inner.files.insert(to.to_string(), f);
        Ok(())
    }

    fn file_exists(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    fn file_size(&self, path: &str) -> EnvResult<u64> {
        Ok(self.get(path)?.read().len() as u64)
    }

    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        let prefix = if dir.is_empty() || dir.ends_with('/') {
            dir.to_string()
        } else {
            format!("{dir}/")
        };
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner
            .files
            .keys()
            .filter_map(|path| {
                let rest = path.strip_prefix(&prefix)?;
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect();
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.lock().dirs.insert(dir.to_string());
        Ok(())
    }

    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        let prefix = if dir.ends_with('/') { dir.to_string() } else { format!("{dir}/") };
        let mut inner = self.inner.lock();
        inner.files.retain(|path, _| !path.starts_with(&prefix));
        inner.dirs.remove(dir);
        Ok(())
    }

    fn io_stats(&self) -> Option<Arc<IoStats>> {
        Some(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_all(env: &MemEnv, path: &str, data: &[u8], sync: bool) {
        let mut f = env.new_writable_file(path, FileKind::Other).unwrap();
        f.append(data).unwrap();
        f.flush().unwrap();
        if sync {
            f.sync().unwrap();
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let env = MemEnv::new();
        write_all(&env, "a/b.txt", b"hello world", true);
        let r = env.new_random_access_file("a/b.txt", FileKind::Other).unwrap();
        assert_eq!(&r.read_at(0, 5).unwrap()[..], b"hello");
        assert_eq!(&r.read_at(6, 100).unwrap()[..], b"world");
        assert_eq!(r.len().unwrap(), 11);
    }

    #[test]
    fn sequential_read() {
        let env = MemEnv::new();
        write_all(&env, "f", b"abcdef", true);
        let mut s = env.new_sequential_file("f", FileKind::Other).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"abcd");
        assert_eq!(s.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
        assert_eq!(s.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn process_crash_keeps_flushed_data() {
        let env = MemEnv::new();
        let mut f = env.new_writable_file("wal", FileKind::Wal).unwrap();
        f.append(b"flushed").unwrap();
        f.flush().unwrap();
        f.append(b"app-buffered-only").unwrap();
        drop(f); // process crash: app buffer lost, OS buffer kept
        assert_eq!(env.raw_content("wal").unwrap(), b"flushed");
    }

    #[test]
    fn list_dir_only_direct_children() {
        let env = MemEnv::new();
        write_all(&env, "db/000001.sst", b"x", true);
        write_all(&env, "db/000002.log", b"x", true);
        write_all(&env, "db/sub/deep.txt", b"x", true);
        write_all(&env, "other/file", b"x", true);
        assert_eq!(env.list_dir("db").unwrap(), vec!["000001.sst", "000002.log"]);
    }

    #[test]
    fn rename_and_remove() {
        let env = MemEnv::new();
        write_all(&env, "a", b"data", true);
        env.rename("a", "b").unwrap();
        assert!(!env.file_exists("a"));
        assert!(env.file_exists("b"));
        env.remove_file("b").unwrap();
        assert!(matches!(env.remove_file("b"), Err(EnvError::NotFound(_))));
    }

    #[test]
    fn remove_dir_all_removes_subtree() {
        let env = MemEnv::new();
        write_all(&env, "db/1", b"x", true);
        write_all(&env, "db/2", b"x", true);
        write_all(&env, "db2/3", b"x", true);
        env.remove_dir_all("db").unwrap();
        assert!(!env.file_exists("db/1"));
        assert!(env.file_exists("db2/3"));
    }

    #[test]
    fn stats_account_reads_and_writes() {
        let env = MemEnv::new();
        write_all(&env, "s.sst", b"0123456789", true);
        let r = env.new_random_access_file("s.sst", FileKind::Sst, ).unwrap();
        let _ = r.read_at(0, 4).unwrap();
        let snap = env.io_stats().unwrap().snapshot();
        assert_eq!(snap.written_for(FileKind::Other), 10);
        assert_eq!(snap.read_for(FileKind::Sst), 4);
    }

    #[test]
    fn truncating_recreate() {
        let env = MemEnv::new();
        write_all(&env, "f", b"long old content", true);
        write_all(&env, "f", b"new", true);
        assert_eq!(env.raw_content("f").unwrap(), b"new");
    }
}
