//! Local-filesystem [`Env`] built on `std::fs`, used for the monolithic
//! benchmarks and anywhere real disk behavior matters.
//!
//! A random-access file (in the engine: an SST, opened by the table
//! cache after `TableBuilder::finish` synced it) is mapped read-only
//! (`PROT_READ`, `MAP_SHARED`) when it is opened, and its descriptor is
//! closed once the mapping exists. A read is then a bounds clamp plus one
//! copy out of the page cache into a vector the caller owns: no lock, no
//! `lseek`, no `read` syscall. The copy is the only fetch from storage —
//! the MAC, the CRC and the decryption all run on it, never on the mapped
//! pages, which another writer of the file could change between two
//! looks (DESIGN.md §4h).
//!
//! * The file is the snapshot of its length at open (`len()`); reads past
//!   it return short, as at end of file. A zero-length file is served
//!   empty, with no mapping.
//! * Unlinking the file, or renaming another over it, leaves an open
//!   reader on the old contents. Truncating a file under a live mapping
//!   makes the next read of the lost pages raise `SIGBUS`, as with
//!   LevelDB's and RocksDB's mmap readers; so re-creating a path here
//!   unlinks the old file instead of truncating it.
//! * The only `unsafe` code of this crate is the mapping (`mmap.rs`).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;
use shield_core::Section;

use crate::mmap::Mapping;
use crate::{
    Env, EnvError, EnvResult, FileKind, IoStats, RandomAccessFile, ReadSource, SequentialFile,
    WritableFile,
};

/// Local filesystem environment. Paths are interpreted as OS paths.
#[derive(Clone)]
pub struct PosixEnv {
    stats: Arc<IoStats>,
    /// When false (the default for benchmarks), `sync` flushes to the OS
    /// but skips `fsync`, matching RocksDB's default WAL behavior.
    fsync: bool,
}

impl Default for PosixEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl PosixEnv {
    /// Creates a env that flushes but does not `fsync` on `sync` (the
    /// RocksDB default benchmark configuration).
    #[must_use]
    pub fn new() -> Self {
        PosixEnv { stats: IoStats::new(), fsync: false }
    }

    /// Creates an env whose `sync` calls really `fsync`.
    #[must_use]
    pub fn with_fsync() -> Self {
        PosixEnv { stats: IoStats::new(), fsync: true }
    }
}

struct PosixWritable {
    writer: BufWriter<File>,
    logical_len: u64,
    kind: FileKind,
    stats: Arc<IoStats>,
    fsync: bool,
}

impl WritableFile for PosixWritable {
    fn append(&mut self, data: &[u8]) -> EnvResult<()> {
        self.writer.write_all(data)?;
        self.logical_len += data.len() as u64;
        self.stats.record_write(self.kind, data.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> EnvResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    fn sync(&mut self) -> EnvResult<()> {
        self.writer.flush()?;
        if self.fsync {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.logical_len
    }
}

/// A random-access file: a read-only shared mapping of the file as it was
/// at open, or nothing for a zero-length file.
struct PosixReadable {
    map: Option<Mapping>,
    kind: FileKind,
    stats: Arc<IoStats>,
}

// A batch needs no override: each read is one copy, and the default
// `read_at_many` makes them one after another.
impl RandomAccessFile for PosixReadable {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        // Leaf-level read: PerfContext block_read covers exactly the raw
        // file I/O, below any decryption wrapper.
        let _t = Section::BlockRead.enter();
        let buf = self.map.as_ref().map_or_else(Vec::new, |map| map.copy_out(offset, len));
        self.stats.record_read(self.kind, buf.len() as u64);
        Ok(Bytes::from(buf))
    }

    fn read_at_with(
        &self,
        offset: u64,
        len: usize,
        pass: &mut dyn FnMut(ReadSource<'_>, &mut Vec<u8>),
    ) -> EnvResult<Bytes> {
        // No copy here: the pass reads the mapped bytes once, into its
        // buffer, and its time is the pass's.
        let mut buf = Vec::new();
        let source = self.map.as_ref().map_or(ReadSource::Copied, |map| {
            let shared = map.shared(offset, len);
            self.stats.record_read(self.kind, shared.len() as u64);
            ReadSource::Shared(shared)
        });
        pass(source, &mut buf);
        Ok(Bytes::from(buf))
    }

    fn len(&self) -> EnvResult<u64> {
        Ok(self.map.as_ref().map_or(0, |map| map.len() as u64))
    }
}

struct PosixSequential {
    file: File,
    kind: FileKind,
    stats: Arc<IoStats>,
}

impl SequentialFile for PosixSequential {
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize> {
        let n = self.file.read(buf)?;
        self.stats.record_read(self.kind, n as u64);
        Ok(n)
    }
}

impl Env for PosixEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // A new inode rather than a truncated one: a reader may still map
        // the old file (module docs).
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        Ok(Box::new(PosixWritable {
            writer: BufWriter::with_capacity(64 * 1024, file),
            logical_len: 0,
            kind,
            stats: self.stats.clone(),
            fsync: self.fsync,
        }))
    }

    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| EnvError::Io(format!("{path}: too large to map")))?;
        // The descriptor closes when `file` drops on return; the mapping
        // stays.
        let map = if len == 0 { None } else { Some(Mapping::of(&file, len)?) };
        Ok(Arc::new(PosixReadable { map, kind, stats: self.stats.clone() }))
    }

    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        Ok(Box::new(PosixSequential {
            file: File::open(path)?,
            kind,
            stats: self.stats.clone(),
        }))
    }

    fn remove_file(&self, path: &str) -> EnvResult<()> {
        std::fs::remove_file(path)?;
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        std::fs::rename(from, to)?;
        Ok(())
    }

    fn file_exists(&self, path: &str) -> bool {
        Path::new(path).is_file()
    }

    fn file_size(&self, path: &str) -> EnvResult<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        std::fs::create_dir_all(dir)?;
        Ok(())
    }

    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        match std::fs::remove_dir_all(dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn io_stats(&self) -> Option<Arc<IoStats>> {
        Some(self.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReadRequest;
    use std::sync::atomic::Ordering;

    fn tmp_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("shield-posix-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_str().unwrap().to_string()
    }

    #[test]
    fn roundtrip_on_disk() {
        let dir = tmp_dir("roundtrip");
        let env = PosixEnv::new();
        let path = crate::join_path(&dir, "file.bin");
        {
            let mut f = env.new_writable_file(&path, FileKind::Sst).unwrap();
            f.append(b"abc").unwrap();
            f.append(b"defgh").unwrap();
            f.sync().unwrap();
            assert_eq!(f.len(), 8);
        }
        assert_eq!(env.file_size(&path).unwrap(), 8);
        let r = env.new_random_access_file(&path, FileKind::Sst).unwrap();
        assert_eq!(&r.read_at(2, 4).unwrap()[..], b"cdef");
        // Short read at EOF.
        assert_eq!(&r.read_at(6, 100).unwrap()[..], b"gh");
        env.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_and_rename() {
        let dir = tmp_dir("list");
        let env = PosixEnv::new();
        for name in ["b.sst", "a.log"] {
            let mut f = env
                .new_writable_file(&crate::join_path(&dir, name), FileKind::Other)
                .unwrap();
            f.append(b"x").unwrap();
            f.sync().unwrap();
        }
        assert_eq!(env.list_dir(&dir).unwrap(), vec!["a.log", "b.sst"]);
        env.rename(
            &crate::join_path(&dir, "a.log"),
            &crate::join_path(&dir, "c.log"),
        )
        .unwrap();
        assert_eq!(env.list_dir(&dir).unwrap(), vec!["b.sst", "c.log"]);
        env.remove_dir_all(&dir).unwrap();
    }

    /// What a plain `std::fs` read of `offset..offset + len` returns,
    /// clamped to the file the way `read_at` clamps to its snapshot.
    fn fs_read(path: &str, offset: u64, len: usize) -> Vec<u8> {
        let whole = std::fs::read(path).unwrap();
        let start = usize::try_from(offset).unwrap().min(whole.len());
        whole[start..(start + len).min(whole.len())].to_vec()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 48,
            ..proptest::ProptestConfig::default()
        })]

        /// `read_at`, `read_at_many` and `read_at_with` return what
        /// `std::fs` reads, for reads inside the file, across its end and
        /// past it.
        #[test]
        fn mapped_reads_match_std_fs(
            len in 0usize..20_000,
            seed in proptest::prelude::any::<u8>(),
            reads in proptest::collection::vec((0u64..20_500, 0usize..5_000), 1..24),
        ) {
            let dir = tmp_dir("mapped-reads");
            let path = crate::join_path(&dir, "f.sst");
            let content: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
            std::fs::write(&path, &content).unwrap();
            let env = PosixEnv::new();
            let r = env.new_random_access_file(&path, FileKind::Sst).unwrap();
            proptest::prop_assert_eq!(r.len().unwrap(), len as u64);
            let requests: Vec<ReadRequest> =
                reads.iter().map(|&(offset, len)| ReadRequest { offset, len }).collect();
            for (req, got) in requests.iter().zip(r.read_at_many(&requests)) {
                let want = fs_read(&path, req.offset, req.len);
                proptest::prop_assert_eq!(&r.read_at(req.offset, req.len).unwrap()[..], &want[..]);
                proptest::prop_assert_eq!(&got.unwrap()[..], &want[..]);
                // A pass over the mapping sees the same bytes and keeps
                // what it puts in its buffer.
                let with = r.read_at_with(req.offset, req.len, &mut |source, buf| {
                    match source {
                        ReadSource::Shared(raw) => {
                            let load = |b: &std::sync::atomic::AtomicU8| b.load(Ordering::Relaxed);
                            buf.extend(raw.iter().map(load));
                        }
                        ReadSource::Copied => {}
                    }
                    buf.reverse();
                });
                let reversed: Vec<u8> = want.iter().rev().copied().collect();
                proptest::prop_assert_eq!(&with.unwrap()[..], &reversed[..]);
            }
            env.remove_dir_all(&dir).unwrap();
        }
    }

    /// A zero-length file has no mapping and reads back empty everywhere.
    #[test]
    fn zero_length_file_reads_empty() {
        let dir = tmp_dir("empty");
        let path = crate::join_path(&dir, "f.sst");
        std::fs::write(&path, b"").unwrap();
        let r = PosixEnv::new().new_random_access_file(&path, FileKind::Sst).unwrap();
        assert_eq!(r.len().unwrap(), 0);
        assert!(r.read_at(0, 4096).unwrap().is_empty());
        assert!(r.read_at(1 << 40, 1).unwrap().is_empty());
        let requests = [ReadRequest { offset: 0, len: 8 }, ReadRequest { offset: 9, len: 0 }];
        let batch = r.read_at_many(&requests);
        assert!(batch.iter().all(|b| b.as_ref().unwrap().is_empty()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A returned buffer is the caller's: rewriting the file in place
    /// afterwards (same inode, so the mapped pages change) leaves it as
    /// it was, while a later read sees the new bytes.
    #[test]
    fn returned_bytes_are_private() {
        use std::os::unix::fs::FileExt;
        let dir = tmp_dir("private");
        let path = crate::join_path(&dir, "f.sst");
        std::fs::write(&path, vec![0xaa; 8192]).unwrap();
        let env = PosixEnv::new();
        let r = env.new_random_access_file(&path, FileKind::Sst).unwrap();
        let before = r.read_at(100, 4096).unwrap();
        let batch = r.read_at_many(&[ReadRequest { offset: 0, len: 64 }]);
        let writer = OpenOptions::new().write(true).open(&path).unwrap();
        writer.write_all_at(&[0x55; 8192], 0).unwrap();
        writer.sync_all().unwrap();
        assert!(before.iter().all(|&b| b == 0xaa), "an earlier read changed under its holder");
        assert!(batch[0].as_ref().unwrap().iter().all(|&b| b == 0xaa));
        assert!(r.read_at(100, 16).unwrap().iter().all(|&b| b == 0x55), "the mapping is shared");
        env.remove_dir_all(&dir).unwrap();
    }

    /// Unlinking the path, or renaming another file over it, leaves an open
    /// reader on the old contents.
    #[test]
    fn reader_survives_unlink_and_rename_over() {
        let dir = tmp_dir("unlink");
        let env = PosixEnv::new();
        let (a, b) = (crate::join_path(&dir, "a.sst"), crate::join_path(&dir, "b.sst"));
        std::fs::write(&a, b"old contents of a").unwrap();
        let unlinked = env.new_random_access_file(&a, FileKind::Sst).unwrap();
        env.remove_file(&a).unwrap();
        assert_eq!(&unlinked.read_at(0, 64).unwrap()[..], b"old contents of a");

        std::fs::write(&a, b"second a").unwrap();
        std::fs::write(&b, b"a replacement, longer than the file it replaces").unwrap();
        let replaced = env.new_random_access_file(&a, FileKind::Sst).unwrap();
        env.rename(&b, &a).unwrap();
        assert_eq!(&replaced.read_at(0, 64).unwrap()[..], b"second a");
        assert_eq!(replaced.len().unwrap(), 8);
        env.remove_dir_all(&dir).unwrap();
    }

    /// Re-creating a path through the env leaves a reader of the old file
    /// on its old contents (no truncation under its mapping).
    #[test]
    fn recreating_a_path_spares_its_reader() {
        let dir = tmp_dir("recreate");
        let env = PosixEnv::new();
        let path = crate::join_path(&dir, "f.sst");
        let write = |data: &[u8]| {
            let mut f = env.new_writable_file(&path, FileKind::Sst).unwrap();
            f.append(data).unwrap();
            f.sync().unwrap();
        };
        write(&[1; 10_000]);
        let old = env.new_random_access_file(&path, FileKind::Sst).unwrap();
        write(&[2; 100]);
        assert!(old.read_at(0, 10_000).unwrap().iter().all(|&b| b == 1));
        let new = env.new_random_access_file(&path, FileKind::Sst).unwrap();
        assert_eq!(&new.read_at(0, 10_000).unwrap()[..], &[2; 100][..]);
        env.remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        let env = PosixEnv::new();
        assert!(matches!(
            env.new_sequential_file("/nonexistent/shield-x", FileKind::Other),
            Err(crate::EnvError::NotFound(_))
        ));
        assert!(!env.file_exists("/nonexistent/shield-x"));
    }
}
