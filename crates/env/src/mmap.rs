//! A read-only shared mapping of a file ([`Mapping`]), for
//! [`crate::PosixEnv`]'s random-access files: the only `unsafe` code of
//! this crate. `mmap` and `munmap` are declared here; std already links
//! the C library that defines them.

use std::ffi::{c_int, c_void};
use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::ptr::{self, NonNull};
use std::sync::atomic::AtomicU8;

const PROT_READ: c_int = 1;
const MAP_SHARED: c_int = 1;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// `len` bytes of a file mapped `PROT_READ` / `MAP_SHARED`, unmapped on
/// drop. The pages are the page cache's, so another writer of the file
/// can change them under a reader: they are copied out, or lent out as
/// `&[AtomicU8]` — memory that may change while it is read — and never
/// as a `&[u8]`.
pub(crate) struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the mapping is read-only and owned by this value alone; reading
// it from several threads at once needs no synchronisation.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`: `&Mapping` only ever reads.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps the first `len` (> 0) bytes of `file`. The mapping outlives
    /// the descriptor, so the caller may close `file` afterwards.
    pub(crate) fn of(file: &File, len: usize) -> std::io::Result<Mapping> {
        // SAFETY: a fresh mapping chosen by the kernel (null hint), of a
        // descriptor that is open for reading for the length of the call;
        // the result is checked before use.
        let ptr = unsafe { mmap(ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        NonNull::new(ptr.cast::<u8>())
            .map(|ptr| Mapping { ptr, len })
            .ok_or_else(|| std::io::Error::other("mmap returned null"))
    }

    /// The mapped length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The bytes `offset..offset + len`, clamped to the mapping, for a
    /// pass that reads each of them once straight into a buffer of its
    /// own (`RandomAccessFile::read_at_with`): the transform-out twin of
    /// [`Self::copy_out`].
    pub(crate) fn shared(&self, offset: u64, len: usize) -> &[AtomicU8] {
        let (start, n) = self.clamp(offset, len);
        // SAFETY: `start + n <= self.len`, so the range lies inside the
        // live mapping, which outlives the borrow of `self`. `AtomicU8`
        // has the layout of `u8` and admits writes by others while it is
        // read; the pages are readable, and an atomic load never writes.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(start).cast::<AtomicU8>(), n) }
    }

    /// `offset..offset + len` clamped to the mapping, as (start, length).
    fn clamp(&self, offset: u64, len: usize) -> (usize, usize) {
        let start = usize::try_from(offset).unwrap_or(usize::MAX).min(self.len);
        (start, len.min(self.len - start))
    }

    /// Copies the bytes `offset..offset + len`, clamped to the mapping.
    pub(crate) fn copy_out(&self, offset: u64, len: usize) -> Vec<u8> {
        let (start, n) = self.clamp(offset, len);
        let mut buf = Vec::with_capacity(n);
        // SAFETY: `start + n <= self.len`, so the source lies inside the
        // live mapping; the destination is `n` bytes of fresh capacity
        // that cannot overlap it; every byte is written before `set_len`.
        unsafe {
            ptr::copy_nonoverlapping(self.ptr.as_ptr().add(start), buf.as_mut_ptr(), n);
            buf.set_len(n);
        }
        buf
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what `mmap` returned and took,
        // and no copy from the mapping can be running: it needs `&self`.
        unsafe {
            munmap(self.ptr.as_ptr().cast::<c_void>(), self.len);
        }
    }
}
