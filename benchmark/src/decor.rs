//! Benchmark-owned decorators over the product's public `Env`, `Kds` and
//! `EventListener` traits: the layers are measured from outside.
//!
//! Each decorator keeps aggregate counters (calls, busy time, bytes) and,
//! while a traced run records, emits one leaf span per call. They are
//! installed only for the traced pass; the untraced pass runs the product
//! exactly as a user would deploy it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use shield_core::{Event, EventListener};
use shield_crypto::{Algorithm, Dek, DekId};
use shield_env::{
    Env, EnvResult, FileKind, IoStats, RandomAccessFile, ReadRequest, SequentialFile, WritableFile,
};
use shield_kds::{Kds, KdsResult, KdsStats, ServerId};

use crate::trace::{self, now_ns, SpanKind};

/// Calls, busy nanoseconds and bytes of one kind of call.
#[derive(Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time copy of a [`Tally`].
#[derive(Clone, Copy, Default, Debug)]
pub struct TallySnap {
    pub calls: u64,
    pub nanos: u64,
    pub bytes: u64,
}

impl TallySnap {
    pub fn since(self, earlier: TallySnap) -> TallySnap {
        TallySnap {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
            bytes: self.bytes - earlier.bytes,
        }
    }

    pub fn secs(self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

impl Tally {
    fn add(&self, nanos: u64, bytes: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn snap(&self) -> TallySnap {
        TallySnap {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// The kinds of env call the ledger separates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvCall {
    Append,
    Flush,
    Sync,
    Read,
    Open,
    Meta,
}

const ENV_CALLS: usize = 6;

/// Env time by file kind × call kind × (client thread | background thread).
#[derive(Default)]
pub struct EnvLedger {
    cells: [[[Tally; 2]; ENV_CALLS]; 4],
}

/// A copy of an [`EnvLedger`].
#[derive(Clone, Copy, Default)]
pub struct EnvLedgerSnap {
    cells: [[[TallySnap; 2]; ENV_CALLS]; 4],
}

impl EnvLedger {
    fn add(&self, kind: FileKind, call: EnvCall, nanos: u64, bytes: u64) {
        let side = usize::from(!trace::on_client_thread());
        self.cells[kind.index()][call as usize][side].add(nanos, bytes);
    }

    pub fn snap(&self) -> EnvLedgerSnap {
        let mut out = EnvLedgerSnap::default();
        for (k, calls) in self.cells.iter().enumerate() {
            for (c, sides) in calls.iter().enumerate() {
                for (s, tally) in sides.iter().enumerate() {
                    out.cells[k][c][s] = tally.snap();
                }
            }
        }
        out
    }
}

impl EnvLedgerSnap {
    pub fn since(&self, earlier: &EnvLedgerSnap) -> EnvLedgerSnap {
        let mut out = *self;
        for k in 0..4 {
            for c in 0..ENV_CALLS {
                for s in 0..2 {
                    out.cells[k][c][s] = self.cells[k][c][s].since(earlier.cells[k][c][s]);
                }
            }
        }
        out
    }

    /// One cell summed over both thread sides.
    pub fn get(&self, kind: FileKind, call: EnvCall) -> TallySnap {
        let [fg, bg] = self.cells[kind.index()][call as usize];
        TallySnap {
            calls: fg.calls + bg.calls,
            nanos: fg.nanos + bg.nanos,
            bytes: fg.bytes + bg.bytes,
        }
    }

    /// One cell on client threads only.
    pub fn foreground(&self, kind: FileKind, call: EnvCall) -> TallySnap {
        self.cells[kind.index()][call as usize][0]
    }

    /// Busy nanoseconds over every cell: (client threads, all threads).
    pub fn busy_ns(&self) -> (u64, u64) {
        let mut fg = 0;
        let mut all = 0;
        for kind in &self.cells {
            for call in kind {
                fg += call[0].nanos;
                all += call[0].nanos + call[1].nanos;
            }
        }
        (fg, all)
    }

    /// One call kind summed over file kinds and thread sides.
    pub fn call_total(&self, call: EnvCall) -> TallySnap {
        FileKind::ALL.iter().fold(TallySnap::default(), |acc, &k| {
            let t = self.get(k, call);
            TallySnap {
                calls: acc.calls + t.calls,
                nanos: acc.nanos + t.nanos,
                bytes: acc.bytes + t.bytes,
            }
        })
    }
}

/// Times `f`, books it under (`kind`, `call`) and records a leaf span.
fn timed<R>(
    ledger: &EnvLedger,
    kind: FileKind,
    call: EnvCall,
    span: SpanKind,
    bytes_of: impl FnOnce(&R) -> u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = now_ns();
    let result = f();
    let end = now_ns();
    let bytes = bytes_of(&result);
    ledger.add(kind, call, end - start, bytes);
    trace::leaf(span, kind.label(), start, end, bytes);
    result
}

/// An [`Env`] decorator that times every append / flush / sync / read /
/// open, tagged by [`FileKind`] and by calling thread.
pub struct TimedEnv {
    inner: Arc<dyn Env>,
    ledger: Arc<EnvLedger>,
}

impl TimedEnv {
    pub fn new(inner: Arc<dyn Env>) -> Self {
        TimedEnv {
            inner,
            ledger: Arc::new(EnvLedger::default()),
        }
    }

    pub fn ledger(&self) -> Arc<EnvLedger> {
        self.ledger.clone()
    }

    fn meta<R>(&self, f: impl FnOnce() -> R) -> R {
        timed(
            &self.ledger,
            FileKind::Other,
            EnvCall::Meta,
            SpanKind::EnvMeta,
            |_| 0,
            f,
        )
    }
}

struct TimedWritable {
    inner: Box<dyn WritableFile>,
    kind: FileKind,
    ledger: Arc<EnvLedger>,
}

impl WritableFile for TimedWritable {
    fn append(&mut self, data: &[u8]) -> EnvResult<()> {
        let (inner, n) = (&mut self.inner, data.len() as u64);
        timed(
            &self.ledger,
            self.kind,
            EnvCall::Append,
            SpanKind::EnvAppend,
            |_| n,
            || inner.append(data),
        )
    }

    fn flush(&mut self) -> EnvResult<()> {
        let inner = &mut self.inner;
        timed(
            &self.ledger,
            self.kind,
            EnvCall::Flush,
            SpanKind::EnvFlush,
            |_| 0,
            || inner.flush(),
        )
    }

    fn sync(&mut self) -> EnvResult<()> {
        let inner = &mut self.inner;
        timed(
            &self.ledger,
            self.kind,
            EnvCall::Sync,
            SpanKind::EnvSync,
            |_| 0,
            || inner.sync(),
        )
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TimedReadable {
    inner: Arc<dyn RandomAccessFile>,
    kind: FileKind,
    ledger: Arc<EnvLedger>,
}

impl RandomAccessFile for TimedReadable {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        timed(
            &self.ledger,
            self.kind,
            EnvCall::Read,
            SpanKind::EnvReadAt,
            |r: &EnvResult<Bytes>| r.as_ref().map_or(0, |b| b.len() as u64),
            || self.inner.read_at(offset, len),
        )
    }

    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }

    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        timed(
            &self.ledger,
            self.kind,
            EnvCall::Read,
            SpanKind::EnvReadMany,
            |rs: &Vec<EnvResult<Bytes>>| rs.iter().flatten().map(|b| b.len() as u64).sum(),
            || self.inner.read_at_many(requests),
        )
    }
}

struct TimedSequential {
    inner: Box<dyn SequentialFile>,
    kind: FileKind,
    ledger: Arc<EnvLedger>,
}

impl SequentialFile for TimedSequential {
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize> {
        let inner = &mut self.inner;
        timed(
            &self.ledger,
            self.kind,
            EnvCall::Read,
            SpanKind::EnvReadSeq,
            |r: &EnvResult<usize>| r.as_ref().map_or(0, |&n| n as u64),
            || inner.read(buf),
        )
    }
}

impl Env for TimedEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        let inner = timed(
            &self.ledger,
            kind,
            EnvCall::Open,
            SpanKind::EnvOpen,
            |_| 0,
            || self.inner.new_writable_file(path, kind),
        )?;
        Ok(Box::new(TimedWritable {
            inner,
            kind,
            ledger: self.ledger.clone(),
        }))
    }

    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        let inner = timed(
            &self.ledger,
            kind,
            EnvCall::Open,
            SpanKind::EnvOpen,
            |_| 0,
            || self.inner.new_random_access_file(path, kind),
        )?;
        Ok(Arc::new(TimedReadable {
            inner,
            kind,
            ledger: self.ledger.clone(),
        }))
    }

    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        let inner = timed(
            &self.ledger,
            kind,
            EnvCall::Open,
            SpanKind::EnvOpen,
            |_| 0,
            || self.inner.new_sequential_file(path, kind),
        )?;
        Ok(Box::new(TimedSequential {
            inner,
            kind,
            ledger: self.ledger.clone(),
        }))
    }

    fn remove_file(&self, path: &str) -> EnvResult<()> {
        self.meta(|| self.inner.remove_file(path))
    }

    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        self.meta(|| self.inner.rename(from, to))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.meta(|| self.inner.file_exists(path))
    }

    fn file_size(&self, path: &str) -> EnvResult<u64> {
        self.meta(|| self.inner.file_size(path))
    }

    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        self.meta(|| self.inner.list_dir(dir))
    }

    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.meta(|| self.inner.create_dir_all(dir))
    }

    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.meta(|| self.inner.remove_dir_all(dir))
    }

    fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.inner.io_stats()
    }

    fn fault_stats(&self) -> Option<shield_env::FaultStatsSnapshot> {
        self.inner.fault_stats()
    }

    fn set_event_listener(&self, listener: Arc<dyn EventListener>) {
        self.inner.set_event_listener(listener);
    }
}

/// A [`Kds`] decorator that times every generate and fetch.
pub struct TimedKds {
    inner: Arc<dyn Kds>,
    pub generate: Tally,
    pub fetch: Tally,
}

impl TimedKds {
    pub fn new(inner: Arc<dyn Kds>) -> Self {
        TimedKds {
            inner,
            generate: Tally::default(),
            fetch: Tally::default(),
        }
    }
}

/// Times one KDS call, books it under `tally` if given, records a leaf span.
fn timed_kds<R>(tally: Option<&Tally>, span: SpanKind, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let result = f();
    let end = now_ns();
    if let Some(tally) = tally {
        tally.add(end - start, 0);
    }
    trace::leaf(span, "", start, end, 0);
    result
}

impl Kds for TimedKds {
    fn generate_dek(&self, requester: ServerId, algorithm: Algorithm) -> KdsResult<Dek> {
        timed_kds(Some(&self.generate), SpanKind::KdsGenerate, || {
            self.inner.generate_dek(requester, algorithm)
        })
    }

    fn fetch_dek(&self, requester: ServerId, id: DekId) -> KdsResult<Dek> {
        timed_kds(Some(&self.fetch), SpanKind::KdsFetch, || {
            self.inner.fetch_dek(requester, id)
        })
    }

    fn revoke_dek(&self, id: DekId) -> KdsResult<()> {
        timed_kds(None, SpanKind::KdsRevoke, || self.inner.revoke_dek(id))
    }

    fn authorize_server(&self, server: ServerId) {
        self.inner.authorize_server(server);
    }

    fn revoke_server(&self, server: ServerId) {
        self.inner.revoke_server(server);
    }

    fn stats(&self) -> KdsStats {
        self.inner.stats()
    }
}

/// An [`EventListener`] that opens a root span per flush and compaction
/// (begin and end fire on the job's own thread, so env and KDS calls in
/// between hang under it) and tallies flush busy time, which no public
/// counter carries.
#[derive(Default)]
pub struct BgListener {
    pub flushes: Tally,
}

thread_local! {
    /// (root id, start) of the job span open on this background thread.
    static OPEN_JOB: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

fn close_job(kind: SpanKind, bytes: u64) {
    let (id, start) = OPEN_JOB.with(|j| j.replace((0, 0)));
    trace::end_root(id, kind, start, now_ns(), bytes);
}

impl EventListener for BgListener {
    fn on_event(&self, event: &Event) {
        match event {
            Event::FlushBegin { .. } | Event::CompactionBegin { .. } => {
                OPEN_JOB.with(|j| j.set((trace::begin_root(), now_ns())));
            }
            Event::FlushEnd { bytes, micros, .. } => {
                self.flushes.add(micros * 1000, *bytes);
                close_job(SpanKind::JobFlush, *bytes);
            }
            Event::CompactionEnd { bytes_written, .. } => {
                close_job(SpanKind::JobCompaction, *bytes_written)
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_env::MemEnv;

    #[test]
    fn timed_env_books_calls_by_kind_and_forwards_data() {
        let env = TimedEnv::new(Arc::new(MemEnv::new()));
        let ledger = env.ledger();
        let before = ledger.snap();
        let mut f = env.new_writable_file("x", FileKind::Wal).unwrap();
        f.append(b"hello").unwrap();
        f.append(b" world").unwrap();
        f.sync().unwrap();
        drop(f);
        let r = env.new_random_access_file("x", FileKind::Wal).unwrap();
        assert_eq!(&r.read_at(0, 11).unwrap()[..], b"hello world");
        let d = ledger.snap().since(&before);
        assert_eq!(d.get(FileKind::Wal, EnvCall::Append).calls, 2);
        assert_eq!(d.get(FileKind::Wal, EnvCall::Append).bytes, 11);
        assert_eq!(d.get(FileKind::Wal, EnvCall::Sync).calls, 1);
        assert_eq!(d.get(FileKind::Wal, EnvCall::Open).calls, 2);
        assert_eq!(d.get(FileKind::Wal, EnvCall::Read).bytes, 11);
        assert_eq!(d.get(FileKind::Sst, EnvCall::Read).calls, 0);
        // This test thread is not a client thread: everything is background.
        assert_eq!(d.busy_ns().0, 0);
    }
}
