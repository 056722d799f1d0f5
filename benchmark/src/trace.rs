//! Span recording for the traced pass.
//!
//! Every client op is a root span; every `Env`/`Kds` call the decorators see
//! on that thread while it is open becomes a child carrying the root's id.
//! Calls on background threads hang under the flush/compaction span the
//! `EventListener` decorator opens. Spans stay in memory (one buffer per
//! thread, so recording takes an uncontended lock) and are written out as
//! JSON lines when the run ends. Nothing here runs in the untraced pass.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the time base of every
/// span and latency sample.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers. Roots are client ops and background jobs; the rest
/// are leaf calls into a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    OpGet,
    OpPut,
    OpScan,
    JobFlush,
    JobCompaction,
    EnvAppend,
    EnvFlush,
    EnvSync,
    EnvReadAt,
    EnvReadMany,
    EnvReadSeq,
    EnvOpen,
    EnvMeta,
    KdsGenerate,
    KdsFetch,
    KdsRevoke,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::OpGet => "op.get",
            SpanKind::OpPut => "op.put",
            SpanKind::OpScan => "op.scan",
            SpanKind::JobFlush => "job.flush",
            SpanKind::JobCompaction => "job.compaction",
            SpanKind::EnvAppend => "env.append",
            SpanKind::EnvFlush => "env.flush",
            SpanKind::EnvSync => "env.sync",
            SpanKind::EnvReadAt => "env.read_at",
            SpanKind::EnvReadMany => "env.read_at_many",
            SpanKind::EnvReadSeq => "env.read_seq",
            SpanKind::EnvOpen => "env.open",
            SpanKind::EnvMeta => "env.meta",
            SpanKind::KdsGenerate => "kds.generate",
            SpanKind::KdsFetch => "kds.fetch",
            SpanKind::KdsRevoke => "kds.revoke",
        }
    }
}

/// One recorded span. `parent` is 0 for roots and for leaf calls made
/// outside any root (open, recovery, subcompaction workers).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    /// File kind label for env spans, empty otherwise.
    pub file: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

/// True while a traced run is recording.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// Bumped by every [`start`], so threads drop buffers of an earlier run.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Every thread's buffer in the current run.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

struct Local {
    generation: u64,
    thread: u32,
    next_id: u64,
    buffer: Buffer,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    /// Id of the root span open on this thread (0 = none).
    static CURRENT_ROOT: Cell<u64> = const { Cell::new(0) };
    /// True on benchmark client threads; splits env time into foreground
    /// and background.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as a benchmark client (foreground) thread.
pub fn mark_client_thread() {
    IS_CLIENT.with(|c| c.set(true));
}

pub fn on_client_thread() -> bool {
    IS_CLIENT.with(Cell::get)
}

/// Starts recording. One traced run is in flight at a time.
pub fn start() {
    BUFFERS.lock().expect("span buffers poisoned").clear();
    GENERATION.fetch_add(1, Ordering::SeqCst);
    RECORDING.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every span, ordered by start time.
pub fn stop() -> Vec<Span> {
    RECORDING.store(false, Ordering::SeqCst);
    let mut all = Vec::new();
    for buffer in BUFFERS.lock().expect("span buffers poisoned").drain(..) {
        all.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    all
}

/// True while a traced run is recording; lets decorators skip the clock.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

impl Local {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        (u64::from(self.thread) << 40) | self.next_id
    }

    fn push(&self, span: Span) {
        self.buffer.lock().expect("span buffer poisoned").push(span);
    }
}

/// Runs `f` on this thread's recording state, registering the thread with
/// the current run on first use. `None` when not recording.
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    if !recording() {
        return None;
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        if local.as_ref().is_none_or(|l| l.generation != generation) {
            let mut buffers = BUFFERS.lock().expect("span buffers poisoned");
            let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
            buffers.push(buffer.clone());
            *local = Some(Local {
                generation,
                thread: buffers.len() as u32,
                next_id: 0,
                buffer,
            });
        }
        Some(f(local.as_mut().expect("registered above")))
    })
}

/// Reserves the id of a root span and makes it this thread's open root:
/// leaf spans recorded until [`end_root`] carry it. Returns 0 when tracing
/// is off.
pub fn begin_root() -> u64 {
    let id = with_local(Local::fresh_id).unwrap_or(0);
    CURRENT_ROOT.with(|c| c.set(id));
    id
}

/// Closes the root opened by [`begin_root`] and records it.
pub fn end_root(id: u64, kind: SpanKind, start_ns: u64, end_ns: u64, bytes: u64) {
    CURRENT_ROOT.with(|c| c.set(0));
    if id != 0 {
        with_local(|l| {
            l.push(Span {
                id,
                parent: 0,
                kind,
                file: "",
                thread: l.thread,
                start_ns,
                end_ns,
                bytes,
            });
        });
    }
}

/// Records a leaf span under whatever root is open on this thread.
pub fn leaf(kind: SpanKind, file: &'static str, start_ns: u64, end_ns: u64, bytes: u64) {
    with_local(|l| {
        let (id, parent) = (l.fresh_id(), CURRENT_ROOT.with(Cell::get));
        l.push(Span {
            id,
            parent,
            kind,
            file,
            thread: l.thread,
            start_ns,
            end_ns,
            bytes,
        });
    });
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","file":"{}","thread":{},"start_ns":{},"end_ns":{},"bytes":{}}}"#,
            s.id,
            s.parent,
            s.kind.name(),
            s.file,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.bytes
        )?;
    }
    out.flush()
}

/// Self time per root: the root's duration minus what its children cover.
/// Children of one root run on the root's thread one after another, so they
/// must lie inside it and must not overlap; a root that breaks either rule
/// is counted in `violations`.
pub struct SelfTimes {
    pub roots: u64,
    pub root_ns: u64,
    pub child_ns: u64,
    pub self_ns: u64,
    pub violations: u64,
}

/// Checks up to `sample` root spans of `kinds` and sums their self time.
pub fn self_times(spans: &[Span], kinds: &[SpanKind], sample: usize) -> SelfTimes {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = SelfTimes {
        roots: 0,
        root_ns: 0,
        child_ns: 0,
        self_ns: 0,
        violations: 0,
    };
    for root in spans
        .iter()
        .filter(|s| s.parent == 0 && kinds.contains(&s.kind))
        .take(sample)
    {
        let mut kids = children.remove(&root.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = root.start_ns;
        let mut ok = true;
        for (start, end) in kids {
            ok &= start >= cursor && end >= start && end <= root.end_ns;
            cursor = end;
            covered += end.saturating_sub(start);
        }
        let total = root.end_ns - root.start_ns;
        out.roots += 1;
        out.root_ns += total;
        out.child_ns += covered;
        out.self_ns += total.saturating_sub(covered);
        out.violations += u64::from(!ok);
    }
    out
}

/// Held by every test that records spans or runs a workload: recording is
/// process-wide.
#[cfg(test)]
pub fn serialise_tests() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_hang_under_the_open_root_and_self_time_adds_up() {
        let _guard = serialise_tests();
        start();
        let root = begin_root();
        assert_ne!(root, 0);
        leaf(SpanKind::EnvReadAt, "SST", 110, 150, 4096);
        leaf(SpanKind::KdsFetch, "", 160, 190, 0);
        end_root(root, SpanKind::OpGet, 100, 200, 0);
        leaf(SpanKind::EnvAppend, "WAL", 300, 310, 128);
        let spans = stop();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.iter().filter(|s| s.parent == root).count(), 2);
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.parent == 0 && s.kind == SpanKind::EnvAppend)
                .count(),
            1
        );
        let st = self_times(&spans, &[SpanKind::OpGet], 10);
        assert_eq!(
            (st.roots, st.root_ns, st.child_ns, st.self_ns, st.violations),
            (1, 100, 70, 30, 0)
        );
        assert!(!recording());
        assert_eq!(begin_root(), 0, "no tracer, no spans");
    }
}
