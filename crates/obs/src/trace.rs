//! Flight-recorder tracing: hierarchical per-operation spans, a bounded
//! span ring, a slow-op capture ring, and the active-op registry the
//! stall watchdog scans.
//!
//! Spans are opened by [`Section`] guards (see [`crate::perf`]): when
//! a [`Tracer`] op is active on the thread, a section's guard opens a
//! child of the innermost open span and records a [`SpanRecord`] (trace
//! id, parent id, start offset, duration, `key=value` attrs) on drop,
//! from the same two clock readings that charge its `PerfContext` field.
//! An op is timed by one [`Op`] guard, which records its latency
//! histogram and, while the recorder is on, roots its trace.
//!
//! Completed spans land in a bounded ring whose slots are claimed by a
//! lock-free `fetch_add` head (writers never wait on each other for a
//! slot; the per-slot write itself is an uncontended mutex store). The
//! ring overwrites oldest-first: it is a flight recorder, not an audit
//! log.
//!
//! Cross-thread propagation: a scope that fans work out to helper
//! threads captures [`context`] *before* spawning and calls
//! [`SpanContext::attach`] inside the helper, so windowed batch reads
//! and parallel subcompactions parent correctly under the op that
//! issued them.
//!
//! Slow ops: when an op's wall time crosses the tracer's threshold, its
//! full span tree plus the thread's [`PerfContext`] breakdown are copied
//! into a dedicated ring ([`Tracer::slow_ops`]) and announced through
//! the registered listener as [`Event::SlowOp`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::hist::AtomicHistogram;
use crate::json::JsonBuilder;
use crate::log::{Event, EventListener};
use crate::perf::{self, PerfContext, PerfGuard, Section, SectionGuard, TRACE};

/// Spans one op may accumulate before further children are counted as
/// dropped instead of stored (the global ring still sees them).
const MAX_SPANS_PER_OP: usize = 512;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The op this span belongs to (all spans of one op share it).
    pub trace_id: u64,
    /// Unique within the trace; the root span is always id 1.
    pub span_id: u64,
    /// Parent span id; 0 for the root.
    pub parent_id: u64,
    /// Instrumentation-site name (e.g. `read_window`, `wal_sync`).
    pub name: &'static str,
    /// Start offset from the trace root's start, in microseconds.
    pub start_rel_micros: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
    /// Numeric attributes attached via [`SectionGuard::attr`].
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Appends this span as one JSON object item of an open array.
    pub fn push_json(&self, j: &mut JsonBuilder) {
        j.open_obj_item();
        j.field_u64("trace_id", self.trace_id);
        j.field_u64("span_id", self.span_id);
        j.field_u64("parent_id", self.parent_id);
        j.field_str("name", self.name);
        j.field_u64("start_rel_micros", self.start_rel_micros);
        j.field_u64("dur_nanos", self.dur_nanos);
        j.open_obj("attrs");
        for (k, v) in &self.attrs {
            j.field_u64(k, *v);
        }
        j.close_obj();
        j.close_obj();
    }
}

/// A slow operation captured with its full span tree and perf breakdown.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// Root op name (`get`, `multi_get`, `flush`, ...).
    pub op: &'static str,
    /// Trace id shared by every span in `spans`.
    pub trace_id: u64,
    /// Op wall time in nanoseconds.
    pub wall_nanos: u64,
    /// The threshold that was exceeded, in nanoseconds.
    pub threshold_nanos: u64,
    /// Completion time, microseconds since the Unix epoch.
    pub unix_micros: u64,
    /// The span tree, root first, then children in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans beyond the per-op cap that were not stored.
    pub dropped_spans: u64,
    /// The thread's [`PerfContext`] accumulated over the op.
    pub perf: PerfContext,
}

impl SlowOp {
    /// Appends this capture as one JSON object item of an open array.
    pub fn push_json(&self, j: &mut JsonBuilder) {
        j.open_obj_item();
        j.field_str("op", self.op);
        j.field_u64("trace_id", self.trace_id);
        j.field_u64("wall_nanos", self.wall_nanos);
        j.field_u64("threshold_nanos", self.threshold_nanos);
        j.field_u64("unix_micros", self.unix_micros);
        j.field_u64("dropped_spans", self.dropped_spans);
        j.open_obj("perf");
        for (k, v) in self.perf.fields() {
            j.field_u64(k, v);
        }
        j.close_obj();
        j.open_arr("spans");
        for s in &self.spans {
            s.push_json(j);
        }
        j.close_arr();
        j.close_obj();
    }

    /// The capture as one standalone JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut j = JsonBuilder::new();
        self.push_json(&mut j);
        j.finish()
    }
}

/// Bounded span ring. The head is claimed lock-free with `fetch_add`;
/// each slot is an independent mutex so concurrent writers to different
/// slots never contend, and a writer lapping a reader simply overwrites.
struct SpanRing {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    head: AtomicU64,
}

impl SpanRing {
    fn new(capacity: usize) -> SpanRing {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, rec: SpanRecord) {
        let i = self.head.fetch_add(1, Ordering::AcqRel) as usize % self.slots.len();
        if let Ok(mut slot) = self.slots[i].lock() {
            *slot = Some(rec);
        }
    }

    /// Best-effort snapshot, oldest first. Concurrent pushes may tear
    /// the order at the boundary; this is diagnostics, not accounting.
    fn collect(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire) as usize;
        let cap = self.slots.len();
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity(head - start);
        for i in start..head {
            if let Ok(slot) = self.slots[i % cap].lock() {
                if let Some(r) = slot.as_ref() {
                    out.push(r.clone());
                }
            }
        }
        out
    }
}

/// One in-flight traced operation; lives in the tracer's active registry
/// until its [`Op`] guard ends, which is what the stall watchdog scans.
pub struct ActiveOp {
    ring: Arc<SpanRing>,
    op: &'static str,
    trace_id: u64,
    start: Instant,
    next_span_id: AtomicU64,
    /// Completed child spans (bounded by [`MAX_SPANS_PER_OP`]).
    spans: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    /// Currently *open* spans as `(span_id, name)` — the live stack the
    /// watchdog reports. May interleave across attached threads.
    stack: Mutex<Vec<(u64, &'static str)>>,
    /// Set once by the watchdog so a pinned op is reported exactly once.
    flagged: AtomicBool,
}

impl ActiveOp {
    /// Root op name.
    #[must_use]
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// Trace id of this op.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Nanoseconds since the op started.
    #[must_use]
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Names of currently open spans, outermost first, rooted at the op
    /// itself (so the stack is never empty while the op runs — a stall
    /// in uninstrumented code still names the op that is stuck).
    #[must_use]
    pub fn live_stack(&self) -> Vec<&'static str> {
        let mut names = vec![self.op];
        if let Ok(s) = self.stack.lock() {
            names.extend(s.iter().map(|&(_, n)| n));
        }
        names
    }

    /// Claims the one-shot watchdog flag; true exactly once per op.
    pub fn flag_watchdog(&self) -> bool {
        !self.flagged.swap(true, Ordering::AcqRel)
    }

    fn record(&self, rec: SpanRecord) {
        if let Ok(mut spans) = self.spans.lock() {
            if spans.len() < MAX_SPANS_PER_OP {
                spans.push(rec.clone());
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.ring.push(rec);
    }
}

struct ThreadCtx {
    op: Arc<ActiveOp>,
    parent: u64,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Opens a child of the innermost open span on this thread; `None` when
/// no op is attached.
pub(crate) fn begin_span(name: &'static str) -> Option<Box<SpanInner>> {
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        let t = ctx.as_mut()?;
        let span_id = t.op.next_span_id.fetch_add(1, Ordering::Relaxed);
        let prev_parent = t.parent;
        t.parent = span_id;
        if let Ok(mut stack) = t.op.stack.lock() {
            stack.push((span_id, name));
        }
        let op = t.op.clone();
        Some(Box::new(SpanInner { op, span_id, prev_parent, name, attrs: Vec::new() }))
    })
}

/// An open span; a [`SectionGuard`] holds it until the section ends.
pub(crate) struct SpanInner {
    op: Arc<ActiveOp>,
    span_id: u64,
    prev_parent: u64,
    name: &'static str,
    pub(crate) attrs: Vec<(&'static str, u64)>,
}

impl SpanInner {
    /// Closes the span, which started at `start` and lasted `dur_nanos`.
    pub(crate) fn end(self, start: Instant, dur_nanos: u64) {
        let SpanInner { op, span_id, prev_parent, name, attrs } = self;
        // Restore the parent pointer if this thread is still attached to
        // the same op (an attach guard may already have detached it).
        CTX.with(|c| {
            if let Some(t) = c.borrow_mut().as_mut() {
                if Arc::ptr_eq(&t.op, &op) {
                    t.parent = prev_parent;
                }
            }
        });
        if let Ok(mut stack) = op.stack.lock() {
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == span_id) {
                stack.remove(pos);
            }
        }
        let rec = SpanRecord {
            trace_id: op.trace_id,
            span_id,
            parent_id: prev_parent,
            name,
            start_rel_micros: start.saturating_duration_since(op.start).as_micros() as u64,
            dur_nanos,
            attrs,
        };
        op.record(rec);
    }
}

/// A capture of "where in the trace am I" that can cross threads: take
/// it with [`context`] before spawning, [`SpanContext::attach`] inside
/// the helper thread.
#[derive(Clone)]
pub struct SpanContext {
    op: Arc<ActiveOp>,
    parent: u64,
}

/// The current thread's trace position, if an op is active.
#[must_use]
pub fn context() -> Option<SpanContext> {
    if perf::flags() & TRACE == 0 {
        return None;
    }
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|t| SpanContext { op: t.op.clone(), parent: t.parent })
    })
}

impl SpanContext {
    /// Installs this context on the current thread; spans opened while
    /// the guard lives parent under the captured span. Restores the
    /// thread's previous state (usually: not tracing) on drop.
    pub fn attach(&self) -> AttachGuard {
        let prev_active = perf::set_flag(TRACE, true);
        let prev = CTX.with(|c| {
            c.borrow_mut()
                .replace(ThreadCtx { op: self.op.clone(), parent: self.parent })
        });
        AttachGuard { prev_active, prev }
    }
}

/// RAII guard for [`SpanContext::attach`].
#[must_use = "detaches the context when dropped"]
pub struct AttachGuard {
    prev_active: bool,
    prev: Option<ThreadCtx>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        perf::set_flag(TRACE, self.prev_active);
        let prev = self.prev.take();
        CTX.with(|c| *c.borrow_mut() = prev);
    }
}

/// The flight recorder: owns the span ring, the slow-op ring, the
/// active-op registry, and the enable switch.
pub struct Tracer {
    ring: Arc<SpanRing>,
    enabled: AtomicBool,
    next_trace_id: AtomicU64,
    slow_threshold_nanos: AtomicU64,
    slow: Mutex<VecDeque<SlowOp>>,
    slow_capacity: usize,
    active: Mutex<Vec<Arc<ActiveOp>>>,
    listener: Mutex<Option<Arc<dyn EventListener>>>,
}

impl Tracer {
    /// A tracer whose span ring holds `ring_capacity` spans and whose
    /// slow-op ring holds `slow_capacity` captures. Starts disabled.
    #[must_use]
    pub fn new(ring_capacity: usize, slow_capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            ring: Arc::new(SpanRing::new(ring_capacity)),
            enabled: AtomicBool::new(false),
            next_trace_id: AtomicU64::new(0),
            slow_threshold_nanos: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
            slow_capacity: slow_capacity.max(1),
            active: Mutex::new(Vec::new()),
            listener: Mutex::new(None),
        })
    }

    /// Turns span collection on or off (off = the <2% disabled path).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Is span collection on?
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the slow-op capture threshold; `None` disables capture.
    pub fn set_slow_op_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map_or(0, |d| (d.as_nanos() as u64).max(1));
        self.slow_threshold_nanos.store(nanos, Ordering::Release);
    }

    /// Registers the listener notified of [`Event::SlowOp`] emissions.
    pub fn set_listener(&self, listener: Arc<dyn EventListener>) {
        if let Ok(mut l) = self.listener.lock() {
            *l = Some(listener);
        }
    }

    /// Starts op `name` on this thread, timed once into `hist`. While the
    /// recorder is on, the op roots its own trace, with a [`PerfContext`]
    /// for its slow-op capture (unless the caller already collects one,
    /// whose accumulation must not be reset).
    #[inline]
    pub fn op<'a>(self: &Arc<Self>, name: &'static str, hist: &'a AtomicHistogram) -> Op<'a> {
        let mut op = Op::untraced(hist);
        if self.enabled() {
            op.root = Some(self.start_root(name, op.start));
        }
        op
    }

    /// Makes op `name`, started at `start`, the root of a new trace on
    /// this thread.
    fn start_root(self: &Arc<Self>, name: &'static str, start: Instant) -> Box<Root> {
        let perf = (!perf::enabled()).then(PerfGuard::enable);
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed) + 1;
        let active_op = Arc::new(ActiveOp {
            ring: self.ring.clone(),
            op: name,
            trace_id,
            start,
            next_span_id: AtomicU64::new(2),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            stack: Mutex::new(Vec::new()),
            flagged: AtomicBool::new(false),
        });
        if let Ok(mut reg) = self.active.lock() {
            reg.push(active_op.clone());
        }
        let prev_active = perf::set_flag(TRACE, true);
        let prev_ctx = CTX.with(|c| {
            c.borrow_mut()
                .replace(ThreadCtx { op: active_op.clone(), parent: 1 })
        });
        Box::new(Root { tracer: self.clone(), op: active_op, prev_active, prev_ctx, perf })
    }

    /// Ops currently in flight (for the stall watchdog).
    #[must_use]
    pub fn active_ops(&self) -> Vec<Arc<ActiveOp>> {
        self.active.lock().map(|reg| reg.clone()).unwrap_or_default()
    }

    /// Best-effort snapshot of the span ring, oldest first.
    #[must_use]
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.ring.collect()
    }

    /// The slow-op ring, oldest first.
    #[must_use]
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow
            .lock()
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// The root of a traced op: the thread state it replaced, restored by
/// [`Root::finish`], and the perf guard its slow-op capture reads.
struct Root {
    tracer: Arc<Tracer>,
    op: Arc<ActiveOp>,
    prev_active: bool,
    prev_ctx: Option<ThreadCtx>,
    perf: Option<PerfGuard>,
}

impl Root {
    /// Ends the trace `wall` after the op's start: restores the thread,
    /// records the root span and runs the slow-op check, which reads the
    /// op's breakdown while `_perf` still keeps it live.
    fn finish(self, wall: Duration) {
        let Root { tracer, op, prev_active, prev_ctx, perf: _perf } = self;
        perf::set_flag(TRACE, prev_active);
        CTX.with(|c| *c.borrow_mut() = prev_ctx);
        let root = SpanRecord {
            trace_id: op.trace_id,
            span_id: 1,
            parent_id: 0,
            name: op.op,
            start_rel_micros: 0,
            dur_nanos: wall.as_nanos() as u64,
            attrs: Vec::new(),
        };
        op.ring.push(root.clone());
        if let Ok(mut reg) = tracer.active.lock() {
            reg.retain(|a| a.trace_id != op.trace_id);
        }
        let threshold = tracer.slow_threshold_nanos.load(Ordering::Acquire);
        if threshold == 0 || (wall.as_nanos() as u64) < threshold {
            return;
        }
        let children = op.spans.lock().map(|s| s.clone()).unwrap_or_default();
        let mut spans = Vec::with_capacity(children.len() + 1);
        spans.push(root);
        spans.extend(children);
        let capture = SlowOp {
            op: op.op,
            trace_id: op.trace_id,
            wall_nanos: wall.as_nanos() as u64,
            threshold_nanos: threshold,
            unix_micros: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            spans,
            dropped_spans: op.dropped.load(Ordering::Relaxed),
            perf: perf::current(),
        };
        let event = Event::SlowOp {
            op: capture.op,
            trace_id: capture.trace_id,
            wall_micros: capture.wall_nanos / 1_000,
            threshold_micros: capture.threshold_nanos / 1_000,
            spans: capture.spans.len() as u64,
        };
        if let Ok(mut slow) = tracer.slow.lock() {
            while slow.len() >= tracer.slow_capacity {
                slow.pop_front();
            }
            slow.push_back(capture);
        }
        let listener = tracer.listener.lock().ok().and_then(|l| l.clone());
        if let Some(l) = listener {
            l.on_event(&event);
        }
    }
}

/// One operation, timed once: the clock is read when it starts and when
/// it ends, and that one wall time feeds its latency histogram, its
/// trace (root span or section) and the caller ([`Op::finish`]). Ends on
/// drop if not finished.
#[must_use = "the op is timed while the guard is alive"]
pub struct Op<'a> {
    /// `None` once the op has ended.
    hist: Option<&'a AtomicHistogram>,
    start: Instant,
    /// The trace the op roots, while the recorder is on.
    root: Option<Box<Root>>,
    /// The section a nested op records as.
    section: Option<SectionGuard>,
}

impl<'a> Op<'a> {
    /// An op that is never traced on its own, timed into `hist`.
    #[inline]
    pub fn untraced(hist: &'a AtomicHistogram) -> Op<'a> {
        Op { hist: Some(hist), start: Instant::now(), root: None, section: None }
    }

    /// An op that runs as `section` of the thread's trace (if any),
    /// charged and recorded from the op's own readings.
    pub fn nested(section: Section, hist: &'a AtomicHistogram) -> Op<'a> {
        let mut op = Op::untraced(hist);
        op.section = Some(SectionGuard::started(section, op.start));
        op
    }

    /// Attaches a numeric attribute to a nested op's span.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(section) = &mut self.section {
            section.attr(key, value);
        }
    }

    /// Ends the op and returns its wall time.
    pub fn finish(mut self) -> Duration {
        self.end()
    }

    #[inline]
    fn end(&mut self) -> Duration {
        let wall = self.start.elapsed();
        if let Some(hist) = self.hist.take() {
            hist.record(wall.as_nanos() as u64);
            if let Some(section) = &mut self.section {
                section.end(wall.as_nanos() as u64);
            }
            if let Some(root) = self.root.take() {
                root.finish(wall);
            }
        }
        wall
    }
}

impl Drop for Op<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.hist.is_some() {
            self.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active() -> bool {
        perf::flags() & TRACE != 0
    }

    #[test]
    fn disabled_is_inert() {
        assert!(!active());
        let mut g = Section::ReadSpan.enter();
        g.attr("x", 1);
        drop(g);
        let tracer = Tracer::new(16, 4);
        let hist = AtomicHistogram::new();
        {
            let _op = tracer.op("get", &hist);
            assert!(!active(), "a disabled recorder roots no trace");
            assert!(!perf::enabled(), "nor enables a PerfContext");
        }
        assert!(tracer.recent_spans().is_empty());
        assert!(context().is_none());
        assert_eq!(hist.snapshot().count(), 1, "the histogram still times the op");
    }

    #[test]
    fn spans_nest_and_record() {
        let tracer = Tracer::new(64, 4);
        tracer.set_enabled(true);
        let hist = AtomicHistogram::new();
        let wall = {
            let op = tracer.op("multi_get", &hist);
            assert!(active());
            {
                let mut outer = Section::FetchBatch.enter();
                outer.attr("requests", 8);
                {
                    let _inner = Section::IoBatchWait.enter();
                }
            }
            op.finish()
        };
        assert!(!active());
        let spans = tracer.recent_spans();
        assert_eq!(spans.len(), 3);
        // Completion order: inner, outer, root.
        let inner = &spans[0];
        let outer = &spans[1];
        let root = &spans[2];
        assert_eq!(root.name, "multi_get");
        assert_eq!(root.span_id, 1);
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.dur_nanos, wall.as_nanos() as u64, "one reading for root and caller");
        assert_eq!(hist.snapshot().max_us(), root.dur_nanos as f64 / 1e3, "and for the histogram");
        assert_eq!(outer.name, "fetch_batch");
        assert_eq!(outer.parent_id, 1);
        assert_eq!(outer.attrs, vec![("requests", 8)]);
        assert_eq!(inner.name, "read_window");
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(inner.trace_id, root.trace_id);
        assert!(root.dur_nanos >= outer.dur_nanos);
    }

    /// A traced op's sections charge the op's PerfContext and record
    /// their spans from the same readings: per section, the two agree to
    /// the nanosecond.
    #[test]
    fn section_span_and_field_agree() {
        let tracer = Tracer::new(64, 4);
        tracer.set_enabled(true);
        tracer.set_slow_op_threshold(Some(Duration::from_nanos(1)));
        let hist = AtomicHistogram::new();
        {
            let _op = tracer.op("get", &hist);
            for _ in 0..3 {
                let _t = Section::BlockRead.enter();
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        let slow = tracer.slow_ops();
        let capture = &slow[0];
        let spans: u64 =
            capture.spans.iter().filter(|s| s.name == "block_read").map(|s| s.dur_nanos).sum();
        assert!(spans >= 60_000);
        assert_eq!(spans, capture.perf.block_read_nanos);
        assert!(!perf::enabled(), "the op's perf guard is gone with it");
    }

    #[test]
    fn nested_op_records_its_section() {
        let tracer = Tracer::new(64, 4);
        tracer.set_enabled(true);
        let (root_hist, sub_hist) = (AtomicHistogram::new(), AtomicHistogram::new());
        let root = tracer.op("compaction", &root_hist);
        let mut sub = Op::nested(Section::Subcompaction, &sub_hist);
        sub.attr("index", 3);
        let wall = sub.finish();
        drop(root);
        let spans = tracer.recent_spans();
        let span = spans.iter().find(|s| s.name == "subcompaction").expect("subcompaction span");
        assert_eq!(span.parent_id, 1);
        assert_eq!(span.attrs, vec![("index", 3)]);
        assert_eq!(span.dur_nanos, wall.as_nanos() as u64);
        assert_eq!(sub_hist.snapshot().max_us(), span.dur_nanos as f64 / 1e3);
    }

    #[test]
    fn context_attaches_across_threads() {
        let tracer = Tracer::new(64, 4);
        tracer.set_enabled(true);
        let hist = AtomicHistogram::new();
        let _op = tracer.op("multi_get", &hist);
        let parent_span = Section::FetchBatch.enter();
        let ctx = context().expect("active");
        let handle = std::thread::spawn(move || {
            assert!(!active(), "fresh thread starts untraced");
            {
                let _attach = ctx.attach();
                let mut w = Section::IoBatchWait.enter();
                w.attr("requests", 4);
            }
            assert!(!active(), "attach guard restores");
        });
        handle.join().expect("helper thread");
        drop(parent_span);
        let spans = tracer.recent_spans();
        let window = spans.iter().find(|s| s.name == "read_window").expect("window span");
        let batch = spans.iter().find(|s| s.name == "fetch_batch").expect("batch span");
        assert_eq!(window.parent_id, batch.span_id);
        assert_eq!(window.trace_id, batch.trace_id);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let tracer = Tracer::new(4, 4);
        tracer.set_enabled(true);
        let hist = AtomicHistogram::new();
        for _ in 0..10 {
            let _op = tracer.op("get", &hist);
        }
        let spans = tracer.recent_spans();
        assert_eq!(spans.len(), 4, "bounded at capacity");
        // The survivors are the newest four traces.
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn slow_op_captured_with_tree_and_event() {
        struct Capture(Mutex<Vec<String>>);
        impl EventListener for Capture {
            fn on_event(&self, e: &Event) {
                if let Ok(mut v) = self.0.lock() {
                    v.push(e.name().to_string());
                }
            }
        }
        let capture = Arc::new(Capture(Mutex::new(Vec::new())));
        let tracer = Tracer::new(64, 2);
        tracer.set_enabled(true);
        tracer.set_slow_op_threshold(Some(Duration::from_nanos(1)));
        tracer.set_listener(capture.clone());
        let hist = AtomicHistogram::new();
        {
            let _op = tracer.op("get", &hist);
            let _child = Section::ReadBlock.enter();
            std::thread::sleep(Duration::from_millis(1));
        }
        let slow = tracer.slow_ops();
        assert_eq!(slow.len(), 1);
        let s = &slow[0];
        assert_eq!(s.op, "get");
        assert!(s.wall_nanos >= 1);
        assert_eq!(s.spans[0].name, "get");
        assert!(s.spans.iter().any(|sp| sp.name == "read_block"));
        let json = s.to_json();
        assert!(json.contains("\"op\":\"get\""), "{json}");
        assert!(json.contains("\"spans\":["), "{json}");
        assert_eq!(capture.0.lock().unwrap().as_slice(), ["slow_op"]);
        // Ring is bounded: two more slow ops evict the first.
        for _ in 0..2 {
            let _op = tracer.op("put", &hist);
            std::thread::sleep(Duration::from_micros(100));
        }
        let slow = tracer.slow_ops();
        assert_eq!(slow.len(), 2);
        assert!(slow.iter().all(|s| s.op == "put"));
    }

    #[test]
    fn threshold_filters_fast_ops() {
        let tracer = Tracer::new(16, 4);
        tracer.set_enabled(true);
        tracer.set_slow_op_threshold(Some(Duration::from_secs(3600)));
        let hist = AtomicHistogram::new();
        {
            let _op = tracer.op("get", &hist);
        }
        assert!(tracer.slow_ops().is_empty());
    }

    #[test]
    fn watchdog_sees_active_ops_and_flags_once() {
        let tracer = Tracer::new(16, 4);
        tracer.set_enabled(true);
        let hist = AtomicHistogram::new();
        let op = tracer.op("compaction", &hist);
        let sp = Section::Subcompaction.enter();
        let live = tracer.active_ops();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].op(), "compaction");
        assert_eq!(live[0].live_stack(), vec!["compaction", "subcompaction"]);
        assert!(live[0].flag_watchdog(), "first flag claims");
        assert!(!live[0].flag_watchdog(), "second flag is suppressed");
        drop(sp);
        drop(op);
        assert!(tracer.active_ops().is_empty());
    }

    #[test]
    fn nested_ops_restore_outer_trace() {
        let tracer = Tracer::new(64, 4);
        tracer.set_enabled(true);
        let hist = AtomicHistogram::new();
        let _outer = tracer.op("write_batch", &hist);
        let outer_ctx = context().expect("outer active");
        {
            let _inner = tracer.op("flush", &hist);
            let inner_ctx = context().expect("inner active");
            assert_ne!(
                inner_ctx.op.trace_id,
                outer_ctx.op.trace_id,
                "inner op is its own trace"
            );
        }
        let restored = context().expect("outer restored");
        assert_eq!(restored.op.trace_id, outer_ctx.op.trace_id);
    }

    #[test]
    fn per_op_span_cap_counts_drops() {
        let tracer = Tracer::new(8, 4);
        tracer.set_enabled(true);
        tracer.set_slow_op_threshold(Some(Duration::from_nanos(1)));
        let hist = AtomicHistogram::new();
        {
            let _op = tracer.op("scan", &hist);
            for _ in 0..(MAX_SPANS_PER_OP + 10) {
                let _s = Section::ReadSpan.enter();
            }
            std::thread::sleep(Duration::from_micros(10));
        }
        let slow = tracer.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].dropped_spans, 10);
        assert_eq!(slow[0].spans.len(), MAX_SPANS_PER_OP + 1);
    }
}
