//! `shield-core`: dependency-free observability primitives shared by
//! every layer of the SHIELD reproduction.
//!
//! This crate sits at the bottom of the workspace graph (no deps, std
//! only) so `shield-env`, `shield-kds`, `shield-lsm`, and `shield-bench`
//! can all speak the same types:
//!
//! - [`hist`]: the log-bucketed latency [`Histogram`] (promoted from the
//!   bench crate) plus a lock-free [`AtomicHistogram`] for in-engine
//!   per-operation recording.
//! - [`perf`]: the thread-local per-operation [`PerfContext`] timing
//!   breakdown, filled by the [`Section`] guard every timed site holds.
//! - [`log`]: the typed engine [`Event`] catalog, [`EventListener`] /
//!   [`EventDispatcher`] fan-out, and the [`InfoLog`] sink that renders
//!   a RocksDB-style `LOG` file (level-filtered via `SHIELD_LOG`).
//! - [`json`]: stable-JSON emission for metrics reports and sidecars,
//!   plus the minimal parser the schema golden-key tests use.
//! - [`trace`]: the flight recorder — hierarchical per-op spans in a
//!   bounded ring, slow-op capture, the active-op registry the stall
//!   watchdog scans, and the [`Op`] guard that times an operation once.
//! - [`stripe`]: [`Striped`], the per-thread counter stripes every
//!   ticker set and histogram writes through, so readers on different
//!   cores never write one cache line.
//! - [`window`]: the windowed-stats differ turning cumulative tickers
//!   into per-interval deltas and rates (`shield_metrics_window_v1`).

pub mod hist;
pub mod json;
pub mod log;
pub mod perf;
pub mod stripe;
pub mod trace;
pub mod window;

pub use hist::{AtomicHistogram, Histogram, HistogramSummary};
pub use json::{JsonBuilder, JsonValue};
pub use log::{
    Event, EventDispatcher, EventListener, FieldValue, InfoLog, LogConfig, LogLevel, LogSink,
};
pub use perf::{PerfContext, PerfCounter, PerfGuard, Section, SectionGuard};
pub use stripe::{Striped, STRIPES};
pub use trace::{ActiveOp, Op, SlowOp, SpanContext, SpanRecord, Tracer};
pub use window::{MetricsWindow, WindowSample, WindowTracker, WINDOW_SCHEMA};
