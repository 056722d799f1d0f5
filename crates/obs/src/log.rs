//! Engine event catalog, listener fan-out, and the structured `InfoLog`
//! sink that renders a RocksDB-style `LOG` file.
//!
//! Events are a closed enum ([`Event`]) so every emission site is typed;
//! each event knows its [`LogLevel`] and renders itself as `(name,
//! fields)` pairs, from which [`InfoLog`] produces either human-readable
//! lines or JSON-lines. The engine owns one [`EventDispatcher`] and
//! fans every event out to all registered [`EventListener`]s.
//!
//! Level filtering comes from the `SHIELD_LOG` environment variable
//! (parsed by [`LogConfig::from_env_str`]): a level token (`error`,
//! `warn`, `info`, `debug`, or `off`) optionally combined with `json`,
//! comma-separated — e.g. `SHIELD_LOG=debug,json`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity of an [`Event`], lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Debug,
    Info,
    Warn,
    Error,
}

impl LogLevel {
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// Logging configuration, usually parsed from `SHIELD_LOG`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogConfig {
    /// `None` disables the log entirely.
    pub level: Option<LogLevel>,
    /// Emit JSON-lines instead of human-readable lines.
    pub json: bool,
}

impl LogConfig {
    /// Parse a `SHIELD_LOG`-style value: comma-separated tokens, each a
    /// level name, `off`/`none`, or `json`. Unknown tokens are ignored.
    /// An empty value (or one with no level token) means disabled.
    pub fn from_env_str(s: &str) -> LogConfig {
        let mut cfg = LogConfig::default();
        for tok in s.split(',') {
            let tok = tok.trim();
            if tok.eq_ignore_ascii_case("json") {
                cfg.json = true;
            } else if tok.eq_ignore_ascii_case("off") || tok.eq_ignore_ascii_case("none") {
                cfg.level = None;
            } else if let Some(l) = LogLevel::parse(tok) {
                cfg.level = Some(l);
            }
        }
        cfg
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone)]
pub enum FieldValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// The engine event catalog. Every structured occurrence the engine can
/// report flows through exactly one of these variants.
#[derive(Debug, Clone)]
pub enum Event {
    /// A DB finished opening (after recovery).
    DbOpen { path: String, recovered_wals: u64 },
    /// A DB is shutting down.
    DbClose { path: String },
    /// A memtable flush started.
    FlushBegin { immutables: u64 },
    /// A memtable flush produced an L0 file.
    FlushEnd { file_number: u64, bytes: u64, micros: u64 },
    /// A compaction started.
    CompactionBegin { level: u64, inputs: u64, input_bytes: u64 },
    /// A compaction finished.
    CompactionEnd {
        level: u64,
        bytes_read: u64,
        bytes_written: u64,
        output_files: u64,
        micros: u64,
    },
    /// A compaction split into parallel subrange merges. `l0_files` is the
    /// tree's L0 backlog when the merge was picked: at or above the
    /// slowdown trigger it is why the merge was split.
    SubcompactionBegin { level: u64, subtasks: u64, input_bytes: u64, l0_files: u64 },
    /// One subrange merge of a parallel compaction finished.
    SubcompactionEnd { index: u64, bytes_written: u64, micros: u64 },
    /// A writer was slowed or stopped by L0 pressure.
    WriteStall { reason: &'static str, l0_files: u64 },
    /// A background job failed (possibly after exhausting retries).
    BackgroundError { job: &'static str, severity: &'static str, message: String },
    /// A background job failed retryably and will be re-attempted.
    BackgroundRetry { job: &'static str, attempt: u64, message: String },
    /// The DB resumed from a soft background-error state.
    Resume,
    /// The DEK resolver is retrying a KDS call.
    KdsRetry { attempt: u64, message: String },
    /// The KDS client failed over to another endpoint.
    KdsFailover { failovers: u64 },
    /// The resolver entered degraded (cache-only) mode.
    KdsDegradedEnter { message: String },
    /// The resolver recovered from degraded mode.
    KdsDegradedExit,
    /// The fault-injection env fired an injected fault.
    FaultInjected { op: &'static str, file_kind: &'static str, torn: bool },
    /// An HMAC tag failed to verify: the file was tampered with (or
    /// damaged) in a way its checksum alone would not prove. `offset` is
    /// the block offset for SSTs, the fragment counter for logs.
    IntegrityViolation { file: u64, offset: u64 },
    /// An op exceeded the slow-op threshold; its full span tree and
    /// perf breakdown are retrievable from the slow-op ring.
    SlowOp {
        op: &'static str,
        trace_id: u64,
        wall_micros: u64,
        threshold_micros: u64,
        spans: u64,
    },
    /// The stall watchdog found an op/job pinned past its deadline;
    /// `stack` is the live span stack at flag time.
    Watchdog {
        op: &'static str,
        trace_id: u64,
        elapsed_micros: u64,
        deadline_micros: u64,
        stack: String,
    },
    /// One windowed-stats interval rolled over (rates are per-interval).
    StatsWindow {
        seq: u64,
        duration_micros: u64,
        writes_per_sec: f64,
        reads_per_sec: f64,
        cache_hit_ratio: f64,
        stall_fraction: f64,
    },
}

impl Event {
    pub fn name(&self) -> &'static str {
        match self {
            Event::DbOpen { .. } => "db_open",
            Event::DbClose { .. } => "db_close",
            Event::FlushBegin { .. } => "flush_begin",
            Event::FlushEnd { .. } => "flush_end",
            Event::CompactionBegin { .. } => "compaction_begin",
            Event::CompactionEnd { .. } => "compaction_end",
            Event::SubcompactionBegin { .. } => "subcompaction_begin",
            Event::SubcompactionEnd { .. } => "subcompaction_end",
            Event::WriteStall { .. } => "write_stall",
            Event::BackgroundError { .. } => "background_error",
            Event::BackgroundRetry { .. } => "background_retry",
            Event::Resume => "resume",
            Event::KdsRetry { .. } => "kds_retry",
            Event::KdsFailover { .. } => "kds_failover",
            Event::KdsDegradedEnter { .. } => "kds_degraded_enter",
            Event::KdsDegradedExit => "kds_degraded_exit",
            Event::FaultInjected { .. } => "fault_injected",
            Event::IntegrityViolation { .. } => "integrity_violation",
            Event::SlowOp { .. } => "slow_op",
            Event::Watchdog { .. } => "watchdog",
            Event::StatsWindow { .. } => "stats_window",
        }
    }

    pub fn level(&self) -> LogLevel {
        match self {
            Event::DbOpen { .. }
            | Event::DbClose { .. }
            | Event::FlushBegin { .. }
            | Event::FlushEnd { .. }
            | Event::CompactionBegin { .. }
            | Event::CompactionEnd { .. }
            | Event::Resume
            | Event::KdsDegradedExit
            | Event::StatsWindow { .. } => LogLevel::Info,
            // Per-subrange progress is chatty; keep it below the default
            // info LOG level.
            Event::SubcompactionBegin { .. } | Event::SubcompactionEnd { .. } => LogLevel::Debug,
            Event::WriteStall { .. }
            | Event::BackgroundRetry { .. }
            | Event::KdsRetry { .. }
            | Event::KdsFailover { .. }
            | Event::FaultInjected { .. }
            | Event::SlowOp { .. }
            | Event::Watchdog { .. } => LogLevel::Warn,
            Event::BackgroundError { .. }
            | Event::KdsDegradedEnter { .. }
            | Event::IntegrityViolation { .. } => LogLevel::Error,
        }
    }

    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::*;
        match self {
            Event::DbOpen { path, recovered_wals } => vec![
                ("path", Str(path.clone())),
                ("recovered_wals", U64(*recovered_wals)),
            ],
            Event::DbClose { path } => vec![("path", Str(path.clone()))],
            Event::FlushBegin { immutables } => vec![("immutables", U64(*immutables))],
            Event::FlushEnd { file_number, bytes, micros } => vec![
                ("file_number", U64(*file_number)),
                ("bytes", U64(*bytes)),
                ("micros", U64(*micros)),
            ],
            Event::CompactionBegin { level, inputs, input_bytes } => vec![
                ("level", U64(*level)),
                ("inputs", U64(*inputs)),
                ("input_bytes", U64(*input_bytes)),
            ],
            Event::CompactionEnd { level, bytes_read, bytes_written, output_files, micros } => {
                vec![
                    ("level", U64(*level)),
                    ("bytes_read", U64(*bytes_read)),
                    ("bytes_written", U64(*bytes_written)),
                    ("output_files", U64(*output_files)),
                    ("micros", U64(*micros)),
                ]
            }
            Event::SubcompactionBegin { level, subtasks, input_bytes, l0_files } => vec![
                ("level", U64(*level)),
                ("subtasks", U64(*subtasks)),
                ("input_bytes", U64(*input_bytes)),
                ("l0_files", U64(*l0_files)),
            ],
            Event::SubcompactionEnd { index, bytes_written, micros } => vec![
                ("index", U64(*index)),
                ("bytes_written", U64(*bytes_written)),
                ("micros", U64(*micros)),
            ],
            Event::WriteStall { reason, l0_files } => vec![
                ("reason", Str((*reason).to_string())),
                ("l0_files", U64(*l0_files)),
            ],
            Event::BackgroundError { job, severity, message } => vec![
                ("job", Str((*job).to_string())),
                ("severity", Str((*severity).to_string())),
                ("message", Str(message.clone())),
            ],
            Event::BackgroundRetry { job, attempt, message } => vec![
                ("job", Str((*job).to_string())),
                ("attempt", U64(*attempt)),
                ("message", Str(message.clone())),
            ],
            Event::Resume => vec![],
            Event::KdsRetry { attempt, message } => vec![
                ("attempt", U64(*attempt)),
                ("message", Str(message.clone())),
            ],
            Event::KdsFailover { failovers } => vec![("failovers", U64(*failovers))],
            Event::KdsDegradedEnter { message } => vec![("message", Str(message.clone()))],
            Event::KdsDegradedExit => vec![],
            Event::FaultInjected { op, file_kind, torn } => vec![
                ("op", Str((*op).to_string())),
                ("file_kind", Str((*file_kind).to_string())),
                ("torn", Str(torn.to_string())),
            ],
            Event::IntegrityViolation { file, offset } => vec![
                ("file", U64(*file)),
                ("offset", U64(*offset)),
            ],
            Event::SlowOp { op, trace_id, wall_micros, threshold_micros, spans } => vec![
                ("op", Str((*op).to_string())),
                ("trace_id", U64(*trace_id)),
                ("wall_micros", U64(*wall_micros)),
                ("threshold_micros", U64(*threshold_micros)),
                ("spans", U64(*spans)),
            ],
            Event::Watchdog { op, trace_id, elapsed_micros, deadline_micros, stack } => vec![
                ("op", Str((*op).to_string())),
                ("trace_id", U64(*trace_id)),
                ("elapsed_micros", U64(*elapsed_micros)),
                ("deadline_micros", U64(*deadline_micros)),
                ("stack", Str(stack.clone())),
            ],
            Event::StatsWindow {
                seq,
                duration_micros,
                writes_per_sec,
                reads_per_sec,
                cache_hit_ratio,
                stall_fraction,
            } => vec![
                ("seq", U64(*seq)),
                ("duration_micros", U64(*duration_micros)),
                ("writes_per_sec", F64(*writes_per_sec)),
                ("reads_per_sec", F64(*reads_per_sec)),
                ("cache_hit_ratio", F64(*cache_hit_ratio)),
                ("stall_fraction", F64(*stall_fraction)),
            ],
        }
    }
}

/// Receiver of engine events. Implementations must tolerate being called
/// from any engine thread (foreground writers, background jobs).
pub trait EventListener: Send + Sync {
    fn on_event(&self, event: &Event);
}

/// Fan-out of engine events to all registered listeners.
///
/// Itself an [`EventListener`], so a dispatcher can be handed to
/// subsystems (env, resolver) that only know the trait. Emission with no
/// listeners is a single relaxed atomic load.
#[derive(Default)]
pub struct EventDispatcher {
    listeners: Mutex<Vec<Arc<dyn EventListener>>>,
    active: AtomicBool,
}

impl EventDispatcher {
    pub fn new() -> EventDispatcher {
        EventDispatcher::default()
    }

    pub fn add(&self, listener: Arc<dyn EventListener>) {
        if let Ok(mut l) = self.listeners.lock() {
            l.push(listener);
            self.active.store(true, Ordering::Release);
        }
    }

    pub fn has_listeners(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    pub fn emit(&self, event: &Event) {
        if !self.has_listeners() {
            return;
        }
        if let Ok(listeners) = self.listeners.lock() {
            for l in listeners.iter() {
                l.on_event(event);
            }
        }
    }
}

impl EventListener for EventDispatcher {
    fn on_event(&self, event: &Event) {
        self.emit(event);
    }
}

/// Destination for rendered log lines (the engine implements this over
/// its `Env` so `LOG` lands in the DB directory regardless of backend).
pub trait LogSink: Send + Sync {
    fn write_line(&self, line: &str);
}

/// A [`LogSink`] that appends to an in-memory buffer; for tests.
#[derive(Default)]
pub struct VecSink {
    pub lines: Mutex<Vec<String>>,
}

impl LogSink for VecSink {
    fn write_line(&self, line: &str) {
        if let Ok(mut l) = self.lines.lock() {
            l.push(line.to_string());
        }
    }
}

/// Structured, level-filtered event sink rendering a RocksDB-style log.
///
/// Human format:
/// `2026/08/07-12:00:00.000000 [info] flush_end file_number=7 bytes=4096 micros=1500`
///
/// JSON-lines format:
/// `{"ts_micros":1754568000000000,"level":"info","event":"flush_end","file_number":7,...}`
pub struct InfoLog {
    sink: Box<dyn LogSink>,
    min_level: LogLevel,
    json: bool,
}

impl InfoLog {
    pub fn new(sink: Box<dyn LogSink>, min_level: LogLevel, json: bool) -> InfoLog {
        InfoLog { sink, min_level, json }
    }

    /// Log a free-form message at `level` (no event payload).
    pub fn message(&self, level: LogLevel, msg: &str) {
        if level < self.min_level {
            return;
        }
        self.render(level, "message", &[("message", FieldValue::Str(msg.to_string()))]);
    }

    fn render(&self, level: LogLevel, name: &str, fields: &[(&'static str, FieldValue)]) {
        let micros = unix_micros();
        let mut line = String::with_capacity(96);
        if self.json {
            let _ = write!(line, "{{\"ts_micros\":{micros},\"level\":\"{}\",\"event\":\"{name}\"", level.as_str());
            for (k, v) in fields {
                match v {
                    FieldValue::U64(n) => {
                        let _ = write!(line, ",\"{k}\":{n}");
                    }
                    FieldValue::F64(n) => {
                        let _ = write!(line, ",\"{k}\":{n:.3}");
                    }
                    FieldValue::Str(s) => {
                        let _ = write!(line, ",\"{k}\":{}", crate::json::escaped(s));
                    }
                }
            }
            line.push('}');
        } else {
            let _ = write!(line, "{} [{}] {name}", format_timestamp(micros), level.as_str());
            for (k, v) in fields {
                match v {
                    FieldValue::Str(s) if s.contains(' ') => {
                        let _ = write!(line, " {k}={s:?}");
                    }
                    _ => {
                        let _ = write!(line, " {k}={v}");
                    }
                }
            }
        }
        self.sink.write_line(&line);
    }
}

impl EventListener for InfoLog {
    fn on_event(&self, event: &Event) {
        if event.level() < self.min_level {
            return;
        }
        self.render(event.level(), event.name(), &event.fields());
    }
}

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// `YYYY/MM/DD-HH:MM:SS.uuuuuu` from microseconds since the Unix epoch
/// (UTC). Civil-date conversion per Howard Hinnant's algorithm.
fn format_timestamp(micros: u64) -> String {
    let secs = micros / 1_000_000;
    let sub = micros % 1_000_000;
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (h, m, s) = (tod / 3600, (tod / 60) % 60, tod % 60);
    // days since 1970-01-01 -> civil (y, m, d)
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}/{mo:02}/{d:02}-{h:02}:{m:02}:{s:02}.{sub:06}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_config_parses() {
        assert_eq!(LogConfig::from_env_str(""), LogConfig { level: None, json: false });
        assert_eq!(
            LogConfig::from_env_str("info"),
            LogConfig { level: Some(LogLevel::Info), json: false }
        );
        assert_eq!(
            LogConfig::from_env_str("debug,json"),
            LogConfig { level: Some(LogLevel::Debug), json: true }
        );
        assert_eq!(
            LogConfig::from_env_str("json , WARN"),
            LogConfig { level: Some(LogLevel::Warn), json: true }
        );
        assert_eq!(LogConfig::from_env_str("off"), LogConfig { level: None, json: false });
    }

    #[test]
    fn level_ordering() {
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Error);
    }

    #[test]
    fn info_log_filters_by_level() {
        let sink = Arc::new(VecSink::default());
        struct Fwd(Arc<VecSink>);
        impl LogSink for Fwd {
            fn write_line(&self, line: &str) {
                self.0.write_line(line);
            }
        }
        let log = InfoLog::new(Box::new(Fwd(sink.clone())), LogLevel::Warn, false);
        log.on_event(&Event::FlushBegin { immutables: 1 }); // info: filtered
        log.on_event(&Event::WriteStall { reason: "l0_stop", l0_files: 16 });
        let lines = sink.lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("write_stall"));
        assert!(lines[0].contains("reason=l0_stop"));
        assert!(lines[0].contains("l0_files=16"));
    }

    #[test]
    fn json_lines_are_valid_objects() {
        let sink = Arc::new(VecSink::default());
        struct Fwd(Arc<VecSink>);
        impl LogSink for Fwd {
            fn write_line(&self, line: &str) {
                self.0.write_line(line);
            }
        }
        let log = InfoLog::new(Box::new(Fwd(sink.clone())), LogLevel::Debug, true);
        log.on_event(&Event::BackgroundError {
            job: "flush",
            severity: "soft",
            message: "disk \"full\"".to_string(),
        });
        let lines = sink.lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let l = &lines[0];
        assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
        assert!(l.contains("\"event\":\"background_error\""));
        assert!(l.contains("\"severity\":\"soft\""));
        assert!(l.contains("\\\"full\\\""), "quotes must be escaped: {l}");
    }

    #[test]
    fn dispatcher_fans_out() {
        struct Count(std::sync::atomic::AtomicU64);
        impl EventListener for Count {
            fn on_event(&self, _e: &Event) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let d = EventDispatcher::new();
        assert!(!d.has_listeners());
        d.emit(&Event::Resume); // no listeners: cheap no-op
        let c1 = Arc::new(Count(std::sync::atomic::AtomicU64::new(0)));
        let c2 = Arc::new(Count(std::sync::atomic::AtomicU64::new(0)));
        d.add(c1.clone());
        d.add(c2.clone());
        d.emit(&Event::Resume);
        d.emit(&Event::KdsDegradedExit);
        assert_eq!(c1.0.load(Ordering::Relaxed), 2);
        assert_eq!(c2.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn timestamp_format() {
        // 2026-08-07 00:00:00 UTC = 1785024000 (days from epoch check).
        let ts = format_timestamp(0);
        assert_eq!(ts, "1970/01/01-00:00:00.000000");
        let ts = format_timestamp(86_400 * 1_000_000 + 1);
        assert_eq!(ts, "1970/01/02-00:00:00.000001");
        // Leap-year boundary: 2024-02-29.
        let secs_2024_02_29 = 1_709_164_800u64; // 2024-02-29 00:00:00 UTC
        assert_eq!(format_timestamp(secs_2024_02_29 * 1_000_000), "2024/02/29-00:00:00.000000");
    }

    #[test]
    fn every_event_names_and_renders() {
        let events = [
            Event::DbOpen { path: "/x".into(), recovered_wals: 1 },
            Event::DbClose { path: "/x".into() },
            Event::FlushBegin { immutables: 1 },
            Event::FlushEnd { file_number: 2, bytes: 3, micros: 4 },
            Event::CompactionBegin { level: 0, inputs: 4, input_bytes: 5 },
            Event::CompactionEnd {
                level: 0,
                bytes_read: 1,
                bytes_written: 2,
                output_files: 1,
                micros: 9,
            },
            Event::SubcompactionBegin { level: 0, subtasks: 4, input_bytes: 5, l0_files: 8 },
            Event::SubcompactionEnd { index: 1, bytes_written: 2, micros: 3 },
            Event::WriteStall { reason: "l0_slowdown", l0_files: 8 },
            Event::BackgroundError { job: "compaction", severity: "hard", message: "io".into() },
            Event::BackgroundRetry { job: "flush", attempt: 1, message: "io".into() },
            Event::Resume,
            Event::KdsRetry { attempt: 2, message: "timeout".into() },
            Event::KdsFailover { failovers: 1 },
            Event::KdsDegradedEnter { message: "kds down".into() },
            Event::KdsDegradedExit,
            Event::FaultInjected { op: "read", file_kind: "SST", torn: false },
            Event::IntegrityViolation { file: 7, offset: 4096 },
            Event::SlowOp {
                op: "multi_get",
                trace_id: 3,
                wall_micros: 12_000,
                threshold_micros: 10_000,
                spans: 9,
            },
            Event::Watchdog {
                op: "get",
                trace_id: 4,
                elapsed_micros: 60_000,
                deadline_micros: 50_000,
                stack: "get>read_window".into(),
            },
            Event::StatsWindow {
                seq: 1,
                duration_micros: 1_000_000,
                writes_per_sec: 1000.0,
                reads_per_sec: 500.0,
                cache_hit_ratio: 0.9,
                stall_fraction: 0.01,
            },
        ];
        let mut names = std::collections::HashSet::new();
        for e in &events {
            assert!(names.insert(e.name()), "duplicate event name {}", e.name());
            let _ = e.level();
            let _ = e.fields();
        }
    }
}
