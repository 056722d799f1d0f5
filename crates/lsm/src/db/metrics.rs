//! The metrics report pipeline: per-operation latency histograms, the
//! [`MetricsReport`] every handle answers with ([`crate::Db::metrics_report`],
//! [`crate::ReplicaDb::metrics_report`], [`crate::Db::debug_bundle`]), and
//! the ticker thread behind windowed stats and the stall watchdog.
//!
//! The report is the engine's attribution story in one artifact: per-level
//! shape (files/bytes, read/write amplification), per-op latency quantiles
//! from the in-engine [`AtomicHistogram`]s, and every ticker — rendered
//! both as a human-readable table ([`MetricsReport::render`]) and as the
//! stable JSON schema `shield_metrics_v1` ([`MetricsReport::to_json`])
//! that the bench driver writes as a sidecar next to every experiment.
//! One function builds it for every handle (`MetricsReport::build`);
//! what only one kind of handle knows rides in optional trailing sections.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use shield_core::{
    AtomicHistogram, Event, HistogramSummary, JsonBuilder, MetricsWindow, SlowOp, SpanRecord,
    WindowSample,
};

use crate::cache::BlockCache;
use crate::db::db::DbInner;
use crate::files::FileStore;
use crate::statistics::StatsSnapshot;
use crate::types::SequenceNumber;
use crate::version::version::Version;

/// The `schema` field value of the JSON report.
pub const METRICS_SCHEMA: &str = "shield_metrics_v1";

/// Operation types with an in-engine latency histogram.
pub const OP_TYPES: [&str; 8] =
    ["get", "multi_get", "put", "write_batch", "iter_next", "flush", "compaction", "subcompaction"];

/// One [`AtomicHistogram`] per op type; lives in `DbInner` and is
/// recorded by foreground ops and background jobs alike.
#[derive(Default)]
pub(crate) struct OpHistograms {
    pub get: AtomicHistogram,
    pub multi_get: AtomicHistogram,
    pub put: AtomicHistogram,
    pub write_batch: AtomicHistogram,
    /// Shared with every [`crate::DbIterator`] the database hands out.
    pub iter_next: std::sync::Arc<AtomicHistogram>,
    pub flush: AtomicHistogram,
    pub compaction: AtomicHistogram,
    pub subcompaction: AtomicHistogram,
}

impl OpHistograms {
    /// Snapshot summaries in [`OP_TYPES`] order.
    pub fn summaries(&self) -> Vec<(&'static str, HistogramSummary)> {
        vec![
            ("get", self.get.snapshot().summary()),
            ("multi_get", self.multi_get.snapshot().summary()),
            ("put", self.put.snapshot().summary()),
            ("write_batch", self.write_batch.snapshot().summary()),
            ("iter_next", self.iter_next.snapshot().summary()),
            ("flush", self.flush.snapshot().summary()),
            ("compaction", self.compaction.snapshot().summary()),
            ("subcompaction", self.subcompaction.snapshot().summary()),
        ]
    }
}

/// Shape of one LSM level.
#[derive(Debug, Clone, Copy)]
pub struct LevelStats {
    pub level: usize,
    pub files: usize,
    pub bytes: u64,
}

/// One tree's share of a [`MetricsReport`].
#[derive(Debug, Clone)]
pub struct TreeMetrics {
    /// The tree's non-empty levels (level 0 always included).
    pub levels: Vec<LevelStats>,
    /// Memtable flushes this tree completed.
    pub flushes: u64,
    /// Compactions this tree completed.
    pub compactions: u64,
}

impl TreeMetrics {
    /// The share of a tree whose current file layout is `version`.
    pub(crate) fn of(version: &Version, flushes: u64, compactions: u64) -> TreeMetrics {
        let levels = version
            .files
            .iter()
            .enumerate()
            .filter(|(level, files)| *level == 0 || !files.is_empty())
            .map(|(level, files)| LevelStats {
                level,
                files: files.len(),
                bytes: files.iter().map(|f| f.file_size).sum(),
            })
            .collect();
        TreeMetrics { levels, flushes, compactions }
    }

    /// Worst-case tables a point lookup consults in this tree: every L0
    /// file plus one per non-empty deeper level.
    fn read_amplification(&self) -> u64 {
        self.levels.iter().map(|l| if l.level == 0 { l.files as u64 } else { 1 }).sum()
    }
}

/// A read replica's position in the primary's history: the two values
/// no ticker or gauge holds.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaProgress {
    /// The sequence the replica's reads serve at.
    pub last_applied_seq: SequenceNumber,
    /// The highest sequence the replica has observed at the primary (WAL
    /// tail and manifest high-water mark).
    pub last_seen_seq: SequenceNumber,
}

/// The flight recorder's contents, for incident capture.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Captured slow operations, oldest first.
    pub slow_ops: Vec<SlowOp>,
    /// The recent span ring, oldest first.
    pub trace_spans: Vec<SpanRecord>,
    /// The last 16 KiB of the `LOG` file.
    pub log_tail: String,
}

/// Everything a handle knows about itself, in one report.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Non-empty levels (level 0 always included), summed over the trees.
    pub levels: Vec<LevelStats>,
    /// Total bytes written to storage (flush + compaction output) per byte
    /// of user write (WAL bytes); `None` when no WAL byte was written (a
    /// replica, a store opened with `disable_wal`), where there is no
    /// user write to divide by.
    pub write_amplification: Option<f64>,
    /// Worst-case tables consulted by a point lookup — every L0 file plus
    /// one per non-empty deeper level — in the worst tree (a lookup
    /// touches exactly one).
    pub read_amplification: u64,
    /// Per-op latency summaries, in [`OP_TYPES`] order; an op with no
    /// samples has `count == 0` and nothing else measured.
    pub latencies: Vec<(&'static str, HistogramSummary)>,
    /// All tickers at report time (mirrors and gauges already refreshed).
    pub tickers: StatsSnapshot,
    /// Recent windowed-stats intervals (`shield_metrics_window_v1`
    /// objects), oldest first. Empty unless `stats_dump_period` is set.
    pub windows: Vec<MetricsWindow>,
    /// How keys route to trees: `"hash"` or `"range"`.
    pub shard_by: &'static str,
    /// Per-tree shape and background work, in tree order.
    pub trees: Vec<TreeMetrics>,
    /// A read replica's progress; `None` on a primary.
    pub replica: Option<ReplicaProgress>,
    /// The flight recorder's contents; filled by [`crate::Db::debug_bundle`]
    /// only.
    pub diagnostics: Option<Diagnostics>,
}

fn push_levels(j: &mut JsonBuilder, levels: &[LevelStats]) {
    j.open_arr("levels");
    for l in levels {
        j.open_obj_item();
        j.field_u64("level", l.level as u64);
        j.field_u64("files", l.files as u64);
        j.field_u64("bytes", l.bytes);
        j.close_obj();
    }
    j.close_arr();
}

/// The JSON keys of [`quantiles`], in order.
const QUANTILE_KEYS: [&str; 5] = ["mean", "p50", "p99", "p999", "max"];

/// `s`'s mean, p50, p99, p99.9 and max; none of them measured when `s`
/// holds no sample.
fn quantiles(s: &HistogramSummary) -> [Option<f64>; 5] {
    [s.mean_us, s.p50_us, s.p99_us, s.p999_us, s.max_us].map(|v| (s.count > 0).then_some(v))
}

/// Per-level sums over the trees' levels.
fn sum_levels(trees: &[TreeMetrics]) -> Vec<LevelStats> {
    let mut levels: Vec<LevelStats> = Vec::new();
    for l in trees.iter().flat_map(|tree| &tree.levels) {
        match levels.iter_mut().find(|sum| sum.level == l.level) {
            Some(sum) => {
                sum.files += l.files;
                sum.bytes += l.bytes;
            }
            None => levels.push(*l),
        }
    }
    levels.sort_by_key(|l| l.level);
    levels
}

impl MetricsReport {
    /// The one report builder, for every handle: the tickers of `files`
    /// with every mirror refreshed (`block_cache` is the handle's cache,
    /// if it has one), the shape of `trees`, and everything no handle
    /// has measured left unmeasured — no latency samples, no windows, no
    /// optional section. A handle fills in what only it knows.
    pub(crate) fn build(
        files: &FileStore,
        block_cache: Option<&BlockCache>,
        trees: Vec<TreeMetrics>,
    ) -> MetricsReport {
        let tickers = files.refresh_mirrors(block_cache).snapshot();
        let bytes_to_storage = tickers.flush_bytes + tickers.compaction_bytes_written;
        MetricsReport {
            levels: sum_levels(&trees),
            write_amplification: (tickers.wal_bytes > 0)
                .then(|| bytes_to_storage as f64 / tickers.wal_bytes as f64),
            read_amplification: trees
                .iter()
                .map(TreeMetrics::read_amplification)
                .max()
                .unwrap_or(0),
            latencies: OP_TYPES.iter().map(|&op| (op, HistogramSummary::default())).collect(),
            tickers,
            windows: Vec::new(),
            shard_by: "hash",
            trees,
            replica: None,
            diagnostics: None,
        }
    }

    /// The stable JSON document (`shield_metrics_v1`).
    ///
    /// Key order is fixed: `schema`, `levels`, `total_files`,
    /// `total_bytes`, `write_amplification`, `read_amplification`,
    /// `latencies_us` (one object per op with `count`/`mean`/`p50`/
    /// `p99`/`p999`/`max`), `tickers`, `gauges`, `windows` — then the
    /// optional sections, each only when present: `shards` for a
    /// database of more than one tree (`shard_by` plus one
    /// `levels`/`flushes`/`compactions` object per tree), `replica` for a
    /// read replica (`last_applied_seq`, `last_seen_seq`) and
    /// `diagnostics` for a debug bundle (`slow_ops`, `trace_spans`,
    /// `log_tail`). An unmeasured value — the write amplification of a
    /// store that wrote no WAL, the quantiles of an op with no samples —
    /// is `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", METRICS_SCHEMA);
        push_levels(&mut j, &self.levels);
        j.field_u64("total_files", self.levels.iter().map(|l| l.files as u64).sum());
        j.field_u64("total_bytes", self.levels.iter().map(|l| l.bytes).sum());
        j.field_opt_f64("write_amplification", self.write_amplification);
        j.field_u64("read_amplification", self.read_amplification);
        j.open_obj("latencies_us");
        for (op, s) in &self.latencies {
            j.open_obj(op);
            j.field_u64("count", s.count);
            for (key, v) in QUANTILE_KEYS.into_iter().zip(quantiles(s)) {
                j.field_opt_f64(key, v);
            }
            j.close_obj();
        }
        j.close_obj();
        j.open_obj("tickers");
        for (name, value) in self.tickers.counters() {
            j.field_u64(name, value);
        }
        j.close_obj();
        j.open_obj("gauges");
        for (name, value) in self.tickers.gauges() {
            j.field_u64(name, value);
        }
        j.close_obj();
        j.open_arr("windows");
        for w in &self.windows {
            w.push_json(&mut j);
        }
        j.close_arr();
        if self.trees.len() > 1 {
            j.open_obj("shards");
            j.field_str("shard_by", self.shard_by);
            j.open_arr("trees");
            for tree in &self.trees {
                j.open_obj_item();
                push_levels(&mut j, &tree.levels);
                j.field_u64("flushes", tree.flushes);
                j.field_u64("compactions", tree.compactions);
                j.close_obj();
            }
            j.close_arr();
            j.close_obj();
        }
        if let Some(replica) = &self.replica {
            j.open_obj("replica");
            j.field_u64("last_applied_seq", replica.last_applied_seq);
            j.field_u64("last_seen_seq", replica.last_seen_seq);
            j.close_obj();
        }
        if let Some(d) = &self.diagnostics {
            j.open_obj("diagnostics");
            j.open_arr("slow_ops");
            for s in &d.slow_ops {
                s.push_json(&mut j);
            }
            j.close_arr();
            j.open_arr("trace_spans");
            for s in &d.trace_spans {
                s.push_json(&mut j);
            }
            j.close_arr();
            j.field_str("log_tail", &d.log_tail);
            j.close_obj();
        }
        j.close_obj();
        j.finish()
    }

    /// A human-readable table of the sections every handle shares (the
    /// optional ones are JSON only); `-` marks an unmeasured value.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== levels ==");
        let _ = writeln!(out, "{:<8}{:>8}{:>14}", "level", "files", "bytes");
        for l in &self.levels {
            let _ = writeln!(out, "L{:<7}{:>8}{:>14}", l.level, l.files, l.bytes);
        }
        let _ = writeln!(
            out,
            "{:<8}{:>8}{:>14}",
            "total",
            self.levels.iter().map(|l| l.files).sum::<usize>(),
            self.levels.iter().map(|l| l.bytes).sum::<u64>()
        );
        let write_amp =
            self.write_amplification.map_or_else(|| "-".to_string(), |w| format!("{w:.2}"));
        let _ = writeln!(out, "write_amp {write_amp}   read_amp {}", self.read_amplification);
        let _ = writeln!(out, "\n== latencies (us) ==");
        let _ = writeln!(
            out,
            "{:<12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
            "op", "count", "mean", "p50", "p99", "p99.9", "max"
        );
        for (op, s) in &self.latencies {
            let _ = write!(out, "{op:<12}{:>10}", s.count);
            for v in quantiles(s) {
                let cell = v.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
                let _ = write!(out, "{cell:>10}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "\n== tickers ==");
        for (name, value) in self.tickers.counters() {
            let _ = writeln!(out, "{name:<26}{value:>14}");
        }
        let _ = writeln!(out, "\n== gauges ==");
        for (name, value) in self.tickers.gauges() {
            let _ = writeln!(out, "{name:<26}{value:>14}");
        }
        if !self.windows.is_empty() {
            let _ = writeln!(out, "\n== windows ==");
            for w in &self.windows {
                let _ = write!(out, "#{:<5}{:>9}us", w.seq, w.duration_micros);
                for (name, rate) in &w.rates {
                    let _ = write!(out, "  {name} {rate:.2}");
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

impl DbInner {
    pub(super) fn metrics_report(&self) -> MetricsReport {
        let trees = self
            .trees
            .iter()
            .map(|tree| {
                let version = tree.state.lock().versions.current();
                let flushes = tree.flushes.load(Ordering::Relaxed);
                TreeMetrics::of(&version, flushes, tree.compactions.load(Ordering::Relaxed))
            })
            .collect();
        MetricsReport {
            latencies: self.op_hists.summaries(),
            windows: self.window.lock().recent(),
            shard_by: self.router.shard_by(),
            ..MetricsReport::build(&self.files, self.block_cache.as_deref(), trees)
        }
    }

    /// Watchdog + windowed-stats ticker loop. The tick is the finer of
    /// the stats period and half the watchdog deadline, so a pinned op
    /// is flagged within ~1.5x its deadline.
    pub(super) fn ticker_loop(&self) {
        let stats_period = self.opts.stats_dump_period;
        let deadline = self.opts.watchdog_deadline.filter(|_| self.opts.trace_ops);
        let min_tick = std::time::Duration::from_millis(1);
        let tick = match (stats_period, deadline) {
            (Some(p), Some(d)) => p.min(d / 2).max(min_tick),
            (Some(p), None) => p.max(min_tick),
            (None, Some(d)) => (d / 2).max(min_tick),
            (None, None) => return,
        };
        let mut next_stats = stats_period.map(|p| std::time::Instant::now() + p);
        loop {
            {
                let mut g = self.ticker_mu.lock();
                if self.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                self.ticker_cv.wait_for(&mut g, tick);
            }
            if self.shutting_down.load(Ordering::Acquire) {
                return;
            }
            if let Some(d) = deadline {
                self.check_watchdog(d);
            }
            if let (Some(p), Some(at)) = (stats_period, next_stats.as_mut()) {
                if std::time::Instant::now() >= *at {
                    *at = std::time::Instant::now() + p;
                    self.roll_stats_window();
                }
            }
        }
    }

    /// Flags traced ops pinned past `deadline` — once each, with their
    /// live span stack.
    fn check_watchdog(&self, deadline: std::time::Duration) {
        let deadline_nanos = deadline.as_nanos() as u64;
        for op in self.tracer.active_ops() {
            if op.elapsed_nanos() >= deadline_nanos && op.flag_watchdog() {
                self.files.events.emit(&Event::Watchdog {
                    op: op.op(),
                    trace_id: op.trace_id(),
                    elapsed_micros: op.elapsed_nanos() / 1_000,
                    deadline_micros: deadline.as_micros() as u64,
                    stack: op.live_stack().join(" > "),
                });
            }
        }
    }

    /// Rolls one windowed-stats interval: refresh mirrors, diff the
    /// cumulative counters, derive interval rates, log, and store.
    fn roll_stats_window(&self) {
        let snap = self.files.refresh_mirrors(self.block_cache.as_deref()).snapshot();
        let sample = WindowSample {
            at: std::time::Instant::now(),
            unix_micros: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            counters: snap.counters(),
        };
        let Some(mut w) = self.window.lock().diff(sample) else { return };
        let secs = (w.duration_micros as f64 / 1e6).max(1e-9);
        let writes_per_sec = w.delta("writes").unwrap_or(0) as f64 / secs;
        // `gets` already counts every key of a `multi_get`.
        let reads_per_sec = w.delta("gets").unwrap_or(0) as f64 / secs;
        let hits = w.delta("block_cache_hits").unwrap_or(0);
        let lookups = hits + w.delta("block_cache_misses").unwrap_or(0);
        let cache_hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        let stall_fraction = (w.delta("stall_micros").unwrap_or(0) as f64
            / w.duration_micros.max(1) as f64)
            .min(1.0);
        w.rates.push(("writes_per_sec", writes_per_sec));
        w.rates.push(("reads_per_sec", reads_per_sec));
        w.rates.push(("cache_hit_ratio", cache_hit_ratio));
        w.rates.push(("stall_fraction", stall_fraction));
        self.files.events.emit(&Event::StatsWindow {
            seq: w.seq,
            duration_micros: w.duration_micros,
            writes_per_sec,
            reads_per_sec,
            cache_hit_ratio,
            stall_fraction,
        });
        self.window.lock().store(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        let hists = OpHistograms::default();
        hists.get.record(1_000);
        hists.get.record(2_000);
        hists.put.record(5_000);
        MetricsReport {
            levels: vec![
                LevelStats { level: 0, files: 2, bytes: 4096 },
                LevelStats { level: 1, files: 1, bytes: 8192 },
            ],
            write_amplification: Some(1.5),
            read_amplification: 3,
            latencies: hists.summaries(),
            tickers: StatsSnapshot::default(),
            windows: Vec::new(),
            shard_by: "hash",
            trees: Vec::new(),
            replica: None,
            diagnostics: None,
        }
    }

    #[test]
    fn json_has_stable_keys() {
        let json = sample().to_json();
        for key in [
            "\"schema\":\"shield_metrics_v1\"",
            "\"levels\":[",
            "\"total_files\":3",
            "\"total_bytes\":12288",
            "\"write_amplification\":1.500",
            "\"read_amplification\":3",
            "\"latencies_us\":{",
            "\"get\":{\"count\":2",
            "\"p999\"",
            "\"tickers\":{",
            "\"gauges\":{",
            "\"windows\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Every op type appears even with zero samples.
        for op in OP_TYPES {
            assert!(json.contains(&format!("\"{op}\":{{")), "missing op {op}");
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        for section in ["== levels ==", "== latencies (us) ==", "== tickers ==", "== gauges =="] {
            assert!(text.contains(section), "missing {section}");
        }
        assert!(text.contains("write_amp 1.50"));
        assert!(text.contains("L0"));
    }

    /// An op with no samples and a store that wrote no WAL measured
    /// nothing: `null` in the document, `-` in the table, never `0`.
    #[test]
    fn unmeasured_values_are_null_not_zero() {
        let report = MetricsReport { write_amplification: None, ..sample() };
        let doc = shield_core::json::parse(&report.to_json()).expect("parse");
        assert_eq!(doc.get("write_amplification"), Some(&shield_core::JsonValue::Null));
        let lats = doc.get("latencies_us").expect("latencies_us");
        let multi_get = lats.get("multi_get").expect("multi_get");
        assert_eq!(multi_get.get("count").and_then(shield_core::JsonValue::as_f64), Some(0.0));
        for key in ["mean", "p50", "p99", "p999", "max"] {
            assert_eq!(multi_get.get(key), Some(&shield_core::JsonValue::Null), "multi_get.{key}");
        }
        let get = lats.get("get").expect("get");
        assert!(get.get("p50").and_then(shield_core::JsonValue::as_f64).is_some_and(|p| p > 0.0));

        let text = report.render();
        assert!(text.contains("write_amp -"), "{text}");
        let row = text.lines().find(|l| l.starts_with("multi_get")).expect("multi_get row");
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            ["multi_get", "0", "-", "-", "-", "-", "-"]
        );
    }

    /// Levels sum per level over the trees; read amplification is the
    /// worst tree's.
    #[test]
    fn trees_sum_into_the_front() {
        let tree = |levels: Vec<LevelStats>| TreeMetrics { levels, flushes: 1, compactions: 0 };
        let trees = vec![
            tree(vec![
                LevelStats { level: 0, files: 3, bytes: 30 },
                LevelStats { level: 2, files: 1, bytes: 10 },
            ]),
            tree(vec![
                LevelStats { level: 0, files: 0, bytes: 0 },
                LevelStats { level: 1, files: 2, bytes: 20 },
                LevelStats { level: 2, files: 1, bytes: 5 },
            ]),
        ];
        let summed: Vec<(usize, usize, u64)> =
            sum_levels(&trees).iter().map(|l| (l.level, l.files, l.bytes)).collect();
        assert_eq!(summed, [(0, 3, 30), (1, 2, 20), (2, 2, 15)]);
        let worst = trees.iter().map(TreeMetrics::read_amplification).max();
        assert_eq!(worst, Some(4), "3 L0 files + one L2 table");
    }
}
