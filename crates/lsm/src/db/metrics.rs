//! The metrics report pipeline: per-operation latency histograms, the
//! [`MetricsReport`] produced by [`crate::Db::metrics_report`], and the
//! ticker thread behind windowed stats and the stall watchdog.
//!
//! The report is the engine's attribution story in one artifact: per-level
//! shape (files/bytes, read/write amplification), per-op latency quantiles
//! from the in-engine [`AtomicHistogram`]s, and every ticker — rendered
//! both as a human-readable table ([`MetricsReport::render`]) and as the
//! stable JSON schema `shield_metrics_v1` ([`MetricsReport::to_json`])
//! that the bench driver writes as a sidecar next to every experiment.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use shield_core::{
    AtomicHistogram, Event, HistogramSummary, JsonBuilder, MetricsWindow, WindowSample,
};

use crate::db::db::DbInner;
use crate::db::tree::Tree;
use crate::statistics::StatsSnapshot;

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

/// Everything [`crate::Db::metrics_report`] knows, in one report.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Non-empty levels (level 0 always included), summed over the trees.
    pub levels: Vec<LevelStats>,
    /// Total bytes written to storage (flush + compaction output) per byte
    /// of user write (WAL bytes).
    pub write_amplification: f64,
    /// Worst-case tables consulted by a point lookup — every L0 file plus
    /// one per non-empty deeper level — in the worst tree (a lookup
    /// touches exactly one).
    pub read_amplification: u64,
    /// Per-op latency summaries, in [`OP_TYPES`] order.
    pub latencies: Vec<(&'static str, HistogramSummary)>,
    /// All tickers at report time (gauges already refreshed).
    pub tickers: StatsSnapshot,
    /// Recent windowed-stats intervals (`shield_metrics_window_v1`
    /// objects), oldest first. Empty unless `stats_dump_period` is set.
    pub windows: Vec<MetricsWindow>,
    /// How keys route to trees: `"hash"` or `"range"`.
    pub shard_by: &'static str,
    /// Per-tree shape and background work, in tree order.
    pub trees: Vec<TreeMetrics>,
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

impl MetricsReport {
    /// The stable JSON document (`shield_metrics_v1`).
    ///
    /// Key order is fixed: `schema`, `levels`, `total_files`,
    /// `total_bytes`, `write_amplification`, `read_amplification`,
    /// `latencies_us` (one object per op with `count`/`mean`/`p50`/
    /// `p99`/`p999`/`max`), `tickers`, `gauges`, `windows` — and, for a
    /// database of more than one tree, `shards` (`shard_by` plus one
    /// `levels`/`flushes`/`compactions` object per tree).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", METRICS_SCHEMA);
        push_levels(&mut j, &self.levels);
        j.field_u64("total_files", self.levels.iter().map(|l| l.files as u64).sum());
        j.field_u64("total_bytes", self.levels.iter().map(|l| l.bytes).sum());
        j.field_f64("write_amplification", self.write_amplification);
        j.field_u64("read_amplification", self.read_amplification);
        j.open_obj("latencies_us");
        for (op, s) in &self.latencies {
            j.open_obj(op);
            j.field_u64("count", s.count);
            j.field_f64("mean", s.mean_us);
            j.field_f64("p50", s.p50_us);
            j.field_f64("p99", s.p99_us);
            j.field_f64("p999", s.p999_us);
            j.field_f64("max", s.max_us);
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
        j.close_obj();
        j.finish()
    }

    /// A human-readable table of the same data.
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
        let _ = writeln!(
            out,
            "write_amp {:.2}   read_amp {}",
            self.write_amplification, self.read_amplification
        );
        let _ = writeln!(out, "\n== latencies (us) ==");
        let _ = writeln!(
            out,
            "{:<12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
            "op", "count", "mean", "p50", "p99", "p99.9", "max"
        );
        for (op, s) in &self.latencies {
            let _ = writeln!(
                out,
                "{:<12}{:>10}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>10.1}",
                op, s.count, s.mean_us, s.p50_us, s.p99_us, s.p999_us, s.max_us
            );
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

/// Drops the empty levels above 0 from a `(files, bytes)`-per-level list.
fn level_stats(per_level: &[(usize, u64)]) -> Vec<LevelStats> {
    per_level
        .iter()
        .enumerate()
        .filter(|(l, (files, _))| *l == 0 || *files > 0)
        .map(|(l, &(files, bytes))| LevelStats { level: l, files, bytes })
        .collect()
}

/// Per-level sums over every tree's `(files, bytes)`-per-level list.
fn sum_levels(per_tree: &[Vec<(usize, u64)>]) -> Vec<(usize, u64)> {
    let depth = per_tree.iter().map(Vec::len).max().unwrap_or(0);
    (0..depth)
        .map(|level| {
            per_tree
                .iter()
                .filter_map(|levels| levels.get(level))
                .fold((0, 0), |sum, level| (sum.0 + level.0, sum.1 + level.1))
        })
        .collect()
}

impl DbInner {
    /// `(files, bytes)` per level, summed over the trees.
    pub(super) fn level_summary(&self) -> Vec<(usize, u64)> {
        sum_levels(&self.trees.iter().map(Tree::level_summary).collect::<Vec<_>>())
    }

    pub(super) fn metrics_report(&self) -> MetricsReport {
        self.refresh_stat_mirrors();
        let snap = self.files.stats.snapshot();
        let per_tree: Vec<Vec<(usize, u64)>> = self.trees.iter().map(Tree::level_summary).collect();
        // Worst-case tables a point lookup consults in one tree: every L0
        // file plus one per non-empty deeper level.
        let read_amplification = |levels: &Vec<(usize, u64)>| {
            levels.first().map_or(0, |&(files, _)| files as u64)
                + levels.iter().skip(1).filter(|&&(files, _)| files > 0).count() as u64
        };
        let bytes_to_storage = snap.flush_bytes + snap.compaction_bytes_written;
        MetricsReport {
            levels: level_stats(&sum_levels(&per_tree)),
            write_amplification: bytes_to_storage as f64 / (snap.wal_bytes.max(1)) as f64,
            read_amplification: per_tree.iter().map(read_amplification).max().unwrap_or(0),
            latencies: self.op_hists.summaries(),
            tickers: snap,
            windows: self.window.lock().recent(),
            shard_by: self.router.shard_by(),
            trees: self
                .trees
                .iter()
                .zip(&per_tree)
                .map(|(tree, levels)| TreeMetrics {
                    levels: level_stats(levels),
                    flushes: tree.flushes.load(Ordering::Relaxed),
                    compactions: tree.compactions.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Refreshes ticker mirrors (env faults, block-cache totals, the DEK
    /// resolver's retry/failover/degraded counts, gauges) from their live
    /// sources.
    pub(super) fn refresh_stat_mirrors(&self) {
        if let Some(faults) = self.files.env.fault_stats() {
            self.files.stats
                .env_faults_injected
                .store(faults.injected_total(), Ordering::Relaxed);
        }
        if let Some(cache) = &self.block_cache {
            let c = cache.stats();
            let s = &self.files.stats;
            s.block_cache_hits.store(c.hits(), Ordering::Relaxed);
            s.block_cache_misses.store(c.misses(), Ordering::Relaxed);
            s.block_cache_data_hits.store(c.data_hits, Ordering::Relaxed);
            s.block_cache_data_misses.store(c.data_misses, Ordering::Relaxed);
            s.block_cache_index_hits.store(c.index_hits, Ordering::Relaxed);
            s.block_cache_index_misses.store(c.index_misses, Ordering::Relaxed);
            s.block_cache_filter_hits.store(c.filter_hits, Ordering::Relaxed);
            s.block_cache_filter_misses.store(c.filter_misses, Ordering::Relaxed);
            s.block_cache_singleflight_waits.store(c.singleflight_waits, Ordering::Relaxed);
            s.block_cache_oversized_bypass.store(c.oversized_bypass, Ordering::Relaxed);
            s.block_cache_pinned_bytes.store(c.pinned_bytes, Ordering::Relaxed);
            s.readahead_issued.store(c.readahead_issued, Ordering::Relaxed);
            s.readahead_useful.store(c.readahead_useful, Ordering::Relaxed);
        }
        if let Some(encryption) = &self.files.encryption {
            let r = encryption.resolver.stats();
            let s = &self.files.stats;
            s.resolver_retries.store(r.retries, Ordering::Relaxed);
            s.resolver_failovers.store(r.failovers, Ordering::Relaxed);
            s.resolver_degraded_hits.store(r.degraded_hits, Ordering::Relaxed);
        }
        self.files.stats
            .env_inflight_reads
            .store(shield_env::inflight_reads_peak(), Ordering::Relaxed);
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
        self.refresh_stat_mirrors();
        let snap = self.files.stats.snapshot();
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
            write_amplification: 1.5,
            read_amplification: 3,
            latencies: hists.summaries(),
            tickers: StatsSnapshot::default(),
            windows: Vec::new(),
            shard_by: "hash",
            trees: Vec::new(),
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
}
