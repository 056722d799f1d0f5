//! The metrics report pipeline: per-operation latency histograms and the
//! [`MetricsReport`] produced by [`crate::Db::metrics_report`].
//!
//! The report is the engine's attribution story in one artifact: per-level
//! shape (files/bytes, read/write amplification), per-op latency quantiles
//! from the in-engine [`AtomicHistogram`]s, and every ticker — rendered
//! both as a human-readable table ([`MetricsReport::render`]) and as the
//! stable JSON schema `shield_metrics_v1` ([`MetricsReport::to_json`])
//! that the bench driver writes as a sidecar next to every experiment.

use std::fmt::Write as _;

use shield_core::{AtomicHistogram, HistogramSummary, JsonBuilder, MetricsWindow};

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

/// Everything [`crate::Db::metrics_report`] knows, in one report.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Non-empty levels (level 0 always included).
    pub levels: Vec<LevelStats>,
    /// Total bytes written to storage (flush + compaction output) per byte
    /// of user write (WAL bytes).
    pub write_amplification: f64,
    /// Worst-case tables consulted by a point lookup: every L0 file plus
    /// one per non-empty deeper level.
    pub read_amplification: u64,
    /// Per-op latency summaries, in [`OP_TYPES`] order.
    pub latencies: Vec<(&'static str, HistogramSummary)>,
    /// All tickers at report time (gauges already refreshed).
    pub tickers: StatsSnapshot,
    /// Recent windowed-stats intervals (`shield_metrics_window_v1`
    /// objects), oldest first. Empty unless `stats_dump_period` is set.
    pub windows: Vec<MetricsWindow>,
}

impl MetricsReport {
    /// The stable JSON document (`shield_metrics_v1`).
    ///
    /// Key order is fixed: `schema`, `levels`, `total_files`,
    /// `total_bytes`, `write_amplification`, `read_amplification`,
    /// `latencies_us` (one object per op with `count`/`mean`/`p50`/
    /// `p99`/`p999`/`max`), `tickers`, `gauges`, `windows`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut j = JsonBuilder::new();
        j.open_obj_item();
        j.field_str("schema", METRICS_SCHEMA);
        j.open_arr("levels");
        for l in &self.levels {
            j.open_obj_item();
            j.field_u64("level", l.level as u64);
            j.field_u64("files", l.files as u64);
            j.field_u64("bytes", l.bytes);
            j.close_obj();
        }
        j.close_arr();
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
