//! Result tables: aligned console rendering plus CSV export, one file per
//! experiment, mirroring the paper's tables/figures — plus the engine
//! metrics sidecar every experiment run carries.

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

fn sidecar_queue() -> &'static Mutex<Vec<String>> {
    static SIDECAR: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    SIDECAR.get_or_init(|| Mutex::new(Vec::new()))
}

/// Queues one engine metrics report (a `shield_metrics_v1` JSON document,
/// from `Db::metrics_report().to_json()`) for the running experiment's
/// sidecar. The driver calls this after every workload run.
pub fn record_metrics_json(json: String) {
    if let Ok(mut q) = sidecar_queue().lock() {
        q.push(json);
    }
}

/// Drains every queued metrics report, in run order.
pub fn drain_metrics_json() -> Vec<String> {
    sidecar_queue().lock().map(|mut q| std::mem::take(&mut *q)).unwrap_or_default()
}

/// Writes `<dir>/<id>.metrics.json` — a JSON array of all engine metrics
/// reports queued since the last drain — and returns its path, or `None`
/// when nothing was queued (e.g. an experiment that never ran a workload).
pub fn save_metrics_sidecar(dir: &str, id: &str) -> std::io::Result<Option<String>> {
    let reports = drain_metrics_json();
    if reports.is_empty() {
        return Ok(None);
    }
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{id}.metrics.json");
    std::fs::write(&path, format!("[{}]\n", reports.join(",")))?;
    Ok(Some(path))
}

/// A result table for one experiment.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "fig7" or "table2".
    pub id: String,
    /// Human title, e.g. the figure caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Renders an aligned console table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} — {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// CSV serialization.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Writes `<dir>/<id>.csv` (creating the directory) under a
    /// `# commit / nproc / scale` line saying what produced it, and
    /// returns the path.
    pub fn save_csv(&self, dir: &str, scale: f64) -> std::io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{}.csv", self.id);
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let commit = crate::harness::commit();
        let stamp = format!("# commit={commit} nproc={nproc} scale={scale}\n");
        std::fs::write(&path, stamp + &self.to_csv())?;
        Ok(path)
    }
}

/// Formats a throughput.
#[must_use]
pub fn fmt_ops(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if v >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

/// Formats the overhead of `x` against `base` as the paper does
/// ("-32.8%" means x is 32.8% slower than base).
#[must_use]
pub fn fmt_overhead(base: f64, x: f64) -> String {
    if base <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (x - base) / base * 100.0)
}

/// Formats bytes as GiB with three decimals.
#[must_use]
pub fn fmt_gib(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / (1u64 << 30) as f64)
}

/// Formats bytes as MiB with two decimals.
#[must_use]
pub fn fmt_mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_csv() {
        let mut t = Table::new("fig0", "demo", &["system", "ops/s"]);
        t.push_row(vec!["RocksDB".into(), "100k".into()]);
        t.push_row(vec!["SHIELD".into(), "90k".into()]);
        let rendered = t.render();
        assert!(rendered.contains("fig0"));
        assert!(rendered.contains("RocksDB"));
        let csv = t.to_csv();
        assert!(csv.starts_with("system,ops/s\n"));
        assert!(csv.contains("SHIELD,90k"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", "t", &["a"]);
        t.push_row(vec!["v1,v2".into()]);
        assert!(t.to_csv().contains("\"v1,v2\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ops(1234.0), "1.2k");
        assert_eq!(fmt_ops(2_500_000.0), "2.50M");
        assert_eq!(fmt_ops(10.0), "10");
        assert_eq!(fmt_overhead(100.0, 68.0), "-32.0%");
        assert_eq!(fmt_overhead(0.0, 5.0), "n/a");
        assert_eq!(fmt_gib(1 << 30), "1.000");
        assert_eq!(fmt_mib(1 << 20), "1.00");
    }
}
