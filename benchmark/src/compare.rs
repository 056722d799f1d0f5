//! `compare a.json b.json`: applies the bounds of `BENCHMARK.json` to two
//! result files, per workload × end-to-end metric.
//!
//! Each side's value is the median over its untraced runs of that workload.
//! With four or more runs on a side the spread (distance between the
//! quartiles as a share of the median) is known; a metric whose spread is
//! wider than its bound is reported as unresolved, not as unchanged. A
//! workload or metric that one side lacks, and a run that failed an op or
//! produced a wrong output, fail the comparison like a regression does.

use shield_core::JsonValue;

use crate::spec::{Better, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    Unresolved,
    /// The workload or metric is missing or null on a side: a failure.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Option<f64>,
    pub new: Option<f64>,
    /// `new` against `base` as a share of `base`; positive is worse.
    pub worse_by: Option<f64>,
    /// The wider of the two sides' spreads, when known.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so spreads here match the driver's.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn runs(doc: &JsonValue) -> &[JsonValue] {
    doc.get("runs").and_then(JsonValue::as_arr).unwrap_or(&[])
}

fn workload_of(run: &JsonValue) -> Option<&str> {
    run.get("workload").and_then(JsonValue::as_str)
}

/// End-to-end metrics come from untraced runs only.
fn untraced(run: &JsonValue) -> bool {
    run.get("traced") != Some(&JsonValue::Bool(true))
}

/// Values of one end-to-end metric over the untraced runs of `workload` in a
/// result document.
fn values(doc: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    runs(doc)
        .iter()
        .filter(|run| untraced(run) && workload_of(run) == Some(workload))
        .filter_map(|run| run.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Workloads with an untraced run in either document, in order of first
/// appearance.
fn workloads(docs: [&JsonValue; 2]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in docs
        .iter()
        .flat_map(|doc| runs(doc))
        .filter(|r| untraced(r))
    {
        if let Some(name) = workload_of(run) {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// Runs (traced ones too) that failed an op or produced a wrong output.
fn bad_runs(side: &str, doc: &JsonValue) -> Vec<String> {
    runs(doc)
        .iter()
        .filter(|run| {
            run.get("correct") == Some(&JsonValue::Bool(false))
                || run
                    .get("failed")
                    .and_then(JsonValue::as_f64)
                    .is_some_and(|f| f > 0.0)
        })
        .map(|run| {
            format!(
                "{side}: {} seed {} failed {} of {} ops, correct={}",
                workload_of(run).unwrap_or("?"),
                run.get("seed").and_then(JsonValue::as_f64).unwrap_or(-1.0),
                run.get("failed").and_then(JsonValue::as_f64).unwrap_or(0.0),
                run.get("attempted")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                run.get("correct") != Some(&JsonValue::Bool(false)),
            )
        })
        .collect()
}

/// The outcome of comparing two result files.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Runs on either side that failed an op or produced a wrong output.
    pub bad_runs: Vec<String>,
}

impl Comparison {
    fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    /// Nothing regressed, nothing is missing and every run was correct.
    pub fn passed(&self) -> bool {
        self.count(Verdict::Regressed) == 0
            && self.count(Verdict::Missing) == 0
            && self.bad_runs.is_empty()
    }
}

/// Compares `new` against `base`. Refuses two files whose runs measured for
/// different lengths of time: their values are not comparable.
pub fn compare(base: &JsonValue, new: &JsonValue) -> Result<Comparison, String> {
    let seconds = |doc: &JsonValue| doc.get("stamp")?.get("seconds")?.as_f64();
    if seconds(base) != seconds(new) {
        let show = |s: Option<f64>| s.map_or("unstamped".to_string(), |s| s.to_string());
        return Err(format!(
            "the files were measured with different --seconds ({} against {})",
            show(seconds(base)),
            show(seconds(new))
        ));
    }
    let mut rows = Vec::new();
    for workload in workloads([base, new]) {
        for metric in END_TO_END {
            let (a, b) = (
                values(base, &workload, metric.name),
                values(new, &workload, metric.name),
            );
            let (base_mid, new_mid) = (median(&a), median(&b));
            let worse_by = base_mid.zip(new_mid).and_then(|(base, new)| {
                let delta = match metric.better {
                    Better::Lower => new - base,
                    Better::Higher => base - new,
                };
                (base != 0.0).then(|| delta / base.abs())
            });
            let known = |v: &[f64]| if v.len() >= 4 { spread(v) } else { None };
            let widest = match (known(&a), known(&b)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = match worse_by {
                None => Verdict::Missing,
                Some(w) if w > metric.bound => Verdict::Regressed,
                Some(_) if widest.is_some_and(|s| s > metric.bound) => Verdict::Unresolved,
                Some(_) => Verdict::Pass,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name,
                base: base_mid,
                new: new_mid,
                worse_by,
                spread: widest,
                bound: metric.bound,
                verdict,
            });
        }
    }
    let mut bad = bad_runs("base", base);
    bad.extend(bad_runs("new", new));
    Ok(Comparison {
        rows,
        bad_runs: bad,
    })
}

/// Prints the table; returns [`Comparison::passed`].
pub fn report(outcome: &Comparison) -> bool {
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    let pct = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{:+.1}%", v * 100.0));
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "worse by", "spread", "bound"
    );
    for r in &outcome.rows {
        println!(
            "{:<22} {:<14} {:>14} {:>14} {:>9} {:>8} {:>5.0}%  {}",
            r.workload,
            r.metric,
            fmt(r.base),
            fmt(r.new),
            pct(r.worse_by),
            pct(r.spread).trim_start_matches('+'),
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    for bad in &outcome.bad_runs {
        println!("incorrect run: {bad}");
    }
    println!(
        "{} pass, {} regressed, {} unresolved, {} missing, {} incorrect runs",
        outcome.count(Verdict::Pass),
        outcome.count(Verdict::Regressed),
        outcome.count(Verdict::Unresolved),
        outcome.count(Verdict::Missing),
        outcome.bad_runs.len()
    );
    outcome.passed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, obj, s};

    /// One run of `workload`: every end-to-end metric reads 1, except `ops_s`
    /// and `p50_us`.
    fn run(workload: &str, ops_s: f64, p50_us: f64) -> Vec<(&'static str, JsonValue)> {
        let metric = |v: f64| obj(vec![("value", num(v))]);
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "ops_s" => ops_s,
                    "p50_us" => p50_us,
                    _ => 1.0,
                };
                (m.name, metric(value))
            })
            .collect();
        vec![
            ("workload", s(workload)),
            ("traced", JsonValue::Bool(false)),
            ("correct", JsonValue::Bool(true)),
            ("attempted", num(1000.0)),
            ("failed", num(0.0)),
            ("end_to_end", obj(e2e)),
        ]
    }

    fn file(seconds: f64, runs: Vec<Vec<(&'static str, JsonValue)>>) -> JsonValue {
        obj(vec![
            ("stamp", obj(vec![("seconds", num(seconds))])),
            ("runs", JsonValue::Arr(runs.into_iter().map(obj).collect())),
        ])
    }

    /// A result file with one run of `fill` per value.
    fn doc(ops_s: &[f64], p50_us: &[f64]) -> JsonValue {
        file(
            15.0,
            ops_s
                .iter()
                .zip(p50_us)
                .map(|(&o, &p)| run("fill", o, p))
                .collect(),
        )
    }

    fn verdict(outcome: &Comparison, workload: &str, metric: &str) -> Verdict {
        outcome
            .rows
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .expect("metric row")
            .verdict
    }

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn passes_regressions_and_unresolved_spreads_are_told_apart() {
        let base = doc(&STEADY, &STEADY);
        // Throughput down 40 %, latency unchanged.
        let slower = doc(&[60.0, 61.0, 59.0, 60.5, 59.5], &STEADY);
        let outcome = compare(&base, &slower).unwrap();
        assert_eq!(verdict(&outcome, "fill", "ops_s"), Verdict::Regressed);
        assert_eq!(verdict(&outcome, "fill", "p50_us"), Verdict::Pass);
        assert!(!report(&outcome));
        // Higher throughput is not a regression, whatever its size.
        let faster = doc(&[150.0, 151.0, 149.0, 150.5, 149.5], &STEADY);
        let outcome = compare(&base, &faster).unwrap();
        assert_eq!(verdict(&outcome, "fill", "ops_s"), Verdict::Pass);
        assert!(report(&outcome));
        // Same median, but a spread far wider than the bound: unresolved.
        let noisy = doc(&STEADY, &[60.0, 140.0, 100.0, 70.0, 130.0]);
        let outcome = compare(&base, &noisy).unwrap();
        assert_eq!(verdict(&outcome, "fill", "p50_us"), Verdict::Unresolved);
        assert!(report(&outcome), "unresolved is not a regression");
        // A single run per side has no spread: pass or regressed only.
        let outcome = compare(&doc(&[100.0], &[10.0]), &doc(&[95.0], &[10.5])).unwrap();
        assert_eq!(verdict(&outcome, "fill", "ops_s"), Verdict::Pass);
    }

    #[test]
    fn missing_data_and_incorrect_runs_fail_the_comparison() {
        let both = |ops: f64| file(15.0, vec![run("fill", ops, 1.0), run("mixgraph", ops, 1.0)]);
        let only_fill = file(15.0, vec![run("fill", 100.0, 1.0)]);
        // A workload the new side lacks (a crashed child, say) ...
        let outcome = compare(&both(100.0), &only_fill).unwrap();
        assert_eq!(verdict(&outcome, "mixgraph", "ops_s"), Verdict::Missing);
        assert_eq!(verdict(&outcome, "fill", "ops_s"), Verdict::Pass);
        assert!(!report(&outcome));
        // ... or one only the new side has ...
        let outcome = compare(&only_fill, &both(100.0)).unwrap();
        assert_eq!(verdict(&outcome, "mixgraph", "ops_s"), Verdict::Missing);
        assert!(!outcome.passed());
        // ... or a metric that is null on the new side.
        let mut nulled = run("fill", 100.0, 1.0);
        nulled.retain(|(k, _)| *k != "end_to_end");
        nulled.push((
            "end_to_end",
            obj(vec![("ops_s", obj(vec![("value", JsonValue::Null)]))]),
        ));
        let outcome = compare(&only_fill, &file(15.0, vec![nulled])).unwrap();
        assert_eq!(verdict(&outcome, "fill", "ops_s"), Verdict::Missing);
        assert!(!outcome.passed());

        // A run that failed ops fails the comparison although every metric
        // passes.
        let mut failed = run("fill", 100.0, 1.0);
        failed.retain(|(k, _)| *k != "failed" && *k != "correct");
        failed.push(("failed", num(3.0)));
        failed.push(("correct", JsonValue::Bool(false)));
        let outcome = compare(&only_fill, &file(15.0, vec![failed])).unwrap();
        assert_eq!(outcome.bad_runs.len(), 1);
        assert!(outcome.rows.iter().all(|r| r.verdict == Verdict::Pass));
        assert!(!report(&outcome));
    }

    #[test]
    fn traced_runs_are_skipped_and_different_lengths_refused() {
        // A traced run's end-to-end values (tracing costs throughput) must
        // not enter the medians.
        let mut traced = run("fill", 10.0, 1.0);
        traced.retain(|(k, _)| *k != "traced");
        traced.push(("traced", JsonValue::Bool(true)));
        let with_traced = file(15.0, vec![run("fill", 100.0, 1.0), traced]);
        let outcome = compare(&doc(&[100.0], &[1.0]), &with_traced).unwrap();
        assert_eq!(verdict(&outcome, "fill", "ops_s"), Verdict::Pass);
        assert!(outcome.passed());

        let short = file(5.0, vec![run("fill", 100.0, 1.0)]);
        assert!(compare(&doc(&[100.0], &[1.0]), &short).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
