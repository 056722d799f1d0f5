//! The repo's benchmark: four workloads, end-to-end metrics with regression
//! bounds, and a per-layer cost ledger. See README.md in this directory.
//!
//! ```text
//! shield-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--trace-out FILE]
//! shield-benchmark run --all [--reverse] [--repeat N] [same options]
//! shield-benchmark micro
//! shield-benchmark list [--json]
//! shield-benchmark compare base.json new.json
//! ```

mod compare;
mod decor;
mod gen;
mod json;
mod metrics;
mod micro;
#[cfg(test)]
mod smoke;
mod spec;
mod sut;
mod sysinfo;
mod trace;
mod workload;

use std::process::ExitCode;

use shield_core::JsonValue;

use crate::json::{num, obj, opt, s};
use crate::metrics::TracePasses;
use crate::spec::{per_layer, END_TO_END, GROUPS, RUN_SECONDS};
use crate::sut::Mode;
use crate::workload::{RunConfig, RunOutput, WorkloadSpec, WORKLOADS};

const USAGE: &str = "usage: shield-benchmark <run|micro|list|compare> ...
  run --workload <name> | --all   [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
                                  [--trace-out FILE] [--dir DIR] [--reverse] [--repeat N]
  micro                           unit costs of single layers
  list [--json]                   workloads and metrics (--json: the content of BENCHMARK.json)
  compare base.json new.json      apply the bounds; exit 1 on a regression, missing data or a wrong output";

/// Parsed `run` options.
struct RunArgs {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
    dir: Option<String>,
    reverse: bool,
    repeat: usize,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        trace_out: None,
        dir: None,
        reverse: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--all" => parsed.all = true,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--trace-out" => parsed.trace_out = Some(value("--trace-out")?),
            "--dir" => parsed.dir = Some(value("--dir")?),
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--reverse" => parsed.reverse = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(parsed)
}

/// The facts every result file is stamped with.
fn stamp(args: &RunArgs, data_root: &str) -> JsonValue {
    obj(vec![
        ("commit", s(&sysinfo::commit())),
        ("nproc", num(sysinfo::nproc() as f64)),
        ("rustc", s(&sysinfo::rustc_version())),
        ("data_dir", s(data_root)),
        ("fs_type", s(&sysinfo::fs_type(data_root))),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("flush_policy", s(sut::FLUSH_POLICY)),
        (
            "substrate",
            s("sandbox VM; network and KDS latencies are simulated (RemoteEnv 500 us / 1 Gbps, LocalKds 2750 us generate / 500 us fetch); reads are served from the OS page cache"),
        ),
    ])
}

/// One workload's run as a JSON object of the result file.
fn run_json(
    out: &RunOutput,
    e2e: &std::collections::BTreeMap<&'static str, metrics::Measured>,
    layers: &std::collections::BTreeMap<&'static str, Option<f64>>,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> JsonValue {
    let paced = out.paced.as_ref();
    obj(vec![
        ("workload", s(out.spec.name)),
        ("seed", num(out.config.seed as f64)),
        ("seconds", num(out.config.seconds)),
        ("window_s", num(out.window_s())),
        ("traced", JsonValue::Bool(out.config.traced)),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "ops",
            obj(vec![
                ("keys", num(out.keys as f64)),
                ("gets", num(out.window.lat[0].len() as f64)),
                ("puts", num(out.window.lat[1].len() as f64)),
                ("scans", num(out.window.lat[2].len() as f64)),
                ("scan_keys", num(out.window.scan_keys as f64)),
                ("paced_puts", num(paced.map_or(0, |p| p.ops()) as f64)),
                ("probe_ops", num(out.probe.ops() as f64)),
                ("plaintext_bytes_scanned", num(out.plaintext_scanned as f64)),
            ]),
        ),
        (
            "end_to_end",
            // End-to-end metrics come from untraced runs only.
            if out.config.traced {
                JsonValue::Null
            } else {
                JsonValue::Obj(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            let got = &e2e[m.name];
                            (
                                m.name.to_string(),
                                obj(vec![
                                    ("value", opt(got.value)),
                                    ("unit", s(m.unit)),
                                    ("samples", num(got.samples as f64)),
                                    ("source", s(got.source)),
                                ]),
                            )
                        })
                        .collect(),
                )
            },
        ),
        (
            "per_layer",
            JsonValue::Obj(
                per_layer()
                    .map(|m| {
                        let value = layers.get(m.name).copied().flatten();
                        (
                            m.name.to_string(),
                            obj(vec![("value", opt(value)), ("unit", s(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs one workload in this process. Prints every metric as
/// `workload.metric value unit`, then the driver's result line. Returns the
/// run's JSON object and whether every output was correct.
fn run_one(
    spec: &WorkloadSpec,
    args: &RunArgs,
    data_root: &str,
) -> Result<(JsonValue, bool), String> {
    let config = |seconds: f64, mode: Mode, traced: bool, repeat_setup: bool| RunConfig {
        seed: args.seed,
        seconds,
        // Sizes are fixed: only the package's tests shrink them.
        scale: 1.0,
        mode,
        traced,
        repeat_setup,
        data_root: data_root.to_string(),
    };
    let mut passes = TracePasses::default();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let out = if args.trace {
        // Untraced SHIELD and plain runs at quarter length: the bases of the
        // tracing overhead and of the paper's headline encryption overhead.
        for (mode, slot) in [
            (Mode::Shield, &mut passes.quarter_shield_ops_s),
            (Mode::Plain, &mut passes.quarter_plain_ops_s),
        ] {
            let quarter = workload::run(spec, &config(args.seconds / 4.0, mode, false, false))?;
            *slot = metrics::end_to_end(&quarter)["ops_s"].value;
            attempted += quarter.attempted();
            failed += quarter.failed();
            correct &= quarter.correct();
        }
        let traced = workload::run(spec, &config(args.seconds, Mode::Shield, true, false))?;
        passes.unit = micro::run(data_root);
        let check = metrics::check_spans(&traced);
        println!(
            "{}.trace spans {} sampled_roots {} root_ns {} child_ns {} self_ns {} violations {}",
            spec.name,
            traced.spans.len(),
            check.roots,
            check.root_ns,
            check.child_ns,
            check.self_ns,
            check.violations
        );
        correct &= check.violations == 0 && check.roots > 0;
        if let Some(path) = &args.trace_out {
            trace::write_jsonl(path, &traced.spans).map_err(|e| format!("{path}: {e}"))?;
        }
        traced
    } else {
        workload::run(spec, &config(args.seconds, Mode::Shield, false, true))?
    };
    attempted += out.attempted();
    failed += out.failed();
    correct &= out.correct();

    let e2e = metrics::end_to_end(&out);
    let layers = metrics::per_layer(&out, &passes);
    let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v}"));
    // End-to-end metrics are reported from untraced runs only: tracing
    // costs throughput.
    for m in END_TO_END.iter().filter(|_| !args.trace) {
        let got = &e2e[m.name];
        println!(
            "{}.{} {} {}  (n={}, {})",
            spec.name,
            m.name,
            show(got.value),
            m.unit,
            got.samples,
            got.source
        );
    }
    for m in per_layer() {
        println!(
            "{}.{} {} {}",
            spec.name,
            m.name,
            show(layers.get(m.name).copied().flatten()),
            m.unit
        );
    }
    // Every end-to-end metric must be a number on every workload.
    correct &= END_TO_END
        .iter()
        .all(|m| e2e[m.name].value.is_some_and(|v| v.is_finite() && v > 0.0));

    // The driver's line: end-to-end metrics untraced, per-layer metrics
    // traced; a per-layer metric that does not apply reads 0 there.
    let line_metrics: Vec<(String, JsonValue)> = if args.trace {
        per_layer()
            .map(|m| {
                let value = layers.get(m.name).copied().flatten().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    obj(vec![("value", num(value)), ("unit", s(m.unit))]),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![("value", opt(e2e[m.name].value)), ("unit", s(m.unit))]),
                )
            })
            .collect()
    };
    let line = obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", JsonValue::Obj(line_metrics)),
    ]);
    let document = run_json(&out, &e2e, &layers, attempted, failed, correct);
    println!("{}", json::compact(&line));
    Ok((document, correct))
}

fn result_file(args: &RunArgs, data_root: &str, runs: Vec<JsonValue>) -> JsonValue {
    obj(vec![
        ("schema", s("shield-benchmark-result-v1")),
        ("claim", JsonValue::Null),
        ("stamp", stamp(args, data_root)),
        ("runs", JsonValue::Arr(runs)),
    ])
}

/// Runs every workload, each in a fresh child process, and merges the
/// children's result files.
fn run_all(
    args: &RunArgs,
    raw_args: &[String],
    data_root: &str,
) -> Result<(Vec<JsonValue>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut order: Vec<&WorkloadSpec> = WORKLOADS.iter().collect();
    if args.reverse {
        order.reverse();
    }
    // Options the child must not inherit: it runs one workload and reports
    // to a file of its own.
    let mut passthrough = Vec::new();
    let mut it = raw_args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" | "--reverse" => {}
            "--out" | "--repeat" | "--trace-out" => {
                it.next();
            }
            _ => passthrough.push(arg.clone()),
        }
    }
    let mut runs = Vec::new();
    let mut all_correct = true;
    for round in 0..args.repeat {
        for spec in &order {
            let child_out = format!(
                "{data_root}/result-{}-{}-{round}.json",
                spec.name,
                std::process::id()
            );
            let mut command = std::process::Command::new(&exe);
            command.arg("run").args(&passthrough).args([
                "--workload",
                spec.name,
                "--out",
                &child_out,
            ]);
            if let Some(path) = &args.trace_out {
                command.args(["--trace-out", &format!("{path}.{}", spec.name)]);
            }
            let status = command
                .status()
                .map_err(|e| format!("spawn {}: {e}", spec.name))?;
            let text =
                std::fs::read_to_string(&child_out).map_err(|e| format!("{child_out}: {e}"))?;
            let _ = std::fs::remove_file(&child_out);
            let doc = shield_core::json::parse(&text).map_err(|e| format!("{child_out}: {e}"))?;
            runs.extend_from_slice(doc.get("runs").and_then(JsonValue::as_arr).unwrap_or(&[]));
            all_correct &= status.success();
        }
    }
    Ok((runs, all_correct))
}

fn cmd_run(raw_args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(raw_args)?;
    let data_root = args.dir.clone().unwrap_or_else(sysinfo::data_root);
    std::fs::create_dir_all(&data_root).map_err(|e| format!("{data_root}: {e}"))?;
    let (runs, correct) = if args.all {
        run_all(&args, raw_args, &data_root)?
    } else {
        let name = args.workload.as_deref().expect("checked by parse_run_args");
        let spec = workload::workload(name)
            .ok_or_else(|| format!("unknown workload {name} (see `list`)"))?;
        let (run, correct) = run_one(spec, &args, &data_root)?;
        (vec![run], correct)
    };
    if let Some(path) = &args.out {
        // Written only where --out points: the benchmark never rewrites a
        // committed file.
        std::fs::write(path, json::pretty(&result_file(&args, &data_root, runs)))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(correct)
}

fn cmd_list(args: &[String]) {
    if args.iter().any(|a| a == "--json") {
        print!("{}", json::pretty(&spec::benchmark_json()));
        return;
    }
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    println!("end-to-end metrics (unit, better, bound):");
    for m in END_TO_END {
        println!(
            "  {:<14} {:<6} {:<7} {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (unit, better, source), by what they should move:");
    for group in GROUPS {
        println!("  -- {}", group.title);
        if !group.moves.is_empty() {
            println!("     should move:     {}", group.moves.join(", "));
            println!("     should not move: {}", group.not_moves.join(", "));
        }
        for m in group.metrics {
            println!(
                "  {:<38} {:<6} {:<7} {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.source.as_str()
            );
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("compare needs two result files".into());
    };
    let load = |path: &String| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        shield_core::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::report(&compare::compare(
        &load(base)?,
        &load(new)?,
    )?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, _)) if cmd == "micro" => {
            for (name, value) in micro::run(&sysinfo::data_root()) {
                let unit = per_layer().find(|m| m.name == name).map_or("", |m| m.unit);
                println!("micro.{name} {value} {unit}");
            }
            Ok(true)
        }
        Some((cmd, rest)) if cmd == "list" => {
            cmd_list(rest);
            Ok(true)
        }
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A run that finished but produced a wrong output or a regression.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("shield-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
