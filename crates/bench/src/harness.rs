//! The one harness behind every measurement bin of this crate.
//!
//! A bin is its workload and little else: [`Bench::from_args`] reads the
//! command line (`--smoke`, `--out PATH`, `--help` — the only
//! `std::env::args` reader besides `paper`), opens the result document
//! with the header every committed `BENCH_*.json` carries (`bench`,
//! `mode`, `commit`, `nproc`, `cpu_features`, and `network` once the bin
//! names the model it ran over), hands the bin a [`JsonBuilder`] for the
//! body, collects its gates, and [`Bench::finish`] writes the file and
//! turns the gates into the exit code.
//!
//! Default output: a full run writes the committed `BENCH_<name>.json`;
//! a smoke run — and the smoke-only gate `obs_smoke` — writes under
//! `target/`, so no bin rewrites a committed file unless asked to with
//! `--out`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shield_core::JsonBuilder;
use shield_env::{MemEnv, NetworkModel, RemoteEnv};
use shield_lsm::{Options, ReadOptions};

use crate::systems::{SystemHandle, SystemKind, SystemStore, Tuning};
use crate::workloads::key_bytes;

/// Round trip of the paper's disaggregated mount (§6.4).
const PAPER_RTT_US: u64 = 500;
/// The 5× smaller round trip smoke runs and the `paper` experiments use
/// so they finish in minutes while latency still dominates encryption.
pub const SCALED_RTT_US: u64 = 100;

/// The paper's DS link — 1 Gbps, 64 KiB write packets — at `rtt_us`.
#[must_use]
pub fn ds_network(rtt_us: u64) -> NetworkModel {
    NetworkModel { rtt: Duration::from_micros(rtt_us), ..NetworkModel::intra_datacenter() }
}

/// `num / den`, or `None` when the denominator was never measured — a
/// ratio over nothing is `null` in the report, not `0`.
#[must_use]
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Best of three timed passes of `iters` calls to `f`, in ns per call.
pub fn best_of_3_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// Entry shape of the DS read benches (`readpath`, `integrity`).
const DS_KEY_BYTES: usize = 9;
const DS_VALUE_BYTES: usize = 256;

/// Key `i` of the DS read benches.
#[must_use]
pub fn ds_key(i: u64) -> Vec<u8> {
    key_bytes(i, DS_KEY_BYTES)
}

/// The store the DS read benches share, mirroring the paper's DS read
/// experiments (§6.2): `kind` behind a [`RemoteEnv`] charging `model`,
/// with 256 KiB memtables and SSTs and an 8 MiB block cache so a few
/// thousand keys span many files.
#[must_use]
pub fn ds_read_store(kind: SystemKind, model: NetworkModel) -> SystemStore {
    let tuning = Tuning {
        write_buffer_size: 256 << 10,
        block_cache_bytes: 8 << 20,
        target_file_size: 256 << 10,
        ..Tuning::default()
    };
    SystemStore::new(kind, Arc::new(RemoteEnv::new(Arc::new(MemEnv::new()), model)), "db", tuning)
}

/// Opens `store` cold — fresh handle, empty block cache — with the WAL
/// off: the read phases never write and [`ds_fill`] flushes explicitly.
pub fn open_cold(store: &SystemStore, adjust: impl FnOnce(Options) -> Options) -> SystemHandle {
    store
        .open_with(|mut opts| {
            opts.disable_wal = true;
            adjust(opts)
        })
        .expect("open system")
}

/// Loads keys `0..keys` and compacts them into read-only SSTs.
pub fn ds_fill(store: &SystemStore, keys: u64, adjust: impl FnOnce(Options) -> Options) {
    crate::driver::preload(open_cold(store, adjust).db(), keys, DS_KEY_BYTES, DS_VALUE_BYTES);
}

/// Full forward scan; returns entries seen and seconds taken.
#[must_use]
pub fn scan_all(sys: &SystemHandle) -> (u64, f64) {
    let start = Instant::now();
    let rows = sys.db().scan(&ReadOptions::default(), b"", usize::MAX).expect("scan");
    (rows.len() as u64, start.elapsed().as_secs_f64())
}

/// The checkout's commit (`-dirty` if the tree differs from it), or
/// "unknown" outside a checkout.
pub(crate) fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU features the crypto kernels dispatch on, as detected now.
fn cpu_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    if shield_crypto::aes::batch_is_accelerated() {
        features.push("aes");
    }
    if shield_crypto::sha256::is_accelerated() {
        features.push("sha_ni");
    }
    if shield_crypto::crc32c::is_accelerated() {
        features.push("sse4.2+pclmulqdq");
    }
    features
}

/// Re-renders [`JsonBuilder`]'s compact output one member per line, two
/// spaces per level and `": "` after keys — the layout of the committed
/// `BENCH_*.json` files, which keeps their diffs line-sized.
fn indent(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut chars = compact.chars().peekable();
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                '\\' => out.extend(chars.next()),
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                if matches!(chars.peek(), Some('}' | ']')) {
                    out.extend(chars.next());
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// One run of one measurement bin. See the module docs.
pub struct Bench {
    name: &'static str,
    smoke: bool,
    out: String,
    doc: JsonBuilder,
    failures: Vec<String>,
}

impl Bench {
    /// The bin's run as the command line describes it: full unless
    /// `--smoke`. Prints the problem (or the usage, for `--help`) and
    /// exits with status 2 when the arguments do not parse.
    #[must_use]
    pub fn from_args(name: &'static str) -> Bench {
        Self::from_env(name, None)
    }

    /// [`Bench::from_args`] for a gate that only has a smoke mode and
    /// writes `default_out` (under `target/`).
    #[must_use]
    pub fn smoke_only_from_args(name: &'static str, default_out: &str) -> Bench {
        Self::from_env(name, Some(default_out))
    }

    fn from_env(name: &'static str, smoke_only: Option<&str>) -> Bench {
        let bench = Self::parse(name, smoke_only, std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        });
        println!("{name} bench ({} mode)", bench.pick("smoke", "full"));
        bench
    }

    fn parse(
        name: &'static str,
        smoke_only: Option<&str>,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Bench, String> {
        let mut smoke = smoke_only.is_some();
        let mut out = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--out" => out = Some(args.next().ok_or("--out needs a path")?),
                "--help" | "-h" => return Err(format!("usage: {name} [--smoke] [--out PATH]")),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        // Only a full run may land on the committed trajectory file.
        let out = out.unwrap_or_else(|| match (smoke_only, smoke) {
            (Some(path), _) => path.to_string(),
            (None, true) => format!("target/BENCH_{name}_smoke.json"),
            (None, false) => format!("BENCH_{name}.json"),
        });
        let mut doc = JsonBuilder::new();
        doc.open_obj_item();
        doc.field_str("bench", name);
        doc.field_str("mode", if smoke { "smoke" } else { "full" });
        doc.field_str("commit", &commit());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        doc.field_u64("nproc", nproc as u64);
        doc.open_arr("cpu_features");
        for feature in cpu_features() {
            doc.item_raw(&shield_core::json::escaped(feature));
        }
        doc.close_arr();
        Ok(Bench { name, smoke, out, doc, failures: Vec::new() })
    }

    /// Whether this is a smoke run.
    #[must_use]
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The smoke-run or the full-run value of a workload parameter.
    #[must_use]
    pub fn pick<T>(&self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The paper's DS link (500 µs; 100 µs in smoke mode), recorded in
    /// the header.
    pub fn network(&mut self) -> NetworkModel {
        let model = ds_network(self.pick(SCALED_RTT_US, PAPER_RTT_US));
        self.record_network(model)
    }

    /// Records `model` as the header's `network` and hands it back.
    pub fn record_network(&mut self, model: NetworkModel) -> NetworkModel {
        self.doc.open_obj("network");
        self.doc.field_u64("rtt_us", model.rtt.as_micros() as u64);
        match model.bandwidth_bytes_per_sec {
            Some(bw) => self.doc.field_u64("bandwidth_bytes_per_sec", bw),
            None => self.doc.field_null("bandwidth_bytes_per_sec"),
        }
        self.doc.field_u64("write_packet_bytes", model.write_packet_bytes);
        self.doc.close_obj();
        println!(
            "  network: rtt {} us, {:?} B/s",
            model.rtt.as_micros(),
            model.bandwidth_bytes_per_sec
        );
        model
    }

    /// The document body, positioned inside the root object after the
    /// header.
    pub fn json(&mut self) -> &mut JsonBuilder {
        &mut self.doc
    }

    /// Adds every member of `object` — a rendered JSON object, such as
    /// the engine's own metrics report — at the current level, so the
    /// report keeps its schema under the harness header.
    pub fn splice_object(&mut self, object: &str) {
        let members = object.trim().strip_prefix('{').and_then(|o| o.strip_suffix('}'));
        self.doc.item_raw(members.expect("a JSON object"));
    }

    /// A gate of both modes: the mechanism under test must have engaged,
    /// whatever the timing. `what` states the claim that must hold.
    pub fn engaged(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    /// A performance gate: checked in a full run only — CI timing noise
    /// is no place for one.
    pub fn full_gate(&mut self, what: &str, ok: bool) {
        if !self.smoke {
            self.engaged(what, ok);
        }
    }

    /// Writes the document, reports every failed gate and returns the
    /// process's exit code.
    #[must_use]
    pub fn finish(self) -> ExitCode {
        let Bench { name, out, doc, mut failures, .. } = self;
        if let Some(dir) = std::path::Path::new(&out).parent() {
            // `target/` may not exist yet in a fresh checkout.
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&out, render(doc)) {
            Ok(()) => println!("wrote {out}"),
            Err(e) => failures.push(format!("writing {out}: {e}")),
        }
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        if failures.is_empty() {
            println!("{name} ok");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Closes the root object and lays the document out for the file.
fn render(mut doc: JsonBuilder) -> String {
    doc.close_obj();
    indent(&doc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield_core::json::{self, JsonValue};

    fn bench(args: &[&str]) -> Result<Bench, String> {
        Bench::parse("readpath", None, args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(bench(&["--fast"]).is_err_and(|e| e.contains("--fast")));
        assert!(bench(&["--out"]).is_err_and(|e| e.contains("needs a path")));
        assert!(bench(&["--help"]).is_err_and(|e| e.starts_with("usage: readpath")));
    }

    #[test]
    fn only_a_full_run_defaults_to_the_committed_file() {
        assert_eq!(bench(&[]).unwrap().out, "BENCH_readpath.json");
        assert_eq!(bench(&["--smoke"]).unwrap().out, "target/BENCH_readpath_smoke.json");
        assert_eq!(bench(&["--smoke", "--out", "x.json"]).unwrap().out, "x.json");
        let gate = Bench::parse("obs_smoke", Some("target/OBS.json"), std::iter::empty()).unwrap();
        assert!(gate.smoke());
        assert_eq!(gate.out, "target/OBS.json");
    }

    #[test]
    fn full_gates_bind_full_runs_and_engagement_binds_both() {
        for (args, full) in [(&["--smoke"][..], false), (&[][..], true)] {
            let mut b = bench(args).unwrap();
            b.full_gate("4x", false);
            assert_eq!(b.failures.len(), usize::from(full));
            let mut b = bench(args).unwrap();
            b.engaged("batched", false);
            b.engaged("prefetched", true);
            assert_eq!(b.failures, ["batched"]);
        }
    }

    #[test]
    fn document_parses_with_the_header_first_and_null_for_unmeasured() {
        let mut b = bench(&["--smoke"]).unwrap();
        let model = b.network();
        assert_eq!(model.rtt, Duration::from_micros(100));
        b.json().open_obj("systems");
        b.json().field_opt_f64("speedup_4", ratio(3.0, 2.0));
        b.json().field_opt_f64("speedup_8", ratio(3.0, 0.0));
        b.json().field_str("note", "a \"quoted\": {value}, [kept]");
        b.json().open_obj("empty");
        b.json().close_obj();
        b.json().close_obj();
        let text = render(b.doc);
        assert!(text.contains("\n    \"speedup_8\": null"), "{text}");
        let doc = json::parse(&text).expect("document parses");
        assert_eq!(doc.keys()[..4], ["bench", "mode", "commit", "nproc"]);
        assert_eq!(doc.get("bench").and_then(JsonValue::as_str), Some("readpath"));
        assert_eq!(doc.get("mode").and_then(JsonValue::as_str), Some("smoke"));
        assert!(doc.get("nproc").and_then(JsonValue::as_f64).is_some_and(|n| n >= 1.0));
        assert!(doc.get("cpu_features").and_then(JsonValue::as_arr).is_some());
        let net = doc.get("network").expect("network in the header");
        assert_eq!(net.get("rtt_us").and_then(JsonValue::as_f64), Some(100.0));
        let systems = doc.get("systems").expect("body");
        assert_eq!(systems.get("speedup_4").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(systems.get("speedup_8"), Some(&JsonValue::Null));
        assert_eq!(
            systems.get("note").and_then(JsonValue::as_str),
            Some("a \"quoted\": {value}, [kept]")
        );
        assert_eq!(systems.get("empty"), Some(&JsonValue::Obj(Vec::new())));
    }
}
