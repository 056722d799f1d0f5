//! Smoke tests: every workload at 1/25 of the benchmark's size (1/100 of the
//! issue's) for one second, checking that each emits every end-to-end
//! metric, fails nothing, and engages the mechanism it was chosen for.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use shield_env::FileKind;

use crate::metrics::{self, Measured, TracePasses};
use crate::spec::END_TO_END;
use crate::sut::Mode;
use crate::sysinfo;
use crate::trace::{self, Span, SpanKind};
use crate::workload::{self, OpKind, RunConfig, RunOutput, WORKLOADS};

const SCALE: f64 = 0.04;

struct Checked {
    out: RunOutput,
    e2e: BTreeMap<&'static str, Measured>,
    layers: BTreeMap<&'static str, Option<f64>>,
}

fn run(name: &str, traced: bool) -> Checked {
    // Span recording is process-wide, and two workloads side by side would
    // time each other.
    let _guard = trace::serialise_tests();
    let spec = workload::workload(name).expect("known workload");
    let config = RunConfig {
        seed: 42,
        seconds: 1.0,
        scale: SCALE,
        mode: Mode::Shield,
        traced,
        repeat_setup: false,
        data_root: sysinfo::data_root(),
    };
    let out = workload::run(spec, &config).expect("run completes");
    let e2e = metrics::end_to_end(&out);
    let layers = metrics::per_layer(&out, &TracePasses::default());
    Checked { out, e2e, layers }
}

/// The four untraced runs, shared by the tests below.
fn untraced(name: &str) -> &'static Checked {
    static RUNS: OnceLock<Vec<(&'static str, Checked)>> = OnceLock::new();
    let runs = RUNS.get_or_init(|| {
        WORKLOADS
            .iter()
            .map(|w| (w.name, run(w.name, false)))
            .collect()
    });
    &runs
        .iter()
        .find(|(n, _)| *n == name)
        .expect("known workload")
        .1
}

fn layer(run: &Checked, name: &str) -> f64 {
    run.layers
        .get(name)
        .copied()
        .flatten()
        .unwrap_or_else(|| panic!("{name} was not measured"))
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_fails_nothing() {
    for w in &WORKLOADS {
        let run = untraced(w.name);
        assert!(
            run.out.correct(),
            "{}: failed {} of {}",
            w.name,
            run.out.failed(),
            run.out.attempted()
        );
        assert_eq!(run.out.failed(), 0, "{}", w.name);
        assert!(
            !run.out.plaintext_found && run.out.plaintext_scanned > 0,
            "{}: plaintext scan",
            w.name
        );
        assert_eq!(layer(run, "integrity.failures"), 0.0, "{}", w.name);
        for m in END_TO_END {
            let got = &run.e2e[m.name];
            assert!(
                got.value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}.{} = {:?}",
                w.name,
                m.name,
                got.value
            );
            assert!(got.samples > 0, "{}.{} has no samples", w.name, m.name);
        }
    }
}

#[test]
fn each_workload_engages_its_mechanism_and_bypasses_the_others() {
    // fill: puts only in the window; the read path is idle until the probe.
    let fill = untraced("fill");
    assert!(
        fill.out.window.lat[OpKind::Get as usize].is_empty()
            && fill.out.window.lat[OpKind::Scan as usize].is_empty()
    );
    assert_eq!(
        fill.out.at_end.stats.gets - fill.out.at_start.stats.gets,
        0,
        "fill must issue zero gets"
    );
    assert!(!fill.out.window.lat[OpKind::Put as usize].is_empty());
    assert!(
        !fill.out.probe.lat[OpKind::Get as usize].is_empty(),
        "the epilogue re-reads a sample"
    );

    // readrandom_cold: gets only, mostly missing the cache; mixgraph's hot
    // set hits it.
    let cold = untraced("readrandom_cold");
    let mixgraph = untraced("mixgraph");
    assert_eq!(
        cold.out.at_end.stats.writes - cold.out.at_start.stats.writes,
        0,
        "readrandom_cold must not write"
    );
    let (cold_hits, hot_hits) = (
        layer(cold, "cache.data_hit_ratio"),
        layer(mixgraph, "cache.data_hit_ratio"),
    );
    assert!(cold_hits < 0.25, "cold data hit ratio {cold_hits}");
    assert!(
        cold_hits <= hot_hits / 3.0,
        "cold {cold_hits} against mixgraph {hot_hits}"
    );
    for kind in [OpKind::Get, OpKind::Put, OpKind::Scan] {
        assert!(
            !mixgraph.out.window.lat[kind as usize].is_empty(),
            "mixgraph issues {kind:?}"
        );
    }

    // Under SHIELD every new SST takes a fresh DEK from the KDS (so do WALs
    // and MANIFESTs, hence at least as many).
    for w in &WORKLOADS {
        let run = untraced(w.name);
        assert!(
            layer(run, "kds.deks_generated") >= layer(run, "sst.files_created"),
            "{}: {} DEKs for {} files",
            w.name,
            layer(run, "kds.deks_generated"),
            layer(run, "sst.files_created")
        );
    }

    // ds_readwhilewriting: the open-loop writer ran beside the reader.
    let ds = untraced("ds_readwhilewriting");
    let paced = ds.out.paced.as_ref().expect("ds has a paced writer");
    assert!(paced.ops() > 0 && ds.out.window.ops() > 0);
    assert!(layer(ds, "db.write_late_ratio") < 1.0);
}

#[test]
fn traced_runs_attribute_env_time_and_spans_add_up() {
    for name in ["readrandom_cold", "ds_readwhilewriting"] {
        let run = run(name, true);
        assert!(run.out.correct(), "{name}");
        let check = metrics::check_spans(&run.out);
        assert!(check.roots > 0, "{name}: no client-op spans");
        assert_eq!(
            check.violations, 0,
            "{name}: a child span leaves or overlaps its root"
        );
        assert_eq!(check.child_ns + check.self_ns, check.root_ns, "{name}");
        assert!(layer(&run, "perf.attributed_share") > 0.0, "{name}");
        assert!(layer(&run, "env.fg_share") > 0.0, "{name}");
        if name == "ds_readwhilewriting" {
            // A get that misses memtable and cache crosses the simulated
            // network: it waits at least one round trip (500 us) in SST
            // reads. At this scale the writer's fresh keys sit in memory, so
            // not every get does, but most must.
            let mut sst_read_ns: HashMap<u64, u64> = HashMap::new();
            for span in &run.out.spans {
                let read = matches!(span.kind, SpanKind::EnvReadAt | SpanKind::EnvReadMany);
                if read && span.file == FileKind::Sst.label() && span.parent != 0 {
                    *sst_read_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
                }
            }
            let gets: Vec<&Span> = run
                .out
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::OpGet)
                .collect();
            let remote: Vec<u64> = gets
                .iter()
                .filter_map(|g| sst_read_ns.get(&g.id).copied())
                .collect();
            assert!(
                2 * remote.len() > gets.len(),
                "{} of {} gets read from remote storage",
                remote.len(),
                gets.len()
            );
            let per_remote_get = remote.iter().sum::<u64>() as f64 / 1e3 / remote.len() as f64;
            assert!(
                per_remote_get >= 500.0,
                "remote SST read time per get that left memory: {per_remote_get} us"
            );
            assert!(layer(&run, "env.sst_read_us_per_get") > 0.0);
            assert!(layer(&run, "kds.generate_busy_s") > 0.0);
        }
    }
}
