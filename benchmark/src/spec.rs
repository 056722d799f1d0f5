//! The benchmark's contract: every workload, metric, unit, direction and
//! regression bound. `list --json` prints exactly this, `BENCHMARK.json` at
//! the repo root is that output, and a test keeps the two equal.

use shield_core::JsonValue;

use crate::json::{num, obj, s};
use crate::workload::WORKLOADS;

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 15;

/// The command the driver appends `--workload .. --seed .. --seconds ..
/// --trace ..` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub const PATHS: [&str; 1] = ["benchmark"];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, gated by `bound`: the share of
/// the parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "open + preload + settle; median of at least three set-ups in a run",
    },
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "closed-loop client ops per second of window wall time (ds_readwhilewriting: the reader's)",
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "median latency of the closed-loop clients' ops in the window (fill: puts; readrandom_cold and ds_readwhilewriting: gets; mixgraph: the mix)",
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "99th percentile of the same samples",
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Lower,
        bound: 0.05,
        what: "bytes in the DB directory per live user byte once the data set is loaded and settled (after set-up; fill: after its window, drain and a clean reopen)",
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "process user+sys CPU over window and drain per client op",
    },
    EndToEnd {
        name: "reopen_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "open_shield on the cleanly closed DB (PBKDF2 unlock, MANIFEST + WAL replay, DEK resolves); median of at least three reopens",
    },
];

/// Where a per-layer metric comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Public counters read around the measured window.
    Counter,
    /// The `micro` pass: a public function timed directly.
    Unit,
    /// The traced pass: decorator spans and `PerfContext`.
    Span,
    /// Exact per-op latency samples.
    Samples,
    /// A reference run at quarter length.
    Reference,
}

impl Source {
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Counter => "counter",
            Source::Unit => "unit",
            Source::Span => "span",
            Source::Samples => "samples",
            Source::Reference => "reference",
        }
    }
}

/// A metric of a single layer. No bound: it explains, it does not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Counter, Reference, Samples, Span, Unit};

/// Per-layer metrics that explain the same end-to-end metrics, with the
/// prediction written down before anything is measured: which end-to-end
/// (or, where the gated list has no such cell, ledger) metric of which
/// workload a change to the group should move, and which it should leave
/// alone. Entries read `workload.metric`; `workload.*` is every end-to-end
/// metric of the workload.
pub struct Group {
    pub title: &'static str,
    pub moves: &'static [&'static str],
    pub not_moves: &'static [&'static str],
    pub metrics: &'static [PerLayer],
}

pub const GROUPS: &[Group] = &[
    Group {
        title: "write path: WAL buffer, cipher inits, memtable",
        moves: &["fill.ops_s", "fill.p50_us", "mixgraph.db.write_p50_us"],
        not_moves: &["readrandom_cold.*"],
        metrics: &[
            layer("crypto.cipher_init_ns", "ns", Lower, Unit),
            layer("crypto.ctr_128b_ns", "ns", Lower, Unit),
            layer("encryption.append_512b_ns", "ns", Lower, Unit),
            layer("encryption.cipher_inits_per_kop", "count", Lower, Counter),
            layer("wal.add_record_plain_ns", "ns", Lower, Unit),
            layer("wal.add_record_shield_ns", "ns", Lower, Unit),
            layer("wal.bytes_per_op", "B", Lower, Counter),
            layer("wal.groups_per_kop", "count", Lower, Counter),
            layer("wal.syncs", "count", Lower, Counter),
            layer("memtable.add_ns", "ns", Lower, Unit),
            layer("perf.wal_append_ns", "ns", Lower, Span),
            layer("perf.wal_sync_ns", "ns", Lower, Span),
            layer("perf.memtable_insert_ns", "ns", Lower, Span),
            layer("perf.block_encrypt_ns", "ns", Lower, Span),
        ],
    },
    Group {
        title: "cold read path: block fetch, decrypt, verify",
        moves: &[
            "readrandom_cold.ops_s",
            "readrandom_cold.p50_us",
            "readrandom_cold.p99_us",
            "readrandom_cold.cpu_us_per_op",
            "fill.cpu_us_per_op",
        ],
        not_moves: &["mixgraph.p50_us"],
        metrics: &[
            layer("crypto.ctr_4k_ns", "ns", Lower, Unit),
            layer("crypto.hmac_4k_ns", "ns", Lower, Unit),
            layer("crypto.crc32c_4k_ns", "ns", Lower, Unit),
            layer("integrity.block_tag_4k_ns", "ns", Lower, Unit),
            layer("integrity.checks_per_get", "count", Lower, Counter),
            layer("integrity.failures", "count", Lower, Counter),
            layer("encryption.read_4k_ns", "ns", Lower, Unit),
            layer("encryption.cipher_inits_per_get", "count", Lower, Counter),
            layer("sst.get_cold_us", "us", Lower, Unit),
            layer("sst.open_us", "us", Lower, Unit),
            layer("sst.bloom_useful_ratio", "ratio", Higher, Span),
            layer("perf.block_read_ns", "ns", Lower, Span),
            layer("perf.block_decrypt_ns", "ns", Lower, Span),
            layer("perf.blocks_read_per_get", "count", Lower, Span),
            layer("perf.bloom_probes_per_get", "count", Lower, Span),
            layer("perf.io_batch_wait_ns", "ns", Lower, Span),
            layer("env.sst_read_calls_per_get", "count", Lower, Counter),
            layer("env.sst_bytes_read_per_get", "B", Lower, Counter),
            layer("db.read_amp", "count", Lower, Counter),
        ],
    },
    Group {
        title: "cached read path: block cache and memtable hits",
        moves: &[
            "mixgraph.ops_s",
            "mixgraph.p50_us",
            "mixgraph.db.scan_p50_us",
            "readrandom_cold.p99_us",
        ],
        not_moves: &["fill.*"],
        metrics: &[
            layer("cache.data_hit_ratio", "ratio", Higher, Counter),
            layer("cache.index_hit_ratio", "ratio", Higher, Counter),
            layer("cache.filter_hit_ratio", "ratio", Higher, Counter),
            layer("cache.evictions", "count", Lower, Counter),
            layer("cache.singleflight_waits", "count", Lower, Counter),
            layer("cache.lookup_hit_ns", "ns", Lower, Unit),
            layer("cache.insert_ns", "ns", Lower, Unit),
            layer("memtable.get_hit_ns", "ns", Lower, Unit),
            layer("memtable.get_miss_ns", "ns", Lower, Unit),
            layer("sst.iter_ns_per_entry", "ns", Lower, Unit),
            layer("perf.cache_lookup_ns", "ns", Lower, Span),
            layer("perf.memtable_lookup_ns", "ns", Lower, Span),
        ],
    },
    Group {
        title: "background work: flush, compaction, stalls",
        moves: &[
            "fill.ops_s",
            "fill.p99_us",
            "fill.space_amp",
            "fill.cpu_us_per_op",
            "fill.db.write_amp",
            "mixgraph.p99_us",
            "mixgraph.db.space_amp_window",
            "mixgraph.db.write_amp",
        ],
        not_moves: &["readrandom_cold.*"],
        metrics: &[
            layer("bg.flush_count", "count", Lower, Counter),
            layer("bg.flush_busy_s", "s", Lower, Span),
            layer("bg.flush_mb_s", "MB/s", Higher, Span),
            layer("bg.compaction_count", "count", Lower, Counter),
            layer("bg.compaction_busy_s", "s", Lower, Counter),
            layer("bg.compaction_bytes_read", "B", Lower, Counter),
            layer("bg.compaction_bytes_written", "B", Lower, Counter),
            layer("bg.compaction_mb_s", "MB/s", Higher, Counter),
            layer("bg.subcompactions", "count", Lower, Counter),
            layer("bg.write_stalls", "count", Lower, Counter),
            layer("bg.stall_ms", "ms", Lower, Counter),
            layer("sst.build_ns_per_entry", "ns", Lower, Unit),
            layer("sst.build_shield_ns_per_entry", "ns", Lower, Unit),
            layer("sst.files_created", "count", Lower, Counter),
            layer(
                "env.sst_bytes_written_per_user_byte",
                "ratio",
                Lower,
                Counter,
            ),
            layer("env.sst_write_busy_s", "s", Lower, Span),
            layer("env.sync_calls", "count", Lower, Span),
            layer("env.sync_busy_s", "s", Lower, Span),
            layer("env.manifest_writes", "count", Lower, Span),
            layer("db.l0_files_end", "count", Lower, Counter),
            layer("db.write_amp", "ratio", Lower, Counter),
            layer("db.write_amp_last_third", "ratio", Lower, Counter),
            layer("db.space_amp_window", "ratio", Lower, Counter),
            layer("db.space_amp_end", "ratio", Lower, Counter),
        ],
    },
    Group {
        title: "keys: KDS round trips, resolver, secure cache",
        moves: &[
            "ds_readwhilewriting.db.write_p99_us",
            "fill.p99_us",
            "fill.reopen_s",
            "readrandom_cold.reopen_s",
            "mixgraph.reopen_s",
            "ds_readwhilewriting.reopen_s",
            "readrandom_cold.setup_s",
            "mixgraph.setup_s",
            "ds_readwhilewriting.setup_s",
        ],
        not_moves: &["mixgraph.p50_us"],
        metrics: &[
            layer("kds.deks_generated", "count", Lower, Counter),
            layer("kds.deks_fetched", "count", Lower, Counter),
            layer("kds.generate_busy_s", "s", Lower, Span),
            layer("kds.fetch_busy_s", "s", Lower, Span),
            layer("kds.resolver_cache_hits", "count", Higher, Counter),
            layer("kds.resolver_cache_misses", "count", Lower, Counter),
            layer("kds.resolver_hit_ratio", "ratio", Higher, Counter),
            layer("kds.resolver_retries", "count", Lower, Counter),
            layer("kds.new_dek_us", "us", Lower, Unit),
            layer("kds.resolve_cached_ns", "ns", Lower, Unit),
            layer("kds.cache_insert_us", "us", Lower, Unit),
            layer("crypto.pbkdf2_ms", "ms", Lower, Unit),
            layer("perf.dek_resolve_ns", "ns", Lower, Span),
            layer("wal.replay_mb_s", "MB/s", Higher, Unit),
            layer("db.reopen_wal_records", "count", Lower, Counter),
        ],
    },
    Group {
        title: "env: local and remote I/O",
        moves: &[
            "ds_readwhilewriting.ops_s",
            "ds_readwhilewriting.p50_us",
            "ds_readwhilewriting.p99_us",
            "ds_readwhilewriting.reopen_s",
            "ds_readwhilewriting.setup_s",
        ],
        not_moves: &["fill.ops_s"],
        metrics: &[
            layer("env.wal_write_calls_per_kop", "count", Lower, Span),
            layer("env.wal_append_ns_per_op", "ns", Lower, Span),
            layer("env.sst_read_us_per_get", "us", Lower, Span),
            layer("env.open_file_us_mean", "us", Lower, Span),
            layer("env.fg_share", "ratio", Lower, Span),
            layer("env.remote_read_4k_us", "us", Lower, Unit),
            layer("env.remote_read_many_16x4k_us", "us", Lower, Unit),
            layer("env.posix_append_128b_ns", "ns", Lower, Unit),
        ],
    },
    Group {
        title: "diagnostics: latency by op type, tails, lateness, memory, attribution, tracing cost, reference",
        moves: &[],
        not_moves: &[],
        metrics: &[
            layer("db.write_p999_us", "us", Lower, Samples),
            layer("db.write_max_us", "us", Lower, Samples),
            layer("db.read_p999_us", "us", Lower, Samples),
            layer("db.read_max_us", "us", Lower, Samples),
            layer("db.read_p50_us", "us", Lower, Samples),
            layer("db.read_p99_us", "us", Lower, Samples),
            layer("db.write_p50_us", "us", Lower, Samples),
            layer("db.write_p99_us", "us", Lower, Samples),
            layer("db.scan_p50_us", "us", Lower, Samples),
            layer("db.ops_over_1ms", "count", Lower, Samples),
            layer("db.peak_rss_mb", "MiB", Lower, Counter),
            layer("db.rss_mb", "MiB", Lower, Counter),
            layer("db.write_late_ratio", "ratio", Lower, Samples),
            layer("perf.attributed_share", "ratio", Higher, Span),
            layer("trace.overhead_pct", "%", Lower, Span),
            layer("ref.plain_ops_s", "1/s", Higher, Reference),
            layer("ref.shield_overhead_pct", "%", Lower, Reference),
        ],
    },
];

/// Every per-layer metric, group by group.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    GROUPS.iter().flat_map(|g| g.metrics)
}

/// The contract as a JSON document: the content of `BENCHMARK.json`.
pub fn benchmark_json() -> JsonValue {
    let strings = |items: &[&str]| JsonValue::Arr(items.iter().map(|i| s(i)).collect());
    obj(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            JsonValue::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            JsonValue::Arr(
                per_layer()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(per_layer().map(|m| m.name));
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for n in &names {
            assert!(ok_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)) && per_layer().all(|m| ok_unit(m.unit)));
    }

    #[test]
    fn every_prediction_names_a_workload_and_a_metric() {
        for group in GROUPS {
            for entry in group.moves.iter().chain(group.not_moves) {
                let (workload, metric) = entry.split_once('.').expect("workload.metric");
                assert!(
                    WORKLOADS.iter().any(|w| w.name == workload),
                    "{entry}: unknown workload"
                );
                assert!(
                    metric == "*"
                        || END_TO_END.iter().any(|m| m.name == metric)
                        || per_layer().any(|m| m.name == metric),
                    "{entry}: unknown metric"
                );
            }
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_list_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = shield_core::json::parse(&text).expect("BENCHMARK.json parses");
        // assert!, not assert_eq!: printing both documents helps nobody.
        assert!(
            on_disk == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `list --json`"
        );
    }
}
