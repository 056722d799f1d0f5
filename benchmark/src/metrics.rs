//! Turns what a run measured into the named metrics of `spec.rs`.
//!
//! A metric is `None` when its op type or mechanism does not occur in the
//! run (or its source pass did not run): an unmeasured value is null, not 0.

use std::collections::BTreeMap;

use shield_env::FileKind;

use crate::compare::median;
use crate::decor::EnvCall;
use crate::trace::{self, SpanKind};
use crate::workload::{engine_bytes_written, ClientResult, OpKind, PerfSum, RunOutput};

/// A measured end-to-end value with its provenance.
#[derive(Clone, Debug)]
pub struct Measured {
    pub value: Option<f64>,
    /// Samples behind a latency percentile, or ops behind a rate.
    pub samples: u64,
    /// "window", "probe", or what else the value was read from.
    pub source: &'static str,
}

fn ratio(a: f64, b: f64) -> Option<f64> {
    (b > 0.0).then(|| a / b)
}

/// Nearest-rank percentile of a sorted sample, in microseconds.
fn percentile_us(sorted: &[u64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1] as f64 / 1e3)
}

/// Latency samples per op type, sorted: from the window where the op type
/// occurs there (closed-loop clients plus the paced writer), else from the
/// epilogue's probe.
pub struct Latencies {
    by_kind: [(Vec<u64>, &'static str); 3],
}

impl Latencies {
    pub fn of(out: &RunOutput) -> Latencies {
        let pick = |kind: OpKind| {
            let mut samples: Vec<u64> = out.window.lat[kind as usize].clone();
            if let Some(paced) = &out.paced {
                samples.extend_from_slice(&paced.lat[kind as usize]);
            }
            let source = if samples.is_empty() {
                samples = out.probe.lat[kind as usize].clone();
                "probe"
            } else {
                "window"
            };
            samples.sort_unstable();
            (samples, source)
        };
        Latencies {
            by_kind: [pick(OpKind::Get), pick(OpKind::Put), pick(OpKind::Scan)],
        }
    }

    fn measured(&self, kind: OpKind, p: f64) -> Measured {
        let (samples, source) = &self.by_kind[kind as usize];
        Measured {
            value: percentile_us(samples, p),
            samples: samples.len() as u64,
            source,
        }
    }

    /// Samples of `kind` that came from the window (empty if from the probe).
    fn window(&self, kind: OpKind) -> &[u64] {
        let (samples, source) = &self.by_kind[kind as usize];
        if *source == "window" {
            samples
        } else {
            &[]
        }
    }
}

/// Client ops of the window: closed-loop clients plus the paced writer.
fn window_ops(out: &RunOutput) -> u64 {
    out.window.ops() + out.paced.as_ref().map_or(0, ClientResult::ops)
}

/// User bytes put by the window's clients (closed-loop and paced).
fn window_put_bytes(out: &RunOutput) -> u64 {
    out.window.put_bytes + out.paced.as_ref().map_or(0, |p| p.put_bytes)
}

/// Space amplification of the loaded data set: bytes in the database
/// directory per live user byte once loading has settled. Workloads that
/// preload are read when the window starts; `fill`, whose window is the
/// load, after its drain and a clean reopen.
fn loaded_space_amp(out: &RunOutput) -> Option<f64> {
    if out.spec.preload {
        ratio(out.start_dir_bytes as f64, out.start_live_bytes as f64)
    } else {
        ratio(out.dir_bytes as f64, out.live_bytes as f64)
    }
}

/// Space amplification through the window: the mean, over the sampler's
/// readings, of bytes in the database directory per live user byte.
fn mean_space_amp(out: &RunOutput) -> Option<f64> {
    let ratios: Vec<f64> = out
        .samples
        .iter()
        .filter(|s| s.live_bytes > 0)
        .map(|s| s.dir_bytes as f64 / s.live_bytes as f64)
        .collect();
    ratio(ratios.iter().sum(), ratios.len() as f64)
}

/// The end-to-end metrics of one run, keyed by name.
pub fn end_to_end(out: &RunOutput) -> BTreeMap<&'static str, Measured> {
    let ops = window_ops(out);
    // Latency as the closed-loop clients saw it, whatever the op type.
    let mut client: Vec<u64> = out.window.lat.iter().flatten().copied().collect();
    client.sort_unstable();
    let whole = |value: Option<f64>, samples: u64, source: &'static str| Measured {
        value,
        samples,
        source,
    };
    BTreeMap::from([
        (
            "setup_s",
            whole(median(&out.setup_s), out.setup_s.len() as u64, "set-ups"),
        ),
        (
            "ops_s",
            whole(
                ratio(out.window.ops() as f64, out.window_s()),
                out.window.ops(),
                "window",
            ),
        ),
        (
            "p50_us",
            whole(percentile_us(&client, 0.50), client.len() as u64, "window"),
        ),
        (
            "p99_us",
            whole(percentile_us(&client, 0.99), client.len() as u64, "window"),
        ),
        (
            "space_amp",
            whole(
                loaded_space_amp(out),
                out.keys,
                if out.spec.preload {
                    "after set-up"
                } else {
                    "after the drain and a reopen"
                },
            ),
        ),
        (
            "cpu_us_per_op",
            whole(
                ratio(
                    (out.at_drained.cpu_s - out.at_start.cpu_s) * 1e6,
                    ops as f64,
                ),
                ops,
                "window+drain",
            ),
        ),
        (
            "reopen_s",
            whole(median(&out.reopen_s), out.reopen_s.len() as u64, "reopens"),
        ),
    ])
}

/// Results of the passes that only run with `--trace`.
#[derive(Default)]
pub struct TracePasses {
    /// Unit costs from `micro::run`.
    pub unit: Vec<(&'static str, f64)>,
    /// Untraced SHIELD and plain reference runs at quarter length: ops/s.
    pub quarter_shield_ops_s: Option<f64>,
    pub quarter_plain_ops_s: Option<f64>,
}

/// Sums one `PerfContext` field over the given op kinds.
fn perf_field(sums: &[PerfSum; 3], kinds: &[OpKind], field: &str) -> f64 {
    kinds
        .iter()
        .map(|&k| sums[k as usize].field(field) as f64)
        .sum()
}

/// The per-layer metrics of one run, keyed by name. `passes` carries the
/// trace-only passes when they ran.
pub fn per_layer(out: &RunOutput, passes: &TracePasses) -> BTreeMap<&'static str, Option<f64>> {
    let mut m: BTreeMap<&'static str, Option<f64>> = BTreeMap::new();
    let traced = out.config.traced;
    // Counters cover the window and the drain: background work the window's
    // ops caused counts, the epilogue's probes do not.
    let d = out.at_drained.stats.delta_since(&out.at_start.stats);
    let io = out.at_drained.io.delta_since(&out.at_start.io);
    let lat = Latencies::of(out);
    let gets = out.window.lat[OpKind::Get as usize].len() as f64;
    let puts = (out.window.lat[OpKind::Put as usize].len()
        + out
            .paced
            .as_ref()
            .map_or(0, |p| p.lat[OpKind::Put as usize].len())) as f64;
    let ops = window_ops(out) as f64;
    let window_put_bytes = window_put_bytes(out) as f64;
    let cipher_inits = (out.at_drained.cipher_inits - out.at_start.cipher_inits) as f64;
    let count = |v: u64| Some(v as f64);

    for (name, value) in &passes.unit {
        m.insert(name, Some(*value));
    }

    // ---- write path ------------------------------------------------------
    m.insert(
        "encryption.cipher_inits_per_kop",
        ratio(cipher_inits * 1e3, ops),
    );
    m.insert(
        "wal.bytes_per_op",
        ratio(d.wal_bytes as f64, d.writes as f64),
    );
    m.insert(
        "wal.groups_per_kop",
        ratio(d.write_groups as f64 * 1e3, d.writes as f64),
    );
    m.insert("wal.syncs", count(d.wal_syncs));

    // ---- cold read path --------------------------------------------------
    m.insert(
        "integrity.checks_per_get",
        ratio(d.integrity_checks as f64, gets),
    );
    m.insert("integrity.failures", count(out.integrity_failures));
    m.insert("encryption.cipher_inits_per_get", ratio(cipher_inits, gets));
    m.insert(
        "env.sst_read_calls_per_get",
        ratio(io.read_ops[FileKind::Sst.index()] as f64, gets),
    );
    m.insert(
        "env.sst_bytes_read_per_get",
        ratio(io.read_for(FileKind::Sst) as f64, gets),
    );
    m.insert("db.read_amp", count(out.read_amp));

    // ---- cached read path ------------------------------------------------
    let (c0, c1) = (&out.at_start.cache, &out.at_drained.cache);
    let hit_ratio = |h0: u64, h1: u64, m0: u64, m1: u64| {
        ratio((h1 - h0) as f64, ((h1 - h0) + (m1 - m0)) as f64)
    };
    m.insert(
        "cache.data_hit_ratio",
        hit_ratio(c0.data_hits, c1.data_hits, c0.data_misses, c1.data_misses),
    );
    m.insert(
        "cache.index_hit_ratio",
        hit_ratio(
            c0.index_hits,
            c1.index_hits,
            c0.index_misses,
            c1.index_misses,
        ),
    );
    m.insert(
        "cache.filter_hit_ratio",
        hit_ratio(
            c0.filter_hits,
            c1.filter_hits,
            c0.filter_misses,
            c1.filter_misses,
        ),
    );
    m.insert("cache.evictions", count(c1.evictions - c0.evictions));
    m.insert(
        "cache.singleflight_waits",
        count(c1.singleflight_waits - c0.singleflight_waits),
    );

    // ---- background work -------------------------------------------------
    let compaction_s = d.compaction_micros as f64 / 1e6;
    m.insert("bg.flush_count", count(d.flushes));
    m.insert("bg.compaction_count", count(d.compactions));
    m.insert("bg.compaction_busy_s", Some(compaction_s));
    m.insert("bg.compaction_bytes_read", count(d.compaction_bytes_read));
    m.insert(
        "bg.compaction_bytes_written",
        count(d.compaction_bytes_written),
    );
    m.insert(
        "bg.compaction_mb_s",
        ratio(
            (d.compaction_bytes_read + d.compaction_bytes_written) as f64 / 1e6,
            compaction_s,
        ),
    );
    m.insert("bg.subcompactions", count(d.subcompactions));
    m.insert("bg.write_stalls", count(d.write_stalls));
    m.insert("bg.stall_ms", Some(d.stall_micros as f64 / 1e3));
    m.insert("sst.files_created", count(d.sst_files_created));
    m.insert(
        "env.sst_bytes_written_per_user_byte",
        ratio(io.written_for(FileKind::Sst) as f64, window_put_bytes),
    );
    m.insert("db.l0_files_end", count(out.l0_files_end));

    // ---- keys --------------------------------------------------------------
    let (r0, r1) = (&out.at_start.resolver, &out.at_drained.resolver);
    m.insert(
        "kds.deks_generated",
        count(out.at_drained.kds.generated - out.at_start.kds.generated),
    );
    m.insert(
        "kds.deks_fetched",
        count(out.at_drained.kds.fetched - out.at_start.kds.fetched),
    );
    m.insert(
        "kds.resolver_cache_hits",
        count(r1.cache_hits - r0.cache_hits),
    );
    m.insert(
        "kds.resolver_cache_misses",
        count(r1.cache_misses - r0.cache_misses),
    );
    m.insert(
        "kds.resolver_hit_ratio",
        hit_ratio(
            r0.cache_hits,
            r1.cache_hits,
            r0.cache_misses,
            r1.cache_misses,
        ),
    );
    m.insert("kds.resolver_retries", count(r1.retries - r0.retries));
    // WAL bytes the reopen read back, over this run's mean WAL bytes per
    // put: the number of records it replayed.
    let all = out.at_probed.stats.delta_since(&out.at_start.stats);
    m.insert(
        "db.reopen_wal_records",
        ratio(all.wal_bytes as f64, all.writes as f64)
            .and_then(|per_op| ratio(out.reopen_wal_bytes as f64, per_op)),
    );

    // ---- diagnostics from the exact samples ---------------------------------
    let (reads, writes) = (lat.window(OpKind::Get), lat.window(OpKind::Put));
    m.insert("db.write_p999_us", percentile_us(writes, 0.999));
    m.insert("db.write_max_us", percentile_us(writes, 1.0));
    m.insert("db.read_p999_us", percentile_us(reads, 0.999));
    m.insert("db.read_max_us", percentile_us(reads, 1.0));
    let slow = [OpKind::Get, OpKind::Put, OpKind::Scan]
        .iter()
        .map(|&k| lat.window(k).iter().filter(|&&ns| ns > 1_000_000).count() as u64)
        .sum();
    m.insert("db.ops_over_1ms", count(slow));
    // Typed latencies: from the window where the op type occurs there, else
    // from the epilogue's (short, hence noisier) probe.
    m.insert("db.read_p50_us", lat.measured(OpKind::Get, 0.50).value);
    m.insert("db.read_p99_us", lat.measured(OpKind::Get, 0.99).value);
    m.insert("db.write_p50_us", lat.measured(OpKind::Put, 0.50).value);
    m.insert("db.write_p99_us", lat.measured(OpKind::Put, 0.99).value);
    m.insert("db.scan_p50_us", lat.measured(OpKind::Scan, 0.50).value);
    m.insert("db.peak_rss_mb", Some(out.peak_rss_mb));
    let rss: Vec<f64> = out.samples.iter().map(|s| s.rss_mb).collect();
    m.insert("db.rss_mb", median(&rss));
    // Write amplification over window and drain, and over the window's last
    // third alone (no drain): once compaction has completed several cycles
    // the two agree.
    m.insert(
        "db.write_amp",
        ratio(engine_bytes_written(&io) as f64, window_put_bytes),
    );
    let last_third_from = out.at_start.at_ns + (out.at_end.at_ns - out.at_start.at_ns) / 3 * 2;
    m.insert(
        "db.write_amp_last_third",
        out.samples
            .iter()
            .find(|s| s.at_ns >= last_third_from)
            .zip(out.samples.last())
            .and_then(|(from, to)| {
                ratio(
                    to.written.saturating_sub(from.written) as f64,
                    to.put_bytes.saturating_sub(from.put_bytes) as f64,
                )
            }),
    );
    m.insert("db.space_amp_window", mean_space_amp(out));
    m.insert(
        "db.space_amp_end",
        ratio(out.dir_bytes as f64, out.live_bytes as f64),
    );
    m.insert(
        "db.write_late_ratio",
        out.paced
            .as_ref()
            .and_then(|p| ratio(p.late as f64, p.ops() as f64)),
    );

    // ---- the traced pass: PerfContext sums and decorator ledgers -------------
    if traced {
        let mut perf = out.window.perf;
        if let Some(paced) = &out.paced {
            for (mine, theirs) in perf.iter_mut().zip(paced.perf.iter()) {
                mine.merge(theirs);
            }
        }
        let put = [OpKind::Put];
        let read = [OpKind::Get, OpKind::Scan];
        let all_kinds = [OpKind::Get, OpKind::Put, OpKind::Scan];
        let reads_n = (perf[OpKind::Get as usize].ops + perf[OpKind::Scan as usize].ops) as f64;
        m.insert(
            "perf.wal_append_ns",
            ratio(perf_field(&perf, &put, "wal_append_nanos"), puts),
        );
        m.insert(
            "perf.wal_sync_ns",
            ratio(perf_field(&perf, &put, "wal_sync_nanos"), puts),
        );
        m.insert(
            "perf.memtable_insert_ns",
            ratio(perf_field(&perf, &put, "memtable_insert_nanos"), puts),
        );
        m.insert(
            "perf.block_encrypt_ns",
            ratio(perf_field(&perf, &put, "block_encrypt_nanos"), puts),
        );
        m.insert(
            "perf.block_read_ns",
            ratio(perf_field(&perf, &read, "block_read_nanos"), reads_n),
        );
        m.insert(
            "perf.block_decrypt_ns",
            ratio(perf_field(&perf, &read, "block_decrypt_nanos"), reads_n),
        );
        m.insert(
            "perf.io_batch_wait_ns",
            ratio(perf_field(&perf, &read, "io_batch_wait_nanos"), reads_n),
        );
        m.insert(
            "perf.cache_lookup_ns",
            ratio(perf_field(&perf, &read, "cache_lookup_nanos"), reads_n),
        );
        m.insert(
            "perf.memtable_lookup_ns",
            ratio(perf_field(&perf, &read, "memtable_lookup_nanos"), reads_n),
        );
        m.insert(
            "perf.blocks_read_per_get",
            ratio(perf_field(&perf, &[OpKind::Get], "blocks_read"), gets),
        );
        let probes = perf_field(&perf, &[OpKind::Get], "bloom_probes");
        m.insert("perf.bloom_probes_per_get", ratio(probes, gets));
        m.insert(
            "sst.bloom_useful_ratio",
            ratio(d.bloom_useful as f64, probes),
        );
        m.insert(
            "perf.dek_resolve_ns",
            ratio(perf_field(&perf, &all_kinds, "dek_resolve_nanos"), ops),
        );
        // block_encrypt nests inside wal_append and subcompaction is
        // background-only, so neither is added to a client op's share.
        let attributed: f64 = [
            "wal_append_nanos",
            "wal_sync_nanos",
            "memtable_insert_nanos",
            "memtable_lookup_nanos",
            "block_read_nanos",
            "block_decrypt_nanos",
            "dek_resolve_nanos",
            "cache_lookup_nanos",
            "io_batch_wait_nanos",
        ]
        .iter()
        .map(|f| perf_field(&perf, &all_kinds, f))
        .sum();
        let wall: f64 = perf.iter().map(|p| p.wall_ns as f64).sum();
        m.insert("perf.attributed_share", ratio(attributed, wall));

        if let (Some(e0), Some(e1)) = (&out.at_start.env, &out.at_drained.env) {
            let env = e1.since(e0);
            let wal_appends = env.get(FileKind::Wal, EnvCall::Append);
            m.insert(
                "env.wal_write_calls_per_kop",
                ratio(wal_appends.calls as f64 * 1e3, puts),
            );
            m.insert(
                "env.wal_append_ns_per_op",
                ratio(
                    env.foreground(FileKind::Wal, EnvCall::Append).nanos as f64,
                    puts,
                ),
            );
            m.insert(
                "env.sst_read_us_per_get",
                ratio(
                    env.foreground(FileKind::Sst, EnvCall::Read).nanos as f64 / 1e3,
                    gets,
                ),
            );
            let opens = env.call_total(EnvCall::Open);
            m.insert(
                "env.open_file_us_mean",
                ratio(opens.nanos as f64 / 1e3, opens.calls as f64),
            );
            let (fg, busy) = env.busy_ns();
            m.insert("env.fg_share", ratio(fg as f64, busy as f64));
            let sst_write = [EnvCall::Append, EnvCall::Flush, EnvCall::Sync]
                .iter()
                .map(|&c| env.get(FileKind::Sst, c).secs())
                .sum();
            m.insert("env.sst_write_busy_s", Some(sst_write));
            let syncs = env.call_total(EnvCall::Sync);
            m.insert("env.sync_calls", count(syncs.calls));
            m.insert("env.sync_busy_s", Some(syncs.secs()));
            m.insert(
                "env.manifest_writes",
                count(env.get(FileKind::Manifest, EnvCall::Append).calls),
            );
        }
        m.insert(
            "kds.generate_busy_s",
            Some(
                out.at_drained
                    .kds_generate
                    .since(out.at_start.kds_generate)
                    .secs(),
            ),
        );
        m.insert(
            "kds.fetch_busy_s",
            Some(
                out.at_drained
                    .kds_fetch
                    .since(out.at_start.kds_fetch)
                    .secs(),
            ),
        );
        let flushes = out.at_drained.flushes.since(out.at_start.flushes);
        m.insert("bg.flush_busy_s", Some(flushes.secs()));
        m.insert(
            "bg.flush_mb_s",
            ratio(flushes.bytes as f64 / 1e6, flushes.secs()),
        );

        // The traced window's first quarter against the untraced quarter run.
        let traced_quarter_ops_s = ratio(out.window.quarter_ops as f64, out.config.seconds / 4.0);
        m.insert(
            "trace.overhead_pct",
            passes
                .quarter_shield_ops_s
                .zip(traced_quarter_ops_s)
                .and_then(|(clean, traced)| ratio((clean - traced) * 100.0, clean)),
        );
    }
    m.insert("ref.plain_ops_s", passes.quarter_plain_ops_s);
    m.insert(
        "ref.shield_overhead_pct",
        passes
            .quarter_plain_ops_s
            .zip(passes.quarter_shield_ops_s)
            .and_then(|(plain, shield)| ratio((plain - shield) * 100.0, plain)),
    );
    m
}

/// The traced pass's self-check: on a sample of client ops, children lie
/// inside their root and do not overlap, so child time plus self time is the
/// root's time by construction.
pub fn check_spans(out: &RunOutput) -> trace::SelfTimes {
    trace::self_times(
        &out.spans,
        &[SpanKind::OpGet, SpanKind::OpPut, SpanKind::OpScan],
        1000,
    )
}
