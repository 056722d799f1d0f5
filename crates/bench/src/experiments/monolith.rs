//! Monolithic-deployment experiments (paper §6.2–§6.3): Table 2 and
//! Figures 7–12, 14.

use std::sync::Arc;

use shield_env::PosixEnv;

use crate::driver::{preload, run_workload, DriverConfig, RunResult};
use crate::experiments::common::{deploy, DeployKind, Scale, TempDir};
use crate::report::{fmt_ops, fmt_overhead, Table};
use crate::systems::{build_system, SystemKind, Tuning};
use crate::workloads::{Workload, WorkloadConfig};

/// Runs `workload` on a fresh monolithic deployment of `kind`.
#[allow(clippy::too_many_arguments)]
fn run_fresh(
    kind: SystemKind,
    tuning: &Tuning,
    workload: Workload,
    ops: u64,
    threads: usize,
    key_space: u64,
    value_size: usize,
    preload_keys: bool,
) -> RunResult {
    let d = deploy(kind, DeployKind::Monolith, tuning, "mono");
    if preload_keys {
        preload(d.db(), key_space, 16, value_size);
    }
    let mut cfg = WorkloadConfig::new(workload, key_space);
    cfg.value_size = value_size;
    run_workload(d.db(), &DriverConfig::new(cfg, ops).with_threads(threads))
}

/// Builds a table with one row per system and `(name, throughput)` columns
/// plus overhead-vs-baseline columns.
fn systems_table(
    id: &str,
    title: &str,
    col_names: &[&str],
    results: &[(SystemKind, Vec<f64>)],
) -> Table {
    let mut headers = vec!["system".to_string()];
    for c in col_names {
        headers.push(format!("{c} (ops/s)"));
        headers.push(format!("{c} Δ"));
    }
    let mut table = Table {
        id: id.to_string(),
        title: title.to_string(),
        headers,
        rows: Vec::new(),
    };
    let baseline = &results[0].1;
    for (kind, vals) in results {
        let mut row = vec![kind.label().to_string()];
        for (i, v) in vals.iter().enumerate() {
            row.push(fmt_ops(*v));
            row.push(fmt_overhead(baseline[i], *v));
        }
        table.push_row(row);
    }
    table
}

/// Table 2: fillrandom with no encryption / SST-only / SST+WAL.
pub fn table2(scale: &Scale) -> Vec<Table> {
    let ops = scale.write_ops();

    let run = |kind: SystemKind, encrypt_wal: bool| -> f64 {
        let tmp = TempDir::new("table2");
        let sys = build_system(
            kind,
            Arc::new(PosixEnv::new()),
            &shield_env::join_path(&tmp.path(), "db"),
            &Tuning { encrypt_wal, ..Tuning::default() },
        )
        .expect("open");
        let cfg = WorkloadConfig::new(Workload::FillRandom, scale.key_space());
        run_workload(sys.db(), &DriverConfig::new(cfg, ops)).throughput()
    };

    let plain = run(SystemKind::Plain, true);
    // Table 2 measures unbuffered encryption.
    let sst_only = run(SystemKind::Shield, false);
    let all = run(SystemKind::Shield, true);

    let mut t = Table::new(
        "table2",
        "Impact of Encryption for WAL-Writes (fillrandom)",
        &["configuration", "throughput (ops/s)", "difference"],
    );
    t.push_row(vec!["No Encryption".into(), fmt_ops(plain), String::new()]);
    t.push_row(vec![
        "Encrypted SST".into(),
        fmt_ops(sst_only),
        fmt_overhead(plain, sst_only),
    ]);
    t.push_row(vec![
        "Encrypted All (SST & WAL)".into(),
        fmt_ops(all),
        fmt_overhead(plain, all),
    ]);
    vec![t]
}

/// Figure 7: fillrandom / readrandom / mixgraph across the five systems.
pub fn fig7(scale: &Scale) -> Vec<Table> {
    let tuning = Tuning::default();
    let mut results = Vec::new();
    for kind in SystemKind::ALL {
        let fill = run_fresh(
            kind,
            &tuning,
            Workload::FillRandom,
            scale.write_ops(),
            1,
            scale.key_space(),
            100,
            false,
        )
        .throughput();
        let read = run_fresh(
            kind,
            &tuning,
            Workload::ReadRandom,
            scale.read_ops(),
            1,
            scale.key_space(),
            100,
            true,
        )
        .throughput();
        let mixgraph = run_fresh(
            kind,
            &tuning,
            Workload::Mixgraph,
            scale.macro_ops(),
            1,
            scale.key_space(),
            100,
            true,
        )
        .throughput();
        results.push((kind, vec![fill, read, mixgraph]));
    }
    vec![systems_table(
        "fig7",
        "Monolith baseline: micro + Mixgraph",
        &["fillrandom", "readrandom", "mixgraph"],
        &results,
    )]
}

/// Figure 8: mixed read/write ratios — throughput and p99 latency.
pub fn fig8(scale: &Scale) -> Vec<Table> {
    let tuning = Tuning::default();
    let ratios = [10u32, 30, 50, 70, 90];
    let mut tput = Table::new(
        "fig8_throughput",
        "Mixed read/write ratios: throughput (rows = read %)",
        &["read%", "RocksDB", "EncFS", "EncFS+Buf", "SHIELD", "SHIELD+Buf"],
    );
    let mut p99 = Table::new(
        "fig8_p99",
        "Mixed read/write ratios: p99 latency µs (rows = read %)",
        &["read%", "RocksDB", "EncFS", "EncFS+Buf", "SHIELD", "SHIELD+Buf"],
    );
    for ratio in ratios {
        let mut tput_row = vec![ratio.to_string()];
        let mut p99_row = vec![ratio.to_string()];
        for kind in SystemKind::ALL {
            let r = run_fresh(
                kind,
                &tuning,
                Workload::Mixed { read_pct: ratio },
                scale.read_ops(),
                1,
                scale.key_space(),
                100,
                true,
            );
            tput_row.push(fmt_ops(r.throughput()));
            p99_row.push(format!("{:.0}", r.hist.p99_us()));
        }
        tput.push_row(tput_row);
        p99.push_row(p99_row);
    }
    vec![tput, p99]
}

/// Figure 9: YCSB A–F on the five systems.
pub fn fig9(scale: &Scale) -> Vec<Table> {
    ycsb_suite("fig9", "YCSB (monolith)", scale, DeployKind::Monolith, &SystemKind::ALL)
}

/// Shared YCSB runner for fig9 / fig21 / fig24.
pub fn ycsb_suite(
    id: &str,
    title: &str,
    scale: &Scale,
    deployment: DeployKind,
    systems: &[SystemKind],
) -> Vec<Table> {
    let tuning = Tuning::default();
    let workloads = [
        Workload::YcsbA,
        Workload::YcsbB,
        Workload::YcsbC,
        Workload::YcsbD,
        Workload::YcsbE,
        Workload::YcsbF,
    ];
    // YCSB uses large (1 KiB) values, so the preloaded keyspace is kept
    // smaller than the micro benchmarks' to bound preload time.
    let (key_space, ops) = match deployment {
        DeployKind::Monolith => (scale.key_space() / 4, scale.macro_ops()),
        _ => (scale.ds_key_space() / 4, scale.ds_read_ops()),
    };
    // YCSB uses 1 KiB values (the paper contrasts this with Mixgraph's
    // ~37 B).
    let value_size = 1024;
    let mut results = Vec::new();
    for &kind in systems {
        let d = deploy(kind, deployment, &tuning, id);
        preload(d.db(), key_space, 16, value_size);
        let mut row = Vec::new();
        for w in workloads {
            let mut cfg = WorkloadConfig::new(w, key_space);
            cfg.value_size = value_size;
            // Scans are expensive; keep E comparable in wall time.
            let ops = if w == Workload::YcsbE { ops / 4 } else { ops };
            let r = run_workload(d.db(), &DriverConfig::new(cfg, ops.max(100)));
            row.push(r.throughput());
        }
        results.push((kind, row));
    }
    vec![systems_table(id, title, &["A", "B", "C", "D", "E", "F"], &results)]
}

/// Figure 10: value-size sensitivity (fillrandom).
pub fn fig10(scale: &Scale) -> Vec<Table> {
    let tuning = Tuning::default();
    let sizes = [50usize, 100, 250, 500, 1000];
    let mut table = Table::new(
        "fig10",
        "Value-size sensitivity: fillrandom throughput (rows = value bytes)",
        &["value", "RocksDB", "EncFS", "EncFS+Buf", "SHIELD", "SHIELD+Buf"],
    );
    for size in sizes {
        // Keep total data volume roughly constant across sizes.
        let ops = (scale.write_ops() * 100 / size as u64).max(1000);
        let mut row = vec![size.to_string()];
        for kind in SystemKind::ALL {
            let r = run_fresh(
                kind,
                &tuning,
                Workload::FillRandom,
                ops,
                1,
                scale.key_space(),
                size,
                false,
            );
            row.push(fmt_ops(r.throughput()));
        }
        table.push_row(row);
    }
    vec![table]
}

/// Figure 11: writer-thread sensitivity (16 background jobs).
pub fn fig11(scale: &Scale) -> Vec<Table> {
    let mut tuning = Tuning::default();
    tuning.background_jobs = 16;
    let mut table = Table::new(
        "fig11",
        "Writer threads: fillrandom throughput (16 bg jobs; rows = writers)",
        &["writers", "RocksDB", "EncFS", "EncFS+Buf", "SHIELD", "SHIELD+Buf"],
    );
    for threads in [1usize, 2, 4, 8] {
        let mut row = vec![threads.to_string()];
        for kind in SystemKind::ALL {
            let r = run_fresh(
                kind,
                &tuning,
                Workload::FillRandom,
                scale.write_ops(),
                threads,
                scale.key_space(),
                100,
                false,
            );
            row.push(fmt_ops(r.throughput()));
        }
        table.push_row(row);
    }
    vec![table]
}

/// Figure 12: background-thread sensitivity (4 writers).
pub fn fig12(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "fig12",
        "Background jobs: fillrandom throughput (4 writers; rows = bg jobs)",
        &["bg jobs", "RocksDB", "EncFS", "EncFS+Buf", "SHIELD", "SHIELD+Buf"],
    );
    for jobs in [2usize, 4, 8] {
        let mut tuning = Tuning::default();
        tuning.background_jobs = jobs;
        let mut row = vec![jobs.to_string()];
        for kind in SystemKind::ALL {
            let r = run_fresh(
                kind,
                &tuning,
                Workload::FillRandom,
                scale.write_ops(),
                4,
                scale.key_space(),
                100,
                false,
            );
            row.push(fmt_ops(r.throughput()));
        }
        table.push_row(row);
    }
    vec![table]
}

/// Figure 14: WAL-buffer-size sensitivity.
pub fn fig14(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "fig14",
        "WAL buffer sizes: fillrandom throughput (rows = buffer bytes)",
        &["buffer", "RocksDB", "EncFS", "Δ", "SHIELD", "Δ"],
    );
    let plain = run_fresh(
        SystemKind::Plain,
        &Tuning::default(),
        Workload::FillRandom,
        scale.write_ops(),
        1,
        scale.key_space(),
        100,
        false,
    )
    .throughput();
    for buffer in [0usize, 128, 256, 512, 1024, 2048] {
        let mut tuning = Tuning::default();
        tuning.wal_buffer_size = buffer;
        // buffer == 0 is the unbuffered variant of each design.
        let (encfs_kind, shield_kind) = if buffer == 0 {
            (SystemKind::EncFs, SystemKind::Shield)
        } else {
            (SystemKind::EncFsBuf, SystemKind::ShieldBuf)
        };
        let encfs = run_fresh(
            encfs_kind,
            &tuning,
            Workload::FillRandom,
            scale.write_ops(),
            1,
            scale.key_space(),
            100,
            false,
        )
        .throughput();
        let shield = run_fresh(
            shield_kind,
            &tuning,
            Workload::FillRandom,
            scale.write_ops(),
            1,
            scale.key_space(),
            100,
            false,
        )
        .throughput();
        table.push_row(vec![
            buffer.to_string(),
            fmt_ops(plain),
            fmt_ops(encfs),
            fmt_overhead(plain, encfs),
            fmt_ops(shield),
            fmt_overhead(plain, shield),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-run the cheapest monolith experiment end to end at a tiny
    /// scale; shape checks live in EXPERIMENTS.md at full scale.
    #[test]
    fn table2_smoke() {
        let tables = table2(&Scale::new(0.02));
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 3);
        assert!(tables[0].rows[2][2].contains('%'));
    }

    #[test]
    fn fig14_smoke() {
        let tables = fig14(&Scale::new(0.02));
        assert_eq!(tables[0].rows.len(), 6);
    }
}
