//! Compaction-focused experiments: Figure 13 (chunk sizes × encryption
//! threads), Figure 15 (compaction policies with offloaded compaction) and
//! Table 3 (I/O distribution per node).

use crate::driver::{run_workload, DriverConfig};
use shield_env::Env as _;
use crate::experiments::common::{deploy, DeployKind, Scale};
use crate::report::{fmt_mib, fmt_ops, Table};
use crate::systems::{SystemKind, Tuning};
use crate::workloads::{Workload, WorkloadConfig};
use shield_lsm::CompactionStyle;

/// Figure 13: total compaction time as the encryption chunk size and
/// thread count vary, against the unencrypted and EncFS baselines.
pub fn fig13(scale: &Scale) -> Vec<Table> {
    let ops = scale.write_ops();
    let mut table = Table::new(
        "fig13",
        "Compaction time (ms) vs encryption chunk size and threads",
        &["configuration", "compaction ms", "cipher inits"],
    );

    let run_one = |kind: SystemKind, chunk: usize, threads: usize| -> (f64, u64) {
        let mut tuning = Tuning::default();
        tuning.chunk_size = chunk;
        tuning.encryption_threads = threads;
        tuning.l0_compaction_trigger = 2;
        tuning.write_buffer_size = 1 << 20;
        let d = deploy(kind, DeployKind::Monolith, &tuning, "fig13");
        let cfg = WorkloadConfig::new(Workload::FillRandom, scale.key_space());
        run_workload(d.db(), &DriverConfig::new(cfg, ops));
        d.db().compact_all().expect("compact");
        let micros = d.db().statistics().snapshot().compaction_micros;
        (micros as f64 / 1000.0, d.db().cipher_inits())
    };

    let (plain_ms, _) = run_one(SystemKind::Plain, 4096, 1);
    table.push_row(vec!["RocksDB (no encryption)".into(), format!("{plain_ms:.0}"), "0".into()]);
    let (encfs_ms, encfs_inits) = run_one(SystemKind::EncFsBuf, 4096, 1);
    table.push_row(vec![
        "EncFS".into(),
        format!("{encfs_ms:.0}"),
        encfs_inits.to_string(),
    ]);
    for chunk in [4096usize, 65_536, 262_144, 1 << 20, 2 << 20] {
        for threads in [1usize, 2, 4] {
            let (ms, inits) = run_one(SystemKind::ShieldBuf, chunk, threads);
            table.push_row(vec![
                format!("SHIELD chunk={}KiB threads={threads}", chunk / 1024),
                format!("{ms:.0}"),
                inits.to_string(),
            ]);
        }
    }
    vec![table]
}

/// Runs one (policy, system) pair in the offloaded-compaction deployment
/// and returns (fill ops/s, read ops/s, deployed-run artifacts for Table 3).
struct PolicyRun {
    fill_tput: f64,
    read_tput: f64,
    /// (compute read, compute write, storage-side read, storage-side
    /// write) in bytes. Compute = traffic over the simulated network;
    /// storage-side = compaction I/O executed locally on the storage node.
    io: (u64, u64, u64, u64),
}

fn run_policy(scale: &Scale, style: CompactionStyle, kind: SystemKind) -> PolicyRun {
    let mut tuning = Tuning::default();
    tuning.compaction_style = style;
    tuning.write_buffer_size = 256 << 10;
    tuning.l0_compaction_trigger = 2;
    tuning.universal_run_trigger = 3;
    tuning.fifo_max_bytes = 6 << 20;
    let d = deploy(kind, DeployKind::DsOffloaded, &tuning, "fig15");

    let key_space = scale.ds_key_space();
    let fill_cfg = WorkloadConfig::new(Workload::FillRandom, key_space);
    let fill = run_workload(d.db(), &DriverConfig::new(fill_cfg, scale.ds_write_ops()));
    let _ = d.db().compact_all();

    let read_cfg = WorkloadConfig::new(Workload::ReadRandom, key_space);
    let read = run_workload(d.db(), &DriverConfig::new(read_cfg, scale.ds_read_ops()));

    let compute = d.remote.as_ref().unwrap().io_stats().unwrap().snapshot();
    let total = d.storage_stats.as_ref().unwrap().snapshot();
    // The backing store sees compute traffic + storage-local compaction;
    // the difference attributes compaction I/O to the storage node.
    let storage_read = total.total_read().saturating_sub(compute.total_read());
    let storage_write = total.total_written().saturating_sub(compute.total_written());
    PolicyRun {
        fill_tput: fill.throughput(),
        read_tput: read.throughput(),
        io: (compute.total_read(), compute.total_written(), storage_read, storage_write),
    }
}

const POLICIES: [(CompactionStyle, &str); 3] = [
    (CompactionStyle::Leveled, "leveled"),
    (CompactionStyle::Universal, "universal"),
    (CompactionStyle::Fifo, "FIFO"),
];

/// Figure 15: fillrandom + readrandom throughput per compaction policy,
/// RocksDB vs SHIELD, with offloaded compaction.
pub fn fig15(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "fig15",
        "Compaction policies with offloaded compaction",
        &["policy", "system", "fillrandom", "readrandom"],
    );
    for (style, name) in POLICIES {
        for kind in [SystemKind::Plain, SystemKind::ShieldBuf] {
            let r = run_policy(scale, style, kind);
            // The paper omits FIFO readrandom (early keys were evicted and
            // misses return instantly, skewing ops/sec upward).
            let read = if style == CompactionStyle::Fifo {
                "n/a (FIFO evicts)".to_string()
            } else {
                fmt_ops(r.read_tput)
            };
            table.push_row(vec![
                name.to_string(),
                kind.label().to_string(),
                fmt_ops(r.fill_tput),
                read,
            ]);
        }
    }
    vec![table]
}

/// Table 3: read/write I/O (GiB) split between the compute server and the
/// compaction (storage) server per policy, for SHIELD.
pub fn table3(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "table3",
        "I/O distribution (MiB) per compaction style (SHIELD, offloaded; paper reports GiB at 50M-op scale)",
        &["policy", "compute R (MiB)", "compute W (MiB)", "compaction R (MiB)", "compaction W (MiB)"],
    );
    for (style, name) in POLICIES {
        let r = run_policy(scale, style, SystemKind::ShieldBuf);
        let (cr, cw, sr, sw) = r.io;
        table.push_row(vec![
            name.to_string(),
            fmt_mib(cr),
            fmt_mib(cw),
            fmt_mib(sr),
            fmt_mib(sw),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_run_produces_io_attribution() {
        let r = run_policy(&Scale::new(0.05), CompactionStyle::Leveled, SystemKind::ShieldBuf);
        assert!(r.fill_tput > 0.0);
        assert!(r.read_tput > 0.0);
        let (cr, cw, _sr, sw) = r.io;
        assert!(cw > 0, "compute must have written over the network");
        assert!(cr > 0, "reads must have travelled over the network");
        assert!(sw > 0, "offloaded compaction must have written storage-locally");
    }
}
