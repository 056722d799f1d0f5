//! Ablations of SHIELD's design choices beyond the paper's figures:
//!
//! * the secure DEK cache (§5.2): restart cost with and without it, under
//!   realistic KDS latency;
//! * the cipher choice (§6.1): AES-128-CTR vs ChaCha20 end to end;
//! * KDS generation latency on the write path: DEK provisioning touches
//!   the foreground only at WAL rotation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shield_crypto::Algorithm;
use shield_env::PosixEnv;
use shield_kds::{Kds, KdsConfig};

use crate::driver::{run_workload, DriverConfig};
use crate::experiments::common::{Scale, TempDir};
use crate::report::{fmt_ops, Table};
use crate::systems::{build_system, SystemKind, SystemStore, Tuning};
use crate::workloads::{Workload, WorkloadConfig};

/// Secure-cache ablation: restart latency and KDS traffic with the cache
/// enabled vs disabled, at SSToolkit-like KDS latency.
pub fn ablation_cache(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "ablation_cache",
        "Secure DEK cache ablation: restart cost (SSToolkit-like KDS latency)",
        &["configuration", "restart (ms)", "KDS fetches on restart", "first-read ok"],
    );
    for use_cache in [true, false] {
        let tmp = TempDir::new("ablation");
        // Build a database with many live files (small memtables, no
        // compaction) — the restart then needs one DEK per file.
        let tuning = Tuning {
            write_buffer_size: 32 << 10,
            l0_compaction_trigger: 10_000, // keep L0 files
            secure_dek_cache: use_cache,
            kds_config: KdsConfig::sstoolkit_like(),
            ..Tuning::default()
        };
        let store = SystemStore::new(
            SystemKind::ShieldBuf,
            Arc::new(PosixEnv::new()),
            &shield_env::join_path(&tmp.path(), "db"),
            tuning,
        );
        let open = || {
            store
                .open_with(|mut base| {
                    base.l0_slowdown_trigger = usize::MAX; // no backpressure either
                    base.l0_stop_trigger = usize::MAX;
                    base
                })
                .expect("open")
        };
        {
            let sys = open();
            let cfg = WorkloadConfig::new(Workload::FillRandom, scale.key_space());
            run_workload(sys.db(), &DriverConfig::new(cfg, scale.write_ops() / 2));
            sys.db().flush().expect("flush");
        }
        // Measure restart + first read across all files.
        let kds = &store.kds;
        let fetched_before = kds.stats().fetched;
        let t0 = Instant::now();
        let sys = open();
        let cfg = WorkloadConfig::new(Workload::ReadRandom, scale.key_space());
        let read = run_workload(sys.db(), &DriverConfig::new(cfg, 2000));
        let restart = t0.elapsed();
        table.push_row(vec![
            if use_cache { "secure cache ON" } else { "secure cache OFF" }.to_string(),
            format!("{:.1}", restart.as_secs_f64() * 1000.0),
            (kds.stats().fetched - fetched_before).to_string(),
            format!("{}/{} hits", read.found, read.ops),
        ]);
    }
    vec![table]
}

/// Cipher ablation: AES-128-CTR vs ChaCha20 through the whole write path.
pub fn ablation_cipher(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "ablation_cipher",
        "Cipher choice: fillrandom throughput (SHIELD+WAL-Buf)",
        &["cipher", "fillrandom", "p99 µs"],
    );
    for algorithm in [Algorithm::Aes128Ctr, Algorithm::ChaCha20] {
        let tmp = TempDir::new("cipher");
        let sys = build_system(
            SystemKind::ShieldBuf,
            Arc::new(PosixEnv::new()),
            &shield_env::join_path(&tmp.path(), "db"),
            &Tuning { algorithm, ..Tuning::default() },
        )
        .expect("open");
        let cfg = WorkloadConfig::new(Workload::FillRandom, scale.key_space());
        let r = run_workload(sys.db(), &DriverConfig::new(cfg, scale.write_ops()));
        table.push_row(vec![
            algorithm.to_string(),
            fmt_ops(r.throughput()),
            format!("{:.0}", r.hist.p99_us()),
        ]);
    }
    vec![table]
}

/// KDS generation-latency visibility: how long DEK provisioning stays off
/// the critical path (file creations are background events except the WAL
/// rotation).
pub fn ablation_kds_path(scale: &Scale) -> Vec<Table> {
    let mut table = Table::new(
        "ablation_kds_path",
        "Where KDS latency lands: throughput vs per-key generation latency (monolith)",
        &["generation latency", "fillrandom", "DEKs generated"],
    );
    for micros in [0u64, 500, 2750, 10_000] {
        let tmp = TempDir::new("kdspath");
        let tuning = Tuning {
            write_buffer_size: 256 << 10,
            kds_config: KdsConfig {
                generation_latency: Duration::from_micros(micros),
                ..KdsConfig::default()
            },
            ..Tuning::default()
        };
        let sys = build_system(
            SystemKind::ShieldBuf,
            Arc::new(PosixEnv::new()),
            &shield_env::join_path(&tmp.path(), "db"),
            &tuning,
        )
        .expect("open");
        let kds = sys.kds.as_ref().expect("SHIELD system has a KDS");
        let cfg = WorkloadConfig::new(Workload::FillRandom, scale.key_space());
        let r = run_workload(sys.db(), &DriverConfig::new(cfg, scale.write_ops() / 2));
        table.push_row(vec![
            format!("{micros} µs"),
            fmt_ops(r.throughput()),
            kds.stats().generated.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_ablation_shows_fetch_difference() {
        let tables = ablation_cache(&Scale::new(0.05));
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 2);
        let with_cache: u64 = rows[0][2].parse().unwrap();
        let without: u64 = rows[1][2].parse().unwrap();
        assert!(
            without > with_cache,
            "cacheless restart must fetch more from the KDS ({without} vs {with_cache})"
        );
    }
}
