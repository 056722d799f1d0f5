//! Shared experiment machinery: scaling, temp directories, and the three
//! deployments (monolith / disaggregated storage / offloaded compaction).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield::deploy::OffloadedCompactor;
use shield_env::{Env, IoStats, NetworkModel, PosixEnv, RemoteEnv};
use shield_kds::ServerId;

use crate::systems::{build_system, SystemHandle, SystemKind, SystemStore, Tuning};

/// The offloaded compactor's identity at the KDS.
const COMPACTOR: ServerId = ServerId(2);

/// Scales every experiment relative to the paper's 50 M-op runs.
///
/// The default (factor 1.0) uses ~200 k-op write workloads — small enough
/// that the full suite finishes on one machine, large enough to exercise
/// multiple flushes and compactions per run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Multiplier over the harness defaults.
    pub factor: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { factor: 1.0 }
    }
}

impl Scale {
    /// Creates a scale; factors ≤ 0 are clamped to a minimum.
    #[must_use]
    pub fn new(factor: f64) -> Self {
        Scale { factor: factor.max(0.01) }
    }

    fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.factor) as u64).max(100)
    }

    /// Pure-write micro benchmark ops (paper: 50 M).
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        self.scaled(200_000)
    }

    /// Read / mixed micro benchmark ops (paper: 10 M).
    #[must_use]
    pub fn read_ops(&self) -> u64 {
        self.scaled(60_000)
    }

    /// Macro (YCSB / Mixgraph) ops (paper: 1–10 M).
    #[must_use]
    pub fn macro_ops(&self) -> u64 {
        self.scaled(40_000)
    }

    /// Keys preloaded before read workloads.
    #[must_use]
    pub fn key_space(&self) -> u64 {
        self.scaled(100_000)
    }

    /// Write ops for network-modeled (DS) runs, reduced because every
    /// flush pays simulated latency.
    #[must_use]
    pub fn ds_write_ops(&self) -> u64 {
        self.scaled(30_000)
    }

    /// Read ops for DS runs.
    #[must_use]
    pub fn ds_read_ops(&self) -> u64 {
        self.scaled(15_000)
    }

    /// Preload size for DS runs.
    #[must_use]
    pub fn ds_key_space(&self) -> u64 {
        self.scaled(30_000)
    }
}

/// The network profile used for DS experiments: the paper's 1 Gbps link
/// at the harness's scaled-down round trip.
#[must_use]
pub fn bench_network() -> NetworkModel {
    crate::harness::ds_network(crate::harness::SCALED_RTT_US)
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A self-deleting scratch directory.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/shield-bench-<pid>/<tag>-<n>`.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("shield-bench-{}", std::process::id()))
            .join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path as a string.
    #[must_use]
    pub fn path(&self) -> String {
        self.path.to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where the system runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeployKind {
    /// Compute and storage on one node (paper §6.2).
    Monolith,
    /// SSTs/WALs on network-modeled disaggregated storage (paper §6.4).
    Ds,
    /// DS plus compaction executed on the storage server (paper §5.6).
    DsOffloaded,
}

/// A system deployed for one experiment run.
pub struct Deployed {
    /// The opened system.
    pub sys: SystemHandle,
    /// Compute-side remote mount (I/O stats + runtime model knob).
    pub remote: Option<Arc<RemoteEnv>>,
    /// Storage-node-local I/O stats.
    pub storage_stats: Option<Arc<IoStats>>,
    /// The offloaded compactor, when deployed.
    pub compactor: Option<Arc<OffloadedCompactor>>,
    _tmp: TempDir,
}

impl Deployed {
    /// The engine handle.
    #[must_use]
    pub fn db(&self) -> &shield_lsm::Db {
        self.sys.db()
    }
}

/// Deploys `kind` under `deploy` with the given tuning.
///
/// # Panics
/// Panics if an EncFS variant is requested in a DS deployment — the paper
/// excludes EncFS there (§6.4), as its single-DEK env cannot share keys
/// with other servers.
#[must_use]
pub fn deploy(kind: SystemKind, deploy: DeployKind, tuning: &Tuning, tag: &str) -> Deployed {
    let tmp = TempDir::new(tag);
    let backing: Arc<dyn Env> = Arc::new(PosixEnv::new());
    let db_path = shield_env::join_path(&tmp.path(), "db");
    match deploy {
        DeployKind::Monolith => {
            let sys = build_system(kind, backing, &db_path, tuning).expect("open system");
            Deployed { sys, remote: None, storage_stats: None, compactor: None, _tmp: tmp }
        }
        DeployKind::Ds | DeployKind::DsOffloaded => {
            assert!(
                !matches!(kind, SystemKind::EncFs | SystemKind::EncFsBuf),
                "EncFS is not deployable on disaggregated storage (paper §6.4)"
            );
            // The compute node mounts the storage over the network; the
            // storage server works on `backing` itself.
            let remote = Arc::new(RemoteEnv::new(backing.clone(), bench_network()));
            let store = SystemStore::new(kind, remote.clone(), &db_path, tuning.clone());
            // An offloaded compactor runs on the storage server with its
            // own identity, cache, and *storage-local* I/O.
            let compactor = (deploy == DeployKind::DsOffloaded).then(|| {
                let cache_path = shield_env::join_path(&tmp.path(), "compactor.cache");
                let files = store.files_for(COMPACTOR, backing.clone(), &cache_path);
                OffloadedCompactor::new(files.expect("compactor cache"))
            });
            let sys = store
                .open_with(|mut opts| {
                    if let Some(c) = &compactor {
                        opts.compaction_executor = Some(c.clone());
                    }
                    opts
                })
                .expect("open system");
            Deployed {
                sys,
                remote: Some(remote),
                storage_stats: backing.io_stats(),
                compactor,
                _tmp: tmp,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield::{ReadOptions, WriteOptions};

    #[test]
    fn scale_clamps_and_scales() {
        let s = Scale::new(0.0);
        assert!(s.write_ops() >= 100);
        let s = Scale::new(2.0);
        assert_eq!(s.write_ops(), 400_000);
    }

    #[test]
    fn temp_dirs_are_unique_and_cleaned() {
        let p1;
        {
            let t1 = TempDir::new("x");
            let t2 = TempDir::new("x");
            assert_ne!(t1.path(), t2.path());
            p1 = t1.path();
            assert!(std::path::Path::new(&p1).exists());
        }
        assert!(!std::path::Path::new(&p1).exists());
    }

    #[test]
    fn monolith_deploy_roundtrip() {
        let d = deploy(SystemKind::Plain, DeployKind::Monolith, &Tuning::default(), "t");
        d.db().put(&WriteOptions::default(), b"k", b"v").unwrap();
        assert_eq!(d.db().get(&ReadOptions::new(), b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn offloaded_deploy_wires_compactor() {
        let mut tuning = Tuning::default();
        tuning.write_buffer_size = 8 << 10;
        tuning.l0_compaction_trigger = 2;
        let d = deploy(SystemKind::ShieldBuf, DeployKind::DsOffloaded, &tuning, "t");
        for i in 0..2000u32 {
            d.db()
                .put(&WriteOptions::default(), format!("k{i:05}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        d.db().compact_all().unwrap();
        assert!(d.compactor.as_ref().unwrap().jobs_executed() >= 1);
        assert!(d.remote.as_ref().unwrap().io_stats().unwrap().snapshot().total_written() > 0);
    }

    #[test]
    #[should_panic(expected = "EncFS is not deployable")]
    fn encfs_rejected_in_ds() {
        let _ = deploy(SystemKind::EncFs, DeployKind::Ds, &Tuning::default(), "t");
    }
}
