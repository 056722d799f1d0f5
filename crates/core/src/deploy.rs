//! Disaggregated-storage deployments (paper §2.2, §5.4, §5.6, §6.4).
//!
//! The paper's DS setup has a compute server mounting HDFS on a storage
//! server over a 1 Gbps link, with two LSM-specific optimizations layered
//! on top: **offloaded compaction** (the storage server executes
//! compactions, reading DEKs via the DEK-IDs embedded in file metadata)
//! and **read-only instances** (extra compute nodes serving queries from
//! the shared files without write access). The compute node mounts the
//! storage as a [`shield_env::RemoteEnv`] over the backing env, which pays
//! the simulated network for every I/O; the storage server works on the
//! backing env itself. This module provides the compactor that runs
//! there; a read-only instance is a [`crate::ReplicaDb`] over the compute
//! mount — with `auto_poll: false` it refreshes only when `catch_up` is
//! called. Each gets its file layer, under its own identity, from
//! [`FileStore::new`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield_lsm::compaction::{
    run_compaction, CompactionExecutor, CompactionOutcome, CompactionRequest,
};
use shield_lsm::error::Result;
use shield_lsm::version::table_cache::TableCache;
use shield_lsm::FileStore;

/// Executes compactions on the storage server (paper §5.6).
///
/// The compactor has its **own** server identity, DEK resolver, and secure
/// cache: it never receives keys from the compute node. Input DEKs are
/// resolved from the DEK-IDs in the SST plaintext headers; output files get
/// fresh DEKs requested under the compactor's identity — so revoking the
/// compactor's authorization at the KDS immediately locks it out.
pub struct OffloadedCompactor {
    files: FileStore,
    jobs: AtomicU64,
}

impl OffloadedCompactor {
    /// Creates a compactor working through `files`: the storage-local env,
    /// the compactor's own DEK resolver and the primary's integrity
    /// settings. It reads inputs and creates outputs through the same
    /// store, so the primary (and any replica) can authenticate what it
    /// writes.
    #[must_use]
    pub fn new(files: FileStore) -> Arc<Self> {
        Arc::new(OffloadedCompactor { files, jobs: AtomicU64::new(0) })
    }

    /// Number of compaction jobs executed.
    #[must_use]
    pub fn jobs_executed(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }
}

impl CompactionExecutor for OffloadedCompactor {
    fn execute(
        &self,
        request: &CompactionRequest<'_>,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<CompactionOutcome> {
        // This server opens the inputs itself, under its own identity:
        // it works from the request's metadata alone, never from tables
        // the primary has open, and the tables it opens die with the job
        // (the primary deletes every input once the edit installs).
        let table_cache = TableCache::new(self.files.clone(), request.db_path.into(), None, 0);
        let task = request.task.detached();
        let outcome =
            run_compaction(&table_cache, &CompactionRequest { task: &task, ..*request }, alloc)?;
        self.jobs.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{open_shield, Encryption, ShieldOptions};
    use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
    use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
    use shield_lsm::{IntegrityOptions, Options, ReadOptions, WriteOptions};

    const PRIMARY: ServerId = ServerId(1);
    const COMPACTOR: ServerId = ServerId(2);

    /// The compactor's file layer on the storage server, under its own
    /// identity and cache.
    fn compactor_files(kds: &Arc<LocalKds>, env: Arc<dyn Env>) -> FileStore {
        let identity = ShieldOptions::new(kds.clone() as Arc<dyn Kds>, COMPACTOR, b"worker-pass");
        let encryption = Encryption::Shield(identity);
        FileStore::new(env, &encryption, "compactor.cache", IntegrityOptions::default()).unwrap()
    }

    /// Full offloaded-compaction round trip: the compute node writes
    /// through the network-modeled mount; the storage-side compactor
    /// resolves DEKs purely from file metadata.
    #[test]
    fn offloaded_compaction_end_to_end() {
        let storage_env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let compute_mount = Arc::new(RemoteEnv::new(storage_env.clone(), NetworkModel::unlimited()));
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));

        let compactor_files = compactor_files(&kds, storage_env);
        let compactor = OffloadedCompactor::new(compactor_files.clone());

        let mut base = Options::new(compute_mount);
        base.write_buffer_size = 8 << 10;
        base.compaction.l0_compaction_trigger = 2;
        base.compaction_executor = Some(compactor.clone());
        let sdb = open_shield(
            base,
            "db",
            ShieldOptions::new(kds.clone(), PRIMARY, b"primary-pass"),
        )
        .unwrap();

        for i in 0..3000u32 {
            sdb.put(&WriteOptions::default(), format!("key{i:06}").as_bytes(), &[b'v'; 32])
                .unwrap();
        }
        sdb.compact_all().unwrap();
        assert!(compactor.jobs_executed() >= 1, "compaction should have offloaded");
        // The compactor had to fetch input DEKs via metadata DEK-IDs.
        let stats = compactor_files.resolver().unwrap().stats();
        assert!(stats.cache_misses + stats.cache_hits > 0);
        // Data is intact through the compute mount.
        for i in (0..3000u32).step_by(191) {
            assert!(
                sdb.get(&ReadOptions::new(), format!("key{i:06}").as_bytes())
                    .unwrap()
                    .is_some(),
                "key{i:06} lost"
            );
        }
    }

    /// Revoking the compactor's KDS authorization locks it out of new
    /// compactions (§5.4 breached-server response).
    #[test]
    fn revoked_compactor_is_locked_out() {
        let storage_env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let compute_mount = Arc::new(RemoteEnv::new(storage_env.clone(), NetworkModel::unlimited()));
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let compactor = OffloadedCompactor::new(compactor_files(&kds, storage_env));

        let mut base = Options::new(compute_mount);
        base.write_buffer_size = 8 << 10;
        base.compaction.l0_compaction_trigger = 2;
        base.compaction_executor = Some(compactor);
        let sdb = open_shield(
            base,
            "db",
            ShieldOptions::new(kds.clone(), PRIMARY, b"primary-pass"),
        )
        .unwrap();

        kds.revoke_server(COMPACTOR);
        // The offloaded compaction fails; the background error surfaces on
        // a later write or on compact_all, whichever comes first.
        let mut failed = false;
        for i in 0..3000u32 {
            if sdb
                .put(&WriteOptions::default(), format!("key{i:06}").as_bytes(), &[b'v'; 32])
                .is_err()
            {
                failed = true;
                break;
            }
        }
        failed |= sdb.compact_all().is_err();
        assert!(failed, "revoked compactor must not compact");
    }
}
