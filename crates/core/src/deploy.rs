//! Disaggregated-storage deployments (paper §2.2, §5.4, §5.6, §6.4).
//!
//! The paper's DS setup has a compute server mounting HDFS on a storage
//! server over a 1 Gbps link, with two LSM-specific optimizations layered
//! on top: **offloaded compaction** (the storage server executes
//! compactions, reading DEKs via the DEK-IDs embedded in file metadata)
//! and **read-only instances** (extra compute nodes serving queries from
//! the shared files without write access). This module provides the mount
//! and the compactor over the simulated network of
//! [`shield_env::RemoteEnv`]; a read-only instance is a
//! [`crate::open_shield_replica`] (or a plain [`crate::ReplicaDb`]) over
//! the compute mount — with `auto_poll: false` it refreshes only when
//! `catch_up` is called.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shield_env::{Env, NetworkModel, RemoteEnv};
use shield_lsm::compaction::{
    run_compaction, CompactionContext, CompactionExecutor, CompactionOutcome, CompactionRequest,
};
use shield_lsm::error::Result;
use shield_lsm::version::table_cache::TableCache;
use shield_lsm::FileStore;

/// A disaggregated storage cluster: one backing store, two views.
///
/// * the **compute mount** pays network latency/bandwidth for every I/O
///   (what the primary LSM-KVS instance uses),
/// * the **storage-local view** is the same files with no network cost
///   (what offloaded compaction uses — its I/O is server-local).
pub struct DisaggregatedStorage {
    backing: Arc<dyn Env>,
    remote: Arc<RemoteEnv>,
}

impl DisaggregatedStorage {
    /// Wraps `backing` with `model` for the compute side.
    #[must_use]
    pub fn new(backing: Arc<dyn Env>, model: NetworkModel) -> Self {
        let remote = Arc::new(RemoteEnv::new(backing.clone(), model));
        DisaggregatedStorage { backing, remote }
    }

    /// The env the compute node mounts (network-modeled).
    #[must_use]
    pub fn compute_mount(&self) -> Arc<dyn Env> {
        self.remote.clone()
    }

    /// The storage server's local view (no network cost).
    #[must_use]
    pub fn storage_local(&self) -> Arc<dyn Env> {
        self.backing.clone()
    }

    /// The remote wrapper, for adjusting the network model mid-experiment
    /// or reading the storage node's I/O accounting.
    #[must_use]
    pub fn remote(&self) -> &Arc<RemoteEnv> {
        &self.remote
    }
}

/// Executes compactions on the storage server (paper §5.6).
///
/// The compactor has its **own** server identity, DEK resolver, and secure
/// cache: it never receives keys from the compute node. Input DEKs are
/// resolved from the DEK-IDs in the SST plaintext headers; output files get
/// fresh DEKs requested under the compactor's identity — so revoking the
/// compactor's authorization at the KDS immediately locks it out.
pub struct OffloadedCompactor {
    files: FileStore,
    /// One table cache per tree directory a request has named.
    table_caches: Mutex<HashMap<String, Arc<TableCache>>>,
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
        Arc::new(OffloadedCompactor {
            files,
            table_caches: Mutex::new(HashMap::new()),
            jobs: AtomicU64::new(0),
        })
    }

    /// Number of compaction jobs executed.
    #[must_use]
    pub fn jobs_executed(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// The table cache for the tree in `db_path`.
    fn table_cache(&self, db_path: &str) -> Arc<TableCache> {
        self.table_caches
            .lock()
            .entry(db_path.to_string())
            .or_insert_with(|| {
                TableCache::new(self.files.clone(), db_path.to_string(), None, 128, 0)
            })
            .clone()
    }
}

impl CompactionExecutor for OffloadedCompactor {
    fn execute(
        &self,
        request: &CompactionRequest<'_>,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<CompactionOutcome> {
        let table_cache = self.table_cache(request.db_path);
        let mut ctx = CompactionContext {
            table_cache: &table_cache,
            version: request.version,
            smallest_snapshot: request.smallest_snapshot,
            table_options: request.table_options.clone(),
            target_file_size: request.target_file_size,
            next_file_number: alloc,
        };
        let outcome = run_compaction(&mut ctx, request.task)?;
        // Evict inputs from the compactor-side cache; they are about to be
        // deleted by the primary.
        for (_, number) in &outcome.edit.deleted_files {
            table_cache.evict(*number);
        }
        self.jobs.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{open_shield, ShieldOptions};
    use shield_crypto::Algorithm;
    use shield_env::MemEnv;
    use shield_kds::{DekResolver, Kds, KdsConfig, LocalKds, ServerId};
    use shield_lsm::encryption::EncryptionConfig;
    use shield_lsm::{IntegrityOptions, Options, ReadOptions, WriteOptions};

    const PRIMARY: ServerId = ServerId(1);
    const COMPACTOR: ServerId = ServerId(2);

    fn remote_cfg(
        kds: &Arc<LocalKds>,
        env: &Arc<dyn Env>,
        server: ServerId,
        cache_path: &str,
    ) -> EncryptionConfig {
        let cache = shield_kds::SecureDekCache::open(env.clone(), cache_path, b"worker-pass")
            .unwrap();
        let resolver = Arc::new(DekResolver::new(
            kds.clone() as Arc<dyn Kds>,
            Some(Arc::new(cache)),
            server,
            Algorithm::Aes128Ctr,
        ));
        EncryptionConfig::new(resolver)
    }

    /// Full offloaded-compaction round trip: the compute node writes
    /// through the network-modeled mount; the storage-side compactor
    /// resolves DEKs purely from file metadata.
    #[test]
    fn offloaded_compaction_end_to_end() {
        let backing = MemEnv::new();
        let ds = DisaggregatedStorage::new(
            Arc::new(backing.clone()),
            NetworkModel::unlimited(),
        );
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));

        let storage_env = ds.storage_local();
        let compactor_cfg = remote_cfg(&kds, &storage_env, COMPACTOR, "compactor.cache");
        let compactor = OffloadedCompactor::new(FileStore::new(
            storage_env,
            Some(compactor_cfg.clone()),
            IntegrityOptions::default(),
        ));

        let mut base = Options::new(ds.compute_mount());
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
        let stats = compactor_cfg.resolver.stats();
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
        let backing = MemEnv::new();
        let ds = DisaggregatedStorage::new(
            Arc::new(backing),
            NetworkModel::unlimited(),
        );
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let storage_env = ds.storage_local();
        let compactor_cfg = remote_cfg(&kds, &storage_env, COMPACTOR, "compactor.cache");
        let compactor = OffloadedCompactor::new(FileStore::new(
            storage_env,
            Some(compactor_cfg),
            IntegrityOptions::default(),
        ));

        let mut base = Options::new(ds.compute_mount());
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
