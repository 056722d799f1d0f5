//! Disaggregated-storage deployments (paper §2.2, §5.4, §5.6, §6.4).
//!
//! The paper's DS setup has a compute server mounting HDFS on a storage
//! server over a 1 Gbps link, with two LSM-specific optimizations layered
//! on top: **offloaded compaction** (the storage server executes
//! compactions, reading DEKs via the DEK-IDs embedded in file metadata)
//! and **read-only instances** (extra compute nodes serving queries from
//! the shared files without write access). This module provides all three
//! pieces over the simulated network of [`shield_env::RemoteEnv`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shield_env::{Env, NetworkModel, RemoteEnv};
use shield_lsm::compaction::{
    run_compaction, CompactionContext, CompactionExecutor, CompactionOutcome, CompactionRequest,
};
use shield_lsm::encryption::EncryptionConfig;
use shield_lsm::error::Result;
use shield_lsm::integrity::IntegrityOptions;
use shield_lsm::memtable::{LookupResult, MemTable};
use shield_lsm::types::SequenceNumber;
use shield_lsm::version::table_cache::TableCache;
use shield_lsm::version::version::{GetResult, Version};
use shield_lsm::version::{parse_file_name, wal_file_name, FileType, VersionSet};
use shield_lsm::wal::{open_wal_tailer, TailPoll};
use shield_lsm::WriteBatch;

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
    env: Arc<dyn Env>,
    db_path: String,
    encryption: Option<EncryptionConfig>,
    table_cache: Arc<TableCache>,
    jobs: AtomicU64,
}

impl OffloadedCompactor {
    /// Creates a compactor over the storage-local env.
    #[must_use]
    pub fn new(
        env: Arc<dyn Env>,
        db_path: &str,
        encryption: Option<EncryptionConfig>,
    ) -> Arc<Self> {
        let table_cache = TableCache::new(
            env.clone(),
            db_path.to_string(),
            encryption.clone(),
            None,
            128,
        );
        Arc::new(OffloadedCompactor {
            env,
            db_path: db_path.to_string(),
            encryption,
            table_cache,
            jobs: AtomicU64::new(0),
        })
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
        debug_assert_eq!(request.db_path, self.db_path, "compactor bound to one database");
        let mut ctx = CompactionContext {
            env: &self.env,
            db_path: &self.db_path,
            encryption: self.encryption.as_ref(),
            table_cache: &self.table_cache,
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
            self.table_cache.evict(*number);
        }
        self.jobs.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }
}

/// A read-only instance over a shared database directory (paper §2.2).
///
/// Loads the MANIFEST without mutating anything, replays live WAL
/// segments into a private memtable for freshness, and serves gets/scans.
/// With SHIELD enabled it resolves DEKs through its own resolver — the
/// metadata-enabled sharing path.
pub struct ReadOnlyInstance {
    env: Arc<dyn Env>,
    path: String,
    encryption: Option<EncryptionConfig>,
    integrity: IntegrityOptions,
    table_cache: Arc<TableCache>,
    version: Version,
    mem: Arc<MemTable>,
    seq: SequenceNumber,
}

impl ReadOnlyInstance {
    /// Opens the shared directory read-only.
    pub fn open(
        env: Arc<dyn Env>,
        path: &str,
        encryption: Option<EncryptionConfig>,
    ) -> Result<Self> {
        Self::open_with_integrity(env, path, encryption, IntegrityOptions::default())
    }

    /// [`ReadOnlyInstance::open`] with explicit integrity settings: the
    /// engine-wide MAC key verifies authenticated plaintext files (SHIELD
    /// files always verify with their own DEK's subkey).
    pub fn open_with_integrity(
        env: Arc<dyn Env>,
        path: &str,
        encryption: Option<EncryptionConfig>,
        integrity: IntegrityOptions,
    ) -> Result<Self> {
        let table_cache = TableCache::new_with_stats(
            env.clone(),
            path.to_string(),
            encryption.clone(),
            None,
            None,
            128,
            0,
            shield_lsm::sst::fetcher::DEFAULT_INFLIGHT_READS,
            integrity,
            None,
        );
        let mut instance = ReadOnlyInstance {
            env,
            path: path.to_string(),
            encryption,
            integrity,
            table_cache,
            version: Version::new(),
            mem: Arc::new(MemTable::new(0)),
            seq: 0,
        };
        instance.refresh()?;
        Ok(instance)
    }

    /// Re-reads the manifest and replays live WALs, catching up to the
    /// primary's latest durable state.
    ///
    /// Returns `true` when the manifest ended at a clean record boundary.
    /// `false` means the snapshot is consistent but the primary had an
    /// edit in flight (torn tail) — possibly stale; retry after the
    /// primary finishes the write if freshness matters. (The previous
    /// reader silently tolerated that tail with no signal.)
    pub fn refresh(&mut self) -> Result<bool> {
        let state = VersionSet::load_read_only(
            self.env.as_ref(),
            &self.path,
            self.encryption.as_ref(),
            self.integrity,
        )?;
        let mut seq = state.last_sequence;
        let mem = Arc::new(MemTable::new(0));
        let mut wals: Vec<u64> = self
            .env
            .list_dir(&self.path)?
            .iter()
            .filter_map(|n| match parse_file_name(n) {
                Some(FileType::Wal(num)) if num >= state.log_number => Some(num),
                _ => None,
            })
            .collect();
        wals.sort_unstable();
        for number in wals {
            let wal_path = shield_env::join_path(&self.path, &wal_file_name(number));
            let mut tailer = open_wal_tailer(
                self.env.as_ref(),
                &wal_path,
                self.encryption.as_ref(),
                self.integrity.key,
            )?;
            // The primary may still be appending; a pending tail (or even
            // a mid-read race) simply ends this segment's replay.
            while let Ok(TailPoll::Record(record)) = tailer.poll() {
                let Ok(batch) = WriteBatch::from_data(&record) else { break };
                batch.insert_into(&mem)?;
                seq = seq.max(batch.sequence() + u64::from(batch.count()) - 1);
            }
        }
        self.version = state.version;
        self.mem = mem;
        self.seq = seq;
        Ok(!state.incomplete_tail)
    }

    /// The sequence number this instance reads at.
    #[must_use]
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.mem.get(key, self.seq) {
            LookupResult::Found(v) => return Ok(Some(v)),
            LookupResult::Deleted => return Ok(None),
            LookupResult::NotFound => {}
        }
        match self.version.get(&self.table_cache, key, self.seq)? {
            GetResult::Found(v) => Ok(Some(v)),
            GetResult::Deleted | GetResult::NotFound => Ok(None),
        }
    }

    /// Range scan over persistent + replayed state.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        use shield_lsm::iter::{InternalIterator, MergingIterator};
        use shield_lsm::types::{
            extract_seq_type, extract_user_key, make_lookup_key, ValueType,
        };
        let mut children: Vec<Box<dyn InternalIterator>> = vec![Box::new(self.mem.iter())];
        children.extend(self.version.iterators(&self.table_cache)?);
        let mut merged = MergingIterator::new(children);
        merged.seek(&make_lookup_key(start, self.seq));
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut skip: Option<Vec<u8>> = None;
        while merged.valid() && out.len() < limit {
            let ikey = merged.key();
            let user = extract_user_key(ikey).to_vec();
            let (entry_seq, vtype) = extract_seq_type(ikey);
            if entry_seq > self.seq || skip.as_deref() == Some(&user[..]) {
                merged.next();
                continue;
            }
            skip = Some(user.clone());
            if vtype == Some(ValueType::Value) {
                out.push((user, merged.value().to_vec()));
            }
            merged.next();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{open_shield, ShieldOptions};
    use shield_crypto::Algorithm;
    use shield_env::MemEnv;
    use shield_kds::{DekResolver, Kds, KdsConfig, LocalKds, ServerId};
    use shield_lsm::{Options, ReadOptions, WriteOptions};

    const PRIMARY: ServerId = ServerId(1);
    const COMPACTOR: ServerId = ServerId(2);
    const READER: ServerId = ServerId(3);

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
        let compactor = OffloadedCompactor::new(storage_env, "db", Some(compactor_cfg.clone()));

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
        let compactor = OffloadedCompactor::new(storage_env, "db", Some(compactor_cfg));

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

    /// Read-only instance over shared files, with and without encryption.
    #[test]
    fn read_only_instance_serves_reads() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let sdb = open_shield(
            Options::new(env.clone()),
            "db",
            ShieldOptions::new(kds.clone(), PRIMARY, b"primary-pass"),
        )
        .unwrap();
        for i in 0..500u32 {
            sdb.put(&WriteOptions::default(), format!("k{i:04}").as_bytes(), b"flushed")
                .unwrap();
        }
        sdb.flush().unwrap();
        // WAL-only (unflushed) writes, visible via WAL replay. The write
        // must be synced: with SHIELD's WAL buffer, an unsynced record may
        // still sit (plaintext) in the application buffer — the §5.3
        // persistence trade-off.
        sdb.put(&WriteOptions { sync: true }, b"tail-key", b"wal-only").unwrap();

        let reader_cfg = remote_cfg(&kds, &env, READER, "reader.cache");
        let ro = ReadOnlyInstance::open(env.clone(), "db", Some(reader_cfg)).unwrap();
        assert_eq!(ro.get(b"k0123").unwrap(), Some(b"flushed".to_vec()));
        assert_eq!(ro.get(b"tail-key").unwrap(), Some(b"wal-only".to_vec()));
        assert_eq!(ro.get(b"absent").unwrap(), None);
        let scanned = ro.scan(b"k0100", 10).unwrap();
        assert_eq!(scanned.len(), 10);
        assert_eq!(scanned[0].0, b"k0100");
    }

    #[test]
    fn read_only_refresh_sees_new_writes() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = crate::open_plain(Options::new(env.clone()), "db").unwrap();
        db.put(&WriteOptions::default(), b"a", b"1").unwrap();
        let mut ro = ReadOnlyInstance::open(env.clone(), "db", None).unwrap();
        assert_eq!(ro.get(b"a").unwrap(), Some(b"1".to_vec()));
        db.put(&WriteOptions::default(), b"b", b"2").unwrap();
        // Stale until refresh.
        assert_eq!(ro.get(b"b").unwrap(), None);
        ro.refresh().unwrap();
        assert_eq!(ro.get(b"b").unwrap(), Some(b"2".to_vec()));
    }
}
