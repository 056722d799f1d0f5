//! The version set: current [`Version`], MANIFEST persistence, and
//! file-number / sequence-number allocation.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

use shield_core::{perf, PerfMetric};
use shield_crypto::DekId;
use shield_env::{Env, FileKind};

use crate::error::{Error, Result};
use crate::files::FileStore;
use crate::version::edit::VersionEdit;
use crate::version::filenames::{current_file_name, manifest_file_name};
use crate::version::table_cache::TableCache;
use crate::version::tailer::{EditApplier, ManifestPoll, ManifestTailer};
use crate::version::version::Version;
use crate::wal::LogWriter;

/// Owns the mutable metadata state of a database.
pub struct VersionSet {
    files: FileStore,
    path: String,
    table_cache: Arc<TableCache>,
    current: Arc<Version>,
    /// Superseded versions that may still be pinned by in-flight readers
    /// (a `get`/iterator clones the current `Arc<Version>` and then reads
    /// its files without the state lock). Obsolete-file deletion must
    /// treat their files as live until the last reader drops its pin.
    retired: Vec<Weak<Version>>,
    manifest: Option<LogWriter>,
    manifest_number: u64,
    next_file_number: u64,
    last_sequence: u64,
    log_number: u64,
    /// DEK ids of encrypted SSTs that edits have dropped from the tree,
    /// kept until obsolete-file collection revokes them: once no version
    /// names a file, this is the only record of its key short of opening
    /// the file to read its header.
    obsolete_deks: HashMap<u64, DekId>,
}

impl VersionSet {
    /// Creates an empty, not-yet-recovered version set over the tree in
    /// `path`.
    #[must_use]
    pub fn new(files: FileStore, path: String, table_cache: Arc<TableCache>) -> Self {
        VersionSet {
            files,
            path,
            table_cache,
            current: Arc::new(Version::new()),
            retired: Vec::new(),
            manifest: None,
            manifest_number: 0,
            next_file_number: 1,
            last_sequence: 0,
            log_number: 0,
            obsolete_deks: HashMap::new(),
        }
    }

    /// The current version.
    #[must_use]
    pub fn current(&self) -> Arc<Version> {
        self.current.clone()
    }

    /// The table cache shared with readers.
    #[must_use]
    pub fn table_cache(&self) -> Arc<TableCache> {
        self.table_cache.clone()
    }

    /// Allocates a fresh file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Keeps allocation above `number`: a file found on disk that this
    /// set's manifest may not have heard of (a WAL segment at recovery).
    pub fn mark_file_number_used(&mut self, number: u64) {
        self.next_file_number = self.next_file_number.max(number + 1);
    }

    /// Last sequence number assigned to a write.
    #[must_use]
    pub fn last_sequence(&self) -> u64 {
        self.last_sequence
    }

    /// Updates the last sequence number (monotonic).
    pub fn set_last_sequence(&mut self, seq: u64) {
        debug_assert!(seq >= self.last_sequence);
        self.last_sequence = seq;
    }

    /// The WAL number new writes go to.
    #[must_use]
    pub fn log_number(&self) -> u64 {
        self.log_number
    }

    /// The manifest file number currently in use.
    #[must_use]
    pub fn manifest_number(&self) -> u64 {
        self.manifest_number
    }

    /// True if a database exists at this path (a CURRENT file is present).
    #[must_use]
    pub fn db_exists(env: &dyn Env, path: &str) -> bool {
        env.file_exists(&shield_env::join_path(path, &current_file_name()))
    }

    /// Initializes a brand-new database: writes an initial manifest and the
    /// CURRENT pointer.
    pub fn create_new(&mut self) -> Result<()> {
        self.log_number = 0;
        self.roll_manifest()
    }

    /// Recovers state from the CURRENT → MANIFEST chain, then rolls to a
    /// fresh manifest (so recovery always leaves a compact snapshot).
    ///
    /// Runs on the same [`ManifestTailer`]/[`EditApplier`] pair as live
    /// replica catch-up: recovery is one drain of the incremental replay
    /// engine over a manifest that can no longer grow. A torn final edit
    /// is the normal crash aftermath — it is dropped here (the roll below
    /// rewrites a clean snapshot), where a live tailer would instead hold
    /// position and retry.
    pub fn recover(&mut self) -> Result<()> {
        let mut tailer = ManifestTailer::open(&self.files, &self.path)?;
        let mut applier = EditApplier::new();
        loop {
            match tailer.poll()? {
                ManifestPoll::Edit(edit) => applier.apply(&edit),
                // CURRENT cannot move under a one-shot recovery (we are
                // the only writer), but follow it all the same.
                ManifestPoll::Rollover => applier.reset(),
                ManifestPoll::Pending(_) => break,
            }
        }
        self.current = Arc::new(applier.version());
        self.next_file_number = self.next_file_number.max(applier.next_file_number());
        self.last_sequence = self.last_sequence.max(applier.last_sequence());
        self.log_number = self.log_number.max(applier.log_number());
        // Keep allocation above every file we have seen.
        let max_seen = self.current.live_files().into_iter().max().unwrap_or(0);
        self.next_file_number = self.next_file_number.max(max_seen + 1);
        // Roll to a fresh manifest and retire the old one.
        let old_manifest =
            shield_env::join_path(&self.path, tailer.manifest_name());
        self.roll_manifest()?;
        self.files.retire(&old_manifest, FileKind::Manifest, None);
        Ok(())
    }

    /// Starts a new manifest containing a full snapshot of current state,
    /// then repoints CURRENT at it.
    fn roll_manifest(&mut self) -> Result<()> {
        let number = self.new_file_number();
        let name = manifest_file_name(number);
        let manifest_path = shield_env::join_path(&self.path, &name);
        let mut writer = self.files.create_log(&manifest_path, FileKind::Manifest)?;
        // Snapshot edit.
        let mut snapshot = VersionEdit {
            log_number: Some(self.log_number),
            next_file_number: Some(self.next_file_number),
            last_sequence: Some(self.last_sequence),
            ..VersionEdit::default()
        };
        for (level, files) in self.current.files.iter().enumerate() {
            for f in files {
                snapshot.new_files.push((level as u32, (**f).clone()));
            }
        }
        writer.add_record(&snapshot.encode())?;
        writer.sync()?;
        self.manifest = Some(writer);
        self.manifest_number = number;
        shield_env::write_file_atomic(
            self.files.env.as_ref(),
            &shield_env::join_path(&self.path, &current_file_name()),
            FileKind::Manifest,
            name.as_bytes(),
        )?;
        Ok(())
    }

    /// Appends `edit` to the manifest and installs the resulting version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version>> {
        match edit.log_number {
            None => edit.log_number = Some(self.log_number),
            Some(n) => self.log_number = n,
        }
        edit.next_file_number = Some(self.next_file_number);
        edit.last_sequence = Some(self.last_sequence);
        let writer = self.manifest.as_mut().ok_or(Error::Shutdown)?;
        writer.add_record(&edit.encode())?;
        let t = perf::timer();
        let synced = writer.sync();
        perf::add_elapsed(PerfMetric::ManifestSync, t);
        synced?;
        let mut applier = EditApplier::from_version((*self.current).clone());
        applier.apply(&edit);
        let next = Arc::new(applier.version());
        for (level, number) in &edit.deleted_files {
            let dropped = self.current.files.get(*level as usize).into_iter().flatten();
            if let Some(dek_id) = dropped.filter(|f| f.number == *number).find_map(|f| f.dek_id) {
                self.obsolete_deks.insert(*number, dek_id);
            }
        }
        self.retired.push(Arc::downgrade(&self.current));
        self.current = next.clone();
        Ok(next)
    }

    /// File numbers referenced by the current version or by any
    /// superseded version an in-flight reader still pins. Dropped pins
    /// are pruned as a side effect; their files count as live until the
    /// next call, so deletion is at worst deferred, never premature.
    pub fn referenced_files(&mut self) -> HashSet<u64> {
        let mut live: HashSet<u64> = self.current.live_files().into_iter().collect();
        self.retired.retain(|weak| {
            weak.upgrade().is_some_and(|version| {
                live.extend(version.live_files());
                true
            })
        });
        live
    }

    /// Hands over (and forgets) the DEK id recorded when an edit dropped
    /// encrypted SST `number`; `None` for plaintext files and for files no
    /// edit of this process dropped.
    pub fn take_obsolete_dek(&mut self, number: u64) -> Option<DekId> {
        self.obsolete_deks.remove(&number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{make_internal_key, ValueType};
    use crate::encryption::EncryptionConfig;
    use crate::integrity::{Integrity, IntegrityOptions};
    use crate::version::edit::FileMeta;
    use shield_env::MemEnv;

    fn meta(number: u64, lo: &str, hi: &str) -> FileMeta {
        FileMeta {
            number,
            file_size: 100,
            smallest: make_internal_key(lo.as_bytes(), 1, ValueType::Value),
            largest: make_internal_key(hi.as_bytes(), 1, ValueType::Value),
            dek_id: None,
        }
    }

    fn set_over(files: FileStore) -> VersionSet {
        let tc = TableCache::new(files.clone(), "db".into(), None, 8, 0);
        VersionSet::new(files, "db".into(), tc)
    }

    fn new_set(env: &MemEnv) -> VersionSet {
        set_over(FileStore::new(Arc::new(env.clone()), None, IntegrityOptions::default()))
    }

    #[test]
    fn create_and_apply_edits() {
        let env = MemEnv::new();
        let mut vs = new_set(&env);
        vs.create_new().unwrap();
        assert!(VersionSet::db_exists(&env, "db"));
        let edit = VersionEdit {
            new_files: vec![(0, meta(10, "a", "m")), (0, meta(11, "n", "z"))],
            ..VersionEdit::default()
        };
        let v = vs.log_and_apply(edit).unwrap();
        assert_eq!(v.level_files(0), 2);
        // L0 newest first.
        assert_eq!(v.files[0][0].number, 11);
    }

    #[test]
    fn recover_replays_manifest() {
        let env = MemEnv::new();
        {
            let mut vs = new_set(&env);
            vs.create_new().unwrap();
            vs.set_last_sequence(500);
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(10, "a", "m"))],
                log_number: Some(7),
                ..VersionEdit::default()
            })
            .unwrap();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(11, "n", "z"))],
                deleted_files: vec![(1, 10)],
                ..VersionEdit::default()
            })
            .unwrap();
        }
        let mut vs = new_set(&env);
        vs.recover().unwrap();
        let v = vs.current();
        assert_eq!(v.level_files(1), 1);
        assert_eq!(v.files[1][0].number, 11);
        assert_eq!(vs.last_sequence(), 500);
        assert_eq!(vs.log_number(), 7);
        // File numbers keep increasing after recovery.
        assert!(vs.new_file_number() > 11);
    }

    #[test]
    fn recover_rolls_manifest() {
        let env = MemEnv::new();
        let first_manifest;
        {
            let mut vs = new_set(&env);
            vs.create_new().unwrap();
            first_manifest = manifest_file_name(vs.manifest_number());
        }
        {
            let mut vs = new_set(&env);
            vs.recover().unwrap();
            let second = manifest_file_name(vs.manifest_number());
            assert_ne!(first_manifest, second);
            // Old manifest removed.
            assert!(!env.file_exists(&shield_env::join_path("db", &first_manifest)));
        }
    }

    #[test]
    fn levels_stay_sorted() {
        let env = MemEnv::new();
        let mut vs = new_set(&env);
        vs.create_new().unwrap();
        let v = vs
            .log_and_apply(VersionEdit {
                new_files: vec![(2, meta(20, "x", "z")), (2, meta(21, "a", "c"))],
                ..VersionEdit::default()
            })
            .unwrap();
        assert_eq!(v.files[2][0].number, 21); // "a" range sorts first
    }

    #[test]
    fn hmac_manifest_roundtrip_and_replay_detection() {
        let env = MemEnv::new();
        let opts = IntegrityOptions { mode: Integrity::Hmac, key: [9u8; 32] };
        let new_set = |env: &MemEnv| set_over(FileStore::new(Arc::new(env.clone()), None, opts));
        {
            let mut vs = new_set(&env);
            vs.create_new().unwrap();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(10, "a", "z"))],
                ..VersionEdit::default()
            })
            .unwrap();
        }
        let manifest;
        {
            let mut vs = new_set(&env);
            vs.recover().unwrap();
            assert_eq!(vs.current().level_files(1), 1);
            manifest = manifest_file_name(vs.manifest_number());
        }
        // Replay attack: append a copy of the manifest's records. Every
        // CRC stays valid; the fragment counters do not.
        let path = shield_env::join_path("db", &manifest);
        let mut raw = env.raw_content(&path).unwrap();
        assert_eq!(&raw[..8], b"SHLDLOG2");
        let dup = raw[crate::wal::LOG_PREAMBLE_LEN..].to_vec();
        raw.extend_from_slice(&dup);
        env.set_raw_content(&path, raw).unwrap();
        let mut vs = new_set(&env);
        let err = vs.recover().unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation(_)), "got {err:?}");
    }

    #[test]
    fn encrypted_manifest_roundtrip() {
        use shield_crypto::Algorithm;
        use shield_kds::{DekResolver, KdsConfig, LocalKds, ServerId};

        let env = MemEnv::new();
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let resolver =
            Arc::new(DekResolver::new(kds, None, ServerId(1), Algorithm::Aes128Ctr));
        let cfg = EncryptionConfig::new(resolver);
        let files =
            FileStore::new(Arc::new(env.clone()), Some(cfg), IntegrityOptions::default());
        {
            let mut vs = set_over(files.clone());
            vs.create_new().unwrap();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(10, "secretkey-a", "secretkey-z"))],
                ..VersionEdit::default()
            })
            .unwrap();
            // Manifest on disk must not leak key-range plaintext.
            let name = manifest_file_name(vs.manifest_number());
            let raw = env.raw_content(&shield_env::join_path("db", &name)).unwrap();
            assert!(!raw.windows(9).any(|w| w == b"secretkey"));
        }
        let mut vs = set_over(files);
        vs.recover().unwrap();
        assert_eq!(vs.current().level_files(1), 1);
    }
}
