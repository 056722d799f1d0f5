//! Incremental manifest replay: a resumable [`ManifestTailer`] over the
//! CURRENT → MANIFEST chain paired with an [`EditApplier`] that folds
//! [`VersionEdit`]s into a live file set.
//!
//! One-shot recovery ([`super::set::VersionSet::recover`]), read-only
//! opens, and live replica catch-up all run on this pair — replay is a
//! modular engine, not logic welded into `Db::open`. A torn edit at the
//! manifest tail surfaces as [`ManifestPoll::Pending`] with the byte
//! position held, so a live tailer retries from the same offset once the
//! primary finishes the write; a primary that rolled to a new manifest is
//! followed through CURRENT and reported as [`ManifestPoll::Rollover`].

use std::sync::Arc;

use shield_env::FileKind;

use crate::error::{Error, Result};
use crate::files::FileStore;
use crate::version::edit::{FileMeta, VersionEdit};
use crate::version::filenames::current_file_name;
use crate::version::version::{Version, NUM_LEVELS};
use crate::wal::{TailEnd, TailPoll, WalTailer};

/// Outcome of one [`ManifestTailer::poll`].
#[derive(Debug)]
pub enum ManifestPoll {
    /// The next manifest edit. Apply it to an [`EditApplier`].
    Edit(VersionEdit),
    /// The primary rolled to a new manifest; the tailer has reopened at
    /// its start. The new manifest leads with a full snapshot edit, so
    /// the consumer must [`EditApplier::reset`] before applying further
    /// edits.
    Rollover,
    /// No complete edit is available: the manifest ends here (so far).
    /// `TailEnd::Clean` is a clean record boundary; anything else means
    /// a torn or in-flight edit at the tail — consistent but possibly
    /// stale, retry after the primary finishes the write.
    Pending(TailEnd),
}

/// Resumable reader over a database's manifest chain. Holds its position
/// across polls (byte/fragment exact, via [`WalTailer`]) and follows
/// MANIFEST rollovers through the CURRENT pointer.
pub struct ManifestTailer {
    files: FileStore,
    path: String,
    manifest_name: String,
    tailer: WalTailer,
    rollovers: u64,
}

impl ManifestTailer {
    /// Opens the manifest CURRENT points at, positioned at its start.
    pub fn open(files: &FileStore, path: &str) -> Result<Self> {
        let name = read_current(files, path)?;
        let tailer = open_manifest(files, path, &name)?;
        Ok(ManifestTailer {
            files: files.clone(),
            path: path.to_string(),
            manifest_name: name,
            tailer,
            rollovers: 0,
        })
    }

    /// Name of the manifest file currently being tailed.
    #[must_use]
    pub fn manifest_name(&self) -> &str {
        &self.manifest_name
    }

    /// Rollovers followed so far.
    #[must_use]
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }

    /// Pulls the next manifest edit, follows a rollover, or reports that
    /// the tail holds nothing further yet.
    pub fn poll(&mut self) -> Result<ManifestPoll> {
        match self.tailer.poll()? {
            TailPoll::Record(record) => Ok(ManifestPoll::Edit(VersionEdit::decode(&record)?)),
            TailPoll::Pending(end) => {
                // The tail may be quiet because the primary rolled to a
                // new manifest (recovery and compaction both do): follow
                // the CURRENT pointer. A deleted-but-held old manifest
                // simply stops growing, so this is the only signal.
                let name = read_current(&self.files, &self.path)?;
                if name != self.manifest_name {
                    self.tailer = open_manifest(&self.files, &self.path, &name)?;
                    self.manifest_name = name;
                    self.rollovers += 1;
                    return Ok(ManifestPoll::Rollover);
                }
                Ok(ManifestPoll::Pending(end))
            }
        }
    }
}

/// Opens manifest `name` of the database in `path` at its start.
fn open_manifest(files: &FileStore, path: &str, name: &str) -> Result<WalTailer> {
    files.open_log(&shield_env::join_path(path, name), FileKind::Manifest, manifest_number(name))
}

/// The manifest's file number (0 if the name does not parse).
fn manifest_number(name: &str) -> u64 {
    match crate::version::filenames::parse_file_name(name) {
        Some(crate::version::filenames::FileType::Manifest(n)) => n,
        _ => 0,
    }
}

/// Reads and validates the CURRENT pointer.
fn read_current(files: &FileStore, path: &str) -> Result<String> {
    let current_path = shield_env::join_path(path, &current_file_name());
    let name = shield_env::read_file_to_vec(files.env.as_ref(), &current_path, FileKind::Manifest)?;
    let name =
        String::from_utf8(name).map_err(|_| Error::Corruption("CURRENT not utf-8".into()))?;
    Ok(name.trim().to_string())
}

/// Folds [`VersionEdit`]s into a live file set, maintaining the level
/// ordering invariants and tracking the metadata high-water marks
/// (`next_file_number` / `last_sequence` / `log_number`) the edits carry.
///
/// This is the single edit-application engine: primary recovery, manifest
/// appends (`log_and_apply`), read-only opens, and replica catch-up all
/// fold through it.
pub struct EditApplier {
    files: Vec<Vec<Arc<FileMeta>>>,
    next_file_number: u64,
    last_sequence: u64,
    log_number: u64,
    edits_applied: u64,
}

impl Default for EditApplier {
    fn default() -> Self {
        Self::new()
    }
}

impl EditApplier {
    /// An applier over an empty file set.
    #[must_use]
    pub fn new() -> Self {
        Self::from_version(Version::new())
    }

    /// An applier seeded with an existing version's files.
    #[must_use]
    pub fn from_version(base: Version) -> Self {
        let mut files = base.files;
        files.resize(NUM_LEVELS, Vec::new());
        EditApplier {
            files,
            next_file_number: 0,
            last_sequence: 0,
            log_number: 0,
            edits_applied: 0,
        }
    }

    /// Applies one edit: deletions, additions, metadata high-water marks.
    pub fn apply(&mut self, edit: &VersionEdit) {
        if let Some(v) = edit.next_file_number {
            self.next_file_number = self.next_file_number.max(v);
        }
        if let Some(v) = edit.last_sequence {
            self.last_sequence = self.last_sequence.max(v);
        }
        if let Some(v) = edit.log_number {
            self.log_number = self.log_number.max(v);
        }
        for (level, number) in &edit.deleted_files {
            let level = *level as usize;
            if level < self.files.len() {
                self.files[level].retain(|f| f.number != *number);
            }
        }
        for (level, meta) in &edit.new_files {
            let level = *level as usize;
            if level < self.files.len() {
                self.files[level].push(Arc::new(meta.clone()));
            }
        }
        self.edits_applied += 1;
    }

    /// Drops the file set ahead of a manifest rollover: the new manifest
    /// leads with a full snapshot edit, so applying it onto the old set
    /// would duplicate every file. The metadata high-water marks stay —
    /// they are monotonic across rollovers.
    pub fn reset(&mut self) {
        for level in &mut self.files {
            level.clear();
        }
    }

    /// Builds the version for the current file set. Repeatable: the
    /// applier keeps accepting edits afterwards (a live replica builds a
    /// fresh version after every catch-up round).
    #[must_use]
    pub fn version(&self) -> Version {
        let mut files = self.files.clone();
        // L0: newest (highest number) first. L1+: by smallest key.
        files[0].sort_by_key(|f| std::cmp::Reverse(f.number));
        for level in files.iter_mut().skip(1) {
            level.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        }
        Version { files }
    }

    /// Highest `next_file_number` any applied edit carried.
    #[must_use]
    pub fn next_file_number(&self) -> u64 {
        self.next_file_number
    }

    /// Highest `last_sequence` any applied edit carried.
    #[must_use]
    pub fn last_sequence(&self) -> u64 {
        self.last_sequence
    }

    /// Highest `log_number` any applied edit carried: WALs below this
    /// are fully covered by flushed SSTs.
    #[must_use]
    pub fn log_number(&self) -> u64 {
        self.log_number
    }

    /// Edits folded in so far (snapshot edits included).
    #[must_use]
    pub fn edits_applied(&self) -> u64 {
        self.edits_applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::IntegrityOptions;
    use crate::types::{make_internal_key, ValueType};
    use crate::version::set::VersionSet;
    use crate::version::table_cache::TableCache;
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

    fn store(env: &MemEnv) -> FileStore {
        FileStore::new(Arc::new(env.clone()), None, IntegrityOptions::default())
    }

    fn new_set(env: &MemEnv) -> VersionSet {
        let tc = TableCache::new(store(env), "db".into(), None, 8, 0);
        VersionSet::new(store(env), "db".into(), tc)
    }

    #[test]
    fn tails_live_manifest_edits() {
        let env = MemEnv::new();
        let mut vs = new_set(&env);
        vs.create_new().unwrap();

        let mut tailer = ManifestTailer::open(&store(&env), "db").unwrap();
        let mut applier = EditApplier::new();
        // Drain the initial snapshot.
        loop {
            match tailer.poll().unwrap() {
                ManifestPoll::Edit(e) => applier.apply(&e),
                ManifestPoll::Pending(TailEnd::Clean) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(applier.version().level_files(1), 0);

        // Primary appends an edit; the tailer picks it up incrementally.
        vs.log_and_apply(VersionEdit {
            new_files: vec![(1, meta(10, "a", "m"))],
            ..VersionEdit::default()
        })
        .unwrap();
        let ManifestPoll::Edit(e) = tailer.poll().unwrap() else {
            panic!("expected edit")
        };
        applier.apply(&e);
        assert!(matches!(
            tailer.poll().unwrap(),
            ManifestPoll::Pending(TailEnd::Clean)
        ));
        assert_eq!(applier.version().level_files(1), 1);

        vs.log_and_apply(VersionEdit {
            new_files: vec![(1, meta(11, "n", "z"))],
            deleted_files: vec![(1, 10)],
            ..VersionEdit::default()
        })
        .unwrap();
        let ManifestPoll::Edit(e) = tailer.poll().unwrap() else {
            panic!("expected edit")
        };
        applier.apply(&e);
        let v = applier.version();
        assert_eq!(v.level_files(1), 1);
        assert_eq!(v.files[1][0].number, 11);
        assert!(applier.edits_applied() >= 3);
    }

    #[test]
    fn follows_manifest_rollover() {
        let env = MemEnv::new();
        {
            let mut vs = new_set(&env);
            vs.create_new().unwrap();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(10, "a", "m"))],
                ..VersionEdit::default()
            })
            .unwrap();
        }
        let mut tailer = ManifestTailer::open(&store(&env), "db").unwrap();
        let mut applier = EditApplier::new();
        loop {
            match tailer.poll().unwrap() {
                ManifestPoll::Edit(e) => applier.apply(&e),
                ManifestPoll::Pending(_) => break,
                ManifestPoll::Rollover => panic!("no rollover yet"),
            }
        }
        assert_eq!(applier.version().level_files(1), 1);
        let first = tailer.manifest_name().to_string();

        // A reopening primary rolls the manifest (and deletes the old
        // one). The tailer must follow CURRENT and re-apply the snapshot
        // onto a reset applier without duplicating files.
        {
            let mut vs = new_set(&env);
            vs.recover().unwrap();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(2, meta(20, "a", "z"))],
                ..VersionEdit::default()
            })
            .unwrap();
        }
        let mut saw_rollover = false;
        loop {
            match tailer.poll().unwrap() {
                ManifestPoll::Edit(e) => applier.apply(&e),
                ManifestPoll::Rollover => {
                    saw_rollover = true;
                    applier.reset();
                }
                ManifestPoll::Pending(_) => break,
            }
        }
        assert!(saw_rollover);
        assert_eq!(tailer.rollovers(), 1);
        assert_ne!(tailer.manifest_name(), first);
        let v = applier.version();
        assert_eq!(v.level_files(1), 1, "snapshot must not duplicate");
        assert_eq!(v.level_files(2), 1);
    }

    #[test]
    fn torn_tail_edit_retries_from_same_offset() {
        let env = MemEnv::new();
        let mut vs = new_set(&env);
        vs.create_new().unwrap();
        let manifest = shield_env::join_path(
            "db",
            &crate::version::filenames::manifest_file_name(vs.manifest_number()),
        );
        let complete = env.raw_content(&manifest).unwrap();

        let mut tailer = ManifestTailer::open(&store(&env), "db").unwrap();
        let mut applier = EditApplier::new();
        loop {
            match tailer.poll().unwrap() {
                ManifestPoll::Edit(e) => applier.apply(&e),
                ManifestPoll::Pending(TailEnd::Clean) => break,
                other => panic!("unexpected {other:?}"),
            }
        }

        // Append an edit, then tear its last bytes off: the tailer must
        // report an incomplete (not clean) tail and hold position.
        vs.log_and_apply(VersionEdit {
            new_files: vec![(1, meta(10, "a", "m"))],
            ..VersionEdit::default()
        })
        .unwrap();
        let full = env.raw_content(&manifest).unwrap();
        assert!(full.len() > complete.len());
        env.set_raw_content(&manifest, full[..full.len() - 3].to_vec()).unwrap();
        assert!(matches!(
            tailer.poll().unwrap(),
            ManifestPoll::Pending(TailEnd::Incomplete)
        ));
        assert_eq!(applier.version().level_files(1), 0, "torn edit must not apply");

        // The primary finishes the write; the same poll loop resumes.
        env.set_raw_content(&manifest, full).unwrap();
        let ManifestPoll::Edit(e) = tailer.poll().unwrap() else {
            panic!("expected completed edit")
        };
        applier.apply(&e);
        assert_eq!(applier.version().level_files(1), 1);
    }
}
