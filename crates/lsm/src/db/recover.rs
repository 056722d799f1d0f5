//! Crash recovery: replays the WAL segments the trees' manifests still
//! need into per-tree recovery memtables and flushes those to L0, each a
//! flush counted and announced as a background one is.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use shield_core::Event;
use shield_env::FileKind;

use crate::db::batch::WriteBatch;
use crate::db::db::DbInner;
use crate::db::metrics::OpKind;
use crate::error::Result;
use crate::memtable::MemTable;
use crate::version::edit::VersionEdit;
use crate::version::filenames::{parse_file_name, wal_file_name, FileType};
use crate::wal::TailPoll;

impl DbInner {
    /// Replays every WAL segment at or above the smallest log number any
    /// tree's manifest records, routing each entry to its tree — unless
    /// the segment is below *that* tree's log number, in which case the
    /// tree already holds the entry in an SST. A write group is one
    /// record, so a group torn by the crash is dropped whole, on every
    /// tree. Returns the number of segments replayed.
    pub(super) fn recover_wals(&self) -> Result<u64> {
        let names = self.files.env.list_dir(&self.path)?;
        let mut wals: Vec<u64> = names
            .iter()
            .filter_map(|n| match parse_file_name(n) {
                Some(FileType::Wal(num)) => Some(num),
                _ => None,
            })
            .collect();
        wals.sort_unstable();
        let log_numbers: Vec<u64> =
            self.trees.iter().map(|tree| tree.state.lock().versions.log_number()).collect();
        let min_log = log_numbers.iter().copied().min().unwrap_or(0);
        let mut max_seq = self.last_sequence.load(Ordering::Relaxed);

        let mems: Vec<Arc<MemTable>> =
            self.trees.iter().map(|_| Arc::new(MemTable::new(0))).collect();
        let mut replayed = 0u64;
        for &number in wals.iter().filter(|n| **n >= min_log) {
            replayed += 1;
            let path = shield_env::join_path(&self.path, &wal_file_name(number));
            // The same resumable tailer a live replica polls; recovery is
            // one drain over a segment that can no longer grow, so any
            // `Pending` tail is the crash aftermath and ends the replay.
            let mut tailer = self.files.open_log(&path, FileKind::Wal, number)?;
            loop {
                match tailer.poll()? {
                    TailPoll::Record(record) => {
                        let batch = WriteBatch::from_data(&record)?;
                        batch.for_each(|seq, vtype, key, value| {
                            let t = self.router.shard_of(key);
                            if number >= log_numbers[t] {
                                mems[t].add(seq, vtype, key, value);
                            }
                        })?;
                        max_seq = max_seq.max(batch.sequence() + u64::from(batch.count()) - 1);
                    }
                    TailPoll::Pending(_) => {
                        tailer.assume_legacy();
                        break;
                    }
                }
            }
            // Legacy segments replay as-is but count as unprotected
            // under Hmac.
            if self.opts.integrity.mode == crate::integrity::Integrity::Hmac && tailer.is_legacy() {
                self.files.stats.integrity_unprotected_files.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.last_sequence.store(max_seq, Ordering::Release);
        // Segment numbers are tree 0's file numbers; a crash can leave
        // segments its manifest never heard of.
        if let Some(&newest) = wals.last() {
            self.trees[0].state.lock().versions.mark_file_number_used(newest);
        }
        for (tree, mem) in self.trees.iter().zip(&mems) {
            if mem.is_empty() {
                continue;
            }
            // A flush like the background one, on the opening thread: one
            // op, announced and credited once its edit installs.
            let op = self.op(OpKind::Flush);
            self.files.events.emit(&Event::FlushBegin { immutables: 1 });
            let mut state = tree.state.lock();
            let number = state.versions.new_file_number();
            state.pending_outputs.insert(number);
            // Build while holding the lock: open() is single-threaded.
            let output = self.write_level0_table(tree, mem, number)?;
            state.pending_outputs.remove(&number);
            let table = output.as_ref().map(|(_, meta)| (meta.number, meta.file_size));
            let edit = VersionEdit { new_files: output.into_iter().collect(), ..VersionEdit::default() };
            self.log_and_apply(&mut state, edit)?;
            drop(state);
            self.credit_flush(tree, table, op.finish().as_micros() as u64);
        }
        Ok(replayed)
    }
}
