//! Fault-injection environment, modelled on RocksDB's `FaultInjectionTestFS`.
//!
//! [`FaultInjectionEnv`] wraps any [`Env`] and injects programmable faults
//! at the storage boundary, keyed by ([`FileKind`], [`FaultOp`]):
//!
//! * **error-once / error-N-times** — the next N matching operations fail,
//! * **error-with-probability** — each matching operation fails with
//!   probability `p`, driven by a caller-seeded deterministic RNG so a
//!   failing schedule replays exactly,
//! * **torn writes** — an `append` persists only a prefix of its payload
//!   before failing, modelling a power cut mid-write,
//! * **delays** — the next N (or all) matching operations sleep for a
//!   configured duration and then proceed *normally*, modelling a slow
//!   or hung storage link (the trace/watchdog tier drives slow-op
//!   capture and stall detection with these),
//! * **crash()** — drops all data appended since the last successful
//!   `sync` on every file written through this env: the engine's one
//!   system-crash model, over any backing env. Files the inner env wrote
//!   before it was wrapped are not tracked and survive whole.
//!
//! Every injected fault is counted in [`FaultStats`], surfaced through
//! [`Env::fault_stats`] so higher layers (the DB statistics mirror, the
//! torture harness) can observe exactly what was injected. The wrapper
//! composes: `RemoteEnv::new(Arc::new(FaultInjectionEnv::new(mem)), …)`
//! yields a faulty disaggregated store.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use shield_core::{Event, EventListener};

use crate::{
    read_file_to_vec, Env, EnvError, EnvResult, FileKind, IoStats, RandomAccessFile, ReadRequest,
    SequentialFile, WritableFile,
};

/// Storage operations that fault rules can target.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultOp {
    /// Opening a file, any mode (`new_writable_file`, `new_random_access_file`,
    /// `new_sequential_file`).
    Open,
    /// Reading (`read_at` on random-access files, `read` on sequential files).
    Read,
    /// Appending to a writable file.
    Append,
    /// Flushing a writable file's application buffer.
    Flush,
    /// Syncing a writable file to durable storage.
    Sync,
    /// Renaming a file.
    Rename,
    /// Removing a file.
    Remove,
    /// Listing a directory.
    List,
}

impl FaultOp {
    /// All variants, for iterating stats tables.
    pub const ALL: [FaultOp; 8] = [
        FaultOp::Open,
        FaultOp::Read,
        FaultOp::Append,
        FaultOp::Flush,
        FaultOp::Sync,
        FaultOp::Rename,
        FaultOp::Remove,
        FaultOp::List,
    ];

    /// Index into per-op stat arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultOp::Open => 0,
            FaultOp::Read => 1,
            FaultOp::Append => 2,
            FaultOp::Flush => 3,
            FaultOp::Sync => 4,
            FaultOp::Rename => 5,
            FaultOp::Remove => 6,
            FaultOp::List => 7,
        }
    }

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultOp::Open => "open",
            FaultOp::Read => "read",
            FaultOp::Append => "append",
            FaultOp::Flush => "flush",
            FaultOp::Sync => "sync",
            FaultOp::Rename => "rename",
            FaultOp::Remove => "remove",
            FaultOp::List => "list",
        }
    }
}

const N_OPS: usize = FaultOp::ALL.len();

/// Deterministic RNG for probabilistic rules (SplitMix64).
#[derive(Clone, Copy, Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed ^ 0x9e3779b97f4a7c15 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How an armed rule decides whether the next matching operation fails.
enum Mode {
    /// Fail the next `remaining` matching operations, then disarm.
    Times { remaining: u32 },
    /// Fail each matching operation with probability `p` (deterministic).
    Probability { p: f64, rng: SplitMix64 },
}

struct Rule {
    mode: Mode,
    /// Error template cloned into each injected failure.
    error: EnvError,
    /// For `Append` rules: persist a prefix of the payload before failing
    /// (a torn write) instead of failing cleanly.
    torn: bool,
}

impl Rule {
    /// Returns the error to inject for one matching operation, if any.
    /// Mutates the rule (decrements counters, advances the RNG).
    fn check(&mut self) -> Option<EnvError> {
        let fire = match &mut self.mode {
            Mode::Times { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    true
                } else {
                    false
                }
            }
            Mode::Probability { p, rng } => rng.unit_f64() < *p,
        };
        fire.then(|| self.error.clone())
    }

    fn exhausted(&self) -> bool {
        matches!(self.mode, Mode::Times { remaining: 0 })
    }
}

/// How long a delay rule keeps firing.
enum DelayBudget {
    /// Delay the next `remaining` matching operations, then disarm.
    Times { remaining: u32 },
    /// Delay every matching operation until explicitly cleared.
    Always,
}

struct DelayRule {
    delay: Duration,
    budget: DelayBudget,
}

impl DelayRule {
    /// Returns the sleep to apply for one matching operation, if any.
    fn check(&mut self) -> Option<Duration> {
        match &mut self.budget {
            DelayBudget::Times { remaining } => {
                if *remaining > 0 {
                    *remaining -= 1;
                    Some(self.delay)
                } else {
                    None
                }
            }
            DelayBudget::Always => Some(self.delay),
        }
    }

    fn exhausted(&self) -> bool {
        matches!(self.budget, DelayBudget::Times { remaining: 0 })
    }
}

/// Counters for every fault this env has injected.
#[derive(Default)]
pub struct FaultStats {
    injected: [AtomicU64; N_OPS],
    torn_writes: AtomicU64,
    crashes: AtomicU64,
    lost_bytes: AtomicU64,
    delays: AtomicU64,
}

impl FaultStats {
    /// Takes a point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> FaultStatsSnapshot {
        let mut injected = [0u64; N_OPS];
        for (slot, counter) in injected.iter_mut().zip(self.injected.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        FaultStatsSnapshot {
            injected,
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            lost_bytes: self.lost_bytes.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Injected error count per [`FaultOp`] (indexed by [`FaultOp::index`]).
    pub injected: [u64; N_OPS],
    /// Appends that persisted only a prefix before failing.
    pub torn_writes: u64,
    /// Simulated system crashes ([`FaultInjectionEnv::crash`] calls).
    pub crashes: u64,
    /// Bytes of unsynced data dropped by crashes.
    pub lost_bytes: u64,
    /// Operations slowed by an armed delay rule (they then succeeded
    /// normally — delays are not errors and do not count as injected).
    pub delays: u64,
}

impl FaultStatsSnapshot {
    /// Injected error count for one operation.
    #[must_use]
    pub fn injected_for(&self, op: FaultOp) -> u64 {
        self.injected[op.index()]
    }

    /// Total injected errors across all operations.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// Synced-watermark bookkeeping for one file written through this env.
struct Track {
    kind: FileKind,
    synced_len: u64,
}

struct FaultState {
    rules: Mutex<HashMap<(usize, usize), Rule>>,
    delays: Mutex<HashMap<(usize, usize), DelayRule>>,
    files: Mutex<HashMap<String, Track>>,
    stats: FaultStats,
    listener: Mutex<Option<Arc<dyn EventListener>>>,
}

thread_local! {
    /// Suppresses fault events fired *by* an event sink's own I/O (the
    /// `LOG` file is written through this very env), which would
    /// otherwise recurse emit → append → check → emit.
    static EMITTING_FAULT_EVENT: Cell<bool> = const { Cell::new(false) };
}

impl FaultState {
    /// Checks the rule slot for (kind, op); returns an error to inject.
    fn check(&self, kind: FileKind, op: FaultOp) -> Option<EnvError> {
        let fired = {
            let mut rules = self.rules.lock();
            let rule = rules.get_mut(&(kind.index(), op.index()))?;
            // Torn-write rules are handled by the writable wrapper, which
            // needs to persist a prefix first; plain `check` skips them.
            if rule.torn {
                return None;
            }
            let fired = rule.check();
            if rule.exhausted() {
                rules.remove(&(kind.index(), op.index()));
            }
            fired
        };
        if fired.is_some() {
            self.stats.injected[op.index()].fetch_add(1, Ordering::Relaxed);
            self.emit(op, kind, false);
        }
        fired
    }

    /// Checks for an armed torn-write rule on (kind, Append).
    fn check_torn(&self, kind: FileKind) -> Option<EnvError> {
        let key = (kind.index(), FaultOp::Append.index());
        let fired = {
            let mut rules = self.rules.lock();
            let rule = rules.get_mut(&key)?;
            if !rule.torn {
                return None;
            }
            let fired = rule.check();
            if rule.exhausted() {
                rules.remove(&key);
            }
            fired
        };
        if fired.is_some() {
            self.stats.injected[FaultOp::Append.index()].fetch_add(1, Ordering::Relaxed);
            self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            self.emit(FaultOp::Append, kind, true);
        }
        fired
    }

    /// Sleeps if a delay rule is armed for (kind, op). The sleep happens
    /// outside the map lock so concurrent operations on other files are
    /// not serialised behind an injected stall.
    fn maybe_delay(&self, kind: FileKind, op: FaultOp) {
        let key = (kind.index(), op.index());
        let delay = {
            let mut delays = self.delays.lock();
            let Some(rule) = delays.get_mut(&key) else { return };
            let fired = rule.check();
            if rule.exhausted() {
                delays.remove(&key);
            }
            fired
        };
        if let Some(d) = delay {
            self.stats.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(d);
        }
    }

    /// Reports an injected fault to the registered listener, outside the
    /// rules lock and guarded against the sink's own I/O re-entering.
    fn emit(&self, op: FaultOp, kind: FileKind, torn: bool) {
        if EMITTING_FAULT_EVENT.with(Cell::get) {
            return;
        }
        let listener = self.listener.lock().clone();
        if let Some(l) = listener {
            EMITTING_FAULT_EVENT.with(|e| e.set(true));
            l.on_event(&Event::FaultInjected { op: op.label(), file_kind: kind.label(), torn });
            EMITTING_FAULT_EVENT.with(|e| e.set(false));
        }
    }
}

/// An [`Env`] wrapper that injects programmable faults. See module docs.
#[derive(Clone)]
pub struct FaultInjectionEnv {
    inner: Arc<dyn Env>,
    state: Arc<FaultState>,
}

fn injected_error(kind: FileKind, op: FaultOp) -> EnvError {
    EnvError::Io(format!("injected {} fault on {}", op.label(), kind.label()))
}

impl FaultInjectionEnv {
    /// Wraps `inner` with no faults armed.
    #[must_use]
    pub fn new(inner: Arc<dyn Env>) -> Self {
        FaultInjectionEnv {
            inner,
            state: Arc::new(FaultState {
                rules: Mutex::new(HashMap::new()),
                delays: Mutex::new(HashMap::new()),
                files: Mutex::new(HashMap::new()),
                stats: FaultStats::default(),
                listener: Mutex::new(None),
            }),
        }
    }

    /// The wrapped env.
    #[must_use]
    pub fn inner(&self) -> &Arc<dyn Env> {
        &self.inner
    }

    fn arm(&self, kind: FileKind, op: FaultOp, rule: Rule) {
        self.state.rules.lock().insert((kind.index(), op.index()), rule);
    }

    /// Fails the next matching operation with a generic injected I/O error.
    pub fn error_once(&self, kind: FileKind, op: FaultOp) {
        self.error_n_times(kind, op, 1);
    }

    /// Fails the next `n` matching operations.
    pub fn error_n_times(&self, kind: FileKind, op: FaultOp, n: u32) {
        self.arm(kind, op, Rule {
            mode: Mode::Times { remaining: n },
            error: injected_error(kind, op),
            torn: false,
        });
    }

    /// Fails each matching operation with probability `p`, driven by a
    /// deterministic RNG seeded with `seed` (same seed ⇒ same schedule).
    pub fn error_with_probability(&self, kind: FileKind, op: FaultOp, p: f64, seed: u64) {
        self.arm(kind, op, Rule {
            mode: Mode::Probability { p, rng: SplitMix64::new(seed) },
            error: injected_error(kind, op),
            torn: false,
        });
    }

    /// The next `n` appends to `kind` files persist only the first half of
    /// their payload, then fail — a torn write.
    pub fn torn_write_n_times(&self, kind: FileKind, n: u32) {
        self.arm(kind, FaultOp::Append, Rule {
            mode: Mode::Times { remaining: n },
            error: EnvError::Io(format!("injected torn append on {}", kind.label())),
            torn: true,
        });
    }

    /// The next `n` matching operations sleep for `delay`, then proceed
    /// normally. Batched reads (`read_at_many`) count as one operation.
    pub fn delay_n_times(&self, kind: FileKind, op: FaultOp, delay: Duration, n: u32) {
        self.state.delays.lock().insert(
            (kind.index(), op.index()),
            DelayRule { delay, budget: DelayBudget::Times { remaining: n } },
        );
    }

    /// Every matching operation sleeps for `delay` until
    /// [`clear_delay`](Self::clear_delay) / [`disarm_all`](Self::disarm_all)
    /// — a persistently slow or hung link.
    pub fn delay_always(&self, kind: FileKind, op: FaultOp, delay: Duration) {
        self.state
            .delays
            .lock()
            .insert((kind.index(), op.index()), DelayRule { delay, budget: DelayBudget::Always });
    }

    /// Clears the delay rule for (kind, op), if any.
    pub fn clear_delay(&self, kind: FileKind, op: FaultOp) {
        self.state.delays.lock().remove(&(kind.index(), op.index()));
    }

    /// Clears the rule for (kind, op), if any.
    pub fn disarm(&self, kind: FileKind, op: FaultOp) {
        self.state.rules.lock().remove(&(kind.index(), op.index()));
    }

    /// Clears every armed rule, error and delay alike.
    pub fn disarm_all(&self) {
        self.state.rules.lock().clear();
        self.state.delays.lock().clear();
    }

    /// Fault counters so far.
    #[must_use]
    pub fn stats(&self) -> FaultStatsSnapshot {
        self.state.stats.snapshot()
    }

    /// Simulates a system crash: every file written through this env is
    /// truncated back to its last successfully synced length (0 if it was
    /// never synced). Writers still holding handles must be dropped first —
    /// appends after a crash would resurrect dropped bytes.
    ///
    /// Implemented generically (read back + rewrite through the inner env)
    /// so it works on any backing store, not just [`crate::MemEnv`].
    pub fn crash(&self) -> EnvResult<()> {
        self.state.stats.crashes.fetch_add(1, Ordering::Relaxed);
        let files: Vec<(String, FileKind, u64)> = {
            let files = self.state.files.lock();
            files
                .iter()
                .map(|(path, t)| (path.clone(), t.kind, t.synced_len))
                .collect()
        };
        for (path, kind, synced_len) in files {
            if !self.inner.file_exists(&path) {
                continue;
            }
            let content = read_file_to_vec(self.inner.as_ref(), &path, kind)?;
            if (content.len() as u64) <= synced_len {
                continue;
            }
            let keep = &content[..synced_len as usize];
            self.state
                .stats
                .lost_bytes
                .fetch_add(content.len() as u64 - synced_len, Ordering::Relaxed);
            let mut f = self.inner.new_writable_file(&path, kind)?;
            f.append(keep)?;
            f.flush()?;
            f.sync()?;
        }
        Ok(())
    }
}

struct FaultWritable {
    inner: Box<dyn WritableFile>,
    state: Arc<FaultState>,
    kind: FileKind,
    path: String,
}

impl WritableFile for FaultWritable {
    fn append(&mut self, data: &[u8]) -> EnvResult<()> {
        self.state.maybe_delay(self.kind, FaultOp::Append);
        if let Some(err) = self.state.check_torn(self.kind) {
            // Persist a prefix so recovery sees a half-written record.
            let torn = &data[..data.len() / 2];
            if !torn.is_empty() {
                self.inner.append(torn)?;
                let _ = self.inner.flush();
            }
            return Err(err);
        }
        if let Some(err) = self.state.check(self.kind, FaultOp::Append) {
            return Err(err);
        }
        self.inner.append(data)
    }

    fn flush(&mut self) -> EnvResult<()> {
        if let Some(err) = self.state.check(self.kind, FaultOp::Flush) {
            return Err(err);
        }
        self.inner.flush()
    }

    fn sync(&mut self) -> EnvResult<()> {
        self.state.maybe_delay(self.kind, FaultOp::Sync);
        if let Some(err) = self.state.check(self.kind, FaultOp::Sync) {
            return Err(err);
        }
        self.inner.sync()?;
        let mut files = self.state.files.lock();
        if let Some(track) = files.get_mut(&self.path) {
            track.synced_len = self.inner.len();
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct FaultReadable {
    inner: Arc<dyn RandomAccessFile>,
    state: Arc<FaultState>,
    kind: FileKind,
}

impl RandomAccessFile for FaultReadable {
    fn read_at(&self, offset: u64, len: usize) -> EnvResult<Bytes> {
        self.state.maybe_delay(self.kind, FaultOp::Read);
        if let Some(err) = self.state.check(self.kind, FaultOp::Read) {
            return Err(err);
        }
        self.inner.read_at(offset, len)
    }

    fn len(&self) -> EnvResult<u64> {
        self.inner.len()
    }

    fn read_at_many(&self, requests: &[ReadRequest]) -> Vec<EnvResult<Bytes>> {
        // Delays fire once per batch (one slow round-trip), while error
        // rules below stay per-request.
        self.state.maybe_delay(self.kind, FaultOp::Read);
        // Fault rules are consulted once per request, not once per batch,
        // so an armed `error_n_times(.., 1)` fails exactly one slot and
        // the survivors still ride the inner batch path.
        let mut out: Vec<EnvResult<Bytes>> = Vec::with_capacity(requests.len());
        out.resize_with(requests.len(), || Ok(Bytes::new()));
        let mut pass: Vec<usize> = Vec::with_capacity(requests.len());
        let mut pass_reqs: Vec<ReadRequest> = Vec::with_capacity(requests.len());
        for (i, r) in requests.iter().enumerate() {
            if let Some(err) = self.state.check(self.kind, FaultOp::Read) {
                out[i] = Err(err);
            } else {
                pass.push(i);
                pass_reqs.push(*r);
            }
        }
        for (slot, result) in pass.into_iter().zip(self.inner.read_at_many(&pass_reqs)) {
            out[slot] = result;
        }
        out
    }
}

struct FaultSequential {
    inner: Box<dyn SequentialFile>,
    state: Arc<FaultState>,
    kind: FileKind,
}

impl SequentialFile for FaultSequential {
    fn read(&mut self, buf: &mut [u8]) -> EnvResult<usize> {
        self.state.maybe_delay(self.kind, FaultOp::Read);
        if let Some(err) = self.state.check(self.kind, FaultOp::Read) {
            return Err(err);
        }
        self.inner.read(buf)
    }
}

impl Env for FaultInjectionEnv {
    fn new_writable_file(&self, path: &str, kind: FileKind) -> EnvResult<Box<dyn WritableFile>> {
        if let Some(err) = self.state.check(kind, FaultOp::Open) {
            return Err(err);
        }
        let inner = self.inner.new_writable_file(path, kind)?;
        // A writable open truncates, so any previous watermark resets.
        self.state
            .files
            .lock()
            .insert(path.to_string(), Track { kind, synced_len: 0 });
        Ok(Box::new(FaultWritable {
            inner,
            state: self.state.clone(),
            kind,
            path: path.to_string(),
        }))
    }

    fn new_random_access_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Arc<dyn RandomAccessFile>> {
        if let Some(err) = self.state.check(kind, FaultOp::Open) {
            return Err(err);
        }
        Ok(Arc::new(FaultReadable {
            inner: self.inner.new_random_access_file(path, kind)?,
            state: self.state.clone(),
            kind,
        }))
    }

    fn new_sequential_file(
        &self,
        path: &str,
        kind: FileKind,
    ) -> EnvResult<Box<dyn SequentialFile>> {
        if let Some(err) = self.state.check(kind, FaultOp::Open) {
            return Err(err);
        }
        Ok(Box::new(FaultSequential {
            inner: self.inner.new_sequential_file(path, kind)?,
            state: self.state.clone(),
            kind,
        }))
    }

    fn remove_file(&self, path: &str) -> EnvResult<()> {
        // The kind is unknown here; Remove rules match on the kind the file
        // was tracked with, falling back to Other for untracked files.
        let kind = self
            .state
            .files
            .lock()
            .get(path)
            .map_or(FileKind::Other, |t| t.kind);
        if let Some(err) = self.state.check(kind, FaultOp::Remove) {
            return Err(err);
        }
        self.state.maybe_delay(kind, FaultOp::Remove);
        self.state.files.lock().remove(path);
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &str, to: &str) -> EnvResult<()> {
        let kind = self
            .state
            .files
            .lock()
            .get(from)
            .map_or(FileKind::Other, |t| t.kind);
        if let Some(err) = self.state.check(kind, FaultOp::Rename) {
            return Err(err);
        }
        self.inner.rename(from, to)?;
        let mut files = self.state.files.lock();
        if let Some(track) = files.remove(from) {
            files.insert(to.to_string(), track);
        }
        Ok(())
    }

    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &str) -> EnvResult<u64> {
        self.inner.file_size(path)
    }

    fn list_dir(&self, dir: &str) -> EnvResult<Vec<String>> {
        if let Some(err) = self.state.check(FileKind::Other, FaultOp::List) {
            return Err(err);
        }
        self.inner.list_dir(dir)
    }

    fn create_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.create_dir_all(dir)
    }

    fn remove_dir_all(&self, dir: &str) -> EnvResult<()> {
        self.inner.remove_dir_all(dir)
    }

    fn io_stats(&self) -> Option<Arc<IoStats>> {
        self.inner.io_stats()
    }

    fn fault_stats(&self) -> Option<FaultStatsSnapshot> {
        Some(self.stats())
    }

    fn set_event_listener(&self, listener: Arc<dyn EventListener>) {
        *self.state.listener.lock() = Some(listener.clone());
        self.inner.set_event_listener(listener);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemEnv;

    fn faulty() -> (FaultInjectionEnv, MemEnv) {
        let mem = MemEnv::new();
        (FaultInjectionEnv::new(Arc::new(mem.clone())), mem)
    }

    #[test]
    fn error_once_fires_exactly_once() {
        let (env, _) = faulty();
        env.error_once(FileKind::Sst, FaultOp::Open);
        assert!(env.new_writable_file("a", FileKind::Sst).is_err());
        assert!(env.new_writable_file("a", FileKind::Sst).is_ok());
        // Other kinds unaffected: the armed Sst rule does not fire for Wal.
        env.error_once(FileKind::Sst, FaultOp::Open);
        assert!(env.new_writable_file("w", FileKind::Wal).is_ok());
        assert!(env.new_writable_file("b", FileKind::Sst).is_err());
        assert_eq!(env.stats().injected_for(FaultOp::Open), 2);
    }

    #[test]
    fn error_n_times_counts_down() {
        let (env, _) = faulty();
        env.error_n_times(FileKind::Wal, FaultOp::Append, 2);
        let mut f = env.new_writable_file("w", FileKind::Wal).unwrap();
        assert!(f.append(b"x").is_err());
        assert!(f.append(b"x").is_err());
        assert!(f.append(b"x").is_ok());
        assert_eq!(env.stats().injected_for(FaultOp::Append), 2);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let (env, _) = faulty();
            env.error_with_probability(FileKind::Sst, FaultOp::Read, 0.5, seed);
            let mut f = env.new_writable_file("s", FileKind::Sst).unwrap();
            f.append(b"0123456789").unwrap();
            f.sync().unwrap();
            drop(f);
            let r = env.new_random_access_file("s", FileKind::Sst).unwrap();
            (0..64).map(|_| r.read_at(0, 4).is_err()).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay the same schedule");
        assert!(a.iter().any(|&e| e) && !a.iter().all(|&e| e), "p=0.5 should mix");
        assert_ne!(a, run(8), "different seeds should differ");
    }

    #[test]
    fn torn_write_persists_prefix() {
        let (env, mem) = faulty();
        env.torn_write_n_times(FileKind::Wal, 1);
        let mut f = env.new_writable_file("w", FileKind::Wal).unwrap();
        assert!(f.append(&[7u8; 100]).is_err());
        drop(f);
        assert_eq!(mem.raw_content("w").unwrap().len(), 50);
        let s = env.stats();
        assert_eq!(s.torn_writes, 1);
        // Next append is clean.
        let mut f = env.new_writable_file("w2", FileKind::Wal).unwrap();
        assert!(f.append(&[7u8; 100]).is_ok());
    }

    #[test]
    fn crash_drops_unsynced_data() {
        let (env, _) = faulty();
        let mut f = env.new_writable_file("w", FileKind::Wal).unwrap();
        f.append(b"durable!").unwrap();
        f.flush().unwrap();
        f.sync().unwrap();
        f.append(b"lost").unwrap();
        f.flush().unwrap();
        drop(f);
        env.crash().unwrap();
        let content = read_file_to_vec(&env, "w", FileKind::Wal).unwrap();
        assert_eq!(content, b"durable!");
        let s = env.stats();
        assert_eq!(s.crashes, 1);
        assert_eq!(s.lost_bytes, 4);
    }

    #[test]
    fn crash_truncates_never_synced_files_to_zero() {
        let (env, _) = faulty();
        let mut f = env.new_writable_file("x", FileKind::Sst).unwrap();
        f.append(b"all of this is lost").unwrap();
        f.flush().unwrap();
        drop(f);
        env.crash().unwrap();
        assert_eq!(read_file_to_vec(&env, "x", FileKind::Sst).unwrap(), b"");
    }

    #[test]
    fn crash_spares_files_written_around_the_wrapper() {
        // Only files written through the wrapper have a watermark: bytes
        // the bare inner env wrote, never synced, survive `crash()` whole.
        let mem = MemEnv::new();
        let mut f = mem.new_writable_file("pre", FileKind::Other).unwrap();
        f.append(b"written before wrapping").unwrap();
        f.flush().unwrap();
        drop(f);
        let env = FaultInjectionEnv::new(Arc::new(mem.clone()));
        env.crash().unwrap();
        assert_eq!(mem.raw_content("pre").unwrap(), b"written before wrapping");
        assert_eq!(env.stats().lost_bytes, 0);
    }

    #[test]
    fn rename_carries_watermark() {
        let (env, _) = faulty();
        let mut f = env.new_writable_file("tmp", FileKind::Manifest).unwrap();
        f.append(b"manifest").unwrap();
        f.flush().unwrap();
        f.sync().unwrap();
        drop(f);
        env.rename("tmp", "MANIFEST").unwrap();
        env.crash().unwrap();
        assert_eq!(
            read_file_to_vec(&env, "MANIFEST", FileKind::Manifest).unwrap(),
            b"manifest"
        );
    }

    #[test]
    fn disarm_clears_rules() {
        let (env, _) = faulty();
        env.error_n_times(FileKind::Sst, FaultOp::Open, 100);
        env.disarm(FileKind::Sst, FaultOp::Open);
        assert!(env.new_writable_file("a", FileKind::Sst).is_ok());
        env.error_n_times(FileKind::Sst, FaultOp::Open, 100);
        env.disarm_all();
        assert!(env.new_writable_file("b", FileKind::Sst).is_ok());
        assert_eq!(env.stats().injected_total(), 0);
    }

    #[test]
    fn delay_n_times_slows_then_stops() {
        let (env, _) = faulty();
        let mut f = env.new_writable_file("s", FileKind::Sst).unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        drop(f);
        env.delay_n_times(FileKind::Sst, FaultOp::Read, Duration::from_millis(20), 2);
        let r = env.new_random_access_file("s", FileKind::Sst).unwrap();
        let t = std::time::Instant::now();
        assert!(r.read_at(0, 4).is_ok(), "delays are not errors");
        assert!(r.read_at(0, 4).is_ok());
        assert!(t.elapsed() >= Duration::from_millis(40), "two delayed reads");
        let t = std::time::Instant::now();
        assert!(r.read_at(0, 4).is_ok());
        assert!(t.elapsed() < Duration::from_millis(20), "rule exhausted");
        let s = env.stats();
        assert_eq!(s.delays, 2);
        assert_eq!(s.injected_total(), 0, "delays never count as injected errors");
    }

    #[test]
    fn delay_always_until_cleared_and_batches_count_once() {
        let (env, _) = faulty();
        let mut f = env.new_writable_file("s", FileKind::Sst).unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        drop(f);
        env.delay_always(FileKind::Sst, FaultOp::Read, Duration::from_millis(15));
        let r = env.new_random_access_file("s", FileKind::Sst).unwrap();
        let reqs = [
            ReadRequest { offset: 0, len: 4 },
            ReadRequest { offset: 4, len: 4 },
        ];
        let t = std::time::Instant::now();
        assert!(r.read_at_many(&reqs).into_iter().all(|r| r.is_ok()));
        assert!(t.elapsed() >= Duration::from_millis(15));
        assert_eq!(env.stats().delays, 1, "one delay per batch, not per request");
        env.clear_delay(FileKind::Sst, FaultOp::Read);
        let t = std::time::Instant::now();
        assert!(r.read_at(0, 4).is_ok());
        assert!(t.elapsed() < Duration::from_millis(15));
        // disarm_all also clears delays.
        env.delay_always(FileKind::Sst, FaultOp::Read, Duration::from_millis(15));
        env.disarm_all();
        let t = std::time::Instant::now();
        assert!(r.read_at(0, 4).is_ok());
        assert!(t.elapsed() < Duration::from_millis(15));
    }

    #[test]
    fn composes_under_remote_env() {
        let (env, _) = faulty();
        let remote = crate::RemoteEnv::new(
            Arc::new(env.clone()),
            crate::NetworkModel::unlimited(),
        );
        env.error_once(FileKind::Sst, FaultOp::Open);
        assert!(remote.new_writable_file("s", FileKind::Sst).is_err());
        assert!(remote.new_writable_file("s", FileKind::Sst).is_ok());
        // Fault counters are visible through the remote wrapper.
        assert_eq!(remote.fault_stats().unwrap().injected_for(FaultOp::Open), 1);
    }
}
