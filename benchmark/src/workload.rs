//! The four workloads: set-up, the measured window, the probe-and-verify
//! epilogue, and the clean close / reopen.
//!
//! A run returns raw facts ([`RunOutput`]); `metrics.rs` turns them into the
//! named metrics. The measured window is bounded by `--seconds`: clients stop
//! at the deadline, so a slower commit completes fewer ops in the same time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use shield_core::perf::{self, PerfGuard};
use shield_env::{FileKind, IoStatsSnapshot};
use shield_kds::{KdsStats, ResolverStats};
use shield_lsm::cache::CacheStatsSnapshot;
use shield_lsm::{Db, ReadOptions, StatsSnapshot, WriteBatch, WriteOptions};

use crate::decor::{EnvLedgerSnap, TallySnap};
use crate::gen::{Codec, Mix, Op, OpStream, Rng, ValueSizes, Versions, KEY_LEN};
use crate::sut::{Mode, Sut, SutConfig};
use crate::sysinfo;
use crate::trace::{self, now_ns, Span, SpanKind};

/// One benchmark workload at scale 1.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line on why the workload exists (recorded in `BENCHMARK.json`).
    pub why: &'static str,
    /// Distinct keys addressed.
    pub keys: u64,
    /// Load every key (in a seeded pseudo-random order) and settle before
    /// the window; otherwise the window starts on an empty database.
    pub preload: bool,
    pub cache_bytes: usize,
    /// Mount the database through `RemoteEnv(intra_datacenter)`.
    pub remote: bool,
    pub mix: Mix,
    pub sizes: ValueSizes,
    /// Closed-loop client threads.
    pub clients: usize,
    /// An extra open-loop writer at this many puts per second.
    pub paced_puts_per_s: Option<f64>,
    /// Size of the epilogue's probes: this many puts, three times as many
    /// gets, a fifth as many 50-key scans. Fewer over the remote mount,
    /// where each get costs a round trip.
    pub probe_keys: u64,
}

/// Sizes are the issue's, scaled by one constant (¼) so that a run with its
/// three set-ups fits the driver's budget; `fill` still completes about 70
/// flushes and 90 compactions in a 15 s window.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fill",
        why: "db_bench fillrandom on an empty DB: WAL, flush and compaction encryption, one KDS key per new file; read path and block cache idle (paper Fig. 7 worst case)",
        keys: 3_000_000,
        preload: false,
        cache_bytes: 32 << 20,
        remote: false,
        mix: Mix::UniformPut,
        sizes: ValueSizes::Fixed,
        clients: 1,
        paced_puts_per_s: None,
        probe_keys: 10_000,
    },
    WorkloadSpec {
        name: "readrandom_cold",
        why: "uniform gets over 250k preloaded keys, cache 7 % of the data: block fetch, cipher init, HMAC verify and DEK resolve dominate; no writes, so a WAL or compaction change must move nothing",
        keys: 250_000,
        preload: true,
        cache_bytes: 2 << 20,
        remote: false,
        mix: Mix::UniformGet,
        sizes: ValueSizes::Fixed,
        clients: 2,
        paced_puts_per_s: None,
        probe_keys: 10_000,
    },
    WorkloadSpec {
        name: "mixgraph",
        why: "zipfian 83/14/3 get/put/scan whose hot set fits the cache: reads hit memtable and cache beside writes and background work, so a cipher gain must not show here",
        keys: 250_000,
        preload: true,
        cache_bytes: 8 << 20,
        remote: false,
        mix: Mix::Mixgraph,
        sizes: ValueSizes::Pareto,
        clients: 1,
        paced_puts_per_s: None,
        probe_keys: 10_000,
    },
    WorkloadSpec {
        name: "ds_readwhilewriting",
        why: "disaggregated: SHIELD over a 500 us / 1 Gbps RemoteEnv, a closed-loop reader beside an open-loop writer at a fixed rate; env round trips, table opens and KDS latency dominate, not the cipher",
        keys: 75_000,
        preload: true,
        cache_bytes: 512 << 10,
        remote: true,
        mix: Mix::UniformGet,
        sizes: ValueSizes::Fixed,
        clients: 1,
        // The reader stops at the deadline, so the open-loop writer's put
        // count, and the amplifications, repeat exactly.
        paced_puts_per_s: Some(20_000.0),
        probe_keys: 700,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const PROBE_SCAN_LEN: usize = 50;
/// Set-ups and clean close / reopen cycles are short events on a jittery
/// host, so each is repeated — at least `MIN_REPEATS` times, then until
/// `REPEAT_BUDGET_S` seconds have gone into it, at most `MAX_REPEATS` times —
/// and the benchmark reports the median.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 15;
const REPEAT_BUDGET_S: f64 = 1.0;

fn repeat_again(seconds: &[f64]) -> bool {
    seconds.len() < MIN_REPEATS
        || (seconds.len() < MAX_REPEATS && seconds.iter().sum::<f64>() < REPEAT_BUDGET_S)
}
/// A paced put issued this long after it was due counts as late.
const LATE_NS: u64 = 1_000_000;
/// Raw bytes scanned for plaintext keys, newest files first.
const PLAINTEXT_SCAN_BUDGET: u64 = 64 << 20;

/// How to run one workload once.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// Multiplies key counts, cache sizes, probe sizes and the paced rate.
    /// 1 in every measured run; only the package's tests shrink it.
    pub scale: f64,
    pub mode: Mode,
    /// Install the decorators, enable `PerfGuard`, record spans.
    pub traced: bool,
    /// Set up again after the run, timed only, so that `setup_s` is a
    /// median (the quarter-length and traced runs do not).
    pub repeat_setup: bool,
    /// Parent of the database directory.
    pub data_root: String,
}

/// The three client op types, in the order latency and perf arrays use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get = 0,
    Put = 1,
    Scan = 2,
}

impl OpKind {
    fn span(self) -> SpanKind {
        match self {
            OpKind::Get => SpanKind::OpGet,
            OpKind::Put => SpanKind::OpPut,
            OpKind::Scan => SpanKind::OpScan,
        }
    }
}

/// `PerfContext` fields summed over the ops of one kind.
#[derive(Clone, Copy, Default, Debug)]
pub struct PerfSum {
    pub ops: u64,
    pub wall_ns: u64,
    pub fields: [u64; 15],
}

impl PerfSum {
    fn add(&mut self, wall_ns: u64, ctx: &perf::PerfContext) {
        self.ops += 1;
        self.wall_ns += wall_ns;
        for (slot, (_, v)) in self.fields.iter_mut().zip(ctx.fields()) {
            *slot += v;
        }
    }

    pub fn merge(&mut self, other: &PerfSum) {
        self.ops += other.ops;
        self.wall_ns += other.wall_ns;
        for (a, b) in self.fields.iter_mut().zip(other.fields) {
            *a += b;
        }
    }

    /// A field by its `PerfContext::fields` name.
    pub fn field(&self, name: &str) -> u64 {
        perf::PerfContext::ZERO
            .fields()
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0, |i| self.fields[i])
    }
}

/// What one client thread (or one probe) did.
#[derive(Default)]
pub struct ClientResult {
    /// Per-op latency samples in nanoseconds, by [`OpKind`].
    pub lat: [Vec<u64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// User key+value bytes successfully put.
    pub put_bytes: u64,
    pub scan_keys: u64,
    /// Ops completed in the window's first quarter.
    pub quarter_ops: u64,
    /// Paced puts issued more than [`LATE_NS`] after they were due.
    pub late: u64,
    pub perf: [PerfSum; 3],
}

impl ClientResult {
    fn with_capacity(gets: usize, puts: usize, scans: usize) -> Self {
        ClientResult {
            lat: [
                Vec::with_capacity(gets),
                Vec::with_capacity(puts),
                Vec::with_capacity(scans),
            ],
            ..ClientResult::default()
        }
    }

    pub fn ops(&self) -> u64 {
        self.lat.iter().map(|l| l.len() as u64).sum()
    }

    fn merge(&mut self, mut other: ClientResult) {
        for (mine, theirs) in self.lat.iter_mut().zip(other.lat.iter_mut()) {
            mine.append(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.quarter_ops += other.quarter_ops;
        self.put_bytes += other.put_bytes;
        self.scan_keys += other.scan_keys;
        self.late += other.late;
        for (mine, theirs) in self.perf.iter_mut().zip(other.perf.iter()) {
            mine.merge(theirs);
        }
    }
}

/// Every public counter source, read at one instant.
pub struct Counters {
    pub at_ns: u64,
    pub cpu_s: f64,
    pub stats: StatsSnapshot,
    pub io: IoStatsSnapshot,
    pub cache: CacheStatsSnapshot,
    pub resolver: ResolverStats,
    pub kds: KdsStats,
    pub cipher_inits: u64,
    pub env: Option<EnvLedgerSnap>,
    pub kds_generate: TallySnap,
    pub kds_fetch: TallySnap,
    pub flushes: TallySnap,
}

impl Counters {
    pub fn read(sut: &Sut) -> Counters {
        let d = sut.decorators.as_ref();
        Counters {
            at_ns: now_ns(),
            cpu_s: sysinfo::cpu_seconds(),
            stats: sut.stats_snapshot(),
            io: sut.io.snapshot(),
            cache: sut.cache_stats(),
            resolver: sut.resolver_stats(),
            kds: sut.kds_stats(),
            cipher_inits: sut.cipher_inits(),
            env: d.map(|d| d.env.snap()),
            kds_generate: d.map_or(TallySnap::default(), |d| d.kds.generate.snap()),
            kds_fetch: d.map_or(TallySnap::default(), |d| d.kds.fetch.snap()),
            flushes: d.map_or(TallySnap::default(), |d| d.bg.flushes.snap()),
        }
    }
}

/// One reading of the sampler thread that runs beside the window's clients.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_ns: u64,
    /// Resident set size (`VmRSS`) in MiB.
    pub rss_mb: f64,
    /// Bytes of every file in the database directory.
    pub dir_bytes: u64,
    /// User bytes live and put so far ([`Versions`]).
    pub live_bytes: u64,
    pub put_bytes: u64,
    /// Bytes written so far to WAL + SST + MANIFEST files.
    pub written: u64,
}

/// Bytes the engine wrote to WAL, SST and MANIFEST files.
pub fn engine_bytes_written(io: &IoStatsSnapshot) -> u64 {
    [FileKind::Wal, FileKind::Sst, FileKind::Manifest]
        .iter()
        .map(|&kind| io.written_for(kind))
        .sum()
}

/// Everything one run measured.
pub struct RunOutput {
    pub spec: WorkloadSpec,
    pub config: RunConfig,
    /// Effective key count after scaling.
    pub keys: u64,
    /// Seconds of each set-up (open + preload + settle).
    pub setup_s: Vec<f64>,
    /// Closed-loop clients in the window (for `ds_readwhilewriting`, the
    /// reader), merged.
    pub window: ClientResult,
    /// The open-loop writer of `ds_readwhilewriting`.
    pub paced: Option<ClientResult>,
    /// The epilogue's read / scan / write probes.
    pub probe: ClientResult,
    /// Counters at window start, window end, after the drain, after the
    /// probes.
    pub at_start: Counters,
    pub at_end: Counters,
    pub at_drained: Counters,
    pub at_probed: Counters,
    /// Read amplification and L0 file count when the window ended.
    pub read_amp: u64,
    pub l0_files_end: u64,
    /// Bytes in the database directory and live user bytes when the window
    /// started (after set-up), and after the drain, the probes and the
    /// first clean reopen.
    pub start_dir_bytes: u64,
    pub start_live_bytes: u64,
    pub dir_bytes: u64,
    pub live_bytes: u64,
    pub peak_rss_mb: f64,
    /// The process and the database directory, sampled every 50 ms through
    /// the window.
    pub samples: Vec<Sample>,
    /// Seconds of each reopen of the cleanly closed database.
    pub reopen_s: Vec<f64>,
    /// WAL bytes the first reopen read back.
    pub reopen_wal_bytes: u64,
    pub integrity_failures: u64,
    /// Raw bytes scanned, and whether a plaintext key was among them.
    pub plaintext_scanned: u64,
    pub plaintext_found: bool,
    /// Ops attempted / failed outside the window and probes (re-verification
    /// after the reopen, engine calls of the epilogue).
    pub verify_attempted: u64,
    pub verify_failed: u64,
    pub spans: Vec<Span>,
}

impl RunOutput {
    pub fn attempted(&self) -> u64 {
        self.window.attempted
            + self.paced.as_ref().map_or(0, |p| p.attempted)
            + self.probe.attempted
            + self.verify_attempted
    }

    pub fn failed(&self) -> u64 {
        self.window.failed
            + self.paced.as_ref().map_or(0, |p| p.failed)
            + self.probe.failed
            + self.verify_failed
    }

    pub fn window_s(&self) -> f64 {
        (self.at_end.at_ns - self.at_start.at_ns) as f64 / 1e9
    }

    /// Every output was right: no failed op, no integrity failure, no
    /// plaintext key on storage.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.integrity_failures == 0 && !self.plaintext_found
    }
}

/// Shared, read-only context of the clients of one run.
struct Shared<'a> {
    db: &'a Db,
    codec: Codec,
    versions: &'a Versions,
    traced: bool,
    /// Gets may race a writer: accept any version the writer could have
    /// made visible between the start and the end of the get.
    racing: bool,
}

impl<'a> Shared<'a> {
    /// An untraced, single-client context: the epilogue's probes and checks.
    fn checking(db: &'a Db, codec: Codec, versions: &'a Versions) -> Self {
        Shared {
            db,
            codec,
            versions,
            traced: false,
            racing: false,
        }
    }

    /// Runs one client op as a root span and records its latency sample.
    /// Returns the op's result and the time it completed.
    fn timed<R>(&self, op: OpKind, out: &mut ClientResult, f: impl FnOnce() -> R) -> (R, u64) {
        let root = trace::begin_root();
        let t0 = now_ns();
        let result = f();
        let t1 = now_ns();
        trace::end_root(root, op.span(), t0, t1, 0);
        if self.traced {
            out.perf[op as usize].add(t1 - t0, &perf::take());
        }
        out.lat[op as usize].push(t1 - t0);
        out.attempted += 1;
        (result, t1)
    }

    fn get(&self, id: u64, out: &mut ClientResult, scratch: &mut Vec<u8>) -> u64 {
        let key = Codec::key(id);
        let before = self.versions.get(id);
        let (result, done) =
            self.timed(OpKind::Get, out, || self.db.get(&ReadOptions::new(), &key));
        let ok = match result {
            Ok(Some(value)) => match Codec::version_of(id, &value) {
                Some(seen) => {
                    let newest = if self.racing {
                        self.versions.get(id) + 1
                    } else {
                        before
                    };
                    (before..=newest).contains(&seen)
                        && seen > 0
                        && self.codec.matches(id, seen, &value, scratch)
                }
                None => false,
            },
            Ok(None) => before == 0 && !self.racing,
            Err(_) => false,
        };
        out.failed += u64::from(!ok);
        done
    }

    fn put(&self, id: u64, out: &mut ClientResult, value: &mut Vec<u8>) -> u64 {
        let key = Codec::key(id);
        let version = self.versions.get(id) + 1;
        self.codec.value_into(id, version, value);
        let (result, done) = self.timed(OpKind::Put, out, || {
            self.db.put(&WriteOptions::default(), &key, value)
        });
        match result {
            Ok(()) => {
                self.versions.set(&self.codec, id, version);
                out.put_bytes += (KEY_LEN + value.len()) as u64;
            }
            Err(_) => out.failed += 1,
        }
        done
    }

    /// Scans `len` keys from `id` and checks the rows against the version
    /// array: exactly the next `len` live keys, each with its newest value.
    fn scan(&self, id: u64, len: usize, out: &mut ClientResult, scratch: &mut Vec<u8>) -> u64 {
        let key = Codec::key(id);
        let (result, done) = self.timed(OpKind::Scan, out, || {
            self.db.scan(&ReadOptions::new(), &key, len)
        });
        let ok = match result {
            Ok(rows) => {
                out.scan_keys += rows.len() as u64;
                let mut expected = (id..self.versions.len())
                    .filter(|&k| self.versions.get(k) > 0)
                    .take(len);
                let rows_ok = rows.iter().all(|(k, v)| {
                    expected.next().is_some_and(|want| {
                        Codec::key_id(k) == Some(want)
                            && self
                                .codec
                                .matches(want, self.versions.get(want), v, scratch)
                    })
                });
                rows_ok && (rows.len() == len || expected.next().is_none())
            }
            Err(_) => false,
        };
        out.failed += u64::from(!ok);
        done
    }
}

/// A closed-loop client: the next op is sent when the previous one returns,
/// until the deadline.
fn closed_loop(
    shared: &Shared,
    mut stream: OpStream,
    start_ns: u64,
    deadline_ns: u64,
    hint: usize,
) -> ClientResult {
    trace::mark_client_thread();
    let _perf = shared.traced.then(PerfGuard::enable);
    let mut out = match stream.mix() {
        Mix::UniformPut => ClientResult::with_capacity(0, hint, 0),
        Mix::UniformGet => ClientResult::with_capacity(hint, 0, 0),
        Mix::Mixgraph => ClientResult::with_capacity(hint, hint / 4, hint / 16),
    };
    let (mut value, mut scratch) = (Vec::new(), Vec::new());
    let quarter_end_ns = start_ns + (deadline_ns - start_ns) / 4;
    let mut now = start_ns;
    while now < deadline_ns {
        now = match stream.next_op() {
            Op::Get { id } => shared.get(id, &mut out, &mut scratch),
            Op::Put { id } => shared.put(id, &mut out, &mut value),
            Op::Scan { id, len } => shared.scan(id, len, &mut out, &mut scratch),
        };
        out.quarter_ops += u64::from(now <= quarter_end_ns);
    }
    out
}

/// An open-loop writer: puts are due on a fixed schedule whatever the
/// database does, latency is timed from the due time, and it stops when
/// `stop` is raised.
fn paced_writer(
    shared: &Shared,
    mut stream: OpStream,
    rate: f64,
    start_ns: u64,
    deadline_ns: u64,
    stop: &AtomicBool,
) -> ClientResult {
    trace::mark_client_thread();
    let _perf = shared.traced.then(PerfGuard::enable);
    let due_in_window = (deadline_ns - start_ns) as f64 / 1e9 * rate;
    let mut out = ClientResult::with_capacity(0, due_in_window as usize + 1024, 0);
    let mut value = Vec::new();
    let mut issued = 0u64;
    while !stop.load(Ordering::Acquire) {
        let due = start_ns + (issued as f64 * 1e9 / rate) as u64;
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        let Op::Put { id } = stream.next_op() else {
            unreachable!("paced streams only put")
        };
        let done = shared.put(id, &mut out, &mut value);
        // Timed from when the put was due, not from when it was sent: the
        // wait a stall imposes on later puts counts.
        *out.lat[OpKind::Put as usize]
            .last_mut()
            .expect("put recorded a sample") = done - due;
        out.late += u64::from(now - due > LATE_NS);
        issued += 1;
    }
    out
}

fn scaled(n: u64, scale: f64) -> u64 {
    ((n as f64 * scale).round() as u64).max(1)
}

/// Opens a fresh database and, for preloading workloads, loads every key in
/// a seeded pseudo-random order and settles. Returns the seconds it took.
fn set_up(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    keys: u64,
    dir: &str,
) -> Result<(Sut, Versions, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = now_ns();
    let sut = Sut::create(
        SutConfig {
            mode: cfg.mode,
            remote: spec.remote,
            cache_bytes: scaled(spec.cache_bytes as u64, cfg.scale).max(4096) as usize,
            decorated: cfg.traced,
        },
        dir,
    )?;
    let versions = Versions::new(keys);
    if spec.preload {
        let codec = Codec {
            seed: cfg.seed,
            sizes: spec.sizes,
        };
        // i -> (i * stride + offset) mod keys visits every key once when the
        // stride is coprime to the key count.
        let mut rng = Rng::new(crate::gen::mix(cfg.seed, 0x10ad));
        let offset = rng.below(keys);
        let mut stride = rng.below(keys) | 1;
        while gcd(stride, keys) != 1 {
            stride += 2;
        }
        let mut batch = WriteBatch::new();
        let mut value = Vec::new();
        for i in 0..keys {
            let id = ((u128::from(i) * u128::from(stride) + u128::from(offset)) % u128::from(keys))
                as u64;
            codec.value_into(id, 1, &mut value);
            batch.put(&Codec::key(id), &value);
            versions.set(&codec, id, 1);
            if batch.count() >= 256 || i + 1 == keys {
                sut.db()
                    .write(&WriteOptions::default(), std::mem::take(&mut batch))
                    .map_err(|e| format!("preload: {e}"))?;
            }
        }
        sut.db().compact_all().map_err(|e| format!("settle: {e}"))?;
        // Part of settling: have the kernel write the preload back now, so
        // that its writeback does not compete with the measured window.
        for entry in std::fs::read_dir(dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .flatten()
        {
            if let Ok(file) = std::fs::File::open(entry.path()) {
                let _ = file.sync_all();
            }
        }
    }
    Ok((sut, versions, (now_ns() - t0) as f64 / 1e9))
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Looks for a plaintext key (sixteen ASCII digits in a row) in the raw
/// bytes of the WAL, SST and MANIFEST files. Random ciphertext holds one
/// with probability (10/256)^16 per position.
fn scan_for_plaintext_keys(dir: &str) -> (u64, bool) {
    let mut files: Vec<(std::time::SystemTime, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.ends_with(".log")
                        || name.ends_with(".sst")
                        || name.starts_with("MANIFEST-")
                })
                .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
                .collect()
        })
        .unwrap_or_default();
    files.sort_by(|a, b| b.cmp(a));
    let mut scanned = 0u64;
    for (_, path) in files {
        if scanned >= PLAINTEXT_SCAN_BUDGET {
            break;
        }
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        scanned += bytes.len() as u64;
        let mut run = 0usize;
        for b in bytes {
            run = if b.is_ascii_digit() { run + 1 } else { 0 };
            if run >= KEY_LEN {
                return (scanned, true);
            }
        }
    }
    (scanned, false)
}

/// Runs one workload once and returns what it measured.
pub fn run(spec: &WorkloadSpec, cfg: &RunConfig) -> Result<RunOutput, String> {
    let keys = scaled(spec.keys, cfg.scale);
    let dir = format!("{}/{}-{}", cfg.data_root, spec.name, std::process::id());
    let codec = Codec {
        seed: cfg.seed,
        sizes: spec.sizes,
    };
    if cfg.traced {
        trace::start();
    }

    let (mut sut, versions, first_setup_s) = set_up(spec, cfg, keys, &dir)?;
    let mut setup_s = vec![first_setup_s];

    // ---- measured window -------------------------------------------------
    let window_ns = (cfg.seconds * 1e9) as u64;
    let hint = (cfg.seconds * 400_000.0) as usize;
    let stop = AtomicBool::new(false);
    let window_over = AtomicBool::new(false);
    let (start_dir_bytes, start_live_bytes) = (sut.dir_bytes(), versions.live_bytes());
    let at_start = Counters::read(&sut);
    let start_ns = at_start.at_ns;
    let deadline_ns = start_ns + window_ns;
    let (window, paced, samples) = {
        let shared = Shared {
            db: sut.db(),
            codec,
            versions: &versions,
            traced: cfg.traced,
            racing: spec.paced_puts_per_s.is_some(),
        };
        std::thread::scope(|scope| {
            let writer = spec
                .paced_puts_per_s
                .map(|rate| rate * cfg.scale)
                .map(|rate| {
                    let stream = OpStream::new(Mix::UniformPut, keys, cfg.seed, 100);
                    let (shared, stop) = (&shared, &stop);
                    scope.spawn(move || {
                        paced_writer(shared, stream, rate, start_ns, deadline_ns, stop)
                    })
                });
            let clients: Vec<_> = (0..spec.clients)
                .map(|c| {
                    let stream = OpStream::new(spec.mix, keys, cfg.seed, c as u64);
                    let shared = &shared;
                    scope.spawn(move || closed_loop(shared, stream, start_ns, deadline_ns, hint))
                })
                .collect();
            // Memory, space and bytes written through the window, sampled
            // off the clients' threads.
            let sampler = scope.spawn(|| {
                let mut samples = Vec::new();
                while !window_over.load(Ordering::Acquire) {
                    samples.push(Sample {
                        at_ns: now_ns(),
                        rss_mb: sysinfo::rss_mb(),
                        dir_bytes: sut.dir_bytes(),
                        live_bytes: versions.live_bytes(),
                        put_bytes: versions.put_bytes(),
                        written: engine_bytes_written(&sut.io.snapshot()),
                    });
                    std::thread::sleep(Duration::from_millis(50));
                }
                samples
            });
            let mut merged = ClientResult::default();
            for client in clients {
                merged.merge(client.join().expect("client thread panicked"));
            }
            stop.store(true, Ordering::Release);
            window_over.store(true, Ordering::Release);
            (
                merged,
                writer.map(|w| w.join().expect("writer thread panicked")),
                sampler.join().expect("sampler thread panicked"),
            )
        })
    };
    let at_end = Counters::read(&sut);
    let report = sut.db().metrics_report();
    let read_amp = report.read_amplification;
    let l0_files_end = report.levels.first().map_or(0, |l| l.files as u64);

    // ---- epilogue: drain, probe, verify, reopen ---------------------------
    // Flush and let compaction finish, so that amplification is read off a
    // settled tree and the WAL the reopen replays is exactly the write probe.
    let mut verify_attempted = 1;
    let mut verify_failed = u64::from(sut.db().compact_all().is_err());
    let at_drained = Counters::read(&sut);
    let live_keys = versions.live_keys();

    // A sample of live keys: read now, the first third overwritten, all
    // read again after the reopen.
    let mut rng = Rng::new(crate::gen::mix(cfg.seed, 0x5a3b));
    let writes = scaled(spec.probe_keys, cfg.scale).min(live_keys) as usize;
    let mut sample = Vec::with_capacity(3 * writes);
    let mut tries = 0;
    while sample.len() < 3 * writes && tries < 300 * writes {
        let id = rng.below(keys);
        if versions.get(id) > 0 {
            sample.push(id);
        }
        tries += 1;
    }
    let mut probe = ClientResult::with_capacity(sample.len(), writes, writes / 5 + 1);
    {
        let shared = Shared::checking(sut.db(), codec, &versions);
        trace::mark_client_thread();
        let (mut value, mut scratch) = (Vec::new(), Vec::new());
        for &id in &sample {
            shared.get(id, &mut probe, &mut scratch);
        }
        for _ in 0..writes / 5 + 1 {
            shared.scan(rng.below(keys), PROBE_SCAN_LEN, &mut probe, &mut scratch);
        }
        for &id in &sample[..writes.min(sample.len())] {
            shared.put(id, &mut probe, &mut value);
        }
    }
    let at_probed = Counters::read(&sut);
    let mut integrity_failures = at_probed.stats.integrity_failures;
    let peak_rss_mb = sysinfo::peak_rss_mb();

    let (plaintext_scanned, plaintext_found) = match cfg.mode {
        Mode::Shield => scan_for_plaintext_keys(&dir),
        Mode::Plain => (0, false),
    };

    // Clean close and reopen, several times over: each reopen replays a WAL
    // holding exactly the write probe's puts, which are written again before
    // the next close.
    let mut reopen_s = Vec::new();
    let mut reopen_wal_bytes = 0;
    let (mut dir_bytes, mut live_bytes) = (0, 0);
    while repeat_again(&reopen_s) {
        let first = reopen_s.is_empty();
        let shared = Shared::checking(sut.db(), codec, &versions);
        let mut recheck = ClientResult::default();
        if !first {
            let mut value = Vec::new();
            for &id in &sample[..writes.min(sample.len())] {
                shared.put(id, &mut recheck, &mut value);
            }
        }
        sut.close();
        let io_before_reopen = sut.io.snapshot();
        let t0 = now_ns();
        sut.reopen()?;
        reopen_s.push((now_ns() - t0) as f64 / 1e9);
        if first {
            // Space is read off the reopened database: opening collects the
            // files the last compaction left behind, which otherwise linger
            // until the next background job and make the figure depend on
            // whether a compaction happened to be the last thing to run.
            dir_bytes = sut.dir_bytes();
            live_bytes = versions.live_bytes();
            reopen_wal_bytes = sut
                .io
                .snapshot()
                .delta_since(&io_before_reopen)
                .read_for(FileKind::Wal);
            let shared = Shared::checking(sut.db(), codec, &versions);
            let mut scratch = Vec::new();
            for &id in &sample {
                shared.get(id, &mut recheck, &mut scratch);
            }
        }
        verify_attempted += recheck.attempted;
        verify_failed += recheck.failed;
    }
    integrity_failures += sut.stats_snapshot().integrity_failures;
    sut.destroy();
    let spans = if cfg.traced {
        trace::stop()
    } else {
        Vec::new()
    };

    // Further set-ups, timed only: the benchmark reports their median.
    while cfg.repeat_setup && repeat_again(&setup_s) {
        let (extra, _, s) = set_up(spec, cfg, keys, &dir)?;
        extra.destroy();
        setup_s.push(s);
    }

    Ok(RunOutput {
        spec: *spec,
        config: cfg.clone(),
        keys,
        setup_s,
        window,
        paced,
        probe,
        at_start,
        at_end,
        at_drained,
        at_probed,
        read_amp,
        l0_files_end,
        start_dir_bytes,
        start_live_bytes,
        dir_bytes,
        live_bytes,
        peak_rss_mb,
        samples,
        reopen_s,
        reopen_wal_bytes,
        integrity_failures,
        plaintext_scanned,
        plaintext_found,
        verify_attempted,
        verify_failed,
        spans,
    })
}
