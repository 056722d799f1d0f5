//! Executes workloads against a database with N client threads, recording
//! throughput and a latency histogram.

use std::time::{Duration, Instant};

use shield_core::Histogram;
use shield_lsm::{Db, ReadOptions, WriteOptions};

use crate::workloads::{key_bytes, Op, OpGenerator, WorkloadConfig};

/// Driver parameters.
#[derive(Clone)]
pub struct DriverConfig {
    /// Total operations across all threads.
    pub ops: u64,
    /// Client (writer/reader) threads.
    pub threads: usize,
    /// What to run.
    pub workload: WorkloadConfig,
    /// Sync every write (off by default, as in db_bench).
    pub sync_writes: bool,
}

impl DriverConfig {
    /// Single-threaded run of `ops` operations.
    #[must_use]
    pub fn new(workload: WorkloadConfig, ops: u64) -> Self {
        DriverConfig { ops, threads: 1, workload, sync_writes: false }
    }

    /// Sets the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Outcome of a workload run.
pub struct RunResult {
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Per-operation latencies.
    pub hist: Histogram,
    /// Gets that found a value (sanity signal for read workloads).
    pub found: u64,
}

impl RunResult {
    /// Operations per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `cfg` against `db`, spreading operations over threads.
pub fn run_workload(db: &Db, cfg: &DriverConfig) -> RunResult {
    let start = Instant::now();
    let per_thread = cfg.ops / cfg.threads as u64;
    let results: Vec<(Histogram, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let workload = cfg.workload.clone();
            let sync = cfg.sync_writes;
            handles.push(scope.spawn(move || {
                let mut generator = OpGenerator::new(&workload, t as u64);
                let mut hist = Histogram::new();
                let mut found = 0u64;
                let wopts = WriteOptions { sync };
                let ropts = ReadOptions::new();
                for _ in 0..per_thread {
                    let op = generator.next_op();
                    let t0 = Instant::now();
                    match op {
                        Op::Put { key, value } => {
                            db.put(&wopts, &key, &value).expect("put");
                        }
                        Op::Get { key } => {
                            if db.get(&ropts, &key).expect("get").is_some() {
                                found += 1;
                            }
                        }
                        Op::Scan { key, len } => {
                            let got = db.scan(&ropts, &key, len).expect("scan");
                            found += got.len() as u64;
                        }
                        Op::ReadModifyWrite { key, value } => {
                            if db.get(&ropts, &key).expect("get").is_some() {
                                found += 1;
                            }
                            db.put(&wopts, &key, &value).expect("put");
                        }
                    }
                    hist.record(t0.elapsed().as_nanos() as u64);
                }
                (hist, found)
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker")).collect()
    });
    let elapsed = start.elapsed();
    let mut hist = Histogram::new();
    let mut found = 0;
    for (h, f) in &results {
        hist.merge(h);
        found += f;
    }
    // Every run leaves the engine's own view of what happened in the
    // sidecar queue; `paper` writes it next to the experiment's CSV.
    crate::report::record_metrics_json(db.metrics_report().to_json());
    RunResult { ops: per_thread * cfg.threads as u64, elapsed, hist, found }
}

/// Loads keys `0..key_space` so that read workloads hit existing data,
/// then flushes and lets compactions settle.
pub fn preload(db: &Db, key_space: u64, key_size: usize, value_size: usize) {
    let wopts = WriteOptions::default();
    let mut rng = crate::rng::Rng::new(0x10ad);
    let mut value = vec![0u8; value_size];
    let mut batch = shield_lsm::WriteBatch::new();
    for id in 0..key_space {
        rng.fill(&mut value);
        for b in &mut value {
            *b = b'a' + (*b % 26);
        }
        batch.put(&key_bytes(id, key_size), &value);
        if batch.count() >= 256 {
            db.write(&wopts, std::mem::take(&mut batch)).expect("preload write");
        }
    }
    if !batch.is_empty() {
        db.write(&wopts, batch).expect("preload write");
    }
    db.compact_all().expect("preload settle");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use shield_lsm::Options;
    use std::sync::Arc;

    fn open() -> Db {
        let env = shield_env::MemEnv::new();
        Db::open(Options::new(Arc::new(env)), "db").unwrap()
    }

    #[test]
    fn fillrandom_runs_and_counts() {
        let db = open();
        let cfg = DriverConfig::new(
            WorkloadConfig::new(Workload::FillRandom, 1000),
            2000,
        );
        let r = run_workload(&db, &cfg);
        assert_eq!(r.ops, 2000);
        assert!(r.throughput() > 0.0);
        assert_eq!(r.hist.count(), 2000);
    }

    #[test]
    fn preload_then_readrandom_finds_keys() {
        let db = open();
        preload(&db, 500, 16, 50);
        let cfg = DriverConfig::new(
            WorkloadConfig::new(Workload::ReadRandom, 500),
            1000,
        );
        let r = run_workload(&db, &cfg);
        assert_eq!(r.found, 1000, "all uniform reads over preloaded space must hit");
    }

    #[test]
    fn multithreaded_run_completes() {
        let db = open();
        let cfg = DriverConfig::new(
            WorkloadConfig::new(Workload::FillRandom, 1000),
            2000,
        )
        .with_threads(4);
        let r = run_workload(&db, &cfg);
        assert_eq!(r.ops, 2000);
        assert_eq!(db.statistics().snapshot().writes, 2000);
    }

    #[test]
    fn ycsb_f_read_modify_write() {
        let db = open();
        preload(&db, 200, 16, 50);
        let cfg = DriverConfig::new(WorkloadConfig::new(Workload::YcsbF, 200), 500);
        let r = run_workload(&db, &cfg);
        assert!(r.found > 0);
    }

    #[test]
    fn scans_work_through_driver() {
        let db = open();
        preload(&db, 300, 16, 50);
        let cfg = DriverConfig::new(WorkloadConfig::new(Workload::YcsbE, 300), 200);
        let r = run_workload(&db, &cfg);
        assert!(r.found > 0, "scans should return rows");
    }
}
