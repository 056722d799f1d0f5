//! Shared background job pool with flush-priority fair scheduling.
//!
//! One [`JobPool`] serves every tree of a [`crate::Db`]. Work is
//! class-tagged:
//!
//! - [`JobClass::Flush`] — memtable flushes. Short, latency-critical:
//!   writers stall the moment the immutable list fills, so a delayed flush
//!   is a delayed *commit*.
//! - [`JobClass::General`] — compactions and subcompaction claim tokens.
//!   Long, throughput work.
//!
//! Fairness rule: flush jobs always dequeue first, and when the pool has
//! two or more workers one worker slot is *reserved* for flushes — at most
//! `workers - 1` general jobs run concurrently. A pool saturated by the
//! compactions of one hot shard therefore always has a free lane for
//! another shard's flush; no shard can starve its neighbors' write path.
//! (Subcompaction tokens are claim tokens, not the work itself: the
//! coordinating compaction steals unclaimed subranges, so capping general
//! concurrency never deadlocks the parallel-compaction path.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Scheduling class of a pool job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobClass {
    /// Memtable flush: priority lane, never blocked by general work.
    Flush,
    /// Compaction or subcompaction token: bounded concurrency.
    General,
}

type Job = Box<dyn FnOnce() + Send>;

struct Queues {
    flush: VecDeque<Job>,
    general: VecDeque<Job>,
    /// General-class jobs currently executing (bounded by the reserve rule).
    general_active: usize,
}

struct PoolShared {
    queues: Mutex<Queues>,
    cv: Condvar,
    shutdown: AtomicBool,
    workers: usize,
}

impl PoolShared {
    /// Max general-class jobs running at once: all workers but one, so a
    /// flush can always find a lane (single-worker pools cannot reserve).
    fn general_cap(&self) -> usize {
        if self.workers >= 2 {
            self.workers - 1
        } else {
            self.workers
        }
    }
}

/// A fixed set of worker threads multiplexing flush and general jobs from
/// any number of databases. Dropping the last handle stops the workers
/// after their current job (remaining queued jobs are discarded; databases
/// drain their own pending work before releasing the pool).
pub struct JobPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobPool {
    /// Spawns a pool with `workers` threads (clamped to ≥ 1).
    #[must_use]
    pub fn new(workers: usize) -> Arc<JobPool> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: Mutex::new(Queues {
                flush: VecDeque::new(),
                general: VecDeque::new(),
                general_active: 0,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
        });
        let mut threads = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = shared.clone();
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        Arc::new(JobPool { shared, threads: Mutex::new(threads) })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// How many general-class jobs can run at once (the workers minus the
    /// lane reserved for flushes).
    #[must_use]
    pub fn general_lanes(&self) -> usize {
        self.shared.general_cap()
    }

    /// Enqueues `job` under `class`. Jobs submitted after the pool began
    /// shutting down are silently dropped.
    pub fn spawn(&self, class: JobClass, job: Job) {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut q = self.shared.queues.lock();
        match class {
            JobClass::Flush => q.flush.push_back(job),
            JobClass::General => q.general.push_back(job),
        }
        drop(q);
        self.shared.cv.notify_all();
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _q = self.shared.queues.lock();
            self.shared.cv.notify_all();
        }
        // The last pool handle can be dropped *from a worker thread* (a
        // background job may hold the final `Arc<DbInner>` that owns the
        // pool); a thread cannot join itself, so that handle is detached
        // and exits on its own after the current job.
        let me = std::thread::current().id();
        for t in self.threads.lock().drain(..) {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let (job, class) = {
            let mut q = shared.queues.lock();
            loop {
                if let Some(job) = q.flush.pop_front() {
                    break (job, JobClass::Flush);
                }
                if q.general_active < shared.general_cap() {
                    if let Some(job) = q.general.pop_front() {
                        q.general_active += 1;
                        break (job, JobClass::General);
                    }
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                shared.cv.wait(&mut q);
            }
        };
        job();
        if class == JobClass::General {
            let mut q = shared.queues.lock();
            q.general_active -= 1;
            drop(q);
            // A general slot freed; a queued general job may now run.
            shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_drains_on_drop() {
        let pool = JobPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..16 {
            let done = done.clone();
            let tx = done_tx.clone();
            pool.spawn(
                JobClass::General,
                Box::new(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(());
                }),
            );
        }
        for _ in 0..16 {
            done_rx.recv_timeout(Duration::from_secs(5)).expect("job ran");
        }
        assert_eq!(done.load(Ordering::SeqCst), 16);
        drop(pool);
    }

    /// With every worker-but-one busy on general jobs, a flush must still
    /// find the reserved lane immediately.
    #[test]
    fn flush_lane_survives_general_saturation() {
        let pool = JobPool::new(2);
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        // Saturate: the general cap is workers-1 = 1, so one blocker runs
        // and the rest queue behind it.
        for _ in 0..4 {
            let release = release.clone();
            pool.spawn(
                JobClass::General,
                Box::new(move || {
                    let (lock, cv) = &*release;
                    let mut go = lock.lock();
                    while !*go {
                        cv.wait(&mut go);
                    }
                }),
            );
        }
        let (flush_tx, flush_rx) = std::sync::mpsc::channel();
        pool.spawn(
            JobClass::Flush,
            Box::new(move || {
                let _ = flush_tx.send(());
            }),
        );
        // The flush must complete while all general blockers still hold.
        flush_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("flush starved by general saturation");
        let (lock, cv) = &*release;
        *lock.lock() = true;
        cv.notify_all();
    }

    /// Flush jobs jump ahead of already-queued general jobs.
    #[test]
    fn flush_dequeues_before_queued_general() {
        let pool = JobPool::new(1);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            // Occupy the single worker so subsequent spawns queue.
            let gate = gate.clone();
            pool.spawn(
                JobClass::General,
                Box::new(move || {
                    let (lock, cv) = &*gate;
                    let mut go = lock.lock();
                    while !*go {
                        cv.wait(&mut go);
                    }
                }),
            );
        }
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..2 {
            let order = order.clone();
            let tx = tx.clone();
            pool.spawn(
                JobClass::General,
                Box::new(move || {
                    order.lock().push("general");
                    let _ = tx.send(());
                }),
            );
        }
        {
            let order = order.clone();
            let tx = tx.clone();
            pool.spawn(
                JobClass::Flush,
                Box::new(move || {
                    order.lock().push("flush");
                    let _ = tx.send(());
                }),
            );
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(5)).expect("job ran");
        }
        assert_eq!(
            order.lock().first(),
            Some(&"flush"),
            "flush must dequeue before earlier-queued general jobs"
        );
    }
}
