//! The threads an engine keeps are the `JobPool` workers, the optional
//! ticker and a replica's poller; the read path has none. Kept in a test
//! binary of its own so that no neighbouring test's threads are counted.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use shield_env::MemEnv;
use shield_lsm::{Db, Options};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn readahead_starts_no_thread() {
    let env = Arc::new(MemEnv::new());
    let idle = os_threads();
    let serial = Db::open(Options::new(env.clone()), "serial").expect("open");
    let per_db = os_threads() - idle;
    assert!(per_db > 0, "the job pool's workers should show in /proc/self/task");
    let ahead = Db::open(Options::new(env).with_readahead_blocks(16), "ahead").expect("open");
    assert_eq!(os_threads() - idle - per_db, per_db, "readahead_blocks = 16 changed the thread count");
    drop((serial, ahead));
}
