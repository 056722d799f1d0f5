//! End-to-end behavior of the three compaction policies through the full
//! database (paper §6.3, Fig. 15): leveled drains L0 downward, universal
//! merges runs in place, FIFO evicts old data wholesale — and SHIELD's
//! rotation works under all of them.

use std::sync::Arc;

use shield::{open_shield, ShieldOptions};
use shield_env::MemEnv;
use shield_kds::{Kds, KdsConfig, LocalKds, ServerId};
use shield_lsm::{CompactionStyle, Db, Options, ReadOptions, WriteOptions};

fn opts(env: &MemEnv, style: CompactionStyle) -> Options {
    let mut o = Options::new(Arc::new(env.clone()))
        .with_write_buffer_size(8 << 10)
        .with_compaction_style(style);
    o.compaction.l0_compaction_trigger = 2;
    o.compaction.universal_run_trigger = 3;
    o.compaction.fifo_max_bytes = 48 << 10;
    o.compaction.target_file_size = 32 << 10;
    o
}

fn fill(db: &Db, n: u32, key_mod: u32) {
    let w = WriteOptions::default();
    for i in 0..n {
        db.put(&w, format!("key{:06}", i % key_mod).as_bytes(), &[b'v'; 64]).unwrap();
    }
}

#[test]
fn leveled_pushes_data_down() {
    let env = MemEnv::new();
    let db = Db::open(opts(&env, CompactionStyle::Leveled), "db").unwrap();
    fill(&db, 4000, 1000);
    db.compact_all().unwrap();
    let levels = db.metrics_report().levels;
    assert!(levels[0].files <= 2, "L0 should drain: {levels:?}");
    assert!(levels.iter().any(|l| l.level == 1), "L1 should fill: {levels:?}");
    // All latest values readable.
    let r = ReadOptions::new();
    for i in (0..1000).step_by(111) {
        assert!(db.get(&r, format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
}

#[test]
fn universal_merges_runs_in_l0() {
    let env = MemEnv::new();
    let db = Db::open(opts(&env, CompactionStyle::Universal), "db").unwrap();
    fill(&db, 4000, 1000);
    db.compact_all().unwrap();
    let levels = db.metrics_report().levels;
    // Universal keeps everything as few L0 runs; deeper levels stay empty
    // (the report lists non-empty levels only, level 0 always).
    assert!(levels[0].files <= 3, "runs should merge: {levels:?}");
    assert_eq!(levels.len(), 1, "universal must not populate deeper levels: {levels:?}");
    assert!(db.statistics().snapshot().compactions >= 1);
    let r = ReadOptions::new();
    for i in (0..1000).step_by(111) {
        assert!(db.get(&r, format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
}

#[test]
fn fifo_evicts_oldest_data() {
    let env = MemEnv::new();
    let db = Db::open(opts(&env, CompactionStyle::Fifo), "db").unwrap();
    // Distinct keys so eviction is observable: newest keys survive.
    let w = WriteOptions::default();
    for i in 0..6000u32 {
        db.put(&w, format!("key{i:06}").as_bytes(), &[b'v'; 64]).unwrap();
    }
    db.compact_all().unwrap();
    // Total size bounded.
    let total: u64 = db.metrics_report().levels.iter().map(|l| l.bytes).sum();
    assert!(total <= 80 << 10, "FIFO must bound size, got {total}");
    let r = ReadOptions::new();
    // Newest keys present (still in memtable/new files)…
    assert!(db.get(&r, b"key005999").unwrap().is_some());
    // …and at least some oldest flushed keys are gone.
    let mut evicted = 0;
    for i in 0..500u32 {
        if db.get(&r, format!("key{i:06}").as_bytes()).unwrap().is_none() {
            evicted += 1;
        }
    }
    assert!(evicted > 0, "FIFO should have evicted old keys");
    // No merge compactions were run (FIFO only trims).
    assert_eq!(db.statistics().snapshot().compaction_bytes_written, 0);
}

#[test]
fn shield_rotation_under_every_style() {
    for style in [CompactionStyle::Leveled, CompactionStyle::Universal] {
        let env = MemEnv::new();
        let kds = Arc::new(LocalKds::new(KdsConfig::default()));
        let db = open_shield(
            opts(&env, style),
            "db",
            ShieldOptions::new(kds.clone() as Arc<dyn Kds>, ServerId(1), b"pk"),
        )
        .unwrap();
        fill(&db, 4000, 500);
        db.compact_all().unwrap();
        let stats = kds.stats();
        assert!(
            stats.generated as usize > kds.live_dek_count(),
            "{style:?}: compaction must retire DEKs (generated {}, live {})",
            stats.generated,
            kds.live_dek_count()
        );
        let r = ReadOptions::new();
        for i in (0..500).step_by(97) {
            assert!(
                db.get(&r, format!("key{i:06}").as_bytes()).unwrap().is_some(),
                "{style:?}: key{i:06} lost"
            );
        }
    }
}

#[test]
fn write_stalls_engage_under_pressure() {
    let env = MemEnv::new();
    let mut o = Options::new(Arc::new(env.clone())).with_write_buffer_size(4 << 10);
    // One slow background thread, aggressive stall thresholds.
    o = o.with_background_jobs(1);
    o.max_immutable_memtables = 1;
    o.l0_slowdown_trigger = 2;
    o.l0_stop_trigger = 4;
    o.compaction.l0_compaction_trigger = 2;
    let db = Db::open(o, "db").unwrap();
    fill(&db, 5000, 5000);
    db.compact_all().unwrap();
    let stats = db.statistics().snapshot();
    assert!(stats.write_stalls > 0, "backpressure should have engaged");
    assert!(stats.stall_micros > 0);
    // Despite stalls, nothing was lost.
    let r = ReadOptions::new();
    for i in (0..5000).step_by(499) {
        assert!(db.get(&r, format!("key{i:06}").as_bytes()).unwrap().is_some());
    }
}

#[test]
fn overwrites_reclaim_space_under_leveled() {
    let env = MemEnv::new();
    let db = Db::open(opts(&env, CompactionStyle::Leveled), "db").unwrap();
    // Write the same small key set many times over.
    fill(&db, 20_000, 100);
    db.compact_all().unwrap();
    let total: u64 = db.metrics_report().levels.iter().map(|l| l.bytes).sum();
    // 100 keys × ~80 bytes ≈ 8 KiB of live data; compaction must have
    // dropped the shadowed versions (allow generous slack for metadata).
    assert!(total < 64 << 10, "space not reclaimed: {total} bytes live");
    let snap = db.statistics().snapshot();
    assert!(snap.compactions >= 1);
}
