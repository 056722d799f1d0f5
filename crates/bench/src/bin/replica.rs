//! Live read-replica benchmark over the disaggregated topology
//! (DESIGN.md §4l): a SHIELD primary and a [`shield_lsm::ReplicaDb`]
//! each mount one shared store through their own network-modeled
//! [`RemoteEnv`], and the replica tails the primary's manifest + WAL
//! while the write workload runs.
//!
//! Measured quantities:
//!   * **live tail lag** — staleness (records) observed after each
//!     poll round while the primary ingests at full speed,
//!   * **catch-up throughput** — WAL records/s the replay engine
//!     applies when draining a quiesced backlog,
//!   * **replica read throughput** — random gets served from the
//!     replica's published view vs. the same reads on the primary.
//!
//! `--smoke` shrinks the workload; both modes assert the engagement
//! gate: the replica must have applied >0 manifest edits and >0 WAL
//! records, finished with zero staleness, and a sampled read-back must
//! match the primary byte for byte — the `bench-smoke` tier of
//! `scripts/verify.sh`.
//!
//! The primary opens through `shield_bench::systems`; the replica open
//! stays here — a `ReplicaDb` is not one of the five systems it builds.

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use shield::{open_shield_replica, ShieldOptions};
use shield_bench::harness::{self, Bench};
use shield_bench::rng::Rng;
use shield_bench::{SystemKind, SystemStore, Tuning};
use shield_env::{Env, MemEnv, NetworkModel, RemoteEnv};
use shield_kds::{Kds, ServerId};
use shield_lsm::{ReadOptions, ReplicaOptions, WriteOptions};

const READER: ServerId = ServerId(3);

fn key_of(id: u32) -> Vec<u8> {
    format!("key-{id:08}").into_bytes()
}

fn mean(samples: &[u64]) -> Option<f64> {
    harness::ratio(samples.iter().sum::<u64>() as f64, samples.len() as f64)
}

fn main() -> ExitCode {
    let mut bench = Bench::from_args("replica");
    let (live_keys, backlog_keys, reads): (u32, u32, u32) =
        bench.pick((2_000, 2_000, 2_000), (20_000, 20_000, 20_000));
    let value = vec![0x5au8; 100];

    // One shared store; primary and replica each pay their own network
    // path to it (the paper's compute/storage split). The measured run
    // uses the paper's intra-datacenter figures; smoke keeps the gate
    // fast with an unmetered link.
    let model = bench.pick(NetworkModel::unlimited(), NetworkModel::intra_datacenter());
    let model = bench.record_network(model);
    let backing: Arc<dyn Env> = Arc::new(MemEnv::new());
    let primary_mount: Arc<dyn Env> = Arc::new(RemoteEnv::new(backing.clone(), model));
    let replica_mount: Arc<dyn Env> = Arc::new(RemoteEnv::new(backing, model));

    let store = SystemStore::new(SystemKind::ShieldBuf, primary_mount, "db", Tuning::default());
    let primary_sys = store.open().expect("open primary");
    let primary = primary_sys.db();
    let w = WriteOptions { sync: true };

    // Seed a little state so the replica opens onto a real manifest.
    for id in 0..64u32 {
        primary.put(&w, &key_of(id), &value).expect("seed put");
    }
    primary.flush().expect("seed flush");

    let replica = open_shield_replica(
        replica_mount,
        "db",
        "reader.cache",
        ShieldOptions::new(store.kds.clone() as Arc<dyn Kds>, READER, b"reader-pass"),
        ReplicaOptions { auto_poll: false, ..ReplicaOptions::default() },
    )
    .expect("open replica");

    // Phase 1 — live tail: the primary ingests while the replica polls
    // every `batch` writes; lag is sampled after each round.
    let batch = (live_keys / 50).max(1);
    let mut lag_samples: Vec<u64> = Vec::new();
    let mut round_micros: Vec<u64> = Vec::new();
    let live_start = Instant::now();
    for id in 64..live_keys {
        primary.put(&w, &key_of(id), &value).expect("live put");
        if id % batch == 0 {
            let t = Instant::now();
            replica.catch_up().expect("live catch_up");
            round_micros.push(t.elapsed().as_micros() as u64);
            lag_samples.push(replica.staleness());
        }
    }
    let live_secs = live_start.elapsed().as_secs_f64();

    // Phase 2 — backlog drain: write a quiesced backlog (with a flush in
    // the middle so the replay crosses a manifest edit), then time the
    // replica catching up from a standstill.
    for id in live_keys..live_keys + backlog_keys {
        primary.put(&w, &key_of(id), &value).expect("backlog put");
        if id == live_keys + backlog_keys / 2 {
            primary.flush().expect("backlog flush");
        }
    }
    let stats = replica.statistics();
    let records_before = stats.replica_wal_records_applied.load(Ordering::Relaxed);
    let drain_start = Instant::now();
    while !replica.catch_up().expect("drain catch_up") {}
    let drain_secs = drain_start.elapsed().as_secs_f64();
    let drained = stats.replica_wal_records_applied.load(Ordering::Relaxed) - records_before;

    // Phase 3 — read throughput: the same random gets on replica and
    // primary (both paths pay their RemoteEnv mount).
    let total_keys = u64::from(live_keys + backlog_keys);
    let r = ReadOptions::new();
    let mut rng = Rng::new(0x5eed_1234);
    let replica_read_start = Instant::now();
    for _ in 0..reads {
        let id = rng.next_below(total_keys) as u32;
        assert!(replica.get(&key_of(id)).expect("replica get").is_some(), "replica lost key {id}");
    }
    let replica_read_secs = replica_read_start.elapsed().as_secs_f64();
    let mut rng = Rng::new(0x5eed_1234);
    let primary_read_start = Instant::now();
    for _ in 0..reads {
        let id = rng.next_below(total_keys) as u32;
        primary.get(&r, &key_of(id)).expect("primary get");
    }
    let primary_read_secs = primary_read_start.elapsed().as_secs_f64();

    // Differential spot-check: replica ≡ primary on a sample.
    let mut rng = Rng::new(0xd1ff_0001);
    let diverged = (0..256)
        .filter(|_| {
            let key = key_of(rng.next_below(total_keys) as u32);
            replica.get(&key).expect("replica get") != primary.get(&r, &key).expect("primary get")
        })
        .count();

    let snapshot = stats.snapshot();
    let final_staleness = replica.staleness();
    let j = bench.json();
    j.field_str("encryption", "shield");
    j.field_str("topology", "remote_env_per_node");
    j.field_u64("live_keys", u64::from(live_keys));
    j.field_u64("backlog_keys", u64::from(backlog_keys));
    j.field_u64("value_bytes", value.len() as u64);
    j.field_opt_f64("live_ingest_records_s", harness::ratio(f64::from(live_keys), live_secs));
    j.field_u64("live_lag_records_max", lag_samples.iter().copied().max().unwrap_or(0));
    j.field_opt_f64("live_lag_records_mean", mean(&lag_samples));
    j.field_opt_f64("live_poll_round_us_mean", mean(&round_micros));
    j.field_u64("catchup_drain_records", drained);
    j.field_opt_f64("catchup_records_s", harness::ratio(drained as f64, drain_secs));
    j.field_opt_f64("replica_reads_s", harness::ratio(f64::from(reads), replica_read_secs));
    j.field_opt_f64("primary_reads_s", harness::ratio(f64::from(reads), primary_read_secs));
    j.field_u64("manifest_edits_applied", snapshot.replica_manifest_edits_applied);
    j.field_u64("wal_records_applied", snapshot.replica_wal_records_applied);
    j.field_u64("rollovers_followed", snapshot.replica_rollovers_followed);
    j.field_u64("final_staleness", final_staleness);

    // The replay engine must actually have been driven.
    bench.engaged(
        &format!(
            "replica applied {} manifest edits and {} WAL records",
            snapshot.replica_manifest_edits_applied, snapshot.replica_wal_records_applied
        ),
        snapshot.replica_manifest_edits_applied > 0 && snapshot.replica_wal_records_applied > 0,
    );
    bench.engaged(
        &format!("replica finished with staleness {final_staleness} == 0"),
        final_staleness == 0,
    );
    bench.engaged(
        &format!("replica matched the primary on all but {diverged} of 256 sampled keys"),
        diverged == 0,
    );
    bench.finish()
}
