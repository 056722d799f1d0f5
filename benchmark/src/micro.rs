//! The `micro` pass: unit costs of single layers, timed by calling their
//! public functions directly on inputs shaped like the workloads' (16 B
//! keys, 100 B values, 4 KiB blocks, 512 B WAL buffer).
//!
//! Each cost is the median of five batches. In-memory layers run over
//! `MemEnv` so that the number is the layer's own; only
//! `env.posix_append_128b_ns` touches the file system.

use std::hint::black_box;
use std::sync::Arc;

use bytes::Bytes;
use shield_crypto::{
    crc32c, hmac_sha256, pbkdf2_hmac_sha256, Algorithm, CipherContext, Dek, NONCE_LEN,
};
use shield_env::{Env, FileKind, MemEnv, NetworkModel, PosixEnv, ReadRequest, RemoteEnv};
use shield_kds::{DekResolver, Kds, KdsConfig, LocalKds, SecureDekCache, ServerId};
use shield_lsm::cache::{BlockCache, BlockKind};
use shield_lsm::encryption::EncryptionConfig;
use shield_lsm::integrity::{block_tag, ReadIntegrity, CONTEXT_LEN};
use shield_lsm::iter::InternalIterator;
use shield_lsm::memtable::MemTable;
use shield_lsm::sst::builder::TableBuilderOptions;
use shield_lsm::sst::{Block, BlockBuilder, BlockFetcher, Table, TableBuilder};
use shield_lsm::types::{make_internal_key, ValueType};
use shield_lsm::wal::{LogReader, LogWriter};

use crate::gen::{Codec, Rng, ValueSizes, VALUE_LEN};
use crate::trace::now_ns;

/// Entries per table / memtable / log in the unit inputs.
const ENTRIES: u64 = 20_000;

/// Median nanoseconds per call of `f` over five batches, each sized to take
/// about `batch_ms`.
fn ns_per_call(batch_ms: u64, mut f: impl FnMut()) -> f64 {
    let t0 = now_ns();
    let mut calibration = 0u64;
    while now_ns() - t0 < 2_000_000 {
        f();
        calibration += 1;
    }
    let per_call = ((now_ns() - t0) / calibration).max(1);
    let iters = (batch_ms * 1_000_000 / per_call).clamp(3, 10_000_000);
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..iters {
                f();
            }
            (now_ns() - t0) as f64 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

fn shield_config(kds_config: KdsConfig, env: &Arc<dyn Env>) -> EncryptionConfig {
    let kds: Arc<dyn Kds> = Arc::new(LocalKds::new(kds_config));
    let cache = SecureDekCache::open(env.clone(), "micro/DEK_CACHE", b"benchmark-passkey")
        .expect("fresh DEK cache");
    let resolver = DekResolver::new(
        kds,
        Some(Arc::new(cache)),
        ServerId(1),
        Algorithm::Aes128Ctr,
    );
    EncryptionConfig::new(Arc::new(resolver))
}

fn entry(codec: &Codec, id: u64, value: &mut Vec<u8>) -> Vec<u8> {
    codec.value_into(id, 1, value);
    make_internal_key(&Codec::key(id), id + 1, ValueType::Value)
}

/// Builds an `ENTRIES`-entry table at `path`; returns ns per entry.
fn build_table(env: &Arc<dyn Env>, shield: Option<&EncryptionConfig>, path: &str) -> f64 {
    let codec = Codec {
        seed: 1,
        sizes: ValueSizes::Fixed,
    };
    let mut value = Vec::new();
    let t0 = now_ns();
    let (file, opts) = match shield {
        Some(cfg) => {
            let (file, dek_id, mac) = cfg
                .new_writable_with_mac(env.as_ref(), path, FileKind::Sst)
                .expect("sst file");
            (
                file,
                TableBuilderOptions {
                    dek_id: Some(dek_id),
                    mac_key: mac,
                    ..TableBuilderOptions::default()
                },
            )
        }
        None => (
            env.new_writable_file(path, FileKind::Sst)
                .expect("sst file"),
            TableBuilderOptions::default(),
        ),
    };
    let mut builder = TableBuilder::new(file, opts);
    for id in 0..ENTRIES {
        let ikey = entry(&codec, id, &mut value);
        builder.add(&ikey, &value).expect("table add");
    }
    builder.finish().expect("table finish");
    (now_ns() - t0) as f64 / ENTRIES as f64
}

fn open_table(
    env: &Arc<dyn Env>,
    cfg: &EncryptionConfig,
    path: &str,
    cache: Option<Arc<BlockCache>>,
) -> Arc<Table> {
    let (file, mac) = cfg
        .open_random_with_mac(env.as_ref(), path, FileKind::Sst)
        .expect("open sst");
    let integrity = ReadIntegrity {
        key: mac.unwrap_or([0; 32]),
        expect_hmac: true,
        events: None,
    };
    Arc::new(
        Table::open_with_fetcher(file, 7, 7, BlockFetcher::new(cache, 0), None, integrity)
            .expect("open table"),
    )
}

/// Runs every unit cost. `scratch_dir` is where the one file-system cost
/// writes.
pub fn run(scratch_dir: &str) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = Rng::new(0x6d_6963_726f);
    let dek = Dek::generate(Algorithm::Aes128Ctr);
    let nonce = [7u8; NONCE_LEN];
    let mut block_4k = vec![0u8; 4096];
    rng.fill(&mut block_4k);
    let mut small = vec![0u8; 128];

    // ---- crypto ----------------------------------------------------------
    out.push((
        "crypto.cipher_init_ns",
        ns_per_call(20, || {
            black_box(CipherContext::new(black_box(&dek), &nonce));
        }),
    ));
    let ctx = CipherContext::new(&dek, &nonce);
    out.push((
        "crypto.ctr_128b_ns",
        ns_per_call(20, || ctx.encrypt_at(4096, black_box(&mut small))),
    ));
    out.push((
        "crypto.ctr_4k_ns",
        ns_per_call(20, || ctx.encrypt_at(8192, black_box(&mut block_4k))),
    ));
    let mac_key = [9u8; 32];
    out.push((
        "crypto.hmac_4k_ns",
        ns_per_call(20, || {
            black_box(hmac_sha256(&mac_key, black_box(&block_4k)));
        }),
    ));
    out.push((
        "crypto.crc32c_4k_ns",
        ns_per_call(20, || {
            black_box(crc32c(black_box(&block_4k)));
        }),
    ));
    // The secure DEK cache's own parameters: 2048 iterations, 48 bytes.
    out.push((
        "crypto.pbkdf2_ms",
        ns_per_call(20, || {
            black_box(pbkdf2_hmac_sha256(
                b"benchmark-passkey",
                &[1u8; 16],
                2048,
                48,
            ));
        }) / 1e6,
    ));
    let context = [3u8; CONTEXT_LEN];
    out.push((
        "integrity.block_tag_4k_ns",
        ns_per_call(20, || {
            black_box(block_tag(&mac_key, &context, 4096, 0, black_box(&block_4k)));
        }),
    ));

    // ---- encryption wrapper and WAL ---------------------------------------
    let mem: Arc<dyn Env> = Arc::new(MemEnv::new());
    let cfg = shield_config(KdsConfig::default(), &mem);
    let record = vec![0xabu8; 16 + VALUE_LEN + 24];
    {
        // 128 B appends through the 512 B WAL buffer: cost per drained buffer.
        let (mut file, _) = cfg
            .new_writable(mem.as_ref(), "micro/append.log", FileKind::Wal)
            .expect("wal file");
        out.push((
            "encryption.append_512b_ns",
            4.0 * ns_per_call(20, || file.append(black_box(&small)).expect("append")),
        ));
    }
    for (name, shield) in [
        ("wal.add_record_plain_ns", false),
        ("wal.add_record_shield_ns", true),
    ] {
        let path = format!("micro/{name}.log");
        let mut writer = if shield {
            let (file, _, mac) = cfg
                .new_writable_with_mac(mem.as_ref(), &path, FileKind::Wal)
                .expect("wal file");
            LogWriter::with_integrity(file, mac).expect("log preamble")
        } else {
            LogWriter::new(
                mem.new_writable_file(&path, FileKind::Wal)
                    .expect("wal file"),
            )
        };
        out.push((
            name,
            ns_per_call(20, || {
                writer.add_record(black_box(&record)).expect("add_record")
            }),
        ));
    }
    {
        let (file, _, mac) = cfg
            .new_writable_with_mac(mem.as_ref(), "micro/replay.log", FileKind::Wal)
            .expect("wal file");
        let mut writer = LogWriter::with_integrity(file, mac).expect("log preamble");
        for _ in 0..ENTRIES {
            writer.add_record(&record).expect("add_record");
        }
        writer.sync().expect("sync");
        drop(writer);
        let t0 = now_ns();
        let (src, mac) = cfg
            .open_sequential_with_mac(mem.as_ref(), "micro/replay.log", FileKind::Wal)
            .expect("open wal");
        let mut reader = LogReader::with_integrity(src, mac);
        let mut bytes = 0usize;
        while let Some(rec) = reader.read_record().expect("read_record") {
            bytes += rec.len();
        }
        assert_eq!(
            bytes,
            record.len() * ENTRIES as usize,
            "replay must return every record"
        );
        out.push((
            "wal.replay_mb_s",
            bytes as f64 / 1e6 / ((now_ns() - t0) as f64 / 1e9),
        ));
    }

    // ---- memtable ----------------------------------------------------------
    let codec = Codec {
        seed: 1,
        sizes: ValueSizes::Fixed,
    };
    let mut value = Vec::new();
    {
        let mem_table = MemTable::new(0);
        // Even ids only, so flipping the last digit gives an absent key.
        let present: Vec<[u8; 16]> = (0..ENTRIES)
            .map(|_| Codec::key(rng.below(1 << 40) * 2))
            .collect();
        codec.value_into(1, 1, &mut value);
        let t0 = now_ns();
        for (seq, key) in present.iter().enumerate() {
            mem_table.add(seq as u64 + 1, ValueType::Value, key, &value);
        }
        out.push(("memtable.add_ns", (now_ns() - t0) as f64 / ENTRIES as f64));
        let mut i = 0usize;
        out.push((
            "memtable.get_hit_ns",
            ns_per_call(20, || {
                i = (i + 1) % present.len();
                black_box(mem_table.get(&present[i], u64::MAX >> 8));
            }),
        ));
        out.push((
            "memtable.get_miss_ns",
            ns_per_call(20, || {
                i = (i + 1) % present.len();
                let mut absent = present[i];
                absent[15] |= 1;
                black_box(mem_table.get(&absent, u64::MAX >> 8));
            }),
        ));
    }

    // ---- block cache -------------------------------------------------------
    {
        let cache = BlockCache::new(64 << 20);
        let mut builder = BlockBuilder::new(16);
        for id in 0..30u64 {
            codec.value_into(id, 1, &mut value);
            builder.add(
                &make_internal_key(&Codec::key(id), 1, ValueType::Value),
                &value,
            );
        }
        let block = Arc::new(Block::from_raw(Bytes::from(builder.finish())));
        let mut offset = 0u64;
        out.push((
            "cache.insert_ns",
            ns_per_call(20, || {
                offset += 4096;
                black_box(cache.insert(
                    (1, offset % (8192 * 4096)),
                    &block,
                    4096,
                    BlockKind::Data,
                    false,
                ));
            }),
        ));
        let mut probe = 0u64;
        out.push((
            "cache.lookup_hit_ns",
            ns_per_call(20, || {
                probe = (probe + 4096) % (8192 * 4096);
                black_box(cache.lookup(&(1, probe), BlockKind::Data));
            }),
        ));
    }

    // ---- SST ---------------------------------------------------------------
    out.push((
        "sst.build_ns_per_entry",
        build_table(&mem, None, "micro/plain.sst"),
    ));
    out.push((
        "sst.build_shield_ns_per_entry",
        build_table(&mem, Some(&cfg), "micro/shield.sst"),
    ));
    out.push((
        "sst.open_us",
        ns_per_call(20, || {
            black_box(open_table(&mem, &cfg, "micro/shield.sst", None));
        }) / 1e3,
    ));
    {
        let table = open_table(&mem, &cfg, "micro/shield.sst", None);
        out.push((
            "sst.get_cold_us",
            ns_per_call(20, || {
                let id = rng.below(ENTRIES);
                let hit = table
                    .get(&Codec::key(id), u64::MAX >> 8)
                    .expect("table get");
                assert!(hit.is_some(), "key {id} must be in the table");
            }) / 1e3,
        ));
        let cached = open_table(
            &mem,
            &cfg,
            "micro/shield.sst",
            Some(BlockCache::new(64 << 20)),
        );
        let scan = |table: &Arc<Table>| {
            let mut it = table.iter();
            it.seek_to_first();
            let mut n = 0u64;
            while it.valid() {
                n += 1;
                it.next();
            }
            n
        };
        assert_eq!(scan(&cached), ENTRIES, "warm-up scan must see every entry");
        let t0 = now_ns();
        let n = scan(&cached);
        out.push(("sst.iter_ns_per_entry", (now_ns() - t0) as f64 / n as f64));
        let file = cfg
            .open_random(mem.as_ref(), "micro/shield.sst", FileKind::Sst)
            .expect("open sst");
        let blocks = file.len().expect("len") / 4096 - 1;
        out.push((
            "encryption.read_4k_ns",
            ns_per_call(20, || {
                black_box(
                    file.read_at(rng.below(blocks) * 4096, 4096)
                        .expect("read_at"),
                );
            }),
        ));
    }

    // ---- KDS and secure DEK cache -------------------------------------------
    {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let slow = shield_config(KdsConfig::sstoolkit_like(), &env);
        // Sixty-four live DEKs, about what `fill` holds mid-run.
        let deks: Vec<Dek> = (0..64)
            .map(|_| slow.resolver.new_dek().expect("new_dek"))
            .collect();
        let t0 = now_ns();
        for _ in 0..5 {
            black_box(slow.resolver.new_dek().expect("new_dek"));
        }
        out.push(("kds.new_dek_us", (now_ns() - t0) as f64 / 5.0 / 1e3));
        let mut i = 0usize;
        out.push((
            "kds.resolve_cached_ns",
            ns_per_call(20, || {
                i = (i + 1) % deks.len();
                black_box(slow.resolver.resolve(deks[i].id()).expect("resolve"));
            }),
        ));
        let cache = SecureDekCache::open(env.clone(), "micro/DEK_CACHE_2", b"benchmark-passkey")
            .expect("DEK cache");
        for dek in &deks {
            cache.insert(dek.clone()).expect("insert");
        }
        let extra = Dek::generate(Algorithm::Aes128Ctr);
        // Insert + remove keeps the cache at its size; both persist the file.
        out.push((
            "kds.cache_insert_us",
            ns_per_call(20, || {
                cache.insert(extra.clone()).expect("insert");
                cache.remove(extra.id()).expect("remove");
            }) / 2.0
                / 1e3,
        ));
    }

    // ---- env -----------------------------------------------------------------
    {
        let inner = MemEnv::new();
        let remote = RemoteEnv::new(Arc::new(inner), NetworkModel::intra_datacenter());
        let mut f = remote
            .new_writable_file("micro/remote.sst", FileKind::Sst)
            .expect("remote file");
        f.append(&vec![0x5au8; 1 << 20]).expect("append");
        f.sync().expect("sync");
        drop(f);
        let file = remote
            .new_random_access_file("micro/remote.sst", FileKind::Sst)
            .expect("remote open");
        let remote_us = |f: &dyn Fn()| {
            let t0 = now_ns();
            for _ in 0..8 {
                f();
            }
            (now_ns() - t0) as f64 / 8.0 / 1e3
        };
        out.push((
            "env.remote_read_4k_us",
            remote_us(&|| {
                black_box(file.read_at(40_960, 4096).expect("read_at"));
            }),
        ));
        let batch: Vec<ReadRequest> = (0..16)
            .map(|i| ReadRequest {
                offset: i * 8192,
                len: 4096,
            })
            .collect();
        out.push((
            "env.remote_read_many_16x4k_us",
            remote_us(&|| {
                black_box(file.read_at_many(&batch));
            }),
        ));
    }
    {
        let path = format!("{scratch_dir}/micro-append-{}.bin", std::process::id());
        let mut f = PosixEnv::new()
            .new_writable_file(&path, FileKind::Other)
            .expect("scratch file");
        out.push((
            "env.posix_append_128b_ns",
            ns_per_call(20, || f.append(black_box(&small)).expect("append")),
        ));
        drop(f);
        let _ = std::fs::remove_file(&path);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_unit_metric_of_the_spec_is_measured_once() {
        let got = super::run(&crate::sysinfo::data_root());
        let mut names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = crate::spec::per_layer()
            .filter(|m| m.source == crate::spec::Source::Unit)
            .map(|m| m.name)
            .collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(
            got.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
            "{got:?}"
        );
    }
}
