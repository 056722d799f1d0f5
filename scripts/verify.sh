#!/usr/bin/env bash
# Repo verification tiers.
#
#   tier 1: cargo build --release && cargo test -q     (the seed gate:
#           the root package's integration suites), then the member
#           crates' own unit tests (cargo test --workspace minus the root
#           package, ~490 tests the seed gate never runs)
#   tier 2: cargo test -q --test fault_injection       (torture matrix)
#   tier 3: bench-smoke — crypto kernel perf-regression gate: on 4 KiB
#           payloads batched AES-CTR must stay ≥2x (ChaCha20 ≥1.5x) the
#           scalar reference, and SHA-256 ≥3x / CRC32C ≥8x where the CPU
#           has SHA-NI / SSE4.2. Writes under target/; the committed
#           BENCH_crypto.json comes from a full run only
#           (see DESIGN.md § perf kernels).
#   tier 4: obs-smoke — observability gate: a small SHIELD workload must
#           pair flush/compaction begin+end events in its LOG, the
#           shield_metrics_v1 JSON must carry every stable key, and a
#           *disabled* PerfContext timer pair must cost < 2% of one
#           4 KiB chunk encryption (see DESIGN.md §4e), refreshing
#           OBS_metrics.json.
#   tier 5: compaction-stress — parallel-subcompaction gate: the
#           differential equivalence suite (serial vs subrange-stitched
#           merges, all three encryption modes, boundary regression) plus
#           the concurrent writer/iterator/snapshot stress with
#           max_subcompactions=4, and the bench binary's engagement
#           checks over simulated remote storage: the parallel config
#           splits its compactions, and compaction inputs really stream
#           (≤ 32 scan read calls per MiB of input; one read per block
#           would be 256). Writes under target/ (see DESIGN.md §4f, §4g).
#   tier 6: read-path — unified BlockFetcher gate: the cache-model
#           equivalence/pinning/single-flight/readahead suite, plus the
#           readpath bench's engagement check over simulated remote
#           storage (8-thread hot-key misses must coalesce, readahead
#           must prefetch) in all three encryption modes
#           (see DESIGN.md §4g).
#   tier 7: adversarial — authenticated-integrity gate: the tamper
#           matrix (bit-flips, CRC-repatch forgeries, block swaps,
#           cross-file splices, WAL forgery/replay, truncation, the
#           rollback negative control, across plain/EncFS/SHIELD ×
#           crc/hmac), the hostile-input fuzzers over every persisted-
#           bytes parser, and the integrity bench's engagement check
#           (HMAC runs verify every block, clean data verifies clean)
#           (see DESIGN.md §4h).
#   tier 8: batched-io — multi_get gate: the differential suite
#           (multi_get ≡ serial gets across plain/EncFS/SHIELD,
#           snapshots, memtable residents, per-slot fault isolation),
#           plus the multiget bench's engagement check over simulated
#           remote storage — the batch must actually reach the batched
#           read path (nonzero batched_reads carrying several requests
#           per submission) and scans must prefetch
#           (see DESIGN.md §4i).
#   tier 9: trace-smoke — flight-recorder gate: the flight_recorder
#           suite (cold multi_get trace shape over remote storage,
#           slow-op capture under an injected 10 ms env delay, the
#           stall watchdog under a stuck-read fault, debug-bundle JSON)
#           plus the metrics_schema golden-key suite, plus the
#           trace_smoke bench: the same scenarios end to end and the
#           < 2% disabled-overhead gate re-measured against the
#           trace::span hook now compiled into the hot paths
#           (see DESIGN.md §4j).
#   tier 10: sharded — range/hash-sharded engine gate: the cross-shard
#           differential suite (ShardedDb{1,2,4,8} vs a single-LSM
#           oracle across plain/EncFS/SHIELD, boundary-straddling
#           batches), the sharded concurrent model check, the sharded
#           crash-recovery cases, the shared-pool fair-scheduling
#           regression (a compaction-saturated shard may not delay a
#           neighbor's flush), the sharded golden metrics schema, and
#           the shards bench's engagement check (every shard takes keys
#           and flushes at 4 shards; the full-mode ≥ 2.5x fillrandom
#           scaling gate lives in the committed BENCH_shards.json run)
#           (see DESIGN.md §4k).
#   tier 11: replica — incremental replay engine + live read-replica
#           gate: the replica differential suite (ReplicaDb tailing a
#           live primary across plain/EncFS/SHIELD, WAL switches under
#           load, primary crash mid-manifest-edit, the staleness bound
#           tripping under injected faults, SHIELD-over-RemoteEnv with
#           the reader's own DEK resolver), plus the replica bench's
#           engagement check — the tailer must apply >0 manifest edits
#           and >0 WAL records and finish with zero staleness
#           (see DESIGN.md §4l).
#   lint  : no .unwrap() in library (non-test) code of the hardened
#           engine paths crates/lsm/src/{wal.rs,sst/,db/} — recoverable
#           errors must stay errors (see DESIGN.md §4c); plus clippy's
#           needless_range_loop over the crypto crate so hot loops stay
#           iterator-shaped, and clippy -D warnings over the
#           observability crate shield-core so the zero-dep types stay
#           clean, and clippy -D warnings over shield-lsm so the
#           rewritten cache/fetcher read path stays clean, and clippy
#           -D warnings over shield-crypto so the HMAC/KDF kernels stay
#           clean, and clippy -D warnings over shield-env so the batched
#           read queue and network model stay clean (all skipped if
#           clippy is unavailable).
#
# Usage: scripts/verify.sh [--quick]
#   --quick skips the release build and the tiers that need it
#   (clippy gate, tier 3 bench-smoke).

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== lint: unwrap gate (crates/lsm/src/{wal,sst,db} library code) =="
fail=0
for f in crates/lsm/src/wal.rs $(find crates/lsm/src/sst crates/lsm/src/db -name '*.rs' | sort); do
    # Only scan up to the first #[cfg(test)]: tests may unwrap freely.
    hits=$(awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)/{print FILENAME": "FNR": "$0}' "$f")
    if [[ -n "$hits" ]]; then
        echo "$hits"
        fail=1
    fi
done
if [[ $fail -ne 0 ]]; then
    echo "FAIL: .unwrap() in engine library code; return an Error (or route"
    echo "      infallible slice→array conversions through shield_lsm::varint::fixed)."
    exit 1
fi
echo "ok"

if [[ $quick -eq 0 ]]; then
    echo "== lint: clippy gate (shield-crypto kernels) =="
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --release -q -p shield-crypto -- -D warnings
        echo "ok"
    else
        echo "skipped (cargo clippy unavailable)"
    fi

    echo "== lint: clippy gate (shield-core observability crate) =="
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --release -q -p shield-core -- -D warnings
        echo "ok"
    else
        echo "skipped (cargo clippy unavailable)"
    fi

    echo "== lint: clippy gate (shield-lsm cache/fetcher read path) =="
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --release -q -p shield-lsm -- -D warnings
        echo "ok"
    else
        echo "skipped (cargo clippy unavailable)"
    fi

    echo "== lint: clippy gate (shield-env batched I/O + network model) =="
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --release -q -p shield-env -- -D warnings
        echo "ok"
    else
        echo "skipped (cargo clippy unavailable)"
    fi

    echo "== tier 1a: release build =="
    cargo build --release
fi

echo "== tier 1b: root package tests (the seed gate's command) =="
cargo test -q

echo "== tier 1c: member crates' unit tests =="
cargo test -q --workspace --exclude shield-repro

echo "== tier 2: fault-injection torture matrix =="
cargo test -q --test fault_injection

if [[ $quick -eq 0 ]]; then
    echo "== tier 3: bench-smoke (crypto kernel perf-regression gate) =="
    cargo run --release -q -p shield-bench --bin crypto -- --smoke
    for key in batched_mib_s scalar_mib_s cipher_init_ns speedup_4096 hardware_mib_s reference_mib_s; do
        if ! grep -q "\"$key\"" target/BENCH_crypto_smoke.json; then
            echo "FAIL: target/BENCH_crypto_smoke.json missing key $key"
            exit 1
        fi
    done
    echo "ok"

    echo "== tier 4: obs-smoke (event log + metrics + PerfContext gate) =="
    cargo run --release -q -p shield-bench --bin obs_smoke -- --out OBS_metrics.json
    for key in schema levels latencies_us tickers gauges; do
        if ! grep -q "\"$key\"" OBS_metrics.json; then
            echo "FAIL: OBS_metrics.json missing key $key"
            exit 1
        fi
    done
    echo "ok"
fi

echo "== tier 5: compaction-stress (parallel subcompactions) =="
cargo test -q --test subcompaction_equivalence
cargo test -q --test model_check concurrent_workload_under_parallel_compactions_matches_oracle
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin subcompaction -- --smoke
    if ! grep -q '"read_calls_per_input_mib"' target/BENCH_subcompaction_smoke.json; then
        echo "FAIL: target/BENCH_subcompaction_smoke.json missing key read_calls_per_input_mib"
        exit 1
    fi
fi
echo "ok"

echo "== tier 6: read-path (unified fetcher + cache model + readahead) =="
cargo test -q --test read_path
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin readpath -- --smoke --out /tmp/BENCH_readpath_smoke.json
fi
echo "ok"

echo "== tier 7: adversarial (tamper matrix + hostile-input fuzz + integrity bench) =="
cargo test -q --test tamper
cargo test -q --test hostile_inputs
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin integrity -- --smoke --out /tmp/BENCH_integrity_smoke.json
fi
echo "ok"

echo "== tier 8: batched-io (multi_get differential suite + batching engagement) =="
cargo test -q --test multi_get
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin multiget -- --smoke --out /tmp/BENCH_multiget_smoke.json
    if ! grep -q '"batched_reads": [1-9]' /tmp/BENCH_multiget_smoke.json; then
        echo "FAIL: smoke multiget bench reported zero batched_reads"
        exit 1
    fi
fi
echo "ok"

echo "== tier 9: trace-smoke (flight recorder + golden schema + disabled overhead) =="
cargo test -q --test flight_recorder
cargo test -q --test metrics_schema
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin trace_smoke -- --out /tmp/TRACE_smoke.json
fi
echo "ok"

echo "== tier 10: sharded (differential equivalence + fairness + crash recovery) =="
cargo test -q --test sharded_equivalence
cargo test -q --test model_check concurrent_sharded_workload_matches_per_prefix_oracles
cargo test -q --test crash_recovery sharded
cargo test -q --test shard_scheduling
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin shards -- --smoke --out /tmp/BENCH_shards_smoke.json
    for key in fillrandom readwhilewriting fillrandom_speedup_4 shards_with_flushes; do
        if ! grep -q "\"$key\"" /tmp/BENCH_shards_smoke.json; then
            echo "FAIL: BENCH_shards_smoke.json missing key $key"
            exit 1
        fi
    done
fi
echo "ok"

echo "== tier 11: replica (incremental replay engine + live read replicas) =="
cargo test -q --test replica
if [[ $quick -eq 0 ]]; then
    cargo run --release -q -p shield-bench --bin replica -- --smoke --out /tmp/BENCH_replica_smoke.json
    for key in manifest_edits_applied wal_records_applied catchup_records_s final_staleness; do
        if ! grep -q "\"$key\"" /tmp/BENCH_replica_smoke.json; then
            echo "FAIL: BENCH_replica_smoke.json missing key $key"
            exit 1
        fi
    done
fi
echo "ok"

echo "ALL VERIFICATION TIERS PASSED"
