#!/usr/bin/env bash
# Repo verification: lint, then every test once, then the bench smokes.
#
#   lint  : no .unwrap() in library (non-test) code of the hardened
#           engine paths crates/lsm/src/{wal.rs,files.rs,sst/,db/} —
#           recoverable errors must stay errors (DESIGN.md §4c); the key
#           rule stays in the file layer (DESIGN.md §4m): no `_with_mac(`
#           call and no read of the engine-wide integrity key in
#           crates/{lsm,core}/src library code outside files.rs,
#           encryption.rs, integrity.rs and db/options.rs; and one
#           creator, one queue: a file gets its key in FileStore::create (take a ready
#           DEK or generate one), so no library code under crates/*/src
#           calls `.new_dek(` outside lsm's files.rs and encryption.rs and
#           the resolver that defines it — a second caller would be a
#           second way for a file to get a key, outside the ready queue's
#           accounting and its close / crash rules; no thread of its own
#           in the read path — no `thread::spawn` / `thread::Builder` in
#           library code under crates/lsm/src/sst/ (a multi-window batch
#           borrows a scoped thread for the call, DESIGN.md §4g), so the
#           threads the engine keeps are exactly the JobPool workers, the
#           optional ticker and the replica poller; one test bench
#           (DESIGN.md "Testing"): under tests/ but outside tests/support/
#           no `enum Mode`, `enum Action`, `fn action_strategy`,
#           `Deref<Target = Db>` box, `EncryptedEnv::new(`,
#           `DekResolver::new(` / `::with_policy(` or
#           `EncryptionConfig::new(` — a suite that rebuilds the mode
#           matrix, the history or the mode→file-layer switch by hand
#           skips cells the shared store, history and oracle would have
#           run it through; one identity builder: under crates/bench/src,
#           crates/core/src (tests included) and examples/ no
#           `DekResolver::new(`, `::with_policy(` or
#           `SecureDekCache::open(` — a server's cache, resolver and
#           encryption config come from FileStore::new; one open: outside
#           #[cfg(test)] code, no source under crates/*/src, examples/ or
#           tests/ calls `EncryptedEnv::new(` or `EncryptionConfig::new(`
#           outside crates/lsm/src/files.rs (FileStore::new, the one
#           builder that turns an Options::encryption design into a file
#           layer), and none names `open_encfs`, `open_shield_replica`,
#           `shield_encryption` or `EncFsDb`; one bench per claim: every
#           crates/bench/src/bin/<name>.rs but `paper` has a `smoke <name>`
#           tier below and a `B <name>` row in README.md's claim table, so
#           a bin that carries no claim cannot come back; one metrics
#           document: no "shield_*_v<N>" schema literal under crates/
#           but shield_metrics_v1 and its shield_metrics_window_v1
#           windows — what a handle adds is an optional section of
#           MetricsReport, not a second schema; one unsafe module per
#           crate: no `unsafe` in crates/lsm/src outside memtable.rs (the
#           arena skiplist) nor in crates/env/src outside mmap.rs (the
#           read-only file mapping), and there every `unsafe` block or
#           `unsafe impl` has a `SAFETY:` comment ending within the three
#           lines above it; one record per claim: a CHANGES.md entry cites
#           a paired session as `e2e <parent commit> <workload>`, each
#           cited session is an object of BENCH_e2e.json (scripts/pairs.sh
#           --record), and from the first citing entry on every entry
#           tagged [perf_opt] cites at least one; short entries: every
#           CHANGES.md entry numbered 39 or later is at most 4,096 bytes
#           (it cites sessions and EXPERIMENTS.md sections instead of
#           restating them); one instrument per
#           timed section: outside crates/obs, no library source under
#           crates/*/src or src/ calls `trace::span(`, `perf::timer(` or
#           `record_elapsed(` — a timed site holds a `Section` guard and
#           an operation one op guard (DESIGN.md §4e); one table sink:
#           outside #[cfg(test)] code no library source under crates/*/src
#           calls `TableBuilder::new(` but the TableSink in
#           crates/lsm/src/version/table_cache.rs — a flush and a
#           compaction write their tables through it, so where a new table
#           takes its key, is opened and gets its FileMeta is one site —
#           and `CompactionContext` and `DisaggregatedStorage` occur
#           nowhere under crates/, examples/ or tests/ (one struct describes
#           a merge, CompactionRequest; a deployment builds its RemoteEnv
#           mount itself);
#           clippy -D
#           warnings over shield-crypto, shield-core, shield-env,
#           shield-lsm and shield (skipped if clippy is unavailable), and
#           rustdoc -D warnings over the same crates and shield-kds: a
#           doc link to a removed or private item fails.
#   tier 1: cargo build --release && cargo test -q (the seed gate: the
#           root package's integration suites — fault injection, tamper,
#           multi_get, sharded, replica, model check, … all of them), then
#           the member crates' own unit tests, then the replica suite 25
#           more times (its reads race the primary's obsolete-file pass;
#           a retry that loses that race shows as a rare failure, not a
#           steady one).
#   tier 2: the benchmark of record. benchmark/ is its own package
#           outside the workspace, so tier 1 never compiles it and a PR
#           that shrinks the engine's API could break it unseen: build it,
#           run its tests (one-second smokes of every workload, the
#           BENCHMARK.json equality check), and fail if the checkout's
#           benchmark/ or BENCHMARK.json differ from HEAD.
#   tiers 3–9: what the tests cannot check — the shield-bench bins are
#           built once, then each runs in smoke mode, and the bin (or the
#           grep after it) fails unless the feature actually engaged. A
#           smoke run writes under target/ (shield_bench::harness);
#           committed BENCH_*.json / OBS_metrics.json come from full runs
#           only.
#     3  crypto        kernel speedups vs the scalar reference (§4d)
#     4  obs_smoke     paired LOG events, shield_metrics_v1 keys, < 2%
#                      disabled Section guard and op-guard hook cost (§4e)
#     5  subcompaction compactions split; inputs stream (≤ 32 scan read
#                      calls per MiB) (§4f, §4g)
#     6  readpath      hot-key misses coalesce, multi_get batches reach the
#                      batched read path, scans read ahead, a scan
#                      re-seeks a hot key's buried versions (≤ 3 merge
#                      steps per row), a cold get over two levels of
#                      remote storage reads a second block only for a
#                      filter false positive, filters pass ≤ 0.2 %
#                      of the keys their tables do not hold, and the
#                      scan-per-row, key-comparator and memtable
#                      (add, get hit, get miss, rewrite) rows are written
#                      (§4g, §4i, §4n)
#     7  integrity     HMAC runs verify every block, clean data verifies
#                      clean (§4h)
#     8  shards        every tree takes keys and flushes (§4k)
#     9  replica       tailer applies manifest edits and WAL records and
#                      ends with zero staleness (§4l)
#   tier 10: every program under examples/ runs to a zero exit
#           (`cargo run --release --example <name>`); each asserts what
#           it narrates.
#
# Usage: scripts/verify.sh [--quick]
#   --quick skips everything that needs the release build (clippy, the
#   release build itself, tiers 2–10) and the 25 replica re-runs.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== lint: unwrap gate (crates/lsm/src/{wal,files,sst,db} library code) =="
fail=0
for f in crates/lsm/src/wal.rs crates/lsm/src/files.rs $(find crates/lsm/src/sst crates/lsm/src/db -name '*.rs' | sort); do
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

echo "== lint: key-rule gate (crates/{lsm,core}/src library code) =="
hits=""
for f in $(find crates/lsm/src crates/core/src -name '*.rs' | sort); do
    case "$f" in
        crates/lsm/src/files.rs | crates/lsm/src/encryption.rs | crates/lsm/src/integrity.rs | crates/lsm/src/db/options.rs) continue ;;
    esac
    hits+=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /_with_mac\(|integrity_key|\.integrity\.key/{print FILENAME": "FNR": "$0}' "$f")
done
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: which key authenticates a file is decided in crates/lsm/src/files.rs"
    echo "      (FileStore); open and create files through it."
    exit 1
fi
hits=""
for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in
        crates/lsm/src/files.rs | crates/lsm/src/encryption.rs | crates/kds/src/resolver.rs) continue ;;
    esac
    hits+=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /\.new_dek\(/{print FILENAME": "FNR": "$0}' "$f")
done
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a file gets its key in FileStore::create (crates/lsm/src/files.rs): it takes"
    echo "      a ready DEK or generates one. Create the file through a FileStore."
    exit 1
fi
echo "ok"

echo "== lint: thread gate (crates/lsm/src/sst library code) =="
hits=""
for f in $(find crates/lsm/src/sst -name '*.rs' | sort); do
    hits+=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /thread::spawn|thread::Builder/{print FILENAME": "FNR": "$0}' "$f")
done
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: the SST read path owns no thread; read on the caller's thread"
    echo "      (BlockFetcher::get_many batches, TableScanner spans)."
    exit 1
fi
echo "ok"

echo "== lint: test-bench gate (tests/ outside tests/support/; one identity builder) =="
if grep -nE 'enum (Mode|Action)\b|fn action_strategy|Deref<Target = Db>|EncryptedEnv::new\(|DekResolver::(new|with_policy)\(|EncryptionConfig::new\(' \
    $(find tests -name '*.rs' -not -path 'tests/support/*' | sort); then
    echo "FAIL: one store, one history, one oracle — open databases and other servers'"
    echo "      file layers through tests/support (Store::open / Store::files_for), draw"
    echo "      histories from support::{actions, history} and check with support::check."
    exit 1
fi
hits=$(awk '/^[[:space:]]*\/\//{next}
    /DekResolver::new\(|::with_policy\(|SecureDekCache::open\(/{print FILENAME": "FNR": "$0}' \
    $(find crates/bench/src crates/core/src examples -name '*.rs' | sort))
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: one identity builder — a server's cache, resolver and encryption config"
    echo "      come from FileStore::new(env, &Encryption::Shield(..), cache_path, integrity)."
    exit 1
fi
echo "ok"

echo "== lint: bench-claim gate (crates/bench/src/bin) =="
hits=""
for f in crates/bench/src/bin/*.rs; do
    name=$(basename "$f" .rs)
    [[ "$name" == paper ]] && continue
    grep -qE "^smoke $name( |$)" scripts/verify.sh || hits+="$f: no 'smoke $name' tier in scripts/verify.sh"$'\n'
    grep -qE "\`B $name( [^\`]*)?\`" README.md || hits+="$f: no \`B $name\` row in README.md's claim table"$'\n'
done
if [[ -n "$hits" ]]; then
    printf '%s' "$hits"
    echo "FAIL: one bench per claim — a bin needs a verify tier and a row in README.md's"
    echo "      committed-files table naming the DESIGN.md section and gate it carries."
    exit 1
fi
echo "ok"

echo "== lint: one-document gate (schema literals under crates/) =="
hits=$(grep -rnoE '"shield_[a-z0-9_]+_v[0-9]+"' crates --include='*.rs' \
    | grep -vE ':"shield_metrics(_window)?_v1"$' || true)
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: every handle reports through one document, shield_metrics_v1 (its windows"
    echo "      are shield_metrics_window_v1); add an optional section to MetricsReport"
    echo "      (crates/lsm/src/db/metrics.rs) instead of a new schema."
    exit 1
fi
echo "ok"

echo "== lint: unsafe gate (crates/lsm/src, crates/env/src) =="
hits=""
# `<crate source dir>:<the one file there that may hold unsafe code>`.
for rule in crates/lsm/src:crates/lsm/src/memtable.rs crates/env/src:crates/env/src/mmap.rs; do
    dir=${rule%%:*} allowed=${rule#*:}
    outside=$(grep -rnw --include='*.rs' 'unsafe' "$dir" | grep -v "^${allowed//./\\.}:" |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
    # `safety` is the last line of the latest comment that says SAFETY:.
    unexplained=$(awk '/^[[:space:]]*\/\//{ if ($0 ~ /SAFETY:/) open = 1; if (open) safety = FNR; next }
        { open = 0 }
        /unsafe[[:space:]]*(\{|impl)/ && FNR - safety > 3 { print FILENAME": "FNR": "$0 }' "$allowed")
    found=$(printf '%s\n%s' "$outside" "$unexplained" | sed '/^$/d')
    [[ -n "$found" ]] && hits+="$found"$'\n'
done
if [[ -n "$hits" ]]; then
    printf '%s' "$hits"
    echo "FAIL: unsafe code in shield-lsm lives in crates/lsm/src/memtable.rs (the arena"
    echo "      skiplist) and in shield-env in crates/env/src/mmap.rs (the read-only file"
    echo "      mapping); every unsafe block or impl there says why it is sound in a"
    echo "      SAFETY: comment that ends within the three lines above it."
    exit 1
fi
echo "ok"

echo "== lint: perf-record gate (CHANGES.md [perf_opt] entries) =="
# Every session in the record, as `<parent commit> <workload>` lines.
sessions=$(sed -n 's/^{"parent_commit": "\([0-9a-f]*\)".*"workload": "\([a-z_]*\)".*/\1 \2/p' BENCH_e2e.json)
# Entries written before the record existed cite nothing: the rule binds
# every [perf_opt] entry from the first entry that cites a session on.
hits=$(awk -v sessions="$sessions" '
    BEGIN { n = split(sessions, line, "\n") }
    match($0, /^PR [0-9]+ /) {
        entry = substr($0, 1, RLENGTH - 1); rest = $0; cited = 0
        while (match(rest, /`e2e [0-9a-f]+ [a-z_]+`/)) {
            split(substr(rest, RSTART + 1, RLENGTH - 2), c, " "); rest = substr(rest, RSTART + RLENGTH); cited++
            found = 0
            for (i = 1; i <= n; i++) {
                split(line[i], s, " ")
                if (length(c[2]) >= 7 && index(s[1], c[2]) == 1 && s[2] == c[3]) found = 1
            }
            if (!found) print entry ": cites `e2e " c[2] " " c[3] "`, which names no BENCH_e2e.json session"
        }
        if (cited) binding = 1
        else if (binding && /\[perf_opt\]/) print entry ": a [perf_opt] entry that cites no BENCH_e2e.json session"
    }' CHANGES.md)
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a [perf_opt] claim is a recorded session: run scripts/pairs.sh --record"
    echo "      BENCH_e2e.json, and cite each session in the CHANGES.md entry as"
    echo "      \`e2e <parent commit, 7+ hex digits> <workload>\`."
    exit 1
fi
echo "ok"

echo "== lint: entry-size gate (CHANGES.md) =="
# Entries before the rule stay as written; from this number on, one
# entry is one line of at most 4,096 bytes.
first_sized=39
hits=$(LC_ALL=C awk -v first="$first_sized" 'match($0, /^PR [0-9]+ /) {
        n = substr($0, 4, RLENGTH - 4) + 0
        if (n >= first && length($0) > 4096) print "PR " n ": " length($0) " bytes"
    }' CHANGES.md)
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: a CHANGES.md entry is at most 4,096 bytes: cite BENCH_e2e.json sessions"
    echo "      and EXPERIMENTS.md sections instead of restating them."
    exit 1
fi
echo "ok"

echo "== lint: one-instrument gate (crates/*/src and src/ outside crates/obs) =="
hits=""
for f in $(find crates/*/src src -name '*.rs' -not -path 'crates/obs/*' | sort); do
    hits+=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /trace::span\(|perf::timer\(|record_elapsed\(/{print FILENAME": "FNR": "$0}' "$f")
done
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: one instrument per timed section: time a scope with a shield_core::Section"
    echo "      guard (it charges the PerfContext and records the span from one pair of"
    echo "      clock reads) and an operation with one op guard (shield_core::Op)."
    exit 1
fi
echo "ok"

echo "== lint: one-table-sink gate (crates/*/src, examples/, tests/) =="
hits=""
for f in $(find crates/*/src -name '*.rs' -not -path 'crates/lsm/src/version/table_cache.rs' | sort); do
    hits+=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /TableBuilder::new\(/{print FILENAME": "FNR": "$0}' "$f")
done
hits+=$(grep -rnwE 'CompactionContext|DisaggregatedStorage' crates examples tests --include='*.rs' || true)
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: one output side for every table — flushes and compactions write through"
    echo "      shield_lsm::version::table_cache::TableSink, a merge is described by one"
    echo "      CompactionRequest, and a disaggregated deployment builds its own RemoteEnv"
    echo "      mount over the storage server's env."
    exit 1
fi
echo "ok"

echo "== lint: one-open gate (crates/*/src, examples/, tests/) =="
hits=""
for f in $(find crates/*/src examples tests -name '*.rs' | sort); do
    hits+=$(awk -v builder=$([[ "$f" == crates/lsm/src/files.rs ]] && echo 1 || echo 0) '
        /#\[cfg\(test\)\]/{exit}
        /open_encfs|open_shield_replica|shield_encryption|EncFsDb/{print FILENAME": "FNR": "$0; next}
        /^[[:space:]]*\/\//{next}
        !builder && /EncryptedEnv::new\(|EncryptionConfig::new\(/{print FILENAME": "FNR": "$0}' "$f")
done
if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "FAIL: one open — a design is one Options::encryption value (Encryption::Plain,"
    echo "      EncFs or Shield), Db::open opens every one, and a replica or compactor gets"
    echo "      its file layer from FileStore::new (crates/lsm/src/files.rs), the only"
    echo "      place an EncryptedEnv or an EncryptionConfig is built."
    exit 1
fi
echo "ok"

if [[ $quick -eq 0 ]]; then
    echo "== lint: clippy gate =="
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --release -q -p shield-crypto -p shield-core -p shield-env -p shield-lsm -p shield -- -D warnings
        echo "ok"
    else
        echo "skipped (cargo clippy unavailable)"
    fi

    echo "== lint: rustdoc gate =="
    RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps -p shield-crypto -p shield-core \
        -p shield-env -p shield-kds -p shield-lsm -p shield
    echo "ok"

    echo "== tier 1a: release build =="
    cargo build --release
fi

echo "== tier 1b: root package tests (the seed gate's command) =="
cargo test -q

echo "== tier 1c: member crates' unit tests =="
cargo test -q --workspace --exclude shield-repro

if [[ $quick -eq 1 ]]; then
    echo "ALL QUICK TIERS PASSED (bench smokes skipped)"
    exit 0
fi

echo "== tier 1d: replica suite x25 =="
for i in $(seq 1 25); do
    cargo test -q --test replica >/dev/null 2>&1 || {
        echo "FAIL: tests/replica.rs failed on run $i of 25"
        exit 1
    }
done
echo "ok"

echo "== tier 2: benchmark of record =="
cargo test --release -q --manifest-path benchmark/Cargo.toml
if ! git diff --quiet -- benchmark BENCHMARK.json; then
    echo "FAIL: benchmark/ or BENCHMARK.json differ from HEAD; a PR does not edit its own yardstick"
    exit 1
fi
echo "ok"

echo "== bench bins =="
cargo build --release -q -p shield-bench --bins

# Runs one shield-bench bin in smoke mode; the bin exits non-zero when
# its own engagement gate fails.
smoke() {
    local bin=$1
    shift
    "target/release/$bin" "$@"
}

# Fails unless every pattern occurs in the file.
require() {
    local file=$1
    shift
    for pattern in "$@"; do
        if ! grep -q "$pattern" "$file"; then
            echo "FAIL: $file has no match for $pattern"
            exit 1
        fi
    done
}

echo "== tier 3: crypto kernels =="
smoke crypto --smoke
require target/BENCH_crypto_smoke.json '"batched_mib_s"' '"scalar_mib_s"' '"cipher_init_ns"' \
    '"speedup_4096"' '"hardware_mib_s"' '"reference_mib_s"' '"one_pass_4k_ns"'

echo "== tier 4: observability =="
smoke obs_smoke
require target/OBS_metrics_smoke.json '"section_guard_ns"' '"op_guard_hook_ns"' \
    '"schema"' '"levels"' '"write_amplification"' '"latencies_us"' '"tickers"' '"gauges"'

echo "== tier 5: parallel subcompactions =="
smoke subcompaction --smoke
require target/BENCH_subcompaction_smoke.json '"read_calls_per_input_mib"'

echo "== tier 6: read path and batched I/O =="
smoke readpath --smoke
require target/BENCH_readpath_smoke.json '"batched_reads": [1-9]' '"version_chain_reseeks": [1-9]'
steps=$(grep -o '"version_chain_steps_per_row": [0-9.eE+-]*' target/BENCH_readpath_smoke.json | awk '{print $2}')
if ! awk -v s="$steps" 'BEGIN { exit !(s != "" && s <= 3) }'; then
    echo "FAIL: version-chain scan took ${steps:-?} merge steps per row (> 3): the skip rule did not engage"
    exit 1
fi
require target/BENCH_readpath_smoke.json '"remote_reads_per_get": [0-9]' '"filter_fp_rate": [0-9]'
require target/BENCH_readpath_smoke.json '"scan_ns_per_row": [0-9]' '"key_cmp_16b_ns"' \
    '"key_cmp_128b_shared120_ns"' '"slice_cmp": [0-9]'
require target/BENCH_readpath_smoke.json '"memtable_get_hit_ns": [0-9]' \
    '"memtable_get_miss_ns": [0-9]' '"memtable_add_ns": [0-9]' '"memtable_rewrite_ns": [0-9]'
fp=$(grep -o '"filter_fp_rate": [0-9.eE+-]*' target/BENCH_readpath_smoke.json | awk '{print $2}')
if ! awk -v r="$fp" 'BEGIN { exit !(r != "" && r <= 0.002) }'; then
    echo "FAIL: filters passed ${fp:-?} of the keys their tables did not hold (> 0.002): a get on"
    echo "      remote storage pays a second round trip for each"
    exit 1
fi

echo "== tier 7: integrity =="
smoke integrity --smoke

echo "== tier 8: sharded engine =="
smoke shards --smoke
require target/BENCH_shards_smoke.json '"fillrandom"' '"readwhilewriting"' \
    '"fillrandom_speedup_4"' '"shards_with_flushes"'

echo "== tier 9: read replica =="
smoke replica --smoke
require target/BENCH_replica_smoke.json '"manifest_edits_applied"' '"wal_records_applied"' \
    '"catchup_records_s"' '"final_staleness"'

echo "== tier 10: examples =="
for f in examples/*.rs; do
    name=$(basename "$f" .rs)
    cargo run --release -q --example "$name" >/dev/null || {
        echo "FAIL: example $name exited non-zero"
        exit 1
    }
done
echo "ok"

echo "ALL VERIFICATION TIERS PASSED"
