#!/usr/bin/env bash
# The paired-runs rule as a command (benchmark/README.md "Steadiness",
# choosing-metrics §8): N alternated pairs of one workload on two builds of
# the benchmark, then, per end-to-end metric, each side's runs, median and
# quartiles, how many pairs the change won, and the distance between the
# parent's quartiles (what a median has to move by to count).
#
#   scripts/pairs.sh --parent BIN --change BIN --workload NAME --out DIR
#                    [-n PAIRS] [--seed FIRST] [--seconds S] [--record FILE]
#
# BIN is a built `shield-benchmark` (build each checkout once: `cargo build
# --release --manifest-path <checkout>/benchmark/Cargo.toml`, then copy
# `benchmark/target/release/shield-benchmark` somewhere the next build will
# not overwrite it, inside that checkout's git work tree). Each BIN runs from
# its own directory, so its result files stamp the commit of the checkout it
# sits in. Pair i runs both sides on seed FIRST+i-1; odd pairs run the parent
# first, even pairs the change. Each side keeps one database directory for
# the whole session. Everything written — the two database directories, one
# result file per run, `runs.tsv` and `summary.txt` — goes under DIR and
# nowhere else, except that --record appends the session to FILE (a JSON
# array, created if missing; the repo's record is BENCH_e2e.json): both
# sides' stamped commits and file-system types, nproc, the host's CPU model
# and the crypto-relevant CPU features it has (/proc/cpuinfo: aes,
# pclmulqdq, sha_ni, sse4_2, avx2, avx512f, vaes, vpclmulqdq), the
# workload, seeds and window, and per end-to-end metric each side's runs,
# median and quartiles and the change's wins, losses and ties.
set -euo pipefail

usage() { sed -n '2,26p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

PARENT="" CHANGE="" WORKLOAD="" OUT="" PAIRS=10 SEED=1 WINDOW=() RECORD=""
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) PARENT="$2"; shift 2 ;;
        --change) CHANGE="$2"; shift 2 ;;
        --workload) WORKLOAD="$2"; shift 2 ;;
        --out) OUT="$2"; shift 2 ;;
        -n) PAIRS="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --seconds) WINDOW=(--seconds "$2"); shift 2 ;;
        --record) RECORD="$2"; shift 2 ;;
        *) usage ;;
    esac
done
[ -x "$PARENT" ] && [ -x "$CHANGE" ] && [ -n "$WORKLOAD" ] && [ -n "$OUT" ] || usage
PARENT="$(cd "$(dirname "$PARENT")" && pwd)/$(basename "$PARENT")"
CHANGE="$(cd "$(dirname "$CHANGE")" && pwd)/$(basename "$CHANGE")"

mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
RUNS="$OUT/runs.tsv"
: > "$RUNS"

# One run: the benchmark's last stdout line is
# {"correct":..,"attempted":..,"failed":..,"metrics":{"<name>":{"value":..
# and becomes one `pair side metric value` row per metric.
run_side() {
    local side="$1" bin="$2" pair="$3" seed="$4" line
    line="$(cd "$(dirname "$bin")" && "$bin" run --workload "$WORKLOAD" --seed "$seed" \
        --dir "$OUT/db.$side" --out "$OUT/$WORKLOAD.$side.$pair.json" ${WINDOW[@]+"${WINDOW[@]}"} |
        tail -n 1)"
    case "$line" in
        '{"correct":true,'*) ;;
        *) echo "pairs: $side run $pair (seed $seed) did not end correct: $line" >&2; exit 1 ;;
    esac
    printf '%s\n' "$line" | tr -d '"' |
        sed -e 's/^{correct:[a-z]*,attempted:\([0-9]*\),failed:\([0-9]*\),metrics:{/attempted:{value:\1,}failed:{value:\2,}/' |
        grep -o '[a-z0-9_]*:{value:[^,}]*' |
        sed -e "s/^\([a-z0-9_]*\):{value:\(.*\)$/$pair\t$side\t\1\t\2/" >> "$RUNS"
    printf 'pair %2d  %-6s seed %-4s %s\n' "$pair" "$side" "$seed" \
        "$(awk -F'\t' -v p="$pair" -v s="$side" '$1 == p && $2 == s && $3 == "ops_s" { printf "ops_s %.1f", $4 }' "$RUNS")"
}

for pair in $(seq 1 "$PAIRS"); do
    seed=$((SEED + pair - 1))
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$PARENT" "$pair" "$seed"
        run_side change "$CHANGE" "$pair" "$seed"
    else
        run_side change "$CHANGE" "$pair" "$seed"
        run_side parent "$PARENT" "$pair" "$seed"
    fi
done
rm -rf "$OUT/db.parent" "$OUT/db.change"

# Which way is better, from the parent's own `list --json` (BENCHMARK.json).
BETTER="$("$PARENT" list --json | awk '
    /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name "=" $2 }' | tr '\n' ' ')"

# The first value of "<field>": in side $1's first result file (its stamp).
stamp() { grep -o "\"$2\": *[^,]*" "$OUT/$WORKLOAD.$1.1.json" | head -n 1 | sed 's/^[^:]*: *//'; }

# With --record, the awk below also writes the session as one JSON object.
JSON=/dev/null
[ -n "$RECORD" ] && JSON="$OUT/session.json"
CPU_MODEL="$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1 |
    sed -e 's/[\\"]/\\&/g')"
# The features the cipher, MAC and CRC kernels dispatch on, as a JSON list.
CPU_FEATURES="$(sed -n 's/^flags[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1 |
    tr ' ' '\n' | grep -x -E 'aes|pclmulqdq|sha_ni|sse4_2|avx2|avx512f|vaes|vpclmulqdq' |
    sed -e 's/.*/"&"/' | paste -s -d, - || true)"

# Median, and quartiles by the exclusive method (Python's
# statistics.quantiles(n=4)), as benchmark/src/compare.rs takes them.
awk -F'\t' -v better="$BETTER" -v workload="$WORKLOAD" -v pairs="$PAIRS" -v seed="$SEED" \
    -v json="$JSON" -v parent_commit="$(stamp parent commit)" -v change_commit="$(stamp change commit)" \
    -v nproc="$(stamp parent nproc)" -v window="$(stamp parent seconds)" \
    -v parent_fs="$(stamp parent fs_type)" -v change_fs="$(stamp change fs_type)" -v cpu_model="$CPU_MODEL" \
    -v cpu_features="$CPU_FEATURES" '
function sorted(side, m, v,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) v[++n] = val[i, side, m]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return n
}
function median(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
function runs(side, m,    i, s) {
    for (i = 1; i <= pairs; i++) s = s (i > 1 ? ", " : "") sprintf("%.6g", val[i, side, m])
    return "[" s "]"
}
function quartile(v, n, q,    pos, j) {
    if (n < 2) return v[1]
    pos = q * (n + 1); j = int(pos / 4)
    if (j < 1) j = 1; if (j > n - 1) j = n - 1
    return v[j] + (v[j + 1] - v[j]) * (pos / 4 - j)
}
{ val[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 } }
END {
    split(better, kv, " ")
    for (i in kv) { split(kv[i], p, "="); dir[p[1]] = p[2] }
    printf "%s: %d alternated pairs\n", workload, pairs
    printf "{\"parent_commit\": %s, \"change_commit\": %s, \"nproc\": %s, \"workload\": \"%s\", \"seeds\": [%d, %d], \"window_s\": %s,\n", \
        parent_commit, change_commit, nproc, workload, seed, seed + pairs - 1, window > json
    printf " \"fs_type\": {\"parent\": %s, \"change\": %s}, \"cpu_model\": \"%s\", \"cpu_features\": [%s],\n", \
        parent_fs, change_fs, cpu_model, cpu_features > json
    printf " \"metrics\": {" > json
    sep = "\n"
    for (k = 1; k <= metrics; k++) {
        m = order[k]
        if (m == "attempted") continue
        if (m == "failed") {
            for (i = 1; i <= pairs; i++) { fp += val[i, "parent", m]; ap += val[i, "parent", "attempted"]; fc += val[i, "change", m]; ac += val[i, "change", "attempted"] }
            printf "\nfailed ops: parent %d of %d, change %d of %d\n", fp, ap, fc, ac
            failed = sprintf(" \"failed_ops\": {\"parent\": %d, \"change\": %d, \"attempted_parent\": %d, \"attempted_change\": %d}", fp, fc, ap, ac)
            continue
        }
        n = sorted("parent", m, a); sorted("change", m, b)
        wins = 0; losses = 0
        for (i = 1; i <= pairs; i++) {
            d = val[i, "change", m] - val[i, "parent", m]
            if (dir[m] == "lower") d = -d
            if (d > 0) wins++; else if (d < 0) losses++
        }
        pm = median(a, n); cm = median(b, n)
        pq1 = quartile(a, n, 1); pq3 = quartile(a, n, 3)
        printf "\n%s (%s is better)\n", m, dir[m]
        printf "  parent runs:"; for (i = 1; i <= pairs; i++) printf " %.6g", val[i, "parent", m]; printf "\n"
        printf "  change runs:"; for (i = 1; i <= pairs; i++) printf " %.6g", val[i, "change", m]; printf "\n"
        printf "  parent median %.6g  quartiles %.6g .. %.6g  (distance %.6g)\n", pm, pq1, pq3, pq3 - pq1
        printf "  change median %.6g  quartiles %.6g .. %.6g\n", cm, quartile(b, n, 1), quartile(b, n, 3)
        printf "  change wins %d, loses %d, ties %d of %d pairs; medians differ by %+.6g (%+.2f %%) against a parent quartile distance of %.6g\n", \
            wins, losses, pairs - wins - losses, pairs, cm - pm, pm ? 100 * (cm - pm) / pm : 0, pq3 - pq1
        printf "%s  \"%s\": {\"better\": \"%s\", \"parent\": {\"runs\": %s, \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}, \"change\": {\"runs\": %s, \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}, \"wins\": %d, \"losses\": %d, \"ties\": %d}", \
            sep, m, dir[m], runs("parent", m), pm, pq1, pq3, runs("change", m), cm, quartile(b, n, 1), quartile(b, n, 3), wins, losses, pairs - wins - losses > json
        sep = ",\n"
    }
    printf "\n },\n%s}\n", failed > json
}' "$RUNS" | tee "$OUT/summary.txt"

# Appends the session to the record: a JSON array of session objects.
if [ -n "$RECORD" ]; then
    if [ -s "$RECORD" ]; then
        sed -i -e '$d' "$RECORD"
        sed -i -e '$s/$/,/' "$RECORD"
    else
        printf '[\n' > "$RECORD"
    fi
    cat "$JSON" >> "$RECORD"
    printf ']\n' >> "$RECORD"
    echo "pairs: session appended to $RECORD"
fi
