#!/bin/sh
# Regenerates the committed performance baselines:
#
#   results/perf_baseline.json  — `lvp perf --json` over the full
#                                 microbenchmark registry: a record of
#                                 this host. Nothing gates on it; ci.sh's
#                                 gate (scripts/perf_gate.sh) compares
#                                 against the base commit's build on the
#                                 same host instead.
#   BENCH_2.json                — end-to-end wall-clock for
#                                 `lvp bench --all --fast --threads 2`
#                                 (3 runs, median) with the median run's
#                                 `stages:` split (compile+trace, predict,
#                                 time, cross-check, value-flow,
#                                 characterize, total work) and its peak
#                                 RSS from the `memory:` line (null where
#                                 /proc is unavailable), and the host
#                                 (CPU model, CPU count, OS and arch).
#
# BENCH_0.json (interpreter era) and BENCH_1.json (fastsim engine) are
# frozen earlier records and are never rewritten.
#
# Run this after an *intentional* performance change and commit both
# files. They are records: timings are only meaningful against the
# machine and toolchain that produced them.
#
# With --lints, regenerates results/lints_baseline.json instead: the
# full `lvp check --all --memory --value-flow --format json` document,
# with per-finding "justification" annotations carried over from the
# old baseline (keyed by cell + pc + code + message, so justified
# findings stay justified across regenerations and vanished findings
# drop out together with their annotations).
#
# Usage: scripts/rebaseline.sh [--lints]
set -eu

cd "$(dirname "$0")/.."

# Checks that an `lvp perf --json` document carries what
# scripts/perf_gate.sh reads: it parses, its format is lvp-perf/1, and
# every bench has a name and a non-empty list of integer `samples_ns`.
check_perf_record() {
    python3 - "$1" <<'EOF'
import json
import sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"rebaseline: {path} does not parse: {e}")
if not isinstance(doc, dict) or doc.get("format") != "lvp-perf/1":
    sys.exit(f"rebaseline: {path} is not an lvp-perf/1 document")
benches = doc.get("benches")
if not isinstance(benches, list) or not benches:
    sys.exit(f"rebaseline: {path} has no benches")
for i, b in enumerate(benches):
    name = b.get("name") if isinstance(b, dict) else None
    if not isinstance(name, str) or not name:
        sys.exit(f"rebaseline: {path}: benches[{i}] has no name")
    samples = b.get("samples_ns")
    if not isinstance(samples, list) or not samples or not all(
        type(s) is int and s >= 0 for s in samples
    ):
        sys.exit(f"rebaseline: {path}: bench {name} has no samples_ns")
print(f"    {path}: {len(benches)} benches, format lvp-perf/1")
EOF
}

if [ "${1:-}" = "--lints" ]; then
    echo "==> cargo build --release"
    cargo build --release -q -p lvp-cli
    lvp=target/release/lvp

    echo "==> lvp check --all --memory --value-flow --format json"
    mkdir -p target
    status=0
    "$lvp" check --all --memory --value-flow --format json \
        > target/lints_new.json || status=$?
    if [ "$status" -gt 1 ]; then
        echo "rebaseline: lvp check failed with status $status" >&2
        exit "$status"
    fi

    # Annotation-preserving merge: first pass indexes the old baseline's
    # justifications by the diagnostic line with the annotation and any
    # trailing comma stripped; second pass re-attaches them to matching
    # lines of the fresh document.
    awk '
        NR == FNR {
            if ($0 ~ /^    \{"cell"/) {
                line = $0
                sub(/,$/, "", line)
                if (match(line, /,"justification":"[^"]*"/)) {
                    just = substr(line, RSTART, RLENGTH)
                    line = substr(line, 1, RSTART - 1) \
                           substr(line, RSTART + RLENGTH)
                    j[line] = just
                }
            }
            next
        }
        {
            if ($0 ~ /^    \{"cell"/) {
                line = $0
                comma = sub(/,$/, "", line)
                if (line in j) {
                    printf "%s%s}%s\n", substr(line, 1, length(line) - 1), \
                        j[line], (comma ? "," : "")
                    next
                }
            }
            print
        }
    ' results/lints_baseline.json target/lints_new.json \
        > target/lints_merged.json
    mv target/lints_merged.json results/lints_baseline.json
    kept=$(grep -c '"justification"' results/lints_baseline.json || true)
    echo "    wrote results/lints_baseline.json ($kept justified finding(s) preserved)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release -q -p lvp-cli
lvp=target/release/lvp

echo "==> lvp perf --json (full registry) > results/perf_baseline.json"
"$lvp" perf --json > results/perf_baseline.json
check_perf_record results/perf_baseline.json
echo "    wrote results/perf_baseline.json"

echo "==> lvp bench --all --fast --threads 2, 3 runs"
runs=""
mkdir -p target
for i in 1 2 3; do
    start_ns=$(date +%s%N)
    "$lvp" bench --all --fast --threads 2 > "target/rebaseline_run.txt"
    end_ns=$(date +%s%N)
    secs=$(awk "BEGIN { printf \"%.2f\", ($end_ns - $start_ns) / 1e9 }")
    echo "    run $i: ${secs}s"
    runs="$runs $secs"
    grep -E '^(stages|memory):' target/rebaseline_run.txt > "target/rebaseline_stages_$secs.txt"
done
rm -f target/rebaseline_run.txt

median=$(printf '%s\n' $runs | sort -n | sed -n 2p)

# The median run's `stages:` line, e.g. "stages: compile+trace 1.42s,
# predict 3.35s, time 8.93s, cross-check 0.00s, value-flow 0.00s,
# characterize 0.12s (13.82s work across 2 threads)": each time is read
# by the label in front of it, so adding a stage shifts nothing.
stages="target/rebaseline_stages_$median.txt"
stage() {
    grep -o "$1 [0-9][0-9.]*s" "$stages" | sed 's/.* //; s/s$//'
}
work=$(grep -o '[0-9][0-9.]*s work' "$stages" | sed 's/s work$//')
# "memory: peak rss 312 MB, traces 161 MB", or "peak rss n/a".
peak_rss=$(sed -n 's/^memory: peak rss \([0-9][0-9]*\) MB.*/\1/p' "$stages")
peak_rss=${peak_rss:-null}
set -- "$(stage 'compile+trace')" "$(stage predict)" "$(stage time)" \
    "$(stage cross-check)" "$(stage value-flow)" "$(stage characterize)"
rm -f target/rebaseline_stages_*.txt
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
host="${cpu:-unknown CPU}, $(nproc) CPUs, $(uname -sm)"
{
    echo '{'
    echo '    "format": "lvp-bench-baseline/2",'
    echo '    "command": "lvp bench --all --fast --threads 2",'
    printf '    "runs_s": [%s],\n' "$(printf '%s\n' $runs | paste -sd, -)"
    printf '    "median_s": %s,\n' "$median"
    echo '    "median_run_stages_s": {'
    printf '        "compile+trace": %s,\n' "$1"
    printf '        "predict": %s,\n' "$2"
    printf '        "time": %s,\n' "$3"
    printf '        "cross-check": %s,\n' "$4"
    printf '        "value-flow": %s,\n' "$5"
    printf '        "characterize": %s,\n' "$6"
    printf '        "work": %s\n' "$work"
    echo '    },'
    printf '    "peak_rss_mb": %s,\n' "$peak_rss"
    printf '    "host": "%s"\n' "$host"
    echo '}'
} > BENCH_2.json
echo "    wrote BENCH_2.json (median ${median}s; stages $1/$2/$3/$4/$5/$6s of ${work}s work; peak RSS ${peak_rss} MB)"
