#!/bin/sh
# Repo CI gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

# --all-features: the workspace has no features today, so this checks
# the same code; a feature-gated target that cannot build offline then
# fails here instead of sitting unbuilt.
echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --all-features -- -D warnings

# Doc links name the public API; a link to an item that was removed or
# made private is otherwise found by no other step.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

# The workspace suite includes the engine-differential oracle (both
# simulation engines over all 17 benchmarks x {O0,O1}, the committed
# golden-trace fixtures, and the seeded program-generator fuzz test).
# Pin the fuzz budget so CI cost is fixed and failures are reproducible:
# the pinned regression seeds always run; LVP_FUZZ_CASES only sizes the
# fresh random sweep.
echo "==> cargo test (differential oracle + fuzz, fixed seed budget)"
LVP_FUZZ_CASES=64 cargo test --workspace -q

# Undefined-behavior sanitizer pass over the trace codec (the one crate
# doing byte-level packing/unpacking where UB could hide). Gated on the
# miri component being installed — toolchains without it skip the job
# rather than fail, so CI still passes on minimal containers.
if cargo miri --version >/dev/null 2>&1; then
    echo "==> cargo miri test -p lvp-trace (UB sanitizer, trace codec)"
    cargo miri test -p lvp-trace -q
else
    echo "==> cargo miri test -p lvp-trace: SKIPPED (miri component not installed)"
fi

# Lint baseline gate: run the verifier plus the memory provenance and
# value-flow passes over every workload x profile x opt cell and diff
# the machine-readable diagnostics against the committed baseline. Any
# *new* diagnostic fails CI; diagnostics that disappeared are tolerated
# (regenerate with `scripts/rebaseline.sh --lints` to tighten —
# per-finding "justification" annotations are preserved, and are
# stripped here before diffing).
echo "==> lvp check --all --memory --value-flow (lint baseline gate)"
mkdir -p target/ci-smoke
check_out="target/ci-smoke/lints_current.json"
check_status=0
cargo run --release -q -p lvp-cli -- check --all --memory --value-flow --format json \
    > "$check_out" || check_status=$?
if [ "$check_status" -gt 1 ]; then
    echo "ci: lvp check --all --memory --value-flow failed with status $check_status" >&2
    exit "$check_status"
fi
grep '^    {"cell"' results/lints_baseline.json \
    | sed 's/,"justification":"[^"]*"//' | sort \
    > target/ci-smoke/lints_baseline.sorted || true
grep '^    {"cell"' "$check_out" | sort \
    > target/ci-smoke/lints_current.sorted || true
new_lints="$(comm -13 target/ci-smoke/lints_baseline.sorted \
    target/ci-smoke/lints_current.sorted)"
if [ -n "$new_lints" ]; then
    echo "ci: new lint diagnostics not in results/lints_baseline.json:" >&2
    printf '%s\n' "$new_lints" >&2
    exit 1
fi

# Every accepted LVP011 (predictability headroom) finding must carry a
# per-finding justification in the baseline: the lint exists to force a
# written triage decision, so an unjustified line means someone waved a
# finding through. rebaseline.sh --lints preserves justifications, so
# this only fires on a genuinely new, untriaged finding.
unjustified="$(grep '^    {"cell"' results/lints_baseline.json \
    | grep '"code":"LVP011"' | grep -cv '"justification"' || true)"
if [ "$unjustified" -ne 0 ]; then
    echo "ci: $unjustified LVP011 baseline finding(s) lack a justification annotation" >&2
    exit 1
fi

# Interprocedural lint smoke: a fixture with a dead helper (LVP017) and
# a cross-function store-to-load pair (LVP021) must fire both new
# lints through the plain `lvp check` path (findings exit 1).
echo "==> lvp check --memory --value-flow (interprocedural lint smoke)"
interproc_s="target/ci-smoke/interproc.s"
cat > "$interproc_s" <<'EOF'
.data
g: .dword 0
.text
main:
 li t0, 7
 jal ra, init
 la a0, g
 ld a1, 0(a0)
 out a1
 halt
init:
 la a0, g
 sd t0, 0(a0)
 jalr zero, ra, 0
dead:
 li a2, 1
 jalr zero, ra, 0
EOF
ip_status=0
ip_out="$(cargo run --release -q -p lvp-cli -- check "$interproc_s" --profile gp \
    --memory --value-flow)" || ip_status=$?
if [ "$ip_status" -ne 1 ]; then
    echo "ci: interproc smoke expected findings exit 1, got $ip_status" >&2
    exit 1
fi
for lint in LVP017 LVP021; do
    if ! printf '%s\n' "$ip_out" | grep -qF "$lint"; then
        echo "ci: interproc smoke did not fire $lint:" >&2
        printf '%s\n' "$ip_out" >&2
        exit 1
    fi
done

# Binary trace format smoke: pack a workload trace to LVPT v2, print its
# header, and stream-verify every block checksum through the CLI.
echo "==> lvp trace pack/info/verify"
trace_file="target/ci-smoke/quick.lvpt"
cargo run --release -q -p lvp-cli -- trace pack quick --out "$trace_file"
cargo run --release -q -p lvp-cli -- trace info "$trace_file"
cargo run --release -q -p lvp-cli -- trace verify "$trace_file" | grep -F 'checksums verified'

# Smoke-run the whole experiment registry through the harness on the
# fast workload subset; prints per-experiment wall time and the engine's
# cache counters, and fails if any experiment errors.
echo "==> lvp bench --all --fast --threads 2"
bench_out="$(cargo run --release -q -p lvp-cli -- bench --all --fast --threads 2)"
printf '%s\n' "$bench_out" | grep -E '^\[|^engine:|^memory:'
# Memory gate: the run's peak RSS must stay at or below 170 MB (it reads
# ~135 MB with the record-table trace layout and read 199 MB with the
# op-word layout before it, so a layout regression fails here). Where
# /proc is unavailable the line reads `peak rss n/a` and the check is
# skipped.
peak_rss="$(printf '%s\n' "$bench_out" | sed -n 's/^memory: peak rss \([0-9n/a]*\).*/\1/p')"
case "$peak_rss" in
'')
    echo "ci: lvp bench printed no memory: line" >&2
    exit 1
    ;;
n/a)
    echo "ci: peak RSS unavailable (no /proc), memory gate skipped"
    ;;
*)
    if [ "$peak_rss" -gt 170 ]; then
        echo "ci: bench --all --fast peak RSS ${peak_rss} MB exceeds the 170 MB gate" >&2
        exit 1
    fi
    ;;
esac
# ablation_predictor and ablation_hints always run on the fast subset, so
# this run must reproduce their committed reports byte for byte. In
# `bench` output each report is followed by its `[name: time]` line and
# a blank line.
for name in ablation_predictor ablation_hints; do
    printf '%s\n' "$bench_out" | awk -v want="[$name:" '
        index($0, want) == 1 { printf "%s", report; found = 1; exit }
        /^\[[a-z0-9_]+: [0-9.]+s\]$/ { report = ""; getline; next }
        { report = report $0 "\n" }
        END { exit !found }' > "target/ci-smoke/$name.txt" || {
        echo "ci: lvp bench --all --fast printed no $name report" >&2
        exit 1
    }
    if ! diff -u "results/$name.txt" "target/ci-smoke/$name.txt"; then
        echo "ci: the fast bench's $name report differs from results/$name.txt" >&2
        exit 1
    fi
done
# `--all` includes the ablation_synth experiment: at least one synthetic
# adversary must land >= 20pp below the suite's mean hybrid coverage, or
# the generator has stopped producing genuinely hard value streams.
if ! printf '%s\n' "$bench_out" | grep -qF 'synth adversarial gate: PASS'; then
    echo "ci: the synth adversarial-coverage gate did not pass" >&2
    printf '%s\n' "$bench_out" | grep -F 'synth adversarial gate' >&2 || true
    exit 1
fi

# Predictor-sweep smoke: drive the annotation pipeline once per backend
# kind over the fast subset. Every non-default kind must tag the config
# names in its report; the default kind must not (its output is
# byte-identical to the pre-zoo renderer).
echo "==> lvp bench table3 --fast --predictor <kind> (predictor-sweep smoke)"
for kind in last-value stride context store-to-load hybrid; do
    sweep_out="$(cargo run --release -q -p lvp-cli -- bench table3 --fast --threads 2 \
        --predictor "$kind")"
    case "$kind" in
    last-value)
        if printf '%s\n' "$sweep_out" | grep -qF "[$kind]"; then
            echo "ci: default predictor kind must not tag config names" >&2
            exit 1
        fi
        ;;
    *)
        if ! printf '%s\n' "$sweep_out" | grep -qF "[$kind]"; then
            echo "ci: --predictor $kind left no [$kind] tag in the report" >&2
            exit 1
        fi
        ;;
    esac
done

# Static/dynamic cross-check gate: every fast-subset workload at every
# profile x opt level is traced and both dynamic oracles must hold — the
# CVU oracle (no must-constant load invalidated by a store or changing
# its value) and the value-flow stride oracle (every judged
# affine-stride/must-constant claim meets the stride predictor's
# accuracy floor). --value-flow also emits the static LVP012-021 lints,
# which are baseline-gated above, so a findings exit (1) is tolerated
# here; the PASS verdict lines are the gate.
echo "==> lvp check --all --cross-check --value-flow --fast (CVU + stride oracle gate)"
cc_status=0
cc_out="$(cargo run --release -q -p lvp-cli -- check --all --cross-check --value-flow \
    --fast --threads 2)" || cc_status=$?
if [ "$cc_status" -gt 1 ]; then
    echo "ci: lvp check --all --cross-check --value-flow failed with status $cc_status" >&2
    exit "$cc_status"
fi
printf '%s\n' "$cc_out" | grep -E '^cross-check:|^value-flow: (PASS|FAIL)'
if ! printf '%s\n' "$cc_out" | grep -qF 'cross-check: PASS'; then
    echo "ci: the static/dynamic cross-check oracle was violated" >&2
    exit 1
fi
if ! printf '%s\n' "$cc_out" | grep -qF 'value-flow: PASS'; then
    echo "ci: the value-flow stride oracle was violated" >&2
    exit 1
fi
# PASS alone would let a change to an oracle move a cell's judged,
# CVU-verified or under-approximation counts unseen: the 34 verdict
# lines (16 cross-check cells, 16 value-flow cells, the two PASS lines)
# must match the committed record byte for byte.
echo "==> oracle verdicts vs results/check_oracles_fast.txt"
printf '%s\n' "$cc_out" | grep -E '^[^ ]+/(toc|gp)/O[01]: [0-9]+ must-constant pc|^value-flow [^ ]+: |^(cross-check|value-flow): (PASS|FAIL)' \
    > target/ci-smoke/check_oracles_fast.txt || true
if ! diff -u results/check_oracles_fast.txt target/ci-smoke/check_oracles_fast.txt; then
    echo "ci: the fast oracle matrix's verdicts differ from results/check_oracles_fast.txt" >&2
    exit 1
fi

# Workload characterization smoke: the per-load-PC metric pass over the
# fast subset. The Spearman rank gate is only meaningful on the full
# 17-benchmark suite (asserted in the committed results/characterize.txt);
# here we require the gate line to be present, not to pass, since a
# 4-point rank correlation is statistically vacuous.
echo "==> lvp characterize --fast --threads 2 (metric smoke)"
char_out="$(cargo run --release -q -p lvp-cli -- characterize --fast --threads 2)"
printf '%s\n' "$char_out" | grep -E '^rank correlation|^engine:'
if ! printf '%s\n' "$char_out" | grep -qE '^rank correlation \(Spearman\)'; then
    echo "ci: lvp characterize printed no Spearman gate line" >&2
    exit 1
fi

# Synth generator round-trip gate: generation is a pure function of the
# spec — two separate processes must emit byte-identical programs — and
# an emitted program must self-verify against its profile's declared
# metric bands through the compile -> trace -> characterize pipeline.
echo "==> lvp synth round-trip + self-verification"
for spec in "pointer-chase 7" "stride-ramp 11"; do
    profile="${spec% *}"
    seed="${spec#* }"
    a="target/ci-smoke/synth_${profile}_a.mc"
    b="target/ci-smoke/synth_${profile}_b.mc"
    cargo run --release -q -p lvp-cli -- synth --profile "$profile" --seed "$seed" --out "$a"
    cargo run --release -q -p lvp-cli -- synth --profile "$profile" --seed "$seed" --out "$b"
    if ! cmp -s "$a" "$b"; then
        echo "ci: synth $profile seed $seed is not deterministic across processes" >&2
        exit 1
    fi
done
cargo run --release -q -p lvp-cli -- synth --profile alias-walk --seed 1 --verify \
    | grep -F 'self-verification: PASS'

# Perf regression gate: this tree's fast microbenchmarks against the
# build of the commit it is based on, alternating on this host (see the
# script for the rounds, the best-sample rule and the 60% threshold).
# The committed results/perf_baseline.json is a record of one host, not
# a gate: a baseline from another host fails for host speed alone.
echo "==> scripts/perf_gate.sh (same-host perf regression gate)"
scripts/perf_gate.sh

echo "ci: all checks passed"
