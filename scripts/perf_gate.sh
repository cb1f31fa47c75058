#!/bin/sh
# Same-host perf regression gate: compares this tree's `lvp perf` bench
# registry against the build of the commit it is based on, on the same
# machine.
#
# The base commit is HEAD when the working tree has uncommitted changes
# (the change under test is the working tree), and HEAD^ when it is
# clean (the change under test is the last commit). The base is exported
# with `git archive` into target/perf-gate/src and built offline into
# its own target dir, target/perf-gate/target; the export is reused
# while the base commit stays the same.
#
# The two builds run every bench their `lvp perf --list` names
# alternately for 5 rounds (base first in odd rounds, change first in
# even rounds), one `lvp perf --bench NAME --json` process per bench: benches that share
# a process share its heap, and one bench's allocations can move a
# later bench's page-fault cost by more than half (trace generation
# measured 12 ms after the 12 benches before it, 20 ms on its own). A
# bench fails when the change's best sample over all rounds is more
# than 60% slower than the base's best sample. The best sample, not the
# median: contention from other processes on a shared host only adds
# time, so the fastest sample is the stable estimate of a build's cost.
# Benches that only one build has are listed as (new) or (dropped) but
# not judged.
#
# The committed results/perf_baseline.json is a record of one host
# (regenerated by scripts/rebaseline.sh); this gate does not read it.
#
# Usage: scripts/perf_gate.sh
set -eu

cd "$(dirname "$0")/.."
rounds=5
threshold=60

if [ -n "$(git status --porcelain)" ]; then
    base=HEAD
else
    base=HEAD^
fi
rev="$(git rev-parse --verify "$base^{commit}")"
gate=target/perf-gate
mkdir -p "$gate"
if [ "$(cat "$gate/rev" 2>/dev/null || true)" != "$rev" ]; then
    rm -rf "$gate/src" "$gate/rev"
    mkdir -p "$gate/src"
    git archive "$rev" | tar -x -C "$gate/src"
    echo "$rev" > "$gate/rev"
fi
echo "    base $rev ($base)"
cargo build --release --offline -q -p lvp-cli \
    --manifest-path "$gate/src/Cargo.toml" --target-dir "$gate/target"
cargo build --release --offline -q -p lvp-cli

# A build's whole bench registry: the names `lvp perf --list` prints
# as `  name`, or as `  *name` and `   name` in builds that still marked
# a fast subset.
registry() {
    "$1" perf --list | sed -n 's/^  [* ]\{0,1\}\([a-z0-9_][a-z0-9_]*\) .*/\1/p'
}

runs="$gate/runs"
rm -rf "$runs"
mkdir -p "$runs"
i=1
while [ "$i" -le "$rounds" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        if [ "$side" = base ]; then lvp="$gate/target/release/lvp"; else lvp=target/release/lvp; fi
        for name in $(registry "$lvp"); do
            "$lvp" perf --bench "$name" --json > "$runs/${side}_${i}_$name.json" 2> /dev/null
        done
    done
    i=$((i + 1))
done

python3 - "$runs" "$rounds" "$threshold" <<'EOF'
import glob
import json
import sys

runs, rounds, threshold = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])


def best(side):
    """Each bench's fastest sample over every round."""
    out = {}
    for path in sorted(glob.glob(f"{runs}/{side}_*.json")):
        with open(path) as f:
            for b in json.load(f)["benches"]:
                out[b["name"]] = min(out.get(b["name"], b["samples_ns"][0]), *b["samples_ns"])
    return out


base, change = best("base"), best("change")
print(f"    best of {rounds} rounds, base -> change (fail above +{threshold}%):")
failed = []
for name, ns in change.items():
    if name not in base:
        print(f"    {name:<28} {'-':>10} -> {ns / 1e6:8.2f} ms  (new)")
        continue
    ratio = ns / base[name]
    verdict = "ok"
    if ratio > 1 + threshold / 100:
        verdict = "REGRESSION"
        failed.append(name)
    print(f"    {name:<28} {base[name] / 1e6:8.2f} -> {ns / 1e6:8.2f} ms  x{ratio:.2f}  {verdict}")
for name in base.keys() - change.keys():
    print(f"    {name:<28} {base[name] / 1e6:8.2f} ->        - ms  (dropped)")
if failed:
    print(f"perf regression: {', '.join(failed)}", file=sys.stderr)
    sys.exit(1)
EOF
