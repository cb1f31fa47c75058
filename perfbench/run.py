#!/usr/bin/env python3
"""Cold-engine benchmark of the LVP reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper-fast --seed 1 --seconds 30 --trace 0

Builds the `perfbench` binary (release, offline) from this directory's
Cargo package, then starts it again and again, each time as a fresh
process running one cold run of the workload, until `--seconds` are used
up. Every run's reports and oracle verdicts are fingerprinted and compared
with `expected/<workload>.json`, and the engine's cache counters must equal
the recorded ones exactly, so a run that hit a warm cache, or that changed
any simulated statistic, counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones: medians over the runs of wall time, CPU
time and peak resident memory of one cold run, and of set-up time. With
`--trace 1` untraced and traced runs alternate, and the metrics are the
per-layer ones (medians over the traced runs) plus the tracing overhead.

`--record` writes `expected/<workload>.json` from one run instead; use it
only after an intentional change to a rendered report or oracle verdict.

Exits with status 2, printing no result, when the binary cannot be built.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-fast", "predict-oracle", "timing-adversarial")
# The end-to-end median needs more than one sample even when a run
# outlasts `--seconds`.
MIN_RUNS = 2
# Set-up is paid once per process and lasts tens of milliseconds, so each
# cold run is followed by this many set-up-only processes; spreading them
# over the run keeps one burst of host noise from setting the median.
SETUP_PER_RUN = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the `perfbench` binary and returns its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    binary = os.path.join(target, "release", "perfbench")
    if done.returncode != 0 or not os.path.isfile(binary):
        log("perfbench: build failed")
        return None
    return binary


def run_once(binary, workload, seed, flags=()):
    """One cold run in a fresh process. Returns its record, with CPU time
    and peak RSS from the process's own rusage, or None if it failed."""
    cmd = [binary, workload, "--seed", str(seed), *flags]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"perfbench: {workload} run exited with {proc.returncode}")
        return None
    try:
        rec = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        log(f"perfbench: unreadable run record: {e}")
        return None
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    return rec


def expected_path(workload):
    return os.path.join(HERE, "expected", f"{workload}.json")


def check(rec, expected):
    """Returns (attempted, problems) for one run: one item per
    fingerprinted output, plus one for the engine's cache counters."""
    want_outputs = expected["outputs"]
    outputs = rec["outputs"]
    labels = list(want_outputs) + [k for k in outputs if k not in want_outputs]
    problems = [f"{k}: {outputs.get(k, 'missing')} (expected {want_outputs.get(k, 'nothing')})"
                for k in labels if outputs.get(k) != want_outputs.get(k)]
    counters = counts(rec)
    if counters != expected["counters"]:
        problems.append(f"engine counters {counters} (expected {expected['counters']})")
    return len(labels) + 1, problems


def counts(rec):
    """The engine's cache counters, without its stage timers."""
    return {k: v for k, v in rec["counters"].items() if not k.endswith("_ns")}


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 2

    if args.record:
        rec = run_once(binary, args.workload, args.seed)
        if rec is None:
            return 1
        with open(expected_path(args.workload), "w") as f:
            json.dump({"counters": counts(rec), "outputs": dict(sorted(rec["outputs"].items()))},
                      f, indent=1)
            f.write("\n")
        log(f"perfbench: wrote {expected_path(args.workload)}")
        return 0

    with open(expected_path(args.workload)) as f:
        expected = json.load(f)

    # Untraced runs only, or untraced and traced alternating; never start
    # a round that would end past the deadline once the minimum is in.
    kinds = (False, True) if args.trace else (False,)
    min_rounds = 1 if args.trace else MIN_RUNS
    start = time.perf_counter()
    deadline = start + args.seconds
    runs = {False: [], True: []}
    setups = []
    attempted = failed = 0
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            rec = run_once(binary, args.workload, args.seed, ("--trace",) if traced else ())
            if rec is None:
                attempted += len(expected["outputs"]) + 1
                failed += len(expected["outputs"]) + 1
                continue
            a, problems = check(rec, expected)
            attempted += a
            failed += len(problems)
            for p in problems:
                log(f"perfbench: {args.workload} seed {args.seed}: {p}")
            runs[traced].append(rec)
            if not args.trace:
                setups.append(rec["setup_s"])
                for _ in range(SETUP_PER_RUN):
                    extra = run_once(binary, args.workload, args.seed, ("--setup-only",))
                    if extra is not None:
                        setups.append(extra["setup_s"])
            log(f"perfbench: {args.workload} seed={args.seed} traced={int(traced)} "
                f"setup={rec['setup_s']:.3f}s wall={rec['wall_s']:.3f}s "
                f"cpu={rec['cpu_s']:.2f}s rss={rec['peak_rss_mb']:.0f}MB")
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - round_start) > deadline:
            break

    untraced = runs[False]
    if args.trace:
        traced = runs[True]
        names = list(traced[0]["layers"]) if traced else []
        metrics = {n: {"value": median([r["layers"][n] for r in traced]), "unit": unit_of(n)}
                   for n in names}
        for span in traced[-1]["spans"] if traced else []:
            log(f"perfbench: span {span['name']}: {span['end_s'] - span['start_s']:.3f}s "
                f"{span['delta']}")
        metrics["bench.trace_overhead_s"] = {
            "value": median([r["wall_s"] for r in traced])
            - median([r["wall_s"] for r in untraced]),
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": median([r["wall_s"] for r in untraced]), "unit": "s"},
            "cpu_s": {"value": median([r["cpu_s"] for r in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in untraced]),
                            "unit": "MB"},
            "setup_s": {"value": median(setups), "unit": "s"},
        }
    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"runs={len(untraced)}+{len(runs[True])} elapsed={time.perf_counter() - start:.1f}s")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name):
    """A per-layer metric's unit, from its name."""
    if "ns_per" in name:
        return "ns"
    if "ms_per" in name:
        return "ms"
    for suffix, unit in (("_mb", "MB"), ("_frac", "fraction"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
