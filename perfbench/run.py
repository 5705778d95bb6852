"""rnlab benchmark: one workload, measured in fresh processes, outputs gated.

    python3 perfbench/run.py --workload picard_1d --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every workload process imports rnlab from
./src (nothing is installed or built) with RNL_THREADS unset, so sweeps are
serial and BLAS/FFT run with their library defaults.

--trace 0 times set-up SETUP_SAMPLES times: in each workload process and in
set-up-only processes that follow them.  It starts another workload process
only while that one and the set-up-only processes still to come are expected
to end within --seconds (at least one workload process), and reports medians
of wall_s, setup_s and peak_rss_mb.  --trace 1 runs the workload once
untraced and once traced on the same seed, asserts the two outputs are
bitwise identical, and reports the per-layer metrics of the traced process.

The last stdout line is the JSON result; per-run details (environment,
every sample) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from child import WORKLOADS
from tracer import metric_specs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("RNL_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, seed, *flags):
    """Start one workload process and return its JSON report."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
         "--t0", repr(t0), *flags],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"{workload} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(SRC, "rnlab", "__init__.py")
    if "env" in report and os.path.realpath(report["env"]["rnlab_file"]) != os.path.realpath(expected):
        fail(f"imported rnlab from {report['env']['rnlab_file']}, not from {SRC}")
    return report


def source_stats():
    """Digest and line count of src/rnlab (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    lines = 0
    pkg = os.path.join(SRC, "rnlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                text = f.read()
            h.update(name.encode() + b"\0" + text)
            lines += text.count(b"\n")
    return h.hexdigest()[:16], lines


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def untraced(workload, seed, seconds):
    start = time.perf_counter()
    runs = [run_child(workload, seed)]

    def fits_another():
        # at the mean durations so far: one more workload process, then the
        # set-up-only processes that would still be needed
        n = len(runs) + 1
        setup = statistics.mean(r["setup_s"] for r in runs)
        spent = time.perf_counter() - start
        return spent * n / len(runs) + max(SETUP_SAMPLES - n, 0) * setup <= seconds

    while fits_another():
        runs.append(run_child(workload, seed))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "--setup-only")["setup_s"])
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    samples = {"wall_s": [r["wall_s"] for r in runs], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    return runs, metrics, samples, True


def traced(workload, seed):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    plain = run_child(workload, seed)
    trace = run_child(workload, seed, "--trace", "--spans", spans)
    identical = plain["digest"] == trace["digest"]
    if not identical:
        print("traced output differs from untraced output", file=sys.stderr)
    layers = trace.pop("layers")
    layers["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    metrics = {name: (layers[name], unit) for name, unit, _ in metric_specs()}
    samples = {"untraced_wall_s": [plain["wall_s"]], "traced_wall_s": [trace["wall_s"]]}
    return [plain, trace], metrics, samples, identical


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (numpy seeds are non-negative)")

    if not os.path.isfile(os.path.join(SRC, "rnlab", "__init__.py")):
        fail(f"no rnlab sources under {SRC}; run from a checkout of the repository")

    if args.trace:
        runs, metrics, samples, identical = traced(args.workload, args.seed)
    else:
        runs, metrics, samples, identical = untraced(args.workload, args.seed, args.seconds)
    # in a traced run the identity of the two outputs is one more operation
    attempted = sum(r["attempted"] for r in runs) + args.trace
    failed = sum(r["failed"] for r in runs) + (not identical)
    errs = [r["result_err"] for r in runs if r["result_err"] is not None]
    src_digest, src_lines = source_stats()
    env = dict(runs[0]["env"], nproc=os.cpu_count(), commit=commit(),
               src_digest=src_digest, src_rnlab_lines=src_lines)
    env.pop("rnlab_file")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(runs)} workload process(es)")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        if name in samples:
            print(f"  {name}: median of n={len(samples[name])} samples "
                  f"(too few for a percentile with >=10 beyond it): {samples[name]}")
    print(f"  error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"  result_err: {max(errs) if errs else 'n/a'}")
    for r in runs:
        print(f"  output: {r['detail']}")
    if args.trace:
        print(f"  traced output bitwise identical to untraced: {identical}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "samples": samples, "runs": runs,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
