"""Self-test of the benchmark itself (not of rnlab).

    python3 perfbench/selftest.py

For each workload, on seed 2024, it checks that
  1. a deliberately perturbed output is counted as failed, and
  2. two traced runs on one seed give identical .calls, .entries, N1 term
     count and ratio values (the counts a later change may cite exactly);
and once, that BENCHMARK.json lists exactly the per-layer metrics the tracer
reports and that the closed-form psi-support count of the tracer equals a
direct count on a field.  Exits 1 on the first broken property.
"""

import json
import os
import sys

import numpy as np

from child import WORKLOADS
from run import SRC, run_child
from tracer import Tracer, _count_psi_support, metric_specs

REFERENCE_SEED = 2024  # has a stored picard_1d reference


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        sys.exit(1)


def exact_metrics():
    return [name for name, unit, _ in metric_specs()
            if unit in ("count", "ratio") and name != "trace.uncovered_share"]


def benchmark_json_matches():
    with open(os.path.join(os.path.dirname(SRC), "BENCHMARK.json")) as f:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(f)["per_layer"]]
    check(listed == list(metric_specs()),
          f"BENCHMARK.json lists the {len(listed)} per-layer metrics the tracer reports")


def psi_support_count():
    sys.path.insert(0, SRC)
    import rnlab

    grid = rnlab.FrequencyGrid.for_box(1, 6, 0.25)
    fhat = rnlab.random_field(grid, np.random.default_rng(0), columns=[[-5], [0], [2], [6]])
    tracer = Tracer()
    _count_psi_support(tracer, (None, None, None, fhat), {})
    direct = int(np.count_nonzero(np.abs(fhat.mod_array()) < 2.0))
    check(tracer.counts["psi_entries"] == direct,
          f"closed-form psi-support count {tracer.counts['psi_entries']} == direct {direct}")


def main():
    benchmark_json_matches()
    psi_support_count()
    for workload in WORKLOADS:
        bad = run_child(workload, REFERENCE_SEED, "--perturb")
        check(bad["failed"] > 0,
              f"{workload}: perturbed output counted as failed ({bad['failed']}/"
              f"{bad['attempted']}: {bad['detail']})")
        first = run_child(workload, REFERENCE_SEED, "--trace")["layers"]
        second = run_child(workload, REFERENCE_SEED, "--trace")["layers"]
        names = exact_metrics()
        differ = [n for n in names if first[n] != second[n]]
        check(not differ, f"{workload}: {len(names)} count and ratio metrics repeat exactly"
              + (f" (differ: {differ})" if differ else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
