"""One workload in one fresh process: set up, run, gate the output, report.

Run by run.py as

    python3 perfbench/child.py --workload NAME --seed N --t0 T [--trace] [--setup-only]

with ``src`` on PYTHONPATH.  ``--t0`` is the parent's perf_counter reading
just before the process was started (the clock is system-wide), so setup_s
covers interpreter start, ``import rnlab`` and input generation.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import struct
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "picard_1d.json")

# picard_1d: the contraction criterion's scale, ten iterations, tolerance out of reach
PICARD = {"d": 1, "n_max": 32, "tau_step": 0.25, "T": 0.125, "s": -0.6, "iterations": 10}
PICARD_REL_TOL = 1e-8
CONTRACTION_RATIO = 0.9
CONTRACTION_RUN = 5
RATIO_FLOOR = 1e-11

# scan_xz: (family, mode, b, expected crossing)
SCANS = (("example1", "X", 0.6, 0.6 - 1.0), ("example2", "Z", 2.0 / 3.0, -2.0 / 3.0))
SCAN_POINTS = 11
SCAN_STEP = 0.05
CROSSING_TOL = 0.05


def _pack(*floats):
    return struct.pack(f"<{len(floats)}d", *floats)


def longest_run_below(values, limit):
    best = run = 0
    for v in values:
        run = run + 1 if v < limit else 0
        best = max(best, run)
    return best


# -- picard_1d -----------------------------------------------------------------


def picard_inputs(rnlab, seed):
    grid = rnlab.FrequencyGrid.for_box(PICARD["d"], PICARD["n_max"], PICARD["tau_step"])
    u0 = rnlab.rough_initial_data(grid, PICARD["s"], seed)
    params = rnlab.SolverParams(s=PICARD["s"], T=PICARD["T"],
                                max_iterations=PICARD["iterations"],
                                contraction_tolerance=0.0)
    return grid, u0, params


def picard_run(rnlab, inputs):
    grid, u0, params = inputs
    try:
        return rnlab.picard_solve(u0, params, grid)
    except rnlab.DivergenceError as exc:
        exc.trace.diverged = str(exc)
        return exc.trace


def picard_perturb(trace):
    trace.z_norms[-1] *= 1.0 + 1e-6


def load_references():
    with open(REFERENCE) as f:
        return json.load(f)["z_norms"]


def picard_gate(trace, inputs, seed):
    """One operation (the solve); returns (failed per operation, result_err, detail)."""
    problems = []
    if getattr(trace, "diverged", None):
        problems.append(f"diverged: {trace.diverged}")
    ratios = trace.contraction_ratios(floor=RATIO_FLOOR)
    run = longest_run_below(ratios, CONTRACTION_RATIO)
    if run < CONTRACTION_RUN:
        problems.append(f"longest run of contraction ratios < {CONTRACTION_RATIO} is {run}")
    if not np.isfinite(trace.z_norms).all():
        problems.append("non-finite Z-norm")
    result_err = None
    ref = load_references().get(str(seed))
    if ref is not None:
        if len(ref) != len(trace.z_norms):
            problems.append(f"{len(trace.z_norms)} Z-norms, reference has {len(ref)}")
        else:
            got, want = np.asarray(trace.z_norms), np.asarray(ref)
            result_err = float(np.max(np.abs(got - want) / np.abs(want)))
            if not result_err <= PICARD_REL_TOL:
                problems.append(f"Z-norm trace off its reference by {result_err:.3e} relative")
    detail = (f"{len(trace.iterates) - 1} iterations, longest contraction run {run}, "
              f"reference {'none for this seed' if ref is None else 'checked'}")
    return [len(problems) > 0], result_err, "; ".join(problems) or detail


def picard_digest(trace):
    h = hashlib.sha256()
    h.update(_pack(*trace.z_norms, *trace.successive_diffs))
    for u in trace.iterates:
        h.update(u.index.tobytes())
        h.update(u.data.tobytes())
    return h.hexdigest()


# -- scan_xz -------------------------------------------------------------------


def scan_inputs(rnlab, seed):
    """Eleven s values per scan, 0.05 apart, shifted by the seed around the target."""
    rng = np.random.default_rng(seed)
    out = []
    for kind, mode, b, expected in SCANS:
        first = expected - SCAN_STEP * (SCAN_POINTS // 2) + rng.uniform(-0.1, 0.1)
        s_values = np.round(first + SCAN_STEP * np.arange(SCAN_POINTS), 12)
        out.append((kind, mode, b, expected, s_values))
    return out


def scan_run(rnlab, inputs):
    return [rnlab.threshold_scan(kind, s_values, b, mode=mode)
            for kind, mode, b, _, s_values in inputs]


def scan_perturb(scans):
    scans[0].crossing += 0.1


def scan_gate(scans, inputs, seed):
    """One operation per scan: a null crossing or one off by > 0.05 fails."""
    failed, errs, parts = [], [], []
    for scan, (kind, mode, b, expected, _) in zip(scans, inputs):
        err = None if scan.crossing is None else abs(scan.crossing - expected)
        failed.append(err is None or not err <= CROSSING_TOL)
        if err is not None:
            errs.append(err)
        parts.append(f"{kind}/{mode} b={b:.4f}: crossing {scan.crossing} "
                     f"(expected {expected:+.4f})")
    return failed, (max(errs) if errs else None), "; ".join(parts)


def scan_digest(scans):
    h = hashlib.sha256()
    for scan in scans:
        h.update(scan.to_json_text().encode())
    return h.hexdigest()


# -- check_battery -------------------------------------------------------------


def check_inputs(rnlab, seed):
    import rnlab.checks  # noqa: F401  (not imported by the package itself)

    return int(seed)


def check_run(rnlab, seed):
    return rnlab.checks.run_all(seed)


def check_perturb(results):
    results[0].passed = False


def check_gate(results, inputs, seed):
    """One operation per check: a check that does not pass fails."""
    failed = [not r.passed for r in results]
    bad = [r.line() for r in results if not r.passed]
    return failed, None, "; ".join(bad) or f"{len(results)} checks passed"


def check_digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(r.line().encode() + b"\n")
    return h.hexdigest()


# name -> (make inputs, run, perturb output, gate output, digest output)
WORKLOADS = {
    "picard_1d": (picard_inputs, picard_run, picard_perturb, picard_gate, picard_digest),
    "scan_xz": (scan_inputs, scan_run, scan_perturb, scan_gate, scan_digest),
    "check_battery": (check_inputs, check_run, check_perturb, check_gate, check_digest),
}


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be queried."""
    import ctypes
    import re

    try:
        with open("/proc/self/maps") as f:
            libs = {m for m in re.findall(r"(/\S+\.so\S*)", f.read()) if "blas" in m.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(rnlab):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "rnlab_file": rnlab.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "RNL_THREADS": os.environ.get("RNL_THREADS"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt the output before gating (benchmark self-test)")
    ap.add_argument("--spans", help="write the recorded spans here (with --trace)")
    args = ap.parse_args(argv)

    import rnlab

    make_inputs, run, perturb, gate, digest = WORKLOADS[args.workload]
    inputs = make_inputs(rnlab, args.seed)
    setup_s = time.perf_counter() - args.t0
    report = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(rnlab)
    start = time.perf_counter()
    out = run(rnlab, inputs)
    wall_s = time.perf_counter() - start
    if args.perturb:
        perturb(out)
    failed, result_err, detail = gate(out, inputs, args.seed)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report.update({
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "attempted": len(failed),
        "failed": int(sum(failed)),
        "result_err": result_err,
        "detail": detail,
        "digest": digest(out),
        "env": environment(rnlab),
    })
    if tracer is not None:
        report["layers"] = tracer.summary(wall_s)
        if args.spans:
            tracer.write_spans(args.spans, start)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
