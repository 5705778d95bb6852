"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not calibrated elsewhere:

  1. family norm scalings within +-0.05 of the predicted exponents,
     N in {4..128}, under 10 s per family (plus the full exponent table in
     the asymptotic regime N in {64..256});
  2. classical threshold: X-mode ratio-slope sign change at the zero of
     2b-2-2s, i.e. s = b-1, within +-0.05 for b in {0.51, 0.6, 2/3},
     trending to -1/2 as b -> 1/2+ (the modified-norm crossings at 2b-2 are
     recorded alongside);
  3. modified-norm threshold: example1 and example2 scans at b = 2/3 both
     cross at s = -2/3 +- 0.05, both scans under 60 s;
  4. remark_uu obstruction: ratio slope -s +- 0.05 at s in {-0.2, -0.4} in
     both norm modes;
  5. Duhamel identity to 1e-6 relative (C_t H^0) on 10 random smooth pairs,
     under 30 s;
  6. contraction at s=-0.6, n_max=32, unit-H^s data: some T in
     {1/4, 1/8, 1/16} with >= 5 consecutive ratios < 0.9; halving T lowers
     the median ratio; fitted theta > 0 recorded;
  7. continuous dependence: quotient stable within x3 across 20 seeded
     directions at perturbation sizes 1e-2 and 1e-3;
  8. the property-check battery passes wholesale.
"""

import time

import numpy as np
import pytest

from rnlab.checks import run_all
from rnlab.cutoffs import free_evolution_data
from rnlab.families import predicted_exponents
from rnlab.grid import FrequencyGrid, time_slices
from rnlab.norms import NormParams, ct_hs_norm, spatial_hs_norm
from rnlab.solver import (
    PicardPlan,
    SolverParams,
    duhamel_n1,
    duhamel_n2,
    duhamel_n3,
    nonlinear_fourier_data,
    picard_solve,
    rough_initial_data,
)
from rnlab.sweep import fit_loglog, run_sweep, threshold_scan

from oracles import duhamel_time_integral

S_DEFAULT = -0.6
B_DEFAULT = 2.0 / 3.0
SLOPE_TOL = 0.05


def _verdict(number, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def _component_slopes(report):
    ns = [r.N for r in report.rows]
    return {
        "u": fit_loglog(ns, [r.u_norm for r in report.rows])[0],
        "v": fit_loglog(ns, [r.v_norm for r in report.rows])[0],
        "lhs": fit_loglog(ns, [r.lhs for r in report.rows])[0],
        "ratio": report.fitted_slope,
    }


def test_criterion_1_family_norm_scalings():
    p = NormParams(s=S_DEFAULT, b=B_DEFAULT)
    n_main = (4, 8, 16, 32, 64, 128)
    failures = []
    timings = {}

    # paper-anchored scalings on the full dyadic range 4..128
    t0 = time.perf_counter()
    ex1 = run_sweep("example1", n_main, p, mode="X")
    timings["example1"] = time.perf_counter() - t0
    got = _component_slopes(ex1)
    pe = predicted_exponents("example1", p.s, p.b, "X")
    for key, want in [("u", pe.u_norm_slope), ("v", pe.v_norm_slope),
                      ("lhs", pe.product_slope), ("ratio", pe.ratio_slope)]:
        if abs(got[key] - want) > SLOPE_TOL:
            failures.append(f"example1/X {key}: {got[key]:+.3f} vs {want:+.3f}")

    t0 = time.perf_counter()
    ex2 = run_sweep("example2", n_main, p, mode="Z")
    timings["example2"] = time.perf_counter() - t0
    v_slope = _component_slopes(ex2)["v"]
    if abs(v_slope - (p.s + 2 * p.b)) > SLOPE_TOL:
        failures.append(f"example2/Z v: {v_slope:+.3f} vs {p.s + 2 * p.b:+.3f}")

    t0 = time.perf_counter()
    uu = run_sweep("remark_uu", n_main, p, mode="X")
    timings["remark_uu"] = time.perf_counter() - t0
    got = _component_slopes(uu)
    pe = predicted_exponents("remark_uu", p.s, p.b, "X")
    for key, want in [("u", pe.u_norm_slope), ("v", pe.v_norm_slope),
                      ("lhs", pe.product_slope), ("ratio", pe.ratio_slope)]:
        if abs(got[key] - want) > SLOPE_TOL:
            failures.append(f"remark_uu/X {key}: {got[key]:+.3f} vs {want:+.3f}")

    # full predicted-exponent table where the modulation split has converged
    # (below N=32 the hard lo/hi split makes on-paraboloid Z-norms
    # non-power-law, which is a property of the norm, not noise)
    for kind, mode in [("example1", "X"), ("example1", "Z"), ("example2", "Z"),
                       ("example2", "X"), ("remark_uu", "X"), ("remark_uu", "Z")]:
        rep = run_sweep(kind, (64, 128, 256), p, mode=mode, tau_step=0.5)
        got = _component_slopes(rep)
        pe = predicted_exponents(kind, p.s, p.b, mode)
        for key, want in [("u", pe.u_norm_slope), ("v", pe.v_norm_slope),
                          ("lhs", pe.product_slope), ("ratio", pe.ratio_slope)]:
            if abs(got[key] - want) > SLOPE_TOL:
                failures.append(f"{kind}/{mode} asymptotic {key}: "
                                f"{got[key]:+.3f} vs {want:+.3f}")

    slow = {k: t for k, t in timings.items() if t >= 10.0}
    ok = not failures and not slow
    detail = (f"all family slopes within +-{SLOPE_TOL}; "
              f"runtimes {', '.join(f'{k} {t:.1f}s' for k, t in timings.items())}")
    if failures:
        detail = "; ".join(failures)
    if slow:
        detail += f"; too slow: {slow}"
    assert _verdict(1, ok, detail), detail


def test_criterion_2_classical_threshold():
    bs = (0.51, 0.6, B_DEFAULT)
    s_grid = np.round(np.arange(-0.65, -0.149, 0.05), 10)
    crossings = {}
    failures = []
    for b in bs:
        scan = threshold_scan("example1", s_grid, b, mode="X")
        crossings[b] = scan.crossing
        target = b - 1.0  # zero of the predicted ratio slope 2b-2-2s
        if scan.crossing is None or abs(scan.crossing - target) > SLOPE_TOL:
            failures.append(f"b={b}: X crossing {scan.crossing} vs {target:+.3f}")
    # admissibility boundary trends toward -1/2 as b -> 1/2+
    ordered = [crossings[b] for b in sorted(bs)]
    if not (ordered[0] < ordered[1] < ordered[2]):
        failures.append(f"crossings not monotone toward -1/2: {ordered}")
    if abs(crossings[0.51] - (-0.5)) > 0.02:
        failures.append(f"b=0.51 crossing {crossings[0.51]:+.3f} not near -1/2")
    # companion: modified-norm crossings sit at 2b-2 (recorded; the finite-N
    # bias of the two-term Y norm is visible at b=0.6)
    z_info = []
    for b in bs:
        scan = threshold_scan("example1", np.round(np.arange(-1.2, -0.44, 0.05), 10),
                              b, mode="Z")
        z_info.append(f"b={b:.2f}: {scan.crossing:+.3f} (2b-2 = {2 * b - 2:+.3f})")
    ok = not failures
    detail = ("X-mode crossings " +
              ", ".join(f"b={b}: {crossings[b]:+.4f} (target {b - 1:+.4f})" for b in bs) +
              " | Z-mode recorded: " + "; ".join(z_info))
    if failures:
        detail = "; ".join(failures)
    assert _verdict(2, ok, detail), detail


def test_criterion_3_modified_threshold_at_minus_two_thirds():
    s_grid = np.round(np.arange(-0.9, -0.399, 0.05), 10)
    t0 = time.perf_counter()
    found = {}
    for kind in ("example1", "example2"):
        scan = threshold_scan(kind, s_grid, B_DEFAULT, mode="Z")
        found[kind] = scan.crossing
    elapsed = time.perf_counter() - t0
    errs = {k: abs(v - (-2.0 / 3.0)) for k, v in found.items() if v is not None}
    ok = (len(errs) == 2 and all(e <= SLOPE_TOL for e in errs.values())
          and elapsed < 60.0)
    detail = (", ".join(f"{k}: crossing {found[k]:+.4f}" for k in found)
              + f" (target -2/3), {elapsed:.1f}s")
    assert _verdict(3, ok, detail), detail


def test_criterion_4_remark_uu_obstruction():
    failures = []
    results = []
    for s in (-0.2, -0.4):
        p = NormParams(s=s, b=B_DEFAULT)
        for mode in ("X", "Z"):
            rep = run_sweep("remark_uu", (64, 128, 256, 512), p, mode=mode,
                            tau_step=0.5)
            results.append(f"s={s}/{mode}: {rep.fitted_slope:+.4f}")
            if abs(rep.fitted_slope - (-s)) > SLOPE_TOL:
                failures.append(f"s={s} mode={mode}: slope {rep.fitted_slope:+.3f} "
                                f"vs {-s:+.3f}")
            if s < 0 and rep.verdict != "diverges":
                failures.append(f"s={s} mode={mode}: expected divergence flag")
    ok = not failures
    detail = "ratio slopes " + ", ".join(results) + " (target -s, both modes)"
    if failures:
        detail = "; ".join(failures)
    assert _verdict(4, ok, detail), detail


def test_criterion_5_duhamel_identity():
    grid = FrequencyGrid(2, 2, 240.0, 0.25)
    T = 0.125
    rng = np.random.default_rng(321)
    times = np.linspace(-T, T, 7)
    t0 = time.perf_counter()
    plan = PicardPlan.build(grid, NormParams(s=S_DEFAULT))
    worst = 0.0
    for _ in range(10):
        ns = grid.box_index
        mk = lambda: ((rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns)))
                      * (1.0 + FrequencyGrid.norm_sq(ns).astype(float)) ** -2.0)
        u = free_evolution_data(grid, (ns, mk()))
        v = free_evolution_data(grid, (ns, mk()))
        fhat = nonlinear_fourier_data(u, v, T)
        total = duhamel_n1(fhat, plan) + duhamel_n2(fhat, plan) + duhamel_n3(fhat, plan)
        lhs = time_slices(total, times)
        rhs = duhamel_time_integral(fhat, times)
        # relative error in C_t H^0: sup_t l2-distance over sup_t l2-size
        num = np.sqrt((np.abs(lhs - rhs) ** 2).sum(axis=0)).max()
        den = np.sqrt((np.abs(rhs) ** 2).sum(axis=0)).max()
        worst = max(worst, num / den)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    detail = f"worst relative C_tH^0 error {worst:.2e} over 10 pairs, {elapsed:.1f}s"
    assert _verdict(5, ok, detail), detail


def _longest_run_below(ratios, bound):
    best = cur = 0
    for r in ratios:
        cur = cur + 1 if r < bound else 0
        best = max(best, cur)
    return best


def test_criterion_6_contraction():
    grid = FrequencyGrid.for_box(1, 32, 0.25)
    u0 = rough_initial_data(grid, S_DEFAULT, seed=2024)
    assert spatial_hs_norm(u0[0], u0[1], S_DEFAULT) == pytest.approx(1.0, rel=1e-12)
    t_values = (0.25, 0.125, 0.0625)
    medians = []
    runs = []
    for T in t_values:
        params = SolverParams(s=S_DEFAULT, T=T, max_iterations=10,
                              contraction_tolerance=1e-13)
        trace = picard_solve(u0, params, grid)
        ratios = trace.contraction_ratios(floor=1e-11)
        medians.append(float(np.median(ratios)))
        runs.append(_longest_run_below(ratios, 0.9))
    theta = fit_loglog(t_values, medians)[0]
    ok = (max(runs) >= 5
          and medians[0] > medians[1] > medians[2]
          and theta > 0.0)
    detail = (f"median ratios {[f'{m:.3f}' for m in medians]} at T={t_values}, "
              f"longest runs below 0.9: {runs}, fitted theta {theta:+.3f}")
    assert _verdict(6, ok, detail), detail


def test_criterion_7_continuous_dependence():
    grid = FrequencyGrid.for_box(1, 16, 0.25)
    params = SolverParams(s=S_DEFAULT, T=0.0625, max_iterations=8,
                          contraction_tolerance=1e-12)
    ns, base = rough_initial_data(grid, S_DEFAULT, seed=2024)
    base_trace = picard_solve((ns, base), params, grid)
    rng = np.random.default_rng(77)
    spreads = {}
    ok = True
    for size in (1e-2, 1e-3):
        quotients = []
        for _ in range(20):
            g = rng.standard_normal(len(ns)) + 1j * rng.standard_normal(len(ns))
            pert = g / spatial_hs_norm(ns, g, S_DEFAULT) * size
            trace = picard_solve((ns, base + pert), params, grid)
            dout = ct_hs_norm(trace.final - base_trace.final,
                              S_DEFAULT, (-params.T, params.T))
            quotients.append(dout / size)
        spread = max(quotients) / min(quotients)
        spreads[size] = (min(quotients), max(quotients), spread)
        ok &= spread <= 3.0
    detail = ", ".join(
        f"size {s:g}: quotient in [{lo:.3f}, {hi:.3f}] (x{sp:.2f})"
        for s, (lo, hi, sp) in spreads.items())
    assert _verdict(7, ok, detail), detail


def test_criterion_8_property_suites():
    results = run_all(seed=2024)
    bad = [r for r in results if not r.passed]
    for r in results:
        print("   " + r.line())
    ok = not bad
    detail = f"{len(results) - len(bad)}/{len(results)} property checks pass"
    if bad:
        detail += "; failing: " + ", ".join(r.name for r in bad)
    assert _verdict(8, ok, detail), detail
